//! Command-line contract of the two binaries: an option neither
//! recognises — a typo, or one removed in an earlier release — is
//! named in the error and exits 2, instead of being taken for a
//! positional argument and failing later with a message that never
//! mentions it.

use std::process::Command;

fn assert_unknown_option(bin: &str, args: &[&str], culprit: &str) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("unknown option '{culprit}'")),
        "{bin} {args:?} must name the culprit: {stderr}"
    );
    assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
}

#[test]
fn ard_rejects_unknown_options() {
    let ard = env!("CARGO_BIN_EXE_ard");
    assert_unknown_option(
        ard,
        &["--cliant-addr", "127.0.0.1:1", "ar.conf", "0"],
        "--cliant-addr",
    );
    assert_unknown_option(ard, &["ar.conf", "0", "--line-protocol"], "--line-protocol");
}

#[test]
fn arclient_rejects_unknown_options() {
    let arclient = env!("CARGO_BIN_EXE_arclient");
    // Flags are checked before any connection is attempted.
    assert_unknown_option(arclient, &["127.0.0.1:1", "alice", "--legasy"], "--legasy");
    assert_unknown_option(
        arclient,
        &["--no-resum", "127.0.0.1:1", "alice"],
        "--no-resum",
    );
}
