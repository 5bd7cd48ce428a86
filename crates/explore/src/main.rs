//! `ar-explore` — CLI front end for the state-space explorer and the
//! wire fuzzer.
//!
//! ```text
//! ar-explore explore [--hosts N] [--depth D] [--config NAME]
//!                    [--subs N] [--max-states N] [--time-box SECS]
//!                    [--membership] [--joiners N] [--max-faults N]
//!                    [--no-drops] [--no-dups] [--no-timers]
//!                    [--emit-corpus DIR] [--corpus-count K]
//!                    [--emit-violations DIR] [--json]
//! ar-explore fuzz    [--seed N] [--iterations N] [--max-mutations N] [--json]
//! ar-explore replay  FILE...
//! ```
//!
//! Exit status: 0 when everything is green, 1 when the explorer found
//! a violation, the fuzzer found a property failure, or a replayed
//! schedule diverged from its recorded expectation; 2 on usage errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use ar_explore::explorer::{self, default_submissions, ExploreConfig, Explorer};
use ar_explore::fuzz::{self, FuzzConfig};
use ar_net::replay::{regression_stub, replay_schedule, Expectation, Schedule};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("explore") => cmd_explore(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("enabled") => cmd_enabled(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
ar-explore: systematic testing for the Accelerated Ring protocol core

USAGE:
  ar-explore explore [--hosts N] [--depth D] [--config NAME] [--subs N]
                     [--max-states N] [--time-box SECS]
                     [--membership]   (enable join/fail/partition/merge moves
                                       and check the abstract membership model)
                     [--joiners N]    (last N hosts start outside the ring)
                     [--max-faults N] (fail/partition budget, default 1)
                     [--no-drops] [--no-dups] [--no-timers]
                     [--emit-corpus DIR] [--corpus-count K]
                     [--emit-violations DIR] [--json]
  ar-explore fuzz    [--seed N] [--iterations N] [--max-mutations N] [--json]
  ar-explore replay  FILE...
  ar-explore enabled FILE      (replay FILE, then list the enabled steps)
";

/// Minimal flag parser: `--key value` pairs plus boolean `--flags`.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Flags<'a> {
        Flags { args }
    }

    fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn num(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => parse_u64(v).ok_or_else(|| format!("{name} wants a number, got {v:?}")),
        }
    }
}

fn parse_u64(v: &str) -> Option<u64> {
    if let Some(hexpart) = v.strip_prefix("0x") {
        u64::from_str_radix(hexpart, 16).ok()
    } else {
        v.parse().ok()
    }
}

fn cmd_explore(args: &[String]) -> ExitCode {
    let flags = Flags::new(args);
    let cfg = match build_explore_config(&flags) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let json = flags.has("--json");
    let corpus_dir = flags.value("--emit-corpus").map(PathBuf::from);
    let violations_dir = flags.value("--emit-violations").map(PathBuf::from);
    let report = match Explorer::new(cfg.clone()).run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("exploration failed to start: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = corpus_dir {
        if let Err(e) = emit_corpus(&dir, &report.corpus) {
            eprintln!("failed to write corpus: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(dir) = &violations_dir {
        if let Err(e) = emit_violations(dir, &report.violations) {
            eprintln!("failed to write violations: {e}");
            return ExitCode::from(2);
        }
    }
    if json {
        println!("{}", explorer::report_to_json(&cfg, &report));
    } else {
        println!(
            "explored {} states / {} transitions in {:?} ({:.0} states/s{})",
            report.states_visited,
            report.transitions,
            report.elapsed,
            report.states_per_sec(),
            if report.truncated { ", TRUNCATED" } else { "" },
        );
        println!(
            "pruned: {} visited-state, {} sleep-set (prune ratio {:.2})",
            report.pruned_visited,
            report.pruned_sleep,
            report.prune_ratio()
        );
        println!("completed paths: {}", report.completed_paths);
        for (i, v) in report.violations.iter().enumerate() {
            println!(
                "VIOLATION {}: {} (schedule {} steps, minimized from {})",
                i,
                v.messages.join("; "),
                v.schedule.steps.len(),
                v.original_len
            );
        }
    }
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn build_explore_config(flags: &Flags<'_>) -> Result<ExploreConfig, String> {
    let hosts = flags.num("--hosts", 3)? as u16;
    if !(2..=4).contains(&hosts) {
        return Err(format!("--hosts must be 2..=4, got {hosts}"));
    }
    let depth = flags.num("--depth", 10)? as usize;
    let subs = flags.num("--subs", 2)? as usize;
    let time_box = flags.num("--time-box", 120)?;
    let joiner_count = flags.num("--joiners", 0)? as u16;
    if joiner_count >= hosts {
        return Err(format!(
            "--joiners must leave at least one seed host, got {joiner_count} of {hosts}"
        ));
    }
    // The last `--joiners N` hosts start outside the ring and join on
    // demand; submissions go to the seed members only.
    let joiners: Vec<u16> = (hosts - joiner_count..hosts).collect();
    Ok(ExploreConfig {
        hosts,
        depth,
        config: flags.value("--config").unwrap_or("accelerated").to_owned(),
        submissions: default_submissions(hosts - joiner_count, subs),
        joiners,
        membership: flags.has("--membership"),
        max_faults: flags.num("--max-faults", 1)? as u8,
        max_states: flags.num("--max-states", 2_000_000)?,
        time_box: if time_box == 0 {
            None
        } else {
            Some(Duration::from_secs(time_box))
        },
        drops: !flags.has("--no-drops"),
        dups: !flags.has("--no-dups"),
        timers: !flags.has("--no-timers"),
        max_violations: flags.num("--max-violations", 8)? as usize,
        corpus_paths: flags.num("--corpus-count", 3)? as usize,
    })
}

fn emit_corpus(dir: &Path, corpus: &[Schedule]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (i, schedule) in corpus.iter().enumerate() {
        let path = dir.join(format!("explore_path_{i:03}.json"));
        std::fs::write(&path, schedule.to_json())?;
        println!("wrote corpus schedule {}", path.display());
    }
    Ok(())
}

fn emit_violations(dir: &Path, violations: &[explorer::Violation]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (i, v) in violations.iter().enumerate() {
        let path = dir.join(format!("violation_{i:03}.json"));
        std::fs::write(&path, v.schedule.to_json())?;
        let stub = regression_stub(
            &format!("replays_violation_{i:03}"),
            &format!("tests/corpus/violation_{i:03}.json"),
            Expectation::Violation,
        );
        let stub_path = dir.join(format!("violation_{i:03}.stub.rs"));
        std::fs::write(&stub_path, stub)?;
        println!(
            "wrote violation schedule {} (+ regression stub {})",
            path.display(),
            stub_path.display()
        );
    }
    Ok(())
}

fn cmd_fuzz(args: &[String]) -> ExitCode {
    let flags = Flags::new(args);
    let defaults = FuzzConfig::default();
    let cfg = match (|| -> Result<FuzzConfig, String> {
        Ok(FuzzConfig {
            seed: flags.num("--seed", defaults.seed)?,
            iterations: flags.num("--iterations", defaults.iterations)?,
            max_mutations: flags.num("--max-mutations", u64::from(defaults.max_mutations))? as u32,
        })
    })() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = fuzz::run(&cfg);
    if flags.has("--json") {
        println!("{}", fuzz::report_to_json(&cfg, &report));
    } else {
        println!(
            "fuzzed {} inputs (seed {:#x}): {} accepted, {} rejected, {} failures",
            report.iterations,
            cfg.seed,
            report.accepted,
            report.rejected,
            report.failures.len()
        );
        for f in &report.failures {
            println!(
                "FAILURE at iteration {} [{}]: {}\n  input: {}",
                f.iteration, f.kind, f.detail, f.input_hex
            );
        }
    }
    if report.is_green() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Replays a schedule, then prints the world's enabled steps and
/// in-flight messages — the tool for crafting corpus schedules by
/// hand.
fn cmd_enabled(files: &[String]) -> ExitCode {
    let Some(file) = files.first() else {
        eprintln!("enabled wants a schedule file\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let run = || -> Result<(), String> {
        let text = std::fs::read_to_string(file).map_err(|e| e.to_string())?;
        let schedule = Schedule::from_json(&text).map_err(|e| e.to_string())?;
        let mut world =
            ar_net::replay::World::from_schedule(&schedule).map_err(|e| e.to_string())?;
        for (i, step) in schedule.steps.iter().enumerate() {
            world
                .apply_step(step)
                .map_err(|e| format!("step {i} ({}): {e}", step.describe()))?;
        }
        println!("violations: {:?}", world.violations());
        println!("deliveries: {:?}", world.deliveries());
        for m in world.inflight() {
            println!(
                "inflight #{} -> host {} (dup budget {})",
                m.id, m.to, m.dup_left
            );
        }
        for step in world.enabled() {
            println!("enabled: {}", step.describe());
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{file}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_replay(files: &[String]) -> ExitCode {
    if files.is_empty() {
        eprintln!("replay wants at least one schedule file\n\n{USAGE}");
        return ExitCode::from(2);
    }
    let mut bad = 0usize;
    for file in files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{file}: {e}");
                bad += 1;
                continue;
            }
        };
        let schedule = match Schedule::from_json(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{file}: {e}");
                bad += 1;
                continue;
            }
        };
        match replay_schedule(&schedule) {
            Ok(outcome) => {
                let ok = outcome.matches(schedule.expect);
                println!(
                    "{file}: {} steps, {} violations, hash {:#018x} — {}",
                    outcome.steps_applied,
                    outcome.violations.len(),
                    outcome.final_hash,
                    if ok {
                        "matches expectation"
                    } else {
                        "DIVERGED"
                    }
                );
                if !ok {
                    for v in &outcome.violations {
                        println!("  {v}");
                    }
                    bad += 1;
                }
            }
            Err(e) => {
                eprintln!("{file}: replay failed: {e}");
                bad += 1;
            }
        }
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
