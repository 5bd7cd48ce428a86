//! Kill -9 chaos against real `ard` processes: a three-daemon ring on
//! localhost UDP with durable logs and seeded datagram loss. One
//! daemon is SIGKILLed mid-run, restarted, SIGKILLed again
//! mid-recovery, and restarted once more. The test then verifies the
//! durability contract from the outside:
//!
//! * no Safe message surfaced to a client is missing from its
//!   daemon's on-disk log — even for the daemon that never got to
//!   exit cleanly (Safe delivery is gated on durability);
//! * the surviving clients observed identical Safe streams
//!   (total order is preserved across the faults).
//!
//! The daemons take their client listener from the deployment file's
//! `clients=` address; a second test pins that rule down (the file's
//! address serves the service-tier protocol, `--client-addr`
//! overrides it, and a pre-service-tier client is turned away).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ar_core::ServiceType;
use ar_log::read_log_dir;
use ar_svc::wire::{decode_server, FrameBuf};
use ar_svc::{ServerFrame, SvcClient, SvcEvent};
use bytes::Bytes;

fn wait_for<F: FnMut() -> bool>(mut f: F, secs: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

/// Reserves `n` local UDP ports and `m` TCP ports by binding to :0.
/// The sockets are dropped before use; tests accept the small reuse
/// race in exchange for parallel-safe port picking.
fn pick_ports(udp: usize, tcp: usize) -> (Vec<u16>, Vec<u16>) {
    let us: Vec<UdpSocket> = (0..udp)
        .map(|_| UdpSocket::bind("127.0.0.1:0").unwrap())
        .collect();
    let ts: Vec<TcpListener> = (0..tcp)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    (
        us.iter().map(|s| s.local_addr().unwrap().port()).collect(),
        ts.iter().map(|l| l.local_addr().unwrap().port()).collect(),
    )
}

struct Ard(Child);

impl Ard {
    /// `ard <flags> <conf> <id>`.
    fn spawn_with(conf: &std::path::Path, id: u16, flags: &[&str]) -> Ard {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_ard"));
        cmd.args(flags).arg(conf).arg(id.to_string());
        cmd.stdout(Stdio::null()).stderr(Stdio::null());
        Ard(cmd.spawn().expect("spawn ard"))
    }

    fn spawn(conf: &std::path::Path, id: u16, log_dir: &std::path::Path, loss: bool) -> Ard {
        let mut flags = vec!["--log-dir", log_dir.to_str().unwrap(), "--fsync", "every:4"];
        if loss {
            flags.extend(["--loss", "0.02", "--loss-seed", "9"]);
        }
        Ard::spawn_with(conf, id, &flags)
    }

    /// SIGKILL — the process gets no chance to flush or fsync.
    fn kill9(mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for Ard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Connects with retries: the daemon binds its client listener a
/// moment after the process starts.
fn connect(addr: &str, name: &str) -> SvcClient {
    let addr: SocketAddr = addr.parse().unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match SvcClient::connect_tcp(addr, name) {
            Ok(c) => return c,
            Err(e) => {
                assert!(Instant::now() < deadline, "connect {name} to {addr}: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Drains `c`, appending Safe payloads to `stream` and tracking the
/// latest group size.
fn drain_into(c: &mut SvcClient, stream: &mut Vec<Bytes>, members: &mut usize) {
    for ev in c.drain() {
        match ev {
            SvcEvent::Deliver { payload, .. } => stream.push(payload),
            SvcEvent::Membership { members: m, .. } => *members = m.len(),
            _ => {}
        }
    }
}

fn publish_safe(c: &mut SvcClient, payload: Bytes) {
    c.publish(&["g"], ServiceType::Safe, payload, Duration::from_secs(30))
        .expect("publish");
}

#[test]
fn kill9_mid_recovery_loses_no_safe_delivery() {
    let base = std::env::temp_dir().join(format!("ar-durable-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();

    let (udp, tcp) = pick_ports(6, 3);
    let mut conf = String::from("protocol accelerated\n");
    for i in 0..3 {
        conf.push_str(&format!(
            "daemon {i} token=127.0.0.1:{} data=127.0.0.1:{} clients=127.0.0.1:{}\n",
            udp[2 * i],
            udp[2 * i + 1],
            tcp[i],
        ));
    }
    let conf_path = base.join("ar.conf");
    std::fs::write(&conf_path, conf).unwrap();
    let log_dir = |i: usize| base.join(format!("d{i}"));
    let client_addr = |i: usize| format!("127.0.0.1:{}", tcp[i]);

    let d0 = Ard::spawn(&conf_path, 0, &log_dir(0), false);
    let d1 = Ard::spawn(&conf_path, 1, &log_dir(1), true); // seeded loss
    let d2 = Ard::spawn(&conf_path, 2, &log_dir(2), false);

    let mut c0 = connect(&client_addr(0), "c0");
    let mut c1 = connect(&client_addr(1), "c1");
    let mut c2 = connect(&client_addr(2), "c2");
    c0.join("g").unwrap();
    c1.join("g").unwrap();
    c2.join("g").unwrap();

    let (mut s0, mut s1, mut s2) = (Vec::new(), Vec::new(), Vec::new());
    let (mut m0, mut m1, mut m2) = (0usize, 0usize, 0usize);
    assert!(
        wait_for(
            || {
                drain_into(&mut c0, &mut s0, &mut m0);
                drain_into(&mut c1, &mut s1, &mut m1);
                drain_into(&mut c2, &mut s2, &mut m2);
                m0 == 3 && m1 == 3 && m2 == 3
            },
            30
        ),
        "3-member group forms (got {m0}/{m1}/{m2})"
    );

    // Safe traffic from every corner of the ring.
    for k in 0..4 {
        for (c, who) in [(&mut c0, "c0"), (&mut c1, "c1"), (&mut c2, "c2")] {
            publish_safe(c, Bytes::from(format!("{who}-m{k}")));
        }
    }
    assert!(
        wait_for(
            || {
                drain_into(&mut c0, &mut s0, &mut m0);
                drain_into(&mut c1, &mut s1, &mut m1);
                drain_into(&mut c2, &mut s2, &mut m2);
                s0.len() >= 12 && s1.len() >= 12 && s2.len() >= 12
            },
            30
        ),
        "safe traffic delivered everywhere ({}/{}/{})",
        s0.len(),
        s1.len(),
        s2.len()
    );

    // kill -9 the lossy daemon: no flush, no fsync, no goodbye.
    d1.kill9();
    drop(c1);
    assert!(
        wait_for(
            || {
                drain_into(&mut c0, &mut s0, &mut m0);
                drain_into(&mut c2, &mut s2, &mut m2);
                m0 == 2 && m2 == 2
            },
            30
        ),
        "survivors reconfigure after kill -9 (got {m0}/{m2})"
    );

    // Restart from disk, then kill -9 again while it is recovering and
    // merging back — the second incarnation may or may not have
    // rejoined yet; either way its disk must only ever grow.
    let d1b = Ard::spawn(&conf_path, 1, &log_dir(1), true);
    std::thread::sleep(Duration::from_millis(300));
    d1b.kill9();

    // Third incarnation gets to live; the ring heals around it.
    let _d1c = Ard::spawn(&conf_path, 1, &log_dir(1), true);
    let mut c1b = connect(&client_addr(1), "c1b");
    c1b.join("g").unwrap();
    let mut s1b = Vec::new();
    let mut m1b = 0usize;
    assert!(
        wait_for(
            || {
                drain_into(&mut c0, &mut s0, &mut m0);
                drain_into(&mut c1b, &mut s1b, &mut m1b);
                drain_into(&mut c2, &mut s2, &mut m2);
                m0 == 3 && m1b == 3 && m2 == 3
            },
            40
        ),
        "group re-forms after two kill -9s (got {m0}/{m1b}/{m2})"
    );

    // Post-chaos Safe traffic flows end-to-end again.
    publish_safe(&mut c0, Bytes::from_static(b"post-chaos"));
    assert!(
        wait_for(
            || {
                drain_into(&mut c0, &mut s0, &mut m0);
                drain_into(&mut c1b, &mut s1b, &mut m1b);
                drain_into(&mut c2, &mut s2, &mut m2);
                [&s0, &s1b, &s2]
                    .iter()
                    .all(|s| s.iter().any(|p| p.as_ref() == b"post-chaos"))
            },
            30
        ),
        "post-chaos safe delivery reaches every client"
    );

    // Survivor streams: c0 and c2 sat in the same component the whole
    // run, so their Safe streams must be identical — the total order
    // survived the chaos.
    assert_eq!(s0, s2, "survivor Safe streams diverged");

    // SIGKILL everything and audit the disks. Safe delivery is gated
    // on durability, so every payload a client observed must be in its
    // daemon's log even though no daemon exited cleanly.
    drop(d0);
    drop(d2);
    drop(_d1c);
    for (i, stream) in [(0usize, &s0), (2, &s2)] {
        let rec = read_log_dir(&log_dir(i)).expect("scan log dir");
        assert!(rec.records > 0, "daemon {i} journalled records");
        // Client payloads ride inside daemon envelopes, and the daemon
        // may pack several client messages into one protocol record:
        // check ordered containment of the observed stream in the
        // concatenated logged byte stream.
        let joined: Vec<u8> = rec
            .deliveries
            .iter()
            .flat_map(|(_, d)| d.payload.iter().copied())
            .collect();
        let mut pos = 0usize;
        for p in stream.iter() {
            let found = joined[pos..].windows(p.len()).position(|w| w == p.as_ref());
            match found {
                Some(at) => pos += at + p.len(),
                None => panic!(
                    "daemon {i}: Safe-delivered {:?} missing from (or out of order in) its log",
                    String::from_utf8_lossy(p)
                ),
            }
        }
    }
    // The twice-killed daemon's disk spans all three incarnations and
    // recovery never shrank it below what its clients saw.
    let rec = read_log_dir(&log_dir(1)).expect("scan killed daemon's log");
    assert!(rec.records > 0, "killed daemon journalled records");
    let joined: Vec<u8> = rec
        .deliveries
        .iter()
        .flat_map(|(_, d)| d.payload.iter().copied())
        .collect();
    for p in s1.iter() {
        assert!(
            joined.windows(p.len()).any(|w| w == p.as_ref()),
            "kill -9 lost Safe-delivered {:?}",
            String::from_utf8_lossy(p)
        );
    }

    std::fs::remove_dir_all(&base).unwrap();
}

/// What a pre-service-tier `arclient` opened a session with: a
/// big-endian `u32` frame length, kind byte 1, then the `u16`-prefixed
/// client name (no protocol version).
fn old_line_protocol_hello(name: &str) -> Vec<u8> {
    let mut body = vec![1u8];
    body.extend((name.len() as u16).to_be_bytes());
    body.extend(name.as_bytes());
    let mut framed = (body.len() as u32).to_be_bytes().to_vec();
    framed.extend(body);
    framed
}

/// One listener, one protocol: the deployment file's `clients=`
/// address serves the service tier when no `--client-addr` is given,
/// `--client-addr` replaces it, and a client still speaking the
/// removed line protocol, or breaking the framing, is refused and
/// disconnected.
#[test]
fn clients_address_serves_the_service_tier() {
    let base = std::env::temp_dir().join(format!("ar-listener-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let (udp, tcp) = pick_ports(2, 2);
    let conf_path = base.join("ar.conf");
    std::fs::write(
        &conf_path,
        format!(
            "protocol accelerated\ndaemon 0 token=127.0.0.1:{} data=127.0.0.1:{} clients=127.0.0.1:{}\n",
            udp[0], udp[1], tcp[0],
        ),
    )
    .unwrap();
    let file_addr = format!("127.0.0.1:{}", tcp[0]);
    let flag_addr = format!("127.0.0.1:{}", tcp[1]);

    // No client flags: the file's address speaks the service tier.
    let d0 = Ard::spawn_with(&conf_path, 0, &[]);
    let mut alice = connect(&file_addr, "alice");
    alice.join("g").unwrap();
    publish_safe(&mut alice, Bytes::from_static(b"hello"));
    let (mut stream, mut members) = (Vec::new(), 0);
    assert!(
        wait_for(
            || {
                drain_into(&mut alice, &mut stream, &mut members);
                !stream.is_empty()
            },
            30
        ),
        "join + publish + deliver through the clients= listener"
    );
    assert_eq!(stream, [Bytes::from_static(b"hello")]);

    // A line-protocol Hello, and a length prefix past the frame cap,
    // are each answered with one refusal — the connection was never
    // admitted — and a close: no hang, no session.
    for (what, bytes) in [
        ("line-protocol hello", old_line_protocol_hello("bob")),
        ("oversized prefix", u32::MAX.to_be_bytes().to_vec()),
    ] {
        let mut old = TcpStream::connect(&file_addr).unwrap();
        old.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        old.write_all(&bytes).unwrap();
        let mut reply = FrameBuf::new();
        let mut chunk = [0u8; 4096];
        loop {
            match old.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => reply.extend(&chunk[..n]),
                Err(e) => panic!("{what}: server neither answered nor closed: {e}"),
            }
        }
        let frame = reply.next_frame().expect("well-formed reply");
        let frame = decode_server(&frame.expect("a reply frame")).expect("well-formed reply");
        assert!(
            matches!(&frame, ServerFrame::Refused { reason } if reason == "protocol error"),
            "{what}: want a protocol-error refusal, got {frame:?}"
        );
        assert!(reply.is_empty(), "{what}: nothing after the refusal");
    }
    // The daemon shrugged them off and still serves real clients.
    drop(connect(&file_addr, "carol"));
    drop(alice);
    drop(d0);

    // --client-addr overrides the file: the flag's address serves,
    // the file's address is not bound.
    let _d0 = Ard::spawn_with(&conf_path, 0, &["--client-addr", &flag_addr]);
    drop(connect(&flag_addr, "dave"));
    let err = TcpStream::connect(&file_addr).expect_err("clients= must not be bound");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);

    std::fs::remove_dir_all(&base).unwrap();
}
