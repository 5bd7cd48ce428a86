//! Session-resumption chaos: connections are severed (and, in the
//! process-level scenario, the whole daemon SIGKILLed and restarted
//! on its durable log) while publishers and a subscriber stream
//! cross-ring traffic, and the transcript is audited for the
//! service-tier contract:
//!
//! * **exactly-once** — no delivery appears twice within a session
//!   (including across any number of resumes);
//! * **gap-free per-publisher FIFO** — each publisher's messages
//!   arrive in publish order with nothing missing, even though the
//!   publishers alternate between groups on different ring shards and
//!   every participant loses its connection mid-stream;
//! * **resume accounting** — the server reports the resumes on its
//!   stats surface, and a server with parking disabled rejects the
//!   token and falls back to a fresh session (surfaced to the
//!   application as `Reconnected { resumed: false }`);
//! * **queued publishes** — publishes still in the client's write
//!   buffer when the connection dies are re-sent exactly once on
//!   resume, and end the session quietly when resumption is off.

use std::net::TcpListener;
use std::net::UdpSocket;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ar_core::{Participant, ParticipantId, ProtocolConfig, RingId, ServiceType};
use ar_daemon::{DaemonConfig, ShardedDaemon};
use ar_net::LoopbackNet;
use ar_svc::{serve_clients_sharded, ResumePolicy, SvcClient, SvcConfig, SvcEvent, SvcListeners};
use bytes::Bytes;
use std::collections::HashMap;

const DEADLINE: Duration = Duration::from_secs(90);

fn sharded_daemon(rings: usize) -> ShardedDaemon {
    ShardedDaemon::spawn(rings, |k| {
        let pid = ParticipantId::new(0);
        let net = LoopbackNet::new();
        let part = Participant::new(
            pid,
            ProtocolConfig::accelerated(),
            RingId::new(pid, k as u64 + 1),
            vec![pid],
        )
        .expect("participant");
        (part, net.endpoint(pid), DaemonConfig::default())
    })
}

fn tcp_listeners() -> SvcListeners {
    SvcListeners {
        tcp: Some("127.0.0.1:0".parse().unwrap()),
        uds: None,
    }
}

/// Two group names the shard map places on different rings.
fn split_groups(sharded: &ShardedDaemon) -> (String, String) {
    let a = "room-0".to_string();
    let sa = sharded.shard_of(&a);
    for i in 1..1000 {
        let b = format!("room-{i}");
        if sharded.shard_of(&b) != sa {
            return (a, b);
        }
    }
    panic!("no group found on the other shard");
}

fn wait_for_members(client: &mut SvcClient, groups: &[&str], n: usize) {
    let deadline = Instant::now() + DEADLINE;
    let mut seen: HashMap<String, usize> = HashMap::new();
    while groups
        .iter()
        .any(|g| seen.get(*g).copied().unwrap_or(0) < n)
    {
        assert!(
            Instant::now() < deadline,
            "membership never hit {n} everywhere: {seen:?}"
        );
        if let Some(SvcEvent::Membership { group, members }) =
            client.recv(Duration::from_millis(100))
        {
            seen.insert(group, members.len());
        }
    }
}

/// Publishes `tag`, retrying through connection loss and session
/// resets (a reset surfaces the in-flight attempt as rejected and the
/// send as an error; the caller owns the retry decision, which is the
/// whole point of the `resumed: false` contract).
fn publish_retry(client: &mut SvcClient, groups: &[&str], service: ServiceType, tag: &str) {
    let deadline = Instant::now() + DEADLINE;
    loop {
        match client.publish(
            groups,
            service,
            Bytes::from(tag.to_string()),
            Duration::from_secs(10),
        ) {
            Ok(_) => return,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "publish {tag} never succeeded: {e}"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Asserts a transcript segment is exactly-once and per-publisher
/// FIFO: tags are `name:k` and every publisher's `k`s must be
/// strictly increasing (gap-free when `complete` lists totals).
fn audit(tags: &[String], complete: Option<&HashMap<&str, usize>>) {
    let mut next: HashMap<String, usize> = HashMap::new();
    for tag in tags {
        let (name, k) = tag.split_once(':').expect("tag format");
        let k: usize = k.parse().unwrap();
        let slot = next.entry(name.to_string()).or_insert(0);
        assert!(
            k >= *slot,
            "publisher {name}: saw {k} after expecting {slot} (duplicate or reorder)"
        );
        if let Some(want) = complete {
            assert_eq!(k, *slot, "publisher {name}: gap — saw {k}, expected {slot}");
            assert!(want.contains_key(name), "unknown publisher {name}");
        }
        *slot = k + 1;
    }
    if let Some(want) = complete {
        for (name, total) in want {
            assert_eq!(
                next.get(*name).copied().unwrap_or(0),
                *total,
                "publisher {name} transcript incomplete"
            );
        }
    }
}

/// Tentpole scenario: three publishers stream 60 cross-ring messages
/// each while every participant — publishers and the subscriber — has
/// its connection killed twice mid-stream. Every session resumes; the
/// subscriber's transcript must be byte-for-byte what a chaos-free
/// run would produce per publisher.
#[test]
fn severed_sessions_resume_with_exactly_once_delivery() {
    const PUBLISHERS: usize = 3;
    const PER_PUBLISHER: usize = 60;

    let sharded = sharded_daemon(2);
    let (ga, gb) = split_groups(&sharded);
    let mut cfg = SvcConfig::default();
    // A parked subscriber keeps accumulating deliveries: give the
    // pending budget room so chaos doesn't trip the slow-consumer
    // eviction this test is not about.
    cfg.flow.max_pending = 65_536;
    cfg.park_grace = Duration::from_secs(30);
    let svc = serve_clients_sharded(&sharded, tcp_listeners(), cfg).expect("service tier");
    let addr = svc.tcp_addr().unwrap();

    let mut sub = SvcClient::connect_tcp(addr, "sub").expect("connect sub");
    sub.join(&ga).expect("join a");
    sub.join(&gb).expect("join b");
    wait_for_members(&mut sub, &[&ga, &gb], 1);

    let start = Arc::new(Barrier::new(PUBLISHERS));
    let pubs: Vec<_> = (0..PUBLISHERS)
        .map(|p| {
            let start = Arc::clone(&start);
            let (ga, gb) = (ga.clone(), gb.clone());
            std::thread::spawn(move || {
                let name = format!("pub{p}");
                let mut client = SvcClient::connect_tcp(addr, &name).expect("connect pub");
                start.wait();
                for k in 0..PER_PUBLISHER {
                    // Kill the connection mid-stream, twice, at
                    // staggered points per publisher.
                    if k == 15 + p || k == 40 + p {
                        client.sever();
                    }
                    let group = if k % 2 == 0 { &ga } else { &gb };
                    publish_retry(
                        &mut client,
                        &[group],
                        ServiceType::Agreed,
                        &format!("{name}:{k}"),
                    );
                }
                client
            })
        })
        .collect();

    // Receive everything, killing the subscriber's own connection at
    // two points along the way. Each sever is followed by a pump
    // until the reconnect is observed — a second shutdown on a socket
    // whose reconnect hasn't run yet would be a no-op, not more chaos.
    let want = PUBLISHERS * PER_PUBLISHER;
    let mut transcript: Vec<String> = Vec::with_capacity(want);
    let mut sub_resumes: Vec<bool> = Vec::new();
    let mut severed = [false, false];
    let deadline = Instant::now() + DEADLINE;
    while transcript.len() < want || sub.reconnects() < 2 {
        assert!(
            Instant::now() < deadline,
            "got {} of {want} deliveries, {} reconnects (resumes seen: {sub_resumes:?})",
            transcript.len(),
            sub.reconnects()
        );
        if !severed[0] && transcript.len() >= want / 3 {
            severed[0] = true;
            sub.sever();
        }
        if !severed[1] && sub.reconnects() >= 1 && transcript.len() >= 2 * want / 3 {
            severed[1] = true;
            sub.sever();
        }
        match sub.recv(Duration::from_millis(100)) {
            Some(SvcEvent::Deliver { payload, .. }) => {
                transcript.push(String::from_utf8(payload.to_vec()).unwrap());
            }
            Some(SvcEvent::Reconnected { resumed }) => sub_resumes.push(resumed),
            Some(SvcEvent::Evicted { reason }) => panic!("subscriber evicted: {reason}"),
            None if transcript.len() >= want => {
                // Stream complete but a sever's reconnect is still
                // pending (the kill landed after the tail was already
                // buffered client-side): recv's pump drives it.
            }
            _ => {}
        }
    }
    assert_eq!(transcript.len(), want, "reconnect replay redelivered");

    // Exactly-once, gap-free, per-publisher FIFO — across six
    // publisher-side and two subscriber-side connection kills.
    let totals: HashMap<&str, usize> = [
        ("pub0", PER_PUBLISHER),
        ("pub1", PER_PUBLISHER),
        ("pub2", PER_PUBLISHER),
    ]
    .into_iter()
    .collect();
    audit(&transcript, Some(&totals));

    assert_eq!(sub.reconnects(), 2, "subscriber reconnected per sever");
    assert!(
        sub_resumes.iter().all(|r| *r),
        "every subscriber reconnect resumed the session: {sub_resumes:?}"
    );
    for h in pubs {
        let client = h.join().expect("publisher thread");
        assert!(
            client.evicted_reason().is_none(),
            "publisher evicted: {:?}",
            client.evicted_reason()
        );
        assert_eq!(client.reconnects(), 2, "publisher reconnected per sever");
    }
    // 3 publishers × 2 severs + subscriber × 2 = 8 resumed sessions.
    assert!(
        svc.stats().sessions_resumed.get() >= 8,
        "server resumed {} sessions, wanted >= 8",
        svc.stats().sessions_resumed.get()
    );
    assert_eq!(svc.stats().evicted.get(), 0, "chaos must not evict anyone");

    drop(sub);
    drop(svc);
    sharded.shutdown().expect("shutdown");
}

/// Parking disabled: the resume token is rejected, the client falls
/// back to a fresh session (re-joining its groups), and the rejection
/// is counted.
#[test]
fn resume_rejected_when_parking_disabled_falls_back_to_fresh_session() {
    let sharded = sharded_daemon(1);
    let cfg = SvcConfig {
        park_grace: Duration::ZERO,
        ..SvcConfig::default()
    };
    let svc = serve_clients_sharded(&sharded, tcp_listeners(), cfg).expect("service tier");
    let addr = svc.tcp_addr().unwrap();

    let mut sub = SvcClient::connect_tcp(addr, "sub").expect("connect sub");
    sub.join("g").expect("join");
    wait_for_members(&mut sub, &["g"], 1);
    let first_session = sub.session();

    sub.sever();
    let deadline = Instant::now() + DEADLINE;
    let mut resumed_flag = None;
    while resumed_flag.is_none() {
        assert!(Instant::now() < deadline, "no Reconnected event");
        if let Some(SvcEvent::Reconnected { resumed }) = sub.recv(Duration::from_millis(100)) {
            resumed_flag = Some(resumed);
        }
    }
    assert_eq!(resumed_flag, Some(false), "token must be rejected");
    assert_ne!(sub.session(), first_session, "fresh session id assigned");
    assert!(svc.stats().resume_rejected.get() >= 1);
    assert_eq!(svc.stats().sessions_resumed.get(), 0);

    // The fresh session re-joined "g" automatically: traffic flows.
    let mut publisher = SvcClient::connect_tcp(addr, "pub").expect("connect pub");
    publish_retry(&mut publisher, &["g"], ServiceType::Agreed, "pub:0");
    let deadline = Instant::now() + DEADLINE;
    loop {
        assert!(Instant::now() < deadline, "delivery after fresh session");
        if let Some(SvcEvent::Deliver { payload, .. }) = sub.recv(Duration::from_millis(100)) {
            assert_eq!(&payload[..], b"pub:0");
            break;
        }
    }

    drop(publisher);
    drop(sub);
    drop(svc);
    sharded.shutdown().expect("shutdown");
}

/// Publishes queued in the client's write buffer when the connection
/// dies: some already written and ungranted, the rest never written.
/// The flush that finds the socket dead resumes the session and
/// re-sends them from the unacked set, each exactly once.
#[test]
fn publishes_queued_across_a_sever_are_delivered_exactly_once() {
    const N: usize = 16;
    let sharded = sharded_daemon(1);
    let svc = serve_clients_sharded(&sharded, tcp_listeners(), SvcConfig::default())
        .expect("service tier");
    let addr = svc.tcp_addr().unwrap();
    let mut sub = SvcClient::connect_tcp(addr, "sub").expect("connect sub");
    sub.join("g").expect("join");
    wait_for_members(&mut sub, &["g"], 1);

    let mut publisher = SvcClient::connect_tcp(addr, "pub").expect("connect pub");
    let publish = |c: &mut SvcClient, k: usize| {
        c.try_publish(&["g"], ServiceType::Agreed, Bytes::from(format!("pub:{k}")))
            .expect("publish within credits");
    };
    for k in 0..N / 2 {
        publish(&mut publisher, k);
    }
    publisher.flush();
    for k in N / 2..N {
        publish(&mut publisher, k);
    }
    publisher.sever();
    publisher.flush();
    assert_eq!(publisher.reconnects(), 1, "the failed flush resumed");
    assert!(publisher.evicted_reason().is_none());

    let mut transcript = Vec::new();
    let deadline = Instant::now() + DEADLINE;
    while transcript.len() < N {
        assert!(Instant::now() < deadline, "got {transcript:?}");
        publisher.pump().expect("pump");
        if let Some(SvcEvent::Deliver { payload, .. }) = sub.recv(Duration::from_millis(20)) {
            transcript.push(String::from_utf8(payload.to_vec()).unwrap());
        }
    }
    // Anything re-sent twice would be ordered twice: give it the time.
    let settle = Instant::now() + Duration::from_millis(300);
    while Instant::now() < settle {
        publisher.pump().expect("pump");
        if let Some(SvcEvent::Deliver { payload, .. }) = sub.recv(Duration::from_millis(20)) {
            transcript.push(String::from_utf8(payload.to_vec()).unwrap());
        }
    }
    let want: Vec<String> = (0..N).map(|k| format!("pub:{k}")).collect();
    assert_eq!(
        transcript, want,
        "each queued publish exactly once, in order"
    );
    assert!(svc.stats().sessions_resumed.get() >= 1);

    drop(publisher);
    drop(sub);
    drop(svc);
    sharded.shutdown().expect("shutdown");
}

/// Without resumption, a write that finds the connection dead ends the
/// session as a dead read does: one `Evicted`, and no error from
/// `flush` or `pump` for the caller to take as a protocol failure.
#[test]
fn a_failed_flush_without_resume_is_one_eviction() {
    let sharded = sharded_daemon(1);
    let svc = serve_clients_sharded(&sharded, tcp_listeners(), SvcConfig::default())
        .expect("service tier");
    let mut publisher =
        SvcClient::connect_tcp(svc.tcp_addr().unwrap(), "pub").expect("connect pub");
    publisher.set_resume_policy(ResumePolicy::disabled());
    for k in 0..8 {
        publisher
            .try_publish(&["g"], ServiceType::Agreed, Bytes::from(format!("pub:{k}")))
            .expect("publish within credits");
    }
    publisher.sever();
    publisher.flush();
    publisher.pump().expect("pump after the loss");
    publisher.pump().expect("pump again");
    let evictions: Vec<String> = publisher
        .drain()
        .into_iter()
        .filter_map(|ev| match ev {
            SvcEvent::Evicted { reason } => Some(reason),
            _ => None,
        })
        .collect();
    assert_eq!(evictions.len(), 1, "{evictions:?}");
    assert!(evictions[0].starts_with("connection lost"), "{evictions:?}");
    assert_eq!(publisher.reconnects(), 0);
    assert!(publisher
        .try_publish(&["g"], ServiceType::Agreed, Bytes::from_static(b"late"))
        .is_err());

    drop(publisher);
    drop(svc);
    sharded.shutdown().expect("shutdown");
}

/// SplitMix64's output step, the finaliser applied to its state.
fn splitmix_finalise(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The state a SplitMix64 output came from: every step of the
/// finaliser is a bijection.
fn splitmix_state_of(out: u64) -> u64 {
    let unshift = |y: u64, k: u32| (0..64 / k).fold(y, |x, _| y ^ (x >> k));
    // Newton's iteration doubles the correct low bits of an odd
    // number's inverse modulo 2^64 per round.
    let inverse = |c: u64| {
        (0..6).fold(c, |x: u64, _| {
            x.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(x)))
        })
    };
    let mut z = unshift(out, 31);
    z = unshift(z.wrapping_mul(inverse(0x94d0_49bb_1331_11eb)), 27);
    unshift(z.wrapping_mul(inverse(0xbf58_476d_1ce4_e5b9)), 30)
}

/// A resume token is a bearer credential: a client that reads its own
/// session id must not be able to compute the next client's. Ids drawn
/// from a seeded SplitMix64 fail this, since its output inverts to its
/// state.
#[test]
fn a_session_id_does_not_predict_the_next_one() {
    assert_eq!(
        splitmix_state_of(splitmix_finalise(0x1234_5678_9abc_def0)),
        0x1234_5678_9abc_def0,
        "the inversion is exact"
    );
    let sharded = sharded_daemon(1);
    let svc = serve_clients_sharded(&sharded, tcp_listeners(), SvcConfig::default())
        .expect("service tier");
    let addr = svc.tcp_addr().unwrap();
    let first = SvcClient::connect_tcp(addr, "first").expect("connect first");
    let second = SvcClient::connect_tcp(addr, "second").expect("connect second");
    let state = splitmix_state_of(first.session());
    let predicted = splitmix_finalise(state.wrapping_add(0x9e37_79b9_7f4a_7c15));
    assert_ne!(second.session(), predicted, "the second id was predictable");
    assert_ne!(second.session(), first.session());

    drop((first, second));
    drop(svc);
    sharded.shutdown().expect("shutdown");
}

// ---------------------------------------------------------------------
// Process-level chaos: a real 2-ring `ard` with a durable log.
// ---------------------------------------------------------------------

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
    fn spawn(conf: &std::path::Path, log_dir: &std::path::Path, client_port: u16) -> Ard {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_ard"));
        cmd.arg("--rings")
            .arg("2")
            .arg("--log-dir")
            .arg(log_dir)
            .arg("--fsync")
            .arg("every:4")
            .arg("--client-addr")
            .arg(format!("127.0.0.1:{client_port}"))
            .arg("--resume-grace-ms")
            .arg("60000")
            .arg(conf)
            .arg("0");
        cmd.stdout(Stdio::null()).stderr(Stdio::null());
        Ard(cmd.spawn().expect("spawn ard"))
    }

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

fn connect_retry(addr: std::net::SocketAddr, name: &str) -> SvcClient {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match SvcClient::connect_tcp(addr, name) {
            Ok(c) => return c,
            Err(e) => {
                assert!(Instant::now() < deadline, "connect {name}: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Kill -9 the daemon process mid-stream and restart it on its
/// durable log. Connection-level severs before the crash resume
/// seamlessly (exactly-once continues); the process death resets the
/// sessions — the clients reconnect fresh, re-join, and the
/// post-restart stream is again exactly-once and complete. The
/// subscriber's transcript is audited per session segment, split at
/// the `Reconnected { resumed: false }` seam.
#[test]
fn daemon_kill9_restart_resets_sessions_cleanly() {
    let base = std::env::temp_dir().join(format!("ar-resume-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let (udp, tcp) = pick_ports(2, 1);
    let conf = format!(
        "protocol accelerated\ndaemon 0 token=127.0.0.1:{} data=127.0.0.1:{}\n",
        udp[0], udp[1],
    );
    let conf_path = base.join("ar.conf");
    std::fs::write(&conf_path, conf).unwrap();
    let log_dir = base.join("d0");
    let addr: std::net::SocketAddr = format!("127.0.0.1:{}", tcp[0]).parse().unwrap();

    let d0 = Ard::spawn(&conf_path, &log_dir, tcp[0]);
    let mut sub = connect_retry(addr, "sub");
    sub.join("alpha").expect("join alpha");
    sub.join("beta").expect("join beta");
    wait_for_members(&mut sub, &["alpha", "beta"], 1);
    let mut publisher = connect_retry(addr, "walter");

    let mut transcript: Vec<String> = Vec::new();
    let mut seams: Vec<usize> = Vec::new(); // transcript index of each session reset
    let mut resumes: Vec<bool> = Vec::new();
    let pump_sub = |sub: &mut SvcClient,
                    transcript: &mut Vec<String>,
                    seams: &mut Vec<usize>,
                    resumes: &mut Vec<bool>| {
        match sub.recv(Duration::from_millis(100)) {
            Some(SvcEvent::Deliver { payload, .. }) => {
                transcript.push(String::from_utf8(payload.to_vec()).unwrap());
            }
            Some(SvcEvent::Reconnected { resumed }) => {
                resumes.push(resumed);
                if !resumed {
                    seams.push(transcript.len());
                }
            }
            _ => {}
        }
    };

    // Phase 1: ten Safe publishes across both groups, plain run.
    for k in 0..10 {
        let group = if k % 2 == 0 { "alpha" } else { "beta" };
        publish_retry(
            &mut publisher,
            &[group],
            ServiceType::Safe,
            &format!("w:{k}"),
        );
    }
    let deadline = Instant::now() + DEADLINE;
    while transcript.len() < 10 {
        assert!(Instant::now() < deadline, "phase 1: {transcript:?}");
        pump_sub(&mut sub, &mut transcript, &mut seams, &mut resumes);
    }

    // Phase 2: sever both connections (process stays up) — sessions
    // resume, the stream continues without loss or duplication.
    sub.sever();
    publisher.sever();
    for k in 10..20 {
        let group = if k % 2 == 0 { "alpha" } else { "beta" };
        publish_retry(
            &mut publisher,
            &[group],
            ServiceType::Safe,
            &format!("w:{k}"),
        );
    }
    let deadline = Instant::now() + DEADLINE;
    while transcript.len() < 20 {
        assert!(
            Instant::now() < deadline,
            "phase 2: got {} (resumes {resumes:?})",
            transcript.len()
        );
        pump_sub(&mut sub, &mut transcript, &mut seams, &mut resumes);
    }
    assert!(
        seams.is_empty(),
        "severs must resume, not reset: {resumes:?}"
    );
    assert_eq!(sub.reconnects(), 1, "subscriber resumed once");

    // Drain the publisher until every outcome is known, so the kill
    // leaves no unknown-outcome publish behind and the post-restart
    // audit needs no at-least-once carve-outs.
    let deadline = Instant::now() + DEADLINE;
    let mut outcomes = 0;
    while outcomes < 20 {
        assert!(Instant::now() < deadline, "outcomes: {outcomes}");
        match publisher.recv(Duration::from_millis(100)) {
            Some(SvcEvent::PublishOrdered { .. }) | Some(SvcEvent::PublishRejected { .. }) => {
                outcomes += 1;
            }
            _ => {}
        }
    }

    // Phase 3: SIGKILL the daemon — no flush, no goodbye — and
    // restart it on the same durable log.
    d0.kill9();
    let _d0b = Ard::spawn(&conf_path, &log_dir, tcp[0]);

    // The restarted daemon knows nothing of the old sessions: wait for
    // the subscriber to reconnect fresh *and* re-join both groups
    // before publishing, or the messages would be ordered into groups
    // with no members and legitimately never reach it.
    let deadline = Instant::now() + DEADLINE;
    let mut member_ok: HashMap<String, usize> = HashMap::new();
    while seams.is_empty() || member_ok.len() < 2 {
        assert!(
            Instant::now() < deadline,
            "post-restart rejoin: seams {seams:?}, members {member_ok:?}"
        );
        match sub.recv(Duration::from_millis(100)) {
            Some(SvcEvent::Deliver { payload, .. }) => {
                transcript.push(String::from_utf8(payload.to_vec()).unwrap());
            }
            Some(SvcEvent::Reconnected { resumed }) => {
                resumes.push(resumed);
                if !resumed {
                    seams.push(transcript.len());
                }
            }
            Some(SvcEvent::Membership { group, members }) if !members.is_empty() => {
                member_ok.insert(group, members.len());
            }
            _ => {}
        }
    }

    // Drive the publisher's own reconnect before resuming the stream:
    // a write to the killed daemon's half-open socket can succeed
    // locally (the RST arrives later), which would make the first
    // post-kill publish outcome-unknown — the reset contract surfaces
    // it as PublishRejected and the *application* owns the retry,
    // which here would reorder the stream. A correct client syncs its
    // session first, exactly as done here.
    let deadline = Instant::now() + DEADLINE;
    while publisher.reconnects() < 2 {
        assert!(
            Instant::now() < deadline,
            "publisher never reconnected after the restart"
        );
        if let Some(SvcEvent::Reconnected { resumed }) = publisher.recv(Duration::from_millis(100))
        {
            assert!(!resumed, "daemon restart cannot resume the session");
        }
    }

    for k in 20..30 {
        let group = if k % 2 == 0 { "alpha" } else { "beta" };
        publish_retry(
            &mut publisher,
            &[group],
            ServiceType::Safe,
            &format!("w:{k}"),
        );
    }
    let deadline = Instant::now() + DEADLINE;
    while transcript.len() < 30 {
        assert!(
            Instant::now() < deadline,
            "phase 3: got {} (resumes {resumes:?}, post-seam {:?})",
            transcript.len(),
            &transcript[seams.first().copied().unwrap_or(0)..]
        );
        pump_sub(&mut sub, &mut transcript, &mut seams, &mut resumes);
    }

    // The process death is exactly one session reset for the
    // subscriber; the pre-crash segment is the complete exactly-once
    // prefix and the post-restart segment the complete remainder —
    // nothing is redelivered across the seam (the restarted daemon
    // replays its log *before* accepting sessions) and nothing
    // granted after the restart is lost.
    assert_eq!(seams.len(), 1, "one reset seam: {resumes:?}");
    let seam = seams[0];
    let want_pre: Vec<String> = (0..20).map(|k| format!("w:{k}")).collect();
    let want_post: Vec<String> = (20..30).map(|k| format!("w:{k}")).collect();
    assert_eq!(&transcript[..seam], &want_pre[..], "pre-crash segment");
    assert_eq!(&transcript[seam..], &want_post[..], "post-restart segment");
    assert!(
        publisher.reconnects() >= 2,
        "publisher reconnected for the sever and the restart"
    );

    drop(publisher);
    drop(sub);
    std::fs::remove_dir_all(&base).unwrap();
}
