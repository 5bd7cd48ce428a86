//! End-to-end test of sharded multi-ring dispatch: one process runs
//! two independent token rings, the service tier routes groups to the
//! ring that owns them, and subscribers still observe *per-publisher
//! FIFO* even when a publisher alternates between groups that hash to
//! different rings — the service tier's publish gate at work.
//!
//! The transcript audit is the point: each ring orders only its own
//! groups, so without the gate, interleaved publishes to two rings race
//! and arrive out of publisher order; and a fix that reorders
//! deliveries instead would break the one order every member of a
//! room must see.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use accelerated_ring::core::{Participant, ParticipantId, ProtocolConfig, RingId, ServiceType};
use accelerated_ring::daemon::{DaemonConfig, ShardedDaemon};
use accelerated_ring::net::LoopbackNet;
use accelerated_ring::svc::{serve_clients_sharded, SvcClient, SvcConfig, SvcEvent, SvcListeners};
use bytes::Bytes;
use std::collections::{BTreeSet, HashMap};

const DEADLINE: Duration = Duration::from_secs(60);

/// A sharded daemon of `rings` single-member loopback rings, all
/// presenting participant 0.
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

/// Pumps until the client has seen every listed group reach `n`
/// members. One loop for all groups: shards forward memberships in
/// shard order, not join order, so waiting on them one at a time
/// would discard the other group's event.
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

#[test]
fn per_publisher_fifo_survives_cross_shard_placement() {
    fifo_audit(None);
}

/// The same audit with the publishes paced 1 ms apart, so the tier
/// runs many small passes started by the two ring threads' wakes
/// rather than a few large ones.
#[test]
fn per_publisher_fifo_survives_wake_driven_passes() {
    let wakes = fifo_audit(Some(Duration::from_millis(1)));
    // How many passes the ring threads started depends on how the
    // host batches the publishers; that they started some does not.
    assert!(wakes > 0, "no wake pass: the audit ran on ticks alone");
}

/// Three publishers alternate between two rings, `pace` apart (flat
/// out when `None`), and two subscribers are in both rings' rooms.
/// Each subscriber must see each publisher's messages in publish
/// order, each ring's positions in ring order, and both must see the
/// same sequence in each room. Returns the tier's wake-pass count.
fn fifo_audit(pace: Option<Duration>) -> u64 {
    const PUBLISHERS: usize = 3;
    const PER_PUBLISHER: usize = 40;

    let sharded = sharded_daemon(2);
    let (ga, gb) = split_groups(&sharded);
    let svc = serve_clients_sharded(&sharded, tcp_listeners(), SvcConfig::default())
        .expect("service tier");
    let addr = svc.tcp_addr().unwrap();

    let mut subs: Vec<SvcClient> = ["sub", "sub2"]
        .iter()
        .map(|name| {
            let mut sub = SvcClient::connect_tcp(addr, name).expect("connect sub");
            assert_eq!(sub.rings(), 2, "welcome advertises the ring count");
            sub.join(&ga).expect("join a");
            sub.join(&gb).expect("join b");
            sub
        })
        .collect();
    for sub in &mut subs {
        wait_for_members(sub, &[&ga, &gb], 2);
    }

    // Publishers alternate between the two rings on consecutive
    // publishes — the adversarial schedule for cross-ring ordering.
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
                    let group = if k % 2 == 0 { &ga } else { &gb };
                    client
                        .publish(
                            &[group],
                            ServiceType::Agreed,
                            Bytes::from(format!("{name}:{k}")),
                            DEADLINE,
                        )
                        .expect("publish");
                    if let Some(pace) = pace {
                        std::thread::sleep(pace);
                    }
                }
                // Keep the session alive until the subscribers have
                // the full transcript.
                client
            })
        })
        .collect();

    // Transcript audit: every delivery in arrival order, with the
    // position its ring ordered it at.
    let want = PUBLISHERS * PER_PUBLISHER;
    let mut transcripts: Vec<Vec<(u16, u64, String)>> = vec![Vec::new(); subs.len()];
    let deadline = Instant::now() + DEADLINE;
    while transcripts.iter().any(|t| t.len() < want) {
        assert!(
            Instant::now() < deadline,
            "got {:?} of {want} deliveries",
            transcripts.iter().map(Vec::len).collect::<Vec<_>>()
        );
        let mut idle = true;
        for (sub, transcript) in subs.iter_mut().zip(&mut transcripts) {
            for ev in sub.drain() {
                if let SvcEvent::Deliver {
                    shard,
                    ring_seq,
                    payload,
                    ..
                } = ev
                {
                    idle = false;
                    transcript.push((
                        shard,
                        ring_seq,
                        String::from_utf8(payload.to_vec()).unwrap(),
                    ));
                }
            }
        }
        if idle {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    for transcript in &transcripts {
        // The schedule really crossed rings…
        let shards: BTreeSet<u16> = transcript.iter().map(|(s, _, _)| *s).collect();
        assert!(
            shards.len() >= 2,
            "transcript only touched shards {shards:?}"
        );
        // …each publisher's messages arrived in publish order anyway…
        let mut next: HashMap<&str, usize> = HashMap::new();
        for (_, _, tag) in transcript {
            let (name, k) = tag.split_once(':').expect("tag format");
            let k: usize = k.parse().unwrap();
            let slot = next.entry(name).or_insert(0);
            assert_eq!(
                k, *slot,
                "publisher {name} out of order: saw {k}, expected {slot}"
            );
            *slot += 1;
        }
        for (name, count) in &next {
            assert_eq!(*count, PER_PUBLISHER, "{name} transcript incomplete");
        }
        // …and nothing was held back behind a later position of its
        // ring (messages packed into one bundle share a ring_seq).
        let mut last: HashMap<u16, u64> = HashMap::new();
        for &(shard, ring_seq, ref tag) in transcript {
            let prev = last.insert(shard, ring_seq).unwrap_or(0);
            assert!(
                ring_seq >= prev,
                "shard {shard}: {tag} at ring_seq {ring_seq} after {prev}"
            );
        }
    }
    // One order per room: both members see the same sequence.
    let room = |t: &Vec<(u16, u64, String)>, shard: u16| -> Vec<(u64, String)> {
        t.iter()
            .filter(|(s, _, _)| *s == shard)
            .map(|(_, r, tag)| (*r, tag.clone()))
            .collect()
    };
    for shard in [sharded.shard_of(&ga), sharded.shard_of(&gb)] {
        let shard = shard as u16;
        assert_eq!(
            room(&transcripts[0], shard),
            room(&transcripts[1], shard),
            "the members of shard {shard}'s room disagree on its order"
        );
    }
    let wakes = svc.stats().passes_wake.get();

    for h in pubs {
        drop(h.join().expect("publisher thread"));
    }
    drop(subs);
    drop(svc);
    sharded.shutdown().expect("shutdown");
    wakes
}

#[test]
fn multi_shard_publish_reaches_a_dual_member_once() {
    // One publish naming groups on both rings: a subscriber in both
    // groups sees exactly one copy (it drops the second shard's copy),
    // matching single-ring multi-group semantics.
    let sharded = sharded_daemon(2);
    let (ga, gb) = split_groups(&sharded);
    let svc = serve_clients_sharded(&sharded, tcp_listeners(), SvcConfig::default())
        .expect("service tier");
    let addr = svc.tcp_addr().unwrap();

    let mut sub = SvcClient::connect_tcp(addr, "sub").expect("connect sub");
    sub.join(&ga).expect("join a");
    sub.join(&gb).expect("join b");
    wait_for_members(&mut sub, &[&ga, &gb], 1);

    let mut publisher = SvcClient::connect_tcp(addr, "pub").expect("connect pub");
    for k in 0..10 {
        publisher
            .publish(
                &[&ga, &gb],
                ServiceType::Agreed,
                Bytes::from(format!("both:{k}")),
                DEADLINE,
            )
            .expect("publish");
    }

    let mut seen: Vec<String> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline && seen.len() < 10 {
        if let Some(SvcEvent::Deliver { payload, .. }) = sub.recv(Duration::from_millis(100)) {
            seen.push(String::from_utf8(payload.to_vec()).unwrap());
        }
    }
    let want: Vec<String> = (0..10).map(|k| format!("both:{k}")).collect();
    assert_eq!(seen, want, "exactly one in-order copy per publish");
    // Grace period: no late duplicate copies trickle out.
    let quiet = Instant::now() + Duration::from_secs(2);
    while Instant::now() < quiet {
        if let Some(SvcEvent::Deliver { payload, .. }) = sub.recv(Duration::from_millis(100)) {
            panic!(
                "late duplicate delivery: {}",
                String::from_utf8_lossy(&payload)
            );
        }
    }

    drop(publisher);
    drop(sub);
    drop(svc);
    sharded.shutdown().expect("shutdown");
}

/// Hello as `name`, then publishes `groups[k % groups.len()]` tagged
/// `name:k` for `k` in `0..n`, framed back to back for one write.
fn burst(name: &str, groups: &[&str], n: usize) -> Vec<u8> {
    use accelerated_ring::svc::wire::{encode_client, frame};
    use accelerated_ring::svc::{ClientFrame, PROTOCOL_VERSION};

    let mut bytes = frame(&encode_client(&ClientFrame::Hello {
        version: PROTOCOL_VERSION,
        name: name.into(),
        resume: None,
    }))
    .to_vec();
    for k in 0..n {
        bytes.extend_from_slice(&frame(&encode_client(&ClientFrame::Publish {
            id: k as u64 + 1,
            service: ServiceType::Agreed,
            groups: vec![groups[k % groups.len()].to_string()],
            payload: Bytes::from(format!("{name}:{k}")),
        })));
    }
    bytes
}

/// Sends a [`burst`] over a raw connection, then half-closes it
/// without a Goodbye: the server reads every frame in one pass, gates
/// each shard switch behind the publish before it, and parks the
/// session with publishes still at the gate. The caller keeps the
/// socket, so what the server writes back resets nothing.
fn publish_and_vanish(
    addr: std::net::SocketAddr,
    name: &str,
    groups: &[&str],
    n: usize,
) -> std::net::TcpStream {
    use std::io::Write;

    let mut sock = std::net::TcpStream::connect(addr).expect("connect raw");
    sock.write_all(&burst(name, groups, n))
        .expect("write frames");
    sock.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    sock
}

/// Collects delivery payloads until `n` arrived or `within` passed.
fn collect(sub: &mut SvcClient, n: usize, within: Duration) -> Vec<String> {
    let mut seen = Vec::new();
    let deadline = Instant::now() + within;
    while Instant::now() < deadline && seen.len() < n {
        if let Some(SvcEvent::Deliver { payload, .. }) = sub.recv(Duration::from_millis(50)) {
            seen.push(String::from_utf8(payload.to_vec()).unwrap());
        }
    }
    seen
}

#[test]
fn a_parked_sessions_gate_drains_on_ordered() {
    const N: usize = 12;
    let sharded = sharded_daemon(2);
    let (ga, gb) = split_groups(&sharded);
    let svc = serve_clients_sharded(&sharded, tcp_listeners(), SvcConfig::default())
        .expect("service tier");
    let addr = svc.tcp_addr().unwrap();
    let mut sub = SvcClient::connect_tcp(addr, "sub").expect("connect sub");
    sub.join(&ga).expect("join a");
    sub.join(&gb).expect("join b");
    wait_for_members(&mut sub, &[&ga, &gb], 1);

    // Every publish switches shards, so all but the first wait at the
    // gate; the socket dies before they are ordered.
    let _ghost = publish_and_vanish(addr, "ghost", &[&ga, &gb], N);
    let seen = collect(&mut sub, N, DEADLINE);
    let want: Vec<String> = (0..N).map(|k| format!("ghost:{k}")).collect();
    assert_eq!(seen, want, "gated publishes of a parked session");
    assert_eq!(
        svc.stats().sessions_parked.get(),
        1,
        "the session is parked"
    );

    drop(sub);
    drop(svc);
    sharded.shutdown().expect("shutdown");
}

#[test]
fn a_reused_publisher_name_is_not_filtered() {
    let sharded = sharded_daemon(2);
    let (ga, gb) = split_groups(&sharded);
    let svc = serve_clients_sharded(&sharded, tcp_listeners(), SvcConfig::default())
        .expect("service tier");
    let addr = svc.tcp_addr().unwrap();
    let mut sub = SvcClient::connect_tcp(addr, "sub").expect("connect sub");
    sub.join(&ga).expect("join a");
    sub.join(&gb).expect("join b");
    wait_for_members(&mut sub, &[&ga, &gb], 1);

    // Two sessions named "pub", one after the other: each publishes
    // stamp 1 to both shards, and each must arrive once.
    for epoch in 0..2 {
        let mut publisher = loop {
            // The old session is torn down a pass after its Goodbye.
            match SvcClient::connect_tcp(addr, "pub") {
                Ok(c) => break c,
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        publisher
            .publish(
                &[&ga, &gb],
                ServiceType::Agreed,
                Bytes::from(format!("pub:{epoch}")),
                DEADLINE,
            )
            .expect("publish");
        // Both copies delivered or dropped before the session goes.
        let seen = collect(&mut sub, 2, Duration::from_millis(500));
        assert_eq!(seen, [format!("pub:{epoch}")], "epoch {epoch}");
    }

    drop(sub);
    drop(svc);
    sharded.shutdown().expect("shutdown");
}

/// A client that publishes and reconnects under its name at once —
/// after a Goodbye, or by evicting its own parked session — while that
/// publish may still be on its way to the subscriber: no publish of the
/// new session is mistaken for a copy of the old session's. Sessions
/// alternate shards and each publish has one copy, so each must arrive
/// exactly once.
#[test]
fn a_publisher_name_reused_at_once_is_not_filtered() {
    const SESSIONS: usize = 20;
    let sharded = sharded_daemon(2);
    let (ga, gb) = split_groups(&sharded);
    let svc = serve_clients_sharded(&sharded, tcp_listeners(), SvcConfig::default())
        .expect("service tier");
    let addr = svc.tcp_addr().unwrap();
    let mut sub = SvcClient::connect_tcp(addr, "sub").expect("connect sub");
    sub.join(&ga).expect("join a");
    sub.join(&gb).expect("join b");
    wait_for_members(&mut sub, &[&ga, &gb], 1);

    let deadline = Instant::now() + DEADLINE;
    for epoch in 0..SESSIONS {
        // Refused while the previous session still holds the name.
        let mut publisher = loop {
            assert!(Instant::now() < deadline, "name never freed");
            if let Ok(c) = SvcClient::connect_tcp(addr, "pub") {
                break c;
            }
        };
        let group = if epoch % 2 == 0 { &ga } else { &gb };
        publisher
            .publish(
                &[group],
                ServiceType::Agreed,
                Bytes::from(format!("pub:{epoch}")),
                DEADLINE,
            )
            .expect("publish");
        if epoch % 2 == 1 {
            // No Goodbye: the next Hello evicts the parked session.
            publisher.sever();
        }
    }

    let mut seen = collect(&mut sub, SESSIONS, DEADLINE);
    seen.extend(collect(&mut sub, 1, Duration::from_millis(500)));
    seen.sort();
    let mut want: Vec<String> = (0..SESSIONS).map(|e| format!("pub:{e}")).collect();
    want.sort();
    assert_eq!(seen, want, "every session's publish, once");

    drop(sub);
    drop(svc);
    sharded.shutdown().expect("shutdown");
}

/// The daemon drops events for a session whose bounded queue is full.
/// A lost `Ordered` would hold the session's gate shut for good, so the
/// tier evicts the session instead of leaving it to stall.
#[test]
fn a_session_that_lost_daemon_events_is_evicted() {
    use accelerated_ring::svc::wire::{decode_server, FrameBuf};
    use accelerated_ring::svc::ServerFrame;
    use std::io::{Read, Write};

    let sharded = sharded_daemon(2);
    let (ga, _) = split_groups(&sharded);
    let config = SvcConfig {
        event_capacity: 2,
        ..SvcConfig::default()
    };
    let svc = serve_clients_sharded(&sharded, tcp_listeners(), config).expect("service tier");

    // One ring's worth of Ordered acks, far more than the queue holds,
    // forwarded in one pass (same shard: the gate holds none back).
    let mut sock = std::net::TcpStream::connect(svc.tcp_addr().unwrap()).expect("connect raw");
    sock.set_read_timeout(Some(DEADLINE)).unwrap();
    sock.write_all(&burst("burst", &[&ga], 48))
        .expect("write frames");
    let mut reply = FrameBuf::new();
    let mut chunk = [0u8; 4096];
    loop {
        match sock.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => reply.extend(&chunk[..n]),
            Err(e) => panic!("the session was neither evicted nor closed: {e}"),
        }
    }
    let mut last = None;
    while let Some(f) = reply.next_frame().expect("well-formed reply") {
        last = Some(decode_server(&f).expect("well-formed frame"));
    }
    assert!(
        matches!(&last, Some(ServerFrame::Evicted { reason }) if reason.contains("event queue")),
        "want an eviction for lost events, got {last:?}"
    );
    assert_eq!(svc.stats().evicted.get(), 1);

    drop(svc);
    sharded.shutdown().expect("shutdown");
}

#[test]
fn a_publish_naming_no_group_is_rejected_without_blocking_the_next() {
    let sharded = sharded_daemon(2);
    let (ga, _) = split_groups(&sharded);
    let svc = serve_clients_sharded(&sharded, tcp_listeners(), SvcConfig::default())
        .expect("service tier");
    let mut client = SvcClient::connect_tcp(svc.tcp_addr().unwrap(), "c").expect("connect");
    client.join(&ga).expect("join");
    wait_for_members(&mut client, &[&ga], 1);

    // Nothing would order it, so nothing would return its credit or
    // let a later publish past the gate.
    let empty = client
        .publish(&[], ServiceType::Agreed, Bytes::from_static(b"x"), DEADLINE)
        .expect("publish");
    let deadline = Instant::now() + DEADLINE;
    loop {
        assert!(Instant::now() < deadline, "no rejection");
        if let Some(SvcEvent::PublishRejected { id, reason }) =
            client.recv(Duration::from_millis(50))
        {
            assert_eq!((id, reason.as_str()), (empty, "publish names no group"));
            break;
        }
    }
    client
        .publish(
            &[&ga],
            ServiceType::Agreed,
            Bytes::from_static(b"after"),
            DEADLINE,
        )
        .expect("publish");
    assert_eq!(collect(&mut client, 1, DEADLINE), ["after"]);

    drop(client);
    drop(svc);
    sharded.shutdown().expect("shutdown");
}
