//! End-to-end test of sharded multi-ring dispatch: one process runs
//! two independent token rings, the service tier routes groups to the
//! ring that owns them, and subscribers still observe *per-publisher
//! FIFO* even when a publisher alternates between groups that hash to
//! different rings — the cross-shard hold-back queue at work.
//!
//! The transcript audit is the point: each ring orders only its own
//! groups, so without the hold-back layer, interleaved publishes to
//! two rings race and arrive out of publisher order.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use accelerated_ring::core::{Participant, ParticipantId, ProtocolConfig, RingId, ServiceType};
use accelerated_ring::daemon::{DaemonConfig, ShardedDaemon};
use accelerated_ring::net::LoopbackNet;
use accelerated_ring::svc::{serve_clients_sharded, SvcClient, SvcConfig, SvcEvent, SvcListeners};
use bytes::Bytes;
use std::collections::HashMap;

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
/// out when `None`); the subscriber's transcript must keep each
/// publisher's order. Returns the tier's wake-pass count.
fn fifo_audit(pace: Option<Duration>) -> u64 {
    const PUBLISHERS: usize = 3;
    const PER_PUBLISHER: usize = 40;

    let sharded = sharded_daemon(2);
    let (ga, gb) = split_groups(&sharded);
    let svc = serve_clients_sharded(&sharded, tcp_listeners(), SvcConfig::default())
        .expect("service tier");
    let addr = svc.tcp_addr().unwrap();

    let mut sub = SvcClient::connect_tcp(addr, "sub").expect("connect sub");
    assert_eq!(sub.rings(), 2, "welcome advertises the ring count");
    sub.join(&ga).expect("join a");
    sub.join(&gb).expect("join b");
    wait_for_members(&mut sub, &[&ga, &gb], 1);

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
                // Keep the connection (and its ordering floor) alive
                // until the subscriber has the full transcript.
                client
            })
        })
        .collect();

    // Transcript audit: every delivery in arrival order, tagged with
    // the shard that ordered it.
    let want = PUBLISHERS * PER_PUBLISHER;
    let mut transcript: Vec<(u16, String)> = Vec::with_capacity(want);
    let deadline = Instant::now() + DEADLINE;
    while transcript.len() < want {
        assert!(
            Instant::now() < deadline,
            "got {} of {want} deliveries",
            transcript.len()
        );
        if let Some(SvcEvent::Deliver { shard, payload, .. }) = sub.recv(Duration::from_millis(100))
        {
            transcript.push((shard, String::from_utf8(payload.to_vec()).unwrap()));
        }
    }

    // The schedule really crossed rings…
    let shards: std::collections::BTreeSet<u16> = transcript.iter().map(|(s, _)| *s).collect();
    assert!(
        shards.len() >= 2,
        "transcript only touched shards {shards:?}"
    );

    // …and each publisher's messages arrived in publish order anyway.
    let mut next: HashMap<String, usize> = HashMap::new();
    for (_, tag) in &transcript {
        let (name, k) = tag.split_once(':').expect("tag format");
        let k: usize = k.parse().unwrap();
        let slot = next.entry(name.to_string()).or_insert(0);
        assert_eq!(
            k, *slot,
            "publisher {name} out of order: saw {k}, expected {slot}"
        );
        *slot += 1;
    }
    for (name, count) in &next {
        assert_eq!(*count, PER_PUBLISHER, "{name} transcript incomplete");
    }
    let wakes = svc.stats().passes_wake.get();

    for h in pubs {
        drop(h.join().expect("publisher thread"));
    }
    drop(sub);
    drop(svc);
    sharded.shutdown().expect("shutdown");
    wakes
}

#[test]
fn multi_shard_publish_reaches_a_dual_member_once() {
    // One publish naming groups on both rings: a subscriber in both
    // groups sees exactly one copy (the hold-back queue collapses the
    // per-shard duplicates), matching single-ring multi-group
    // semantics.
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
