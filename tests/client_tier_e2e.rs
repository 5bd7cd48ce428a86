//! End-to-end tests of the client service tier: a real (loopback)
//! daemon serving flow-controlled clients over TCP.
//!
//! Covers the ISSUE's required scenarios: 100 concurrent clients
//! seeing one total order per group, a publish-credit stall that
//! releases as messages reach Agreed order, and a deliberately slow
//! consumer that is evicted by policy without perturbing healthy
//! clients — and that a delivery reaches the tier's loop through the
//! ring thread's wake, and a backed-up client's backlog through its
//! socket draining, not the tier's 2 ms tick. On the ingress side, a
//! pump sends every queued publish in one write that the tier takes in
//! a read or two, and a dropped client still sends what it queued.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use accelerated_ring::core::{Participant, ParticipantId, ProtocolConfig, RingId, ServiceType};
use accelerated_ring::daemon::{spawn_daemon, DaemonHandle};
use accelerated_ring::net::LoopbackNet;
#[cfg(target_os = "linux")]
use accelerated_ring::svc::SvcStats;
use accelerated_ring::svc::{
    serve_clients, FlowConfig, PublishError, SvcClient, SvcConfig, SvcEvent, SvcListeners,
};
use bytes::Bytes;

const DEADLINE: Duration = Duration::from_secs(60);

fn single_daemon() -> (LoopbackNet, DaemonHandle) {
    let net = LoopbackNet::new();
    let members = vec![ParticipantId::new(0)];
    let ring_id = RingId::new(members[0], 1);
    let part = Participant::new(
        members[0],
        ProtocolConfig::accelerated(),
        ring_id,
        members.clone(),
    )
    .expect("participant");
    let handle = spawn_daemon(part, net.endpoint(members[0]));
    (net, handle)
}

fn tcp_listeners() -> SvcListeners {
    SvcListeners {
        tcp: Some("127.0.0.1:0".parse().unwrap()),
        uds: None,
    }
}

/// Pumps until the client has seen its group reach `n` members.
fn wait_for_members(client: &mut SvcClient, group: &str, n: usize) {
    let deadline = Instant::now() + DEADLINE;
    let mut seen = 0;
    while seen < n {
        assert!(
            Instant::now() < deadline,
            "membership of {group} never hit {n}"
        );
        if let Some(SvcEvent::Membership { group: g, members }) =
            client.recv(Duration::from_millis(100))
        {
            if g == group {
                seen = members.len();
            }
        }
    }
}

#[test]
fn hundred_clients_agree_on_one_order_per_group() {
    const CLIENTS: usize = 100;
    const GROUPS: usize = 4;
    const PER_CLIENT: usize = 5;
    let per_group = CLIENTS / GROUPS;

    let (_net, daemon) = single_daemon();
    let svc = serve_clients(&daemon, tcp_listeners(), SvcConfig::default()).expect("service tier");
    let addr = svc.tcp_addr().unwrap();

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let group = format!("g{}", i % GROUPS);
                let name = format!("c{i}");
                let mut client = SvcClient::connect_tcp(addr, &name).expect("connect");
                client.join(&group).expect("join");
                wait_for_members(&mut client, &group, per_group);
                // Every member is in: published messages now reach the
                // whole group.
                barrier.wait();
                for k in 0..PER_CLIENT {
                    client
                        .publish(
                            &[&group],
                            ServiceType::Agreed,
                            Bytes::from(format!("{i}:{k}")),
                            DEADLINE,
                        )
                        .expect("publish");
                }
                // Collect the group's full transcript.
                let want = per_group * PER_CLIENT;
                let mut transcript: Vec<(u64, String)> = Vec::with_capacity(want);
                let deadline = Instant::now() + DEADLINE;
                while transcript.len() < want {
                    assert!(
                        Instant::now() < deadline,
                        "client {i}: got {} of {want} deliveries",
                        transcript.len()
                    );
                    if let Some(SvcEvent::Deliver {
                        ring_seq, payload, ..
                    }) = client.recv(Duration::from_millis(100))
                    {
                        transcript.push((ring_seq, String::from_utf8(payload.to_vec()).unwrap()));
                    }
                }
                (i % GROUPS, i, transcript)
            })
        })
        .collect();

    type Transcript = Vec<(u64, String)>;
    let mut by_group: Vec<Vec<(usize, Transcript)>> = vec![Vec::new(); GROUPS];
    for h in handles {
        let (g, i, transcript) = h.join().expect("client thread");
        by_group[g].push((i, transcript));
    }

    for (g, members) in by_group.iter().enumerate() {
        assert_eq!(members.len(), per_group);
        let (ref_id, reference) = &members[0];
        // Total order: every member of the group saw the identical
        // delivery sequence (payloads and ring sequence numbers).
        for (id, transcript) in members {
            assert_eq!(
                transcript, reference,
                "group g{g}: client {id} disagrees with client {ref_id}"
            );
        }
        // Ring sequence numbers never go backwards along the
        // transcript (ties are messages packed into one ring bundle).
        for w in reference.windows(2) {
            assert!(w[0].0 <= w[1].0, "ring_seq went backwards: {w:?}");
        }
        // FIFO per publisher: each sender's messages appear in
        // submission order.
        for (id, _) in members {
            let ks: Vec<usize> = reference
                .iter()
                .filter_map(|(_, p)| {
                    let (sender, k) = p.split_once(':')?;
                    (sender == id.to_string()).then(|| k.parse().unwrap())
                })
                .collect();
            assert_eq!(ks, (0..PER_CLIENT).collect::<Vec<_>>());
        }
    }
    assert_eq!(svc.stats().evicted.get(), 0, "no evictions expected");
    svc.shutdown().expect("clean shutdown");
}

#[test]
fn credit_stall_releases_as_messages_reach_agreed() {
    let (_net, daemon) = single_daemon();
    let mut config = SvcConfig::default();
    config.flow.publish_credits = 4;
    let svc = serve_clients(&daemon, tcp_listeners(), config).expect("service tier");
    let addr = svc.tcp_addr().unwrap();

    let mut client = SvcClient::connect_tcp(addr, "stall").expect("connect");
    assert_eq!(client.credits(), 4);

    // Exhaust the window without pumping: the fifth publish must stall.
    for _ in 0..4 {
        client
            .try_publish(&["g"], ServiceType::Agreed, Bytes::from_static(b"x"))
            .expect("publish within credits");
    }
    assert!(matches!(
        client.try_publish(&["g"], ServiceType::Agreed, Bytes::from_static(b"x")),
        Err(PublishError::NoCredits)
    ));

    // The blocking publish waits for a CreditGrant and then proceeds;
    // run well past the window to prove credits keep cycling.
    for _ in 0..28 {
        client
            .publish(
                &["g"],
                ServiceType::Agreed,
                Bytes::from_static(b"x"),
                DEADLINE,
            )
            .expect("stalled publish released");
    }

    // All 32 eventually complete and every credit comes home.
    let deadline = Instant::now() + DEADLINE;
    let mut ordered = 0;
    while ordered < 32 {
        assert!(
            Instant::now() < deadline,
            "only {ordered} of 32 publishes ordered"
        );
        if let Some(SvcEvent::PublishOrdered { .. }) = client.recv(Duration::from_millis(100)) {
            ordered += 1;
        }
    }
    assert_eq!(client.credits(), 4, "all credits replenished");
    assert!(svc.stats().credit_grants.get() >= 32);
    svc.shutdown().expect("clean shutdown");
}

#[test]
fn slow_consumer_is_evicted_without_perturbing_others() {
    const MSGS: usize = 64;
    const MAX_PENDING: usize = 8;
    let (_net, daemon) = single_daemon();
    let config = SvcConfig {
        flow: FlowConfig {
            publish_credits: 128,
            delivery_window: 4,
            max_pending: MAX_PENDING,
            max_write_buffer: 1 << 20,
        },
        ..SvcConfig::default()
    };
    let svc = serve_clients(&daemon, tcp_listeners(), config).expect("service tier");
    let addr = svc.tcp_addr().unwrap();

    let mut slow = SvcClient::connect_tcp(addr, "slow").expect("connect");
    slow.set_auto_ack(false); // reads frames but never opens the window
    let mut healthy = SvcClient::connect_tcp(addr, "healthy").expect("connect");
    slow.join("g").expect("join");
    healthy.join("g").expect("join");
    wait_for_members(&mut slow, "g", 2);
    wait_for_members(&mut healthy, "g", 2);

    // The healthy consumer drains (and auto-acks) concurrently — a
    // consumer that keeps up never accumulates backlog, so the small
    // pending bound chosen to trip the slow one never applies to it.
    let healthy_progress = Arc::new(AtomicUsize::new(0));
    let progress = Arc::clone(&healthy_progress);
    let consumer_thread = std::thread::spawn(move || {
        let mut got = Vec::new();
        let deadline = Instant::now() + DEADLINE;
        while got.len() < MSGS {
            assert!(
                Instant::now() < deadline,
                "healthy consumer stalled at {} of {MSGS}",
                got.len()
            );
            if let Some(SvcEvent::Deliver { payload, .. }) =
                healthy.recv(Duration::from_millis(100))
            {
                got.push(String::from_utf8(payload.to_vec()).unwrap());
                progress.store(got.len(), Ordering::Release);
            }
        }
        (healthy, got)
    });

    // Pace the publisher on the healthy consumer's observed progress,
    // not on the clock: it never runs more than half of `max_pending`
    // ahead of what the healthy consumer has received (and therefore
    // acked; the other half is slack for acks still in flight), so a
    // consumer that is merely descheduled under parallel test load
    // cannot trip the backlog policy. One that never acks still
    // accumulates every message past its window.
    let mut publisher = SvcClient::connect_tcp(addr, "pub").expect("connect");
    let mut slow_deliveries = 0;
    let mut evict_reason = None;
    let deadline = Instant::now() + DEADLINE;
    for k in 0..MSGS {
        while k >= healthy_progress.load(Ordering::Acquire) + MAX_PENDING / 2 {
            assert!(
                Instant::now() < deadline && !consumer_thread.is_finished(),
                "healthy consumer stopped making progress at {k}"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        publisher
            .publish(
                &["g"],
                ServiceType::Agreed,
                Bytes::from(format!("m{k}")),
                DEADLINE,
            )
            .expect("publish");
        // Keep the slow consumer reading (but never acking), so its
        // eviction is triggered by the ack window, not a full socket.
        while let Some(ev) = slow.recv(Duration::ZERO) {
            match ev {
                SvcEvent::Deliver { .. } => slow_deliveries += 1,
                SvcEvent::Evicted { reason } => evict_reason = Some(reason),
                _ => {}
            }
        }
    }

    let (mut healthy, got) = consumer_thread.join().expect("healthy consumer");
    let want: Vec<String> = (0..MSGS).map(|k| format!("m{k}")).collect();
    assert_eq!(
        got, want,
        "healthy consumer must see every message in order"
    );

    // The slow consumer received at most a window's worth before the
    // server cut it loose for pending overflow.
    let deadline = Instant::now() + DEADLINE;
    while evict_reason.is_none() {
        assert!(Instant::now() < deadline, "slow consumer never evicted");
        match slow.recv(Duration::from_millis(100)) {
            Some(SvcEvent::Deliver { .. }) => slow_deliveries += 1,
            Some(SvcEvent::Evicted { reason }) => evict_reason = Some(reason),
            _ => {}
        }
    }
    assert!(
        evict_reason.unwrap().contains("backlog"),
        "eviction should name the delivery backlog policy"
    );
    assert!(
        slow_deliveries <= 4,
        "an unacking consumer must not receive past its window (got {slow_deliveries})"
    );
    assert_eq!(
        svc.stats().evicted.get(),
        1,
        "exactly the slow consumer evicted"
    );

    // The tier keeps serving: a post-eviction publish still reaches the
    // healthy consumer (the eviction's ordered leave did not disturb
    // the group).
    publisher
        .publish(
            &["g"],
            ServiceType::Agreed,
            Bytes::from_static(b"after"),
            DEADLINE,
        )
        .expect("publish after eviction");
    let deadline = Instant::now() + DEADLINE;
    loop {
        assert!(Instant::now() < deadline, "post-eviction delivery lost");
        if let Some(SvcEvent::Deliver { payload, .. }) = healthy.recv(Duration::from_millis(100)) {
            assert_eq!(&payload[..], b"after");
            break;
        }
    }
    svc.shutdown().expect("clean shutdown");
}

#[test]
fn deliveries_wake_the_tier_instead_of_waiting_for_its_tick() {
    const MSGS: u64 = 300;
    // A ring of two daemons, a tier on each: the publisher's on A, the
    // subscriber's on B, so B's tier learns of a delivery only from
    // B's ring thread.
    let net = LoopbackNet::new();
    let members: Vec<ParticipantId> = (0..2).map(ParticipantId::new).collect();
    let ring_id = RingId::new(members[0], 1);
    let daemons: Vec<DaemonHandle> = members
        .iter()
        .map(|&p| {
            let part = Participant::new(p, ProtocolConfig::accelerated(), ring_id, members.clone())
                .expect("participant");
            spawn_daemon(part, net.endpoint(p))
        })
        .collect();
    let svc_a =
        serve_clients(&daemons[0], tcp_listeners(), SvcConfig::default()).expect("service tier a");
    let svc_b =
        serve_clients(&daemons[1], tcp_listeners(), SvcConfig::default()).expect("service tier b");

    let mut sub = SvcClient::connect_tcp(svc_b.tcp_addr().unwrap(), "sub").expect("connect sub");
    sub.join("g").expect("join");
    wait_for_members(&mut sub, "g", 1);
    let mut publisher =
        SvcClient::connect_tcp(svc_a.tcp_addr().unwrap(), "pub").expect("connect pub");

    // An otherwise idle tier, and a closed loop: publish k + 1 leaves
    // only after the subscriber has k, and no sooner than 3 ms — more
    // than a tick — after publish k. However late a loaded box makes
    // anything, no two deliveries share a dispatch batch at B, so
    // each one arms the wake afresh and costs B's tier a wake pass.
    let stats = svc_b.stats();
    let (wakes_before, delivered_before) = (stats.passes_wake.get(), stats.deliveries.get());
    for k in 0..MSGS {
        let next = Instant::now() + Duration::from_millis(3);
        publisher
            .publish(
                &["g"],
                ServiceType::Agreed,
                Bytes::from(format!("m{k}")),
                DEADLINE,
            )
            .expect("publish");
        let deadline = Instant::now() + DEADLINE;
        loop {
            assert!(Instant::now() < deadline, "delivery {k} of {MSGS} lost");
            if let Some(SvcEvent::Deliver { .. }) = sub.recv(Duration::from_millis(100)) {
                break;
            }
        }
        std::thread::sleep(next.saturating_duration_since(Instant::now()));
    }

    // Counts and a server-side histogram, not client-side wall-clock.
    // (A tick that fires between a ring thread's push and its wake
    // drains the event early; the wake still starts a pass of its
    // own, so the count holds.) The median is the one clock here: a
    // wake the poll did not watch would wait for the tick, 1 ms in
    // the median, where a watched one waits for the scheduler.
    let delivered = stats.deliveries.get() - delivered_before;
    let wakes = stats.passes_wake.get() - wakes_before;
    assert_eq!(delivered, MSGS);
    assert!(
        wakes * 10 >= delivered * 9,
        "{wakes} wake passes for {delivered} deliveries: the tick carried the rest"
    );
    let p50 = stats.wake_delay_ns.snapshot().value_at_quantile(0.5);
    assert!(
        p50 < 500_000,
        "median wake-to-pass delay {p50} ns: the wake does not end the poll"
    );

    drop(sub);
    drop(publisher);
    svc_a.shutdown().expect("clean shutdown a");
    svc_b.shutdown().expect("clean shutdown b");
}

/// Counts of the tier's loop passes by cause.
#[cfg(target_os = "linux")]
fn passes(stats: &SvcStats) -> [u64; 3] {
    [
        stats.passes_socket.get(),
        stats.passes_tick.get(),
        stats.passes_wake.get(),
    ]
}

#[cfg(target_os = "linux")]
#[test]
fn a_backed_up_client_resumes_when_its_socket_drains() {
    const MSGS: usize = 256;
    const PAYLOAD: usize = 32 * 1024;
    let (_net, daemon) = single_daemon();
    let path = std::env::temp_dir().join(format!("ar-svc-drain-{}.sock", std::process::id()));
    // A Unix stream socket holds a few hundred KiB in flight, so the
    // 8 MiB backlog refills it dozens of times.
    let config = SvcConfig {
        flow: FlowConfig {
            publish_credits: 64,
            delivery_window: MSGS as u32,
            max_pending: MSGS,
            max_write_buffer: 64 << 20,
        },
        ..SvcConfig::default()
    };
    let listeners = SvcListeners {
        tcp: None,
        uds: Some(path.clone()),
    };
    let svc = serve_clients(&daemon, listeners, config).expect("service tier");

    // The subscriber never acks, so it sends nothing once it has
    // joined: no pass below is caused by its socket turning readable.
    let mut sub = SvcClient::connect_uds(&path, "sub").expect("connect sub");
    sub.set_auto_ack(false);
    sub.join("g").expect("join");
    wait_for_members(&mut sub, "g", 1);
    let mut publisher = SvcClient::connect_uds(&path, "pub").expect("connect pub");
    let payload = Bytes::from(vec![7u8; PAYLOAD]);
    for _ in 0..MSGS {
        publisher
            .publish(&["g"], ServiceType::Agreed, payload.clone(), DEADLINE)
            .expect("publish");
    }
    // Every delivery queued at the subscriber's connection, almost all
    // of them behind a full socket; then the tier idles.
    let stats = svc.stats();
    let deadline = Instant::now() + DEADLINE;
    while stats.deliveries.get() < MSGS as u64 {
        assert!(Instant::now() < deadline, "deliveries never queued");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut ordered = 0;
    while ordered < MSGS {
        assert!(Instant::now() < deadline, "publisher missing grants");
        if let Some(SvcEvent::PublishOrdered { .. }) = publisher.recv(Duration::from_millis(50)) {
            ordered += 1;
        }
    }
    std::thread::sleep(Duration::from_millis(20));

    // The subscriber reads again. Each refill of its socket must come
    // from a pass its draining socket started, not from the tick: at
    // one tick per refill the backlog would trickle in 2 ms apart.
    let before = passes(stats);
    let mut got = 0;
    while got < MSGS {
        assert!(
            Instant::now() < deadline,
            "backlog stalled at {got} of {MSGS}"
        );
        match sub.recv(Duration::from_millis(100)) {
            Some(SvcEvent::Deliver { payload, .. }) => {
                assert_eq!(payload.len(), PAYLOAD);
                got += 1;
            }
            Some(SvcEvent::Evicted { reason }) => panic!("subscriber evicted: {reason}"),
            _ => {}
        }
    }
    let after = passes(stats);
    let [socket, tick, wake] = [0, 1, 2].map(|i| after[i] - before[i]);
    eprintln!("drain passes: socket {socket}, tick {tick}, wake {wake}");
    assert!(
        socket >= 8 && socket > 4 * tick,
        "{socket} socket passes and {tick} ticks: the backlog waited for the tick"
    );
    assert_eq!(stats.evicted.get(), 0);

    drop(sub);
    drop(publisher);
    svc.shutdown().expect("clean shutdown");
}

#[test]
fn one_pump_sends_sixty_four_publishes_in_a_few_reads() {
    const N: usize = 64;
    let (_net, daemon) = single_daemon();
    let svc = serve_clients(&daemon, tcp_listeners(), SvcConfig::default()).expect("service tier");
    let mut client = SvcClient::connect_tcp(svc.tcp_addr().unwrap(), "corked").expect("connect");
    assert!(client.credits() as usize >= N);

    // The handshake's reads are over once connect returns, and nobody
    // else is connected: every read from here on is of this client.
    let stats = svc.stats();
    let (reads_before, publishes_before) = (stats.read_calls.get(), stats.publishes.get());
    // Spaced out, so a client that wrote each publish at once would
    // cost the tier about a read apiece.
    for k in 0..N {
        client
            .try_publish(&["g"], ServiceType::Agreed, Bytes::from(format!("m{k}")))
            .expect("publish within credits");
        std::thread::sleep(Duration::from_micros(500));
    }
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(
        stats.publishes.get(),
        publishes_before,
        "try_publish wrote to the socket"
    );
    client.pump().expect("pump");
    let deadline = Instant::now() + DEADLINE;
    while stats.publishes.get() - publishes_before < N as u64 {
        assert!(
            Instant::now() < deadline,
            "the tier never read every publish"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // One gathered write is one loopback segment: one read takes it
    // and one more finds the socket empty.
    let reads = stats.read_calls.get() - reads_before;
    eprintln!("{N} publishes in {reads} reads");
    assert!(
        reads <= 4,
        "{reads} reads for {N} publishes sent by one pump"
    );
    svc.shutdown().expect("clean shutdown");
}

#[test]
fn a_dropped_client_sends_its_queued_publishes_before_leaving() {
    const N: usize = 8;
    let (_net, daemon) = single_daemon();
    let svc = serve_clients(&daemon, tcp_listeners(), SvcConfig::default()).expect("service tier");
    let addr = svc.tcp_addr().unwrap();
    let mut sub = SvcClient::connect_tcp(addr, "sub").expect("connect sub");
    sub.join("g").expect("join");
    wait_for_members(&mut sub, "g", 1);
    let mut publisher = SvcClient::connect_tcp(addr, "pub").expect("connect pub");
    publisher.join("g").expect("join");
    wait_for_members(&mut sub, "g", 2);

    // Queued, never pumped: only the drop sends them, ahead of its
    // Goodbye.
    for k in 0..N {
        publisher
            .try_publish(&["g"], ServiceType::Agreed, Bytes::from(format!("m{k}")))
            .expect("publish within credits");
    }
    drop(publisher);

    // The leave is ordered after the publishes, and the view change
    // follows the old view's messages: all N deliveries, then the leave.
    let mut got = Vec::new();
    let deadline = Instant::now() + DEADLINE;
    loop {
        assert!(Instant::now() < deadline, "got {got:?}, no leave");
        match sub.recv(Duration::from_millis(100)) {
            Some(SvcEvent::Deliver { payload, .. }) => {
                got.push(String::from_utf8(payload.to_vec()).unwrap());
            }
            Some(SvcEvent::Membership { group, members }) if group == "g" && members.len() == 1 => {
                break
            }
            _ => {}
        }
    }
    let want: Vec<String> = (0..N).map(|k| format!("m{k}")).collect();
    assert_eq!(
        got, want,
        "every queued publish, in order, before the leave"
    );
    drop(sub);
    svc.shutdown().expect("clean shutdown");
}
