//! End-to-end test: three Spread-style daemons over *real UDP sockets*
//! on localhost, with clients joining groups and exchanging totally
//! ordered messages — the full stack the paper ships (protocol +
//! daemon architecture + dual-socket UDP transport).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use accelerated_ring::core::{Participant, ParticipantId, ProtocolConfig, RingId, ServiceType};
use accelerated_ring::daemon::{
    spawn_daemon_with, ClientEvent, DaemonClient, DaemonConfig, DaemonHandle, TelemetryHub,
};
use accelerated_ring::net::{DatapathMode, PeerMap, Release, UdpTransport};
use bytes::Bytes;

/// Held by the two tests that must not run side by side: the portable
/// ring's token never parks, and the idle-hold test counts tokens and
/// asserts no regather.
static NO_SPINNING_RING: Mutex<()> = Mutex::new(());

fn udp_daemons(n: u16, base_port: u16) -> Option<Vec<DaemonHandle>> {
    udp_daemons_with(n, base_port, DatapathMode::auto(), |_| {
        DaemonConfig::default()
    })
}

fn udp_daemons_with(
    n: u16,
    base_port: u16,
    mode: DatapathMode,
    config: impl Fn(usize) -> DaemonConfig,
) -> Option<Vec<DaemonHandle>> {
    // Probe for a free port range (tests may run concurrently).
    for attempt in 0..20u16 {
        let base = base_port + attempt * 64;
        let map = PeerMap::localhost(n, base);
        let members: Vec<ParticipantId> = (0..n).map(ParticipantId::new).collect();
        let ring_id = RingId::new(members[0], 1);
        let mut transports = Vec::new();
        let mut ok = true;
        for &p in &members {
            match UdpTransport::bind_with_mode(p, map.clone(), mode) {
                Ok(t) => transports.push(t),
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        let daemons = members
            .iter()
            .zip(transports)
            .enumerate()
            .map(|(i, (&p, t))| {
                let part =
                    Participant::new(p, ProtocolConfig::accelerated(), ring_id, members.clone())
                        .expect("valid ring");
                spawn_daemon_with(part, t, config(i))
            })
            .collect();
        return Some(daemons);
    }
    None
}

fn wait_for<F: FnMut() -> bool>(mut f: F, secs: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// Connects one client per daemon and waits until every client sees
/// all of them in `group`.
fn join_everyone(daemons: &[DaemonHandle], group: &str) -> Vec<DaemonClient> {
    let clients: Vec<_> = daemons
        .iter()
        .enumerate()
        .map(|(i, d)| d.connect(&format!("c{i}")).expect("connect"))
        .collect();
    for c in &clients {
        c.join(group).expect("join");
    }
    let mut sizes = vec![0usize; clients.len()];
    assert!(
        wait_for(
            || {
                for (i, c) in clients.iter().enumerate() {
                    for ev in c.drain() {
                        if let ClientEvent::Membership { members, .. } = ev {
                            sizes[i] = members.len();
                        }
                    }
                }
                sizes.iter().all(|&s| s == daemons.len())
            },
            30
        ),
        "group formed over UDP: {sizes:?}"
    );
    clients
}

#[test]
fn udp_ring_total_order_across_daemons() {
    let Some(daemons) = udp_daemons(3, 47100) else {
        eprintln!("skipping: no free UDP port range");
        return;
    };
    total_order_across(daemons);
}

/// The daemons over the portable datapath, which non-Linux hosts run
/// by default: no `ppoll` wait, so the wake is declined and the token
/// never parks.
#[test]
fn udp_ring_total_order_on_the_portable_datapath() {
    let _alone = NO_SPINNING_RING.lock().unwrap_or_else(|e| e.into_inner());
    let Some(daemons) = udp_daemons_with(3, 58000, DatapathMode::Portable, |_| {
        DaemonConfig::default()
    }) else {
        eprintln!("skipping: no free UDP port range");
        return;
    };
    total_order_across(daemons);
}

/// One client per daemon multicasts three Agreed messages; all of them
/// deliver all nine in one order.
fn total_order_across(daemons: Vec<DaemonHandle>) {
    let clients = join_everyone(&daemons, "orders");

    // Every client multicasts; everyone must deliver all 9 messages in
    // the identical order.
    for (i, c) in clients.iter().enumerate() {
        for k in 0..3 {
            c.multicast(
                &["orders"],
                ServiceType::Agreed,
                Bytes::from(format!("c{i}-m{k}")),
            )
            .expect("multicast");
        }
    }
    let mut logs: Vec<Vec<String>> = vec![Vec::new(); clients.len()];
    assert!(
        wait_for(
            || {
                for (i, c) in clients.iter().enumerate() {
                    for ev in c.drain() {
                        if let ClientEvent::Message { payload, .. } = ev {
                            logs[i].push(String::from_utf8_lossy(&payload).into_owned());
                        }
                    }
                }
                logs.iter().all(|l| l.len() >= 9)
            },
            30
        ),
        "all messages delivered over UDP: {:?}",
        logs.iter().map(Vec::len).collect::<Vec<_>>()
    );
    assert_eq!(logs[0].len(), 9);
    assert_eq!(logs[0], logs[1], "identical order at c0 and c1");
    assert_eq!(logs[1], logs[2], "identical order at c1 and c2");

    drop(clients);
    for d in daemons {
        d.shutdown().expect("clean shutdown");
    }
}

#[test]
fn udp_safe_delivery_round_trip() {
    let Some(daemons) = udp_daemons(2, 48900) else {
        eprintln!("skipping: no free UDP port range");
        return;
    };
    let a = daemons[0].connect("a").expect("connect");
    let b = daemons[1].connect("b").expect("connect");
    a.join("g").expect("join");
    b.join("g").expect("join");
    assert!(wait_for(
        || {
            let mut n = 0;
            for ev in a.drain() {
                if let ClientEvent::Membership { members, .. } = ev {
                    n = members.len();
                }
            }
            n == 2
        },
        30
    ));
    b.multicast(&["g"], ServiceType::Safe, Bytes::from_static(b"stable"))
        .expect("multicast");
    assert!(
        wait_for(
            || a.drain().iter().any(|e| matches!(
                e,
                ClientEvent::Message {
                    service: ServiceType::Safe,
                    ..
                }
            )),
            30
        ),
        "safe message delivered over UDP"
    );
    drop((a, b));
    for d in daemons {
        d.shutdown().expect("clean shutdown");
    }
}

/// Appends every delivered payload to its client's log.
fn collect(clients: &[DaemonClient], logs: &mut [Vec<String>]) {
    for (c, log) in clients.iter().zip(logs.iter_mut()) {
        for ev in c.drain() {
            if let ClientEvent::Message { payload, .. } = ev {
                log.push(String::from_utf8_lossy(&payload).into_owned());
            }
        }
    }
}

/// The idle-token hold end to end: an idle ring parks its token at the
/// representative (daemon 0), a publisher on either other daemon gets
/// it back through a cancel rather than the hold deadline, and Safe
/// delivery still completes everywhere.
#[test]
fn idle_ring_parks_its_token_and_publishers_get_it_back() {
    if DatapathMode::auto() != DatapathMode::Batched {
        eprintln!("skipping: the portable datapath never holds the token");
        return;
    }
    let _alone = NO_SPINNING_RING.lock().unwrap_or_else(|e| e.into_inner());
    let hubs: Vec<Arc<TelemetryHub>> = (0..3).map(|_| TelemetryHub::shared()).collect();
    let Some(daemons) = udp_daemons_with(3, 47400, DatapathMode::auto(), |i| DaemonConfig {
        telemetry: Some(Arc::clone(&hubs[i])),
        ..DaemonConfig::default()
    }) else {
        eprintln!("skipping: no free UDP port range");
        return;
    };
    let clients = join_everyone(&daemons, "g");
    let holds = |why: Release| {
        hubs[0]
            .registry
            .counter_labeled(
                "ar_node_token_holds_total",
                &format!("release=\"{}\"", why.label()),
                "",
            )
            .get()
    };

    // Idle: the token parks instead of rotating flat out.
    std::thread::sleep(Duration::from_millis(200));
    let tokens = |hub: &Arc<TelemetryHub>| hub.stats().tokens_handled;
    let before: Vec<u64> = hubs.iter().map(tokens).collect();
    std::thread::sleep(Duration::from_secs(2));
    for (i, hub) in hubs.iter().enumerate() {
        let handled = tokens(hub) - before[i];
        eprintln!("daemon {i}: {handled} tokens handled in 2 s idle");
        assert!(
            handled < 2_000,
            "daemon {i} handled {handled} tokens in 2 s idle"
        );
        assert_eq!(hub.stats().gathers_started, 0, "daemon {i} regathered");
    }
    assert!(holds(Release::Deadline) > 0, "the idle token was held");

    // Agreed publishes from the two non-representatives, 1 ms apart.
    let held_before: Vec<u64> = Release::ALL.iter().map(|&r| holds(r)).collect();
    for k in 0..200 {
        clients[1 + k % 2]
            .multicast(&["g"], ServiceType::Agreed, Bytes::from(format!("a{k}")))
            .expect("multicast");
        std::thread::sleep(Duration::from_millis(1));
    }
    let held: Vec<u64> = Release::ALL
        .iter()
        .zip(&held_before)
        .map(|(&r, before)| holds(r) - before)
        .collect();
    let mut logs = vec![Vec::new(); clients.len()];
    assert!(
        wait_for(
            || {
                collect(&clients, &mut logs);
                logs.iter().all(|l| l.len() >= 200)
            },
            30
        ),
        "all Agreed publishes delivered: {:?}",
        logs.iter().map(Vec::len).collect::<Vec<_>>()
    );
    assert_eq!(logs[0].len(), 200);
    assert_eq!(logs[0], logs[1], "one total order at daemons 0 and 1");
    assert_eq!(logs[1], logs[2], "one total order at daemons 1 and 2");
    let total: u64 = held.iter().sum();
    let by_deadline = held[Release::Deadline.index()];
    eprintln!("holds by cause {:?}: {held:?}", Release::ALL);
    assert!(total > 0, "the ring parked between publishes");
    assert!(
        by_deadline * 20 < total,
        "{by_deadline} of {total} holds ran out their deadline \
         (by cause {:?}: {held:?})",
        Release::ALL
    );

    // Safe publishes: each reaches all three daemons before the next.
    for log in &mut logs {
        log.clear();
    }
    for k in 0..50 {
        let payload = format!("s{k}");
        clients[1 + k % 2]
            .multicast(&["g"], ServiceType::Safe, Bytes::from(payload.clone()))
            .expect("multicast");
        assert!(
            wait_for(
                || {
                    collect(&clients, &mut logs);
                    logs.iter().all(|l| l.contains(&payload))
                },
                10
            ),
            "Safe {payload} delivered at every daemon: {logs:?}"
        );
    }

    drop(clients);
    for d in daemons {
        d.shutdown().expect("clean shutdown");
    }
}
