//! Membership in action: crash a ring member and watch Extended
//! Virtual Synchrony deliver a transitional and a regular
//! configuration; messages in flight at the moment of the crash are
//! recovered and delivered consistently by the survivors. One thread
//! steps every process's `Runtime` round-robin.
//!
//! Run with: `cargo run --release --example membership_demo`

use std::time::{Duration, Instant};

use accelerated_ring::core::{
    ConfigChangeKind, Participant, ParticipantId, ProtocolConfig, RingId, ServiceType,
    TimeoutConfig,
};
use accelerated_ring::net::{AppEvent, LoopbackNet, LoopbackTransport, Runtime};
use bytes::Bytes;

const N: u16 = 4;

type Node = Runtime<LoopbackTransport>;

fn main() {
    let net = LoopbackNet::new();
    let members: Vec<ParticipantId> = (0..N).map(ParticipantId::new).collect();
    let ring_id = RingId::new(members[0], 1);
    // Short timeouts so the demo converges quickly.
    let timeouts = TimeoutConfig {
        token_loss: 30_000_000,      // 30 ms
        token_retransmit: 5_000_000, // 5 ms
        join: 10_000_000,
        consensus: 60_000_000,
        commit: 40_000_000,
        token_retransmit_limit: 3,
    };
    let mut nodes: Vec<Node> = members
        .iter()
        .map(|&pid| {
            let mut part =
                Participant::new(pid, ProtocolConfig::accelerated(), ring_id, members.clone())
                    .expect("valid ring");
            part.set_timeouts(timeouts).expect("valid timeouts");
            let mut node = Runtime::new(part, net.endpoint(pid));
            node.start().expect("loopback send");
            node
        })
        .collect();

    // Normal operation: a few ordered messages.
    for (i, node) in nodes.iter_mut().enumerate() {
        node.submit(
            Bytes::from(format!("pre-crash from P{i}")),
            ServiceType::Agreed,
        )
        .unwrap();
    }
    pump(&mut nodes, N as usize, Duration::from_secs(10));
    println!("phase 1: all {N} members delivered {} messages each", N);

    // Crash P3 (drop its runtime; the loopback endpoint detaches).
    println!("\ncrashing P3...");
    drop(nodes.pop());

    // The survivors detect token loss, gather, and install a 3-member
    // ring. Watch for the EVS configuration deliveries.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut seen_regular = [false; 3];
    let mut seen_transitional = [false; 3];
    while seen_regular.iter().any(|&b| !b) && Instant::now() < deadline {
        for (i, ev) in step_all(&mut nodes) {
            if let AppEvent::ConfigChanged(c) = ev {
                match c.kind {
                    ConfigChangeKind::Transitional => {
                        println!(
                            "P{i}: transitional configuration {:?}",
                            c.members.iter().map(|p| p.to_string()).collect::<Vec<_>>()
                        );
                        seen_transitional[i] = true;
                    }
                    ConfigChangeKind::Regular => {
                        println!(
                            "P{i}: regular configuration      {:?}",
                            c.members.iter().map(|p| p.to_string()).collect::<Vec<_>>()
                        );
                        assert_eq!(c.members.len(), 3, "survivor ring has 3 members");
                        seen_regular[i] = true;
                    }
                }
            }
        }
    }
    assert!(
        seen_regular.iter().all(|&b| b),
        "every survivor must install the new ring"
    );
    assert!(seen_transitional.iter().all(|&b| b));

    // The 3-member ring keeps ordering messages.
    for (i, node) in nodes.iter_mut().enumerate() {
        node.submit(
            Bytes::from(format!("post-crash from P{i}")),
            ServiceType::Safe,
        )
        .unwrap();
    }
    let delivered = pump(&mut nodes, 3, Duration::from_secs(20));
    assert!(
        delivered.iter().all(|&d| d == 3),
        "survivors keep delivering: {delivered:?}"
    );
    println!("\nphase 2: the 3-member ring delivered 3 Safe messages at every survivor");
    println!("membership change handled: crash detected, ring re-formed, ordering resumed");
}

/// Steps every process once; returns their events by index.
fn step_all(nodes: &mut [Node]) -> Vec<(usize, AppEvent)> {
    let mut events = Vec::new();
    for (i, node) in nodes.iter_mut().enumerate() {
        let step = node.step_with_wait(Duration::ZERO).expect("loopback send");
        events.extend(step.into_iter().map(|ev| (i, ev)));
    }
    events
}

/// Steps the ring until every node has delivered `expect` messages;
/// returns the per-node delivery counts.
fn pump(nodes: &mut [Node], expect: usize, timeout: Duration) -> Vec<usize> {
    let mut delivered = vec![0; nodes.len()];
    let deadline = Instant::now() + timeout;
    while delivered.iter().any(|&d| d < expect) && Instant::now() < deadline {
        for (i, ev) in step_all(nodes) {
            if let AppEvent::Delivered(_) = ev {
                delivered[i] += 1;
            }
        }
    }
    assert!(
        delivered.iter().all(|&d| d >= expect),
        "not all nodes delivered {expect}: {delivered:?}"
    );
    delivered
}
