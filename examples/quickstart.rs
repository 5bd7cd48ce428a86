//! Quickstart: a five-process Accelerated Ring ordering messages.
//!
//! Each process is a `Runtime` over an in-process transport, and one
//! thread steps them round-robin. Three of them multicast concurrently;
//! every process delivers exactly the same totally ordered sequence.
//!
//! Run with: `cargo run --release --example quickstart`

use std::time::{Duration, Instant};

use accelerated_ring::core::{Participant, ParticipantId, ProtocolConfig, RingId, ServiceType};
use accelerated_ring::net::{AppEvent, LoopbackNet, Runtime};
use bytes::Bytes;

const N: u16 = 5;
const PER_SENDER: usize = 4;

fn main() {
    let net = LoopbackNet::new();
    let members: Vec<ParticipantId> = (0..N).map(ParticipantId::new).collect();
    let ring_id = RingId::new(members[0], 1);

    // Every participant gets the same member list; the representative
    // (P0) injects the first token when its node starts.
    let mut nodes: Vec<_> = members
        .iter()
        .map(|&pid| {
            let part =
                Participant::new(pid, ProtocolConfig::accelerated(), ring_id, members.clone())
                    .expect("valid ring");
            Runtime::new(part, net.endpoint(pid))
        })
        .collect();
    for node in &mut nodes {
        node.start().expect("loopback send");
    }

    // Three senders multicast concurrently; Safe for the last message
    // of each sender, Agreed for the rest.
    for (i, node) in nodes.iter_mut().enumerate().take(3) {
        for k in 0..PER_SENDER {
            let service = if k == PER_SENDER - 1 {
                ServiceType::Safe
            } else {
                ServiceType::Agreed
            };
            node.submit(Bytes::from(format!("sender-{i} msg-{k}")), service)
                .expect("queue has room");
        }
    }

    // Collect deliveries at every process.
    let expected = 3 * PER_SENDER;
    let mut logs: Vec<Vec<(u64, String)>> = vec![Vec::new(); N as usize];
    let deadline = Instant::now() + Duration::from_secs(20);
    while logs.iter().any(|l| l.len() < expected) && Instant::now() < deadline {
        for (i, node) in nodes.iter_mut().enumerate() {
            for ev in node.step_with_wait(Duration::ZERO).expect("loopback send") {
                if let AppEvent::Delivered(d) = ev {
                    logs[i].push((
                        d.seq.as_u64(),
                        String::from_utf8_lossy(&d.payload).into_owned(),
                    ));
                }
            }
        }
    }

    println!("total order as delivered by P0:");
    for (seq, text) in &logs[0] {
        println!("  #{seq:<3} {text}");
    }
    for (i, log) in logs.iter().enumerate() {
        assert_eq!(log, &logs[0], "P{i} delivered a different sequence than P0");
    }
    println!("\nall {N} processes delivered the identical sequence of {expected} messages");
}
