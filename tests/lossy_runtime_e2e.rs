//! Live-runtime resilience: a ring of runtimes over lossy transports,
//! stepped round-robin on one thread, with real timers driving
//! retransmissions. Verifies the protocol
//! delivers everything, identically ordered, despite 10% message loss.

use std::time::{Duration, Instant};

use accelerated_ring::core::{
    Participant, ParticipantId, ProtocolConfig, RingId, ServiceType, TimeoutConfig,
};
use accelerated_ring::net::{AppEvent, ChaosConfig, ChaosTransport, LoopbackNet, Runtime};
use bytes::Bytes;

#[test]
fn lossy_ring_recovers_and_keeps_total_order() {
    let net = LoopbackNet::new();
    let members: Vec<ParticipantId> = (0..4).map(ParticipantId::new).collect();
    let ring_id = RingId::new(members[0], 1);
    // Fast timers so retransmissions happen quickly under loss.
    let timeouts = TimeoutConfig {
        token_loss: 200_000_000,
        token_retransmit: 3_000_000,
        join: 10_000_000,
        consensus: 100_000_000,
        commit: 60_000_000,
        token_retransmit_limit: 30,
    };
    let mut nodes: Vec<_> = members
        .iter()
        .map(|&p| {
            let mut part =
                Participant::new(p, ProtocolConfig::accelerated(), ring_id, members.clone())
                    .unwrap();
            part.set_timeouts(timeouts).expect("valid timeouts");
            let lossy = ChaosTransport::new(
                net.endpoint(p),
                ChaosConfig::quiet(p.as_u16() as u64 + 99).with_loss(0.10),
            );
            let mut node = Runtime::new(part, lossy);
            node.start().expect("start");
            node
        })
        .collect();

    let per_sender = 25;
    for (i, n) in nodes.iter_mut().enumerate() {
        for k in 0..per_sender {
            let service = if k % 5 == 0 {
                ServiceType::Safe
            } else {
                ServiceType::Agreed
            };
            n.submit(Bytes::from(format!("p{i}-k{k}")), service)
                .expect("submit");
        }
    }

    let expected = nodes.len() * per_sender;
    let mut logs: Vec<Vec<(u64, Bytes)>> = vec![Vec::new(); nodes.len()];
    let deadline = Instant::now() + Duration::from_secs(60);
    while logs.iter().any(|l| l.len() < expected) && Instant::now() < deadline {
        for (i, n) in nodes.iter_mut().enumerate() {
            for ev in n.step_with_wait(Duration::ZERO).expect("step") {
                if let AppEvent::Delivered(d) = ev {
                    logs[i].push((d.seq.as_u64(), d.payload));
                }
            }
        }
    }
    for (i, log) in logs.iter().enumerate() {
        assert_eq!(
            log.len(),
            expected,
            "P{i} delivered {}/{expected} under loss",
            log.len()
        );
        assert_eq!(log, &logs[0], "P{i} diverged from P0");
    }
}
