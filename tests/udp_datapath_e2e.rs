//! End-to-end: a 2-node ring over real UDP sockets keeps total
//! ordering while an attacker blasts garbage datagrams at both of each
//! node's sockets. Exercises the platform default, the batched
//! datapath and the portable fallback, each bound explicitly.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use accelerated_ring::core::{Participant, ParticipantId, ProtocolConfig, RingId, ServiceType};
use accelerated_ring::net::{AppEvent, DatapathMode, PeerMap, Runtime, UdpTransport};
use bytes::Bytes;

fn bind_ring(base_port: u16, mode: DatapathMode) -> Option<(PeerMap, Vec<Runtime<UdpTransport>>)> {
    for attempt in 0..20u16 {
        let Some(base) = attempt
            .checked_mul(64)
            .and_then(|o| base_port.checked_add(o))
        else {
            continue;
        };
        let map = PeerMap::localhost(2, base);
        if map.len() < 2 {
            continue;
        }
        let members: Vec<ParticipantId> = (0..2).map(ParticipantId::new).collect();
        let ring_id = RingId::new(members[0], 1);
        let mut runtimes = Vec::new();
        let mut ok = true;
        for &p in &members {
            match UdpTransport::bind_with_mode(p, map.clone(), mode) {
                Ok(t) => {
                    let part = Participant::new(
                        p,
                        ProtocolConfig::accelerated(),
                        ring_id,
                        members.clone(),
                    )
                    .expect("valid ring");
                    runtimes.push(Runtime::new(part, t));
                }
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            return Some((map, runtimes));
        }
    }
    None
}

/// Runs a 2-node UDP ring to completion while bursts of undecodable
/// datagrams hit every socket, then checks ordering was untouched.
fn ordering_survives_garbage(base_port: u16, mode: DatapathMode) {
    let Some((map, mut ring)) = bind_ring(base_port, mode) else {
        eprintln!("skipping: no free UDP port range");
        return;
    };
    let garbage_tx = UdpSocket::bind("127.0.0.1:0").expect("bind garbage source");
    let targets: Vec<std::net::SocketAddr> = (0..2)
        .flat_map(|p| {
            let addrs = map.get(ParticipantId::new(p)).unwrap();
            [addrs.token, addrs.data]
        })
        .collect();

    const PER_NODE: u64 = 5;
    for (i, rt) in ring.iter_mut().enumerate() {
        for k in 0..PER_NODE {
            rt.submit(Bytes::from(format!("n{i}-m{k}")), ServiceType::Agreed)
                .expect("submit");
        }
    }
    let total = PER_NODE as usize * 2;
    let mut logs: Vec<Vec<(u64, Bytes)>> = vec![Vec::new(); 2];
    for (i, rt) in ring.iter_mut().enumerate() {
        for ev in rt.start().expect("start") {
            if let AppEvent::Delivered(d) = ev {
                logs[i].push((d.seq.as_u64(), d.payload));
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut burst = 0u32;
    while logs.iter().any(|l| l.len() < total) && Instant::now() < deadline {
        // A burst of garbage at every socket, interleaved with real
        // protocol traffic.
        if burst < 40 {
            burst += 1;
            for t in &targets {
                garbage_tx.send_to(b"\xFF\xFE garbage burst \x00", t).ok();
                garbage_tx.send_to(&[0u8; 3], t).ok();
            }
        }
        for (i, rt) in ring.iter_mut().enumerate() {
            for ev in rt.step().expect("step") {
                if let AppEvent::Delivered(d) = ev {
                    logs[i].push((d.seq.as_u64(), d.payload));
                }
            }
        }
    }

    assert_eq!(
        logs[0].len(),
        total,
        "node 0 delivered everything despite garbage ({mode:?})"
    );
    assert_eq!(logs[0], logs[1], "identical total order ({mode:?})");
    let seqs: Vec<u64> = logs[0].iter().map(|(s, _)| *s).collect();
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    assert_eq!(seqs, sorted, "delivery in sequence order ({mode:?})");
    // The garbage was actually seen and dropped (not silently wedged).
    let drops: u64 = ring
        .iter()
        .map(|rt| rt.transport().stats().decode_drops)
        .sum();
    assert!(drops > 0, "garbage datagrams were counted as decode drops");
}

#[test]
fn ordering_survives_garbage_default_mode() {
    ordering_survives_garbage(49400, DatapathMode::auto());
}

#[test]
fn ordering_survives_garbage_portable_mode() {
    ordering_survives_garbage(50700, DatapathMode::Portable);
}

#[cfg(target_os = "linux")]
#[test]
fn ordering_survives_garbage_batched_mode() {
    ordering_survives_garbage(52000, DatapathMode::Batched);
}
