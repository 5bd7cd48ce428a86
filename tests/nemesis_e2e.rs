//! End-to-end chaos tests: the deterministic nemesis harness driving
//! virtual rings through seeded fault plans, plus a live
//! multi-threaded daemon ring perturbed through [`ChaosTransport`]
//! controls.
//!
//! The virtual-clock runs are bit-reproducible: the same (plan, seed)
//! always produces the same trace digest, so a failing schedule can be
//! replayed exactly.

use std::time::{Duration, Instant};

use accelerated_ring::core::{
    Connectivity, FaultEvent, Participant, ParticipantId, ProtocolConfig, RingId, ServiceType,
};
use accelerated_ring::daemon::{spawn_daemon, ClientEvent};
use accelerated_ring::net::{
    nemesis::apply_connectivity, ChaosConfig, ChaosControl, ChaosTransport, LoopbackNet,
    NemesisPlan, NemesisRunner,
};
use bytes::Bytes;
use proptest::prelude::*;

/// The acceptance plan: message loss plus a crash plus a
/// partition/heal, on a five-node ring.
fn acceptance_plan() -> NemesisPlan {
    NemesisPlan::none()
        .crash(Duration::from_millis(25), 4)
        .partition(Duration::from_millis(60), vec![0, 0, 0, 1, 1])
        .heal(Duration::from_millis(300))
}

fn run_acceptance(seed: u64) -> accelerated_ring::net::NemesisOutcome {
    let mut r = NemesisRunner::new(
        5,
        ProtocolConfig::accelerated(),
        acceptance_plan(),
        0.05,
        seed,
    );
    for i in 0..5 {
        for k in 0..3 {
            r.submit(i, format!("h{i}-m{k}").as_bytes(), ServiceType::Agreed);
        }
    }
    // Post-heal probes from both sides of the partition: the traffic
    // that lets the separated components hear each other and merge.
    r.submit_at(
        Duration::from_millis(350),
        0,
        b"post-heal-0",
        ServiceType::Agreed,
    );
    r.submit_at(
        Duration::from_millis(350),
        3,
        b"post-heal-3",
        ServiceType::Agreed,
    );
    r.start();
    r.run(Duration::from_secs(30))
}

#[test]
fn five_node_ring_converges_under_seeded_chaos() {
    let out = run_acceptance(7);
    out.assert_clean();
    assert_eq!(out.survivors, vec![0, 1, 2, 3], "host 4 stays crashed");
    assert!(out.final_rings[4].is_none());
    let rings: Vec<_> = out.final_rings.iter().flatten().collect();
    assert!(
        rings.windows(2).all(|w| w[0] == w[1]),
        "survivors share one ring: {rings:?}"
    );
    assert!(out.dropped > 0, "the plan actually dropped messages");
    assert!(out.tokens_seen > 0);
}

#[test]
fn digests_bit_identical_across_repeats_for_three_seeds() {
    let seeds = [7u64, 21, 42];
    let mut digests = Vec::new();
    for &seed in &seeds {
        let a = run_acceptance(seed);
        let b = run_acceptance(seed);
        assert_eq!(
            a.digest, b.digest,
            "seed {seed}: repeat runs must be bit-identical"
        );
        a.assert_clean();
        digests.push(a.digest);
    }
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), seeds.len(), "seeds explore distinct runs");
}

#[test]
fn flight_recorders_dump_and_are_digest_stable() {
    // Every host's flight recorder captured protocol history (the
    // crashed host recorded events up to its crash), and identical
    // (plan, seed) runs leave bit-identical per-host event tails.
    let a = run_acceptance(7);
    let b = run_acceptance(7);
    assert_eq!(a.flight.len(), 5);
    for (host, fr) in a.flight.iter().enumerate() {
        assert!(fr.total() > 0, "host {host} recorded no events");
        assert!(!fr.dump().is_empty(), "host {host} dumped nothing");
        assert!(
            !fr.render().is_empty(),
            "host {host} renders an empty post-mortem"
        );
    }
    assert_eq!(
        a.flight_digests, b.flight_digests,
        "identical (plan, seed) must leave identical flight tails"
    );
    let c = run_acceptance(8);
    assert_ne!(
        a.flight_digests, c.flight_digests,
        "a different seed explores a different event history"
    );
}

#[test]
fn fault_plans_are_shared_between_sim_and_live() {
    // The simulator's `RingSimConfig::faults` is this same schedule
    // type: one fault model for both stacks. The plan drives a
    // nemesis run directly.
    let schedule = NemesisPlan::none()
        .crash(Duration::from_millis(2), 1)
        .partition(Duration::from_millis(5), vec![0, 1, 0])
        .heal(Duration::from_millis(9))
        .restart(Duration::from_millis(12), 1);
    assert_eq!(schedule.events().len(), 4);
    let mut r = NemesisRunner::new(3, ProtocolConfig::accelerated(), schedule, 0.0, 11);
    for i in 0..3 {
        r.submit(i, format!("pre-{i}").as_bytes(), ServiceType::Agreed);
    }
    r.submit_at(
        Duration::from_millis(14),
        0,
        b"post-restart",
        ServiceType::Agreed,
    );
    r.start();
    let out = r.run(Duration::from_secs(30));
    out.assert_clean();
    assert_eq!(out.survivors.len(), 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Membership convergence holds across the (seed, drop-prob,
    /// ring-size) space: after a partition heals and probe traffic
    /// flows, every survivor installs the same full-membership ring
    /// and the EVS checker stays clean.
    #[test]
    fn membership_converges_across_seeds_loss_and_sizes(
        n in 2usize..6,
        drop_prob in 0.0f64..0.10,
        seed in any::<u64>(),
    ) {
        // Split the ring roughly in half, then heal.
        let component_of: Vec<u8> = (0..n).map(|i| (i >= n / 2) as u8).collect();
        let plan = NemesisPlan::none()
            .partition(Duration::from_millis(30), component_of)
            .heal(Duration::from_millis(300));
        let mut r = NemesisRunner::new(
            n as u16,
            ProtocolConfig::accelerated(),
            plan,
            drop_prob,
            seed,
        );
        for i in 0..n {
            r.submit(i, format!("w{i}").as_bytes(), ServiceType::Agreed);
        }
        // Probes from both sides after the heal.
        r.submit_at(Duration::from_millis(350), 0, b"probe-a", ServiceType::Agreed);
        r.submit_at(Duration::from_millis(350), n - 1, b"probe-b", ServiceType::Agreed);
        r.start();
        let out = r.run(Duration::from_secs(60));
        prop_assert!(
            out.evs_violations.is_empty(),
            "EVS violations: {:#?}",
            out.evs_violations
        );
        prop_assert!(
            out.token_violations.is_empty(),
            "token violations: {:#?}",
            out.token_violations
        );
        prop_assert!(out.converged, "did not reconverge: {:?}", out.final_rings);
        let rings: Vec<_> = out.final_rings.iter().flatten().collect();
        prop_assert!(rings.windows(2).all(|w| w[0] == w[1]), "{rings:?}");
    }
}

// ---- live multi-threaded ring under chaos controls ------------------------

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

#[test]
fn live_daemon_ring_partitions_and_heals_under_chaos_controls() {
    // Three real daemon threads on chaos-wrapped loopback transports.
    // The nemesis here is wall-clock: a partition is injected through
    // the shared fault model (Connectivity + apply_connectivity), the
    // isolated side reconfigures away, and after the heal the ring
    // merges back and client traffic flows end-to-end.
    let net = LoopbackNet::new();
    let members: Vec<ParticipantId> = (0..3).map(ParticipantId::new).collect();
    let ring_id = RingId::new(members[0], 1);
    let mut controls: Vec<ChaosControl> = Vec::new();
    let daemons: Vec<_> = members
        .iter()
        .map(|&p| {
            let part = Participant::new(p, ProtocolConfig::accelerated(), ring_id, members.clone())
                .unwrap();
            let chaos = ChaosTransport::new(
                net.endpoint(p),
                ChaosConfig::quiet(p.as_u16() as u64 + 1).with_loss(0.01),
            )
            .with_peers(members.clone());
            controls.push(chaos.control());
            spawn_daemon(part, chaos)
        })
        .collect();

    let clients: Vec<_> = (0..3)
        .map(|i| daemons[i].connect(&format!("c{i}")).unwrap())
        .collect();
    for c in &clients {
        c.join("g").unwrap();
    }
    let mut seen = vec![0usize; 3];
    assert!(
        wait_for(
            || {
                for (i, c) in clients.iter().enumerate() {
                    for ev in c.drain() {
                        if let ClientEvent::Membership { members, .. } = ev {
                            seen[i] = members.len();
                        }
                    }
                }
                seen.iter().all(|&s| s == 3)
            },
            30
        ),
        "initial 3-member group, got {seen:?}"
    );

    // Partition: {0, 1} | {2}.
    let mut conn = Connectivity::full(3);
    conn.apply(&FaultEvent::Partition {
        component_of: vec![0, 0, 1],
    });
    apply_connectivity(&controls, &conn);
    let mut majority = usize::MAX;
    let mut minority = usize::MAX;
    assert!(
        wait_for(
            || {
                for (i, c) in clients.iter().enumerate() {
                    for ev in c.drain() {
                        if let ClientEvent::Membership { members, .. } = ev {
                            if i == 2 {
                                minority = members.len();
                            } else {
                                majority = members.len();
                            }
                        }
                    }
                }
                majority == 2 && minority == 1
            },
            30
        ),
        "partition observed by both sides (majority={majority}, minority={minority})"
    );

    // Heal, then probe from both sides so the components hear each
    // other and merge (tokens alone never cross ring boundaries).
    conn.apply(&FaultEvent::Heal);
    apply_connectivity(&controls, &conn);
    let mut seen = vec![0usize; 3];
    assert!(
        wait_for(
            || {
                let _ = clients[0].multicast(&["g"], ServiceType::Agreed, Bytes::from_static(b"a"));
                let _ = clients[2].multicast(&["g"], ServiceType::Agreed, Bytes::from_static(b"b"));
                for (i, c) in clients.iter().enumerate() {
                    for ev in c.drain() {
                        if let ClientEvent::Membership { members, .. } = ev {
                            seen[i] = members.len();
                        }
                    }
                }
                seen.iter().all(|&s| s == 3)
            },
            60
        ),
        "ring re-merges after heal, got {seen:?}"
    );

    // End-to-end traffic across the healed ring.
    clients[2]
        .multicast(&["g"], ServiceType::Agreed, Bytes::from_static(b"healed"))
        .unwrap();
    let mut got = false;
    assert!(
        wait_for(
            || {
                for ev in clients[0].drain() {
                    if let ClientEvent::Message { payload, .. } = ev {
                        if payload == Bytes::from_static(b"healed") {
                            got = true;
                        }
                    }
                }
                got
            },
            30
        ),
        "post-heal delivery"
    );

    drop(clients);
    for d in daemons {
        d.shutdown().expect("clean shutdown");
    }
}
