//! Property-based tests of the ordering protocol's core guarantees
//! under randomized workloads, configurations, and message loss.
//!
//! The runs drive a [`World`] with a small lossy scheduler, and the
//! world's oracles judge every run: EVS ordering and agreement, the
//! token's `rtr` bound and the pre/post-token send split.

use accelerated_ring::core::{
    Delivery, PriorityMethod, ProtocolConfig, ProtocolVariant, ServiceType, TimerKind,
};
use accelerated_ring::net::replay::{Hooks, Inflight, Step, World};
use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the world reports to the scheduler: per-copy loss, decided as
/// each copy is sent, and the hosts' delivery logs.
struct Wire {
    rng: StdRng,
    loss: f64,
    logs: Vec<Vec<Delivery>>,
}

impl Hooks for Wire {
    fn send(&mut self, _msg: &Inflight) -> bool {
        !(self.loss > 0.0 && self.rng.gen::<f64>() < self.loss)
    }

    fn delivered(&mut self, host: u16, d: Delivery) {
        self.logs[host as usize].push(d);
    }
}

/// The membership timers an escalation fires, in order.
const MEMBERSHIP: [TimerKind; 5] = [
    TimerKind::TokenLoss,
    TimerKind::Join,
    TimerKind::ConsensusTimeout,
    TimerKind::CommitTimeout,
    TimerKind::ConsensusTimeout,
];

/// A FIFO, lossy scheduler over [`World`], deterministic per seed: the
/// oldest copy in flight arrives next, each copy is lost on the wire
/// with probability `loss`, and a silent network fires the armed
/// timers real timeouts would.
struct LossyRing {
    world: World,
    wire: Wire,
}

impl LossyRing {
    fn new(n: u16, cfg: ProtocolConfig, loss: f64, seed: u64) -> LossyRing {
        LossyRing {
            world: World::ring(n, cfg),
            wire: Wire {
                rng: StdRng::seed_from_u64(seed),
                loss,
                logs: vec![Vec::new(); n as usize],
            },
        }
    }

    /// A started ring whose hosts submitted `workload` (payloads `m0`,
    /// `m1`, …), with the number of messages submitted.
    fn loaded(
        n: u16,
        cfg: ProtocolConfig,
        loss: f64,
        seed: u64,
        workload: &[(usize, ServiceType)],
    ) -> (LossyRing, usize) {
        let mut net = LossyRing::new(n, cfg, loss, seed);
        for (count, (who, service)) in workload.iter().enumerate() {
            net.submit(who % n as usize, Bytes::from(format!("m{count}")), *service);
        }
        net.start();
        (net, workload.len())
    }

    fn submit(&mut self, i: usize, payload: Bytes, service: ServiceType) {
        self.world
            .submit(i as u16, payload, service)
            .expect("test queues are small");
    }

    fn start(&mut self) {
        self.world.start_with(&mut self.wire);
    }

    fn done(&self, expected: usize) -> bool {
        self.wire.logs.iter().all(|l| l.len() >= expected)
    }

    /// Delivers the oldest copy in flight until the network is idle or
    /// every host has delivered `expected` messages.
    fn run(&mut self, expected: usize) {
        for _ in 0..200_000 {
            let Some(msg) = self.world.inflight().first().map(|m| m.id) else {
                return;
            };
            if self.done(expected) {
                return;
            }
            self.world
                .apply_step_with(&Step::Deliver { msg }, &mut self.wire)
                .expect("in flight");
        }
    }

    /// Fires every armed timer of each kind in `kinds`, in host order,
    /// and runs the fallout after each kind.
    fn fire(&mut self, kinds: &[TimerKind], expected: usize) {
        for &kind in kinds {
            for step in self.world.enabled() {
                if matches!(step, Step::Timer { kind: k, .. } if k == kind) {
                    self.world.apply_step_with(&step, &mut self.wire).unwrap();
                }
            }
            self.run(expected);
        }
    }

    /// Drives the ring until every host has delivered `expected`
    /// messages or `rounds` escalations are spent. Returns true on
    /// completion. Escalation mirrors what real timers would do when
    /// the network falls silent: first token retransmissions, then
    /// (rarely) a full membership pass.
    fn drive_until_delivered(&mut self, expected: usize, rounds: usize) -> bool {
        for round in 0..rounds {
            self.run(expected);
            if self.done(expected) {
                return true;
            }
            if !self.world.inflight().is_empty() {
                continue;
            }
            self.fire(&[TimerKind::TokenRetransmit], expected);
            if !self.done(expected) && round % 8 == 7 && self.world.inflight().is_empty() {
                self.fire(&MEMBERSHIP, expected);
            }
        }
        self.done(expected)
    }

    /// Panics with every oracle violation, if any: increasing seq per
    /// ring, no duplicates, agreement on content, per-sender FIFO.
    fn assert_safety(&self) {
        let v = self.world.violations();
        assert!(v.is_empty(), "oracle violations: {v:#?}");
    }

    /// Asserts that all logs are exactly identical (usable when no
    /// membership change occurred).
    fn assert_identical_logs(&self) {
        let order = |l: &[Delivery]| {
            l.iter()
                .map(|d| (d.seq, d.payload.clone()))
                .collect::<Vec<_>>()
        };
        let first = order(&self.wire.logs[0]);
        for (i, log) in self.wire.logs.iter().enumerate() {
            assert_eq!(order(log), first, "P{i} diverged");
        }
    }
}

fn arb_config() -> impl Strategy<Value = ProtocolConfig> {
    (1u32..8, 0u32..6, prop::bool::ANY, prop::bool::ANY).prop_map(
        |(personal, accel, aggressive, original)| {
            let (variant, accel) = if original {
                (ProtocolVariant::Original, 0)
            } else {
                (ProtocolVariant::Accelerated, accel)
            };
            ProtocolConfig {
                variant,
                personal_window: personal,
                global_window: personal * 8,
                accelerated_window: accel,
                max_seq_gap: 64,
                priority_method: if aggressive {
                    PriorityMethod::Aggressive
                } else {
                    PriorityMethod::Conservative
                },
                ..ProtocolConfig::accelerated()
            }
        },
    )
}

/// A workload: which participant sends how many messages with which
/// service.
fn arb_workload(n: usize) -> impl Strategy<Value = Vec<(usize, ServiceType)>> {
    prop::collection::vec(
        (
            0..n,
            prop_oneof![Just(ServiceType::Agreed), Just(ServiceType::Safe)],
        ),
        0..30,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Without loss, every participant delivers every message, in the
    /// identical order, regardless of configuration or workload.
    #[test]
    fn lossless_runs_deliver_identically(
        n in 2u16..6,
        cfg in arb_config(),
        workload_seed in arb_workload(5),
        seed in any::<u64>(),
    ) {
        let (mut net, count) = LossyRing::loaded(n, cfg, 0.0, seed, &workload_seed);
        let ok = net.drive_until_delivered(count, 64);
        prop_assert!(ok, "did not converge: {:?}",
                     net.wire.logs.iter().map(Vec::len).collect::<Vec<_>>());
        net.assert_safety();
        net.assert_identical_logs();
        prop_assert_eq!(net.wire.logs[0].len(), count);
    }

    /// With loss, safety invariants always hold, and with the
    /// escalation budget the runs still converge to full delivery.
    #[test]
    fn lossy_runs_preserve_safety(
        n in 2u16..6,
        cfg in arb_config(),
        workload_seed in arb_workload(5),
        loss in 0.01f64..0.25,
        seed in any::<u64>(),
    ) {
        let (mut net, count) = LossyRing::loaded(n, cfg, loss, seed, &workload_seed);
        let converged = net.drive_until_delivered(count, 200);
        // Safety must hold whether or not we converged (membership
        // changes may have excluded members in pathological runs).
        net.assert_safety();
        if converged {
            // If everyone delivered everything, the logs must agree on
            // the shared ring prefix.
            for log in &net.wire.logs {
                prop_assert!(log.len() >= count);
            }
        }
    }

    /// Every token put on the wire respects the retransmission-request
    /// rule: an rtr entry never exceeds the seq carried by the previous
    /// token on that ring — a participant can only ask for
    /// retransmission of messages the ring has already sequenced. Runs
    /// cover both variants, all priority methods, and loss rates high
    /// enough to force real retransmission requests.
    #[test]
    fn rtr_requests_never_exceed_previous_token_seq(
        n in 2u16..6,
        cfg in arb_config(),
        workload_seed in arb_workload(5),
        loss in 0.0f64..0.35,
        seed in any::<u64>(),
    ) {
        let (mut net, count) = LossyRing::loaded(n, cfg, loss, seed, &workload_seed);
        let _ = net.drive_until_delivered(count, 100);
        prop_assert!(net.world.tokens_seen() > 0, "no tokens observed");
        let violations = net.world.oracle_report().token;
        prop_assert!(violations.is_empty(), "token rule violations: {violations:?}");
    }

    /// Delivery respects submission order per sender (FIFO), under any
    /// interleaving.
    #[test]
    fn fifo_per_sender(
        n in 2u16..5,
        per_sender in 1usize..8,
        seed in any::<u64>(),
    ) {
        let cfg = ProtocolConfig::accelerated().with_personal_window(3);
        let mut net = LossyRing::new(n, cfg, 0.0, seed);
        for i in 0..n as usize {
            for k in 0..per_sender {
                net.submit(i, Bytes::from(format!("p{i}-{k}")), ServiceType::Agreed);
            }
        }
        net.start();
        let total = n as usize * per_sender;
        prop_assert!(net.drive_until_delivered(total, 64));
        net.assert_safety();
        // Check the textual per-sender order explicitly.
        for log in &net.wire.logs {
            let mut next_k = vec![0usize; n as usize];
            for d in log {
                let text = String::from_utf8_lossy(&d.payload).into_owned();
                let (sender, k) = parse(&text);
                prop_assert_eq!(k, next_k[sender], "out of order: {}", text);
                next_k[sender] += 1;
            }
        }
        fn parse(text: &str) -> (usize, usize) {
            let rest = text.strip_prefix('p').unwrap();
            let (s, k) = rest.split_once('-').unwrap();
            (s.parse().unwrap(), k.parse().unwrap())
        }
    }

    /// Safe messages are never delivered before every participant has
    /// received them: in a lossless run, by the time any participant
    /// delivers a Safe message, every other participant has it buffered
    /// or delivered.
    #[test]
    fn safe_stability_invariant(
        n in 2u16..5,
        seed in any::<u64>(),
    ) {
        let cfg = ProtocolConfig::accelerated().with_personal_window(2);
        let mut net = LossyRing::new(n, cfg, 0.0, seed);
        net.submit(0, Bytes::from_static(b"safe-1"), ServiceType::Safe);
        net.submit(1 % n as usize, Bytes::from_static(b"safe-2"), ServiceType::Safe);
        net.start();
        prop_assert!(net.drive_until_delivered(2, 64));
        // After convergence every log contains both, in the same order.
        net.assert_identical_logs();
        net.assert_safety();
    }
}

#[test]
fn large_mixed_run_is_consistent() {
    // A fixed, heavier smoke test outside proptest: 6 participants,
    // 120 messages, mixed services, light loss.
    let cfg = ProtocolConfig::accelerated()
        .with_personal_window(5)
        .with_accelerated_window(3);
    let mut net = LossyRing::new(6, cfg, 0.02, 12345);
    let mut count = 0;
    for round in 0..20 {
        for i in 0..6 {
            let service = if (round + i) % 3 == 0 {
                ServiceType::Safe
            } else {
                ServiceType::Agreed
            };
            net.submit(i, Bytes::from(format!("r{round}-p{i}")), service);
            count += 1;
        }
    }
    net.start();
    assert!(
        net.drive_until_delivered(count, 300),
        "converged: {:?}",
        net.wire.logs.iter().map(Vec::len).collect::<Vec<_>>()
    );
    net.assert_safety();
    net.assert_identical_logs();
    assert_eq!(net.wire.logs[0].len(), count);
}
