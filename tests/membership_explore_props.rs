//! Property tests over randomized membership episodes, driven through
//! the nemesis replay [`World`] the explorer uses.
//!
//! Each case runs one complete episode — a silent fail or a network
//! partition (plus heal) injected into a stable ring, with a seeded
//! scheduler choosing the interleaving — and checks the two ring-id
//! properties the membership model promises:
//!
//! * **freshness across episodes** — a surviving component's final
//!   ring id carries a ring seq strictly greater than every ring seq
//!   observed anywhere before the episode (reverting the ring-seq burn
//!   or the commit freshness guard breaks this);
//! * **component uniqueness** — no two components of a partition ever
//!   install the same ring id (their representatives differ, and a
//!   shared id would merge two independent total orders).
//!
//! The EVS delivery checker runs inside the world throughout, so every
//! case also asserts the episode stayed free of delivery violations.

use accelerated_ring::core::{Mode, ParticipantId, RingId, SplitMix64, TimerKind};
use accelerated_ring::net::replay::{Step, World};
use proptest::prelude::*;

/// Timer preference when a whole component's flight runs dry:
/// nothing is moving, so some proc-set member must be unreachable and
/// only the consensus timeout (declaring it failed) makes progress —
/// the always-armed join retransmit would starve it.
const DRY_PREFERENCE: [TimerKind; 4] = [
    TimerKind::ConsensusTimeout,
    TimerKind::CommitTimeout,
    TimerKind::TokenLoss,
    TimerKind::Join,
];

/// Seeded scheduler so each proptest case replays the same
/// interleaving for its seed.
struct Sched(SplitMix64);

impl Sched {
    fn pick(&mut self, n: usize) -> usize {
        self.0.below(n as u64) as usize
    }
}

fn live_hosts(world: &World) -> Vec<u16> {
    (0..world.hosts())
        .filter(|&h| !world.is_failed(h))
        .collect()
}

/// The first armed timer from `preference` on any host in `hosts`,
/// chosen by the scheduler among that kind's armed hosts.
fn armed_timer(
    world: &World,
    sched: &mut Sched,
    hosts: &[u16],
    preference: &[TimerKind],
) -> Option<Step> {
    let enabled = world.enabled();
    for &want in preference {
        let candidates: Vec<&Step> = enabled
            .iter()
            .filter(|s| matches!(s, Step::Timer { host, kind } if *kind == want && hosts.contains(host)))
            .collect();
        if !candidates.is_empty() {
            return Some(*candidates[sched.pick(candidates.len())]);
        }
    }
    None
}

fn apply(world: &mut World, step: &Step) {
    world
        .apply_step(step)
        .unwrap_or_else(|e| panic!("{}: {e}", step.describe()));
}

/// Drives the world until `done` holds or `cap` steps pass. Per
/// iteration:
///
/// 1. a partition component whose in-flight traffic has run dry fires
///    a timer (consensus timeout first — nothing else restarts a dead
///    component). Timers never fire while the component still has
///    traffic moving: in a real deployment the membership timeouts are
///    orders of magnitude longer than message delivery, so every host
///    sees every join before any clock expires. Firing them mid-gather
///    aborts commits that are still in progress, and the ring-seq burn
///    then ratchets joins/commits into an endless abort-regather
///    cascade. Any genuine stall (a host stuck in Commit eats the
///    circulating token as foreign traffic, a dead component has
///    nothing in flight at all) drains the component's flight, so the
///    dry check is reached exactly when a timer is really needed;
/// 2. otherwise an in-flight message is delivered — the scheduler's
///    choice when `fair` is false, the oldest when `fair` is true
///    (FIFO never starves a message, which multi-ring merges need).
fn drive(
    world: &mut World,
    sched: &mut Sched,
    cap: usize,
    fair: bool,
    done: impl Fn(&World) -> bool,
) {
    for _ in 0..cap {
        if done(world) {
            return;
        }
        let live = live_hosts(world);
        let mut components: Vec<u8> = live.iter().map(|&h| world.component_of(h)).collect();
        components.sort_unstable();
        components.dedup();
        let mut fired = None;
        for c in components {
            let members: Vec<u16> = live
                .iter()
                .copied()
                .filter(|&h| world.component_of(h) == c)
                .collect();
            let dry = !world
                .inflight()
                .iter()
                .any(|m| members.contains(&m.from) || members.contains(&m.to));
            if dry {
                if let Some(t) = armed_timer(world, sched, &members, &DRY_PREFERENCE) {
                    fired = Some(t);
                    break;
                }
            }
        }
        if let Some(t) = fired {
            apply(world, &t);
            continue;
        }
        let flight = world.inflight();
        if flight.is_empty() {
            break;
        }
        let ix = if fair { 0 } else { sched.pick(flight.len()) };
        let id = flight[ix].id;
        apply(world, &Step::Deliver { msg: id });
    }
    if done(world) {
        return;
    }
    let state: Vec<String> = (0..world.hosts())
        .map(|h| {
            let p = world.participant(h);
            format!(
                "P{h}: failed={} {:?} {:?} members {:?}",
                world.is_failed(h),
                p.mode(),
                p.ring().id(),
                p.ring().members()
            )
        })
        .collect();
    panic!(
        "episode did not converge within {cap} steps:\n{}",
        state.join("\n")
    );
}

/// True when every host in `members` shares one ring whose member list
/// is exactly `members` (as participant ids, sorted).
fn component_stable(world: &World, members: &[u16]) -> bool {
    let want: Vec<ParticipantId> = members.iter().map(|&h| ParticipantId::new(h)).collect();
    let first = world.participant(members[0]).ring().id();
    members.iter().all(|&h| {
        let r = world.participant(h).ring();
        r.id() == first && r.members() == want.as_slice()
    })
}

/// [`component_stable`] plus quiescence: every member is back in
/// normal operation and no membership traffic (joins, commit tokens)
/// touching the component is still in flight. An episode only *ends*
/// when this holds — merging two components while one is still
/// mid-gather leaves split-era fail-set gossip in flight, and that
/// gossip re-contaminates every subsequent gather (the sender keeps
/// the other side in its fail set, so their joins can never merge).
fn component_settled(world: &World, members: &[u16]) -> bool {
    component_stable(world, members)
        && members
            .iter()
            .all(|&h| world.participant(h).mode() == Mode::Operational)
        && !world.inflight().iter().any(|m| {
            matches!(
                m.msg,
                accelerated_ring::core::Message::Join(_)
                    | accelerated_ring::core::Message::Commit(_)
            ) && (members.contains(&m.from) || members.contains(&m.to))
        })
}

/// Ring seqs installed anywhere right now, for the freshness bound.
fn installed_seqs(world: &World, hosts: &[u16]) -> Vec<u64> {
    hosts
        .iter()
        .map(|&h| world.participant(h).ring().id().ring_seq())
        .collect()
}

/// Random token deliveries that keep the ring stable but move the
/// episode's starting point around.
fn warmup(world: &mut World, sched: &mut Sched, steps: usize) {
    for _ in 0..steps {
        let flight = world.inflight();
        if flight.is_empty() {
            break;
        }
        let id = flight[sched.pick(flight.len())].id;
        apply(world, &Step::Deliver { msg: id });
    }
}

/// The canonical two-component partition masks for `hosts` (host 0's
/// bit clear, at least one bit set), mirroring `World::enabled`.
fn partition_masks(hosts: u16) -> Vec<u8> {
    (1u16..(1 << hosts))
        .filter(|m| m & 1 == 0)
        .map(|m| m as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After one host silently fails, the surviving component re-forms
    /// on a ring whose seq strictly exceeds every pre-episode ring seq.
    #[test]
    fn surviving_component_ring_exceeds_every_pre_episode_ring(
        hosts in 2u16..5,
        victim_pick in 0u64..1024,
        seed in any::<u64>(),
        warm in 0usize..16,
    ) {
        let mut sched = Sched(SplitMix64::new(seed));
        let mut w = World::new(hosts, "accelerated", &[]).unwrap();
        warmup(&mut w, &mut sched, warm);
        let all: Vec<u16> = (0..hosts).collect();
        let pre = installed_seqs(&w, &all);
        let victim = (victim_pick % hosts as u64) as u16;
        apply(&mut w, &Step::Fail { host: victim });
        let survivors: Vec<u16> = all.into_iter().filter(|&h| h != victim).collect();
        let done = {
            let survivors = survivors.clone();
            move |w: &World| component_settled(w, &survivors)
        };
        drive(&mut w, &mut sched, 800, false, done);
        let final_id = w.participant(survivors[0]).ring().id();
        for &s in &pre {
            prop_assert!(
                final_id.ring_seq() > s,
                "survivors installed {:?}, not strictly beyond pre-episode seq {}",
                final_id, s
            );
        }
        prop_assert!(w.violations().is_empty(), "EVS violations: {:?}", w.violations());
    }

    /// Across a partition and heal: the two components never install
    /// the same ring id while split, and the healed ring's seq strictly
    /// exceeds everything either component installed.
    #[test]
    fn partitioned_components_install_distinct_rings(
        hosts in 2u16..5,
        mask_pick in 0u64..1024,
        seed in any::<u64>(),
        warm in 0usize..16,
    ) {
        let mut sched = Sched(SplitMix64::new(seed));
        let mut w = World::new(hosts, "accelerated", &[]).unwrap();
        warmup(&mut w, &mut sched, warm);
        let all: Vec<u16> = (0..hosts).collect();
        let pre = installed_seqs(&w, &all);
        let masks = partition_masks(hosts);
        let mask = masks[(mask_pick % masks.len() as u64) as usize];
        apply(&mut w, &Step::Partition { mask });
        let side_a: Vec<u16> = all.iter().copied().filter(|h| mask >> h & 1 == 0).collect();
        let side_b: Vec<u16> = all.iter().copied().filter(|h| mask >> h & 1 == 1).collect();
        let done = {
            let (a, b) = (side_a.clone(), side_b.clone());
            move |w: &World| component_settled(w, &a) && component_settled(w, &b)
        };
        drive(&mut w, &mut sched, 800, false, done);
        let ring_a = w.participant(side_a[0]).ring().id();
        let ring_b = w.participant(side_b[0]).ring().id();
        prop_assert_ne!(
            ring_a, ring_b,
            "both components installed the same ring id"
        );
        for (id, side) in [(ring_a, "majority"), (ring_b, "minority")] {
            for &s in &pre {
                prop_assert!(
                    id.ring_seq() > s,
                    "{} component installed {:?}, not strictly beyond pre-episode seq {}",
                    side, id, s
                );
            }
        }
        // Heal. A token-loss timer on one side starts the merge gather;
        // its joins pull the other component in.
        let split_seqs: Vec<u64> = installed_seqs(&w, &all);
        apply(&mut w, &Step::Merge);
        let enabled = w.enabled();
        let kicks: Vec<&Step> = enabled
            .iter()
            .filter(|s| matches!(s, Step::Timer { kind: TimerKind::TokenLoss, .. }))
            .collect();
        prop_assert!(!kicks.is_empty(), "no token-loss timer armed after merge");
        let kick = *kicks[sched.pick(kicks.len())];
        apply(&mut w, &kick);
        let done = {
            let all = all.clone();
            move |w: &World| component_settled(w, &all)
        };
        drive(&mut w, &mut sched, 1200, true, done);
        let healed: RingId = w.participant(0).ring().id();
        for &s in &split_seqs {
            prop_assert!(
                healed.ring_seq() > s,
                "healed ring {:?} does not strictly exceed split-era seq {}",
                healed, s
            );
        }
        prop_assert!(w.violations().is_empty(), "EVS violations: {:?}", w.violations());
    }
}
