//! Property tests for the service tier's flow-control state machine
//! ([`FlowState`]), its publish gate ([`PublishGate`]) and the frame
//! extractor's lazy compaction.
//!
//! The credit machine guards daemon memory against misbehaving
//! clients, so the properties are adversarial: acks that overrun or
//! regress, congestion flags that flip between every ack, and flushes
//! at arbitrary points must never mint or leak a credit. The FrameBuf
//! property is the classic streaming invariant — how the byte stream
//! is split across reads can never change which frames come out.

use std::collections::{BTreeMap, HashMap, VecDeque};

use accelerated_ring::svc::wire::{frame, FrameBuf};
use accelerated_ring::svc::{DedupWindow, FlowConfig, FlowState, Offer, PublishGate};
use proptest::prelude::*;

fn small_cfg(credits: u32, window: u32) -> FlowConfig {
    FlowConfig {
        publish_credits: credits,
        delivery_window: window,
        max_pending: 64,
        max_write_buffer: 1 << 16,
    }
}

/// One step of an adversarial delivery-window schedule.
#[derive(Debug, Clone)]
enum WindowOp {
    /// Queue a delivery (ignore overflow; the property is about the
    /// window arithmetic, not the eviction policy).
    Queue,
    /// Drain every sendable delivery.
    Send,
    /// Ack through an arbitrary — possibly absurd — sequence.
    Ack(u64),
}

fn arb_window_ops() -> impl Strategy<Value = Vec<WindowOp>> {
    prop::collection::vec(
        prop_oneof![
            Just(WindowOp::Queue),
            Just(WindowOp::Send),
            // Mix plausible acks with wild overruns and regressions.
            (0u64..200).prop_map(WindowOp::Ack),
            any::<u64>().prop_map(WindowOp::Ack),
        ],
        0..120,
    )
}

/// One step of an adversarial credit schedule.
#[derive(Debug, Clone)]
enum CreditOp {
    /// Try to publish, fanning out to `copies` shard messages.
    Publish { copies: u32 },
    /// Ack the oldest incomplete in-flight stamp once, under the given
    /// congestion flag.
    AckOldest { congested: bool },
    /// Ack a stamp that was never issued (restart straggler).
    AckBogus { stamp: u64, congested: bool },
    /// Congestion cleared: release deferred grants.
    Flush,
}

fn arb_credit_ops() -> impl Strategy<Value = Vec<CreditOp>> {
    prop::collection::vec(
        prop_oneof![
            (1u32..4).prop_map(|copies| CreditOp::Publish { copies }),
            any::<bool>().prop_map(|congested| CreditOp::AckOldest { congested }),
            (1000u64..2000, any::<bool>())
                .prop_map(|(stamp, congested)| CreditOp::AckBogus { stamp, congested }),
            Just(CreditOp::Flush),
        ],
        0..200,
    )
}

/// One step of a publish-gate schedule over three ring shards.
#[derive(Debug, Clone)]
enum GateOp {
    /// Publish to the shards in a non-empty bitmask.
    Publish(u8),
    /// The ring of this shard orders its oldest forwarded copy.
    Order(usize),
    /// A sweep of every session ends.
    Sweep,
}

fn arb_gate_ops() -> impl Strategy<Value = Vec<GateOp>> {
    prop::collection::vec(
        prop_oneof![
            (1u8..8).prop_map(GateOp::Publish),
            (0usize..3).prop_map(GateOp::Order),
            Just(GateOp::Sweep),
        ],
        0..200,
    )
}

/// The rings as the gate's session sees them.
#[derive(Default)]
struct Rings {
    /// Per shard, forwarded copies not yet ordered, oldest first.
    queues: [VecDeque<u64>; 3],
    /// Forwarded publishes with copies still unordered: stamp →
    /// (shards, copies left).
    unordered: BTreeMap<u64, (Vec<usize>, usize)>,
    last_forwarded: u64,
}

impl Rings {
    /// Forwards what the gate let through, checking the gate's
    /// promise first.
    fn forward(&mut self, released: Vec<(u64, Vec<usize>)>) {
        for (stamp, shards) in released {
            prop_assert!(
                stamp > self.last_forwarded,
                "stamp {} forwarded after {}",
                stamp,
                self.last_forwarded
            );
            self.last_forwarded = stamp;
            for (earlier, (on, _)) in &self.unordered {
                prop_assert!(
                    shards.len() == 1 && *on == shards,
                    "stamp {} to {:?} while stamp {} on {:?} is unordered",
                    stamp,
                    shards,
                    earlier,
                    on
                );
            }
            for &s in &shards {
                self.queues[s].push_back(stamp);
            }
            self.unordered.insert(stamp, (shards.clone(), shards.len()));
        }
    }

    /// Shard `s` orders its oldest copy; returns its stamp.
    fn order(&mut self, s: usize) -> Option<u64> {
        let stamp = self.queues[s].pop_front()?;
        let left = &mut self.unordered.get_mut(&stamp).expect("forwarded").1;
        *left -= 1;
        if *left == 0 {
            self.unordered.remove(&stamp);
        }
        Some(stamp)
    }
}

proptest! {
    /// The publish gate under random shard sets and random ack
    /// interleavings across shards: forwarded stamps strictly increase,
    /// no publish reaches a shard while an earlier publish that touched
    /// any other shard is unordered, the gate never holds more than the
    /// session's credits, and once the rings catch up every gated
    /// publish goes out.
    #[test]
    fn gate_never_forwards_past_an_unordered_shard(
        credits in 1u32..6,
        ops in arb_gate_ops(),
    ) {
        let mut fs: FlowState<()> = FlowState::new(small_cfg(credits, 4));
        let mut gate: PublishGate<(u64, Vec<usize>)> = PublishGate::new();
        let mut rings = Rings::default();
        let mut next_id = 0u64;
        for op in ops {
            match op {
                GateOp::Publish(mask) => {
                    let shards: Vec<usize> = (0..3).filter(|s| mask & (1 << s) != 0).collect();
                    if let Some(stamp) = fs.try_consume_credit(next_id, shards.len() as u32) {
                        next_id += 1;
                        let lane = match shards[..] {
                            [s] => Some(s),
                            _ => None,
                        };
                        let now = gate.admit(stamp, lane, (stamp, shards.clone()));
                        rings.forward(now.into_iter().collect());
                    }
                }
                GateOp::Order(s) => {
                    if let Some(stamp) = rings.order(s) {
                        fs.on_ordered(stamp, false);
                    }
                }
                GateOp::Sweep => rings.forward(gate.on_sweep(fs.ordered_through())),
            }
            prop_assert!(gate.len() <= credits as usize, "gate holds {}", gate.len());
        }
        // The rings catch up: every gated publish is released within
        // two sweeps of its predecessors being ordered.
        for _ in 0..=2 * credits {
            for s in 0..3 {
                while let Some(stamp) = rings.order(s) {
                    fs.on_ordered(stamp, false);
                }
            }
            rings.forward(gate.on_sweep(fs.ordered_through()));
        }
        prop_assert!(gate.is_empty(), "{} publishes stuck at the gate", gate.len());
    }

    /// However the consumer lies in its acks — overruns beyond what
    /// was sent, regressions, repeats — the window arithmetic never
    /// underflows, never exceeds the configured window, and delivery
    /// sequences stay strictly increasing.
    #[test]
    fn ack_clamping_keeps_window_sound(
        window in 1u32..8,
        ops in arb_window_ops(),
    ) {
        let mut fs: FlowState<u32> = FlowState::new(small_cfg(4, window));
        let mut sent: u64 = 0;
        let mut acked_model: u64 = 0;
        let mut last_seq = 0u64;
        for op in ops {
            match op {
                WindowOp::Queue => {
                    let _ = fs.queue_delivery(0);
                }
                WindowOp::Send => {
                    while let Some(p) = fs.next_sendable() {
                        prop_assert!(p.seq > last_seq, "sequences strictly increase");
                        last_seq = p.seq;
                        sent = p.seq;
                        // The window bound holds at every send.
                        prop_assert!(sent - acked_model <= u64::from(window));
                    }
                }
                WindowOp::Ack(through) => {
                    fs.on_ack(through);
                    // Model: clamp to sent, ignore regressions.
                    acked_model = acked_model.max(through.min(sent));
                }
            }
        }
        // After an overrun-ack, exactly `window` fresh deliveries fit:
        // the clamp kept `acked <= sent` rather than banking phantom
        // window space.
        fs.on_ack(u64::MAX);
        for _ in 0..window {
            fs.queue_delivery(1).unwrap();
        }
        let mut fits = 0;
        while fs.next_sendable().is_some() {
            fits += 1;
        }
        prop_assert_eq!(fits, window);
    }

    /// Credit conservation under arbitrarily interleaved congestion
    /// episodes: at every step,
    /// `credits + inflight + deferred == publish_credits`, grants come
    /// back in submission order, and the publisher floor only moves
    /// forward. A final flush after draining the ring returns every
    /// credit — congestion defers grants, it never destroys them.
    #[test]
    fn interleaved_congestion_conserves_credits(
        budget in 1u32..6,
        ops in arb_credit_ops(),
    ) {
        let mut fs: FlowState<()> = FlowState::new(small_cfg(budget, 4));
        // (stamp, copies_left) not yet fully agreed, oldest first.
        let mut open: Vec<(u64, u32)> = Vec::new();
        let mut next_id = 0u64;
        let mut granted: Vec<u64> = Vec::new();
        let mut floor = 0u64;
        for op in ops {
            match op {
                CreditOp::Publish { copies } => {
                    let had = fs.credits();
                    match fs.try_consume_credit(next_id, copies) {
                        Some(stamp) => {
                            prop_assert!(had > 0);
                            open.push((stamp, copies));
                            next_id += 1;
                        }
                        None => prop_assert_eq!(had, 0),
                    }
                }
                CreditOp::AckOldest { congested } => {
                    if let Some((stamp, copies_left)) = open.first_mut() {
                        let stamp = *stamp;
                        *copies_left -= 1;
                        if *copies_left == 0 {
                            open.remove(0);
                        }
                        granted.extend(fs.on_ordered(stamp, congested));
                    }
                }
                CreditOp::AckBogus { stamp, congested } => {
                    // Stamps in 1000.. are never issued (< 200 ops), so
                    // this must be a no-op on the accounting.
                    let before = (fs.credits(), fs.inflight(), fs.deferred_len());
                    prop_assert!(fs.on_ordered(stamp, congested).is_empty());
                    prop_assert_eq!(
                        (fs.credits(), fs.inflight(), fs.deferred_len()),
                        before
                    );
                }
                CreditOp::Flush => {
                    granted.extend(fs.flush_deferred());
                    prop_assert_eq!(fs.deferred_len(), 0);
                }
            }
            // Conservation: every credit is exactly one of available,
            // riding an in-flight publish, or parked as a deferred
            // grant.
            prop_assert_eq!(
                fs.credits() + fs.inflight() as u32 + fs.deferred_len() as u32,
                budget
            );
            prop_assert!(fs.ordered_through() >= floor, "floor is monotone");
            floor = fs.ordered_through();
        }
        // Drain: agree everything still open, then flush.
        while let Some((stamp, copies)) = open.first().copied() {
            open.remove(0);
            for _ in 0..copies {
                granted.extend(fs.on_ordered(stamp, false));
            }
        }
        granted.extend(fs.flush_deferred());
        prop_assert_eq!(fs.credits(), budget, "all credits return after drain");
        prop_assert_eq!(fs.inflight(), 0);
        // Every issued id is granted exactly once. Global ordering is
        // deliberately NOT asserted: an ack landing after congestion
        // clears grants immediately and may overtake ids still parked
        // in the deferred queue — credits are fungible, so exactly-once
        // is the contract, not submission order.
        granted.sort_unstable();
        let expected: Vec<u64> = (0..next_id).collect();
        prop_assert_eq!(granted, expected);
    }

    /// FrameBuf invariance under read fragmentation: however the byte
    /// stream is split across `extend` calls — including mid-prefix
    /// splits that trigger the lazy compaction path — the extracted
    /// frame sequence is byte-identical to the frames that went in.
    #[test]
    fn framebuf_compaction_preserves_frame_stream(
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..96), 1..12),
        cuts in prop::collection::vec(any::<u16>(), 0..16),
    ) {
        let mut stream = Vec::new();
        for b in &bodies {
            stream.extend_from_slice(&frame(b));
        }
        // Arbitrary split points over the concatenated stream.
        let mut points: Vec<usize> =
            cuts.iter().map(|&c| c as usize % (stream.len() + 1)).collect();
        points.push(0);
        points.push(stream.len());
        points.sort_unstable();
        points.dedup();

        let mut fb = FrameBuf::new();
        let mut out: Vec<Vec<u8>> = Vec::new();
        for w in points.windows(2) {
            fb.extend(&stream[w[0]..w[1]]);
            // Interleave extraction with feeding so `head` advances
            // between extends and compaction actually fires.
            while let Some(f) = fb.next_frame().expect("well-formed stream") {
                out.push(f.to_vec());
            }
        }
        prop_assert_eq!(out, bodies);
        prop_assert!(fb.is_empty(), "no bytes left after the final frame");
    }

    /// The publish dedup window never lies in the dangerous direction.
    /// Against an arbitrary schedule of offers, grants, and forgets
    /// over a small id space (so collisions are common) and a small
    /// capacity (so eviction fires constantly):
    ///
    /// * an id the model knows is **in-flight** (offered, neither
    ///   granted nor forgotten) is always classified `InFlight` — a
    ///   re-sent publish whose outcome is still pending is *never*
    ///   double-forwarded, because eviction refuses to drop in-flight
    ///   entries;
    /// * an id the model has never seen (or has forgotten) is always
    ///   `Fresh` — the window never invents a duplicate;
    /// * a granted id is `Granted` or — only after capacity eviction —
    ///   `Fresh`, never `InFlight`;
    /// * the window holds at most `max(cap, peak in-flight)` entries —
    ///   in-flight ids are bounded by the session's publish credits,
    ///   so parked sessions cannot pin unbounded dedup state.
    ///   (Eviction runs at insert; a grant landing afterwards shrinks
    ///   the in-flight count without shrinking the window, so the
    ///   bound is against the peak, not the instant.)
    #[test]
    fn dedup_window_never_double_forwards_inflight_ids(
        cap in 1usize..8,
        ops in prop::collection::vec(
            (0u8..3, 0u64..24u64),
            0..200,
        ),
    ) {
        let mut w = DedupWindow::new(cap);
        // id → granted? mirror of what *must* still be protected.
        let mut model: HashMap<u64, bool> = HashMap::new();
        let mut peak_inflight = 0usize;
        for (kind, id) in ops {
            match kind {
                0 => {
                    let offer = w.offer(id);
                    match model.get(&id) {
                        Some(false) => {
                            prop_assert_eq!(
                                offer, Offer::InFlight,
                                "in-flight id {} must never re-forward", id
                            );
                        }
                        Some(true) => {
                            // Granted entries may be evicted under
                            // pressure; re-offering one is then Fresh
                            // (forwarded again — harmless, the ring
                            // orders it once more) but never InFlight.
                            match offer {
                                Offer::Granted => {}
                                Offer::Fresh => {
                                    model.insert(id, false);
                                }
                                Offer::InFlight => {
                                    prop_assert!(false, "granted id {} became in-flight", id);
                                }
                            }
                        }
                        None => {
                            prop_assert_eq!(
                                offer, Offer::Fresh,
                                "unseen id {} misclassified as a duplicate", id
                            );
                            model.insert(id, false);
                        }
                    }
                }
                1 => {
                    w.grant(id);
                    if let Some(g) = model.get_mut(&id) {
                        *g = true;
                    }
                }
                _ => {
                    w.forget(id);
                    model.remove(&id);
                }
            }
            let inflight = model.values().filter(|g| !**g).count();
            peak_inflight = peak_inflight.max(inflight);
            prop_assert!(
                w.len() <= cap.max(peak_inflight),
                "window holds {} entries (cap {}, peak {} in flight)",
                w.len(), cap, peak_inflight
            );
        }
    }

    /// Replaying the complete publish history of a resumed session —
    /// every id re-offered in order after all were granted — forwards
    /// nothing and re-grants everything still within the window's
    /// capacity: the lost-CreditGrant recovery path is idempotent.
    #[test]
    fn dedup_window_replay_after_grant_is_idempotent(
        cap in 1usize..32,
        n in 1u64..48,
    ) {
        let mut w = DedupWindow::new(cap);
        for id in 0..n {
            prop_assert_eq!(w.offer(id), Offer::Fresh);
            w.grant(id);
        }
        // The window keeps the newest `cap` granted ids; older ones
        // were evicted and would be forwarded (and re-ordered) again.
        for id in n.saturating_sub(cap as u64)..n {
            prop_assert_eq!(
                w.offer(id), Offer::Granted,
                "retained id {} must re-grant, not re-forward", id
            );
        }
    }
}
