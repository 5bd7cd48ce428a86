//! Per-connection flow control: publish credits, delivery windows, and
//! the slow-consumer eviction policy.
//!
//! The state machine is pure (no sockets, no clocks) so every
//! transition is unit-testable:
//!
//! * **Publish credits** bound a client's unordered publishes. A
//!   publish consumes one credit; the credit returns (as a
//!   [`crate::wire::ServerFrame::CreditGrant`]) when the message
//!   reaches Agreed order at the daemon. Grants are *withheld* while
//!   the ring's send queue is above its high watermark, converting ring
//!   backpressure into client backpressure instead of unbounded daemon
//!   queues.
//! * **Delivery windows** bound unacked deliveries in flight to a
//!   consumer. Deliveries beyond the window buffer in a bounded pending
//!   queue; a consumer that stops acking eventually trips
//!   [`EvictReason::PendingOverflow`] and is cut loose, so one slow
//!   consumer cannot pin daemon memory or stall the rest.
//! * **The publish gate** ([`PublishGate`]) keeps a publisher's
//!   messages in publish order across ring shards by holding a publish
//!   at ingress until its predecessors on other shards are ordered.

use std::collections::VecDeque;

/// Flow-control tuning for one session (server side).
#[derive(Debug, Clone, Copy)]
pub struct FlowConfig {
    /// Initial (and maximum outstanding) publish credits.
    pub publish_credits: u32,
    /// Maximum unacked deliveries in flight to the consumer.
    pub delivery_window: u32,
    /// Maximum deliveries buffered beyond the window before the
    /// session is evicted.
    pub max_pending: usize,
    /// Maximum bytes buffered in the socket write buffer before the
    /// session is evicted.
    pub max_write_buffer: usize,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            publish_credits: 64,
            delivery_window: 256,
            max_pending: 1024,
            max_write_buffer: 1 << 20,
        }
    }
}

/// Why a session was evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictReason {
    /// The pending-delivery queue outgrew `max_pending` (consumer
    /// stopped acking).
    PendingOverflow,
    /// The socket write buffer outgrew `max_write_buffer` (consumer
    /// stopped reading).
    WriteBufferOverflow,
    /// The daemon dropped events bound for the session (its bounded
    /// event queue was full), so its deliveries have a gap and its
    /// publisher floor may never advance past a lost `Ordered`.
    EventsLost,
}

impl EvictReason {
    /// Human-readable reason sent in the Evicted frame.
    pub fn as_str(self) -> &'static str {
        match self {
            EvictReason::PendingOverflow => "slow consumer: delivery backlog limit exceeded",
            EvictReason::WriteBufferOverflow => "slow consumer: write buffer limit exceeded",
            EvictReason::EventsLost => "daemon event queue overflowed: session state lost",
        }
    }
}

/// A delivery waiting for window space, with the per-connection
/// sequence already assigned.
#[derive(Debug)]
pub struct Pending<T> {
    /// Per-connection delivery sequence.
    pub seq: u64,
    /// The deliverable (frame payload), opaque to the state machine.
    pub item: T,
}

/// One forwarded publish awaiting its Ordered acks. With a sharded
/// daemon a multi-group publish becomes one ordered message per shard
/// it touches, so the entry completes only when every copy has been
/// agreed (`copies_left` reaches zero).
#[derive(Debug)]
struct Inflight {
    /// Client-assigned publish id (echoed in the credit grant).
    id: u64,
    /// Per-publisher stamp assigned at submission (strictly
    /// increasing per session).
    stamp: u64,
    /// Shard copies still awaiting their Ordered ack.
    copies_left: u32,
}

/// Flow-control state for one session.
#[derive(Debug)]
pub struct FlowState<T> {
    cfg: FlowConfig,
    /// Remaining publish credits (server-authoritative).
    credits: u32,
    /// Publishes forwarded to the daemon(s), in submission (= stamp)
    /// order, awaiting their Ordered acks.
    inflight: VecDeque<Inflight>,
    /// Stamp assigned to the most recent publish (the starting stamp,
    /// 0 by default, when none yet).
    last_stamp: u64,
    /// Highest stamp `s` such that every publish stamped `<= s` has
    /// been fully agreed on every shard it touched — the publisher
    /// floor the [`PublishGate`] releases against.
    ordered_through: u64,
    /// Credits owed but withheld because the ring was backpressured
    /// when the ack arrived; flushed when pressure clears.
    deferred_grants: VecDeque<u64>,
    /// Next per-connection delivery sequence to assign.
    next_seq: u64,
    /// Highest delivery sequence sent to the socket.
    sent: u64,
    /// Highest delivery sequence the consumer acked.
    acked: u64,
    /// Deliveries waiting for window space.
    pending: VecDeque<Pending<T>>,
}

impl<T> FlowState<T> {
    /// Fresh state with full credits and an empty window.
    pub fn new(cfg: FlowConfig) -> FlowState<T> {
        FlowState {
            cfg,
            credits: cfg.publish_credits,
            inflight: VecDeque::new(),
            last_stamp: 0,
            ordered_through: 0,
            deferred_grants: VecDeque::new(),
            next_seq: 0,
            sent: 0,
            acked: 0,
            pending: VecDeque::new(),
        }
    }

    /// Fresh state whose first publish is stamped `after + 1`, with
    /// everything at or below `after` counted as ordered.
    pub fn stamping_after(cfg: FlowConfig, after: u64) -> FlowState<T> {
        FlowState {
            last_stamp: after,
            ordered_through: after,
            ..FlowState::new(cfg)
        }
    }

    /// Stamp of the most recent publish (the starting stamp when none).
    pub fn last_stamp(&self) -> u64 {
        self.last_stamp
    }

    /// Remaining publish credits.
    pub fn credits(&self) -> u32 {
        self.credits
    }

    /// Publishes forwarded to the daemon and not yet ordered.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Deliveries buffered beyond the window.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Tries to consume one publish credit for client-assigned `id`,
    /// expanded to `copies` per-shard ordered messages. On success the
    /// assigned per-publisher stamp is returned; the caller must send
    /// every copy carrying it.
    ///
    /// One publish costs one credit however many shards it fans out
    /// to — credits meter client publishes, not ring messages.
    pub fn try_consume_credit(&mut self, id: u64, copies: u32) -> Option<u64> {
        if self.credits == 0 {
            return None;
        }
        self.credits -= 1;
        self.last_stamp += 1;
        self.inflight.push_back(Inflight {
            id,
            stamp: self.last_stamp,
            copies_left: copies.max(1),
        });
        Some(self.last_stamp)
    }

    /// One shard copy of the publish stamped `stamp` reached Agreed
    /// order. With several shards the acks interleave arbitrarily, so
    /// completion is matched by stamp rather than assumed FIFO; the
    /// credit returns (and [`ordered_through`](Self::ordered_through)
    /// advances) only when the *contiguous prefix* of in-flight
    /// publishes is fully agreed, which keeps grants in submission
    /// order.
    ///
    /// Returns the ids to grant now; grants are deferred instead when
    /// `ring_congested` (the grant — and thus the client's next
    /// publish — waits until the ring send queue drains below its
    /// watermark). Unknown stamps (duplicates, pre-restart stragglers)
    /// are ignored.
    pub fn on_ordered(&mut self, stamp: u64, ring_congested: bool) -> Vec<u64> {
        if let Some(entry) = self.inflight.iter_mut().find(|e| e.stamp == stamp) {
            entry.copies_left = entry.copies_left.saturating_sub(1);
        }
        let mut granted = Vec::new();
        while self.inflight.front().is_some_and(|e| e.copies_left == 0) {
            let e = self.inflight.pop_front().expect("front checked");
            self.ordered_through = e.stamp;
            if ring_congested {
                self.deferred_grants.push_back(e.id);
            } else {
                self.credits += 1;
                granted.push(e.id);
            }
        }
        granted
    }

    /// The publisher floor: every publish stamped at or below this has
    /// been fully agreed on every shard it touched.
    pub fn ordered_through(&self) -> u64 {
        self.ordered_through
    }

    /// Releases grants deferred during a congestion episode. Call when
    /// the ring send queue is back under its watermark; returns the
    /// ids to grant (credits already re-added).
    pub fn flush_deferred(&mut self) -> Vec<u64> {
        let ids: Vec<u64> = self.deferred_grants.drain(..).collect();
        self.credits += ids.len() as u32;
        ids
    }

    /// Grants currently withheld by ring backpressure.
    pub fn deferred_len(&self) -> usize {
        self.deferred_grants.len()
    }

    /// Queues a delivery, assigning its per-connection sequence.
    ///
    /// # Errors
    ///
    /// Returns the eviction reason when the pending queue is full.
    pub fn queue_delivery(&mut self, item: T) -> Result<(), EvictReason> {
        if self.pending.len() >= self.cfg.max_pending {
            return Err(EvictReason::PendingOverflow);
        }
        self.next_seq += 1;
        self.pending.push_back(Pending {
            seq: self.next_seq,
            item,
        });
        Ok(())
    }

    /// Pops the next delivery that fits in the window (unacked in
    /// flight < `delivery_window`), marking it sent.
    pub fn next_sendable(&mut self) -> Option<Pending<T>> {
        if self.sent - self.acked >= u64::from(self.cfg.delivery_window) {
            return None;
        }
        let p = self.pending.pop_front()?;
        self.sent = p.seq;
        Some(p)
    }

    /// Consumer progress. Ignores regressions (acks are cumulative).
    pub fn on_ack(&mut self, through: u64) {
        // An ack beyond what was sent is a protocol violation from a
        // confused client; clamp rather than corrupting the window.
        self.acked = self.acked.max(through.min(self.sent));
    }

    /// Highest delivery sequence queued (sent or pending).
    pub fn queued_through(&self) -> u64 {
        self.next_seq
    }

    /// Highest delivery sequence sent to the socket.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Highest delivery sequence the consumer acked.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Checks the write buffer size against its limit.
    pub fn check_write_buffer(&self, buffered_bytes: usize) -> Result<(), EvictReason> {
        if buffered_bytes > self.cfg.max_write_buffer {
            return Err(EvictReason::WriteBufferOverflow);
        }
        Ok(())
    }
}

/// Ingress ordering for one session on a sharded daemon: which stamped
/// publishes may go to the rings now, and which wait.
///
/// Each ring orders only its own groups, so publish k on ring A and
/// publish k+1 on ring B have no relative order — unless k+1 reaches
/// no ring before k is ordered. The gate makes that so:
///
/// * a publish is forwarded at once when every earlier publish of the
///   session is *settled*, or when every unsettled one went to exactly
///   the same single shard (a ring keeps one publisher's submission
///   order, so same-shard runs pipeline);
/// * otherwise it waits here, behind every earlier gated publish, and
///   [`on_sweep`](Self::on_sweep) releases it.
///
/// Per-publisher FIFO across rings then holds at every local
/// subscriber without holding any delivery back. The daemon pushes
/// every local recipient's `Message` before the sender's `Ordered`, so
/// once the tier has seen `Ordered` for publish k, k's message is in
/// each local subscriber's shard queue. The tier's one thread then
/// drains every session once (a *sweep*) before it forwards k+1, so
/// k's message is out of every queue before k+1 can reach any. That
/// drain is what *settled* adds to *ordered*: a session's shard queues
/// are read one after another, so k+1 forwarded the moment `Ordered`
/// arrived could land in a queue read before the one still holding k.
/// Hence `on_sweep`, called after each sweep, releases against the
/// floor reported at the end of the *previous* one.
///
/// Everything held here already consumed a publish credit and a stamp,
/// so a gate never holds more than `publish_credits` publishes, and it
/// needs no timer: the `Ordered` event that advances the floor wakes
/// the tier.
#[derive(Debug)]
pub struct PublishGate<T> {
    /// Gated publishes in stamp order, with their one shard (`None`
    /// when they touch several).
    waiting: VecDeque<(u64, Option<usize>, T)>,
    /// Stamp of the newest forwarded publish.
    forwarded: u64,
    /// The one shard every forwarded, unsettled publish went to;
    /// `None` after a multi-shard publish.
    lane: Option<usize>,
    /// The floor reported at the end of the last sweep.
    seen: u64,
    /// Every publish stamped at or below this is settled.
    settled: u64,
}

impl<T> Default for PublishGate<T> {
    fn default() -> Self {
        PublishGate {
            waiting: VecDeque::new(),
            forwarded: 0,
            lane: None,
            seen: 0,
            settled: 0,
        }
    }
}

impl<T> PublishGate<T> {
    /// An open gate: nothing forwarded yet.
    pub fn new() -> PublishGate<T> {
        PublishGate::default()
    }

    /// Offers the publish stamped `stamp` (stamps increase per session)
    /// bound for the one shard `lane`, or for several when `None`.
    /// Returns it when it may be forwarded now; otherwise keeps it for
    /// [`on_sweep`](Self::on_sweep).
    pub fn admit(&mut self, stamp: u64, lane: Option<usize>, item: T) -> Option<T> {
        if self.waiting.is_empty() && self.open_to(lane) {
            self.forwarded = stamp;
            self.lane = lane;
            return Some(item);
        }
        self.waiting.push_back((stamp, lane, item));
        None
    }

    /// A sweep drained every session; the publisher's floor
    /// ([`FlowState::ordered_through`]) is now `ordered_through`.
    /// Returns the gated publishes to forward, in stamp order.
    pub fn on_sweep(&mut self, ordered_through: u64) -> Vec<T> {
        self.settled = self.seen;
        self.seen = ordered_through;
        let mut out = Vec::new();
        while let Some(&(stamp, lane, _)) = self.waiting.front() {
            if !self.open_to(lane) {
                break;
            }
            self.forwarded = stamp;
            self.lane = lane;
            out.push(self.waiting.pop_front().expect("front checked").2);
        }
        out
    }

    /// True when the next sweep will release a publish: the floor
    /// covers everything forwarded, and only the settling sweep is
    /// missing.
    pub fn ripe(&self) -> bool {
        !self.waiting.is_empty() && self.seen >= self.forwarded
    }

    /// Publishes waiting at the gate.
    pub fn len(&self) -> usize {
        self.waiting.len()
    }

    /// True when no publish waits.
    pub fn is_empty(&self) -> bool {
        self.waiting.is_empty()
    }

    fn open_to(&self, lane: Option<usize>) -> bool {
        self.settled >= self.forwarded || (lane.is_some() && lane == self.lane)
    }
}

/// What [`DedupWindow::offer`] says about a publish id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// Never seen: forward to the daemon normally.
    Fresh,
    /// Already forwarded, grant still pending: drop the duplicate —
    /// the grant (or rejection) for the first copy is on its way.
    InFlight,
    /// Already granted: the original `CreditGrant` was lost with the
    /// old connection. Re-send the grant without forwarding or
    /// consuming a credit.
    Granted,
}

/// Publish-id deduplication across reconnects.
///
/// A client that loses its connection after sending `Publish{id}` but
/// before seeing the matching `CreditGrant` must re-send the publish on
/// resume — but the first copy may already be ordered. The server
/// tracks recently seen publish ids per session so re-sent publishes
/// are idempotent: at most one copy of each id ever reaches the ring.
///
/// The window is bounded: once it holds `cap` ids, offering a fresh id
/// evicts the oldest *granted* entry. In-flight entries are never
/// evicted (they are separately bounded by publish credits), so the
/// window can transiently exceed `cap` by at most the credit limit.
#[derive(Debug)]
pub struct DedupWindow {
    cap: usize,
    /// id → granted? (false while the grant is still pending).
    states: std::collections::HashMap<u64, bool>,
    /// Eviction order, oldest first. In-flight ids rotate to the back
    /// when they block an eviction.
    order: VecDeque<u64>,
}

impl DedupWindow {
    /// A window remembering up to `cap` granted publish ids.
    pub fn new(cap: usize) -> DedupWindow {
        DedupWindow {
            cap: cap.max(1),
            states: std::collections::HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// Classifies `id`, recording it as in-flight when fresh.
    pub fn offer(&mut self, id: u64) -> Offer {
        match self.states.get(&id) {
            Some(true) => Offer::Granted,
            Some(false) => Offer::InFlight,
            None => {
                self.states.insert(id, false);
                self.order.push_back(id);
                if self.states.len() > self.cap {
                    self.evict_one_granted();
                }
                Offer::Fresh
            }
        }
    }

    /// Marks `id` granted (its credit came back). Unknown ids — evicted
    /// or never offered — are ignored.
    pub fn grant(&mut self, id: u64) {
        if let Some(state) = self.states.get_mut(&id) {
            *state = true;
        }
    }

    /// Forgets `id` entirely (the publish was rejected, so a re-sent
    /// copy should be re-attempted rather than treated as a duplicate).
    pub fn forget(&mut self, id: u64) {
        if self.states.remove(&id).is_some() {
            self.order.retain(|&x| x != id);
        }
    }

    /// Ids currently remembered.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    fn evict_one_granted(&mut self) {
        for _ in 0..self.order.len() {
            let id = self.order.pop_front().expect("len checked");
            if self.states.get(&id) == Some(&true) {
                self.states.remove(&id);
                return;
            }
            self.order.push_back(id);
        }
        // Everything is in-flight: keep them all (bounded by credits).
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FlowConfig {
        FlowConfig {
            publish_credits: 2,
            delivery_window: 3,
            max_pending: 5,
            max_write_buffer: 100,
        }
    }

    #[test]
    fn credits_deplete_and_replenish_in_fifo_order() {
        let mut fs: FlowState<()> = FlowState::new(cfg());
        assert_eq!(fs.try_consume_credit(10, 1), Some(1));
        assert_eq!(fs.try_consume_credit(11, 1), Some(2));
        assert_eq!(fs.try_consume_credit(12, 1), None);
        assert_eq!(fs.credits(), 0);
        // Acks come back oldest-first on a single ring.
        assert_eq!(fs.on_ordered(1, false), vec![10]);
        assert_eq!(fs.ordered_through(), 1);
        assert_eq!(fs.credits(), 1);
        assert_eq!(fs.try_consume_credit(12, 1), Some(3));
        assert_eq!(fs.on_ordered(2, false), vec![11]);
        assert_eq!(fs.on_ordered(3, false), vec![12]);
        assert_eq!(fs.on_ordered(99, false), Vec::<u64>::new());
        assert_eq!(fs.ordered_through(), 3);
        assert_eq!(fs.credits(), 2);
    }

    #[test]
    fn multi_shard_publishes_complete_by_stamp_not_arrival() {
        let mut fs: FlowState<()> = FlowState::new(cfg());
        let s1 = fs.try_consume_credit(10, 2).unwrap(); // spans two shards
        let s2 = fs.try_consume_credit(11, 1).unwrap();
        // The later publish agrees first: no grant, the prefix is
        // still incomplete.
        assert_eq!(fs.on_ordered(s2, false), Vec::<u64>::new());
        assert_eq!(fs.ordered_through(), 0);
        // First shard copy of the first publish: one copy remains.
        assert_eq!(fs.on_ordered(s1, false), Vec::<u64>::new());
        // Final copy completes the prefix: both grants, in submission
        // order, and the floor jumps over both stamps.
        assert_eq!(fs.on_ordered(s1, false), vec![10, 11]);
        assert_eq!(fs.ordered_through(), s2);
        assert_eq!(fs.credits(), 2);
    }

    #[test]
    fn congestion_defers_grants_until_flushed() {
        let mut fs: FlowState<()> = FlowState::new(cfg());
        fs.try_consume_credit(1, 1).unwrap();
        fs.try_consume_credit(2, 1).unwrap();
        assert!(fs.on_ordered(1, true).is_empty());
        assert!(fs.on_ordered(2, true).is_empty());
        assert_eq!(fs.credits(), 0, "no credits while the ring is congested");
        assert_eq!(fs.deferred_len(), 2);
        assert_eq!(
            fs.ordered_through(),
            2,
            "the publisher floor advances even while grants are deferred"
        );
        assert_eq!(fs.flush_deferred(), vec![1, 2]);
        assert_eq!(fs.credits(), 2);
        assert_eq!(fs.deferred_len(), 0);
    }

    #[test]
    fn window_gates_deliveries_until_acked() {
        let mut fs: FlowState<u32> = FlowState::new(cfg());
        for k in 0..5 {
            fs.queue_delivery(k).unwrap();
        }
        // Window of 3: exactly three pop.
        let sent: Vec<u64> = std::iter::from_fn(|| fs.next_sendable().map(|p| p.seq)).collect();
        assert_eq!(sent, vec![1, 2, 3]);
        assert_eq!(fs.pending_len(), 2);
        // Acking through 2 opens two more slots.
        fs.on_ack(2);
        let sent: Vec<u64> = std::iter::from_fn(|| fs.next_sendable().map(|p| p.seq)).collect();
        assert_eq!(sent, vec![4, 5]);
    }

    #[test]
    fn ack_regression_and_overrun_are_clamped() {
        let mut fs: FlowState<u32> = FlowState::new(cfg());
        for k in 0..3 {
            fs.queue_delivery(k).unwrap();
        }
        while fs.next_sendable().is_some() {}
        fs.on_ack(3);
        fs.on_ack(1); // regression: ignored
        fs.queue_delivery(9).unwrap();
        assert_eq!(fs.next_sendable().unwrap().seq, 4);
        fs.on_ack(1000); // beyond sent: clamped to sent
        fs.queue_delivery(10).unwrap();
        assert_eq!(fs.next_sendable().unwrap().seq, 5);
    }

    #[test]
    fn pending_overflow_evicts() {
        let mut fs: FlowState<u32> = FlowState::new(cfg());
        for k in 0..5 {
            fs.queue_delivery(k).unwrap();
        }
        assert_eq!(
            fs.queue_delivery(99).unwrap_err(),
            EvictReason::PendingOverflow
        );
    }

    #[test]
    fn write_buffer_overflow_evicts() {
        let fs: FlowState<u32> = FlowState::new(cfg());
        assert!(fs.check_write_buffer(100).is_ok());
        assert_eq!(
            fs.check_write_buffer(101).unwrap_err(),
            EvictReason::WriteBufferOverflow
        );
    }

    #[test]
    fn gate_pipelines_same_shard_publishes() {
        let mut gate = PublishGate::new();
        for stamp in 1..=5 {
            assert_eq!(
                gate.admit(stamp, Some(1), stamp),
                Some(stamp),
                "nothing ordered yet"
            );
        }
        assert!(gate.is_empty());
    }

    #[test]
    fn gate_holds_a_shard_switch_until_earlier_stamps_settle() {
        let mut gate = PublishGate::new();
        assert_eq!(gate.admit(1, Some(0), "a1"), Some("a1"));
        assert_eq!(gate.admit(2, Some(1), "b2"), None, "shard switch");
        assert_eq!(gate.admit(3, Some(1), "b3"), None, "queues behind b2");
        assert!(gate.on_sweep(0).is_empty());
        // The floor covers stamp 1, but a local subscriber may not
        // have drained a1 yet: one more sweep settles it.
        assert!(gate.on_sweep(1).is_empty());
        assert!(gate.ripe());
        assert_eq!(
            gate.on_sweep(1),
            vec!["b2", "b3"],
            "same-shard run pipelines"
        );
        assert!(!gate.ripe());
        // Back to shard 0: waits for both b's.
        assert_eq!(gate.admit(4, Some(0), "a4"), None);
        assert!(gate.on_sweep(2).is_empty());
        assert!(gate.on_sweep(3).is_empty(), "stamp 3 not settled");
        assert_eq!(gate.on_sweep(3), vec!["a4"]);
    }

    #[test]
    fn gate_holds_multi_shard_publishes_and_what_follows() {
        let mut gate = PublishGate::new();
        assert_eq!(gate.admit(1, None, "ab1"), Some("ab1"), "nothing earlier");
        assert_eq!(gate.admit(2, Some(0), "a2"), None, "behind every ab1 copy");
        gate.on_sweep(1);
        assert_eq!(gate.on_sweep(1), vec!["a2"]);
        assert_eq!(gate.admit(3, None, "ab3"), None, "a2 unsettled");
        assert_eq!(gate.admit(4, Some(0), "a4"), None);
        gate.on_sweep(2);
        assert_eq!(gate.on_sweep(2), vec!["ab3"], "a4 waits for ab3's copies");
        gate.on_sweep(3);
        assert_eq!(gate.on_sweep(3), vec!["a4"]);
        assert!(gate.is_empty());
    }

    #[test]
    fn stamps_and_the_floor_start_above_the_base() {
        let mut fs: FlowState<()> = FlowState::stamping_after(FlowConfig::default(), 40);
        assert_eq!((fs.last_stamp(), fs.ordered_through()), (40, 40));
        assert_eq!(fs.try_consume_credit(7, 1), Some(41));
        assert_eq!(fs.ordered_through(), 40, "41 in flight");
        assert_eq!(fs.on_ordered(41, false), vec![7]);
        assert_eq!((fs.last_stamp(), fs.ordered_through()), (41, 41));
    }

    #[test]
    fn dedup_classifies_fresh_inflight_granted() {
        let mut w = DedupWindow::new(8);
        assert_eq!(w.offer(1), Offer::Fresh);
        assert_eq!(w.offer(1), Offer::InFlight, "resend before the grant");
        w.grant(1);
        assert_eq!(w.offer(1), Offer::Granted, "resend after the grant");
        assert_eq!(w.offer(2), Offer::Fresh);
    }

    #[test]
    fn dedup_forget_reopens_rejected_ids() {
        let mut w = DedupWindow::new(8);
        assert_eq!(w.offer(5), Offer::Fresh);
        w.forget(5);
        assert_eq!(w.offer(5), Offer::Fresh, "rejected publish retries");
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn dedup_evicts_oldest_granted_not_inflight() {
        let mut w = DedupWindow::new(3);
        for id in 1..=3 {
            assert_eq!(w.offer(id), Offer::Fresh);
        }
        w.grant(1);
        w.grant(3);
        // Window full: a fresh id evicts the *oldest granted* (1),
        // skipping the still-in-flight 2.
        assert_eq!(w.offer(4), Offer::Fresh);
        assert_eq!(w.len(), 3);
        assert_eq!(w.offer(2), Offer::InFlight, "in-flight survived");
        assert_eq!(w.offer(3), Offer::Granted, "younger grant survived");
        assert_eq!(w.offer(1), Offer::Fresh, "oldest grant was evicted");
    }

    #[test]
    fn dedup_tolerates_all_inflight_overflow() {
        let mut w = DedupWindow::new(2);
        for id in 1..=5 {
            assert_eq!(w.offer(id), Offer::Fresh);
        }
        // Nothing granted, nothing evictable: all five retained.
        assert_eq!(w.len(), 5);
        for id in 1..=5 {
            assert_eq!(w.offer(id), Offer::InFlight);
        }
    }
}
