//! A chaos-injecting transport wrapper: seeded, composable loss,
//! duplication, reordering, bounded delay, crashes, and one-way
//! partitions, applied to both the inbound and outbound paths.
//!
//! [`ChaosTransport`] wraps any [`Transport`] and perturbs traffic
//! according to a [`ChaosConfig`]. Static perturbations (loss, duplication,
//! reordering, delay) are rolled from a seeded RNG so a run is
//! reproducible given the seed; dynamic faults (crash, one-way blocks)
//! are flipped at runtime through the shared [`ChaosControl`] handle,
//! which is how the nemesis runner injects a [`ar_core::fault`] plan
//! into a live ring. Per-message-kind counters distinguish token
//! traffic from data and membership traffic, so a test can assert e.g.
//! "the partition dropped tokens" rather than staring at a single
//! aggregate number.
//!
//! ## Partition fidelity
//!
//! Unicast sends know their destination, so outbound one-way blocks
//! apply exactly. The [`Transport::multicast`] entry point is
//! destination-blind; when the peer set is declared via
//! [`ChaosTransport::with_peers`], an active outbound block decomposes
//! multicasts into per-peer unicasts so partitions filter them too.
//! Inbound blocks filter by the sender carried in the message (data,
//! join and hold-cancel messages); tokens and commit tokens carry no
//! sender, so token partitions must be expressed as outbound blocks on
//! the sending side — which is what [`crate::nemesis`] does when
//! translating a [`ar_core::fault::Connectivity`] matrix.

use std::collections::HashSet;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ar_core::{Message, ParticipantId};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::poll::WakeReceiver;
use crate::transport::Transport;

/// The four wire-message kinds chaos statistics are broken down by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// Regular ordering tokens (and hold cancels, which share their
    /// channel).
    Token,
    /// Multicast data messages.
    Data,
    /// Membership join messages.
    Join,
    /// Membership commit tokens.
    Commit,
}

impl MsgKind {
    /// Classifies a wire message.
    pub fn of(msg: &Message) -> MsgKind {
        match msg {
            Message::Token(_) | Message::HoldCancel { .. } => MsgKind::Token,
            Message::Data(_) => MsgKind::Data,
            Message::Join(_) => MsgKind::Join,
            Message::Commit(_) => MsgKind::Commit,
        }
    }

    fn index(self) -> usize {
        match self {
            MsgKind::Token => 0,
            MsgKind::Data => 1,
            MsgKind::Join => 2,
            MsgKind::Commit => 3,
        }
    }
}

/// Counters for one message kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Outbound messages passed through to the inner transport.
    pub sent: u64,
    /// Outbound messages dropped (loss roll, crash, or block).
    pub dropped: u64,
    /// Extra outbound copies injected by duplication.
    pub duplicated: u64,
    /// Outbound messages held back by delay or reordering.
    pub delayed: u64,
    /// Inbound messages surfaced to the caller.
    pub received: u64,
    /// Inbound messages dropped (loss roll, crash, or block).
    pub recv_dropped: u64,
}

/// Per-kind chaos counters, indexable by [`MsgKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    per_kind: [KindStats; 4],
}

impl ChaosStats {
    /// Counters for one message kind.
    pub fn kind(&self, kind: MsgKind) -> &KindStats {
        &self.per_kind[kind.index()]
    }

    fn kind_mut(&mut self, kind: MsgKind) -> &mut KindStats {
        &mut self.per_kind[kind.index()]
    }

    /// Total outbound messages dropped across kinds.
    pub fn total_dropped(&self) -> u64 {
        self.per_kind.iter().map(|k| k.dropped).sum()
    }

    /// Total outbound messages passed through across kinds.
    pub fn total_sent(&self) -> u64 {
        self.per_kind.iter().map(|k| k.sent).sum()
    }

    /// Total inbound messages dropped across kinds.
    pub fn total_recv_dropped(&self) -> u64 {
        self.per_kind.iter().map(|k| k.recv_dropped).sum()
    }

    /// Total inbound messages surfaced across kinds.
    pub fn total_received(&self) -> u64 {
        self.per_kind.iter().map(|k| k.received).sum()
    }
}

/// Static perturbation probabilities and the RNG seed.
///
/// All probabilities are per message copy. The default injects nothing.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Probability of dropping a copy, applied on both paths.
    pub drop_prob: f64,
    /// Probability of sending an outbound copy twice.
    pub dup_prob: f64,
    /// Probability of holding an outbound copy until the next send
    /// passes it (an adjacent-pair swap).
    pub reorder_prob: f64,
    /// Probability of delaying an outbound copy.
    pub delay_prob: f64,
    /// Upper bound on an injected delay (also bounds how long a
    /// reordered message can be held).
    pub max_delay: Duration,
    /// RNG seed; equal seeds give equal perturbation sequences.
    pub seed: u64,
}

impl ChaosConfig {
    /// A configuration that injects nothing (seeded for later rolls).
    pub fn quiet(seed: u64) -> ChaosConfig {
        ChaosConfig {
            drop_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            delay_prob: 0.0,
            max_delay: Duration::from_millis(2),
            seed,
        }
    }

    /// Sets the per-copy drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    #[must_use]
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "drop probability must be in [0, 1)"
        );
        self.drop_prob = p;
        self
    }

    /// Sets the duplication probability.
    #[must_use]
    pub fn with_duplication(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "dup probability must be in [0, 1)");
        self.dup_prob = p;
        self
    }

    /// Sets the reordering probability.
    #[must_use]
    pub fn with_reordering(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "reorder probability must be in [0, 1)"
        );
        self.reorder_prob = p;
        self
    }

    /// Sets the delay probability and the delay bound.
    #[must_use]
    pub fn with_delay(mut self, p: f64, max: Duration) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "delay probability must be in [0, 1)"
        );
        self.delay_prob = p;
        self.max_delay = max;
        self
    }
}

#[derive(Debug, Default)]
struct ControlState {
    crashed: bool,
    blocked_to: HashSet<ParticipantId>,
    blocked_from: HashSet<ParticipantId>,
    stats: ChaosStats,
}

/// Shared handle for flipping dynamic faults on a [`ChaosTransport`]
/// and reading its counters, safe to use from another thread while the
/// transport is in a running daemon.
#[derive(Debug, Clone, Default)]
pub struct ChaosControl {
    state: Arc<Mutex<ControlState>>,
}

impl ChaosControl {
    /// A control with no faults active.
    pub fn new() -> ChaosControl {
        ChaosControl::default()
    }

    /// Blackholes the endpoint: everything in and out is dropped.
    pub fn crash(&self) {
        self.state.lock().crashed = true;
    }

    /// Clears a [`crash`](ChaosControl::crash): traffic flows again.
    pub fn restart(&self) {
        self.state.lock().crashed = false;
    }

    /// True while the endpoint is blackholed.
    pub fn is_crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Blocks outbound traffic towards `pid` (one-way).
    pub fn block_to(&self, pid: ParticipantId) {
        self.state.lock().blocked_to.insert(pid);
    }

    /// Blocks inbound traffic from `pid` (one-way; sender-carrying
    /// messages only — see the module docs).
    pub fn block_from(&self, pid: ParticipantId) {
        self.state.lock().blocked_from.insert(pid);
    }

    /// Replaces the outbound block set wholesale.
    pub fn set_blocked_to(&self, pids: impl IntoIterator<Item = ParticipantId>) {
        let mut st = self.state.lock();
        st.blocked_to = pids.into_iter().collect();
    }

    /// Clears every block in both directions.
    pub fn heal(&self) {
        let mut st = self.state.lock();
        st.blocked_to.clear();
        st.blocked_from.clear();
    }

    /// A snapshot of the per-kind counters.
    pub fn stats(&self) -> ChaosStats {
        self.state.lock().stats
    }
}

/// Where an outbound message was headed, for the delay/reorder queues.
#[derive(Debug, Clone, Copy)]
enum Target {
    Unicast(ParticipantId),
    Multicast,
}

/// Transport wrapper that perturbs traffic according to a
/// [`ChaosConfig`] and a [`ChaosControl`].
#[derive(Debug)]
pub struct ChaosTransport<T: Transport> {
    inner: T,
    cfg: ChaosConfig,
    rng: StdRng,
    control: ChaosControl,
    /// Delayed outbound messages, flushed once their release time
    /// passes.
    delayed: Vec<(Instant, Target, Message)>,
    /// A message held back to swap with the next send.
    reorder_slot: Option<(Instant, Target, Message)>,
    peers: Option<Vec<ParticipantId>>,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner` with the given chaos configuration.
    pub fn new(inner: T, cfg: ChaosConfig) -> ChaosTransport<T> {
        ChaosTransport {
            inner,
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            control: ChaosControl::new(),
            delayed: Vec::new(),
            reorder_slot: None,
            peers: None,
        }
    }

    /// Declares the full peer set, enabling partition-aware multicast
    /// (decomposed into unicasts while an outbound block is active).
    #[must_use]
    pub fn with_peers(mut self, peers: Vec<ParticipantId>) -> Self {
        self.peers = Some(peers);
        self
    }

    /// The shared control handle (cloneable, thread-safe).
    pub fn control(&self) -> ChaosControl {
        self.control.clone()
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// A snapshot of the per-kind counters.
    pub fn stats(&self) -> ChaosStats {
        self.control.stats()
    }

    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen::<f64>() < p
    }

    /// Sends straight to the inner transport, bypassing further rolls.
    fn send_raw(&mut self, target: Target, msg: &Message) -> io::Result<()> {
        match target {
            Target::Unicast(to) => self.inner.send_to(to, msg),
            Target::Multicast => self.inner.multicast(msg),
        }
    }

    /// Releases every queued message whose time has come. Reordered
    /// messages past the delay bound are released too, so nothing is
    /// held forever.
    fn flush_due(&mut self) -> io::Result<()> {
        let now = Instant::now();
        let mut due = Vec::new();
        self.delayed.retain(|(release, target, msg)| {
            if *release <= now {
                due.push((*target, msg.clone()));
                false
            } else {
                true
            }
        });
        if let Some((held_at, target, msg)) = self.reorder_slot.take() {
            if held_at + self.cfg.max_delay <= now {
                due.push((target, msg));
            } else {
                self.reorder_slot = Some((held_at, target, msg));
            }
        }
        for (target, msg) in due {
            self.send_raw(target, &msg)?;
        }
        Ok(())
    }

    fn send_chaotic(&mut self, target: Target, msg: &Message) -> io::Result<()> {
        self.flush_due()?;
        let kind = MsgKind::of(msg);

        // Multicast under an active outbound block: decompose into
        // per-peer unicasts when the peer set is known.
        if matches!(target, Target::Multicast) {
            let has_blocks = !self.control.state.lock().blocked_to.is_empty();
            if let (true, Some(peers)) = (has_blocks, self.peers.clone()) {
                let me = self.inner.local_pid();
                for peer in peers {
                    if peer != me {
                        // Blocked peers are dropped (and counted) by the
                        // per-copy path's blocked_to check.
                        self.send_chaotic_copy(Target::Unicast(peer), msg, kind)?;
                    }
                }
                return Ok(());
            }
        }
        self.send_chaotic_copy(target, msg, kind)
    }

    fn send_chaotic_copy(
        &mut self,
        target: Target,
        msg: &Message,
        kind: MsgKind,
    ) -> io::Result<()> {
        {
            let mut st = self.control.state.lock();
            let blocked =
                st.crashed || matches!(target, Target::Unicast(to) if st.blocked_to.contains(&to));
            if blocked {
                st.stats.kind_mut(kind).dropped += 1;
                return Ok(());
            }
        }
        if self.roll(self.cfg.drop_prob) {
            self.control.state.lock().stats.kind_mut(kind).dropped += 1;
            return Ok(());
        }
        let duplicate = self.roll(self.cfg.dup_prob);
        let delay = self.roll(self.cfg.delay_prob);
        let reorder = !delay && self.roll(self.cfg.reorder_prob);

        if delay {
            let nanos = self
                .rng
                .gen_range(0..self.cfg.max_delay.as_nanos().max(1) as u64);
            let release = Instant::now() + Duration::from_nanos(nanos);
            self.delayed.push((release, target, msg.clone()));
            let mut st = self.control.state.lock();
            let k = st.stats.kind_mut(kind);
            k.delayed += 1;
            k.sent += 1;
        } else if reorder && self.reorder_slot.is_none() {
            self.reorder_slot = Some((Instant::now(), target, msg.clone()));
            let mut st = self.control.state.lock();
            let k = st.stats.kind_mut(kind);
            k.delayed += 1;
            k.sent += 1;
        } else {
            self.send_raw(target, msg)?;
            // The held-back message goes out *after* this one: the
            // adjacent pair is swapped.
            if let Some((_, held_target, held)) = self.reorder_slot.take() {
                self.send_raw(held_target, &held)?;
            }
            self.control.state.lock().stats.kind_mut(kind).sent += 1;
        }
        if duplicate {
            self.send_raw(target, msg)?;
            self.control.state.lock().stats.kind_mut(kind).duplicated += 1;
        }
        Ok(())
    }

    /// True if an inbound message should be dropped.
    fn drop_inbound(&mut self, msg: &Message) -> bool {
        let sender = match msg {
            Message::Data(d) => Some(d.pid),
            Message::Join(j) => Some(j.sender),
            Message::HoldCancel { pid, .. } => Some(*pid),
            Message::Token(_) | Message::Commit(_) => None,
        };
        {
            let st = self.control.state.lock();
            if st.crashed {
                return true;
            }
            if let Some(from) = sender {
                if st.blocked_from.contains(&from) {
                    return true;
                }
            }
        }
        self.roll(self.cfg.drop_prob)
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn local_pid(&self) -> ParticipantId {
        self.inner.local_pid()
    }

    fn send_to(&mut self, to: ParticipantId, msg: &Message) -> io::Result<()> {
        self.send_chaotic(Target::Unicast(to), msg)
    }

    fn multicast(&mut self, msg: &Message) -> io::Result<()> {
        self.send_chaotic(Target::Multicast, msg)
    }

    fn recv(&mut self, prefer_token: bool, timeout: Duration) -> io::Result<Option<Message>> {
        let deadline = Instant::now() + timeout;
        loop {
            self.flush_due()?;
            let remaining = deadline.saturating_duration_since(Instant::now());
            let msg = match self.inner.recv(prefer_token, remaining)? {
                Some(m) => m,
                None => return Ok(None),
            };
            let kind = MsgKind::of(&msg);
            if self.drop_inbound(&msg) {
                self.control.state.lock().stats.kind_mut(kind).recv_dropped += 1;
                if Instant::now() >= deadline {
                    return Ok(None);
                }
                continue;
            }
            self.control.state.lock().stats.kind_mut(kind).received += 1;
            return Ok(Some(msg));
        }
    }

    fn recv_batch(
        &mut self,
        prefer_token: bool,
        timeout: Duration,
        max: usize,
        out: &mut Vec<Message>,
    ) -> io::Result<usize> {
        if max == 0 {
            return Ok(0);
        }
        let deadline = Instant::now() + timeout;
        loop {
            self.flush_due()?;
            let remaining = deadline.saturating_duration_since(Instant::now());
            let mut batch = Vec::new();
            if self
                .inner
                .recv_batch(prefer_token, remaining, max, &mut batch)?
                == 0
            {
                return Ok(0);
            }
            // Inbound chaos applies per message: drops thin the batch
            // (and are counted) without discarding what survived.
            let mut appended = 0;
            for msg in batch {
                let kind = MsgKind::of(&msg);
                if self.drop_inbound(&msg) {
                    self.control.state.lock().stats.kind_mut(kind).recv_dropped += 1;
                } else {
                    self.control.state.lock().stats.kind_mut(kind).received += 1;
                    out.push(msg);
                    appended += 1;
                }
            }
            if appended > 0 || Instant::now() >= deadline {
                return Ok(appended);
            }
        }
    }

    fn begin_batch(&mut self) {
        self.inner.begin_batch();
    }

    fn end_batch(&mut self) -> io::Result<()> {
        self.inner.end_batch()
    }

    fn attach_wake(&mut self, wake: WakeReceiver) -> bool {
        self.inner.attach_wake(wake)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::LoopbackNet;
    use ar_core::{DataMessage, RingId, Round, Seq, ServiceType, Token};
    use bytes::Bytes;

    fn pid(v: u16) -> ParticipantId {
        ParticipantId::new(v)
    }

    fn token_msg() -> Message {
        Message::Token(Token::initial(RingId::default(), Seq::ZERO))
    }

    fn data_msg(from: u16) -> Message {
        Message::Data(DataMessage {
            ring_id: RingId::default(),
            seq: Seq::new(1),
            pid: pid(from),
            round: Round::new(1),
            service: ServiceType::Agreed,
            after_token: false,
            payload: Bytes::from_static(b"x"),
        })
    }

    fn drain(t: &mut impl Transport) -> usize {
        let mut got = 0;
        while t.recv(false, Duration::from_millis(2)).unwrap().is_some() {
            got += 1;
        }
        got
    }

    #[test]
    fn quiet_config_is_transparent() {
        let net = LoopbackNet::new();
        let mut a = ChaosTransport::new(net.endpoint(pid(0)), ChaosConfig::quiet(1));
        let mut b = net.endpoint(pid(1));
        for _ in 0..20 {
            a.send_to(pid(1), &token_msg()).unwrap();
        }
        let mut got = 0;
        while b.recv(true, Duration::from_millis(2)).unwrap().is_some() {
            got += 1;
        }
        assert_eq!(got, 20);
        assert_eq!(a.stats().kind(MsgKind::Token).sent, 20);
        assert_eq!(a.stats().total_dropped(), 0);
    }

    #[test]
    fn loss_applies_outbound_and_counts_per_kind() {
        let net = LoopbackNet::new();
        let mut a =
            ChaosTransport::new(net.endpoint(pid(0)), ChaosConfig::quiet(42).with_loss(0.5));
        for _ in 0..200 {
            a.send_to(pid(1), &token_msg()).unwrap();
            a.multicast(&data_msg(0)).unwrap();
        }
        let stats = a.stats();
        let tok = stats.kind(MsgKind::Token);
        let dat = stats.kind(MsgKind::Data);
        assert_eq!(tok.sent + tok.dropped, 200);
        assert_eq!(dat.sent + dat.dropped, 200);
        assert!(
            (60..140).contains(&tok.dropped),
            "token drops {}",
            tok.dropped
        );
        assert!(
            (60..140).contains(&dat.dropped),
            "data drops {}",
            dat.dropped
        );
        assert_eq!(stats.kind(MsgKind::Join).sent, 0);
    }

    #[test]
    fn loss_applies_inbound_too() {
        let net = LoopbackNet::new();
        let mut a = net.endpoint(pid(0));
        let mut b = ChaosTransport::new(net.endpoint(pid(1)), ChaosConfig::quiet(7).with_loss(0.5));
        for _ in 0..200 {
            a.send_to(pid(1), &data_msg(0)).unwrap();
        }
        let got = drain(&mut b);
        let stats = b.stats();
        assert_eq!(stats.kind(MsgKind::Data).received, got as u64);
        assert!(stats.kind(MsgKind::Data).recv_dropped > 0, "{stats:?}");
        assert_eq!(
            stats.kind(MsgKind::Data).received + stats.kind(MsgKind::Data).recv_dropped,
            200
        );
        // Inbound loss is the same per-copy roll as outbound: roughly
        // half, and the cross-kind totals agree with the per-kind view.
        assert!(
            (60..140).contains(&stats.total_recv_dropped()),
            "inbound drops {}",
            stats.total_recv_dropped()
        );
        assert_eq!(stats.total_received(), got as u64);
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn full_loss_rejected() {
        // A transport that drops everything can never make progress.
        let _ = ChaosConfig::quiet(1).with_loss(1.0);
    }

    #[test]
    fn duplication_injects_extra_copies() {
        let net = LoopbackNet::new();
        let mut a = ChaosTransport::new(
            net.endpoint(pid(0)),
            ChaosConfig::quiet(3).with_duplication(0.5),
        );
        let mut b = net.endpoint(pid(1));
        for _ in 0..100 {
            a.send_to(pid(1), &data_msg(0)).unwrap();
        }
        let got = drain(&mut b);
        let dup = a.stats().kind(MsgKind::Data).duplicated;
        assert!(dup > 10, "duplicated {dup}");
        assert_eq!(got as u64, 100 + dup);
    }

    #[test]
    fn reordering_swaps_adjacent_pairs_without_losing() {
        let net = LoopbackNet::new();
        let mut a = ChaosTransport::new(
            net.endpoint(pid(0)),
            ChaosConfig::quiet(5).with_reordering(0.4),
        );
        let mut b = net.endpoint(pid(1));
        let n = 100;
        for i in 0..n {
            let mut m = data_msg(0);
            if let Message::Data(d) = &mut m {
                d.seq = Seq::new(i + 1);
            }
            a.send_to(pid(1), &m).unwrap();
        }
        // Force out anything still held.
        std::thread::sleep(a.cfg.max_delay);
        a.flush_due().unwrap();
        let mut seqs = Vec::new();
        while let Some(Message::Data(d)) = b.recv(false, Duration::from_millis(2)).unwrap() {
            seqs.push(d.seq.as_u64());
        }
        assert_eq!(seqs.len(), n as usize, "nothing lost");
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_ne!(seqs, sorted, "some pair was reordered");
        assert_eq!(sorted, (1..=n).collect::<Vec<_>>());
    }

    #[test]
    fn delay_holds_then_releases_everything() {
        let net = LoopbackNet::new();
        let mut a = ChaosTransport::new(
            net.endpoint(pid(0)),
            ChaosConfig::quiet(9).with_delay(0.8, Duration::from_millis(5)),
        );
        let mut b = net.endpoint(pid(1));
        for _ in 0..50 {
            a.send_to(pid(1), &data_msg(0)).unwrap();
        }
        assert!(a.stats().kind(MsgKind::Data).delayed > 10);
        std::thread::sleep(Duration::from_millis(6));
        a.flush_due().unwrap();
        assert_eq!(drain(&mut b), 50, "bounded delay: all messages arrive");
    }

    #[test]
    fn crash_blackholes_both_directions() {
        let net = LoopbackNet::new();
        let mut a = ChaosTransport::new(net.endpoint(pid(0)), ChaosConfig::quiet(1));
        let mut b = net.endpoint(pid(1));
        let control = a.control();
        control.crash();
        a.send_to(pid(1), &token_msg()).unwrap();
        assert_eq!(drain(&mut b), 0, "outbound blackholed");
        b.send_to(pid(0), &data_msg(1)).unwrap();
        assert!(a.recv(false, Duration::from_millis(5)).unwrap().is_none());
        assert_eq!(a.stats().kind(MsgKind::Data).recv_dropped, 1);
        control.restart();
        a.send_to(pid(1), &token_msg()).unwrap();
        assert_eq!(drain(&mut b), 1, "restart clears the blackhole");
    }

    #[test]
    fn one_way_partition_blocks_only_one_direction() {
        let net = LoopbackNet::new();
        let mut a = ChaosTransport::new(net.endpoint(pid(0)), ChaosConfig::quiet(1));
        let mut b = net.endpoint(pid(1));
        a.control().block_to(pid(1));
        a.send_to(pid(1), &token_msg()).unwrap();
        assert_eq!(drain(&mut b), 0, "a→b blocked");
        b.send_to(pid(0), &data_msg(1)).unwrap();
        assert!(
            a.recv(false, Duration::from_millis(20)).unwrap().is_some(),
            "b→a still open"
        );
        a.control().heal();
        a.send_to(pid(1), &token_msg()).unwrap();
        assert_eq!(drain(&mut b), 1);
    }

    #[test]
    fn partition_filters_multicast_with_known_peers() {
        let net = LoopbackNet::new();
        let peers: Vec<ParticipantId> = (0..3).map(pid).collect();
        let mut a =
            ChaosTransport::new(net.endpoint(pid(0)), ChaosConfig::quiet(1)).with_peers(peers);
        let mut b = net.endpoint(pid(1));
        let mut c = net.endpoint(pid(2));
        a.control().block_to(pid(2));
        a.multicast(&data_msg(0)).unwrap();
        assert_eq!(drain(&mut b), 1, "unblocked peer receives");
        assert_eq!(drain(&mut c), 0, "blocked peer filtered out");
        assert_eq!(a.stats().kind(MsgKind::Data).dropped, 1);
    }

    #[test]
    fn inbound_block_filters_by_sender() {
        let net = LoopbackNet::new();
        let mut a = net.endpoint(pid(0));
        let mut b = ChaosTransport::new(net.endpoint(pid(1)), ChaosConfig::quiet(1));
        b.control().block_from(pid(0));
        a.send_to(pid(1), &data_msg(0)).unwrap();
        assert!(b.recv(false, Duration::from_millis(5)).unwrap().is_none());
        assert_eq!(b.stats().kind(MsgKind::Data).recv_dropped, 1);
    }

    #[test]
    fn recv_batch_filters_inbound_per_message() {
        let net = LoopbackNet::new();
        let mut a = net.endpoint(pid(0));
        let mut b = ChaosTransport::new(net.endpoint(pid(1)), ChaosConfig::quiet(7).with_loss(0.5));
        for _ in 0..200 {
            a.send_to(pid(1), &data_msg(0)).unwrap();
        }
        let mut got = Vec::new();
        loop {
            let mut batch = Vec::new();
            if b.recv_batch(false, Duration::from_millis(5), 16, &mut batch)
                .unwrap()
                == 0
            {
                break;
            }
            got.extend(batch);
        }
        let stats = b.stats().kind(MsgKind::Data).to_owned();
        assert_eq!(stats.received, got.len() as u64);
        assert!(stats.recv_dropped > 0, "{stats:?}");
        assert_eq!(stats.received + stats.recv_dropped, 200);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let net = LoopbackNet::new();
            let mut t = ChaosTransport::new(
                net.endpoint(pid(0)),
                ChaosConfig::quiet(seed)
                    .with_loss(0.3)
                    .with_duplication(0.2),
            );
            for _ in 0..100 {
                t.send_to(pid(1), &token_msg()).unwrap();
            }
            let s = t.stats();
            (
                s.kind(MsgKind::Token).dropped,
                s.kind(MsgKind::Token).duplicated,
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
