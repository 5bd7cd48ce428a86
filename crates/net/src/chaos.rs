//! A chaos-injecting transport wrapper for live rings: seeded loss on
//! both the inbound and outbound paths, crashes, and outbound
//! partitions.
//!
//! [`ChaosTransport`] wraps any [`Transport`] and perturbs traffic
//! according to a [`ChaosConfig`]. Loss is rolled per copy from a
//! seeded RNG so the drop pattern is reproducible given the seed;
//! dynamic faults (crash, outbound blocks) are flipped at runtime
//! through the shared [`ChaosControl`] handle, which is how the nemesis
//! runner injects a [`ar_core::fault`] plan into a live ring.
//! Duplication and reordering are not injected here: the deterministic
//! [`crate::replay::World`] explores them exhaustively. Per-message-kind counters distinguish token
//! traffic from data and membership traffic, so a test can assert e.g.
//! "the partition dropped tokens" rather than staring at a single
//! aggregate number.
//!
//! ## Partition fidelity
//!
//! Partitions are outbound blocks on the sending side: tokens and
//! commit tokens carry no sender, so only the sender can filter every
//! kind. Unicast sends know their destination, so a block applies
//! exactly. The [`Transport::multicast`] entry point is
//! destination-blind; when the peer set is declared via
//! [`ChaosTransport::with_peers`], an active outbound block decomposes
//! multicasts into per-peer unicasts so partitions filter them too.
//! [`crate::nemesis::apply_connectivity`] translates a
//! [`ar_core::fault::Connectivity`] matrix this way.

use std::collections::HashSet;
use std::io;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use ar_core::{Message, ParticipantId};
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
    /// Inbound messages surfaced to the caller.
    pub received: u64,
    /// Inbound messages dropped (loss roll or crash).
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

/// The per-copy loss probability and the RNG seed.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Probability of dropping a copy, applied on both paths.
    pub drop_prob: f64,
    /// RNG seed; equal seeds give equal loss sequences.
    pub seed: u64,
}

impl ChaosConfig {
    /// A configuration that injects nothing (seeded for later rolls).
    pub fn quiet(seed: u64) -> ChaosConfig {
        ChaosConfig {
            drop_prob: 0.0,
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
}

#[derive(Debug, Default)]
struct ControlState {
    crashed: bool,
    blocked_to: HashSet<ParticipantId>,
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
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.crashed = true;
    }

    /// Clears a [`crash`](ChaosControl::crash): traffic flows again.
    pub fn restart(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.crashed = false;
    }

    /// True while the endpoint is blackholed.
    pub fn is_crashed(&self) -> bool {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.crashed
    }

    /// Blocks outbound traffic towards `pid` (one-way).
    pub fn block_to(&self, pid: ParticipantId) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.blocked_to.insert(pid);
    }

    /// Replaces the outbound block set wholesale.
    pub fn set_blocked_to(&self, pids: impl IntoIterator<Item = ParticipantId>) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.blocked_to = pids.into_iter().collect();
    }

    /// Clears every block.
    pub fn heal(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.blocked_to.clear();
    }

    /// A snapshot of the per-kind counters.
    pub fn stats(&self) -> ChaosStats {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.stats
    }
}

/// Where an outbound message is headed.
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

    /// Adds one to a per-kind counter.
    fn count(&self, kind: MsgKind, counter: fn(&mut KindStats) -> &mut u64) {
        let mut st = self
            .control
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *counter(st.stats.kind_mut(kind)) += 1;
    }

    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen::<f64>() < p
    }

    fn send_chaotic(&mut self, target: Target, msg: &Message) -> io::Result<()> {
        let kind = MsgKind::of(msg);

        // Multicast under an active outbound block: decompose into
        // per-peer unicasts when the peer set is known.
        if matches!(target, Target::Multicast) {
            let has_blocks = !self
                .control
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .blocked_to
                .is_empty();
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
            let mut st = self
                .control
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let blocked =
                st.crashed || matches!(target, Target::Unicast(to) if st.blocked_to.contains(&to));
            if blocked {
                st.stats.kind_mut(kind).dropped += 1;
                return Ok(());
            }
        }
        if self.roll(self.cfg.drop_prob) {
            self.count(kind, |k| &mut k.dropped);
            return Ok(());
        }
        match target {
            Target::Unicast(to) => self.inner.send_to(to, msg)?,
            Target::Multicast => self.inner.multicast(msg)?,
        }
        self.count(kind, |k| &mut k.sent);
        Ok(())
    }

    /// True if an inbound message should be dropped.
    fn drop_inbound(&mut self) -> bool {
        self.control.is_crashed() || self.roll(self.cfg.drop_prob)
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
            let remaining = deadline.saturating_duration_since(Instant::now());
            let msg = match self.inner.recv(prefer_token, remaining)? {
                Some(m) => m,
                None => return Ok(None),
            };
            let kind = MsgKind::of(&msg);
            if self.drop_inbound() {
                self.count(kind, |k| &mut k.recv_dropped);
                if Instant::now() >= deadline {
                    return Ok(None);
                }
                continue;
            }
            self.count(kind, |k| &mut k.received);
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
                if self.drop_inbound() {
                    self.count(kind, |k| &mut k.recv_dropped);
                } else {
                    self.count(kind, |k| &mut k.received);
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
        // A chaos `recv` that drops a copy after its timeout has passed
        // returns `None` with copies still queued, so a test thread
        // descheduled mid-drain stops early unless the timeout covers
        // the stall.
        let mut got = 0;
        while t.recv(false, Duration::from_millis(50)).unwrap().is_some() {
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
        // The drop pattern: the running drop count after each send.
        let run = |seed| {
            let net = LoopbackNet::new();
            let mut t = ChaosTransport::new(
                net.endpoint(pid(0)),
                ChaosConfig::quiet(seed).with_loss(0.3),
            );
            (0..100)
                .map(|_| {
                    t.send_to(pid(1), &token_msg()).unwrap();
                    t.stats().kind(MsgKind::Token).dropped
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
