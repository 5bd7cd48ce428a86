//! The single-threaded event loop that drives a [`Participant`] over a
//! [`Transport`] with real (wall-clock) timers — the daemon main loop
//! of the paper's implementations.

use std::collections::VecDeque;
use std::io;
use std::time::{Duration, Instant};

use ar_core::{
    Action, AdaptiveTimeouts, ConfigChange, Delivery, Message, Mode, Participant, PriorityMode,
    ServiceType, TimerKind, Token,
};
use ar_log::{DeliveryGate, LogStats, SegmentedLog};
use bytes::Bytes;

use crate::hold::{IdleHold, Local, Release};
use crate::metrics::NetMetrics;
use crate::poll::WakeReceiver;
use crate::transport::Transport;

/// Events surfaced to the embedding application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppEvent {
    /// An ordered message was delivered.
    Delivered(Delivery),
    /// A configuration change (transitional or regular) was delivered.
    ConfigChanged(ConfigChange),
}

/// Upper bound on one receive wait, so timers stay responsive even when
/// the computed deadline is far away.
const MAX_POLL: Duration = Duration::from_millis(5);

/// Upper bound on how many ready messages one [`Runtime::step`] drains
/// from the transport. Bounds the time between timer checks while still
/// letting a batching transport hand over a whole burst per syscall
/// sweep.
const RECV_BATCH_MAX: usize = 32;

/// Cap on the retransmission backoff exponent (2^6 = 64x the base
/// interval; the token-loss timeout clamps the result anyway).
const MAX_RETRANSMIT_SHIFT: u32 = 6;

use ar_core::backoff::ExpShift;

/// A protocol participant bound to a transport and a clock.
pub struct Runtime<T: Transport> {
    part: Participant,
    transport: T,
    timers: [Option<Instant>; 5],
    events: Vec<AppEvent>,
    /// Consecutive token-retransmission firings without hearing a
    /// token. Each firing doubles the retransmit interval (capped by
    /// the token-loss timeout) so a long outage does not flood a
    /// recovering peer with duplicate tokens; any received token or
    /// commit resets the backoff (shared [`ExpShift`] machinery).
    retransmit_backoff: ExpShift,
    /// Metric handles, when instrumented via
    /// [`set_metrics`](Runtime::set_metrics).
    metrics: Option<NetMetrics>,
    /// Zero point for the nanosecond timestamps injected into the
    /// participant's observer.
    epoch: Instant,
    /// When the previous token arrived (rotation measurement).
    last_token_at: Option<Instant>,
    /// Rotation-informed failure-detection controller; when enabled,
    /// each observed rotation feeds it and changed timeout policies are
    /// installed into the participant.
    adaptive: Option<AdaptiveTimeouts>,
    /// Submission instants of locally initiated messages, oldest first;
    /// matched FIFO against local deliveries of our own messages
    /// (FIFO is sound because a participant's own messages deliver in
    /// submission order).
    submit_times: VecDeque<Instant>,
    /// Reusable scratch for the per-step receive batch.
    inbound: Vec<Message>,
    /// Durable log behind the Safe-durability gate, when attached via
    /// [`attach_durable_log`](Runtime::attach_durable_log).
    gate: Option<DeliveryGate>,
    /// Reusable scratch for the deliveries one gate call surfaces.
    released: Vec<Delivery>,
    /// The gate's log counters as last exported to the metrics.
    log_exported: LogStats,
    /// Shared copy of the participant's observer, for runtime-level
    /// events (durable-log recovery) that the core does not see.
    observer: Option<std::sync::Arc<dyn ar_core::Observer>>,
    /// The transport accepted a wake ([`attach_wake`]), so a command
    /// from another thread never waits for a token to arrive.
    ///
    /// [`attach_wake`]: Runtime::attach_wake
    wake_attached: bool,
    /// The idle-token hold: the decision and the parked token (see
    /// [`crate::hold`]).
    hold: IdleHold,
}

impl<T: Transport + std::fmt::Debug> std::fmt::Debug for Runtime<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("part", &self.part)
            .field("transport", &self.transport)
            .field("gate", &self.gate)
            .field("observer", &self.observer.is_some())
            .finish_non_exhaustive()
    }
}

fn kind_idx(kind: TimerKind) -> usize {
    match kind {
        TimerKind::TokenLoss => 0,
        TimerKind::TokenRetransmit => 1,
        TimerKind::Join => 2,
        TimerKind::ConsensusTimeout => 3,
        TimerKind::CommitTimeout => 4,
    }
}

const KINDS: [TimerKind; 5] = [
    TimerKind::TokenLoss,
    TimerKind::TokenRetransmit,
    TimerKind::Join,
    TimerKind::ConsensusTimeout,
    TimerKind::CommitTimeout,
];

impl<T: Transport> Runtime<T> {
    /// Wraps a participant and transport; call
    /// [`start`](Runtime::start) before stepping.
    pub fn new(part: Participant, transport: T) -> Runtime<T> {
        Runtime {
            part,
            transport,
            timers: [None; 5],
            events: Vec::new(),
            retransmit_backoff: ExpShift::new(MAX_RETRANSMIT_SHIFT),
            metrics: None,
            epoch: Instant::now(),
            last_token_at: None,
            adaptive: None,
            submit_times: VecDeque::new(),
            inbound: Vec::with_capacity(RECV_BATCH_MAX),
            gate: None,
            released: Vec::new(),
            log_exported: LogStats::default(),
            observer: None,
            wake_attached: false,
            hold: IdleHold::default(),
        }
    }

    /// Hands the transport the consumer half of a [`wake_pair`]
    /// ([`Transport::attach_wake`]), so the producer's wake ends a
    /// blocked [`step`](Runtime::step) at once. Returns whether the
    /// transport accepted it. Only then, and with adaptive timeouts
    /// off, does the runtime hold an idle token (see [`crate::hold`]):
    /// its caller must then wake it after every command it queues.
    ///
    /// [`wake_pair`]: crate::wake_pair
    pub fn attach_wake(&mut self, wake: WakeReceiver) -> bool {
        self.wake_attached = self.transport.attach_wake(wake);
        self.reset_hold();
        self.wake_attached
    }

    fn reset_hold(&mut self) {
        self.hold = IdleHold::new(self.wake_attached && self.adaptive.is_none());
    }

    /// Attaches a durable log behind an [`ar_log::DeliveryGate`]: every
    /// delivery is appended at ordering time, and — when `gate_safe` is
    /// set — Safe deliveries are surfaced only once their record is
    /// fsynced, so a kill -9 right after the application observes a
    /// Safe message cannot lose it.
    pub fn attach_durable_log(&mut self, log: SegmentedLog, gate_safe: bool) {
        if let Some(m) = &self.metrics {
            m.log_recovered_records
                .set(i64::try_from(log.stats().recovered_records).unwrap_or(i64::MAX));
        }
        if let Some(obs) = &self.observer {
            let stats = log.stats();
            obs.on_event(
                self.elapsed_nanos(),
                &ar_core::ProtoEvent::LogRecovered {
                    records: stats.recovered_records,
                    torn_bytes: stats.torn_bytes_truncated,
                },
            );
        }
        self.gate = Some(DeliveryGate::new(log, gate_safe));
        self.log_exported = LogStats::default();
    }

    /// The attached durable log, if any.
    pub fn durable_log(&self) -> Option<&SegmentedLog> {
        self.gate.as_ref().map(DeliveryGate::log)
    }

    /// Forces the durable log's buffered tail to disk
    /// ([`DeliveryGate::flush`]): syncs, surfaces any Safe deliveries
    /// that were awaiting durability, persists the delivery cursor, and
    /// syncs again. Returns the surfaced events (plus anything else
    /// pending). The daemon's graceful-shutdown drain calls this so a
    /// clean exit never leaves a buffered tail behind.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing or syncing the log.
    pub fn flush_durable_log(&mut self) -> io::Result<Vec<AppEvent>> {
        self.gate_call(|gate, out| gate.flush(out))?;
        Ok(std::mem::take(&mut self.events))
    }

    /// Runs one call of the durable log's gate (nothing without one),
    /// exports the log's counters, and surfaces what the call released.
    fn gate_call(
        &mut self,
        call: impl FnOnce(&mut DeliveryGate, &mut Vec<Delivery>) -> io::Result<()>,
    ) -> io::Result<()> {
        let Some(gate) = self.gate.as_mut() else {
            return Ok(());
        };
        let mut out = std::mem::take(&mut self.released);
        let result = call(gate, &mut out);
        if let Some(m) = &self.metrics {
            let stats = gate.log().stats();
            m.log_appends
                .add(stats.appends.saturating_sub(self.log_exported.appends));
            m.log_syncs
                .add(stats.syncs.saturating_sub(self.log_exported.syncs));
            m.log_held_safe
                .set(i64::try_from(gate.held_len()).unwrap_or(i64::MAX));
            self.log_exported = stats;
        }
        for d in out.drain(..) {
            self.surface_delivery(d);
        }
        self.released = out;
        result
    }

    /// Hands one delivery to the application: metric accounting and
    /// the event push.
    fn surface_delivery(&mut self, d: Delivery) {
        if let Some(m) = &self.metrics {
            m.deliveries.inc();
            if d.pid == self.part.pid() {
                if let Some(submitted) = self.submit_times.pop_front() {
                    m.delivery_latency_ns
                        .record(u64::try_from(submitted.elapsed().as_nanos()).unwrap_or(u64::MAX));
                }
            }
        }
        self.events.push(AppEvent::Delivered(d));
    }

    /// Attaches metric handles; the runtime records token rotation and
    /// hop times, local delivery latency, and queue depth from here on.
    pub fn set_metrics(&mut self, metrics: NetMetrics) {
        self.metrics = Some(metrics);
    }

    /// The attached metric handles, when instrumented.
    pub fn metrics(&self) -> Option<&NetMetrics> {
        self.metrics.as_ref()
    }

    /// Enables rotation-informed failure detection: every observed token
    /// rotation feeds `ctl`, and whenever its derived timeout policy
    /// changes it is installed into the participant (counted and
    /// observable via `ProtoEvent::TimeoutsAdapted`).
    pub fn enable_adaptive_timeouts(&mut self, ctl: AdaptiveTimeouts) {
        self.adaptive = Some(ctl);
        // A held rotation is not a network sample: no holds while the
        // controller learns from rotations.
        self.reset_hold();
    }

    /// The adaptive controller, when enabled.
    pub fn adaptive(&self) -> Option<&AdaptiveTimeouts> {
        self.adaptive.as_ref()
    }

    /// Attaches a protocol-event observer (e.g. an
    /// [`ar_telemetry::FlightRecorder`]) to the wrapped participant.
    /// The runtime injects its monotonic clock (nanoseconds since
    /// creation) before every participant call.
    pub fn set_observer(&mut self, obs: std::sync::Arc<dyn ar_core::Observer>) {
        self.observer = Some(obs.clone());
        self.part.set_observer(obs);
    }

    /// Nanoseconds since this runtime was created; the timestamp domain
    /// used for the participant's observer events.
    pub fn elapsed_nanos(&self) -> u64 {
        self.nanos_at(Instant::now())
    }

    /// `at` in the [`elapsed_nanos`](Runtime::elapsed_nanos) domain.
    fn nanos_at(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// The instant `nanos` after creation.
    fn instant_at(&self, nanos: u64) -> Instant {
        self.epoch + Duration::from_nanos(nanos)
    }

    /// Injects the current wall-clock offset into the participant's
    /// observer (no-op when no observer is attached).
    fn sync_observer_clock(&mut self) {
        if self.part.has_observer() {
            let now = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.part.observe_now(now);
        }
    }

    /// The wrapped participant (for inspection).
    pub fn participant(&self) -> &Participant {
        &self.part
    }

    /// Depth of the protocol send queue: messages submitted for
    /// ordering that have not yet been multicast. The client service
    /// tier reads this (via the daemon's shared pressure gauge) to
    /// throttle publish-credit grants before the queue — and the
    /// daemon's memory — can grow without bound.
    pub fn send_queue_depth(&self) -> usize {
        self.part.pending_len()
    }

    /// The transport (for inspection).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Begins operation (the ring representative injects the first
    /// token).
    ///
    /// # Errors
    ///
    /// Returns an I/O error if sending fails.
    pub fn start(&mut self) -> io::Result<Vec<AppEvent>> {
        self.sync_observer_clock();
        let actions = self.part.start();
        self.execute(actions)?;
        Ok(std::mem::take(&mut self.events))
    }

    /// Submits an application message for ordering.
    ///
    /// # Errors
    ///
    /// Returns the queue-full error on backpressure.
    pub fn submit(
        &mut self,
        payload: Bytes,
        service: ServiceType,
    ) -> Result<(), ar_core::QueueFull> {
        self.sync_observer_clock();
        let local = self.local();
        self.part.submit(payload, service)?;
        if self.metrics.is_some() {
            self.submit_times.push_back(Instant::now());
        }
        if self.hold.on_submit(&local) {
            // A lost cancel costs at most one hold deadline.
            let cancel = Message::HoldCancel {
                ring_id: local.ring,
                pid: self.part.pid(),
            };
            let _ = self
                .transport
                .send_to(self.part.ring().representative(), &cancel);
        }
        Ok(())
    }

    /// The participant as the idle-token hold sees it.
    fn local(&self) -> Local {
        let ring = self.part.ring();
        Local {
            ring: ring.id(),
            representative: ring.representative() == self.part.pid(),
            operational: self.part.mode() == Mode::Operational,
            pending: self.part.pending_len(),
            next_timer: self.next_participant_timer().map(|t| self.nanos_at(t)),
            token_retransmit: self.part.timeouts().token_retransmit,
        }
    }

    /// Runs one iteration: waits (briefly) for a message, handles it
    /// and any expired timers, and returns application events.
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the transport.
    pub fn step(&mut self) -> io::Result<Vec<AppEvent>> {
        self.step_with_wait(MAX_POLL)
    }

    /// The earliest instant at which [`step_with_wait`] has work
    /// without any input: a participant timer, a held token's release,
    /// or an interval fsync owed by the durable log. A driver hosting
    /// several runtimes on one poll loop uses this to budget each
    /// instance's [`step_with_wait`] so no ring's timer fires late.
    ///
    /// [`step_with_wait`]: Runtime::step_with_wait
    pub fn next_timer_deadline(&self) -> Option<Instant> {
        let hold = self.hold.deadline().map(|n| self.instant_at(n));
        let sync = self
            .gate
            .as_ref()
            .and_then(|gate| gate.log().sync_due_at())
            .map(|n| self.instant_at(n));
        [self.next_participant_timer(), hold, sync]
            .into_iter()
            .flatten()
            .min()
    }

    fn next_participant_timer(&self) -> Option<Instant> {
        self.timers.iter().flatten().min().copied()
    }

    /// [`step`](Runtime::step) with an explicit cap on the transport
    /// wait. This is the factoring that lets one thread drive N
    /// runtime instances round-robin: give each instance a slice of
    /// the poll budget (e.g. `MAX_POLL / n`, or `Duration::ZERO` for
    /// every instance but the one with the nearest timer deadline) and
    /// no ring stalls behind another ring's quiet socket.
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the transport.
    pub fn step_with_wait(&mut self, max_wait: Duration) -> io::Result<Vec<AppEvent>> {
        // A local submit since the last step asked for the held token.
        self.release_if_due()?;
        let now = Instant::now();
        let wait = match self.next_timer_deadline() {
            Some(d) if d <= now => Duration::ZERO,
            Some(d) => (d - now).min(max_wait),
            None => max_wait,
        };
        let prefer_token = self.part.priority_mode() == PriorityMode::TokenHigh;
        // Drain everything the transport already has ready (one batched
        // sweep on batching transports) and process it front-to-back;
        // the transport appends preferred-channel messages first, so
        // the priority-method semantics (§III-C) are preserved.
        let mut batch = std::mem::take(&mut self.inbound);
        batch.clear();
        let drained = self
            .transport
            .recv_batch(prefer_token, wait, RECV_BATCH_MAX, &mut batch);
        let mut result = drained.map(|_| ());
        if result.is_ok() {
            for msg in batch.drain(..) {
                if let Err(e) = self.handle_incoming(msg) {
                    result = Err(e);
                    break;
                }
            }
        }
        batch.clear();
        self.inbound = batch;
        result?;
        self.release_if_due()?;
        // Fire expired timers.
        let now = Instant::now();
        for kind in KINDS {
            let idx = kind_idx(kind);
            if matches!(self.timers[idx], Some(d) if d <= now) {
                self.timers[idx] = None;
                if kind == TimerKind::TokenRetransmit {
                    self.retransmit_backoff.step();
                }
                self.sync_observer_clock();
                let actions = self.part.handle_timer(kind);
                self.execute(actions)?;
            }
        }
        if self.gate.is_some() {
            let now = self.elapsed_nanos();
            self.gate_call(|gate, out| gate.end_step(now, out))?;
        }
        if let Some(m) = &self.metrics {
            m.queue_depth
                .set(i64::try_from(self.part.pending_len()).unwrap_or(i64::MAX));
            m.adaptive_token_loss_ns
                .set(i64::try_from(self.part.timeouts().token_loss).unwrap_or(i64::MAX));
            m.effective_accel_window
                .set(i64::from(self.part.effective_accelerated_window()));
            m.quarantined_members
                .set(i64::try_from(self.part.quarantined_count()).unwrap_or(i64::MAX));
        }
        Ok(std::mem::take(&mut self.events))
    }

    /// Handles one received message: the idle-token hold first (a
    /// cancel is consumed here; anything else releases a held token
    /// ahead of itself), then backoff reset, per-token rotation
    /// metrics, and protocol handling.
    fn handle_incoming(&mut self, msg: Message) -> io::Result<()> {
        if let Message::HoldCancel { ring_id, .. } = msg {
            if ring_id == self.part.ring().id() && self.hold.on_cancel() {
                self.release_token(Release::Cancel)?;
            }
            return Ok(());
        }
        if self.hold.is_holding() {
            self.release_token(Release::Message)?;
        }
        if matches!(msg, Message::Token(_) | Message::Commit(_)) {
            self.retransmit_backoff.reset();
        }
        let Message::Token(tok) = msg else {
            self.sync_observer_clock();
            let actions = self.part.handle_message(msg);
            return self.execute(actions);
        };
        self.note_token_arrival();
        let local = self.local();
        match self.hold.on_token(self.elapsed_nanos(), tok, &local) {
            Some(tok) => self.hand_token(tok),
            None => Ok(()),
        }
    }

    /// Per-token rotation metrics and the adaptive controller's sample,
    /// taken when a token arrives (so a rotation includes any hold).
    fn note_token_arrival(&mut self) {
        if self.metrics.is_none() && self.adaptive.is_none() {
            return;
        }
        let now = Instant::now();
        let rotation = self
            .last_token_at
            .map(|prev| u64::try_from((now - prev).as_nanos()).unwrap_or(u64::MAX));
        if let Some(m) = &self.metrics {
            if let Some(rot) = rotation {
                m.token_rotation_ns.record(rot);
            }
            m.tokens_rx.inc();
        }
        if let (Some(ctl), Some(rot)) = (self.adaptive.as_mut(), rotation) {
            if ctl.record_rotation(rot) {
                // An invalid derived policy cannot happen (the
                // controller clamps and orders its outputs), but a
                // rejected install must not kill the event loop.
                let _ = self.part.adapt_timeouts(ctl.current());
            }
        }
        self.last_token_at = Some(now);
    }

    /// Gives a token to the participant and runs the round it starts.
    fn hand_token(&mut self, tok: Token) -> io::Result<()> {
        let start = self.metrics.is_some().then(Instant::now);
        self.sync_observer_clock();
        let actions = self.part.handle_message(Message::Token(tok));
        self.execute(actions)?;
        if let (Some(start), Some(m)) = (start, &self.metrics) {
            m.token_hop_ns
                .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        Ok(())
    }

    /// Hands the held token over when a submit or the deadline says so.
    fn release_if_due(&mut self) -> io::Result<()> {
        match self.hold.due(self.elapsed_nanos()) {
            Some(why) => self.release_token(why),
            None => Ok(()),
        }
    }

    fn release_token(&mut self, why: Release) -> io::Result<()> {
        let Some((tok, held_ns)) = self.hold.release(self.elapsed_nanos()) else {
            return Ok(());
        };
        if let Some(m) = &self.metrics {
            m.token_holds[why.index()].inc();
            m.token_hold_ns.record(held_ns);
        }
        self.hand_token(tok)
    }

    fn execute(&mut self, actions: Vec<Action>) -> io::Result<()> {
        // One action list is one burst (typically: a round's multicasts
        // followed by the token hand-off). A batching transport defers
        // the sends and flushes them as O(1) syscalls at `end_batch`;
        // every send is still attempted even if an early one fails.
        self.transport.begin_batch();
        let mut first_err: Option<io::Error> = None;
        for action in actions {
            let sent = match action {
                Action::Multicast(m) => self.transport.multicast(&Message::Data(m)),
                Action::SendToken { to, token } => {
                    self.transport.send_to(to, &Message::Token(token))
                }
                Action::MulticastJoin(j) => self.transport.multicast(&Message::Join(j)),
                Action::SendCommit { to, token } => {
                    self.transport.send_to(to, &Message::Commit(token))
                }
                Action::Deliver(d) => {
                    if self.gate.is_none() {
                        self.surface_delivery(d);
                        Ok(())
                    } else {
                        self.gate_call(|gate, out| gate.deliver(d, out))
                    }
                }
                Action::DeliverConfigChange(c) => {
                    // A membership change may drop locally submitted
                    // messages that never got ordered; their queued
                    // submission instants would otherwise mismatch
                    // against *later* deliveries and permanently skew
                    // every subsequent latency sample.
                    self.submit_times.clear();
                    // EVS: anything still gated on durability surfaces
                    // before the view change.
                    let log_result = self.gate_call(|gate, out| gate.config(&c, out));
                    self.events.push(AppEvent::ConfigChanged(c));
                    log_result
                }
                Action::SetTimer(kind) => {
                    let dur = self.timer_duration(kind);
                    self.timers[kind_idx(kind)] = Some(Instant::now() + dur);
                    Ok(())
                }
                Action::CancelTimer(kind) => {
                    self.timers[kind_idx(kind)] = None;
                    Ok(())
                }
            };
            if let Err(e) = sent {
                first_err.get_or_insert(e);
            }
        }
        let flushed = self.transport.end_batch();
        match first_err {
            Some(e) => Err(e),
            None => flushed,
        }
    }

    fn timer_duration(&self, kind: TimerKind) -> Duration {
        let t = self.part.timeouts();
        Duration::from_nanos(match kind {
            TimerKind::TokenLoss => t.token_loss,
            TimerKind::TokenRetransmit => self
                .retransmit_backoff
                .scale(t.token_retransmit, t.token_loss),
            TimerKind::Join => t.join,
            TimerKind::ConsensusTimeout => t.consensus,
            TimerKind::CommitTimeout => t.commit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::LoopbackNet;
    use crate::metrics::NetMetrics;
    use ar_core::{ParticipantId, ProtocolConfig, RingId, Seq};

    fn pids(n: u16) -> Vec<ParticipantId> {
        (0..n).map(ParticipantId::new).collect()
    }

    fn build_ring(n: u16) -> Vec<Runtime<crate::loopback::LoopbackTransport>> {
        let net = LoopbackNet::new();
        let members = pids(n);
        let ring_id = RingId::new(members[0], 1);
        members
            .iter()
            .map(|&p| {
                let part =
                    Participant::new(p, ProtocolConfig::accelerated(), ring_id, members.clone())
                        .unwrap();
                Runtime::new(part, net.endpoint(p))
            })
            .collect()
    }

    #[test]
    fn three_node_ring_delivers_in_total_order_single_thread() {
        let mut ring = build_ring(3);
        ring[1]
            .submit(Bytes::from_static(b"one"), ServiceType::Agreed)
            .unwrap();
        ring[2]
            .submit(Bytes::from_static(b"two"), ServiceType::Safe)
            .unwrap();
        for rt in ring.iter_mut() {
            rt.start().unwrap();
        }
        let mut logs: Vec<Vec<(u64, Bytes)>> = vec![Vec::new(); 3];
        let deadline = Instant::now() + Duration::from_secs(5);
        while logs.iter().any(|l| l.len() < 2) && Instant::now() < deadline {
            for (i, rt) in ring.iter_mut().enumerate() {
                for ev in rt.step().unwrap() {
                    if let AppEvent::Delivered(d) = ev {
                        logs[i].push((d.seq.as_u64(), d.payload));
                    }
                }
            }
        }
        assert_eq!(logs[0].len(), 2, "{logs:?}");
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[1], logs[2]);
    }

    #[test]
    fn instrumented_ring_populates_metrics_and_observer() {
        use ar_telemetry::{FlightRecorder, MetricsRegistry};

        let reg = MetricsRegistry::new();
        let flight = FlightRecorder::shared(256);
        let mut ring = build_ring(3);
        ring[0].set_metrics(NetMetrics::register(&reg));
        ring[0].part.set_observer(flight.clone());
        ring[0]
            .submit(Bytes::from_static(b"mine"), ServiceType::Agreed)
            .unwrap();
        for rt in ring.iter_mut() {
            rt.start().unwrap();
        }
        // Run until node 0 has received the token over the wire at
        // least twice (one full rotation measurement) and delivered its
        // own message.
        let m = NetMetrics::register(&reg);
        let deadline = Instant::now() + Duration::from_secs(5);
        while (m.tokens_rx.get() < 2 || ring[0].participant().stats().messages_delivered == 0)
            && Instant::now() < deadline
        {
            for rt in ring.iter_mut() {
                rt.step().unwrap();
            }
        }
        assert!(m.tokens_rx.get() >= 2, "tokens counted");
        assert!(m.deliveries.get() > 0, "deliveries counted");
        assert!(
            m.delivery_latency_ns.count() > 0,
            "local submit matched to delivery"
        );
        assert!(m.token_rotation_ns.count() > 0, "rotation recorded");
        assert!(m.token_hop_ns.count() > 0, "hop time recorded");
        assert!(flight.total() > 0, "observer events recorded");
        // The participant's own stats invariant holds under the real loop.
        assert!(ring[0].participant().stats().send_split_consistent());
    }

    /// Two independent rings make progress when a single thread
    /// interleaves all their runtimes through `step_with_wait`, each
    /// instance getting a slice of the poll budget — the factoring the
    /// sharded daemon relies on to host N rings in one process.
    #[test]
    fn two_rings_interleave_on_one_poll_loop() {
        let mut rings = [build_ring(2), build_ring(2)];
        for (r, ring) in rings.iter_mut().enumerate() {
            // Submit from the non-representative member: the
            // representative's own pre-start submission surfaces its
            // delivery in start() events, which this loop discards.
            ring[1]
                .submit(Bytes::from(format!("ring-{r}")), ServiceType::Agreed)
                .unwrap();
            for rt in ring.iter_mut() {
                rt.start().unwrap();
            }
        }
        let slice = MAX_POLL / 4;
        let mut delivered = [Vec::new(), Vec::new()];
        let deadline = Instant::now() + Duration::from_secs(5);
        while delivered.iter().any(|log| log.len() < 2) && Instant::now() < deadline {
            for (r, ring) in rings.iter_mut().enumerate() {
                for rt in ring.iter_mut() {
                    for ev in rt.step_with_wait(slice).unwrap() {
                        if let AppEvent::Delivered(d) = ev {
                            delivered[r].push(d.payload.clone());
                        }
                    }
                }
            }
        }
        // Each ring delivered its own message to both members, and the
        // rings stayed isolated (no cross-ring payloads).
        for (r, log) in delivered.iter().enumerate() {
            let want = Bytes::from(format!("ring-{r}"));
            assert_eq!(log.len(), 2, "ring {r}: {log:?}");
            assert!(log.iter().all(|p| *p == want), "ring {r}: {log:?}");
        }
    }

    #[test]
    fn retransmit_interval_backs_off_and_caps_at_token_loss() {
        let mut ring = build_ring(2);
        let rt = &mut ring[0];
        let t = rt.part.timeouts();
        let base = Duration::from_nanos(t.token_retransmit);
        let cap = Duration::from_nanos(t.token_loss);
        assert_eq!(rt.timer_duration(TimerKind::TokenRetransmit), base);
        rt.retransmit_backoff.step();
        assert_eq!(
            rt.timer_duration(TimerKind::TokenRetransmit),
            (base * 2).min(cap)
        );
        for _ in 0..MAX_RETRANSMIT_SHIFT {
            rt.retransmit_backoff.step();
        }
        let backed_off = rt.timer_duration(TimerKind::TokenRetransmit);
        assert!(backed_off <= cap, "{backed_off:?} > {cap:?}");
        assert!(backed_off >= base * 2);
        // Other timers are unaffected by the backoff state.
        assert_eq!(
            rt.timer_duration(TimerKind::TokenLoss),
            Duration::from_nanos(t.token_loss)
        );
    }

    /// Regression: a config change may drop locally submitted messages
    /// without delivering them; stale entries left in the latency FIFO
    /// would then pair with *later* deliveries and inflate every
    /// subsequent latency sample. The FIFO must be cleared when the
    /// change is delivered.
    #[test]
    fn config_change_clears_latency_fifo() {
        let mut ring = build_ring(2);
        let rt = &mut ring[0];
        rt.set_metrics(NetMetrics::detached());
        rt.submit(Bytes::from_static(b"doomed"), ServiceType::Agreed)
            .unwrap();
        assert_eq!(rt.submit_times.len(), 1);
        let change = ar_core::ConfigChange {
            kind: ar_core::ConfigChangeKind::Regular,
            ring_id: RingId::new(ParticipantId::new(0), 2),
            members: pids(2),
        };
        rt.execute(vec![Action::DeliverConfigChange(change)])
            .unwrap();
        assert!(
            rt.submit_times.is_empty(),
            "stale submission instants cleared on membership change"
        );
    }

    /// One `step` drains a whole ready burst from the transport rather
    /// than one message per iteration.
    #[test]
    fn step_drains_ready_burst_in_one_call() {
        let net = LoopbackNet::new();
        let members = pids(2);
        let ring_id = RingId::new(members[0], 1);
        let part = Participant::new(
            members[1],
            ProtocolConfig::accelerated(),
            ring_id,
            members.clone(),
        )
        .unwrap();
        let mut rt = Runtime::new(part, net.endpoint(members[1]));
        let mut peer = net.endpoint(members[0]);
        for seq in 1..=3u64 {
            peer.send_to(
                members[1],
                &Message::Data(ar_core::DataMessage {
                    ring_id,
                    seq: ar_core::Seq::new(seq),
                    pid: members[0],
                    round: ar_core::Round::new(1),
                    service: ServiceType::Agreed,
                    after_token: false,
                    payload: Bytes::from_static(b"burst"),
                }),
            )
            .unwrap();
        }
        rt.step().unwrap();
        assert_eq!(rt.participant().stats().messages_received, 3);
    }

    #[test]
    fn adaptive_controller_tightens_timeouts_from_live_rotations() {
        use ar_core::{AdaptiveConfig, AdaptiveTimeouts, TimeoutConfig};

        let mut ring = build_ring(2);
        let base = TimeoutConfig::default();
        let policy = AdaptiveConfig {
            min_samples: 4,
            ..AdaptiveConfig::default()
        };
        ring[0].enable_adaptive_timeouts(AdaptiveTimeouts::new(base, policy).unwrap());
        ring[0].set_metrics(NetMetrics::detached());
        for rt in ring.iter_mut() {
            rt.start().unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while ring[0].participant().stats().timeouts_adapted == 0 && Instant::now() < deadline {
            for rt in ring.iter_mut() {
                rt.step().unwrap();
            }
        }
        let p = ring[0].participant();
        assert!(p.stats().timeouts_adapted > 0, "policy installed");
        assert!(
            p.timeouts().token_loss < base.token_loss,
            "loopback rotations are far below the static 50ms default"
        );
        let ctl = ring[0].adaptive().unwrap();
        assert!(ctl.updates() > 0);
        assert_eq!(ctl.current(), *p.timeouts());
        // The gauge mirrors the installed policy after a step.
        let m = ring[0].metrics().unwrap().clone();
        assert_eq!(
            m.adaptive_token_loss_ns.get(),
            i64::try_from(p.timeouts().token_loss).unwrap()
        );
    }

    #[test]
    fn durable_log_records_deliveries_and_gates_safe() {
        use ar_log::{read_log_dir, FsyncPolicy, LogConfig};

        let dir = std::env::temp_dir().join(format!(
            "ar-net-durable-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ring = build_ring(2);
        let (log, recovered) =
            ar_log::SegmentedLog::open(LogConfig::new(&dir).with_fsync(FsyncPolicy::Never))
                .unwrap();
        assert_eq!(recovered.records, 0);
        ring[0].set_metrics(NetMetrics::detached());
        ring[0].attach_durable_log(log, true);
        ring[0]
            .submit(Bytes::from_static(b"agreed"), ServiceType::Agreed)
            .unwrap();
        ring[0]
            .submit(Bytes::from_static(b"safe"), ServiceType::Safe)
            .unwrap();
        let mut delivered: Vec<Bytes> = Vec::new();
        // The representative can deliver its own pre-token submissions
        // already during start(): collect those events too.
        for rt in ring.iter_mut() {
            for ev in rt.start().unwrap() {
                if let AppEvent::Delivered(d) = ev {
                    if rt.participant().pid() == ParticipantId::new(0) {
                        delivered.push(d.payload);
                    }
                }
            }
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while delivered.len() < 2 && Instant::now() < deadline {
            for rt in ring.iter_mut() {
                for ev in rt.step().unwrap() {
                    if let AppEvent::Delivered(d) = ev {
                        if rt.participant().pid() == ParticipantId::new(0) {
                            delivered.push(d.payload);
                        }
                    }
                }
            }
        }
        assert_eq!(delivered.len(), 2, "both messages surfaced");
        let log = ring[0].durable_log().unwrap();
        assert!(log.stats().appends >= 2, "{:?}", log.stats());
        assert!(
            log.stats().syncs >= 1,
            "gated Safe delivery forced a sync under FsyncPolicy::Never: {:?}",
            log.stats()
        );
        // Everything surfaced is on disk: kill -9 from here loses nothing.
        let m = ring[0].metrics().unwrap().clone();
        assert_eq!(m.log_held_safe.get(), 0);
        assert!(m.log_appends.get() >= 2);
        drop(ring);
        let on_disk = read_log_dir(&dir).unwrap();
        let payloads: Vec<&[u8]> = on_disk
            .deliveries
            .iter()
            .map(|(_, d)| d.payload.as_ref())
            .collect();
        assert!(payloads.contains(&b"safe".as_ref()), "{payloads:?}");
        assert!(payloads.contains(&b"agreed".as_ref()), "{payloads:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_durable_log_persists_cursor_and_tail() {
        use ar_log::{read_log_dir, FsyncPolicy, LogConfig};

        let dir = std::env::temp_dir().join(format!(
            "ar-net-flush-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ring = build_ring(2);
        let (log, _) =
            ar_log::SegmentedLog::open(LogConfig::new(&dir).with_fsync(FsyncPolicy::Never))
                .unwrap();
        ring[0].attach_durable_log(log, false);
        ring[0]
            .submit(Bytes::from_static(b"tail"), ServiceType::Agreed)
            .unwrap();
        for rt in ring.iter_mut() {
            rt.start().unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = false;
        while !got && Instant::now() < deadline {
            for rt in ring.iter_mut() {
                got |= rt
                    .step()
                    .unwrap()
                    .iter()
                    .any(|e| matches!(e, AppEvent::Delivered(_)));
            }
        }
        assert!(got);
        ring[0].flush_durable_log().unwrap();
        drop(ring);
        let on_disk = read_log_dir(&dir).unwrap();
        assert!(on_disk.cursor.is_some(), "flush persisted the cursor");
        assert_eq!(
            on_disk.undelivered().len(),
            0,
            "cursor covers everything surfaced"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An interval fsync is owed even when nothing arrives: an idle
    /// runtime's wait ends at the log's next sync instant instead of
    /// sleeping out its wait cap.
    #[test]
    fn idle_runtime_honours_the_fsync_interval() {
        use ar_log::{FsyncPolicy, LogConfig};
        // A wait that ignored the sync instant would run the whole cap.
        // The cap and the participant timers sit far above the 1 ms
        // interval, so an fsync or a descheduled test thread on a
        // loaded box cannot push an honoured wait past the bound.
        const WAIT_CAP: Duration = Duration::from_secs(1);

        let dir = std::env::temp_dir().join(format!(
            "ar-net-interval-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Only the representative steps: its peer never answers, so
        // nothing arrives and only timers end its waits.
        let net = LoopbackNet::new();
        let members = pids(2);
        let ring_id = RingId::new(members[0], 1);
        let mut ring: Vec<_> = members
            .iter()
            .map(|&p| {
                let mut part =
                    Participant::new(p, ProtocolConfig::accelerated(), ring_id, members.clone())
                        .unwrap();
                part.set_timeouts(ar_core::TimeoutConfig {
                    token_retransmit: 2_000_000_000,
                    token_loss: 20_000_000_000,
                    ..ar_core::TimeoutConfig::default()
                })
                .unwrap();
                Runtime::new(part, net.endpoint(p))
            })
            .collect();
        let rt = &mut ring[0];
        let (log, _) =
            SegmentedLog::open(LogConfig::new(&dir).with_fsync(FsyncPolicy::IntervalMs(1)))
                .unwrap();
        rt.attach_durable_log(log, false);
        rt.submit(Bytes::from_static(b"idle"), ServiceType::Agreed)
            .unwrap();
        rt.start().unwrap();
        // The first step starts the log's interval clock.
        rt.step().unwrap();
        let log = rt.durable_log().unwrap();
        assert_eq!(log.unsynced_records(), 1, "the delivery is appended");
        let start = Instant::now();
        rt.step_with_wait(WAIT_CAP).unwrap();
        let took = start.elapsed();
        assert_eq!(rt.durable_log().unwrap().unsynced_records(), 0);
        assert!(
            took < WAIT_CAP / 2,
            "an interval of 1 ms was honoured after {took:?}"
        );
        drop(ring);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A wake from another thread ends a UDP runtime's blocked
    /// transport wait at once, not after its poll budget.
    #[cfg(target_os = "linux")]
    #[test]
    fn wake_ends_a_blocked_udp_step_within_a_millisecond() {
        use crate::udp::{DatapathMode, PeerMap, UdpTransport};

        let members = pids(2);
        let ring_id = RingId::new(members[0], 1);
        let transport = (0..50u16)
            .find_map(|attempt| {
                let map = PeerMap::localhost(2, 47_700 + attempt * 8);
                UdpTransport::bind_with_mode(members[1], map, DatapathMode::Batched).ok()
            })
            .expect("free UDP ports");
        let part = Participant::new(
            members[1],
            ProtocolConfig::accelerated(),
            ring_id,
            members.clone(),
        )
        .unwrap();
        // Never started: no timers, so only input ends a wait.
        let mut rt = Runtime::new(part, transport);
        let (waker, wake) = crate::wake_pair().unwrap();
        assert!(rt.attach_wake(wake), "batched UDP accepts the wake");
        let mut best = Duration::MAX;
        for _ in 0..3 {
            let waker = waker.clone();
            let sender = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                let at = Instant::now();
                waker.wake();
                at
            });
            rt.step_with_wait(Duration::from_secs(2)).unwrap();
            let returned = Instant::now();
            let sent = sender.join().unwrap();
            best = best.min(returned.saturating_duration_since(sent));
        }
        assert!(
            best < Duration::from_millis(1),
            "woken step returned {best:?} after the wake"
        );
    }

    /// Three batched-UDP runtimes stepped one at a time, so every hop
    /// is in a known order: the representative parks the token on its
    /// third idle arrival, releases it at the deadline, and a cancel
    /// that beats the token there keeps the next arrival moving.
    #[cfg(target_os = "linux")]
    #[test]
    fn udp_representative_parks_the_idle_token_and_obeys_an_early_cancel() {
        use crate::udp::{DatapathMode, PeerMap, UdpTransport};

        let members = pids(3);
        let ring_id = RingId::new(members[0], 1);
        let transports = (0..50u16)
            .find_map(|attempt| {
                let map = PeerMap::localhost(3, 47_900 + attempt * 8);
                members
                    .iter()
                    .map(|&p| UdpTransport::bind_with_mode(p, map.clone(), DatapathMode::Batched))
                    .collect::<io::Result<Vec<_>>>()
                    .ok()
            })
            .expect("free UDP ports");
        // Slow timers: a descheduled test thread must not retransmit.
        let timeouts = ar_core::TimeoutConfig {
            token_retransmit: 200_000_000,
            token_loss: 2_000_000_000,
            ..ar_core::TimeoutConfig::default()
        };
        let mut wakers = Vec::new();
        let mut ring: Vec<_> = members
            .iter()
            .zip(transports)
            .map(|(&p, t)| {
                let mut part =
                    Participant::new(p, ProtocolConfig::accelerated(), ring_id, members.clone())
                        .unwrap();
                part.set_timeouts(timeouts).unwrap();
                let mut rt = Runtime::new(part, t);
                let (waker, wake) = crate::wake_pair().unwrap();
                assert!(rt.attach_wake(wake));
                wakers.push(waker);
                rt.set_metrics(NetMetrics::detached());
                rt
            })
            .collect();
        let step = |rt: &mut Runtime<UdpTransport>| {
            rt.step_with_wait(Duration::from_millis(50)).unwrap();
        };
        let holds = |rt: &Runtime<UdpTransport>, why: Release| {
            rt.metrics().unwrap().token_holds[why.index()].get()
        };
        ring[0].start().unwrap();
        for arrival in 1..=3 {
            step(&mut ring[1]);
            step(&mut ring[2]);
            step(&mut ring[0]);
            assert_eq!(
                ring[0].hold.is_holding(),
                arrival == 3,
                "arrival {arrival}: held only after two idle rotations"
            );
        }
        // Nothing to send: the hold runs out at token_retransmit / 2.
        let parked = Instant::now();
        while ring[0].hold.is_holding() {
            step(&mut ring[0]);
        }
        assert!(parked.elapsed() >= Duration::from_millis(90));
        assert_eq!(holds(&ring[0], Release::Deadline), 1);
        // The token passes member 1, which then has something to send:
        // its cancel reaches the representative before the token does.
        step(&mut ring[1]);
        ring[1]
            .submit(Bytes::from_static(b"late"), ServiceType::Agreed)
            .unwrap();
        step(&mut ring[0]);
        assert!(!ring[0].hold.is_holding(), "the cancel arrived alone");
        step(&mut ring[2]);
        step(&mut ring[0]);
        assert!(
            !ring[0].hold.is_holding(),
            "an early cancel keeps the next idle token moving"
        );
        step(&mut ring[1]);
        assert_eq!(ring[1].participant().stats().messages_initiated, 1);
        assert_eq!(holds(&ring[0], Release::Cancel), 0);
        drop(wakers);
    }

    #[test]
    fn transports_that_cannot_wait_on_a_wake_never_hold() {
        let mut ring = build_ring(2);
        let (_waker, wake) = crate::wake_pair().unwrap();
        assert!(!ring[0].attach_wake(wake), "loopback declines the wake");
        let mut idle = Token::initial(ring[0].part.ring().id(), Seq::ZERO);
        let local = ring[0].local();
        for round in 1..=3 {
            idle.round = ar_core::Round::new(round);
            let handed = ring[0].hold.on_token(0, idle.clone(), &local);
            assert!(handed.is_some(), "round {round}");
        }
    }

    #[test]
    fn receiving_a_token_resets_retransmit_backoff() {
        let net = LoopbackNet::new();
        let members = pids(2);
        let ring_id = RingId::new(members[0], 1);
        let part = Participant::new(
            members[1],
            ProtocolConfig::accelerated(),
            ring_id,
            members.clone(),
        )
        .unwrap();
        let mut rt = Runtime::new(part, net.endpoint(members[1]));
        let mut peer = net.endpoint(members[0]);
        for _ in 0..4 {
            rt.retransmit_backoff.step();
        }
        peer.send_to(
            members[1],
            &Message::Token(ar_core::Token::initial(ring_id, ar_core::Seq::ZERO)),
        )
        .unwrap();
        rt.step().unwrap();
        assert_eq!(rt.retransmit_backoff.shift(), 0);
    }
}
