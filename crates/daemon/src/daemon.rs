//! The daemon: one protocol participant serving many local clients.
//!
//! The daemon thread owns the protocol runtime and the group table. All
//! client interaction happens over channels (standing in for the
//! paper's IPC sockets): clients submit commands; the daemon pushes
//! ordered messages and membership events back. Everything that must be
//! consistent across daemons — group joins and leaves as well as data —
//! travels through the ring's total order.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ar_core::{ConfigChangeKind, Delivery, Participant, ParticipantId, ServiceType};
use ar_log::{FsyncPolicy, LogConfig, SegmentedLog};
use ar_telemetry::Counter;
use bytes::Bytes;

use ar_net::{AppEvent, Runtime, Transport, WakeReceiver, Waker};

use crate::client::{ClientError, ClientEvent, DaemonClient};
use crate::group::GroupTable;
use crate::metrics::TelemetryHub;
use crate::packing::{decode_bundle, BundleEntry, Packer, Reassembler, DEFAULT_BUNDLE_BUDGET};
use crate::proto::{Envelope, MemberId, MAX_NAME};

/// Commands from client sessions to the daemon thread.
#[derive(Debug)]
pub(crate) enum Command {
    Register {
        name: String,
        session: Session,
        ack: SyncSender<Result<(), ClientError>>,
    },
    Unregister {
        client: String,
    },
    Join {
        client: String,
        group: String,
    },
    Leave {
        client: String,
        group: String,
    },
    Multicast {
        client: String,
        groups: Vec<String>,
        service: ServiceType,
        /// Per-publisher sequence stamp (0 = unstamped); travels in the
        /// ordered envelope for cross-shard FIFO restoration.
        stamp: u64,
        payload: Bytes,
    },
}

/// The command channel into a daemon loop. Every send is followed by a
/// wake of the loop's transport wait, so a ring thread blocked there
/// (an idle ring's token is held, see [`ar_net::hold`]) picks the
/// command up at once, not at its next token or timer.
#[derive(Debug, Clone)]
pub(crate) struct CommandTx {
    tx: Sender<Command>,
    waker: Waker,
}

impl CommandTx {
    /// Queues `cmd` and wakes the loop.
    pub(crate) fn send(&self, cmd: Command) -> Result<(), ClientError> {
        self.tx.send(cmd).map_err(|_| ClientError::DaemonDown)?;
        self.waker.wake();
        Ok(())
    }
}

/// Live backpressure signals shared between the daemon loop and the
/// client service tier (`ar-svc`).
///
/// The daemon loop refreshes these every iteration; the service tier
/// reads them when deciding whether to hand out publish credits, so
/// offered load backs off *before* the ring's send queue (and the
/// daemon's memory) can grow without bound.
#[derive(Debug, Default)]
pub struct RingPressure {
    /// Protocol send-queue depth plus the daemon's backpressured
    /// outbox, in bundles.
    send_queue: AtomicUsize,
}

impl RingPressure {
    /// Current send-queue depth (protocol pending + daemon outbox).
    pub fn send_queue_depth(&self) -> usize {
        self.send_queue.load(Ordering::Relaxed)
    }

    /// Replaces the depth (called by the daemon loop).
    pub fn set_send_queue_depth(&self, depth: usize) {
        self.send_queue.store(depth, Ordering::Relaxed);
    }
}

/// Handle to a running daemon.
///
/// Dropping the handle shuts the daemon down and joins its thread.
#[derive(Debug)]
pub struct DaemonHandle {
    pid: ParticipantId,
    cmd_tx: CommandTx,
    shutdown_tx: SyncSender<()>,
    pressure: Arc<RingPressure>,
    join: Option<JoinHandle<io::Result<()>>>,
}

/// Durable-log configuration for a daemon (see [`ar_log`]).
///
/// When attached, every ordered delivery is appended to a segmented
/// on-disk log at Agreed time; on restart the daemon recovers its ring
/// identity, delivery cursor, and group state from disk before joining
/// the ring. With `gate_safe` on, Safe deliveries are additionally
/// withheld from the application until the record is fsynced, making
/// "Safe" mean *replicated and durable*.
#[derive(Debug, Clone)]
pub struct DaemonLogConfig {
    /// Directory holding the log segments (created if missing).
    pub dir: PathBuf,
    /// When appended records are forced to disk.
    pub fsync: FsyncPolicy,
    /// Gate Safe delivery on local durability.
    pub gate_safe: bool,
}

impl DaemonLogConfig {
    /// Log in `dir` with the default fsync policy and Safe gating on.
    pub fn new(dir: impl Into<PathBuf>) -> DaemonLogConfig {
        DaemonLogConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::EveryN(64),
            gate_safe: true,
        }
    }

    /// Sets the fsync policy.
    #[must_use]
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> DaemonLogConfig {
        self.fsync = fsync;
        self
    }

    /// Enables or disables gating Safe delivery on local durability.
    #[must_use]
    pub fn with_gate_safe(mut self, gate: bool) -> DaemonLogConfig {
        self.gate_safe = gate;
        self
    }
}

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Byte budget for packing client messages into one protocol
    /// payload (Spread's small-message packing; §IV-A.3 of the paper).
    /// Client messages larger than the budget are fragmented.
    pub bundle_budget: usize,
    /// On shutdown, keep stepping the protocol for at most this long
    /// while already-submitted client messages drain out (packers,
    /// outbox, and the protocol send queue). Zero returns immediately.
    pub drain_timeout: Duration,
    /// When set, the daemon records runtime metrics into the hub's
    /// registry, attaches its flight recorder to the participant, and
    /// refreshes the hub's stats snapshot every loop iteration. Serve
    /// it with [`crate::serve_metrics`].
    pub telemetry: Option<std::sync::Arc<TelemetryHub>>,
    /// When set, deliveries are persisted to a segmented on-disk log
    /// and recovered (ring identity, cursor, group state) on restart.
    pub log: Option<DaemonLogConfig>,
    /// Ring shard index this daemon serves, when it is one of several
    /// rings hosted by a [`ShardedDaemon`](crate::ShardedDaemon).
    /// Telemetry series and stats snapshots are labelled with it so N
    /// shards sharing one hub export side by side.
    pub shard: Option<usize>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            bundle_budget: DEFAULT_BUNDLE_BUDGET,
            drain_timeout: Duration::from_millis(500),
            telemetry: None,
            log: None,
            shard: None,
        }
    }
}

/// Spawns a daemon thread serving the given participant over the given
/// transport, with default tuning.
pub fn spawn_daemon<T: Transport + Send + 'static>(
    part: Participant,
    transport: T,
) -> DaemonHandle {
    spawn_daemon_with(part, transport, DaemonConfig::default())
}

/// Spawns a daemon with explicit tuning.
pub fn spawn_daemon_with<T: Transport + Send + 'static>(
    part: Participant,
    transport: T,
    config: DaemonConfig,
) -> DaemonHandle {
    let pid = part.pid();
    let (tx, cmd_rx) = channel::<Command>();
    // Like the thread spawn below, this fails only when the process is
    // out of descriptors.
    let (waker, wake) = ar_net::wake_pair().expect("daemon wake socket pair");
    let (shutdown_tx, shutdown_rx) = sync_channel::<()>(1);
    let pressure = Arc::new(RingPressure::default());
    let pressure2 = Arc::clone(&pressure);
    let join = std::thread::Builder::new()
        .name(format!("ar-ring-{}", config.shard.unwrap_or(0)))
        .spawn(move || {
            DaemonLoop::new(
                part,
                transport,
                config,
                cmd_rx,
                shutdown_rx,
                pressure2,
                wake,
            )?
            .run()
        })
        .expect("spawn daemon thread");
    DaemonHandle {
        pid,
        cmd_tx: CommandTx { tx, waker },
        shutdown_tx,
        pressure,
        join: Some(join),
    }
}

impl DaemonHandle {
    /// The daemon's participant identifier.
    pub fn pid(&self) -> ParticipantId {
        self.pid
    }

    /// The shared backpressure gauge the daemon loop refreshes every
    /// iteration (send-queue depth for the service tier's credit
    /// throttling).
    pub fn ring_pressure(&self) -> Arc<RingPressure> {
        Arc::clone(&self.pressure)
    }

    /// A cloneable, `Send` connector for registering clients from
    /// other threads (the `ar-svc` service tier runs its multiplexer
    /// on its own thread and cannot borrow the handle).
    pub fn connector(&self) -> DaemonConnector {
        DaemonConnector {
            pid: self.pid,
            cmd_tx: self.cmd_tx.clone(),
        }
    }

    /// Connects a new client with the given private name and the
    /// default bounded event queue
    /// ([`crate::client::DEFAULT_EVENT_CAPACITY`]). Once the queue
    /// holds that many undrained events, further events are dropped
    /// and counted ([`DaemonClient::dropped_events`]) instead of
    /// growing daemon memory.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::InvalidName`],
    /// [`ClientError::DuplicateName`], or [`ClientError::DaemonDown`].
    pub fn connect(&self, name: &str) -> Result<DaemonClient, ClientError> {
        self.connector()
            .connect_inner(name, crate::client::DEFAULT_EVENT_CAPACITY, None)
    }

    /// Stops the daemon and returns its loop result.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error the daemon loop hit.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.shutdown_now()
    }

    fn shutdown_now(&mut self) -> io::Result<()> {
        let _ = self.shutdown_tx.try_send(());
        self.cmd_tx.waker.wake();
        match self.join.take() {
            Some(h) => h
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("daemon thread panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        let _ = self.shutdown_now();
    }
}

/// A cloneable, thread-safe way to register clients at a daemon (see
/// [`DaemonHandle::connector`]). Outliving the daemon is safe: every
/// operation then fails with [`ClientError::DaemonDown`].
#[derive(Debug, Clone)]
pub struct DaemonConnector {
    pid: ParticipantId,
    cmd_tx: CommandTx,
}

impl DaemonConnector {
    /// The daemon's participant identifier.
    pub fn pid(&self) -> ParticipantId {
        self.pid
    }

    /// Connects a service-tier session: like
    /// [`DaemonHandle::connect`] with an explicit event-queue
    /// capacity, but the session additionally receives a
    /// [`ClientEvent::Ordered`] each time one of its own multicasts is
    /// applied (the `ar-svc` tier replenishes per-client publish
    /// credits at Agreed time), and the daemon loop calls `waker` once
    /// after every dispatch batch that queued the session an event, so
    /// the tier's polling thread drains it without waiting for its
    /// next tick.
    ///
    /// # Errors
    ///
    /// As for [`DaemonHandle::connect`].
    pub fn connect_service(
        &self,
        name: &str,
        capacity: usize,
        waker: Waker,
    ) -> Result<DaemonClient, ClientError> {
        self.connect_inner(name, capacity, Some(waker))
    }

    fn connect_inner(
        &self,
        name: &str,
        capacity: usize,
        waker: Option<Waker>,
    ) -> Result<DaemonClient, ClientError> {
        if name.is_empty() || name.len() > MAX_NAME {
            return Err(ClientError::InvalidName);
        }
        // Unbounded, with the bound kept by `queued`: a preallocated
        // `sync_channel(capacity)` would touch every slot up front.
        let (events_tx, events_rx) = channel();
        let (ack_tx, ack_rx) = sync_channel(1);
        let queued = Arc::new(AtomicUsize::new(0));
        let drops = Arc::new(AtomicU64::new(0));
        self.cmd_tx.send(Command::Register {
            name: name.to_string(),
            session: Session {
                tx: events_tx,
                capacity: capacity.max(1),
                queued: Arc::clone(&queued),
                waker,
                drops: Arc::clone(&drops),
            },
            ack: ack_tx,
        })?;
        ack_rx
            .recv_timeout(Duration::from_secs(10))
            .map_err(|_| ClientError::DaemonDown)??;
        Ok(DaemonClient {
            me: MemberId::new(self.pid, name),
            cmd_tx: self.cmd_tx.clone(),
            events: events_rx,
            queued,
            dropped: drops,
        })
    }
}

/// A registered client session, as the daemon loop sees it.
#[derive(Debug)]
pub(crate) struct Session {
    tx: Sender<ClientEvent>,
    /// The queue's bound: an event that finds `capacity` queued is
    /// dropped.
    capacity: usize,
    /// Events queued and not yet taken (shared with the client handle,
    /// which decrements it).
    queued: Arc<AtomicUsize>,
    /// Set for a service-tier session: it receives
    /// [`ClientEvent::Ordered`] for its own applied multicasts (the
    /// tier's credit-replenishment signal), and the tier's polling
    /// thread is woken after every dispatch batch that queued it an
    /// event.
    waker: Option<Waker>,
    /// Events dropped because the bounded queue was full (shared with
    /// the client handle / service tier).
    drops: Arc<AtomicU64>,
}

impl Session {
    /// Non-blocking event delivery: a stalled client loses events (and
    /// they are counted) rather than stalling the protocol loop. A
    /// service-tier session's waker joins `to_wake` (once per target)
    /// for the end of the batch.
    fn push(&self, ev: ClientEvent, overflow: &Counter, to_wake: &mut Vec<Waker>) {
        // The ring thread is the queue's only producer, so the count
        // cannot rise between the check and the send; the client only
        // lowers it.
        let sent = self.queued.load(Ordering::Relaxed) < self.capacity && {
            self.queued.fetch_add(1, Ordering::Relaxed);
            self.tx.send(ev).is_ok()
        };
        if !sent {
            self.drops.fetch_add(1, Ordering::Relaxed);
            overflow.add(1);
            return;
        }
        if let Some(w) = &self.waker {
            if !to_wake.iter().any(|queued| queued.same_target(w)) {
                to_wake.push(w.clone());
            }
        }
    }
}

struct DaemonLoop<T: Transport> {
    rt: Runtime<T>,
    pid: ParticipantId,
    cmd_rx: Receiver<Command>,
    shutdown_rx: Receiver<()>,
    sessions: HashMap<String, Session>,
    groups: GroupTable,
    /// Per-service packers bundling small messages together (a bundle
    /// travels as one protocol payload with one service level).
    packers: HashMap<ServiceType, Packer>,
    /// Rebuilds fragmented large messages from the ordered stream.
    reassembler: Reassembler,
    /// Bundles waiting for protocol queue space (backpressure).
    outbox: VecDeque<(Bytes, ServiceType)>,
    bundle_budget: usize,
    drain_timeout: Duration,
    next_msg_id: u64,
    /// Daemons in the last installed regular configuration, to detect
    /// merges (newly added daemons) that require a group-state
    /// re-announcement.
    ring_daemons: Vec<ParticipantId>,
    /// Telemetry hub to refresh each iteration, when instrumented.
    telemetry: Option<std::sync::Arc<TelemetryHub>>,
    /// Deliveries recovered from the durable log at startup, replayed
    /// through the normal dispatch path (before any client connects)
    /// to rebuild group and reassembly state.
    replay: Vec<AppEvent>,
    /// Buffered log records lost because the shutdown flush failed.
    log_tail_dropped: Counter,
    /// Client events dropped across all sessions (bounded queues full).
    event_overflow: Counter,
    /// Shared backpressure gauge, refreshed at the end of every
    /// dispatch batch (so every loop iteration).
    pressure: Arc<RingPressure>,
    /// Service tiers that were queued an event by the dispatch batch
    /// in progress; woken, and emptied, when the batch ends.
    to_wake: Vec<Waker>,
    /// Shard index for telemetry labelling (0 when unsharded).
    shard: usize,
}

impl<T: Transport> DaemonLoop<T> {
    fn new(
        part: Participant,
        transport: T,
        config: DaemonConfig,
        cmd_rx: Receiver<Command>,
        shutdown_rx: Receiver<()>,
        pressure: Arc<RingPressure>,
        wake: WakeReceiver,
    ) -> io::Result<DaemonLoop<T>> {
        let pid = part.pid();
        let mut rt = Runtime::new(part, transport);
        // Where the transport cannot wait on the wake (loopback, the
        // portable UDP path) the token never parks, and its rotation
        // bounds how long a command waits, as before.
        rt.attach_wake(wake);
        let labels = config
            .shard
            .map(ar_net::NetMetrics::shard_labels)
            .unwrap_or_default();
        if let Some(hub) = &config.telemetry {
            rt.set_metrics(ar_net::NetMetrics::register_labeled(&hub.registry, &labels));
            rt.set_observer(hub.flight.clone());
        }
        let log_tail_dropped = match &config.telemetry {
            Some(hub) => hub.registry.counter_labeled(
                "ar_daemon_log_tail_dropped_total",
                &labels,
                "Buffered durable-log records dropped because the shutdown flush failed",
            ),
            None => Counter::default(),
        };
        let event_overflow = match &config.telemetry {
            Some(hub) => hub.registry.counter_labeled(
                "ar_daemon_client_event_overflow_total",
                &labels,
                "Client events dropped because a session's bounded event queue was full",
            ),
            None => Counter::default(),
        };
        let mut replay = Vec::new();
        if let Some(log_cfg) = &config.log {
            let cfg = LogConfig::new(&log_cfg.dir).with_fsync(log_cfg.fsync);
            let (log, recovered) = SegmentedLog::open(cfg)?;
            // Replay the full recovered delivery stream so the group
            // table and reassembler reconverge to their pre-crash
            // state. No client sessions exist yet, so nothing is
            // re-delivered to applications; Join/Leave application is
            // idempotent.
            replay = recovered
                .deliveries
                .iter()
                .map(|(_, r)| {
                    AppEvent::Delivered(Delivery {
                        ring_id: r.ring,
                        seq: r.seq,
                        pid: r.pid,
                        service: r.service,
                        payload: r.payload.clone(),
                    })
                })
                .collect();
            rt.attach_durable_log(log, log_cfg.gate_safe);
        }
        Ok(DaemonLoop {
            rt,
            pid,
            cmd_rx,
            shutdown_rx,
            sessions: HashMap::new(),
            groups: GroupTable::new(),
            packers: HashMap::new(),
            reassembler: Reassembler::new(),
            outbox: VecDeque::new(),
            bundle_budget: config.bundle_budget,
            drain_timeout: config.drain_timeout,
            next_msg_id: 0,
            ring_daemons: Vec::new(),
            telemetry: config.telemetry,
            replay,
            log_tail_dropped,
            event_overflow,
            pressure,
            to_wake: Vec::new(),
            shard: config.shard.unwrap_or(0),
        })
    }

    fn run(mut self) -> io::Result<()> {
        let replay = std::mem::take(&mut self.replay);
        self.dispatch(replay);
        // Local members recovered from the log belong to the previous
        // incarnation and have no session any more: drop them so a
        // later merge does not re-announce phantoms. Remote state
        // self-heals through retain_daemons and join re-announcement
        // on the first installed configuration.
        for group in self.groups.group_names() {
            for m in self.groups.members(&group) {
                if m.daemon == self.pid && !self.sessions.contains_key(&m.client) {
                    self.groups.leave(&group, &m);
                }
            }
        }
        let events = self.rt.start()?;
        self.dispatch(events);
        loop {
            if self.shutdown_rx.try_recv().is_ok() {
                return self.drain();
            }
            // Drain a burst of commands first so messages submitted
            // together pack together. Each command's sender woke the
            // transport wait in `step`, so commands never wait for a
            // token to end it.
            while let Ok(cmd) = self.cmd_rx.try_recv() {
                self.handle_command(cmd);
            }
            self.drain_packers();
            self.flush_outbox();
            let events = self.rt.step()?;
            self.dispatch(events);
            if let Some(hub) = &self.telemetry {
                hub.update_shard_stats(self.shard, *self.rt.participant().stats());
            }
        }
    }

    /// Graceful shutdown: flush everything clients already handed us —
    /// packed bundles, the backpressured outbox, and the protocol send
    /// queue — by continuing to step the ring, bounded by the
    /// configured drain timeout. A daemon killed mid-burst would
    /// otherwise silently discard ordered-but-unsent client messages.
    fn drain(&mut self) -> io::Result<()> {
        let deadline = std::time::Instant::now() + self.drain_timeout;
        while let Ok(cmd) = self.cmd_rx.try_recv() {
            self.handle_command(cmd);
        }
        self.drain_packers();
        loop {
            let idle = self.outbox.is_empty() && self.rt.participant().pending_len() == 0;
            if idle || std::time::Instant::now() >= deadline {
                break;
            }
            self.flush_outbox();
            let events = self.rt.step()?;
            self.dispatch(events);
        }
        // Force the buffered durable-log tail to disk before exiting:
        // records the runtime already appended must survive a clean
        // shutdown regardless of fsync policy. A failed flush is
        // counted, not swallowed silently.
        let unsynced = self
            .rt
            .durable_log()
            .map_or(0, |log| log.unsynced_records());
        match self.rt.flush_durable_log() {
            Ok(events) => self.dispatch(events),
            Err(e) => {
                let lost = unsynced.max(1);
                self.log_tail_dropped.add(lost);
                if let Some(hub) = &self.telemetry {
                    use ar_core::Observer;
                    hub.flight.on_event(
                        self.rt.elapsed_nanos(),
                        &ar_core::ProtoEvent::LogTailDropped { records: lost },
                    );
                }
                eprintln!(
                    "ar-daemon {}: durable log tail lost on shutdown: {e}",
                    self.pid
                );
            }
        }
        Ok(())
    }

    fn packer(&mut self, service: ServiceType) -> &mut Packer {
        let budget = self.bundle_budget;
        self.packers
            .entry(service)
            .or_insert_with(|| Packer::new(budget))
    }

    fn submit_envelope(&mut self, env: Envelope, service: ServiceType) {
        self.packer(service).push(env);
    }

    fn drain_packers(&mut self) {
        // Deterministic order over the small service set.
        for service in [
            ServiceType::Reliable,
            ServiceType::Fifo,
            ServiceType::Causal,
            ServiceType::Agreed,
            ServiceType::Safe,
        ] {
            if let Some(p) = self.packers.get_mut(&service) {
                while let Some(bundle) = p.next_bundle() {
                    self.outbox.push_back((bundle, service));
                }
            }
        }
    }

    fn flush_outbox(&mut self) {
        while let Some((bytes, service)) = self.outbox.front() {
            match self.rt.submit(bytes.clone(), *service) {
                Ok(()) => {
                    self.outbox.pop_front();
                }
                Err(_) => break, // protocol backpressure: retry next loop
            }
        }
    }

    fn handle_command(&mut self, cmd: Command) {
        match cmd {
            Command::Register { name, session, ack } => {
                let result = match self.sessions.entry(name) {
                    std::collections::hash_map::Entry::Occupied(_) => {
                        Err(ClientError::DuplicateName)
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(session);
                        Ok(())
                    }
                };
                let _ = ack.send(result);
            }
            Command::Unregister { client } => {
                self.sessions.remove(&client);
                // Ordered leaves for every group the client was in.
                let me = MemberId::new(self.pid, client);
                for group in self.groups.group_names() {
                    if self.groups.is_member(&group, &me) {
                        self.submit_envelope(
                            Envelope::Leave {
                                member: me.clone(),
                                group,
                            },
                            ServiceType::Agreed,
                        );
                    }
                }
            }
            Command::Join { client, group } => {
                let member = MemberId::new(self.pid, client);
                self.submit_envelope(Envelope::Join { member, group }, ServiceType::Agreed);
            }
            Command::Leave { client, group } => {
                let member = MemberId::new(self.pid, client);
                self.submit_envelope(Envelope::Leave { member, group }, ServiceType::Agreed);
            }
            Command::Multicast {
                client,
                groups,
                service,
                stamp,
                payload,
            } => {
                let sender = MemberId::new(self.pid, client);
                let msg_id = self.next_msg_id;
                self.next_msg_id += 1;
                self.packer(service)
                    .push_data(sender, groups, payload, msg_id, stamp);
            }
        }
    }

    fn dispatch(&mut self, events: Vec<AppEvent>) {
        for ev in events {
            match ev {
                AppEvent::Delivered(d) => {
                    let Ok(entries) = decode_bundle(&d.payload) else {
                        continue; // not ours / corrupt: skip
                    };
                    let ring_seq = d.seq.as_u64();
                    for entry in entries {
                        match entry {
                            BundleEntry::Whole(env) => {
                                self.apply_envelope(env, d.service, ring_seq);
                            }
                            BundleEntry::Fragment(f) => {
                                if let Some((sender, stamp, groups, payload)) =
                                    self.reassembler.feed(f)
                                {
                                    self.apply_envelope(
                                        Envelope::Data {
                                            sender,
                                            stamp,
                                            groups,
                                            payload,
                                        },
                                        d.service,
                                        ring_seq,
                                    );
                                }
                            }
                        }
                    }
                }
                AppEvent::ConfigChanged(c) => {
                    if c.kind == ConfigChangeKind::Regular {
                        self.reassembler.retain_daemons(&c.members);
                        let changed = self.groups.retain_daemons(&c.members);
                        for g in changed {
                            self.notify_membership(&g);
                        }
                        // A merge brought in daemons that never saw our
                        // local clients' joins (group updates are
                        // confined to the configuration they were
                        // ordered in). Re-announce local memberships
                        // through the merged ring so every daemon's
                        // group table reconverges; duplicate joins are
                        // idempotent.
                        let merged = c.members.iter().any(|m| !self.ring_daemons.contains(m));
                        self.ring_daemons = c.members.clone();
                        if merged {
                            self.reannounce_local_groups();
                        }
                        let note = ClientEvent::NetworkChange {
                            daemons: c.members.clone(),
                        };
                        for s in self.sessions.values() {
                            s.push(note.clone(), &self.event_overflow, &mut self.to_wake);
                        }
                    }
                }
            }
        }
        // The gauge first, so the pass a wake starts does not decide
        // credit grants on the depth from before the batch; then one
        // wake per tier, however many events the batch queued it.
        self.pressure
            .set_send_queue_depth(self.rt.participant().pending_len() + self.outbox.len());
        for waker in self.to_wake.drain(..) {
            waker.wake();
        }
    }

    fn apply_envelope(&mut self, env: Envelope, service: ServiceType, ring_seq: u64) {
        match env {
            Envelope::Data {
                sender,
                stamp,
                groups,
                payload,
            } => {
                // Recipients' Message events are pushed BEFORE the
                // sender's Ordered ack. The service tier's publish gate
                // depends on this order: once it observes
                // Ordered{stamp}, every local recipient's queue already
                // holds the matching Message, so the publisher's next
                // publish, which the gate forwards to another shard
                // only after that, can never reach a queue first.
                let recipients = self.groups.local_recipients(self.pid, &groups);
                for r in recipients {
                    if let Some(s) = self.sessions.get(&r.client) {
                        s.push(
                            ClientEvent::Message {
                                sender: sender.clone(),
                                groups: groups.clone(),
                                service,
                                ring_seq,
                                stamp,
                                payload: payload.clone(),
                            },
                            &self.event_overflow,
                            &mut self.to_wake,
                        );
                    }
                }
                // The sender's session learns its multicast reached
                // Agreed order, if it opted into send acks (the
                // service tier's publish-credit replenishment; the
                // stamp correlates acks to sends across shards, and a
                // client's own messages are applied in submission
                // order within one shard).
                if sender.daemon == self.pid {
                    if let Some(s) = self.sessions.get(&sender.client) {
                        if s.waker.is_some() {
                            s.push(
                                ClientEvent::Ordered { ring_seq, stamp },
                                &self.event_overflow,
                                &mut self.to_wake,
                            );
                        }
                    }
                }
            }
            Envelope::Join { member, group } => {
                if self.groups.join(&group, member) {
                    self.notify_membership(&group);
                }
            }
            Envelope::Leave { member, group } => {
                let was_local = member.daemon == self.pid;
                let leaver = member.clone();
                if self.groups.leave(&group, &member) {
                    self.notify_membership(&group);
                    // The leaver itself also learns the leave took
                    // effect (it is no longer in the table).
                    if was_local {
                        if let Some(s) = self.sessions.get(&leaver.client) {
                            s.push(
                                ClientEvent::Membership {
                                    group: group.clone(),
                                    members: self.groups.members(&group),
                                },
                                &self.event_overflow,
                                &mut self.to_wake,
                            );
                        }
                    }
                }
            }
        }
    }

    /// Re-submits an ordered join for every (group, local member)
    /// pair, so daemons that just merged into our configuration learn
    /// of our clients' memberships.
    fn reannounce_local_groups(&mut self) {
        let mut mine = Vec::new();
        for group in self.groups.group_names() {
            for m in self.groups.members(&group) {
                if m.daemon == self.pid {
                    mine.push((group.clone(), m));
                }
            }
        }
        for (group, member) in mine {
            self.submit_envelope(Envelope::Join { member, group }, ServiceType::Agreed);
        }
    }

    /// Sends the group's complete membership to every *local* member.
    fn notify_membership(&mut self, group: &str) {
        let members = self.groups.members(group);
        for m in &members {
            if m.daemon != self.pid {
                continue;
            }
            if let Some(s) = self.sessions.get(&m.client) {
                s.push(
                    ClientEvent::Membership {
                        group: group.to_string(),
                        members: members.clone(),
                    },
                    &self.event_overflow,
                    &mut self.to_wake,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_core::{ProtocolConfig, RingId};
    use ar_net::LoopbackNet;
    use std::time::Instant;

    fn ring_of_daemons(n: u16) -> Vec<DaemonHandle> {
        let net = LoopbackNet::new();
        let members: Vec<ParticipantId> = (0..n).map(ParticipantId::new).collect();
        let ring_id = RingId::new(members[0], 1);
        members
            .iter()
            .map(|&p| {
                let part =
                    Participant::new(p, ProtocolConfig::accelerated(), ring_id, members.clone())
                        .unwrap();
                spawn_daemon(part, net.endpoint(p))
            })
            .collect()
    }

    fn wait_for<F: FnMut() -> bool>(mut f: F, secs: u64) -> bool {
        let deadline = Instant::now() + Duration::from_secs(secs);
        while Instant::now() < deadline {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn the_ring_thread_is_named_after_its_shard() {
        let net = LoopbackNet::new();
        let pid = ParticipantId::new(0);
        let part = Participant::new(
            pid,
            ProtocolConfig::accelerated(),
            RingId::new(pid, 1),
            vec![pid],
        )
        .unwrap();
        let config = DaemonConfig {
            shard: Some(1),
            ..DaemonConfig::default()
        };
        let daemon = spawn_daemon_with(part, net.endpoint(pid), config);
        // The new thread sets its own name as it starts, so poll.
        let named = || {
            std::fs::read_dir("/proc/self/task")
                .unwrap()
                .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                .any(|comm| comm.trim_end() == "ar-ring-1")
        };
        assert!(wait_for(named, 10));
        daemon.shutdown().unwrap();
    }

    #[test]
    fn a_full_event_queue_drops_and_counts_until_drained() {
        const CAP: usize = 4;
        const OVER: u64 = 3;
        let daemons = ring_of_daemons(1);
        let sub = daemons[0]
            .connector()
            .connect_inner("sub", CAP, None)
            .unwrap();
        let publisher = daemons[0].connect("pub").unwrap();
        sub.join("g").unwrap();
        assert!(matches!(
            sub.recv(Duration::from_secs(10)),
            Some(ClientEvent::Membership { .. })
        ));
        let send = |k: usize| {
            let payload = Bytes::from(format!("m{k}"));
            publisher
                .multicast(&["g"], ServiceType::Agreed, payload)
                .unwrap();
        };

        // Nobody drains: CAP events queue, the rest are refused.
        (0..CAP + OVER as usize).for_each(send);
        assert!(wait_for(|| sub.dropped_events() == OVER, 10));
        let queued = sub.drain();
        assert_eq!(queued.len(), CAP);
        assert!(queued
            .iter()
            .all(|ev| matches!(ev, ClientEvent::Message { .. })));

        // Drained: the queue takes events again.
        (0..2).for_each(send);
        for _ in 0..2 {
            assert!(matches!(
                sub.recv(Duration::from_secs(10)),
                Some(ClientEvent::Message { .. })
            ));
        }
        assert_eq!(sub.dropped_events(), OVER);
    }

    #[test]
    fn join_multicast_deliver_across_daemons() {
        let daemons = ring_of_daemons(2);
        let alice = daemons[0].connect("alice").unwrap();
        let bob = daemons[1].connect("bob").unwrap();
        alice.join("chat").unwrap();
        bob.join("chat").unwrap();

        // Wait until both see a 2-member group.
        let mut alice_members = 0;
        assert!(wait_for(
            || {
                for ev in alice.drain() {
                    if let ClientEvent::Membership { members, .. } = ev {
                        alice_members = members.len();
                    }
                }
                alice_members == 2
            },
            10
        ));

        bob.multicast(&["chat"], ServiceType::Agreed, Bytes::from_static(b"hi"))
            .unwrap();
        let mut got = None;
        assert!(wait_for(
            || {
                for ev in alice.drain() {
                    if let ClientEvent::Message {
                        payload, sender, ..
                    } = ev
                    {
                        got = Some((payload, sender));
                    }
                }
                got.is_some()
            },
            10
        ));
        let (payload, sender) = got.unwrap();
        assert_eq!(payload, Bytes::from_static(b"hi"));
        assert_eq!(sender.client, "bob");
    }

    #[test]
    fn open_group_semantics_sender_not_a_member() {
        let daemons = ring_of_daemons(2);
        let member = daemons[0].connect("member").unwrap();
        let outsider = daemons[1].connect("outsider").unwrap();
        member.join("g").unwrap();
        assert!(wait_for(
            || member
                .drain()
                .iter()
                .any(|e| matches!(e, ClientEvent::Membership { .. })),
            10
        ));
        outsider
            .multicast(&["g"], ServiceType::Agreed, Bytes::from_static(b"open"))
            .unwrap();
        assert!(wait_for(
            || member
                .drain()
                .iter()
                .any(|e| matches!(e, ClientEvent::Message { .. })),
            10
        ));
        // The outsider, not being a member, receives nothing.
        assert!(outsider
            .drain()
            .iter()
            .all(|e| !matches!(e, ClientEvent::Message { .. })));
    }

    #[test]
    fn multi_group_multicast_delivers_once() {
        let daemons = ring_of_daemons(2);
        let c = daemons[0].connect("c").unwrap();
        c.join("g1").unwrap();
        c.join("g2").unwrap();
        assert!(wait_for(
            || {
                c.drain()
                    .iter()
                    .filter(|e| matches!(e, ClientEvent::Membership { .. }))
                    .count()
                    >= 1
                    && {
                        std::thread::sleep(Duration::from_millis(100));
                        true
                    }
            },
            10
        ));
        let sender = daemons[1].connect("s").unwrap();
        sender
            .multicast(
                &["g1", "g2"],
                ServiceType::Agreed,
                Bytes::from_static(b"once"),
            )
            .unwrap();
        // Exactly one copy arrives despite two matching groups.
        let mut count = 0;
        wait_for(
            || {
                count += c
                    .drain()
                    .iter()
                    .filter(|e| matches!(e, ClientEvent::Message { .. }))
                    .count();
                count >= 1
            },
            10,
        );
        std::thread::sleep(Duration::from_millis(200));
        count += c
            .drain()
            .iter()
            .filter(|e| matches!(e, ClientEvent::Message { .. }))
            .count();
        assert_eq!(count, 1);
    }

    #[test]
    fn large_message_is_fragmented_and_reassembled() {
        // 100 KiB payload: far beyond the bundle budget and beyond the
        // protocol's maximum payload, so it must travel as fragments
        // and arrive intact.
        let daemons = ring_of_daemons(2);
        let rx = daemons[0].connect("rx").unwrap();
        rx.join("big").unwrap();
        assert!(wait_for(
            || rx
                .drain()
                .iter()
                .any(|e| matches!(e, ClientEvent::Membership { .. })),
            10
        ));
        let tx = daemons[1].connect("tx").unwrap();
        let payload: Vec<u8> = (0..100 * 1024).map(|i| (i % 251) as u8).collect();
        tx.multicast(&["big"], ServiceType::Agreed, Bytes::from(payload.clone()))
            .unwrap();
        let mut got = None;
        assert!(wait_for(
            || {
                for ev in rx.drain() {
                    if let ClientEvent::Message { payload, .. } = ev {
                        got = Some(payload);
                    }
                }
                got.is_some()
            },
            20
        ));
        assert_eq!(got.unwrap(), Bytes::from(payload));
    }

    #[test]
    fn small_messages_pack_into_shared_bundles() {
        // Ten tiny messages submitted in one burst must reach the
        // receiver as ten distinct client messages (packing is
        // transparent), in submission order.
        let daemons = ring_of_daemons(2);
        let rx = daemons[0].connect("rx").unwrap();
        rx.join("g").unwrap();
        assert!(wait_for(
            || rx
                .drain()
                .iter()
                .any(|e| matches!(e, ClientEvent::Membership { .. })),
            10
        ));
        let tx = daemons[1].connect("tx").unwrap();
        for k in 0..10 {
            tx.multicast(
                &["g"],
                ServiceType::Agreed,
                Bytes::from(format!("tiny-{k}")),
            )
            .unwrap();
        }
        let mut texts = Vec::new();
        assert!(wait_for(
            || {
                for ev in rx.drain() {
                    if let ClientEvent::Message { payload, .. } = ev {
                        texts.push(String::from_utf8_lossy(&payload).into_owned());
                    }
                }
                texts.len() >= 10
            },
            20
        ));
        let expected: Vec<String> = (0..10).map(|k| format!("tiny-{k}")).collect();
        assert_eq!(texts, expected);
    }

    #[test]
    fn shutdown_drains_submitted_messages() {
        // A burst of multicasts followed by an immediate shutdown must
        // still reach the surviving daemon: the drain keeps stepping
        // the ring until the send queue empties (bounded by the drain
        // timeout), instead of discarding packed-but-unsent bundles.
        let net = LoopbackNet::new();
        let members: Vec<ParticipantId> = (0..2).map(ParticipantId::new).collect();
        let ring_id = RingId::new(members[0], 1);
        let mk = |p: ParticipantId| {
            Participant::new(p, ProtocolConfig::accelerated(), ring_id, members.clone()).unwrap()
        };
        let d0 = spawn_daemon(mk(members[0]), net.endpoint(members[0]));
        let d1 = spawn_daemon(mk(members[1]), net.endpoint(members[1]));
        let rx = d1.connect("rx").unwrap();
        rx.join("g").unwrap();
        assert!(wait_for(
            || rx
                .drain()
                .iter()
                .any(|e| matches!(e, ClientEvent::Membership { .. })),
            10
        ));
        let tx = d0.connect("tx").unwrap();
        for k in 0..5 {
            tx.multicast(
                &["g"],
                ServiceType::Agreed,
                Bytes::from(format!("drain-{k}")),
            )
            .unwrap();
        }
        drop(tx);
        d0.shutdown().unwrap();
        let mut texts = Vec::new();
        assert!(
            wait_for(
                || {
                    for ev in rx.drain() {
                        if let ClientEvent::Message { payload, .. } = ev {
                            texts.push(String::from_utf8_lossy(&payload).into_owned());
                        }
                    }
                    texts.len() >= 5
                },
                20
            ),
            "got only {texts:?}"
        );
        let expected: Vec<String> = (0..5).map(|k| format!("drain-{k}")).collect();
        assert_eq!(texts, expected);
    }

    #[test]
    fn duplicate_client_name_rejected() {
        let daemons = ring_of_daemons(1);
        let _a = daemons[0].connect("same").unwrap();
        assert_eq!(
            daemons[0].connect("same").unwrap_err(),
            ClientError::DuplicateName
        );
        // A different name is fine.
        let _b = daemons[0].connect("other").unwrap();
    }

    #[test]
    fn invalid_names_rejected() {
        let daemons = ring_of_daemons(1);
        assert_eq!(
            daemons[0].connect("").unwrap_err(),
            ClientError::InvalidName
        );
        let long = "x".repeat(MAX_NAME + 1);
        assert_eq!(
            daemons[0].connect(&long).unwrap_err(),
            ClientError::InvalidName
        );
    }

    #[test]
    fn durable_daemon_recovers_log_and_purges_phantom_members() {
        let dir = std::env::temp_dir().join(format!(
            "ar-daemon-durable-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mk = |p: ParticipantId| {
            let ring_id = RingId::new(p, 1);
            Participant::new(p, ProtocolConfig::accelerated(), ring_id, vec![p]).unwrap()
        };
        let log_cfg = DaemonLogConfig::new(&dir).with_fsync(ar_log::FsyncPolicy::EveryN(8));
        let cfg = DaemonConfig {
            log: Some(log_cfg.clone()),
            ..DaemonConfig::default()
        };
        // First incarnation: join a group, multicast, shut down.
        {
            let net = LoopbackNet::new();
            let d = spawn_daemon_with(
                mk(ParticipantId::new(0)),
                net.endpoint(ParticipantId::new(0)),
                cfg.clone(),
            );
            let c = d.connect("old").unwrap();
            c.join("g").unwrap();
            assert!(wait_for(
                || c.drain()
                    .iter()
                    .any(|e| matches!(e, ClientEvent::Membership { .. })),
                10
            ));
            c.multicast(&["g"], ServiceType::Safe, Bytes::from_static(b"durable"))
                .unwrap();
            assert!(wait_for(
                || c.drain()
                    .iter()
                    .any(|e| matches!(e, ClientEvent::Message { .. })),
                10
            ));
            drop(c);
            d.shutdown().unwrap();
        }
        // The shutdown flush made the tail durable regardless of policy.
        let recovered = ar_log::read_log_dir(&dir).unwrap();
        assert!(recovered.records > 0, "shutdown flushed the log tail");
        assert!(recovered.cursor.is_some(), "shutdown persisted the cursor");
        // Second incarnation: group state replays from disk, but the
        // previous incarnation's client must not survive as a phantom.
        {
            let net = LoopbackNet::new();
            let d = spawn_daemon_with(
                mk(ParticipantId::new(0)),
                net.endpoint(ParticipantId::new(0)),
                cfg,
            );
            let c = d.connect("fresh").unwrap();
            c.join("g").unwrap();
            let mut members = Vec::new();
            assert!(wait_for(
                || {
                    for ev in c.drain() {
                        if let ClientEvent::Membership { members: m, .. } = ev {
                            members = m;
                        }
                    }
                    !members.is_empty()
                },
                10
            ));
            let names: Vec<&str> = members.iter().map(|m| m.client.as_str()).collect();
            assert_eq!(
                names,
                vec!["fresh"],
                "phantom member resurrected: {names:?}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disconnect_leaves_groups() {
        let daemons = ring_of_daemons(2);
        let watcher = daemons[0].connect("watcher").unwrap();
        watcher.join("g").unwrap();
        {
            let temp = daemons[1].connect("temp").unwrap();
            temp.join("g").unwrap();
            // Wait for watcher to see both members.
            let mut n = 0;
            assert!(wait_for(
                || {
                    for ev in watcher.drain() {
                        if let ClientEvent::Membership { members, .. } = ev {
                            n = members.len();
                        }
                    }
                    n == 2
                },
                10
            ));
        } // temp drops: ordered leave
        let mut n = usize::MAX;
        assert!(wait_for(
            || {
                for ev in watcher.drain() {
                    if let ClientEvent::Membership { members, .. } = ev {
                        n = members.len();
                    }
                }
                n == 1
            },
            10
        ));
    }
}
