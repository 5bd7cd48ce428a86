//! The service-tier server: one thread multiplexing thousands of
//! client sockets onto one daemon — or onto the N ring shards of a
//! [`ShardedDaemon`].
//!
//! Each accepted connection (TCP or Unix-domain) is set non-blocking
//! and registered with an [`ar_net::PollSet`] — the same ppoll loop
//! the batched UDP datapath uses, at client-count scale. The loop:
//!
//! 1. polls listeners, client sockets and one wake descriptor for
//!    readability, and a client socket the kernel refused bytes on for
//!    writability too, so its backlog resumes as soon as it drains.
//!    Daemon events arrive on channels, not fds, so every session is
//!    registered at its daemon with the tier's [`ar_net::Waker`]: a
//!    ring thread that queued events signals it once per dispatch batch
//!    and the pass below runs tens of µs after the delivery. The 2 ms
//!    poll timeout remains as the housekeeping tick, for everything no
//!    descriptor announces: releasing deferred credits once ring
//!    pressure drops, park expiry and the stop flag;
//! 2. accepts new connections (refusing past `max_clients`);
//! 3. reads frames from the sockets the poll reported, handling
//!    Hello/Join/Leave/Publish/Ack/Goodbye;
//! 4. drains each session's daemon events into window-gated delivery
//!    queues and credit grants, then forwards the publishes the
//!    sessions' publish gates release;
//! 5. flushes write buffers — every frame a connection has queued goes
//!    out in one gathered write ([`WriteBuf::flush`]) — and evicts slow
//!    consumers per policy.
//!
//! Backpressure is end-to-end: each daemon loop publishes its ring
//! send-queue depth into [`ar_daemon::RingPressure`]; while *any*
//! shard is above the configured watermark, credit grants are
//! withheld ([`FlowState::on_ordered`]), so offered load backs off at
//! the clients instead of queueing in the daemon.
//!
//! ## Sessions outlive connections
//!
//! A *session* (name, daemon registrations, flow state, publish gate)
//! is decoupled from the socket that carries it. When a socket
//! dies without a [`ClientFrame::Goodbye`], the session is **parked**
//! for a grace period instead of torn down: group memberships stay,
//! deliveries keep queueing behind the frozen window, and sent-but-
//! unacked Deliver frames are retained. A client reconnecting with the
//! session's [`ResumeToken`] (and the matching epoch) reattaches:
//! the server replays cached memberships and every retained delivery
//! above the client's cursor, and a per-session publish-id dedup
//! window ([`DedupWindow`]) makes re-sent `Publish` frames idempotent
//! — at most one copy of each publish ever reaches the ring, and a
//! lost `CreditGrant` is re-sent instead of re-ordering the message.
//! Parked sessions that exceed the grace period or the retained-bytes
//! budget are evicted (ordered leaves, like a clean close). Policy
//! evictions — slow consumer, protocol error — never park: the
//! session dies with the connection, exactly as before.
//!
//! ## Sharded mode
//!
//! With [`serve_clients_sharded`], each session registers on every
//! ring shard; joins route to the shard that owns the group
//! ([`ar_daemon::ShardMap`]), and publishes are stamped with a
//! per-publisher sequence and split into one ordered message per
//! shard touched. Order is kept at ingress, not repaired on delivery:
//! a session's [`PublishGate`] holds a publish bound for another shard
//! until the session's earlier publishes are ordered, so every
//! subscriber receives each ring's order as the ring made it, and a
//! local publisher's messages in publish order. A multi-shard publish
//! reaches a member of groups on both shards once per shard; the gate
//! keeps the copies adjacent in that publisher's stream, so the
//! subscriber drops a local copy that repeats the publisher's last
//! stamp.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ar_core::{ParticipantId, SplitMix64};
use ar_daemon::daemon::RingPressure;
use ar_daemon::{
    ClientError, ClientEvent, DaemonClient, DaemonConnector, DaemonHandle, MemberId, ShardMap,
    ShardedDaemon, TelemetryHub,
};
use ar_net::{wake_pair, PollSet, WakeReceiver, Waker};
use ar_telemetry::{Counter, Gauge, Histogram};
use bytes::Bytes;

use crate::credit::{DedupWindow, EvictReason, FlowConfig, FlowState, Offer, PublishGate};
use crate::wire::{
    decode_client, frame_server, ClientFrame, FrameBuf, ResumeToken, ServerFrame, Sock, WriteBuf,
    PROTOCOL_VERSION,
};

/// Service-tier tuning.
#[derive(Debug, Clone)]
pub struct SvcConfig {
    /// Maximum concurrent client connections; further connects are
    /// refused at handshake.
    pub max_clients: usize,
    /// Per-session flow control (credits, windows, eviction limits).
    pub flow: FlowConfig,
    /// Withhold credit grants while the ring send queue is above this
    /// many bundles.
    pub ring_high_watermark: usize,
    /// Capacity of each session's daemon event queue.
    pub event_capacity: usize,
    /// How long a session whose socket died stays parked awaiting a
    /// resume before it is evicted. Zero disables parking entirely
    /// (every disconnect tears the session down immediately).
    pub park_grace: Duration,
    /// Eviction budget for a parked session's retained (sent but
    /// unacked) delivery frames.
    pub park_max_bytes: usize,
    /// Publish-id dedup window per session (granted ids remembered
    /// across reconnects).
    pub dedup_window: usize,
    /// When set, per-tier counters and gauges are registered here
    /// (exported via `/metrics` and `/snapshot`).
    pub telemetry: Option<Arc<TelemetryHub>>,
}

impl Default for SvcConfig {
    fn default() -> Self {
        SvcConfig {
            max_clients: 2048,
            flow: FlowConfig::default(),
            ring_high_watermark: 512,
            event_capacity: ar_daemon::DEFAULT_EVENT_CAPACITY,
            park_grace: Duration::from_secs(30),
            park_max_bytes: 4 << 20,
            dedup_window: 1024,
            telemetry: None,
        }
    }
}

/// Shared per-tier statistics (registry-backed when telemetry is on).
#[derive(Debug, Clone, Default)]
pub struct SvcStats {
    /// Currently connected clients.
    pub connected: Gauge,
    /// Sessions evicted as slow consumers.
    pub evicted: Counter,
    /// Publishes rejected for lack of credits (or naming no group).
    pub publish_rejects: Counter,
    /// Credit grants sent.
    pub credit_grants: Counter,
    /// Grants currently withheld by ring backpressure.
    pub deferred_grants: Gauge,
    /// Publishes accepted and forwarded to the daemon.
    pub publishes: Counter,
    /// Deliveries written to client sockets.
    pub deliveries: Counter,
    /// Vectored writes issued to client sockets (including ones the
    /// kernel refused with WouldBlock): frames per write is deliveries
    /// plus grants plus control frames, over this.
    pub write_calls: Counter,
    /// Reads issued on client sockets (including the one that finds
    /// nothing left): publishes per read is publishes over this.
    pub read_calls: Counter,
    /// Handshakes refused (capacity, bad name, version mismatch).
    pub refused: Counter,
    /// Join/leave requests rejected (reported via GroupRejected).
    pub join_rejected: Counter,
    /// Sessions successfully resumed after a connection drop.
    pub sessions_resumed: Counter,
    /// Sessions currently parked (disconnected, awaiting resume).
    pub sessions_parked: Gauge,
    /// Resume attempts rejected (bad token, stale epoch, cursor out of
    /// range); the client fell back to a fresh session.
    pub resume_rejected: Counter,
    /// Bytes of sent-but-unacked Deliver frames retained for replay.
    pub retained_bytes: Gauge,
    /// Publishes dropped as duplicates of an in-flight or granted id
    /// (re-sent across a reconnect).
    pub dedup_hits: Counter,
    /// Loop passes started by a ring thread's wake.
    pub passes_wake: Counter,
    /// Loop passes started by a readable listener or client socket.
    pub passes_socket: Counter,
    /// Loop passes started by the poll timeout (the housekeeping tick).
    pub passes_tick: Counter,
    /// From a ring thread's wake to the loop pass that drains its
    /// events, nanoseconds.
    pub wake_delay_ns: Histogram,
}

impl SvcStats {
    fn register(hub: &TelemetryHub) -> SvcStats {
        SvcStats {
            connected: hub.registry.gauge(
                "ar_svc_clients_connected",
                "Client connections currently served by the service tier",
            ),
            evicted: hub.registry.counter(
                "ar_svc_clients_evicted_total",
                "Sessions evicted as slow consumers (pending or write-buffer overflow)",
            ),
            publish_rejects: hub.registry.counter(
                "ar_svc_publish_rejects_total",
                "Publishes rejected because the session had no credits (or named no group)",
            ),
            credit_grants: hub.registry.counter(
                "ar_svc_credit_grants_total",
                "Publish credits granted back to clients",
            ),
            deferred_grants: hub.registry.gauge(
                "ar_svc_credits_deferred",
                "Credit grants currently withheld by ring send-queue backpressure",
            ),
            publishes: hub.registry.counter(
                "ar_svc_publishes_total",
                "Publishes accepted and forwarded to the daemon",
            ),
            deliveries: hub.registry.counter(
                "ar_svc_deliveries_total",
                "Ordered deliveries written to client sockets",
            ),
            write_calls: hub.registry.counter(
                "ar_svc_write_calls_total",
                "Vectored writes issued to client sockets (one gathers every queued frame)",
            ),
            read_calls: hub.registry.counter(
                "ar_svc_read_calls_total",
                "Reads issued on client sockets, including the one that finds the socket empty",
            ),
            refused: hub.registry.counter(
                "ar_svc_refused_total",
                "Handshakes refused (capacity, duplicate or invalid name, version mismatch)",
            ),
            join_rejected: hub.registry.counter(
                "ar_svc_join_rejected_total",
                "Join/leave requests rejected (GroupRejected frames sent)",
            ),
            sessions_resumed: hub.registry.counter(
                "ar_svc_sessions_resumed_total",
                "Sessions successfully resumed after a connection drop",
            ),
            sessions_parked: hub.registry.gauge(
                "ar_svc_sessions_parked",
                "Sessions currently parked (disconnected, awaiting resume)",
            ),
            resume_rejected: hub.registry.counter(
                "ar_svc_resume_rejected_total",
                "Resume attempts rejected; the client fell back to a fresh session",
            ),
            retained_bytes: hub.registry.gauge(
                "ar_svc_retained_bytes",
                "Bytes of sent-but-unacked Deliver frames retained for resume replay",
            ),
            dedup_hits: hub.registry.counter(
                "ar_svc_publish_dedup_total",
                "Publishes dropped as duplicates of an in-flight or granted id",
            ),
            passes_wake: Self::passes(hub, "wake"),
            passes_socket: Self::passes(hub, "socket"),
            passes_tick: Self::passes(hub, "tick"),
            wake_delay_ns: hub.registry.histogram(
                "ar_svc_wake_delay_ns",
                "From a ring thread's wake to the service-tier pass that drains its events",
            ),
        }
    }

    fn passes(hub: &TelemetryHub, cause: &str) -> Counter {
        hub.registry.counter_labeled(
            "ar_svc_loop_passes_total",
            &format!("cause=\"{cause}\""),
            "Service-tier loop passes, by what ended the poll",
        )
    }
}

/// Where to listen.
#[derive(Debug, Clone, Default)]
pub struct SvcListeners {
    /// TCP listen address (port 0 for ephemeral).
    pub tcp: Option<SocketAddr>,
    /// Unix-domain socket path (removed and rebound at startup,
    /// unlinked on shutdown). Ignored on non-Unix targets.
    pub uds: Option<PathBuf>,
}

/// Handle to a running service tier; dropping it stops the thread,
/// closes every session, and unlinks the Unix socket.
#[derive(Debug)]
pub struct SvcHandle {
    tcp_addr: Option<SocketAddr>,
    uds_path: Option<PathBuf>,
    stop: Arc<AtomicBool>,
    stats: SvcStats,
    join: Option<JoinHandle<io::Result<()>>>,
}

impl SvcHandle {
    /// The bound TCP address (useful with port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix socket path.
    pub fn uds_path(&self) -> Option<&PathBuf> {
        self.uds_path.as_ref()
    }

    /// Live per-tier statistics.
    pub fn stats(&self) -> &SvcStats {
        &self.stats
    }

    /// Stops the server and returns its loop result.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error the server loop hit.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.shutdown_now()
    }

    fn shutdown_now(&mut self) -> io::Result<()> {
        self.stop.store(true, Ordering::Release);
        let result = match self.join.take() {
            Some(h) => h
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("service-tier thread panicked"))),
            None => Ok(()),
        };
        #[cfg(unix)]
        if let Some(path) = &self.uds_path {
            let _ = std::fs::remove_file(path);
        }
        result
    }
}

impl Drop for SvcHandle {
    fn drop(&mut self) {
        let _ = self.shutdown_now();
    }
}

/// Starts the service tier for a single (unsharded) `daemon` on the
/// given listeners.
///
/// # Errors
///
/// Returns binding errors. Requires at least one listener.
pub fn serve_clients(
    daemon: &DaemonHandle,
    listeners: SvcListeners,
    config: SvcConfig,
) -> io::Result<SvcHandle> {
    serve_shards(
        vec![daemon.connector()],
        vec![daemon.ring_pressure()],
        listeners,
        config,
    )
}

/// Starts the service tier for every ring shard of a
/// [`ShardedDaemon`]: sessions register on all shards, joins and
/// publishes route by the shard map, and each session's
/// [`PublishGate`] keeps its publishes FIFO across rings.
///
/// # Errors
///
/// Returns binding errors. Requires at least one listener.
pub fn serve_clients_sharded(
    sharded: &ShardedDaemon,
    listeners: SvcListeners,
    config: SvcConfig,
) -> io::Result<SvcHandle> {
    serve_shards(
        sharded.connectors(),
        sharded
            .shards()
            .iter()
            .map(DaemonHandle::ring_pressure)
            .collect(),
        listeners,
        config,
    )
}

fn serve_shards(
    connectors: Vec<DaemonConnector>,
    pressures: Vec<Arc<RingPressure>>,
    listeners: SvcListeners,
    config: SvcConfig,
) -> io::Result<SvcHandle> {
    assert_eq!(connectors.len(), pressures.len());
    let tcp = match listeners.tcp {
        Some(addr) => {
            let l = TcpListener::bind(addr)?;
            l.set_nonblocking(true)?;
            Some(l)
        }
        None => None,
    };
    #[cfg(unix)]
    let uds = match &listeners.uds {
        Some(path) => {
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            Some(l)
        }
        None => None,
    };
    #[cfg(not(unix))]
    let uds: Option<()> = None;
    if tcp.is_none() && uds.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "service tier needs at least one listener (tcp or uds)",
        ));
    }
    let tcp_addr = tcp.as_ref().map(|l| l.local_addr()).transpose()?;
    let stats = match &config.telemetry {
        Some(hub) => SvcStats::register(hub),
        None => SvcStats::default(),
    };
    let stop = Arc::new(AtomicBool::new(false));
    let (waker, wake_rx) = wake_pair()?;
    let mut server = Server {
        pid: connectors[0].pid(),
        map: ShardMap::new(connectors.len()),
        connectors,
        pressures,
        config,
        tcp,
        #[cfg(unix)]
        uds,
        stop: Arc::clone(&stop),
        stats: stats.clone(),
        conns: HashMap::new(),
        next_conn: 0,
        sessions: HashMap::new(),
        by_name: HashMap::new(),
        retired_stamps: 0,
        session_ids: SplitMix64::new(session_salt()),
        poll: PollSet::new(),
        waker,
        wake_rx,
        tcp_slot: None,
        uds_slot: None,
        chunk: vec![0u8; 64 * 1024].into_boxed_slice(),
    };
    let join = std::thread::Builder::new()
        .name("ar-svc".into())
        .spawn(move || server.run())?;
    Ok(SvcHandle {
        tcp_addr,
        #[cfg(unix)]
        uds_path: listeners.uds,
        #[cfg(not(unix))]
        uds_path: None,
        stop,
        stats,
        join: Some(join),
    })
}

/// Seeds the session-id stream from wall clock and pid so tokens from
/// a previous server incarnation never validate against this one.
fn session_salt() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    nanos ^ (u64::from(std::process::id()) << 32)
}

// ---- connection state -----------------------------------------------------

/// A delivery body queued behind the window (the per-connection seq is
/// assigned by [`FlowState`]).
#[derive(Debug)]
struct DeliverBody {
    ring_seq: u64,
    shard: u16,
    service: ar_core::ServiceType,
    sender: MemberId,
    groups: Vec<String>,
    payload: Bytes,
}

/// A stamped publish on its way to the shards its groups live on.
#[derive(Debug)]
struct Outbound {
    stamp: u64,
    service: ar_core::ServiceType,
    /// One part per shard the groups touch ([`ShardMap::partition`]).
    parts: Vec<(usize, Vec<String>)>,
    payload: Bytes,
}

impl Outbound {
    /// Sends one ordered message per part.
    fn send(&self, clients: &[DaemonClient]) -> Result<(), ClientError> {
        for (shard, part) in &self.parts {
            let refs: Vec<&str> = part.iter().map(String::as_str).collect();
            clients[*shard].multicast_stamped(
                &refs,
                self.service,
                self.stamp,
                self.payload.clone(),
            )?;
        }
        Ok(())
    }
}

/// One registered client identity: daemon registrations, flow state,
/// ordering state, and the resume machinery. Outlives the socket that
/// carries it (see the module docs).
struct Session {
    /// Resume-token identity (returned in Welcome).
    id: u64,
    /// Attach generation; bumped on every successful resume so a stale
    /// token cannot hijack a re-attached session.
    epoch: u64,
    /// The session's private name.
    name: String,
    /// One registered client per ring shard, index = shard.
    clients: Vec<DaemonClient>,
    flow: Box<FlowState<DeliverBody>>,
    /// Publishes held at ingress behind earlier ones on other shards.
    gate: PublishGate<Outbound>,
    /// Per local publisher, the stamp of its last delivery here. A
    /// delivery repeating it is the second shard copy of a multi-shard
    /// publish, which the gate keeps adjacent to the first, and is
    /// dropped. Stamps never repeat under one name
    /// ([`Server::retired_stamps`]), so a removed session's copy still
    /// in flight cannot pass for a new session's publish (at worst it
    /// is itself delivered twice). An entry goes with its publisher's
    /// session, which bounds the map by the live names.
    last_stamp: HashMap<String, u64>,
    /// Publish-id dedup across reconnects.
    dedup: DedupWindow,
    /// Last membership snapshot per joined group, replayed on resume.
    memberships: HashMap<String, Vec<MemberId>>,
    /// Membership frames waiting for the deliveries queued ahead of
    /// them, each tagged with the last delivery seq queued when it
    /// arrived: a view change follows the old view's messages.
    /// [`Server::fill_windows`] writes one once `flow.sent()` reaches
    /// its tag.
    held_views: VecDeque<(u64, ServerFrame)>,
    /// Sent-but-unacked Deliver frames, `(seq, framed bytes)`, oldest
    /// first — replayed above the client's cursor on resume.
    retained: VecDeque<(u64, Bytes)>,
    retained_bytes: usize,
    /// The attached connection, `None` while parked.
    conn: Option<u64>,
    /// When the session was parked (socket died without Goodbye).
    parked_since: Option<Instant>,
    /// Condemned: torn down at the next reap, never parked.
    dead: bool,
}

impl Session {
    /// Drops retained frames the client has acked.
    fn drop_retained(&mut self, through: u64) {
        while self
            .retained
            .front()
            .is_some_and(|(seq, _)| *seq <= through)
        {
            let (_, bytes) = self.retained.pop_front().expect("front checked");
            self.retained_bytes -= bytes.len();
        }
    }
}

struct Conn {
    sock: Sock,
    rbuf: FrameBuf,
    wbuf: WriteBuf,
    /// The session this socket carries (`None` while handshaking).
    session: Option<u64>,
    /// Slot in the last poll (`None` until the first poll after the
    /// accept: such a socket is read without being asked about).
    slot: Option<usize>,
    /// Set when the socket must close (after flushing `wbuf` best
    /// effort).
    dead: bool,
}

/// Queues a frame on a write buffer (free function so callers holding
/// other borrows can still reach the disjoint `wbuf` field).
fn push_frame(wbuf: &mut WriteBuf, frame_body: &ServerFrame) {
    wbuf.push(frame_server(frame_body).expect("control frames stay far below MAX_FRAME"));
}

/// Condemns a session and the live connection carrying it, if any,
/// telling the client why.
fn evict(conn: Option<&mut Conn>, sess: &mut Session, reason: &str) {
    if let Some(conn) = conn.filter(|c| !c.dead) {
        push_frame(
            &mut conn.wbuf,
            &ServerFrame::Evicted {
                reason: reason.into(),
            },
        );
        conn.dead = true;
    }
    sess.dead = true;
}

// ---- server loop ----------------------------------------------------------

struct Server {
    /// The participant id all shards present (locality test for
    /// duplicate collapse: only local publishers are gated).
    pid: ParticipantId,
    /// Group → shard placement.
    map: ShardMap,
    /// One connector per ring shard, index = shard.
    connectors: Vec<DaemonConnector>,
    /// One backpressure gauge per shard.
    pressures: Vec<Arc<RingPressure>>,
    config: SvcConfig,
    tcp: Option<TcpListener>,
    #[cfg(unix)]
    uds: Option<UnixListener>,
    stop: Arc<AtomicBool>,
    stats: SvcStats,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    sessions: HashMap<u64, Session>,
    /// Name → session id (names are unique across the tier).
    by_name: HashMap<String, u64>,
    /// The highest stamp any removed session issued. A fresh session
    /// stamps above it, so a name reused right after a Goodbye or a
    /// parked session's eviction never repeats a stamp whose copies
    /// may still be on their way to subscribers.
    retired_stamps: u64,
    /// Session-id stream.
    session_ids: SplitMix64,
    poll: PollSet,
    /// Handed to every daemon registration; all ring threads signal
    /// the one `wake_rx`.
    waker: Waker,
    wake_rx: WakeReceiver,
    /// Slots of the TCP and Unix listeners in the last poll.
    tcp_slot: Option<usize>,
    uds_slot: Option<usize>,
    /// Read buffer shared by every connection.
    chunk: Box<[u8]>,
}

impl Server {
    fn run(&mut self) -> io::Result<()> {
        while !self.stop.load(Ordering::Acquire) {
            self.poll_sockets()?;
            self.accept_new();
            self.read_all();
            self.pump_daemon_events();
            self.fill_windows();
            self.flush_all();
            self.park_and_reap();
            self.refresh_gauges();
        }
        // Graceful stop: tell every client and close.
        for (_, conn) in self.conns.iter_mut() {
            push_frame(
                &mut conn.wbuf,
                &ServerFrame::Evicted {
                    reason: "server shutting down".into(),
                },
            );
            let _ = conn
                .wbuf
                .flush(&mut conn.sock, || self.stats.write_calls.inc());
            conn.sock.shutdown();
        }
        self.stats.connected.set(0);
        self.stats.sessions_parked.set(0);
        self.stats.retained_bytes.set(0);
        Ok(())
    }

    /// One ppoll over the wake descriptor, the listeners and every
    /// client socket; the accept and read passes consume the slots it
    /// records. A ring thread's wake ends the wait as soon as daemon
    /// events are queued (they arrive on channels the poll cannot
    /// watch); so does a backed-up socket draining. The timeout is the
    /// housekeeping tick.
    fn poll_sockets(&mut self) -> io::Result<()> {
        self.poll.clear();
        self.poll.register(self.wake_rx.fd());
        if let Some(l) = &self.tcp {
            use std::os::fd::AsRawFd;
            self.tcp_slot = Some(self.poll.register(l.as_raw_fd()));
        }
        #[cfg(unix)]
        if let Some(l) = &self.uds {
            use std::os::fd::AsRawFd;
            self.uds_slot = Some(self.poll.register(l.as_raw_fd()));
        }
        for conn in self.conns.values_mut() {
            // Bytes still queued here means the last flush met
            // WouldBlock: watch for the socket draining.
            let fd = conn.sock.fd();
            conn.slot = Some(match conn.wbuf.len() {
                0 => self.poll.register(fd),
                _ => self.poll.register_read_write(fd),
            });
        }
        let ready = self.poll.wait(Duration::from_millis(2))?;
        // Disarm before the event queues are drained: a wake that
        // comes after this starts another pass.
        match self.wake_rx.drain() {
            Some(waited) => {
                self.stats.passes_wake.add(1);
                self.stats.wake_delay_ns.record(waited.as_nanos() as u64);
            }
            None if ready => self.stats.passes_socket.add(1),
            None => self.stats.passes_tick.add(1),
        }
        Ok(())
    }

    /// Accepts from the listeners the poll reported.
    fn accept_new(&mut self) {
        let ready = |slot: Option<usize>| slot.is_some_and(|s| self.poll.is_readable(s));
        let (tcp_ready, uds_ready) = (ready(self.tcp_slot), ready(self.uds_slot));
        if !tcp_ready && !uds_ready {
            return;
        }
        loop {
            let sock = if let Some(l) = self.tcp.as_ref().filter(|_| tcp_ready) {
                match l.accept() {
                    Ok((s, _)) => {
                        let _ = s.set_nodelay(true);
                        let _ = s.set_nonblocking(true);
                        Some(Sock::Tcp(s))
                    }
                    Err(_) => None,
                }
            } else {
                None
            };
            #[cfg(unix)]
            let sock = sock.or_else(|| {
                let l = self.uds.as_ref().filter(|_| uds_ready)?;
                match l.accept() {
                    Ok((s, _)) => {
                        let _ = s.set_nonblocking(true);
                        Some(Sock::Uds(s))
                    }
                    Err(_) => None,
                }
            });
            let Some(mut sock) = sock else { return };
            if self.conns.len() >= self.config.max_clients {
                // Best-effort refusal; the socket closes either way.
                let refused = frame_server(&ServerFrame::Refused {
                    reason: "server at capacity".into(),
                })
                .expect("control frames stay far below MAX_FRAME");
                let _ = sock.write(&refused);
                sock.shutdown();
                self.stats.refused.add(1);
                continue;
            }
            let id = self.next_conn;
            self.next_conn += 1;
            self.conns.insert(
                id,
                Conn {
                    sock,
                    rbuf: FrameBuf::new(),
                    wbuf: WriteBuf::default(),
                    session: None,
                    slot: None,
                    dead: false,
                },
            );
        }
    }

    /// Reads the connections the poll reported (and the ones accepted
    /// since, which it was not asked about) and handles their frames.
    fn read_all(&mut self) {
        let ids: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.slot.is_none_or(|slot| self.poll.is_readable(slot)))
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            let mut frames = Vec::new();
            let mut oversized = false;
            {
                let Some(conn) = self.conns.get_mut(&id) else {
                    continue;
                };
                if conn.dead {
                    continue;
                }
                loop {
                    self.stats.read_calls.inc();
                    match conn.sock.read(&mut self.chunk) {
                        Ok(0) => {
                            conn.dead = true; // peer closed
                            break;
                        }
                        Ok(n) => conn.rbuf.extend(&self.chunk[..n]),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn.dead = true;
                            break;
                        }
                    }
                }
                loop {
                    match conn.rbuf.next_frame() {
                        Ok(Some(f)) => frames.push(f),
                        Ok(None) => break,
                        Err(_) => {
                            oversized = true;
                            break;
                        }
                    }
                }
            }
            let decoded = frames.iter().all(|f| self.handle_frame(id, f));
            if !decoded || oversized {
                self.protocol_error(id);
            }
        }
    }

    /// Condemns a connection that broke the framing or sent an
    /// undecodable frame. Before the handshake it was never admitted
    /// and is refused; after it, its session dies with it (parking
    /// would reward a corrupt peer).
    fn protocol_error(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        match conn.session.and_then(|sid| self.sessions.get_mut(&sid)) {
            Some(sess) => evict(Some(conn), sess, "protocol error"),
            None => {
                let reason = "protocol error".into();
                push_frame(&mut conn.wbuf, &ServerFrame::Refused { reason });
                conn.dead = true;
                self.stats.refused.add(1);
            }
        }
    }

    /// Handles one frame; false (and nothing done) when it does not
    /// decode.
    fn handle_frame(&mut self, id: u64, bytes: &[u8]) -> bool {
        let Ok(req) = decode_client(bytes) else {
            return false;
        };
        match self.conns.get(&id).map(|conn| conn.session) {
            Some(None) => self.handle_hello(id, req),
            Some(Some(sid)) => self.handle_active(id, sid, req),
            None => {}
        }
        true
    }

    // ---- handshake --------------------------------------------------------

    fn handle_hello(&mut self, id: u64, req: ClientFrame) {
        let ClientFrame::Hello {
            version,
            name,
            resume,
        } = req
        else {
            if let Some(conn) = self.conns.get_mut(&id) {
                push_frame(
                    &mut conn.wbuf,
                    &ServerFrame::Refused {
                        reason: "expected hello".into(),
                    },
                );
                conn.dead = true;
            }
            self.stats.refused.add(1);
            return;
        };
        if version != PROTOCOL_VERSION {
            if let Some(conn) = self.conns.get_mut(&id) {
                push_frame(
                    &mut conn.wbuf,
                    &ServerFrame::Refused {
                        reason: format!(
                            "protocol version mismatch: client {version}, server {PROTOCOL_VERSION}"
                        ),
                    },
                );
                conn.dead = true;
            }
            self.stats.refused.add(1);
            return;
        }
        if let Some(token) = resume {
            if self.try_resume(id, &name, token) {
                return;
            }
            // Invalid token (unknown session, stale epoch, cursor out
            // of range, or parking disabled): fall back to a fresh
            // session. `resumed: false` in the Welcome tells the
            // client its delivery continuity is lost.
            self.stats.resume_rejected.add(1);
        }
        self.fresh_session(id, name);
    }

    /// Validates a resume token and reattaches the parked session.
    /// Returns false when the token does not check out.
    fn try_resume(&mut self, conn_id: u64, name: &str, token: ResumeToken) -> bool {
        if self.config.park_grace.is_zero() {
            return false;
        }
        let valid = self.sessions.get(&token.session).is_some_and(|sess| {
            !sess.dead
                && sess.name == name
                && sess.epoch == token.epoch
                // The cursor must lie in the retained range: at or
                // above what was already acked, at or below what was
                // actually sent.
                && token.acked_through >= sess.flow.acked()
                && token.acked_through <= sess.flow.sent()
        });
        if !valid {
            return false;
        }
        // Supersede a half-dead socket still nominally attached: the
        // client holding the live token wins.
        let old_conn = self
            .sessions
            .get(&token.session)
            .and_then(|s| s.conn)
            .filter(|old| *old != conn_id);
        if let Some(old) = old_conn {
            if let Some(conn) = self.conns.get_mut(&old) {
                conn.session = None;
                conn.dead = true;
            }
            self.stats.connected.add(-1);
        }
        let sess = self.sessions.get_mut(&token.session).expect("validated");
        sess.epoch += 1;
        sess.conn = Some(conn_id);
        sess.parked_since = None;
        sess.flow.on_ack(token.acked_through);
        sess.drop_retained(token.acked_through);
        let conn = self.conns.get_mut(&conn_id).expect("caller held it");
        conn.session = Some(token.session);
        push_frame(
            &mut conn.wbuf,
            &ServerFrame::Welcome {
                version: PROTOCOL_VERSION,
                daemon: self.pid.as_u16(),
                rings: self.connectors.len() as u16,
                publish_credits: self.config.flow.publish_credits,
                delivery_window: self.config.flow.delivery_window,
                session: sess.id,
                epoch: sess.epoch,
                resumed: true,
                retained_lo: sess.flow.acked() + 1,
                retained_hi: sess.flow.sent(),
            },
        );
        // Replay: memberships first (so the application's view of who
        // is in each group is restored before deliveries resume), then
        // every retained delivery above the cursor. The snapshot
        // already holds every held view change.
        sess.held_views.clear();
        for (group, members) in &sess.memberships {
            push_frame(
                &mut conn.wbuf,
                &ServerFrame::Membership {
                    group: group.clone(),
                    members: members.clone(),
                },
            );
        }
        let replayed = sess.retained.len() as u64;
        for (_, framed) in &sess.retained {
            conn.wbuf.push(framed.clone());
        }
        if replayed > 0 {
            self.stats.deliveries.add(replayed);
        }
        self.stats.connected.add(1);
        self.stats.sessions_resumed.add(1);
        true
    }

    fn fresh_session(&mut self, conn_id: u64, name: String) {
        // The name may be held by a *parked* session (the client lost
        // its token, or chose not to resume): evict it first. The
        // daemon Unregister (from dropping the old DaemonClients) and
        // the Register below share one command channel, so ordering is
        // FIFO — no duplicate-name race. A name held by a live
        // attached connection refuses as before.
        if let Some(&sid) = self.by_name.get(&name) {
            let attached = self
                .sessions
                .get(&sid)
                .is_some_and(|s| !s.dead && s.conn.is_some());
            if attached {
                if let Some(conn) = self.conns.get_mut(&conn_id) {
                    push_frame(
                        &mut conn.wbuf,
                        &ServerFrame::Refused {
                            reason: format!("name '{name}' is already connected"),
                        },
                    );
                    conn.dead = true;
                }
                self.stats.refused.add(1);
                return;
            }
            self.remove_session(sid);
        }
        let mut clients = Vec::with_capacity(self.connectors.len());
        let mut refuse = None;
        for connector in &self.connectors {
            match connector.connect_service(&name, self.config.event_capacity, self.waker.clone()) {
                Ok(client) => clients.push(client),
                Err(e) => {
                    refuse = Some(e.to_string());
                    break;
                }
            }
        }
        if let Some(reason) = refuse {
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                push_frame(&mut conn.wbuf, &ServerFrame::Refused { reason });
                conn.dead = true;
            }
            self.stats.refused.add(1);
            return;
        }
        let sid = self.fresh_session_id();
        let sess = Session {
            id: sid,
            epoch: 1,
            name: name.clone(),
            clients,
            flow: Box::new(FlowState::stamping_after(
                self.config.flow,
                self.retired_stamps,
            )),
            gate: PublishGate::new(),
            last_stamp: HashMap::new(),
            dedup: DedupWindow::new(self.config.dedup_window),
            memberships: HashMap::new(),
            held_views: VecDeque::new(),
            retained: VecDeque::new(),
            retained_bytes: 0,
            conn: Some(conn_id),
            parked_since: None,
            dead: false,
        };
        let conn = self.conns.get_mut(&conn_id).expect("caller held it");
        conn.session = Some(sid);
        push_frame(
            &mut conn.wbuf,
            &ServerFrame::Welcome {
                version: PROTOCOL_VERSION,
                daemon: self.pid.as_u16(),
                rings: self.connectors.len() as u16,
                publish_credits: self.config.flow.publish_credits,
                delivery_window: self.config.flow.delivery_window,
                session: sid,
                epoch: 1,
                resumed: false,
                retained_lo: 1,
                retained_hi: 0,
            },
        );
        self.sessions.insert(sid, sess);
        self.by_name.insert(name, sid);
        self.stats.connected.add(1);
    }

    fn fresh_session_id(&mut self) -> u64 {
        loop {
            let z = self.session_ids.next_u64();
            if z != 0 && !self.sessions.contains_key(&z) {
                return z;
            }
        }
    }

    // ---- active sessions --------------------------------------------------

    fn handle_active(&mut self, conn_id: u64, sid: u64, req: ClientFrame) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        let Some(sess) = self.sessions.get_mut(&sid) else {
            return;
        };
        match req {
            ClientFrame::Hello { .. } => evict(Some(conn), sess, "duplicate hello"),
            ClientFrame::Goodbye => {
                // Clean close: tear the session down now (ordered
                // leaves for every joined group) instead of parking.
                conn.dead = true;
                sess.dead = true;
            }
            ClientFrame::JoinGroup { group } => {
                let shard = self.map.shard_of(&group);
                if let Err(e) = sess.clients[shard].join(&group) {
                    push_frame(
                        &mut conn.wbuf,
                        &ServerFrame::GroupRejected {
                            join: true,
                            group,
                            reason: e.to_string(),
                        },
                    );
                    self.stats.join_rejected.add(1);
                }
            }
            ClientFrame::LeaveGroup { group } => {
                let shard = self.map.shard_of(&group);
                if let Err(e) = sess.clients[shard].leave(&group) {
                    push_frame(
                        &mut conn.wbuf,
                        &ServerFrame::GroupRejected {
                            join: false,
                            group,
                            reason: e.to_string(),
                        },
                    );
                    self.stats.join_rejected.add(1);
                } else {
                    // No further Membership event will arrive for this
                    // group; don't replay a stale snapshot on resume.
                    sess.memberships.remove(&group);
                }
            }
            ClientFrame::Publish {
                id: pub_id,
                service,
                groups,
                payload,
            } => {
                match sess.dedup.offer(pub_id) {
                    Offer::InFlight => {
                        // Re-sent across a reconnect; the first copy is
                        // still working through the ring. Its grant (or
                        // rejection) will answer this copy too.
                        self.stats.dedup_hits.add(1);
                        return;
                    }
                    Offer::Granted => {
                        // The first copy was ordered but its grant died
                        // with the old connection: re-send the grant,
                        // don't re-order the message.
                        self.stats.dedup_hits.add(1);
                        push_frame(
                            &mut conn.wbuf,
                            &ServerFrame::CreditGrant {
                                acked_id: pub_id,
                                credits: 1,
                            },
                        );
                        self.stats.credit_grants.add(1);
                        return;
                    }
                    Offer::Fresh => {}
                }
                // One ordered message per shard the group list touches;
                // one credit and one stamp per publish regardless.
                let parts = self.map.partition(groups);
                let stamp = match parts.len() {
                    // Nothing would be ordered, so nothing would ever
                    // return the credit or open the gate behind it.
                    0 => Err("publish names no group"),
                    n => sess
                        .flow
                        .try_consume_credit(pub_id, n as u32)
                        .ok_or("no publish credits; wait for CreditGrant"),
                };
                match stamp {
                    Ok(stamp) => {
                        self.stats.publishes.add(1);
                        let lane = match parts[..] {
                            [(shard, _)] => Some(shard),
                            _ => None,
                        };
                        let out = Outbound {
                            stamp,
                            service,
                            parts,
                            payload,
                        };
                        let Some(out) = sess.gate.admit(stamp, lane, out) else {
                            return;
                        };
                        if let Err(e) = out.send(&sess.clients) {
                            evict(Some(conn), sess, &e.to_string());
                        }
                    }
                    Err(reason) => {
                        // No credit consumed, nothing forwarded: a
                        // retry of this id must be treated as fresh.
                        sess.dedup.forget(pub_id);
                        push_frame(
                            &mut conn.wbuf,
                            &ServerFrame::PublishReject {
                                id: pub_id,
                                reason: reason.into(),
                            },
                        );
                        self.stats.publish_rejects.add(1);
                    }
                }
            }
            ClientFrame::Ack { through } => {
                sess.flow.on_ack(through);
                sess.drop_retained(sess.flow.acked());
            }
        }
    }

    /// Drains every session's daemon events, then forwards what the
    /// publish gates release. A first sweep that saw a gated
    /// publisher's floor advance is followed at once by the sweep that
    /// settles it (see [`PublishGate`]), so a shard switch costs one
    /// ordering, not a wait for the next wake.
    fn pump_daemon_events(&mut self) {
        self.sweep();
        if self.sessions.values().any(|s| !s.dead && s.gate.ripe()) {
            self.sweep();
        }
    }

    /// One sweep: converts queued daemon events into frames —
    /// deliveries into the window-gated pending queue, membership
    /// changes behind the deliveries queued ahead of them (see
    /// `Session::held_views`), network changes straight to the write
    /// buffer, Ordered acks into credit grants (deferred while the ring
    /// is congested) — for every session, then forwards the publishes
    /// the gates release. Runs for parked sessions too: their queues
    /// keep filling, their grants are recorded in the dedup window for
    /// recovery via republish, and their gated publishes still go out.
    fn sweep(&mut self) {
        let congested = self
            .pressures
            .iter()
            .any(|p| p.send_queue_depth() > self.config.ring_high_watermark);
        // One ring is one order: nothing to collapse.
        let multi_ring = self.connectors.len() > 1;
        let pid = self.pid;
        let mut deferred_delta: i64 = 0;
        let Server {
            sessions,
            conns,
            stats,
            ..
        } = self;
        for sess in sessions.values_mut() {
            if sess.dead {
                continue;
            }
            let mut wbuf = sess
                .conn
                .and_then(|cid| conns.get_mut(&cid))
                .filter(|c| !c.dead)
                .map(|c| &mut c.wbuf);
            let mut evict_reason = None;
            'shards: for (shard, client) in sess.clients.iter_mut().enumerate() {
                for ev in client.drain() {
                    match ev {
                        ClientEvent::Message {
                            sender,
                            groups,
                            service,
                            ring_seq,
                            stamp,
                            payload,
                        } => {
                            if multi_ring
                                && stamp != 0
                                && sender.daemon == pid
                                && sess.last_stamp.insert(sender.client.clone(), stamp)
                                    == Some(stamp)
                            {
                                continue;
                            }
                            let body = DeliverBody {
                                shard: shard as u16,
                                ring_seq,
                                service,
                                sender,
                                groups,
                                payload,
                            };
                            if let Err(reason) = sess.flow.queue_delivery(body) {
                                evict_reason = Some(reason);
                                break 'shards;
                            }
                        }
                        ClientEvent::Ordered { stamp, .. } => {
                            let before = sess.flow.deferred_len() as i64;
                            for acked_id in sess.flow.on_ordered(stamp, congested) {
                                sess.dedup.grant(acked_id);
                                if let Some(w) = wbuf.as_deref_mut() {
                                    push_frame(
                                        w,
                                        &ServerFrame::CreditGrant {
                                            acked_id,
                                            credits: 1,
                                        },
                                    );
                                    stats.credit_grants.add(1);
                                }
                                // Parked: the grant frame is lost with
                                // the socket; the dedup window re-sends
                                // it when the client republishes.
                            }
                            deferred_delta += sess.flow.deferred_len() as i64 - before;
                        }
                        ClientEvent::Membership { group, members } => {
                            sess.memberships.insert(group.clone(), members.clone());
                            if let Some(w) = wbuf.as_deref_mut() {
                                let frame = ServerFrame::Membership { group, members };
                                let after = sess.flow.queued_through();
                                if after > sess.flow.sent() || !sess.held_views.is_empty() {
                                    sess.held_views.push_back((after, frame));
                                } else {
                                    push_frame(w, &frame);
                                }
                            }
                        }
                        ClientEvent::NetworkChange { daemons } => {
                            if let Some(w) = wbuf.as_deref_mut() {
                                push_frame(
                                    w,
                                    &ServerFrame::NetworkChange {
                                        daemons: daemons.iter().map(|d| d.as_u16()).collect(),
                                    },
                                );
                            }
                        }
                    }
                }
            }
            // With several rings a lost Ordered would hold the session's
            // gate shut for good: its floor can no longer be trusted.
            // One ring is one lane, which a lost Ordered cannot close.
            if multi_ring
                && evict_reason.is_none()
                && sess.clients.iter().any(|c| c.dropped_events() > 0)
            {
                evict_reason = Some(EvictReason::EventsLost);
            }
            // Congestion cleared: release withheld credits.
            if !congested && sess.flow.deferred_len() > 0 {
                let ids = sess.flow.flush_deferred();
                deferred_delta -= ids.len() as i64;
                for acked_id in ids {
                    sess.dedup.grant(acked_id);
                    if let Some(w) = wbuf.as_deref_mut() {
                        push_frame(
                            w,
                            &ServerFrame::CreditGrant {
                                acked_id,
                                credits: 1,
                            },
                        );
                        stats.credit_grants.add(1);
                    }
                }
            }
            if let Some(reason) = evict_reason {
                let conn = sess.conn.and_then(|cid| conns.get_mut(&cid));
                evict(conn, sess, reason.as_str());
                stats.evicted.add(1);
            }
        }
        // Every session drained: forward what the gates release.
        for sess in sessions.values_mut().filter(|s| !s.dead) {
            let released = sess.gate.on_sweep(sess.flow.ordered_through());
            if let Some(e) = released
                .iter()
                .find_map(|out| out.send(&sess.clients).err())
            {
                let conn = sess.conn.and_then(|cid| conns.get_mut(&cid));
                evict(conn, sess, &e.to_string());
            }
        }
        if deferred_delta != 0 {
            self.stats.deferred_grants.add(deferred_delta);
        }
    }

    /// Moves window-eligible deliveries into write buffers, retaining
    /// a copy of every sent frame until the client acks it.
    fn fill_windows(&mut self) {
        let Server {
            sessions,
            conns,
            stats,
            ..
        } = self;
        for sess in sessions.values_mut() {
            if sess.dead {
                continue;
            }
            // Parked: the window is frozen (nothing to send a frame
            // to); deliveries keep queueing in `flow.pending`.
            let Some(conn) = sess.conn.and_then(|cid| conns.get_mut(&cid)) else {
                continue;
            };
            if conn.dead {
                continue;
            }
            let mut sent = 0u64;
            while let Some(p) = sess.flow.next_sendable() {
                let b = p.item;
                let framed = frame_server(&ServerFrame::Deliver {
                    seq: p.seq,
                    ring_seq: b.ring_seq,
                    shard: b.shard,
                    service: b.service,
                    sender: b.sender,
                    groups: b.groups,
                    payload: b.payload,
                });
                match framed {
                    Ok(framed) => {
                        conn.wbuf.push(framed.clone());
                        sess.retained_bytes += framed.len();
                        sess.retained.push_back((p.seq, framed));
                        sent += 1;
                    }
                    Err(e) => {
                        evict(Some(conn), sess, &e.to_string());
                        stats.evicted.add(1);
                        break;
                    }
                }
            }
            if sent > 0 {
                stats.deliveries.add(sent);
            }
            if sess.dead {
                continue;
            }
            let through = sess.flow.sent();
            while let Some((_, frame)) =
                sess.held_views.pop_front_if(|(after, _)| *after <= through)
            {
                push_frame(&mut conn.wbuf, &frame);
            }
        }
    }

    fn flush_all(&mut self) {
        let Server {
            sessions,
            conns,
            stats,
            ..
        } = self;
        for conn in conns.values_mut() {
            if conn.wbuf.is_empty() {
                continue;
            }
            match conn.wbuf.flush(&mut conn.sock, || stats.write_calls.inc()) {
                Ok(_) => {
                    if conn.dead {
                        continue;
                    }
                    let sess = conn.session.and_then(|sid| sessions.get_mut(&sid));
                    let overflow = sess
                        .as_ref()
                        .and_then(|s| s.flow.check_write_buffer(conn.wbuf.len()).err());
                    if let Some(reason) = overflow {
                        push_frame(
                            &mut conn.wbuf,
                            &ServerFrame::Evicted {
                                reason: reason.as_str().into(),
                            },
                        );
                        conn.dead = true;
                        if let Some(s) = sess {
                            s.dead = true;
                        }
                        stats.evicted.add(1);
                    }
                }
                Err(_) => conn.dead = true,
            }
        }
    }

    /// Closes dead connections — parking their sessions unless the
    /// session is condemned — then evicts parked sessions past the
    /// grace period or the retained-bytes budget, and finally tears
    /// down condemned sessions. Dropping a session's [`DaemonClient`]s
    /// unregisters at the daemon, which submits ordered leaves for
    /// every group the client was in — other members see a clean
    /// membership change.
    fn park_and_reap(&mut self) {
        let now = Instant::now();
        let dead_conns: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.dead)
            .map(|(id, _)| *id)
            .collect();
        for id in dead_conns {
            let Some(mut conn) = self.conns.remove(&id) else {
                continue;
            };
            // Last chance for the Evicted frame to reach the peer.
            let _ = conn
                .wbuf
                .flush(&mut conn.sock, || self.stats.write_calls.inc());
            conn.sock.shutdown();
            let Some(sid) = conn.session else { continue };
            let Some(sess) = self.sessions.get_mut(&sid) else {
                continue;
            };
            if sess.conn != Some(id) {
                // Superseded during resume; the gauge was already
                // adjusted there.
                continue;
            }
            sess.conn = None;
            self.stats.connected.add(-1);
            if !sess.dead {
                if self.config.park_grace.is_zero() {
                    sess.dead = true;
                } else {
                    sess.parked_since = Some(now);
                }
            }
        }
        // Parked sessions past the grace period or over the retained
        // budget are done waiting.
        for sess in self.sessions.values_mut() {
            if sess.dead || sess.conn.is_some() {
                continue;
            }
            let expired = sess
                .parked_since
                .is_some_and(|t| now.duration_since(t) > self.config.park_grace);
            if expired || sess.retained_bytes > self.config.park_max_bytes {
                sess.dead = true;
            }
        }
        let dead_sessions: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.dead && s.conn.is_none())
            .map(|(id, _)| *id)
            .collect();
        for sid in dead_sessions {
            self.remove_session(sid);
        }
    }

    /// Removes a session outright; dropping its [`DaemonClient`]s
    /// queues the daemon Unregisters (ordered leaves), and its gated
    /// publishes die with it, as in-flight ones do.
    fn remove_session(&mut self, sid: u64) {
        let Some(gone) = self.sessions.remove(&sid) else {
            return;
        };
        if self.by_name.get(&gone.name) == Some(&sid) {
            self.by_name.remove(&gone.name);
        }
        self.retired_stamps = self.retired_stamps.max(gone.flow.last_stamp());
        for sess in self.sessions.values_mut() {
            sess.last_stamp.remove(&gone.name);
        }
    }

    /// Recomputes the absolute gauges each tick — cheaper to re-derive
    /// than to thread deltas through every park/resume/evict path.
    fn refresh_gauges(&mut self) {
        let mut parked = 0i64;
        let mut retained = 0i64;
        for sess in self.sessions.values() {
            if sess.dead {
                continue;
            }
            if sess.conn.is_none() {
                parked += 1;
            }
            retained += sess.retained_bytes as i64;
        }
        self.stats.sessions_parked.set(parked);
        self.stats.retained_bytes.set(retained);
    }
}
