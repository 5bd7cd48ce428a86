//! The ring simulation: hosts running the protocol over a simulated
//! switched LAN, with load generation, fault injection, and
//! measurement.
//!
//! The simulated world reproduces the paper's testbed: `n` hosts, each
//! with a single-threaded CPU (cost model from [`ImplProfile`]), a NIC
//! that serializes frames onto a full-duplex link, and one
//! store-and-forward switch with bounded output-port buffers
//! ([`NetworkConfig`]). Data messages are IP-multicast (the switch
//! replicates one inbound frame to every other port); the token is
//! unicast to the ring successor. Each host receives token and data
//! messages on separate sockets with separate kernel buffers, and the
//! CPU drains the two sockets according to the protocol's
//! priority-switching state (Section III-C/III-D of the paper).

use std::collections::VecDeque;

use ar_core::{
    Action, Connectivity, FaultEvent, FaultSchedule, Message, Participant, ParticipantId,
    ProtocolConfig, RingId, ServiceType, TimeoutConfig, TimerKind,
};
use bytes::{BufMut, Bytes, BytesMut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::events::EventQueue;
use crate::load::LoadMode;
use crate::metrics::{LatencyRecorder, SimReport};
use crate::netcfg::NetworkConfig;
use crate::profile::ImplProfile;
use crate::time::{SimDuration, SimTime};
use crate::timeseries::ThroughputSeries;

/// Minimum payload: 8 bytes of submit timestamp + 8 bytes of unique id.
pub const MIN_PAYLOAD: usize = 16;

/// Small fixed CPU cost to field a timer interrupt.
const TIMER_CPU: SimDuration = SimDuration::from_nanos(200);

/// How many pending messages a saturating generator keeps queued, as a
/// multiple of the personal window.
const SATURATE_DEPTH: u32 = 3;

/// Configuration of one simulated benchmark run.
#[derive(Debug, Clone)]
pub struct RingSimConfig {
    /// Number of hosts (the paper uses 8).
    pub n_hosts: usize,
    /// Protocol configuration (accelerated or original, windows…).
    pub protocol: ProtocolConfig,
    /// Timer durations.
    pub timeouts: TimeoutConfig,
    /// Link/switch/socket parameters.
    pub net: NetworkConfig,
    /// Implementation cost model (library / daemon / spread).
    pub profile: ImplProfile,
    /// Application payload bytes per message (the paper uses 1350 and
    /// 8850).
    pub payload_bytes: usize,
    /// Delivery service for all generated messages.
    pub service: ServiceType,
    /// Load generation mode.
    pub load: LoadMode,
    /// Measurement window (after warmup).
    pub duration: SimDuration,
    /// Warmup time excluded from measurement.
    pub warmup: SimDuration,
    /// RNG seed (jitter and random loss).
    pub seed: u64,
    /// Scheduled crashes/partitions (empty for the performance
    /// figures).
    pub faults: FaultSchedule,
    /// Record every delivery's (seq, uid) per host and verify
    /// total-order agreement at the end of the run (test runs only —
    /// costs memory proportional to deliveries).
    pub verify_order: bool,
}

impl RingSimConfig {
    /// The paper's 8-host setup with sensible defaults: accelerated
    /// protocol, 1-gigabit network, daemon profile, 1350-byte Agreed
    /// messages at 500 Mbps.
    pub fn paper_default() -> RingSimConfig {
        RingSimConfig {
            n_hosts: 8,
            protocol: ProtocolConfig::accelerated(),
            timeouts: TimeoutConfig::default(),
            net: NetworkConfig::gigabit(),
            profile: ImplProfile::daemon(),
            payload_bytes: 1350,
            service: ServiceType::Agreed,
            load: LoadMode::OpenLoop {
                aggregate_bps: 500_000_000,
            },
            duration: SimDuration::from_millis(400),
            warmup: SimDuration::from_millis(150),
            seed: 42,
            faults: FaultSchedule::none(),
            verify_order: false,
        }
    }

    fn validate(&self) {
        assert!(self.n_hosts > 0, "need at least one host");
        assert!(self.n_hosts < u16::MAX as usize, "too many hosts");
        assert!(
            self.payload_bytes >= MIN_PAYLOAD,
            "payload must be at least {MIN_PAYLOAD} bytes"
        );
        self.protocol.validate().expect("invalid protocol config");
    }
}

/// Where a frame is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dest {
    /// IP-multicast: every host except the sender.
    All,
    /// Unicast to one host.
    One(usize),
}

/// A frame in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Frame {
    from: usize,
    dest: Dest,
    wire_bytes: usize,
    msg: Message,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    /// Frame fully received at the switch.
    SwitchArrive(Frame),
    /// Frame fully received at a host NIC.
    HostArrive { host: usize, frame: Frame },
    /// The host CPU should pick up queued work.
    CpuCheck { host: usize },
    /// A protocol timer fired.
    Timer {
        host: usize,
        kind: TimerKind,
        gen: u64,
    },
    /// The open-loop generator injects one message.
    Submit { host: usize },
    /// Apply the `i`-th fault-plan event.
    Fault(usize),
}

/// One output port of the switch.
#[derive(Debug, Clone, Default)]
struct Port {
    busy_until: SimTime,
    draining: VecDeque<(SimTime, usize)>,
    queued_bytes: usize,
}

/// Per-host simulation state.
struct Host {
    part: Participant,
    token_q: VecDeque<Frame>,
    token_q_bytes: usize,
    data_q: VecDeque<Frame>,
    data_q_bytes: usize,
    cpu_next_free: SimTime,
    cpu_check_pending: bool,
    nic_tx_free: SimTime,
    timer_gen: [u64; 5],
    next_uid: u64,
    delivered_in_window: u64,
    /// (ring, seq, uid) per delivery, recorded when `verify_order` is
    /// on. Sequence numbers restart with each installed configuration,
    /// so agreement is checked per ring.
    order_log: Vec<(RingId, u64, u64)>,
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

/// Runs one simulated benchmark and reports the measurements.
///
/// The run is fully deterministic for a given configuration (including
/// the seed).
pub fn run_ring(cfg: &RingSimConfig) -> SimReport {
    RingSim::new(cfg.clone()).run()
}

/// The assembled simulation. Most callers use [`run_ring`]; the struct
/// is public for tests that want to poke at intermediate state.
pub struct RingSim {
    cfg: RingSimConfig,
    q: EventQueue<Ev>,
    hosts: Vec<Host>,
    ports: Vec<Port>,
    conn: Connectivity,
    rng: StdRng,
    latencies: LatencyRecorder,
    measure_start: SimTime,
    measure_end: SimTime,
    switch_drops: u64,
    socket_drops: u64,
    submit_rejected: u64,
    tokens_at_host0_at_start: u64,
    series: Option<ThroughputSeries>,
}

impl std::fmt::Debug for RingSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingSim")
            .field("n_hosts", &self.cfg.n_hosts)
            .field("now", &self.q.now())
            .finish_non_exhaustive()
    }
}

impl RingSim {
    /// Builds the simulated world (participants operational on an
    /// established ring, generators scheduled, faults scheduled).
    pub fn new(cfg: RingSimConfig) -> RingSim {
        cfg.validate();
        let n = cfg.n_hosts;
        let members: Vec<ParticipantId> = (0..n as u16).map(ParticipantId::new).collect();
        let ring_id = RingId::new(members[0], 1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut q = EventQueue::new();

        let hosts: Vec<Host> = members
            .iter()
            .map(|&pid| {
                let mut part = Participant::new(pid, cfg.protocol, ring_id, members.clone())
                    .expect("valid static ring");
                part.set_timeouts(cfg.timeouts).expect("valid timeouts");
                Host {
                    part,
                    token_q: VecDeque::new(),
                    token_q_bytes: 0,
                    data_q: VecDeque::new(),
                    data_q_bytes: 0,
                    cpu_next_free: SimTime::ZERO,
                    cpu_check_pending: false,
                    nic_tx_free: SimTime::ZERO,
                    timer_gen: [0; 5],
                    next_uid: 0,
                    delivered_in_window: 0,
                    order_log: Vec::new(),
                }
            })
            .collect();

        // Schedule load generation.
        if let Some(interval) = cfg.load.interval(n, cfg.payload_bytes) {
            for h in 0..n {
                // Random initial phase to decorrelate the hosts.
                let phase = rng.gen_range(0..interval.as_nanos().max(1));
                q.schedule(
                    SimTime::ZERO + SimDuration::from_nanos(phase),
                    Ev::Submit { host: h },
                );
            }
        }
        // Schedule faults.
        for (i, (at, _)) in cfg.faults.events().iter().enumerate() {
            q.schedule(SimTime::from_nanos(at.as_nanos() as u64), Ev::Fault(i));
        }

        let measure_start = SimTime::ZERO + cfg.warmup;
        let measure_end = measure_start + cfg.duration;
        let conn = Connectivity::full(n);
        RingSim {
            cfg,
            q,
            hosts,
            ports: (0..n).map(|_| Port::default()).collect(),
            conn,
            rng,
            latencies: LatencyRecorder::new(),
            measure_start,
            measure_end,
            switch_drops: 0,
            socket_drops: 0,
            submit_rejected: 0,
            tokens_at_host0_at_start: 0,
            series: None,
        }
    }

    /// Enables per-interval delivery counting (host 0's deliveries),
    /// for throughput-over-time plots.
    #[must_use]
    pub fn with_series(mut self, bucket: SimDuration) -> Self {
        self.series = Some(ThroughputSeries::new(bucket));
        self
    }

    /// Runs to the end of the measurement window and summarizes,
    /// also returning the throughput series if one was enabled.
    pub fn run_full(mut self) -> (SimReport, Option<ThroughputSeries>) {
        // Start every participant; the representative's actions carry
        // the first token.
        for h in 0..self.hosts.len() {
            if matches!(self.cfg.load, LoadMode::Saturating) {
                self.top_up(h, SimTime::ZERO);
            }
            let actions = self.hosts[h].part.start();
            let cursor = self.walk_actions(h, SimTime::ZERO, actions);
            self.hosts[h].cpu_next_free = cursor;
        }

        let mut stats_snapshot: Option<Vec<ar_core::ParticipantStats>> = None;
        while let Some((t, ev)) = self.q.pop() {
            if stats_snapshot.is_none() && t >= self.measure_start {
                stats_snapshot = Some(self.hosts.iter().map(|h| *h.part.stats()).collect());
                self.tokens_at_host0_at_start = self.hosts[0].part.stats().tokens_handled;
            }
            if t >= self.measure_end {
                break;
            }
            self.handle_event(t, ev);
        }

        let start_stats =
            stats_snapshot.unwrap_or_else(|| self.hosts.iter().map(|h| *h.part.stats()).collect());
        let n = self.hosts.len() as f64;
        let delivered_total: u64 = self.hosts.iter().map(|h| h.delivered_in_window).sum();
        let delivered_per_participant = delivered_total as f64 / n;
        let secs = self.cfg.duration.as_secs_f64();
        let achieved_bps = delivered_per_participant * (self.cfg.payload_bytes as f64 * 8.0) / secs;
        let retransmissions: u64 = self
            .hosts
            .iter()
            .zip(&start_stats)
            .map(|(h, s)| h.part.stats().retransmissions_sent - s.retransmissions_sent)
            .sum();
        let token_rounds = self.hosts[0].part.stats().tokens_handled
            - self
                .tokens_at_host0_at_start
                .min(self.hosts[0].part.stats().tokens_handled);

        if self.cfg.verify_order {
            self.verify_order_logs();
        }

        let report = SimReport {
            offered_bps: self.cfg.load.offered_bps(),
            achieved_bps,
            latency: self.latencies.summarize(),
            delivered_per_participant,
            token_rotations: token_rounds,
            switch_drops: self.switch_drops,
            socket_drops: self.socket_drops,
            retransmissions,
            submit_rejected: self.submit_rejected,
            events_processed: self.q.events_processed(),
            measurement_nanos: self.cfg.duration.as_nanos(),
        };
        (report, self.series.take())
    }

    /// Runs to the end of the measurement window and summarizes.
    pub fn run(self) -> SimReport {
        self.run_full().0
    }

    /// Panics if any two hosts disagree on the order or content of
    /// their common deliveries (total-order agreement). Hosts may have
    /// delivered different prefixes/suffixes (crashes, end-of-run
    /// cutoff); agreement is checked on the intersection by sequence
    /// number.
    fn verify_order_logs(&self) {
        use std::collections::HashMap;
        let mut uid_at: HashMap<(RingId, u64), u64> = HashMap::new();
        for (h, host) in self.hosts.iter().enumerate() {
            let mut last_seq: HashMap<RingId, u64> = HashMap::new();
            for &(ring, seq, uid) in &host.order_log {
                let last = last_seq.entry(ring).or_insert(0);
                assert!(
                    seq > *last,
                    "host {h}: delivery order not increasing in {ring:?} ({seq} after {last})"
                );
                *last = seq;
                match uid_at.entry((ring, seq)) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        assert_eq!(
                            *e.get(),
                            uid,
                            "host {h}: different message at {ring:?} seq {seq}"
                        );
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(uid);
                    }
                }
            }
        }
    }

    fn handle_event(&mut self, t: SimTime, ev: Ev) {
        match ev {
            Ev::SwitchArrive(frame) => self.switch_arrive(t, frame),
            Ev::HostArrive { host, frame } => self.host_arrive(t, host, frame),
            Ev::CpuCheck { host } => self.cpu_check(t, host),
            Ev::Timer { host, kind, gen } => self.timer_fired(t, host, kind, gen),
            Ev::Submit { host } => self.submit(t, host),
            Ev::Fault(i) => {
                let (_, fault) = self.cfg.faults.events()[i].clone();
                if let FaultEvent::Crash { host } = fault {
                    self.hosts[host].token_q.clear();
                    self.hosts[host].data_q.clear();
                }
                self.conn.apply(&fault);
            }
        }
    }

    // ----- network --------------------------------------------------------

    fn transmit(
        &mut self,
        from: usize,
        dest: Dest,
        wire_bytes: usize,
        msg: Message,
        ready: SimTime,
    ) {
        if self.conn.is_crashed(from) {
            return;
        }
        let host = &mut self.hosts[from];
        let ser = self.cfg.net.serialization(wire_bytes);
        let start = host.nic_tx_free.max(ready);
        host.nic_tx_free = start + ser;
        let arrive = host.nic_tx_free + self.cfg.net.propagation;
        self.q.schedule(
            arrive,
            Ev::SwitchArrive(Frame {
                from,
                dest,
                wire_bytes,
                msg,
            }),
        );
    }

    fn switch_arrive(&mut self, t: SimTime, frame: Frame) {
        let dests: Vec<usize> = match frame.dest {
            Dest::All => (0..self.hosts.len()).filter(|&d| d != frame.from).collect(),
            Dest::One(d) => vec![d],
        };
        for d in dests {
            if !self.conn.can_reach(frame.from, d) {
                continue;
            }
            if self.cfg.net.random_loss > 0.0 && self.rng.gen::<f64>() < self.cfg.net.random_loss {
                continue;
            }
            let ser = self.cfg.net.serialization(frame.wire_bytes);
            let port = &mut self.ports[d];
            while let Some(&(drain, bytes)) = port.draining.front() {
                if drain <= t {
                    port.draining.pop_front();
                    port.queued_bytes -= bytes;
                } else {
                    break;
                }
            }
            if port.queued_bytes + frame.wire_bytes > self.cfg.net.switch_port_buffer {
                self.switch_drops += 1;
                continue;
            }
            let start = (t + self.cfg.net.switch_latency).max(port.busy_until);
            let done = start + ser;
            port.busy_until = done;
            port.draining.push_back((done, frame.wire_bytes));
            port.queued_bytes += frame.wire_bytes;
            let arrive = done + self.cfg.net.propagation;
            self.q.schedule(
                arrive,
                Ev::HostArrive {
                    host: d,
                    frame: frame.clone(),
                },
            );
        }
    }

    fn host_arrive(&mut self, t: SimTime, host: usize, frame: Frame) {
        if self.conn.is_crashed(host) {
            return;
        }
        // The simulator hosts no runtime, so no hold cancel is ever
        // sent; one would ride the token socket.
        let (cap, q_bytes) = match frame.msg {
            Message::Token(_) | Message::Commit(_) | Message::HoldCancel { .. } => (
                self.cfg.net.token_socket_buffer,
                self.hosts[host].token_q_bytes,
            ),
            Message::Data(_) | Message::Join(_) => (
                self.cfg.net.data_socket_buffer,
                self.hosts[host].data_q_bytes,
            ),
        };
        if q_bytes + frame.wire_bytes > cap {
            self.socket_drops += 1;
            return;
        }
        let h = &mut self.hosts[host];
        let bytes = frame.wire_bytes;
        match frame.msg {
            Message::Token(_) | Message::Commit(_) | Message::HoldCancel { .. } => {
                h.token_q.push_back(frame);
                h.token_q_bytes += bytes;
            }
            Message::Data(_) | Message::Join(_) => {
                h.data_q.push_back(frame);
                h.data_q_bytes += bytes;
            }
        }
        self.wake_cpu(t, host);
    }

    fn wake_cpu(&mut self, t: SimTime, host: usize) {
        let h = &mut self.hosts[host];
        if !h.cpu_check_pending {
            h.cpu_check_pending = true;
            let at = h.cpu_next_free.max(t);
            self.q.schedule(at, Ev::CpuCheck { host });
        }
    }

    // ----- CPU -------------------------------------------------------------

    fn cpu_check(&mut self, t: SimTime, host: usize) {
        self.hosts[host].cpu_check_pending = false;
        if self.conn.is_crashed(host) {
            return;
        }
        let Some(frame) = self.pick_work(host) else {
            return;
        };
        let proc_cost = match &frame.msg {
            Message::Data(d) => self.cfg.profile.proc_data(d.payload.len()),
            Message::Token(_)
            | Message::Commit(_)
            | Message::Join(_)
            | Message::HoldCancel { .. } => self.cfg.profile.proc_token,
        };
        let mut cursor = t + proc_cost;
        let actions = self.hosts[host].part.handle_message(frame.msg);
        cursor = self.walk_actions(host, cursor, actions);
        // Saturating generators top the queue back up right after a
        // token pass (when sends just happened).
        if matches!(self.cfg.load, LoadMode::Saturating) {
            cursor = self.top_up(host, cursor);
        }
        self.hosts[host].cpu_next_free = cursor;
        if !self.hosts[host].token_q.is_empty() || !self.hosts[host].data_q.is_empty() {
            self.wake_cpu(cursor, host);
        }
    }

    /// Chooses the next frame per the protocol's priority preference.
    fn pick_work(&mut self, host: usize) -> Option<Frame> {
        let prefer_token = matches!(
            self.hosts[host].part.priority_mode(),
            ar_core::PriorityMode::TokenHigh
        );
        let h = &mut self.hosts[host];
        let (first, first_bytes, second, second_bytes) = if prefer_token {
            (
                &mut h.token_q,
                &mut h.token_q_bytes,
                &mut h.data_q,
                &mut h.data_q_bytes,
            )
        } else {
            (
                &mut h.data_q,
                &mut h.data_q_bytes,
                &mut h.token_q,
                &mut h.token_q_bytes,
            )
        };
        if let Some(f) = first.pop_front() {
            *first_bytes -= f.wire_bytes;
            return Some(f);
        }
        if let Some(f) = second.pop_front() {
            *second_bytes -= f.wire_bytes;
            return Some(f);
        }
        None
    }

    /// Executes protocol actions in order, advancing the CPU cursor and
    /// handing frames to the NIC at the instant they are issued.
    fn walk_actions(&mut self, host: usize, mut cursor: SimTime, actions: Vec<Action>) -> SimTime {
        for action in actions {
            match action {
                Action::Multicast(m) => {
                    cursor += self.cfg.profile.send_data(m.payload.len());
                    let wire = self.cfg.profile.data_wire_bytes(m.payload.len());
                    self.transmit(host, Dest::All, wire, Message::Data(m), cursor);
                }
                Action::SendToken { to, token } => {
                    cursor += self.cfg.profile.send_token;
                    let wire = self.cfg.profile.token_wire_bytes(token.rtr.len());
                    let dest = to.as_u16() as usize;
                    self.transmit(host, Dest::One(dest), wire, Message::Token(token), cursor);
                }
                Action::Deliver(d) => {
                    cursor += self.cfg.profile.deliver(d.payload.len());
                    if self.cfg.verify_order && d.payload.len() >= MIN_PAYLOAD {
                        let uid = u64::from_be_bytes(d.payload[8..16].try_into().expect("8 bytes"));
                        self.hosts[host]
                            .order_log
                            .push((d.ring_id, d.seq.as_u64(), uid));
                    }
                    self.record_delivery(host, cursor, &d.payload);
                }
                Action::DeliverConfigChange(_) => {
                    cursor += self.cfg.profile.deliver_fixed;
                }
                Action::MulticastJoin(j) => {
                    cursor += self.cfg.profile.send_token;
                    let wire = 32 + 2 * (j.proc_set.len() + j.fail_set.len());
                    self.transmit(host, Dest::All, wire, Message::Join(j), cursor);
                }
                Action::SendCommit { to, token } => {
                    cursor += self.cfg.profile.send_token;
                    let wire = 24 + 36 * token.memb.len();
                    let dest = to.as_u16() as usize;
                    self.transmit(host, Dest::One(dest), wire, Message::Commit(token), cursor);
                }
                Action::SetTimer(kind) => {
                    let h = &mut self.hosts[host];
                    let idx = kind_idx(kind);
                    h.timer_gen[idx] += 1;
                    let gen = h.timer_gen[idx];
                    let dur = self.timer_duration(kind);
                    self.q.schedule(cursor + dur, Ev::Timer { host, kind, gen });
                }
                Action::CancelTimer(kind) => {
                    self.hosts[host].timer_gen[kind_idx(kind)] += 1;
                }
            }
        }
        cursor
    }

    fn timer_duration(&self, kind: TimerKind) -> SimDuration {
        SimDuration::from_nanos(self.cfg.timeouts.duration(kind))
    }

    fn timer_fired(&mut self, t: SimTime, host: usize, kind: TimerKind, gen: u64) {
        if self.conn.is_crashed(host) {
            return;
        }
        if self.hosts[host].timer_gen[kind_idx(kind)] != gen {
            return; // re-armed or cancelled since
        }
        let start = self.hosts[host].cpu_next_free.max(t) + TIMER_CPU;
        let actions = self.hosts[host].part.handle_timer(kind);
        let cursor = self.walk_actions(host, start, actions);
        self.hosts[host].cpu_next_free = cursor;
    }

    // ----- application ------------------------------------------------------

    fn submit(&mut self, t: SimTime, host: usize) {
        if self.conn.is_crashed(host) {
            return;
        }
        let payload = self.make_payload(host, t);
        match self.hosts[host].part.submit(payload, self.cfg.service) {
            Ok(()) => {
                let h = &mut self.hosts[host];
                h.cpu_next_free = h.cpu_next_free.max(t) + self.cfg.profile.submit_cost;
            }
            Err(_) => self.submit_rejected += 1,
        }
        if let Some(interval) = self
            .cfg
            .load
            .interval(self.hosts.len(), self.cfg.payload_bytes)
        {
            // ±1% deterministic jitter keeps hosts from phase-locking.
            let jitter_range = (interval.as_nanos() / 100).max(1);
            let jitter = self.rng.gen_range(0..=2 * jitter_range);
            let next = t + SimDuration::from_nanos(interval.as_nanos() - jitter_range + jitter);
            self.q.schedule(next, Ev::Submit { host });
        }
    }

    /// Keeps the pending queue topped up in saturating mode; returns
    /// the advanced CPU cursor.
    fn top_up(&mut self, host: usize, mut cursor: SimTime) -> SimTime {
        let target = (self.cfg.protocol.personal_window * SATURATE_DEPTH) as usize;
        while self.hosts[host].part.pending_len() < target {
            let payload = self.make_payload(host, cursor);
            cursor += self.cfg.profile.submit_cost;
            if self.hosts[host]
                .part
                .submit(payload, self.cfg.service)
                .is_err()
            {
                break;
            }
        }
        cursor
    }

    fn make_payload(&mut self, host: usize, t: SimTime) -> Bytes {
        let h = &mut self.hosts[host];
        let uid = ((host as u64) << 48) | h.next_uid;
        h.next_uid += 1;
        let mut buf = BytesMut::with_capacity(self.cfg.payload_bytes);
        buf.put_u64(t.as_nanos());
        buf.put_u64(uid);
        buf.resize(self.cfg.payload_bytes, 0);
        buf.freeze()
    }

    fn record_delivery(&mut self, host: usize, at: SimTime, payload: &Bytes) {
        if host == 0 {
            if let Some(series) = &mut self.series {
                series.record(at);
            }
        }
        if at < self.measure_start || at >= self.measure_end {
            return;
        }
        self.hosts[host].delivered_in_window += 1;
        if payload.len() >= MIN_PAYLOAD {
            let submit_ns = u64::from_be_bytes(payload[..8].try_into().expect("8 bytes"));
            let submit = SimTime::from_nanos(submit_ns);
            if submit >= self.measure_start && at >= submit {
                self.latencies.record(at.since(submit));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    fn quick_cfg() -> RingSimConfig {
        let mut cfg = RingSimConfig::paper_default();
        cfg.duration = SimDuration::from_millis(40);
        cfg.warmup = SimDuration::from_millis(20);
        cfg.load = LoadMode::OpenLoop {
            aggregate_bps: 200_000_000,
        };
        cfg
    }

    #[test]
    fn ring_carries_traffic_and_measures_latency() {
        let report = run_ring(&quick_cfg());
        assert!(report.latency.count > 100, "{report:?}");
        assert!(report.achieved_bps > 150e6, "{report:?}");
        assert!(report.latency.mean > SimDuration::ZERO);
        assert_eq!(report.switch_drops, 0);
        assert_eq!(report.submit_rejected, 0);
        assert!(report.token_rotations > 0);
    }

    #[test]
    fn achieved_tracks_offered_below_saturation() {
        let mut cfg = quick_cfg();
        cfg.load = LoadMode::OpenLoop {
            aggregate_bps: 300_000_000,
        };
        let report = run_ring(&cfg);
        let ratio = report.achieved_bps / 300e6;
        assert!((0.9..1.1).contains(&ratio), "achieved {} of offered", ratio);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_ring(&quick_cfg());
        let b = run_ring(&quick_cfg());
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.delivered_per_participant, b.delivered_per_participant);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn different_seed_changes_details_not_shape() {
        let mut cfg = quick_cfg();
        cfg.seed = 7;
        let a = run_ring(&cfg);
        cfg.seed = 8;
        let b = run_ring(&cfg);
        assert_ne!(a.latency, b.latency, "seeds differ");
        let ratio = a.achieved_bps / b.achieved_bps;
        assert!((0.9..1.1).contains(&ratio));
    }

    #[test]
    fn saturating_mode_reaches_high_throughput_on_1g() {
        let mut cfg = quick_cfg();
        cfg.load = LoadMode::Saturating;
        let report = run_ring(&cfg);
        // The accelerated protocol should push a 1-gigabit network well
        // past 700 Mbps of goodput.
        assert!(
            report.achieved_bps > 700e6,
            "only {} Mbps",
            report.achieved_mbps()
        );
    }

    #[test]
    fn accelerated_beats_original_at_high_load_1g() {
        let mut cfg = quick_cfg();
        cfg.load = LoadMode::Saturating;
        cfg.protocol = ProtocolConfig::accelerated();
        let acc = run_ring(&cfg);
        cfg.protocol = ProtocolConfig::original();
        let orig = run_ring(&cfg);
        assert!(
            acc.achieved_bps > orig.achieved_bps,
            "accelerated {} vs original {} Mbps",
            acc.achieved_mbps(),
            orig.achieved_mbps()
        );
    }

    #[test]
    fn safe_latency_exceeds_agreed_latency() {
        let mut cfg = quick_cfg();
        cfg.service = ServiceType::Agreed;
        let agreed = run_ring(&cfg);
        cfg.service = ServiceType::Safe;
        let safe = run_ring(&cfg);
        assert!(
            safe.latency.mean > agreed.latency.mean,
            "safe {}us vs agreed {}us",
            safe.mean_latency_us(),
            agreed.mean_latency_us()
        );
    }

    #[test]
    fn random_loss_triggers_retransmissions_but_delivery_continues() {
        let mut cfg = quick_cfg();
        cfg.net = cfg.net.with_random_loss(0.001);
        let report = run_ring(&cfg);
        assert!(report.retransmissions > 0, "{report:?}");
        assert!(report.achieved_bps > 100e6, "{report:?}");
    }

    #[test]
    fn tiny_switch_buffers_cause_drops_but_protocol_recovers() {
        // Shrink the switch port buffer to a few frames: the
        // accelerated protocol's overlapped sending overruns it, frames
        // drop, and the rtr machinery recovers them — delivery still
        // completes at a reduced rate.
        let mut cfg = quick_cfg();
        cfg.net = cfg.net.with_switch_port_buffer(6 * 1500);
        cfg.load = LoadMode::Saturating;
        cfg.duration = SimDuration::from_millis(80);
        let report = run_ring(&cfg);
        assert!(report.switch_drops > 0, "{report:?}");
        assert!(report.retransmissions > 0, "{report:?}");
        assert!(
            report.achieved_bps > 100e6,
            "still making progress: {:.0} Mbps",
            report.achieved_mbps()
        );
    }

    #[test]
    fn tiny_data_socket_drops_are_counted() {
        let mut cfg = quick_cfg();
        // Processing-bound regime: bursts arrive faster than the CPU
        // drains them, so a small kernel buffer overflows.
        cfg.net = crate::netcfg::NetworkConfig::ten_gigabit();
        cfg.net.data_socket_buffer = 4 * 1500; // a few frames
        cfg.load = LoadMode::Saturating;
        cfg.duration = SimDuration::from_millis(80);
        let report = run_ring(&cfg);
        assert!(report.socket_drops > 0, "{report:?}");
        assert!(report.achieved_bps > 50e6, "{report:?}");
    }

    #[test]
    fn single_host_ring_self_delivers() {
        let mut cfg = quick_cfg();
        cfg.n_hosts = 1;
        cfg.load = LoadMode::OpenLoop {
            aggregate_bps: 50_000_000,
        };
        let report = run_ring(&cfg);
        assert!(report.latency.count > 0, "{report:?}");
        assert!(report.achieved_bps > 30e6, "{report:?}");
    }

    #[test]
    fn larger_rings_still_function() {
        let mut cfg = quick_cfg();
        cfg.n_hosts = 16;
        cfg.load = LoadMode::OpenLoop {
            aggregate_bps: 200_000_000,
        };
        let report = run_ring(&cfg);
        let ratio = report.achieved_bps / 200e6;
        assert!((0.9..1.1).contains(&ratio), "{report:?}");
    }

    #[test]
    fn order_agreement_verified_under_loss() {
        let mut cfg = quick_cfg();
        cfg.net = cfg.net.with_random_loss(0.002);
        cfg.verify_order = true;
        cfg.duration = SimDuration::from_millis(60);
        // run() panics if any host disagrees on the total order.
        let report = run_ring(&cfg);
        assert!(report.retransmissions > 0, "loss exercised: {report:?}");
    }

    #[test]
    fn order_agreement_verified_across_crash() {
        let mut cfg = quick_cfg();
        cfg.n_hosts = 4;
        cfg.verify_order = true;
        cfg.load = LoadMode::OpenLoop {
            aggregate_bps: 100_000_000,
        };
        cfg.duration = SimDuration::from_millis(250);
        cfg.warmup = SimDuration::from_millis(10);
        cfg.faults = FaultSchedule::none().crash(Duration::from_millis(50), 3);
        let _ = run_ring(&cfg);
    }

    #[test]
    fn crash_triggers_membership_and_ring_continues() {
        let mut cfg = quick_cfg();
        cfg.n_hosts = 4;
        cfg.load = LoadMode::OpenLoop {
            aggregate_bps: 100_000_000,
        };
        cfg.duration = SimDuration::from_millis(300);
        cfg.warmup = SimDuration::from_millis(10);
        cfg.faults = FaultSchedule::none().crash(Duration::from_millis(60), 3);
        let sim = RingSim::new(cfg.clone());
        let report = sim.run();
        // Deliveries continue after the membership change; the ring of
        // three keeps carrying the load (which is now 3/4 of offered).
        assert!(
            report.achieved_bps > 50e6,
            "only {} Mbps after crash",
            report.achieved_mbps()
        );
    }
}
