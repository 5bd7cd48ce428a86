//! The nemesis: a timed, seeded scheduler over [`World`] that replays
//! a [`NemesisPlan`] (crashes, restarts, partitions, heals) against a
//! ring while the world's Extended Virtual Synchrony oracles watch.
//!
//! Two modes share the plan format:
//!
//! * [`NemesisRunner`] — deterministic and single-threaded. The
//!   [`World`] turns every participant action into in-flight messages,
//!   armed timers and oracle input, exactly as it does for the
//!   explorer; the runner only decides *when* things happen. It keeps a
//!   **virtual clock** and an `(at, id)` event heap, draws per-copy
//!   loss and jitter from a seeded RNG, and applies each plan event to
//!   the world, which is the one record of who is up and who reaches
//!   whom (a crash is [`Step::Fail`], a restart is
//!   [`World::restart_with`], a partition is [`World::set_components`]).
//!   On top it adds what only a timed run has: rotation-fed adaptive
//!   timeouts, host stalls, per-host flight recorders, and durable logs
//!   behind [`ar_log::DeliveryGate`], the Safe-durability gate `ard`'s
//!   runtime runs, called per step exactly as the runtime calls it (a
//!   crash drops the gate unsynced). Given the same plan and seed, a
//!   run is **bit-identical**: the [`NemesisOutcome::digest`] can be
//!   compared across repeats.
//! * live mode — a real multi-threaded ring of daemons wrapped in
//!   [`crate::chaos::ChaosTransport`]s; [`apply_connectivity`]
//!   translates the same plan's connectivity matrix onto the
//!   transports' [`ChaosControl`]s at wall-clock offsets. Threads make
//!   bit-identical replay impossible there, so live assertions are
//!   convergence-shaped (see `tests/nemesis_e2e.rs`).
//!
//! The plan type itself is [`ar_core::fault::FaultSchedule`], which the
//! simulator's `RingSimConfig::faults` takes too, so one fault scenario
//! drives all three harnesses.

use std::collections::BTreeMap;
use std::io;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ar_core::checker::DurabilityChecker;
use ar_core::fault::{Connectivity, FaultEvent};
use ar_core::{
    AdaptiveConfig, AdaptiveTimeouts, ConfigChange, ConfigChangeKind, Delivery, Message,
    Participant, ParticipantId, ProtocolConfig, RingId, ServiceType, TimeoutConfig, TimerKind,
};
use ar_log::{DeliveryGate, FsyncPolicy, LogConfig, SegmentedLog};
use ar_telemetry::FlightRecorder;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::chaos::ChaosControl;
use crate::replay::{kind_idx, Hooks, Inflight, ScheduleError, Step, World};

/// A crash/restart/partition/heal schedule, shared with the simulator.
pub use ar_core::fault::FaultSchedule as NemesisPlan;

/// Applies a [`Connectivity`] matrix onto the per-endpoint
/// [`ChaosControl`]s of a live ring: `controls[i]` belongs to the
/// endpoint whose pid is `ParticipantId::new(i)`.
///
/// Crashed hosts are blackholed; partition edges become outbound
/// blocks on the sending side (which covers destination-blind token
/// unicast as well — see [`crate::chaos`] module docs).
pub fn apply_connectivity(controls: &[ChaosControl], conn: &Connectivity) {
    for (i, control) in controls.iter().enumerate() {
        if conn.is_crashed(i) {
            control.crash();
            continue;
        }
        control.restart();
        let blocked = (0..controls.len())
            .filter(|&j| j != i && !conn.can_reach(i, j))
            .map(|j| ParticipantId::new(j as u16));
        control.set_blocked_to(blocked);
    }
}

#[derive(Debug)]
enum EvKind {
    /// The world's in-flight message `msg` arrives at host `to`.
    Arrive { to: usize, msg: u64, token: bool },
    /// A protocol timer fires at `host` if `arm` is still its latest
    /// arm (arms are named by the id of the event they pushed).
    Timer {
        host: usize,
        kind: TimerKind,
        arm: u64,
    },
    /// The `i`-th plan event takes effect.
    Fault(usize),
    /// A scheduled application submission at `host`.
    Submit {
        host: usize,
        payload: Vec<u8>,
        service: ServiceType,
    },
    /// A scheduled change of `host`'s marginal-link loss probability.
    LossChange { host: usize, prob: f64 },
    /// `host` stops handling anything until virtual time `until`.
    Stall { host: usize, until: u64 },
}

/// What a [`NemesisRunner`] run produced.
#[derive(Debug)]
pub struct NemesisOutcome {
    /// True if every surviving host ended operational on one common
    /// ring whose members are exactly the survivors.
    pub converged: bool,
    /// The ring each surviving host ended on (`None` for crashed
    /// hosts).
    pub final_rings: Vec<Option<RingId>>,
    /// Hosts alive at the end of the run.
    pub survivors: Vec<usize>,
    /// Deliveries per host.
    pub deliveries: Vec<usize>,
    /// EVS invariant violations (empty on a correct run).
    pub evs_violations: Vec<String>,
    /// Token retransmission-bound violations (empty on a correct run).
    pub token_violations: Vec<String>,
    /// Pre/post-token send-split violations (empty on a correct run).
    pub split_violations: Vec<String>,
    /// Durability-contract violations against the recovered on-disk
    /// logs (empty when durable logs are disabled or the contract
    /// held).
    pub durability_violations: Vec<String>,
    /// Delivery records recovered from disk per host at the end of the
    /// run (empty when durable logs are disabled).
    pub recovered_records: Vec<u64>,
    /// Tokens observed on the wire.
    pub tokens_seen: u64,
    /// Messages dropped by loss or unreachability.
    pub dropped: u64,
    /// Virtual time when the run stopped.
    pub stopped_at: Duration,
    /// FNV-1a digest of every host's delivery and configuration logs
    /// plus final rings; equal for equal (plan, seed) runs.
    pub digest: u64,
    /// Per-host flight recorders holding the tail of each host's
    /// protocol-event history (current incarnation; timestamps are
    /// virtual nanoseconds).
    pub flight: Vec<Arc<FlightRecorder>>,
    /// Per-host digests of the retained flight events; equal for equal
    /// (plan, seed) runs.
    pub flight_digests: Vec<u64>,
}

impl NemesisOutcome {
    /// The tail of every host's flight recorder (up to `per_host`
    /// events each), rendered for post-mortem reports.
    pub fn flight_tail(&self, per_host: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, fr) in self.flight.iter().enumerate() {
            let dump = fr.dump();
            let skip = dump.len().saturating_sub(per_host);
            let _ = writeln!(
                out,
                "host {i}: {} events recorded, last {}:",
                fr.total(),
                dump.len() - skip
            );
            for fe in &dump[skip..] {
                let _ = writeln!(out, "  at={} {:?}", fe.at, fe.ev);
            }
        }
        out
    }

    /// Panics with a readable report — including each host's recent
    /// protocol events — unless the run converged with no violations.
    pub fn assert_clean(&self) {
        assert!(
            self.evs_violations.is_empty(),
            "EVS violations: {:#?}\n{}",
            self.evs_violations,
            self.flight_tail(10)
        );
        assert!(
            self.token_violations.is_empty(),
            "token rule violations: {:#?}\n{}",
            self.token_violations,
            self.flight_tail(10)
        );
        assert!(
            self.split_violations.is_empty(),
            "send-split violations: {:#?}\n{}",
            self.split_violations,
            self.flight_tail(10)
        );
        assert!(
            self.durability_violations.is_empty(),
            "durability violations: {:#?}\n{}",
            self.durability_violations,
            self.flight_tail(10)
        );
        assert!(
            self.converged,
            "ring did not converge: final rings {:?}, survivors {:?}\n{}",
            self.final_rings,
            self.survivors,
            self.flight_tail(10)
        );
    }
}

/// Events retained per host by the harness's flight recorders.
const FLIGHT_CAPACITY: usize = 256;

fn host_log_dir(base: &std::path::Path, host: usize) -> PathBuf {
    base.join(format!("host-{host}"))
}

/// The runner's clock and network: the event heap, the lossy links,
/// timer deadlines and the durable-log gates. The world's [`Hooks`]
/// land here.
#[derive(Debug)]
struct Net {
    clock: u64,
    next_id: u64,
    /// Pending events by `(at, id)`: time order, ties in push order.
    queue: BTreeMap<(u64, u64), EvKind>,
    /// Per-host, per-kind latest arm; a popped timer event fires only
    /// if its arm is still the latest.
    armed_by: Vec<[u64; 5]>,
    rng: StdRng,
    drop_prob: f64,
    /// Extra per-host loss probability (a "marginal link"): a copy to or
    /// from host `i` is dropped with the max of `drop_prob` and the two
    /// endpoints' host rates.
    host_loss: Vec<f64>,
    link_latency: u64,
    dropped: u64,
    /// Per-host durable logs behind the Safe-durability gate (None
    /// until [`enable_durable_logs`](NemesisRunner::enable_durable_logs),
    /// and while a host is down).
    gates: Vec<Option<DeliveryGate>>,
    durability: DurabilityChecker,
}

impl Net {
    fn push_event(&mut self, at: u64, kind: EvKind) {
        self.queue.insert((at, self.next_id), kind);
        self.next_id += 1;
    }
}

/// The hooks of one world call: the runner's [`Net`] plus the logs the
/// hosts' deliveries and configurations surface into.
struct Surface<'a> {
    net: &'a mut Net,
    logs: &'a mut [Vec<Delivery>],
    configs: &'a mut [Vec<ConfigChange>],
}

impl Surface<'_> {
    /// Surfaces one delivery at `host` to its application.
    fn surface(&mut self, host: usize, d: Delivery) {
        self.net.durability.on_safe_delivered(host, &d);
        self.logs[host].push(d);
    }

    /// Runs one call of `host`'s gate (nothing without a durable log)
    /// and surfaces what it released.
    fn gated(
        &mut self,
        host: usize,
        call: impl FnOnce(&mut DeliveryGate, &mut Vec<Delivery>) -> io::Result<()>,
    ) {
        let mut out = Vec::new();
        if let Some(gate) = self.net.gates[host].as_mut() {
            call(gate, &mut out).expect("nemesis durable log");
        }
        for d in out {
            self.surface(host, d);
        }
    }

    /// `host`'s step ends at the current virtual time.
    fn end_step(&mut self, host: usize) {
        let now = self.net.clock;
        self.gated(host, |gate, out| gate.end_step(now, out));
    }
}

impl Hooks for Surface<'_> {
    fn send(&mut self, m: &Inflight) -> bool {
        let net = &mut *self.net;
        let loss = net
            .drop_prob
            .max(net.host_loss[m.from as usize])
            .max(net.host_loss[m.to as usize]);
        if loss > 0.0 && net.rng.gen::<f64>() < loss {
            net.dropped += 1;
            return false;
        }
        // Small deterministic per-copy jitter keeps arrivals from
        // different senders interleaved rather than lockstep.
        let jitter = net.rng.gen_range(0..net.link_latency / 10 + 1);
        let at = net.clock + net.link_latency + jitter;
        let token = matches!(m.msg, Message::Token(_));
        net.push_event(
            at,
            EvKind::Arrive {
                to: m.to as usize,
                msg: m.id,
                token,
            },
        );
        true
    }

    fn cut(&mut self, _from: u16, _to: u16) {
        self.net.dropped += 1;
    }

    fn timer_set(&mut self, host: u16, kind: TimerKind, timeouts: &TimeoutConfig) {
        let net = &mut *self.net;
        let host = host as usize;
        let arm = net.next_id;
        net.armed_by[host][kind_idx(kind)] = arm;
        net.push_event(
            net.clock + timeouts.duration(kind),
            EvKind::Timer { host, kind, arm },
        );
    }

    fn delivered(&mut self, host: u16, d: Delivery) {
        let host = host as usize;
        if self.net.gates[host].is_none() {
            self.surface(host, d);
        } else {
            self.gated(host, |gate, out| gate.deliver(d, out));
        }
    }

    fn config(&mut self, host: u16, c: ConfigChange) {
        let host = host as usize;
        self.gated(host, |gate, out| gate.config(&c, out));
        self.configs[host].push(c);
    }
}

/// Deterministic single-threaded nemesis harness (see module docs).
///
/// It derefs to the [`World`] it schedules, for read-only probes of
/// the participants, the messages in flight and the oracles.
#[derive(Debug)]
pub struct NemesisRunner {
    n: usize,
    world: World,
    net: Net,
    plan: NemesisPlan,
    /// Scripted submissions, loss changes and stalls not yet due.
    scripted: usize,
    /// Virtual time until which each host is stalled (0 = running).
    stalled_until: Vec<u64>,
    /// Per-host rotation-informed timeout controllers (None = static
    /// timeouts, the default).
    adaptive: Vec<Option<AdaptiveTimeouts>>,
    /// When each host last received a token (virtual clock), for the
    /// adaptive rotation measurement.
    last_token_arrival: Vec<Option<u64>>,
    /// Base directory of the per-host logs, plus the shared policy.
    durable_cfg: Option<(PathBuf, FsyncPolicy, bool)>,
    /// Delivery logs per host (survives restarts).
    pub logs: Vec<Vec<Delivery>>,
    /// Configuration-change logs per host.
    pub configs: Vec<Vec<ConfigChange>>,
    /// Per-host flight recorders (attached as participant observers;
    /// re-attached across restarts).
    recorders: Vec<Arc<FlightRecorder>>,
}

impl Deref for NemesisRunner {
    type Target = World;

    fn deref(&self) -> &World {
        &self.world
    }
}

impl NemesisRunner {
    /// Builds `n` hosts on an established common ring, with per-copy
    /// loss probability `drop_prob` and the given fault plan. Host `i`
    /// is `ParticipantId::new(i)`.
    ///
    /// # Panics
    ///
    /// Panics if the protocol configuration is invalid or `drop_prob`
    /// is outside `[0, 1)`.
    pub fn new(
        n: u16,
        protocol: ProtocolConfig,
        plan: NemesisPlan,
        drop_prob: f64,
        seed: u64,
    ) -> NemesisRunner {
        assert!(
            (0.0..1.0).contains(&drop_prob),
            "drop probability must be in [0, 1)"
        );
        let mut world = World::ring(n, protocol);
        let recorders: Vec<Arc<FlightRecorder>> = (0..n)
            .map(|_| FlightRecorder::shared(FLIGHT_CAPACITY))
            .collect();
        for (i, fr) in recorders.iter().enumerate() {
            world.participant_mut(i as u16).set_observer(fr.clone());
        }
        let n = n as usize;
        let mut runner = NemesisRunner {
            n,
            world,
            net: Net {
                clock: 0,
                next_id: 0,
                queue: BTreeMap::new(),
                armed_by: vec![[u64::MAX; 5]; n],
                rng: StdRng::seed_from_u64(seed),
                drop_prob,
                host_loss: vec![0.0; n],
                // 50µs per hop: fast-datacenter-like, far below the 50ms
                // token-loss timeout so healthy rotations never time out.
                link_latency: 50_000,
                dropped: 0,
                gates: (0..n).map(|_| None).collect(),
                durability: DurabilityChecker::new(),
            },
            plan,
            scripted: 0,
            stalled_until: vec![0; n],
            adaptive: (0..n).map(|_| None).collect(),
            last_token_arrival: vec![None; n],
            durable_cfg: None,
            logs: vec![Vec::new(); n],
            configs: vec![Vec::new(); n],
            recorders,
        };
        for i in 0..runner.plan.events().len() {
            let at = runner.plan.events()[i].0.as_nanos() as u64;
            runner.net.push_event(at, EvKind::Fault(i));
        }
        runner
    }

    /// The world and the hooks that schedule its effects, borrowed
    /// apart.
    fn split(&mut self) -> (&mut World, Surface<'_>) {
        let surface = Surface {
            net: &mut self.net,
            logs: &mut self.logs,
            configs: &mut self.configs,
        };
        (&mut self.world, surface)
    }

    /// Applies one world step acting on `host` at the current virtual
    /// time, then ends the step at `host`'s gate, as `ard`'s runtime
    /// does after each of its steps.
    fn step(&mut self, host: usize, step: &Step) -> Result<(), ScheduleError> {
        let clock = self.net.clock;
        self.world.participant_mut(host as u16).observe_now(clock);
        let (world, mut surface) = self.split();
        let applied = world.apply_step_with(step, &mut surface);
        surface.end_step(host);
        applied
    }

    /// Submits a payload for ordering at host `i` (tracked for the
    /// self-delivery check).
    pub fn submit(&mut self, i: usize, payload: &[u8], service: ServiceType) {
        self.world
            .participant_mut(i as u16)
            .observe_now(self.net.clock);
        self.world
            .submit(i as u16, Bytes::from(payload.to_vec()), service)
            .expect("nemesis workloads fit the send queue");
    }

    /// Schedules a submission at host `i` for virtual time `at` — the
    /// way to inject traffic *after* a heal or restart, which is what
    /// lets separated rings detect each other and merge.
    pub fn submit_at(&mut self, at: Duration, i: usize, payload: &[u8], service: ServiceType) {
        self.scripted += 1;
        self.net.push_event(
            at.as_nanos() as u64,
            EvKind::Submit {
                host: i,
                payload: payload.to_vec(),
                service,
            },
        );
    }

    /// Starts every participant.
    pub fn start(&mut self) {
        for i in 0..self.n {
            self.world
                .participant_mut(i as u16)
                .observe_now(self.net.clock);
        }
        let n = self.n;
        let (world, mut surface) = self.split();
        world.start_with(&mut surface);
        for i in 0..n {
            surface.end_step(i);
        }
    }

    /// The per-host flight recorders (virtual-clock timestamps).
    pub fn flight_recorders(&self) -> &[Arc<FlightRecorder>] {
        &self.recorders
    }

    /// Host `i`'s participant (for end-of-run inspection: stats,
    /// timeouts, effective window, quarantine state).
    pub fn participant(&self, i: usize) -> &Participant {
        self.world.participant(i as u16)
    }

    /// Sets host `i`'s marginal-link loss probability immediately.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1)`.
    pub fn set_host_loss(&mut self, i: usize, prob: f64) {
        assert!(
            (0.0..1.0).contains(&prob),
            "host loss probability must be in [0, 1)"
        );
        self.net.host_loss[i] = prob;
    }

    /// Schedules host `i`'s marginal-link loss probability to change at
    /// virtual time `at` — the way to script a flapping or marginal
    /// link (alternating lossy and clean windows).
    pub fn schedule_host_loss(&mut self, at: Duration, i: usize, prob: f64) {
        assert!(
            (0.0..1.0).contains(&prob),
            "host loss probability must be in [0, 1)"
        );
        self.scripted += 1;
        self.net
            .push_event(at.as_nanos() as u64, EvKind::LossChange { host: i, prob });
    }

    /// Stalls host `i` from `at` for `dur`, as a process starved of CPU
    /// is: it handles nothing until `at + dur`, and its arrivals, due
    /// timers and submissions queue in order and run when the stall
    /// ends. Its peers hear nothing from it meanwhile; a stall longer
    /// than the token-loss timeout makes them reconfigure.
    pub fn schedule_stall(&mut self, at: Duration, i: usize, dur: Duration) {
        self.scripted += 1;
        let at = at.as_nanos() as u64;
        let until = at + dur.as_nanos() as u64;
        self.net.push_event(at, EvKind::Stall { host: i, until });
    }

    /// Enables rotation-informed failure detection on every host: each
    /// token arrival feeds that host's controller, and changed policies
    /// are installed via `Participant::adapt_timeouts`. Restarted hosts
    /// get a reset controller. Fully deterministic (driven by the
    /// virtual clock).
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid against the hosts' current
    /// timeout base.
    pub fn enable_adaptive(&mut self, policy: AdaptiveConfig) {
        for i in 0..self.n {
            let base = *self.participant(i).timeouts();
            self.adaptive[i] =
                Some(AdaptiveTimeouts::new(base, policy).expect("valid adaptive policy"));
        }
    }

    /// Gives every host a durable segmented log under
    /// `base/host-<i>` behind the [`DeliveryGate`] `ard` runs: every
    /// delivery is appended when it is ordered, and with `gate_safe`
    /// set Safe deliveries are surfaced only once their record is
    /// fsynced. A [`FaultEvent::Crash`] then models `kill -9`: the
    /// host's gate is dropped without a flush (buffered records die
    /// with the process) while the on-disk segments survive; a
    /// [`FaultEvent::Restart`] reopens the directory, truncating any
    /// torn tail.
    /// At the end of the run every host's disk is scanned and checked
    /// against the surfaced Safe deliveries by a [`DurabilityChecker`].
    ///
    /// # Panics
    ///
    /// Panics if a log directory cannot be created or opened.
    pub fn enable_durable_logs(
        &mut self,
        base: impl Into<PathBuf>,
        fsync: FsyncPolicy,
        gate_safe: bool,
    ) {
        let base = base.into();
        self.durable_cfg = Some((base, fsync, gate_safe));
        for i in 0..self.n {
            self.open_durable(i);
        }
    }

    /// Opens (or, after a restart, reopens) host `i`'s durable log.
    /// Recovery truncates any torn tail and removes everything past the
    /// first corruption, so nothing resurrects.
    fn open_durable(&mut self, i: usize) {
        if let Some((base, fsync, gate_safe)) = &self.durable_cfg {
            let cfg = LogConfig::new(host_log_dir(base, i)).with_fsync(*fsync);
            let (log, _) = SegmentedLog::open(cfg).expect("open nemesis durable log");
            self.net.gates[i] = Some(DeliveryGate::new(log, *gate_safe));
        }
    }

    fn handle_fault(&mut self, idx: usize) {
        let (_, ev) = self.plan.events()[idx].clone();
        match ev {
            FaultEvent::Crash { host } => {
                // The plan, not an exploration budget, bounds crashes.
                self.world.set_fault_budget(u8::MAX);
                // Silent stop: the host's timers disarm and what is in
                // flight to it is lost; its logs survive. A crash of a
                // host already down changes nothing.
                let _ = self.world.apply_step(&Step::Fail { host: host as u16 });
                // kill -9: the gate and its log handle die with the
                // process. Buffered (never-flushed) records are lost;
                // whatever reached the OS survives on disk.
                self.net.gates[host] = None;
            }
            FaultEvent::Restart { host } => {
                // A restarted host is a fresh incarnation: empty
                // protocol state, singleton ring, rejoin via membership.
                let pid = ParticipantId::new(host as u16);
                let cfg = *self.participant(host).config();
                let mut fresh = Participant::new_singleton(pid, cfg).expect("valid config");
                // The recorder survives the restart: its tail spans
                // incarnations, which is exactly what a post-mortem
                // wants to see.
                fresh.set_observer(self.recorders[host].clone());
                fresh.observe_now(self.net.clock);
                // The new incarnation measures rotations from scratch.
                self.last_token_arrival[host] = None;
                if let Some(ctl) = self.adaptive[host].as_mut() {
                    ctl.reset();
                }
                self.open_durable(host);
                let (world, mut surface) = self.split();
                world.restart_with(host as u16, fresh, &mut surface);
                surface.end_step(host);
            }
            FaultEvent::Partition { component_of } => self.world.set_components(&component_of),
            FaultEvent::Heal => self.world.set_components(&vec![0; self.n]),
        }
    }

    /// Runs until `limit` virtual time elapses or the ring converges
    /// (whichever is first), then evaluates the checkers.
    pub fn run(&mut self, limit: Duration) -> NemesisOutcome {
        let limit = limit.as_nanos() as u64;
        // Converged-state detection is re-checked at most once per
        // virtual millisecond to keep the hot loop cheap.
        let mut next_check = 0u64;
        // Peek, don't pop: an event beyond the limit stays queued, so a
        // later `run` with a larger limit resumes exactly where this one
        // stopped (phase-based measurements rely on it).
        while let Some(next) = self.net.queue.first_entry().filter(|e| e.key().0 <= limit) {
            let ((at, _), kind) = next.remove_entry();
            self.net.clock = self.net.clock.max(at);
            let clock = self.net.clock;
            // A stalled host's inputs wait, in order, for the stall to
            // end.
            if let EvKind::Arrive { to: host, .. }
            | EvKind::Timer { host, .. }
            | EvKind::Submit { host, .. } = kind
            {
                if self.stalled_until[host] > clock {
                    self.net.push_event(self.stalled_until[host], kind);
                    continue;
                }
            }
            match kind {
                EvKind::Arrive { to, msg, token } => {
                    // A crash of the destination lost it in flight.
                    if !self.world.inflight().iter().any(|m| m.id == msg) {
                        self.net.dropped += 1;
                        continue;
                    }
                    if token {
                        self.feed_adaptive(to);
                    }
                    self.step(to, &Step::Deliver { msg })
                        .expect("the message is in flight");
                }
                EvKind::Timer { host, kind, arm } => {
                    if self.world.is_failed(host as u16) {
                        continue;
                    }
                    // A later arm superseded this deadline; a cancel
                    // disarmed it in the world (the step then fails).
                    if self.net.armed_by[host][kind_idx(kind)] == arm {
                        let timer = Step::Timer {
                            host: host as u16,
                            kind,
                        };
                        let _ = self.step(host, &timer);
                    }
                }
                EvKind::Fault(idx) => self.handle_fault(idx),
                EvKind::LossChange { host, prob } => {
                    self.scripted -= 1;
                    self.net.host_loss[host] = prob;
                }
                EvKind::Submit {
                    host,
                    payload,
                    service,
                } => {
                    self.scripted -= 1;
                    if !self.world.is_failed(host as u16) {
                        self.submit(host, &payload, service);
                    }
                }
                EvKind::Stall { host, until } => {
                    self.scripted -= 1;
                    self.stalled_until[host] = self.stalled_until[host].max(until);
                }
            }
            if clock >= next_check {
                next_check = clock + 1_000_000;
                if self.faults_done() && self.is_converged() {
                    break;
                }
            }
        }
        self.outcome()
    }

    /// Feeds host `to`'s adaptive controller one rotation sample (the
    /// virtual time since its previous token receipt) and installs any
    /// newly derived policy.
    fn feed_adaptive(&mut self, to: usize) {
        let clock = self.net.clock;
        if let Some(ctl) = self.adaptive[to].as_mut() {
            if let Some(prev) = self.last_token_arrival[to] {
                if ctl.record_rotation(clock - prev) {
                    let p = self.world.participant_mut(to as u16);
                    p.observe_now(clock);
                    let _ = p.adapt_timeouts(ctl.current());
                }
            }
            self.last_token_arrival[to] = Some(clock);
        }
    }

    fn faults_done(&self) -> bool {
        self.scripted == 0
            && self.stalled_until.iter().all(|&t| t <= self.net.clock)
            && self
                .plan
                .events()
                .last()
                .is_none_or(|(t, _)| self.net.clock >= t.as_nanos() as u64)
    }

    fn survivors(&self) -> Vec<usize> {
        (0..self.n)
            .filter(|&i| !self.world.is_failed(i as u16))
            .collect()
    }

    fn is_converged(&self) -> bool {
        let survivors = self.survivors();
        let Some(&first) = survivors.first() else {
            return false;
        };
        let want = self.participant(first).ring().id();
        let members: Vec<ParticipantId> = survivors
            .iter()
            .map(|&i| ParticipantId::new(i as u16))
            .collect();
        let component = self.world.component_of(first as u16);
        let all_partitions_healed = survivors
            .iter()
            .all(|&i| self.world.component_of(i as u16) == component);
        all_partitions_healed
            && survivors.iter().all(|&i| {
                let p = self.participant(i);
                p.is_operational() && p.ring().id() == want && p.ring().members() == members
            })
            // Every survivor self-delivered what its current
            // incarnation submitted. EVS confines a message to the
            // configuration it was ordered in (a payload ordered in an
            // intermediate merge ring never reaches hosts outside it),
            // so this is the strongest liveness the harness can demand;
            // the oracles judge whatever else was delivered.
            && self.world.checker.check_self_delivery(&survivors).is_ok()
    }

    fn outcome(&mut self) -> NemesisOutcome {
        let survivors = self.survivors();
        let converged = self.is_converged();
        let final_rings: Vec<Option<RingId>> = (0..self.n)
            .map(|i| (!self.world.is_failed(i as u16)).then(|| self.participant(i).ring().id()))
            .collect();
        let oracles = self.world.oracle_report();
        let mut recovered_records = vec![0u64; self.n];
        if let Some((base, _, _)) = self.durable_cfg.clone() {
            for (i, recovered) in recovered_records.iter_mut().enumerate() {
                // Live hosts shut down cleanly first; crashed hosts are
                // scanned as their disk was left by the "kill".
                self.split().1.gated(i, |gate, out| gate.flush(out));
                let rec = ar_log::read_log_dir(&host_log_dir(&base, i))
                    .expect("scan nemesis durable log");
                *recovered = rec.records;
                for (_, r) in &rec.deliveries {
                    self.net.durability.on_log_record(
                        i,
                        &Delivery {
                            ring_id: r.ring,
                            seq: r.seq,
                            pid: r.pid,
                            service: r.service,
                            payload: r.payload.clone(),
                        },
                    );
                }
            }
        }
        let durability_violations = self.net.durability.check().err().unwrap_or_default();
        let digest = self.digest(&final_rings);
        NemesisOutcome {
            converged,
            final_rings,
            survivors,
            deliveries: self.logs.iter().map(Vec::len).collect(),
            evs_violations: oracles.evs,
            token_violations: oracles.token,
            split_violations: oracles.split,
            durability_violations,
            recovered_records,
            tokens_seen: self.world.tokens_seen(),
            dropped: self.net.dropped,
            stopped_at: Duration::from_nanos(self.net.clock),
            digest,
            flight_digests: self.recorders.iter().map(|fr| fr.digest()).collect(),
            flight: self.recorders.clone(),
        }
    }

    fn digest(&self, final_rings: &[Option<RingId>]) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        // Trace-level counters make the digest sensitive to the path
        // taken, not just the end state: two seeds that happen to
        // converge identically still produce distinct digests when
        // their loss patterns differed.
        eat(&self.net.dropped.to_le_bytes());
        eat(&self.world.tokens_seen().to_le_bytes());
        eat(&self.net.clock.to_le_bytes());
        for (i, ring) in final_rings.iter().enumerate().take(self.n) {
            eat(&(i as u64).to_le_bytes());
            if let Some(r) = ring {
                eat(&r.representative().as_u16().to_le_bytes());
                eat(&r.ring_seq().to_le_bytes());
            }
            for d in &self.logs[i] {
                eat(&d.ring_id.ring_seq().to_le_bytes());
                eat(&d.seq.as_u64().to_le_bytes());
                eat(&d.pid.as_u16().to_le_bytes());
                eat(&d.payload);
            }
            for c in &self.configs[i] {
                eat(&[matches!(c.kind, ConfigChangeKind::Regular) as u8]);
                eat(&c.ring_id.ring_seq().to_le_bytes());
                for m in &c.members {
                    eat(&m.as_u16().to_le_bytes());
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(runner: &mut NemesisRunner, n: usize, per_host: usize) -> usize {
        let mut count = 0;
        for i in 0..n {
            for k in 0..per_host {
                runner.submit(i, format!("h{i}-m{k}").as_bytes(), ServiceType::Agreed);
                count += 1;
            }
        }
        count
    }

    #[test]
    fn fault_free_run_converges_clean() {
        let mut r = NemesisRunner::new(
            4,
            ProtocolConfig::accelerated(),
            NemesisPlan::none(),
            0.0,
            1,
        );
        let count = workload(&mut r, 4, 3);
        r.start();
        let out = r.run(Duration::from_secs(10));
        out.assert_clean();
        assert!(out.deliveries.iter().all(|&d| d >= count));
        r.checker.check_self_delivery(&[0, 1, 2, 3]).unwrap();
    }

    #[test]
    fn crash_shrinks_ring_and_stays_clean() {
        let plan = NemesisPlan::none().crash(Duration::from_millis(20), 2);
        let mut r = NemesisRunner::new(4, ProtocolConfig::accelerated(), plan, 0.0, 3);
        workload(&mut r, 4, 2);
        r.start();
        let out = r.run(Duration::from_secs(20));
        out.assert_clean();
        assert_eq!(out.survivors, vec![0, 1, 3]);
        assert!(out.final_rings[2].is_none());
    }

    #[test]
    fn partition_heal_reconverges() {
        let plan = NemesisPlan::none()
            .partition(Duration::from_millis(30), vec![0, 0, 1, 1])
            .heal(Duration::from_millis(400));
        let mut r = NemesisRunner::new(4, ProtocolConfig::accelerated(), plan, 0.0, 5);
        workload(&mut r, 4, 2);
        // Post-heal traffic is what lets the two sides hear each other
        // and merge.
        r.submit_at(
            Duration::from_millis(450),
            0,
            b"post-heal-0",
            ServiceType::Agreed,
        );
        r.submit_at(
            Duration::from_millis(450),
            2,
            b"post-heal-2",
            ServiceType::Agreed,
        );
        r.start();
        let out = r.run(Duration::from_secs(30));
        out.assert_clean();
        assert_eq!(out.survivors.len(), 4);
        let rings: Vec<_> = out.final_rings.iter().flatten().collect();
        assert!(rings.windows(2).all(|w| w[0] == w[1]), "{rings:?}");
    }

    #[test]
    fn restart_rejoins_the_ring() {
        let plan = NemesisPlan::none()
            .crash(Duration::from_millis(20), 1)
            .restart(Duration::from_millis(300), 1);
        let mut r = NemesisRunner::new(3, ProtocolConfig::accelerated(), plan, 0.0, 8);
        workload(&mut r, 3, 2);
        r.submit_at(
            Duration::from_millis(350),
            0,
            b"post-restart",
            ServiceType::Agreed,
        );
        r.start();
        let out = r.run(Duration::from_secs(30));
        assert!(
            out.evs_violations.is_empty(),
            "EVS violations: {:#?}",
            out.evs_violations
        );
        assert_eq!(out.survivors.len(), 3);
        assert!(
            out.converged,
            "restarted host rejoined: {:?}",
            out.final_rings
        );
    }

    #[test]
    fn digests_are_bit_identical_across_repeats() {
        let run = |seed: u64| {
            let plan = NemesisPlan::none()
                .crash(Duration::from_millis(25), 4)
                .partition(Duration::from_millis(60), vec![0, 0, 0, 1, 1])
                .heal(Duration::from_millis(300));
            let mut r = NemesisRunner::new(5, ProtocolConfig::accelerated(), plan, 0.02, seed);
            workload(&mut r, 5, 2);
            r.submit_at(
                Duration::from_millis(350),
                0,
                b"post-heal",
                ServiceType::Agreed,
            );
            r.start();
            r.run(Duration::from_secs(30)).digest
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds explore different runs");
    }

    #[test]
    fn flight_recorders_capture_deterministic_event_tails() {
        let run = |seed: u64| {
            let plan = NemesisPlan::none()
                .crash(Duration::from_millis(25), 2)
                .restart(Duration::from_millis(300), 2);
            let mut r = NemesisRunner::new(3, ProtocolConfig::accelerated(), plan, 0.01, seed);
            workload(&mut r, 3, 2);
            r.submit_at(
                Duration::from_millis(350),
                0,
                b"post-restart",
                ServiceType::Agreed,
            );
            r.start();
            r.run(Duration::from_secs(30))
        };
        let a = run(11);
        let b = run(11);
        assert!(a.flight.iter().all(|fr| fr.total() > 0), "events recorded");
        assert_eq!(
            a.flight_digests, b.flight_digests,
            "same (plan, seed) => identical event histories"
        );
        let c = run(12);
        assert_ne!(a.flight_digests, c.flight_digests);
        // The tail report mentions every host.
        let tail = a.flight_tail(5);
        for host in 0..3 {
            assert!(tail.contains(&format!("host {host}:")), "{tail}");
        }
        // Timestamps are the virtual clock: monotone within each dump.
        for fr in &a.flight {
            let dump = fr.dump();
            assert!(dump.windows(2).all(|w| w[0].at <= w[1].at));
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ar-nemesis-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn durable_crash_restart_loses_no_safe_delivery() {
        let dir = temp_dir("crash");
        let _ = std::fs::remove_dir_all(&dir);
        let plan = NemesisPlan::none()
            .crash(Duration::from_millis(40), 1)
            .restart(Duration::from_millis(300), 1);
        let mut r = NemesisRunner::new(3, ProtocolConfig::accelerated(), plan, 0.01, 21);
        r.enable_durable_logs(&dir, FsyncPolicy::EveryN(4), true);
        for i in 0..3 {
            for k in 0..4 {
                r.submit(i, format!("h{i}-m{k}").as_bytes(), ServiceType::Safe);
            }
        }
        r.submit_at(
            Duration::from_millis(350),
            0,
            b"post-restart",
            ServiceType::Safe,
        );
        r.start();
        let out = r.run(Duration::from_secs(30));
        out.assert_clean();
        assert!(
            out.recovered_records.iter().all(|&n| n > 0),
            "every disk held records: {:?}",
            out.recovered_records
        );
        // The restarted host's disk spans both incarnations.
        let rec = ar_log::read_log_dir(&host_log_dir(&dir, 1)).unwrap();
        assert!(rec
            .deliveries
            .iter()
            .any(|(_, d)| d.payload.as_ref() == b"h1-m0"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_digests_match_plain_runs_and_repeats() {
        // The durable log must not perturb protocol behaviour: the
        // trace digest of a durable run equals the plain run's, and
        // repeats are bit-identical.
        let plan = || {
            NemesisPlan::none()
                .crash(Duration::from_millis(30), 2)
                .restart(Duration::from_millis(280), 2)
        };
        let run = |dir: Option<PathBuf>| {
            let mut r = NemesisRunner::new(3, ProtocolConfig::accelerated(), plan(), 0.02, 7);
            if let Some(dir) = dir {
                r.enable_durable_logs(dir, FsyncPolicy::Always, true);
            }
            workload(&mut r, 3, 2);
            r.submit_at(
                Duration::from_millis(330),
                0,
                b"post-restart",
                ServiceType::Safe,
            );
            r.start();
            r.run(Duration::from_secs(30))
        };
        let d1 = temp_dir("digest1");
        let d2 = temp_dir("digest2");
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d2);
        let plain = run(None);
        plain.assert_clean();
        let a = run(Some(d1.clone()));
        let b = run(Some(d2.clone()));
        a.assert_clean();
        assert_eq!(a.digest, b.digest, "same (plan, seed) => same digest");
        assert_eq!(
            a.digest, plain.digest,
            "durable logging must not change the observable trace"
        );
        std::fs::remove_dir_all(&d1).unwrap();
        std::fs::remove_dir_all(&d2).unwrap();
    }

    #[test]
    fn apply_connectivity_maps_matrix_to_controls() {
        let controls: Vec<ChaosControl> = (0..3).map(|_| ChaosControl::new()).collect();
        let mut conn = Connectivity::full(3);
        conn.apply(&FaultEvent::Crash { host: 0 });
        conn.apply(&FaultEvent::Partition {
            component_of: vec![0, 1, 2],
        });
        apply_connectivity(&controls, &conn);
        assert!(controls[0].is_crashed());
        assert!(!controls[1].is_crashed());
        // Hosts 1 and 2 are in different components: both block each
        // other outbound.
        let s_before = controls[1].stats();
        assert_eq!(s_before.total_sent(), 0);
        conn.apply(&FaultEvent::Heal);
        conn.apply(&FaultEvent::Restart { host: 0 });
        apply_connectivity(&controls, &conn);
        assert!(!controls[0].is_crashed());
    }
}
