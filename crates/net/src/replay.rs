//! The one deterministic [`World`] every fake-time harness runs on,
//! and the schedule format that replays it.
//!
//! A world is a ring of sans-io [`Participant`]s with explicit
//! in-flight messages and an armed-timer matrix. It is the only code
//! that turns a participant's [`Action`]s into messages, timers and
//! oracle input ([`EvsChecker`], [`TokenRuleMonitor`],
//! [`SendSplitChecker`]), and it makes no choice of its own: which
//! message arrives, is lost or duplicated, and which timer fires are
//! [`Step`]s a scheduler picks. Three schedulers drive it:
//!
//! * the explorer (`ar-explore`) enumerates every step by DFS, cloning
//!   the world to fork it. A path that violates an oracle is written
//!   out as a **schedule** (initial conditions plus the step sequence),
//!   and [`replay_schedule`] re-executes it bit-identically without the
//!   explorer in the loop, so the checked-in `tests/corpus/` keeps
//!   reproducing across refactors;
//! * [`crate::nemesis::NemesisRunner`] picks steps from a virtual clock
//!   and a seeded lossy network, and learns of sends and timer arms
//!   through [`Hooks`];
//! * the lossy property tests (`tests/total_order_props.rs`) deliver
//!   oldest-first and fire timers when the network falls silent.
//!
//! Determinism contract (what makes a schedule replayable):
//!
//! * message identifiers are assigned sequentially in the order the
//!   world observes sends, with multicast fan-out enumerated in
//!   ascending host order;
//! * the action lists a participant emits are ingested in list order;
//! * timers are a per-host armed/disarmed matrix (virtual deadlines
//!   belong to a scheduler: the explorer treats "the timer fires now"
//!   as one of the adversary's moves whenever the timer is armed).

use std::collections::BTreeMap;

use ar_core::checker::{EvsChecker, SendSplitChecker, TokenRuleMonitor};
use ar_core::statehash::{StateHash, StateHasher};
use ar_core::wire;
use ar_core::{
    Action, ConfigChange, Delivery, Message, Participant, ParticipantId, ProtocolConfig, QueueFull,
    RingId, ServiceType, TimeoutConfig, TimerKind,
};
use ar_telemetry::json::{JsonWriter, Value};
use bytes::Bytes;

/// Timer kinds in their canonical schedule order.
pub const TIMER_KINDS: [TimerKind; 5] = [
    TimerKind::TokenLoss,
    TimerKind::TokenRetransmit,
    TimerKind::Join,
    TimerKind::ConsensusTimeout,
    TimerKind::CommitTimeout,
];

pub(crate) fn kind_idx(kind: TimerKind) -> usize {
    TIMER_KINDS
        .iter()
        .position(|&k| k == kind)
        .expect("known kind")
}

fn kind_name(kind: TimerKind) -> &'static str {
    match kind {
        TimerKind::TokenLoss => "token-loss",
        TimerKind::TokenRetransmit => "token-retransmit",
        TimerKind::Join => "join",
        TimerKind::ConsensusTimeout => "consensus",
        TimerKind::CommitTimeout => "commit",
    }
}

fn kind_from_name(s: &str) -> Option<TimerKind> {
    TIMER_KINDS.iter().copied().find(|&k| kind_name(k) == s)
}

fn service_name(s: ServiceType) -> &'static str {
    match s {
        ServiceType::Reliable => "reliable",
        ServiceType::Fifo => "fifo",
        ServiceType::Causal => "causal",
        ServiceType::Agreed => "agreed",
        ServiceType::Safe => "safe",
    }
}

fn service_from_name(s: &str) -> Option<ServiceType> {
    [
        ServiceType::Reliable,
        ServiceType::Fifo,
        ServiceType::Causal,
        ServiceType::Agreed,
        ServiceType::Safe,
    ]
    .into_iter()
    .find(|&v| service_name(v) == s)
}

/// One adversary move in a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Step {
    /// Deliver in-flight message `msg` to its destination and remove it
    /// from flight.
    Deliver {
        /// The in-flight message identifier.
        msg: u64,
    },
    /// Deliver a *copy* of in-flight message `msg`, leaving the
    /// original in flight (bounded duplication; each message may be
    /// duplicated once).
    Duplicate {
        /// The in-flight message identifier.
        msg: u64,
    },
    /// Silently discard in-flight message `msg` (loss).
    Drop {
        /// The in-flight message identifier.
        msg: u64,
    },
    /// Fire an armed protocol timer at `host`.
    Timer {
        /// The host whose timer fires.
        host: u16,
        /// Which timer fires.
        kind: TimerKind,
    },
    /// A host that started outside the initial ring boots and seeks a
    /// configuration: it multicasts its join message and enters Gather
    /// (the membership "node join" transition).
    Join {
        /// The joining host (must be listed in the schedule's
        /// `joiners`).
        host: u16,
    },
    /// Silent stop: `host` ceases to process or send anything, its
    /// timers disarm, and messages addressed to it vanish. Spends one
    /// unit of the world's fault budget.
    Fail {
        /// The host that fails.
        host: u16,
    },
    /// Split the network into two components: hosts with bit `i` set in
    /// `mask` form one component, the rest the other. In-flight
    /// messages crossing the cut are discarded and later sends across
    /// it are silently dropped. Canonical form keeps host 0's bit
    /// clear. Spends one unit of the fault budget.
    Partition {
        /// Component bitmask (bit per host; bit 0 must be clear).
        mask: u8,
    },
    /// Heal the partition: all hosts are mutually reachable again.
    Merge,
}

impl Step {
    /// Short human-readable rendering (`deliver#4`, `timer@2:join`,
    /// `partition:0b110`).
    pub fn describe(&self) -> String {
        match self {
            Step::Deliver { msg } => format!("deliver#{msg}"),
            Step::Duplicate { msg } => format!("duplicate#{msg}"),
            Step::Drop { msg } => format!("drop#{msg}"),
            Step::Timer { host, kind } => format!("timer@{host}:{}", kind_name(*kind)),
            Step::Join { host } => format!("join@{host}"),
            Step::Fail { host } => format!("fail@{host}"),
            Step::Partition { mask } => format!("partition:{mask:#05b}"),
            Step::Merge => "merge".into(),
        }
    }
}

/// A workload submission in a schedule's initial conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    /// The submitting host.
    pub host: u16,
    /// The payload (ASCII; schedules store it as a JSON string).
    pub payload: String,
    /// The requested delivery service.
    pub service: ServiceType,
}

/// What a schedule claims about its own outcome, re-asserted on replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// Every oracle stays green along the whole schedule.
    Clean,
    /// At least one oracle reports a violation by the end.
    Violation,
}

/// A replayable counterexample (or regression) schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Number of hosts (`ParticipantId` 0..hosts). Hosts not listed in
    /// `joiners` start on one established ring.
    pub hosts: u16,
    /// Hosts that start *outside* the initial ring as idle singletons;
    /// each enters the world only when its [`Step::Join`] fires.
    pub joiners: Vec<u16>,
    /// Named protocol configuration: `"accelerated"`, `"original"`, or
    /// `"damped"` (accelerated + flap damping).
    pub config: String,
    /// Payloads submitted (in order) before the ring starts.
    pub submissions: Vec<Submission>,
    /// The adversary's step sequence.
    pub steps: Vec<Step>,
    /// The outcome the schedule was recorded with.
    pub expect: Expectation,
    /// Free-form provenance note (which oracle fired, explorer depth,
    /// seed — anything a human debugging the replay wants to see).
    pub note: String,
}

/// Errors loading or executing a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The schedule file was not valid JSON.
    Json(String),
    /// The schedule JSON was missing or mistyped a field.
    Malformed(String),
    /// A step referenced a message not currently in flight.
    UnknownMessage(u64),
    /// A `Duplicate` step targeted a message whose duplication budget
    /// is spent.
    DuplicationExhausted(u64),
    /// A `Timer` step targeted a timer that is not armed.
    TimerNotArmed {
        /// The host whose timer was named.
        host: u16,
        /// The timer kind named.
        kind: &'static str,
    },
    /// A host index was outside `0..hosts`.
    HostOutOfRange(u16),
    /// The `config` name is not a known protocol configuration.
    UnknownConfig(String),
    /// A `Join` step targeted a host that is not a joiner or already
    /// joined.
    CannotJoin(u16),
    /// A step targeted a host that already failed (or tried to fail it
    /// twice).
    HostAlreadyFailed(u16),
    /// A `Fail` or `Partition` step arrived with the fault budget
    /// spent.
    FaultBudgetExhausted,
    /// A `Partition` mask was non-canonical (zero, host 0 set, or bits
    /// beyond the host count), or the world is already partitioned.
    BadPartition(u8),
    /// A `Merge` step arrived with no partition in force.
    NotPartitioned,
    /// The `joiners` list was invalid (out of range, duplicated, or no
    /// host left on the initial ring).
    BadJoiners(String),
}

impl core::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScheduleError::Json(e) => write!(f, "schedule is not valid JSON: {e}"),
            ScheduleError::Malformed(e) => write!(f, "malformed schedule: {e}"),
            ScheduleError::UnknownMessage(id) => {
                write!(f, "step references message #{id} not in flight")
            }
            ScheduleError::DuplicationExhausted(id) => {
                write!(f, "message #{id} already duplicated")
            }
            ScheduleError::TimerNotArmed { host, kind } => {
                write!(f, "timer {kind} not armed at host {host}")
            }
            ScheduleError::HostOutOfRange(h) => write!(f, "host {h} out of range"),
            ScheduleError::UnknownConfig(c) => write!(f, "unknown protocol config {c:?}"),
            ScheduleError::CannotJoin(h) => {
                write!(f, "host {h} is not an unjoined joiner")
            }
            ScheduleError::HostAlreadyFailed(h) => write!(f, "host {h} already failed"),
            ScheduleError::FaultBudgetExhausted => write!(f, "fault budget exhausted"),
            ScheduleError::BadPartition(m) => {
                write!(f, "partition mask {m:#b} is not applicable here")
            }
            ScheduleError::NotPartitioned => write!(f, "no partition in force to merge"),
            ScheduleError::BadJoiners(e) => write!(f, "bad joiners list: {e}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl Schedule {
    /// Serializes the schedule to its canonical JSON text.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema");
        w.num_u64(2);
        w.key("kind");
        w.str("ar-explore-schedule");
        w.key("hosts");
        w.num_u64(u64::from(self.hosts));
        if !self.joiners.is_empty() {
            w.key("joiners");
            w.begin_array();
            for &j in &self.joiners {
                w.num_u64(u64::from(j));
            }
            w.end_array();
        }
        w.key("config");
        w.str(&self.config);
        w.key("note");
        w.str(&self.note);
        w.key("expect");
        w.str(match self.expect {
            Expectation::Clean => "clean",
            Expectation::Violation => "violation",
        });
        w.key("submissions");
        w.begin_array();
        for s in &self.submissions {
            w.begin_object();
            w.key("host");
            w.num_u64(u64::from(s.host));
            w.key("payload");
            w.str(&s.payload);
            w.key("service");
            w.str(service_name(s.service));
            w.end_object();
        }
        w.end_array();
        w.key("steps");
        w.begin_array();
        for step in &self.steps {
            w.begin_object();
            match step {
                Step::Deliver { msg } => {
                    w.key("op");
                    w.str("deliver");
                    w.key("msg");
                    w.num_u64(*msg);
                }
                Step::Duplicate { msg } => {
                    w.key("op");
                    w.str("duplicate");
                    w.key("msg");
                    w.num_u64(*msg);
                }
                Step::Drop { msg } => {
                    w.key("op");
                    w.str("drop");
                    w.key("msg");
                    w.num_u64(*msg);
                }
                Step::Timer { host, kind } => {
                    w.key("op");
                    w.str("timer");
                    w.key("host");
                    w.num_u64(u64::from(*host));
                    w.key("kind");
                    w.str(kind_name(*kind));
                }
                Step::Join { host } => {
                    w.key("op");
                    w.str("join");
                    w.key("host");
                    w.num_u64(u64::from(*host));
                }
                Step::Fail { host } => {
                    w.key("op");
                    w.str("fail");
                    w.key("host");
                    w.num_u64(u64::from(*host));
                }
                Step::Partition { mask } => {
                    w.key("op");
                    w.str("partition");
                    w.key("mask");
                    w.num_u64(u64::from(*mask));
                }
                Step::Merge => {
                    w.key("op");
                    w.str("merge");
                }
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Parses a schedule from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Json`] for invalid JSON and
    /// [`ScheduleError::Malformed`] for structurally wrong schedules.
    pub fn from_json(text: &str) -> Result<Schedule, ScheduleError> {
        let v = Value::parse(text).map_err(|e| ScheduleError::Json(format!("{e:?}")))?;
        let obj = |v: &Value, what: &str| -> Result<(), ScheduleError> {
            v.as_object()
                .map(|_| ())
                .ok_or_else(|| ScheduleError::Malformed(format!("{what} must be an object")))
        };
        obj(&v, "schedule")?;
        let field = |k: &str| -> Result<Value, ScheduleError> {
            v.get(k)
                .cloned()
                .ok_or_else(|| ScheduleError::Malformed(format!("missing field {k:?}")))
        };
        let num = |k: &str| -> Result<u64, ScheduleError> {
            field(k)?
                .as_f64()
                .map(|f| f as u64)
                .ok_or_else(|| ScheduleError::Malformed(format!("field {k:?} must be a number")))
        };
        let text_field = |k: &str| -> Result<String, ScheduleError> {
            field(k)?
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| ScheduleError::Malformed(format!("field {k:?} must be a string")))
        };
        if text_field("kind")? != "ar-explore-schedule" {
            return Err(ScheduleError::Malformed(
                "kind must be \"ar-explore-schedule\"".into(),
            ));
        }
        let hosts = num("hosts")? as u16;
        let expect = match text_field("expect")?.as_str() {
            "clean" => Expectation::Clean,
            "violation" => Expectation::Violation,
            other => {
                return Err(ScheduleError::Malformed(format!(
                    "expect must be clean|violation, got {other:?}"
                )))
            }
        };
        let mut submissions = Vec::new();
        for (i, s) in field("submissions")?
            .as_array()
            .ok_or_else(|| ScheduleError::Malformed("submissions must be an array".into()))?
            .iter()
            .enumerate()
        {
            let get_in = |s: &Value, k: &str| -> Result<Value, ScheduleError> {
                s.get(k).cloned().ok_or_else(|| {
                    ScheduleError::Malformed(format!("submission {i} missing {k:?}"))
                })
            };
            let service_raw = get_in(s, "service")?;
            let service_name_str = service_raw.as_str().ok_or_else(|| {
                ScheduleError::Malformed(format!("submission {i} service must be a string"))
            })?;
            submissions.push(Submission {
                host: get_in(s, "host")?.as_f64().ok_or_else(|| {
                    ScheduleError::Malformed(format!("submission {i} host must be a number"))
                })? as u16,
                payload: get_in(s, "payload")?
                    .as_str()
                    .ok_or_else(|| {
                        ScheduleError::Malformed(format!("submission {i} payload must be a string"))
                    })?
                    .to_owned(),
                service: service_from_name(service_name_str).ok_or_else(|| {
                    ScheduleError::Malformed(format!(
                        "submission {i}: unknown service {service_name_str:?}"
                    ))
                })?,
            });
        }
        let mut steps = Vec::new();
        for (i, s) in field("steps")?
            .as_array()
            .ok_or_else(|| ScheduleError::Malformed("steps must be an array".into()))?
            .iter()
            .enumerate()
        {
            let op = s
                .get("op")
                .and_then(Value::as_str)
                .ok_or_else(|| ScheduleError::Malformed(format!("step {i} missing op")))?;
            let msg_of = |s: &Value| -> Result<u64, ScheduleError> {
                s.get("msg")
                    .and_then(Value::as_f64)
                    .map(|f| f as u64)
                    .ok_or_else(|| ScheduleError::Malformed(format!("step {i} missing msg")))
            };
            steps.push(match op {
                "deliver" => Step::Deliver { msg: msg_of(s)? },
                "duplicate" => Step::Duplicate { msg: msg_of(s)? },
                "drop" => Step::Drop { msg: msg_of(s)? },
                "timer" => {
                    let host =
                        s.get("host").and_then(Value::as_f64).ok_or_else(|| {
                            ScheduleError::Malformed(format!("step {i} missing host"))
                        })? as u16;
                    let kind_str = s.get("kind").and_then(Value::as_str).ok_or_else(|| {
                        ScheduleError::Malformed(format!("step {i} missing kind"))
                    })?;
                    let kind = kind_from_name(kind_str).ok_or_else(|| {
                        ScheduleError::Malformed(format!(
                            "step {i}: unknown timer kind {kind_str:?}"
                        ))
                    })?;
                    Step::Timer { host, kind }
                }
                "join" | "fail" => {
                    let host =
                        s.get("host").and_then(Value::as_f64).ok_or_else(|| {
                            ScheduleError::Malformed(format!("step {i} missing host"))
                        })? as u16;
                    if op == "join" {
                        Step::Join { host }
                    } else {
                        Step::Fail { host }
                    }
                }
                "partition" => {
                    let mask =
                        s.get("mask").and_then(Value::as_f64).ok_or_else(|| {
                            ScheduleError::Malformed(format!("step {i} missing mask"))
                        })? as u8;
                    Step::Partition { mask }
                }
                "merge" => Step::Merge,
                other => {
                    return Err(ScheduleError::Malformed(format!(
                        "step {i}: unknown op {other:?}"
                    )))
                }
            });
        }
        // `joiners` is optional: schema-1 schedules (all hosts on one
        // ring) omit it.
        let mut joiners = Vec::new();
        if let Some(list) = v.get("joiners") {
            for (i, j) in list
                .as_array()
                .ok_or_else(|| ScheduleError::Malformed("joiners must be an array".into()))?
                .iter()
                .enumerate()
            {
                joiners.push(j.as_f64().ok_or_else(|| {
                    ScheduleError::Malformed(format!("joiner {i} must be a number"))
                })? as u16);
            }
        }
        Ok(Schedule {
            hosts,
            joiners,
            config: text_field("config")?,
            submissions,
            steps,
            expect,
            note: text_field("note").unwrap_or_default(),
        })
    }
}

fn config_by_name(name: &str) -> Result<ProtocolConfig, ScheduleError> {
    match name {
        "accelerated" => Ok(ProtocolConfig::accelerated()),
        "original" => Ok(ProtocolConfig::original()),
        // Accelerated plus membership flap damping at its default
        // policy — the configuration the quarantine-war regression
        // schedules replay under.
        "damped" => {
            Ok(ProtocolConfig::accelerated()
                .with_flap_damping(ar_core::FlapDampingConfig::enabled()))
        }
        other => Err(ScheduleError::UnknownConfig(other.to_owned())),
    }
}

/// A message travelling between hosts, owned by the [`World`].
#[derive(Debug, Clone)]
pub struct Inflight {
    /// Stable identifier, assigned in send order.
    pub id: u64,
    /// Sending host (used to cut messages crossing a partition).
    pub from: u16,
    /// Destination host.
    pub to: u16,
    /// The message itself.
    pub msg: Message,
    /// Remaining duplication budget (1 for fresh messages; a
    /// duplicated copy spends it).
    pub dup_left: u8,
}

/// What a scheduler hears of the world's effects while a step runs,
/// in the order the participant's actions list them (so times, ids and
/// random draws assigned here stay deterministic). Every method
/// defaults to nothing; `()` is the explorer's hooks.
pub trait Hooks {
    /// A copy is about to go in flight. Returning `false` loses it on
    /// the wire: it never enters [`World::inflight`].
    fn send(&mut self, _msg: &Inflight) -> bool {
        true
    }
    /// A copy from `from` to `to` was cut before the wire: the
    /// destination has failed, has not joined, or sits across the
    /// partition.
    fn cut(&mut self, _from: u16, _to: u16) {}
    /// `host` armed (or re-armed) timer `kind`; `timeouts` is the
    /// host's timeout table at that moment.
    fn timer_set(&mut self, _host: u16, _kind: TimerKind, _timeouts: &TimeoutConfig) {}
    /// `host` delivered `d` (the oracles have seen it): a scheduler
    /// surfaces it, or passes it through the host's
    /// [`ar_log::DeliveryGate`], which may withhold a Safe delivery
    /// until its record is durable.
    fn delivered(&mut self, _host: u16, _d: Delivery) {}
    /// `host` installed configuration `c` (the oracles have seen it).
    fn config(&mut self, _host: u16, _c: ConfigChange) {}
}

impl Hooks for () {}

/// Each oracle's violations, empty when green.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// [`EvsChecker`] violations.
    pub evs: Vec<String>,
    /// [`TokenRuleMonitor`] violations.
    pub token: Vec<String>,
    /// [`SendSplitChecker`] violations.
    pub split: Vec<String>,
}

/// A deterministic, cloneable mini-universe of `n` participants with
/// explicit in-flight messages and an armed-timer matrix, watched by
/// the oracles (see the module docs).
///
/// It has no clock and no randomness: every nondeterministic choice is
/// a [`Step`] a scheduler picks. Cloning the world forks the universe,
/// which is what makes depth-first exploration cheap.
#[derive(Debug, Clone)]
pub struct World {
    n: u16,
    parts: Vec<Participant>,
    inflight: Vec<Inflight>,
    next_msg_id: u64,
    /// Per-host armed flags, indexed by [`TIMER_KINDS`] position.
    armed: Vec<[bool; 5]>,
    /// True for hosts that start outside the initial ring.
    joiner: Vec<bool>,
    /// True once a joiner's [`Step::Join`] has fired.
    joined: Vec<bool>,
    /// True for silently stopped hosts.
    failed: Vec<bool>,
    /// Partition component per host (all equal = no partition).
    component: Vec<u8>,
    /// Remaining `Fail`/`Partition` steps the adversary may take. Part
    /// of the state fingerprint: two otherwise-identical worlds with
    /// different remaining budgets have different futures.
    fault_budget: u8,
    pub(crate) checker: EvsChecker,
    monitor: TokenRuleMonitor,
    split: SendSplitChecker,
    deliveries: Vec<u64>,
    steps_applied: u64,
    dropped: u64,
    duplicated: u64,
}

impl World {
    /// Builds a world of `hosts` participants on one established ring
    /// under the named configuration, applies the submissions, and
    /// starts every participant (the representative's start injects the
    /// first token).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] for unknown configs or out-of-range
    /// submission hosts.
    pub fn new(
        hosts: u16,
        config: &str,
        submissions: &[Submission],
    ) -> Result<World, ScheduleError> {
        World::new_with_joiners(hosts, &[], config, submissions)
    }

    /// Like [`World::new`], but hosts listed in `joiners` start outside
    /// the initial ring as idle singletons (ring seq 0): they arm no
    /// timers, hold no token, and enter the world only when their
    /// [`Step::Join`] fires. The remaining hosts form the initial ring.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::BadJoiners`] when a joiner is out of
    /// range, duplicated, or no host is left on the initial ring, plus
    /// everything [`World::new`] reports.
    pub fn new_with_joiners(
        hosts: u16,
        joiners: &[u16],
        config: &str,
        submissions: &[Submission],
    ) -> Result<World, ScheduleError> {
        let cfg = config_by_name(config)?;
        let mut joiner = vec![false; hosts as usize];
        for &j in joiners {
            if j >= hosts {
                return Err(ScheduleError::BadJoiners(format!("host {j} out of range")));
            }
            if joiner[j as usize] {
                return Err(ScheduleError::BadJoiners(format!("host {j} listed twice")));
            }
            joiner[j as usize] = true;
        }
        if joiner.iter().all(|&j| j) {
            return Err(ScheduleError::BadJoiners(
                "every host is a joiner; the initial ring would be empty".into(),
            ));
        }
        let mut world = World::build(joiner, cfg);
        for s in submissions {
            if s.host >= hosts {
                return Err(ScheduleError::HostOutOfRange(s.host));
            }
            world
                .submit(
                    s.host,
                    Bytes::from(s.payload.clone().into_bytes()),
                    s.service,
                )
                .expect("exploration workloads fit the send queue");
        }
        world.start_with(&mut ());
        Ok(world)
    }

    /// The world `schedule` starts from: its hosts, joiners, config and
    /// submissions, before any of its steps.
    ///
    /// # Errors
    ///
    /// As [`World::new_with_joiners`].
    pub fn from_schedule(schedule: &Schedule) -> Result<World, ScheduleError> {
        let s = schedule;
        World::new_with_joiners(s.hosts, &s.joiners, &s.config, &s.submissions)
    }

    /// `hosts` participants on one established ring under `cfg`, not yet
    /// started: submit with [`World::submit`], then call
    /// [`World::start_with`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid or `hosts` is zero.
    pub fn ring(hosts: u16, cfg: ProtocolConfig) -> World {
        World::build(vec![false; hosts as usize], cfg)
    }

    /// One participant per entry of `joiner`, not yet started: the
    /// unflagged hosts on one established ring, the flagged ones idle
    /// singletons.
    fn build(joiner: Vec<bool>, cfg: ProtocolConfig) -> World {
        let n = joiner.len();
        let members: Vec<ParticipantId> = (0..n as u16)
            .filter(|&h| !joiner[h as usize])
            .map(ParticipantId::new)
            .collect();
        let ring_id = RingId::new(members[0], 1);
        let parts: Vec<Participant> = (0..n as u16)
            .map(|h| {
                let p = ParticipantId::new(h);
                if joiner[h as usize] {
                    Participant::new_singleton(p, cfg).expect("valid singleton")
                } else {
                    Participant::new(p, cfg, ring_id, members.clone()).expect("valid ring")
                }
            })
            .collect();
        let mut checker = EvsChecker::new(n);
        // Seed the checker with each host's bootstrap view so same-view
        // and transitional-subset checks are live from the first
        // membership episode (bootstrapped rings never deliver their
        // initial configuration).
        for (i, p) in parts.iter().enumerate() {
            checker.on_initial_config(i, p.ring().id(), p.ring().members());
        }
        World {
            n: n as u16,
            parts,
            inflight: Vec::new(),
            next_msg_id: 0,
            armed: vec![[false; 5]; n],
            joiner,
            joined: vec![false; n],
            failed: vec![false; n],
            component: vec![0; n],
            fault_budget: u8::MAX,
            checker,
            monitor: TokenRuleMonitor::new(),
            split: SendSplitChecker::new(Some(cfg.accelerated_window)),
            deliveries: vec![0; n],
            steps_applied: 0,
            dropped: 0,
            duplicated: 0,
        }
    }

    /// Submits `payload` at `host` (the oracles track it for the
    /// self-delivery check).
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the host's send queue is full.
    pub fn submit(
        &mut self,
        host: u16,
        payload: Bytes,
        service: ServiceType,
    ) -> Result<(), QueueFull> {
        let h = host as usize;
        self.checker.on_submit(h, &payload);
        self.parts[h].submit(payload, service)
    }

    /// Starts every host on the initial ring (the representative's
    /// start injects the first token). Joiners wait for their
    /// [`Step::Join`]. Call once.
    pub fn start_with<H: Hooks>(&mut self, hooks: &mut H) {
        for i in 0..self.n as usize {
            if !self.joiner[i] {
                let actions = self.parts[i].start();
                self.ingest(i, actions, hooks);
            }
        }
    }

    /// Restarts `host` as `fresh`, a new incarnation with empty protocol
    /// state that must rejoin through membership: the host is alive
    /// again, its timers start disarmed, the oracles forget its old
    /// incarnation's submissions, and `fresh` is started.
    pub fn restart_with<H: Hooks>(&mut self, host: u16, fresh: Participant, hooks: &mut H) {
        let h = host as usize;
        self.parts[h] = fresh;
        self.failed[h] = false;
        self.armed[h] = [false; 5];
        self.checker.on_restart(h);
        let actions = self.parts[h].start();
        self.ingest(h, actions, hooks);
    }

    /// Puts every host in the component `component_of` names (equal ids
    /// reach each other). Unlike [`Step::Partition`], messages already
    /// in flight are left alone, as packets on a real wire are: the cut
    /// applies to sends from here on. All-equal ids heal.
    ///
    /// # Panics
    ///
    /// Panics if `component_of` does not name every host.
    pub fn set_components(&mut self, component_of: &[u8]) {
        assert_eq!(
            component_of.len(),
            self.component.len(),
            "component vector must cover every host"
        );
        self.component.copy_from_slice(component_of);
    }

    /// Host `i`'s participant, for inputs that emit no actions: the
    /// observer clock ([`Participant::observe_now`]) and the timeout
    /// table ([`Participant::adapt_timeouts`]). Anything that returns
    /// actions must go through the world.
    pub fn participant_mut(&mut self, i: u16) -> &mut Participant {
        &mut self.parts[i as usize]
    }

    /// Caps the number of `Fail`/`Partition` steps the adversary may
    /// still take (replay defaults to effectively unlimited). The
    /// explorer sets this from its configuration; the budget is part of
    /// [`World::state_hash`].
    pub fn set_fault_budget(&mut self, budget: u8) {
        self.fault_budget = budget;
    }

    /// True when `host` has silently stopped.
    pub fn is_failed(&self, host: u16) -> bool {
        self.failed[host as usize]
    }

    /// True when `host` started outside the initial ring and has not
    /// joined yet.
    pub fn is_unjoined(&self, host: u16) -> bool {
        self.joiner[host as usize] && !self.joined[host as usize]
    }

    /// The partition component `host` currently sits in (all equal
    /// when no partition is in force).
    pub fn component_of(&self, host: u16) -> u8 {
        self.component[host as usize]
    }

    /// True while a partition is in force.
    pub fn is_partitioned(&self) -> bool {
        self.component.iter().any(|&c| c != self.component[0])
    }

    /// Number of hosts.
    pub fn hosts(&self) -> u16 {
        self.n
    }

    /// The messages currently in flight.
    pub fn inflight(&self) -> &[Inflight] {
        &self.inflight
    }

    /// Delivery counts per host.
    pub fn deliveries(&self) -> &[u64] {
        &self.deliveries
    }

    /// Steps applied so far.
    pub fn steps_applied(&self) -> u64 {
        self.steps_applied
    }

    /// Host `i`'s participant, for oracle probes.
    pub fn participant(&self, i: u16) -> &Participant {
        &self.parts[i as usize]
    }

    /// Every step the adversary may take from this state, in canonical
    /// order: delivers (ascending message id), duplicates, drops, timer
    /// firings (host-major, [`TIMER_KINDS`] order), then membership
    /// transitions (joins, fails, partitions, merge).
    ///
    /// Partitions are enumerated as every canonical two-component split
    /// (host 0's bit clear) and only while no partition is in force;
    /// fails and partitions require remaining fault budget.
    pub fn enabled(&self) -> Vec<Step> {
        let mut steps = Vec::with_capacity(self.inflight.len() * 3 + 8);
        for m in &self.inflight {
            steps.push(Step::Deliver { msg: m.id });
        }
        for m in &self.inflight {
            if m.dup_left > 0 {
                steps.push(Step::Duplicate { msg: m.id });
            }
        }
        for m in &self.inflight {
            steps.push(Step::Drop { msg: m.id });
        }
        for (host, armed) in self.armed.iter().enumerate() {
            for (k, &kind) in TIMER_KINDS.iter().enumerate() {
                if armed[k] {
                    steps.push(Step::Timer {
                        host: host as u16,
                        kind,
                    });
                }
            }
        }
        for h in 0..self.n {
            if self.is_unjoined(h) && !self.failed[h as usize] {
                steps.push(Step::Join { host: h });
            }
        }
        if self.fault_budget > 0 {
            for h in 0..self.n {
                if !self.failed[h as usize] {
                    steps.push(Step::Fail { host: h });
                }
            }
            if !self.is_partitioned() {
                for mask in 1u16..(1u16 << self.n.min(7)) {
                    if mask & 1 == 0 {
                        steps.push(Step::Partition { mask: mask as u8 });
                    }
                }
            }
        }
        if self.is_partitioned() {
            steps.push(Step::Merge);
        }
        steps
    }

    /// The destination host a step acts on (`None` for `Drop`, which
    /// touches no participant, and for the global `Partition`/`Merge`
    /// transitions). Used by the explorer's commutation test.
    pub fn step_target(&self, step: &Step) -> Option<u16> {
        match step {
            Step::Deliver { msg } | Step::Duplicate { msg } => {
                self.inflight.iter().find(|m| m.id == *msg).map(|m| m.to)
            }
            Step::Drop { .. } => None,
            Step::Timer { host, .. } => Some(*host),
            Step::Join { host } | Step::Fail { host } => Some(*host),
            Step::Partition { .. } | Step::Merge => None,
        }
    }

    /// Applies one step.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if the step is not enabled in this
    /// state (unknown message, spent duplication budget, unarmed
    /// timer).
    pub fn apply_step(&mut self, step: &Step) -> Result<(), ScheduleError> {
        self.apply_step_with(step, &mut ())
    }

    /// [`World::apply_step`], telling `hooks` what the step's actions
    /// did.
    ///
    /// # Errors
    ///
    /// As [`World::apply_step`].
    pub fn apply_step_with<H: Hooks>(
        &mut self,
        step: &Step,
        hooks: &mut H,
    ) -> Result<(), ScheduleError> {
        match step {
            Step::Deliver { msg } => {
                let idx = self.find_msg(*msg)?;
                let m = self.inflight.remove(idx);
                let to = m.to as usize;
                let actions = self.parts[to].handle_message(m.msg);
                self.ingest(to, actions, hooks);
            }
            Step::Duplicate { msg } => {
                let idx = self.find_msg(*msg)?;
                if self.inflight[idx].dup_left == 0 {
                    return Err(ScheduleError::DuplicationExhausted(*msg));
                }
                self.inflight[idx].dup_left -= 1;
                let copy = self.inflight[idx].msg.clone();
                let to = self.inflight[idx].to as usize;
                self.duplicated += 1;
                let actions = self.parts[to].handle_message(copy);
                self.ingest(to, actions, hooks);
            }
            Step::Drop { msg } => {
                let idx = self.find_msg(*msg)?;
                self.inflight.remove(idx);
                self.dropped += 1;
            }
            Step::Timer { host, kind } => {
                if *host >= self.n {
                    return Err(ScheduleError::HostOutOfRange(*host));
                }
                let h = *host as usize;
                let k = kind_idx(*kind);
                if !self.armed[h][k] {
                    return Err(ScheduleError::TimerNotArmed {
                        host: *host,
                        kind: kind_name(*kind),
                    });
                }
                self.armed[h][k] = false;
                let actions = self.parts[h].handle_timer(*kind);
                self.ingest(h, actions, hooks);
            }
            Step::Join { host } => {
                if *host >= self.n {
                    return Err(ScheduleError::HostOutOfRange(*host));
                }
                let h = *host as usize;
                if !self.joiner[h] || self.joined[h] || self.failed[h] {
                    return Err(ScheduleError::CannotJoin(*host));
                }
                self.joined[h] = true;
                let actions = self.parts[h].initiate_gather();
                self.ingest(h, actions, hooks);
            }
            Step::Fail { host } => {
                if *host >= self.n {
                    return Err(ScheduleError::HostOutOfRange(*host));
                }
                let h = *host as usize;
                if self.failed[h] {
                    return Err(ScheduleError::HostAlreadyFailed(*host));
                }
                if self.fault_budget == 0 {
                    return Err(ScheduleError::FaultBudgetExhausted);
                }
                self.fault_budget -= 1;
                self.failed[h] = true;
                // Silent stop: timers disarm, messages addressed to the
                // host will never be processed. Messages it already
                // sent stay in flight — packets survive their sender.
                self.armed[h] = [false; 5];
                self.inflight.retain(|m| m.to != *host);
            }
            Step::Partition { mask } => {
                if self.fault_budget == 0 {
                    return Err(ScheduleError::FaultBudgetExhausted);
                }
                let full = if self.n >= 8 {
                    u8::MAX
                } else {
                    (1u8 << self.n) - 1
                };
                if *mask == 0 || mask & 1 != 0 || mask & !full != 0 || self.is_partitioned() {
                    return Err(ScheduleError::BadPartition(*mask));
                }
                self.fault_budget -= 1;
                for h in 0..self.n as usize {
                    self.component[h] = (mask >> h) & 1;
                }
                let component = self.component.clone();
                self.inflight
                    .retain(|m| component[m.from as usize] == component[m.to as usize]);
            }
            Step::Merge => {
                if !self.is_partitioned() {
                    return Err(ScheduleError::NotPartitioned);
                }
                self.component.iter_mut().for_each(|c| *c = 0);
            }
        }
        self.steps_applied += 1;
        Ok(())
    }

    fn find_msg(&self, id: u64) -> Result<usize, ScheduleError> {
        self.inflight
            .iter()
            .position(|m| m.id == id)
            .ok_or(ScheduleError::UnknownMessage(id))
    }

    /// Whether a message sent by `from` can reach `to` right now: the
    /// destination must be alive, in the sender's partition component,
    /// and (for joiners) already booted into the world.
    fn reachable(&self, from: usize, to: u16) -> bool {
        let t = to as usize;
        !self.failed[t]
            && self.component[from] == self.component[t]
            && (!self.joiner[t] || self.joined[t])
    }

    fn push_msg<H: Hooks>(&mut self, from: usize, to: u16, msg: Message, hooks: &mut H) {
        if !self.reachable(from, to) {
            hooks.cut(from as u16, to);
            return;
        }
        let m = Inflight {
            id: self.next_msg_id,
            from: from as u16,
            to,
            msg,
            dup_left: 1,
        };
        if hooks.send(&m) {
            self.next_msg_id += 1;
            self.inflight.push(m);
        }
    }

    fn ingest<H: Hooks>(&mut self, from: usize, actions: Vec<Action>, hooks: &mut H) {
        self.split
            .on_actions(ParticipantId::new(from as u16), &actions);
        for action in actions {
            match action {
                Action::SendToken { to, token } => {
                    self.monitor.on_token(&token);
                    self.push_msg(from, to.as_u16(), Message::Token(token), hooks);
                }
                Action::SendCommit { to, token } => {
                    self.push_msg(from, to.as_u16(), Message::Commit(token), hooks);
                }
                Action::Multicast(m) => {
                    for to in 0..self.n {
                        if to as usize != from {
                            self.push_msg(from, to, Message::Data(m.clone()), hooks);
                        }
                    }
                }
                Action::MulticastJoin(j) => {
                    for to in 0..self.n {
                        if to as usize != from {
                            self.push_msg(from, to, Message::Join(j.clone()), hooks);
                        }
                    }
                }
                Action::Deliver(d) => {
                    self.checker.on_delivery(from, &d);
                    self.deliveries[from] += 1;
                    hooks.delivered(from as u16, d);
                }
                Action::DeliverConfigChange(c) => {
                    self.checker.on_config(from, &c);
                    hooks.config(from as u16, c);
                }
                Action::SetTimer(kind) => {
                    self.armed[from][kind_idx(kind)] = true;
                    hooks.timer_set(from as u16, kind, self.parts[from].timeouts());
                }
                Action::CancelTimer(kind) => {
                    self.armed[from][kind_idx(kind)] = false;
                }
            }
        }
    }

    /// Fingerprint of the global state: every participant's protocol
    /// state, the armed-timer matrix, the membership environment
    /// (joined/failed flags, partition components, remaining fault
    /// budget — all of which shape the enabled futures), and the
    /// in-flight pool hashed as an order-insensitive multiset of
    /// `(sender, destination, bytes, duplication budget)` — message
    /// identifiers are deliberately excluded so that commuting
    /// interleavings which reach the same configuration collide (the
    /// visited-set prune in the explorer depends on this).
    pub fn state_hash(&self) -> u64 {
        let mut h = StateHasher::new();
        h.write_len(self.parts.len());
        for p in &self.parts {
            p.state_hash_into(&mut h);
        }
        for armed in &self.armed {
            for &a in armed {
                h.write_bool(a);
            }
        }
        for i in 0..self.n as usize {
            h.write_bool(self.joined[i]);
            h.write_bool(self.failed[i]);
            h.write_u8(self.component[i]);
        }
        h.write_u8(self.fault_budget);
        let mut msg_digests: Vec<u64> = self
            .inflight
            .iter()
            .map(|m| {
                let mut mh = StateHasher::new();
                mh.write_u16(m.from);
                mh.write_u16(m.to);
                mh.write_u8(m.dup_left);
                mh.write(&wire::encode(&m.msg));
                mh.finish()
            })
            .collect();
        msg_digests.sort_unstable();
        h.write_len(msg_digests.len());
        for d in msg_digests {
            h.write_u64(d);
        }
        h.finish()
    }

    /// Runs every oracle against the state reached so far and returns
    /// all violations (empty when green). Non-destructive: the oracles
    /// keep accumulating afterwards.
    pub fn violations(&self) -> Vec<String> {
        let r = self.oracle_report();
        [r.evs, r.token, r.split].concat()
    }

    /// [`World::violations`], per oracle.
    pub fn oracle_report(&self) -> OracleReport {
        OracleReport {
            evs: self.checker.clone().check().err().unwrap_or_default(),
            token: self.monitor.clone().check().err().unwrap_or_default(),
            split: self.split.clone().check().err().unwrap_or_default(),
        }
    }

    /// Loss/duplication counters `(dropped, duplicated)`.
    pub fn chaos_counters(&self) -> (u64, u64) {
        (self.dropped, self.duplicated)
    }

    /// Tokens the participants have put on the wire (before loss).
    pub fn tokens_seen(&self) -> u64 {
        self.monitor.tokens_seen()
    }
}

/// What replaying a schedule produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Oracle violations at the end of the schedule.
    pub violations: Vec<String>,
    /// Steps applied (always the schedule's full length on success).
    pub steps_applied: u64,
    /// Delivery counts per host.
    pub deliveries: Vec<u64>,
    /// Final state fingerprint — equal across replays of the same
    /// schedule (the determinism the corpus tests pin down).
    pub final_hash: u64,
}

impl ReplayOutcome {
    /// Whether the outcome matches the schedule's recorded
    /// [`Expectation`].
    pub fn matches(&self, expect: Expectation) -> bool {
        match expect {
            Expectation::Clean => self.violations.is_empty(),
            Expectation::Violation => !self.violations.is_empty(),
        }
    }
}

/// Replays `schedule` from scratch and reports the outcome.
///
/// # Errors
///
/// Returns [`ScheduleError`] if the schedule's config is unknown or a
/// step is not applicable in the state it is reached in (which means
/// the schedule does not match the code under test anymore).
pub fn replay_schedule(schedule: &Schedule) -> Result<ReplayOutcome, ScheduleError> {
    let mut world = World::from_schedule(schedule)?;
    for step in &schedule.steps {
        world.apply_step(step)?;
    }
    Ok(ReplayOutcome {
        violations: world.violations(),
        steps_applied: world.steps_applied(),
        deliveries: world.deliveries().to_vec(),
        final_hash: world.state_hash(),
    })
}

/// Renders a ready-to-paste `#[test]` regression stub for a schedule
/// stored at `corpus_path` (relative to the repository root).
pub fn regression_stub(test_name: &str, corpus_path: &str, expect: Expectation) -> String {
    let expect_str = match expect {
        Expectation::Clean => "Expectation::Clean",
        Expectation::Violation => "Expectation::Violation",
    };
    let mut map = BTreeMap::new();
    map.insert("{name}", test_name.to_owned());
    map.insert("{path}", corpus_path.to_owned());
    map.insert("{expect}", expect_str.to_owned());
    let mut out = String::from(
        "#[test]\n\
         fn {name}() {\n    \
             use accelerated_ring::net::replay::{replay_schedule, Expectation, Schedule};\n    \
             let text = std::fs::read_to_string(\"{path}\").expect(\"corpus file\");\n    \
             let schedule = Schedule::from_json(&text).expect(\"valid schedule\");\n    \
             let outcome = replay_schedule(&schedule).expect(\"replayable\");\n    \
             assert!(outcome.matches({expect}), \"outcome diverged: {:?}\", outcome.violations);\n\
         }\n",
    );
    for (k, v) in map {
        out = out.replace(k, &v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_schedule(steps: Vec<Step>) -> Schedule {
        Schedule {
            hosts: 3,
            joiners: vec![],
            config: "accelerated".into(),
            submissions: vec![
                Submission {
                    host: 0,
                    payload: "h0-m0".into(),
                    service: ServiceType::Agreed,
                },
                Submission {
                    host: 1,
                    payload: "h1-m0".into(),
                    service: ServiceType::Safe,
                },
            ],
            steps,
            expect: Expectation::Clean,
            note: "unit-test schedule".into(),
        }
    }

    #[test]
    fn schedule_json_roundtrip() {
        let s = demo_schedule(vec![
            Step::Deliver { msg: 0 },
            Step::Duplicate { msg: 2 },
            Step::Drop { msg: 3 },
            Step::Timer {
                host: 1,
                kind: TimerKind::TokenLoss,
            },
        ]);
        let text = s.to_json();
        let back = Schedule::from_json(&text).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn malformed_schedules_are_rejected() {
        assert!(matches!(
            Schedule::from_json("not json"),
            Err(ScheduleError::Json(_))
        ));
        assert!(matches!(
            Schedule::from_json("{}"),
            Err(ScheduleError::Malformed(_))
        ));
        let wrong_kind = r#"{"kind":"something-else","hosts":2}"#;
        assert!(matches!(
            Schedule::from_json(wrong_kind),
            Err(ScheduleError::Malformed(_))
        ));
    }

    #[test]
    fn world_starts_with_token_in_flight() {
        let w = World::new(3, "accelerated", &[]).unwrap();
        // The representative processed the initial token and forwarded
        // it: exactly one message should be in flight, a token to host
        // 1.
        assert_eq!(w.inflight().len(), 1);
        assert_eq!(w.inflight()[0].to, 1);
        assert!(matches!(w.inflight()[0].msg, Message::Token(_)));
        assert!(w.violations().is_empty());
    }

    #[test]
    fn enabled_lists_every_adversary_move() {
        let w = World::new(3, "accelerated", &[]).unwrap();
        let steps = w.enabled();
        // One in-flight token => deliver, duplicate, drop; plus every
        // armed timer.
        assert!(steps.contains(&Step::Deliver { msg: 0 }));
        assert!(steps.contains(&Step::Duplicate { msg: 0 }));
        assert!(steps.contains(&Step::Drop { msg: 0 }));
        assert!(
            steps.iter().any(|s| matches!(s, Step::Timer { .. })),
            "{steps:?}"
        );
    }

    #[test]
    fn token_circulation_by_explicit_delivery_stays_clean() {
        let mut w = World::new(3, "accelerated", &[]).unwrap();
        // Deliver whatever is in flight, oldest first, for a while: the
        // token should circulate and no oracle should fire.
        for _ in 0..30 {
            let Some(first) = w.inflight().first().map(|m| m.id) else {
                break;
            };
            w.apply_step(&Step::Deliver { msg: first }).unwrap();
        }
        assert!(w.violations().is_empty(), "{:?}", w.violations());
        assert!(w.steps_applied() > 0);
    }

    #[test]
    fn submissions_are_ordered_and_delivered() {
        let sched = demo_schedule(vec![]);
        let mut w = World::new(sched.hosts, &sched.config, &sched.submissions).unwrap();
        for _ in 0..200 {
            let Some(first) = w.inflight().first().map(|m| m.id) else {
                break;
            };
            w.apply_step(&Step::Deliver { msg: first }).unwrap();
        }
        assert!(w.violations().is_empty(), "{:?}", w.violations());
        // Every host eventually delivers both payloads.
        assert!(
            w.deliveries().iter().all(|&d| d >= 2),
            "{:?}",
            w.deliveries()
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let sched = demo_schedule(vec![Step::Duplicate { msg: 0 }, Step::Deliver { msg: 0 }]);
        let a = replay_schedule(&sched).unwrap();
        let b = replay_schedule(&sched).unwrap();
        assert_eq!(a.final_hash, b.final_hash);
        assert_eq!(a.deliveries, b.deliveries);
        assert!(a.matches(Expectation::Clean), "{:?}", a.violations);
    }

    #[test]
    fn inapplicable_steps_are_reported() {
        let mut w = World::new(2, "accelerated", &[]).unwrap();
        assert_eq!(
            w.apply_step(&Step::Deliver { msg: 999 }),
            Err(ScheduleError::UnknownMessage(999))
        );
        let first = w.inflight()[0].id;
        w.apply_step(&Step::Duplicate { msg: first }).unwrap();
        // Budget spent: a second duplication of the same message fails.
        let err = w.apply_step(&Step::Duplicate { msg: first });
        assert_eq!(err, Err(ScheduleError::DuplicationExhausted(first)));
        assert_eq!(
            w.apply_step(&Step::Timer {
                host: 5,
                kind: TimerKind::Join
            }),
            Err(ScheduleError::HostOutOfRange(5))
        );
        assert!(matches!(
            World::new(2, "warp-speed", &[]),
            Err(ScheduleError::UnknownConfig(_))
        ));
    }

    #[test]
    fn state_hash_ignores_message_identities_but_not_content() {
        // Two worlds that reach the same configuration through
        // different commuting orders must collide.
        let mk = || World::new(3, "accelerated", &[]).unwrap();
        let mut a = mk();
        let mut b = mk();
        // In a fresh world only one message is in flight; deliver it in
        // both worlds, then compare: trivially equal.
        let id = a.inflight()[0].id;
        a.apply_step(&Step::Deliver { msg: id }).unwrap();
        b.apply_step(&Step::Deliver { msg: id }).unwrap();
        assert_eq!(a.state_hash(), b.state_hash());
        // Dropping vs delivering diverges the hash.
        let mut c = mk();
        c.apply_step(&Step::Drop { msg: id }).unwrap();
        assert_ne!(a.state_hash(), c.state_hash());
    }

    #[test]
    fn commuting_deliveries_reach_the_same_hash() {
        // Drive the world until two messages to *different* hosts are
        // simultaneously in flight, then apply them in both orders.
        let mut w = World::new(3, "accelerated", &demo_schedule(vec![]).submissions).unwrap();
        let pair = loop {
            let inf = w.inflight();
            let mut seen: Vec<(u64, u16)> = inf.iter().map(|m| (m.id, m.to)).collect();
            seen.sort_unstable();
            if let Some(p) = seen
                .iter()
                .flat_map(|&(i1, t1)| {
                    seen.iter()
                        .filter(move |&&(i2, t2)| i2 > i1 && t2 != t1)
                        .map(move |&(i2, _)| (i1, i2))
                })
                .next()
            {
                break Some(p);
            }
            let Some(first) = w.inflight().first().map(|m| m.id) else {
                break None;
            };
            w.apply_step(&Step::Deliver { msg: first }).unwrap();
        };
        let Some((m1, m2)) = pair else {
            panic!("never saw two concurrent messages to distinct hosts");
        };
        let mut ab = w.clone();
        ab.apply_step(&Step::Deliver { msg: m1 }).unwrap();
        ab.apply_step(&Step::Deliver { msg: m2 }).unwrap();
        let mut ba = w;
        ba.apply_step(&Step::Deliver { msg: m2 }).unwrap();
        ba.apply_step(&Step::Deliver { msg: m1 }).unwrap();
        assert_eq!(
            ab.state_hash(),
            ba.state_hash(),
            "deliveries to distinct hosts must commute"
        );
    }

    #[test]
    fn membership_ops_roundtrip_with_joiners() {
        let mut s = demo_schedule(vec![
            Step::Join { host: 2 },
            Step::Fail { host: 1 },
            Step::Partition { mask: 0b100 },
            Step::Merge,
        ]);
        s.joiners = vec![2];
        let text = s.to_json();
        assert!(text.contains("\"schema\":2"), "{text}");
        let back = Schedule::from_json(&text).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn schema_one_schedules_without_joiners_still_parse() {
        // A pre-membership schedule has no `joiners` field at all.
        let text = r#"{"schema":1,"kind":"ar-explore-schedule","hosts":2,
            "config":"accelerated","note":"","expect":"clean",
            "submissions":[],"steps":[{"op":"deliver","msg":0}]}"#;
        let s = Schedule::from_json(text).unwrap();
        assert!(s.joiners.is_empty());
        assert_eq!(s.steps, vec![Step::Deliver { msg: 0 }]);
    }

    #[test]
    fn joiners_start_idle_and_join_on_demand() {
        let mut w = World::new_with_joiners(3, &[2], "accelerated", &[]).unwrap();
        assert!(w.is_unjoined(2));
        // The initial ring is hosts {0, 1}; nothing targets host 2 and
        // host 2 has no armed timers.
        assert!(w.inflight().iter().all(|m| m.to != 2));
        assert!(!w
            .enabled()
            .iter()
            .any(|s| matches!(s, Step::Timer { host: 2, .. })));
        assert!(w.enabled().contains(&Step::Join { host: 2 }));
        w.apply_step(&Step::Join { host: 2 }).unwrap();
        assert!(!w.is_unjoined(2));
        // The join multicast is now in flight to both ring members.
        let join_targets: Vec<u16> = w
            .inflight()
            .iter()
            .filter(|m| matches!(m.msg, Message::Join(_)))
            .map(|m| m.to)
            .collect();
        assert_eq!(join_targets, vec![0, 1]);
        // A second join of the same host is rejected.
        assert_eq!(
            w.apply_step(&Step::Join { host: 2 }),
            Err(ScheduleError::CannotJoin(2))
        );
    }

    #[test]
    fn bad_joiner_lists_are_rejected() {
        assert!(matches!(
            World::new_with_joiners(3, &[7], "accelerated", &[]),
            Err(ScheduleError::BadJoiners(_))
        ));
        assert!(matches!(
            World::new_with_joiners(3, &[2, 2], "accelerated", &[]),
            Err(ScheduleError::BadJoiners(_))
        ));
        assert!(matches!(
            World::new_with_joiners(2, &[0, 1], "accelerated", &[]),
            Err(ScheduleError::BadJoiners(_))
        ));
    }

    #[test]
    fn failed_host_stops_receiving_and_disarms() {
        let mut w = World::new(3, "accelerated", &[]).unwrap();
        w.set_fault_budget(1);
        w.apply_step(&Step::Fail { host: 1 }).unwrap();
        assert!(w.is_failed(1));
        assert!(w.inflight().iter().all(|m| m.to != 1));
        assert!(!w
            .enabled()
            .iter()
            .any(|s| matches!(s, Step::Timer { host: 1, .. })));
        // Budget spent: no further fail or partition is enabled.
        assert!(!w
            .enabled()
            .iter()
            .any(|s| matches!(s, Step::Fail { .. } | Step::Partition { .. })));
        assert_eq!(
            w.apply_step(&Step::Fail { host: 0 }),
            Err(ScheduleError::FaultBudgetExhausted)
        );
        assert_eq!(
            w.apply_step(&Step::Fail { host: 1 }),
            Err(ScheduleError::HostAlreadyFailed(1))
        );
    }

    #[test]
    fn partition_cuts_flight_and_blocks_cross_sends() {
        let mut w = World::new(3, "accelerated", &[]).unwrap();
        // Isolate host 2 from {0, 1}.
        w.apply_step(&Step::Partition { mask: 0b100 }).unwrap();
        assert!(w.is_partitioned());
        assert_eq!(w.component_of(0), w.component_of(1));
        assert_ne!(w.component_of(0), w.component_of(2));
        // Every surviving in-flight message stays within one component,
        // and so does everything sent from here on.
        for _ in 0..40 {
            let Some(first) = w.inflight().first().map(|m| m.id) else {
                break;
            };
            w.apply_step(&Step::Deliver { msg: first }).unwrap();
            assert!(w
                .inflight()
                .iter()
                .all(|m| w.component_of(m.from) == w.component_of(m.to)));
        }
        // Only one partition at a time; merge restores reachability.
        assert_eq!(
            w.apply_step(&Step::Partition { mask: 0b010 }),
            Err(ScheduleError::BadPartition(0b010))
        );
        w.apply_step(&Step::Merge).unwrap();
        assert!(!w.is_partitioned());
        assert_eq!(
            w.apply_step(&Step::Merge),
            Err(ScheduleError::NotPartitioned)
        );
    }

    #[test]
    fn non_canonical_partition_masks_are_rejected() {
        let masks = [0b000, 0b001, 0b011, 0b1000];
        for mask in masks {
            let mut w = World::new(3, "accelerated", &[]).unwrap();
            assert_eq!(
                w.apply_step(&Step::Partition { mask }),
                Err(ScheduleError::BadPartition(mask)),
                "mask {mask:#b}"
            );
        }
    }

    #[test]
    fn enabled_lists_membership_moves_under_budget() {
        let mut w = World::new_with_joiners(3, &[2], "accelerated", &[]).unwrap();
        w.set_fault_budget(1);
        let steps = w.enabled();
        assert!(steps.contains(&Step::Join { host: 2 }));
        assert!(steps.contains(&Step::Fail { host: 0 }));
        assert!(steps.contains(&Step::Partition { mask: 0b100 }));
        assert!(!steps.contains(&Step::Merge));
        // Masks with host 0's bit set never appear (canonical form).
        assert!(!steps
            .iter()
            .any(|s| matches!(s, Step::Partition { mask } if mask & 1 != 0)));
        w.set_fault_budget(0);
        let steps = w.enabled();
        assert!(!steps
            .iter()
            .any(|s| matches!(s, Step::Fail { .. } | Step::Partition { .. })));
        assert!(steps.contains(&Step::Join { host: 2 }));
    }

    #[test]
    fn state_hash_covers_membership_environment() {
        let w = World::new(3, "accelerated", &[]).unwrap();
        let mut failed = w.clone();
        failed.set_fault_budget(1);
        failed.apply_step(&Step::Fail { host: 2 }).unwrap();
        assert_ne!(w.state_hash(), failed.state_hash());
        // Same protocol state, different remaining budgets: the hash
        // must diverge or the visited-prune would conflate futures.
        let mut tight = w.clone();
        tight.set_fault_budget(0);
        assert_ne!(w.state_hash(), tight.state_hash());
    }

    #[test]
    fn join_episode_converges_to_shared_ring() {
        // Boot a 2-host ring plus one joiner, fire the join, then let
        // the adversary play fair (deliver oldest, fire the oldest
        // armed gather timer when flight empties). Every host must end
        // on one common new ring that includes the joiner.
        let mut w = World::new_with_joiners(3, &[2], "accelerated", &[]).unwrap();
        w.apply_step(&Step::Join { host: 2 }).unwrap();
        for _ in 0..400 {
            let converged = (0..3).all(|h| {
                let r = w.participant(h).ring();
                r.id() == w.participant(0).ring().id() && r.members().len() == 3
            });
            if converged {
                break;
            }
            if let Some(first) = w.inflight().first().map(|m| m.id) {
                w.apply_step(&Step::Deliver { msg: first }).unwrap();
            } else if let Some(t) = w.enabled().into_iter().find(|s| {
                // Fire membership-advancing timers only — a TokenLoss
                // here would start a *new* episode instead of finishing
                // this one.
                matches!(
                    s,
                    Step::Timer {
                        kind: TimerKind::Join
                            | TimerKind::ConsensusTimeout
                            | TimerKind::CommitTimeout,
                        ..
                    }
                )
            }) {
                w.apply_step(&t).unwrap();
            } else {
                break;
            }
        }
        assert!(w.violations().is_empty(), "{:?}", w.violations());
        let rings: Vec<_> = (0..3).map(|h| w.participant(h).ring().id()).collect();
        assert_eq!(rings[0], rings[1], "ring ids diverged: {rings:?}");
        assert_eq!(rings[0], rings[2], "joiner left out: {rings:?}");
        assert!(w
            .participant(0)
            .ring()
            .members()
            .contains(&ParticipantId::new(2)));
    }

    #[test]
    fn regression_stub_renders_compilable_shape() {
        let stub = regression_stub(
            "replays_corpus_001",
            "tests/corpus/001.json",
            Expectation::Clean,
        );
        assert!(stub.contains("fn replays_corpus_001()"));
        assert!(stub.contains("tests/corpus/001.json"));
        assert!(stub.contains("Expectation::Clean"));
    }
}
