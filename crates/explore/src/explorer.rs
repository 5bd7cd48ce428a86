//! Bounded depth-first exploration of the protocol's interleaving
//! space.
//!
//! The explorer owns nothing protocol-specific: it drives the
//! [`World`] from `ar_net::replay` — the same deterministic universe
//! the schedule replayer uses — so any path it finds is *by
//! construction* replayable from the emitted schedule file.
//!
//! ## Pruning
//!
//! Two prunes keep the bounded search tractable:
//!
//! * **Visited states.** Each world has a 64-bit fingerprint
//!   ([`World::state_hash`]) that deliberately ignores message
//!   identities, so commuting interleavings reaching the same global
//!   configuration collide. A state already explored with at least as
//!   much remaining depth is not re-expanded.
//! * **Sleep sets (DPOR-style).** After exploring transition `t` from
//!   a state, every sibling explored later carries `t` in its sleep
//!   set; descendants skip `t` while it stays independent of the path
//!   taken. Two steps are *dependent* when they touch the same
//!   in-flight message or the same destination participant — so two
//!   deliveries to distinct participants are explored in only one
//!   order.
//!
//! Combining sleep sets with state caching can, in theory, hide a
//! transition behind a cached state (the classic sleep-set/state-cache
//! interaction). The explorer is a bounded *bug finder*, not a
//! verifier, and accepts that trade for the orders-of-magnitude
//! reduction; DESIGN.md discusses the choice.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ar_net::replay::{
    replay_schedule, Expectation, Schedule, ScheduleError, Step, Submission, World, TIMER_KINDS,
};

use crate::model::ModelChecker;

/// What the explorer should enumerate and how far.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Ring size (2–4 participants is the useful range).
    pub hosts: u16,
    /// Hosts that start outside the initial ring and enter via an
    /// explored [`Step::Join`] (see
    /// [`ar_net::replay::World::new_with_joiners`]).
    pub joiners: Vec<u16>,
    /// Maximum schedule length explored.
    pub depth: usize,
    /// Protocol configuration name (`"accelerated"`, `"original"`, or
    /// `"damped"`).
    pub config: String,
    /// Workload submitted before the ring starts.
    pub submissions: Vec<Submission>,
    /// Hard cap on states visited (0 = unlimited).
    pub max_states: u64,
    /// Wall-clock budget; exploration reports `truncated` when hit.
    pub time_box: Option<Duration>,
    /// Enumerate message-loss steps.
    pub drops: bool,
    /// Enumerate message-duplication steps.
    pub dups: bool,
    /// Enumerate timer-firing steps.
    pub timers: bool,
    /// Enumerate membership faults (`Fail`/`Partition`/`Merge`) and
    /// check the [`ModelChecker`] invariants at every explored state.
    pub membership: bool,
    /// Fault budget per explored path when `membership` is on (1 =
    /// the single-fault sweep from the CI job).
    pub max_faults: u8,
    /// Stop after this many violations (0 = collect all).
    pub max_violations: usize,
    /// Record up to this many completed clean paths as corpus
    /// schedules.
    pub corpus_paths: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            hosts: 3,
            joiners: vec![],
            depth: 10,
            config: "accelerated".into(),
            submissions: default_submissions(3, 2),
            max_states: 2_000_000,
            time_box: Some(Duration::from_secs(120)),
            drops: true,
            dups: true,
            timers: true,
            membership: false,
            max_faults: 1,
            max_violations: 8,
            corpus_paths: 0,
        }
    }
}

/// The standard exploration workload: `count` agreed-service payloads
/// submitted round-robin across the first hosts, named `h{host}-m{n}`.
pub fn default_submissions(hosts: u16, count: usize) -> Vec<Submission> {
    (0..count)
        .map(|i| Submission {
            host: (i as u16) % hosts,
            payload: format!("h{}-m{}", (i as u16) % hosts, i / hosts as usize),
            service: ar_core::ServiceType::Agreed,
        })
        .collect()
}

/// A safety violation the explorer found, packaged for reproduction.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The minimized, replayable schedule reaching the violation.
    pub schedule: Schedule,
    /// The oracle messages observed at the end of the schedule.
    pub messages: Vec<String>,
    /// Schedule length before minimization.
    pub original_len: usize,
}

/// Counters and findings from one exploration run.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Distinct world states expanded.
    pub states_visited: u64,
    /// Abstract-model invariant evaluations performed (0 unless
    /// membership mode is on).
    pub model_checks: u64,
    /// Transitions (step applications) executed.
    pub transitions: u64,
    /// Children skipped because their state hash was already explored
    /// with at least as much remaining depth.
    pub pruned_visited: u64,
    /// Children skipped by the sleep-set rule (a commuting order was
    /// already covered).
    pub pruned_sleep: u64,
    /// Paths that ran to the depth bound or to quiescence without any
    /// oracle firing.
    pub completed_paths: u64,
    /// Violations found (minimized).
    pub violations: Vec<Violation>,
    /// Clean completed paths recorded as corpus schedules.
    pub corpus: Vec<Schedule>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// True when the state cap or time box cut the search short.
    pub truncated: bool,
}

impl ExploreReport {
    /// States expanded per second of wall-clock time.
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.states_visited as f64 / secs
        }
    }

    /// Fraction of generated children that were pruned rather than
    /// expanded.
    pub fn prune_ratio(&self) -> f64 {
        let pruned = self.pruned_visited + self.pruned_sleep;
        let total = pruned + self.transitions;
        if total == 0 {
            0.0
        } else {
            pruned as f64 / total as f64
        }
    }
}

/// The depth-first explorer. Construct with a config, call
/// [`Explorer::run`].
#[derive(Debug)]
pub struct Explorer {
    cfg: ExploreConfig,
    visited: HashMap<u64, usize>,
    report: ExploreReport,
    start: Instant,
    stop: bool,
}

impl Explorer {
    /// Creates an explorer for `cfg`.
    pub fn new(cfg: ExploreConfig) -> Explorer {
        Explorer {
            cfg,
            visited: HashMap::new(),
            report: ExploreReport::default(),
            start: Instant::now(),
            stop: false,
        }
    }

    /// Runs the bounded search and returns the report.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`ar_net::replay::ScheduleError`] only if
    /// the initial world cannot be built (unknown config name).
    pub fn run(mut self) -> Result<ExploreReport, ScheduleError> {
        let mut root = World::new_with_joiners(
            self.cfg.hosts,
            &self.cfg.joiners,
            &self.cfg.config,
            &self.cfg.submissions,
        )?;
        // The budget must be fixed before the first hash: it is part of
        // the fingerprint (different budgets, different futures).
        root.set_fault_budget(if self.cfg.membership {
            self.cfg.max_faults
        } else {
            0
        });
        let mut model = self.cfg.membership.then(|| ModelChecker::new(&root));
        if let Some(m) = model.as_mut() {
            let messages = m.observe(&root);
            self.report.model_checks += m.checks();
            if !messages.is_empty() {
                self.record_violation(Vec::new(), messages);
            }
        }
        self.start = Instant::now();
        self.visited.insert(root.state_hash(), self.cfg.depth);
        let mut path = Vec::with_capacity(self.cfg.depth);
        self.dfs(&root, model.as_ref(), &mut path, Vec::new(), self.cfg.depth);
        self.report.elapsed = self.start.elapsed();
        Ok(self.report)
    }

    fn over_budget(&mut self) -> bool {
        if self.stop {
            return true;
        }
        if self.cfg.max_states > 0 && self.report.states_visited >= self.cfg.max_states {
            self.report.truncated = true;
            self.stop = true;
            return true;
        }
        if let Some(boxed) = self.cfg.time_box {
            // Only consult the clock every 1024 states: Instant::now()
            // is cheap but not free at millions of states.
            if self.report.states_visited.is_multiple_of(1024) && self.start.elapsed() > boxed {
                self.report.truncated = true;
                self.stop = true;
                return true;
            }
        }
        false
    }

    fn wanted(&self, step: &Step) -> bool {
        match step {
            Step::Deliver { .. } | Step::Join { .. } => true,
            Step::Duplicate { .. } => self.cfg.dups,
            Step::Drop { .. } => self.cfg.drops,
            Step::Timer { .. } => self.cfg.timers,
            // The fault budget already gates these, but the filter keeps
            // the intent explicit when a caller sets a budget manually.
            Step::Fail { .. } | Step::Partition { .. } | Step::Merge => self.cfg.membership,
        }
    }

    fn schedule_for(&self, steps: Vec<Step>, expect: Expectation, note: String) -> Schedule {
        Schedule {
            hosts: self.cfg.hosts,
            joiners: self.cfg.joiners.clone(),
            config: self.cfg.config.clone(),
            submissions: self.cfg.submissions.clone(),
            steps,
            expect,
            note,
        }
    }

    fn record_path(&mut self, path: &[Step]) {
        self.report.completed_paths += 1;
        if self.report.corpus.len() < self.cfg.corpus_paths && !path.is_empty() {
            let note = format!(
                "explorer completed path #{} (hosts={}, depth={})",
                self.report.completed_paths, self.cfg.hosts, self.cfg.depth
            );
            let schedule = self.schedule_for(path.to_vec(), Expectation::Clean, note);
            self.report.corpus.push(schedule);
        }
    }

    fn record_violation(&mut self, steps: Vec<Step>, messages: Vec<String>) {
        let original_len = steps.len();
        let note = format!("explorer violation: {}", messages.join("; "));
        let raw = self.schedule_for(steps, Expectation::Violation, note);
        let (schedule, _) = minimize_cached(&raw);
        self.report.violations.push(Violation {
            schedule,
            messages,
            original_len,
        });
        if self.cfg.max_violations > 0 && self.report.violations.len() >= self.cfg.max_violations {
            self.report.truncated = true;
            self.stop = true;
        }
    }

    fn dfs(
        &mut self,
        world: &World,
        model: Option<&ModelChecker>,
        path: &mut Vec<Step>,
        sleep: Vec<Step>,
        depth_left: usize,
    ) {
        self.report.states_visited += 1;
        if self.over_budget() {
            return;
        }
        if depth_left == 0 {
            self.record_path(path);
            return;
        }
        let enabled: Vec<Step> = world
            .enabled()
            .into_iter()
            .filter(|s| self.wanted(s))
            .collect();
        if enabled.is_empty() {
            self.record_path(path);
            return;
        }
        let mut explored: Vec<Step> = Vec::new();
        for step in enabled {
            if self.stop {
                return;
            }
            if sleep.contains(&step) {
                self.report.pruned_sleep += 1;
                continue;
            }
            let mut child = world.clone();
            child.apply_step(&step).expect("enabled steps always apply");
            self.report.transitions += 1;
            let mut messages = child.violations();
            // The abstract model forks with the branch: its freshness
            // and agreement invariants depend on the history of views
            // along *this* path.
            let child_model = model.map(|m| {
                let mut fork = m.clone();
                let model_messages = fork.observe(&child);
                self.report.model_checks += fork.checks() - m.checks();
                messages.extend(model_messages);
                fork
            });
            if !messages.is_empty() {
                path.push(step);
                self.record_violation(path.clone(), messages);
                path.pop();
                // A violating state is a leaf: no point enumerating
                // what the adversary does after safety is already lost.
                explored.push(step);
                continue;
            }
            let hash = child.state_hash();
            let child_depth = depth_left - 1;
            match self.visited.get(&hash) {
                Some(&seen_depth) if seen_depth >= child_depth => {
                    self.report.pruned_visited += 1;
                    explored.push(step);
                    continue;
                }
                _ => {
                    self.visited.insert(hash, child_depth);
                }
            }
            let child_sleep: Vec<Step> = sleep
                .iter()
                .chain(explored.iter())
                .filter(|other| independent(world, other, &step))
                .copied()
                .collect();
            path.push(step);
            self.dfs(&child, child_model.as_ref(), path, child_sleep, child_depth);
            path.pop();
            explored.push(step);
        }
    }
}

/// Whether two steps enabled in the same state commute: applying them
/// in either order reaches the same global state (under the
/// id-insensitive fingerprint).
///
/// Conservative rule: steps conflict when they reference the same
/// in-flight message, or when they act on the same destination
/// participant (a `Drop` acts on no participant, so it conflicts only
/// through its message).
///
/// Fault moves get a sharper rule, because `World` treats a message
/// *blocked* by `reachable` at push time and a message *purged* right
/// after a fault identically under the id-insensitive fingerprint:
///
/// * `Fail{h}` conflicts with steps targeting `h` and with steps on a
///   message addressed to `h` (the purge disables them); it commutes
///   with everything else.
/// * `Partition{mask}` conflicts with steps on a message the cut would
///   purge; timers and joins act on one host, so it commutes with them
///   and with same-side message steps.
/// * `Merge` *re-enables* cross-component sends — a message handled
///   before the merge multicasts into a smaller reachable set than one
///   handled after — so it is dependent with everything.
/// * Faults are mutually dependent: they share the fault budget, and
///   stacked reachability changes do not commute in general.
pub fn independent(world: &World, a: &Step, b: &Step) -> bool {
    if matches!(a, Step::Merge) || matches!(b, Step::Merge) {
        return false;
    }
    let fault = |s: &Step| matches!(s, Step::Fail { .. } | Step::Partition { .. });
    if fault(a) && fault(b) {
        return false;
    }
    if fault(a) || fault(b) {
        let (f, other) = if fault(a) { (a, b) } else { (b, a) };
        return match f {
            Step::Fail { host } => !step_touches_host(world, other, *host),
            Step::Partition { mask } => !step_crosses_cut(world, other, *mask),
            _ => unreachable!("fault() admits only Fail and Partition"),
        };
    }
    // A join re-enables sends toward the joining host — a one-host
    // merge — so it cannot commute with any step that ingests actions
    // (and thus multicasts): the pushes toward the joiner are blocked
    // before the join and delivered after it. Drops and duplicates
    // never push, so the plain target rule below covers them.
    let joins = |s: &Step| matches!(s, Step::Join { .. });
    let pushes = |s: &Step| {
        matches!(
            s,
            Step::Deliver { .. } | Step::Timer { .. } | Step::Join { .. }
        )
    };
    if (joins(a) && pushes(b)) || (joins(b) && pushes(a)) {
        return false;
    }
    let msg_of = |s: &Step| match s {
        Step::Deliver { msg } | Step::Duplicate { msg } | Step::Drop { msg } => Some(*msg),
        Step::Timer { .. } | Step::Join { .. } => None,
        Step::Fail { .. } | Step::Partition { .. } | Step::Merge => None,
    };
    if let (Some(ma), Some(mb)) = (msg_of(a), msg_of(b)) {
        if ma == mb {
            return false;
        }
    }
    match (world.step_target(a), world.step_target(b)) {
        (Some(ta), Some(tb)) => ta != tb,
        _ => true,
    }
}

/// Whether `s` acts on `host`: fires its timer, joins it, or moves a
/// message addressed to it. Unknown shapes answer `true` (stay
/// conservative — dependence is always safe).
fn step_touches_host(world: &World, s: &Step, host: u16) -> bool {
    match s {
        Step::Deliver { msg } | Step::Duplicate { msg } | Step::Drop { msg } => world
            .inflight()
            .iter()
            .find(|m| m.id == *msg)
            .is_none_or(|m| m.to == host),
        Step::Timer { host: h, .. } | Step::Join { host: h } => *h == host,
        Step::Fail { .. } | Step::Partition { .. } | Step::Merge => true,
    }
}

/// Whether `s` moves a message that `Partition{mask}` would purge
/// (sender and destination on opposite sides of the cut). Timers and
/// joins act on a single host and commute with the cut.
fn step_crosses_cut(world: &World, s: &Step, mask: u8) -> bool {
    let side = |h: u16| (mask >> h) & 1;
    match s {
        Step::Deliver { msg } | Step::Duplicate { msg } | Step::Drop { msg } => world
            .inflight()
            .iter()
            .find(|m| m.id == *msg)
            .is_none_or(|m| side(m.from) != side(m.to)),
        Step::Timer { .. } | Step::Join { .. } => false,
        Step::Fail { .. } | Step::Partition { .. } | Step::Merge => true,
    }
}

/// Greedily shrinks a schedule while `still_fails` keeps returning
/// true, by repeatedly deleting single steps until a fixpoint
/// (ddmin-lite: the linear passes of delta debugging without the
/// chunked phase, which at explorer depths ≤ 16 buys nothing).
pub fn minimize_with<F: Fn(&Schedule) -> bool>(schedule: &Schedule, still_fails: F) -> Schedule {
    let mut best = schedule.clone();
    loop {
        let mut changed = false;
        let mut i = 0;
        while i < best.steps.len() {
            let mut candidate = best.clone();
            candidate.steps.remove(i);
            if still_fails(&candidate) {
                best = candidate;
                changed = true;
            } else {
                i += 1;
            }
        }
        if !changed {
            return best;
        }
    }
}

/// Minimizes a violating schedule against the real oracles: a
/// candidate survives only if it still replays end-to-end and still
/// trips at least one oracle.
pub fn minimize(schedule: &Schedule) -> Schedule {
    minimize_with(
        schedule,
        |candidate| matches!(replay_schedule(candidate), Ok(out) if !out.violations.is_empty()),
    )
}

/// Work counters from one [`minimize_cached`] run, for asserting the
/// prefix cache actually cut replay work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinimizeStats {
    /// Candidate deletions evaluated.
    pub probes: u64,
    /// Total steps executed across all probes (the cost the prefix
    /// cache cuts — the naive minimizer replays each candidate from
    /// step zero).
    pub steps_replayed: u64,
}

/// Like [`minimize`], but judged by `judge` over the replayed final
/// world plus any abstract-model violations observed along the way,
/// and caching the world/model state after every prefix of the current
/// best schedule: probing the deletion of step `i` replays only the
/// suffix `i+1..`, not the whole schedule.
///
/// The naive ddmin-lite pass costs O(n²) step executions per sweep;
/// with the cache the total falls to the sum of suffix lengths, which
/// halves the work even when nothing can be deleted and does far
/// better when deletions succeed early.
pub fn minimize_cached_with<F>(schedule: &Schedule, judge: F) -> (Schedule, MinimizeStats)
where
    F: Fn(&World, &[String]) -> bool,
{
    let mut stats = MinimizeStats::default();
    let mut best = schedule.clone();
    let fresh = || -> Option<(World, ModelChecker)> {
        let world = World::from_schedule(schedule).ok()?;
        let mut model = ModelChecker::new(&world);
        model.observe(&world);
        Some((world, model))
    };
    let Some(root) = fresh() else {
        return (best, stats);
    };
    // snapshots[i] = (world, model) after best.steps[..i], model
    // observed after every step. Deleting a step invalidates only the
    // snapshots *after* it; everything before stays cached across
    // probes and across sweeps.
    let mut snapshots: Vec<(World, ModelChecker)> = vec![root];
    // Replays `steps` on top of `base`, observing the model at each
    // step; None when a step no longer applies.
    let extend = |base: &(World, ModelChecker),
                  steps: &[Step],
                  stats: &mut MinimizeStats|
     -> Option<(World, ModelChecker)> {
        let (mut world, mut model) = base.clone();
        for step in steps {
            world.apply_step(step).ok()?;
            stats.steps_replayed += 1;
            model.observe(&world);
        }
        Some((world, model))
    };
    loop {
        let mut changed = false;
        let mut i = 0;
        while i < best.steps.len() {
            while snapshots.len() <= i {
                let done = snapshots.len();
                match extend(
                    &snapshots[done - 1],
                    &best.steps[done - 1..done],
                    &mut stats,
                ) {
                    Some(next) => snapshots.push(next),
                    // The supposedly-valid prefix no longer applies:
                    // the schedule has diverged from the code under
                    // test; give up on further shrinking.
                    None => return (best, stats),
                }
            }
            stats.probes += 1;
            let verdict = extend(&snapshots[i], &best.steps[i + 1..], &mut stats)
                .map(|(world, model)| {
                    let mut messages = world.violations();
                    messages.extend(model.violations().iter().cloned());
                    judge(&world, &messages)
                })
                .unwrap_or(false);
            if verdict {
                best.steps.remove(i);
                snapshots.truncate(i + 1);
                changed = true;
            } else {
                i += 1;
            }
        }
        if !changed {
            return (best, stats);
        }
    }
}

/// [`minimize_cached_with`] under the standard judge: the candidate
/// must still trip a concrete oracle or an abstract-model invariant.
/// This is what the explorer runs on every violation it records (model
/// violations are invisible to [`replay_schedule`], which only runs
/// the concrete oracles, so [`minimize`] alone would flatten them).
pub fn minimize_cached(schedule: &Schedule) -> (Schedule, MinimizeStats) {
    minimize_cached_with(schedule, |_, messages| !messages.is_empty())
}

/// Renders an exploration report as the JSON object the CLI and bench
/// emit.
pub fn report_to_json(cfg: &ExploreConfig, report: &ExploreReport) -> String {
    use ar_telemetry::json::JsonWriter;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("hosts");
    w.num_u64(u64::from(cfg.hosts));
    w.key("depth");
    w.num_u64(cfg.depth as u64);
    w.key("config");
    w.str(&cfg.config);
    w.key("membership");
    w.bool(cfg.membership);
    w.key("joiners");
    w.num_u64(cfg.joiners.len() as u64);
    w.key("max_faults");
    w.num_u64(u64::from(cfg.max_faults));
    w.key("model_checks");
    w.num_u64(report.model_checks);
    w.key("states_visited");
    w.num_u64(report.states_visited);
    w.key("transitions");
    w.num_u64(report.transitions);
    w.key("pruned_visited");
    w.num_u64(report.pruned_visited);
    w.key("pruned_sleep");
    w.num_u64(report.pruned_sleep);
    w.key("prune_ratio");
    w.num_f64(report.prune_ratio());
    w.key("completed_paths");
    w.num_u64(report.completed_paths);
    w.key("states_per_sec");
    w.num_f64(report.states_per_sec());
    w.key("elapsed_ms");
    w.num_u64(report.elapsed.as_millis() as u64);
    w.key("truncated");
    w.bool(report.truncated);
    w.key("violations");
    w.begin_array();
    for v in &report.violations {
        w.begin_object();
        w.key("steps");
        w.num_u64(v.schedule.steps.len() as u64);
        w.key("original_steps");
        w.num_u64(v.original_len as u64);
        w.key("messages");
        w.begin_array();
        for m in &v.messages {
            w.str(m);
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// The timer kinds the explorer can fire, re-exported so callers need
/// not depend on `ar-net` directly for the list.
pub const EXPLORABLE_TIMERS: [ar_core::TimerKind; 5] = TIMER_KINDS;

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(hosts: u16, depth: usize) -> ExploreConfig {
        ExploreConfig {
            hosts,
            depth,
            submissions: default_submissions(hosts, 2),
            max_states: 200_000,
            time_box: Some(Duration::from_secs(60)),
            ..ExploreConfig::default()
        }
    }

    #[test]
    fn delivery_only_exploration_is_clean() {
        let cfg = ExploreConfig {
            drops: false,
            dups: false,
            timers: false,
            ..quick_cfg(2, 8)
        };
        let report = Explorer::new(cfg).run().unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.states_visited > 1);
        assert!(!report.truncated, "tiny search should not be truncated");
    }

    #[test]
    fn full_adversary_exploration_prunes_and_stays_clean() {
        let report = Explorer::new(quick_cfg(2, 6)).run().unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(
            report.pruned_visited + report.pruned_sleep > 0,
            "expected some pruning: {report:?}"
        );
        assert!(report.prune_ratio() > 0.0);
        assert!(report.completed_paths > 0);
    }

    #[test]
    fn exploration_is_deterministic() {
        let a = Explorer::new(quick_cfg(2, 5)).run().unwrap();
        let b = Explorer::new(quick_cfg(2, 5)).run().unwrap();
        assert_eq!(a.states_visited, b.states_visited);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.pruned_visited, b.pruned_visited);
        assert_eq!(a.pruned_sleep, b.pruned_sleep);
    }

    #[test]
    fn corpus_paths_are_replayable() {
        let cfg = ExploreConfig {
            corpus_paths: 3,
            ..quick_cfg(2, 5)
        };
        let report = Explorer::new(cfg).run().unwrap();
        assert!(!report.corpus.is_empty());
        for schedule in &report.corpus {
            let out = replay_schedule(schedule).expect("corpus schedule replays");
            assert!(out.matches(Expectation::Clean), "{:?}", out.violations);
        }
    }

    #[test]
    fn state_cap_truncates() {
        let cfg = ExploreConfig {
            max_states: 10,
            ..quick_cfg(3, 12)
        };
        let report = Explorer::new(cfg).run().unwrap();
        assert!(report.truncated);
        assert!(report.states_visited <= 11);
    }

    #[test]
    fn minimizer_shrinks_to_the_failing_core() {
        // Synthetic predicate: the schedule "fails" while it still
        // contains the Drop of message 7. Everything else is noise the
        // minimizer must delete.
        let noisy = Schedule {
            hosts: 3,
            joiners: vec![],
            config: "accelerated".into(),
            submissions: vec![],
            steps: vec![
                Step::Deliver { msg: 0 },
                Step::Drop { msg: 7 },
                Step::Deliver { msg: 1 },
                Step::Duplicate { msg: 2 },
                Step::Deliver { msg: 3 },
            ],
            expect: Expectation::Violation,
            note: String::new(),
        };
        let min = minimize_with(&noisy, |s| s.steps.contains(&Step::Drop { msg: 7 }));
        assert_eq!(min.steps, vec![Step::Drop { msg: 7 }]);
    }

    #[test]
    fn membership_exploration_checks_the_model_and_stays_clean() {
        let cfg = ExploreConfig {
            membership: true,
            max_faults: 1,
            submissions: vec![],
            dups: false,
            drops: false,
            ..quick_cfg(2, 6)
        };
        let report = Explorer::new(cfg).run().unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.model_checks > 0, "model never consulted");
        assert!(report.states_visited > 1);
    }

    #[test]
    fn membership_exploration_enumerates_fails_and_partitions() {
        // With membership off the same search must visit strictly
        // fewer states: fails and partitions add adversary moves.
        let base = ExploreConfig {
            submissions: vec![],
            dups: false,
            drops: false,
            timers: false,
            ..quick_cfg(3, 4)
        };
        let without = Explorer::new(base.clone()).run().unwrap();
        let with = Explorer::new(ExploreConfig {
            membership: true,
            max_faults: 1,
            ..base
        })
        .run()
        .unwrap();
        assert!(
            with.states_visited > without.states_visited,
            "membership alphabet added no states: {} vs {}",
            with.states_visited,
            without.states_visited
        );
        assert!(with.violations.is_empty(), "{:?}", with.violations);
    }

    #[test]
    fn joiner_exploration_reaches_join_episodes() {
        // Timers off leaves only delivers and the join itself, so the
        // first few completed DFS paths already exercise the join.
        let cfg = ExploreConfig {
            hosts: 3,
            joiners: vec![2],
            submissions: vec![],
            dups: false,
            drops: false,
            timers: false,
            max_states: 50_000,
            corpus_paths: 8,
            ..quick_cfg(3, 5)
        };
        let report = Explorer::new(cfg).run().unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // Some explored path must include the join transition, and the
        // corpus schedules must carry the joiners list so they replay.
        let with_join = report
            .corpus
            .iter()
            .any(|s| s.steps.iter().any(|t| matches!(t, Step::Join { host: 2 })));
        assert!(with_join, "no corpus path exercised the join");
        for schedule in &report.corpus {
            assert_eq!(schedule.joiners, vec![2]);
            let out = replay_schedule(schedule).expect("corpus schedule replays");
            assert!(out.matches(Expectation::Clean), "{:?}", out.violations);
        }
    }

    #[test]
    fn cached_minimizer_matches_naive_and_replays_less() {
        use std::cell::Cell;
        // A clean schedule judged by a property of the final world
        // ("host 0 delivered something"): both minimizers must agree on
        // the shrunken core, and the cached one must execute fewer
        // steps because probes replay only suffixes.
        let mut w = World::new(2, "accelerated", &default_submissions(2, 2)).unwrap();
        let mut steps = Vec::new();
        for _ in 0..14 {
            let Some(first) = w.inflight().first().map(|m| m.id) else {
                break;
            };
            let step = Step::Deliver { msg: first };
            w.apply_step(&step).unwrap();
            steps.push(step);
        }
        assert!(w.deliveries()[0] >= 1, "workload never delivered");
        let schedule = Schedule {
            hosts: 2,
            joiners: vec![],
            config: "accelerated".into(),
            submissions: default_submissions(2, 2),
            steps,
            expect: Expectation::Clean,
            note: String::new(),
        };
        let naive_steps = Cell::new(0u64);
        let naive = minimize_with(&schedule, |c| {
            naive_steps.set(naive_steps.get() + c.steps.len() as u64);
            matches!(replay_schedule(c), Ok(out) if out.deliveries[0] >= 1)
        });
        let (cached, stats) =
            minimize_cached_with(&schedule, |world, _| world.deliveries()[0] >= 1);
        assert_eq!(naive.steps, cached.steps, "minimizers disagree");
        assert!(stats.probes > 0);
        assert!(
            stats.steps_replayed < naive_steps.get(),
            "prefix cache saved nothing: cached={} naive={}",
            stats.steps_replayed,
            naive_steps.get()
        );
    }

    #[test]
    fn independence_rules_match_commutation() {
        let w = World::new(3, "accelerated", &[]).unwrap();
        let t0 = Step::Timer {
            host: 0,
            kind: ar_core::TimerKind::TokenLoss,
        };
        let t2 = Step::Timer {
            host: 2,
            kind: ar_core::TimerKind::TokenLoss,
        };
        assert!(independent(&w, &t0, &t2));
        assert!(!independent(&w, &t0, &t0));
        // The initial token is in flight to host 1: delivering it
        // conflicts with host 1's timer but not host 2's.
        let id = w.inflight()[0].id;
        let deliver = Step::Deliver { msg: id };
        let t1 = Step::Timer {
            host: 1,
            kind: ar_core::TimerKind::TokenLoss,
        };
        assert!(!independent(&w, &deliver, &t1));
        assert!(independent(&w, &deliver, &t2));
        assert!(!independent(&w, &deliver, &Step::Drop { msg: id }));
        // The 0→1 token rides inside component {0, 1}: isolating host 2
        // neither blocks nor purges it, so the cut commutes — but a cut
        // that separates 0 from 1 purges the token and conflicts.
        assert!(independent(&w, &deliver, &Step::Partition { mask: 0b100 }));
        assert!(!independent(&w, &deliver, &Step::Partition { mask: 0b010 }));
        // Failing the destination purges the message; failing a
        // bystander commutes. Merge commutes with nothing, and fault
        // moves conflict with each other through the shared budget.
        assert!(!independent(&w, &deliver, &Step::Fail { host: 1 }));
        assert!(independent(&w, &deliver, &Step::Fail { host: 2 }));
        assert!(!independent(
            &w,
            &Step::Drop { msg: id },
            &Step::Fail { host: 1 }
        ));
        assert!(!independent(&w, &t2, &Step::Merge));
        assert!(!independent(
            &w,
            &Step::Fail { host: 0 },
            &Step::Partition { mask: 0b100 }
        ));
        // A join re-enables sends toward the joiner, so steps that
        // multicast (timers, deliveries) do not commute with it — but
        // pushless drops do.
        assert!(!independent(&w, &t2, &Step::Join { host: 0 }));
        assert!(independent(
            &w,
            &Step::Drop { msg: id },
            &Step::Join { host: 2 }
        ));
    }

    /// Empirical soundness check for the sharper fault rules: whenever
    /// `independent` says two enabled steps commute, applying them in
    /// either order must stay legal and land on the same fingerprint.
    #[test]
    fn independent_pairs_really_commute() {
        fn check_all_pairs(w: &World) -> usize {
            let steps = w.enabled();
            let mut checked = 0;
            for a in &steps {
                for b in &steps {
                    if a == b || !independent(w, a, b) {
                        continue;
                    }
                    let mut ab = w.clone();
                    ab.apply_step(a).expect("a enabled");
                    ab.apply_step(b).unwrap_or_else(|e| {
                        panic!("{} disabled {}: {e}", a.describe(), b.describe())
                    });
                    let mut ba = w.clone();
                    ba.apply_step(b).expect("b enabled");
                    ba.apply_step(a).unwrap_or_else(|e| {
                        panic!("{} disabled {}: {e}", b.describe(), a.describe())
                    });
                    assert_eq!(
                        ab.state_hash(),
                        ba.state_hash(),
                        "{} and {} marked independent but do not commute",
                        a.describe(),
                        b.describe()
                    );
                    checked += 1;
                }
            }
            checked
        }

        // Walk a membership-enabled world a few steps along several
        // prefixes and check every independent pair at every state.
        let subs = default_submissions(3, 1);
        let mut total = 0;
        for prefix in 0..6u64 {
            let mut w = World::new_with_joiners(3, &[2], "accelerated", &subs).unwrap();
            w.set_fault_budget(1);
            for depth in 0..5 {
                total += check_all_pairs(&w);
                let steps = w.enabled();
                if steps.is_empty() {
                    break;
                }
                let pick = ((prefix * 7 + depth * 3) % steps.len() as u64) as usize;
                w.apply_step(&steps[pick]).unwrap();
            }
        }
        assert!(total > 100, "only {total} independent pairs exercised");
    }
}
