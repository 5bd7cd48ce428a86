//! Runtime invariant checkers for Extended Virtual Synchrony and the
//! token retransmission rule.
//!
//! These checkers observe a run from the outside — deliveries,
//! configuration changes, submissions, and tokens on the wire — and
//! accumulate violations instead of panicking, so a harness can drive a
//! whole chaotic run to completion and then report every broken
//! invariant at once. `ar-net`'s deterministic `World` feeds them on
//! behalf of every scheduler that drives it (the explorer, the nemesis
//! runner, the lossy-network property tests); they are usable against
//! the simulator's outputs as well.

use std::collections::HashMap;

use crate::actions::{Action, ConfigChange, ConfigChangeKind};
use crate::message::{Delivery, Token};
use crate::types::{ParticipantId, RingId, Seq};

/// Checks Extended Virtual Synchrony delivery invariants across a set
/// of observed processes.
///
/// Feed it every delivery ([`EvsChecker::on_delivery`]), every
/// configuration change ([`EvsChecker::on_config`]), and every local
/// submission ([`EvsChecker::on_submit`]); then call
/// [`EvsChecker::check`] (plus [`EvsChecker::check_self_delivery`] for
/// liveness) at the end of the run.
///
/// Invariants checked:
///
/// 1. **Agreed order / prefix consistency** — within a ring, every
///    process delivers strictly increasing sequence numbers, and for
///    any two processes one ring-restricted delivery sequence is a
///    prefix of the other.
/// 2. **Agreement on content** — any two deliveries of `(ring, seq)`
///    carry the same payload and sender.
/// 3. **Same-view delivery** — a delivery's ring is the configuration
///    the process currently has installed (initial or the most recent
///    regular/transitional configuration change).
/// 4. **Transitional-configuration rules** — a transitional
///    configuration's members are a subset of the preceding regular
///    configuration's members, contain the local process, and a
///    transitional configuration never directly follows another
///    transitional configuration.
/// 5. **Self-delivery** (on demand) — every payload a surviving
///    process submitted appears in its own delivery log.
/// 6. **Transitional-configuration agreement** — any two processes
///    that deliver a transitional configuration with the same ring id
///    deliver it with the same member list (the processes continuing
///    together agree on who is continuing).
#[derive(Debug, Clone)]
pub struct EvsChecker {
    n: usize,
    /// Per-process ring-restricted delivery sequences.
    per_proc: Vec<ProcState>,
    /// Payload/sender agreed at each (ring, seq) and the first process
    /// that delivered it.
    content: HashMap<(RingId, u64), (Vec<u8>, ParticipantId, usize)>,
    /// Members of each transitional configuration and the first process
    /// that delivered it (for cross-process agreement).
    trans_views: HashMap<RingId, (Vec<ParticipantId>, usize)>,
    violations: Vec<String>,
}

#[derive(Debug, Default, Clone)]
struct ProcState {
    /// Deliveries per ring, in observation order.
    per_ring: HashMap<RingId, Vec<u64>>,
    /// Rings in the order this process first delivered in them.
    ring_order: Vec<RingId>,
    /// The currently installed configuration, if any change was seen.
    installed: Option<ConfigChange>,
    /// Ring installed before the current transitional configuration:
    /// its messages may still surface while the transitional view is
    /// up (EVS delivers leftover old-ring messages there).
    prev_ring: Option<RingId>,
    /// Kind of the last configuration change (for alternation checks).
    last_kind: Option<ConfigChangeKind>,
    /// Members of the last *regular* configuration.
    last_regular: Option<Vec<ParticipantId>>,
    /// Payloads submitted locally (for self-delivery).
    submitted: Vec<Vec<u8>>,
    /// Payloads delivered locally.
    delivered_payloads: Vec<Vec<u8>>,
}

impl EvsChecker {
    /// A checker over processes `0..n`, where process `i` is
    /// [`ParticipantId::new`]`(i)` and starts in a common initial ring.
    pub fn new(n: usize) -> EvsChecker {
        EvsChecker {
            n,
            per_proc: (0..n).map(|_| ProcState::default()).collect(),
            content: HashMap::new(),
            trans_views: HashMap::new(),
            violations: Vec::new(),
        }
    }

    /// Seeds process `i`'s installed view with the configuration it was
    /// bootstrapped into, *without* counting it as an observed
    /// configuration-change event.
    ///
    /// Statically bootstrapped rings never deliver a configuration
    /// change for their initial view, so without seeding the checker
    /// cannot judge same-view delivery before the first membership
    /// episode, and the first transitional configuration has no
    /// preceding regular view to be a subset of (and no `prev_ring` for
    /// the old-ring leftover exception). Harnesses that build
    /// participants via [`Participant::new`](crate::Participant::new)
    /// should seed each process with the ring it was constructed on.
    pub fn on_initial_config(&mut self, i: usize, ring_id: RingId, members: &[ParticipantId]) {
        let st = &mut self.per_proc[i];
        st.installed = Some(ConfigChange {
            kind: ConfigChangeKind::Regular,
            ring_id,
            members: members.to_vec(),
        });
        st.last_kind = Some(ConfigChangeKind::Regular);
        st.last_regular = Some(members.to_vec());
        st.prev_ring = None;
    }

    /// Records that process `i` submitted `payload` for ordering.
    pub fn on_submit(&mut self, i: usize, payload: &[u8]) {
        self.per_proc[i].submitted.push(payload.to_vec());
    }

    /// Records that process `i` restarted as a fresh incarnation: its
    /// installed-view history is reset and its submissions die with the
    /// old incarnation (EVS treats a recovered process as a new
    /// process), while its delivery logs are kept for the cross-process
    /// safety checks.
    pub fn on_restart(&mut self, i: usize) {
        let st = &mut self.per_proc[i];
        st.submitted.clear();
        st.installed = None;
        st.last_kind = None;
        st.last_regular = None;
        st.prev_ring = None;
    }

    /// Records a delivery observed at process `i`.
    pub fn on_delivery(&mut self, i: usize, d: &Delivery) {
        let seq = d.seq.as_u64();
        // 3. Same-view: the delivery's ring must be the installed one.
        // Exception: while a transitional configuration is installed,
        // messages ordered in the ring it replaced may still surface
        // (EVS delivers old-ring leftovers with transitional
        // guarantees, and they keep their original ring id).
        if let Some(installed) = &self.per_proc[i].installed {
            let old_in_transitional = installed.kind == ConfigChangeKind::Transitional
                && self.per_proc[i].prev_ring == Some(d.ring_id);
            if installed.ring_id != d.ring_id && !old_in_transitional {
                self.violations.push(format!(
                    "P{i}: delivery at seq {seq} in {:?} but installed view is {:?}",
                    d.ring_id, installed.ring_id
                ));
            }
        }
        // 2. Content agreement.
        match self.content.entry((d.ring_id, seq)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let (payload, pid, first) = e.get();
                if payload != &d.payload[..] || *pid != d.pid {
                    self.violations.push(format!(
                        "P{i}: content mismatch with P{first} at ({:?}, {seq})",
                        d.ring_id
                    ));
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert((d.payload.to_vec(), d.pid, i));
            }
        }
        // 1. Strictly increasing within the ring.
        let st = &mut self.per_proc[i];
        let ring_log = st.per_ring.entry(d.ring_id).or_insert_with(|| {
            st.ring_order.push(d.ring_id);
            Vec::new()
        });
        if let Some(&prev) = ring_log.last() {
            if seq <= prev {
                self.violations.push(format!(
                    "P{i}: non-increasing seq {seq} after {prev} in {:?}",
                    d.ring_id
                ));
            }
        }
        ring_log.push(seq);
        st.delivered_payloads.push(d.payload.to_vec());
    }

    /// Records a configuration change observed at process `i`.
    pub fn on_config(&mut self, i: usize, c: &ConfigChange) {
        let me = ParticipantId::new(i as u16);
        let st = &mut self.per_proc[i];
        match c.kind {
            ConfigChangeKind::Transitional => {
                // 4. Subset of the preceding regular configuration.
                if let Some(reg) = &st.last_regular {
                    if let Some(p) = c.members.iter().find(|p| !reg.contains(p)) {
                        self.violations.push(format!(
                            "P{i}: transitional config {:?} contains {p} absent \
                             from the preceding regular configuration",
                            c.ring_id
                        ));
                    }
                }
                if !c.members.contains(&me) {
                    self.violations.push(format!(
                        "P{i}: transitional config {:?} does not contain the \
                         local process",
                        c.ring_id
                    ));
                }
                if st.last_kind == Some(ConfigChangeKind::Transitional) {
                    self.violations.push(format!(
                        "P{i}: two transitional configurations in a row at {:?}",
                        c.ring_id
                    ));
                }
                // 6. Cross-process agreement on who continues together.
                match self.trans_views.get(&c.ring_id) {
                    Some((members, first)) if members != &c.members => {
                        self.violations.push(format!(
                            "P{i}: transitional config {:?} members {:?} disagree \
                             with P{first}'s {:?}",
                            c.ring_id, c.members, members
                        ));
                    }
                    Some(_) => {}
                    None => {
                        self.trans_views.insert(c.ring_id, (c.members.clone(), i));
                    }
                }
            }
            ConfigChangeKind::Regular => {
                if !c.members.contains(&me) {
                    self.violations.push(format!(
                        "P{i}: regular config {:?} does not contain the local \
                         process",
                        c.ring_id
                    ));
                }
                st.last_regular = Some(c.members.clone());
            }
        }
        st.last_kind = Some(c.kind);
        st.prev_ring = match c.kind {
            // Old-ring leftovers may surface during the transitional
            // view; once the regular view installs, they may not.
            ConfigChangeKind::Transitional => st.installed.as_ref().map(|p| p.ring_id),
            ConfigChangeKind::Regular => None,
        };
        st.installed = Some(c.clone());
    }

    /// Checks cross-process prefix consistency and returns every
    /// violation accumulated so far.
    ///
    /// # Errors
    ///
    /// Returns the list of violation descriptions if any invariant was
    /// broken.
    pub fn check(&mut self) -> Result<(), Vec<String>> {
        // 1b. Prefix consistency per ring across process pairs.
        for a in 0..self.n {
            for b in (a + 1)..self.n {
                let rings: Vec<RingId> = self.per_proc[a]
                    .ring_order
                    .iter()
                    .filter(|r| self.per_proc[b].per_ring.contains_key(r))
                    .copied()
                    .collect();
                for ring in rings {
                    let la = &self.per_proc[a].per_ring[&ring];
                    let lb = &self.per_proc[b].per_ring[&ring];
                    let common = la.len().min(lb.len());
                    if la[..common] != lb[..common] {
                        self.violations.push(format!(
                            "P{a}/P{b}: divergent delivery prefixes in {ring:?}"
                        ));
                    }
                }
            }
        }
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(std::mem::take(&mut self.violations))
        }
    }

    /// Checks that each process in `survivors` delivered everything it
    /// submitted.
    ///
    /// # Errors
    ///
    /// Returns one description per missing self-delivery.
    pub fn check_self_delivery(&self, survivors: &[usize]) -> Result<(), Vec<String>> {
        let mut violations = Vec::new();
        for &i in survivors {
            let st = &self.per_proc[i];
            for payload in &st.submitted {
                if !st.delivered_payloads.iter().any(|p| p == payload) {
                    violations.push(format!(
                        "P{i}: submitted payload {:?} never self-delivered",
                        String::from_utf8_lossy(payload)
                    ));
                }
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }

    /// Violations accumulated so far (without consuming them).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

/// Checks the durability contract of crash-safe Safe delivery against
/// logs recovered from disk after the run.
///
/// With a durable log gating Safe delivery, "Safe" strengthens from
/// *replicated everywhere* to *replicated and locally durable*: by the
/// time a Safe message reaches the application, its record must already
/// be on disk. This checker verifies that contract from the outside —
/// feed it every Safe delivery an application observed
/// ([`DurabilityChecker::on_safe_delivered`]) and, after the run (and
/// any number of `kill -9`s), each surviving process's recovered log
/// contents in log order ([`DurabilityChecker::on_log_record`]); then
/// call [`DurabilityChecker::check`].
///
/// Invariants checked:
///
/// 1. **No lost Safe delivery** — every Safe message surfaced at a
///    process appears in that process's recovered log (same ring, seq,
///    and payload), in the same relative order it was surfaced.
/// 2. **Log order** — within a log, ring-restricted sequence numbers
///    are strictly increasing (a torn-tail repair never reorders or
///    resurrects records).
/// 3. **Cross-log agreement** — any two logs agree on the payload and
///    sender stored at `(ring, seq)`.
#[derive(Debug, Default, Clone)]
pub struct DurabilityChecker {
    /// Safe deliveries surfaced to the application, per process.
    surfaced: HashMap<usize, Vec<Delivery>>,
    /// Recovered log contents, per process, in log order.
    logs: HashMap<usize, Vec<Delivery>>,
    violations: Vec<String>,
}

impl DurabilityChecker {
    /// A checker with no observations.
    pub fn new() -> DurabilityChecker {
        DurabilityChecker::default()
    }

    /// Records that process `i` surfaced a Safe delivery to its
    /// application. Deliveries with other service levels are ignored,
    /// so the full delivery stream can be fed unfiltered.
    pub fn on_safe_delivered(&mut self, i: usize, d: &Delivery) {
        if d.service == crate::types::ServiceType::Safe {
            self.surfaced.entry(i).or_default().push(d.clone());
        }
    }

    /// Records one delivery record recovered from process `i`'s log,
    /// in log order. Call once per record, scanning the log front to
    /// back (e.g. from `ar-log`'s recovery output).
    pub fn on_log_record(&mut self, i: usize, d: &Delivery) {
        self.logs.entry(i).or_default().push(d.clone());
    }

    /// Runs all checks and returns every violation found.
    ///
    /// Processes with surfaced Safe deliveries but no recovered log are
    /// skipped (non-survivors whose disk was lost are outside the
    /// contract).
    ///
    /// # Errors
    ///
    /// Returns the list of violation descriptions if the durability
    /// contract was broken.
    pub fn check(&mut self) -> Result<(), Vec<String>> {
        // 2. Per-log ring-restricted order.
        for (&i, log) in &self.logs {
            let mut last: HashMap<RingId, u64> = HashMap::new();
            for d in log {
                let seq = d.seq.as_u64();
                if let Some(&prev) = last.get(&d.ring_id) {
                    if seq <= prev {
                        self.violations.push(format!(
                            "P{i} log: non-increasing seq {seq} after {prev} in {:?}",
                            d.ring_id
                        ));
                    }
                }
                last.insert(d.ring_id, seq);
            }
        }
        // 3. Cross-log content agreement.
        let mut content: HashMap<(RingId, u64), (&Delivery, usize)> = HashMap::new();
        for (&i, log) in &self.logs {
            for d in log {
                match content.entry((d.ring_id, d.seq.as_u64())) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let (other, first) = e.get();
                        if other.payload != d.payload || other.pid != d.pid {
                            self.violations.push(format!(
                                "P{i} log disagrees with P{first} log at ({:?}, {})",
                                d.ring_id,
                                d.seq.as_u64()
                            ));
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert((d, i));
                    }
                }
            }
        }
        // 1. Surfaced Safe deliveries present and ordered in the
        // surviving local log (ordered-subsequence scan).
        for (&i, surfaced) in &self.surfaced {
            let Some(log) = self.logs.get(&i) else {
                continue;
            };
            let mut pos = 0;
            for d in surfaced {
                let found = log[pos..].iter().position(|r| {
                    r.ring_id == d.ring_id && r.seq == d.seq && r.payload == d.payload
                });
                match found {
                    Some(off) => pos += off + 1,
                    None => self.violations.push(format!(
                        "P{i}: Safe-delivered ({:?}, {}) missing from (or out of \
                         order in) the recovered log",
                        d.ring_id,
                        d.seq.as_u64()
                    )),
                }
            }
        }
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(std::mem::take(&mut self.violations))
        }
    }

    /// Violations accumulated so far (without consuming them).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

/// Checks the paper's retransmission-request bound on tokens in flight:
/// a token's `rtr` entries never exceed the `seq` of the previous token
/// on the same ring.
///
/// Messages ordered in the current round may still be travelling behind
/// the token (the Accelerated Ring innovation), so requesting them
/// would trigger useless retransmissions; the protocol therefore bounds
/// requests by the previous round's token `seq`. Feed every token
/// observed on the wire to [`TokenRuleMonitor::on_token`].
#[derive(Debug, Default, Clone)]
pub struct TokenRuleMonitor {
    /// Last (round, seq) seen per ring.
    last: HashMap<RingId, (u64, Seq)>,
    violations: Vec<String>,
    tokens_seen: u64,
}

impl TokenRuleMonitor {
    /// A monitor with no observed tokens.
    pub fn new() -> TokenRuleMonitor {
        TokenRuleMonitor::default()
    }

    /// Observes one token on the wire.
    pub fn on_token(&mut self, tok: &Token) {
        self.tokens_seen += 1;
        let round = tok.round.as_u64();
        match self.last.get(&tok.ring_id) {
            // Only judge strictly newer tokens: a retransmitted token
            // (same or older round) repeats already-checked state.
            Some(&(prev_round, prev_seq)) if round > prev_round => {
                if let Some(&bad) = tok.rtr.iter().find(|&&s| s > prev_seq) {
                    self.violations.push(format!(
                        "token round {round} on {:?} requests retransmission \
                         of {bad} beyond previous token seq {prev_seq}",
                        tok.ring_id
                    ));
                }
                self.last.insert(tok.ring_id, (round, tok.seq));
            }
            Some(_) => {}
            None => {
                self.last.insert(tok.ring_id, (round, tok.seq));
            }
        }
    }

    /// Total tokens observed.
    pub fn tokens_seen(&self) -> u64 {
        self.tokens_seen
    }

    /// Returns accumulated violations.
    ///
    /// # Errors
    ///
    /// Returns the list of violation descriptions if the bound was ever
    /// exceeded.
    pub fn check(&mut self) -> Result<(), Vec<String>> {
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(std::mem::take(&mut self.violations))
        }
    }
}

/// Checks the pre/post-token send-split invariant on the action batches
/// a participant emits while holding the token.
///
/// The Accelerated Ring protocol's acceleration is structural: a token
/// holder multicasts part of its new messages *before* forwarding the
/// token and the rest (at most the accelerated window) *after*. The
/// emitted action list encodes this contract, and every embedding
/// environment executes the list in order — so the contract can be
/// checked syntactically on each batch:
///
/// 1. every new-message `Multicast` before the `SendToken` carries
///    `after_token == false`, and every one after it carries
///    `after_token == true`;
/// 2. at most one `SendToken` appears per batch;
/// 3. no post-token multicast carries a sequence number beyond the
///    `seq` written into the token that precedes it (the token must
///    already account for every message the holder will send this
///    round — otherwise the next holder could order messages the rest
///    of the ring can never request, violating the rtr bound);
/// 4. the number of post-token *new* multicasts never exceeds the
///    configured accelerated window.
///
/// Batches with no `SendToken` (pure delivery batches, membership
/// traffic, timer re-arms) are ignored: the split is a property of
/// token handoff only. Retransmissions are recognisable by
/// `after_token == false` on a sequence number at or below the
/// incoming token's `aru`/`rtr` range and are only checked against
/// rule 1's ordering, which they satisfy by construction.
#[derive(Debug, Default, Clone)]
pub struct SendSplitChecker {
    /// Maximum post-token new multicasts allowed per batch, if bounded.
    window: Option<u32>,
    violations: Vec<String>,
    batches_checked: u64,
}

impl SendSplitChecker {
    /// A checker enforcing `window` as the post-token send bound.
    ///
    /// Pass the configured `accelerated_window` (the AIMD-degraded
    /// effective window only ever shrinks below it). `None` skips the
    /// window-bound rule but keeps the structural rules.
    pub fn new(window: Option<u32>) -> SendSplitChecker {
        SendSplitChecker {
            window,
            violations: Vec::new(),
            batches_checked: 0,
        }
    }

    /// Observes one action batch emitted by participant `pid`.
    ///
    /// Call this with the full `Vec<Action>` returned by a single
    /// `handle_message`/`handle_timer`/`submit` call, before the
    /// environment executes it.
    pub fn on_actions(&mut self, pid: ParticipantId, actions: &[Action]) {
        let mut token_seq: Option<Seq> = None;
        let mut post_token_new = 0u32;
        let mut tokens_in_batch = 0u32;
        for a in actions {
            match a {
                Action::SendToken { token, .. } => {
                    tokens_in_batch += 1;
                    if tokens_in_batch > 1 {
                        self.violations.push(format!(
                            "{pid}: {tokens_in_batch} SendToken actions in one batch"
                        ));
                    }
                    token_seq = Some(token.seq);
                }
                Action::Multicast(d) => match token_seq {
                    None => {
                        if d.after_token {
                            self.violations.push(format!(
                                "{pid}: multicast of {} flagged after_token \
                                 before the token was sent",
                                d.seq
                            ));
                        }
                    }
                    Some(tseq) => {
                        if !d.after_token {
                            self.violations.push(format!(
                                "{pid}: multicast of {} after SendToken not \
                                 flagged after_token",
                                d.seq
                            ));
                        }
                        if d.seq > tseq {
                            self.violations.push(format!(
                                "{pid}: post-token multicast of {} beyond \
                                 token seq {tseq}",
                                d.seq
                            ));
                        }
                        if d.after_token {
                            post_token_new += 1;
                        }
                    }
                },
                _ => {}
            }
        }
        if tokens_in_batch > 0 {
            self.batches_checked += 1;
            if let Some(w) = self.window {
                if post_token_new > w {
                    self.violations.push(format!(
                        "{pid}: {post_token_new} post-token multicasts exceed \
                         the accelerated window {w}"
                    ));
                }
            }
        }
    }

    /// Number of token-bearing batches observed so far.
    pub fn batches_checked(&self) -> u64 {
        self.batches_checked
    }

    /// Violations accumulated so far (without consuming them).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Returns accumulated violations.
    ///
    /// # Errors
    ///
    /// Returns the list of violation descriptions if the split contract
    /// was ever broken.
    pub fn check(&mut self) -> Result<(), Vec<String>> {
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(std::mem::take(&mut self.violations))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Round, ServiceType};
    use bytes::Bytes;

    fn ring(v: u64) -> RingId {
        RingId::new(ParticipantId::new(0), v)
    }

    fn delivery(r: RingId, seq: u64, pid: u16, payload: &'static [u8]) -> Delivery {
        Delivery {
            ring_id: r,
            seq: Seq::new(seq),
            pid: ParticipantId::new(pid),
            service: ServiceType::Agreed,
            payload: Bytes::from_static(payload),
        }
    }

    #[test]
    fn clean_run_passes() {
        let mut ck = EvsChecker::new(2);
        for i in 0..2 {
            ck.on_submit(i, b"a");
            ck.on_delivery(i, &delivery(ring(1), 1, 0, b"a"));
            ck.on_delivery(i, &delivery(ring(1), 2, 1, b"b"));
        }
        ck.check().unwrap();
        ck.check_self_delivery(&[0]).unwrap();
    }

    #[test]
    fn content_mismatch_detected() {
        let mut ck = EvsChecker::new(2);
        ck.on_delivery(0, &delivery(ring(1), 1, 0, b"a"));
        ck.on_delivery(1, &delivery(ring(1), 1, 0, b"DIFFERENT"));
        let errs = ck.check().unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("content mismatch")),
            "{errs:?}"
        );
    }

    #[test]
    fn non_increasing_seq_detected() {
        let mut ck = EvsChecker::new(1);
        ck.on_delivery(0, &delivery(ring(1), 5, 0, b"a"));
        ck.on_delivery(0, &delivery(ring(1), 5, 0, b"a"));
        let errs = ck.check().unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("non-increasing")),
            "{errs:?}"
        );
    }

    #[test]
    fn divergent_prefix_detected() {
        let mut ck = EvsChecker::new(2);
        ck.on_delivery(0, &delivery(ring(1), 1, 0, b"a"));
        ck.on_delivery(1, &delivery(ring(1), 2, 1, b"b"));
        let errs = ck.check().unwrap_err();
        assert!(errs.iter().any(|e| e.contains("divergent")), "{errs:?}");
    }

    #[test]
    fn transitional_must_shrink_regular() {
        let mut ck = EvsChecker::new(1);
        let members: Vec<ParticipantId> = (0..2).map(ParticipantId::new).collect();
        ck.on_config(
            0,
            &ConfigChange {
                kind: ConfigChangeKind::Regular,
                ring_id: ring(1),
                members: members[..1].to_vec(),
            },
        );
        ck.on_config(
            0,
            &ConfigChange {
                kind: ConfigChangeKind::Transitional,
                ring_id: ring(2),
                members: members.clone(),
            },
        );
        let errs = ck.check().unwrap_err();
        assert!(errs.iter().any(|e| e.contains("transitional")), "{errs:?}");
    }

    #[test]
    fn old_ring_leftovers_allowed_only_in_transitional_view() {
        let members: Vec<ParticipantId> = (0..2).map(ParticipantId::new).collect();
        let regular = |r| ConfigChange {
            kind: ConfigChangeKind::Regular,
            ring_id: r,
            members: members.clone(),
        };
        let transitional = |r| ConfigChange {
            kind: ConfigChangeKind::Transitional,
            ring_id: r,
            members: members.clone(),
        };
        // A ring(1) message surfacing during the transitional view that
        // replaced ring(1) is the EVS leftover case: allowed.
        let mut ck = EvsChecker::new(1);
        ck.on_config(0, &regular(ring(1)));
        ck.on_config(0, &transitional(ring(2)));
        ck.on_delivery(0, &delivery(ring(1), 1, 0, b"leftover"));
        ck.check().unwrap();
        // The same delivery after the regular view installs is a
        // same-view violation.
        let mut ck = EvsChecker::new(1);
        ck.on_config(0, &regular(ring(1)));
        ck.on_config(0, &transitional(ring(2)));
        ck.on_config(0, &regular(ring(2)));
        ck.on_delivery(0, &delivery(ring(1), 1, 0, b"leftover"));
        let errs = ck.check().unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("installed view")),
            "{errs:?}"
        );
    }

    #[test]
    fn missing_self_delivery_detected() {
        let mut ck = EvsChecker::new(1);
        ck.on_submit(0, b"lost");
        let errs = ck.check_self_delivery(&[0]).unwrap_err();
        assert!(errs[0].contains("never self-delivered"), "{errs:?}");
    }

    #[test]
    fn initial_config_seeding_enables_first_episode_checks() {
        let members: Vec<ParticipantId> = (0..2).map(ParticipantId::new).collect();
        // Without seeding, a first transitional view has no preceding
        // regular view and no prev_ring: an old-ring leftover delivered
        // during it is (wrongly) flagged.
        let mut unseeded = EvsChecker::new(1);
        unseeded.on_config(
            0,
            &ConfigChange {
                kind: ConfigChangeKind::Transitional,
                ring_id: ring(2),
                members: members.clone(),
            },
        );
        unseeded.on_delivery(0, &delivery(ring(1), 1, 0, b"leftover"));
        assert!(unseeded.check().is_err());
        // Seeded with the bootstrap ring, the same run is the
        // legitimate EVS leftover case.
        let mut seeded = EvsChecker::new(1);
        seeded.on_initial_config(0, ring(1), &members);
        seeded.on_config(
            0,
            &ConfigChange {
                kind: ConfigChangeKind::Transitional,
                ring_id: ring(2),
                members: members.clone(),
            },
        );
        seeded.on_delivery(0, &delivery(ring(1), 1, 0, b"leftover"));
        seeded.check().unwrap();
        // Seeding also arms the same-view check from step zero.
        let mut strict = EvsChecker::new(1);
        strict.on_initial_config(0, ring(1), &members);
        strict.on_delivery(0, &delivery(ring(9), 1, 0, b"foreign"));
        let errs = strict.check().unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("installed view")),
            "{errs:?}"
        );
    }

    #[test]
    fn transitional_config_disagreement_detected() {
        let members: Vec<ParticipantId> = (0..3).map(ParticipantId::new).collect();
        let trans = |m: &[ParticipantId]| ConfigChange {
            kind: ConfigChangeKind::Transitional,
            ring_id: ring(2),
            members: m.to_vec(),
        };
        // Agreement: same transitional ring id, same members — green.
        let mut ok = EvsChecker::new(2);
        ok.on_initial_config(0, ring(1), &members);
        ok.on_initial_config(1, ring(1), &members);
        ok.on_config(0, &trans(&members[..2]));
        ok.on_config(1, &trans(&members[..2]));
        ok.check().unwrap();
        // Disagreement: same transitional ring id, different members.
        let mut bad = EvsChecker::new(2);
        bad.on_initial_config(0, ring(1), &members);
        bad.on_initial_config(1, ring(1), &members);
        bad.on_config(0, &trans(&members[..2]));
        bad.on_config(1, &trans(&members[1..]));
        let errs = bad.check().unwrap_err();
        assert!(errs.iter().any(|e| e.contains("disagree")), "{errs:?}");
    }

    fn safe_delivery(r: RingId, seq: u64, pid: u16, payload: &'static [u8]) -> Delivery {
        Delivery {
            service: ServiceType::Safe,
            ..delivery(r, seq, pid, payload)
        }
    }

    #[test]
    fn durability_clean_run_passes() {
        let mut ck = DurabilityChecker::new();
        for i in 0..2 {
            ck.on_log_record(i, &delivery(ring(1), 1, 0, b"a"));
            ck.on_log_record(i, &safe_delivery(ring(1), 2, 1, b"s"));
            ck.on_safe_delivered(i, &safe_delivery(ring(1), 2, 1, b"s"));
            // Non-Safe deliveries are ignored even if absent from logs.
            ck.on_safe_delivered(i, &delivery(ring(1), 9, 0, b"agreed-only"));
        }
        ck.check().unwrap();
    }

    #[test]
    fn durability_lost_safe_delivery_detected() {
        let mut ck = DurabilityChecker::new();
        ck.on_safe_delivered(0, &safe_delivery(ring(1), 3, 1, b"gone"));
        ck.on_log_record(0, &delivery(ring(1), 1, 0, b"a"));
        let errs = ck.check().unwrap_err();
        assert!(errs.iter().any(|e| e.contains("missing from")), "{errs:?}");
    }

    #[test]
    fn durability_skips_processes_without_logs() {
        let mut ck = DurabilityChecker::new();
        ck.on_safe_delivered(0, &safe_delivery(ring(1), 3, 1, b"no disk"));
        ck.check().unwrap();
    }

    #[test]
    fn durability_log_disorder_and_disagreement_detected() {
        let mut ck = DurabilityChecker::new();
        ck.on_log_record(0, &delivery(ring(1), 2, 0, b"x"));
        ck.on_log_record(0, &delivery(ring(1), 1, 0, b"y"));
        ck.on_log_record(1, &delivery(ring(1), 2, 0, b"DIFFERENT"));
        let errs = ck.check().unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("non-increasing")),
            "{errs:?}"
        );
        assert!(errs.iter().any(|e| e.contains("disagrees")), "{errs:?}");
    }

    #[test]
    fn token_rule_monitor_bounds_rtr() {
        let mut mon = TokenRuleMonitor::new();
        let r = ring(1);
        let mut t1 = Token::initial(r, Seq::ZERO);
        t1.round = Round::new(1);
        t1.seq = Seq::new(4);
        mon.on_token(&t1);
        let mut t2 = Token::initial(r, Seq::ZERO);
        t2.round = Round::new(2);
        t2.seq = Seq::new(8);
        t2.rtr = vec![Seq::new(3)];
        mon.on_token(&t2);
        mon.check().unwrap();
        let mut t3 = Token::initial(r, Seq::ZERO);
        t3.round = Round::new(3);
        t3.seq = Seq::new(9);
        t3.rtr = vec![Seq::new(9)]; // beyond t2.seq = 8
        mon.on_token(&t3);
        let errs = mon.check().unwrap_err();
        assert!(errs[0].contains("beyond previous token seq"), "{errs:?}");
        assert_eq!(mon.tokens_seen(), 3);
    }

    fn data(seq: u64, after_token: bool) -> Action {
        Action::Multicast(crate::message::DataMessage {
            ring_id: ring(1),
            seq: Seq::new(seq),
            pid: ParticipantId::new(0),
            round: Round::new(1),
            service: ServiceType::Agreed,
            after_token,
            payload: Bytes::from_static(b"x"),
        })
    }

    fn send_token(seq: u64) -> Action {
        let mut t = Token::initial(ring(1), Seq::ZERO);
        t.seq = Seq::new(seq);
        Action::SendToken {
            to: ParticipantId::new(1),
            token: t,
        }
    }

    #[test]
    fn send_split_accepts_well_formed_batch() {
        let mut ck = SendSplitChecker::new(Some(2));
        ck.on_actions(
            ParticipantId::new(0),
            &[
                data(1, false),
                send_token(3),
                data(2, true),
                data(3, true),
                Action::SetTimer(crate::actions::TimerKind::TokenLoss),
            ],
        );
        assert_eq!(ck.batches_checked(), 1);
        ck.check().unwrap();
    }

    #[test]
    fn send_split_ignores_tokenless_batches() {
        let mut ck = SendSplitChecker::new(Some(0));
        ck.on_actions(ParticipantId::new(0), &[data(1, false)]);
        assert_eq!(ck.batches_checked(), 0);
        ck.check().unwrap();
    }

    #[test]
    fn send_split_flags_misflagged_multicasts() {
        let mut ck = SendSplitChecker::new(None);
        ck.on_actions(
            ParticipantId::new(0),
            &[data(1, true), send_token(2), data(2, false)],
        );
        let errs = ck.check().unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("before the token was sent")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.contains("not flagged after_token")),
            "{errs:?}"
        );
    }

    #[test]
    fn send_split_flags_seq_beyond_token_and_window() {
        let mut ck = SendSplitChecker::new(Some(1));
        ck.on_actions(
            ParticipantId::new(0),
            &[send_token(1), data(2, true), data(3, true)],
        );
        let errs = ck.check().unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("beyond token seq")),
            "{errs:?}"
        );
        assert!(
            errs.iter()
                .any(|e| e.contains("exceed the accelerated window")),
            "{errs:?}"
        );
    }
}
