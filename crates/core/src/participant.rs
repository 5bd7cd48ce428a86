//! The protocol participant: a sans-io state machine implementing the
//! Accelerated Ring ordering protocol (and, as its degenerate
//! configuration, the original Totem Ring protocol).
//!
//! A [`Participant`] consumes inputs — received [`Message`]s,
//! application submissions, timer expiries — and emits ordered lists of
//! [`Action`]s for the environment to execute. It performs no I/O and
//! reads no clock, which makes the protocol deterministic and equally at
//! home in the discrete-event simulator (`ar-sim`), the UDP runtime
//! (`ar-net`), and unit tests.
//!
//! # Token handling (Section III-A of the paper)
//!
//! Upon receiving the token a participant, in order:
//!
//! 1. answers retransmission requests (all retransmissions are
//!    pre-token);
//! 2. determines, under flow control, the complete set of new messages
//!    it will initiate this round, enqueueing each and multicasting
//!    only the overflow beyond the *accelerated window* (pre-token
//!    multicast phase);
//! 3. updates every token field (`seq`, `aru`, `fcc`, `rtr` — the
//!    latter limited to the `seq` of the token received in the
//!    *previous* round) and **sends the token to its successor**;
//! 4. multicasts the up-to-`accelerated_window` messages remaining in
//!    the queue (post-token multicast phase);
//! 5. delivers newly deliverable messages and discards stable ones.
//!
//! With `accelerated_window = 0` step 4 is empty and the send pattern is
//! exactly the original Ring protocol's.

use bytes::Bytes;

use crate::actions::{Action, TimerKind};
use crate::config::{ConfigError, ProtocolConfig};
use crate::flow::{allowed_new_messages, FlowInputs};
use crate::membership::MembershipState;
use crate::message::{DataMessage, Token};
use crate::observer::{Observer, ObserverSlot, ProtoEvent};
use crate::priority::{PriorityMode, PriorityTracker};
use crate::recvbuf::{InsertOutcome, RecvBuffer};
use crate::ring::{RingError, RingInfo};
use crate::sendq::{QueueFull, SendQueue};
use crate::stats::ParticipantStats;
use crate::types::{ParticipantId, RingId, Round, Seq, ServiceType};
use crate::wire::Message;

/// Durations (in nanoseconds) for the protocol's logical timers, plus
/// the token retransmission retry limit.
///
/// The sans-io core only names timers ([`TimerKind`]); the embedding
/// environment uses this table to arm them. Defaults suit a local-area
/// network; the simulator and tests override them freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeoutConfig {
    /// No token progress for this long ⇒ declare token loss and shift
    /// to membership gather.
    pub token_loss: u64,
    /// Resend the last token we forwarded if no progress evidence
    /// arrives within this long.
    pub token_retransmit: u64,
    /// Re-multicast our join message at this period while gathering.
    pub join: u64,
    /// Give up waiting for gather consensus after this long and fail
    /// unresponsive participants.
    pub consensus: u64,
    /// Give up on a commit token rotation after this long.
    pub commit: u64,
    /// After this many token retransmissions without progress, declare
    /// token loss.
    pub token_retransmit_limit: u32,
}

impl Default for TimeoutConfig {
    fn default() -> Self {
        TimeoutConfig {
            token_loss: 50_000_000,      // 50 ms
            token_retransmit: 5_000_000, // 5 ms
            join: 10_000_000,            // 10 ms
            consensus: 100_000_000,      // 100 ms
            commit: 50_000_000,          // 50 ms
            token_retransmit_limit: 5,
        }
    }
}

impl TimeoutConfig {
    /// How long timer `kind` runs once armed, in nanoseconds.
    pub fn duration(&self, kind: TimerKind) -> u64 {
        match kind {
            TimerKind::TokenLoss => self.token_loss,
            TimerKind::TokenRetransmit => self.token_retransmit,
            TimerKind::Join => self.join,
            TimerKind::ConsensusTimeout => self.consensus,
            TimerKind::CommitTimeout => self.commit,
        }
    }

    /// Checks the timeout table for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`TimeoutConfigError`] if any duration or the
    /// retransmit limit is zero (the protocol would hang or spin), or
    /// if the retransmit interval is not strictly below the token-loss
    /// timeout (loss would always be declared before any retransmission
    /// could be attempted).
    pub fn validate(&self) -> Result<(), TimeoutConfigError> {
        for (name, v) in [
            ("token_loss", self.token_loss),
            ("token_retransmit", self.token_retransmit),
            ("join", self.join),
            ("consensus", self.consensus),
            ("commit", self.commit),
            (
                "token_retransmit_limit",
                u64::from(self.token_retransmit_limit),
            ),
        ] {
            if v == 0 {
                return Err(TimeoutConfigError::Zero(name));
            }
        }
        if self.token_retransmit >= self.token_loss {
            return Err(TimeoutConfigError::RetransmitNotBelowLoss {
                token_retransmit: self.token_retransmit,
                token_loss: self.token_loss,
            });
        }
        Ok(())
    }
}

/// Errors produced by [`TimeoutConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutConfigError {
    /// A duration or limit that must be positive was zero.
    Zero(&'static str),
    /// The retransmit interval was not strictly below the token-loss
    /// timeout.
    RetransmitNotBelowLoss {
        /// The offending retransmit interval (ns).
        token_retransmit: u64,
        /// The token-loss timeout it must stay below (ns).
        token_loss: u64,
    },
}

impl core::fmt::Display for TimeoutConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TimeoutConfigError::Zero(name) => write!(f, "{name} must be positive"),
            TimeoutConfigError::RetransmitNotBelowLoss {
                token_retransmit,
                token_loss,
            } => write!(
                f,
                "token_retransmit ({token_retransmit} ns) must be below token_loss ({token_loss} ns)"
            ),
        }
    }
}

impl std::error::Error for TimeoutConfigError {}

/// Which phase of the protocol the participant is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Normal-case total ordering on an installed ring.
    Operational,
    /// Membership: gathering a new configuration via join messages.
    Gather,
    /// Membership: committing the agreed configuration via the commit
    /// token.
    Commit,
    /// Membership: recovering old-ring messages on the new ring before
    /// resuming normal operation.
    Recovery,
}

/// Errors constructing a [`Participant`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NewParticipantError {
    /// The protocol configuration is inconsistent.
    Config(ConfigError),
    /// The ring member list is invalid.
    Ring(RingError),
}

impl core::fmt::Display for NewParticipantError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NewParticipantError::Config(e) => write!(f, "invalid protocol config: {e}"),
            NewParticipantError::Ring(e) => write!(f, "invalid ring: {e}"),
        }
    }
}

impl std::error::Error for NewParticipantError {}

impl From<ConfigError> for NewParticipantError {
    fn from(e: ConfigError) -> Self {
        NewParticipantError::Config(e)
    }
}

impl From<RingError> for NewParticipantError {
    fn from(e: RingError) -> Self {
        NewParticipantError::Ring(e)
    }
}

/// Per-round ordering-protocol bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct OrderingState {
    /// Round of the last token handled.
    pub(crate) round: Round,
    /// `seq` of the token received in the *previous* round — the upper
    /// bound for retransmission requests (the acceleration-specific
    /// rule that prevents requesting messages ordered but not yet
    /// multicast).
    pub(crate) prev_token_seq: Seq,
    /// Multicasts (new + retransmissions) this participant sent in the
    /// previous round, subtracted from `fcc`.
    pub(crate) my_prev_sent: u32,
    /// The `aru` this participant placed on the token this round and
    /// the round before; their minimum is the Safe-delivery watermark.
    pub(crate) aru_last_sent: Seq,
    /// See [`OrderingState::aru_last_sent`].
    pub(crate) aru_prev_sent: Seq,
    /// Copy of the last token we forwarded, for retransmission.
    pub(crate) last_sent_token: Option<Token>,
    /// Consecutive token retransmissions without progress.
    pub(crate) retransmit_count: u32,
    /// Whether any evidence of ring progress arrived since we forwarded
    /// the token (a newer-round data message or token).
    pub(crate) progress_seen: bool,
    /// Whether this participant has handled any token on this ring yet.
    pub(crate) handled_any_token: bool,
}

impl OrderingState {
    pub(crate) fn new() -> OrderingState {
        OrderingState {
            round: Round::ZERO,
            prev_token_seq: Seq::ZERO,
            my_prev_sent: 0,
            aru_last_sent: Seq::ZERO,
            aru_prev_sent: Seq::ZERO,
            last_sent_token: None,
            retransmit_count: 0,
            progress_seen: false,
            handled_any_token: false,
        }
    }

    /// The participant's estimate of the highest sequence number known
    /// received by every member (the paper's `Global_aru`): the minimum
    /// of the arus it placed on its last two tokens.
    pub(crate) fn global_aru(&self) -> Seq {
        self.aru_last_sent.min(self.aru_prev_sent)
    }
}

/// AIMD state for the effective accelerated window (degradation under
/// sustained retransmission pressure; see `ProtocolConfig::accel_aimd`).
#[derive(Debug, Clone)]
pub(crate) struct AimdState {
    /// The window actually applied in the pre/post-token send split.
    pub(crate) effective_window: u32,
    /// Consecutive pressured rounds since the last decrease.
    pub(crate) pressured_rounds: u32,
    /// Consecutive clean rounds since the last pressured one.
    pub(crate) clean_rounds: u32,
}

/// A protocol participant (one per daemon or library process).
#[derive(Debug, Clone)]
pub struct Participant {
    pub(crate) pid: ParticipantId,
    pub(crate) cfg: ProtocolConfig,
    pub(crate) ring: RingInfo,
    pub(crate) recvbuf: RecvBuffer,
    pub(crate) pending: SendQueue,
    pub(crate) priority: PriorityTracker,
    pub(crate) stats: ParticipantStats,
    pub(crate) ord: OrderingState,
    pub(crate) aimd: AimdState,
    pub(crate) mode: Mode,
    pub(crate) memb: MembershipState,
    pub(crate) obs: ObserverSlot,
}

impl Participant {
    /// Creates a participant on an already-established ring (static
    /// bootstrap, as the paper's normal-operation description assumes).
    ///
    /// All members must be created with identical `members` lists and
    /// `ring_id`; the environment then calls [`start`](Self::start) on
    /// every participant, and the representative's start actions carry
    /// the first token.
    ///
    /// # Errors
    ///
    /// Returns [`NewParticipantError`] if the configuration fails
    /// validation or the member list is invalid.
    pub fn new(
        pid: ParticipantId,
        cfg: ProtocolConfig,
        ring_id: RingId,
        members: Vec<ParticipantId>,
    ) -> Result<Participant, NewParticipantError> {
        cfg.validate()?;
        let ring = RingInfo::new(ring_id, members, pid)?;
        let priority = PriorityTracker::new(cfg.priority_method, ring.predecessor(), ring.size());
        Ok(Participant {
            pid,
            cfg,
            ring,
            recvbuf: RecvBuffer::new(Seq::ZERO),
            pending: SendQueue::new(),
            priority,
            stats: ParticipantStats::new(),
            ord: OrderingState::new(),
            aimd: AimdState {
                effective_window: cfg.accelerated_window,
                pressured_rounds: 0,
                clean_rounds: 0,
            },
            mode: Mode::Operational,
            memb: MembershipState::new(),
            obs: ObserverSlot::default(),
        })
    }

    /// Creates a singleton participant that knows only itself; rings
    /// form dynamically via the membership algorithm when singletons
    /// hear each other's join messages.
    ///
    /// # Errors
    ///
    /// Returns [`NewParticipantError::Config`] if the configuration is
    /// invalid.
    pub fn new_singleton(
        pid: ParticipantId,
        cfg: ProtocolConfig,
    ) -> Result<Participant, NewParticipantError> {
        let ring_id = RingId::new(pid, 0);
        Participant::new(pid, cfg, ring_id, vec![pid])
    }

    /// Begins operation: the ring representative injects the first
    /// token; everyone arms the token-loss timer.
    pub fn start(&mut self) -> Vec<Action> {
        if self.ring.i_am_representative() && !self.ord.handled_any_token {
            self.process_token(Token::initial(self.ring.id(), Seq::ZERO))
        } else {
            vec![Action::SetTimer(TimerKind::TokenLoss)]
        }
    }

    /// This participant's identifier.
    pub fn pid(&self) -> ParticipantId {
        self.pid
    }

    /// The protocol configuration in force.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// The currently installed ring.
    pub fn ring(&self) -> &RingInfo {
        &self.ring
    }

    /// The current protocol phase.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// True during normal-case operation.
    pub fn is_operational(&self) -> bool {
        self.mode == Mode::Operational
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &ParticipantStats {
        &self.stats
    }

    /// The accelerated window actually in force: the configured value,
    /// or the AIMD-degraded one when `accel_aimd` is enabled. At zero
    /// the send pattern is the original Ring protocol's.
    pub fn effective_accelerated_window(&self) -> u32 {
        if self.cfg.accel_aimd.enabled {
            self.aimd.effective_window
        } else {
            self.cfg.accelerated_window
        }
    }

    /// AIMD step, run once per handled token: multiplicative decrease
    /// after sustained retransmission pressure, additive recovery after
    /// sustained calm. Returns the window to apply this round.
    fn update_accel_window(&mut self, rtr_volume: u32) -> u32 {
        let a = self.cfg.accel_aimd;
        if !a.enabled {
            return self.cfg.accelerated_window;
        }
        if rtr_volume >= a.pressure_threshold {
            self.aimd.clean_rounds = 0;
            self.aimd.pressured_rounds += 1;
            if self.aimd.pressured_rounds >= a.pressure_rounds && self.aimd.effective_window > 0 {
                self.aimd.pressured_rounds = 0;
                let from = self.aimd.effective_window;
                self.aimd.effective_window = from / 2;
                self.stats.accel_window_shrinks += 1;
                let to = self.aimd.effective_window;
                self.obs
                    .emit(|| ProtoEvent::AccelWindowChanged { from, to });
            }
        } else {
            self.aimd.pressured_rounds = 0;
            if self.aimd.effective_window < self.cfg.accelerated_window {
                self.aimd.clean_rounds += 1;
                if self.aimd.clean_rounds >= a.recovery_rounds {
                    self.aimd.clean_rounds = 0;
                    let from = self.aimd.effective_window;
                    self.aimd.effective_window = from + 1;
                    self.stats.accel_window_grows += 1;
                    let to = self.aimd.effective_window;
                    self.obs
                        .emit(|| ProtoEvent::AccelWindowChanged { from, to });
                }
            } else {
                self.aimd.clean_rounds = 0;
            }
        }
        self.aimd.effective_window
    }

    // ----- observation ----------------------------------------------------

    /// Attaches an [`Observer`] that receives every protocol event
    /// ([`ProtoEvent`]) this participant emits. Replaces any previous
    /// observer. The core remains deterministic: observers only receive
    /// copies of protocol facts, stamped with the timestamp last passed
    /// to [`observe_now`](Self::observe_now).
    pub fn set_observer(&mut self, obs: std::sync::Arc<dyn Observer>) {
        self.obs.set(obs);
    }

    /// Detaches the observer; emission reverts to the free no-op path.
    pub fn clear_observer(&mut self) {
        self.obs.clear();
    }

    /// True if an observer is attached.
    pub fn has_observer(&self) -> bool {
        self.obs.is_enabled()
    }

    /// Injects the current time (nanoseconds on the *caller's* clock)
    /// used to stamp subsequently emitted events. The core never reads
    /// a clock itself; environments call this before each
    /// `handle_message` / `handle_timer` / `submit` batch. Calling it
    /// with an observer detached is free and harmless.
    pub fn observe_now(&mut self, now_nanos: u64) {
        self.obs.set_now(now_nanos);
    }

    /// The current token-vs-data processing preference, for environments
    /// that hold both kinds of received message (Section III-C).
    pub fn priority_mode(&self) -> PriorityMode {
        self.priority.mode()
    }

    /// Highest sequence number up to which this participant has
    /// received everything.
    pub fn local_aru(&self) -> Seq {
        self.recvbuf.local_aru()
    }

    /// The delivery frontier (all messages `<=` have been delivered).
    pub fn delivered_up_to(&self) -> Seq {
        self.recvbuf.delivered_up_to()
    }

    /// The round of the last token this participant handled on its
    /// current ring ([`Round::ZERO`] before any token). External
    /// checkers use this to tell *live* in-flight tokens (rounds beyond
    /// every member's frontier) from stale retransmitted copies.
    pub fn current_round(&self) -> Round {
        self.ord.round
    }

    /// Number of application messages waiting to be ordered.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of data messages buffered (received, not yet discarded).
    pub fn buffered_len(&self) -> usize {
        self.recvbuf.len()
    }

    /// Submits an application message for totally ordered multicast.
    ///
    /// The message is queued until this participant holds the token and
    /// flow control admits it.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the pending queue is at capacity
    /// (backpressure); retry after deliveries drain.
    pub fn submit(&mut self, payload: Bytes, service: ServiceType) -> Result<(), QueueFull> {
        self.pending.push(payload, service)
    }

    /// Handles a received protocol message, returning the actions to
    /// execute in order.
    pub fn handle_message(&mut self, msg: Message) -> Vec<Action> {
        match msg {
            Message::Token(tok) => self.handle_token(tok),
            Message::Data(d) => self.handle_data(d),
            Message::Join(j) => self.handle_join(j),
            Message::Commit(c) => self.handle_commit(c),
            // The runtime's idle-token hold: no protocol state.
            Message::HoldCancel { .. } => Vec::new(),
        }
    }

    /// Handles the expiry of a logical timer.
    pub fn handle_timer(&mut self, kind: TimerKind) -> Vec<Action> {
        match kind {
            TimerKind::TokenLoss => self.on_token_loss_timeout(),
            TimerKind::TokenRetransmit => self.on_token_retransmit_timeout(),
            TimerKind::Join => self.on_join_timeout(),
            TimerKind::ConsensusTimeout => self.on_consensus_timeout(),
            TimerKind::CommitTimeout => self.on_commit_timeout(),
        }
    }

    // ----- token handling ------------------------------------------------

    fn handle_token(&mut self, tok: Token) -> Vec<Action> {
        match self.mode {
            Mode::Operational => {
                if tok.ring_id != self.ring.id()
                    || (self.ord.handled_any_token && tok.round <= self.ord.round)
                {
                    self.stats.tokens_dropped += 1;
                    return Vec::new();
                }
                self.process_token(tok)
            }
            // A regular token for the *forming* ring proves recovery
            // completed globally; finalize and process it.
            Mode::Recovery => self.handle_recovery_token(tok),
            Mode::Gather | Mode::Commit => {
                self.stats.tokens_dropped += 1;
                Vec::new()
            }
        }
    }

    /// Core of normal-operation token handling; also used by the
    /// representative to bootstrap with the initial token.
    pub(crate) fn process_token(&mut self, tok: Token) -> Vec<Action> {
        debug_assert_eq!(tok.ring_id, self.ring.id());
        self.stats.tokens_handled += 1;
        self.obs.emit(|| ProtoEvent::TokenRx {
            round: tok.round.as_u64(),
            seq: tok.seq.as_u64(),
            aru: tok.aru.as_u64(),
        });
        if self.cfg.flap_damping.enabled {
            self.decay_penalties();
        }
        // The received token's rtr volume is the ring-wide loss signal
        // driving accelerated-window degradation (AIMD).
        let accel_window = self.update_accel_window(tok.rtr.len() as u32);
        let mut actions = Vec::new();

        // 1. Answer retransmission requests (always pre-token).
        let mut remaining_rtr: Vec<Seq> = Vec::new();
        let mut num_retrans: u32 = 0;
        for &s in &tok.rtr {
            if let Some(m) = self.recvbuf.get(s) {
                let mut copy = m.clone();
                copy.after_token = false;
                actions.push(Action::Multicast(copy));
                num_retrans += 1;
                self.obs
                    .emit(|| ProtoEvent::RetransAnswered { seq: s.as_u64() });
            } else if !self.recvbuf.has(s) {
                // We are missing it too; keep the request alive.
                remaining_rtr.push(s);
            }
            // else: already stable and discarded — the request is stale.
        }
        self.stats.retransmissions_sent += u64::from(num_retrans);

        // 2. Flow control: how many new messages may we initiate?
        let allowed = allowed_new_messages(
            &self.cfg,
            FlowInputs {
                backlog: self.pending.len(),
                token_fcc: tok.fcc,
                num_retrans,
                token_seq: tok.seq,
                global_aru: self.ord.global_aru(),
            },
        );

        // 3. Aru update rules (Totem), part one: lower or re-raise.
        let local = self.recvbuf.local_aru();
        debug_assert!(
            local <= tok.seq,
            "local aru {local} cannot exceed token seq {}",
            tok.seq
        );
        let mut aru = tok.aru;
        let mut setter = tok.aru_setter;
        if local < aru {
            aru = local;
            setter = Some(self.pid);
        } else if setter == Some(self.pid) {
            // We lowered it before and nobody lowered it further since:
            // raise it to our current local aru.
            aru = local;
        }
        if setter == Some(self.pid) && aru == tok.seq {
            setter = None;
        }
        // If everything assigned so far is received by all (and by us),
        // the aru tracks the seq as we assign new messages.
        let track_aru = aru == tok.seq && local >= tok.seq && setter.is_none();

        // 4. Pre-token multicast phase: enqueue every new message for
        // the round; multicast only the overflow beyond the accelerated
        // window.
        let ring_id = self.ring.id();
        let mut accel_q: std::collections::VecDeque<DataMessage> =
            std::collections::VecDeque::new();
        let mut seq = tok.seq;
        for _ in 0..allowed {
            let pm = self
                .pending
                .pop()
                .expect("flow control admitted more than the backlog");
            seq = seq.next();
            let msg = DataMessage {
                ring_id,
                seq,
                pid: self.pid,
                round: tok.round,
                service: pm.service,
                after_token: false,
                payload: pm.payload,
            };
            // Our own message counts as received by us.
            let outcome = self.recvbuf.insert(msg.clone());
            debug_assert_eq!(outcome, InsertOutcome::New);
            self.stats.messages_initiated += 1;
            accel_q.push_back(msg);
            if accel_q.len() > accel_window as usize {
                let m = accel_q.pop_front().expect("queue just exceeded window");
                self.stats.messages_sent_before_token += 1;
                self.obs.emit(|| ProtoEvent::MsgPreToken {
                    seq: m.seq.as_u64(),
                });
                actions.push(Action::Multicast(m));
            }
        }
        let new_count = seq - tok.seq;
        if track_aru {
            aru = aru.advance(new_count);
        }

        // 5. Update the remaining token fields and send it on.
        let my_missing = self.recvbuf.missing_up_to(self.ord.prev_token_seq);
        self.stats.retransmissions_requested += my_missing.len() as u64;
        if !my_missing.is_empty() {
            self.obs.emit(|| ProtoEvent::RetransRequested {
                count: my_missing.len() as u32,
            });
        }
        let mut rtr = remaining_rtr;
        rtr.extend(my_missing);
        rtr.sort_unstable();
        rtr.dedup();
        rtr.truncate(crate::wire::MAX_RTR_ENTRIES);
        let sent_this_round = num_retrans + new_count as u32;
        let fcc = tok
            .fcc
            .saturating_sub(self.ord.my_prev_sent)
            .saturating_add(sent_this_round);
        let new_token = Token {
            ring_id,
            round: tok.round.next(),
            seq,
            aru,
            aru_setter: setter,
            fcc,
            rtr,
        };
        self.obs.emit(|| ProtoEvent::TokenTx {
            round: new_token.round.as_u64(),
            seq: new_token.seq.as_u64(),
            new_msgs: new_count as u32,
            rtr_len: new_token.rtr.len() as u32,
        });
        actions.push(Action::SendToken {
            to: self.ring.successor(),
            token: new_token.clone(),
        });

        // 6. Post-token multicast phase: flush the accelerated queue.
        for mut m in accel_q {
            m.after_token = true;
            self.stats.messages_sent_after_token += 1;
            self.obs.emit(|| ProtoEvent::MsgPostToken {
                seq: m.seq.as_u64(),
            });
            actions.push(Action::Multicast(m));
        }

        // 7. Deliver and discard: Safe watermark is the minimum of the
        // arus on the tokens we sent this round and last round.
        let watermark = aru.min(self.ord.aru_last_sent);
        self.emit_deliveries(watermark, &mut actions);
        let already_discarded = self.recvbuf.discarded_up_to();
        self.recvbuf.discard_up_to(watermark);
        self.stats.messages_discarded += self.recvbuf.discarded_up_to() - already_discarded;

        // 8. Bookkeeping for the next round.
        self.ord.prev_token_seq = tok.seq;
        self.ord.aru_prev_sent = self.ord.aru_last_sent;
        self.ord.aru_last_sent = aru;
        self.ord.my_prev_sent = sent_this_round;
        self.ord.round = tok.round;
        self.ord.handled_any_token = true;
        self.ord.last_sent_token = Some(new_token);
        self.ord.retransmit_count = 0;
        self.ord.progress_seen = false;
        self.priority.on_token_processed(tok.round);
        actions.push(Action::SetTimer(TimerKind::TokenLoss));
        actions.push(Action::SetTimer(TimerKind::TokenRetransmit));
        actions
    }

    // ----- data handling --------------------------------------------------

    fn handle_data(&mut self, msg: DataMessage) -> Vec<Action> {
        if msg.ring_id != self.ring.id() {
            return self.handle_foreign_data(msg);
        }
        self.priority.on_data_processed(&msg);
        if msg.round > self.ord.round {
            self.ord.progress_seen = true;
        }
        match self.recvbuf.insert(msg) {
            InsertOutcome::Duplicate => {
                self.stats.duplicates_dropped += 1;
                Vec::new()
            }
            InsertOutcome::New => {
                self.stats.messages_received += 1;
                let mut actions = Vec::new();
                self.emit_deliveries(self.ord.global_aru(), &mut actions);
                actions
            }
        }
    }

    /// Data from a ring other than the installed one. During recovery
    /// these are old-ring retransmissions. During normal operation, a
    /// foreign message from a participant *outside* our ring means a
    /// previously partitioned component is reachable again: shift to
    /// Gather so the rings merge (the Totem merge trigger). Stale
    /// traffic — from our own previous rings, or from current members'
    /// previous rings — is dropped.
    fn handle_foreign_data(&mut self, msg: DataMessage) -> Vec<Action> {
        match self.mode {
            Mode::Recovery => self.handle_recovery_data(msg),
            Mode::Operational => {
                // Traffic from a quarantined flapper must not re-trigger
                // the merge path while its damping penalty decays.
                if self.ring.contains(msg.pid)
                    || self.memb.prev_rings.contains(&msg.ring_id)
                    || self.is_quarantined(msg.pid)
                {
                    self.stats.foreign_dropped += 1;
                    Vec::new()
                } else {
                    self.start_gather(Vec::new())
                }
            }
            Mode::Gather | Mode::Commit => {
                self.stats.foreign_dropped += 1;
                Vec::new()
            }
        }
    }

    pub(crate) fn emit_deliveries(&mut self, safe_up_to: Seq, actions: &mut Vec<Action>) {
        for d in self.recvbuf.deliver_ready(safe_up_to) {
            self.stats.messages_delivered += 1;
            if d.service.requires_stability() {
                self.stats.safe_delivered += 1;
            }
            self.obs.emit(|| ProtoEvent::Delivered {
                seq: d.seq.as_u64(),
                origin: d.pid.as_u16(),
                safe: d.service.requires_stability(),
            });
            actions.push(Action::Deliver(d));
        }
    }

    // ----- timers ----------------------------------------------------------

    fn on_token_retransmit_timeout(&mut self) -> Vec<Action> {
        if self.mode != Mode::Operational {
            return Vec::new();
        }
        if self.ord.progress_seen {
            // The ring moved on; nothing to do (token-loss timer still guards).
            return Vec::new();
        }
        if self.ord.retransmit_count >= self.memb.timeouts.token_retransmit_limit {
            return self.start_gather(Vec::new());
        }
        let Some(tok) = self.ord.last_sent_token.clone() else {
            return Vec::new();
        };
        self.ord.retransmit_count += 1;
        self.stats.tokens_retransmitted += 1;
        self.obs.emit(|| ProtoEvent::TokenRetransmit {
            round: tok.round.as_u64(),
        });
        vec![
            Action::SendToken {
                to: self.ring.successor(),
                token: tok,
            },
            Action::SetTimer(TimerKind::TokenRetransmit),
        ]
    }

    fn on_token_loss_timeout(&mut self) -> Vec<Action> {
        if self.mode != Mode::Operational {
            return Vec::new();
        }
        self.start_gather(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::Action;

    fn pids(n: u16) -> Vec<ParticipantId> {
        (0..n).map(ParticipantId::new).collect()
    }

    fn ring_id() -> RingId {
        RingId::new(ParticipantId::new(0), 1)
    }

    fn make_ring(n: u16, cfg: ProtocolConfig) -> Vec<Participant> {
        pids(n)
            .into_iter()
            .map(|p| Participant::new(p, cfg, ring_id(), pids(n)).unwrap())
            .collect()
    }

    fn first_token(actions: &[Action]) -> Token {
        actions
            .iter()
            .find_map(|a| match a {
                Action::SendToken { token, .. } => Some(token.clone()),
                _ => None,
            })
            .expect("no token sent")
    }

    fn multicasts(actions: &[Action]) -> Vec<DataMessage> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Multicast(m) => Some(m.clone()),
                _ => None,
            })
            .collect()
    }

    fn deliveries(actions: &[Action]) -> Vec<crate::message::Delivery> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Deliver(d) => Some(d.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn representative_bootstraps_with_initial_token() {
        let mut ring = make_ring(3, ProtocolConfig::accelerated());
        let actions = ring[0].start();
        let tok = first_token(&actions);
        assert_eq!(tok.round, Round::new(1));
        assert_eq!(tok.seq, Seq::ZERO);
        // Non-representatives just arm the loss timer.
        let a1 = ring[1].start();
        assert_eq!(a1, vec![Action::SetTimer(TimerKind::TokenLoss)]);
    }

    #[test]
    fn token_passes_to_successor_and_round_increments_per_hop() {
        let mut ring = make_ring(3, ProtocolConfig::accelerated());
        let a0 = ring[0].start();
        let t1 = first_token(&a0);
        let a1 = ring[1].handle_message(Message::Token(t1));
        let t2 = first_token(&a1);
        assert_eq!(t2.round, Round::new(2));
        let dest = a1
            .iter()
            .find_map(|a| match a {
                Action::SendToken { to, .. } => Some(*to),
                _ => None,
            })
            .unwrap();
        assert_eq!(dest, ParticipantId::new(2));
    }

    #[test]
    fn sender_assigns_contiguous_seqs_and_updates_token() {
        let mut ring = make_ring(2, ProtocolConfig::accelerated());
        ring[0]
            .submit(Bytes::from_static(b"a"), ServiceType::Agreed)
            .unwrap();
        ring[0]
            .submit(Bytes::from_static(b"b"), ServiceType::Agreed)
            .unwrap();
        let actions = ring[0].start();
        let tok = first_token(&actions);
        assert_eq!(tok.seq, Seq::new(2));
        assert_eq!(tok.fcc, 2);
        let msgs = multicasts(&actions);
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].seq, Seq::new(1));
        assert_eq!(msgs[1].seq, Seq::new(2));
    }

    #[test]
    fn accelerated_window_splits_pre_and_post_token_sends() {
        let cfg = ProtocolConfig::accelerated()
            .with_personal_window(5)
            .with_accelerated_window(2);
        let mut ring = make_ring(2, cfg);
        for _ in 0..5 {
            ring[0]
                .submit(Bytes::from_static(b"m"), ServiceType::Agreed)
                .unwrap();
        }
        let actions = ring[0].start();
        // Expect: 3 pre-token multicasts, the token, then 2 post-token.
        let token_pos = actions
            .iter()
            .position(|a| matches!(a, Action::SendToken { .. }))
            .unwrap();
        let pre: Vec<_> = actions[..token_pos]
            .iter()
            .filter(|a| matches!(a, Action::Multicast(_)))
            .collect();
        let post: Vec<_> = actions[token_pos..]
            .iter()
            .filter(|a| matches!(a, Action::Multicast(_)))
            .collect();
        assert_eq!(pre.len(), 3);
        assert_eq!(post.len(), 2);
        let msgs = multicasts(&actions);
        assert!(!msgs[0].after_token && !msgs[1].after_token && !msgs[2].after_token);
        assert!(msgs[3].after_token && msgs[4].after_token);
        assert_eq!(ring[0].stats().messages_sent_after_token, 2);
    }

    #[test]
    fn original_config_sends_everything_before_token() {
        let cfg = ProtocolConfig::original().with_personal_window(4);
        let mut ring = make_ring(2, cfg);
        for _ in 0..4 {
            ring[0]
                .submit(Bytes::from_static(b"m"), ServiceType::Agreed)
                .unwrap();
        }
        let actions = ring[0].start();
        let token_pos = actions
            .iter()
            .position(|a| matches!(a, Action::SendToken { .. }))
            .unwrap();
        let post_mcast = actions[token_pos..]
            .iter()
            .filter(|a| matches!(a, Action::Multicast(_)))
            .count();
        assert_eq!(
            post_mcast, 0,
            "original protocol never multicasts after the token"
        );
        assert_eq!(multicasts(&actions).len(), 4);
    }

    #[test]
    fn small_batch_entirely_post_token_when_under_window() {
        let cfg = ProtocolConfig::accelerated().with_accelerated_window(10);
        let mut ring = make_ring(2, cfg);
        for _ in 0..3 {
            ring[0]
                .submit(Bytes::from_static(b"m"), ServiceType::Agreed)
                .unwrap();
        }
        let actions = ring[0].start();
        let token_pos = actions
            .iter()
            .position(|a| matches!(a, Action::SendToken { .. }))
            .unwrap();
        let pre = actions[..token_pos]
            .iter()
            .filter(|a| matches!(a, Action::Multicast(_)))
            .count();
        assert_eq!(pre, 0, "all sends fit in the accelerated window");
        assert_eq!(multicasts(&actions).len(), 3);
    }

    #[test]
    fn personal_window_caps_one_round() {
        let cfg = ProtocolConfig::accelerated().with_personal_window(2);
        let mut ring = make_ring(2, cfg);
        for _ in 0..10 {
            ring[0]
                .submit(Bytes::from_static(b"m"), ServiceType::Agreed)
                .unwrap();
        }
        let actions = ring[0].start();
        assert_eq!(multicasts(&actions).len(), 2);
        assert_eq!(ring[0].pending_len(), 8);
    }

    #[test]
    fn receiver_delivers_agreed_messages_in_order() {
        let mut ring = make_ring(2, ProtocolConfig::accelerated());
        ring[0]
            .submit(Bytes::from_static(b"a"), ServiceType::Agreed)
            .unwrap();
        ring[0]
            .submit(Bytes::from_static(b"b"), ServiceType::Agreed)
            .unwrap();
        let actions = ring[0].start();
        // Sender delivered its own messages immediately (aru tracked seq).
        let own = deliveries(&actions);
        assert_eq!(own.len(), 2);
        // Receiver gets the multicasts.
        let mut rx_deliveries = Vec::new();
        for m in multicasts(&actions) {
            let acts = ring[1].handle_message(Message::Data(m));
            rx_deliveries.extend(deliveries(&acts));
        }
        assert_eq!(rx_deliveries.len(), 2);
        assert_eq!(rx_deliveries[0].payload, Bytes::from_static(b"a"));
        assert_eq!(rx_deliveries[1].payload, Bytes::from_static(b"b"));
    }

    #[test]
    fn safe_messages_wait_for_stability() {
        let mut ring = make_ring(2, ProtocolConfig::accelerated());
        ring[0]
            .submit(Bytes::from_static(b"s"), ServiceType::Safe)
            .unwrap();
        let a0 = ring[0].start();
        assert!(
            deliveries(&a0).is_empty(),
            "safe message cannot be delivered before stability"
        );
        let t1 = first_token(&a0);
        // P1 receives the data then the token.
        for m in multicasts(&a0) {
            ring[1].handle_message(Message::Data(m));
        }
        let a1 = ring[1].handle_message(Message::Token(t1));
        assert!(deliveries(&a1).is_empty(), "one rotation is not enough");
        // Token returns to P0 (round 2) and then to P1 (round 3): after
        // the aru survives a full rotation both deliver.
        let t2 = first_token(&a1);
        let a0b = ring[0].handle_message(Message::Token(t2));
        let t3 = first_token(&a0b);
        let a1b = ring[1].handle_message(Message::Token(t3));
        let d0 = deliveries(&a0b);
        let d1 = deliveries(&a1b);
        assert_eq!(d0.len() + d1.len(), 2, "{d0:?} {d1:?}");
    }

    #[test]
    fn duplicate_token_is_dropped() {
        let mut ring = make_ring(2, ProtocolConfig::accelerated());
        let a0 = ring[0].start();
        let t1 = first_token(&a0);
        let _ = ring[1].handle_message(Message::Token(t1.clone()));
        let again = ring[1].handle_message(Message::Token(t1));
        assert!(again.is_empty());
        assert_eq!(ring[1].stats().tokens_dropped, 1);
    }

    #[test]
    fn foreign_ring_token_is_dropped() {
        let mut ring = make_ring(2, ProtocolConfig::accelerated());
        let mut tok = Token::initial(RingId::new(ParticipantId::new(9), 9), Seq::ZERO);
        tok.round = Round::new(5);
        assert!(ring[0].handle_message(Message::Token(tok)).is_empty());
        assert_eq!(ring[0].stats().tokens_dropped, 1);
    }

    #[test]
    fn foreign_data_from_stranger_triggers_merge_gather() {
        let mut ring = make_ring(2, ProtocolConfig::accelerated());
        let msg = DataMessage {
            ring_id: RingId::new(ParticipantId::new(9), 9),
            seq: Seq::new(1),
            pid: ParticipantId::new(9),
            round: Round::new(1),
            service: ServiceType::Agreed,
            after_token: false,
            payload: Bytes::new(),
        };
        let actions = ring[0].handle_message(Message::Data(msg));
        assert_eq!(
            ring[0].mode(),
            Mode::Gather,
            "foreign traffic ⇒ merge attempt"
        );
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::MulticastJoin(_))));
    }

    #[test]
    fn foreign_data_from_current_member_is_stale_and_dropped() {
        let mut ring = make_ring(2, ProtocolConfig::accelerated());
        // A message from P1 (a current member) stamped with some other
        // ring: stale in-flight traffic, not a merge trigger.
        let msg = DataMessage {
            ring_id: RingId::new(ParticipantId::new(1), 7),
            seq: Seq::new(1),
            pid: ParticipantId::new(1),
            round: Round::new(1),
            service: ServiceType::Agreed,
            after_token: false,
            payload: Bytes::new(),
        };
        assert!(ring[0].handle_message(Message::Data(msg)).is_empty());
        assert_eq!(ring[0].stats().foreign_dropped, 1);
        assert!(ring[0].is_operational());
    }

    #[test]
    fn lost_message_is_requested_and_retransmitted() {
        let mut ring = make_ring(2, ProtocolConfig::accelerated());
        ring[0]
            .submit(Bytes::from_static(b"x"), ServiceType::Agreed)
            .unwrap();
        let a0 = ring[0].start();
        let t1 = first_token(&a0);
        // P1 never receives the data message (lost).
        let a1 = ring[1].handle_message(Message::Token(t1));
        let t2 = first_token(&a1);
        // P1 cannot request it yet: the rtr limit is the seq of the
        // token from the *previous* round (acceleration rule).
        assert!(
            t2.rtr.is_empty(),
            "must not request possibly-unsent messages"
        );
        assert_eq!(t2.aru, Seq::ZERO, "aru lowered to local");
        // Round 2: P0 passes the token again.
        let a0b = ring[0].handle_message(Message::Token(t2));
        let t3 = first_token(&a0b);
        // Round 2 at P1: now seq 1 is older than the previous token's
        // seq, so it is requested.
        let a1b = ring[1].handle_message(Message::Token(t3));
        let t4 = first_token(&a1b);
        assert_eq!(t4.rtr, vec![Seq::new(1)]);
        // Round 3 at P0: answers the retransmission pre-token.
        let a0c = ring[0].handle_message(Message::Token(t4));
        let m = multicasts(&a0c);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].seq, Seq::new(1));
        assert!(!m[0].after_token);
        assert_eq!(ring[0].stats().retransmissions_sent, 1);
        let t5 = first_token(&a0c);
        assert!(t5.rtr.is_empty(), "answered request removed from token");
        // P1 finally receives and delivers it.
        let acts = ring[1].handle_message(Message::Data(m[0].clone()));
        let d = deliveries(&acts);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].payload, Bytes::from_static(b"x"));
    }

    #[test]
    fn fcc_decays_after_idle_round() {
        let mut ring = make_ring(2, ProtocolConfig::accelerated());
        ring[0]
            .submit(Bytes::from_static(b"a"), ServiceType::Agreed)
            .unwrap();
        let a0 = ring[0].start();
        let t1 = first_token(&a0);
        assert_eq!(t1.fcc, 1);
        for m in multicasts(&a0) {
            ring[1].handle_message(Message::Data(m));
        }
        let a1 = ring[1].handle_message(Message::Token(t1));
        let t2 = first_token(&a1);
        assert_eq!(t2.fcc, 1, "P1 sent nothing, fcc unchanged");
        let a0b = ring[0].handle_message(Message::Token(t2));
        let t3 = first_token(&a0b);
        assert_eq!(t3.fcc, 0, "P0 subtracts its previous round's sends");
    }

    #[test]
    fn aru_tracks_seq_when_everything_received() {
        let mut ring = make_ring(2, ProtocolConfig::accelerated());
        ring[0]
            .submit(Bytes::from_static(b"a"), ServiceType::Agreed)
            .unwrap();
        let a0 = ring[0].start();
        let t1 = first_token(&a0);
        assert_eq!(t1.seq, Seq::new(1));
        assert_eq!(
            t1.aru,
            Seq::new(1),
            "sender has its own message, aru tracks seq"
        );
    }

    #[test]
    fn aru_lowered_by_participant_missing_messages() {
        let mut ring = make_ring(2, ProtocolConfig::accelerated());
        ring[0]
            .submit(Bytes::from_static(b"a"), ServiceType::Agreed)
            .unwrap();
        let a0 = ring[0].start();
        let t1 = first_token(&a0);
        // P1 handles the token without having received the data.
        let a1 = ring[1].handle_message(Message::Token(t1));
        let t2 = first_token(&a1);
        assert_eq!(t2.aru, Seq::ZERO);
        assert_eq!(t2.aru_setter, Some(ParticipantId::new(1)));
    }

    #[test]
    fn aru_raised_again_by_setter_after_catching_up() {
        let mut ring = make_ring(2, ProtocolConfig::accelerated());
        ring[0]
            .submit(Bytes::from_static(b"a"), ServiceType::Agreed)
            .unwrap();
        let a0 = ring[0].start();
        let t1 = first_token(&a0);
        let data = multicasts(&a0);
        let a1 = ring[1].handle_message(Message::Token(t1));
        let t2 = first_token(&a1);
        assert_eq!(t2.aru, Seq::ZERO);
        // Late data arrives at P1.
        for m in data {
            ring[1].handle_message(Message::Data(m));
        }
        // Round trip through P0.
        let a0b = ring[0].handle_message(Message::Token(t2));
        let t3 = first_token(&a0b);
        // P1, the setter, raises the aru to its local aru and clears
        // itself.
        let a1b = ring[1].handle_message(Message::Token(t3));
        let t4 = first_token(&a1b);
        assert_eq!(t4.aru, Seq::new(1));
        assert_eq!(t4.aru_setter, None);
    }

    #[test]
    fn submit_backpressure_when_queue_full() {
        let mut p = Participant::new(
            ParticipantId::new(0),
            ProtocolConfig::accelerated(),
            ring_id(),
            pids(1),
        )
        .unwrap();
        // Fill the queue to capacity.
        let cap = crate::sendq::DEFAULT_CAPACITY;
        for _ in 0..cap {
            p.submit(Bytes::new(), ServiceType::Agreed).unwrap();
        }
        assert!(p.submit(Bytes::new(), ServiceType::Agreed).is_err());
    }

    #[test]
    fn singleton_ring_self_delivers() {
        let mut p = Participant::new(
            ParticipantId::new(0),
            ProtocolConfig::accelerated(),
            ring_id(),
            pids(1),
        )
        .unwrap();
        p.submit(Bytes::from_static(b"solo"), ServiceType::Agreed)
            .unwrap();
        let actions = p.start();
        let d = deliveries(&actions);
        assert_eq!(d.len(), 1);
        let tok = first_token(&actions);
        // Token loops back to self.
        let a2 = p.handle_message(Message::Token(tok));
        assert!(first_token(&a2).round > Round::new(1));
    }

    #[test]
    fn singleton_safe_delivery_takes_two_rounds() {
        let mut p = Participant::new(
            ParticipantId::new(0),
            ProtocolConfig::accelerated(),
            ring_id(),
            pids(1),
        )
        .unwrap();
        p.submit(Bytes::from_static(b"s"), ServiceType::Safe)
            .unwrap();
        let a1 = p.start();
        assert!(deliveries(&a1).is_empty());
        let t = first_token(&a1);
        let a2 = p.handle_message(Message::Token(t));
        assert_eq!(deliveries(&a2).len(), 1);
        assert_eq!(p.stats().safe_delivered, 1);
    }

    #[test]
    fn token_retransmitted_on_timeout_without_progress() {
        let mut ring = make_ring(2, ProtocolConfig::accelerated());
        let a0 = ring[0].start();
        let t1 = first_token(&a0);
        let acts = ring[0].handle_timer(TimerKind::TokenRetransmit);
        let resent = first_token(&acts);
        assert_eq!(resent, t1);
        assert_eq!(ring[0].stats().tokens_retransmitted, 1);
        assert!(acts.contains(&Action::SetTimer(TimerKind::TokenRetransmit)));
    }

    #[test]
    fn token_not_retransmitted_after_progress() {
        let mut ring = make_ring(2, ProtocolConfig::accelerated());
        let a0 = ring[0].start();
        let t1 = first_token(&a0);
        let a1 = ring[1].handle_message(Message::Token(t1));
        let t2 = first_token(&a1);
        // P0 sees the next token (progress), handles it, then... the
        // retransmit timer for the *new* send is armed. Simulate data
        // progress instead: successor's message with a newer round.
        let _ = ring[0].handle_message(Message::Token(t2));
        ring[0]
            .submit(Bytes::from_static(b"z"), ServiceType::Agreed)
            .unwrap();
        // Inject a newer-round data message from P1.
        let msg = DataMessage {
            ring_id: ring_id(),
            seq: Seq::new(1),
            pid: ParticipantId::new(1),
            round: Round::new(4),
            service: ServiceType::Agreed,
            after_token: false,
            payload: Bytes::new(),
        };
        ring[0].handle_message(Message::Data(msg));
        let acts = ring[0].handle_timer(TimerKind::TokenRetransmit);
        assert!(
            acts.is_empty(),
            "progress seen, no retransmission: {acts:?}"
        );
    }

    #[test]
    fn stable_messages_are_discarded() {
        let mut ring = make_ring(2, ProtocolConfig::accelerated());
        ring[0]
            .submit(Bytes::from_static(b"a"), ServiceType::Agreed)
            .unwrap();
        let a0 = ring[0].start();
        let t1 = first_token(&a0);
        for m in multicasts(&a0) {
            ring[1].handle_message(Message::Data(m));
        }
        let a1 = ring[1].handle_message(Message::Token(t1));
        let t2 = first_token(&a1);
        let a0b = ring[0].handle_message(Message::Token(t2));
        let t3 = first_token(&a0b);
        // After the aru survives a rotation, both sides discard.
        let _ = ring[1].handle_message(Message::Token(t3));
        assert_eq!(ring[0].buffered_len(), 0, "P0 discarded stable message");
        assert_eq!(ring[1].buffered_len(), 0, "P1 discarded stable message");
        assert!(ring[0].stats().messages_discarded >= 1);
    }

    #[test]
    fn fifo_and_causal_services_deliver_like_agreed() {
        // The protocol delivers FIFO/Causal at Agreed cost (§II): they
        // flow through the same path and never block on stability.
        let mut ring = make_ring(2, ProtocolConfig::accelerated());
        ring[0]
            .submit(Bytes::from_static(b"f"), ServiceType::Fifo)
            .unwrap();
        ring[0]
            .submit(Bytes::from_static(b"c"), ServiceType::Causal)
            .unwrap();
        ring[0]
            .submit(Bytes::from_static(b"r"), ServiceType::Reliable)
            .unwrap();
        let actions = ring[0].start();
        // The sender delivers all three immediately (no stability
        // requirement).
        assert_eq!(deliveries(&actions).len(), 3);
    }

    #[test]
    fn max_seq_gap_blocks_new_messages_when_stability_lags() {
        let cfg = ProtocolConfig::accelerated()
            .with_personal_window(10)
            .with_max_seq_gap(3);
        let mut ring = make_ring(2, cfg);
        for _ in 0..10 {
            ring[0]
                .submit(Bytes::from_static(b"m"), ServiceType::Agreed)
                .unwrap();
        }
        // Round 1: the global aru estimate is still 0, so at most
        // max_seq_gap = 3 messages may be initiated.
        let actions = ring[0].start();
        assert_eq!(multicasts(&actions).len(), 3);
        assert_eq!(ring[0].pending_len(), 7);
    }

    #[test]
    fn retransmit_limit_escalates_to_membership() {
        let mut ring = make_ring(2, ProtocolConfig::accelerated());
        let limit = ring[0].timeouts().token_retransmit_limit;
        let _ = ring[0].start();
        // Fire the retransmit timer past the limit with no progress.
        for _ in 0..limit {
            let acts = ring[0].handle_timer(TimerKind::TokenRetransmit);
            assert!(acts.iter().any(|a| matches!(a, Action::SendToken { .. })));
        }
        let acts = ring[0].handle_timer(TimerKind::TokenRetransmit);
        assert_eq!(ring[0].mode(), Mode::Gather, "gives up and gathers");
        assert!(acts.iter().any(|a| matches!(a, Action::MulticastJoin(_))));
        assert_eq!(ring[0].stats().gathers_started, 1);
    }

    #[test]
    fn rtr_list_is_capped_at_wire_limit() {
        // A participant missing a huge range only requests up to the
        // wire cap per round.
        let cfg = ProtocolConfig::accelerated().with_max_seq_gap(1_000_000);
        let mut ring = make_ring(2, cfg);
        let a0 = ring[0].start();
        let t1 = first_token(&a0);
        // Hand-craft a token claiming a huge seq from the previous
        // round at P1 (simulate everything lost).
        let mut big = t1.clone();
        big.seq = Seq::new(10_000);
        big.aru = Seq::ZERO;
        let _ = ring[1].handle_message(Message::Token(big.clone()));
        let mut next = big.clone();
        next.round = big.round.advance(2);
        let a = ring[1].handle_message(Message::Token(next));
        let t = first_token(&a);
        assert_eq!(t.rtr.len(), crate::wire::MAX_RTR_ENTRIES);
    }

    #[test]
    fn global_window_counts_retransmissions() {
        let cfg = ProtocolConfig::accelerated()
            .with_personal_window(8)
            .with_global_window(8);
        let mut ring = make_ring(2, cfg);
        for _ in 0..8 {
            ring[0]
                .submit(Bytes::from_static(b"x"), ServiceType::Agreed)
                .unwrap();
        }
        let a0 = ring[0].start();
        assert_eq!(multicasts(&a0).len(), 8);
        let t1 = first_token(&a0);
        assert_eq!(t1.fcc, 8);
        // P1 also wants to send, but the global window is exhausted.
        ring[1]
            .submit(Bytes::from_static(b"y"), ServiceType::Agreed)
            .unwrap();
        let a1 = ring[1].handle_message(Message::Token(t1));
        assert_eq!(
            multicasts(&a1).len(),
            0,
            "global window exhausted by P0's sends"
        );
        assert_eq!(ring[1].pending_len(), 1);
    }

    #[test]
    fn send_split_counters_sum_to_initiated() {
        // 5 messages through a window of 2: 3 pre-token, 2 post-token.
        let cfg = ProtocolConfig::accelerated()
            .with_personal_window(5)
            .with_accelerated_window(2);
        let mut ring = make_ring(2, cfg);
        for _ in 0..5 {
            ring[0]
                .submit(Bytes::from_static(b"m"), ServiceType::Agreed)
                .unwrap();
        }
        let _ = ring[0].start();
        let s = ring[0].stats();
        assert_eq!(s.messages_sent_before_token, 3);
        assert_eq!(s.messages_sent_after_token, 2);
        assert_eq!(s.messages_initiated, 5);
        assert!(s.send_split_consistent());

        // The original protocol sends everything pre-token.
        let mut orig = make_ring(2, ProtocolConfig::original().with_personal_window(4));
        for _ in 0..4 {
            orig[0]
                .submit(Bytes::from_static(b"m"), ServiceType::Agreed)
                .unwrap();
        }
        let _ = orig[0].start();
        let s = orig[0].stats();
        assert_eq!(s.messages_sent_before_token, 4);
        assert_eq!(s.messages_sent_after_token, 0);
        assert!(s.send_split_consistent());
    }

    #[test]
    fn observer_sees_token_and_send_events_with_injected_time() {
        use crate::observer::{Observer, ProtoEvent};
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Sink(Mutex<Vec<(u64, ProtoEvent)>>);
        impl Observer for Sink {
            fn on_event(&self, at: u64, ev: &ProtoEvent) {
                self.0.lock().unwrap().push((at, *ev));
            }
        }

        let cfg = ProtocolConfig::accelerated()
            .with_personal_window(5)
            .with_accelerated_window(2);
        let mut ring = make_ring(2, cfg);
        let sink = Arc::new(Sink::default());
        ring[0].set_observer(sink.clone());
        ring[0].observe_now(7_000);
        for _ in 0..5 {
            ring[0]
                .submit(Bytes::from_static(b"m"), ServiceType::Agreed)
                .unwrap();
        }
        let _ = ring[0].start();
        let events = sink.0.lock().unwrap().clone();
        assert!(events.iter().all(|(at, _)| *at == 7_000));
        let count = |name: &str| events.iter().filter(|(_, e)| e.name() == name).count();
        assert_eq!(count("token-rx"), 1);
        assert_eq!(count("token-tx"), 1);
        assert_eq!(count("msg-pre-token"), 3);
        assert_eq!(count("msg-post-token"), 2);
        assert_eq!(count("delivered"), 5);
        // Event order mirrors the action order: pre-token sends, then
        // the token, then the post-token sends.
        let names: Vec<&str> = events.iter().map(|(_, e)| e.name()).collect();
        let tx_pos = names.iter().position(|n| *n == "token-tx").unwrap();
        assert!(names[..tx_pos].contains(&"msg-pre-token"));
        assert!(!names[..tx_pos].contains(&"msg-post-token"));

        // Detaching reverts to the silent path.
        let before = events.len();
        ring[0].clear_observer();
        assert!(!ring[0].has_observer());
        ring[0]
            .submit(Bytes::from_static(b"q"), ServiceType::Agreed)
            .unwrap();
        assert_eq!(sink.0.lock().unwrap().len(), before);
    }

    #[test]
    fn stats_track_protocol_activity() {
        let mut ring = make_ring(2, ProtocolConfig::accelerated());
        ring[0]
            .submit(Bytes::from_static(b"a"), ServiceType::Agreed)
            .unwrap();
        let a0 = ring[0].start();
        assert_eq!(ring[0].stats().tokens_handled, 1);
        assert_eq!(ring[0].stats().messages_initiated, 1);
        assert_eq!(ring[0].stats().messages_delivered, 1);
        for m in multicasts(&a0) {
            ring[1].handle_message(Message::Data(m));
        }
        assert_eq!(ring[1].stats().messages_received, 1);
        assert_eq!(ring[1].stats().messages_delivered, 1);
    }

    #[test]
    fn total_order_is_identical_across_participants() {
        // Three participants, several rounds of mixed traffic; verify
        // the delivered sequence is identical everywhere.
        let mut ring = make_ring(3, ProtocolConfig::accelerated().with_accelerated_window(1));
        let mut logs: Vec<Vec<(u64, Bytes)>> = vec![Vec::new(); 3];
        let mut inflight_data: Vec<DataMessage> = Vec::new();
        let mut token: Option<(usize, Token)> = None;

        // Submit distinct payloads at each participant.
        for (i, p) in ring.iter_mut().enumerate() {
            for k in 0..4 {
                let payload = Bytes::from(format!("p{i}-m{k}"));
                p.submit(payload, ServiceType::Agreed).unwrap();
            }
        }
        let a0 = ring[0].start();
        collect(&a0, 0, &mut logs, &mut inflight_data, &mut token);
        // Run 12 token handlings, delivering data before each token
        // (in-order network).
        for _ in 0..12 {
            // Flush all data to everyone first.
            let data = std::mem::take(&mut inflight_data);
            for m in data {
                for (i, p) in ring.iter_mut().enumerate() {
                    if p.pid() != m.pid {
                        let acts = p.handle_message(Message::Data(m.clone()));
                        collect(&acts, i, &mut logs, &mut inflight_data, &mut token);
                    }
                }
            }
            let (dest, tok) = token.take().expect("token in flight");
            let acts = ring[dest].handle_message(Message::Token(tok));
            collect(&acts, dest, &mut logs, &mut inflight_data, &mut token);
        }
        assert_eq!(logs[0].len(), 12, "all messages delivered: {:?}", logs[0]);
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[1], logs[2]);

        fn collect(
            actions: &[Action],
            _who: usize,
            logs: &mut [Vec<(u64, Bytes)>],
            inflight: &mut Vec<DataMessage>,
            token: &mut Option<(usize, Token)>,
        ) {
            for a in actions {
                match a {
                    Action::Multicast(m) => inflight.push(m.clone()),
                    Action::SendToken { to, token: t } => {
                        *token = Some((to.as_u16() as usize, t.clone()));
                    }
                    Action::Deliver(d) => {
                        logs[_who].push((d.seq.as_u64(), d.payload.clone()));
                    }
                    _ => {}
                }
            }
        }
    }

    // ----- AIMD accelerated-window degradation ---------------------------

    fn aimd_cfg() -> ProtocolConfig {
        ProtocolConfig::accelerated()
            .with_accelerated_window(4)
            .with_accel_aimd(crate::config::AimdConfig {
                enabled: true,
                pressure_threshold: 4,
                pressure_rounds: 2,
                recovery_rounds: 3,
            })
    }

    #[test]
    fn aimd_disabled_window_is_static() {
        let mut ring = make_ring(2, ProtocolConfig::accelerated().with_accelerated_window(4));
        assert_eq!(ring[0].effective_accelerated_window(), 4);
        for _ in 0..10 {
            ring[0].update_accel_window(100);
        }
        assert_eq!(ring[0].effective_accelerated_window(), 4);
        assert_eq!(ring[0].stats().accel_window_shrinks, 0);
    }

    #[test]
    fn aimd_shrinks_under_sustained_pressure_and_recovers() {
        let mut ring = make_ring(2, aimd_cfg());
        let p = &mut ring[0];
        assert_eq!(p.effective_accelerated_window(), 4);
        // One pressured round is not enough (pressure_rounds = 2).
        p.update_accel_window(10);
        assert_eq!(p.effective_accelerated_window(), 4);
        p.update_accel_window(10);
        assert_eq!(p.effective_accelerated_window(), 2, "multiplicative halve");
        // Two more pressured rounds: 2 -> 1.
        p.update_accel_window(10);
        p.update_accel_window(10);
        assert_eq!(p.effective_accelerated_window(), 1);
        p.update_accel_window(10);
        p.update_accel_window(10);
        assert_eq!(p.effective_accelerated_window(), 0, "original Ring reached");
        // Further pressure cannot shrink below zero.
        p.update_accel_window(10);
        p.update_accel_window(10);
        assert_eq!(p.effective_accelerated_window(), 0);
        assert_eq!(p.stats().accel_window_shrinks, 3);
        // Calm rounds recover additively (recovery_rounds = 3 per step).
        for _ in 0..3 {
            p.update_accel_window(0);
        }
        assert_eq!(p.effective_accelerated_window(), 1, "additive +1");
        for _ in 0..9 {
            p.update_accel_window(0);
        }
        assert_eq!(p.effective_accelerated_window(), 4, "fully recovered");
        // Recovery never overshoots the configured window.
        for _ in 0..6 {
            p.update_accel_window(0);
        }
        assert_eq!(p.effective_accelerated_window(), 4);
        assert_eq!(p.stats().accel_window_grows, 4);
    }

    #[test]
    fn aimd_pressure_must_be_consecutive() {
        let mut ring = make_ring(2, aimd_cfg());
        let p = &mut ring[0];
        // Alternating pressure/calm never accumulates pressure_rounds.
        for _ in 0..10 {
            p.update_accel_window(10);
            p.update_accel_window(0);
        }
        assert_eq!(p.effective_accelerated_window(), 4);
        assert_eq!(p.stats().accel_window_shrinks, 0);
    }
}
