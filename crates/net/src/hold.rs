//! The idle-token hold: while nobody has anything to send, the ring
//! representative keeps the token instead of rotating it flat out.
//!
//! [`IdleHold`] is the decision and the parked [`Token`], with no clock
//! and no I/O; the [`Runtime`](crate::Runtime) feeds it events and
//! hands over what it releases. Totem's representative holds the same way
//! (corosync's `token_hold`); while the token is parked only its
//! holder may act on the ring ("Safe Register Token Transfer in a
//! Ring", PAPERS.md).
//!
//! **When a token is held.** At the representative, when the
//! participant is Operational on the token's ring, the token carries
//! no retransmission requests and `aru == seq`, the two tokens handed
//! to the participant before it carried the same `seq` with
//! `aru == seq` (two full rotations without a new message: every
//! member has forwarded `aru = seq` twice, so every Safe message is
//! delivered and every stable one discarded everywhere), the send
//! queue is empty, no cancel arrived since the last token, and the
//! hold is enabled (the transport accepted a wake and adaptive
//! timeouts are off).
//!
//! **When it is released**, on the first of: a local submit; a
//! `HoldCancel` for the ring; any other inbound message (the held token
//! is handed over first); the deadline `min(arrival + token_retransmit
//! / 2, earliest participant timer)`. The deadline comes from the
//! participant's own timeouts, so a predecessor's retransmit timer
//! (armed for `token_retransmit` when it forwarded the token) never
//! fires because of a hold.
//!
//! **Why it is safe.** Holding a token for a bounded time before
//! handing it to the participant is indistinguishable from a slow
//! link: the participant sees the real arrival order, the token's
//! arrival delayed. The core state machine is unchanged, so every EVS
//! oracle and explorer schedule still applies.
//!
//! **Cancels.** A non-representative whose send queue goes from empty
//! to non-empty asks the representative to release, when the last two
//! tokens it handled carried the same `seq` (the ring may be parked)
//! and it has not asked during this token visit. A cancel that reaches
//! the representative *before* the token it was meant for arms "do not
//! hold the next token", so that race costs nothing; a lost cancel
//! costs at most one deadline.

use ar_core::{RingId, Round, Seq, Token};

/// Why a held token was released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Release {
    /// A local submit: this node has something to send.
    Submit,
    /// A peer's `HoldCancel` for the ring.
    Cancel,
    /// Another inbound message.
    Message,
    /// The hold deadline passed.
    Deadline,
}

impl Release {
    /// Every cause, in [`index`](Release::index) order.
    pub const ALL: [Release; 4] = [
        Release::Submit,
        Release::Cancel,
        Release::Message,
        Release::Deadline,
    ];

    /// The `release` label of `ar_node_token_holds_total`.
    pub fn label(self) -> &'static str {
        match self {
            Release::Submit => "submit",
            Release::Cancel => "cancel",
            Release::Message => "message",
            Release::Deadline => "deadline",
        }
    }

    /// Position in [`ALL`](Release::ALL).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// What the runtime knows about its participant when it consults the
/// hold. Times are nanoseconds on the caller's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Local {
    /// The installed ring.
    pub ring: RingId,
    /// This participant is the ring's representative.
    pub representative: bool,
    /// The participant is Operational.
    pub operational: bool,
    /// Messages in the participant's send queue (before the submit, in
    /// [`IdleHold::on_submit`]).
    pub pending: usize,
    /// The earliest armed participant timer.
    pub next_timer: Option<u64>,
    /// The participant's token retransmission interval.
    pub token_retransmit: u64,
}

/// A token as the hold remembers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Seen {
    ring: RingId,
    round: Round,
    seq: Seq,
    /// `aru == seq` and no retransmission requests.
    quiet: bool,
}

impl Seen {
    fn of(tok: &Token) -> Seen {
        Seen {
            ring: tok.ring_id,
            round: tok.round,
            seq: tok.seq,
            quiet: tok.aru == tok.seq && tok.rtr.is_empty(),
        }
    }
}

#[derive(Debug)]
struct Held {
    token: Token,
    since: u64,
    until: u64,
    /// A local submit asked for the token.
    submitted: bool,
}

/// The idle-token hold decision for one runtime (see the module docs).
#[derive(Debug, Default)]
pub struct IdleHold {
    enabled: bool,
    /// The last two tokens handed to the participant, oldest first.
    handed: [Option<Seen>; 2],
    /// A cancel arrived since the last token.
    cancelled: bool,
    /// This node sent a cancel since the last token.
    cancel_sent: bool,
    held: Option<Held>,
}

impl IdleHold {
    /// A hold that never holds and never cancels unless `enabled`.
    pub fn new(enabled: bool) -> IdleHold {
        IdleHold {
            enabled,
            ..IdleHold::default()
        }
    }

    /// True while a token is held.
    pub fn is_holding(&self) -> bool {
        self.held.is_some()
    }

    /// A token arrived at `now`. Returns it when the caller must hand
    /// it to the participant at once; `None` when it is held until
    /// [`due`](Self::due), a cancel, or another message. Call only while
    /// nothing is held.
    pub fn on_token(&mut self, now: u64, tok: Token, local: &Local) -> Option<Token> {
        debug_assert!(self.held.is_none(), "release the held token first");
        let seen = Seen::of(&tok);
        let cancelled = std::mem::take(&mut self.cancelled);
        self.cancel_sent = false;
        let until = now
            .saturating_add(local.token_retransmit / 2)
            .min(local.next_timer.unwrap_or(u64::MAX));
        let hold = self.enabled
            && !cancelled
            && local.representative
            && local.operational
            && seen.ring == local.ring
            && seen.quiet
            && local.pending == 0
            && self.two_idle_rotations_before(seen)
            && until > now;
        if !hold {
            self.hand(seen);
            return Some(tok);
        }
        self.held = Some(Held {
            token: tok,
            since: now,
            until,
            submitted: false,
        });
        None
    }

    /// A `HoldCancel` for the installed ring arrived. Returns true when
    /// the held token must be released now; with nothing held, the next
    /// token is not held.
    pub fn on_cancel(&mut self) -> bool {
        if self.held.is_some() {
            return true;
        }
        self.cancelled = true;
        false
    }

    /// A local submit succeeded; `local.pending` is the queue depth
    /// before it. A held token becomes [`due`](Self::due) at once.
    /// Returns true when the caller must send a `HoldCancel` to the
    /// representative.
    pub fn on_submit(&mut self, local: &Local) -> bool {
        if let Some(h) = &mut self.held {
            h.submitted = true;
            return false;
        }
        let send = self.enabled
            && !self.cancel_sent
            && !local.representative
            && local.operational
            && local.pending == 0
            && matches!(self.handed, [Some(a), Some(b)]
                if a.ring == local.ring && b.ring == local.ring && a.seq == b.seq);
        self.cancel_sent |= send;
        send
    }

    /// When the held token must be handed over (at once after a local
    /// submit), or `None` with nothing held.
    pub fn deadline(&self) -> Option<u64> {
        let h = self.held.as_ref()?;
        Some(if h.submitted { h.since } else { h.until })
    }

    /// Why the held token must be handed over at `now`, if it must.
    pub fn due(&self, now: u64) -> Option<Release> {
        let h = self.held.as_ref()?;
        if h.submitted {
            Some(Release::Submit)
        } else if now >= h.until {
            Some(Release::Deadline)
        } else {
            None
        }
    }

    /// Ends the hold: returns the token, for the caller to hand to the
    /// participant, and how long it was held; `None` when nothing was.
    pub fn release(&mut self, now: u64) -> Option<(Token, u64)> {
        let h = self.held.take()?;
        self.hand(Seen::of(&h.token));
        Some((h.token, now.saturating_sub(h.since)))
    }

    fn hand(&mut self, seen: Seen) {
        self.handed = [self.handed[1], Some(seen)];
    }

    /// The two tokens handed before `seen` were quiet, on its ring, at
    /// its `seq`, and from two earlier rounds (a retransmitted copy of
    /// one token does not count twice).
    fn two_idle_rotations_before(&self, seen: Seen) -> bool {
        let [Some(a), Some(b)] = self.handed else {
            return false;
        };
        [a, b]
            .iter()
            .all(|h| h.quiet && h.ring == seen.ring && h.seq == seen.seq)
            && a.round < b.round
            && b.round < seen.round
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_core::ParticipantId;

    const RETRANSMIT: u64 = 5_000_000;

    fn ring() -> RingId {
        RingId::new(ParticipantId::new(0), 1)
    }

    fn local(representative: bool) -> Local {
        Local {
            ring: ring(),
            representative,
            operational: true,
            pending: 0,
            next_timer: None,
            token_retransmit: RETRANSMIT,
        }
    }

    fn token(round: u64, seq: u64, aru: u64) -> Token {
        let mut t = Token::initial(ring(), Seq::new(seq));
        t.round = Round::new(round);
        t.aru = Seq::new(aru);
        t
    }

    /// Offers a token; true when it is held.
    fn held(hold: &mut IdleHold, now: u64, tok: Token, l: &Local) -> bool {
        hold.on_token(now, tok, l).is_none()
    }

    /// Hands three quiet tokens at `seq` 7; the third is the first a
    /// representative may hold.
    fn idle_ring(hold: &mut IdleHold, l: &Local) -> bool {
        assert!(!held(hold, 0, token(1, 7, 7), l));
        assert!(!held(hold, 10, token(2, 7, 7), l));
        held(hold, 20, token(3, 7, 7), l)
    }

    #[test]
    fn holds_after_two_idle_rotations_until_half_the_retransmit_interval() {
        let mut hold = IdleHold::new(true);
        assert!(idle_ring(&mut hold, &local(true)));
        assert_eq!(hold.deadline(), Some(20 + RETRANSMIT / 2));
        assert_eq!(hold.due(20 + RETRANSMIT / 2 - 1), None);
        assert_eq!(hold.due(20 + RETRANSMIT / 2), Some(Release::Deadline));
        assert_eq!(hold.release(30), Some((token(3, 7, 7), 10)));
        assert!(!hold.is_holding());
        // The released token counts as handed: the ring is still idle.
        assert!(held(&mut hold, 40, token(4, 7, 7), &local(true)));
    }

    #[test]
    fn deadline_respects_the_earliest_participant_timer() {
        let mut hold = IdleHold::new(true);
        let mut l = local(true);
        l.next_timer = Some(100);
        assert!(idle_ring(&mut hold, &l));
        assert_eq!(hold.deadline(), Some(100));
        // A timer already due: no hold at all.
        let mut hold = IdleHold::new(true);
        l.next_timer = Some(20);
        assert!(!idle_ring(&mut hold, &l));
    }

    #[test]
    fn never_holds_when_disabled_or_off_the_representative() {
        assert!(!idle_ring(&mut IdleHold::new(false), &local(true)));
        assert!(!idle_ring(&mut IdleHold::new(true), &local(false)));
        let mut l = local(true);
        l.operational = false;
        assert!(!idle_ring(&mut IdleHold::new(true), &l));
        let mut l = local(true);
        l.pending = 1;
        assert!(!idle_ring(&mut IdleHold::new(true), &l));
        let mut l = local(true);
        l.ring = RingId::new(ParticipantId::new(0), 2);
        assert!(!idle_ring(&mut IdleHold::new(true), &l));
    }

    #[test]
    fn a_new_message_or_a_lagging_aru_restarts_the_count() {
        let l = local(true);
        let mut hold = IdleHold::new(true);
        assert!(!held(&mut hold, 0, token(1, 7, 7), &l));
        assert!(!held(&mut hold, 0, token(2, 8, 8), &l), "seq moved");
        assert!(!held(&mut hold, 0, token(3, 8, 8), &l), "one idle rotation");
        assert!(held(&mut hold, 0, token(4, 8, 8), &l), "two idle rotations");

        let mut hold = IdleHold::new(true);
        assert!(!held(&mut hold, 0, token(1, 8, 7), &l));
        assert!(!held(&mut hold, 0, token(2, 8, 8), &l));
        assert!(
            !held(&mut hold, 0, token(3, 8, 8), &l),
            "aru lagged two back"
        );
        let mut rtr = token(4, 8, 8);
        rtr.rtr = vec![Seq::new(3)];
        assert!(!held(&mut hold, 0, rtr, &l), "retransmission requested");
    }

    #[test]
    fn a_retransmitted_copy_does_not_count_as_a_rotation() {
        let l = local(true);
        let mut hold = IdleHold::new(true);
        assert!(!held(&mut hold, 0, token(1, 7, 7), &l));
        assert!(!held(&mut hold, 0, token(1, 7, 7), &l));
        assert!(!held(&mut hold, 0, token(2, 7, 7), &l));
        assert!(held(&mut hold, 0, token(3, 7, 7), &l));
    }

    #[test]
    fn an_early_cancel_prevents_the_next_hold_only() {
        let l = local(true);
        let mut hold = IdleHold::new(true);
        assert!(!held(&mut hold, 0, token(1, 7, 7), &l));
        assert!(!held(&mut hold, 0, token(2, 7, 7), &l));
        assert!(!hold.on_cancel(), "nothing held yet");
        assert!(!held(&mut hold, 0, token(3, 7, 7), &l), "cancel armed");
        assert!(
            held(&mut hold, 0, token(4, 7, 7), &l),
            "armed for one token"
        );
        assert!(hold.on_cancel(), "a cancel releases the held token");
        assert_eq!(hold.release(5), Some((token(4, 7, 7), 5)));
    }

    #[test]
    fn a_local_submit_makes_the_held_token_due_at_once() {
        let l = local(true);
        let mut hold = IdleHold::new(true);
        assert!(idle_ring(&mut hold, &l));
        assert!(!hold.on_submit(&l), "the holder sends no cancel");
        assert_eq!(hold.deadline(), Some(20));
        assert_eq!(hold.due(20), Some(Release::Submit));
    }

    #[test]
    fn a_non_representative_cancels_once_per_token_visit_on_an_idle_ring() {
        let l = local(false);
        let mut hold = IdleHold::new(true);
        assert!(!held(&mut hold, 0, token(1, 7, 7), &l));
        assert!(!hold.on_submit(&l), "one token seen: ring not idle");
        assert!(!held(&mut hold, 0, token(2, 7, 7), &l));
        assert!(hold.on_submit(&l), "two tokens at one seq");
        assert!(!hold.on_submit(&l), "at most once per visit");
        assert!(!held(&mut hold, 0, token(3, 7, 7), &l));
        let mut busy = l;
        busy.pending = 1;
        assert!(!hold.on_submit(&busy), "queue was not empty");
        assert!(hold.on_submit(&l), "next visit may cancel again");
        assert!(
            !IdleHold::new(false).on_submit(&l),
            "disabled never cancels"
        );
    }

    #[test]
    fn release_labels_are_stable() {
        let labels: Vec<&str> = Release::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels, ["submit", "cancel", "message", "deadline"]);
        assert!(Release::ALL.iter().enumerate().all(|(i, r)| r.index() == i));
    }
}
