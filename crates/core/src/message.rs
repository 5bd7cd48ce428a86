//! Protocol message definitions.
//!
//! The ordering protocol exchanges two message kinds during normal
//! operation: [`Token`] messages (unicast from each participant to its
//! successor on the ring) and [`DataMessage`]s (multicast to all
//! participants). The membership algorithm additionally uses
//! [`JoinMessage`]s and [`CommitToken`]s (see [`crate::membership`]).

use bytes::Bytes;

use crate::types::{ParticipantId, RingId, Round, Seq, ServiceType};

/// The regular token that circulates the ring during normal operation.
///
/// The token carries everything a participant needs to (a) assign
/// sequence numbers to new messages, (b) learn global stability, (c)
/// perform flow control, and (d) request retransmissions — the paper's
/// Section III-A fields, plus a `round` hop counter and the `aru_setter`
/// bookkeeping participant required by the aru update rules of Totem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Configuration the token belongs to; tokens from old rings are
    /// discarded.
    pub ring_id: RingId,
    /// Hop counter: incremented once per token pass. Used to discard
    /// duplicate tokens (retransmitted after a suspected loss) and by the
    /// priority-switching logic.
    pub round: Round,
    /// The last sequence number claimed by any participant. The receiver
    /// may initiate messages starting at `seq + 1`.
    pub seq: Seq,
    /// All-received-up-to: the protocol's global stability estimate.
    /// Every participant has received all messages with sequence numbers
    /// `<= aru` once the token completes a rotation without the aru being
    /// lowered.
    pub aru: Seq,
    /// The participant that last lowered `aru`, if any. Totem's aru
    /// update rules use this to decide when the setter may raise the aru
    /// again.
    pub aru_setter: Option<ParticipantId>,
    /// Flow-control count: the total number of multicasts (new messages
    /// and retransmissions) sent during the last rotation.
    pub fcc: u32,
    /// Retransmission requests: sequence numbers some participant is
    /// missing. Sorted, deduplicated.
    pub rtr: Vec<Seq>,
}

impl Token {
    /// Creates the first regular token of a fresh configuration.
    ///
    /// `seq`/`aru` start at the given watermark (zero for a brand-new
    /// ring; the recovered watermark after a membership change).
    pub fn initial(ring_id: RingId, start: Seq) -> Token {
        Token {
            ring_id,
            round: Round::ZERO,
            seq: start,
            aru: start,
            aru_setter: None,
            fcc: 0,
            rtr: Vec::new(),
        }
    }

    /// Returns true if `s` is requested for retransmission by this token.
    pub fn requests_retransmission(&self, s: Seq) -> bool {
        self.rtr.binary_search(&s).is_ok()
    }
}

/// A multicast data message carrying application payload.
///
/// Fields mirror Section III-B of the paper: the global sequence number,
/// the initiating participant, the round in which the message was
/// initiated, and the opaque payload. We add the requested
/// [`ServiceType`] and an `after_token` flag marking messages multicast
/// during the post-token phase, which implements the paper's second
/// priority-switching method ("a data message that its immediate
/// predecessor sent in the next round *after* having sent the token").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataMessage {
    /// Configuration in which this message was initiated.
    pub ring_id: RingId,
    /// Position of the message in the global total order.
    pub seq: Seq,
    /// The participant that initiated the message.
    pub pid: ParticipantId,
    /// Token round (hop count) in which the message was initiated.
    pub round: Round,
    /// Delivery service requested by the application.
    pub service: ServiceType,
    /// True if the initiator multicast this message after passing the
    /// token (the accelerated, post-token phase); false for pre-token
    /// multicasts and retransmissions.
    pub after_token: bool,
    /// Opaque application payload. Never inspected by the protocol.
    pub payload: Bytes,
}

impl DataMessage {
    /// Total wire size of this message when encoded, in bytes.
    ///
    /// Useful for flow-control and throughput accounting without
    /// actually encoding the message.
    pub fn wire_len(&self) -> usize {
        crate::wire::DATA_HEADER_LEN + self.payload.len()
    }
}

/// A membership join message, multicast while the membership algorithm
/// is gathering a new configuration.
///
/// Join messages carry the sender's current view of which participants
/// are reachable (`proc_set`) and which have been declared failed
/// (`fail_set`). The gather phase reaches consensus when every reachable,
/// non-failed participant advertises identical sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinMessage {
    /// The participant sending this join message.
    pub sender: ParticipantId,
    /// Participants the sender currently considers part of the next ring.
    pub proc_set: Vec<ParticipantId>,
    /// Participants the sender has declared failed this attempt.
    pub fail_set: Vec<ParticipantId>,
    /// The largest ring sequence number the sender has participated in;
    /// the new ring's sequence number must exceed every member's value.
    pub ring_seq: u64,
}

/// Per-member recovery information carried on the [`CommitToken`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberInfo {
    /// The member this entry describes.
    pub pid: ParticipantId,
    /// The ring the member was operating in before this membership
    /// change.
    pub old_ring_id: RingId,
    /// The member's local all-received-up-to in its old ring.
    pub my_aru: Seq,
    /// The highest sequence number the member received in its old ring.
    pub high_seq: Seq,
    /// The old-ring stability watermark (`Safe` delivery threshold) the
    /// member had established before the configuration change.
    pub safe_seq: Seq,
    /// Whether the member has filled in its entry (set during the first
    /// rotation of the commit token).
    pub filled: bool,
}

impl MemberInfo {
    /// Creates an unfilled placeholder entry for `pid`.
    pub fn placeholder(pid: ParticipantId) -> MemberInfo {
        MemberInfo {
            pid,
            old_ring_id: RingId::default(),
            my_aru: Seq::ZERO,
            high_seq: Seq::ZERO,
            safe_seq: Seq::ZERO,
            filled: false,
        }
    }
}

/// The commit token that circulates the *new* ring (twice) to commit a
/// membership change before recovery begins.
///
/// On the first rotation each member fills in its [`MemberInfo`]
/// (old-ring identifier, aru, highest received sequence number). On the
/// second rotation every member observes the complete set, learns what
/// must be recovered from each old ring, and shifts to the Recovery
/// state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitToken {
    /// The identifier of the new ring being formed.
    pub ring_id: RingId,
    /// The ordered member list of the new ring (ring order).
    pub memb: Vec<MemberInfo>,
    /// Hop counter, used to detect when the token has completed its
    /// first and second rotations.
    pub hop: u32,
}

impl CommitToken {
    /// Creates a fresh commit token for a new ring over `members`
    /// (already in ring order, representative first).
    pub fn new(ring_id: RingId, members: &[ParticipantId]) -> CommitToken {
        CommitToken {
            ring_id,
            memb: members
                .iter()
                .map(|&p| MemberInfo::placeholder(p))
                .collect(),
            hop: 0,
        }
    }

    /// The ordered list of member identifiers.
    pub fn member_ids(&self) -> Vec<ParticipantId> {
        self.memb.iter().map(|m| m.pid).collect()
    }

    /// True once every member has filled in its recovery information.
    pub fn all_filled(&self) -> bool {
        self.memb.iter().all(|m| m.filled)
    }
}

/// A message as delivered to the application, together with its delivery
/// metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The configuration the message is delivered in.
    pub ring_id: RingId,
    /// Total-order position.
    pub seq: Seq,
    /// Initiating participant.
    pub pid: ParticipantId,
    /// Service the message was sent with.
    pub service: ServiceType,
    /// Application payload.
    pub payload: Bytes,
}

impl Delivery {
    /// Builds the delivery record for a received data message.
    pub fn from_data(msg: &DataMessage) -> Delivery {
        Delivery {
            ring_id: msg.ring_id,
            seq: msg.seq,
            pid: msg.pid,
            service: msg.service,
            payload: msg.payload.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> RingId {
        RingId::new(ParticipantId::new(0), 1)
    }

    #[test]
    fn initial_token_is_empty() {
        let t = Token::initial(ring(), Seq::ZERO);
        assert_eq!(t.seq, Seq::ZERO);
        assert_eq!(t.aru, Seq::ZERO);
        assert_eq!(t.fcc, 0);
        assert!(t.rtr.is_empty());
        assert_eq!(t.aru_setter, None);
        assert_eq!(t.round, Round::ZERO);
    }

    #[test]
    fn initial_token_inherits_recovery_watermark() {
        let t = Token::initial(ring(), Seq::new(42));
        assert_eq!(t.seq, Seq::new(42));
        assert_eq!(t.aru, Seq::new(42));
    }

    #[test]
    fn rtr_lookup_uses_sorted_order() {
        let mut t = Token::initial(ring(), Seq::ZERO);
        t.rtr = vec![Seq::new(3), Seq::new(7), Seq::new(9)];
        assert!(t.requests_retransmission(Seq::new(7)));
        assert!(!t.requests_retransmission(Seq::new(8)));
    }

    #[test]
    fn data_message_wire_len_includes_header() {
        let m = DataMessage {
            ring_id: ring(),
            seq: Seq::new(1),
            pid: ParticipantId::new(2),
            round: Round::new(5),
            service: ServiceType::Agreed,
            after_token: false,
            payload: Bytes::from_static(b"hello"),
        };
        assert_eq!(m.wire_len(), crate::wire::DATA_HEADER_LEN + 5);
    }

    #[test]
    fn delivery_copies_message_metadata() {
        let m = DataMessage {
            ring_id: ring(),
            seq: Seq::new(9),
            pid: ParticipantId::new(4),
            round: Round::new(2),
            service: ServiceType::Safe,
            after_token: true,
            payload: Bytes::from_static(b"xyz"),
        };
        let d = Delivery::from_data(&m);
        assert_eq!(d.seq, m.seq);
        assert_eq!(d.pid, m.pid);
        assert_eq!(d.service, m.service);
        assert_eq!(d.payload, m.payload);
    }
}
