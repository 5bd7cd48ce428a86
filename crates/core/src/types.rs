//! Fundamental identifier and counter types used throughout the protocol.
//!
//! Every protocol-level quantity gets its own newtype so that sequence
//! numbers, rounds, and participant identifiers cannot be confused with
//! one another (or with plain integers) at compile time.

use core::fmt;

/// Identifier of a protocol participant (a daemon in the Spread
/// architecture, or a process in the library architecture).
///
/// Participant identifiers are assigned by the deployment (they play the
/// role of the IP address + port pair in the paper's implementations) and
/// must be unique within a configuration. The ordering of identifiers is
/// used by the membership algorithm to pick a deterministic ring
/// representative (the smallest identifier in the ring).
///
/// ```
/// use ar_core::ParticipantId;
/// let a = ParticipantId::new(1);
/// let b = ParticipantId::new(2);
/// assert!(a < b);
/// assert_eq!(a.as_u16(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ParticipantId(u16);

impl ParticipantId {
    /// Creates a participant identifier from a raw integer.
    pub const fn new(id: u16) -> Self {
        ParticipantId(id)
    }

    /// Returns the raw integer value.
    pub const fn as_u16(self) -> u16 {
        self.0
    }
}

impl fmt::Display for ParticipantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u16> for ParticipantId {
    fn from(v: u16) -> Self {
        ParticipantId(v)
    }
}

/// A global total-order sequence number.
///
/// Sequence numbers are assigned to data messages by the token holder and
/// define the message's position in the total order. `Seq(0)` is the
/// "nothing yet" sentinel: the first message of a configuration carries
/// `Seq(1)`.
///
/// The paper's C implementations use 32-bit sequence numbers with
/// wrap-around handling; we use 64 bits, which cannot wrap in practice
/// (at 10 Gbps and 1350-byte messages, a 64-bit counter lasts ~60,000
/// years), trading a few header bytes for simpler invariants.
///
/// ```
/// use ar_core::Seq;
/// let s = Seq::ZERO;
/// assert_eq!(s.next(), Seq::new(1));
/// assert_eq!(Seq::new(5) - Seq::new(2), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Seq(u64);

impl Seq {
    /// The sentinel "no messages yet" sequence number.
    pub const ZERO: Seq = Seq(0);

    /// Creates a sequence number from a raw integer.
    pub const fn new(v: u64) -> Self {
        Seq(v)
    }

    /// Returns the raw integer value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the next sequence number.
    ///
    /// # Panics
    ///
    /// Panics on `u64` overflow (unreachable in practice).
    #[must_use]
    pub const fn next(self) -> Seq {
        Seq(self.0 + 1)
    }

    /// Returns this sequence number advanced by `n`.
    #[must_use]
    pub const fn advance(self, n: u64) -> Seq {
        Seq(self.0 + n)
    }

    /// Saturating predecessor (`Seq::ZERO` stays `Seq::ZERO`).
    #[must_use]
    pub const fn prev(self) -> Seq {
        Seq(self.0.saturating_sub(1))
    }
}

impl fmt::Display for Seq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl core::ops::Sub for Seq {
    type Output = u64;

    /// Distance between two sequence numbers.
    ///
    /// # Panics
    ///
    /// Panics if `rhs > self`.
    fn sub(self, rhs: Seq) -> u64 {
        self.0
            .checked_sub(rhs.0)
            .expect("sequence number subtraction underflow")
    }
}

/// A token round counter.
///
/// The round is incremented every time the token is passed from one
/// participant to the next (one *hop*), so `Round` increases by the ring
/// size over one full rotation. Data messages are stamped with the round
/// in which they were initiated; the priority-switching logic
/// (Section III-C of the paper) compares message rounds against token
/// rounds to decide when the token becomes high-priority again.
///
/// ```
/// use ar_core::Round;
/// let r = Round::new(7);
/// assert_eq!(r.next(), Round::new(8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Round(u64);

impl Round {
    /// The initial round of a fresh configuration.
    pub const ZERO: Round = Round(0);

    /// Creates a round from a raw integer.
    pub const fn new(v: u64) -> Self {
        Round(v)
    }

    /// Returns the raw integer value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the next round (one token hop later).
    #[must_use]
    pub const fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// Returns this round advanced by `n` hops.
    #[must_use]
    pub const fn advance(self, n: u64) -> Round {
        Round(self.0 + n)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifier of a ring configuration.
///
/// Following Totem, a ring identifier is the pair of the representative's
/// participant identifier and a monotonically increasing ring sequence
/// number, so identifiers from successive configurations formed by the
/// same representative are distinct, and identifiers formed by different
/// representatives are distinct.
///
/// ```
/// use ar_core::{ParticipantId, RingId};
/// let r1 = RingId::new(ParticipantId::new(0), 4);
/// let r2 = RingId::new(ParticipantId::new(0), 8);
/// assert_ne!(r1, r2);
/// assert!(r1.ring_seq() < r2.ring_seq());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RingId {
    rep: ParticipantId,
    ring_seq: u64,
}

impl RingId {
    /// Creates a ring identifier from the representative and the ring
    /// sequence number.
    pub const fn new(rep: ParticipantId, ring_seq: u64) -> Self {
        RingId { rep, ring_seq }
    }

    /// The representative (smallest member) that formed this ring.
    pub const fn representative(self) -> ParticipantId {
        self.rep
    }

    /// The monotonically increasing ring sequence number.
    pub const fn ring_seq(self) -> u64 {
        self.ring_seq
    }
}

impl fmt::Display for RingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ring({}, {})", self.rep, self.ring_seq)
    }
}

/// The delivery service requested for a message.
///
/// The Accelerated Ring protocol provides the Extended Virtual Synchrony
/// service spectrum. `Agreed` and `Safe` are the interesting ones for the
/// paper's evaluation; `Reliable`, `Fifo` and `Causal` are provided at
/// the same cost as `Agreed` (their guarantees are subsumed by the total
/// order, exactly as noted in Section II of the paper).
///
/// ```
/// use ar_core::ServiceType;
/// assert!(ServiceType::Safe.requires_stability());
/// assert!(!ServiceType::Agreed.requires_stability());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ServiceType {
    /// Reliable delivery: the message is delivered by all connected
    /// members, with no ordering guarantee beyond the sender's.
    Reliable,
    /// FIFO delivery: messages from the same sender are delivered in the
    /// order they were sent.
    Fifo,
    /// Causal delivery: delivery order respects potential causality.
    Causal,
    /// Agreed delivery (total order): all members of a configuration
    /// deliver messages in the same total order, respecting causality.
    #[default]
    Agreed,
    /// Safe delivery (total order + stability): a message is delivered
    /// only once every member of the configuration is known to have
    /// received it.
    Safe,
}

impl ServiceType {
    /// Whether delivery must wait for stability (all members have
    /// received the message), i.e. whether this is `Safe` service.
    pub const fn requires_stability(self) -> bool {
        matches!(self, ServiceType::Safe)
    }

    /// Stable wire encoding of the service type.
    pub const fn as_u8(self) -> u8 {
        match self {
            ServiceType::Reliable => 0,
            ServiceType::Fifo => 1,
            ServiceType::Causal => 2,
            ServiceType::Agreed => 3,
            ServiceType::Safe => 4,
        }
    }

    /// Decodes a service type from its wire encoding.
    pub const fn from_u8(v: u8) -> Option<ServiceType> {
        match v {
            0 => Some(ServiceType::Reliable),
            1 => Some(ServiceType::Fifo),
            2 => Some(ServiceType::Causal),
            3 => Some(ServiceType::Agreed),
            4 => Some(ServiceType::Safe),
            _ => None,
        }
    }
}

impl fmt::Display for ServiceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ServiceType::Reliable => "reliable",
            ServiceType::Fifo => "fifo",
            ServiceType::Causal => "causal",
            ServiceType::Agreed => "agreed",
            ServiceType::Safe => "safe",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn participant_id_roundtrip_and_ordering() {
        let a = ParticipantId::new(3);
        assert_eq!(a.as_u16(), 3);
        assert_eq!(ParticipantId::from(3u16), a);
        assert!(ParticipantId::new(1) < ParticipantId::new(2));
        assert_eq!(a.to_string(), "P3");
    }

    #[test]
    fn seq_arithmetic() {
        assert_eq!(Seq::ZERO.next(), Seq::new(1));
        assert_eq!(Seq::new(10).advance(5), Seq::new(15));
        assert_eq!(Seq::new(10) - Seq::new(4), 6);
        assert_eq!(Seq::new(1).prev(), Seq::ZERO);
        assert_eq!(Seq::ZERO.prev(), Seq::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn seq_subtraction_underflow_panics() {
        let _ = Seq::new(1) - Seq::new(2);
    }

    #[test]
    fn round_advances_per_hop() {
        let r = Round::ZERO;
        assert_eq!(r.next().as_u64(), 1);
        assert_eq!(r.advance(8).as_u64(), 8);
    }

    #[test]
    fn ring_id_identity() {
        let r1 = RingId::new(ParticipantId::new(0), 4);
        let r2 = RingId::new(ParticipantId::new(1), 4);
        let r3 = RingId::new(ParticipantId::new(0), 8);
        assert_ne!(r1, r2);
        assert_ne!(r1, r3);
        assert_eq!(r1.representative(), ParticipantId::new(0));
        assert_eq!(r3.ring_seq(), 8);
    }

    #[test]
    fn service_type_wire_roundtrip() {
        for s in [
            ServiceType::Reliable,
            ServiceType::Fifo,
            ServiceType::Causal,
            ServiceType::Agreed,
            ServiceType::Safe,
        ] {
            assert_eq!(ServiceType::from_u8(s.as_u8()), Some(s));
        }
        assert_eq!(ServiceType::from_u8(200), None);
    }

    #[test]
    fn only_safe_requires_stability() {
        assert!(ServiceType::Safe.requires_stability());
        for s in [
            ServiceType::Reliable,
            ServiceType::Fifo,
            ServiceType::Causal,
            ServiceType::Agreed,
        ] {
            assert!(!s.requires_stability());
        }
    }
}
