//! The logical ring: an ordered set of participants with successor and
//! predecessor relations.

use crate::types::{ParticipantId, RingId};

/// Errors constructing a [`RingInfo`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingError {
    /// The member list was empty.
    Empty,
    /// The member list contained a duplicate identifier.
    DuplicateMember(ParticipantId),
    /// The local participant is not in the member list.
    NotAMember(ParticipantId),
}

impl core::fmt::Display for RingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RingError::Empty => f.write_str("ring member list is empty"),
            RingError::DuplicateMember(p) => write!(f, "duplicate ring member {p}"),
            RingError::NotAMember(p) => write!(f, "{p} is not a member of the ring"),
        }
    }
}

impl std::error::Error for RingError {}

/// An installed ring configuration, as seen by one participant.
///
/// Members are held in ring order: sorted by identifier, with the
/// representative (smallest identifier) first. The token travels from
/// each member to its successor in this order, wrapping around.
///
/// ```
/// use ar_core::{ParticipantId, RingId, RingInfo};
///
/// let members: Vec<_> = (0..4).map(ParticipantId::new).collect();
/// let ring = RingInfo::new(
///     RingId::new(members[0], 1),
///     members.clone(),
///     ParticipantId::new(2),
/// )?;
/// assert_eq!(ring.successor(), ParticipantId::new(3));
/// assert_eq!(ring.predecessor(), ParticipantId::new(1));
/// # Ok::<(), ar_core::ring::RingError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingInfo {
    id: RingId,
    members: Vec<ParticipantId>,
    my_index: usize,
}

impl RingInfo {
    /// Builds the ring view for participant `me`.
    ///
    /// `members` may be in any order; it is sorted into canonical ring
    /// order (ascending identifiers).
    ///
    /// # Errors
    ///
    /// Returns [`RingError`] if the list is empty, contains duplicates,
    /// or does not contain `me`.
    pub fn new(
        id: RingId,
        mut members: Vec<ParticipantId>,
        me: ParticipantId,
    ) -> Result<RingInfo, RingError> {
        if members.is_empty() {
            return Err(RingError::Empty);
        }
        members.sort_unstable();
        for w in members.windows(2) {
            if w[0] == w[1] {
                return Err(RingError::DuplicateMember(w[0]));
            }
        }
        let my_index = members
            .binary_search(&me)
            .map_err(|_| RingError::NotAMember(me))?;
        Ok(RingInfo {
            id,
            members,
            my_index,
        })
    }

    /// The configuration identifier.
    pub fn id(&self) -> RingId {
        self.id
    }

    /// The members in ring order.
    pub fn members(&self) -> &[ParticipantId] {
        &self.members
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The local participant.
    pub fn me(&self) -> ParticipantId {
        self.members[self.my_index]
    }

    /// This participant's position on the ring.
    pub fn my_index(&self) -> usize {
        self.my_index
    }

    /// The member the local participant passes the token to.
    pub fn successor(&self) -> ParticipantId {
        self.members[(self.my_index + 1) % self.members.len()]
    }

    /// The member the local participant receives the token from.
    pub fn predecessor(&self) -> ParticipantId {
        self.members[(self.my_index + self.members.len() - 1) % self.members.len()]
    }

    /// The ring representative (smallest member identifier).
    pub fn representative(&self) -> ParticipantId {
        self.members[0]
    }

    /// True if the local participant is the representative.
    pub fn i_am_representative(&self) -> bool {
        self.my_index == 0
    }

    /// True if `p` is a member of this ring.
    pub fn contains(&self, p: ParticipantId) -> bool {
        self.members.binary_search(&p).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(v: u16) -> ParticipantId {
        ParticipantId::new(v)
    }

    fn ring_of(ids: &[u16], me: u16) -> RingInfo {
        RingInfo::new(
            RingId::new(pid(ids[0]), 1),
            ids.iter().map(|&v| pid(v)).collect(),
            pid(me),
        )
        .unwrap()
    }

    #[test]
    fn members_are_sorted_into_ring_order() {
        let r = ring_of(&[5, 1, 3], 3);
        assert_eq!(r.members(), &[pid(1), pid(3), pid(5)]);
        assert_eq!(r.my_index(), 1);
        assert_eq!(r.representative(), pid(1));
    }

    #[test]
    fn successor_and_predecessor_wrap() {
        let r = ring_of(&[0, 1, 2, 3], 3);
        assert_eq!(r.successor(), pid(0));
        assert_eq!(r.predecessor(), pid(2));
        let r0 = ring_of(&[0, 1, 2, 3], 0);
        assert_eq!(r0.successor(), pid(1));
        assert_eq!(r0.predecessor(), pid(3));
    }

    #[test]
    fn singleton_ring_is_its_own_neighbor() {
        let r = ring_of(&[9], 9);
        assert_eq!(r.successor(), pid(9));
        assert_eq!(r.predecessor(), pid(9));
        assert!(r.i_am_representative());
    }

    #[test]
    fn empty_ring_rejected() {
        assert_eq!(
            RingInfo::new(RingId::default(), vec![], pid(0)).unwrap_err(),
            RingError::Empty
        );
    }

    #[test]
    fn duplicate_member_rejected() {
        assert_eq!(
            RingInfo::new(RingId::default(), vec![pid(1), pid(1)], pid(1)).unwrap_err(),
            RingError::DuplicateMember(pid(1))
        );
    }

    #[test]
    fn non_member_rejected() {
        assert_eq!(
            RingInfo::new(RingId::default(), vec![pid(1), pid(2)], pid(3)).unwrap_err(),
            RingError::NotAMember(pid(3))
        );
    }

    #[test]
    fn contains_checks_membership() {
        let r = ring_of(&[2, 4, 6], 4);
        assert!(r.contains(pid(2)));
        assert!(!r.contains(pid(3)));
    }
}
