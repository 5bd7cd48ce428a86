//! Deterministic hashing of protocol state, for state-space
//! exploration.
//!
//! The bounded explorer (`ar-explore`) enumerates interleavings of
//! message deliveries and timer firings, and needs to recognise when
//! two different schedules reach the *same* global state so the
//! duplicated frontier can be pruned. [`StateHash`] provides that
//! fingerprint: a stable FNV-1a digest over every field of a value
//! that can influence future protocol behaviour.
//!
//! What is — deliberately — **excluded** from a participant's hash:
//!
//! * statistics counters ([`crate::stats::ParticipantStats`]): they
//!   record history but never feed back into a decision;
//! * the observer slot: observers receive copies of facts and cannot
//!   influence the state machine;
//! * the priority tracker: it only produces the advisory
//!   [`crate::priority::PriorityMode`] hint for environments that poll
//!   it, never an [`crate::actions::Action`];
//! * the protocol configuration: it is immutable for the lifetime of a
//!   run, so explorers compare states within one configuration anyway
//!   (the *mutable* timeout policy, which `adapt_timeouts` can replace,
//!   **is** hashed).
//!
//! The digest is not a cryptographic commitment: collisions are
//! possible (at the usual 2^-64-per-pair rate) and acceptable — a
//! collision makes the explorer skip a state it has not truly seen,
//! which costs coverage, not soundness of reported violations (every
//! reported violation is re-validated by replay).

/// An incremental FNV-1a (64-bit) hasher with a fixed, documented
/// byte-feeding discipline, so hashes are stable across processes and
/// platforms.
#[derive(Debug, Clone)]
pub struct StateHasher {
    h: u64,
}

impl StateHasher {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> StateHasher {
        StateHasher {
            h: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Feeds a `u16` (little-endian).
    pub fn write_u16(&mut self, v: u16) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a `usize` widened to `u64` for cross-platform stability.
    pub fn write_len(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds a boolean as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

impl Default for StateHasher {
    fn default() -> Self {
        StateHasher::new()
    }
}

/// A deterministic fingerprint of protocol-relevant state.
///
/// Implementations must feed **every field that can influence future
/// behaviour** and nothing environment-specific, and must always feed
/// fields in the same order. Collection fields are length-prefixed so
/// that adjacent collections cannot alias (`[a] ++ []` hashes
/// differently from `[] ++ [a]`).
pub trait StateHash {
    /// Feeds this value's protocol-relevant state into `h`.
    fn state_hash_into(&self, h: &mut StateHasher);

    /// Convenience: the standalone digest of this value.
    fn state_hash(&self) -> u64 {
        let mut h = StateHasher::new();
        self.state_hash_into(&mut h);
        h.finish()
    }
}

use crate::message::{CommitToken, DataMessage, JoinMessage, MemberInfo, Token};
use crate::participant::TimeoutConfig;
use crate::types::{ParticipantId, RingId, Round, Seq, ServiceType};
use crate::wire::Message;

impl StateHash for ParticipantId {
    fn state_hash_into(&self, h: &mut StateHasher) {
        h.write_u16(self.as_u16());
    }
}

impl StateHash for Seq {
    fn state_hash_into(&self, h: &mut StateHasher) {
        h.write_u64(self.as_u64());
    }
}

impl StateHash for Round {
    fn state_hash_into(&self, h: &mut StateHasher) {
        h.write_u64(self.as_u64());
    }
}

impl StateHash for RingId {
    fn state_hash_into(&self, h: &mut StateHasher) {
        h.write_u16(self.representative().as_u16());
        h.write_u64(self.ring_seq());
    }
}

impl StateHash for ServiceType {
    fn state_hash_into(&self, h: &mut StateHasher) {
        h.write_u8(self.as_u8());
    }
}

impl StateHash for TimeoutConfig {
    fn state_hash_into(&self, h: &mut StateHasher) {
        h.write_u64(self.token_loss);
        h.write_u64(self.token_retransmit);
        h.write_u64(self.join);
        h.write_u64(self.consensus);
        h.write_u64(self.commit);
        h.write_u32(self.token_retransmit_limit);
    }
}

impl StateHash for DataMessage {
    fn state_hash_into(&self, h: &mut StateHasher) {
        self.ring_id.state_hash_into(h);
        self.seq.state_hash_into(h);
        self.pid.state_hash_into(h);
        self.round.state_hash_into(h);
        self.service.state_hash_into(h);
        h.write_bool(self.after_token);
        h.write_len(self.payload.len());
        h.write(&self.payload);
    }
}

impl StateHash for Token {
    fn state_hash_into(&self, h: &mut StateHasher) {
        self.ring_id.state_hash_into(h);
        self.round.state_hash_into(h);
        self.seq.state_hash_into(h);
        self.aru.state_hash_into(h);
        match self.aru_setter {
            Some(p) => {
                h.write_u8(1);
                p.state_hash_into(h);
            }
            None => h.write_u8(0),
        }
        h.write_u32(self.fcc);
        h.write_len(self.rtr.len());
        for s in &self.rtr {
            s.state_hash_into(h);
        }
    }
}

impl StateHash for JoinMessage {
    fn state_hash_into(&self, h: &mut StateHasher) {
        self.sender.state_hash_into(h);
        h.write_u64(self.ring_seq);
        h.write_len(self.proc_set.len());
        for p in &self.proc_set {
            p.state_hash_into(h);
        }
        h.write_len(self.fail_set.len());
        for p in &self.fail_set {
            p.state_hash_into(h);
        }
    }
}

impl StateHash for MemberInfo {
    fn state_hash_into(&self, h: &mut StateHasher) {
        self.pid.state_hash_into(h);
        self.old_ring_id.state_hash_into(h);
        self.my_aru.state_hash_into(h);
        self.high_seq.state_hash_into(h);
        self.safe_seq.state_hash_into(h);
        h.write_bool(self.filled);
    }
}

impl StateHash for CommitToken {
    fn state_hash_into(&self, h: &mut StateHasher) {
        self.ring_id.state_hash_into(h);
        h.write_u32(self.hop);
        h.write_len(self.memb.len());
        for m in &self.memb {
            m.state_hash_into(h);
        }
    }
}

impl StateHash for Message {
    fn state_hash_into(&self, h: &mut StateHasher) {
        match self {
            Message::Data(d) => {
                h.write_u8(1);
                d.state_hash_into(h);
            }
            Message::Token(t) => {
                h.write_u8(2);
                t.state_hash_into(h);
            }
            Message::Join(j) => {
                h.write_u8(3);
                j.state_hash_into(h);
            }
            Message::Commit(c) => {
                h.write_u8(4);
                c.state_hash_into(h);
            }
            Message::HoldCancel { ring_id, pid } => {
                h.write_u8(5);
                ring_id.state_hash_into(h);
                pid.state_hash_into(h);
            }
        }
    }
}

use crate::membership::MembershipState;
use crate::participant::{Mode, Participant};
use crate::recvbuf::RecvBuffer;
use crate::ring::RingInfo;
use crate::sendq::SendQueue;

impl StateHash for Mode {
    fn state_hash_into(&self, h: &mut StateHasher) {
        h.write_u8(match self {
            Mode::Operational => 0,
            Mode::Gather => 1,
            Mode::Commit => 2,
            Mode::Recovery => 3,
        });
    }
}

impl StateHash for RingInfo {
    fn state_hash_into(&self, h: &mut StateHasher) {
        self.id().state_hash_into(h);
        h.write_len(self.members().len());
        for p in self.members() {
            p.state_hash_into(h);
        }
        h.write_len(self.my_index());
    }
}

impl StateHash for RecvBuffer {
    fn state_hash_into(&self, h: &mut StateHasher) {
        self.local_aru().state_hash_into(h);
        self.delivered_up_to().state_hash_into(h);
        self.discarded_up_to().state_hash_into(h);
        let mut n = 0usize;
        for m in self.iter() {
            m.state_hash_into(h);
            n += 1;
        }
        h.write_len(n);
    }
}

impl StateHash for SendQueue {
    fn state_hash_into(&self, h: &mut StateHasher) {
        h.write_len(self.len());
        for m in self.iter() {
            m.service.state_hash_into(h);
            h.write_len(m.payload.len());
            h.write(&m.payload);
        }
    }
}

impl StateHash for MembershipState {
    fn state_hash_into(&self, h: &mut StateHasher) {
        self.timeouts.state_hash_into(h);
        h.write_len(self.proc_set.len());
        for p in &self.proc_set {
            p.state_hash_into(h);
        }
        h.write_len(self.fail_set.len());
        for p in &self.fail_set {
            p.state_hash_into(h);
        }
        h.write_len(self.joins.len());
        for (p, j) in &self.joins {
            p.state_hash_into(h);
            j.state_hash_into(h);
        }
        h.write_u64(self.max_ring_seq);
        match &self.commit_ring {
            Some(r) => {
                h.write_u8(1);
                r.state_hash_into(h);
            }
            None => h.write_u8(0),
        }
        h.write_u32(self.last_commit_hop);
        match &self.rec {
            Some(rec) => {
                h.write_u8(1);
                rec.new_ring.state_hash_into(h);
                rec.commit.state_hash_into(h);
                rec.my_group_high.state_hash_into(h);
                h.write_len(rec.transitional_members.len());
                for p in &rec.transitional_members {
                    p.state_hash_into(h);
                }
            }
            None => h.write_u8(0),
        }
        h.write_len(self.pending_new_ring_data.len());
        for d in &self.pending_new_ring_data {
            d.state_hash_into(h);
        }
        h.write_len(self.prev_rings.len());
        for r in &self.prev_rings {
            r.state_hash_into(h);
        }
        h.write_bool(self.alone_ok);
        h.write_len(self.penalties.len());
        for (p, m) in &self.penalties {
            p.state_hash_into(h);
            h.write_u32(m.score);
            h.write_bool(m.quarantined);
        }
        h.write_u64(self.rounds_since_decay);
    }
}

impl StateHash for Participant {
    fn state_hash_into(&self, h: &mut StateHasher) {
        self.pid.state_hash_into(h);
        self.mode.state_hash_into(h);
        self.ring.state_hash_into(h);
        self.recvbuf.state_hash_into(h);
        self.pending.state_hash_into(h);
        // Ordering state.
        self.ord.round.state_hash_into(h);
        self.ord.prev_token_seq.state_hash_into(h);
        h.write_u32(self.ord.my_prev_sent);
        self.ord.aru_last_sent.state_hash_into(h);
        self.ord.aru_prev_sent.state_hash_into(h);
        match &self.ord.last_sent_token {
            Some(t) => {
                h.write_u8(1);
                t.state_hash_into(h);
            }
            None => h.write_u8(0),
        }
        h.write_u32(self.ord.retransmit_count);
        h.write_bool(self.ord.progress_seen);
        h.write_bool(self.ord.handled_any_token);
        // AIMD degradation state.
        h.write_u32(self.aimd.effective_window);
        h.write_u32(self.aimd.pressured_rounds);
        h.write_u32(self.aimd.clean_rounds);
        self.memb.state_hash_into(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn fnv_basis_and_stability() {
        let h = StateHasher::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = StateHasher::new();
        h.write(b"a");
        // Known FNV-1a("a").
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn length_prefix_prevents_aliasing() {
        // A token with one rtr entry must hash differently from the
        // same token with the entry moved into fcc-adjacent bytes.
        let ring = RingId::new(ParticipantId::new(0), 1);
        let mut a = Token::initial(ring, Seq::ZERO);
        a.rtr = vec![Seq::new(7)];
        let b = Token::initial(ring, Seq::ZERO);
        assert_ne!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn message_kinds_are_domain_separated() {
        let ring = RingId::new(ParticipantId::new(0), 1);
        let t = Message::Token(Token::initial(ring, Seq::ZERO));
        let c = Message::Commit(CommitToken::new(ring, &[ParticipantId::new(0)]));
        assert_ne!(t.state_hash(), c.state_hash());
    }

    #[test]
    fn participant_hash_tracks_protocol_state() {
        use crate::config::ProtocolConfig;
        let members: Vec<ParticipantId> = (0..3).map(ParticipantId::new).collect();
        let ring = RingId::new(members[0], 1);
        let mk = |pid: u16| {
            Participant::new(
                ParticipantId::new(pid),
                ProtocolConfig::accelerated(),
                ring,
                members.clone(),
            )
            .unwrap()
        };
        let p0a = mk(0);
        let p0b = mk(0);
        assert_eq!(
            p0a.state_hash(),
            p0b.state_hash(),
            "identical construction must produce identical hashes"
        );
        assert_ne!(p0a.state_hash(), mk(1).state_hash());

        // Handling input must move the hash: the representative's start
        // processes the initial token.
        let mut p0c = mk(0);
        let before = p0c.state_hash();
        let _ = p0c.start();
        assert_ne!(before, p0c.state_hash());
    }

    #[test]
    fn payload_differences_change_the_hash() {
        let mk = |payload: &'static [u8]| DataMessage {
            ring_id: RingId::new(ParticipantId::new(0), 1),
            seq: Seq::new(1),
            pid: ParticipantId::new(0),
            round: Round::new(1),
            service: ServiceType::Agreed,
            after_token: false,
            payload: Bytes::from_static(payload),
        };
        assert_ne!(mk(b"x").state_hash(), mk(b"y").state_hash());
        assert_eq!(mk(b"x").state_hash(), mk(b"x").state_hash());
    }
}
