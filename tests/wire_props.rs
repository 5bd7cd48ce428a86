//! Property tests for the wire codec: round-trip fidelity for
//! arbitrary well-formed messages and robustness (no panics) on
//! arbitrary byte soup.

use accelerated_ring::core::wire::{decode, encode, encode_to_scratch, encoded_len, Message};
use accelerated_ring::core::{
    CommitToken, DataMessage, JoinMessage, MemberInfo, ParticipantId, RingId, Round, Seq,
    ServiceType, Token,
};
use bytes::Bytes;
use proptest::prelude::*;

fn arb_pid() -> impl Strategy<Value = ParticipantId> {
    any::<u16>().prop_map(ParticipantId::new)
}

fn arb_ring_id() -> impl Strategy<Value = RingId> {
    (arb_pid(), any::<u64>()).prop_map(|(p, s)| RingId::new(p, s))
}

fn arb_service() -> impl Strategy<Value = ServiceType> {
    prop_oneof![
        Just(ServiceType::Reliable),
        Just(ServiceType::Fifo),
        Just(ServiceType::Causal),
        Just(ServiceType::Agreed),
        Just(ServiceType::Safe),
    ]
}

fn arb_data() -> impl Strategy<Value = DataMessage> {
    (
        arb_ring_id(),
        any::<u64>(),
        arb_pid(),
        any::<u64>(),
        arb_service(),
        any::<bool>(),
        prop::collection::vec(any::<u8>(), 0..2048),
    )
        .prop_map(
            |(ring_id, seq, pid, round, service, after_token, payload)| DataMessage {
                ring_id,
                seq: Seq::new(seq),
                pid,
                round: Round::new(round),
                service,
                after_token,
                payload: Bytes::from(payload),
            },
        )
}

fn arb_token() -> impl Strategy<Value = Token> {
    (
        arb_ring_id(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        prop::option::of(arb_pid()),
        any::<u32>(),
        prop::collection::btree_set(any::<u64>(), 0..64),
    )
        .prop_map(|(ring_id, round, seq, aru, aru_setter, fcc, rtr)| Token {
            ring_id,
            round: Round::new(round),
            seq: Seq::new(seq),
            aru: Seq::new(aru),
            aru_setter,
            fcc,
            rtr: rtr.into_iter().map(Seq::new).collect(),
        })
}

fn arb_join() -> impl Strategy<Value = JoinMessage> {
    (
        arb_pid(),
        prop::collection::btree_set(any::<u16>(), 0..16),
        prop::collection::btree_set(any::<u16>(), 0..16),
        any::<u64>(),
    )
        .prop_map(|(sender, proc_set, fail_set, ring_seq)| JoinMessage {
            sender,
            proc_set: proc_set.into_iter().map(ParticipantId::new).collect(),
            fail_set: fail_set.into_iter().map(ParticipantId::new).collect(),
            ring_seq,
        })
}

fn arb_member_info() -> impl Strategy<Value = MemberInfo> {
    (
        arb_pid(),
        arb_ring_id(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(pid, old_ring_id, aru, high, safe, filled)| MemberInfo {
            pid,
            old_ring_id,
            my_aru: Seq::new(aru),
            high_seq: Seq::new(high),
            safe_seq: Seq::new(safe),
            filled,
        })
}

fn arb_commit() -> impl Strategy<Value = CommitToken> {
    (
        arb_ring_id(),
        prop::collection::vec(arb_member_info(), 1..12),
        any::<u32>(),
    )
        .prop_map(|(ring_id, memb, hop)| CommitToken { ring_id, memb, hop })
}

fn arb_hold_cancel() -> impl Strategy<Value = Message> {
    (arb_ring_id(), arb_pid()).prop_map(|(ring_id, pid)| Message::HoldCancel { ring_id, pid })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        arb_data().prop_map(Message::Data),
        arb_token().prop_map(Message::Token),
        arb_join().prop_map(Message::Join),
        arb_commit().prop_map(Message::Commit),
        arb_hold_cancel(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every well-formed message round-trips exactly, and the
    /// `encoded_len` prediction matches.
    #[test]
    fn roundtrip(msg in arb_message()) {
        let bytes = encode(&msg);
        prop_assert_eq!(bytes.len(), encoded_len(&msg));
        let back = decode(&bytes).expect("decode own encoding");
        prop_assert_eq!(back, msg);
    }

    /// Encoding into a dirty, reused scratch buffer yields exactly the
    /// same bytes as a fresh `encode` for every message kind — no
    /// stale-buffer contamination from whatever was encoded before.
    #[test]
    fn scratch_reuse_matches_fresh_encode(
        first in arb_message(),
        second in arb_message(),
        garbage in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut scratch = bytes::BytesMut::new();
        scratch.extend_from_slice(&garbage);
        let len = encode_to_scratch(&first, &mut scratch);
        prop_assert_eq!(len, encoded_len(&first));
        prop_assert_eq!(&scratch[..], &encode(&first)[..]);
        // Reuse the now-dirty buffer for a different message.
        let len = encode_to_scratch(&second, &mut scratch);
        prop_assert_eq!(len, encoded_len(&second));
        prop_assert_eq!(&scratch[..], &encode(&second)[..]);
        prop_assert_eq!(decode(&scratch).expect("decode scratch encoding"), second);
    }

    /// Arbitrary bytes never panic the decoder (they either decode to a
    /// message or produce a structured error).
    #[test]
    fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(&bytes);
    }

    /// Truncating a valid encoding anywhere yields an error, never a
    /// bogus message or panic.
    #[test]
    fn truncation_always_detected(msg in arb_message(), cut_frac in 0.0f64..1.0) {
        let bytes = encode(&msg);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(decode(&bytes[..cut]).is_err());
        }
    }

    /// A hold cancel is 13 bytes, round-trips, and every strict prefix
    /// is rejected as truncated.
    #[test]
    fn hold_cancel_roundtrip_and_truncation(msg in arb_hold_cancel()) {
        let bytes = encode(&msg);
        prop_assert_eq!(bytes.len(), 13);
        prop_assert_eq!(decode(&bytes).expect("decode own encoding"), msg);
        for cut in 0..bytes.len() {
            let truncated = matches!(
                decode(&bytes[..cut]),
                Err(accelerated_ring::core::wire::WireError::Truncated { .. })
            );
            prop_assert!(truncated, "cut at {}", cut);
        }
    }

    /// Flipping one byte either fails to decode or decodes to *some*
    /// message without panicking (corruption detection is out of scope
    /// per the paper's model, but memory safety is not).
    #[test]
    fn bitflips_never_panic(msg in arb_message(), pos_frac in 0.0f64..1.0, xor in 1u8..255) {
        let mut bytes = encode(&msg).to_vec();
        let pos = ((bytes.len() as f64) * pos_frac) as usize;
        if pos < bytes.len() {
            bytes[pos] ^= xor;
            let _ = decode(&bytes);
        }
    }
}
