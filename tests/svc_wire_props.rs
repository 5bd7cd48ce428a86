//! Property tests for the service-tier client protocol: byte-exact
//! round trips for arbitrary well-formed frames, and robustness (clean
//! errors, never panics) under truncation, bit flips and byte soup.
//! Structure-aware mutation of valid frames runs in the shared codec
//! harness (`tests/codec_harness.rs`).

use accelerated_ring::core::ServiceType;
use accelerated_ring::daemon::MemberId;
use accelerated_ring::svc::wire::{
    decode_client, decode_server, encode_client, encode_server, frame, frame_server, ClientFrame,
    FrameBuf, ResumeToken, ServerFrame, PROTOCOL_VERSION,
};
use bytes::Bytes;
use proptest::prelude::*;

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_-]{0,30}"
}

fn arb_group() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,15}"
}

fn arb_groups() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_group(), 1..5)
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

fn arb_payload() -> impl Strategy<Value = Bytes> {
    prop::collection::vec(any::<u8>(), 0..512).prop_map(Bytes::from)
}

fn arb_member() -> impl Strategy<Value = MemberId> {
    (any::<u16>(), arb_name()).prop_map(|(d, c)| MemberId {
        daemon: accelerated_ring::core::ParticipantId::new(d),
        client: c,
    })
}

fn arb_resume() -> impl Strategy<Value = Option<ResumeToken>> {
    prop_oneof![
        Just(None),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(session, epoch, acked_through)| {
            Some(ResumeToken {
                session,
                epoch,
                acked_through,
            })
        }),
    ]
}

fn arb_client_frame() -> impl Strategy<Value = ClientFrame> {
    prop_oneof![
        (arb_name(), arb_resume()).prop_map(|(name, resume)| ClientFrame::Hello {
            version: PROTOCOL_VERSION,
            name,
            resume,
        }),
        arb_group().prop_map(|group| ClientFrame::JoinGroup { group }),
        arb_group().prop_map(|group| ClientFrame::LeaveGroup { group }),
        (any::<u64>(), arb_service(), arb_groups(), arb_payload()).prop_map(
            |(id, service, groups, payload)| ClientFrame::Publish {
                id,
                service,
                groups,
                payload,
            }
        ),
        any::<u64>().prop_map(|through| ClientFrame::Ack { through }),
        Just(ClientFrame::Goodbye),
    ]
}

fn arb_server_frame() -> impl Strategy<Value = ServerFrame> {
    prop_oneof![
        (
            (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>()),
            (
                any::<u64>(),
                any::<u64>(),
                any::<bool>(),
                any::<u64>(),
                any::<u64>()
            ),
        )
            .prop_map(
                |((daemon, rings, c, w), (session, epoch, resumed, retained_lo, retained_hi))| {
                    ServerFrame::Welcome {
                        version: PROTOCOL_VERSION,
                        daemon,
                        rings,
                        publish_credits: c,
                        delivery_window: w,
                        session,
                        epoch,
                        resumed,
                        retained_lo,
                        retained_hi,
                    }
                }
            ),
        ".{0,60}".prop_map(|reason| ServerFrame::Refused { reason }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u16>(),
            arb_service(),
            arb_member(),
            arb_groups(),
            arb_payload()
        )
            .prop_map(|(seq, ring_seq, shard, service, sender, groups, payload)| {
                ServerFrame::Deliver {
                    seq,
                    ring_seq,
                    shard,
                    service,
                    sender,
                    groups,
                    payload,
                }
            }),
        (arb_group(), prop::collection::vec(arb_member(), 0..6))
            .prop_map(|(group, members)| ServerFrame::Membership { group, members }),
        prop::collection::vec(any::<u16>(), 0..6)
            .prop_map(|daemons| ServerFrame::NetworkChange { daemons }),
        (any::<u64>(), 1..64u32)
            .prop_map(|(acked_id, credits)| ServerFrame::CreditGrant { acked_id, credits }),
        (any::<u64>(), ".{0,60}")
            .prop_map(|(id, reason)| ServerFrame::PublishReject { id, reason }),
        ".{0,60}".prop_map(|reason| ServerFrame::Evicted { reason }),
    ]
}

proptest! {
    /// Client frames survive an encode/decode round trip byte-exactly.
    #[test]
    fn client_frames_roundtrip(f in arb_client_frame()) {
        let bytes = encode_client(&f);
        let back = decode_client(&bytes).expect("well-formed frame decodes");
        prop_assert_eq!(&back, &f);
        // Deterministic encoding: re-encoding is byte-identical.
        prop_assert_eq!(encode_client(&back), bytes);
    }

    /// Server frames survive an encode/decode round trip byte-exactly.
    #[test]
    fn server_frames_roundtrip(f in arb_server_frame()) {
        let bytes = encode_server(&f);
        let back = decode_server(&bytes).expect("well-formed frame decodes");
        prop_assert_eq!(&back, &f);
        prop_assert_eq!(encode_server(&back), bytes);
    }

    /// Encoding straight behind the length prefix yields the bytes of
    /// framing the separately encoded body.
    #[test]
    fn frame_server_matches_frame_of_encode_server(f in arb_server_frame()) {
        prop_assert_eq!(frame_server(&f).expect("small frame"), frame(&encode_server(&f)));
    }

    /// Every truncation of a valid frame errors instead of panicking
    /// (and never misdecodes into a "success").
    #[test]
    fn truncated_frames_error_cleanly(f in arb_client_frame(), g in arb_server_frame()) {
        let c = encode_client(&f);
        for cut in 0..c.len() {
            prop_assert!(decode_client(&c[..cut]).is_err());
        }
        let s = encode_server(&g);
        for cut in 0..s.len() {
            prop_assert!(decode_server(&s[..cut]).is_err());
        }
    }

    /// Single-bit flips of a valid frame never panic the decoders
    /// (they may decode to a different valid frame; they must not
    /// crash or hang).
    #[test]
    fn bit_flips_never_panic(f in arb_client_frame(), g in arb_server_frame()) {
        let c = encode_client(&f);
        for i in 0..c.len().min(128) {
            for bit in 0..8 {
                let mut m = c.to_vec();
                m[i] ^= 1 << bit;
                let _ = decode_client(&m);
                let _ = decode_server(&m);
            }
        }
        let s = encode_server(&g);
        for i in 0..s.len().min(128) {
            for bit in 0..8 {
                let mut m = s.to_vec();
                m[i] ^= 1 << bit;
                let _ = decode_server(&m);
                let _ = decode_client(&m);
            }
        }
    }

    /// Arbitrary byte soup never panics either decoder or the frame
    /// extractor.
    #[test]
    fn byte_soup_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = decode_client(&bytes);
        let _ = decode_server(&bytes);
        let mut fb = FrameBuf::new();
        fb.extend(&bytes);
        // Drain until the extractor stalls or rejects; must terminate.
        while let Ok(Some(_)) = fb.next_frame() {}
    }
}
