//! One mutation harness for the decoders above the peer wire format:
//! svc client and server frames, daemon envelopes, packed bundles and
//! log records each run through `ar_explore::fuzz::run_codec`, the
//! driver `ar-explore fuzz` uses for `ar_core::wire`. It checks that
//! decode never panics, that whatever it accepts re-encodes
//! byte-exactly, and that unmutated input is accepted. One test runs
//! all five: the driver swaps the global panic hook, which parallel
//! tests in one binary would race on.

use accelerated_ring::core::{ParticipantId, RingId, Seq, ServiceType};
use accelerated_ring::daemon::packing::{decode_bundle, encode_bundle, BundleEntry, Fragment};
use accelerated_ring::daemon::proto::{self, Envelope, MemberId, MAX_NAME};
use accelerated_ring::explore::fuzz::{run_codec, Codec, FuzzConfig};
use accelerated_ring::explore::SplitMix64;
use accelerated_ring::log::crc::crc32;
use accelerated_ring::log::record::MAGIC;
use accelerated_ring::log::RECORD_HEADER_LEN;
use accelerated_ring::log::{decode_record, encode_record, DeliveryRecord, LogRecord};
use accelerated_ring::svc::wire::{
    decode_client, decode_server, encode_client, encode_server, ClientFrame, ResumeToken,
    ServerFrame, PROTOCOL_VERSION,
};
use bytes::Bytes;

/// 0..`n` values drawn with `f`.
fn pick<T>(rng: &mut SplitMix64, n: u64, mut f: impl FnMut(&mut SplitMix64) -> T) -> Vec<T> {
    (0..rng.below(n)).map(|_| f(rng)).collect()
}

/// Lowercase letters: 1..=12, or one in eight at the [`MAX_NAME`] limit.
fn name(rng: &mut SplitMix64) -> String {
    let len = match rng.chance(1, 8) {
        true => MAX_NAME as u64,
        false => 1 + rng.below(12),
    };
    (0..len)
        .map(|_| char::from(b'a' + rng.below(26) as u8))
        .collect()
}

fn payload(rng: &mut SplitMix64) -> Bytes {
    Bytes::from(pick(rng, 33, |rng| rng.next_u64() as u8))
}

fn service(rng: &mut SplitMix64) -> ServiceType {
    ServiceType::from_u8(rng.below(5) as u8).expect("0..5 are services")
}

fn pid(rng: &mut SplitMix64) -> ParticipantId {
    ParticipantId::new(rng.below(6) as u16)
}

fn member(rng: &mut SplitMix64) -> MemberId {
    MemberId::new(pid(rng), name(rng))
}

fn groups(rng: &mut SplitMix64) -> Vec<String> {
    pick(rng, 4, name)
}

fn client_frame(rng: &mut SplitMix64) -> ClientFrame {
    match rng.below(6) {
        0 => ClientFrame::Hello {
            version: PROTOCOL_VERSION,
            name: name(rng),
            resume: rng.chance(1, 2).then(|| ResumeToken {
                session: rng.next_u64(),
                epoch: rng.below(8),
                acked_through: rng.next_u64(),
            }),
        },
        1 => ClientFrame::JoinGroup { group: name(rng) },
        2 => ClientFrame::LeaveGroup { group: name(rng) },
        3 => ClientFrame::Publish {
            id: rng.next_u64(),
            service: service(rng),
            groups: groups(rng),
            payload: payload(rng),
        },
        4 => ClientFrame::Ack {
            through: rng.next_u64(),
        },
        _ => ClientFrame::Goodbye,
    }
}

fn server_frame(rng: &mut SplitMix64) -> ServerFrame {
    match rng.below(9) {
        0 => ServerFrame::Welcome {
            version: PROTOCOL_VERSION,
            daemon: rng.below(6) as u16,
            rings: 1 + rng.below(4) as u16,
            publish_credits: rng.below(256) as u32,
            delivery_window: rng.below(4096) as u32,
            session: rng.next_u64(),
            epoch: rng.below(8),
            resumed: rng.chance(1, 2),
            retained_lo: rng.below(64),
            retained_hi: rng.below(64),
        },
        1 => ServerFrame::Refused { reason: name(rng) },
        2 => ServerFrame::Deliver {
            seq: rng.next_u64(),
            ring_seq: rng.next_u64(),
            shard: rng.below(4) as u16,
            service: service(rng),
            sender: member(rng),
            groups: groups(rng),
            payload: payload(rng),
        },
        3 => ServerFrame::Membership {
            group: name(rng),
            members: pick(rng, 4, member),
        },
        4 => ServerFrame::NetworkChange {
            daemons: pick(rng, 5, |rng| rng.below(6) as u16),
        },
        5 => ServerFrame::CreditGrant {
            acked_id: rng.next_u64(),
            credits: 1 + rng.below(64) as u32,
        },
        6 => ServerFrame::PublishReject {
            id: rng.next_u64(),
            reason: name(rng),
        },
        7 => ServerFrame::Evicted { reason: name(rng) },
        _ => ServerFrame::GroupRejected {
            join: rng.chance(1, 2),
            group: name(rng),
            reason: name(rng),
        },
    }
}

fn envelope(rng: &mut SplitMix64) -> Envelope {
    let member = member(rng);
    match rng.below(3) {
        0 => Envelope::Data {
            sender: member,
            stamp: rng.next_u64(),
            groups: groups(rng),
            payload: payload(rng),
        },
        1 => Envelope::Join {
            member,
            group: name(rng),
        },
        _ => Envelope::Leave {
            member,
            group: name(rng),
        },
    }
}

fn bundle(rng: &mut SplitMix64) -> Vec<BundleEntry> {
    pick(rng, 4, |rng| match rng.chance(1, 2) {
        true => BundleEntry::Whole(envelope(rng)),
        false => BundleEntry::Fragment(Fragment {
            sender: member(rng),
            msg_id: rng.next_u64(),
            stamp: rng.next_u64(),
            idx: rng.below(4) as u32,
            total: 4,
            groups: groups(rng),
            chunk: payload(rng),
        }),
    })
}

fn record(rng: &mut SplitMix64) -> LogRecord {
    let ring = RingId::new(pid(rng), rng.below(8));
    match rng.below(3) {
        0 => LogRecord::Delivery(DeliveryRecord {
            ring,
            seq: Seq::new(rng.next_u64()),
            pid: pid(rng),
            service: service(rng),
            payload: payload(rng),
        }),
        1 => LogRecord::Cursor {
            ring,
            seq: Seq::new(rng.next_u64()),
        },
        _ => LogRecord::Ring {
            ring,
            members: pick(rng, 6, pid),
        },
    }
}

const CLIENT: Codec<ClientFrame> = Codec {
    generate: client_frame,
    encode: |f| encode_client(f).to_vec(),
    decode: |b| decode_client(b).ok(),
};

const SERVER: Codec<ServerFrame> = Codec {
    generate: server_frame,
    encode: |f| encode_server(f).to_vec(),
    decode: |b| decode_server(b).ok(),
};

const ENVELOPE: Codec<Envelope> = Codec {
    generate: envelope,
    encode: |e| proto::encode(e).to_vec(),
    decode: |b| proto::decode(b).ok(),
};

const BUNDLE: Codec<Vec<BundleEntry>> = Codec {
    generate: bundle,
    encode: |b| encode_bundle(b).to_vec(),
    decode: |b| decode_bundle(b).ok(),
};

/// A log record sits behind a CRC that random mutation almost never
/// survives, so the harness fuzzes what the CRC guards: the input is
/// `kind ++ body`, and decode re-seals it with the magic, zero flags,
/// its length and a fresh CRC, and accepts only when `decode_record`
/// consumes all of that.
const LOG: Codec<LogRecord> = Codec {
    generate: record,
    encode: |rec| {
        let mut out = Vec::new();
        encode_record(rec, &mut out);
        [&out[1..2], &out[RECORD_HEADER_LEN..]].concat()
    },
    decode: |input| {
        let (&kind, body) = input.split_first()?;
        let covered = [&[kind, 0], &(body.len() as u32).to_be_bytes()[..], body].concat();
        let sealed = [
            &[MAGIC],
            &covered[..6],
            &crc32(&covered).to_be_bytes(),
            body,
        ]
        .concat();
        match decode_record(&sealed) {
            Ok(Some((rec, used))) if used == sealed.len() => Some(rec),
            _ => None,
        }
    },
};

fn check<T: PartialEq + std::fmt::Debug>(what: &str, codec: &Codec<T>) {
    let report = run_codec(
        codec,
        &FuzzConfig {
            seed: 0xc0de_c5ee_d000_0027,
            iterations: 20_000,
            max_mutations: 3,
        },
    );
    let (accepted, rejected) = (report.accepted, report.rejected);
    println!("{what}: {accepted} accepted, {rejected} rejected");
    assert!(report.is_green(), "{what}: {:#?}", report.failures.first());
    assert!(accepted > 0 && rejected > 0, "{what}: one-sided outcomes");
}

#[test]
fn every_decoder_survives_mutation() {
    check("svc client frames", &CLIENT);
    check("svc server frames", &SERVER);
    check("daemon envelopes", &ENVELOPE);
    check("packed bundles", &BUNDLE);
    check("log records", &LOG);
}
