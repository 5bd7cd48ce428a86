//! Message packing and large-message fragmentation.
//!
//! Spread improves small-message throughput by *packing* several client
//! messages into one protocol packet (amortizing per-packet protocol
//! and syscall costs), and supports arbitrarily large client messages
//! by *fragmenting* them across protocol packets (§IV-A.3 discusses the
//! packing/fragmentation boundary at the MTU). This module implements
//! both for the daemon:
//!
//! * a **bundle** is the unit carried in one protocol payload: a
//!   sequence of [`Envelope`]s (count-prefixed). The
//!   [`Packer`] greedily fills bundles up to a byte budget.
//! * a client message larger than the budget is split into
//!   [`Envelope::Data`]-like **fragments**; because fragments travel in
//!   the total order they arrive in order, and the [`Reassembler`]
//!   rebuilds the original payload before delivery.

use std::collections::HashMap;

use ar_core::codec::Reader;
use bytes::{BufMut, Bytes, BytesMut};

use crate::proto::{decode, encode, read_groups, read_member, Envelope, EnvelopeError, MemberId};

/// Default bundle budget: fill protocol packets to the paper's
/// 1350-byte payload (one standard-MTU frame with headers).
pub const DEFAULT_BUNDLE_BUDGET: usize = 1350;

/// Hard cap on one fragment's chunk size (the protocol's maximum
/// payload minus bundling overhead).
pub const MAX_CHUNK: usize = 60 * 1024;

/// A fragment of a large client message.
///
/// Fragments are carried as envelopes inside bundles like everything
/// else; the group list travels on every fragment so any daemon can
/// route without per-message state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// The sending client.
    pub sender: MemberId,
    /// Sender-local identifier of the original message.
    pub msg_id: u64,
    /// The sender's per-publisher sequence stamp (see
    /// [`Envelope::Data`]); replicated on each fragment so the
    /// reassembled message keeps it.
    pub stamp: u64,
    /// This fragment's index, `0..total`.
    pub idx: u32,
    /// Total number of fragments of the message.
    pub total: u32,
    /// Target groups (replicated on each fragment).
    pub groups: Vec<String>,
    /// The payload chunk.
    pub chunk: Bytes,
}

/// One entry of a bundle: either a whole envelope or a fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BundleEntry {
    /// A complete envelope.
    Whole(Envelope),
    /// A fragment of a large message.
    Fragment(Fragment),
}

/// Encodes a bundle of entries into one protocol payload.
pub fn encode_bundle(entries: &[BundleEntry]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u16(entries.len() as u16);
    for e in entries {
        match e {
            BundleEntry::Whole(env) => {
                let inner = encode(env);
                buf.put_u8(0);
                buf.put_u32(inner.len() as u32);
                buf.put_slice(&inner);
            }
            BundleEntry::Fragment(f) => {
                buf.put_u8(1);
                buf.put_u16(f.sender.daemon.as_u16());
                buf.put_u8(f.sender.client.len() as u8);
                buf.put_slice(f.sender.client.as_bytes());
                buf.put_u64(f.msg_id);
                buf.put_u64(f.stamp);
                buf.put_u32(f.idx);
                buf.put_u32(f.total);
                buf.put_u16(f.groups.len() as u16);
                for g in &f.groups {
                    buf.put_u8(g.len() as u8);
                    buf.put_slice(g.as_bytes());
                }
                buf.put_u32(f.chunk.len() as u32);
                buf.put_slice(&f.chunk);
            }
        }
    }
    buf.freeze()
}

/// Decodes a bundle from a delivered protocol payload.
///
/// # Errors
///
/// Returns an [`EnvelopeError`] on malformed input, including bytes
/// after the last entry.
pub fn decode_bundle(buf: &[u8]) -> Result<Vec<BundleEntry>, EnvelopeError> {
    let mut r = Reader::new(buf);
    let count = r.u16()? as usize;
    if count > 4096 {
        return Err(EnvelopeError::LimitExceeded("bundle"));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let entry = match r.u8()? {
            0 => {
                let len = r.u32()? as usize;
                BundleEntry::Whole(decode(r.bytes(len)?)?)
            }
            // Fields in encoding order (struct fields evaluate in the
            // order written).
            1 => BundleEntry::Fragment(Fragment {
                sender: read_member(&mut r)?,
                msg_id: r.u64()?,
                stamp: r.u64()?,
                idx: r.u32()?,
                total: r.u32()?,
                groups: read_groups(&mut r)?,
                chunk: {
                    let len = r.u32()? as usize;
                    Bytes::copy_from_slice(r.bytes(len)?)
                },
            }),
            other => return Err(EnvelopeError::UnknownKind(other)),
        };
        out.push(entry);
    }
    r.finish()?;
    Ok(out)
}

/// Greedy packer: queue entries, drain bundles up to a byte budget.
#[derive(Debug)]
pub struct Packer {
    budget: usize,
    queue: std::collections::VecDeque<BundleEntry>,
}

impl Packer {
    /// Creates a packer with the given bundle byte budget.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn new(budget: usize) -> Packer {
        assert!(budget > 0, "bundle budget must be positive");
        Packer {
            budget,
            queue: std::collections::VecDeque::new(),
        }
    }

    /// Queues a whole envelope for bundling.
    pub fn push(&mut self, env: Envelope) {
        self.queue.push_back(BundleEntry::Whole(env));
    }

    /// Queues a large data message, fragmenting it as needed. Messages
    /// that fit in the budget are queued whole.
    pub fn push_data(
        &mut self,
        sender: MemberId,
        groups: Vec<String>,
        payload: Bytes,
        msg_id: u64,
        stamp: u64,
    ) {
        // Leave room for the envelope framing within a bundle.
        let max_whole = self.budget.saturating_sub(96).max(64);
        if payload.len() <= max_whole {
            self.push(Envelope::Data {
                sender,
                stamp,
                groups,
                payload,
            });
            return;
        }
        let chunk_size = max_whole.min(MAX_CHUNK);
        let total = payload.len().div_ceil(chunk_size) as u32;
        for (idx, chunk) in payload.chunks(chunk_size).enumerate() {
            self.queue.push_back(BundleEntry::Fragment(Fragment {
                sender: sender.clone(),
                msg_id,
                stamp,
                idx: idx as u32,
                total,
                groups: groups.clone(),
                chunk: Bytes::copy_from_slice(chunk),
            }));
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Drains the next bundle (up to the byte budget), or `None` if
    /// nothing is queued. A single oversized entry is emitted alone.
    pub fn next_bundle(&mut self) -> Option<Bytes> {
        if self.queue.is_empty() {
            return None;
        }
        let mut entries = Vec::new();
        let mut size = 2; // count prefix
        while let Some(front) = self.queue.front() {
            let entry_size = 5 + approx_entry_len(front);
            if !entries.is_empty() && size + entry_size > self.budget {
                break;
            }
            size += entry_size;
            entries.push(self.queue.pop_front().expect("non-empty"));
        }
        Some(encode_bundle(&entries))
    }
}

fn approx_entry_len(e: &BundleEntry) -> usize {
    match e {
        BundleEntry::Whole(env) => match env {
            Envelope::Data {
                sender,
                groups,
                payload,
                ..
            } => {
                24 + sender.client.len()
                    + groups.iter().map(|g| g.len() + 1).sum::<usize>()
                    + payload.len()
            }
            Envelope::Join { member, group } | Envelope::Leave { member, group } => {
                8 + member.client.len() + group.len()
            }
        },
        BundleEntry::Fragment(f) => {
            40 + f.sender.client.len()
                + f.groups.iter().map(|g| g.len() + 1).sum::<usize>()
                + f.chunk.len()
        }
    }
}

/// Rebuilds fragmented messages from the ordered fragment stream.
#[derive(Debug, Default)]
pub struct Reassembler {
    partial: HashMap<(MemberId, u64), PartialMessage>,
}

#[derive(Debug)]
struct PartialMessage {
    next_idx: u32,
    total: u32,
    stamp: u64,
    groups: Vec<String>,
    buf: BytesMut,
}

impl Reassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Reassembler {
        Reassembler::default()
    }

    /// Number of in-progress messages.
    pub fn in_progress(&self) -> usize {
        self.partial.len()
    }

    /// Feeds one fragment; returns the completed message (sender,
    /// stamp, groups, payload) when the last fragment arrives.
    ///
    /// Fragments travel in the total order, so they arrive in index
    /// order; out-of-order or inconsistent fragments (only possible
    /// through a bug or corruption) drop the partial message.
    pub fn feed(&mut self, f: Fragment) -> Option<(MemberId, u64, Vec<String>, Bytes)> {
        let key = (f.sender.clone(), f.msg_id);
        if f.idx == 0 {
            self.partial.insert(
                key.clone(),
                PartialMessage {
                    next_idx: 0,
                    total: f.total,
                    stamp: f.stamp,
                    groups: f.groups.clone(),
                    buf: BytesMut::new(),
                },
            );
        }
        let Some(p) = self.partial.get_mut(&key) else {
            return None; // never saw fragment 0: drop
        };
        if f.idx != p.next_idx || f.total != p.total || f.stamp != p.stamp {
            self.partial.remove(&key);
            return None;
        }
        p.buf.extend_from_slice(&f.chunk);
        p.next_idx += 1;
        if p.next_idx == p.total {
            let done = self.partial.remove(&key).expect("present");
            Some((f.sender, done.stamp, done.groups, done.buf.freeze()))
        } else {
            None
        }
    }

    /// Drops partial messages from senders at daemons not in `daemons`
    /// (configuration change: those messages can never complete).
    pub fn retain_daemons(&mut self, daemons: &[ar_core::ParticipantId]) {
        self.partial.retain(|(m, _), _| daemons.contains(&m.daemon));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_core::ParticipantId;

    fn member() -> MemberId {
        MemberId::new(ParticipantId::new(1), "c")
    }

    fn data(n: usize) -> Envelope {
        Envelope::Data {
            sender: member(),
            stamp: 0,
            groups: vec!["g".into()],
            payload: Bytes::from(vec![7u8; n]),
        }
    }

    #[test]
    fn bundle_roundtrip_whole() {
        let entries = vec![
            BundleEntry::Whole(data(10)),
            BundleEntry::Whole(Envelope::Join {
                member: member(),
                group: "g".into(),
            }),
        ];
        let enc = encode_bundle(&entries);
        assert_eq!(decode_bundle(&enc).unwrap(), entries);
    }

    #[test]
    fn bundle_roundtrip_fragment() {
        let entries = vec![BundleEntry::Fragment(Fragment {
            sender: member(),
            msg_id: 42,
            stamp: 7,
            idx: 1,
            total: 3,
            groups: vec!["a".into(), "b".into()],
            chunk: Bytes::from_static(b"chunk-data"),
        })];
        let enc = encode_bundle(&entries);
        assert_eq!(decode_bundle(&enc).unwrap(), entries);
    }

    #[test]
    fn truncated_bundles_error() {
        let entries = vec![BundleEntry::Whole(data(20))];
        let enc = encode_bundle(&entries);
        for cut in 0..enc.len() {
            assert!(decode_bundle(&enc[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn fragment_names_obey_the_envelope_name_limit() {
        let client = "x".repeat(crate::proto::MAX_NAME + 1);
        let enc = encode_bundle(&[BundleEntry::Fragment(Fragment {
            sender: MemberId::new(ParticipantId::new(1), client),
            msg_id: 1,
            stamp: 0,
            idx: 0,
            total: 1,
            groups: vec![],
            chunk: Bytes::new(),
        })]);
        let err = decode_bundle(&enc).unwrap_err();
        assert_eq!(err, EnvelopeError::LimitExceeded("name"));
    }

    #[test]
    fn bytes_after_the_last_entry_are_rejected() {
        let mut enc = encode_bundle(&[BundleEntry::Whole(data(3))]).to_vec();
        enc.extend_from_slice(b"junk");
        let err = decode_bundle(&enc).unwrap_err();
        assert_eq!(err, EnvelopeError::TrailingBytes(4));
    }

    #[test]
    fn packer_fills_to_budget() {
        let mut p = Packer::new(1350);
        for _ in 0..10 {
            p.push(data(400));
        }
        let bundle = p.next_bundle().unwrap();
        let entries = decode_bundle(&bundle).unwrap();
        assert!(entries.len() > 1, "small messages are packed together");
        assert!(entries.len() < 10, "but not beyond the budget");
        assert!(bundle.len() <= 1350 + 500, "close to budget");
        // Remaining entries drain in subsequent bundles.
        let mut total = entries.len();
        while let Some(b) = p.next_bundle() {
            total += decode_bundle(&b).unwrap().len();
        }
        assert_eq!(total, 10);
    }

    #[test]
    fn packer_emits_oversized_entry_alone() {
        let mut p = Packer::new(256);
        p.push(data(10));
        p.push(data(500)); // exceeds budget but was pushed whole
        let first = decode_bundle(&p.next_bundle().unwrap()).unwrap();
        assert_eq!(first.len(), 1);
        let second = decode_bundle(&p.next_bundle().unwrap()).unwrap();
        assert_eq!(second.len(), 1);
        assert!(p.next_bundle().is_none());
    }

    #[test]
    fn push_data_fragments_large_messages() {
        let mut p = Packer::new(1350);
        let payload = Bytes::from(vec![3u8; 5000]);
        p.push_data(member(), vec!["g".into()], payload.clone(), 77, 9);
        let mut frags = Vec::new();
        while let Some(b) = p.next_bundle() {
            for e in decode_bundle(&b).unwrap() {
                match e {
                    BundleEntry::Fragment(f) => frags.push(f),
                    BundleEntry::Whole(_) => panic!("should be fragmented"),
                }
            }
        }
        assert!(frags.len() >= 4, "{} fragments", frags.len());
        // Reassemble.
        let mut r = Reassembler::new();
        let mut done = None;
        for f in frags {
            if let Some(d) = r.feed(f) {
                done = Some(d);
            }
        }
        let (sender, stamp, groups, rebuilt) = done.expect("reassembled");
        assert_eq!(sender, member());
        assert_eq!(stamp, 9, "stamp survives fragmentation");
        assert_eq!(groups, vec!["g".to_string()]);
        assert_eq!(rebuilt, payload);
        assert_eq!(r.in_progress(), 0);
    }

    #[test]
    fn small_push_data_stays_whole() {
        let mut p = Packer::new(1350);
        p.push_data(
            member(),
            vec!["g".into()],
            Bytes::from_static(b"tiny"),
            1,
            0,
        );
        let entries = decode_bundle(&p.next_bundle().unwrap()).unwrap();
        assert!(matches!(entries[0], BundleEntry::Whole(_)));
    }

    #[test]
    fn reassembler_interleaves_senders() {
        let a = MemberId::new(ParticipantId::new(0), "a");
        let b = MemberId::new(ParticipantId::new(1), "b");
        let mut r = Reassembler::new();
        let frag = |m: &MemberId, idx, total, byte: u8| Fragment {
            sender: m.clone(),
            msg_id: 1,
            stamp: 0,
            idx,
            total,
            groups: vec!["g".into()],
            chunk: Bytes::from(vec![byte; 4]),
        };
        assert!(r.feed(frag(&a, 0, 2, 1)).is_none());
        assert!(r.feed(frag(&b, 0, 2, 2)).is_none());
        let done_a = r.feed(frag(&a, 1, 2, 1)).unwrap();
        assert_eq!(done_a.3, Bytes::from(vec![1u8; 8]));
        let done_b = r.feed(frag(&b, 1, 2, 2)).unwrap();
        assert_eq!(done_b.3, Bytes::from(vec![2u8; 8]));
    }

    #[test]
    fn reassembler_drops_orphan_and_inconsistent_fragments() {
        let mut r = Reassembler::new();
        let f = Fragment {
            sender: member(),
            msg_id: 9,
            stamp: 0,
            idx: 1, // never saw 0
            total: 2,
            groups: vec![],
            chunk: Bytes::from_static(b"x"),
        };
        assert!(r.feed(f.clone()).is_none());
        assert_eq!(r.in_progress(), 0);
        // Start properly, then feed an inconsistent total.
        let f0 = Fragment {
            idx: 0,
            ..f.clone()
        };
        assert!(r.feed(f0).is_none());
        let bad = Fragment {
            idx: 1,
            total: 5,
            ..f
        };
        assert!(r.feed(bad).is_none());
        assert_eq!(
            r.in_progress(),
            0,
            "inconsistent fragment drops the partial"
        );
    }

    #[test]
    fn reassembler_retain_daemons_drops_partitioned_partials() {
        let mut r = Reassembler::new();
        let f0 = Fragment {
            sender: member(), // daemon 1
            msg_id: 5,
            stamp: 0,
            idx: 0,
            total: 2,
            groups: vec![],
            chunk: Bytes::from_static(b"x"),
        };
        r.feed(f0).map(|_| ()).unwrap_or(());
        assert_eq!(r.in_progress(), 1);
        r.retain_daemons(&[ParticipantId::new(0)]);
        assert_eq!(r.in_progress(), 0);
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_panics() {
        let _ = Packer::new(0);
    }
}
