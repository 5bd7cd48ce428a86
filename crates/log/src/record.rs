//! Log record framing: the on-disk unit of the segmented log.
//!
//! Every record is laid out as
//!
//! ```text
//! +-------+------+-------+----------+---------+- - - - - -+
//! | magic | kind | flags | len (u32)| crc(u32)|  payload  |
//! |  1 B  | 1 B  |  1 B  |   4 B    |   4 B   |  len B    |
//! +-------+------+-------+----------+---------+- - - - - -+
//! ```
//!
//! big-endian, `magic = 0xA7`; every writer sets `flags = 0`, and a
//! reader refuses any other value. The CRC-32 covers kind, flags, the
//! length field, and the payload — everything except the magic byte and
//! the CRC itself — so a torn write, a bit flip, or a stale block
//! anywhere in the record is detected. Decoding stops at the **first**
//! bad record: a log tail past a CRC failure is unreachable by
//! construction (recovery truncates it), so a corrupt record can never
//! "resurrect" later data.

use bytes::{BufMut, Bytes};

use ar_core::codec::{put_ring_id, ReadError, Reader};
use ar_core::{ParticipantId, RingId, Seq, ServiceType};

use crate::crc::Crc32;

/// First byte of every record.
pub const MAGIC: u8 = 0xA7;

/// Fixed bytes before the payload: magic + kind + flags + len + crc.
pub const RECORD_HEADER_LEN: usize = 1 + 1 + 1 + 4 + 4;

/// Largest admissible record payload. Matches the protocol's maximum
/// data payload with headroom for the record's own framing; anything
/// larger in a length field is corruption, not data.
pub const MAX_RECORD_PAYLOAD: usize = 128 * 1024;

/// Record kind tags (part of the on-disk format; append-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Kind {
    Delivery = 1,
    Cursor = 2,
    Ring = 3,
}

/// An ordered message as persisted at Agreed time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Configuration the message was ordered in.
    pub ring: RingId,
    /// Total-order position.
    pub seq: Seq,
    /// Initiating participant.
    pub pid: ParticipantId,
    /// Delivery service the message was sent with.
    pub service: ServiceType,
    /// Application payload.
    pub payload: Bytes,
}

/// One record of the durable log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// An ordered message, appended when the protocol orders it.
    Delivery(DeliveryRecord),
    /// Delivery cursor: everything up to `seq` in `ring` has been
    /// surfaced to the application. Redelivery after a crash starts
    /// just past the newest cursor.
    Cursor {
        /// Configuration the cursor refers to.
        ring: RingId,
        /// Surfaced-up-to watermark.
        seq: Seq,
    },
    /// Ring identity: the configuration this node last installed, so a
    /// restart can advertise the right ring sequence number when it
    /// re-joins.
    Ring {
        /// The installed configuration.
        ring: RingId,
        /// Its ordered member list.
        members: Vec<ParticipantId>,
    },
}

/// Why a record failed to decode. All variants mean the same thing to
/// recovery: the log ends here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// Fewer bytes than a record header remained.
    TruncatedHeader,
    /// The payload length field ran past the end of the buffer.
    TruncatedPayload {
        /// Bytes the length field promised.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The first byte was not [`MAGIC`].
    BadMagic(u8),
    /// The stored CRC did not match the computed one.
    BadCrc {
        /// Checksum stored in the record.
        stored: u32,
        /// Checksum computed over the record's bytes.
        computed: u32,
    },
    /// The length field exceeded [`MAX_RECORD_PAYLOAD`].
    LengthOutOfRange(usize),
    /// The kind byte named no known record kind (CRC matched, so this
    /// is a format version we do not understand).
    UnknownKind(u8),
    /// The flags byte was not 0 (CRC matched, so this is a format
    /// version we do not understand).
    UnknownFlags(u8),
    /// The payload was shorter or longer than its kind's layout.
    MalformedPayload(&'static str),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::TruncatedHeader => write!(f, "truncated record header"),
            RecordError::TruncatedPayload { needed, have } => {
                write!(f, "truncated payload: need {needed} bytes, have {have}")
            }
            RecordError::BadMagic(b) => write!(f, "bad record magic {b:#04x}"),
            RecordError::BadCrc { stored, computed } => {
                write!(
                    f,
                    "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            RecordError::LengthOutOfRange(len) => write!(f, "record length {len} out of range"),
            RecordError::UnknownKind(k) => write!(f, "unknown record kind {k}"),
            RecordError::UnknownFlags(b) => write!(f, "unknown record flags {b:#04x}"),
            RecordError::MalformedPayload(what) => write!(f, "malformed record payload: {what}"),
        }
    }
}

impl std::error::Error for RecordError {}

/// For reads inside a CRC-checked body, where a short or long read
/// means the payload does not fit its kind's layout.
impl From<ReadError> for RecordError {
    fn from(e: ReadError) -> RecordError {
        match e {
            ReadError::Truncated { .. } => RecordError::MalformedPayload("short for its kind"),
            ReadError::Trailing(_) => RecordError::MalformedPayload("long for its kind"),
        }
    }
}

/// Appends the encoded form of `rec` to `out` and returns the number of
/// bytes written.
pub fn encode_record(rec: &LogRecord, out: &mut Vec<u8>) -> usize {
    let mut body = Vec::new();
    let kind = match rec {
        LogRecord::Delivery(d) => {
            put_ring_id(&mut body, d.ring);
            body.put_u64(d.seq.as_u64());
            body.put_u16(d.pid.as_u16());
            body.put_u8(d.service.as_u8());
            body.put_u32(u32::try_from(d.payload.len()).expect("payload fits u32"));
            body.extend_from_slice(&d.payload);
            Kind::Delivery
        }
        LogRecord::Cursor { ring, seq } => {
            put_ring_id(&mut body, *ring);
            body.put_u64(seq.as_u64());
            Kind::Cursor
        }
        LogRecord::Ring { ring, members } => {
            put_ring_id(&mut body, *ring);
            body.put_u16(u16::try_from(members.len()).expect("member count fits u16"));
            for m in members {
                body.put_u16(m.as_u16());
            }
            Kind::Ring
        }
    };
    debug_assert!(body.len() <= MAX_RECORD_PAYLOAD, "record body oversized");
    let len = u32::try_from(body.len()).expect("body fits u32");
    let flags = 0u8;
    let mut crc = Crc32::new();
    crc.update(&[kind as u8, flags]);
    crc.update(&len.to_be_bytes());
    crc.update(&body);
    let start = out.len();
    out.put_u8(MAGIC);
    out.put_u8(kind as u8);
    out.put_u8(flags);
    out.put_u32(len);
    out.put_u32(crc.finish());
    out.extend_from_slice(&body);
    out.len() - start
}

/// Decodes the record starting at the front of `buf`.
///
/// Returns the record and its total encoded length. An empty buffer is
/// the clean end of the log (`Ok(None)`); any other failure is a torn
/// or corrupt tail.
///
/// # Errors
///
/// Returns a [`RecordError`] describing the first framing violation.
pub fn decode_record(buf: &[u8]) -> Result<Option<(LogRecord, usize)>, RecordError> {
    if buf.is_empty() {
        return Ok(None);
    }
    let mut r = Reader::new(buf);
    let header = |r: &mut Reader<'_>| -> Result<_, ReadError> {
        Ok((r.u8()?, r.u8()?, r.u8()?, r.u32()? as usize, r.u32()?))
    };
    let (magic, kind, flags, len, stored) =
        header(&mut r).map_err(|_| RecordError::TruncatedHeader)?;
    if magic != MAGIC {
        return Err(RecordError::BadMagic(magic));
    }
    if len > MAX_RECORD_PAYLOAD {
        return Err(RecordError::LengthOutOfRange(len));
    }
    let have = r.rest().len();
    let body = r
        .bytes(len)
        .map_err(|_| RecordError::TruncatedPayload { needed: len, have })?;
    let mut crc = Crc32::new();
    crc.update(&[kind, flags]);
    crc.update(&(len as u32).to_be_bytes());
    crc.update(body);
    let computed = crc.finish();
    if computed != stored {
        return Err(RecordError::BadCrc { stored, computed });
    }
    if flags != 0 {
        return Err(RecordError::UnknownFlags(flags));
    }
    let mut r = Reader::new(body);
    let rec = match kind {
        k if k == Kind::Delivery as u8 => LogRecord::Delivery(DeliveryRecord {
            ring: r.ring_id()?,
            seq: Seq::new(r.u64()?),
            pid: ParticipantId::new(r.u16()?),
            service: ServiceType::from_u8(r.u8()?)
                .ok_or(RecordError::MalformedPayload("service type"))?,
            payload: {
                let plen = r.u32()? as usize;
                Bytes::copy_from_slice(r.bytes(plen)?)
            },
        }),
        k if k == Kind::Cursor as u8 => LogRecord::Cursor {
            ring: r.ring_id()?,
            seq: Seq::new(r.u64()?),
        },
        k if k == Kind::Ring as u8 => {
            let ring = r.ring_id()?;
            let n = r.u16()?;
            let members = (0..n)
                .map(|_| r.u16().map(ParticipantId::new))
                .collect::<Result<_, _>>()?;
            LogRecord::Ring { ring, members }
        }
        other => return Err(RecordError::UnknownKind(other)),
    };
    r.finish()?;
    Ok(Some((rec, RECORD_HEADER_LEN + len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_delivery() -> LogRecord {
        LogRecord::Delivery(DeliveryRecord {
            ring: RingId::new(ParticipantId::new(3), 7),
            seq: Seq::new(42),
            pid: ParticipantId::new(1),
            service: ServiceType::Safe,
            payload: Bytes::from_static(b"state machine command"),
        })
    }

    #[test]
    fn round_trips_every_kind() {
        let records = [
            sample_delivery(),
            LogRecord::Cursor {
                ring: RingId::new(ParticipantId::new(0), 9),
                seq: Seq::new(1000),
            },
            LogRecord::Ring {
                ring: RingId::new(ParticipantId::new(0), 9),
                members: (0..5).map(ParticipantId::new).collect(),
            },
        ];
        for rec in &records {
            let mut buf = Vec::new();
            let n = encode_record(rec, &mut buf);
            assert_eq!(n, buf.len());
            let (decoded, used) = decode_record(&buf).unwrap().unwrap();
            assert_eq!(&decoded, rec);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn empty_buffer_is_clean_end() {
        assert_eq!(decode_record(&[]).unwrap(), None);
    }

    #[test]
    fn every_truncation_is_detected() {
        let mut buf = Vec::new();
        encode_record(&sample_delivery(), &mut buf);
        for cut in 1..buf.len() {
            assert!(
                decode_record(&buf[..cut]).is_err(),
                "truncation at {cut} undetected"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let mut buf = Vec::new();
        encode_record(&sample_delivery(), &mut buf);
        for bit in 0..buf.len() * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert!(decode_record(&buf).is_err(), "bit flip {bit} undetected");
            buf[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn nonzero_flags_are_rejected_even_with_a_valid_crc() {
        let mut buf = Vec::new();
        encode_record(&sample_delivery(), &mut buf);
        buf[2] = 1;
        let mut crc = Crc32::new();
        crc.update(&buf[1..7]);
        crc.update(&buf[RECORD_HEADER_LEN..]);
        buf[7..11].copy_from_slice(&crc.finish().to_be_bytes());
        assert_eq!(decode_record(&buf), Err(RecordError::UnknownFlags(1)));
    }

    #[test]
    fn oversized_length_field_rejected_before_allocation() {
        let mut buf = Vec::new();
        encode_record(&sample_delivery(), &mut buf);
        // Forge a huge length; the CRC never gets a chance to matter.
        buf[3..7].copy_from_slice(&(u32::MAX).to_be_bytes());
        assert!(matches!(
            decode_record(&buf),
            Err(RecordError::LengthOutOfRange(_))
        ));
    }
}
