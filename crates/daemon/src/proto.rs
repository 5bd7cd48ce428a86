//! The client/daemon envelope protocol.
//!
//! Everything a client sends — application multicasts, group joins and
//! leaves — travels through the ring's total order as an [`Envelope`]
//! encoded into the protocol payload. Because group membership changes
//! are themselves totally ordered with respect to data messages, every
//! daemon applies them in the same order and group views stay
//! consistent (the classic Spread design).

use bytes::{BufMut, Bytes, BytesMut};

use ar_core::codec::{ReadError, Reader};
use ar_core::ParticipantId;

/// Maximum length of a client or group name, in bytes.
pub const MAX_NAME: usize = 64;

/// Maximum number of groups one message may target.
pub const MAX_GROUPS: usize = 32;

/// A globally unique member identifier: the client's private name
/// scoped by its daemon — rendered `#client#P3`, like Spread's private
/// group names.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemberId {
    /// The daemon the client is connected to.
    pub daemon: ParticipantId,
    /// The client's name, unique at its daemon.
    pub client: String,
}

impl MemberId {
    /// Creates a member identifier.
    pub fn new(daemon: ParticipantId, client: impl Into<String>) -> MemberId {
        MemberId {
            daemon,
            client: client.into(),
        }
    }
}

impl core::fmt::Display for MemberId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "#{}#{}", self.client, self.daemon)
    }
}

/// A totally ordered client/daemon message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Envelope {
    /// Application data multicast to one or more groups (open-group
    /// semantics: the sender need not be a member of any of them).
    Data {
        /// The sending client.
        sender: MemberId,
        /// The sender's per-publisher sequence number (1-based), or 0
        /// when the publisher does not participate in cross-shard
        /// ordering. The service tier stamps each publish so a
        /// subscriber can restore the publisher's FIFO order across
        /// messages ordered on different ring shards.
        stamp: u64,
        /// Target groups.
        groups: Vec<String>,
        /// The application payload.
        payload: Bytes,
    },
    /// `member` joins `group`.
    Join {
        /// The joining client.
        member: MemberId,
        /// The group being joined.
        group: String,
    },
    /// `member` leaves `group`.
    Leave {
        /// The leaving client.
        member: MemberId,
        /// The group being left.
        group: String,
    },
}

/// Errors decoding an envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Input ended early.
    Truncated,
    /// Unknown envelope kind byte.
    UnknownKind(u8),
    /// A name exceeded [`MAX_NAME`] or a group list exceeded
    /// [`MAX_GROUPS`].
    LimitExceeded(&'static str),
    /// A name was not valid UTF-8.
    BadName,
    /// Bytes followed a complete envelope or bundle.
    TrailingBytes(usize),
}

impl core::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EnvelopeError::Truncated => f.write_str("envelope truncated"),
            EnvelopeError::UnknownKind(k) => write!(f, "unknown envelope kind {k}"),
            EnvelopeError::LimitExceeded(what) => write!(f, "{what} limit exceeded"),
            EnvelopeError::BadName => f.write_str("name is not valid utf-8"),
            EnvelopeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after envelope"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// Encodes an envelope into bytes suitable for a protocol payload.
///
/// # Panics
///
/// Panics if a name exceeds [`MAX_NAME`] or the group list exceeds
/// [`MAX_GROUPS`] — enforce limits at the API boundary.
pub fn encode(env: &Envelope) -> Bytes {
    let mut buf = BytesMut::new();
    match env {
        Envelope::Data {
            sender,
            stamp,
            groups,
            payload,
        } => {
            assert!(groups.len() <= MAX_GROUPS, "too many groups");
            buf.put_u8(1);
            put_member(&mut buf, sender);
            buf.put_u64(*stamp);
            buf.put_u16(groups.len() as u16);
            for g in groups {
                put_name(&mut buf, g);
            }
            buf.put_u32(payload.len() as u32);
            buf.put_slice(payload);
        }
        Envelope::Join { member, group } => {
            buf.put_u8(2);
            put_member(&mut buf, member);
            put_name(&mut buf, group);
        }
        Envelope::Leave { member, group } => {
            buf.put_u8(3);
            put_member(&mut buf, member);
            put_name(&mut buf, group);
        }
    }
    buf.freeze()
}

/// Decodes an envelope from a delivered payload.
///
/// # Errors
///
/// Returns an [`EnvelopeError`] on malformed input, including bytes
/// after the envelope.
pub fn decode(buf: &[u8]) -> Result<Envelope, EnvelopeError> {
    let mut r = Reader::new(buf);
    let env = match r.u8()? {
        1 => {
            let sender = read_member(&mut r)?;
            let stamp = r.u64()?;
            let groups = read_groups(&mut r)?;
            let len = r.u32()? as usize;
            let payload = Bytes::copy_from_slice(r.bytes(len)?);
            Envelope::Data {
                sender,
                stamp,
                groups,
                payload,
            }
        }
        2 => Envelope::Join {
            member: read_member(&mut r)?,
            group: read_name(&mut r)?,
        },
        3 => Envelope::Leave {
            member: read_member(&mut r)?,
            group: read_name(&mut r)?,
        },
        other => return Err(EnvelopeError::UnknownKind(other)),
    };
    r.finish()?;
    Ok(env)
}

fn put_member(buf: &mut BytesMut, m: &MemberId) {
    buf.put_u16(m.daemon.as_u16());
    put_name(buf, &m.client);
}

fn put_name(buf: &mut BytesMut, name: &str) {
    assert!(name.len() <= MAX_NAME, "name too long");
    buf.put_u8(name.len() as u8);
    buf.put_slice(name.as_bytes());
}

impl From<ReadError> for EnvelopeError {
    fn from(e: ReadError) -> EnvelopeError {
        match e {
            ReadError::Truncated { .. } => EnvelopeError::Truncated,
            ReadError::Trailing(n) => EnvelopeError::TrailingBytes(n),
        }
    }
}

/// Reads a member as [`put_member`] wrote it.
pub(crate) fn read_member(r: &mut Reader<'_>) -> Result<MemberId, EnvelopeError> {
    let daemon = ParticipantId::new(r.u16()?);
    let client = read_name(r)?;
    Ok(MemberId { daemon, client })
}

/// Reads a `u16`-counted list of at most [`MAX_GROUPS`] group names.
pub(crate) fn read_groups(r: &mut Reader<'_>) -> Result<Vec<String>, EnvelopeError> {
    let n = r.u16()? as usize;
    if n > MAX_GROUPS {
        return Err(EnvelopeError::LimitExceeded("groups"));
    }
    (0..n).map(|_| read_name(r)).collect()
}

/// Reads a name of at most [`MAX_NAME`] UTF-8 bytes.
fn read_name(r: &mut Reader<'_>) -> Result<String, EnvelopeError> {
    let len = r.u8()? as usize;
    if len > MAX_NAME {
        return Err(EnvelopeError::LimitExceeded("name"));
    }
    let s = std::str::from_utf8(r.bytes(len)?).map_err(|_| EnvelopeError::BadName)?;
    Ok(s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member() -> MemberId {
        MemberId::new(ParticipantId::new(3), "alice")
    }

    #[test]
    fn data_roundtrip() {
        for stamp in [0u64, 1, 42, u64::MAX] {
            let env = Envelope::Data {
                sender: member(),
                stamp,
                groups: vec!["chat".into(), "audit".into()],
                payload: Bytes::from_static(b"hello"),
            };
            assert_eq!(decode(&encode(&env)).unwrap(), env);
        }
    }

    #[test]
    fn join_leave_roundtrip() {
        for env in [
            Envelope::Join {
                member: member(),
                group: "chat".into(),
            },
            Envelope::Leave {
                member: member(),
                group: "chat".into(),
            },
        ] {
            assert_eq!(decode(&encode(&env)).unwrap(), env);
        }
    }

    #[test]
    fn empty_groups_and_payload_roundtrip() {
        let env = Envelope::Data {
            sender: member(),
            stamp: 0,
            groups: vec![],
            payload: Bytes::new(),
        };
        assert_eq!(decode(&encode(&env)).unwrap(), env);
    }

    #[test]
    fn truncation_is_detected() {
        let enc = encode(&Envelope::Join {
            member: member(),
            group: "g".into(),
        });
        for cut in 0..enc.len() {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
        // Data envelopes too — every cut through the stamp and group
        // fields must fail cleanly.
        let enc = encode(&Envelope::Data {
            sender: member(),
            stamp: 7,
            groups: vec!["g".into()],
            payload: Bytes::from_static(b"p"),
        });
        for cut in 0..enc.len() {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = encode(&Envelope::Data {
            sender: member(),
            stamp: 1,
            groups: vec!["g".into()],
            payload: Bytes::from_static(b"p"),
        })
        .to_vec();
        enc.push(0);
        assert_eq!(decode(&enc).unwrap_err(), EnvelopeError::TrailingBytes(1));
    }

    #[test]
    fn unknown_kind_rejected() {
        assert_eq!(decode(&[9]).unwrap_err(), EnvelopeError::UnknownKind(9));
    }

    #[test]
    fn bad_utf8_rejected() {
        // kind=2 (join), daemon=0, client name of length 2 with invalid
        // UTF-8.
        let raw = [2u8, 0, 0, 2, 0xFF, 0xFE, 1, b'g'];
        assert_eq!(decode(&raw).unwrap_err(), EnvelopeError::BadName);
    }

    #[test]
    fn member_id_displays_like_spread_private_names() {
        assert_eq!(member().to_string(), "#alice#P3");
    }

    #[test]
    #[should_panic(expected = "name too long")]
    fn oversized_name_panics_on_encode() {
        let env = Envelope::Join {
            member: MemberId::new(ParticipantId::new(0), "x".repeat(MAX_NAME + 1)),
            group: "g".into(),
        };
        let _ = encode(&env);
    }
}
