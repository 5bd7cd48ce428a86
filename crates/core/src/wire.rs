//! Binary wire format for protocol messages.
//!
//! The format is a hand-rolled, fixed-layout big-endian encoding: one
//! kind byte followed by the message fields. It favors predictable
//! layout and cheap decoding over compactness — exactly the trade the
//! paper's C implementations make. The codec is fully symmetric:
//! [`encode`] and [`decode`] round-trip every well-formed message
//! (verified by property tests), and `decode` rejects malformed input
//! with a descriptive [`WireError`] rather than panicking.

use bytes::{BufMut, Bytes, BytesMut};

use crate::codec::{put_ring_id, ReadError, Reader, RING_ID_LEN};
use crate::message::{CommitToken, DataMessage, JoinMessage, MemberInfo, Token};
use crate::types::{ParticipantId, RingId, Round, Seq, ServiceType};

/// Size in bytes of the encoded header of a data message (everything but
/// the payload).
///
/// kind(1) + ring_id(10) + seq(8) + pid(2) + round(8) + service(1) +
/// flags(1) + payload_len(4).
pub const DATA_HEADER_LEN: usize = 1 + RING_ID_LEN + 8 + 2 + 8 + 1 + 1 + 4;

/// Maximum admissible payload length (64 KiB datagram minus headers,
/// mirroring the largest UDP datagram the paper's large-message
/// experiments use).
pub const MAX_PAYLOAD_LEN: usize = 64 * 1024 - DATA_HEADER_LEN;

/// Maximum number of retransmission requests carried on one token.
pub const MAX_RTR_ENTRIES: usize = 4096;

/// Maximum number of members in a ring (and so on a commit token).
pub const MAX_MEMBERS: usize = 1024;

/// Wire message kind tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Kind {
    Data = 1,
    Token = 2,
    Join = 3,
    Commit = 4,
    HoldCancel = 5,
}

/// Any protocol message, as it appears on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A multicast data message.
    Data(DataMessage),
    /// The regular ordering token.
    Token(Token),
    /// A membership join message.
    Join(JoinMessage),
    /// The membership commit token.
    Commit(CommitToken),
    /// Asks the ring representative to release an idle token it is
    /// holding: `pid` has something to send on ring `ring_id`. Sent and
    /// consumed by the runtime (`ar-net`); the participant ignores it.
    HoldCancel {
        /// The ring whose token should move.
        ring_id: RingId,
        /// The participant with something to send.
        pid: ParticipantId,
    },
}

impl Message {
    /// A short human-readable name for the message kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Message::Data(_) => "data",
            Message::Token(_) => "token",
            Message::Join(_) => "join",
            Message::Commit(_) => "commit",
            Message::HoldCancel { .. } => "hold_cancel",
        }
    }
}

impl From<DataMessage> for Message {
    fn from(m: DataMessage) -> Self {
        Message::Data(m)
    }
}

impl From<Token> for Message {
    fn from(t: Token) -> Self {
        Message::Token(t)
    }
}

impl From<JoinMessage> for Message {
    fn from(j: JoinMessage) -> Self {
        Message::Join(j)
    }
}

impl From<CommitToken> for Message {
    fn from(c: CommitToken) -> Self {
        Message::Commit(c)
    }
}

/// Errors produced while decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the message was complete.
    Truncated {
        /// How many more bytes were needed.
        needed: usize,
    },
    /// The kind byte did not name a known message kind.
    UnknownKind(u8),
    /// The service byte did not name a known service type.
    InvalidService(u8),
    /// A length field exceeded its protocol limit.
    LengthOutOfRange {
        /// Which field was out of range.
        field: &'static str,
        /// The decoded value.
        value: usize,
        /// The maximum admissible value.
        max: usize,
    },
    /// Trailing bytes followed a complete message.
    TrailingBytes(usize),
    /// A flags byte contained bits the protocol does not define.
    InvalidFlags(u8),
    /// A field held bytes a conforming encoder can never produce (the
    /// value decodes unambiguously, but accepting it would make two
    /// distinct byte strings decode to the same message, breaking the
    /// decode-then-re-encode identity the fuzzer asserts).
    NonCanonical {
        /// Which field was non-canonically encoded.
        field: &'static str,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated { needed } => {
                write!(f, "message truncated: {needed} more bytes needed")
            }
            WireError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            WireError::InvalidService(s) => write!(f, "invalid service type {s}"),
            WireError::LengthOutOfRange { field, value, max } => {
                write!(f, "{field} length {value} exceeds maximum {max}")
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::InvalidFlags(b) => write!(f, "invalid flags byte {b:#04x}"),
            WireError::NonCanonical { field } => {
                write!(f, "non-canonical encoding of {field}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a message into a fresh buffer.
///
/// ```
/// use ar_core::wire::{decode, encode, Message};
/// use ar_core::{ParticipantId, RingId, Seq, Token};
///
/// let token = Token::initial(RingId::new(ParticipantId::new(0), 1), Seq::ZERO);
/// let bytes = encode(&Message::Token(token.clone()));
/// assert_eq!(decode(&bytes)?, Message::Token(token));
/// # Ok::<(), ar_core::wire::WireError>(())
/// ```
pub fn encode(msg: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(msg));
    encode_into(msg, &mut buf);
    buf.freeze()
}

/// Returns the exact encoded length of `msg` in bytes.
pub fn encoded_len(msg: &Message) -> usize {
    match msg {
        Message::Data(d) => DATA_HEADER_LEN + d.payload.len(),
        Message::Token(t) => 1 + RING_ID_LEN + 8 + 8 + 8 + 3 + 4 + 4 + 8 * t.rtr.len(),
        Message::Join(j) => 1 + 2 + 8 + 4 + 2 * j.proc_set.len() + 4 + 2 * j.fail_set.len(),
        Message::Commit(c) => 1 + RING_ID_LEN + 4 + 4 + c.memb.len() * MEMBER_INFO_LEN,
        Message::HoldCancel { .. } => HOLD_CANCEL_LEN,
    }
}

const MEMBER_INFO_LEN: usize = 2 + RING_ID_LEN + 8 + 8 + 8 + 1;

/// Size in bytes of an encoded hold cancel: kind(1) + ring_id(10) +
/// pid(2).
pub const HOLD_CANCEL_LEN: usize = 1 + RING_ID_LEN + 2;

/// Encodes a message into a reusable scratch buffer.
///
/// Clears whatever `buf` held (stale bytes from a previous encode are
/// discarded, capacity is kept), reserves the exact encoded length, and
/// appends the encoding. Returns the encoded length. This is the
/// zero-allocation path hot senders use: one `BytesMut` per transport,
/// one encode per logical message, however many peers it fans out to.
///
/// ```
/// use ar_core::wire::{decode, encode_to_scratch, Message};
/// use ar_core::{ParticipantId, RingId, Seq, Token};
/// use bytes::BytesMut;
///
/// let mut scratch = BytesMut::new();
/// let token = Token::initial(RingId::new(ParticipantId::new(0), 1), Seq::ZERO);
/// let n = encode_to_scratch(&Message::Token(token.clone()), &mut scratch);
/// assert_eq!(decode(&scratch[..n])?, Message::Token(token));
/// # Ok::<(), ar_core::wire::WireError>(())
/// ```
pub fn encode_to_scratch(msg: &Message, buf: &mut BytesMut) -> usize {
    buf.clear();
    let len = encoded_len(msg);
    buf.reserve(len);
    encode_into(msg, buf);
    debug_assert_eq!(buf.len(), len);
    len
}

/// Encodes a message, appending to `buf`.
pub fn encode_into(msg: &Message, buf: &mut BytesMut) {
    match msg {
        Message::Data(d) => {
            buf.put_u8(Kind::Data as u8);
            put_ring_id(buf, d.ring_id);
            buf.put_u64(d.seq.as_u64());
            buf.put_u16(d.pid.as_u16());
            buf.put_u64(d.round.as_u64());
            buf.put_u8(d.service.as_u8());
            buf.put_u8(u8::from(d.after_token));
            buf.put_u32(d.payload.len() as u32);
            buf.put_slice(&d.payload);
        }
        Message::Token(t) => {
            buf.put_u8(Kind::Token as u8);
            put_ring_id(buf, t.ring_id);
            buf.put_u64(t.round.as_u64());
            buf.put_u64(t.seq.as_u64());
            buf.put_u64(t.aru.as_u64());
            match t.aru_setter {
                Some(p) => {
                    buf.put_u8(1);
                    buf.put_u16(p.as_u16());
                }
                None => {
                    buf.put_u8(0);
                    buf.put_u16(0);
                }
            }
            buf.put_u32(t.fcc);
            buf.put_u32(t.rtr.len() as u32);
            for s in &t.rtr {
                buf.put_u64(s.as_u64());
            }
        }
        Message::Join(j) => {
            buf.put_u8(Kind::Join as u8);
            buf.put_u16(j.sender.as_u16());
            buf.put_u64(j.ring_seq);
            buf.put_u32(j.proc_set.len() as u32);
            for p in &j.proc_set {
                buf.put_u16(p.as_u16());
            }
            buf.put_u32(j.fail_set.len() as u32);
            for p in &j.fail_set {
                buf.put_u16(p.as_u16());
            }
        }
        Message::Commit(c) => {
            buf.put_u8(Kind::Commit as u8);
            put_ring_id(buf, c.ring_id);
            buf.put_u32(c.hop);
            buf.put_u32(c.memb.len() as u32);
            for m in &c.memb {
                buf.put_u16(m.pid.as_u16());
                put_ring_id(buf, m.old_ring_id);
                buf.put_u64(m.my_aru.as_u64());
                buf.put_u64(m.high_seq.as_u64());
                buf.put_u64(m.safe_seq.as_u64());
                buf.put_u8(u8::from(m.filled));
            }
        }
        Message::HoldCancel { ring_id, pid } => {
            buf.put_u8(Kind::HoldCancel as u8);
            put_ring_id(buf, *ring_id);
            buf.put_u16(pid.as_u16());
        }
    }
}

/// Decodes one complete message from `bytes`.
///
/// # Errors
///
/// Returns a [`WireError`] if the buffer is truncated, contains an
/// unknown kind or service, has out-of-range length fields, or has
/// trailing bytes after the message.
pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader::new(bytes);
    let msg = read_message(&mut r)?;
    r.finish()?;
    Ok(msg)
}

/// Decodes one message from the front of `buf`, advancing it.
///
/// # Errors
///
/// Same as [`decode`], except trailing bytes are left in `buf` rather
/// than rejected (for streaming use).
pub fn decode_from(buf: &mut &[u8]) -> Result<Message, WireError> {
    let mut r = Reader::new(buf);
    let msg = read_message(&mut r)?;
    *buf = r.rest();
    Ok(msg)
}

impl From<ReadError> for WireError {
    fn from(e: ReadError) -> WireError {
        match e {
            ReadError::Truncated { needed } => WireError::Truncated { needed },
            ReadError::Trailing(n) => WireError::TrailingBytes(n),
        }
    }
}

fn read_message(r: &mut Reader<'_>) -> Result<Message, WireError> {
    let kind = r.u8()?;
    match kind {
        k if k == Kind::Data as u8 => {
            let ring_id = r.ring_id()?;
            let seq = Seq::new(r.u64()?);
            let pid = ParticipantId::new(r.u16()?);
            let round = Round::new(r.u64()?);
            let service_raw = r.u8()?;
            let service =
                ServiceType::from_u8(service_raw).ok_or(WireError::InvalidService(service_raw))?;
            let flags = r.u8()?;
            if flags > 1 {
                return Err(WireError::InvalidFlags(flags));
            }
            let len = r.u32()? as usize;
            if len > MAX_PAYLOAD_LEN {
                return Err(WireError::LengthOutOfRange {
                    field: "payload",
                    value: len,
                    max: MAX_PAYLOAD_LEN,
                });
            }
            let payload = Bytes::copy_from_slice(r.bytes(len)?);
            Ok(Message::Data(DataMessage {
                ring_id,
                seq,
                pid,
                round,
                service,
                after_token: flags == 1,
                payload,
            }))
        }
        k if k == Kind::Token as u8 => {
            let ring_id = r.ring_id()?;
            let round = Round::new(r.u64()?);
            let seq = Seq::new(r.u64()?);
            let aru = Seq::new(r.u64()?);
            let has_setter = r.u8()?;
            if has_setter > 1 {
                return Err(WireError::InvalidFlags(has_setter));
            }
            let setter_raw = r.u16()?;
            // An absent setter must carry zero setter bytes: accepting
            // arbitrary bytes here would let two distinct byte strings
            // decode to the same token, breaking the byte-exact
            // re-encode identity the wire fuzzer asserts.
            if has_setter == 0 && setter_raw != 0 {
                return Err(WireError::NonCanonical {
                    field: "aru_setter",
                });
            }
            let aru_setter = (has_setter == 1).then(|| ParticipantId::new(setter_raw));
            let fcc = r.u32()?;
            let n = r.u32()? as usize;
            if n > MAX_RTR_ENTRIES {
                return Err(WireError::LengthOutOfRange {
                    field: "rtr",
                    value: n,
                    max: MAX_RTR_ENTRIES,
                });
            }
            let mut rtr = Vec::with_capacity(n);
            for _ in 0..n {
                rtr.push(Seq::new(r.u64()?));
            }
            Ok(Message::Token(Token {
                ring_id,
                round,
                seq,
                aru,
                aru_setter,
                fcc,
                rtr,
            }))
        }
        k if k == Kind::Join as u8 => {
            let sender = ParticipantId::new(r.u16()?);
            let ring_seq = r.u64()?;
            let proc_set = read_pid_list(r)?;
            let fail_set = read_pid_list(r)?;
            Ok(Message::Join(JoinMessage {
                sender,
                proc_set,
                fail_set,
                ring_seq,
            }))
        }
        k if k == Kind::Commit as u8 => {
            let ring_id = r.ring_id()?;
            let hop = r.u32()?;
            let n = r.u32()? as usize;
            if n > MAX_MEMBERS {
                return Err(WireError::LengthOutOfRange {
                    field: "memb",
                    value: n,
                    max: MAX_MEMBERS,
                });
            }
            let mut memb = Vec::with_capacity(n);
            for _ in 0..n {
                let pid = ParticipantId::new(r.u16()?);
                let old_ring_id = r.ring_id()?;
                let my_aru = Seq::new(r.u64()?);
                let high_seq = Seq::new(r.u64()?);
                let safe_seq = Seq::new(r.u64()?);
                let filled_raw = r.u8()?;
                if filled_raw > 1 {
                    return Err(WireError::InvalidFlags(filled_raw));
                }
                memb.push(MemberInfo {
                    pid,
                    old_ring_id,
                    my_aru,
                    high_seq,
                    safe_seq,
                    filled: filled_raw == 1,
                });
            }
            Ok(Message::Commit(CommitToken { ring_id, memb, hop }))
        }
        k if k == Kind::HoldCancel as u8 => {
            let ring_id = r.ring_id()?;
            let pid = ParticipantId::new(r.u16()?);
            Ok(Message::HoldCancel { ring_id, pid })
        }
        other => Err(WireError::UnknownKind(other)),
    }
}

fn read_pid_list(r: &mut Reader<'_>) -> Result<Vec<ParticipantId>, WireError> {
    let n = r.u32()? as usize;
    if n > MAX_MEMBERS {
        return Err(WireError::LengthOutOfRange {
            field: "pid list",
            value: n,
            max: MAX_MEMBERS,
        });
    }
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(ParticipantId::new(r.u16()?));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> RingId {
        RingId::new(ParticipantId::new(3), 17)
    }

    fn sample_data(payload: &'static [u8]) -> DataMessage {
        DataMessage {
            ring_id: ring(),
            seq: Seq::new(99),
            pid: ParticipantId::new(7),
            round: Round::new(123),
            service: ServiceType::Safe,
            after_token: true,
            payload: Bytes::from_static(payload),
        }
    }

    fn sample_token() -> Token {
        Token {
            ring_id: ring(),
            round: Round::new(55),
            seq: Seq::new(1000),
            aru: Seq::new(990),
            aru_setter: Some(ParticipantId::new(4)),
            fcc: 37,
            rtr: vec![Seq::new(991), Seq::new(993)],
        }
    }

    #[test]
    fn data_roundtrip() {
        let m = Message::Data(sample_data(b"payload bytes"));
        let enc = encode(&m);
        assert_eq!(enc.len(), encoded_len(&m));
        assert_eq!(decode(&enc).unwrap(), m);
    }

    #[test]
    fn data_roundtrip_empty_payload() {
        let m = Message::Data(DataMessage {
            payload: Bytes::new(),
            after_token: false,
            ..sample_data(b"")
        });
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn token_roundtrip() {
        let m = Message::Token(sample_token());
        let enc = encode(&m);
        assert_eq!(enc.len(), encoded_len(&m));
        assert_eq!(decode(&enc).unwrap(), m);
    }

    #[test]
    fn token_roundtrip_no_setter_no_rtr() {
        let mut t = sample_token();
        t.aru_setter = None;
        t.rtr.clear();
        let m = Message::Token(t);
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn join_roundtrip() {
        let m = Message::Join(JoinMessage {
            sender: ParticipantId::new(2),
            proc_set: vec![ParticipantId::new(0), ParticipantId::new(2)],
            fail_set: vec![ParticipantId::new(9)],
            ring_seq: 21,
        });
        let enc = encode(&m);
        assert_eq!(enc.len(), encoded_len(&m));
        assert_eq!(decode(&enc).unwrap(), m);
    }

    #[test]
    fn commit_roundtrip() {
        let mut c = CommitToken::new(ring(), &[ParticipantId::new(0), ParticipantId::new(1)]);
        c.memb[0] = MemberInfo {
            pid: ParticipantId::new(0),
            old_ring_id: RingId::new(ParticipantId::new(0), 5),
            my_aru: Seq::new(44),
            high_seq: Seq::new(50),
            safe_seq: Seq::new(40),
            filled: true,
        };
        c.hop = 3;
        let m = Message::Commit(c);
        let enc = encode(&m);
        assert_eq!(enc.len(), encoded_len(&m));
        assert_eq!(decode(&enc).unwrap(), m);
    }

    #[test]
    fn hold_cancel_roundtrip_is_13_bytes() {
        let m = Message::HoldCancel {
            ring_id: ring(),
            pid: ParticipantId::new(2),
        };
        let enc = encode(&m);
        assert_eq!(enc.len(), 13);
        assert_eq!(enc.len(), encoded_len(&m));
        assert_eq!(decode(&enc).unwrap(), m);
        assert_eq!(m.kind_name(), "hold_cancel");
    }

    #[test]
    fn truncated_input_is_rejected() {
        let enc = encode(&Message::Token(sample_token()));
        for cut in 0..enc.len() {
            let err = decode(&enc[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut} produced {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut enc = encode(&Message::Token(sample_token())).to_vec();
        enc.push(0xAB);
        assert_eq!(decode(&enc).unwrap_err(), WireError::TrailingBytes(1));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        assert_eq!(decode(&[0x77]).unwrap_err(), WireError::UnknownKind(0x77));
        assert_eq!(decode(&[0]).unwrap_err(), WireError::UnknownKind(0));
    }

    #[test]
    fn invalid_service_is_rejected() {
        let mut enc = encode(&Message::Data(sample_data(b"x"))).to_vec();
        // service byte offset: kind(1) + ring(10) + seq(8) + pid(2) + round(8)
        enc[1 + 10 + 8 + 2 + 8] = 250;
        assert_eq!(decode(&enc).unwrap_err(), WireError::InvalidService(250));
    }

    #[test]
    fn invalid_flags_are_rejected() {
        let mut enc = encode(&Message::Data(sample_data(b"x"))).to_vec();
        enc[1 + 10 + 8 + 2 + 8 + 1] = 7;
        assert_eq!(decode(&enc).unwrap_err(), WireError::InvalidFlags(7));
    }

    #[test]
    fn oversized_rtr_count_is_rejected() {
        let mut t = sample_token();
        t.rtr.clear();
        let mut enc = encode(&Message::Token(t)).to_vec();
        let len = enc.len();
        // rtr count is the final u32 before the (empty) rtr list
        enc[len - 4..].copy_from_slice(&(MAX_RTR_ENTRIES as u32 + 1).to_be_bytes());
        assert!(matches!(
            decode(&enc).unwrap_err(),
            WireError::LengthOutOfRange { field: "rtr", .. }
        ));
    }

    #[test]
    fn oversized_payload_len_is_rejected() {
        let mut enc = encode(&Message::Data(sample_data(b""))).to_vec();
        let off = DATA_HEADER_LEN - 4;
        enc[off..off + 4].copy_from_slice(&(MAX_PAYLOAD_LEN as u32 + 1).to_be_bytes());
        assert!(matches!(
            decode(&enc).unwrap_err(),
            WireError::LengthOutOfRange {
                field: "payload",
                ..
            }
        ));
    }

    #[test]
    fn nonzero_setter_bytes_without_flag_are_rejected() {
        // Reproduces the frame the wire fuzzer minimised: a valid
        // setter-less token with one setter byte flipped. Before
        // hardening this decoded Ok (the setter bytes were read and
        // discarded) and re-encoded to different bytes.
        let mut t = sample_token();
        t.aru_setter = None;
        let mut enc = encode(&Message::Token(t)).to_vec();
        // setter bytes offset: kind(1) + ring(10) + round(8) + seq(8) +
        // aru(8) + has_setter(1)
        let off = 1 + 10 + 8 + 8 + 8 + 1;
        assert_eq!(enc[off - 1], 0, "has_setter flag must be clear");
        enc[off + 1] = 0x2A;
        assert_eq!(
            decode(&enc).unwrap_err(),
            WireError::NonCanonical {
                field: "aru_setter"
            }
        );
    }

    #[test]
    fn accepted_tokens_reencode_byte_exactly() {
        // With the non-canonical setter encoding rejected, decode is
        // injective on the accepted set: decode-then-encode must be the
        // identity on bytes, not merely on messages.
        for msg in [
            Message::Token(sample_token()),
            Message::Token(Token::initial(ring(), Seq::ZERO)),
            Message::Data(sample_data(b"abc")),
        ] {
            let enc = encode(&msg);
            let re = encode(&decode(&enc).unwrap());
            assert_eq!(enc, re);
        }
    }

    #[test]
    fn decode_from_leaves_trailing_bytes() {
        let mut enc = encode(&Message::Token(sample_token())).to_vec();
        enc.extend_from_slice(b"rest");
        let mut slice = enc.as_slice();
        let msg = decode_from(&mut slice).unwrap();
        assert_eq!(msg.kind_name(), "token");
        assert_eq!(slice, b"rest");
    }

    #[test]
    fn encode_to_scratch_discards_stale_bytes() {
        let mut scratch = BytesMut::new();
        scratch.extend_from_slice(b"stale garbage from a previous encode");
        let m = Message::Token(sample_token());
        let n = encode_to_scratch(&m, &mut scratch);
        assert_eq!(n, encoded_len(&m));
        assert_eq!(scratch.len(), n);
        assert_eq!(decode(&scratch).unwrap(), m);
        // Reuse for a different kind: still no contamination.
        let m2 = Message::Data(sample_data(b"fresh"));
        let n2 = encode_to_scratch(&m2, &mut scratch);
        assert_eq!(&scratch[..n2], &encode(&m2)[..]);
    }

    #[test]
    fn data_header_len_matches_encoding() {
        let m = Message::Data(sample_data(b""));
        assert_eq!(encode(&m).len(), DATA_HEADER_LEN);
    }

    #[test]
    fn wire_error_display_is_informative() {
        let e = WireError::Truncated { needed: 3 };
        assert!(e.to_string().contains("3 more bytes"));
        let e = WireError::LengthOutOfRange {
            field: "rtr",
            value: 10,
            max: 5,
        };
        assert!(e.to_string().contains("rtr"));
    }
}
