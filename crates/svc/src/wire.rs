//! The versioned client service-tier wire protocol.
//!
//! Frames are length-prefixed: a `u32` big-endian length, then a kind
//! byte and fields. Strings carry a `u16` length and must be valid
//! UTF-8. The codec is total: any byte sequence either decodes to a
//! frame or returns an error — it never panics, no matter how the
//! input was truncated or flipped (property-tested in
//! `tests/svc_wire_props.rs`).
//!
//! The protocol is explicitly versioned (Hello/Welcome exchange a
//! version number) and carries the flow-control machinery: client-assigned
//! publish ids, per-connection delivery sequence numbers for window
//! acking, credit grants, and eviction notices.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpStream};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

use ar_core::codec::Reader;
use ar_core::{ParticipantId, ServiceType};
use ar_daemon::proto::{MAX_GROUPS, MAX_NAME};
use ar_daemon::MemberId;
use bytes::{BufMut, Bytes, BytesMut};

/// Current protocol version, exchanged in Hello/Welcome.
///
/// Version 2 (sharded multi-ring): `Welcome` carries the ring count,
/// `Deliver` carries the ordering shard, and `GroupRejected` reports
/// failed join/leave requests instead of silently dropping them.
///
/// Version 3 (session resumption): `Hello` optionally carries a
/// [`ResumeToken`] (session id + epoch + last-acked delivery cursor),
/// `Welcome` returns the session identity, whether the resume was
/// honoured, and the server's retained-delivery range; `Goodbye`
/// distinguishes a deliberate close (session torn down immediately)
/// from a connection drop (session parked for the resume grace
/// period).
pub const PROTOCOL_VERSION: u16 = 3;

/// Frames larger than this are rejected (16 MiB; large application
/// messages are fragmented by the daemon, not by this tier).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Largest encoded Publish body a client may send. Strictly below
/// [`MAX_FRAME`]: the matching Deliver re-frames the same payload with
/// sender, groups, and sequencing headers on top, and must itself stay
/// under the frame cap.
pub const MAX_PUBLISH_BODY: usize = MAX_FRAME - 4096;

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn read_str(r: &mut Reader<'_>) -> io::Result<String> {
    let len = r.u16()? as usize;
    let s = std::str::from_utf8(r.bytes(len)?).map_err(|_| bad("invalid utf-8"))?;
    Ok(s.to_string())
}

/// A flag byte: 0 or 1, anything else is `what`.
fn read_bool(r: &mut Reader<'_>, what: &str) -> io::Result<bool> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(bad(what)),
    }
}

fn read_service(r: &mut Reader<'_>) -> io::Result<ServiceType> {
    ServiceType::from_u8(r.u8()?).ok_or_else(|| bad("bad service"))
}

fn read_member(r: &mut Reader<'_>) -> io::Result<MemberId> {
    let daemon = ParticipantId::new(r.u16()?);
    Ok(MemberId::new(daemon, read_str(r)?))
}

fn read_groups(r: &mut Reader<'_>) -> io::Result<Vec<String>> {
    let n = r.u16()? as usize;
    if n > MAX_GROUPS {
        return Err(bad("too many groups"));
    }
    let mut groups = Vec::with_capacity(n);
    for _ in 0..n {
        let g = read_str(r)?;
        if g.is_empty() || g.len() > MAX_NAME {
            return Err(bad("bad group name"));
        }
        groups.push(g);
    }
    Ok(groups)
}

fn read_payload(r: &mut Reader<'_>) -> io::Result<Bytes> {
    let len = r.u32()? as usize;
    Ok(Bytes::copy_from_slice(r.bytes(len)?))
}

/// Proof of a previous session, presented in
/// [`ClientFrame::Hello`] to resume it after a connection drop.
///
/// The server honours the token only while the session is parked (or
/// still nominally attached to a half-dead socket) **and** the epoch
/// matches the session's current attach generation — a stale token
/// from an older connection cannot hijack a session that has since
/// been resumed elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeToken {
    /// Server-assigned session id (from [`ServerFrame::Welcome`]).
    pub session: u64,
    /// Attach generation; bumped by the server on every successful
    /// attach and returned in the Welcome.
    pub epoch: u64,
    /// Highest delivery sequence the client has consumed — the
    /// redelivery cursor. The server replays retained deliveries
    /// strictly above it.
    pub acked_through: u64,
}

/// Client → server frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientFrame {
    /// Handshake: protocol version and requested private name.
    Hello {
        /// The client's protocol version ([`PROTOCOL_VERSION`]).
        version: u16,
        /// Requested private name (1..=[`MAX_NAME`] bytes).
        name: String,
        /// When set, resume the identified parked session instead of
        /// starting fresh.
        resume: Option<ResumeToken>,
    },
    /// Join a group.
    JoinGroup {
        /// Group name.
        group: String,
    },
    /// Leave a group.
    LeaveGroup {
        /// Group name.
        group: String,
    },
    /// Multicast to groups. Consumes one publish credit; the server
    /// echoes `id` back in the matching [`ServerFrame::CreditGrant`]
    /// (or [`ServerFrame::PublishReject`]).
    Publish {
        /// Client-assigned id, strictly increasing per connection.
        id: u64,
        /// Delivery service level.
        service: ServiceType,
        /// Target groups.
        groups: Vec<String>,
        /// Application payload.
        payload: Bytes,
    },
    /// Consumer progress: every delivery with `seq <= through` has
    /// been consumed, opening delivery-window space.
    Ack {
        /// Highest consumed per-connection delivery sequence.
        through: u64,
    },
    /// Deliberate close: the server tears the session down immediately
    /// (ordered leaves for every joined group) instead of parking it
    /// for the resume grace period.
    Goodbye,
}

/// Server → client frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerFrame {
    /// Handshake accepted; flow-control parameters for this session.
    Welcome {
        /// The server's protocol version.
        version: u16,
        /// The daemon id the client is attached to.
        daemon: u16,
        /// Ring shards the daemon drives (1 = unsharded).
        rings: u16,
        /// Initial publish credits.
        publish_credits: u32,
        /// Delivery window: maximum unacked deliveries in flight.
        delivery_window: u32,
        /// Server-assigned session id — half of the resume token.
        session: u64,
        /// Attach generation (1 on a fresh session; bumped per
        /// successful resume). The other half of the resume token.
        epoch: u64,
        /// True when a presented [`ResumeToken`] was honoured: the
        /// delivery stream continues from the client's cursor. False
        /// on a fresh session (including a rejected resume falling
        /// back to fresh — the client must treat continuity as lost).
        resumed: bool,
        /// Lowest retained delivery sequence the server will replay
        /// (`acked + 1`). On a fresh session this is 1.
        retained_lo: u64,
        /// Highest delivery sequence the server has sent (the top of
        /// the retained range; `retained_hi < retained_lo` means
        /// nothing is retained).
        retained_hi: u64,
    },
    /// Handshake rejected.
    Refused {
        /// Human-readable reason.
        reason: String,
    },
    /// A totally ordered message.
    Deliver {
        /// Per-connection delivery sequence (1-based, contiguous),
        /// acked with [`ClientFrame::Ack`].
        seq: u64,
        /// The ring sequence the message was ordered at (the
        /// total-order position *within its shard*; bundled messages
        /// share it).
        ring_seq: u64,
        /// The ring shard that ordered the message. `(shard,
        /// ring_seq)` is the message's global position coordinate;
        /// ring sequences from different shards are not comparable.
        shard: u16,
        /// Delivery service level.
        service: ServiceType,
        /// The sending client.
        sender: MemberId,
        /// The groups the message was addressed to.
        groups: Vec<String>,
        /// Application payload.
        payload: Bytes,
    },
    /// Group membership changed.
    Membership {
        /// The group.
        group: String,
        /// Complete new membership, canonical order.
        members: Vec<MemberId>,
    },
    /// Ring configuration changed.
    NetworkChange {
        /// Daemons in the new regular configuration.
        daemons: Vec<u16>,
    },
    /// One publish reached Agreed order; its credit is returned.
    CreditGrant {
        /// The client-assigned id of the publish that completed.
        acked_id: u64,
        /// Credits returned (usually 1; more after a backpressure
        /// episode drains).
        credits: u32,
    },
    /// A publish was refused (no credits / invalid); no credit was
    /// consumed and the message was not sent.
    PublishReject {
        /// The client-assigned id of the rejected publish.
        id: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// The server is closing this session (slow consumer, shutdown).
    Evicted {
        /// Human-readable reason.
        reason: String,
    },
    /// A join or leave request failed; the session stays open and the
    /// group state is unchanged.
    GroupRejected {
        /// True for a failed join, false for a failed leave.
        join: bool,
        /// The group the request named.
        group: String,
        /// Human-readable reason.
        reason: String,
    },
}

/// Encodes a client frame (without the length prefix).
pub fn encode_client(frame: &ClientFrame) -> Bytes {
    let mut buf = BytesMut::new();
    match frame {
        ClientFrame::Hello {
            version,
            name,
            resume,
        } => {
            buf.put_u8(1);
            buf.put_u16(*version);
            put_str(&mut buf, name);
            match resume {
                None => buf.put_u8(0),
                Some(t) => {
                    buf.put_u8(1);
                    buf.put_u64(t.session);
                    buf.put_u64(t.epoch);
                    buf.put_u64(t.acked_through);
                }
            }
        }
        ClientFrame::JoinGroup { group } => {
            buf.put_u8(2);
            put_str(&mut buf, group);
        }
        ClientFrame::LeaveGroup { group } => {
            buf.put_u8(3);
            put_str(&mut buf, group);
        }
        ClientFrame::Publish {
            id,
            service,
            groups,
            payload,
        } => {
            buf.put_u8(4);
            buf.put_u64(*id);
            buf.put_u8(service.as_u8());
            buf.put_u16(groups.len() as u16);
            for g in groups {
                put_str(&mut buf, g);
            }
            buf.put_u32(payload.len() as u32);
            buf.put_slice(payload);
        }
        ClientFrame::Ack { through } => {
            buf.put_u8(5);
            buf.put_u64(*through);
        }
        ClientFrame::Goodbye => {
            buf.put_u8(6);
        }
    }
    buf.freeze()
}

/// Decodes a client frame.
///
/// # Errors
///
/// Returns `InvalidData` on any malformed input, including bytes after
/// the frame's last field (never panics).
pub fn decode_client(buf: &[u8]) -> io::Result<ClientFrame> {
    let mut r = Reader::new(buf);
    let frame = match r.u8()? {
        1 => {
            let version = r.u16()?;
            let name = read_str(&mut r)?;
            if name.is_empty() || name.len() > MAX_NAME {
                return Err(bad("bad client name"));
            }
            let resume = if read_bool(&mut r, "bad resume flag")? {
                Some(ResumeToken {
                    session: r.u64()?,
                    epoch: r.u64()?,
                    acked_through: r.u64()?,
                })
            } else {
                None
            };
            ClientFrame::Hello {
                version,
                name,
                resume,
            }
        }
        2 => ClientFrame::JoinGroup {
            group: read_str(&mut r)?,
        },
        3 => ClientFrame::LeaveGroup {
            group: read_str(&mut r)?,
        },
        4 => ClientFrame::Publish {
            id: r.u64()?,
            service: read_service(&mut r)?,
            groups: read_groups(&mut r)?,
            payload: read_payload(&mut r)?,
        },
        5 => ClientFrame::Ack { through: r.u64()? },
        6 => ClientFrame::Goodbye,
        _ => return Err(bad("unknown client frame kind")),
    };
    r.finish()?;
    Ok(frame)
}

/// Encodes a server frame (without the length prefix).
pub fn encode_server(frame: &ServerFrame) -> Bytes {
    let mut buf = BytesMut::new();
    put_server(&mut buf, frame);
    buf.freeze()
}

/// Encodes a server frame straight into a length-prefixed buffer: the
/// bytes of `frame(&encode_server(f))` with one allocation and one
/// copy fewer. The prefix is reserved, the body encoded behind it, and
/// the prefix patched once the body length is known.
///
/// # Errors
///
/// Returns `InvalidData` when the body exceeds [`MAX_FRAME`] (every
/// peer's [`FrameBuf`] would reject it).
pub fn frame_server(frame: &ServerFrame) -> io::Result<Bytes> {
    let mut buf = BytesMut::with_capacity(4 + body_len_hint(frame));
    buf.put_u32(0);
    put_server(&mut buf, frame);
    let body = buf.len() - 4;
    if body > MAX_FRAME {
        return Err(bad("frame body exceeds MAX_FRAME"));
    }
    buf[..4].copy_from_slice(&(body as u32).to_be_bytes());
    Ok(buf.freeze())
}

/// The encoded body length of a Deliver (exact: it carries the bulk of
/// the bytes); a small guess for every other frame.
fn body_len_hint(frame: &ServerFrame) -> usize {
    match frame {
        ServerFrame::Deliver {
            sender,
            groups,
            payload,
            ..
        } => {
            // Kind, seq, ring_seq, shard, service, sender daemon, three
            // length fields (sender name, group count, payload).
            30 + sender.client.len()
                + groups.iter().map(|g| 2 + g.len()).sum::<usize>()
                + payload.len()
        }
        _ => 64,
    }
}

fn put_server(buf: &mut BytesMut, frame: &ServerFrame) {
    match frame {
        ServerFrame::Welcome {
            version,
            daemon,
            rings,
            publish_credits,
            delivery_window,
            session,
            epoch,
            resumed,
            retained_lo,
            retained_hi,
        } => {
            buf.put_u8(1);
            buf.put_u16(*version);
            buf.put_u16(*daemon);
            buf.put_u16(*rings);
            buf.put_u32(*publish_credits);
            buf.put_u32(*delivery_window);
            buf.put_u64(*session);
            buf.put_u64(*epoch);
            buf.put_u8(u8::from(*resumed));
            buf.put_u64(*retained_lo);
            buf.put_u64(*retained_hi);
        }
        ServerFrame::Refused { reason } => {
            buf.put_u8(2);
            put_str(buf, reason);
        }
        ServerFrame::Deliver {
            seq,
            ring_seq,
            shard,
            service,
            sender,
            groups,
            payload,
        } => {
            buf.put_u8(3);
            buf.put_u64(*seq);
            buf.put_u64(*ring_seq);
            buf.put_u16(*shard);
            buf.put_u8(service.as_u8());
            buf.put_u16(sender.daemon.as_u16());
            put_str(buf, &sender.client);
            buf.put_u16(groups.len() as u16);
            for g in groups {
                put_str(buf, g);
            }
            buf.put_u32(payload.len() as u32);
            buf.put_slice(payload);
        }
        ServerFrame::Membership { group, members } => {
            buf.put_u8(4);
            put_str(buf, group);
            buf.put_u16(members.len() as u16);
            for m in members {
                buf.put_u16(m.daemon.as_u16());
                put_str(buf, &m.client);
            }
        }
        ServerFrame::NetworkChange { daemons } => {
            buf.put_u8(5);
            buf.put_u16(daemons.len() as u16);
            for d in daemons {
                buf.put_u16(*d);
            }
        }
        ServerFrame::CreditGrant { acked_id, credits } => {
            buf.put_u8(6);
            buf.put_u64(*acked_id);
            buf.put_u32(*credits);
        }
        ServerFrame::PublishReject { id, reason } => {
            buf.put_u8(7);
            buf.put_u64(*id);
            put_str(buf, reason);
        }
        ServerFrame::Evicted { reason } => {
            buf.put_u8(8);
            put_str(buf, reason);
        }
        ServerFrame::GroupRejected {
            join,
            group,
            reason,
        } => {
            buf.put_u8(9);
            buf.put_u8(u8::from(*join));
            put_str(buf, group);
            put_str(buf, reason);
        }
    }
}

/// Decodes a server frame.
///
/// # Errors
///
/// Returns `InvalidData` on any malformed input, including bytes after
/// the frame's last field (never panics).
pub fn decode_server(buf: &[u8]) -> io::Result<ServerFrame> {
    let mut r = Reader::new(buf);
    let frame = match r.u8()? {
        1 => ServerFrame::Welcome {
            version: r.u16()?,
            daemon: r.u16()?,
            rings: r.u16()?,
            publish_credits: r.u32()?,
            delivery_window: r.u32()?,
            session: r.u64()?,
            epoch: r.u64()?,
            resumed: read_bool(&mut r, "bad resumed flag")?,
            retained_lo: r.u64()?,
            retained_hi: r.u64()?,
        },
        2 => ServerFrame::Refused {
            reason: read_str(&mut r)?,
        },
        3 => ServerFrame::Deliver {
            seq: r.u64()?,
            ring_seq: r.u64()?,
            shard: r.u16()?,
            service: read_service(&mut r)?,
            sender: read_member(&mut r)?,
            groups: read_groups(&mut r)?,
            payload: read_payload(&mut r)?,
        },
        4 => {
            let group = read_str(&mut r)?;
            let n = r.u16()?;
            let members = (0..n)
                .map(|_| read_member(&mut r))
                .collect::<io::Result<_>>()?;
            ServerFrame::Membership { group, members }
        }
        5 => {
            let n = r.u16()?;
            let daemons = (0..n).map(|_| r.u16()).collect::<Result<_, _>>()?;
            ServerFrame::NetworkChange { daemons }
        }
        6 => ServerFrame::CreditGrant {
            acked_id: r.u64()?,
            credits: r.u32()?,
        },
        7 => ServerFrame::PublishReject {
            id: r.u64()?,
            reason: read_str(&mut r)?,
        },
        8 => ServerFrame::Evicted {
            reason: read_str(&mut r)?,
        },
        9 => ServerFrame::GroupRejected {
            join: read_bool(&mut r, "bad join flag")?,
            group: read_str(&mut r)?,
            reason: read_str(&mut r)?,
        },
        _ => return Err(bad("unknown server frame kind")),
    };
    r.finish()?;
    Ok(frame)
}

/// Prepends the `u32` big-endian length prefix to an encoded frame.
///
/// Debug builds assert the [`MAX_FRAME`] bound — a frame above it
/// would be rejected by every peer's [`FrameBuf`] (and a body above
/// `u32::MAX` would silently truncate the prefix). The server frames
/// with [`frame_server`], which returns an error instead.
pub fn frame(body: &[u8]) -> Bytes {
    debug_assert!(
        body.len() <= MAX_FRAME,
        "frame body {} exceeds MAX_FRAME {MAX_FRAME}",
        body.len()
    );
    let mut buf = BytesMut::with_capacity(4 + body.len());
    buf.put_u32(body.len() as u32);
    buf.put_slice(body);
    buf.freeze()
}

/// Most slices handed to one `writev(2)`: Linux's `IOV_MAX`, above
/// which the call fails with `EINVAL`.
pub(crate) const MAX_IOV: usize = 1024;

/// Bounded outgoing frame queue with partial-write tracking, shared by
/// both ends of a connection: the service tier queues Deliver, grant
/// and control frames per client, a client queues its publishes and
/// control frames. [`flush`](WriteBuf::flush) hands the socket every
/// queued frame in one gathered write.
#[derive(Debug, Default)]
pub(crate) struct WriteBuf {
    queue: VecDeque<Bytes>,
    /// Bytes of the front chunk already written.
    offset: usize,
    total: usize,
    /// Frames that left the queue (written, or taken): the front
    /// frame's ticket.
    gone: u64,
}

impl WriteBuf {
    /// Queues a frame and returns its ticket for
    /// [`replace`](Self::replace).
    pub(crate) fn push(&mut self, bytes: Bytes) -> u64 {
        self.total += bytes.len();
        self.queue.push_back(bytes);
        self.gone + self.queue.len() as u64 - 1
    }

    /// Swaps the frame `ticket` names for `bytes` while no byte of it
    /// has been written; false once it is (partly) on the wire or
    /// taken.
    pub(crate) fn replace(&mut self, ticket: u64, bytes: Bytes) -> bool {
        let Some(i) = ticket.checked_sub(self.gone).map(|i| i as usize) else {
            return false;
        };
        if i >= self.queue.len() || (i == 0 && self.offset > 0) {
            return false;
        }
        self.total = self.total - self.queue[i].len() + bytes.len();
        self.queue[i] = bytes;
        true
    }

    /// Bytes still owed to the socket.
    pub(crate) fn len(&self) -> usize {
        self.total
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Writes as much as `w` accepts, handing it every queued frame
    /// (from `offset` into the front one, at most [`MAX_IOV`] per call)
    /// as one vectored write, until drained or WouldBlock. Returns
    /// `Ok(true)` when drained, `Ok(false)` on WouldBlock; calls
    /// `on_write` once per write issued.
    pub(crate) fn flush<W: Write>(
        &mut self,
        w: &mut W,
        mut on_write: impl FnMut(),
    ) -> io::Result<bool> {
        while !self.queue.is_empty() {
            let iov: Vec<IoSlice<'_>> = self
                .queue
                .iter()
                .take(MAX_IOV)
                .enumerate()
                .map(|(i, b)| IoSlice::new(if i == 0 { &b[self.offset..] } else { b }))
                .collect();
            on_write();
            match w.write_vectored(&iov) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.advance(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Empties the queue and returns every frame not yet completely
    /// written, the partly written front one whole: what a fresh
    /// socket must carry after the old one died.
    pub(crate) fn take(&mut self) -> Vec<Bytes> {
        self.offset = 0;
        self.total = 0;
        self.gone += self.queue.len() as u64;
        self.queue.drain(..).collect()
    }

    /// Drops `n` written bytes off the front, across frame boundaries.
    fn advance(&mut self, mut n: usize) {
        self.total -= n;
        while let Some(front) = self.queue.front() {
            let left = front.len() - self.offset;
            if n < left {
                self.offset += n;
                return;
            }
            n -= left;
            self.queue.pop_front();
            self.gone += 1;
            self.offset = 0;
        }
    }
}

/// Either kind of stream socket, for both ends of a connection.
#[derive(Debug)]
pub(crate) enum Sock {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Sock {
    pub(crate) fn fd(&self) -> i32 {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            match self {
                Sock::Tcp(s) => s.as_raw_fd(),
                Sock::Uds(s) => s.as_raw_fd(),
            }
        }
        #[cfg(not(unix))]
        {
            -1
        }
    }

    pub(crate) fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Sock::Tcp(s) => s.set_nonblocking(on),
            #[cfg(unix)]
            Sock::Uds(s) => s.set_nonblocking(on),
        }
    }

    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Sock::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            Sock::Uds(s) => s.set_read_timeout(t),
        }
    }

    pub(crate) fn shutdown(&self) {
        let _ = match self {
            Sock::Tcp(s) => s.shutdown(Shutdown::Both),
            #[cfg(unix)]
            Sock::Uds(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Read for Sock {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Sock::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Sock {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Sock::Uds(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.write_vectored(bufs),
            #[cfg(unix)]
            Sock::Uds(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Incremental frame extraction from a growing byte stream.
///
/// Feed raw socket bytes with [`extend`](FrameBuf::extend); pop
/// complete frames (length prefix stripped) with
/// [`next_frame`](FrameBuf::next_frame). Oversized length prefixes are
/// an error so a corrupt peer cannot make the buffer grow unboundedly.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Consumed prefix; compacted lazily to amortise the memmove.
    head: usize,
}

impl FrameBuf {
    /// Creates an empty buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Appends raw bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (incomplete frame tail).
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// True when no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pops the next complete frame, or `None` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the length prefix exceeds
    /// [`MAX_FRAME`].
    pub fn next_frame(&mut self) -> io::Result<Option<Bytes>> {
        let avail = &self.buf[self.head..];
        if avail.len() < 4 {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > MAX_FRAME {
            return Err(bad("frame too large"));
        }
        if avail.len() < 4 + len {
            self.compact();
            return Ok(None);
        }
        let frame = Bytes::copy_from_slice(&avail[4..4 + len]);
        self.head += 4 + len;
        Ok(Some(frame))
    }

    /// Drops the consumed prefix once it dominates the buffer.
    fn compact(&mut self) {
        if self.head > 0 && self.head >= self.buf.len() / 2 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn client_frames() -> Vec<ClientFrame> {
        vec![
            ClientFrame::Hello {
                version: PROTOCOL_VERSION,
                name: "alice".into(),
                resume: None,
            },
            ClientFrame::Hello {
                version: PROTOCOL_VERSION,
                name: "alice".into(),
                resume: Some(ResumeToken {
                    session: 0xdead_beef_cafe,
                    epoch: 3,
                    acked_through: 4096,
                }),
            },
            ClientFrame::JoinGroup { group: "g".into() },
            ClientFrame::LeaveGroup { group: "g".into() },
            ClientFrame::Publish {
                id: 9,
                service: ServiceType::Agreed,
                groups: vec!["a".into(), "b".into()],
                payload: Bytes::from_static(b"payload"),
            },
            ClientFrame::Ack { through: 1234 },
            ClientFrame::Goodbye,
        ]
    }

    fn server_frames() -> Vec<ServerFrame> {
        vec![
            ServerFrame::Welcome {
                version: PROTOCOL_VERSION,
                daemon: 3,
                rings: 4,
                publish_credits: 64,
                delivery_window: 256,
                session: 0x1122_3344_5566_7788,
                epoch: 2,
                resumed: true,
                retained_lo: 17,
                retained_hi: 40,
            },
            ServerFrame::Refused {
                reason: "nope".into(),
            },
            ServerFrame::Deliver {
                seq: 1,
                ring_seq: 77,
                shard: 2,
                service: ServiceType::Safe,
                sender: MemberId::new(ParticipantId::new(1), "bob"),
                groups: vec!["g".into()],
                payload: Bytes::from_static(b"hi"),
            },
            ServerFrame::Membership {
                group: "g".into(),
                members: vec![
                    MemberId::new(ParticipantId::new(0), "a"),
                    MemberId::new(ParticipantId::new(1), "b"),
                ],
            },
            ServerFrame::NetworkChange {
                daemons: vec![0, 1, 2],
            },
            ServerFrame::CreditGrant {
                acked_id: 9,
                credits: 1,
            },
            ServerFrame::PublishReject {
                id: 10,
                reason: "no credits".into(),
            },
            ServerFrame::Evicted {
                reason: "slow consumer".into(),
            },
            ServerFrame::GroupRejected {
                join: true,
                group: "g".into(),
                reason: "daemon down".into(),
            },
        ]
    }

    #[test]
    fn client_frames_roundtrip() {
        for f in client_frames() {
            let enc = encode_client(&f);
            assert_eq!(decode_client(&enc).unwrap(), f);
        }
    }

    #[test]
    fn server_frames_roundtrip() {
        for f in server_frames() {
            let enc = encode_server(&f);
            assert_eq!(decode_server(&enc).unwrap(), f);
        }
    }

    #[test]
    fn truncations_error_cleanly() {
        for f in client_frames() {
            let enc = encode_client(&f);
            for cut in 0..enc.len() {
                assert!(decode_client(&enc[..cut]).is_err(), "client cut {cut}");
            }
        }
        for f in server_frames() {
            let enc = encode_server(&f);
            for cut in 0..enc.len() {
                assert!(decode_server(&enc[..cut]).is_err(), "server cut {cut}");
            }
        }
    }

    #[test]
    fn trailing_bytes_and_non_boolean_flags_are_rejected() {
        let mut ack = encode_client(&ClientFrame::Ack { through: 5 }).to_vec();
        ack.push(0xAB);
        assert!(decode_client(&ack).is_err());
        for f in server_frames() {
            let mut enc = encode_server(&f).to_vec();
            enc.push(0);
            assert!(decode_server(&enc).is_err(), "{f:?} + junk decoded");
        }
        // Welcome.resumed follows the kind, three u16s, two u32s and two
        // u64s; GroupRejected.join follows the kind.
        for (frame, flag_at) in [(0, 1 + 2 * 3 + 4 * 2 + 8 * 2), (8, 1)] {
            let mut enc = encode_server(&server_frames()[frame]).to_vec();
            assert_eq!(enc[flag_at], 1);
            enc[flag_at] = 2;
            assert!(decode_server(&enc).is_err());
        }
    }

    #[test]
    fn frame_buf_reassembles_split_frames() {
        let a = encode_client(&ClientFrame::Ack { through: 5 });
        let b = encode_client(&ClientFrame::JoinGroup { group: "g".into() });
        let mut stream = Vec::new();
        stream.extend_from_slice(&frame(&a));
        stream.extend_from_slice(&frame(&b));
        // Feed one byte at a time: frames pop exactly at boundaries.
        let mut fb = FrameBuf::new();
        let mut got = Vec::new();
        for byte in stream {
            fb.extend(&[byte]);
            while let Some(f) = fb.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], a);
        assert_eq!(got[1], b);
        assert!(fb.is_empty());
    }

    #[test]
    fn frame_buf_rejects_oversized_prefix() {
        let mut fb = FrameBuf::new();
        fb.extend(&u32::MAX.to_be_bytes());
        assert!(fb.next_frame().is_err());
    }

    #[test]
    fn frame_server_is_frame_of_encode_server() {
        for f in server_frames() {
            assert_eq!(
                frame_server(&f).unwrap(),
                frame(&encode_server(&f)),
                "{f:?}"
            );
        }
    }

    #[test]
    fn frame_server_rejects_a_body_above_max_frame() {
        let deliver = |len: usize| ServerFrame::Deliver {
            seq: 1,
            ring_seq: 1,
            shard: 0,
            service: ServiceType::Agreed,
            sender: MemberId::new(ParticipantId::new(0), "a"),
            groups: vec!["g".into()],
            payload: Bytes::from(vec![0u8; len]),
        };
        // Header: 30 bytes plus the one-byte sender and one group of one.
        let header = 30 + 1 + 3;
        let at_cap = frame_server(&deliver(MAX_FRAME - header)).unwrap();
        assert_eq!(at_cap.len(), 4 + MAX_FRAME);
        assert_eq!(&at_cap[..4], &(MAX_FRAME as u32).to_be_bytes());
        assert!(frame_server(&deliver(MAX_FRAME - header + 1)).is_err());
    }

    /// A socket stand-in that plays a script, one step per write:
    /// `Some(n)` accepts up to `n` bytes gathered across the slices,
    /// `None` is WouldBlock. Past the script it accepts everything.
    struct Scripted {
        script: VecDeque<Option<usize>>,
        out: Vec<u8>,
    }

    impl Scripted {
        fn new(script: &[Option<usize>]) -> Scripted {
            Scripted {
                script: script.iter().copied().collect(),
                out: Vec::new(),
            }
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            assert!(bufs.len() <= MAX_IOV, "{} slices: EINVAL", bufs.len());
            let mut room = match self.script.pop_front() {
                Some(None) => return Err(io::ErrorKind::WouldBlock.into()),
                Some(Some(n)) => n,
                None => usize::MAX,
            };
            let before = self.out.len();
            for b in bufs {
                let take = b.len().min(room);
                self.out.extend_from_slice(&b[..take]);
                room -= take;
            }
            Ok(self.out.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn queued(frames: &[&[u8]]) -> (WriteBuf, Vec<u8>) {
        let mut wbuf = WriteBuf::default();
        for f in frames {
            wbuf.push(Bytes::copy_from_slice(f));
        }
        (wbuf, frames.concat())
    }

    /// Flushes once against `script`, then once against a socket that
    /// takes everything; returns what the first flush left owed.
    fn flush_twice(frames: &[&[u8]], script: &[Option<usize>]) -> usize {
        let (mut wbuf, want) = queued(frames);
        let mut sock = Scripted::new(script);
        assert!(
            !wbuf.flush(&mut sock, || {}).unwrap(),
            "script ends blocked"
        );
        let owed = wbuf.len();
        assert_eq!(owed, want.len() - sock.out.len());
        assert!(wbuf.flush(&mut sock, || {}).unwrap());
        assert_eq!(sock.out, want);
        assert_eq!(wbuf.len(), 0);
        owed
    }

    const A: &[u8] = b"\0\0\0\x03abc";
    const B: &[u8] = b"\0\0\0\x02de";
    const C: &[u8] = b"\0\0\0\x04fghi";

    #[test]
    fn would_block_keeps_every_byte() {
        assert_eq!(flush_twice(&[A, B], &[None]), A.len() + B.len());
    }

    #[test]
    fn one_byte_then_would_block() {
        assert_eq!(
            flush_twice(&[A, B], &[Some(1), None]),
            A.len() + B.len() - 1
        );
    }

    #[test]
    fn split_inside_a_length_prefix() {
        let owed = flush_twice(&[A, B], &[Some(A.len() + 2), None]);
        assert_eq!(owed, B.len() - 2);
    }

    #[test]
    fn split_at_an_exact_frame_boundary() {
        let (mut wbuf, _) = queued(&[A, B, C]);
        let mut sock = Scripted::new(&[Some(A.len()), None]);
        assert!(!wbuf.flush(&mut sock, || {}).unwrap());
        assert_eq!((wbuf.queue.len(), wbuf.offset), (2, 0));
        assert_eq!(
            flush_twice(&[A, B, C], &[Some(A.len()), None]),
            B.len() + C.len()
        );
    }

    #[test]
    fn split_across_several_frames() {
        let (mut wbuf, _) = queued(&[A, B, C]);
        let mut sock = Scripted::new(&[Some(A.len() + B.len() + 1), None]);
        assert!(!wbuf.flush(&mut sock, || {}).unwrap());
        assert_eq!((wbuf.queue.len(), wbuf.offset), (1, 1));
        let script = [Some(A.len() + 2), Some(B.len()), None];
        assert_eq!(flush_twice(&[A, B, C], &script), C.len() - 2);
    }

    #[test]
    fn one_write_carries_every_queued_frame() {
        let (mut wbuf, want) = queued(&[A, B, C]);
        let mut sock = Scripted::new(&[]);
        let mut writes = 0;
        assert!(wbuf.flush(&mut sock, || writes += 1).unwrap());
        assert_eq!(sock.out, want);
        assert_eq!(writes, 1);
    }

    #[test]
    fn more_frames_than_the_slice_cap_drain() {
        let frames: Vec<[u8; 5]> = (0..5000u32).map(|i| [0, 0, 0, 1, i as u8]).collect();
        let refs: Vec<&[u8]> = frames.iter().map(|f| &f[..]).collect();
        let (mut wbuf, want) = queued(&refs);
        let mut sock = Scripted::new(&[]);
        let mut writes = 0;
        assert!(wbuf.flush(&mut sock, || writes += 1).unwrap());
        assert_eq!(sock.out, want);
        assert_eq!(writes, 5000_usize.div_ceil(MAX_IOV));
    }

    #[test]
    fn replace_swaps_only_an_unwritten_frame() {
        let mut wbuf = WriteBuf::default();
        let a = wbuf.push(Bytes::from_static(A));
        let b = wbuf.push(Bytes::from_static(B));
        let mut sock = Scripted::new(&[Some(1), None]);
        assert!(!wbuf.flush(&mut sock, || {}).unwrap());
        assert!(!wbuf.replace(a, Bytes::from_static(C)), "partly written");
        assert!(wbuf.replace(b, Bytes::from_static(C)));
        assert_eq!(wbuf.len(), A.len() - 1 + C.len());
        assert!(wbuf.flush(&mut sock, || {}).unwrap());
        assert_eq!(sock.out, [A, C].concat());
        assert!(!wbuf.replace(b, Bytes::from_static(B)), "written");
        let c = wbuf.push(Bytes::from_static(A));
        wbuf.take();
        let d = wbuf.push(Bytes::from_static(B));
        assert!(!wbuf.replace(c, Bytes::from_static(C)), "taken");
        assert!(wbuf.replace(d, Bytes::from_static(C)));
    }

    #[test]
    fn a_refusing_socket_is_an_error() {
        struct Zero;
        impl Write for Zero {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let (mut wbuf, _) = queued(&[A]);
        let err = wbuf.flush(&mut Zero, || {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(wbuf.len(), A.len());
    }

    proptest! {
        /// Whatever the short-write schedule, the socket sees exactly
        /// the frames' concatenation in order, and `len()` is the bytes
        /// still owed after every call.
        #[test]
        fn any_short_write_schedule_delivers_the_concatenation(
            frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..40), 0..40),
            script in prop::collection::vec(prop::option::of(1..64usize), 0..60),
        ) {
            let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
            let (mut wbuf, want) = queued(&refs);
            let mut sock = Scripted::new(&script);
            loop {
                let drained = wbuf.flush(&mut sock, || {}).unwrap();
                prop_assert_eq!(wbuf.len(), want.len() - sock.out.len());
                prop_assert_eq!(&sock.out[..], &want[..sock.out.len()]);
                if drained {
                    break;
                }
            }
            prop_assert_eq!(sock.out, want);
            prop_assert!(wbuf.queue.is_empty());
        }
    }
}
