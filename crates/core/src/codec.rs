//! The one checked reader every decoder of outside bytes uses: peer
//! datagrams ([`crate::wire`]), daemon envelopes and packed bundles
//! (`ar-daemon`), client frames (`ar-svc`) and log records (`ar-log`).
//!
//! Every read is bounds-checked and fails with [`ReadError::Truncated`]
//! instead of panicking; [`Reader::finish`] rejects leftover input with
//! [`ReadError::Trailing`]. Each codec maps the two into its own error
//! type with a `From` impl. `bytes::BufMut` is the shared writer; only
//! [`put_ring_id`] lives here, so a [`RingId`] has one layout on the
//! wire and on disk.

use bytes::BufMut;

use crate::types::{ParticipantId, RingId};

/// Size in bytes of an encoded [`RingId`]: representative (u16) +
/// ring sequence (u64).
pub const RING_ID_LEN: usize = 2 + 8;

/// Why a [`Reader`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// The input ended before the field was complete.
    Truncated {
        /// How many more bytes the field needed.
        needed: usize,
    },
    /// Bytes followed the last field.
    Trailing(usize),
}

impl core::fmt::Display for ReadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReadError::Truncated { needed } => write!(f, "truncated: {needed} more bytes needed"),
            ReadError::Trailing(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<ReadError> for std::io::Error {
    fn from(e: ReadError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// A checked big-endian cursor over a borrowed byte slice. A failed
/// read of a single field consumes nothing.
///
/// ```
/// use ar_core::codec::{put_ring_id, ReadError, Reader};
/// use ar_core::{ParticipantId, RingId};
///
/// let ring = RingId::new(ParticipantId::new(3), 17);
/// let mut buf = vec![0x01, 0x02];
/// put_ring_id(&mut buf, ring);
/// buf.push(0xff);
/// let mut r = Reader::new(&buf);
/// assert_eq!(r.u16()?, 0x0102);
/// assert_eq!(r.ring_id()?, ring);
/// assert_eq!(r.u16(), Err(ReadError::Truncated { needed: 1 }));
/// assert_eq!(r.rest(), [0xff]);
/// assert_eq!(r.finish(), Err(ReadError::Trailing(1)));
/// # Ok::<(), ReadError>(())
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// The unread input.
    pub fn rest(&self) -> &'a [u8] {
        self.buf
    }

    fn short(&self, n: usize) -> ReadError {
        ReadError::Truncated {
            needed: n - self.buf.len(),
        }
    }

    /// The next `n` bytes. Like every read, fails with
    /// [`ReadError::Truncated`] when fewer remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        let (head, tail) = self.buf.split_at_checked(n).ok_or_else(|| self.short(n))?;
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let (head, tail) = self.buf.split_first_chunk().ok_or_else(|| self.short(N))?;
        self.buf = tail;
        Ok(*head)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        self.array().map(u8::from_be_bytes)
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ReadError> {
        self.array().map(u16::from_be_bytes)
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        self.array().map(u32::from_be_bytes)
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        self.array().map(u64::from_be_bytes)
    }

    /// Reads a [`RingId`] as [`put_ring_id`] wrote it.
    pub fn ring_id(&mut self) -> Result<RingId, ReadError> {
        let rep = ParticipantId::new(self.u16()?);
        Ok(RingId::new(rep, self.u64()?))
    }

    /// Ends the read: [`ReadError::Trailing`] when input is left over.
    pub fn finish(self) -> Result<(), ReadError> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(ReadError::Trailing(n)),
        }
    }
}

/// Writes a [`RingId`] in [`RING_ID_LEN`] bytes.
pub fn put_ring_id(buf: &mut impl BufMut, r: RingId) {
    buf.put_u16(r.representative().as_u16());
    buf.put_u64(r.ring_seq());
}
