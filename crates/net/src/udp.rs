//! UDP transport: the paper's dual-socket design over real sockets,
//! with a batched, event-driven datapath.
//!
//! Each participant binds **two** UDP sockets — one for token (and
//! commit-token) messages, one for data (and join) messages — on
//! distinct ports, exactly as Section III-D describes: "we accomplish
//! this by sending token and data messages on different ports and using
//! different sockets for receiving the two message types".
//!
//! Multicast is *logical*: data messages are fanned out by unicast to
//! every peer. The paper's implementations use IP-multicast when
//! available, with unicast fanout as Spread's built-in fallback; we
//! implement the fallback because it works on any network (including
//! loopback test setups) with no multicast routing or socket-option
//! requirements. The protocol is agnostic to the difference.
//!
//! ## Datapath
//!
//! The protocol's throughput ceiling is set by per-packet cost on the
//! hot path (§III, §IV-B), so the transport batches both directions:
//!
//! * **Send**: every outgoing message is encoded exactly once into a
//!   pooled [`BytesMut`] scratch buffer
//!   ([`ar_core::wire::encode_to_scratch`]); a fan-out reuses that one
//!   encoding for every peer. On Linux ([`DatapathMode::Batched`])
//!   queued datagrams go out via `sendmmsg(2)` — a multicast, or a
//!   whole pre-token burst inside a [`Transport::begin_batch`] /
//!   [`Transport::end_batch`] section, costs O(1) syscalls.
//! * **Receive**: `recv` waits on **both** sockets with `ppoll(2)` (no
//!   sleep loop, no artificial token-hop latency) and drains ready
//!   datagrams with `recvmmsg(2)` into two inbound queues (token
//!   channel, data channel), honoring the priority preference on pop.
//!   An attached wake ([`Transport::attach_wake`]) is polled beside the
//!   sockets, so another thread's command ends the wait at once.
//!
//! [`DatapathMode::Portable`] is the fallback for non-Linux platforms
//! (and can be bound explicitly anywhere with
//! [`UdpTransport::bind_with_mode`]): a loop of `send_to`/`recv_from`
//! syscalls with the original 50 µs sleep-poll wait. The protocol
//! semantics are identical in both modes; only the syscall count and
//! wakeup latency differ. See DESIGN.md ("UDP datapath") for the full
//! fallback matrix.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use ar_core::{Message, ParticipantId};
use bytes::BytesMut;

use crate::metrics::NetMetrics;
use crate::poll::WakeReceiver;
use crate::transport::{is_token_channel, Transport};

/// Address book for a UDP deployment: each participant's token and
/// data socket addresses.
#[derive(Debug, Clone, Default)]
pub struct PeerMap {
    peers: BTreeMap<ParticipantId, PeerAddrs>,
}

/// One participant's socket addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerAddrs {
    /// Where the peer receives token and commit-token messages.
    pub token: SocketAddr,
    /// Where the peer receives data and join messages.
    pub data: SocketAddr,
}

impl PeerMap {
    /// Creates an empty map.
    pub fn new() -> PeerMap {
        PeerMap::default()
    }

    /// A localhost address book for `n` participants starting at
    /// `base_port`: participant `i` receives tokens on
    /// `base_port + 2*i` and data on `base_port + 2*i + 1`.
    ///
    /// Participants whose port pair would not fit below `u16::MAX` are
    /// omitted (the map simply ends early), so a base port near 65535
    /// yields a short map rather than an arithmetic panic.
    pub fn localhost(n: u16, base_port: u16) -> PeerMap {
        let mut map = PeerMap::new();
        for i in 0..n {
            let token_port = u32::from(base_port) + 2 * u32::from(i);
            let data_port = token_port + 1;
            let (Ok(token_port), Ok(data_port)) =
                (u16::try_from(token_port), u16::try_from(data_port))
            else {
                break; // port space exhausted: stop, don't wrap or panic
            };
            map.insert(
                ParticipantId::new(i),
                PeerAddrs {
                    token: SocketAddr::from(([127, 0, 0, 1], token_port)),
                    data: SocketAddr::from(([127, 0, 0, 1], data_port)),
                },
            );
        }
        map
    }

    /// Adds or replaces a participant's addresses.
    pub fn insert(&mut self, pid: ParticipantId, addrs: PeerAddrs) -> &mut PeerMap {
        self.peers.insert(pid, addrs);
        self
    }

    /// Looks up a participant's addresses.
    pub fn get(&self, pid: ParticipantId) -> Option<PeerAddrs> {
        self.peers.get(&pid).copied()
    }

    /// Number of participants in the map.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True if the map is empty.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Iterates over all participants and addresses.
    pub fn iter(&self) -> impl Iterator<Item = (ParticipantId, PeerAddrs)> + '_ {
        self.peers.iter().map(|(&p, &a)| (p, a))
    }
}

/// How the transport talks to the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatapathMode {
    /// Linux batched path: `ppoll(2)` readiness waits,
    /// `sendmmsg(2)`/`recvmmsg(2)` datagram batching.
    Batched,
    /// Portable path: one syscall per datagram and a 50 µs sleep-poll
    /// receive wait. Works everywhere `std` does.
    Portable,
}

impl DatapathMode {
    /// The default for this platform: [`Batched`](DatapathMode::Batched)
    /// on Linux, [`Portable`](DatapathMode::Portable) elsewhere.
    pub fn auto() -> DatapathMode {
        if cfg!(target_os = "linux") {
            DatapathMode::Batched
        } else {
            DatapathMode::Portable
        }
    }
}

/// Datapath counters, exposed for benches and tests via
/// [`UdpTransport::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UdpStats {
    /// Datagrams handed to the kernel (one per peer per fan-out).
    pub datagrams_tx: u64,
    /// Datagrams received and decoded successfully.
    pub datagrams_rx: u64,
    /// Inbound datagrams dropped because they failed to decode.
    pub decode_drops: u64,
    /// Send-side syscalls issued (`sendmmsg` calls or `send_to` calls).
    pub send_syscalls: u64,
    /// Receive-side syscalls issued (`recvmmsg` or `recv_from` calls),
    /// excluding readiness waits.
    pub recv_syscalls: u64,
    /// Hard send errors surfaced to the caller.
    pub send_errors: u64,
}

/// Which of the two sockets a datagram travels on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chan {
    Token,
    Data,
}

fn chan_of(msg: &Message) -> Chan {
    if is_token_channel(msg) {
        Chan::Token
    } else {
        Chan::Data
    }
}

/// One queued outbound datagram: an index into the scratch-buffer
/// arena plus its destination.
#[derive(Debug, Clone, Copy)]
struct QueuedSend {
    chan: Chan,
    buf: usize,
    addr: SocketAddr,
}

/// Largest datagram we send or receive (the 64 KiB UDP maximum, which
/// the paper's large-message experiments rely on).
const MAX_DATAGRAM: usize = 65_507;

/// Datagrams per `recvmmsg(2)` call (also the number of preallocated
/// receive buffers in batched mode).
const RECV_BATCH: usize = 16;

/// Datagrams per `sendmmsg(2)` call.
const SEND_BATCH: usize = 64;

/// Cap on datagrams drained from one socket per sweep, so a flooded
/// data socket cannot starve the token socket (or timers) forever.
const SWEEP_CAP: usize = 256;

/// Pending-send queue length that forces a flush even inside a batch
/// section.
const MAX_PENDING: usize = 1024;

/// Scratch buffers kept pooled between sends.
const BUF_POOL_MAX: usize = 64;

/// Sleep quantum of the portable receive wait.
const PORTABLE_POLL: Duration = Duration::from_micros(50);

/// A dual-socket UDP transport for one participant.
#[derive(Debug)]
pub struct UdpTransport {
    pid: ParticipantId,
    token_sock: UdpSocket,
    data_sock: UdpSocket,
    peers: PeerMap,
    mode: DatapathMode,
    /// Decoded inbound messages by arrival socket, awaiting pop.
    inbound_token: VecDeque<Message>,
    inbound_data: VecDeque<Message>,
    /// Receive buffers: `RECV_BATCH` in batched mode, 1 in portable.
    recv_bufs: Vec<Vec<u8>>,
    /// Outbound datagrams queued for the next flush.
    pending: Vec<QueuedSend>,
    /// Arena of encoded messages the queue entries point into (one
    /// buffer per logical message, shared by its whole fan-out).
    pending_bufs: Vec<BytesMut>,
    /// Recycled scratch buffers.
    buf_pool: Vec<BytesMut>,
    /// True between `begin_batch` and `end_batch`: sends are deferred.
    batching: bool,
    stats: UdpStats,
    /// Wire-decode drop counter mirrored into [`NetMetrics`], when
    /// instrumented.
    decode_drop_metric: Option<ar_telemetry::Counter>,
    /// Polled beside the two sockets in batched mode, so another thread
    /// can end a blocked receive ([`Transport::attach_wake`]).
    wake: Option<WakeReceiver>,
}

impl UdpTransport {
    /// Binds the participant's two sockets per `peers[pid]` and
    /// connects the transport to the address book, using the platform's
    /// default [`DatapathMode`].
    ///
    /// # Errors
    ///
    /// Returns an error if `pid` is missing from the map or a socket
    /// cannot be bound.
    pub fn bind(pid: ParticipantId, peers: PeerMap) -> io::Result<UdpTransport> {
        UdpTransport::bind_with_mode(pid, peers, DatapathMode::auto())
    }

    /// [`bind`](UdpTransport::bind) with an explicit datapath mode.
    /// Requesting [`DatapathMode::Batched`] on a non-Linux platform
    /// silently uses the portable path instead.
    ///
    /// # Errors
    ///
    /// As for [`bind`](UdpTransport::bind).
    pub fn bind_with_mode(
        pid: ParticipantId,
        peers: PeerMap,
        mode: DatapathMode,
    ) -> io::Result<UdpTransport> {
        let addrs = peers.get(pid).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{pid} not present in peer map"),
            )
        })?;
        let mode = if cfg!(target_os = "linux") {
            mode
        } else {
            DatapathMode::Portable
        };
        let token_sock = UdpSocket::bind(addrs.token)?;
        let data_sock = UdpSocket::bind(addrs.data)?;
        token_sock.set_nonblocking(true)?;
        data_sock.set_nonblocking(true)?;
        let n_bufs = match mode {
            DatapathMode::Batched => RECV_BATCH,
            DatapathMode::Portable => 1,
        };
        Ok(UdpTransport {
            pid,
            token_sock,
            data_sock,
            peers,
            mode,
            inbound_token: VecDeque::new(),
            inbound_data: VecDeque::new(),
            recv_bufs: (0..n_bufs).map(|_| vec![0u8; MAX_DATAGRAM]).collect(),
            pending: Vec::new(),
            pending_bufs: Vec::new(),
            buf_pool: Vec::new(),
            batching: false,
            stats: UdpStats::default(),
            decode_drop_metric: None,
            wake: None,
        })
    }

    /// The active datapath mode.
    pub fn mode(&self) -> DatapathMode {
        self.mode
    }

    /// A snapshot of the datapath counters.
    pub fn stats(&self) -> UdpStats {
        self.stats
    }

    /// Mirrors transport-level drop counters into the node's
    /// [`NetMetrics`] (currently: malformed-datagram decode drops).
    pub fn set_metrics(&mut self, metrics: &NetMetrics) {
        self.decode_drop_metric = Some(metrics.wire_decode_drops.clone());
    }

    fn sock(&self, chan: Chan) -> &UdpSocket {
        match chan {
            Chan::Token => &self.token_sock,
            Chan::Data => &self.data_sock,
        }
    }

    /// Encodes `msg` once into a pooled scratch buffer and queues one
    /// datagram per target. Outside a batch section this flushes
    /// immediately (a multicast is still one `sendmmsg`).
    fn queue_send(
        &mut self,
        msg: &Message,
        targets: impl Iterator<Item = SocketAddr>,
    ) -> io::Result<()> {
        let chan = chan_of(msg);
        let mut queued = false;
        let mut buf_idx = 0;
        for addr in targets {
            if !queued {
                let mut buf = self.buf_pool.pop().unwrap_or_default();
                ar_core::wire::encode_to_scratch(msg, &mut buf);
                buf_idx = self.pending_bufs.len();
                self.pending_bufs.push(buf);
                queued = true;
            }
            self.pending.push(QueuedSend {
                chan,
                buf: buf_idx,
                addr,
            });
        }
        if !self.batching || self.pending.len() >= MAX_PENDING {
            self.flush_pending()
        } else {
            Ok(())
        }
    }

    /// Sends everything queued, batching contiguous same-socket runs
    /// into `sendmmsg(2)` calls (batched mode) or looping `send_to`
    /// (portable mode). Every datagram is attempted; the first hard
    /// error is surfaced only after the whole queue has been tried, so
    /// one refusing peer cannot starve the rest of a fan-out.
    fn flush_pending(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let pending = std::mem::take(&mut self.pending);
        let mut first_err: Option<io::Error> = None;
        let mut i = 0;
        while i < pending.len() {
            let chan = pending[i].chan;
            let mut j = i;
            while j < pending.len() && pending[j].chan == chan {
                j += 1;
            }
            self.flush_run(chan, &pending[i..j], &mut first_err);
            i = j;
        }
        // Recycle the arena.
        for buf in self.pending_bufs.drain(..) {
            if self.buf_pool.len() < BUF_POOL_MAX {
                self.buf_pool.push(buf);
            }
        }
        match first_err {
            Some(e) => {
                self.stats.send_errors += 1;
                Err(e)
            }
            None => Ok(()),
        }
    }

    /// Sends one contiguous same-socket run.
    fn flush_run(&mut self, chan: Chan, run: &[QueuedSend], first_err: &mut Option<io::Error>) {
        match self.mode {
            #[cfg(target_os = "linux")]
            DatapathMode::Batched => self.flush_run_batched(chan, run, first_err),
            #[cfg(not(target_os = "linux"))]
            DatapathMode::Batched => unreachable!("batched mode is Linux-only"),
            DatapathMode::Portable => self.flush_run_portable(chan, run, first_err),
        }
    }

    fn flush_run_portable(
        &mut self,
        chan: Chan,
        run: &[QueuedSend],
        first_err: &mut Option<io::Error>,
    ) {
        for q in run {
            let bytes = &self.pending_bufs[q.buf];
            self.stats.send_syscalls += 1;
            match self.sock(chan).send_to(bytes, q.addr) {
                Ok(_) => self.stats.datagrams_tx += 1,
                // Full buffers and unreachable peers are "loss"; the
                // protocol's retransmission machinery recovers.
                Err(e) if is_soft_send_error(&e) => {}
                // Hard error: remember it, keep fanning out.
                Err(e) => {
                    if first_err.is_none() {
                        *first_err = Some(e);
                    }
                }
            }
        }
    }

    #[cfg(target_os = "linux")]
    fn flush_run_batched(
        &mut self,
        chan: Chan,
        run: &[QueuedSend],
        first_err: &mut Option<io::Error>,
    ) {
        use crate::sys;
        use std::os::fd::AsRawFd;

        let fd = self.sock(chan).as_raw_fd();
        for chunk in run.chunks(SEND_BATCH) {
            // Build the mmsghdr array only after the addr and iovec
            // vectors are complete (no reallocation moves the memory
            // the headers point into).
            let mut addrs: Vec<sys::RawSockAddr> =
                chunk.iter().map(|q| sys::raw_sockaddr(&q.addr)).collect();
            let mut iovs: Vec<sys::IoVec> = chunk
                .iter()
                .map(|q| {
                    let bytes = &self.pending_bufs[q.buf];
                    sys::IoVec {
                        base: bytes.as_ptr() as *mut u8,
                        len: bytes.len(),
                    }
                })
                .collect();
            let mut hdrs: Vec<sys::MMsgHdr> = (0..chunk.len())
                .map(|k| {
                    let mut h = sys::MsgHdr::zeroed();
                    h.name = addrs[k].bytes.as_mut_ptr();
                    h.namelen = addrs[k].len;
                    h.iov = &mut iovs[k];
                    h.iovlen = 1;
                    sys::MMsgHdr { hdr: h, len: 0 }
                })
                .collect();
            // Attempt the whole chunk: a failing datagram is skipped
            // (soft errors are loss, hard errors are remembered) and
            // the remainder is retried from the next slot.
            let mut off = 0;
            while off < hdrs.len() {
                self.stats.send_syscalls += 1;
                match sys::sendmmsg_once(fd, &mut hdrs[off..]) {
                    Ok(sent) => {
                        self.stats.datagrams_tx += sent as u64;
                        off += sent.max(1);
                    }
                    Err(e) if is_soft_send_error(&e) => off += 1,
                    Err(e) => {
                        if first_err.is_none() {
                            *first_err = Some(e);
                        }
                        off += 1;
                    }
                }
            }
        }
    }

    /// Pops the next inbound message honoring the channel preference.
    fn pop_inbound(&mut self, prefer_token: bool) -> Option<Message> {
        if prefer_token {
            self.inbound_token
                .pop_front()
                .or_else(|| self.inbound_data.pop_front())
        } else {
            self.inbound_data
                .pop_front()
                .or_else(|| self.inbound_token.pop_front())
        }
    }

    fn inbound_is_empty(&self) -> bool {
        self.inbound_token.is_empty() && self.inbound_data.is_empty()
    }

    fn note_decode_drop(&mut self) {
        self.stats.decode_drops += 1;
        if let Some(c) = &self.decode_drop_metric {
            c.inc();
        }
    }

    /// Drains every ready datagram on both sockets (non-blocking) into
    /// the inbound queues. A malformed datagram is dropped and counted,
    /// and the drain continues — queued valid datagrams behind it are
    /// still surfaced in the same sweep.
    fn sweep_sockets(&mut self, prefer_token: bool) -> io::Result<()> {
        let order = if prefer_token {
            [Chan::Token, Chan::Data]
        } else {
            [Chan::Data, Chan::Token]
        };
        for chan in order {
            match self.mode {
                #[cfg(target_os = "linux")]
                DatapathMode::Batched => self.sweep_sock_batched(chan)?,
                #[cfg(not(target_os = "linux"))]
                DatapathMode::Batched => unreachable!("batched mode is Linux-only"),
                DatapathMode::Portable => self.sweep_sock_portable(chan)?,
            }
        }
        Ok(())
    }

    /// Decodes one received datagram and queues it on its channel.
    fn queue_decoded(&mut self, chan: Chan, bytes: &[u8]) {
        match ar_core::wire::decode(bytes) {
            Ok(msg) => {
                self.stats.datagrams_rx += 1;
                match chan {
                    Chan::Token => self.inbound_token.push_back(msg),
                    Chan::Data => self.inbound_data.push_back(msg),
                }
            }
            Err(_) => self.note_decode_drop(),
        }
    }

    fn sweep_sock_portable(&mut self, chan: Chan) -> io::Result<()> {
        let mut bufs = std::mem::take(&mut self.recv_bufs);
        let res = self.sweep_sock_portable_inner(chan, &mut bufs[0]);
        self.recv_bufs = bufs;
        res
    }

    fn sweep_sock_portable_inner(&mut self, chan: Chan, buf: &mut [u8]) -> io::Result<()> {
        let mut drained = 0;
        while drained < SWEEP_CAP {
            self.stats.recv_syscalls += 1;
            match self.sock(chan).recv_from(buf) {
                Ok((n, _)) => {
                    self.queue_decoded(chan, &buf[..n]);
                    drained += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // A previous send to a dead peer can surface here as
                // ECONNREFUSED; it carries no datagram. Treat the
                // socket as drained for this sweep.
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    #[cfg(target_os = "linux")]
    fn sweep_sock_batched(&mut self, chan: Chan) -> io::Result<()> {
        let mut bufs = std::mem::take(&mut self.recv_bufs);
        let res = self.sweep_sock_batched_inner(chan, &mut bufs);
        self.recv_bufs = bufs;
        res
    }

    #[cfg(target_os = "linux")]
    fn sweep_sock_batched_inner(&mut self, chan: Chan, bufs: &mut [Vec<u8>]) -> io::Result<()> {
        use crate::sys;
        use std::os::fd::AsRawFd;

        let fd = self.sock(chan).as_raw_fd();
        let mut drained = 0;
        while drained < SWEEP_CAP {
            let mut iovs: Vec<sys::IoVec> = bufs
                .iter_mut()
                .map(|b| sys::IoVec {
                    base: b.as_mut_ptr(),
                    len: b.len(),
                })
                .collect();
            let mut hdrs: Vec<sys::MMsgHdr> = iovs
                .iter_mut()
                .map(|iov| {
                    let mut h = sys::MsgHdr::zeroed();
                    h.iov = iov;
                    h.iovlen = 1;
                    sys::MMsgHdr { hdr: h, len: 0 }
                })
                .collect();
            self.stats.recv_syscalls += 1;
            let got = match sys::recvmmsg_once(fd, &mut hdrs) {
                Ok(got) => got,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => break,
                Err(e) => return Err(e),
            };
            for (idx, hdr) in hdrs[..got].iter().enumerate() {
                self.queue_decoded(chan, &bufs[idx][..hdr.len as usize]);
                drained += 1;
            }
            if got < bufs.len() {
                break; // short batch: socket is drained
            }
        }
        Ok(())
    }

    /// Blocks until a socket is readable, the attached wake fires, or
    /// `timeout` elapses. Returns true when the wake fired; it is
    /// drained only here, after a wait that blocked, so a busy loop that
    /// never waits leaves it armed and its wakers pay one atomic swap.
    fn wait_readable(&mut self, timeout: Duration) -> io::Result<bool> {
        match self.mode {
            #[cfg(target_os = "linux")]
            DatapathMode::Batched => {
                use crate::sys;
                use std::os::fd::AsRawFd;
                let pollfd = |fd| sys::PollFd {
                    fd,
                    events: sys::POLLIN,
                    revents: 0,
                };
                // ppoll(2) skips a negative descriptor: no wake attached.
                let mut fds = [
                    pollfd(self.token_sock.as_raw_fd()),
                    pollfd(self.data_sock.as_raw_fd()),
                    pollfd(self.wake.as_ref().map_or(-1, WakeReceiver::fd)),
                ];
                sys::poll_ready(&mut fds, timeout)?;
                let Some(wake) = self.wake.as_ref().filter(|_| fds[2].revents != 0) else {
                    return Ok(false);
                };
                wake.drain();
                Ok(true)
            }
            #[cfg(not(target_os = "linux"))]
            DatapathMode::Batched => unreachable!("batched mode is Linux-only"),
            DatapathMode::Portable => {
                // Brief sleep instead of poll(2): the dependency-free
                // fallback for platforms without the FFI shim.
                std::thread::sleep(timeout.min(PORTABLE_POLL));
                Ok(false)
            }
        }
    }
}

fn is_soft_send_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::ConnectionRefused
    )
}

impl Transport for UdpTransport {
    fn local_pid(&self) -> ParticipantId {
        self.pid
    }

    fn send_to(&mut self, to: ParticipantId, msg: &Message) -> io::Result<()> {
        let Some(addrs) = self.peers.get(to) else {
            return Ok(()); // unknown peer: silently dropped, like the network would
        };
        let addr = match chan_of(msg) {
            Chan::Token => addrs.token,
            Chan::Data => addrs.data,
        };
        self.queue_send(msg, std::iter::once(addr))
    }

    fn multicast(&mut self, msg: &Message) -> io::Result<()> {
        let chan = chan_of(msg);
        let me = self.pid;
        let targets: Vec<SocketAddr> = self
            .peers
            .iter()
            .filter(|&(p, _)| p != me)
            .map(|(_, a)| match chan {
                Chan::Token => a.token,
                Chan::Data => a.data,
            })
            .collect();
        self.queue_send(msg, targets.into_iter())
    }

    fn recv(&mut self, prefer_token: bool, timeout: Duration) -> io::Result<Option<Message>> {
        // Never wait for replies while our own sends sit queued.
        self.flush_pending()?;
        if let Some(m) = self.pop_inbound(prefer_token) {
            return Ok(Some(m));
        }
        let deadline = Instant::now() + timeout;
        let mut woken = false;
        loop {
            self.sweep_sockets(prefer_token)?;
            if let Some(m) = self.pop_inbound(prefer_token) {
                return Ok(Some(m));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if woken || remaining.is_zero() {
                return Ok(None);
            }
            woken = self.wait_readable(remaining)?;
        }
    }

    fn recv_batch(
        &mut self,
        prefer_token: bool,
        timeout: Duration,
        max: usize,
        out: &mut Vec<Message>,
    ) -> io::Result<usize> {
        if max == 0 {
            return Ok(0);
        }
        self.flush_pending()?;
        let deadline = Instant::now() + timeout;
        let mut woken = false;
        loop {
            self.sweep_sockets(prefer_token)?;
            if !self.inbound_is_empty() {
                break;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if woken || remaining.is_zero() {
                return Ok(0);
            }
            woken = self.wait_readable(remaining)?;
        }
        let mut n = 0;
        while n < max {
            match self.pop_inbound(prefer_token) {
                Some(m) => {
                    out.push(m);
                    n += 1;
                }
                None => break,
            }
        }
        Ok(n)
    }

    fn begin_batch(&mut self) {
        self.batching = true;
    }

    fn end_batch(&mut self) -> io::Result<()> {
        self.batching = false;
        self.flush_pending()
    }

    /// Accepted in [`DatapathMode::Batched`] only: the portable path
    /// sleep-polls and has no descriptor wait to add the wake to.
    fn attach_wake(&mut self, wake: WakeReceiver) -> bool {
        if self.mode != DatapathMode::Batched {
            return false;
        }
        self.wake = Some(wake);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_core::{RingId, Seq, Token};

    fn pid(v: u16) -> ParticipantId {
        ParticipantId::new(v)
    }

    /// Binds transports on OS-assigned ports by probing a base port
    /// (checked arithmetic: probing near the top of the port space
    /// skips out-of-range candidates instead of wrapping).
    fn bind_pair_mode(base: u16, mode: DatapathMode) -> (UdpTransport, UdpTransport) {
        for attempt in 0..50u16 {
            let Some(probe) = attempt.checked_mul(16).and_then(|o| base.checked_add(o)) else {
                continue;
            };
            let map = PeerMap::localhost(2, probe);
            if map.len() < 2 {
                continue;
            }
            match (
                UdpTransport::bind_with_mode(pid(0), map.clone(), mode),
                UdpTransport::bind_with_mode(pid(1), map, mode),
            ) {
                (Ok(a), Ok(b)) => return (a, b),
                _ => continue,
            }
        }
        panic!("could not find free ports");
    }

    fn both_modes() -> Vec<DatapathMode> {
        if cfg!(target_os = "linux") {
            vec![DatapathMode::Batched, DatapathMode::Portable]
        } else {
            vec![DatapathMode::Portable]
        }
    }

    fn token_msg() -> Message {
        Message::Token(Token::initial(RingId::default(), Seq::ZERO))
    }

    fn data_msg() -> Message {
        Message::Data(ar_core::DataMessage {
            ring_id: RingId::default(),
            seq: Seq::new(1),
            pid: pid(0),
            round: ar_core::Round::new(1),
            service: ar_core::ServiceType::Agreed,
            after_token: false,
            payload: bytes::Bytes::from_static(b"udp"),
        })
    }

    #[test]
    fn unicast_roundtrip() {
        for mode in both_modes() {
            let (mut a, mut b) = bind_pair_mode(42000, mode);
            a.send_to(pid(1), &token_msg()).unwrap();
            let got = b.recv(true, Duration::from_millis(500)).unwrap().unwrap();
            assert_eq!(got, token_msg(), "{mode:?}");
        }
    }

    #[test]
    fn multicast_fanout_roundtrip() {
        for mode in both_modes() {
            let (mut a, mut b) = bind_pair_mode(43000, mode);
            a.multicast(&data_msg()).unwrap();
            let got = b.recv(false, Duration::from_millis(500)).unwrap().unwrap();
            assert_eq!(got, data_msg(), "{mode:?}");
        }
    }

    #[test]
    fn priority_prefers_token_socket() {
        for mode in both_modes() {
            let (mut a, mut b) = bind_pair_mode(44000, mode);
            a.send_to(pid(1), &data_msg()).unwrap();
            a.send_to(pid(1), &token_msg()).unwrap();
            // Give both datagrams time to land.
            std::thread::sleep(Duration::from_millis(50));
            let first = b.recv(true, Duration::from_millis(500)).unwrap().unwrap();
            assert!(matches!(first, Message::Token(_)), "{mode:?}: {first:?}");
        }
    }

    #[test]
    fn recv_timeout_when_idle() {
        for mode in both_modes() {
            let (mut a, _b) = bind_pair_mode(45000, mode);
            let got = a.recv(true, Duration::from_millis(20)).unwrap();
            assert!(got.is_none(), "{mode:?}");
        }
    }

    #[test]
    fn bind_requires_presence_in_map() {
        let map = PeerMap::localhost(1, 46000);
        let err = UdpTransport::bind(pid(5), map).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn peer_map_localhost_layout() {
        let map = PeerMap::localhost(3, 50000);
        assert_eq!(map.len(), 3);
        let p1 = map.get(pid(1)).unwrap();
        assert_eq!(p1.token.port(), 50002);
        assert_eq!(p1.data.port(), 50003);
    }

    /// Regression: `localhost` near the top of the port space must not
    /// wrap or panic in debug builds — participants whose ports do not
    /// fit are simply omitted.
    #[test]
    fn peer_map_localhost_stops_at_port_space_end() {
        // 65530/65531, 65532/65533, 65534/65535 fit; the 4th pair does not.
        let map = PeerMap::localhost(10, 65530);
        assert_eq!(map.len(), 3);
        assert_eq!(map.get(pid(2)).unwrap().data.port(), 65535);
        // Token port fits but data port would overflow: pair omitted.
        let map = PeerMap::localhost(3, 65533);
        assert_eq!(map.len(), 1);
        // Degenerate base: nothing fits beyond the first pair.
        assert_eq!(PeerMap::localhost(u16::MAX, 65534).len(), 1);
    }

    /// Regression: a hard send error for one peer must not abort the
    /// fan-out — every remaining peer is attempted, and the first error
    /// surfaces only after the loop.
    #[test]
    fn multicast_attempts_all_peers_and_surfaces_first_error() {
        for mode in both_modes() {
            let mut found = None;
            for attempt in 0..50u16 {
                let base = 52000 + attempt * 16;
                let mut map = PeerMap::new();
                map.insert(
                    pid(0),
                    PeerAddrs {
                        token: SocketAddr::from(([127, 0, 0, 1], base)),
                        data: SocketAddr::from(([127, 0, 0, 1], base + 1)),
                    },
                );
                // pid(1) sorts before pid(2) in the fan-out and its
                // port-0 addresses make every send fail hard (EINVAL).
                map.insert(
                    pid(1),
                    PeerAddrs {
                        token: SocketAddr::from(([127, 0, 0, 1], 0)),
                        data: SocketAddr::from(([127, 0, 0, 1], 0)),
                    },
                );
                map.insert(
                    pid(2),
                    PeerAddrs {
                        token: SocketAddr::from(([127, 0, 0, 1], base + 2)),
                        data: SocketAddr::from(([127, 0, 0, 1], base + 3)),
                    },
                );
                match (
                    UdpTransport::bind_with_mode(pid(0), map.clone(), mode),
                    UdpTransport::bind_with_mode(pid(2), map, mode),
                ) {
                    (Ok(a), Ok(c)) => {
                        found = Some((a, c));
                        break;
                    }
                    _ => continue,
                }
            }
            let (mut a, mut c) = found.expect("free ports");
            let err = a
                .multicast(&data_msg())
                .expect_err("port 0 is a hard error");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{mode:?}");
            assert_eq!(a.stats().send_errors, 1);
            // The peer *after* the failing one still got the message.
            let got = c.recv(false, Duration::from_millis(500)).unwrap();
            assert_eq!(got, Some(data_msg()), "{mode:?}: fan-out continued");
        }
    }

    /// Regression: a malformed datagram must not make the socket look
    /// empty for the sweep — a valid datagram queued behind it is
    /// surfaced in the same sweep, and the drop is counted.
    #[test]
    fn malformed_datagram_does_not_mask_queued_valid_one() {
        for mode in both_modes() {
            let (mut a, mut b) = bind_pair_mode(53000, mode);
            let b_token_addr = b.peers.get(pid(1)).unwrap().token;
            let garbage_tx = UdpSocket::bind("127.0.0.1:0").unwrap();
            garbage_tx
                .send_to(b"\xFFnot a message", b_token_addr)
                .unwrap();
            a.send_to(pid(1), &token_msg()).unwrap();
            std::thread::sleep(Duration::from_millis(50));
            // A single zero-timeout sweep must get past the garbage.
            let got = b.recv(true, Duration::ZERO).unwrap();
            assert_eq!(got, Some(token_msg()), "{mode:?}");
            assert_eq!(b.stats().decode_drops, 1, "{mode:?}");
            assert_eq!(b.stats().datagrams_rx, 1, "{mode:?}");
        }
    }

    /// A batch section defers sends until `end_batch`, then flushes the
    /// whole burst (in batched mode: as O(1) syscalls per run).
    #[test]
    fn batch_section_defers_and_flushes_burst() {
        for mode in both_modes() {
            let (mut a, mut b) = bind_pair_mode(54000, mode);
            a.begin_batch();
            for _ in 0..3 {
                a.multicast(&data_msg()).unwrap();
            }
            assert_eq!(a.stats().datagrams_tx, 0, "{mode:?}: deferred");
            assert!(
                b.recv(false, Duration::from_millis(30)).unwrap().is_none(),
                "{mode:?}: nothing on the wire before end_batch"
            );
            let syscalls_before = a.stats().send_syscalls;
            a.end_batch().unwrap();
            assert_eq!(a.stats().datagrams_tx, 3, "{mode:?}");
            if mode == DatapathMode::Batched {
                assert_eq!(
                    a.stats().send_syscalls - syscalls_before,
                    1,
                    "one sendmmsg for the whole burst"
                );
            }
            for i in 0..3 {
                let got = b.recv(false, Duration::from_millis(500)).unwrap();
                assert_eq!(got, Some(data_msg()), "{mode:?}: message {i}");
            }
        }
    }

    /// `recv_batch` drains everything ready in one call, tokens first
    /// when the token channel is preferred.
    #[test]
    fn recv_batch_drains_ready_messages_token_first() {
        for mode in both_modes() {
            let (mut a, mut b) = bind_pair_mode(55000, mode);
            for _ in 0..3 {
                a.send_to(pid(1), &data_msg()).unwrap();
            }
            a.send_to(pid(1), &token_msg()).unwrap();
            std::thread::sleep(Duration::from_millis(50));
            let mut out = Vec::new();
            let n = b
                .recv_batch(true, Duration::from_millis(500), 16, &mut out)
                .unwrap();
            assert_eq!(n, 4, "{mode:?}");
            assert!(matches!(out[0], Message::Token(_)), "{mode:?}: {out:?}");
            assert_eq!(out.len(), 4);
        }
    }

    /// `recv_batch` respects `max` and keeps the rest queued.
    #[test]
    fn recv_batch_respects_max() {
        for mode in both_modes() {
            let (mut a, mut b) = bind_pair_mode(56000, mode);
            for _ in 0..5 {
                a.send_to(pid(1), &data_msg()).unwrap();
            }
            std::thread::sleep(Duration::from_millis(50));
            let mut out = Vec::new();
            let n = b
                .recv_batch(false, Duration::from_millis(500), 2, &mut out)
                .unwrap();
            assert_eq!(n, 2, "{mode:?}");
            // The remaining three are still queued locally.
            let mut rest = Vec::new();
            let m = b
                .recv_batch(false, Duration::from_millis(500), 16, &mut rest)
                .unwrap();
            assert_eq!(m, 3, "{mode:?}");
        }
    }

    #[test]
    fn non_linux_coerces_batched_to_portable() {
        let (a, _b) = bind_pair_mode(57000, DatapathMode::Batched);
        if cfg!(target_os = "linux") {
            assert_eq!(a.mode(), DatapathMode::Batched);
        } else {
            assert_eq!(a.mode(), DatapathMode::Portable);
        }
    }
}
