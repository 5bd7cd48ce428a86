//! The service-tier client library: connect over TCP or a Unix
//! socket, speak the versioned credit-controlled protocol.
//!
//! The socket is non-blocking; [`SvcClient::pump`] drains it into an
//! internal event queue. [`recv`](SvcClient::recv) wraps pump in a
//! bounded wait for convenience. Publishing is credit-limited:
//! [`try_publish`](SvcClient::try_publish) fails fast when the window
//! is exhausted, [`publish`](SvcClient::publish) waits for a credit.
//!
//! ## Corked sends
//!
//! [`try_publish`](SvcClient::try_publish) makes no system call: it
//! queues the framed publish in the client's write buffer. The queue
//! goes out, every frame of it in one non-blocking gathered write, at
//! the next [`pump`](SvcClient::pump) (after its reads, with the
//! delivery ack behind the publishes), [`flush`](SvcClient::flush),
//! blocking [`publish`](SvcClient::publish) or drop. A caller of
//! `try_publish` must therefore pump or flush; a loop that pumps every
//! sweep sends each sweep's publishes as one segment, which the tier
//! reads in one call. [`join`](SvcClient::join),
//! [`leave`](SvcClient::leave), [`ack`](SvcClient::ack) and
//! [`send_raw`](SvcClient::send_raw) queue behind any pending publishes
//! and write at once, so frames reach the wire in call order. A write
//! the kernel refuses (WouldBlock) leaves the rest queued for the next
//! pump or flush; the socket is never switched back to blocking.
//!
//! Delivery acking is automatic by default (the pump that surfaces a
//! Deliver acks it in its write); turn it off with
//! [`set_auto_ack`](SvcClient::set_auto_ack) to exercise the server's
//! delivery window and eviction policy (as the load generator's
//! deliberately slow consumers do).
//!
//! ## Automatic session resumption
//!
//! When the connection drops without a server-initiated eviction, the
//! client redials with capped exponential backoff (decorrelated
//! jitter, seeded from the client name so a reconnecting fleet fans
//! out) and presents its [`ResumeToken`]. On a successful resume the
//! delivery stream continues exactly where it left off — the server
//! replays retained deliveries above the client's cursor — and every
//! publish whose grant never arrived is re-sent (the server's dedup
//! window makes that idempotent). If the server no longer has the
//! session, the client falls back to a fresh session: it re-joins its
//! groups and reports every outcome-unknown publish as rejected so
//! the application decides their fate (a restarted daemon replays its
//! durable log *before* accepting sessions, so a fresh session never
//! sees old traffic again). Either way the
//! application sees one [`SvcEvent::Reconnected`] marking the seam —
//! deliveries remain exactly-once and gap-free per publisher across
//! any number of reconnects. Disable with
//! [`ResumePolicy::disabled`] to get the old fail-fast behavior.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ar_core::backoff::{Backoff, BackoffConfig};
use ar_core::ServiceType;
use ar_daemon::MemberId;
use ar_net::PollSet;
use bytes::Bytes;

use crate::wire::{
    decode_client, decode_server, encode_client, frame, ClientFrame, FrameBuf, ResumeToken,
    ServerFrame, Sock, WriteBuf, MAX_PUBLISH_BODY, PROTOCOL_VERSION,
};

/// Longest a dropped client waits for its socket to take the queued
/// frames and the Goodbye.
const CLOSE_WAIT: Duration = Duration::from_secs(1);

/// Events surfaced to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvcEvent {
    /// A totally ordered message.
    Deliver {
        /// Per-connection delivery sequence.
        seq: u64,
        /// Ring sequence: the total-order position within `shard`.
        ring_seq: u64,
        /// The ring shard that ordered the message.
        shard: u16,
        /// Delivery service level.
        service: ServiceType,
        /// The sending client.
        sender: MemberId,
        /// Target groups.
        groups: Vec<String>,
        /// Application payload.
        payload: Bytes,
    },
    /// Group membership changed.
    Membership {
        /// The group.
        group: String,
        /// Complete new membership.
        members: Vec<MemberId>,
    },
    /// Ring configuration changed.
    NetworkChange {
        /// Daemon ids in the new configuration.
        daemons: Vec<u16>,
    },
    /// A publish completed (reached Agreed order); a credit returned.
    PublishOrdered {
        /// The client-assigned publish id.
        id: u64,
    },
    /// A publish was rejected; its id and the server's reason.
    PublishRejected {
        /// The client-assigned publish id.
        id: u64,
        /// Server's reason.
        reason: String,
    },
    /// The server closed this session.
    Evicted {
        /// Server's reason.
        reason: String,
    },
    /// A join or leave request failed; the session stays open.
    GroupRejected {
        /// True for a failed join, false for a failed leave.
        join: bool,
        /// The group the request named.
        group: String,
        /// Server's reason.
        reason: String,
    },
    /// The connection dropped and was re-established.
    Reconnected {
        /// True when the session was resumed (delivery stream
        /// continues seamlessly). False when the server no longer had
        /// the session and a fresh one was started: groups were
        /// re-joined, and every outcome-unknown publish was reported
        /// via [`SvcEvent::PublishRejected`] just before this event.
        resumed: bool,
    },
}

/// Why [`SvcClient::try_publish`] declined.
#[derive(Debug)]
pub enum PublishError {
    /// No credits available; pump until a
    /// [`SvcEvent::PublishOrdered`] arrives.
    NoCredits,
    /// The encoded publish exceeds
    /// [`MAX_PUBLISH_BODY`](crate::wire::MAX_PUBLISH_BODY); it was not
    /// sent (a frame that size would be rejected by the server and
    /// its delivery would overflow the frame cap).
    TooLarge,
    /// Socket error (the blocking [`SvcClient::publish`]), or the
    /// session is closed.
    Io(io::Error),
}

impl core::fmt::Display for PublishError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PublishError::NoCredits => f.write_str("no publish credits available"),
            PublishError::TooLarge => f.write_str("publish exceeds the maximum frame size"),
            PublishError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for PublishError {}

impl From<io::Error> for PublishError {
    fn from(e: io::Error) -> Self {
        PublishError::Io(e)
    }
}

/// Reconnect-and-resume tuning. The backoff's `max_attempts` is the
/// redial budget per disconnect; zero disables reconnecting entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumePolicy {
    /// Redial schedule (decorrelated jitter; see
    /// [`ar_core::backoff::Backoff`]).
    pub backoff: BackoffConfig,
}

impl Default for ResumePolicy {
    fn default() -> Self {
        ResumePolicy {
            backoff: BackoffConfig {
                base: Duration::from_millis(25),
                cap: Duration::from_secs(1),
                max_attempts: 10,
            },
        }
    }
}

impl ResumePolicy {
    /// Never reconnect: the first disconnect surfaces as
    /// [`SvcEvent::Evicted`] (the pre-resumption behavior).
    pub fn disabled() -> ResumePolicy {
        ResumePolicy {
            backoff: BackoffConfig {
                max_attempts: 0,
                ..BackoffConfig::default()
            },
        }
    }

    fn is_enabled(&self) -> bool {
        self.backoff.max_attempts > 0
    }
}

#[derive(Debug, Clone)]
enum Target {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Uds(PathBuf),
}

/// Handshake result: the connected socket plus the Welcome fields.
struct Handshake {
    sock: Sock,
    rbuf: FrameBuf,
    daemon: u16,
    rings: u16,
    publish_credits: u32,
    delivery_window: u32,
    session: u64,
    epoch: u64,
    resumed: bool,
}

/// A connected service-tier client.
#[derive(Debug)]
pub struct SvcClient {
    sock: Sock,
    rbuf: FrameBuf,
    /// Frames queued for the socket, in call order.
    wbuf: WriteBuf,
    queue: VecDeque<SvcEvent>,
    target: Target,
    name: String,
    policy: ResumePolicy,
    daemon: u16,
    rings: u16,
    credits: u32,
    initial_credits: u32,
    delivery_window: u32,
    next_publish_id: u64,
    /// Highest delivery seq seen and not yet acked.
    unacked: u64,
    /// Highest delivery seq acked to the server.
    acked: u64,
    /// Ticket of the last auto-ack queued: while no byte of it is
    /// written, a later auto-ack raises its `through` in place, so a
    /// backed-up socket holds at most one.
    ack_ticket: Option<u64>,
    auto_ack: bool,
    evicted: Option<String>,
    /// Resume-token identity from the last Welcome.
    session: u64,
    epoch: u64,
    /// Groups joined (and not left) — re-joined after a session reset.
    joined: BTreeSet<String>,
    /// Framed Publish bytes awaiting their grant or rejection, by id —
    /// re-sent verbatim after a resume (the server deduplicates).
    unacked_pubs: BTreeMap<u64, Bytes>,
    /// Successful reconnects over this client's lifetime.
    reconnects: u64,
    /// Deliveries suppressed as duplicates.
    duplicates_suppressed: u64,
}

impl SvcClient {
    /// Connects over TCP and performs the versioned handshake.
    /// Automatic reconnect-and-resume is on by default; see
    /// [`set_resume_policy`](Self::set_resume_policy).
    ///
    /// # Errors
    ///
    /// Connection errors; `ConnectionRefused` with the server's reason
    /// when the handshake is refused.
    pub fn connect_tcp(addr: SocketAddr, name: &str) -> io::Result<SvcClient> {
        Self::connect(Target::Tcp(addr), name)
    }

    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// As for [`connect_tcp`](Self::connect_tcp).
    #[cfg(unix)]
    pub fn connect_uds(path: impl AsRef<Path>, name: &str) -> io::Result<SvcClient> {
        Self::connect(Target::Uds(path.as_ref().to_path_buf()), name)
    }

    fn connect(target: Target, name: &str) -> io::Result<SvcClient> {
        let sock = dial(&target)?;
        let h = handshake(sock, name, None)?;
        Ok(SvcClient {
            sock: h.sock,
            rbuf: h.rbuf,
            wbuf: WriteBuf::default(),
            queue: VecDeque::new(),
            target,
            name: name.to_string(),
            policy: ResumePolicy::default(),
            daemon: h.daemon,
            rings: h.rings,
            credits: h.publish_credits,
            initial_credits: h.publish_credits,
            delivery_window: h.delivery_window,
            next_publish_id: 0,
            unacked: 0,
            acked: 0,
            ack_ticket: None,
            auto_ack: true,
            evicted: None,
            session: h.session,
            epoch: h.epoch,
            joined: BTreeSet::new(),
            unacked_pubs: BTreeMap::new(),
            reconnects: 0,
            duplicates_suppressed: 0,
        })
    }

    /// The daemon id this client is attached to.
    pub fn daemon(&self) -> u16 {
        self.daemon
    }

    /// Ring shards the daemon drives (from Welcome; 1 = unsharded).
    pub fn rings(&self) -> u16 {
        self.rings
    }

    /// Remaining publish credits.
    pub fn credits(&self) -> u32 {
        self.credits
    }

    /// The session's initial credit allocation (from Welcome).
    pub fn initial_credits(&self) -> u32 {
        self.initial_credits
    }

    /// The session's delivery window (from Welcome).
    pub fn delivery_window(&self) -> u32 {
        self.delivery_window
    }

    /// The server-assigned session id (half of the resume token).
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The session's attach generation (bumped per resume).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Successful reconnects over this client's lifetime.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Deliveries suppressed as resume-replay overlap (the retained
    /// range the server replayed reached at or below our cursor).
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates_suppressed
    }

    /// Bytes queued for the socket and not yet written: publishes
    /// awaiting a [`pump`](Self::pump) or [`flush`](Self::flush), or
    /// frames the socket refused for now.
    pub fn queued_bytes(&self) -> usize {
        self.wbuf.len()
    }

    /// The server's eviction reason, once evicted.
    pub fn evicted_reason(&self) -> Option<&str> {
        self.evicted.as_deref()
    }

    /// Replaces the reconnect-and-resume policy
    /// ([`ResumePolicy::disabled`] restores fail-fast).
    pub fn set_resume_policy(&mut self, policy: ResumePolicy) {
        self.policy = policy;
    }

    /// Enables or disables automatic delivery acking (on by default).
    /// With auto-ack off the caller must call [`ack`](Self::ack) to
    /// open delivery-window space — not doing so emulates a slow
    /// consumer.
    pub fn set_auto_ack(&mut self, on: bool) {
        self.auto_ack = on;
    }

    /// Test hook: kills the transport underneath the session without a
    /// Goodbye, as a crashed link would. The next [`pump`](Self::pump)
    /// or send notices and reconnects per policy.
    pub fn sever(&mut self) {
        self.sock.shutdown();
    }

    /// Joins a group, sending the request (behind any queued
    /// publishes) at once.
    ///
    /// # Errors
    ///
    /// As for [`send_raw`](Self::send_raw).
    pub fn join(&mut self, group: &str) -> io::Result<()> {
        self.joined.insert(group.to_string());
        self.send(&ClientFrame::JoinGroup {
            group: group.to_string(),
        })
    }

    /// Leaves a group, sending the request (behind any queued
    /// publishes) at once.
    ///
    /// # Errors
    ///
    /// As for [`send_raw`](Self::send_raw).
    pub fn leave(&mut self, group: &str) -> io::Result<()> {
        self.joined.remove(group);
        self.send(&ClientFrame::LeaveGroup {
            group: group.to_string(),
        })
    }

    /// Queues a publish if a credit is available, consuming it.
    /// Returns the assigned publish id (echoed in
    /// [`SvcEvent::PublishOrdered`]). Makes no system call: the publish
    /// goes out at the next [`pump`](Self::pump) or
    /// [`flush`](Self::flush) (or blocking [`publish`](Self::publish),
    /// or drop), gathered with every other queued frame.
    ///
    /// # Errors
    ///
    /// [`PublishError::NoCredits`] when the credit window is
    /// exhausted; [`PublishError::Io`] once the session is closed.
    pub fn try_publish(
        &mut self,
        groups: &[&str],
        service: ServiceType,
        payload: Bytes,
    ) -> Result<u64, PublishError> {
        if let Some(reason) = &self.evicted {
            return Err(PublishError::Io(io::Error::new(
                io::ErrorKind::NotConnected,
                format!("session closed: {reason}"),
            )));
        }
        if self.credits == 0 {
            return Err(PublishError::NoCredits);
        }
        let req = ClientFrame::Publish {
            id: self.next_publish_id + 1,
            service,
            groups: groups.iter().map(|g| g.to_string()).collect(),
            payload,
        };
        let body = encode_client(&req);
        if body.len() > MAX_PUBLISH_BODY {
            return Err(PublishError::TooLarge);
        }
        self.next_publish_id += 1;
        let id = self.next_publish_id;
        let framed = frame(&body);
        // Track from the queue on: if the connection dies before the
        // grant the publish is re-sent on resume (the server
        // deduplicates).
        self.unacked_pubs.insert(id, framed.clone());
        self.wbuf.push(framed);
        self.credits -= 1;
        Ok(id)
    }

    /// Publishes, waiting up to `timeout` for a credit, then sends it
    /// with everything queued before it, waiting within the same
    /// `timeout` for the socket to take it all (what it has not taken
    /// by then goes at the next pump or flush).
    ///
    /// # Errors
    ///
    /// [`PublishError::NoCredits`] when no credit arrived in time;
    /// [`PublishError::Io`] on socket errors, as for
    /// [`send_raw`](Self::send_raw).
    pub fn publish(
        &mut self,
        groups: &[&str],
        service: ServiceType,
        payload: Bytes,
        timeout: Duration,
    ) -> Result<u64, PublishError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.try_publish(groups, service, payload.clone()) {
                Err(PublishError::NoCredits) => {
                    if Instant::now() >= deadline {
                        return Err(PublishError::NoCredits);
                    }
                    self.pump()?;
                    if self.credits == 0 {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                Ok(id) => {
                    self.send_queued()?;
                    while !self.wbuf.is_empty() && self.evicted.is_none() {
                        let left = deadline.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            break;
                        }
                        self.wait_ready(left)?;
                        self.pump()?;
                    }
                    return Ok(id);
                }
                other => return other,
            }
        }
    }

    /// Acks consumed deliveries through `seq` (manual-ack mode),
    /// sending the ack (behind any queued publishes) at once.
    ///
    /// # Errors
    ///
    /// As for [`send_raw`](Self::send_raw).
    pub fn ack(&mut self, seq: u64) -> io::Result<()> {
        if seq <= self.acked {
            return Ok(());
        }
        self.acked = seq;
        self.send(&ClientFrame::Ack { through: seq })
    }

    /// Writes the queued frames without reading, in one gathered write
    /// as far as the socket takes them; what it refuses stays queued.
    /// A dead connection is handled as [`pump`](Self::pump) handles
    /// one: reconnect per policy, otherwise [`SvcEvent::Evicted`].
    pub fn flush(&mut self) {
        while let Err(e) = self.write_queued() {
            if !self.recover(format!("connection lost: {e}")) {
                break;
            }
        }
    }

    /// Drains the socket into the event queue without blocking, then
    /// writes every queued frame (with the delivery ack, when auto-ack
    /// is on) in one non-blocking gathered write. A dropped connection,
    /// seen by the read or the write, is reconnected per policy; when
    /// that fails or is disabled the session ends with
    /// [`SvcEvent::Evicted`].
    ///
    /// # Errors
    ///
    /// A frame the server sent that does not decode.
    pub fn pump(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            let mut lost = false;
            loop {
                match self.sock.read(&mut chunk) {
                    Ok(0) => {
                        lost = true;
                        break;
                    }
                    Ok(n) => self.rbuf.extend(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        lost = true;
                        break;
                    }
                }
            }
            // Process buffered frames before reacting to the EOF: an
            // Evicted frame just before the close is terminal and must
            // not trigger a reconnect.
            while let Some(f) = self.rbuf.next_frame()? {
                if let Some(ev) = self.on_frame(&f)? {
                    self.queue.push_back(ev);
                }
            }
            if self.evicted.is_some() {
                break;
            }
            let reason = if lost {
                "connection closed".to_string()
            } else {
                if self.auto_ack && self.unacked > self.acked {
                    self.acked = self.unacked;
                    let ack = frame(&encode_client(&ClientFrame::Ack {
                        through: self.acked,
                    }));
                    match self.ack_ticket {
                        Some(t) if self.wbuf.replace(t, ack.clone()) => {}
                        _ => self.ack_ticket = Some(self.wbuf.push(ack)),
                    }
                }
                match self.write_queued() {
                    Ok(_) => break,
                    Err(e) => format!("connection lost: {e}"),
                }
            };
            if !self.recover(reason) {
                break;
            }
            // Loop: drain the fresh socket (resume replay).
        }
        Ok(())
    }

    /// After the connection died: reconnects per policy (true: the
    /// session goes on over a fresh socket), or ends the session with
    /// `reason` when reconnecting is off.
    fn recover(&mut self, reason: String) -> bool {
        if !self.policy.is_enabled() {
            self.mark_lost(&reason);
            return false;
        }
        match self.reconnect() {
            Ok(_) => true,
            Err(e) => {
                self.mark_lost(&format!("connection lost: {e}"));
                false
            }
        }
    }

    fn mark_lost(&mut self, reason: &str) {
        if self.evicted.is_none() {
            self.wbuf.take();
            self.evicted = Some(reason.to_string());
            self.queue.push_back(SvcEvent::Evicted {
                reason: reason.to_string(),
            });
        }
    }

    /// Redials with backoff and resumes (or restarts) the session.
    fn reconnect(&mut self) -> io::Result<bool> {
        let seed = self.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let mut backoff = Backoff::new(self.policy.backoff, seed);
        let mut last_err = io::Error::new(io::ErrorKind::NotConnected, "reconnect disabled");
        for attempt in 0..self.policy.backoff.max_attempts {
            if attempt > 0 {
                match backoff.next_delay() {
                    Some(d) => std::thread::sleep(d),
                    None => break,
                }
            }
            match self.try_reconnect_once() {
                Ok(resumed) => {
                    self.reconnects += 1;
                    self.queue.push_back(SvcEvent::Reconnected { resumed });
                    return Ok(resumed);
                }
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    fn try_reconnect_once(&mut self) -> io::Result<bool> {
        let token = ResumeToken {
            session: self.session,
            epoch: self.epoch,
            // The cursor is everything *consumed*, not merely acked:
            // replaying a consumed-but-unacked delivery would duplicate
            // it at the application.
            acked_through: self.unacked,
        };
        let sock = dial(&self.target)?;
        let h = handshake(sock, &self.name, Some(token))?;
        self.sock = h.sock;
        // Partial frame bytes from the dead socket are garbage;
        // complete frames were already processed.
        self.rbuf = h.rbuf;
        self.daemon = h.daemon;
        self.rings = h.rings;
        self.session = h.session;
        self.epoch = h.epoch;
        if h.resumed {
            // Continuity holds: the server accepted our cursor and
            // replays everything above it. Re-send every publish whose
            // grant never arrived — the server's dedup window drops
            // already-forwarded copies and re-grants already-ordered
            // ones.
            self.acked = self.unacked;
            self.requeue_after_resume();
        } else {
            // The session is gone (grace expired, server restarted, or
            // parking disabled): start over. Outcome of in-flight
            // publishes is unknowable — surface each as rejected so
            // the application decides, then restore the invariants a
            // fresh session expects.
            let lost: Vec<u64> = self.unacked_pubs.keys().copied().collect();
            self.unacked_pubs.clear();
            for id in lost {
                self.queue.push_back(SvcEvent::PublishRejected {
                    id,
                    reason: "session lost on reconnect; publish outcome unknown".into(),
                });
            }
            self.credits = h.publish_credits;
            self.initial_credits = h.publish_credits;
            self.delivery_window = h.delivery_window;
            self.unacked = 0;
            self.acked = 0;
            // Nothing queued for the old session means anything to
            // the new one.
            self.wbuf.take();
            for group in &self.joined {
                self.wbuf
                    .push(frame(&encode_client(&ClientFrame::JoinGroup {
                        group: group.clone(),
                    })));
            }
        }
        Ok(h.resumed)
    }

    /// Rebuilds the write queue for a resumed session: every publish
    /// written to the dead socket but not yet granted goes first, then
    /// everything still queued, whole and in call order. The queued
    /// publishes are the newest ungranted ones, so the publishes keep
    /// their id order and none is sent twice.
    fn requeue_after_resume(&mut self) {
        let queued = self.wbuf.take();
        let first_queued = queued
            .iter()
            .find_map(|f| match decode_client(f.get(4..)?) {
                Ok(ClientFrame::Publish { id, .. }) if self.unacked_pubs.contains_key(&id) => {
                    Some(id)
                }
                _ => None,
            })
            .unwrap_or(u64::MAX);
        for framed in self.unacked_pubs.range(..first_queued).map(|(_, f)| f) {
            self.wbuf.push(framed.clone());
        }
        for framed in queued {
            self.wbuf.push(framed);
        }
    }

    fn on_frame(&mut self, bytes: &[u8]) -> io::Result<Option<SvcEvent>> {
        Ok(match decode_server(bytes)? {
            ServerFrame::Deliver {
                seq,
                ring_seq,
                shard,
                service,
                sender,
                groups,
                payload,
            } => {
                // The delivery seq is per-session monotone; a frame at
                // or below our consume cursor is resume-replay overlap.
                // Suppressed frames still occupy delivery-window space
                // server-side: always advance the ack cursor.
                let dup = seq <= self.unacked && seq != 0;
                self.unacked = self.unacked.max(seq);
                if dup {
                    self.duplicates_suppressed += 1;
                    None
                } else {
                    Some(SvcEvent::Deliver {
                        seq,
                        ring_seq,
                        shard,
                        service,
                        sender,
                        groups,
                        payload,
                    })
                }
            }
            ServerFrame::Membership { group, members } => {
                Some(SvcEvent::Membership { group, members })
            }
            ServerFrame::NetworkChange { daemons } => Some(SvcEvent::NetworkChange { daemons }),
            ServerFrame::CreditGrant { acked_id, credits } => {
                self.credits += credits;
                self.unacked_pubs.remove(&acked_id);
                Some(SvcEvent::PublishOrdered { id: acked_id })
            }
            ServerFrame::PublishReject { id, reason } => {
                // The rejected publish consumed no server-side credit;
                // restore the local count so the client can retry.
                self.credits += 1;
                self.unacked_pubs.remove(&id);
                Some(SvcEvent::PublishRejected { id, reason })
            }
            ServerFrame::Evicted { reason } => {
                self.evicted = Some(reason.clone());
                Some(SvcEvent::Evicted { reason })
            }
            ServerFrame::GroupRejected {
                join,
                group,
                reason,
            } => {
                if join {
                    self.joined.remove(&group);
                }
                Some(SvcEvent::GroupRejected {
                    join,
                    group,
                    reason,
                })
            }
            ServerFrame::Welcome { .. } | ServerFrame::Refused { .. } => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "handshake frame after welcome",
                ))
            }
        })
    }

    /// Pops an already-pumped event without touching the socket.
    pub fn poll_event(&mut self) -> Option<SvcEvent> {
        self.queue.pop_front()
    }

    /// Receives the next event, pumping the socket up to `timeout`.
    pub fn recv(&mut self, timeout: Duration) -> Option<SvcEvent> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(ev) = self.queue.pop_front() {
                return Some(ev);
            }
            if self.pump().is_err() || Instant::now() >= deadline {
                return self.queue.pop_front();
            }
            if self.queue.is_empty() {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
    }

    /// Drains already-received events (pumps once, never sleeps).
    pub fn drain(&mut self) -> Vec<SvcEvent> {
        let _ = self.pump();
        self.queue.drain(..).collect()
    }

    /// Writes raw bytes to the socket (behind any queued frames),
    /// bypassing client-side credit accounting — for exercising the
    /// server's protocol handling (malformed frames, credit violations)
    /// from tests. Reconnects (per policy) when the connection has
    /// dropped; the write is retried only if the session was *resumed*
    /// — after a session reset the bytes may reference stale state, so
    /// the caller gets `ConnectionReset` instead.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.wbuf.push(Bytes::copy_from_slice(bytes));
        self.send_queued()
    }

    fn send(&mut self, f: &ClientFrame) -> io::Result<()> {
        self.wbuf.push(frame(&encode_client(f)));
        self.send_queued()
    }

    /// Writes the queue now; after a failed write, reconnects (per
    /// policy) and writes the rebuilt queue, as
    /// [`send_raw`](Self::send_raw) documents.
    fn send_queued(&mut self) -> io::Result<()> {
        match self.write_queued() {
            Ok(_) => Ok(()),
            Err(_) if self.policy.is_enabled() && self.evicted.is_none() => {
                let resumed = self.reconnect()?;
                self.write_queued()?;
                if resumed {
                    Ok(())
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "session was reset during reconnect",
                    ))
                }
            }
            Err(e) => Err(e),
        }
    }

    /// One non-blocking gathered write of the queue (more only past
    /// [`MAX_IOV`](crate::wire::MAX_IOV) frames or after a short
    /// write): `Ok(true)` when drained, `Ok(false)` when the socket
    /// refused the rest.
    fn write_queued(&mut self) -> io::Result<bool> {
        if self.evicted.is_some() {
            return Ok(true);
        }
        self.wbuf.flush(&mut self.sock, || {})
    }

    /// Waits up to `timeout` for the socket to take more bytes or have
    /// bytes to read.
    fn wait_ready(&self, timeout: Duration) -> io::Result<()> {
        let mut poll = PollSet::new();
        poll.register_read_write(self.sock.fd());
        poll.wait(timeout).map(drop)
    }
}

impl Drop for SvcClient {
    fn drop(&mut self) {
        // A deliberate close must not leave a parked session pinning
        // group memberships for the grace period. Queued publishes go
        // first, then the Goodbye; deliveries still arriving meanwhile
        // are read and dropped.
        if self.evicted.is_none() {
            self.wbuf.push(frame(&encode_client(&ClientFrame::Goodbye)));
            let deadline = Instant::now() + CLOSE_WAIT;
            let mut chunk = [0u8; 4096];
            while let Ok(false) = self.write_queued() {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() || self.wait_ready(left).is_err() {
                    break;
                }
                while Instant::now() < deadline
                    && matches!(self.sock.read(&mut chunk), Ok(n) if n > 0)
                {}
            }
        }
    }
}

fn dial(target: &Target) -> io::Result<Sock> {
    match target {
        Target::Tcp(addr) => {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(Sock::Tcp(s))
        }
        #[cfg(unix)]
        Target::Uds(path) => Ok(Sock::Uds(UnixStream::connect(path)?)),
    }
}

fn handshake(mut sock: Sock, name: &str, resume: Option<ResumeToken>) -> io::Result<Handshake> {
    // Blocking for the handshake (with a bounded wait for the
    // Welcome), non-blocking after.
    sock.set_nonblocking(false)?;
    sock.set_read_timeout(Some(Duration::from_secs(5)))?;
    sock.write_all(&frame(&encode_client(&ClientFrame::Hello {
        version: PROTOCOL_VERSION,
        name: name.to_string(),
        resume,
    })))?;
    let mut rbuf = FrameBuf::new();
    let reply = loop {
        let mut chunk = [0u8; 4096];
        let n = sock.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed during handshake",
            ));
        }
        rbuf.extend(&chunk[..n]);
        if let Some(f) = rbuf.next_frame()? {
            break decode_server(&f)?;
        }
    };
    match reply {
        ServerFrame::Welcome {
            daemon,
            rings,
            publish_credits,
            delivery_window,
            session,
            epoch,
            resumed,
            ..
        } => {
            sock.set_read_timeout(None)?;
            sock.set_nonblocking(true)?;
            Ok(Handshake {
                sock,
                rbuf,
                daemon,
                rings,
                publish_credits,
                delivery_window,
                session,
                epoch,
                resumed,
            })
        }
        ServerFrame::Refused { reason } => {
            Err(io::Error::new(io::ErrorKind::ConnectionRefused, reason))
        }
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unexpected frame before welcome",
        )),
    }
}
