//! In-process loopback transport: a hub of per-endpoint mailboxes.
//!
//! Useful for multi-threaded integration tests and examples that want a
//! real concurrent ring without touching the network stack. Each
//! endpoint owns a mailbox with two queues (token, data), matching the
//! dual-socket design of the UDP transport; a single condition variable
//! covers both so `recv` can block on either without a `select!`.

use std::collections::VecDeque;
use std::io;
use std::time::{Duration, Instant};

use ar_core::{Message, ParticipantId};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::transport::{is_token_channel, Transport};

#[derive(Default)]
struct MailboxState {
    token: VecDeque<Message>,
    data: VecDeque<Message>,
}

/// One endpoint's inbound queues plus the condvar that signals arrival
/// on either of them.
struct Mailbox {
    state: Mutex<MailboxState>,
    available: Condvar,
}

impl Mailbox {
    fn new() -> Mailbox {
        Mailbox {
            state: Mutex::new(MailboxState::default()),
            available: Condvar::new(),
        }
    }

    fn push(&self, msg: Message) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if is_token_channel(&msg) {
            st.token.push_back(msg);
        } else {
            st.data.push_back(msg);
        }
        drop(st);
        self.available.notify_one();
    }

    fn take(st: &mut MailboxState, prefer_token: bool) -> Option<Message> {
        if prefer_token {
            st.token.pop_front().or_else(|| st.data.pop_front())
        } else {
            st.data.pop_front().or_else(|| st.token.pop_front())
        }
    }

    fn pop(&self, prefer_token: bool, timeout: Duration) -> Option<Message> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(m) = Self::take(&mut st, prefer_token) {
                return Some(m);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            st = self
                .available
                .wait_timeout(st, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Waits up to `timeout` for the first message, then drains up to
    /// `max` already-queued messages without waiting further (preferred
    /// channel first). Returns the number appended to `out`.
    fn pop_batch(
        &self,
        prefer_token: bool,
        timeout: Duration,
        max: usize,
        out: &mut Vec<Message>,
    ) -> usize {
        if max == 0 {
            return 0;
        }
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while st.token.is_empty() && st.data.is_empty() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return 0;
            }
            st = self
                .available
                .wait_timeout(st, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        let mut n = 0;
        while n < max {
            match Self::take(&mut st, prefer_token) {
                Some(m) => {
                    out.push(m);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

impl std::fmt::Debug for Mailbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        write!(
            f,
            "Mailbox({} token, {} data)",
            st.token.len(),
            st.data.len()
        )
    }
}

struct Hub {
    peers: HashMap<ParticipantId, Arc<Mailbox>>,
}

/// A shared in-process network that endpoints attach to.
///
/// ```
/// use ar_net::loopback::LoopbackNet;
/// use ar_core::ParticipantId;
///
/// let net = LoopbackNet::new();
/// let a = net.endpoint(ParticipantId::new(0));
/// let b = net.endpoint(ParticipantId::new(1));
/// # let _ = (a, b);
/// ```
#[derive(Debug, Clone)]
pub struct LoopbackNet {
    hub: Arc<Mutex<Hub>>,
}

impl Default for LoopbackNet {
    fn default() -> Self {
        LoopbackNet::new()
    }
}

impl std::fmt::Debug for Hub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hub({} peers)", self.peers.len())
    }
}

impl LoopbackNet {
    /// Creates an empty network.
    pub fn new() -> LoopbackNet {
        LoopbackNet {
            hub: Arc::new(Mutex::new(Hub {
                peers: HashMap::new(),
            })),
        }
    }

    /// Attaches an endpoint for `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is already attached.
    pub fn endpoint(&self, pid: ParticipantId) -> LoopbackTransport {
        let mailbox = Arc::new(Mailbox::new());
        let mut hub = self.hub.lock().unwrap_or_else(PoisonError::into_inner);
        let prev = hub.peers.insert(pid, Arc::clone(&mailbox));
        assert!(prev.is_none(), "{pid} already attached");
        LoopbackTransport {
            pid,
            hub: Arc::clone(&self.hub),
            mailbox,
        }
    }

    /// Detaches an endpoint (its queued messages are dropped once the
    /// transport is also dropped).
    pub fn detach(&self, pid: ParticipantId) {
        self.hub
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .peers
            .remove(&pid);
    }

    /// Number of attached endpoints.
    pub fn len(&self) -> usize {
        self.hub
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .peers
            .len()
    }

    /// True if no endpoints are attached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One endpoint of a [`LoopbackNet`].
#[derive(Debug)]
pub struct LoopbackTransport {
    pid: ParticipantId,
    hub: Arc<Mutex<Hub>>,
    mailbox: Arc<Mailbox>,
}

impl Transport for LoopbackTransport {
    fn local_pid(&self) -> ParticipantId {
        self.pid
    }

    fn send_to(&mut self, to: ParticipantId, msg: &Message) -> io::Result<()> {
        let target = self
            .hub
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .peers
            .get(&to)
            .cloned();
        if let Some(mailbox) = target {
            mailbox.push(msg.clone());
        }
        Ok(())
    }

    fn multicast(&mut self, msg: &Message) -> io::Result<()> {
        let targets: Vec<Arc<Mailbox>> = {
            let hub = self.hub.lock().unwrap_or_else(PoisonError::into_inner);
            hub.peers
                .iter()
                .filter(|(&pid, _)| pid != self.pid)
                .map(|(_, m)| Arc::clone(m))
                .collect()
        };
        for mailbox in targets {
            mailbox.push(msg.clone());
        }
        Ok(())
    }

    fn recv(&mut self, prefer_token: bool, timeout: Duration) -> io::Result<Option<Message>> {
        Ok(self.mailbox.pop(prefer_token, timeout))
    }

    fn recv_batch(
        &mut self,
        prefer_token: bool,
        timeout: Duration,
        max: usize,
        out: &mut Vec<Message>,
    ) -> io::Result<usize> {
        Ok(self.mailbox.pop_batch(prefer_token, timeout, max, out))
    }
}

impl Drop for LoopbackTransport {
    fn drop(&mut self) {
        self.hub
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .peers
            .remove(&self.pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_core::{RingId, Seq, Token};

    fn pid(v: u16) -> ParticipantId {
        ParticipantId::new(v)
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
            payload: bytes::Bytes::from_static(b"x"),
        })
    }

    #[test]
    fn unicast_reaches_only_target() {
        let net = LoopbackNet::new();
        let mut a = net.endpoint(pid(0));
        let mut b = net.endpoint(pid(1));
        let mut c = net.endpoint(pid(2));
        a.send_to(pid(1), &token_msg()).unwrap();
        assert!(b.recv(true, Duration::from_millis(10)).unwrap().is_some());
        assert!(c.recv(true, Duration::from_millis(1)).unwrap().is_none());
    }

    #[test]
    fn multicast_reaches_everyone_but_sender() {
        let net = LoopbackNet::new();
        let mut a = net.endpoint(pid(0));
        let mut b = net.endpoint(pid(1));
        let mut c = net.endpoint(pid(2));
        a.multicast(&data_msg()).unwrap();
        assert!(b.recv(false, Duration::from_millis(10)).unwrap().is_some());
        assert!(c.recv(false, Duration::from_millis(10)).unwrap().is_some());
        assert!(a.recv(false, Duration::from_millis(1)).unwrap().is_none());
    }

    #[test]
    fn priority_prefers_requested_channel() {
        let net = LoopbackNet::new();
        let mut a = net.endpoint(pid(0));
        let mut b = net.endpoint(pid(1));
        a.send_to(pid(1), &data_msg()).unwrap();
        a.send_to(pid(1), &token_msg()).unwrap();
        // Data arrived first, but token preference pulls the token.
        let m = b.recv(true, Duration::from_millis(10)).unwrap().unwrap();
        assert!(matches!(m, Message::Token(_)));
        let m = b.recv(true, Duration::from_millis(10)).unwrap().unwrap();
        assert!(matches!(m, Message::Data(_)));
    }

    #[test]
    fn recv_times_out_when_idle() {
        let net = LoopbackNet::new();
        let mut a = net.endpoint(pid(0));
        let start = Instant::now();
        assert!(a.recv(true, Duration::from_millis(20)).unwrap().is_none());
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn send_to_unknown_peer_is_dropped_silently() {
        let net = LoopbackNet::new();
        let mut a = net.endpoint(pid(0));
        a.send_to(pid(9), &token_msg()).unwrap();
    }

    #[test]
    fn drop_detaches_endpoint() {
        let net = LoopbackNet::new();
        {
            let _a = net.endpoint(pid(0));
            assert_eq!(net.len(), 1);
        }
        assert_eq!(net.len(), 0);
        // Re-attach after drop is allowed.
        let _a2 = net.endpoint(pid(0));
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn duplicate_attach_panics() {
        let net = LoopbackNet::new();
        let _a = net.endpoint(pid(0));
        let _b = net.endpoint(pid(0));
    }

    #[test]
    fn recv_batch_drains_ready_preferred_first() {
        let net = LoopbackNet::new();
        let mut a = net.endpoint(pid(0));
        let mut b = net.endpoint(pid(1));
        a.send_to(pid(1), &data_msg()).unwrap();
        a.send_to(pid(1), &data_msg()).unwrap();
        a.send_to(pid(1), &token_msg()).unwrap();
        let mut out = Vec::new();
        let n = b
            .recv_batch(true, Duration::from_millis(100), 10, &mut out)
            .unwrap();
        assert_eq!(n, 3);
        assert!(matches!(out[0], Message::Token(_)));
        // max caps the drain; the remainder stays queued.
        a.send_to(pid(1), &data_msg()).unwrap();
        a.send_to(pid(1), &data_msg()).unwrap();
        let mut out = Vec::new();
        let n = b
            .recv_batch(false, Duration::from_millis(100), 1, &mut out)
            .unwrap();
        assert_eq!(n, 1);
        assert!(b.recv(false, Duration::from_millis(100)).unwrap().is_some());
    }

    #[test]
    fn cross_thread_wakeup() {
        let net = LoopbackNet::new();
        let mut a = net.endpoint(pid(0));
        let mut b = net.endpoint(pid(1));
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            a.send_to(pid(1), &token_msg()).unwrap();
        });
        let m = b.recv(true, Duration::from_secs(5)).unwrap();
        assert!(m.is_some(), "blocked recv woke on arrival");
        t.join().unwrap();
    }
}
