//! Public readiness polling over raw file descriptors.
//!
//! The batched UDP datapath waits on its two sockets with `ppoll(2)`
//! (see `crate::sys`). The client service tier (`ar-svc`) has the same
//! problem at a different scale: one thread multiplexing thousands of
//! client sockets plus a couple of listeners. This module exposes that
//! ppoll loop as a reusable [`PollSet`]: register any `AsRawFd`
//! descriptors, wait once, inspect per-descriptor readability (and,
//! for descriptors registered for it, writability).
//!
//! On non-Linux targets (where `crate::sys` is not compiled) the set
//! degrades to a bounded sleep that reports every descriptor as
//! possibly-readable; callers use non-blocking reads anyway, so the
//! fallback costs spurious wakeups, not correctness.
//!
//! Work that arrives on a channel rather than a descriptor reaches a
//! polling thread through a [`wake_pair`]: the producer's [`Waker`]
//! makes the consumer's [`WakeReceiver`] descriptor readable.

use std::io;
#[cfg(unix)]
use std::os::unix::net::UnixDatagram;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A reusable set of descriptors polled for readability.
///
/// The intended pattern is rebuild-per-iteration (registration is just
/// a `Vec` push, far cheaper than a syscall):
///
/// ```ignore
/// let mut set = PollSet::new();
/// loop {
///     set.clear();
///     let listener_slot = set.register(listener.as_raw_fd());
///     let slots: Vec<usize> = conns.iter().map(|c| set.register(c.fd())).collect();
///     set.wait(Duration::from_millis(5))?;
///     if set.is_readable(listener_slot) { /* accept */ }
///     for (i, slot) in slots.iter().enumerate() {
///         if set.is_readable(*slot) { /* read conns[i] */ }
///     }
/// }
/// ```
#[derive(Debug, Default)]
pub struct PollSet {
    #[cfg(target_os = "linux")]
    fds: Vec<crate::sys::PollFd>,
    #[cfg(not(target_os = "linux"))]
    len: usize,
}

impl PollSet {
    /// Creates an empty set.
    pub fn new() -> PollSet {
        PollSet::default()
    }

    /// Removes every registered descriptor (capacity is kept).
    pub fn clear(&mut self) {
        #[cfg(target_os = "linux")]
        self.fds.clear();
        #[cfg(not(target_os = "linux"))]
        {
            self.len = 0;
        }
    }

    /// Registers a descriptor for readability and returns its slot
    /// index (valid until the next [`clear`](PollSet::clear)).
    pub fn register(&mut self, fd: i32) -> usize {
        self.push(fd, false)
    }

    /// Registers a descriptor for readability *and* writability: for a
    /// socket whose outgoing bytes the kernel refused, so the wait ends
    /// once it drains. Returns its slot as [`register`](PollSet::register)
    /// does. Register writability only while something waits to be
    /// written; an idle socket is always writable and would end every
    /// wait at once.
    pub fn register_read_write(&mut self, fd: i32) -> usize {
        self.push(fd, true)
    }

    fn push(&mut self, fd: i32, writable: bool) -> usize {
        #[cfg(target_os = "linux")]
        {
            use crate::sys::{POLLIN, POLLOUT};
            self.fds.push(crate::sys::PollFd {
                fd,
                events: if writable { POLLIN | POLLOUT } else { POLLIN },
                revents: 0,
            });
            self.fds.len() - 1
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = (fd, writable);
            self.len += 1;
            self.len - 1
        }
    }

    /// Number of registered descriptors.
    pub fn len(&self) -> usize {
        #[cfg(target_os = "linux")]
        {
            self.fds.len()
        }
        #[cfg(not(target_os = "linux"))]
        {
            self.len
        }
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Waits until some registered descriptor is ready for what it was
    /// registered for (or has an error/hangup pending) or `timeout`
    /// elapses. Returns `true` when
    /// at least one slot needs attention.
    ///
    /// # Errors
    ///
    /// Propagates the kernel error (`EINTR` is retried internally).
    pub fn wait(&mut self, timeout: Duration) -> io::Result<bool> {
        #[cfg(target_os = "linux")]
        {
            if self.fds.is_empty() {
                std::thread::sleep(timeout);
                return Ok(false);
            }
            crate::sys::poll_ready(&mut self.fds, timeout)
        }
        #[cfg(not(target_os = "linux"))]
        {
            // Portable fallback: bounded sleep; every descriptor then
            // reports ready and the caller's non-blocking reads and
            // writes sort out which ones actually are.
            std::thread::sleep(timeout.min(Duration::from_millis(5)));
            Ok(self.len > 0)
        }
    }

    /// True when the slot returned by [`register`](PollSet::register)
    /// was readable (or hung up / errored — states a read will
    /// surface) at the last [`wait`](PollSet::wait).
    pub fn is_readable(&self, slot: usize) -> bool {
        #[cfg(target_os = "linux")]
        {
            self.has(slot, crate::sys::POLLIN)
        }
        #[cfg(not(target_os = "linux"))]
        {
            slot < self.len
        }
    }

    /// True when the slot returned by
    /// [`register_read_write`](PollSet::register_read_write) was
    /// writable (or hung up / errored — states a write will surface)
    /// at the last [`wait`](PollSet::wait).
    pub fn is_writable(&self, slot: usize) -> bool {
        #[cfg(target_os = "linux")]
        {
            self.has(slot, crate::sys::POLLOUT)
        }
        #[cfg(not(target_os = "linux"))]
        {
            slot < self.len
        }
    }

    #[cfg(target_os = "linux")]
    fn has(&self, slot: usize, event: i16) -> bool {
        self.fds
            .get(slot)
            .is_some_and(|fd| fd.revents & (event | crate::sys::POLLERR_HUP_NVAL) != 0)
    }
}

/// State shared by the two halves of a [`wake_pair`].
#[derive(Debug)]
struct WakeShared {
    /// True from the wake that sent a datagram until the consumer's
    /// next [`WakeReceiver::drain`]; wakes in between cost one swap.
    armed: AtomicBool,
    /// Datagrams carry their send time as nanoseconds since this.
    epoch: Instant,
    #[cfg(unix)]
    tx: UnixDatagram,
}

/// The producer half of a [`wake_pair`]: cloneable, shared by every
/// thread that hands work to the polling thread.
#[derive(Debug, Clone)]
pub struct Waker {
    shared: Arc<WakeShared>,
}

/// The consumer half of a [`wake_pair`], owned by the polling thread.
#[derive(Debug)]
pub struct WakeReceiver {
    shared: Arc<WakeShared>,
    #[cfg(unix)]
    rx: UnixDatagram,
}

/// Creates a connected wake pair over a non-blocking Unix datagram
/// socket pair. The consumer registers [`WakeReceiver::fd`] in its
/// [`PollSet`] and calls [`WakeReceiver::drain`] after every `wait`,
/// *before* it looks at the queues the producers fill; a producer
/// queues its work and then calls [`Waker::wake`]. Whatever the
/// interleaving, work queued before a `wake` is seen by the pass that
/// follows the matching `drain`, or `wait` returns at once for another
/// pass.
///
/// On non-Unix targets the pair holds no socket and `wake` does
/// nothing: the portable [`PollSet::wait`] already sleeps a bounded
/// time and reports everything readable.
///
/// # Errors
///
/// Propagates the socket-pair creation error.
pub fn wake_pair() -> io::Result<(Waker, WakeReceiver)> {
    #[cfg(unix)]
    let (tx, rx) = UnixDatagram::pair()?;
    #[cfg(unix)]
    {
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
    }
    let shared = Arc::new(WakeShared {
        armed: AtomicBool::new(false),
        epoch: Instant::now(),
        #[cfg(unix)]
        tx,
    });
    let waker = Waker {
        shared: Arc::clone(&shared),
    };
    Ok((
        waker,
        WakeReceiver {
            shared,
            #[cfg(unix)]
            rx,
        },
    ))
}

impl Waker {
    /// Makes the receiver's descriptor readable unless a wake is
    /// already outstanding (then this is one atomic swap, no syscall).
    /// A dropped receiver makes it a silent no-op.
    pub fn wake(&self) {
        // SeqCst pairs with the store in `WakeReceiver::drain`: the
        // work queued before this swap is visible to the consumer
        // that observes (or resets) the flag.
        if !self.shared.armed.swap(true, Ordering::SeqCst) {
            #[cfg(unix)]
            {
                let stamp = self.shared.epoch.elapsed().as_nanos() as u64;
                // A failed send (receiver gone, buffer full) leaves the
                // flag set; the consumer's next drain clears it.
                let _ = self.shared.tx.send(&stamp.to_le_bytes());
            }
        }
    }

    /// True when both wakers signal the same receiver.
    pub fn same_target(&self, other: &Waker) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }
}

impl WakeReceiver {
    /// The descriptor to register for readability (`-1` on non-Unix
    /// targets, where [`PollSet`] ignores descriptors).
    pub fn fd(&self) -> i32 {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            self.rx.as_raw_fd()
        }
        #[cfg(not(unix))]
        {
            -1
        }
    }

    /// Empties the socket and re-enables the wakers. Returns how long
    /// the oldest wake read had been waiting, `None` when there was
    /// none (the pass was caused by something else).
    pub fn drain(&self) -> Option<Duration> {
        let mut waited = None;
        #[cfg(unix)]
        {
            let mut stamp = [0u8; 8];
            while let Ok(n) = self.rx.recv(&mut stamp) {
                if n == stamp.len() && waited.is_none() {
                    let sent = Duration::from_nanos(u64::from_le_bytes(stamp));
                    waited = Some(self.shared.epoch.elapsed().saturating_sub(sent));
                }
            }
        }
        self.shared.armed.store(false, Ordering::SeqCst);
        waited
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;

    #[test]
    fn empty_set_times_out() {
        let mut set = PollSet::new();
        let start = std::time::Instant::now();
        assert!(!set.wait(Duration::from_millis(20)).unwrap());
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn readable_socket_is_flagged() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let idle = UdpSocket::bind("127.0.0.1:0").unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.send_to(b"ping", rx.local_addr().unwrap()).unwrap();

        let mut set = PollSet::new();
        let rx_slot = set.register(rx.as_raw_fd());
        let idle_slot = set.register(idle.as_raw_fd());
        assert_eq!(set.len(), 2);
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        let mut ready = false;
        while !ready && std::time::Instant::now() < deadline {
            ready = set.wait(Duration::from_millis(50)).unwrap();
        }
        assert!(ready);
        assert!(set.is_readable(rx_slot));
        #[cfg(target_os = "linux")]
        assert!(!set.is_readable(idle_slot), "idle socket not flagged");
        let _ = idle_slot;

        set.clear();
        assert!(set.is_empty());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn writable_interest_is_reported_apart_from_readability() {
        let watched = UdpSocket::bind("127.0.0.1:0").unwrap();
        let idle = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut set = PollSet::new();
        let rw_slot = set.register_read_write(watched.as_raw_fd());
        let read_slot = set.register(idle.as_raw_fd());
        let start = Instant::now();
        assert!(set.wait(Duration::from_secs(5)).unwrap());
        assert!(start.elapsed() < Duration::from_secs(1), "writable at once");
        assert!(set.is_writable(rw_slot));
        assert!(!set.is_readable(rw_slot), "writable is not readable");
        assert!(!set.is_writable(read_slot), "no writable interest asked");
        assert!(!set.is_readable(read_slot));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn wake_before_wait_returns_at_once_and_one_drain_rearms() {
        let (waker, rx) = wake_pair().unwrap();
        let mut set = PollSet::new();
        let slot = set.register(rx.fd());

        // Nothing sent: the wait times out.
        assert!(!set.wait(Duration::from_millis(20)).unwrap());
        assert_eq!(rx.drain(), None);

        // N wakes while armed put one datagram in the socket.
        let other = waker.clone();
        assert!(waker.same_target(&other));
        for _ in 0..5 {
            waker.wake();
            other.wake();
        }
        let start = Instant::now();
        assert!(set.wait(Duration::from_secs(5)).unwrap());
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "woke, not timed out"
        );
        assert!(set.is_readable(slot));
        let waited = rx.drain().expect("a wake was pending");
        assert!(waited < Duration::from_secs(5));
        assert_eq!(rx.drain(), None, "one drain emptied the socket");
        assert!(!set.wait(Duration::from_millis(20)).unwrap());

        // Drained means re-armed: the next wake sends again.
        waker.wake();
        assert!(set.wait(Duration::from_secs(5)).unwrap());
        assert!(rx.drain().is_some());
    }

    #[test]
    fn wake_without_a_receiver_is_silent() {
        let (waker, rx) = wake_pair().unwrap();
        let (unrelated, _rx2) = wake_pair().unwrap();
        assert!(!waker.same_target(&unrelated));
        drop(rx);
        waker.wake();
        waker.wake();
    }
}
