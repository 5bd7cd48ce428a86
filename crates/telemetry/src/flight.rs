//! Flight recorder: a bounded ring of recent protocol events.
//!
//! Attached to a [`Participant`](ar_core::Participant) through the
//! [`Observer`](ar_core::Observer) hook, the recorder keeps the last
//! `capacity` events (with caller-injected timestamps) so that when a
//! node fails an assertion — in the Nemesis chaos harness, in a test,
//! or in production — the tail of its protocol history can be dumped
//! for post-mortem analysis. Recording is a mutex-guarded ring-buffer
//! write; the buffer is allocated once up front.

use std::sync::{Arc, Mutex, PoisonError};

use ar_core::{Observer, ProtoEvent};

/// One recorded protocol event with its injected timestamp
/// (nanoseconds; the caller decides the clock domain).
#[derive(Debug, Clone, Copy)]
pub struct FlightEvent {
    /// Timestamp passed to `Participant::observe_now` before the event
    /// fired.
    pub at: u64,
    /// The protocol event itself.
    pub ev: ProtoEvent,
}

struct Ring {
    buf: Vec<FlightEvent>,
    /// Next write position.
    head: usize,
    /// Total events ever pushed (>= buf.len()).
    total: u64,
}

/// A bounded, thread-safe recorder of the most recent protocol events.
pub struct FlightRecorder {
    cap: usize,
    ring: Mutex<Ring>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.cap)
            .field("len", &ring.buf.len())
            .field("total", &ring.total)
            .finish()
    }
}

impl FlightRecorder {
    /// Creates a recorder retaining the last `capacity` events
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(1);
        FlightRecorder {
            cap,
            ring: Mutex::new(Ring {
                buf: Vec::with_capacity(cap),
                head: 0,
                total: 0,
            }),
        }
    }

    /// Convenience: a recorder already wrapped for
    /// [`Participant::set_observer`](ar_core::Participant::set_observer).
    pub fn shared(capacity: usize) -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder::new(capacity))
    }

    /// Records one event, evicting the oldest if full.
    pub fn push(&self, at: u64, ev: ProtoEvent) {
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.buf.len() < self.cap {
            ring.buf.push(FlightEvent { at, ev });
        } else {
            let head = ring.head;
            ring.buf[head] = FlightEvent { at, ev };
        }
        ring.head = (ring.head + 1) % self.cap;
        ring.total += 1;
    }

    /// Number of events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .buf
            .len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .buf
            .is_empty()
    }

    /// Total events ever recorded (including evicted ones).
    pub fn total(&self) -> u64 {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .total
    }

    /// Maximum retained events.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The retained events, oldest first.
    pub fn dump(&self) -> Vec<FlightEvent> {
        let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.buf.len() < self.cap {
            ring.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.cap);
            out.extend_from_slice(&ring.buf[ring.head..]);
            out.extend_from_slice(&ring.buf[..ring.head]);
            out
        }
    }

    /// FNV-1a digest over the retained events (timestamps + encoded
    /// event bodies, oldest first). Two recorders that saw identical
    /// histories produce identical digests, making chaos runs
    /// comparable across executions.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x1000_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for fe in self.dump() {
            eat(&fe.at.to_le_bytes());
            fe.ev.encode(&mut eat);
        }
        h
    }

    /// Human-readable dump, one event per line (`at=<ns> <name> …`).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for fe in self.dump() {
            let _ = writeln!(out, "at={} {:?}", fe.at, fe.ev);
        }
        out
    }

    /// Discards all retained events (the cumulative total is kept).
    pub fn clear(&self) {
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        ring.buf.clear();
        ring.head = 0;
    }
}

impl Observer for FlightRecorder {
    fn on_event(&self, at: u64, ev: &ProtoEvent) {
        self.push(at, *ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64) -> ProtoEvent {
        ProtoEvent::MsgPostToken { seq }
    }

    #[test]
    fn retains_last_capacity_events_oldest_first() {
        let fr = FlightRecorder::new(4);
        for i in 0..10u64 {
            fr.push(i, ev(i));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.total(), 10);
        let d = fr.dump();
        let ats: Vec<u64> = d.iter().map(|f| f.at).collect();
        assert_eq!(ats, vec![6, 7, 8, 9]);
    }

    #[test]
    fn partial_fill_dumps_in_order() {
        let fr = FlightRecorder::new(8);
        for i in 0..3u64 {
            fr.push(i * 100, ev(i));
        }
        let ats: Vec<u64> = fr.dump().iter().map(|f| f.at).collect();
        assert_eq!(ats, vec![0, 100, 200]);
    }

    #[test]
    fn digest_is_deterministic_and_sensitive() {
        let a = FlightRecorder::new(16);
        let b = FlightRecorder::new(16);
        for i in 0..5u64 {
            a.push(i, ev(i));
            b.push(i, ev(i));
        }
        assert_eq!(a.digest(), b.digest());
        b.push(5, ev(5));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn works_as_participant_observer() {
        use ar_core::{Participant, ProtocolConfig, ServiceType};
        use bytes::Bytes;

        let fr = FlightRecorder::shared(64);
        let mut p = Participant::new_singleton(0.into(), ProtocolConfig::accelerated()).unwrap();
        p.set_observer(fr.clone());
        p.observe_now(42_000);
        p.submit(Bytes::from_static(b"x"), ServiceType::Agreed)
            .unwrap();
        let _ = p.start();
        assert!(fr.total() > 0, "observer saw protocol events");
        assert!(fr.dump().iter().all(|f| f.at == 42_000));
        let names: Vec<&str> = fr.dump().iter().map(|f| f.ev.name()).collect();
        assert!(names.contains(&"token-rx"), "{names:?}");
    }

    #[test]
    fn clear_keeps_total() {
        let fr = FlightRecorder::new(4);
        fr.push(1, ev(1));
        fr.push(2, ev(2));
        fr.clear();
        assert!(fr.is_empty());
        assert_eq!(fr.total(), 2);
        fr.push(3, ev(3));
        assert_eq!(fr.dump().len(), 1);
    }
}
