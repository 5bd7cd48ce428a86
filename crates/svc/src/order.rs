//! The retired cross-shard hold-back queue, kept only because the
//! `e2ebench` driver `svc.order.holdback_ns` times it. The service tier
//! no longer uses it: per-publisher order across ring shards is kept
//! at ingress by [`crate::credit::PublishGate`]. Delete this module
//! once the benchmark stops importing it.
//!
//! A subscriber's stamped deliveries from one publisher are held until
//! that publisher's floor (the highest stamp through which every
//! publish is ordered) reaches their stamp, then released in ascending
//! stamp order. Stamps at or below the released floor are duplicates.

use std::collections::{BTreeMap, HashMap};

/// Per-publisher hold-back state for one subscriber connection.
#[derive(Debug, Default)]
pub struct HoldBack<T> {
    queues: HashMap<String, PubQueue<T>>,
}

#[derive(Debug)]
struct PubQueue<T> {
    /// Stamps at or below this have been released (or were covered by
    /// an already-released floor) — later copies are duplicates.
    released_to: u64,
    held: BTreeMap<u64, T>,
}

impl<T> Default for PubQueue<T> {
    fn default() -> Self {
        PubQueue {
            released_to: 0,
            held: BTreeMap::new(),
        }
    }
}

impl<T> HoldBack<T> {
    /// Empty hold-back state.
    pub fn new() -> HoldBack<T> {
        HoldBack {
            queues: HashMap::new(),
        }
    }

    /// Holds one stamped delivery from `publisher`. Returns `false`
    /// (and drops the item) when it is a duplicate shard copy — the
    /// stamp is already held or already released.
    pub fn insert(&mut self, publisher: &str, stamp: u64, item: T) -> bool {
        let q = self.queues.entry(publisher.to_string()).or_default();
        if stamp <= q.released_to || q.held.contains_key(&stamp) {
            return false;
        }
        q.held.insert(stamp, item);
        true
    }

    /// Releases everything eligible under the given publisher floors,
    /// in ascending stamp order per publisher. `floors` returns the
    /// publisher's `ordered_through`, or `None` when the publisher is
    /// gone — its held messages are then released unconditionally.
    pub fn release(&mut self, mut floors: impl FnMut(&str) -> Option<u64>) -> Vec<T> {
        let mut out = Vec::new();
        self.queues.retain(|publisher, q| match floors(publisher) {
            Some(floor) => {
                while let Some(entry) = q.held.first_entry() {
                    if *entry.key() > floor {
                        break;
                    }
                    out.push(entry.remove());
                }
                q.released_to = q.released_to.max(floor);
                true
            }
            None => {
                out.extend(std::mem::take(&mut q.held).into_values());
                false
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn releases_in_stamp_order_up_to_the_floor() {
        let mut hb = HoldBack::new();
        // Shard B's copy (stamp 5) drained before shard A's (stamp 4).
        assert!(hb.insert("alice", 5, "m5"));
        assert!(hb.insert("alice", 4, "m4"));
        assert_eq!(hb.release(|_| Some(3)), Vec::<&str>::new());
        assert_eq!(hb.release(|_| Some(5)), vec!["m4", "m5"]);
        assert_eq!(hb.release(|_| Some(5)), Vec::<&str>::new());
    }

    #[test]
    fn gaps_do_not_block_release() {
        // A subscriber sees a subsequence of the publisher's stamps —
        // stamp 2 went to a group it never joined.
        let mut hb = HoldBack::new();
        hb.insert("alice", 1, 1u32);
        hb.insert("alice", 3, 3u32);
        assert_eq!(hb.release(|_| Some(3)), vec![1, 3]);
    }

    #[test]
    fn duplicate_shard_copies_collapse() {
        let mut hb = HoldBack::new();
        assert!(hb.insert("alice", 7, "first"));
        assert!(!hb.insert("alice", 7, "second"), "held duplicate");
        assert_eq!(hb.release(|_| Some(7)), vec!["first"]);
        // A straggler copy below the released floor is also dropped.
        assert!(!hb.insert("alice", 7, "third"), "released duplicate");
        assert!(!hb.insert("alice", 3, "older"), "below the floor");
        assert_eq!(hb.release(|_| Some(7)), Vec::<&str>::new());
    }

    #[test]
    fn publishers_are_independent() {
        let mut hb = HoldBack::new();
        hb.insert("alice", 2, "a2");
        hb.insert("bob", 1, "b1");
        let released = hb.release(|p| if p == "bob" { Some(1) } else { Some(0) });
        assert_eq!(released, vec!["b1"]);
        // Alice's message stayed held until her own floor reached it.
        assert_eq!(hb.release(|_| Some(2)), vec!["a2"]);
    }

    #[test]
    fn departed_publishers_release_everything() {
        let mut hb = HoldBack::new();
        hb.insert("alice", 8, "a8");
        hb.insert("alice", 9, "a9");
        let mut released = hb.release(|_| None);
        released.sort_unstable();
        assert_eq!(released, vec!["a8", "a9"]);
        // The queue is gone; fresh inserts start a new epoch.
        assert!(hb.insert("alice", 1, "new"));
    }
}
