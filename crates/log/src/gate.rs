//! The Safe-durability gate: the one policy that decides when an
//! ordered delivery may reach the application of a node with a
//! durable log.
//!
//! [`DeliveryGate`] owns the node's [`SegmentedLog`] and is fed the
//! node's ordered output in order: every delivery
//! ([`deliver`](DeliveryGate::deliver)), every configuration change
//! ([`config`](DeliveryGate::config)), and the end of every step of
//! the node's event loop ([`end_step`](DeliveryGate::end_step)). It
//! pushes the deliveries the application may see into an `out`
//! vector, always in delivery order:
//!
//! * every delivery is appended to the log when it is ordered;
//! * with `gate_safe`, a Safe delivery is withheld until its record is
//!   durable, and everything ordered after it waits behind it, so the
//!   surfaced order stays the total order — "Safe" then means
//!   replicated **and** on disk;
//! * a step never ends with anything withheld: `end_step` forces one
//!   sync for the whole step's burst and releases the queue, which
//!   bounds the gate's latency at one step whatever the fsync policy;
//! * EVS confines a delivery to the configuration it was ordered in,
//!   so `config` releases the queue (syncing first) before the view
//!   change, then records a Regular configuration as a `Ring` record;
//! * every [`CURSOR_EVERY`] surfaced deliveries, `end_step` appends a
//!   `Cursor` record naming the last one (the redelivery watermark).
//!
//! The gate is sans-io apart from the log itself: it reads no clock
//! (`end_step` takes the caller's nanoseconds for the `IntervalMs`
//! policy) and owns no thread. `ar-net`'s `Runtime`, which `ard`
//! runs, and the deterministic `NemesisRunner` both call it, so the
//! harness checks the gate the daemon ships. A crash is modelled by
//! dropping the gate: the log's unflushed buffer dies with it.

use std::collections::VecDeque;
use std::io;

use ar_core::{ConfigChange, ConfigChangeKind, Delivery, RingId, Seq, ServiceType};

use crate::log::{Lsn, SegmentedLog};
use crate::record::{DeliveryRecord, LogRecord};

/// Surfaced deliveries between persisted cursor records. A cursor is a
/// redelivery watermark, not a correctness requirement (replaying a
/// suffix twice is idempotent for the daemon), so it is amortized.
pub const CURSOR_EVERY: u64 = 128;

/// A durable log and the Safe-delivery gate in front of it (see the
/// module docs).
#[derive(Debug)]
pub struct DeliveryGate {
    log: SegmentedLog,
    /// Withhold Safe deliveries until their record is durable.
    gate_safe: bool,
    /// Deliveries appended but not yet surfaced, in order.
    held: VecDeque<(Lsn, Delivery)>,
    /// Surfaced watermark not yet persisted as a cursor record.
    cursor: Option<(RingId, Seq)>,
    /// Deliveries surfaced since the last cursor record.
    since_cursor: u64,
}

impl DeliveryGate {
    /// Puts the gate in front of an opened log. With `gate_safe`
    /// unset, every delivery surfaces as soon as it is appended.
    pub fn new(log: SegmentedLog, gate_safe: bool) -> DeliveryGate {
        DeliveryGate {
            log,
            gate_safe,
            held: VecDeque::new(),
            cursor: None,
            since_cursor: 0,
        }
    }

    /// Appends `d` and surfaces it into `out`, or withholds it: a Safe
    /// delivery whose record is not yet durable, or anything behind a
    /// withheld one.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the append; `d` is then dropped.
    pub fn deliver(&mut self, d: Delivery, out: &mut Vec<Delivery>) -> io::Result<()> {
        let lsn = self.log.append(&LogRecord::Delivery(DeliveryRecord {
            ring: d.ring_id,
            seq: d.seq,
            pid: d.pid,
            service: d.service,
            payload: d.payload.clone(),
        }))?;
        let hold = self.gate_safe
            && (!self.held.is_empty()
                || (d.service == ServiceType::Safe && lsn > self.log.durable_lsn()));
        if hold {
            self.held.push_back((lsn, d));
        } else {
            self.surface(d, out);
        }
        Ok(())
    }

    /// A configuration change is about to surface: forces anything
    /// withheld to disk and surfaces it into `out` first, then records
    /// a Regular configuration as the node's ring identity.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the sync or the append.
    pub fn config(&mut self, c: &ConfigChange, out: &mut Vec<Delivery>) -> io::Result<()> {
        self.release_all(out)?;
        if c.kind == ConfigChangeKind::Regular {
            self.log.append(&LogRecord::Ring {
                ring: c.ring_id,
                members: c.members.clone(),
            })?;
        }
        Ok(())
    }

    /// The node's step ends at caller time `now_nanos`: runs the
    /// interval policy, forces anything withheld to disk and surfaces
    /// it into `out` (one sync covers the step's burst), and persists
    /// the cursor once [`CURSOR_EVERY`] deliveries surfaced since the
    /// last one.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from a sync or the cursor append.
    pub fn end_step(&mut self, now_nanos: u64, out: &mut Vec<Delivery>) -> io::Result<()> {
        self.log.maybe_sync(now_nanos)?;
        self.release_all(out)?;
        if self.since_cursor >= CURSOR_EVERY {
            if let Some((ring, seq)) = self.cursor.take() {
                self.log.append(&LogRecord::Cursor { ring, seq })?;
            }
            self.since_cursor = 0;
        }
        Ok(())
    }

    /// Clean shutdown: syncs, surfaces everything withheld into `out`,
    /// persists the cursor, and syncs again, so nothing buffered is
    /// left behind.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from a sync or the cursor append.
    pub fn flush(&mut self, out: &mut Vec<Delivery>) -> io::Result<()> {
        self.log.sync()?;
        self.release_all(out)?;
        if let Some((ring, seq)) = self.cursor.take() {
            self.log.append(&LogRecord::Cursor { ring, seq })?;
            self.since_cursor = 0;
        }
        self.log.sync()
    }

    /// Syncs if anything is withheld, then surfaces all of it.
    fn release_all(&mut self, out: &mut Vec<Delivery>) -> io::Result<()> {
        if self.held.is_empty() {
            return Ok(());
        }
        self.log.sync()?;
        while let Some((_, d)) = self.held.pop_front() {
            self.surface(d, out);
        }
        Ok(())
    }

    fn surface(&mut self, d: Delivery, out: &mut Vec<Delivery>) {
        self.cursor = Some((d.ring_id, d.seq));
        self.since_cursor += 1;
        out.push(d);
    }

    /// Deliveries withheld right now (zero between calls to
    /// [`end_step`](Self::end_step) and the next delivery).
    pub fn held_len(&self) -> usize {
        self.held.len()
    }

    /// The log behind the gate: its counters, its durable LSN, and when
    /// the interval policy owes a sync
    /// ([`SegmentedLog::sync_due_at`]), by which a caller that sleeps
    /// between steps must wake.
    pub fn log(&self) -> &SegmentedLog {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{read_log_dir, FsyncPolicy, LogConfig};
    use ar_core::ParticipantId;
    use bytes::Bytes;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ar-log-gate-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn gate(dir: &PathBuf, fsync: FsyncPolicy, gate_safe: bool) -> DeliveryGate {
        let (log, _) = SegmentedLog::open(LogConfig::new(dir).with_fsync(fsync)).unwrap();
        DeliveryGate::new(log, gate_safe)
    }

    fn ring() -> RingId {
        RingId::new(ParticipantId::new(0), 1)
    }

    fn delivery(seq: u64, service: ServiceType) -> Delivery {
        Delivery {
            ring_id: ring(),
            seq: Seq::new(seq),
            pid: ParticipantId::new(0),
            service,
            payload: Bytes::from(format!("m{seq}")),
        }
    }

    fn seqs(out: &[Delivery]) -> Vec<u64> {
        out.iter().map(|d| d.seq.as_u64()).collect()
    }

    fn config(kind: ConfigChangeKind) -> ConfigChange {
        ConfigChange {
            kind,
            ring_id: RingId::new(ParticipantId::new(0), 2),
            members: vec![ParticipantId::new(0)],
        }
    }

    #[test]
    fn a_safe_delivery_holds_everything_behind_it_until_the_step_ends() {
        let dir = temp_dir("hold");
        let mut g = gate(&dir, FsyncPolicy::Never, true);
        let mut out = Vec::new();
        g.deliver(delivery(1, ServiceType::Agreed), &mut out)
            .unwrap();
        g.deliver(delivery(2, ServiceType::Safe), &mut out).unwrap();
        g.deliver(delivery(3, ServiceType::Agreed), &mut out)
            .unwrap();
        assert_eq!(seqs(&out), [1], "the Safe delivery and its follower wait");
        assert_eq!(g.held_len(), 2);
        g.end_step(0, &mut out).unwrap();
        assert_eq!(seqs(&out), [1, 2, 3]);
        assert_eq!(g.held_len(), 0);
        assert_eq!(g.log().durable_lsn(), g.log().last_lsn());
        assert_eq!(g.log().stats().syncs, 1, "one sync for the step's burst");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_ungated_or_already_durable_safe_delivery_surfaces_at_once() {
        let dir = temp_dir("open");
        let mut out = Vec::new();
        let mut g = gate(&dir, FsyncPolicy::Never, false);
        g.deliver(delivery(1, ServiceType::Safe), &mut out).unwrap();
        drop(g);
        let mut g = gate(&dir, FsyncPolicy::Always, true);
        g.deliver(delivery(2, ServiceType::Safe), &mut out).unwrap();
        assert_eq!(seqs(&out), [1, 2]);
        assert_eq!(g.held_len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_config_change_releases_first_and_records_a_regular_ring() {
        let dir = temp_dir("config");
        let mut g = gate(&dir, FsyncPolicy::Never, true);
        let mut out = Vec::new();
        g.deliver(delivery(1, ServiceType::Safe), &mut out).unwrap();
        g.config(&config(ConfigChangeKind::Transitional), &mut out)
            .unwrap();
        assert_eq!(seqs(&out), [1], "released before the view change");
        g.config(&config(ConfigChangeKind::Regular), &mut out)
            .unwrap();
        g.flush(&mut out).unwrap();
        let on_disk = read_log_dir(&dir).unwrap();
        assert_eq!(
            on_disk.ring.map(|(r, _)| r),
            Some(config(ConfigChangeKind::Regular).ring_id)
        );
        assert_eq!(on_disk.records, 3, "delivery, ring, cursor");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_cursor_is_persisted_every_cursor_every_deliveries_and_on_flush() {
        let dir = temp_dir("cursor");
        let mut g = gate(&dir, FsyncPolicy::Never, false);
        let mut out = Vec::new();
        for seq in 1..=CURSOR_EVERY {
            g.deliver(delivery(seq, ServiceType::Agreed), &mut out)
                .unwrap();
        }
        g.end_step(0, &mut out).unwrap();
        g.deliver(delivery(CURSOR_EVERY + 1, ServiceType::Agreed), &mut out)
            .unwrap();
        g.end_step(0, &mut out).unwrap();
        assert_eq!(
            g.log().stats().appends,
            CURSOR_EVERY + 2,
            "one cursor so far"
        );
        g.flush(&mut out).unwrap();
        let on_disk = read_log_dir(&dir).unwrap();
        assert_eq!(on_disk.cursor, Some((ring(), Seq::new(CURSOR_EVERY + 1))));
        assert!(on_disk.undelivered().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn end_step_runs_the_interval_policy() {
        let dir = temp_dir("interval");
        let mut g = gate(&dir, FsyncPolicy::IntervalMs(1), false);
        let mut out = Vec::new();
        g.end_step(0, &mut out).unwrap();
        g.deliver(delivery(1, ServiceType::Agreed), &mut out)
            .unwrap();
        assert_eq!(g.log().sync_due_at(), Some(1_000_000));
        g.end_step(1_000_000, &mut out).unwrap();
        assert_eq!(g.log().unsynced_records(), 0);
        assert_eq!(g.log().sync_due_at(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
