//! The segmented log proper: fixed-size segment files, an append path
//! with a configurable fsync policy, and torn-tail recovery.
//!
//! Segment files are named `seg-<first-lsn>.log` (zero-padded hex) so a
//! directory listing sorts them into log order and the file name itself
//! is the index entry: the records in `seg-%016x` start at that LSN.
//! Recovery scans segments in order, validating every record's CRC, and
//! truncates at the **first** failure — the remainder of that segment
//! and every later segment are discarded, so no record past a corruption
//! can ever resurrect.
//!
//! Like the protocol core, the log never reads a clock: the caller
//! passes `now_nanos` into [`SegmentedLog::maybe_sync`], which makes the
//! `IntervalMs` policy testable under a virtual clock.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ar_core::{ParticipantId, RingId, Seq};

use crate::record::{decode_record, encode_record, DeliveryRecord, LogRecord};

/// When appended records are forced to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append. Slowest, zero-loss on power failure.
    Always,
    /// fsync once every `n` appends.
    EveryN(u32),
    /// fsync when [`SegmentedLog::maybe_sync`] observes this many
    /// milliseconds since the last sync (caller-clocked).
    IntervalMs(u64),
    /// Never fsync (the OS flushes whenever it likes). Survives process
    /// crashes whose writes reached the kernel, not power failures.
    Never,
}

/// Segmented-log tuning.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Directory holding the segment files (created if missing).
    pub dir: PathBuf,
    /// Roll to a new segment once the active one reaches this size.
    pub segment_bytes: u64,
    /// Durability policy for appended records.
    pub fsync: FsyncPolicy,
}

impl LogConfig {
    /// Defaults: 4 MiB segments, fsync every 64 appends.
    pub fn new(dir: impl Into<PathBuf>) -> LogConfig {
        LogConfig {
            dir: dir.into(),
            segment_bytes: 4 * 1024 * 1024,
            fsync: FsyncPolicy::EveryN(64),
        }
    }

    /// Sets the fsync policy.
    #[must_use]
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> LogConfig {
        self.fsync = fsync;
        self
    }

    /// Sets the segment roll size.
    #[must_use]
    pub fn with_segment_bytes(mut self, bytes: u64) -> LogConfig {
        self.segment_bytes = bytes.max(1);
        self
    }
}

/// Log sequence number: the 1-based ordinal of a record in the log.
/// `Lsn(0)` means "nothing".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

/// Counters accumulated by one log handle (recovery numbers included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Records appended through this handle.
    pub appends: u64,
    /// fsync(2) calls issued.
    pub syncs: u64,
    /// Segment files created.
    pub segments_created: u64,
    /// Bytes handed to the OS.
    pub bytes_written: u64,
    /// Valid records found on disk at open.
    pub recovered_records: u64,
    /// Bytes discarded from the torn tail at open (first bad record to
    /// end of its segment).
    pub torn_bytes_truncated: u64,
    /// Whole segments discarded at open because they followed a torn
    /// record.
    pub segments_removed: u64,
}

/// Everything recovery learned from the directory at open.
#[derive(Debug, Clone, Default)]
pub struct Recovered {
    /// The newest ring-identity record, if any.
    pub ring: Option<(RingId, Vec<ParticipantId>)>,
    /// The newest delivery cursor, if any.
    pub cursor: Option<(RingId, Seq)>,
    /// Every valid delivery record, in log order, paired with its
    /// position (index into the record stream).
    pub deliveries: Vec<(u64, DeliveryRecord)>,
    /// Record-stream position of the newest cursor.
    cursor_pos: Option<u64>,
    /// Total valid records recovered.
    pub records: u64,
    /// Bytes truncated from the torn tail.
    pub torn_bytes: u64,
    /// Segments removed past the torn tail.
    pub segments_removed: u64,
}

impl Recovered {
    /// The suffix of deliveries the application had **not** surfaced
    /// before the crash: everything past the newest cursor, plus
    /// same-ring records at earlier positions whose sequence number
    /// exceeds the cursor (Safe deliveries that were appended while
    /// awaiting stability).
    pub fn undelivered(&self) -> Vec<&DeliveryRecord> {
        let Some((cring, cseq)) = self.cursor else {
            return self.deliveries.iter().map(|(_, d)| d).collect();
        };
        let cpos = self.cursor_pos.unwrap_or(0);
        self.deliveries
            .iter()
            .filter(|(pos, d)| *pos > cpos || (d.ring == cring && d.seq > cseq))
            .map(|(_, d)| d)
            .collect()
    }
}

fn segment_path(dir: &Path, start: Lsn) -> PathBuf {
    dir.join(format!("seg-{:016x}.log", start.0))
}

fn parse_segment_name(name: &str) -> Option<Lsn> {
    let hex = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok().map(Lsn)
}

/// Result of scanning one segment file's bytes.
struct SegmentScan {
    /// Byte offset of the end of the last valid record.
    valid_len: u64,
    /// Records decoded.
    records: Vec<LogRecord>,
    /// Whether the scan hit a framing error (torn tail).
    torn: bool,
}

fn scan_segment(bytes: &[u8]) -> SegmentScan {
    let mut offset = 0usize;
    let mut records = Vec::new();
    let mut torn = false;
    loop {
        match decode_record(&bytes[offset..]) {
            Ok(Some((rec, used))) => {
                records.push(rec);
                offset += used;
            }
            Ok(None) => break,
            Err(_) => {
                torn = true;
                break;
            }
        }
    }
    SegmentScan {
        valid_len: offset as u64,
        records,
        torn,
    }
}

/// A persistent, segmented, CRC-framed append-only log.
#[derive(Debug)]
pub struct SegmentedLog {
    cfg: LogConfig,
    /// The active (last) segment file, positioned at its end.
    file: File,
    /// Bytes of valid records already in the active segment.
    seg_len: u64,
    /// First LSN of the active segment (names the file).
    seg_start: Lsn,
    /// Records encoded but not yet written to the OS. Lost if the
    /// process dies before a flush — exactly a kill -9's blast radius
    /// for user-space buffers.
    buf: Vec<u8>,
    /// Total records appended (next LSN - 1).
    appended: u64,
    /// Records known durable (flushed + fsynced).
    durable: u64,
    /// Appends since the last sync (for `EveryN`).
    unsynced: u32,
    /// Caller-clock timestamp of the last sync (for `IntervalMs`).
    last_sync_nanos: Option<u64>,
    stats: LogStats,
}

impl SegmentedLog {
    /// Opens (or creates) the log in `cfg.dir`, recovering whatever
    /// valid prefix is on disk. The torn tail — everything from the
    /// first CRC failure on — is truncated and later segments removed,
    /// so the append position is the end of the valid prefix.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading, truncating, or creating
    /// files.
    pub fn open(cfg: LogConfig) -> io::Result<(SegmentedLog, Recovered)> {
        std::fs::create_dir_all(&cfg.dir)?;
        let mut segments: Vec<(Lsn, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&cfg.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if let Some(start) = name.to_str().and_then(parse_segment_name) {
                segments.push((start, entry.path()));
            }
        }
        segments.sort();

        let mut recovered = Recovered::default();
        let mut pos = 0u64; // record-stream position
        let mut active: Option<(Lsn, PathBuf, u64)> = None;
        let mut truncate_from: Option<usize> = None;
        for (i, (start, path)) in segments.iter().enumerate() {
            let mut bytes = Vec::new();
            File::open(path)?.read_to_end(&mut bytes)?;
            let scan = scan_segment(&bytes);
            for rec in scan.records {
                pos += 1;
                recovered.records += 1;
                match rec {
                    LogRecord::Delivery(d) => recovered.deliveries.push((pos, d)),
                    LogRecord::Cursor { ring, seq } => {
                        recovered.cursor = Some((ring, seq));
                        recovered.cursor_pos = Some(pos);
                    }
                    LogRecord::Ring { ring, members } => {
                        recovered.ring = Some((ring, members));
                    }
                }
            }
            if scan.torn {
                recovered.torn_bytes += bytes.len() as u64 - scan.valid_len;
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(scan.valid_len)?;
                f.sync_all()?;
                active = Some((*start, path.clone(), scan.valid_len));
                truncate_from = Some(i + 1);
                break;
            }
            active = Some((*start, path.clone(), scan.valid_len));
        }
        if let Some(from) = truncate_from {
            for (_, path) in &segments[from..] {
                recovered.torn_bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                std::fs::remove_file(path)?;
                recovered.segments_removed += 1;
            }
        }

        let appended = recovered.records;
        let (seg_start, path, seg_len, created) = match active {
            Some((start, path, len)) => (start, path, len, false),
            None => {
                let start = Lsn(appended + 1);
                (start, segment_path(&cfg.dir, start), 0, true)
            }
        };
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false) // recovery already trimmed the torn tail
            .open(&path)?;
        file.seek(SeekFrom::Start(seg_len))?;
        let stats = LogStats {
            recovered_records: recovered.records,
            torn_bytes_truncated: recovered.torn_bytes,
            segments_removed: recovered.segments_removed,
            segments_created: u64::from(created),
            ..LogStats::default()
        };
        Ok((
            SegmentedLog {
                cfg,
                file,
                seg_len,
                seg_start,
                buf: Vec::new(),
                appended,
                durable: appended,
                unsynced: 0,
                last_sync_nanos: None,
                stats,
            },
            recovered,
        ))
    }

    /// Appends one record, applying the fsync policy, and returns its
    /// LSN. The record may still be buffered in user space afterwards
    /// (policy permitting); it is only guaranteed on disk once
    /// [`durable_lsn`](Self::durable_lsn) reaches the returned LSN.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing or syncing.
    pub fn append(&mut self, rec: &LogRecord) -> io::Result<Lsn> {
        let before = self.buf.len();
        let len = encode_record(rec, &mut self.buf) as u64;
        // Roll before the record would overflow the segment (never
        // splitting a record across files). The freshly encoded bytes
        // move to the new segment with the flush below.
        if self.seg_len + self.buf.len() as u64 > self.cfg.segment_bytes && self.seg_len > 0 {
            let pending = self.buf.split_off(before);
            let head = std::mem::take(&mut self.buf);
            self.write_out(&head)?;
            self.roll_segment()?;
            self.buf = pending;
        }
        let _ = len;
        self.appended += 1;
        self.stats.appends += 1;
        self.unsynced += 1;
        let lsn = Lsn(self.appended);
        match self.cfg.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::IntervalMs(_) | FsyncPolicy::Never => {}
        }
        Ok(lsn)
    }

    /// For the `IntervalMs` policy: syncs if at least the configured
    /// interval has passed since the last sync (caller-provided
    /// monotonic nanoseconds). Returns whether a sync happened.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from syncing.
    pub fn maybe_sync(&mut self, now_nanos: u64) -> io::Result<bool> {
        let FsyncPolicy::IntervalMs(ms) = self.cfg.fsync else {
            return Ok(false);
        };
        match self.last_sync_nanos {
            None => {
                self.last_sync_nanos = Some(now_nanos);
                Ok(false)
            }
            Some(last) => {
                if now_nanos.saturating_sub(last) >= ms.saturating_mul(1_000_000)
                    && self.durable < self.appended
                {
                    self.last_sync_nanos = Some(now_nanos);
                    self.sync()?;
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
        }
    }

    /// For the `IntervalMs` policy, while appended records are not yet
    /// durable: the caller-clock instant at which
    /// [`maybe_sync`](Self::maybe_sync) will sync them. `None` when no
    /// interval sync is owed (other policies, nothing unsynced, or no
    /// `maybe_sync` call yet to start the clock). A caller that sleeps
    /// between calls wakes by this instant to honour the interval.
    pub fn sync_due_at(&self) -> Option<u64> {
        let FsyncPolicy::IntervalMs(ms) = self.cfg.fsync else {
            return None;
        };
        let last = self.last_sync_nanos?;
        (self.durable < self.appended).then(|| last.saturating_add(ms.saturating_mul(1_000_000)))
    }

    /// Flushes the user-space buffer to the OS **and** fsyncs, making
    /// every appended record durable.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing or syncing.
    pub fn sync(&mut self) -> io::Result<()> {
        let head = std::mem::take(&mut self.buf);
        self.write_out(&head)?;
        self.file.sync_data()?;
        self.stats.syncs += 1;
        self.durable = self.appended;
        self.unsynced = 0;
        Ok(())
    }

    /// Flushes the user-space buffer to the OS without fsync. Buffered
    /// records then survive a process kill (the kernel has them) but
    /// not a power failure.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing.
    pub fn flush(&mut self) -> io::Result<()> {
        let head = std::mem::take(&mut self.buf);
        self.write_out(&head)
    }

    fn write_out(&mut self, bytes: &[u8]) -> io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        self.file.write_all(bytes)?;
        self.seg_len += bytes.len() as u64;
        self.stats.bytes_written += bytes.len() as u64;
        Ok(())
    }

    fn roll_segment(&mut self) -> io::Result<()> {
        // The old segment's contents must be safely down before the log
        // continues in a new file, or recovery could see a gap.
        self.file.sync_data()?;
        self.stats.syncs += 1;
        self.seg_start = Lsn(self.appended + 1);
        self.seg_len = 0;
        self.file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(segment_path(&self.cfg.dir, self.seg_start))?;
        self.stats.segments_created += 1;
        Ok(())
    }

    /// LSN of the last appended record (`Lsn(0)` if none).
    pub fn last_lsn(&self) -> Lsn {
        Lsn(self.appended)
    }

    /// Highest LSN known durable: flushed and fsynced.
    pub fn durable_lsn(&self) -> Lsn {
        Lsn(self.durable)
    }

    /// Records appended but not yet guaranteed on disk.
    pub fn unsynced_records(&self) -> u64 {
        self.appended - self.durable
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LogStats {
        self.stats
    }

    /// The configured fsync policy.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.cfg.fsync
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }
}

/// Read-only scan of a log directory: the valid record prefix, with no
/// repair (nothing is truncated or removed). This is what the chaos
/// oracle uses to inspect a crashed node's disk.
///
/// # Errors
///
/// Returns any I/O error from reading the directory or its segments.
pub fn read_log_dir(dir: &Path) -> io::Result<Recovered> {
    let mut segments: Vec<(Lsn, PathBuf)> = Vec::new();
    if !dir.exists() {
        return Ok(Recovered::default());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(start) = entry.file_name().to_str().and_then(parse_segment_name) {
            segments.push((start, entry.path()));
        }
    }
    segments.sort();
    let mut recovered = Recovered::default();
    let mut pos = 0u64;
    for (i, (_, path)) in segments.iter().enumerate() {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let scan = scan_segment(&bytes);
        for rec in scan.records {
            pos += 1;
            recovered.records += 1;
            match rec {
                LogRecord::Delivery(d) => recovered.deliveries.push((pos, d)),
                LogRecord::Cursor { ring, seq } => {
                    recovered.cursor = Some((ring, seq));
                    recovered.cursor_pos = Some(pos);
                }
                LogRecord::Ring { ring, members } => {
                    recovered.ring = Some((ring, members));
                }
            }
        }
        if scan.torn {
            recovered.torn_bytes += bytes.len() as u64 - scan.valid_len;
            for (_, later) in &segments[i + 1..] {
                recovered.torn_bytes += std::fs::metadata(later).map(|m| m.len()).unwrap_or(0);
                recovered.segments_removed += 1;
            }
            break;
        }
    }
    Ok(recovered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_core::ServiceType;
    use bytes::Bytes;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ar-log-test-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn delivery(seq: u64, payload: &str) -> LogRecord {
        LogRecord::Delivery(DeliveryRecord {
            ring: RingId::new(ParticipantId::new(0), 1),
            seq: Seq::new(seq),
            pid: ParticipantId::new(0),
            service: ServiceType::Safe,
            payload: Bytes::copy_from_slice(payload.as_bytes()),
        })
    }

    #[test]
    fn append_sync_reopen_recovers_everything() {
        let dir = tmp("roundtrip");
        let cfg = LogConfig::new(&dir).with_fsync(FsyncPolicy::Always);
        let (mut log, rec0) = SegmentedLog::open(cfg.clone()).unwrap();
        assert_eq!(rec0.records, 0);
        for i in 1..=10u64 {
            let lsn = log.append(&delivery(i, &format!("m{i}"))).unwrap();
            assert_eq!(lsn, Lsn(i));
            assert_eq!(log.durable_lsn(), Lsn(i), "Always syncs per append");
        }
        drop(log);
        let (log, rec) = SegmentedLog::open(cfg).unwrap();
        assert_eq!(rec.records, 10);
        assert_eq!(rec.deliveries.len(), 10);
        assert_eq!(log.last_lsn(), Lsn(10));
        assert_eq!(rec.undelivered().len(), 10, "no cursor yet");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cursor_bounds_redelivery() {
        let dir = tmp("cursor");
        let cfg = LogConfig::new(&dir).with_fsync(FsyncPolicy::Always);
        let ring = RingId::new(ParticipantId::new(0), 1);
        let (mut log, _) = SegmentedLog::open(cfg.clone()).unwrap();
        for i in 1..=5u64 {
            log.append(&delivery(i, "x")).unwrap();
        }
        log.append(&LogRecord::Cursor {
            ring,
            seq: Seq::new(3),
        })
        .unwrap();
        drop(log);
        let (_, rec) = SegmentedLog::open(cfg).unwrap();
        let undelivered: Vec<u64> = rec.undelivered().iter().map(|d| d.seq.as_u64()).collect();
        assert_eq!(undelivered, vec![4, 5]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unflushed_buffer_is_lost_flushed_survives() {
        let dir = tmp("buffer");
        let cfg = LogConfig::new(&dir).with_fsync(FsyncPolicy::Never);
        let (mut log, _) = SegmentedLog::open(cfg.clone()).unwrap();
        log.append(&delivery(1, "durable")).unwrap();
        log.flush().unwrap();
        log.append(&delivery(2, "buffered")).unwrap();
        assert_eq!(
            log.unsynced_records(),
            2,
            "Never policy leaves both unsynced"
        );
        drop(log); // kill -9: the user-space buffer evaporates
        let (_, rec) = SegmentedLog::open(cfg).unwrap();
        assert_eq!(rec.records, 1, "only the flushed record survives");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_n_policy_syncs_in_batches() {
        let dir = tmp("everyn");
        let cfg = LogConfig::new(&dir).with_fsync(FsyncPolicy::EveryN(4));
        let (mut log, _) = SegmentedLog::open(cfg).unwrap();
        for i in 1..=3u64 {
            log.append(&delivery(i, "x")).unwrap();
        }
        assert_eq!(log.durable_lsn(), Lsn(0));
        log.append(&delivery(4, "x")).unwrap();
        assert_eq!(log.durable_lsn(), Lsn(4), "4th append syncs the batch");
        std::fs::remove_dir_all(log.dir()).unwrap();
    }

    #[test]
    fn interval_policy_is_caller_clocked() {
        let dir = tmp("interval");
        let cfg = LogConfig::new(&dir).with_fsync(FsyncPolicy::IntervalMs(10));
        let (mut log, _) = SegmentedLog::open(cfg).unwrap();
        log.append(&delivery(1, "x")).unwrap();
        assert_eq!(log.sync_due_at(), None, "clock not started");
        assert!(
            !log.maybe_sync(0).unwrap(),
            "first call only arms the clock"
        );
        assert_eq!(log.sync_due_at(), Some(10_000_000));
        assert!(
            !log.maybe_sync(9_999_999).unwrap(),
            "interval not yet elapsed"
        );
        assert!(log.maybe_sync(10_000_000).unwrap(), "interval elapsed");
        assert_eq!(log.durable_lsn(), Lsn(1));
        assert_eq!(log.sync_due_at(), None, "nothing unsynced");
        assert!(!log.maybe_sync(20_000_000).unwrap(), "nothing new to sync");
        log.append(&delivery(2, "x")).unwrap();
        assert_eq!(log.sync_due_at(), Some(20_000_000));
        std::fs::remove_dir_all(log.dir()).unwrap();
    }

    #[test]
    fn segments_roll_and_recover_across_files() {
        let dir = tmp("roll");
        let cfg = LogConfig::new(&dir)
            .with_fsync(FsyncPolicy::Always)
            .with_segment_bytes(256);
        let (mut log, _) = SegmentedLog::open(cfg.clone()).unwrap();
        for i in 1..=50u64 {
            log.append(&delivery(i, "roll-roll-roll")).unwrap();
        }
        assert!(log.stats().segments_created >= 2, "{:?}", log.stats());
        drop(log);
        let (_, rec) = SegmentedLog::open(cfg).unwrap();
        assert_eq!(rec.records, 50);
        let seqs: Vec<u64> = rec.deliveries.iter().map(|(_, d)| d.seq.as_u64()).collect();
        assert_eq!(seqs, (1..=50).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncates_and_drops_later_segments() {
        let dir = tmp("torn");
        let cfg = LogConfig::new(&dir)
            .with_fsync(FsyncPolicy::Always)
            .with_segment_bytes(256);
        let (mut log, _) = SegmentedLog::open(cfg.clone()).unwrap();
        for i in 1..=50u64 {
            log.append(&delivery(i, "roll-roll-roll")).unwrap();
        }
        drop(log);
        // Corrupt one byte in the middle of the FIRST segment: the
        // valid prefix ends there, and every later segment must go.
        let mut segs: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        segs.sort();
        assert!(
            segs.len() >= 3,
            "need several segments, have {}",
            segs.len()
        );
        let mut bytes = std::fs::read(&segs[0]).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&segs[0], &bytes).unwrap();

        let (log, rec) = SegmentedLog::open(cfg.clone()).unwrap();
        assert!(rec.records < 50, "torn tail recovered fewer records");
        assert!(rec.torn_bytes > 0);
        assert_eq!(rec.segments_removed as usize, segs.len() - 1);
        // Sequence numbers form a prefix: nothing past the corruption
        // resurrected.
        let seqs: Vec<u64> = rec.deliveries.iter().map(|(_, d)| d.seq.as_u64()).collect();
        assert_eq!(seqs, (1..=rec.records).collect::<Vec<_>>());
        drop(log);
        // The repair is itself durable: a second open sees a clean log.
        let (_, rec2) = SegmentedLog::open(cfg).unwrap();
        assert_eq!(rec2.records, rec.records);
        assert_eq!(rec2.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_continue_after_torn_tail_recovery() {
        let dir = tmp("continue");
        let cfg = LogConfig::new(&dir).with_fsync(FsyncPolicy::Always);
        let (mut log, _) = SegmentedLog::open(cfg.clone()).unwrap();
        for i in 1..=5u64 {
            log.append(&delivery(i, "x")).unwrap();
        }
        drop(log);
        // Tear the tail: chop the last 3 bytes.
        let seg = segment_path(&dir, Lsn(1));
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let (mut log, rec) = SegmentedLog::open(cfg.clone()).unwrap();
        assert_eq!(rec.records, 4, "last record torn away");
        log.append(&delivery(5, "rewritten")).unwrap();
        drop(log);
        let (_, rec2) = SegmentedLog::open(cfg).unwrap();
        assert_eq!(rec2.records, 5);
        assert_eq!(
            rec2.deliveries.last().unwrap().1.payload,
            Bytes::from_static(b"rewritten")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_log_dir_is_side_effect_free() {
        let dir = tmp("readonly");
        let cfg = LogConfig::new(&dir).with_fsync(FsyncPolicy::Always);
        let (mut log, _) = SegmentedLog::open(cfg).unwrap();
        for i in 1..=5u64 {
            log.append(&delivery(i, "x")).unwrap();
        }
        drop(log);
        let seg = segment_path(&dir, Lsn(1));
        let before = std::fs::metadata(&seg).unwrap().len();
        // Tear the tail; the read-only scan must report it but not fix it.
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(before - 2).unwrap();
        drop(f);
        let rec = read_log_dir(&dir).unwrap();
        assert_eq!(rec.records, 4);
        assert!(rec.torn_bytes > 0);
        assert_eq!(std::fs::metadata(&seg).unwrap().len(), before - 2);
        assert_eq!(
            read_log_dir(&tmp("missing-nonexistent")).unwrap().records,
            0
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ring_record_recovers_latest_identity() {
        let dir = tmp("ring");
        let cfg = LogConfig::new(&dir).with_fsync(FsyncPolicy::Always);
        let (mut log, _) = SegmentedLog::open(cfg.clone()).unwrap();
        let r1 = RingId::new(ParticipantId::new(0), 1);
        let r2 = RingId::new(ParticipantId::new(0), 4);
        log.append(&LogRecord::Ring {
            ring: r1,
            members: vec![ParticipantId::new(0)],
        })
        .unwrap();
        log.append(&LogRecord::Ring {
            ring: r2,
            members: (0..3).map(ParticipantId::new).collect(),
        })
        .unwrap();
        drop(log);
        let (_, rec) = SegmentedLog::open(cfg).unwrap();
        let (ring, members) = rec.ring.unwrap();
        assert_eq!(ring, r2);
        assert_eq!(members.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
