//! # ar-log — durable segmented log for crash-safe Safe delivery
//!
//! The protocol's Safe service promises that a delivered message has
//! reached every ring member — but with nothing on disk, a restart
//! erases the strongest guarantee the stack offers. This crate is the
//! durability layer under `ar-net`'s runtime and `ar-daemon`: a
//! persistent segmented append-only log in the style of a Kafka
//! partition or an etcd WAL, sized for the ordered message stream of
//! one ring participant.
//!
//! * **Segments** — fixed-size files `seg-<first-lsn>.log`; the name
//!   doubles as the index (records in a segment start at its LSN).
//! * **Records** — CRC-32-framed ([`record`]): ordered deliveries,
//!   delivery cursors, and ring-identity snapshots.
//! * **Fsync policy** — [`FsyncPolicy`]: `Always`, `EveryN`,
//!   `IntervalMs` (caller-clocked, virtual-clock friendly), `Never`.
//! * **Recovery** — [`SegmentedLog::open`] scans the directory,
//!   truncates the torn tail at the first bad CRC (later segments are
//!   removed — nothing past a corruption resurrects), and hands back
//!   ring identity, delivery cursor, and the undelivered suffix.
//! * **Safe-durability gate** — [`DeliveryGate`] ([`gate`]) owns the
//!   log and decides when each ordered delivery may surface: Safe
//!   deliveries wait for their record to be durable, a step never ends
//!   with anything withheld, and cursor and ring records are written
//!   along the way. `ar-net`'s runtime (what `ard` runs) and its
//!   deterministic nemesis harness both call this one gate.
//!
//! The crate is deliberately clock-free and dependency-free: time is
//! injected (`maybe_sync(now_nanos)`, `end_step(now_nanos, ..)`),
//! matching the sans-io discipline of `ar-core`, and everything down
//! to the CRC table is implemented here.
//!
//! ```
//! use ar_log::{FsyncPolicy, LogConfig, LogRecord, SegmentedLog};
//! use ar_core::{ParticipantId, RingId, Seq};
//!
//! let dir = std::env::temp_dir().join(format!("ar-log-doc-{}", std::process::id()));
//! let cfg = LogConfig::new(&dir).with_fsync(FsyncPolicy::Always);
//! let (mut log, recovered) = SegmentedLog::open(cfg.clone()).unwrap();
//! assert_eq!(recovered.records, 0);
//! log.append(&LogRecord::Cursor {
//!     ring: RingId::new(ParticipantId::new(0), 1),
//!     seq: Seq::new(7),
//! }).unwrap();
//! drop(log); // crash
//! let (_log, recovered) = SegmentedLog::open(cfg).unwrap();
//! assert_eq!(recovered.cursor.unwrap().1, Seq::new(7));
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]

pub mod crc;
pub mod gate;
pub mod log;
pub mod record;

pub use crate::gate::{DeliveryGate, CURSOR_EVERY};

pub use crate::log::{
    read_log_dir, FsyncPolicy, LogConfig, LogStats, Lsn, Recovered, SegmentedLog,
};
pub use crate::record::{
    decode_record, encode_record, DeliveryRecord, LogRecord, RecordError, MAX_RECORD_PAYLOAD,
    RECORD_HEADER_LEN,
};

impl FsyncPolicy {
    /// Parses a policy from its CLI spelling: `always`, `never`,
    /// `every:<n>`, or `interval:<ms>`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            _ => {
                if let Some(n) = s.strip_prefix("every:") {
                    n.parse().ok().map(FsyncPolicy::EveryN)
                } else if let Some(ms) = s.strip_prefix("interval:") {
                    ms.parse().ok().map(FsyncPolicy::IntervalMs)
                } else {
                    None
                }
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Never => write!(f, "never"),
            FsyncPolicy::EveryN(n) => write!(f, "every:{n}"),
            FsyncPolicy::IntervalMs(ms) => write!(f, "interval:{ms}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_parse_round_trips() {
        for p in [
            FsyncPolicy::Always,
            FsyncPolicy::Never,
            FsyncPolicy::EveryN(64),
            FsyncPolicy::IntervalMs(25),
        ] {
            assert_eq!(FsyncPolicy::parse(&p.to_string()), Some(p));
        }
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::parse("every:x"), None);
    }
}
