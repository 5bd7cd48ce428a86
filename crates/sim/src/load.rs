//! Workload generation: the benchmark clients of the paper's
//! evaluation.

use crate::time::SimDuration;

/// How application messages are injected at each host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Open-loop fixed rate: each host's sending client injects
    /// messages at `aggregate_bps / n_hosts` payload bits per second,
    /// matching the paper's benchmark clients. A small deterministic
    /// jitter decorrelates the hosts' phases.
    OpenLoop {
        /// Aggregate offered load across all hosts, in payload bits per
        /// second.
        aggregate_bps: u64,
    },
    /// Saturation: every host keeps its pending queue topped up so the
    /// protocol runs at its maximum throughput (used for the paper's
    /// maximum-throughput numbers).
    Saturating,
}

impl LoadMode {
    /// Per-host injection interval for one message of `payload_bytes`,
    /// or `None` when saturating.
    pub fn interval(&self, n_hosts: usize, payload_bytes: usize) -> Option<SimDuration> {
        match *self {
            LoadMode::OpenLoop { aggregate_bps } => {
                assert!(aggregate_bps > 0, "offered load must be positive");
                let per_host = aggregate_bps / n_hosts as u64;
                let bits = payload_bytes as u128 * 8;
                let ns = (bits * 1_000_000_000) / per_host.max(1) as u128;
                Some(SimDuration::from_nanos(ns as u64))
            }
            LoadMode::Saturating => None,
        }
    }

    /// The offered load to report (zero when saturating).
    pub fn offered_bps(&self) -> u64 {
        match *self {
            LoadMode::OpenLoop { aggregate_bps } => aggregate_bps,
            LoadMode::Saturating => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_interval_matches_rate() {
        // 800 Mbps aggregate over 8 hosts = 100 Mbps per host;
        // 1350-byte payload = 10800 bits → 108 microseconds.
        let m = LoadMode::OpenLoop {
            aggregate_bps: 800_000_000,
        };
        let ivl = m.interval(8, 1350).unwrap();
        assert_eq!(ivl.as_nanos(), 108_000);
    }

    #[test]
    fn saturating_has_no_interval() {
        assert_eq!(LoadMode::Saturating.interval(8, 1350), None);
        assert_eq!(LoadMode::Saturating.offered_bps(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = LoadMode::OpenLoop { aggregate_bps: 0 }.interval(8, 1350);
    }
}
