//! Time-series instrumentation: per-interval delivery counts, for
//! plotting throughput over time (e.g. across a membership change).

use crate::time::{SimDuration, SimTime};

/// Accumulates deliveries into fixed-width time buckets.
#[derive(Debug, Clone)]
pub struct ThroughputSeries {
    bucket: SimDuration,
    counts: Vec<u64>,
}

impl ThroughputSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(bucket: SimDuration) -> ThroughputSeries {
        assert!(bucket > SimDuration::ZERO, "bucket must be positive");
        ThroughputSeries {
            bucket,
            counts: Vec::new(),
        }
    }

    /// Records one delivery at `at`.
    pub fn record(&mut self, at: SimTime) {
        let idx = (at.as_nanos() / self.bucket.as_nanos()) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// The bucket width.
    pub fn bucket(&self) -> SimDuration {
        self.bucket
    }

    /// The per-bucket delivery counts (index 0 = simulation start).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The series as (bucket start time, deliveries/second) points,
    /// with `payload_bits` per delivery converted to bits/second.
    pub fn points_bps(&self, payload_bits: u64) -> Vec<(SimTime, f64)> {
        let secs = self.bucket.as_secs_f64();
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                (
                    SimTime::from_nanos(i as u64 * self.bucket.as_nanos()),
                    c as f64 * payload_bits as f64 / secs,
                )
            })
            .collect()
    }
}

/// Summary of a disruption visible in a throughput series: the gap
/// (consecutive empty-ish buckets) and the recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Disruption {
    /// First bucket index whose count fell below the threshold.
    pub gap_start: usize,
    /// Number of consecutive below-threshold buckets.
    pub gap_buckets: usize,
    /// Mean bucket count before the gap.
    pub before_mean: f64,
    /// Mean bucket count after the gap.
    pub after_mean: f64,
}

/// Finds the first throughput gap: a run of buckets below
/// `threshold_fraction` of the pre-gap mean. Returns `None` if the
/// series never dips.
pub fn find_disruption(counts: &[u64], threshold_fraction: f64) -> Option<Disruption> {
    if counts.len() < 4 {
        return None;
    }
    // Establish the baseline from the prefix before any dip.
    let mut gap_start = None;
    let mut prefix_sum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if i >= 2 {
            let mean = prefix_sum as f64 / i as f64;
            if mean > 0.0 && (c as f64) < mean * threshold_fraction {
                gap_start = Some((i, mean));
                break;
            }
        }
        prefix_sum += c;
    }
    let (start, before_mean) = gap_start?;
    let mut end = start;
    while end < counts.len() && (counts[end] as f64) < before_mean * threshold_fraction {
        end += 1;
    }
    let after: &[u64] = &counts[end..];
    let after_mean = if after.is_empty() {
        0.0
    } else {
        after.iter().sum::<u64>() as f64 / after.len() as f64
    };
    Some(Disruption {
        gap_start: start,
        gap_buckets: end - start,
        before_mean,
        after_mean,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_accumulate() {
        let mut s = ThroughputSeries::new(SimDuration::from_millis(10));
        s.record(SimTime::from_nanos(1_000_000)); // bucket 0
        s.record(SimTime::from_nanos(9_999_999)); // bucket 0
        s.record(SimTime::from_nanos(10_000_000)); // bucket 1
        s.record(SimTime::from_nanos(35_000_000)); // bucket 3
        assert_eq!(s.counts(), &[2, 1, 0, 1]);
    }

    #[test]
    fn points_convert_to_bps() {
        let mut s = ThroughputSeries::new(SimDuration::from_millis(100));
        for _ in 0..10 {
            s.record(SimTime::from_nanos(50_000_000));
        }
        let pts = s.points_bps(10_800); // 1350-byte payloads
        assert_eq!(pts.len(), 1);
        // 10 msgs / 0.1 s * 10800 bits = 1.08 Mbps.
        assert!((pts[0].1 - 1_080_000.0).abs() < 1.0);
    }

    #[test]
    fn disruption_detection() {
        // Steady 100/bucket, a 3-bucket outage, then recovery at 80.
        let counts = [100u64, 100, 100, 100, 2, 0, 1, 80, 80, 80];
        let d = find_disruption(&counts, 0.5).expect("finds the gap");
        assert_eq!(d.gap_start, 4);
        assert_eq!(d.gap_buckets, 3);
        assert!((d.before_mean - 100.0).abs() < 1.0);
        assert!((d.after_mean - 80.0).abs() < 1.0);
    }

    #[test]
    fn no_disruption_in_steady_series() {
        let counts = [50u64; 20];
        assert_eq!(find_disruption(&counts, 0.5), None);
    }

    #[test]
    #[should_panic(expected = "bucket must be positive")]
    fn zero_bucket_rejected() {
        let _ = ThroughputSeries::new(SimDuration::ZERO);
    }
}
