//! Measurement: latency statistics and the per-run report.

use ar_telemetry::LogLinearHistogram;

use crate::time::SimDuration;

/// Online latency recorder backed by a bounded log-linear histogram
/// (`ar-telemetry`), so memory stays constant no matter how long a run
/// is. Sub-microsecond samples are exact; larger ones quantize to at
/// most ~0.2% relative error. For measurements that need bit-exact
/// percentiles (e.g. cross-checking the histogram itself), enable
/// [`with_exact_samples`](LatencyRecorder::with_exact_samples), which
/// additionally retains every sample in a `Vec` as the seed
/// implementation did.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    hist: LogLinearHistogram,
    /// `Some` when exact mode is on.
    samples: Option<Vec<u64>>,
}

impl LatencyRecorder {
    /// Creates an empty histogram-backed recorder.
    pub fn new() -> LatencyRecorder {
        LatencyRecorder::default()
    }

    /// Creates a recorder that also retains every raw sample for exact
    /// percentiles, at the cost of unbounded memory.
    pub fn with_exact_samples() -> LatencyRecorder {
        LatencyRecorder {
            hist: LogLinearHistogram::new(),
            samples: Some(Vec::new()),
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        self.hist.record(d.as_nanos());
        if let Some(samples) = &mut self.samples {
            samples.push(d.as_nanos());
        }
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.hist.count() as usize
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.hist.is_empty()
    }

    /// Merges another recorder's samples into this one (histogram mode
    /// merges exactly; exact-sample retention requires both sides to
    /// have it enabled).
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.hist.merge(&other.hist);
        if let (Some(mine), Some(theirs)) = (&mut self.samples, &other.samples) {
            mine.extend_from_slice(theirs);
        }
    }

    /// Read access to the underlying histogram.
    pub fn histogram(&self) -> &LogLinearHistogram {
        &self.hist
    }

    /// Computes the summary statistics. Non-destructive; callable at
    /// any point during a run.
    pub fn summarize(&self) -> LatencySummary {
        if self.hist.is_empty() {
            return LatencySummary::default();
        }
        let n = self.hist.count();
        let pick: Box<dyn Fn(f64) -> SimDuration> = match &self.samples {
            Some(samples) => {
                let mut sorted = samples.clone();
                sorted.sort_unstable();
                Box::new(move |q: f64| {
                    let idx = ((sorted.len() as f64 - 1.0) * q) as usize;
                    SimDuration::from_nanos(sorted[idx.min(sorted.len() - 1)])
                })
            }
            None => Box::new(|q: f64| SimDuration::from_nanos(self.hist.value_at_quantile(q))),
        };
        LatencySummary {
            count: n,
            mean: SimDuration::from_nanos((self.hist.sum() / u128::from(n)) as u64),
            p50: pick(0.50),
            p90: pick(0.90),
            p99: pick(0.99),
            p999: pick(0.999),
            max: SimDuration::from_nanos(self.hist.max()),
        }
    }
}

/// Summary statistics over recorded latencies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: SimDuration,
    /// Median.
    pub p50: SimDuration,
    /// 90th percentile.
    pub p90: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// 99.9th percentile.
    pub p999: SimDuration,
    /// Maximum.
    pub max: SimDuration,
}

/// The result of one simulated benchmark run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Offered aggregate application load, payload bits per second
    /// (`u64::MAX` rate runs report the configured value as 0).
    pub offered_bps: u64,
    /// Achieved aggregate goodput: unique payload bits delivered per
    /// participant per second of measurement time (averaged over
    /// participants).
    pub achieved_bps: f64,
    /// Delivery latency (submission to delivery, across all
    /// participants and messages in the measurement window).
    pub latency: LatencySummary,
    /// Messages delivered per participant (average).
    pub delivered_per_participant: f64,
    /// Token rotations completed during measurement.
    pub token_rotations: u64,
    /// Frames dropped at switch output ports.
    pub switch_drops: u64,
    /// Datagrams dropped at full host sockets.
    pub socket_drops: u64,
    /// Retransmissions multicast (all participants).
    pub retransmissions: u64,
    /// Application submissions rejected by backpressure.
    pub submit_rejected: u64,
    /// Total simulated events processed (sanity/performance metric).
    pub events_processed: u64,
    /// Length of the measurement window in simulated nanoseconds
    /// (`token_rotations / measurement time` gives the rotation rate).
    pub measurement_nanos: u64,
}

impl SimReport {
    /// Achieved goodput in megabits per second.
    pub fn achieved_mbps(&self) -> f64 {
        self.achieved_bps / 1e6
    }

    /// Mean latency in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        self.latency.mean.as_micros_f64()
    }

    /// Mean token rotation time in microseconds (0 if no rotations
    /// completed).
    pub fn rotation_us(&self) -> f64 {
        if self.token_rotations == 0 {
            0.0
        } else {
            self.measurement_nanos as f64 / self.token_rotations as f64 / 1_000.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_summarizes_to_zero() {
        let r = LatencyRecorder::new();
        assert!(r.is_empty());
        let s = r.summarize();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, SimDuration::ZERO);
    }

    #[test]
    fn summary_statistics_are_exact_on_small_sets() {
        let mut r = LatencyRecorder::new();
        for us in [1u64, 2, 3, 4, 5] {
            r.record(SimDuration::from_micros(us));
        }
        let s = r.summarize();
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, SimDuration::from_micros(3));
        assert_eq!(s.p50, SimDuration::from_micros(3));
        assert_eq!(s.max, SimDuration::from_micros(5));
    }

    #[test]
    fn percentiles_on_larger_sets() {
        let mut r = LatencyRecorder::new();
        for i in 1..=100u64 {
            r.record(SimDuration::from_nanos(i));
        }
        let s = r.summarize();
        assert_eq!(s.p50.as_nanos(), 50);
        assert_eq!(s.p90.as_nanos(), 90);
        assert_eq!(s.p99.as_nanos(), 99);
        assert_eq!(s.p999.as_nanos(), 100);
        assert_eq!(s.max.as_nanos(), 100);
    }

    #[test]
    fn summarize_is_non_destructive() {
        let mut r = LatencyRecorder::new();
        r.record(SimDuration::from_nanos(10));
        let first = r.summarize();
        r.record(SimDuration::from_nanos(20));
        let second = r.summarize();
        assert_eq!(first.count, 1);
        assert_eq!(second.count, 2);
        assert_eq!(second.max.as_nanos(), 20);
    }

    #[test]
    fn exact_mode_matches_histogram_on_sub_microsecond_samples() {
        let mut exact = LatencyRecorder::with_exact_samples();
        let mut hist = LatencyRecorder::new();
        for i in (1..=500u64).rev() {
            exact.record(SimDuration::from_nanos(i));
            hist.record(SimDuration::from_nanos(i));
        }
        let a = exact.summarize();
        let b = hist.summarize();
        // Values below 1024 ns sit in exact histogram buckets, so the
        // two modes agree bit-for-bit.
        assert_eq!(a.p50, b.p50);
        assert_eq!(a.p99, b.p99);
        assert_eq!(a.max, b.max);
    }

    #[test]
    fn merge_combines_recorders() {
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::new();
        for i in 1..=50u64 {
            a.record(SimDuration::from_nanos(i));
        }
        for i in 51..=100u64 {
            b.record(SimDuration::from_nanos(i));
        }
        a.merge(&b);
        let s = a.summarize();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50.as_nanos(), 50);
        assert_eq!(s.max.as_nanos(), 100);
    }

    #[test]
    fn report_convenience_units() {
        let report = SimReport {
            achieved_bps: 920e6,
            latency: LatencySummary {
                mean: SimDuration::from_micros(720),
                ..LatencySummary::default()
            },
            ..SimReport::default()
        };
        assert!((report.achieved_mbps() - 920.0).abs() < 1e-9);
        assert!((report.mean_latency_us() - 720.0).abs() < 1e-9);
    }
}
