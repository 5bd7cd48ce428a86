//! A process-wide metric registry with Prometheus and JSON exposition.
//!
//! Metrics are registered once by name (registration takes a lock;
//! idempotent re-registration returns the existing handle) and then
//! updated lock-free through cheap `Arc`-backed handles:
//! [`Counter`] and [`Gauge`] are single atomics, [`Histogram`] wraps an
//! [`AtomicHistogram`](crate::AtomicHistogram). The registry renders
//! the whole set as Prometheus text exposition (histograms as
//! `summary`-typed quantile series) or as a JSON snapshot.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::hist::AtomicHistogram;
use crate::json::JsonWriter;

/// Quantiles exported for every histogram, in exposition order:
/// `(quantile, Prometheus label, JSON key)`.
pub const EXPORT_QUANTILES: [(f64, &str, &str); 4] = [
    (0.5, "0.5", "p50"),
    (0.9, "0.9", "p90"),
    (0.99, "0.99", "p99"),
    (0.999, "0.999", "p999"),
];

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shared histogram handle; `record` is lock-free.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<AtomicHistogram>);

impl Histogram {
    /// Records one value (e.g. a latency in nanoseconds).
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.record(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// A point-in-time copy for analysis.
    pub fn snapshot(&self) -> crate::LogLinearHistogram {
        self.0.snapshot()
    }
}

enum Metric {
    Counter { v: Counter },
    Gauge { v: Gauge },
    Histogram { v: Histogram },
}

/// One registered series: the family name, an optional label set
/// (rendered inside `{...}`), and the metric itself.
struct Entry {
    base: String,
    labels: String,
    help: String,
    metric: Metric,
}

/// The registry: a named set of counters, gauges, and histograms.
/// Series within one family are distinguished by a label set (e.g.
/// `shard="0"`), so N ring shards can export the same metric names
/// side by side.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Entry>>,
}

/// The BTreeMap key for a series: `name` or `name{labels}`. Sorted
/// iteration keeps every series of one family adjacent, so the
/// renderers emit `# HELP`/`# TYPE` once per family.
fn series_key(name: &str, labels: &str) -> String {
    if labels.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{labels}}}")
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("MetricsRegistry")
            .field("metrics", &m.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers (or retrieves) a counter named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_labeled(name, "", help)
    }

    /// Registers (or retrieves) a counter named `name` carrying a
    /// label set, e.g. `counter_labeled("ar_x_total", "shard=\"2\"", …)`
    /// renders as `ar_x_total{shard="2"}`.
    ///
    /// # Panics
    /// If the series is already registered as a different metric kind.
    pub fn counter_labeled(&self, name: &str, labels: &str, help: &str) -> Counter {
        let mut m = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let key = series_key(name, labels);
        match &m
            .entry(key)
            .or_insert_with(|| Entry {
                base: name.to_string(),
                labels: labels.to_string(),
                help: help.to_string(),
                metric: Metric::Counter {
                    v: Counter::default(),
                },
            })
            .metric
        {
            Metric::Counter { v } => v.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Registers (or retrieves) a gauge named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_labeled(name, "", help)
    }

    /// Registers (or retrieves) a gauge carrying a label set (see
    /// [`counter_labeled`](MetricsRegistry::counter_labeled)).
    ///
    /// # Panics
    /// If the series is already registered as a different metric kind.
    pub fn gauge_labeled(&self, name: &str, labels: &str, help: &str) -> Gauge {
        let mut m = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let key = series_key(name, labels);
        match &m
            .entry(key)
            .or_insert_with(|| Entry {
                base: name.to_string(),
                labels: labels.to_string(),
                help: help.to_string(),
                metric: Metric::Gauge {
                    v: Gauge::default(),
                },
            })
            .metric
        {
            Metric::Gauge { v } => v.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Registers (or retrieves) a histogram named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_labeled(name, "", help)
    }

    /// Registers (or retrieves) a histogram carrying a label set (see
    /// [`counter_labeled`](MetricsRegistry::counter_labeled)). The
    /// exported quantile series merge the label set with the
    /// `quantile` label.
    ///
    /// # Panics
    /// If the series is already registered as a different metric kind.
    pub fn histogram_labeled(&self, name: &str, labels: &str, help: &str) -> Histogram {
        let mut m = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let key = series_key(name, labels);
        match &m
            .entry(key)
            .or_insert_with(|| Entry {
                base: name.to_string(),
                labels: labels.to_string(),
                help: help.to_string(),
                metric: Metric::Histogram {
                    v: Histogram::default(),
                },
            })
            .metric
        {
            Metric::Histogram { v } => v.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Renders every metric in the Prometheus text exposition format
    /// (version 0.0.4). Histograms are rendered as `summary` metrics
    /// with `quantile` labels plus `_count` and `_sum` series.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let m = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        let mut last_family = String::new();
        for (key, entry) in m.iter() {
            let name = &entry.base;
            let labels = &entry.labels;
            let help = &entry.help;
            // Sorted keys keep a family's labelled series adjacent;
            // emit the HELP/TYPE header once per family.
            let header = *name != last_family;
            if header {
                last_family = name.clone();
            }
            match &entry.metric {
                Metric::Counter { v } => {
                    if header {
                        let _ = writeln!(out, "# HELP {name} {help}");
                        let _ = writeln!(out, "# TYPE {name} counter");
                    }
                    let _ = writeln!(out, "{key} {}", v.get());
                }
                Metric::Gauge { v } => {
                    if header {
                        let _ = writeln!(out, "# HELP {name} {help}");
                        let _ = writeln!(out, "# TYPE {name} gauge");
                    }
                    let _ = writeln!(out, "{key} {}", v.get());
                }
                Metric::Histogram { v } => {
                    let snap = v.snapshot();
                    if header {
                        let _ = writeln!(out, "# HELP {name} {help}");
                        let _ = writeln!(out, "# TYPE {name} summary");
                    }
                    for (q, label, _) in EXPORT_QUANTILES {
                        let qlabels = if labels.is_empty() {
                            format!("quantile=\"{label}\"")
                        } else {
                            format!("{labels},quantile=\"{label}\"")
                        };
                        let _ = writeln!(out, "{name}{{{qlabels}}} {}", snap.value_at_quantile(q));
                    }
                    let suffix = series_key("", labels);
                    let _ = writeln!(out, "{name}_count{suffix} {}", snap.count());
                    let _ = writeln!(out, "{name}_sum{suffix} {}", snap.sum());
                }
            }
        }
        out
    }

    /// Renders every metric as a JSON object keyed by metric name.
    /// Counters and gauges are numbers; histograms are objects with
    /// `count`, `sum`, `min`, `max`, `mean`, and `p50/p90/p99/p999`.
    pub fn render_json(&self) -> String {
        let m = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let mut w = JsonWriter::new();
        w.begin_object();
        for (key, entry) in m.iter() {
            w.key(key);
            match &entry.metric {
                Metric::Counter { v } => w.num_u64(v.get()),
                Metric::Gauge { v } => w.num_i64(v.get()),
                Metric::Histogram { v } => {
                    let snap = v.snapshot();
                    w.begin_object();
                    w.key("count");
                    w.num_u64(snap.count());
                    w.key("sum");
                    w.num_f64(snap.sum() as f64);
                    w.key("min");
                    w.num_u64(snap.min());
                    w.key("max");
                    w.num_u64(snap.max());
                    w.key("mean");
                    w.num_f64(snap.mean());
                    for (q, _, key) in EXPORT_QUANTILES {
                        w.key(key);
                        w.num_u64(snap.value_at_quantile(q));
                    }
                    w.end_object();
                }
            }
        }
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = MetricsRegistry::new();
        let c = r.counter("ar_tokens_total", "Tokens handled");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Idempotent re-registration returns the same underlying value.
        assert_eq!(r.counter("ar_tokens_total", "Tokens handled").get(), 5);

        let g = r.gauge("ar_queue_depth", "Pending sends");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let r = MetricsRegistry::new();
        r.counter("x", "a counter");
        r.gauge("x", "now a gauge");
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = MetricsRegistry::new();
        r.counter("ar_a_total", "A").add(3);
        r.gauge("ar_b", "B").set(-1);
        let h = r.histogram("ar_lat_ns", "Latency");
        for v in 1..=100u64 {
            h.record(v);
        }
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE ar_a_total counter"));
        assert!(text.contains("ar_a_total 3"));
        assert!(text.contains("ar_b -1"));
        assert!(text.contains("# TYPE ar_lat_ns summary"));
        assert!(text.contains("ar_lat_ns{quantile=\"0.5\"} 50"));
        assert!(text.contains("ar_lat_ns_count 100"));
        assert!(text.contains("ar_lat_ns_sum 5050"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
            assert!(parts.next().is_some(), "missing name in {line:?}");
        }
    }

    #[test]
    fn labeled_series_are_distinct_and_render_with_labels() {
        let r = MetricsRegistry::new();
        let s0 = r.counter_labeled("ar_shard_msgs_total", "shard=\"0\"", "Msgs");
        let s1 = r.counter_labeled("ar_shard_msgs_total", "shard=\"1\"", "Msgs");
        s0.add(3);
        s1.add(5);
        // Distinct series despite the shared family name.
        assert_eq!(s0.get(), 3);
        assert_eq!(s1.get(), 5);
        let g = r.gauge_labeled("ar_shard_depth", "shard=\"1\"", "Depth");
        g.set(-2);
        let h = r.histogram_labeled("ar_shard_lat_ns", "shard=\"0\"", "Lat");
        h.record(7);

        let text = r.render_prometheus();
        assert!(
            text.contains("ar_shard_msgs_total{shard=\"0\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("ar_shard_msgs_total{shard=\"1\"} 5"),
            "{text}"
        );
        assert!(text.contains("ar_shard_depth{shard=\"1\"} -2"), "{text}");
        assert!(
            text.contains("ar_shard_lat_ns{shard=\"0\",quantile=\"0.5\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("ar_shard_lat_ns_count{shard=\"0\"} 1"),
            "{text}"
        );
        // One HELP/TYPE header per family, not per series.
        assert_eq!(
            text.matches("# TYPE ar_shard_msgs_total counter").count(),
            1,
            "{text}"
        );
        // Every non-comment line still parses as `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        }

        let v = crate::json::Value::parse(&r.render_json()).expect("valid json");
        assert_eq!(
            v.get("ar_shard_msgs_total{shard=\"1\"}")
                .and_then(crate::json::Value::as_f64),
            Some(5.0)
        );
    }

    #[test]
    fn json_rendering_parses_back() {
        use crate::json::Value;
        let r = MetricsRegistry::new();
        r.counter("c", "C").add(2);
        let h = r.histogram("h", "H");
        h.record(10);
        h.record(20);
        let v = Value::parse(&r.render_json()).expect("valid json");
        assert_eq!(v.get("c").and_then(Value::as_f64), Some(2.0));
        let hist = v.get("h").expect("histogram object");
        assert_eq!(hist.get("count").and_then(Value::as_f64), Some(2.0));
        assert_eq!(hist.get("min").and_then(Value::as_f64), Some(10.0));
        assert_eq!(hist.get("max").and_then(Value::as_f64), Some(20.0));
        assert!(hist.get("p50").is_some());
        assert!(hist.get("p999").is_some());
    }
}
