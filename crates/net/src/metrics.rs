//! Runtime instrumentation: the metric set exported by a live node.
//!
//! [`NetMetrics`] bundles the handles a [`Runtime`](crate::Runtime)
//! updates while it runs — token-rotation and token-hop latency
//! histograms, the local delivery-latency histogram, and queue/counter
//! gauges. Register one per node against a
//! [`MetricsRegistry`](ar_telemetry::MetricsRegistry) and pass it to
//! [`Runtime::set_metrics`](crate::Runtime::set_metrics); the registry
//! end renders Prometheus text or JSON (served by `ar-daemon`'s
//! `--metrics-addr` endpoint).

use ar_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::hold::Release;

/// Metric handles updated by an instrumented [`Runtime`](crate::Runtime).
#[derive(Debug, Clone)]
pub struct NetMetrics {
    /// Full token rotation time as observed locally: nanoseconds
    /// between consecutive token receipts. Includes the time the token
    /// spent held idle at the representative.
    pub token_rotation_ns: Histogram,
    /// Local token hop time: nanoseconds from handing the token to the
    /// participant to finishing the resulting sends (a held token's
    /// hold is not part of its hop).
    pub token_hop_ns: Histogram,
    /// Idle tokens held and released, by release cause (indexed by
    /// [`Release::index`]).
    pub token_holds: [Counter; 4],
    /// How long each idle token was held, in nanoseconds.
    pub token_hold_ns: Histogram,
    /// Submission-to-delivery latency for messages this node initiated,
    /// in nanoseconds.
    pub delivery_latency_ns: Histogram,
    /// Depth of the pending send queue after each step.
    pub queue_depth: Gauge,
    /// Tokens received.
    pub tokens_rx: Counter,
    /// Messages delivered to the application (all origins).
    pub deliveries: Counter,
    /// Inbound datagrams dropped because they failed to decode.
    pub wire_decode_drops: Counter,
    /// Token-loss timeout currently in force (ns); moves when the
    /// adaptive controller is enabled.
    pub adaptive_token_loss_ns: Gauge,
    /// Accelerated window currently in force (AIMD-degraded when the
    /// controller is enabled; 0 = original Ring behaviour).
    pub effective_accel_window: Gauge,
    /// Members currently quarantined by flap damping.
    pub quarantined_members: Gauge,
    /// Records appended to the durable log.
    pub log_appends: Counter,
    /// fsync(2) calls issued by the durable log.
    pub log_syncs: Counter,
    /// Safe deliveries currently held back awaiting local durability
    /// (only moves when the log gates Safe delivery).
    pub log_held_safe: Gauge,
    /// Records recovered from disk at the last log attach.
    pub log_recovered_records: Gauge,
}

impl NetMetrics {
    /// Registers the standard node metric set (names prefixed
    /// `ar_node_`) and returns the handles.
    pub fn register(reg: &MetricsRegistry) -> NetMetrics {
        NetMetrics::register_labeled(reg, "")
    }

    /// Registers the node metric set with every series carrying a
    /// label set (e.g. `shard="2"`), so several runtimes hosted by one
    /// process export side by side instead of silently sharing
    /// counters. An empty label set is the plain [`register`] shape.
    ///
    /// [`register`]: NetMetrics::register
    pub fn register_labeled(reg: &MetricsRegistry, labels: &str) -> NetMetrics {
        NetMetrics {
            token_rotation_ns: reg.histogram_labeled(
                "ar_node_token_rotation_ns",
                labels,
                "Time between consecutive token receipts (ns)",
            ),
            token_hop_ns: reg.histogram_labeled(
                "ar_node_token_hop_ns",
                labels,
                "Local token processing time, hand-off to sends complete (ns)",
            ),
            token_holds: Release::ALL.map(|why| {
                let release = format!("release=\"{}\"", why.label());
                let labels = if labels.is_empty() {
                    release
                } else {
                    format!("{labels},{release}")
                };
                reg.counter_labeled(
                    "ar_node_token_holds_total",
                    &labels,
                    "Idle tokens held at the representative, by release cause",
                )
            }),
            token_hold_ns: reg.histogram_labeled(
                "ar_node_token_hold_ns",
                labels,
                "Time an idle token was held at the representative (ns)",
            ),
            delivery_latency_ns: reg.histogram_labeled(
                "ar_node_delivery_latency_ns",
                labels,
                "Submission-to-delivery latency for locally initiated messages (ns)",
            ),
            queue_depth: reg.gauge_labeled(
                "ar_node_queue_depth",
                labels,
                "Pending application messages awaiting ordering",
            ),
            tokens_rx: reg.counter_labeled("ar_node_tokens_rx_total", labels, "Tokens received"),
            deliveries: reg.counter_labeled(
                "ar_node_deliveries_total",
                labels,
                "Messages delivered",
            ),
            wire_decode_drops: reg.counter_labeled(
                "ar_node_wire_decode_drops_total",
                labels,
                "Inbound datagrams dropped (decode failure)",
            ),
            adaptive_token_loss_ns: reg.gauge_labeled(
                "ar_node_adaptive_token_loss_timeout_ns",
                labels,
                "Token-loss timeout currently in force (ns)",
            ),
            effective_accel_window: reg.gauge_labeled(
                "ar_node_effective_accelerated_window",
                labels,
                "Accelerated window currently in force (0 = original Ring)",
            ),
            quarantined_members: reg.gauge_labeled(
                "ar_node_quarantined_members",
                labels,
                "Members currently quarantined by flap damping",
            ),
            log_appends: reg.counter_labeled(
                "ar_node_log_appends_total",
                labels,
                "Records appended to the durable log",
            ),
            log_syncs: reg.counter_labeled(
                "ar_node_log_syncs_total",
                labels,
                "fsync calls issued by the durable log",
            ),
            log_held_safe: reg.gauge_labeled(
                "ar_node_log_held_safe",
                labels,
                "Safe deliveries held back awaiting local durability",
            ),
            log_recovered_records: reg.gauge_labeled(
                "ar_node_log_recovered_records",
                labels,
                "Records recovered from disk at the last log attach",
            ),
        }
    }

    /// The canonical label set for ring shard `k`: `shard="k"`.
    pub fn shard_labels(shard: usize) -> String {
        format!("shard=\"{shard}\"")
    }

    /// Unregistered handles (recordings are kept but not exported);
    /// useful in tests.
    pub fn detached() -> NetMetrics {
        NetMetrics {
            token_rotation_ns: Histogram::default(),
            token_hop_ns: Histogram::default(),
            token_holds: Default::default(),
            token_hold_ns: Histogram::default(),
            delivery_latency_ns: Histogram::default(),
            queue_depth: Gauge::default(),
            tokens_rx: Counter::default(),
            deliveries: Counter::default(),
            wire_decode_drops: Counter::default(),
            adaptive_token_loss_ns: Gauge::default(),
            effective_accel_window: Gauge::default(),
            quarantined_members: Gauge::default(),
            log_appends: Counter::default(),
            log_syncs: Counter::default(),
            log_held_safe: Gauge::default(),
            log_recovered_records: Gauge::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_labeled_sets_are_independent() {
        let reg = MetricsRegistry::new();
        let s0 = NetMetrics::register_labeled(&reg, &NetMetrics::shard_labels(0));
        let s1 = NetMetrics::register_labeled(&reg, &NetMetrics::shard_labels(1));
        s0.tokens_rx.add(2);
        s1.tokens_rx.add(9);
        assert_eq!(s0.tokens_rx.get(), 2);
        assert_eq!(s1.tokens_rx.get(), 9);
        s1.token_holds[Release::Deadline.index()].inc();
        let text = reg.render_prometheus();
        assert!(
            text.contains("ar_node_tokens_rx_total{shard=\"0\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("ar_node_token_holds_total{shard=\"1\",release=\"deadline\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ar_node_token_holds_total{shard=\"0\",release=\"submit\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("ar_node_tokens_rx_total{shard=\"1\"} 9"),
            "{text}"
        );
    }

    #[test]
    fn register_is_idempotent_per_registry() {
        let reg = MetricsRegistry::new();
        let a = NetMetrics::register(&reg);
        let b = NetMetrics::register(&reg);
        a.tokens_rx.inc();
        assert_eq!(b.tokens_rx.get(), 1, "handles share state");
        let text = reg.render_prometheus();
        assert!(text.contains("ar_node_tokens_rx_total 1"));
        assert!(text.contains("# TYPE ar_node_token_rotation_ns summary"));
        assert!(text.contains("ar_node_token_holds_total{release=\"cancel\"} 0"));
        assert!(text.contains("# TYPE ar_node_token_hold_ns summary"));
    }
}
