//! # ar-telemetry — low-overhead observability for the ring stack
//!
//! Instrumentation primitives shared by every layer of the repository:
//!
//! - [`LogLinearHistogram`] / [`AtomicHistogram`]: bounded,
//!   allocation-free latency histograms with ~0.2% quantization error
//!   (HdrHistogram-style log-linear bucketing). The plain variant is
//!   single-writer and mergeable; the atomic variant takes concurrent
//!   writers lock-free.
//! - [`MetricsRegistry`]: named counters, gauges, and histograms with
//!   Prometheus text and JSON exposition, updated through cheap cloned
//!   handles.
//! - [`FlightRecorder`]: a bounded ring of recent protocol events,
//!   pluggable into [`Participant`](ar_core::Participant) via the
//!   [`Observer`](ar_core::Observer) hook; dumped on failure for
//!   post-mortems and digestible for determinism checks.
//! - [`json`]: a dependency-free JSON writer/parser used for metric
//!   snapshots and `BENCH_*.json` result files.
//!
//! The crate deliberately depends only on `ar-core` (for the event
//! types), and performs no I/O of its own: exposition
//! returns `String`s for the caller to serve or write. Timestamps are
//! injected by the caller everywhere (see
//! [`Participant::observe_now`](ar_core::Participant::observe_now)),
//! preserving the sans-io core's determinism.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod flight;
pub mod hist;
pub mod json;
pub mod registry;

pub use flight::{FlightEvent, FlightRecorder};
pub use hist::{AtomicHistogram, LogLinearHistogram, SUB_BUCKET_BITS};
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, EXPORT_QUANTILES};
