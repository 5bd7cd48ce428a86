//! # ar-bench — the paper's evaluation, regenerated
//!
//! One runnable binary per figure of "Fast Total Ordering for Modern
//! Data Centers" (Babay & Amir, ICDCS 2016), plus the maximum-throughput
//! table and ablation sweeps.
//!
//! | Target | Reproduces |
//! |---|---|
//! | `fig1_agreed_1g` | Fig. 1 — Agreed latency vs throughput, 1-gigabit |
//! | `fig2_safe_1g` | Fig. 2 — Safe latency vs throughput, 1-gigabit |
//! | `fig3_agreed_10g` | Fig. 3 — Agreed latency vs throughput, 10-gigabit |
//! | `fig4_large_agreed_10g` | Fig. 4 — 1350 vs 8850-byte payloads, Agreed, 10-gigabit |
//! | `fig5_safe_10g` | Fig. 5 — Safe latency vs throughput, 10-gigabit |
//! | `fig6_large_safe_10g` | Fig. 6 — 1350 vs 8850-byte payloads, Safe, 10-gigabit |
//! | `fig7_safe_low_tput_10g` | Fig. 7 — Safe latency at low throughput (crossover) |
//! | `max_throughput_table` | §IV text — maximum throughput per implementation |
//! | `ablation_accel_window` | design ablation: accelerated-window sweep |
//! | `ablation_priority_method` | design ablation: priority method 1 vs 2 |
//! | `ablation_windows` | design ablation: personal/global window sweep |
//! | `bench_smoke` | CI smoke: two-point short run of the full pipeline |
//! | `bench_schema_check` | validates `BENCH_*.json` against `docs/bench_schema.json` |
//!
//! Each binary prints the series it regenerates as an aligned table,
//! writes a CSV under `results/`, and emits a machine-readable
//! `BENCH_<name>.json` (see [`benchjson`]) validated in CI against the
//! checked-in schema.

pub mod benchjson;
pub mod figset;
pub mod harness;
pub mod schema;
pub mod sweep;
pub mod table;

pub use benchjson::{render_bench_json, write_bench_json, BenchPoint, BENCH_SCHEMA_VERSION};
pub use figset::{scenario, Scenario};
pub use schema::validate as validate_schema;
pub use sweep::{latency_curve, max_throughput, CurvePoint};
pub use table::{write_csv, Table};
