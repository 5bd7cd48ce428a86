//! Sharded multi-ring scale-out: aggregate throughput and tail
//! latency vs. ring count at a fixed offered load.
//!
//! One totally ordered ring saturates at a fixed goodput `C`; the
//! sharded daemon (`ard --rings N`) runs N independent rings and
//! partitions the group namespace across them, so aggregate capacity
//! scales with N while each group keeps its per-ring total order.
//! This bench models exactly that: N independent 8-host rings in the
//! virtual-time simulator, each offered `TOTAL / N` where `TOTAL` is
//! ~3.5× the calibrated single-ring maximum. One ring is hopelessly
//! over-committed; four rings absorb the same offered load with
//! headroom. Per-run seeds differ so the rings are phase-decorrelated,
//! matching independent token rotations.
//!
//! Aggregation across a shard set: throughput and counter columns are
//! sums, latency percentiles are the worst shard (a publisher
//! switching shards waits for its slowest one), the mean is
//! delivery-weighted, and rotation time is the per-ring average.
//!
//! Emits `BENCH_multi_ring.json` and exits non-zero unless aggregate
//! throughput scales ≥ 3× going from 1 to 4 rings — the scale-out
//! acceptance bar.
//!
//! `--quick` shortens the simulated window and sweeps only {1, 4}.

use std::process::ExitCode;

use ar_bench::benchjson::{write_bench_json, BenchPoint};
use ar_bench::figset::{tuned_protocol, Net};
use ar_bench::table::{write_csv, Table};
use ar_core::{ProtocolVariant, ServiceType, TimeoutConfig};
use ar_sim::{run_ring, ImplProfile, LoadMode, RingSimConfig, SimDuration, SimReport};

/// One ring shard's simulation, before the load mode is chosen.
fn shard_base(quick: bool, seed: u64) -> RingSimConfig {
    RingSimConfig {
        n_hosts: 8,
        protocol: tuned_protocol(ProtocolVariant::Accelerated, Net::Gigabit, 1350),
        timeouts: TimeoutConfig::default(),
        net: Net::Gigabit.config(),
        profile: ImplProfile::daemon(),
        payload_bytes: 1350,
        service: ServiceType::Agreed,
        load: LoadMode::Saturating,
        duration: SimDuration::from_millis(if quick { 120 } else { 300 }),
        warmup: SimDuration::from_millis(if quick { 50 } else { 120 }),
        seed,
        faults: ar_sim::FaultPlan::none(),
        verify_order: false,
    }
}

/// Runs `rings` independent shards at `total_mbps` aggregate offered
/// load and folds their reports into one point.
fn run_shard_set(rings: usize, total_mbps: f64, quick: bool) -> BenchPoint {
    let per_ring_bps = (total_mbps * 1_000_000.0 / rings as f64) as u64;
    let reports: Vec<SimReport> = (0..rings)
        .map(|k| {
            let mut cfg = shard_base(quick, 42 + 1000 * rings as u64 + k as u64);
            cfg.load = LoadMode::OpenLoop {
                aggregate_bps: per_ring_bps,
            };
            run_ring(&cfg)
        })
        .collect();

    let throughput: f64 = reports.iter().map(SimReport::achieved_mbps).sum();
    let weight = |r: &SimReport| r.achieved_mbps().max(f64::MIN_POSITIVE);
    let total_weight: f64 = reports.iter().map(weight).sum();
    let mean_us = reports
        .iter()
        .map(|r| r.mean_latency_us() * weight(r))
        .sum::<f64>()
        / total_weight;
    let worst = |f: &dyn Fn(&SimReport) -> f64| reports.iter().map(f).fold(0.0f64, f64::max);
    BenchPoint {
        curve: format!("rings={rings}"),
        offered_mbps: total_mbps,
        throughput_mbps: throughput,
        mean_us,
        p50_us: worst(&|r| r.latency.p50.as_micros_f64()),
        p90_us: worst(&|r| r.latency.p90.as_micros_f64()),
        p99_us: worst(&|r| r.latency.p99.as_micros_f64()),
        p999_us: worst(&|r| r.latency.p999.as_micros_f64()),
        rotation_us: reports.iter().map(SimReport::rotation_us).sum::<f64>() / rings as f64,
        token_rotations: reports.iter().map(|r| r.token_rotations).sum(),
        drops: reports
            .iter()
            .map(|r| r.switch_drops + r.socket_drops)
            .sum(),
        rtx: reports.iter().map(|r| r.retransmissions).sum(),
    }
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");

    println!("Sharded multi-ring scale-out — aggregate msgs/s and p99 vs ring count");
    println!("(simulated reproduction; fixed offered load, groups partitioned across rings)\n");

    // Calibrate the single-ring ceiling, then over-commit it 3.5×:
    // the knee the sharded daemon exists to move past.
    let mut sat = shard_base(quick, 42);
    sat.load = LoadMode::Saturating;
    let ceiling = run_ring(&sat).achieved_mbps();
    let total_mbps = (ceiling * 3.5).round();
    println!("calibrated single-ring max {ceiling:.1} Mbps; offering {total_mbps:.0} Mbps\n");

    let ring_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let mut table = Table::new([
        "curve",
        "offered_mbps",
        "achieved_mbps",
        "msgs_per_s",
        "mean_us",
        "p99_us",
        "rot_us",
        "drops",
        "rtx",
    ]);
    let mut points = Vec::new();
    for &rings in ring_counts {
        let p = run_shard_set(rings, total_mbps, quick);
        let msgs_per_s = p.throughput_mbps * 1_000_000.0 / (1350.0 * 8.0);
        table.row([
            p.curve.clone(),
            format!("{:.0}", p.offered_mbps),
            format!("{:.1}", p.throughput_mbps),
            format!("{:.0}", msgs_per_s),
            format!("{:.1}", p.mean_us),
            format!("{:.1}", p.p99_us),
            format!("{:.1}", p.rotation_us),
            format!("{}", p.drops),
            format!("{}", p.rtx),
        ]);
        points.push(p);
    }
    print!("{}", table.render());
    match write_csv(&table, "multi_ring") {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write CSV: {e}"),
    }
    match write_bench_json("multi_ring", &points) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write BENCH JSON: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Acceptance bar: ≥ 3× aggregate throughput going 1 → 4 rings.
    let tput = |rings: usize| {
        points
            .iter()
            .find(|p| p.curve == format!("rings={rings}"))
            .map(|p| p.throughput_mbps)
            .unwrap_or(0.0)
    };
    let (one, four) = (tput(1), tput(4));
    let scale = four / one.max(f64::MIN_POSITIVE);
    println!("\nscaling 1 -> 4 rings: {one:.1} -> {four:.1} Mbps ({scale:.2}x)");
    if scale < 3.0 {
        eprintln!("FAIL: expected >= 3x aggregate scaling from 1 to 4 rings");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
