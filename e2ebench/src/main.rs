//! `e2e`: one real-process, layer-attributed benchmark for the whole
//! `ard` stack. See README.md beside this package for the workloads,
//! the metrics and how to read the trace file.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1   one pass, result as the last line
//! e2e --all [--seed N] [--seconds S] [--quick]           every workload, untraced then traced
//! e2e --selfcheck [--seed N] [--seconds S]               the untraced set twice, against the bounds
//! ```

mod audit;
mod drivers;
mod gen;
mod ring;
mod scrape;
mod stats;
mod trace;
mod workload;

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

use ar_telemetry::json::{JsonWriter, Value};

use audit::Verdict;
use gen::{GenReport, Plan};
use ring::{Ring, DAEMONS};
use scrape::{ProcSample, Snapshot, TICKS_PER_S};
use workload::{Load, Workload, WORKLOADS};

/// Ring boots per untraced pass; `setup_s` is their median.
const SETUP_BOOTS: usize = 9;
const IDLE: Duration = Duration::from_secs(2);
const WARM: Duration = Duration::from_secs(2);
const DRAIN: Duration = Duration::from_secs(1);
const DEFAULT_SECONDS: u64 = 20;
const QUICK_SECONDS: u64 = 3;
/// Above this the generator, not the stack, set the latencies.
const GEN_LATE_LIMIT_US: f64 = 2_000.0;
const GAUGE_PERIOD: Duration = Duration::from_millis(250);
/// Gauges the traced pass samples for their window maximum: metric,
/// `/snapshot` series, unit.
const GAUGES: [(&str, &str, &str); 5] = [
    (
        "svc.credits_deferred_max",
        "ar_svc_credits_deferred",
        "count",
    ),
    ("svc.holdback_held_max", "ar_svc_holdback_held", "count"),
    ("svc.holdback_held_ms_max", "ar_svc_holdback_held_ms", "ms"),
    ("net.queue_depth_max", "ar_node_queue_depth", "count"),
    ("log.held_safe_max", "ar_node_log_held_safe", "count"),
];

type Metric = (&'static str, f64, &'static str);

/// The result of one pass over one workload.
struct Pass {
    end_to_end: Vec<Metric>,
    /// Empty unless the pass was traced.
    per_layer: Vec<Metric>,
    verdict: Verdict,
}

/// Both ends of the window as the scraper thread saw them.
struct Readings {
    start: (Snapshot, Vec<ProcSample>),
    end: (Snapshot, Vec<ProcSample>),
    gauge_max: Vec<f64>,
}

/// Reads every daemon: the ring-wide sum of the snapshots, and one
/// `/proc` sample each.
fn read_ring(ards: &[(SocketAddr, u32)]) -> Result<(Snapshot, Vec<ProcSample>), String> {
    let mut sum = Snapshot::default();
    let mut procs = Vec::new();
    for &(addr, pid) in ards {
        sum.absorb(&scrape::snapshot(addr)?);
        procs.push(scrape::proc_sample(pid).map_err(|e| format!("/proc/{pid}: {e}"))?);
    }
    Ok((sum, procs))
}

/// Runs beside the generator: reads the ring as the window opens and
/// closes, and in a traced pass samples the gauges in between.
fn scraper(ards: &[(SocketAddr, u32)], phase: &AtomicU8, traced: bool) -> Result<Readings, String> {
    while phase.load(Ordering::SeqCst) == gen::WARM {
        std::thread::sleep(Duration::from_millis(1));
    }
    let start = read_ring(ards)?;
    let mut gauge_max = vec![0.0f64; GAUGES.len()];
    let mut next_sample = Instant::now() + GAUGE_PERIOD;
    while phase.load(Ordering::SeqCst) == gen::WINDOW {
        std::thread::sleep(Duration::from_millis(1));
        if traced && Instant::now() >= next_sample {
            next_sample += GAUGE_PERIOD;
            for &(addr, _) in ards {
                let snap = scrape::snapshot(addr)?;
                for (max, (_, series, _)) in gauge_max.iter_mut().zip(GAUGES) {
                    *max = max.max(snap.value(series));
                }
            }
        }
    }
    Ok(Readings {
        start,
        end: read_ring(ards)?,
        gauge_max,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn cpu_ticks(procs: &[ProcSample]) -> f64 {
    procs.iter().map(|p| p.cpu_ticks).sum::<u64>() as f64
}

/// One pass over one workload: boots rings until it has `boots`
/// set-up times (several untraced, for `setup_s`), drives the
/// workload on the last, audits, and turns what the generator and the
/// scraper saw into metrics. Every pass measures one window and
/// reports it; nothing is measured again.
fn run_pass(
    wl: &Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    boots: usize,
) -> Result<Pass, String> {
    let mut setups = Vec::new();
    let ard = ring::ard_path()?;
    let (mut ring, mut clients) = loop {
        let ring = Ring::boot(&ard, wl.rings, wl.durable)?;
        let clients = gen::connect_and_probe(&ring, wl)?;
        setups.push(ring.spawned_at.elapsed().as_secs_f64());
        if setups.len() >= boots {
            break (ring, clients);
        }
    };
    let ards: Vec<(SocketAddr, u32)> = ring.ards.iter().map(|a| (a.metrics, a.pid())).collect();

    let mut idle_cores = 0.0;
    if traced {
        let before = read_ring(&ards)?.1;
        let t = Instant::now();
        std::thread::sleep(IDLE);
        let after = read_ring(&ards)?.1;
        idle_cores =
            (cpu_ticks(&after) - cpu_ticks(&before)) / TICKS_PER_S / t.elapsed().as_secs_f64();
    }

    let window = Duration::from_secs(seconds);
    let half = window / 2;
    let plan = Plan {
        warm: WARM,
        window,
        drain: DRAIN,
        traced_from: traced.then_some(half),
    };
    let phase = AtomicU8::new(gen::WARM);
    let mut tracer = trace::Tracer::default();
    let (mut report, readings) = std::thread::scope(|s| {
        let scraper = s.spawn(|| scraper(&ards, &phase, traced));
        let report = gen::drive(&mut clients, wl, seed, plan, &phase, &mut tracer);
        (report, scraper.join().expect("scraper thread panicked"))
    });
    let readings = readings?;
    let exited = ring.exited();

    if !exited.is_empty() {
        return Err(format!("invalid run: {}", exited.join("; ")));
    }
    // Open loop, a generator that runs late sets the latencies
    // itself and the window measures nothing. Closed loop nothing is
    // due, and a generator kept off the processor only thinks longer:
    // its lateness is reported, not gated.
    if matches!(wl.load, Load::Open { .. }) && report.late_p99_us > GEN_LATE_LIMIT_US {
        return Err(format!(
            "invalid run: {}: the generator ran {:.0} us late at p99 (limit {GEN_LATE_LIMIT_US} us)",
            wl.name, report.late_p99_us
        ));
    }
    // A reconfiguration is the program's behaviour, not the host's
    // alone (README.md, "Validity"): the window stands, its outage is
    // charged to the whole-window figures, and stderr says so.
    let delta = readings.end.0.since(&readings.start.0);
    let regathers = delta.value("gathers_started_total") + delta.value("config_changes_total");
    if report.network_changes > 0 || regathers > 0.0 {
        eprintln!(
            "e2e: {}: the ring reconfigured inside the window ({regathers} gathers and \
             configuration changes at the daemons, {} network changes at clients)",
            wl.name, report.network_changes
        );
    }

    let slices = report.slices.len();
    let all = report.slices.stats(0..slices);
    let window_s = window.as_secs_f64();
    let ticks = cpu_ticks(&readings.end.1) - cpu_ticks(&readings.start.1);
    let rss_kb = readings
        .end
        .1
        .iter()
        .map(|p| p.vm_hwm_kb)
        .max()
        .unwrap_or(0);
    let setup_s = stats::median(setups);
    let totals = report.verdict.totals;
    let end_to_end = vec![
        ("setup_s", setup_s, "s"),
        ("latency_p50_us", all.p50_us, "us"),
        ("latency_p99_us", all.p99_us, "us"),
        ("delivered_per_s", all.per_s, "1/s"),
        (
            "within_limit_ratio",
            ratio(report.within as f64, report.owed as f64),
            "ratio",
        ),
        (
            "delivered_ratio",
            ratio(totals.received as f64, totals.attempted as f64),
            "ratio",
        ),
        (
            "in_order_ratio",
            1.0 - ratio(report.verdict.deviations as f64, totals.received as f64),
            "ratio",
        ),
        (
            "cpu_us_per_delivery",
            ratio(ticks / TICKS_PER_S * 1e6, all.samples as f64),
            "us",
        ),
        ("ard_rss_mb", rss_kb as f64 / 1024.0, "MB"),
    ];

    let mut per_layer = Vec::new();
    if traced {
        // The drivers get the cores to themselves.
        drop(clients);
        drop(ring);
        // Named like a run directory so a killed run's is swept too.
        let scratch = ring::work_dir()?.join(format!("run-{}-drivers", std::process::id()));
        per_layer = layer_metrics(&mut report, &readings, &delta, idle_cores, window_s, half);
        let gauges = GAUGES.iter().zip(&readings.gauge_max);
        per_layer.extend(gauges.map(|(&(name, _, unit), &max)| (name, max, unit)));
        per_layer.extend(drivers::run_all(wl, &scratch)?);
        write_trace(wl, seed, plan, &tracer, &end_to_end, &per_layer)?;
    }
    Ok(Pass {
        end_to_end,
        per_layer,
        verdict: report.verdict,
    })
}

/// The per-layer metrics the generator and the scrapes give (gauge
/// maxima and driver results join them in the caller). `d` is the
/// ring-wide window delta, summed over the daemons and their shards;
/// see README.md for which end-to-end metric each should move.
fn layer_metrics(
    report: &mut GenReport,
    readings: &Readings,
    d: &Snapshot,
    idle_cores: f64,
    window_s: f64,
    half: Duration,
) -> Vec<Metric> {
    let slices = report.slices.len();
    let all = report.slices.stats(0..slices);
    let split = stats::slice_of(half.as_nanos() as u64).clamp(1, slices.max(2) - 1);
    let untraced = report.slices.stats(0..split);
    let traced = report.slices.stats(split..slices);

    let hist_mean_us = |name: &str| {
        let h = d.hist(name);
        ratio(h.sum, h.count) / 1e3
    };
    let publishes = d.value("ar_svc_publishes_total");
    let deliveries = d.value("ar_svc_deliveries_total");
    let initiated = d.value("messages_initiated_total");
    let tokens = d.value("tokens_handled_total");
    let sent_before = d.value("messages_sent_before_token_total");
    let sent_after = d.value("messages_sent_after_token_total");
    let syncs = d.value("ar_node_log_syncs_total");
    let ring_latency_us = hist_mean_us("ar_node_delivery_latency_ns");
    let (p0, p1) = (&readings.start.1, &readings.end.1);
    let ticks = cpu_ticks(p1) - cpu_ticks(p0);
    let vol_ctx = p1.iter().map(|p| p.vol_ctx).sum::<u64>() as f64
        - p0.iter().map(|p| p.vol_ctx).sum::<u64>() as f64;

    vec![
        ("client.publish_call_ns", report.publish_call_ns, "ns"),
        ("client.pump_ns_per_event", report.pump_ns_per_event, "ns"),
        ("client.credit_stalls", report.credit_stalls as f64, "count"),
        ("client.gen_late_p99_us", report.late_p99_us, "us"),
        ("svc.residual_us_mean", all.mean_us - ring_latency_us, "us"),
        ("svc.publishes", publishes, "count"),
        ("svc.deliveries", deliveries, "count"),
        (
            "svc.credit_grants",
            d.value("ar_svc_credit_grants_total"),
            "count",
        ),
        (
            "svc.evictions",
            d.value("ar_svc_clients_evicted_total"),
            "count",
        ),
        (
            "svc.publish_rejects",
            d.value("ar_svc_publish_rejects_total"),
            "count",
        ),
        (
            "svc.order_deviations",
            report.verdict.deviations as f64,
            "count",
        ),
        ("daemon.packing_ratio", ratio(publishes, initiated), "ratio"),
        (
            "daemon.client_event_overflow",
            d.value("ar_daemon_client_event_overflow_total"),
            "count",
        ),
        ("core.msgs_per_token", ratio(initiated, tokens), "ratio"),
        (
            "core.tokens_per_delivery",
            ratio(tokens, deliveries),
            "ratio",
        ),
        (
            "core.post_token_share",
            ratio(sent_after, sent_before + sent_after),
            "ratio",
        ),
        (
            "core.rtx_per_kmsg",
            ratio(d.value("retransmissions_sent_total") * 1e3, initiated),
            "ratio",
        ),
        (
            "core.reconfigurations",
            d.value("config_changes_total") / DAEMONS as f64,
            "count",
        ),
        (
            "net.token_rotation_us_mean",
            hist_mean_us("ar_node_token_rotation_ns"),
            "us",
        ),
        (
            "net.token_hop_us_mean",
            hist_mean_us("ar_node_token_hop_ns"),
            "us",
        ),
        ("net.ring_latency_us_mean", ring_latency_us, "us"),
        (
            "net.ring_latency_us_p99",
            d.hist("ar_node_delivery_latency_ns").p99 / 1e3,
            "us",
        ),
        (
            "net.decode_drops",
            d.value("ar_node_wire_decode_drops_total"),
            "count",
        ),
        (
            "log.appends_per_sync",
            ratio(d.value("ar_node_log_appends_total"), syncs),
            "ratio",
        ),
        ("log.syncs_per_s", syncs / DAEMONS as f64 / window_s, "1/s"),
        ("ard.cpu_cores", ticks / TICKS_PER_S / window_s, "cores"),
        ("ard.idle_cpu_cores", idle_cores, "cores"),
        (
            "ard.vol_ctx_switches_per_delivery",
            ratio(vol_ctx, all.samples as f64),
            "ratio",
        ),
        (
            "ard.threads",
            p1.iter().map(|p| p.threads).max().unwrap_or(0) as f64,
            "count",
        ),
        (
            "trace.overhead_ratio.latency_p50",
            ratio(traced.p50_us, untraced.p50_us),
            "ratio",
        ),
        (
            "trace.overhead_ratio.delivered",
            ratio(traced.per_s, untraced.per_s),
            "ratio",
        ),
    ]
}

fn write_metrics(w: &mut JsonWriter, metrics: &[Metric]) {
    w.begin_object();
    for (name, value, unit) in metrics {
        w.key(name);
        w.begin_object();
        w.key("value");
        w.num_f64(*value);
        w.key("unit");
        w.str(unit);
        w.end_object();
    }
    w.end_object();
}

/// Writes `trace-<workload>.json` into the work directory: the spans,
/// and the pass's metrics (scrape deltas and driver results among
/// them).
fn write_trace(
    wl: &Workload,
    seed: u64,
    plan: Plan,
    tracer: &trace::Tracer,
    end_to_end: &[Metric],
    per_layer: &[Metric],
) -> Result<(), String> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("workload");
    w.str(wl.name);
    w.key("seed");
    w.num_u64(seed);
    w.key("window_ns");
    w.num_u64(plan.window.as_nanos() as u64);
    w.key("window_starts_ns");
    w.num_u64(plan.warm.as_nanos() as u64);
    w.key("spans_from_ns");
    w.num_u64((plan.warm + plan.traced_from.unwrap_or_default()).as_nanos() as u64);
    w.key("span_stride");
    w.num_u64(u64::from(wl.trace_stride));
    w.key("end_to_end_of_this_traced_pass");
    write_metrics(&mut w, end_to_end);
    w.key("per_layer");
    write_metrics(&mut w, per_layer);
    w.key("spans");
    tracer.write_spans(&mut w);
    w.end_object();
    let dir = ring::work_dir()?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", wl.name));
    std::fs::write(&path, w.finish()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("e2e: {} spans in {}", tracer.spans.len(), path.display());
    Ok(())
}

/// The contract's result line.
fn result_line(pass: &Pass, traced: bool) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct");
    w.bool(pass.verdict.violation_count == 0);
    w.key("attempted");
    w.num_u64(pass.verdict.totals.attempted.max(1));
    w.key("failed");
    w.num_u64(pass.verdict.totals.failed());
    w.key("metrics");
    write_metrics(
        &mut w,
        if traced {
            &pass.per_layer
        } else {
            &pass.end_to_end
        },
    );
    w.end_object();
    w.finish()
}

fn print_pass(wl: &Workload, label: &str, pass: &Pass, metrics: &[Metric]) {
    let totals = pass.verdict.totals;
    println!(
        "## {} ({label}): attempted {} failed {} failed_ratio {} audit {}",
        wl.name,
        totals.attempted,
        totals.failed(),
        ratio(totals.failed() as f64, totals.attempted as f64),
        if pass.verdict.violation_count == 0 {
            "ok"
        } else {
            "VIOLATED"
        },
    );
    for (name, value, unit) in metrics {
        println!("{name:<40} {value:>16.4} {unit}");
    }
}

/// Lists a pass's audit violations on stderr; true if there were any.
fn report_violations(wl: &Workload, pass: &Pass) -> bool {
    let verdict = &pass.verdict;
    if verdict.violation_count == 0 {
        return false;
    }
    eprintln!(
        "e2e: {}: {} audit violations",
        wl.name, verdict.violation_count
    );
    for v in &verdict.violations {
        eprintln!("  {v}");
    }
    true
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_header(seed: u64, seconds: u64, quick: bool) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# e2e seed {seed} window {seconds}s git {} nproc {cores} kernel {} ard {}",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("uname", &["-r"]),
        ring::ard_path()?.display(),
    );
    if quick {
        println!(
            "# --quick: {QUICK_SECONDS} s windows, one boot; NOT comparable with any other run"
        );
    }
    Ok(())
}

/// `(name, bound, higher_is_better)` of BENCHMARK.json's end-to-end
/// metrics, read from the current directory.
fn read_bounds() -> Result<Vec<(String, f64, bool)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let root = Value::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let list = root.get("end_to_end").and_then(Value::as_array);
    list.ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
                m.get("better")?.as_str()? == "higher",
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// Runs the untraced set twice and holds every end-to-end metric of
/// every workload to its bound.
fn selfcheck(seed: u64, seconds: u64) -> Result<bool, String> {
    let bounds = read_bounds()?;
    print_header(seed, seconds, false)?;
    let mut sets: Vec<Vec<Pass>> = Vec::new();
    for set in 0..2 {
        let mut passes = Vec::new();
        for wl in &WORKLOADS {
            eprintln!("e2e: selfcheck set {set}: {}", wl.name);
            passes.push(run_pass(wl, seed, seconds, false, SETUP_BOOTS)?);
        }
        sets.push(passes);
    }
    let mut ok = true;
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "worse by", "bound"
    );
    for (i, wl) in WORKLOADS.iter().enumerate() {
        ok &= !report_violations(wl, &sets[0][i]) && !report_violations(wl, &sets[1][i]);
        ok &= sets.iter().all(|set| set[i].verdict.totals.failed() == 0);
        for (name, bound, higher) in &bounds {
            let find = |p: &Pass| p.end_to_end.iter().find(|m| m.0 == name).map(|m| m.1);
            let (Some(a), Some(b)) = (find(&sets[0][i]), find(&sets[1][i])) else {
                return Err(format!("BENCHMARK.json names unknown metric {name}"));
            };
            let worse = if *higher { (a - b) / a } else { (b - a) / a };
            let verdict = if worse.abs() > *bound { "FAIL" } else { "ok" };
            ok &= worse.abs() <= *bound;
            println!(
                "{:<16} {name:<22} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.1}% {verdict}",
                wl.name,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

struct Args {
    workload: Option<&'static Workload>,
    all: bool,
    selfcheck: bool,
    quick: bool,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
}

const USAGE: &str = "usage: e2e --workload NAME --seed N --seconds S --trace 0|1\n       \
                     e2e --all [--seed N] [--seconds S] [--quick]\n       \
                     e2e --selfcheck [--seed N] [--seconds S]";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        selfcheck: false,
        quick: false,
        seed: 1,
        seconds: None,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}\n{USAGE}"));
        match flag.as_str() {
            "--all" => a.all = true,
            "--selfcheck" => a.selfcheck = true,
            "--quick" => a.quick = true,
            "--workload" => {
                let name = value("a workload name")?;
                a.workload = Some(Workload::by_name(&name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{name}' (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed wants a whole number")?
            }
            "--seconds" => {
                let s: u64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds wants a whole number")?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds wants 1..=60".to_string());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'\n{USAGE}")),
        }
    }
    if usize::from(a.workload.is_some()) + usize::from(a.all) + usize::from(a.selfcheck) != 1 {
        return Err(format!(
            "choose one of --workload, --all, --selfcheck\n{USAGE}"
        ));
    }
    Ok(a)
}

fn run(a: &Args) -> Result<bool, String> {
    let seconds = a.seconds.unwrap_or(if a.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let boots = if a.quick { 1 } else { SETUP_BOOTS };
    ring::sweep_dead_runs()?;
    if a.selfcheck {
        return selfcheck(a.seed, seconds);
    }
    if let Some(wl) = a.workload {
        let pass = run_pass(
            wl,
            a.seed,
            seconds,
            a.trace,
            if a.trace { 1 } else { boots },
        )?;
        let violated = report_violations(wl, &pass);
        if pass.verdict.totals.failed() > 0 {
            eprintln!(
                "e2e: {}: deliveries failed: {:?}",
                wl.name, pass.verdict.totals
            );
        }
        println!("{}", result_line(&pass, a.trace));
        return Ok(!violated);
    }
    print_header(a.seed, seconds, a.quick)?;
    let mut ok = true;
    for wl in &WORKLOADS {
        println!("# {}: {}", wl.name, wl.why);
        let pass = run_pass(wl, a.seed, seconds, false, boots)?;
        ok &= !report_violations(wl, &pass);
        print_pass(wl, "untraced", &pass, &pass.end_to_end);
        let traced = run_pass(wl, a.seed, seconds, true, 1)?;
        ok &= !report_violations(wl, &traced);
        print_pass(wl, "traced", &traced, &traced.per_layer);
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    // Everything that owns a child or a directory lives inside `run`
    // and is dropped before the exit code is chosen.
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
