//! `BENCH_client_tier.json`: open-loop load generation against the
//! client service tier — client count versus p99 Agreed latency at
//! fixed aggregate offered load.
//!
//! One in-process daemon (single-member loopback ring) runs the real
//! `ar-svc` tier on an ephemeral TCP port; worker threads multiplex
//! hundreds of `SvcClient`s each, so a thousand concurrent
//! flow-controlled connections exercise the one-thread server
//! multiplexer exactly as deployed.
//!
//! Workload shape:
//! * **Zipf group popularity** — each client subscribes to one of 64
//!   groups drawn from a Zipf(1.0) distribution, and publishers aim
//!   their bursts at Zipf-drawn groups, so the popular groups carry
//!   most of the fan-out (as Spread deployments do).
//! * **Bursty publishers** — the open-loop schedule fires fixed-size
//!   bursts on a fixed period per client; a stalled client does not
//!   reduce the offered load, it accumulates backpressure.
//! * **Deliberately slow consumers** — the `slow-consumer` curve adds
//!   unacking subscribers to the most popular group and requires the
//!   tier to evict them (`drops` column = evictions) while the healthy
//!   population keeps a finite p99.
//! * **Reconnect churn** — the `reconnect-churn` curve severs one
//!   client connection every `CHURN_EVERY` while the load runs; every
//!   severed session must resume (`rtx` column = sessions resumed,
//!   `drops` must stay 0) and the healthy p99 must survive the
//!   retained-delivery replay traffic.
//!
//! ```text
//! usage: loadgen [--quick]
//! ```
//!
//! `--quick` trims scales and duration for the CI smoke job.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ar_bench::{write_bench_json, BenchPoint};
use ar_core::{Participant, ParticipantId, ProtocolConfig, RingId, ServiceType, SplitMix64};
use ar_daemon::{serve_metrics, spawn_daemon_with, DaemonConfig, DaemonHandle, TelemetryHub};
use ar_net::LoopbackNet;
use ar_svc::{
    serve_clients, FlowConfig, PublishError, SvcClient, SvcConfig, SvcEvent, SvcHandle,
    SvcListeners,
};
use ar_telemetry::json::Value;
use bytes::Bytes;

const GROUPS: usize = 64;
const ZIPF_S: f64 = 1.0;
const PAYLOAD: usize = 128;
const WORKERS: usize = 8;
/// Aggregate offered load, messages per second, held fixed across
/// client counts (the sweep varies concurrency, not demand).
const OFFERED_MSGS_PER_SEC: f64 = 500.0;
const BURST: u64 = 4;
/// Aggregate connection-kill period for the reconnect-churn scenario.
const CHURN_EVERY: Duration = Duration::from_millis(100);

struct ScaleResult {
    latencies_us: Vec<f64>,
    delivered: u64,
    published: u64,
    stalls: u64,
    evicted: u64,
    elapsed: Duration,
}

/// Uniform in `[0, 1)` from the top 53 bits of the next draw.
fn unit_f64(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Cumulative Zipf(s) distribution over `n` ranks.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = unit_f64(rng);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One loopback daemon with telemetry served on an ephemeral port, so
/// the run can pull real token-rotation stats from `/snapshot` exactly
/// as an operator would against `ard --metrics-addr`.
fn single_daemon() -> (LoopbackNet, DaemonHandle, ar_daemon::MetricsServer) {
    let net = LoopbackNet::new();
    let members = vec![ParticipantId::new(0)];
    let ring_id = RingId::new(members[0], 1);
    let part = Participant::new(
        members[0],
        ProtocolConfig::accelerated(),
        ring_id,
        members.clone(),
    )
    .expect("participant");
    let hub = TelemetryHub::shared();
    let config = DaemonConfig {
        telemetry: Some(hub.clone()),
        ..DaemonConfig::default()
    };
    let handle = spawn_daemon_with(part, net.endpoint(members[0]), config);
    let metrics = serve_metrics("127.0.0.1:0", hub).expect("metrics endpoint");
    (net, handle, metrics)
}

/// Total tokens handled so far, scraped from the daemon's `/snapshot`
/// JSON endpoint. Sampled before and after a run, the delta is the
/// token rotations the run drove (single-member ring: one handling
/// per rotation).
fn snapshot_rotations(addr: std::net::SocketAddr) -> u64 {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect /snapshot");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "GET /snapshot HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read /snapshot");
    let (_, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    Value::parse(body)
        .expect("snapshot is valid JSON")
        .get("stats")
        .and_then(|s| s.get("tokens_handled_total"))
        .and_then(Value::as_f64)
        .expect("stats carry tokens_handled_total") as u64
}

fn start_tier(daemon: &DaemonHandle, max_clients: usize, flow: FlowConfig) -> SvcHandle {
    let config = SvcConfig {
        max_clients,
        flow,
        ..SvcConfig::default()
    };
    serve_clients(
        daemon,
        SvcListeners {
            tcp: Some("127.0.0.1:0".parse().unwrap()),
            uds: None,
        },
        config,
    )
    .expect("service tier")
}

struct GenClient {
    client: SvcClient,
    group: String,
    next_burst: Instant,
    period: Duration,
}

/// Runs one open-loop scale: `clients` connections at the fixed
/// aggregate offered load, plus `slow` unacking subscribers of the
/// most popular group. Returns merged latency samples and counters.
#[allow(clippy::too_many_lines)]
fn run_scale(
    addr: std::net::SocketAddr,
    svc: &SvcHandle,
    clients: usize,
    slow: usize,
    churn_every: Option<Duration>,
    measure: Duration,
    seed: u64,
) -> ScaleResult {
    let epoch = Instant::now();
    let published = Arc::new(AtomicU64::new(0));
    let delivered = Arc::new(AtomicU64::new(0));
    let stalls = Arc::new(AtomicU64::new(0));
    let evicted_before = svc.stats().evicted.get();

    // Unacking subscribers of the hottest group: the tier must cut
    // them loose without stalling anyone else. They run on their own
    // thread, pumping (reading the socket) but never opening the
    // delivery window.
    let slow_thread = (slow > 0).then(|| {
        let deadline = epoch + measure + Duration::from_secs(2);
        std::thread::spawn(move || {
            let mut victims = Vec::new();
            for v in 0..slow {
                let Ok(mut c) = SvcClient::connect_tcp(addr, &format!("slow{v}")) else {
                    continue;
                };
                c.set_auto_ack(false);
                let _ = c.join("g0");
                victims.push(c);
            }
            while Instant::now() < deadline && !victims.is_empty() {
                for c in &mut victims {
                    let _ = c.pump();
                    while c.poll_event().is_some() {}
                }
                victims.retain(|c| c.evicted_reason().is_none());
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    });

    let per_client_rate = OFFERED_MSGS_PER_SEC / clients as f64;
    let burst_period = Duration::from_secs_f64(BURST as f64 / per_client_rate);
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let published = Arc::clone(&published);
            let delivered = Arc::clone(&delivered);
            let stalls = Arc::clone(&stalls);
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(seed ^ (w as u64).wrapping_mul(0x9e3779b97f4a7c15));
                let zipf = Zipf::new(GROUPS, ZIPF_S);
                let mut mine: Vec<GenClient> = Vec::new();
                for i in (w..clients).step_by(WORKERS) {
                    let name = format!("c{i}");
                    let Ok(mut client) = SvcClient::connect_tcp(addr, &name) else {
                        continue;
                    };
                    let group = format!("g{}", zipf.sample(&mut rng));
                    let _ = client.join(&group);
                    // Stagger burst phases so the aggregate is
                    // open-loop-smooth, each client individually bursty.
                    let phase = burst_period.mul_f64(unit_f64(&mut rng));
                    mine.push(GenClient {
                        client,
                        group,
                        next_burst: epoch + phase,
                        period: burst_period,
                    });
                }
                let mut latencies: Vec<f64> = Vec::new();
                let warmup = epoch + Duration::from_millis(500);
                let deadline = epoch + measure;
                let mut payload = vec![0u8; PAYLOAD];
                // Each worker churns at 1/WORKERS of the aggregate
                // kill rate, phase-staggered so severs spread out.
                let worker_churn = churn_every.map(|p| p * WORKERS as u32);
                let mut next_churn = worker_churn
                    .map(|p| epoch + Duration::from_millis(500) + p.mul_f64(unit_f64(&mut rng)));
                let mut churn_idx = w;
                while Instant::now() < deadline {
                    let now = Instant::now();
                    if let (Some(due), Some(period)) = (next_churn, worker_churn) {
                        if due <= now && !mine.is_empty() {
                            let victim = churn_idx % mine.len();
                            mine[victim].client.sever();
                            churn_idx += 1;
                            next_churn = Some(due + period);
                        }
                    }
                    for gc in &mut mine {
                        // Open-loop: fire every due burst, whether or
                        // not the last one completed.
                        while gc.next_burst <= now {
                            gc.next_burst += gc.period;
                            let target = if rng.next_u64().is_multiple_of(4) {
                                format!("g{}", zipf.sample(&mut rng))
                            } else {
                                gc.group.clone()
                            };
                            for _ in 0..BURST {
                                let ns = epoch.elapsed().as_nanos() as u64;
                                payload[..8].copy_from_slice(&ns.to_be_bytes());
                                match gc.client.try_publish(
                                    &[&target],
                                    ServiceType::Agreed,
                                    Bytes::copy_from_slice(&payload),
                                ) {
                                    Ok(_) => {
                                        published.fetch_add(1, Ordering::Relaxed);
                                    }
                                    Err(PublishError::NoCredits) => {
                                        stalls.fetch_add(1, Ordering::Relaxed);
                                    }
                                    Err(PublishError::TooLarge) => unreachable!(),
                                    Err(PublishError::Io(_)) => {}
                                }
                            }
                        }
                        let _ = gc.client.pump();
                        while let Some(ev) = gc.client.poll_event() {
                            if let SvcEvent::Deliver { payload, .. } = ev {
                                delivered.fetch_add(1, Ordering::Relaxed);
                                if payload.len() >= 8 && now >= warmup {
                                    let sent = u64::from_be_bytes(payload[..8].try_into().unwrap());
                                    let lat_ns = epoch.elapsed().as_nanos() as u64 - sent;
                                    latencies.push(lat_ns as f64 / 1_000.0);
                                }
                            }
                        }
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                // Drain the tail so late deliveries still count.
                let drain_until = Instant::now() + Duration::from_millis(500);
                while Instant::now() < drain_until {
                    for gc in &mut mine {
                        let _ = gc.client.pump();
                        while let Some(ev) = gc.client.poll_event() {
                            if let SvcEvent::Deliver { .. } = ev {
                                delivered.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                latencies
            })
        })
        .collect();

    let mut latencies_us = Vec::new();
    for w in workers {
        latencies_us.extend(w.join().expect("worker"));
    }
    if let Some(t) = slow_thread {
        t.join().expect("slow-consumer thread");
    }
    ScaleResult {
        latencies_us,
        delivered: delivered.load(Ordering::Relaxed),
        published: published.load(Ordering::Relaxed),
        stalls: stalls.load(Ordering::Relaxed),
        evicted: svc.stats().evicted.get() - evicted_before,
        elapsed: epoch.elapsed(),
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn to_point(curve: &str, r: &ScaleResult, evictions: u64, rotations: u64) -> BenchPoint {
    let mut lat = r.latencies_us.clone();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mean = if lat.is_empty() {
        0.0
    } else {
        lat.iter().sum::<f64>() / lat.len() as f64
    };
    let secs = r.elapsed.as_secs_f64();
    BenchPoint {
        curve: curve.to_string(),
        offered_mbps: OFFERED_MSGS_PER_SEC * PAYLOAD as f64 * 8.0 / 1e6,
        throughput_mbps: r.published as f64 * PAYLOAD as f64 * 8.0 / 1e6 / secs,
        mean_us: mean,
        p50_us: percentile(&lat, 0.50),
        p90_us: percentile(&lat, 0.90),
        p99_us: percentile(&lat, 0.99),
        p999_us: percentile(&lat, 0.999),
        rotation_us: if rotations == 0 {
            0.0
        } else {
            r.elapsed.as_secs_f64() * 1e6 / rotations as f64
        },
        token_rotations: rotations,
        drops: evictions,
        rtx: 0,
    }
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let scales: &[usize] = if quick { &[10, 100] } else { &[10, 100, 1000] };
    let measure = if quick {
        Duration::from_secs(4)
    } else {
        Duration::from_secs(8)
    };

    let mut points = Vec::new();
    for (k, &clients) in scales.iter().enumerate() {
        let (_net, daemon, metrics) = single_daemon();
        let svc = start_tier(&daemon, clients + 64, FlowConfig::default());
        let addr = svc.tcp_addr().unwrap();
        eprintln!("loadgen: open-loop, {clients} clients, {OFFERED_MSGS_PER_SEC} msg/s offered");
        let rotations_before = snapshot_rotations(metrics.local_addr());
        let r = run_scale(
            addr,
            &svc,
            clients,
            0,
            None,
            measure,
            0x10ad_0000 + k as u64,
        );
        let rotations = snapshot_rotations(metrics.local_addr()).saturating_sub(rotations_before);
        eprintln!(
            "loadgen:   published {} delivered {} stalls {} samples {} p99 {:.0} us",
            r.published,
            r.delivered,
            r.stalls,
            r.latencies_us.len(),
            {
                let mut l = r.latencies_us.clone();
                l.sort_by(|a, b| a.partial_cmp(b).unwrap());
                percentile(&l, 0.99)
            }
        );
        if r.latencies_us.is_empty() {
            eprintln!("loadgen: no latency samples at {clients} clients");
            return ExitCode::FAILURE;
        }
        points.push(to_point(
            &format!("tier/open-loop/clients-{clients}"),
            &r,
            0,
            rotations,
        ));
        svc.shutdown().expect("svc shutdown");
        daemon.shutdown().expect("daemon shutdown");
    }

    // Slow-consumer scenario: 100 healthy clients plus unacking
    // subscribers of the hottest group. The tier must evict the slow
    // ones (drops column) while healthy latency stays finite.
    {
        let clients = 100;
        let (_net, daemon, metrics) = single_daemon();
        // A tight delivery window and pending bound so unacking
        // subscribers of the hot group trip the eviction policy within
        // the measurement window; acking clients keep their backlog
        // near zero and never approach it.
        let flow = FlowConfig {
            delivery_window: 32,
            max_pending: 64,
            ..FlowConfig::default()
        };
        let svc = start_tier(&daemon, clients + 64, flow);
        let addr = svc.tcp_addr().unwrap();
        eprintln!("loadgen: slow-consumer scenario, {clients} healthy + 4 unacking");
        let rotations_before = snapshot_rotations(metrics.local_addr());
        let r = run_scale(addr, &svc, clients, 4, None, measure, 0x510c_0de5);
        let rotations = snapshot_rotations(metrics.local_addr()).saturating_sub(rotations_before);
        eprintln!(
            "loadgen:   published {} delivered {} evicted {} samples {}",
            r.published,
            r.delivered,
            r.evicted,
            r.latencies_us.len()
        );
        if r.evicted == 0 {
            eprintln!("loadgen: slow consumers were never evicted");
            return ExitCode::FAILURE;
        }
        if r.latencies_us.is_empty() {
            eprintln!("loadgen: healthy clients starved in slow-consumer scenario");
            return ExitCode::FAILURE;
        }
        points.push(to_point(
            &format!("tier/slow-consumer/clients-{clients}"),
            &r,
            r.evicted,
            rotations,
        ));
        svc.shutdown().expect("svc shutdown");
        daemon.shutdown().expect("daemon shutdown");
    }

    // Reconnect-churn scenario: the same 100-client open-loop load,
    // but one connection is severed every CHURN_EVERY. Every kill must
    // resume its parked session (replaying retained deliveries); churn
    // must cause zero evictions and the healthy p99 must stay finite.
    {
        let clients = 100;
        let (_net, daemon, metrics) = single_daemon();
        let svc = start_tier(&daemon, clients + 64, FlowConfig::default());
        let addr = svc.tcp_addr().unwrap();
        eprintln!(
            "loadgen: reconnect-churn scenario, {clients} clients, one sever per {CHURN_EVERY:?}"
        );
        let rotations_before = snapshot_rotations(metrics.local_addr());
        let resumed_before = svc.stats().sessions_resumed.get();
        let r = run_scale(
            addr,
            &svc,
            clients,
            0,
            Some(CHURN_EVERY),
            measure,
            0xc4c4_0000,
        );
        let rotations = snapshot_rotations(metrics.local_addr()).saturating_sub(rotations_before);
        let resumed = svc.stats().sessions_resumed.get() - resumed_before;
        eprintln!(
            "loadgen:   published {} delivered {} resumed {} evicted {} samples {}",
            r.published,
            r.delivered,
            resumed,
            r.evicted,
            r.latencies_us.len()
        );
        if resumed == 0 {
            eprintln!("loadgen: churn never resumed a session");
            return ExitCode::FAILURE;
        }
        if r.evicted > 0 {
            eprintln!("loadgen: reconnect churn evicted {} clients", r.evicted);
            return ExitCode::FAILURE;
        }
        if r.latencies_us.is_empty() {
            eprintln!("loadgen: no latency samples under reconnect churn");
            return ExitCode::FAILURE;
        }
        let mut point = to_point(
            &format!("tier/reconnect-churn/clients-{clients}"),
            &r,
            r.evicted,
            rotations,
        );
        point.rtx = resumed;
        points.push(point);
        svc.shutdown().expect("svc shutdown");
        daemon.shutdown().expect("daemon shutdown");
    }

    match write_bench_json("client_tier", &points) {
        Ok(path) => {
            println!("loadgen: wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loadgen: cannot write results: {e}");
            ExitCode::FAILURE
        }
    }
}
