//! Live metrics: the daemon's telemetry hub and its HTTP endpoint.
//!
//! A [`TelemetryHub`] collects everything observable about one daemon —
//! the [`MetricsRegistry`] the runtime records into, the
//! [`FlightRecorder`] attached to the participant, and a periodically
//! refreshed copy of the [`ParticipantStats`] counters.
//! [`serve_metrics`] exposes the hub over a tiny built-in HTTP server
//! (one thread, no dependencies):
//!
//! | path        | content                                            |
//! |-------------|----------------------------------------------------|
//! | `/metrics`  | Prometheus text exposition (registry + stats)      |
//! | `/snapshot` | the same data as one JSON document                 |
//! | `/flight`   | the flight recorder's event tail as JSON           |
//!
//! Start it from `ard` with `--metrics-addr 127.0.0.1:9464`, then:
//!
//! ```text
//! curl http://127.0.0.1:9464/metrics
//! ```

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use ar_core::ParticipantStats;
use ar_telemetry::json::JsonWriter;
use ar_telemetry::{FlightRecorder, MetricsRegistry};

/// Events the daemon's flight recorder retains.
const FLIGHT_CAPACITY: usize = 512;

/// One daemon's complete telemetry state.
///
/// A sharded daemon's N ring loops share one hub: each refreshes its
/// own per-shard stats slot (keyed by shard index) and registers
/// shard-labelled series, so `/metrics` and `/snapshot` expose every
/// ring side by side while [`stats`](TelemetryHub::stats) aggregates.
#[derive(Debug)]
pub struct TelemetryHub {
    /// The registry the runtime's [`ar_net::NetMetrics`] record into.
    pub registry: MetricsRegistry,
    /// The flight recorder attached to the participant.
    pub flight: Arc<FlightRecorder>,
    /// Latest protocol-counter snapshot per shard (refreshed by each
    /// daemon loop; unsharded daemons use slot 0).
    stats: Mutex<BTreeMap<usize, ParticipantStats>>,
}

impl Default for TelemetryHub {
    fn default() -> Self {
        TelemetryHub::new()
    }
}

impl TelemetryHub {
    /// Creates an empty hub.
    pub fn new() -> TelemetryHub {
        TelemetryHub {
            registry: MetricsRegistry::new(),
            flight: FlightRecorder::shared(FLIGHT_CAPACITY),
            stats: Mutex::new(BTreeMap::new()),
        }
    }

    /// A hub ready to hand to
    /// [`DaemonConfig`](crate::DaemonConfig)`::telemetry`.
    pub fn shared() -> Arc<TelemetryHub> {
        Arc::new(TelemetryHub::new())
    }

    /// Replaces the stats snapshot (called by an unsharded daemon
    /// loop; shorthand for shard slot 0).
    pub fn update_stats(&self, stats: ParticipantStats) {
        self.update_shard_stats(0, stats);
    }

    /// Replaces one shard's stats snapshot (called by that shard's
    /// daemon loop).
    pub fn update_shard_stats(&self, shard: usize, stats: ParticipantStats) {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(shard, stats);
    }

    /// The latest protocol-counter snapshot, aggregated (field-wise
    /// sum) over every shard slot.
    pub fn stats(&self) -> ParticipantStats {
        let m = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        let mut total = ParticipantStats::default();
        for s in m.values() {
            add_stats(&mut total, s);
        }
        total
    }

    /// One shard's latest snapshot, if that shard has reported.
    pub fn shard_stats(&self, shard: usize) -> Option<ParticipantStats> {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&shard)
            .copied()
    }

    /// Renders the Prometheus exposition: the registry plus the
    /// participant counters as `ar_participant_*` counter series.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.registry.render_prometheus();
        let s = self.stats();
        for (name, help, v) in stat_counters(&s) {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        out
    }

    /// Renders the full state as one JSON document:
    /// `{"metrics": {...}, "stats": {...}, "flight": {...}}`.
    pub fn render_json(&self) -> String {
        let s = self.stats();
        let mut stats_w = JsonWriter::new();
        stats_w.begin_object();
        for (name, _, v) in stat_counters(&s) {
            stats_w.key(name.strip_prefix("ar_participant_").unwrap_or(name));
            stats_w.num_u64(v);
        }
        stats_w.end_object();
        let mut flight_w = JsonWriter::new();
        flight_w.begin_object();
        flight_w.key("len");
        flight_w.num_u64(self.flight.len() as u64);
        flight_w.key("total");
        flight_w.num_u64(self.flight.total());
        flight_w.key("digest");
        flight_w.str(&format!("{:016x}", self.flight.digest()));
        flight_w.end_object();
        format!(
            "{{\"metrics\":{},\"stats\":{},\"flight\":{}}}",
            self.registry.render_json(),
            stats_w.finish(),
            flight_w.finish()
        )
    }

    /// Renders the flight recorder's tail as a JSON array of
    /// `{"at": ns, "event": name, "detail": "..."}` objects, oldest
    /// first.
    pub fn render_flight_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_array();
        for fe in self.flight.dump() {
            w.begin_object();
            w.key("at");
            w.num_u64(fe.at);
            w.key("event");
            w.str(fe.ev.name());
            w.key("detail");
            w.str(&format!("{:?}", fe.ev));
            w.end_object();
        }
        w.end_array();
        w.finish()
    }
}

/// Field-wise sum of two counter snapshots (aggregating shards).
fn add_stats(into: &mut ParticipantStats, s: &ParticipantStats) {
    into.tokens_handled += s.tokens_handled;
    into.tokens_dropped += s.tokens_dropped;
    into.tokens_retransmitted += s.tokens_retransmitted;
    into.messages_initiated += s.messages_initiated;
    into.messages_sent_before_token += s.messages_sent_before_token;
    into.messages_sent_after_token += s.messages_sent_after_token;
    into.retransmissions_sent += s.retransmissions_sent;
    into.retransmissions_requested += s.retransmissions_requested;
    into.messages_received += s.messages_received;
    into.duplicates_dropped += s.duplicates_dropped;
    into.foreign_dropped += s.foreign_dropped;
    into.messages_delivered += s.messages_delivered;
    into.safe_delivered += s.safe_delivered;
    into.messages_discarded += s.messages_discarded;
    into.config_changes += s.config_changes;
    into.gathers_started += s.gathers_started;
    into.timeouts_adapted += s.timeouts_adapted;
    into.members_quarantined += s.members_quarantined;
    into.members_reinstated += s.members_reinstated;
    into.joins_suppressed += s.joins_suppressed;
    into.accel_window_shrinks += s.accel_window_shrinks;
    into.accel_window_grows += s.accel_window_grows;
    into.recovery_burst_truncated += s.recovery_burst_truncated;
    into.recovery_pending_dropped += s.recovery_pending_dropped;
}

/// The participant counters in exposition order, as
/// `(metric_name, help, value)`.
fn stat_counters(s: &ParticipantStats) -> [(&'static str, &'static str, u64); 24] {
    [
        (
            "ar_participant_tokens_handled_total",
            "Tokens handled",
            s.tokens_handled,
        ),
        (
            "ar_participant_tokens_dropped_total",
            "Duplicate/stale tokens dropped",
            s.tokens_dropped,
        ),
        (
            "ar_participant_tokens_retransmitted_total",
            "Tokens retransmitted on timeout",
            s.tokens_retransmitted,
        ),
        (
            "ar_participant_messages_initiated_total",
            "Messages initiated",
            s.messages_initiated,
        ),
        (
            "ar_participant_messages_sent_before_token_total",
            "Messages multicast in the pre-token phase",
            s.messages_sent_before_token,
        ),
        (
            "ar_participant_messages_sent_after_token_total",
            "Messages multicast in the post-token phase",
            s.messages_sent_after_token,
        ),
        (
            "ar_participant_retransmissions_sent_total",
            "Retransmissions answered",
            s.retransmissions_sent,
        ),
        (
            "ar_participant_retransmissions_requested_total",
            "Retransmission requests placed on the token",
            s.retransmissions_requested,
        ),
        (
            "ar_participant_messages_received_total",
            "Data messages received",
            s.messages_received,
        ),
        (
            "ar_participant_duplicates_dropped_total",
            "Duplicate messages dropped",
            s.duplicates_dropped,
        ),
        (
            "ar_participant_foreign_dropped_total",
            "Foreign-ring messages dropped",
            s.foreign_dropped,
        ),
        (
            "ar_participant_messages_delivered_total",
            "Messages delivered",
            s.messages_delivered,
        ),
        (
            "ar_participant_safe_delivered_total",
            "Safe-service deliveries",
            s.safe_delivered,
        ),
        (
            "ar_participant_messages_discarded_total",
            "Messages discarded after stability",
            s.messages_discarded,
        ),
        (
            "ar_participant_config_changes_total",
            "Regular configurations installed",
            s.config_changes,
        ),
        (
            "ar_participant_gathers_started_total",
            "Membership gathers entered",
            s.gathers_started,
        ),
        (
            "ar_participant_timeouts_adapted_total",
            "Adaptive timeout policies installed",
            s.timeouts_adapted,
        ),
        (
            "ar_participant_members_quarantined_total",
            "Members quarantined by flap damping",
            s.members_quarantined,
        ),
        (
            "ar_participant_members_reinstated_total",
            "Members reinstated after penalty decay",
            s.members_reinstated,
        ),
        (
            "ar_participant_joins_suppressed_total",
            "Joins suppressed from quarantined members",
            s.joins_suppressed,
        ),
        (
            "ar_participant_accel_window_shrinks_total",
            "AIMD accelerated-window shrinks",
            s.accel_window_shrinks,
        ),
        (
            "ar_participant_accel_window_grows_total",
            "AIMD accelerated-window recoveries",
            s.accel_window_grows,
        ),
        (
            "ar_participant_recovery_burst_truncated_total",
            "Recovery bursts truncated by the burst limit",
            s.recovery_burst_truncated,
        ),
        (
            "ar_participant_recovery_pending_dropped_total",
            "Recovery-phase new-ring data drops (pending buffer full)",
            s.recovery_pending_dropped,
        ),
    ]
}

/// A running metrics endpoint; dropping it stops the server thread.
#[derive(Debug)]
pub struct MetricsServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The address the server actually bound (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the server and joins its thread.
    pub fn shutdown(mut self) {
        self.stop_now();
    }

    fn stop_now(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.join.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_now();
    }
}

/// Serves `hub` over HTTP on `addr` (e.g. `"127.0.0.1:9464"`, or port 0
/// for an ephemeral port). See the module docs for the paths.
///
/// # Errors
///
/// Returns any error from binding the listener.
pub fn serve_metrics<A: ToSocketAddrs>(
    addr: A,
    hub: Arc<TelemetryHub>,
) -> io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    // Nonblocking accept lets the thread poll the stop flag.
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let join = std::thread::Builder::new()
        .name("ar-metrics".into())
        .spawn(move || {
            while !stop2.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = handle_request(stream, &hub);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        })?;
    Ok(MetricsServer {
        local_addr,
        stop,
        join: Some(join),
    })
}

fn handle_request(mut stream: TcpStream, hub: &TelemetryHub) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read until the end of the request head (or the buffer fills;
    // paths are short and we ignore bodies).
    let mut buf = [0u8; 2048];
    let mut read = 0;
    while read < buf.len() && !buf[..read].windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut buf[read..]) {
            Ok(0) => break,
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&buf[..read]);
    let path = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            hub.render_prometheus(),
        ),
        "/snapshot" => ("200 OK", "application/json", hub.render_json()),
        "/flight" => ("200 OK", "application/json", hub.render_flight_json()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; try /metrics, /snapshot, or /flight\n".to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        let (head, body) = out.split_once("\r\n\r\n").expect("has header/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_three_paths_and_404() {
        let hub = TelemetryHub::shared();
        hub.registry.counter("ar_demo_total", "Demo").add(7);
        hub.flight
            .push(123, ar_core::ProtoEvent::TokenRetransmit { round: 4 });
        hub.update_stats(ParticipantStats {
            tokens_handled: 9,
            ..ParticipantStats::default()
        });
        let server = serve_metrics("127.0.0.1:0", hub).unwrap();
        let addr = server.local_addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("ar_demo_total 7"), "{body}");
        assert!(body.contains("ar_participant_tokens_handled_total 9"));

        let (head, body) = get(addr, "/snapshot");
        assert!(head.starts_with("HTTP/1.1 200"));
        let v = ar_telemetry::json::Value::parse(&body).expect("valid JSON");
        assert_eq!(
            v.get("stats")
                .and_then(|s| s.get("tokens_handled_total"))
                .and_then(ar_telemetry::json::Value::as_f64),
            Some(9.0)
        );

        let (head, body) = get(addr, "/flight");
        assert!(head.starts_with("HTTP/1.1 200"));
        let v = ar_telemetry::json::Value::parse(&body).expect("valid JSON");
        let arr = v.as_array().expect("array");
        assert_eq!(arr.len(), 1);
        assert_eq!(
            arr[0]
                .get("event")
                .and_then(ar_telemetry::json::Value::as_str),
            Some("token-retransmit")
        );

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        server.shutdown();
    }
}
