//! What the benchmark reads from an `ard` without touching its code:
//! the `/snapshot` JSON of `--metrics-addr` and `/proc/<pid>`.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use ar_telemetry::json::Value;

/// One histogram of a snapshot. `p99` is cumulative since boot; count
/// and sum subtract into exact window means.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Hist {
    pub count: f64,
    pub sum: f64,
    pub p99: f64,
}

/// A parsed `/snapshot`, with shard labels folded away: counters and
/// gauges of one name add up across `{shard="k"}` series, histograms
/// add count and sum and keep the largest p99.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    values: BTreeMap<String, f64>,
    hists: BTreeMap<String, Hist>,
}

impl Snapshot {
    /// Parses the `/snapshot` body. Participant stats land under
    /// their short names (`tokens_handled_total`), registry series
    /// under their full ones (`ar_svc_publishes_total`).
    pub fn parse(body: &str) -> Result<Snapshot, String> {
        let root = Value::parse(body).map_err(|e| format!("snapshot is not JSON: {e:?}"))?;
        let mut snap = Snapshot::default();
        for section in ["metrics", "stats"] {
            let obj = root
                .get(section)
                .and_then(Value::as_object)
                .ok_or_else(|| format!("snapshot has no '{section}' object"))?;
            for (key, v) in obj {
                let name = key.split('{').next().unwrap_or(key).to_string();
                if let Some(n) = v.as_f64() {
                    *snap.values.entry(name).or_default() += n;
                } else if v.as_object().is_some() {
                    let field = |f: &str| v.get(f).and_then(Value::as_f64).unwrap_or(0.0);
                    let h = snap.hists.entry(name).or_default();
                    h.count += field("count");
                    h.sum += field("sum");
                    h.p99 = h.p99.max(field("p99"));
                }
            }
        }
        Ok(snap)
    }

    /// A counter or gauge; 0 when the series is absent (an `ard`
    /// without a log exports no log series).
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn hist(&self, name: &str) -> Hist {
        self.hists.get(name).copied().unwrap_or_default()
    }

    /// `self - earlier`, series by series; histograms keep `self`'s
    /// cumulative p99.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            values: self
                .values
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.value(k)))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(k, h)| {
                    let e = earlier.hist(k);
                    let d = Hist {
                        count: h.count - e.count,
                        sum: h.sum - e.sum,
                        p99: h.p99,
                    };
                    (k.clone(), d)
                })
                .collect(),
        }
    }

    /// Adds `other` in, as [`parse`](Self::parse) folds shards: the
    /// ring-wide view is the sum over its daemons.
    pub fn absorb(&mut self, other: &Snapshot) {
        for (k, v) in &other.values {
            *self.values.entry(k.clone()).or_default() += v;
        }
        for (k, o) in &other.hists {
            let h = self.hists.entry(k.clone()).or_default();
            h.count += o.count;
            h.sum += o.sum;
            h.p99 = h.p99.max(o.p99);
        }
    }
}

/// `GET path` against an `ard` metrics endpoint (it answers one
/// request per connection and closes).
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<String> {
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    s.set_read_timeout(Some(Duration::from_secs(2)))?;
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: e2e\r\n\r\n").as_bytes())?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no HTTP header end"))?;
    if !head.starts_with("HTTP/1.1 200") {
        let status = head.lines().next().unwrap_or("").to_string();
        return Err(io::Error::new(io::ErrorKind::InvalidData, status));
    }
    Ok(body.to_string())
}

pub fn snapshot(addr: SocketAddr) -> Result<Snapshot, String> {
    let body = http_get(addr, "/snapshot").map_err(|e| format!("GET {addr}/snapshot: {e}"))?;
    Snapshot::parse(&body)
}

/// Linux reports process times in USER_HZ ticks, fixed at 100 for
/// every supported architecture.
pub const TICKS_PER_S: f64 = 100.0;

/// One reading of `/proc/<pid>`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// utime + stime of all threads, live and reaped.
    pub cpu_ticks: u64,
    pub vm_hwm_kb: u64,
    /// Voluntary context switches over the live threads.
    pub vol_ctx: u64,
    pub threads: u64,
}

/// utime + stime from the text of `/proc/<pid>/stat`. The command
/// name may hold spaces and parentheses; fields count from after its
/// closing one.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The number after `key` on its `/proc/<pid>/status` line.
pub fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

pub fn proc_sample(pid: u32) -> io::Result<ProcSample> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let base = format!("/proc/{pid}");
    let stat = std::fs::read_to_string(format!("{base}/stat"))?;
    let status = std::fs::read_to_string(format!("{base}/status"))?;
    let mut vol_ctx = 0;
    for task in std::fs::read_dir(format!("{base}/task"))? {
        // A thread may exit between the listing and the read.
        if let Ok(s) = std::fs::read_to_string(task?.path().join("status")) {
            vol_ctx += status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0);
        }
    }
    Ok(ProcSample {
        cpu_ticks: parse_stat_cpu_ticks(&stat).ok_or_else(|| bad("unreadable stat"))?,
        vm_hwm_kb: status_field(&status, "VmHWM:").ok_or_else(|| bad("no VmHWM"))?,
        vol_ctx,
        threads: status_field(&status, "Threads:").ok_or_else(|| bad("no Threads"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = r#"{"metrics":{
        "ar_svc_publishes_total":10,
        "ar_node_tokens_rx_total":0,
        "ar_node_tokens_rx_total{shard=\"0\"}":100,
        "ar_node_tokens_rx_total{shard=\"1\"}":50,
        "ar_node_delivery_latency_ns{shard=\"0\"}":{"count":4,"sum":4000,"min":1,"max":9,"mean":1000,"p50":1,"p90":2,"p99":3000,"p999":4},
        "ar_node_delivery_latency_ns{shard=\"1\"}":{"count":1,"sum":500,"min":1,"max":9,"mean":500,"p50":1,"p90":2,"p99":500,"p999":4}},
        "stats":{"config_changes_total":0,"messages_initiated_total":7},
        "flight":{"len":1,"total":1,"digest":"00"}}"#;

    #[test]
    fn shard_labels_fold_into_one_series() {
        let s = Snapshot::parse(BEFORE).unwrap();
        assert_eq!(s.value("ar_node_tokens_rx_total"), 150.0);
        assert_eq!(s.value("ar_svc_publishes_total"), 10.0);
        assert_eq!(s.value("messages_initiated_total"), 7.0);
        assert_eq!(s.value("ar_node_log_syncs_total"), 0.0);
        let h = s.hist("ar_node_delivery_latency_ns");
        assert_eq!((h.count, h.sum, h.p99), (5.0, 4500.0, 3000.0));
    }

    #[test]
    fn window_delta_subtracts_counters_and_histogram_sums() {
        let before = Snapshot::parse(BEFORE).unwrap();
        let after = Snapshot::parse(
            &BEFORE
                .replace(
                    "\"ar_svc_publishes_total\":10",
                    "\"ar_svc_publishes_total\":25",
                )
                .replace("\"count\":4,\"sum\":4000", "\"count\":14,\"sum\":24000")
                .replace("\"config_changes_total\":0", "\"config_changes_total\":2"),
        )
        .unwrap();
        let d = after.since(&before);
        assert_eq!(d.value("ar_svc_publishes_total"), 15.0);
        assert_eq!(d.value("ar_node_tokens_rx_total"), 0.0);
        assert_eq!(d.value("config_changes_total"), 2.0);
        let h = d.hist("ar_node_delivery_latency_ns");
        assert_eq!((h.count, h.sum), (10.0, 20000.0));

        let mut ring = d.clone();
        ring.absorb(&d);
        assert_eq!(ring.value("ar_svc_publishes_total"), 30.0);
        assert_eq!(ring.hist("ar_node_delivery_latency_ns").count, 20.0);
    }

    #[test]
    fn malformed_snapshots_are_errors() {
        assert!(Snapshot::parse("not json").is_err());
        assert!(Snapshot::parse(r#"{"metrics":{}}"#).is_err());
    }

    #[test]
    fn proc_stat_survives_a_hostile_command_name() {
        let stat = "42 (a) d (x) S 1 42 42 0 -1 4194560 100 0 0 0 17 5 0 0 20 0 9 0 1 2 3";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(22));
        assert_eq!(parse_stat_cpu_ticks("42 (ard"), None);
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        let status = "Name:\tard\nVmHWM:\t    5120 kB\nThreads:\t9\nvoluntary_ctxt_switches:\t77\n";
        assert_eq!(status_field(status, "VmHWM:"), Some(5120));
        assert_eq!(status_field(status, "Threads:"), Some(9));
        assert_eq!(status_field(status, "voluntary_ctxt_switches:"), Some(77));
        assert_eq!(status_field(status, "VmSwap:"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let s = proc_sample(std::process::id()).unwrap();
        assert!(s.threads >= 1 && s.vm_hwm_kb > 0);
    }
}
