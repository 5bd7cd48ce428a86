//! `ard` — the Accelerated Ring daemon.
//!
//! Runs one ring participant from a deployment file (see
//! [`ar_daemon::deployconf`]) and serves local and remote clients,
//! playing the role of the `spread` daemon binary. Clients connect
//! through the flow-controlled service tier: over TCP on
//! `--client-addr` (default: this daemon's `clients=` address in the
//! deployment file) and/or a Unix socket on `--client-uds`.
//!
//! ```text
//! usage: ard [--rings N] [--ring-port-stride P]
//!            [--metrics-addr ADDR] [--log-dir DIR] [--fsync POLICY]
//!            [--no-safe-durable] [--loss P] [--loss-seed N]
//!            [--client-addr ADDR] [--client-uds PATH]
//!            [--max-clients N] [--publish-credits N]
//!            [--resume-grace-ms MS]
//!            <config-file> <daemon-id>
//!
//! # terminal 1              # terminal 2
//! ard ar.conf 0             ard ar.conf 1
//!
//! # with live metrics (Prometheus on /metrics, JSON on /snapshot,
//! # recent protocol events on /flight):
//! ard --metrics-addr 127.0.0.1:9464 ar.conf 0
//!
//! # serve flow-controlled clients on TCP and a Unix socket:
//! ard --client-addr 127.0.0.1:4804 --client-uds /tmp/ard0.sock ar.conf 0
//!
//! # crash-safe Safe delivery: persist ordered deliveries to a
//! # segmented log and recover them after kill -9
//! # (POLICY: always | never | every:<n> | interval:<ms>):
//! ard --log-dir /var/lib/ard/0 --fsync every:64 ar.conf 0
//!
//! # sharded scale-out: one process, 4 independent rings; groups are
//! # placed on rings by consistent hashing, shard k's protocol
//! # sockets are the file's ports + k * stride (default 100), and
//! # clients keep per-publisher FIFO across rings:
//! ard --rings 4 --client-addr 127.0.0.1:4804 ar.conf 0
//! ```

use std::process::ExitCode;

use ar_core::Participant;
use ar_daemon::{
    serve_metrics, DaemonConfig, DaemonLogConfig, Deployment, ShardedDaemon, TelemetryHub,
};
use ar_log::FsyncPolicy;
use ar_net::{ChaosConfig, ChaosTransport, NetMetrics, UdpTransport};
use ar_svc::{serve_clients_sharded, SvcConfig, SvcListeners};

const USAGE: &str = "usage: ard [--rings N] [--ring-port-stride P] [--metrics-addr ADDR] \
[--log-dir DIR] [--fsync POLICY] [--no-safe-durable] [--loss P] [--loss-seed N] \
[--client-addr ADDR] [--client-uds PATH] [--max-clients N] [--publish-credits N] \
[--resume-grace-ms MS] <config-file> <daemon-id>";

fn main() -> ExitCode {
    let mut metrics_addr: Option<String> = None;
    let mut log_dir: Option<String> = None;
    let mut fsync = FsyncPolicy::EveryN(64);
    let mut gate_safe = true;
    let mut loss: f64 = 0.0;
    let mut loss_seed: u64 = 1;
    let mut client_addr: Option<String> = None;
    let mut client_uds: Option<String> = None;
    let mut max_clients: Option<usize> = None;
    let mut publish_credits: Option<u32> = None;
    let mut resume_grace_ms: Option<u64> = None;
    let mut rings: usize = 1;
    let mut ring_port_stride: u16 = 100;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    // Flags take a value either as the next argument or after `=`.
    let take = |args: &mut dyn Iterator<Item = String>, arg: &str, name: &str| {
        if arg == name {
            return match args.next() {
                Some(v) => Some(Some(v)),
                None => {
                    eprintln!("ard: {name} requires a value\n{USAGE}");
                    None
                }
            };
        }
        arg.strip_prefix(&format!("{name}="))
            .map(|v| Some(v.to_string()))
    };
    while let Some(arg) = args.next() {
        if let Some(v) = take(&mut args, &arg, "--metrics-addr") {
            match v {
                Some(v) => metrics_addr = Some(v),
                None => return ExitCode::from(2),
            }
        } else if let Some(v) = take(&mut args, &arg, "--log-dir") {
            match v {
                Some(v) => log_dir = Some(v),
                None => return ExitCode::from(2),
            }
        } else if let Some(v) = take(&mut args, &arg, "--client-addr") {
            match v {
                Some(v) => client_addr = Some(v),
                None => return ExitCode::from(2),
            }
        } else if let Some(v) = take(&mut args, &arg, "--client-uds") {
            match v {
                Some(v) => client_uds = Some(v),
                None => return ExitCode::from(2),
            }
        } else if let Some(v) = take(&mut args, &arg, "--max-clients") {
            match v.and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => max_clients = Some(n),
                _ => {
                    eprintln!("ard: --max-clients wants a positive integer");
                    return ExitCode::from(2);
                }
            }
        } else if let Some(v) = take(&mut args, &arg, "--publish-credits") {
            match v.and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => publish_credits = Some(n),
                _ => {
                    eprintln!("ard: --publish-credits wants a positive integer");
                    return ExitCode::from(2);
                }
            }
        } else if let Some(v) = take(&mut args, &arg, "--resume-grace-ms") {
            match v.and_then(|v| v.parse().ok()) {
                Some(ms) => resume_grace_ms = Some(ms),
                _ => {
                    eprintln!("ard: --resume-grace-ms wants a duration in milliseconds (0 disables session parking)");
                    return ExitCode::from(2);
                }
            }
        } else if let Some(v) = take(&mut args, &arg, "--rings") {
            match v.and_then(|v| v.parse().ok()) {
                Some(n) if (1..=64).contains(&n) => rings = n,
                _ => {
                    eprintln!("ard: --rings wants an integer in 1..=64");
                    return ExitCode::from(2);
                }
            }
        } else if let Some(v) = take(&mut args, &arg, "--ring-port-stride") {
            match v.and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => ring_port_stride = n,
                _ => {
                    eprintln!("ard: --ring-port-stride wants a positive integer");
                    return ExitCode::from(2);
                }
            }
        } else if let Some(v) = take(&mut args, &arg, "--fsync") {
            match v.and_then(|v| FsyncPolicy::parse(&v)) {
                Some(p) => fsync = p,
                None => {
                    eprintln!("ard: --fsync wants always|never|every:<n>|interval:<ms>");
                    return ExitCode::from(2);
                }
            }
        } else if let Some(v) = take(&mut args, &arg, "--loss") {
            match v.and_then(|v| v.parse().ok()) {
                Some(p) if (0.0..1.0).contains(&p) => loss = p,
                _ => {
                    eprintln!("ard: --loss wants a probability in [0,1)");
                    return ExitCode::from(2);
                }
            }
        } else if let Some(v) = take(&mut args, &arg, "--loss-seed") {
            match v.and_then(|v| v.parse().ok()) {
                Some(s) => loss_seed = s,
                _ => {
                    eprintln!("ard: --loss-seed wants an integer");
                    return ExitCode::from(2);
                }
            }
        } else if arg == "--no-safe-durable" {
            gate_safe = false;
        } else if arg.starts_with("--") {
            eprintln!("ard: unknown option '{arg}'\n{USAGE}");
            return ExitCode::from(2);
        } else {
            positional.push(arg);
        }
    }
    if positional.len() != 2 {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let deployment = match Deployment::load(&positional[0]) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("ard: {}: {e}", positional[0]);
            return ExitCode::FAILURE;
        }
    };
    let id: u16 = match positional[1].parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("ard: daemon id must be a small integer");
            return ExitCode::from(2);
        }
    };
    let pid = ar_core::ParticipantId::new(id);
    let Some(entry) = deployment.daemon(pid) else {
        eprintln!("ard: daemon {id} is not in {}", positional[0]);
        return ExitCode::FAILURE;
    };

    let members = deployment.members();
    println!(
        "ard: daemon {pid} on ring of {} ({} protocol, token {}, data {}{})",
        members.len(),
        deployment.protocol.variant,
        entry.addrs.token,
        entry.addrs.data,
        if rings > 1 {
            format!(", {rings} ring shards, port stride {ring_port_stride}")
        } else {
            String::new()
        },
    );

    let mut config = DaemonConfig::default();
    let metrics_server = match &metrics_addr {
        Some(addr) => {
            let hub = TelemetryHub::shared();
            config.telemetry = Some(hub.clone());
            match serve_metrics(addr.as_str(), hub) {
                Ok(server) => {
                    println!(
                        "ard: metrics on http://{}/ (paths: /metrics /snapshot /flight)",
                        server.local_addr()
                    );
                    Some(server)
                }
                Err(e) => {
                    eprintln!("ard: cannot bind metrics endpoint on {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    if let Some(dir) = &log_dir {
        config.log = Some(
            DaemonLogConfig::new(dir)
                .with_fsync(fsync)
                .with_gate_safe(gate_safe),
        );
        println!(
            "ard: durable log in {dir}{} (fsync {fsync}, safe delivery {})",
            if rings > 1 { "/shard-<k>" } else { "" },
            if gate_safe {
                "gated on durability"
            } else {
                "not gated"
            }
        );
    }
    let telemetry = config.telemetry.clone();
    if loss > 0.0 {
        println!("ard: injecting seeded datagram loss p={loss} seed={loss_seed}");
    }

    // One protocol participant + bound transport per ring shard.
    // Shard k's sockets are the deployment file's ports offset by
    // k * stride; shard 0 is the file verbatim.
    let mut parts: Vec<Option<(Participant, UdpTransport)>> = Vec::with_capacity(rings);
    for k in 0..rings {
        let Some(map) = deployment.peer_map_for_shard(k, ring_port_stride) else {
            eprintln!("ard: shard {k} port offset overflows (lower --ring-port-stride?)");
            return ExitCode::FAILURE;
        };
        let mut transport = match UdpTransport::bind(pid, map) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("ard: cannot bind protocol sockets for shard {k}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Export the transport's counters (e.g. decode drops from
        // garbage datagrams) through the same registry the daemon
        // loops use; shard-labelled when there is more than one ring.
        if let Some(hub) = &telemetry {
            let m = if rings > 1 {
                NetMetrics::register_labeled(&hub.registry, &NetMetrics::shard_labels(k))
            } else {
                NetMetrics::register(&hub.registry)
            };
            transport.set_metrics(&m);
        }
        // Each shard is its own ring: same membership, distinct id.
        let shard_ring = ar_core::RingId::new(members[0], 1 + k as u64);
        let participant =
            match Participant::new(pid, deployment.protocol, shard_ring, members.clone()) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("ard: {e}");
                    return ExitCode::FAILURE;
                }
            };
        parts.push(Some((participant, transport)));
    }

    let sharded = if loss > 0.0 {
        ShardedDaemon::spawn(rings, |k| {
            let (part, transport) = parts[k].take().expect("each shard built once");
            (
                part,
                ChaosTransport::new(
                    transport,
                    ChaosConfig::quiet(loss_seed ^ k as u64).with_loss(loss),
                ),
                config.clone(),
            )
        })
    } else {
        ShardedDaemon::spawn(rings, |k| {
            let (part, transport) = parts[k].take().expect("each shard built once");
            (part, transport, config.clone())
        })
    };

    // The client service tier: TCP on --client-addr, else on this
    // daemon's `clients=` address from the deployment file.
    let mut listeners = SvcListeners {
        tcp: entry.client_addr,
        uds: client_uds.map(Into::into),
    };
    if let Some(addr) = &client_addr {
        match addr.parse() {
            Ok(a) => listeners.tcp = Some(a),
            Err(_) => {
                eprintln!("ard: invalid --client-addr '{addr}'");
                return ExitCode::from(2);
            }
        }
    }
    let svc = if listeners.tcp.is_some() || listeners.uds.is_some() {
        let mut svc_config = SvcConfig::default();
        if let Some(n) = max_clients {
            svc_config.max_clients = n;
        }
        if let Some(n) = publish_credits {
            svc_config.flow.publish_credits = n;
        }
        if let Some(ms) = resume_grace_ms {
            svc_config.park_grace = std::time::Duration::from_millis(ms);
        }
        svc_config.telemetry = telemetry;
        match serve_clients_sharded(&sharded, listeners, svc_config) {
            Ok(svc) => {
                if let Some(addr) = svc.tcp_addr() {
                    println!("ard: service tier on tcp {addr}");
                }
                if let Some(path) = svc.uds_path() {
                    println!("ard: service tier on uds {}", path.display());
                }
                Some(svc)
            }
            Err(e) => {
                eprintln!("ard: cannot start service tier: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        println!("ard: no client listener configured (protocol-only daemon)");
        None
    };

    // Run until interrupted.
    println!("ard: running; press Ctrl-C to stop");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
        let _ = &metrics_server;
        let _ = &svc;
    }
}
