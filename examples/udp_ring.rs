//! A real UDP deployment on localhost: three daemons with dual UDP
//! sockets each (token port + data port, per the paper's Section
//! III-D), remote clients over TCP, and a totally ordered group chat —
//! the full production stack in one process.
//!
//! Run with: `cargo run --release --example udp_ring`

use std::time::{Duration, Instant};

use accelerated_ring::core::{Participant, RingId, ServiceType};
use accelerated_ring::daemon::{spawn_daemon, Deployment};
use accelerated_ring::net::UdpTransport;
use accelerated_ring::svc::{serve_clients, SvcClient, SvcConfig, SvcEvent, SvcListeners};
use bytes::Bytes;

const CONFIG: &str = "\
protocol accelerated
personal_window 30
accelerated_window 20

daemon 0 token=127.0.0.1:7610 data=127.0.0.1:7611 clients=127.0.0.1:0
daemon 1 token=127.0.0.1:7612 data=127.0.0.1:7613 clients=127.0.0.1:0
daemon 2 token=127.0.0.1:7614 data=127.0.0.1:7615 clients=127.0.0.1:0
";

fn main() {
    let deployment = Deployment::parse(CONFIG).expect("valid config");
    let members = deployment.members();
    let ring_id = RingId::new(members[0], 1);

    // Boot the three daemons (in the real world these are `ard`
    // processes on three machines).
    let mut daemons = Vec::new();
    let mut listeners = Vec::new();
    for entry in deployment.daemons() {
        let transport = UdpTransport::bind(entry.pid, deployment.peer_map())
            .expect("bind UDP sockets (ports 7610-7615 must be free)");
        let part = Participant::new(entry.pid, deployment.protocol, ring_id, members.clone())
            .expect("valid ring");
        let handle = spawn_daemon(part, transport);
        let listener = serve_clients(
            &handle,
            SvcListeners {
                tcp: entry.client_addr,
                uds: None,
            },
            SvcConfig::default(),
        )
        .expect("listen for clients");
        println!(
            "daemon {} up: protocol on {}, clients on {}",
            entry.pid,
            entry.addrs.token,
            listener.tcp_addr().expect("configured")
        );
        daemons.push(handle);
        listeners.push(listener);
    }

    // Three chat clients, one per daemon, over TCP.
    let mut clients: Vec<SvcClient> = listeners
        .iter()
        .enumerate()
        .map(|(i, l)| {
            SvcClient::connect_tcp(l.tcp_addr().expect("configured"), &format!("user{i}"))
                .expect("connect")
        })
        .collect();
    for c in clients.iter_mut() {
        c.join("chat").expect("join");
    }

    // Wait for the group to form.
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut sizes = vec![0usize; clients.len()];
    while sizes.iter().any(|&s| s < 3) && Instant::now() < deadline {
        for (i, c) in clients.iter_mut().enumerate() {
            for ev in c.drain() {
                if let SvcEvent::Membership { members, .. } = ev {
                    sizes[i] = members.len();
                }
            }
        }
    }
    assert!(sizes.iter().all(|&s| s == 3), "group formed: {sizes:?}");
    println!("\ngroup 'chat' formed with 3 members across 3 daemons");

    // Everyone talks at once.
    for (i, c) in clients.iter_mut().enumerate() {
        for k in 0..3 {
            c.publish(
                &["chat"],
                ServiceType::Agreed,
                Bytes::from(format!("user{i} says {k}")),
                Duration::from_secs(15),
            )
            .expect("send");
        }
    }

    // Everyone must see the identical conversation.
    let mut logs: Vec<Vec<String>> = vec![Vec::new(); clients.len()];
    let deadline = Instant::now() + Duration::from_secs(15);
    while logs.iter().any(|l| l.len() < 9) && Instant::now() < deadline {
        for (i, c) in clients.iter_mut().enumerate() {
            for ev in c.drain() {
                if let SvcEvent::Deliver {
                    sender, payload, ..
                } = ev
                {
                    logs[i].push(format!("{sender}: {}", String::from_utf8_lossy(&payload)));
                }
            }
        }
    }
    println!("\nthe conversation as user0 saw it:");
    for line in &logs[0] {
        println!("  {line}");
    }
    for (i, log) in logs.iter().enumerate() {
        assert_eq!(log.len(), 9, "user{i} saw the whole conversation");
        assert_eq!(log, &logs[0], "user{i} saw the identical order");
    }
    println!(
        "\nall 3 clients saw the identical 9-message conversation (total order over real UDP)"
    );

    drop(clients);
    drop(listeners);
    for d in daemons {
        d.shutdown().expect("clean shutdown");
    }
}
