//! Chaos-harness walkthrough: script a fault plan, run it against a
//! virtual five-node ring, show the reproducibility digest, then
//! restart a live daemon under a TCP client and watch the client
//! reconnect.
//!
//! ```bash
//! cargo run --example nemesis_demo [seed]
//! ```

use std::time::{Duration, Instant};

use accelerated_ring::core::{Participant, ParticipantId, ProtocolConfig, ServiceType};
use accelerated_ring::daemon::spawn_daemon;
use accelerated_ring::net::{LoopbackNet, NemesisPlan, NemesisRunner};
use accelerated_ring::svc::{serve_clients, SvcClient, SvcConfig, SvcEvent, SvcListeners};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);

    // ---- part 1: a scripted chaos run on the virtual clock ---------------
    let plan = NemesisPlan::none()
        .crash(Duration::from_millis(25), 4)
        .partition(Duration::from_millis(60), vec![0, 0, 0, 1, 1])
        .heal(Duration::from_millis(300));
    println!("plan: crash host 4 @25ms, partition 0,1,2|3,4 @60ms, heal @300ms");

    let outcome = run_plan(&plan, seed);
    println!(
        "seed {seed}: converged={} survivors={:?} deliveries={} dropped={} \
         tokens={} evs_violations={} digest={:#018x}",
        outcome.converged,
        outcome.survivors,
        outcome.deliveries.iter().sum::<usize>(),
        outcome.dropped,
        outcome.tokens_seen,
        outcome.evs_violations.len(),
        outcome.digest,
    );
    let repeat = run_plan(&plan, seed);
    println!(
        "seed {seed} again: digest={:#018x} ({})",
        repeat.digest,
        if repeat.digest == outcome.digest {
            "bit-identical — replayable"
        } else {
            "MISMATCH"
        }
    );

    // ---- part 2: a live daemon restart under a TCP client ----------------
    println!("\nlive: 2 daemons, TCP client, restart daemon 0 mid-session");
    let net = LoopbackNet::new();
    let members: Vec<ParticipantId> = (0..2).map(ParticipantId::new).collect();
    let ring = accelerated_ring::core::RingId::new(members[0], 1);
    let mk = |p: ParticipantId| {
        Participant::new(p, ProtocolConfig::accelerated(), ring, members.clone()).unwrap()
    };
    let d0 = spawn_daemon(mk(members[0]), net.endpoint(members[0]));
    let d1 = spawn_daemon(mk(members[1]), net.endpoint(members[1]));
    let listen_on = |addr: std::net::SocketAddr| SvcListeners {
        tcp: Some(addr),
        uds: None,
    };
    let any = "127.0.0.1:0".parse().unwrap();
    let l0 = serve_clients(&d0, listen_on(any), SvcConfig::default()).unwrap();
    let addr0 = l0.tcp_addr().unwrap();

    let mut alice = SvcClient::connect_tcp(addr0, "alice").unwrap();
    alice.join("room").unwrap();
    wait(|| {
        alice
            .drain()
            .iter()
            .any(|ev| matches!(ev, SvcEvent::Membership { members, .. } if members.len() == 1))
    });
    println!("  alice joined 'room' via {addr0}");

    // A crash as the client sees it: the link dies without a Goodbye
    // or an Evicted notice, then the listener and the daemon go away.
    alice.sever();
    drop(l0);
    d0.shutdown().unwrap();
    net.detach(members[0]);
    println!("  daemon 0 killed (link severed, listener dropped)");

    let d0b = spawn_daemon(
        Participant::new_singleton(members[0], ProtocolConfig::accelerated()).unwrap(),
        net.endpoint(members[0]),
    );
    let l0b = serve_clients(&d0b, listen_on(addr0), SvcConfig::default()).unwrap();
    println!("  daemon 0 restarted on the same port as a fresh singleton");

    wait(|| {
        let _ = alice.try_publish(
            &["room"],
            ServiceType::Agreed,
            bytes::Bytes::from_static(b"hi"),
        );
        alice
            .drain()
            .iter()
            .any(|ev| matches!(ev, SvcEvent::Membership { members, .. } if members.len() == 1))
    });
    println!(
        "  alice is back in 'room' (fresh session, group re-joined) after {} reconnect(s)",
        alice.reconnects()
    );

    drop(alice);
    drop(l0b);
    d0b.shutdown().unwrap();
    d1.shutdown().unwrap();
    println!("  clean shutdown");
}

fn run_plan(plan: &NemesisPlan, seed: u64) -> accelerated_ring::net::NemesisOutcome {
    let mut r = NemesisRunner::new(5, ProtocolConfig::accelerated(), plan.clone(), 0.05, seed);
    for i in 0..5 {
        for k in 0..3 {
            r.submit(i, format!("h{i}-m{k}").as_bytes(), ServiceType::Agreed);
        }
    }
    r.submit_at(
        Duration::from_millis(350),
        0,
        b"probe-a",
        ServiceType::Agreed,
    );
    r.submit_at(
        Duration::from_millis(350),
        3,
        b"probe-b",
        ServiceType::Agreed,
    );
    r.start();
    r.run(Duration::from_secs(30))
}

fn wait<F: FnMut() -> bool>(mut f: F) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if f() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("demo step timed out");
}
