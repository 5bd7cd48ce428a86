//! End-to-end test of remote-client recovery: a TCP client survives
//! its daemon dying and restarting on the same port. The client
//! redials with bounded exponential backoff and presents its resume
//! token; the restarted daemon has never heard of the session, so the
//! client falls back to a fresh one and re-joins its groups; the
//! restarted daemon (a fresh singleton incarnation) merges back into
//! the ring through the membership protocol.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use accelerated_ring::core::{Participant, ParticipantId, ProtocolConfig, RingId, ServiceType};
use accelerated_ring::daemon::{spawn_daemon, spawn_daemon_with, DaemonConfig, DaemonLogConfig};
use accelerated_ring::log::{read_log_dir, FsyncPolicy};
use accelerated_ring::net::LoopbackNet;
use accelerated_ring::svc::{serve_clients, SvcClient, SvcConfig, SvcEvent, SvcListeners};
use bytes::Bytes;

fn wait_for<F: FnMut() -> bool>(mut f: F, secs: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// Drains `c`, returning the latest group size it reported (if any).
fn latest_members(c: &mut SvcClient) -> Option<usize> {
    c.drain()
        .into_iter()
        .filter_map(|ev| match ev {
            SvcEvent::Membership { members, .. } => Some(members.len()),
            _ => None,
        })
        .last()
}

#[test]
fn tcp_client_survives_daemon_restart() {
    restart_roundtrip(false);
}

/// Same scenario with the restarted daemon journalling to a durable
/// log across both incarnations: recovery replays the first
/// incarnation's stream and the merged ring still re-forms.
#[test]
fn tcp_client_survives_durable_daemon_restart() {
    restart_roundtrip(true);
}

fn restart_roundtrip(durable: bool) {
    let log_dir = std::env::temp_dir().join(format!(
        "ar-remote-restart-{}-{durable}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&log_dir);
    let d0_config = || {
        let mut config = DaemonConfig::default();
        if durable {
            config.log = Some(DaemonLogConfig::new(&log_dir).with_fsync(FsyncPolicy::EveryN(8)));
        }
        config
    };
    let net = LoopbackNet::new();
    let members: Vec<ParticipantId> = (0..2).map(ParticipantId::new).collect();
    let ring_id = RingId::new(members[0], 1);
    let mk = |p: ParticipantId| {
        Participant::new(p, ProtocolConfig::accelerated(), ring_id, members.clone()).unwrap()
    };
    let d0 = spawn_daemon_with(mk(members[0]), net.endpoint(members[0]), d0_config());
    let d1 = spawn_daemon(mk(members[1]), net.endpoint(members[1]));
    let listen_on = |addr: SocketAddr| SvcListeners {
        tcp: Some(addr),
        uds: None,
    };
    let any: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let l0 = serve_clients(&d0, listen_on(any), SvcConfig::default()).expect("listen d0");
    let l1 = serve_clients(&d1, listen_on(any), SvcConfig::default()).expect("listen d1");
    let addr0 = l0.tcp_addr().unwrap();

    let mut alice = SvcClient::connect_tcp(addr0, "alice").expect("connect alice");
    let mut bob = SvcClient::connect_tcp(l1.tcp_addr().unwrap(), "bob").expect("connect bob");
    alice.join("room").unwrap();
    bob.join("room").unwrap();
    let (mut na, mut nb) = (0, 0);
    assert!(
        wait_for(
            || {
                na = latest_members(&mut alice).unwrap_or(na);
                nb = latest_members(&mut bob).unwrap_or(nb);
                na == 2 && nb == 2
            },
            20
        ),
        "initial 2-member group"
    );

    // Kill alice's daemon. An in-process daemon cannot be SIGKILLed,
    // so the crash is modelled as its clients see one: the link dies
    // with no Goodbye and no Evicted notice (`sever`), then the
    // listener and the daemon go away and the surviving daemon
    // reconfigures. (`session_resume_e2e` and `durable_restart_e2e`
    // SIGKILL real `ard` processes.)
    alice.sever();
    l0.shutdown().expect("clean shutdown");
    d0.shutdown().expect("clean shutdown");
    net.detach(members[0]);

    // The surviving side sees alice leave when its daemon installs the
    // shrunken configuration.
    let mut n = usize::MAX;
    assert!(
        wait_for(
            || {
                n = latest_members(&mut bob).unwrap_or(n);
                n == 1
            },
            20
        ),
        "surviving daemon drops the dead daemon's client"
    );

    // Restart on the same port as a fresh singleton incarnation; the
    // membership protocol merges it back into the ring once traffic
    // flows.
    let part = Participant::new_singleton(members[0], ProtocolConfig::accelerated()).unwrap();
    let d0b = spawn_daemon_with(part, net.endpoint(members[0]), d0_config());
    let l0b = serve_clients(&d0b, listen_on(addr0), SvcConfig::default())
        .expect("re-listen on the same port");
    assert_eq!(l0b.tcp_addr(), Some(addr0));

    // Alice's next operation notices the dead link, redials, is told
    // the session is gone, and re-joins "room" in a fresh one; the
    // join travels the merged ring, so eventually both sides see a
    // 2-member group again.
    let mut n = 0;
    let mut fresh_session = false;
    assert!(
        wait_for(
            || {
                // Poke until the socket is re-established and the ring
                // re-merges (the first poke fails with the reset).
                let _ = alice.try_publish(
                    &["room"],
                    ServiceType::Agreed,
                    Bytes::from_static(b"are-you-there"),
                );
                for ev in alice.drain() {
                    if ev == (SvcEvent::Reconnected { resumed: false }) {
                        fresh_session = true;
                    }
                }
                n = latest_members(&mut bob).unwrap_or(n);
                n == 2
            },
            30
        ),
        "group re-forms after daemon restart"
    );
    assert!(alice.reconnects() >= 1, "client redialled");
    assert!(fresh_session, "restarted daemon cannot resume the session");
    assert!(alice.evicted_reason().is_none(), "client survived");

    // Traffic flows end-to-end in both directions again.
    bob.publish(
        &["room"],
        ServiceType::Agreed,
        Bytes::from_static(b"wb"),
        Duration::from_secs(20),
    )
    .unwrap();
    let mut got = false;
    assert!(
        wait_for(
            || {
                for ev in alice.drain() {
                    if let SvcEvent::Deliver {
                        payload, sender, ..
                    } = ev
                    {
                        if payload == Bytes::from_static(b"wb") {
                            assert_eq!(sender.client, "bob");
                            got = true;
                        }
                    }
                }
                got
            },
            20
        ),
        "post-restart delivery to the reconnected client"
    );

    drop(alice);
    drop(bob);
    l0b.shutdown().expect("clean shutdown");
    l1.shutdown().expect("clean shutdown");
    d0b.shutdown().expect("clean shutdown");
    d1.shutdown().expect("clean shutdown");

    if durable {
        // Both incarnations journalled into the same directory; the
        // drained shutdowns left a synced log with the post-restart
        // traffic on disk.
        let rec = read_log_dir(&log_dir).expect("scan durable log");
        assert!(rec.records > 0, "durable log holds records");
        // Client payloads are journalled in their daemon envelope, so
        // look for the payload bytes inside the framed record.
        assert!(
            rec.deliveries
                .iter()
                .any(|(_, d)| d.payload.windows(2).any(|w| w == b"wb")),
            "post-restart delivery reached the disk"
        );
        std::fs::remove_dir_all(&log_dir).unwrap();
    }
}
