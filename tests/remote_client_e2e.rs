//! End-to-end test of remote (TCP) clients: two daemons on loopback
//! transports, each serving the client protocol on a real TCP socket.

use std::time::{Duration, Instant};

use accelerated_ring::core::{Participant, ParticipantId, ProtocolConfig, RingId, ServiceType};
use accelerated_ring::daemon::{spawn_daemon, MemberId};
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

#[test]
fn tcp_clients_join_and_exchange_ordered_messages() {
    let net = LoopbackNet::new();
    let members: Vec<ParticipantId> = (0..2).map(ParticipantId::new).collect();
    let ring_id = RingId::new(members[0], 1);
    let daemons: Vec<_> = members
        .iter()
        .map(|&p| {
            let part = Participant::new(p, ProtocolConfig::accelerated(), ring_id, members.clone())
                .unwrap();
            spawn_daemon(part, net.endpoint(p))
        })
        .collect();
    // Listen on OS-assigned ports.
    let any = SvcListeners {
        tcp: Some("127.0.0.1:0".parse().unwrap()),
        uds: None,
    };
    let l0 = serve_clients(&daemons[0], any.clone(), SvcConfig::default()).expect("listen d0");
    let l1 = serve_clients(&daemons[1], any, SvcConfig::default()).expect("listen d1");
    let addr0 = l0.tcp_addr().unwrap();

    let mut alice = SvcClient::connect_tcp(addr0, "alice").expect("connect alice");
    let mut bob = SvcClient::connect_tcp(l1.tcp_addr().unwrap(), "bob").expect("connect bob");
    assert_eq!(alice.daemon(), 0);
    assert_eq!(bob.daemon(), 1);

    alice.join("room").unwrap();
    bob.join("room").unwrap();
    // Both see a 2-member group.
    let mut room = Vec::new();
    assert!(
        wait_for(
            || {
                for ev in alice.drain() {
                    if let SvcEvent::Membership { members, .. } = ev {
                        room = members;
                    }
                }
                room.len() == 2
            },
            20
        ),
        "membership over TCP"
    );
    assert!(room.contains(&MemberId::new(members[0], "alice")));
    assert!(room.contains(&MemberId::new(members[1], "bob")));

    bob.publish(
        &["room"],
        ServiceType::Agreed,
        Bytes::from_static(b"over-tcp"),
        Duration::from_secs(20),
    )
    .unwrap();
    let mut got = None;
    assert!(wait_for(
        || {
            for ev in alice.drain() {
                if let SvcEvent::Deliver {
                    payload, sender, ..
                } = ev
                {
                    got = Some((payload, sender));
                }
            }
            got.is_some()
        },
        20
    ));
    let (payload, sender) = got.unwrap();
    assert_eq!(payload, Bytes::from_static(b"over-tcp"));
    assert_eq!(sender.client, "bob");

    // Duplicate names are refused at connect time.
    let err = SvcClient::connect_tcp(addr0, "alice").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);

    // Disconnecting a client leaves its groups (watcher sees a
    // 1-member group).
    drop(bob);
    let mut n = usize::MAX;
    assert!(
        wait_for(
            || {
                for ev in alice.drain() {
                    if let SvcEvent::Membership { members, .. } = ev {
                        n = members.len();
                    }
                }
                n == 1
            },
            20
        ),
        "tcp disconnect leaves groups"
    );

    drop(alice);
    l0.shutdown().expect("clean shutdown");
    l1.shutdown().expect("clean shutdown");
    for d in daemons {
        d.shutdown().expect("clean shutdown");
    }
}
