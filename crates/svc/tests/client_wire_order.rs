//! What a [`SvcClient`] puts on the wire, decoded by a stand-in tier:
//! a plain `TcpListener` that answers each Hello with a Welcome and
//! reads everything after it.
//!
//! * frames arrive in call order, whichever call sent them (publishes
//!   queue until a pump or flush; join, leave, ack and raw sends go
//!   out at once behind them);
//! * a peer that stops reading backs the client's queue up without
//!   blocking any call, and once it reads again every frame arrives
//!   whole and in order;
//! * auto-acks queued behind a backed-up socket coalesce: the peer
//!   reads one `Ack`, carrying the highest delivery seq;
//! * after a resume the client re-sends each ungranted publish once:
//!   the ones already written first, then the ones still queued.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ar_core::{ParticipantId, ServiceType};
use ar_daemon::MemberId;
use ar_svc::wire::{decode_client, encode_client, frame, frame_server, FrameBuf};
use ar_svc::{ClientFrame, ServerFrame, SvcClient, SvcEvent, PROTOCOL_VERSION};
use bytes::Bytes;

const DEADLINE: Duration = Duration::from_secs(30);

/// The tier's end of one client connection.
struct Peer {
    sock: TcpStream,
    rbuf: FrameBuf,
}

impl Peer {
    /// Accepts a connection and answers its Hello with a Welcome.
    fn accept(listener: &TcpListener, credits: u32, resumed: bool) -> (Peer, ClientFrame) {
        let (sock, _) = listener.accept().expect("accept");
        sock.set_read_timeout(Some(DEADLINE)).unwrap();
        let mut peer = Peer {
            sock,
            rbuf: FrameBuf::new(),
        };
        let hello = peer.next().expect("hello");
        peer.send(&ServerFrame::Welcome {
            version: PROTOCOL_VERSION,
            daemon: 0,
            rings: 1,
            publish_credits: credits,
            delivery_window: 64,
            session: 7,
            epoch: 1 + u64::from(resumed),
            resumed,
            retained_lo: 1,
            retained_hi: 0,
        });
        (peer, hello)
    }

    /// The next frame the client sent; `None` once it closed.
    fn next(&mut self) -> Option<ClientFrame> {
        loop {
            if let Some(f) = self.rbuf.next_frame().expect("framing") {
                return Some(decode_client(&f).expect("client frame"));
            }
            let mut chunk = [0u8; 64 * 1024];
            match self.sock.read(&mut chunk).expect("read") {
                0 => return None,
                n => self.rbuf.extend(&chunk[..n]),
            }
        }
    }

    fn send(&mut self, f: &ServerFrame) {
        self.sock.write_all(&frame_server(f).unwrap()).unwrap();
    }
}

fn listen() -> (TcpListener, std::net::SocketAddr) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    (listener, addr)
}

/// A tier that reads one connection to its end.
fn read_all(listener: TcpListener, credits: u32) -> JoinHandle<Vec<ClientFrame>> {
    std::thread::spawn(move || {
        let (mut peer, hello) = Peer::accept(&listener, credits, false);
        let mut got = vec![hello];
        while let Some(f) = peer.next() {
            got.push(f);
        }
        got
    })
}

fn publish(id: u64, payload: Bytes) -> ClientFrame {
    ClientFrame::Publish {
        id,
        service: ServiceType::Agreed,
        groups: vec!["a".into()],
        payload,
    }
}

fn join(group: &str) -> ClientFrame {
    ClientFrame::JoinGroup {
        group: group.into(),
    }
}

#[test]
fn frames_reach_the_wire_in_call_order() {
    let (listener, addr) = listen();
    let tier = read_all(listener, 16);
    let mut client = SvcClient::connect_tcp(addr, "order").expect("connect");
    client.set_auto_ack(false);
    let body = |k: u64| Bytes::from(format!("p{k}"));
    let mut k = 0;
    let mut publish_next = |c: &mut SvcClient| {
        k += 1;
        let id = c
            .try_publish(&["a"], ServiceType::Agreed, body(k))
            .expect("publish within credits");
        assert_eq!(id, k);
        publish(k, body(k))
    };

    let mut want = vec![ClientFrame::Hello {
        version: PROTOCOL_VERSION,
        name: "order".into(),
        resume: None,
    }];
    client.join("a").expect("join");
    want.push(join("a"));
    for _ in 0..3 {
        want.push(publish_next(&mut client));
    }
    client.pump().expect("pump");
    client.ack(5).expect("ack");
    want.push(ClientFrame::Ack { through: 5 });
    want.push(publish_next(&mut client));
    client
        .send_raw(&frame(&encode_client(&join("raw"))))
        .expect("raw");
    want.push(join("raw"));
    want.push(publish_next(&mut client));
    want.push(publish_next(&mut client));
    client.leave("a").expect("leave");
    want.push(ClientFrame::LeaveGroup { group: "a".into() });
    want.push(publish_next(&mut client));
    client.flush();
    want.push(publish_next(&mut client));
    assert!(client.queued_bytes() > 0, "try_publish wrote to the socket");
    drop(client);
    want.push(ClientFrame::Goodbye);

    assert_eq!(tier.join().expect("tier"), want);
}

#[test]
fn a_backed_up_queue_arrives_whole_and_in_order() {
    const N: u64 = 64;
    // 16 MiB: more than a loopback connection's socket buffers hold.
    const PAYLOAD: usize = 256 * 1024;
    let (listener, addr) = listen();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let decoded = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&decoded);
    let tier = std::thread::spawn(move || {
        let (mut peer, _) = Peer::accept(&listener, N as u32, false);
        go_rx.recv().unwrap();
        let mut got = Vec::new();
        while let Some(f) = peer.next() {
            got.push(f);
            count.fetch_add(1, Ordering::SeqCst);
        }
        got
    });

    let mut client = SvcClient::connect_tcp(addr, "backlog").expect("connect");
    client.set_auto_ack(false);
    let mut want = Vec::new();
    let started = Instant::now();
    for id in 1..=N {
        let payload = Bytes::from(vec![id as u8; PAYLOAD]);
        assert_eq!(
            client
                .try_publish(&["a"], ServiceType::Agreed, payload.clone())
                .expect("publish"),
            id
        );
        want.push(publish(id, payload));
        // Every call that writes, while nobody reads: none may block.
        match id % 16 {
            4 => client.flush(),
            8 => {
                client.pump().expect("pump");
            }
            12 => {
                client.ack(id).expect("ack");
                want.push(ClientFrame::Ack { through: id });
            }
            0 => {
                client
                    .send_raw(&frame(&encode_client(&join("raw"))))
                    .expect("raw");
                want.push(join("raw"));
            }
            _ => {}
        }
    }
    client.flush();
    assert!(
        started.elapsed() < DEADLINE,
        "a write blocked on the full socket"
    );
    let backlog = client.queued_bytes();
    assert!(backlog > 0, "the socket never pushed back");
    eprintln!("queued behind a full socket: {backlog} bytes");

    go_tx.send(()).unwrap();
    let deadline = Instant::now() + DEADLINE;
    while decoded.load(Ordering::SeqCst) < want.len() {
        assert!(Instant::now() < deadline, "the backlog never drained");
        client.flush();
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(client.queued_bytes(), 0);
    drop(client);
    want.push(ClientFrame::Goodbye);
    assert_eq!(tier.join().expect("tier"), want);
}

#[test]
fn auto_acks_behind_a_backed_up_socket_coalesce_into_one() {
    const PUBLISHES: u64 = 64;
    // 16 MiB of publishes: more than a loopback connection's socket
    // buffers hold, so every later frame waits behind them.
    const PAYLOAD: usize = 256 * 1024;
    const ROUNDS: u64 = 4;
    const PER_ROUND: u64 = 3;
    let (listener, addr) = listen();
    let (round_tx, round_rx) = mpsc::channel::<Option<u64>>();
    let tier = std::thread::spawn(move || {
        let (mut peer, _) = Peer::accept(&listener, PUBLISHES as u32, false);
        // Deliveries only, never a read, until told to read.
        while let Some(round) = round_rx.recv().unwrap() {
            for seq in round * PER_ROUND + 1..=(round + 1) * PER_ROUND {
                peer.send(&ServerFrame::Deliver {
                    seq,
                    ring_seq: seq,
                    shard: 0,
                    service: ServiceType::Agreed,
                    sender: MemberId::new(ParticipantId::new(0), "other"),
                    groups: vec!["a".into()],
                    payload: Bytes::from_static(b"d"),
                });
            }
        }
        let mut got = Vec::new();
        while let Some(f) = peer.next() {
            got.push(f);
        }
        got
    });

    let mut client = SvcClient::connect_tcp(addr, "acks").expect("connect");
    for _ in 0..PUBLISHES {
        client
            .try_publish(&["a"], ServiceType::Agreed, Bytes::from(vec![0; PAYLOAD]))
            .expect("publish within credits");
    }
    client.flush();
    assert!(client.queued_bytes() > 0, "the socket never pushed back");
    // Each round's pump consumes new deliveries, so each owes an ack.
    let deadline = Instant::now() + DEADLINE;
    for round in 0..ROUNDS {
        round_tx.send(Some(round)).unwrap();
        let mut seen = 0;
        while seen < PER_ROUND {
            assert!(
                Instant::now() < deadline,
                "round {round}: {seen} deliveries"
            );
            if let Some(SvcEvent::Deliver { .. }) = client.recv(Duration::from_millis(10)) {
                seen += 1;
            }
        }
        client.pump().expect("pump");
    }

    round_tx.send(None).unwrap();
    while client.queued_bytes() > 0 {
        assert!(Instant::now() < deadline, "the backlog never drained");
        client.flush();
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(client);
    let acks: Vec<ClientFrame> = tier
        .join()
        .expect("tier")
        .into_iter()
        .filter(|f| matches!(f, ClientFrame::Ack { .. }))
        .collect();
    assert_eq!(
        acks,
        vec![ClientFrame::Ack {
            through: ROUNDS * PER_ROUND
        }]
    );
}

#[test]
fn a_resume_resends_written_then_queued_publishes_once() {
    let (listener, addr) = listen();
    let tier = std::thread::spawn(move || {
        let (mut first, _) = Peer::accept(&listener, 8, false);
        let sent: Vec<ClientFrame> = (0..2).map(|_| first.next().unwrap()).collect();
        first.send(&ServerFrame::CreditGrant {
            acked_id: 1,
            credits: 1,
        });
        let (mut second, hello) = Peer::accept(&listener, 8, true);
        let resent: Vec<ClientFrame> = (0..3).map(|_| second.next().unwrap()).collect();
        (sent, hello, resent)
    });

    let mut client = SvcClient::connect_tcp(addr, "resume").expect("connect");
    let body = |k: u64| Bytes::from(format!("m{k}"));
    for k in 1..=2 {
        client
            .try_publish(&["a"], ServiceType::Agreed, body(k))
            .unwrap();
    }
    client.flush();
    let deadline = Instant::now() + DEADLINE;
    while client.recv(Duration::from_millis(10)) != Some(SvcEvent::PublishOrdered { id: 1 }) {
        assert!(Instant::now() < deadline, "no grant for publish 1");
    }
    for k in 3..=4 {
        client
            .try_publish(&["a"], ServiceType::Agreed, body(k))
            .unwrap();
    }
    // Publish 2 is written and ungranted, 3 and 4 are queued; the flush
    // finds the socket dead and resumes.
    client.sever();
    client.flush();
    assert_eq!(client.reconnects(), 1);

    let (sent, hello, resent) = tier.join().expect("tier");
    assert_eq!(sent, vec![publish(1, body(1)), publish(2, body(2))]);
    let ClientFrame::Hello {
        resume: Some(token),
        ..
    } = hello
    else {
        panic!("no resume token in {hello:?}");
    };
    assert_eq!(token.session, 7);
    assert_eq!(
        resent,
        vec![
            publish(2, body(2)),
            publish(3, body(3)),
            publish(4, body(4))
        ]
    );
}
