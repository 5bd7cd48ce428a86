//! Timed loops over each layer's public functions at a workload's
//! message shape: what one message costs a layer in CPU when nothing
//! waits. Run in the traced pass only, after the ring is gone, so
//! they have the cores to themselves.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use ar_core::wire::{self, Message};
use ar_core::{
    Action, DataMessage, Participant, ParticipantId, ProtocolConfig, RingId, Round, Seq,
};
use ar_daemon::packing::{decode_bundle, Packer, DEFAULT_BUNDLE_BUDGET};
use ar_daemon::MemberId;
use ar_log::{DeliveryRecord, FsyncPolicy, LogConfig, LogRecord, SegmentedLog};
use ar_net::{PeerMap, Transport, UdpTransport};
use ar_svc::wire::{decode_client, decode_server, encode_client, encode_server, frame};
use ar_svc::{ClientFrame, FlowConfig, FlowState, HoldBack, ServerFrame};
use bytes::{Bytes, BytesMut};

use crate::workload::Workload;

/// How long each driver measures.
const BUDGET: Duration = Duration::from_millis(120);
/// Envelope bytes the daemon wraps round a client payload.
const ENVELOPE: usize = 64;

/// Mean nanoseconds per call of `op`, which does `per_call` units of
/// work; runs for [`BUDGET`] after a short warm-up.
fn time_ns(per_call: u64, mut op: impl FnMut()) -> f64 {
    for _ in 0..16 {
        op();
    }
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < BUDGET {
        for _ in 0..16 {
            op();
        }
        calls += 16;
    }
    start.elapsed().as_nanos() as f64 / (calls * per_call) as f64
}

/// Every driver metric of one workload, by BENCHMARK.json name, with
/// its unit. The log drivers read 0 unless the workload has a log,
/// HoldBack's unless it has more than one ring: a change to either
/// must move nothing elsewhere.
pub fn run_all(
    wl: &Workload,
    scratch: &Path,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let payload = Bytes::from(vec![0x5au8; wl.payload]);
    let [encode_ns, decode_ns] = core_wire(wl);
    let (append_ns, sync_us) = if wl.durable {
        log_costs(wl, scratch).map_err(|e| format!("log driver: {e}"))?
    } else {
        (0.0, 0.0)
    };
    let holdback_ns = if wl.rings > 1 { holdback() } else { 0.0 };
    Ok(vec![
        (
            "svc.wire.publish_codec_ns",
            publish_codec(wl, &payload),
            "ns",
        ),
        (
            "svc.wire.deliver_codec_ns",
            deliver_codec(wl, &payload),
            "ns",
        ),
        ("svc.credit.cycle_ns", credit_cycle(), "ns"),
        ("svc.order.holdback_ns", holdback_ns, "ns"),
        (
            "daemon.packing.bundle_ns_per_msg",
            packing(wl, &payload),
            "ns",
        ),
        ("core.wire.encode_ns", encode_ns, "ns"),
        ("core.wire.decode_ns", decode_ns, "ns"),
        (
            "core.participant.round_ns_per_msg",
            participant_round(wl),
            "ns",
        ),
        ("net.udp.batch_ns_per_msg", udp_batch(wl)?, "ns"),
        ("log.append_ns", append_ns, "ns"),
        ("log.sync_us", sync_us, "us"),
    ])
}

fn publish_codec(wl: &Workload, payload: &Bytes) -> f64 {
    let req = ClientFrame::Publish {
        id: 7,
        service: wl.service,
        groups: vec![wl.room_name(0)],
        payload: payload.clone(),
    };
    time_ns(1, || {
        let framed = frame(&encode_client(black_box(&req)));
        black_box(decode_client(&framed[4..]).expect("round trip"));
    })
}

fn deliver_codec(wl: &Workload, payload: &Bytes) -> f64 {
    let msg = ServerFrame::Deliver {
        seq: 9,
        ring_seq: 1234,
        shard: 0,
        service: wl.service,
        sender: MemberId::new(ParticipantId::new(1), "c1"),
        groups: vec![wl.room_name(0)],
        payload: payload.clone(),
    };
    time_ns(1, || {
        let framed = frame(&encode_server(black_box(&msg)));
        black_box(decode_server(&framed[4..]).expect("round trip"));
    })
}

/// One publish through a session's flow state: credit consumed,
/// ordered and granted back; its delivery queued, sent and acked.
fn credit_cycle() -> f64 {
    let mut flow: FlowState<u64> = FlowState::new(FlowConfig::default());
    let mut id = 0u64;
    time_ns(1, || {
        id += 1;
        let stamp = flow.try_consume_credit(id, 1).expect("credit");
        black_box(flow.on_ordered(stamp, false));
        flow.queue_delivery(id).expect("room in pending");
        let sent = flow.next_sendable().expect("window open");
        flow.on_ack(sent.seq);
    })
}

/// One stamped delivery held and released against its publisher's
/// floor, over the 24 publishers `fanout_sharded` has.
fn holdback() -> f64 {
    let names: Vec<String> = (0..24).map(|c| format!("c{c}")).collect();
    let mut hold: HoldBack<u64> = HoldBack::new();
    let mut stamp = 0u64;
    time_ns(names.len() as u64, || {
        stamp += 1;
        for name in &names {
            hold.insert(name, stamp, stamp);
        }
        black_box(hold.release(|_| Some(stamp)));
    })
}

fn packing(wl: &Workload, payload: &Bytes) -> f64 {
    const BATCH: u64 = 32;
    let sender = MemberId::new(ParticipantId::new(0), "c0");
    let groups = vec![wl.room_name(0)];
    let mut packer = Packer::new(DEFAULT_BUNDLE_BUDGET);
    time_ns(BATCH, || {
        for i in 0..BATCH {
            packer.push_data(sender.clone(), groups.clone(), payload.clone(), i, i + 1);
        }
        while let Some(bundle) = packer.next_bundle() {
            black_box(decode_bundle(&bundle).expect("round trip"));
        }
    })
}

fn data_message(wl: &Workload) -> DataMessage {
    DataMessage {
        ring_id: RingId::new(ParticipantId::new(0), 1),
        seq: Seq::new(42),
        pid: ParticipantId::new(1),
        round: Round::new(3),
        service: wl.service,
        after_token: true,
        payload: Bytes::from(vec![0xa5u8; wl.payload + ENVELOPE]),
    }
}

/// Encode and decode of one data message.
fn core_wire(wl: &Workload) -> [f64; 2] {
    let msg = Message::Data(data_message(wl));
    let mut scratch = BytesMut::new();
    let encode = time_ns(1, || {
        black_box(wire::encode_to_scratch(black_box(&msg), &mut scratch));
    });
    let bytes = wire::encode(&msg);
    let decode = time_ns(1, || {
        black_box(wire::decode(black_box(&bytes)).expect("round trip"));
    });
    [encode, decode]
}

/// Three sans-io participants on an instant in-memory network: each
/// submits a message a round, and the loop runs every action until
/// all three have delivered everything. Per ordered message.
fn participant_round(wl: &Workload) -> f64 {
    const PER_ROUND: u64 = 8;
    let members: Vec<ParticipantId> = (0..3).map(ParticipantId::new).collect();
    let ring = RingId::new(members[0], 1);
    let mut parts: Vec<Participant> = members
        .iter()
        .map(|&m| {
            Participant::new(m, ProtocolConfig::accelerated(), ring, members.clone())
                .expect("valid ring")
        })
        .collect();
    let payload = Bytes::from(vec![0u8; wl.payload + ENVELOPE]);
    let mut inbox: std::collections::VecDeque<(usize, Message)> = Default::default();
    let mut delivered = 0u64;
    let run = |parts: &mut Vec<Participant>,
               from: usize,
               actions: Vec<Action>,
               inbox: &mut std::collections::VecDeque<(usize, Message)>,
               delivered: &mut u64| {
        for action in actions {
            match action {
                Action::SendToken { to, token } => {
                    inbox.push_back((usize::from(to.as_u16()), Message::Token(token)))
                }
                Action::Multicast(data) => {
                    for to in (0..parts.len()).filter(|&to| to != from) {
                        inbox.push_back((to, Message::Data(data.clone())));
                    }
                }
                Action::Deliver(_) => *delivered += 1,
                _ => {}
            }
        }
    };
    for i in 0..parts.len() {
        let actions = parts[i].start();
        run(&mut parts, i, actions, &mut inbox, &mut delivered);
    }
    let mut target = 0u64;
    time_ns(PER_ROUND * 3, || {
        for p in parts.iter_mut() {
            for _ in 0..PER_ROUND {
                p.submit(payload.clone(), wl.service)
                    .expect("queue has room");
            }
        }
        target += PER_ROUND * 3 * 3;
        while delivered < target {
            let (to, msg) = inbox.pop_front().expect("token keeps circulating");
            let actions = parts[to].handle_message(msg);
            run(&mut parts, to, actions, &mut inbox, &mut delivered);
        }
    })
}

/// One batch of data messages through two real UDP transports on
/// loopback: batched send on one side, batched receive on the other.
fn udp_batch(wl: &Workload) -> Result<f64, String> {
    const BATCH: usize = 16;
    let (a, b) = (ParticipantId::new(0), ParticipantId::new(1));
    let mut pair = None;
    for _ in 0..8 {
        let probe = std::net::UdpSocket::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let base = probe.local_addr().map_err(|e| e.to_string())?.port();
        drop(probe);
        let map = PeerMap::localhost(2, base);
        if map.len() < 2 {
            continue;
        }
        if let (Ok(ta), Ok(tb)) = (
            UdpTransport::bind(a, map.clone()),
            UdpTransport::bind(b, map),
        ) {
            pair = Some((ta, tb));
            break;
        }
    }
    let (mut tx, mut rx) = pair.ok_or("udp driver: no free port block")?;
    let msg = Message::Data(data_message(wl));
    let mut got = Vec::with_capacity(BATCH);
    let mut lost = 0u64;
    let ns = time_ns(BATCH as u64, || {
        tx.begin_batch();
        for _ in 0..BATCH {
            let _ = tx.send_to(b, &msg);
        }
        let _ = tx.end_batch();
        got.clear();
        let deadline = Instant::now() + Duration::from_millis(50);
        while got.len() < BATCH {
            let want = BATCH - got.len();
            let _ = rx.recv_batch(false, Duration::from_millis(5), want, &mut got);
            if Instant::now() > deadline {
                lost += 1;
                break;
            }
        }
        black_box(&got);
    });
    if lost > 0 {
        return Err(format!("udp driver: {lost} loopback batches came up short"));
    }
    Ok(ns)
}

/// Append cost without syncing, and the cost of one sync, on the
/// file system the ring's logs were on. Safe delivery waits for its
/// own record to be durable, so `durable_safe` syncs after every
/// append (`log.appends_per_sync` reads 1.1), not every 64th: the
/// sync driver does the same.
fn log_costs(wl: &Workload, scratch: &Path) -> std::io::Result<(f64, f64)> {
    let record = LogRecord::Delivery(DeliveryRecord {
        ring: RingId::new(ParticipantId::new(0), 1),
        seq: Seq::new(1),
        pid: ParticipantId::new(0),
        service: wl.service,
        payload: Bytes::from(vec![0u8; wl.payload + ENVELOPE]),
    });
    // A log each, so the first timed sync does not pay for everything
    // the append loop left unsynced.
    let fresh_log = || {
        let _ = std::fs::remove_dir_all(scratch);
        let cfg = LogConfig::new(scratch).with_fsync(FsyncPolicy::Never);
        SegmentedLog::open(cfg).map(|(log, _)| log)
    };
    let mut log = fresh_log()?;
    let mut failed = None;
    let append_ns = time_ns(1, || {
        if let Err(e) = log.append(&record) {
            failed = Some(e);
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    let mut log = fresh_log()?;
    let (mut sync_ns, mut syncs) = (0u128, 0u32);
    let start = Instant::now();
    while start.elapsed() < BUDGET * 2 {
        log.append(&record)?;
        let t = Instant::now();
        log.sync()?;
        sync_ns += t.elapsed().as_nanos();
        syncs += 1;
    }
    drop(log);
    let _ = std::fs::remove_dir_all(scratch);
    Ok((append_ns, sync_ns as f64 / f64::from(syncs) / 1e3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn sans_io_ring_orders_every_submitted_message() {
        // The driver's in-memory ring must reach its delivery target
        // (it panics if the token stops circulating).
        assert!(participant_round(&WORKLOADS[0]) > 0.0);
    }
}
