//! Property tests for the durable log: record codec round-trips
//! byte-exactly, recovery survives arbitrary tail truncation and bit
//! corruption without panicking or resurrecting records past the
//! first bad CRC, and the Safe-durability gate keeps its promises
//! through arbitrary delivery, view-change, step and crash schedules.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use accelerated_ring::core::{
    ConfigChange, ConfigChangeKind, Delivery, ParticipantId, RingId, Seq, ServiceType,
};
use accelerated_ring::log::{
    decode_record, encode_record, read_log_dir, DeliveryGate, DeliveryRecord, FsyncPolicy,
    LogConfig, LogRecord, Lsn, SegmentedLog,
};
use bytes::Bytes;
use proptest::prelude::*;

fn arb_pid() -> impl Strategy<Value = ParticipantId> {
    any::<u16>().prop_map(ParticipantId::new)
}

fn arb_ring_id() -> impl Strategy<Value = RingId> {
    (arb_pid(), any::<u64>()).prop_map(|(p, s)| RingId::new(p, s))
}

fn arb_service() -> impl Strategy<Value = ServiceType> {
    prop_oneof![
        Just(ServiceType::Reliable),
        Just(ServiceType::Fifo),
        Just(ServiceType::Causal),
        Just(ServiceType::Agreed),
        Just(ServiceType::Safe),
    ]
}

fn arb_delivery() -> impl Strategy<Value = DeliveryRecord> {
    (
        arb_ring_id(),
        any::<u64>(),
        arb_pid(),
        arb_service(),
        prop::collection::vec(any::<u8>(), 0..512),
    )
        .prop_map(|(ring, seq, pid, service, payload)| DeliveryRecord {
            ring,
            seq: Seq::new(seq),
            pid,
            service,
            payload: Bytes::from(payload),
        })
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        arb_delivery().prop_map(LogRecord::Delivery),
        (arb_ring_id(), any::<u64>()).prop_map(|(ring, seq)| LogRecord::Cursor {
            ring,
            seq: Seq::new(seq),
        }),
        (arb_ring_id(), prop::collection::vec(arb_pid(), 0..16))
            .prop_map(|(ring, members)| LogRecord::Ring { ring, members }),
    ]
}

/// A fresh scratch directory per proptest case.
fn scratch_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ar-log-props-{}-{n}", std::process::id()))
}

proptest! {
    /// encode → decode returns the same record and consumes exactly
    /// the bytes encode produced; re-encoding is byte-identical.
    #[test]
    fn record_roundtrip_is_byte_exact(rec in arb_record(), suffix in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut bytes = Vec::new();
        let written = encode_record(&rec, &mut bytes);
        prop_assert_eq!(written, bytes.len());

        // Decoding must not read past its own record even with junk after it.
        let mut framed = bytes.clone();
        framed.extend_from_slice(&suffix);
        let (decoded, consumed) = decode_record(&framed)
            .expect("well-formed record decodes")
            .expect("non-empty buffer yields a record");
        prop_assert_eq!(consumed, written);
        prop_assert_eq!(&decoded, &rec);

        let mut again = Vec::new();
        encode_record(&decoded, &mut again);
        prop_assert_eq!(again, bytes);
    }

    /// Truncating the log file anywhere never panics recovery, and
    /// recovery yields exactly the records wholly contained in the
    /// surviving bytes — a clean prefix, nothing resurrected.
    #[test]
    fn truncated_tail_recovers_clean_prefix(
        records in prop::collection::vec(arb_record(), 1..12),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = scratch_dir();
        let cfg = LogConfig::new(&dir)
            .with_fsync(FsyncPolicy::Always)
            .with_segment_bytes(1 << 20); // one segment: offsets are file offsets
        let (mut log, _) = SegmentedLog::open(cfg.clone()).unwrap();
        // Byte offset where each record ends.
        let mut ends = Vec::with_capacity(records.len());
        let mut off = 0usize;
        for rec in &records {
            let mut buf = Vec::new();
            off += encode_record(rec, &mut buf);
            ends.push(off);
            log.append(rec).unwrap();
        }
        drop(log);

        let seg = std::fs::read_dir(&dir).unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "log"))
            .expect("segment file exists");
        let cut = (off as f64 * cut_frac) as u64;
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let survivors = ends.iter().filter(|&&e| e as u64 <= cut).count();
        let recovered = read_log_dir(&dir).unwrap();
        prop_assert_eq!(recovered.records, survivors as u64);
        let (_, after) = SegmentedLog::open(cfg).unwrap();
        prop_assert_eq!(after.records, survivors as u64);
        // The surviving deliveries are exactly the original prefix's.
        let expect: Vec<&DeliveryRecord> = records[..survivors].iter()
            .filter_map(|r| match r { LogRecord::Delivery(d) => Some(d), _ => None })
            .collect();
        let got: Vec<&DeliveryRecord> = after.deliveries.iter().map(|(_, d)| d).collect();
        prop_assert_eq!(got, expect);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Flipping any single bit never panics recovery and never
    /// resurrects a record at or past the flipped byte: the recovered
    /// stream is a prefix of the original, intact up to the record the
    /// flip landed in.
    #[test]
    fn bit_flip_never_resurrects_past_first_bad_crc(
        records in prop::collection::vec(arb_record(), 1..12),
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let dir = scratch_dir();
        let cfg = LogConfig::new(&dir)
            .with_fsync(FsyncPolicy::Always)
            .with_segment_bytes(1 << 20);
        let (mut log, _) = SegmentedLog::open(cfg).unwrap();
        let mut ends = Vec::with_capacity(records.len());
        let mut off = 0usize;
        for rec in &records {
            let mut buf = Vec::new();
            off += encode_record(rec, &mut buf);
            ends.push(off);
            log.append(rec).unwrap();
        }
        drop(log);

        let seg = std::fs::read_dir(&dir).unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "log"))
            .expect("segment file exists");
        let mut bytes = std::fs::read(&seg).unwrap();
        let pos = ((bytes.len() - 1) as f64 * flip_frac) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&seg, &bytes).unwrap();

        // Records wholly before the flipped byte are untouched; the
        // record containing the flip and everything after must die.
        let intact = ends.iter().filter(|&&e| e <= pos).count();
        let recovered = read_log_dir(&dir).unwrap();
        prop_assert_eq!(recovered.records, intact as u64,
            "flip at byte {} (record ends {:?})", pos, ends);
        let expect: Vec<&DeliveryRecord> = records[..intact].iter()
            .filter_map(|r| match r { LogRecord::Delivery(d) => Some(d), _ => None })
            .collect();
        let got: Vec<&DeliveryRecord> = recovered.deliveries.iter().map(|(_, d)| d).collect();
        prop_assert_eq!(got, expect);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// One input of the Safe-durability gate's caller.
#[derive(Debug, Clone)]
enum GateOp {
    /// The protocol ordered a delivery of this service.
    Deliver(ServiceType),
    /// A configuration change of this kind is delivered.
    Config(ConfigChangeKind),
    /// The step ends, `advance_ms` after the previous one.
    EndStep { advance_ms: u64 },
    /// Clean shutdown flush.
    Flush,
    /// kill -9: the gate is dropped without a sync and the log
    /// reopened.
    Crash,
}

fn arb_gate_ops() -> impl Strategy<Value = Vec<GateOp>> {
    // Deliveries dominate, as they do on a ring; crashes are rare
    // enough that cursors get written between them.
    let op = (0u8..19, 0u64..4).prop_map(|(k, advance_ms)| match k {
        0..=5 => GateOp::Deliver(ServiceType::Agreed),
        6..=11 => GateOp::Deliver(ServiceType::Safe),
        12 => GateOp::Config(ConfigChangeKind::Transitional),
        13 => GateOp::Config(ConfigChangeKind::Regular),
        14..=16 => GateOp::EndStep { advance_ms },
        17 => GateOp::Flush,
        _ => GateOp::Crash,
    });
    prop::collection::vec(op, 1..300)
}

fn arb_fsync() -> impl Strategy<Value = FsyncPolicy> {
    prop_oneof![
        Just(FsyncPolicy::Always),
        (1u32..8).prop_map(FsyncPolicy::EveryN),
        (1u64..4).prop_map(FsyncPolicy::IntervalMs),
        Just(FsyncPolicy::Never),
    ]
}

/// Checks what one gate call surfaced against the gate's promises: in
/// delivery order (`surfaced` stays a prefix of `ordered`), and no
/// Safe delivery before its record is durable.
fn check_surfaced(
    gate: &DeliveryGate,
    out: &mut Vec<Delivery>,
    ordered: &[(Delivery, Lsn)],
    surfaced: &mut Vec<Delivery>,
) {
    for d in out.drain(..) {
        let (want, lsn) = &ordered[surfaced.len()];
        prop_assert_eq!(&d, want, "surfaced out of delivery order");
        if d.service == ServiceType::Safe {
            prop_assert!(
                *lsn <= gate.log().durable_lsn(),
                "Safe {:?} surfaced at lsn {:?} above durable {:?}",
                d.seq,
                lsn,
                gate.log().durable_lsn()
            );
        }
        surfaced.push(d);
    }
}

/// Reopens the log after a crash and checks the disk against
/// everything the gate ever surfaced.
fn reopen_and_check(
    cfg: &LogConfig,
    surfaced_ever: &HashMap<(RingId, Seq), Delivery>,
) -> SegmentedLog {
    let (log, recovered) = SegmentedLog::open(cfg.clone()).unwrap();
    let on_disk: HashSet<(RingId, Seq, &[u8])> = recovered
        .deliveries
        .iter()
        .map(|(_, r)| (r.ring, r.seq, r.payload.as_ref()))
        .collect();
    for d in surfaced_ever.values() {
        if d.service == ServiceType::Safe {
            prop_assert!(
                on_disk.contains(&(d.ring_id, d.seq, d.payload.as_ref())),
                "surfaced Safe {:?} lost by the crash",
                (d.ring_id, d.seq)
            );
        }
    }
    if let Some(cursor) = recovered.cursor {
        prop_assert!(
            surfaced_ever.contains_key(&cursor),
            "cursor {:?} names a delivery never surfaced",
            cursor
        );
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The Safe-durability gate under any schedule of Agreed and Safe
    /// deliveries, view changes, step ends, flushes and crashes, on
    /// any fsync policy: the surfaced order is the delivery order; no
    /// Safe delivery surfaces while its record is above the durable
    /// LSN; nothing is withheld after a view change or a step end; and
    /// after every crash the reopened log holds every surfaced Safe
    /// delivery and its cursor names only surfaced deliveries.
    #[test]
    fn delivery_gate_keeps_its_promises(ops in arb_gate_ops(), fsync in arb_fsync()) {
        let dir = scratch_dir();
        let cfg = LogConfig::new(&dir).with_fsync(fsync).with_segment_bytes(4096);
        let (log, _) = SegmentedLog::open(cfg.clone()).unwrap();
        let mut gate = DeliveryGate::new(log, true);
        let me = ParticipantId::new(0);
        let mut ring = RingId::new(me, 1);
        let mut seq = 0u64;
        let mut now = 0u64;
        // This incarnation's deliveries in order (with their LSNs), and
        // the prefix of them surfaced so far.
        let mut ordered: Vec<(Delivery, Lsn)> = Vec::new();
        let mut surfaced: Vec<Delivery> = Vec::new();
        let mut surfaced_ever: HashMap<(RingId, Seq), Delivery> = HashMap::new();
        let mut out = Vec::new();
        for op in ops.iter().chain(std::iter::once(&GateOp::Crash)) {
            match op {
                GateOp::Deliver(service) => {
                    seq += 1;
                    let d = Delivery {
                        ring_id: ring,
                        seq: Seq::new(seq),
                        pid: me,
                        service: *service,
                        payload: Bytes::from(format!("{}:{seq}", ring.ring_seq())),
                    };
                    gate.deliver(d.clone(), &mut out).unwrap();
                    ordered.push((d, gate.log().last_lsn()));
                }
                GateOp::Config(kind) => {
                    if *kind == ConfigChangeKind::Regular {
                        ring = RingId::new(me, ring.ring_seq() + 1);
                        seq = 0;
                    }
                    let c = ConfigChange { kind: *kind, ring_id: ring, members: vec![me] };
                    gate.config(&c, &mut out).unwrap();
                }
                GateOp::EndStep { advance_ms } => {
                    now += advance_ms * 1_000_000;
                    gate.end_step(now, &mut out).unwrap();
                }
                GateOp::Flush => gate.flush(&mut out).unwrap(),
                GateOp::Crash => {}
            }
            check_surfaced(&gate, &mut out, &ordered, &mut surfaced);
            if matches!(op, GateOp::Config(_) | GateOp::EndStep { .. } | GateOp::Flush) {
                prop_assert_eq!(gate.held_len(), 0, "withheld past {:?}", op);
            }
            if let GateOp::Crash = op {
                drop(gate);
                for d in surfaced.drain(..) {
                    surfaced_ever.insert((d.ring_id, d.seq), d);
                }
                ordered.clear();
                gate = DeliveryGate::new(reopen_and_check(&cfg, &surfaced_ever), true);
                // The restarted node rejoins on a new ring.
                ring = RingId::new(me, ring.ring_seq() + 1);
                seq = 0;
            }
        }
        drop(gate);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
