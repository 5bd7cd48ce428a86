//! Stall probe: one host stops handling anything for longer than the
//! token-loss timeout (50 ms), as a daemon starved of CPU under
//! overload does, while all three hosts keep submitting Agreed and Safe
//! messages over a 1 %-lossy network.
//!
//! Its peers hear silence and reconfigure; the stalled host then wakes
//! to a queue of stale traffic and due timers. Nothing may be lost
//! across that reconfiguration: every host ends on one ring, the
//! world's oracles and the durable-log checker stay green, and every
//! survivor delivers every payload virtual synchrony obliges it to.
//!
//! A 60 or 120 ms stall ends while the peers are still gathering, and
//! all three install the next ring together. A 200 ms stall outlasts
//! the gather: the peers install a ring without the stalled host and
//! order what they submit meanwhile there, and the stalled host never
//! delivers those messages, as EVS allows.

use std::collections::HashSet;
use std::time::Duration;

use accelerated_ring::core::{ParticipantId, ProtocolConfig, RingId, ServiceType};
use accelerated_ring::log::FsyncPolicy;
use accelerated_ring::net::{NemesisPlan, NemesisRunner};

use ServiceType::{Agreed, Safe};

const HOSTS: usize = 3;

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

/// The configuration `host` installed after `ring`: `None` if it never
/// installed `ring`, `Some(None)` if `ring` is its last.
fn next_after(r: &NemesisRunner, host: usize, ring: RingId) -> Option<Option<RingId>> {
    let initial = RingId::new(ParticipantId::new(0), 1);
    let ids: Vec<RingId> = std::iter::once(initial)
        .chain(r.configs[host].iter().map(|c| c.ring_id))
        .collect();
    let i = ids.iter().position(|&id| id == ring)?;
    Some(ids.get(i + 1).copied())
}

fn stalled_run(seed: u64, stall_ms: u64, durable: bool) {
    let what = format!("seed {seed}, stall {stall_ms} ms, durable {durable}");
    let cfg = ProtocolConfig::accelerated();
    let mut r = NemesisRunner::new(HOSTS as u16, cfg, NemesisPlan::none(), 0.01, seed);
    let dir = std::env::temp_dir().join(format!(
        "ar-nemesis-stall-{}-{seed}-{stall_ms}",
        std::process::id()
    ));
    if durable {
        let _ = std::fs::remove_dir_all(&dir);
        r.enable_durable_logs(&dir, FsyncPolicy::EveryN(8), true);
    }
    // One submission per host every 4 ms for 600 ms, alternating
    // Agreed and Safe.
    for k in 0..150u64 {
        for host in 0..HOSTS {
            let service = [Agreed, Safe][(k as usize + host) % 2];
            r.submit_at(
                ms(4 * k + 1),
                host,
                format!("h{host}-k{k}").as_bytes(),
                service,
            );
        }
    }
    // A Safe fence from every host long after the load: a host that
    // self-delivers its fence has delivered everything its ring ordered
    // before it, so the run cannot stop with a survivor a rotation
    // behind. The fences themselves are left out of the check.
    for host in 0..HOSTS {
        let fence = format!("fence-{host}");
        r.submit_at(ms(1_500), host, fence.as_bytes(), Safe);
    }
    r.schedule_stall(ms(150), 2, ms(stall_ms));
    r.start();
    let out = r.run(Duration::from_secs(30));
    if durable {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert!(r.configs[0].len() > 1, "{what}: no reconfiguration");
    out.assert_clean();
    // Virtual synchrony: what another host delivered in a configuration
    // that both installed and both left for the same next one (or both
    // still hold) is expected here too. A ring this host never
    // installed, such as the one its peers formed while it was stalled,
    // obliges it to nothing.
    for &host in &out.survivors {
        let have: HashSet<&[u8]> = r.logs[host].iter().map(|d| &d.payload[..]).collect();
        let missing: HashSet<String> = (0..HOSTS)
            .flat_map(|q| r.logs[q].iter().map(move |d| (q, d)))
            .filter(|(q, d)| next_after(&r, *q, d.ring_id) == next_after(&r, host, d.ring_id))
            .filter(|(_, d)| !d.payload.starts_with(b"fence") && !have.contains(&d.payload[..]))
            .map(|(_, d)| String::from_utf8_lossy(&d.payload).into_owned())
            .collect();
        assert!(
            missing.is_empty(),
            "{what}: host {host} never delivered {missing:?}\n{}",
            out.flight_tail(10)
        );
    }
}

#[test]
fn a_stalled_host_loses_nothing_across_the_reconfiguration() {
    for seed in 1..=8 {
        for stall_ms in [60, 120, 200] {
            for durable in [false, true] {
                stalled_run(seed, stall_ms, durable);
            }
        }
    }
}
