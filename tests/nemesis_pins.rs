//! Pinned nemesis traces: five seeded scenarios whose trace digest and
//! per-host flight-recorder digests are fixed constants.
//!
//! `digests_are_bit_identical_across_repeats` only proves a run equals
//! itself. These pins prove a refactor of the harness (routing, timer
//! bookkeeping, event order, the loss RNG's draw order) leaves every
//! trace exactly as it was. A protocol change that alters behaviour on
//! purpose re-records the constants and says so.

use std::time::Duration;

use accelerated_ring::core::{AdaptiveConfig, FlapDampingConfig, ProtocolConfig, ServiceType};
use accelerated_ring::log::FsyncPolicy;
use accelerated_ring::net::{NemesisOutcome, NemesisPlan, NemesisRunner};

use ServiceType::{Agreed, Safe};

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

/// `n` hosts on a ring losing `loss` of all copies, each submitting
/// `per_host` payloads of `service` before the start.
fn runner(
    n: u16,
    plan: NemesisPlan,
    loss: f64,
    seed: u64,
    per_host: usize,
    service: ServiceType,
) -> NemesisRunner {
    let mut r = NemesisRunner::new(n, ProtocolConfig::accelerated(), plan, loss, seed);
    for i in 0..n as usize {
        for k in 0..per_host {
            r.submit(i, format!("h{i}-m{k}").as_bytes(), service);
        }
    }
    r
}

/// Runs `r` until `limit` and asserts its oracles stayed green and its
/// trace equals `pins`: the digest, then each host's flight digest.
fn pinned(name: &str, mut r: NemesisRunner, limit: Duration, pins: &[u64]) -> NemesisOutcome {
    r.start();
    let out = r.run(limit);
    let oracles = [
        &out.evs_violations,
        &out.token_violations,
        &out.split_violations,
        &out.durability_violations,
    ];
    assert!(oracles.iter().all(|v| v.is_empty()), "{name}: {oracles:#?}");
    assert_eq!(
        (out.digest, out.flight_digests.as_slice()),
        (pins[0], &pins[1..]),
        "{name}: the trace moved: digest {:#018x}, flights {:#018x?}",
        out.digest,
        out.flight_digests
    );
    out
}

#[test]
fn fault_free_run_with_loss_is_pinned() {
    let mut r = runner(4, NemesisPlan::none(), 0.05, 101, 4, Agreed);
    r.submit_at(ms(40), 2, b"late", Safe);
    let pins = [
        0x9ff94202cf45228e,
        0x06aa28d505d63919,
        0xc69c520ba6b0f922,
        0xe48e30185ad6a0e3,
        0x6b479a968bffcba8,
    ];
    assert!(pinned("fault-free", r, ms(10_000), &pins).converged);
}

#[test]
fn crash_and_restart_is_pinned() {
    let plan = NemesisPlan::none().crash(ms(20), 1).restart(ms(300), 1);
    let mut r = runner(3, plan, 0.02, 102, 3, Agreed);
    r.submit_at(ms(350), 0, b"post-restart", Agreed);
    let pins = [
        0xdd5632cc3de03d6f,
        0x9e5fc63b6bf81b5e,
        0x3c643036b8d50b42,
        0xc03ee4e903a8b7b0,
    ];
    assert!(pinned("crash+restart", r, ms(30_000), &pins).converged);
}

#[test]
fn partition_and_heal_is_pinned() {
    let plan = NemesisPlan::none()
        .partition(ms(30), vec![0, 0, 1, 1, 1])
        .heal(ms(400));
    let mut r = runner(5, plan, 0.03, 103, 2, Agreed);
    r.submit_at(ms(450), 0, b"probe-a", Agreed);
    r.submit_at(ms(450), 4, b"probe-b", Agreed);
    let pins = [
        0xe573de1821fe2b8f,
        0x55e2c60dd402443c,
        0xcb96112009c57d49,
        0x3fa846979d5d6673,
        0x53b7275468d5f20c,
        0x9f2e76da44e5e382,
    ];
    assert!(pinned("partition+heal", r, ms(30_000), &pins).converged);
}

#[test]
fn durable_crash_and_restart_is_pinned() {
    let dir = std::env::temp_dir().join(format!("ar-nemesis-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = NemesisPlan::none().crash(ms(40), 2).restart(ms(300), 2);
    let mut r = runner(3, plan, 0.01, 104, 4, Safe);
    r.enable_durable_logs(&dir, FsyncPolicy::EveryN(4), true);
    r.submit_at(ms(350), 0, b"post-restart", Safe);
    let pins = [
        0x51d6d3318235b9de,
        0xea29a6bdfdf7c6d9,
        0xb2bcbc692960de1a,
        0x74ece018041c0f63,
    ];
    let out = pinned("durable crash+restart", r, ms(30_000), &pins);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(out.converged && out.recovered_records.iter().all(|&n| n > 0));
}

/// Flap damping plus rotation-fed adaptive timeouts, with host 3
/// behind a link that flaps between 97 % loss and clean. The flapper
/// may end quarantined outside the majority's ring, so convergence is
/// not demanded; the oracles still are.
#[test]
fn adaptive_flap_damping_is_pinned() {
    let damping = FlapDampingConfig {
        enabled: true,
        penalty_per_flap: 1000,
        suppress_threshold: 2500,
        reuse_threshold: 1000,
        half_life_rounds: 1 << 20,
        max_penalty: 8000,
    };
    let cfg = ProtocolConfig::accelerated().with_flap_damping(damping);
    let mut r = NemesisRunner::new(4, cfg, NemesisPlan::none(), 0.0, 105);
    r.enable_adaptive(AdaptiveConfig::default());
    for c in 0..3u64 {
        r.schedule_host_loss(ms(400 * c + 100), 3, 0.97);
        r.schedule_host_loss(ms(400 * c + 300), 3, 0.0);
    }
    for k in 0..40u64 {
        let at = ms(30 * k + 5);
        r.submit_at(at, 0, format!("stable-{k}").as_bytes(), Agreed);
        r.submit_at(at, 3, format!("flappy-{k}").as_bytes(), Safe);
    }
    let pins = [
        0x3018bb8cc5969033,
        0x99218c51c89b77bb,
        0x9260859b46bd6842,
        0x67dc13f863052947,
        0xbe053246554d6992,
    ];
    pinned("adaptive flap damping", r, ms(2_000), &pins);
}
