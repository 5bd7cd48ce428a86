//! Integration tests asserting the *shapes* of the paper's evaluation
//! on the simulator: who wins, in which regime, and by roughly what
//! kind of margin. These are the machine-checked versions of the claims
//! `EXPERIMENTS.md` documents.

use std::time::Duration;

use accelerated_ring::core::{FaultSchedule, ProtocolConfig, ServiceType, TimeoutConfig};
use accelerated_ring::sim::{
    run_ring, ImplProfile, LoadMode, NetworkConfig, RingSimConfig, SimDuration,
};

fn cfg(
    net: NetworkConfig,
    profile: ImplProfile,
    protocol: ProtocolConfig,
    service: ServiceType,
    payload: usize,
    load: LoadMode,
) -> RingSimConfig {
    RingSimConfig {
        n_hosts: 8,
        protocol,
        timeouts: TimeoutConfig::default(),
        net,
        profile,
        payload_bytes: payload,
        service,
        load,
        duration: SimDuration::from_millis(120),
        warmup: SimDuration::from_millis(60),
        seed: 7,
        faults: FaultSchedule::none(),
        verify_order: false,
    }
}

fn accel() -> ProtocolConfig {
    ProtocolConfig::accelerated()
}

fn orig() -> ProtocolConfig {
    ProtocolConfig::original()
}

#[test]
fn fig1_shape_accelerated_dominates_on_1g() {
    // At 700 Mbps on 1-gigabit, the accelerated protocol has (much)
    // lower Agreed latency than the original for every implementation.
    let load = LoadMode::OpenLoop {
        aggregate_bps: 700_000_000,
    };
    for profile in ImplProfile::all() {
        let o = run_ring(&cfg(
            NetworkConfig::gigabit(),
            profile,
            orig(),
            ServiceType::Agreed,
            1350,
            load,
        ));
        let a = run_ring(&cfg(
            NetworkConfig::gigabit(),
            profile,
            accel(),
            ServiceType::Agreed,
            1350,
            load,
        ));
        assert!(
            a.latency.mean.as_nanos() * 2 < o.latency.mean.as_nanos(),
            "{}: accelerated {}us vs original {}us",
            profile.name,
            a.mean_latency_us(),
            o.mean_latency_us()
        );
    }
}

#[test]
fn fig1_shape_spread_original_has_highest_latency_but_accel_closes_gap() {
    // With the original protocol, Spread's expensive client delivery on
    // the critical path gives it distinctly higher latency than the
    // library prototype; the accelerated protocol narrows that gap
    // (paper §IV-A.1).
    let load = LoadMode::OpenLoop {
        aggregate_bps: 300_000_000,
    };
    let lib_o = run_ring(&cfg(
        NetworkConfig::gigabit(),
        ImplProfile::library(),
        orig(),
        ServiceType::Agreed,
        1350,
        load,
    ));
    let spr_o = run_ring(&cfg(
        NetworkConfig::gigabit(),
        ImplProfile::spread(),
        orig(),
        ServiceType::Agreed,
        1350,
        load,
    ));
    let lib_a = run_ring(&cfg(
        NetworkConfig::gigabit(),
        ImplProfile::library(),
        accel(),
        ServiceType::Agreed,
        1350,
        load,
    ));
    let spr_a = run_ring(&cfg(
        NetworkConfig::gigabit(),
        ImplProfile::spread(),
        accel(),
        ServiceType::Agreed,
        1350,
        load,
    ));
    let gap_o = spr_o.latency.mean.as_nanos() as f64 / lib_o.latency.mean.as_nanos() as f64;
    let gap_a = spr_a.latency.mean.as_nanos() as f64 / lib_a.latency.mean.as_nanos() as f64;
    assert!(gap_o > 1.2, "spread/library original gap: {gap_o:.2}");
    assert!(
        gap_a < gap_o,
        "accelerated narrows the gap: {gap_a:.2} vs {gap_o:.2}"
    );
}

#[test]
fn fig2_shape_safe_costs_more_than_agreed() {
    let load = LoadMode::OpenLoop {
        aggregate_bps: 400_000_000,
    };
    for protocol in [orig(), accel()] {
        let agreed = run_ring(&cfg(
            NetworkConfig::gigabit(),
            ImplProfile::daemon(),
            protocol,
            ServiceType::Agreed,
            1350,
            load,
        ));
        let safe = run_ring(&cfg(
            NetworkConfig::gigabit(),
            ImplProfile::daemon(),
            protocol,
            ServiceType::Safe,
            1350,
            load,
        ));
        assert!(
            safe.latency.mean.as_nanos() > agreed.latency.mean.as_nanos() * 2,
            "{}: safe {}us vs agreed {}us",
            protocol.variant,
            safe.mean_latency_us(),
            agreed.mean_latency_us()
        );
    }
}

#[test]
fn fig3_shape_implementation_tiers_separate_on_10g() {
    // Processing-bound regime: library > daemon > spread in maximum
    // throughput, with meaningful gaps (paper: 4.6 / 3.3 / 2.3 Gbps).
    let mut results = Vec::new();
    for profile in ImplProfile::all() {
        let r = run_ring(&cfg(
            NetworkConfig::ten_gigabit(),
            profile,
            accel()
                .with_personal_window(60)
                .with_global_window(400)
                .with_accelerated_window(40),
            ServiceType::Agreed,
            1350,
            LoadMode::Saturating,
        ));
        results.push((profile.name, r.achieved_bps));
    }
    let lib = results[0].1;
    let dmn = results[1].1;
    let spr = results[2].1;
    assert!(lib > dmn * 1.2, "library {lib:.0} vs daemon {dmn:.0}");
    assert!(dmn > spr * 1.2, "daemon {dmn:.0} vs spread {spr:.0}");
    assert!(spr > 1.5e9, "spread exceeds 1.5 Gbps: {spr:.0}");
    assert!(lib > 4.0e9, "library exceeds 4 Gbps: {lib:.0}");
}

#[test]
fn fig4_shape_large_payloads_raise_max_throughput() {
    for profile in ImplProfile::all() {
        let small = run_ring(&cfg(
            NetworkConfig::ten_gigabit(),
            profile,
            accel()
                .with_personal_window(60)
                .with_global_window(400)
                .with_accelerated_window(40),
            ServiceType::Agreed,
            1350,
            LoadMode::Saturating,
        ));
        let large = run_ring(&cfg(
            NetworkConfig::ten_gigabit(),
            profile,
            accel()
                .with_personal_window(24)
                .with_global_window(160)
                .with_accelerated_window(16),
            ServiceType::Agreed,
            8850,
            LoadMode::Saturating,
        ));
        assert!(
            large.achieved_bps > small.achieved_bps * 1.3,
            "{}: 8850B {:.0} Mbps vs 1350B {:.0} Mbps",
            profile.name,
            large.achieved_mbps(),
            small.achieved_mbps()
        );
    }
}

#[test]
fn fig7_shape_safe_crossover_at_low_throughput() {
    // The paper's subtlest result: at very low load the *original*
    // protocol delivers Safe messages with lower latency (raising the
    // aru costs the accelerated protocol an extra round), but by a few
    // hundred Mbps the accelerated protocol is ahead.
    let spread = ImplProfile::spread();
    let low = LoadMode::OpenLoop {
        aggregate_bps: 100_000_000,
    };
    let high = LoadMode::OpenLoop {
        aggregate_bps: 1_000_000_000,
    };
    let net = NetworkConfig::ten_gigabit();
    let o_low = run_ring(&cfg(net, spread, orig(), ServiceType::Safe, 1350, low));
    let a_low = run_ring(&cfg(net, spread, accel(), ServiceType::Safe, 1350, low));
    let o_high = run_ring(&cfg(net, spread, orig(), ServiceType::Safe, 1350, high));
    let a_high = run_ring(&cfg(net, spread, accel(), ServiceType::Safe, 1350, high));
    assert!(
        a_low.latency.mean > o_low.latency.mean,
        "at 1% load the original wins: orig {}us vs accel {}us",
        o_low.mean_latency_us(),
        a_low.mean_latency_us()
    );
    assert!(
        a_high.latency.mean < o_high.latency.mean,
        "at 10% load the accelerated wins: orig {}us vs accel {}us",
        o_high.mean_latency_us(),
        a_high.mean_latency_us()
    );
}

#[test]
fn faults_crash_mid_run_keeps_delivering() {
    let mut c = cfg(
        NetworkConfig::gigabit(),
        ImplProfile::daemon(),
        accel(),
        ServiceType::Agreed,
        1350,
        LoadMode::OpenLoop {
            aggregate_bps: 100_000_000,
        },
    );
    c.n_hosts = 4;
    c.duration = SimDuration::from_millis(400);
    c.warmup = SimDuration::from_millis(10);
    c.faults = FaultSchedule::none().crash(Duration::from_millis(80), 2);
    let r = run_ring(&c);
    assert!(
        r.achieved_bps > 40e6,
        "delivery continues after the crash: {:.0} Mbps",
        r.achieved_mbps()
    );
}

#[test]
fn faults_partition_and_heal_reunifies() {
    // Partition 8 hosts into two halves at 60 ms, heal at 200 ms; with
    // traffic flowing, both sides keep ordering during the partition
    // and merge after the heal (delivery rate recovers).
    let mut c = cfg(
        NetworkConfig::gigabit(),
        ImplProfile::daemon(),
        accel(),
        ServiceType::Agreed,
        1350,
        LoadMode::OpenLoop {
            aggregate_bps: 80_000_000,
        },
    );
    c.duration = SimDuration::from_millis(700);
    c.warmup = SimDuration::from_millis(10);
    c.faults = FaultSchedule::none()
        .partition(Duration::from_millis(60), vec![0, 0, 0, 0, 1, 1, 1, 1])
        .heal(Duration::from_millis(200));
    let r = run_ring(&c);
    // Offered is 80 Mbps aggregate; each delivered message counts at
    // every participant of its component. If the merge failed, both
    // 4-host components would keep delivering only their own halves'
    // messages forever (~50% of offered after the partition point).
    assert!(
        r.achieved_bps > 55e6,
        "post-heal delivery recovered: {:.1} Mbps",
        r.achieved_mbps()
    );
}
