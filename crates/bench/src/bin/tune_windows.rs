//! Flow-control auto-tuner: the paper's tuning methodology as a
//! program.
//!
//! §IV-A: "we chose the smallest personal window that allowed the
//! system to reach its maximum throughput and the accelerated window
//! that resulted in the highest throughput for that particular personal
//! window". This tool runs that search on the simulator for a chosen
//! network and implementation profile, and prints the winning
//! configuration.
//!
//! ```text
//! usage: tune_windows [1g|10g] [library|daemon|spread]
//! ```

use ar_bench::table::{write_csv, Table};
use ar_core::{FaultSchedule, ProtocolConfig, ServiceType, TimeoutConfig};
use ar_sim::{run_ring, ImplProfile, LoadMode, NetworkConfig, RingSimConfig, SimDuration};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let net = match args.get(1).map(String::as_str) {
        Some("10g") => NetworkConfig::ten_gigabit(),
        _ => NetworkConfig::gigabit(),
    };
    let profile = match args.get(2).map(String::as_str) {
        Some("library") => ImplProfile::library(),
        Some("spread") => ImplProfile::spread(),
        _ => ImplProfile::daemon(),
    };
    let net_name = if net.link_bps > 5_000_000_000 {
        "10g"
    } else {
        "1g"
    };
    println!(
        "tuning accelerated-ring windows: {} network, {} profile\n",
        net_name, profile.name
    );

    let run_with = |personal: u32, accel: u32| {
        let protocol = ProtocolConfig::accelerated()
            .with_personal_window(personal)
            .with_global_window(personal * 8)
            .with_accelerated_window(accel)
            .with_max_seq_gap(4000);
        let cfg = RingSimConfig {
            n_hosts: 8,
            protocol,
            timeouts: TimeoutConfig::default(),
            net,
            profile,
            payload_bytes: 1350,
            service: ServiceType::Agreed,
            load: LoadMode::Saturating,
            duration: SimDuration::from_millis(200),
            warmup: SimDuration::from_millis(80),
            seed: 42,
            faults: FaultSchedule::none(),
            verify_order: false,
        };
        run_ring(&cfg)
    };

    // Phase 1: find the smallest personal window reaching max
    // throughput (accelerated window = personal/2 while searching).
    let candidates = [2u32, 5, 10, 15, 20, 30, 45, 60, 90, 120];
    let mut table = Table::new(["personal", "accel", "mbps", "mean_us"]);
    let mut best_tput = 0.0f64;
    for &pw in &candidates {
        let r = run_with(pw, pw / 2);
        table.row([
            pw.to_string(),
            (pw / 2).to_string(),
            format!("{:.0}", r.achieved_mbps()),
            format!("{:.0}", r.mean_latency_us()),
        ]);
        best_tput = best_tput.max(r.achieved_bps);
    }
    let mut chosen_personal = *candidates.last().expect("non-empty");
    for &pw in &candidates {
        let r = run_with(pw, pw / 2);
        if r.achieved_bps >= 0.97 * best_tput {
            chosen_personal = pw;
            break;
        }
    }
    println!("phase 1 — personal window sweep (accel = personal/2):");
    print!("{}", table.render());
    println!("\nsmallest personal window within 3% of max: {chosen_personal}\n");

    // Phase 2: sweep the accelerated window for that personal window.
    let mut table2 = Table::new(["personal", "accel", "mbps", "mean_us"]);
    let mut best = (0u32, 0.0f64, 0.0f64);
    for accel in [0u32].into_iter().chain(
        (0..=chosen_personal)
            .step_by((chosen_personal as usize / 8).max(1))
            .skip(1),
    ) {
        let r = run_with(chosen_personal, accel);
        table2.row([
            chosen_personal.to_string(),
            accel.to_string(),
            format!("{:.0}", r.achieved_mbps()),
            format!("{:.0}", r.mean_latency_us()),
        ]);
        if r.achieved_bps > best.1 {
            best = (accel, r.achieved_bps, r.mean_latency_us());
        }
    }
    println!("phase 2 — accelerated window sweep at personal = {chosen_personal}:");
    print!("{}", table2.render());
    println!(
        "\ntuned configuration: personal_window = {chosen_personal}, accelerated_window = {} \
         → {:.0} Mbps at {:.0}us mean latency",
        best.0,
        best.1 / 1e6,
        best.2
    );
    let _ = write_csv(
        &table2,
        &format!("tune_windows_{}_{}", net_name, profile.name),
    );
}
