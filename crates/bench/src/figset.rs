//! Scenario construction shared by all figure harnesses.

use ar_core::{FaultSchedule, ProtocolConfig, ProtocolVariant, ServiceType, TimeoutConfig};
use ar_sim::{ImplProfile, LoadMode, NetworkConfig, RingSimConfig, SimDuration};

/// Which network a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// 1-gigabit (Catalyst 2960 model).
    Gigabit,
    /// 10-gigabit (Arista 7100T model).
    TenGigabit,
}

impl Net {
    /// The corresponding network configuration.
    pub fn config(self) -> NetworkConfig {
        match self {
            Net::Gigabit => NetworkConfig::gigabit(),
            Net::TenGigabit => NetworkConfig::ten_gigabit(),
        }
    }
}

/// A named benchmark scenario: network × implementation × protocol
/// variant × service × payload.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display label, e.g. "spread/accelerated".
    pub label: String,
    /// The assembled simulation configuration (load mode is set by the
    /// sweep functions).
    pub base: RingSimConfig,
}

/// Tuned protocol configuration for a scenario, following the paper's
/// method: the smallest personal window that reaches maximum
/// throughput, and the accelerated window that maximizes throughput for
/// that personal window (§IV-A). The original protocol uses the same
/// windows with no acceleration.
pub fn tuned_protocol(variant: ProtocolVariant, net: Net, payload: usize) -> ProtocolConfig {
    let (personal, global, accel) = match (net, payload >= 4096) {
        // 1-gigabit: moderate windows saturate the wire.
        (Net::Gigabit, false) => (30, 200, 20),
        (Net::Gigabit, true) => (10, 64, 6),
        // 10-gigabit: the wire is fast relative to processing; larger
        // windows amortize token handling.
        (Net::TenGigabit, false) => (60, 400, 40),
        (Net::TenGigabit, true) => (24, 160, 16),
    };

    ProtocolConfig {
        variant,
        personal_window: personal,
        global_window: global,
        accelerated_window: if variant == ProtocolVariant::Accelerated {
            accel
        } else {
            0
        },
        max_seq_gap: 4000,
        priority_method: match variant {
            // Prototypes use method 1; Spread (and the original
            // baseline) use method 2 (§III-D). The scenario builder
            // overrides this for the Spread profile.
            ProtocolVariant::Accelerated => ar_core::PriorityMethod::Aggressive,
            ProtocolVariant::Original => ar_core::PriorityMethod::Conservative,
        },
        ..ProtocolConfig::accelerated()
    }
}

/// Builds a scenario for one curve of a figure.
pub fn scenario(
    net: Net,
    profile: ImplProfile,
    variant: ProtocolVariant,
    service: ServiceType,
    payload: usize,
) -> Scenario {
    let mut protocol = tuned_protocol(variant, net, payload);
    if profile.name == "spread" && variant == ProtocolVariant::Accelerated {
        // The open-source Spread release implements the conservative
        // method (§III-D).
        protocol.priority_method = ar_core::PriorityMethod::Conservative;
    }
    let base = RingSimConfig {
        n_hosts: 8,
        protocol,
        timeouts: TimeoutConfig::default(),
        net: net.config(),
        profile,
        payload_bytes: payload,
        service,
        load: LoadMode::Saturating,
        duration: SimDuration::from_millis(300),
        warmup: SimDuration::from_millis(120),
        seed: 42,
        faults: FaultSchedule::none(),
        verify_order: false,
    };
    Scenario {
        label: format!("{}/{}", profile.name, variant),
        base,
    }
}

/// The six (implementation × variant) curves the 1350-byte figures
/// plot, in the paper's order.
pub fn six_curves(net: Net, service: ServiceType) -> Vec<Scenario> {
    let mut out = Vec::new();
    for profile in ImplProfile::all() {
        for variant in [ProtocolVariant::Original, ProtocolVariant::Accelerated] {
            out.push(scenario(net, profile, variant, service, 1350));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_windows_validate() {
        for net in [Net::Gigabit, Net::TenGigabit] {
            for payload in [1350usize, 8850] {
                for variant in [ProtocolVariant::Original, ProtocolVariant::Accelerated] {
                    tuned_protocol(variant, net, payload).validate().unwrap();
                }
            }
        }
    }

    #[test]
    fn original_has_no_acceleration() {
        let p = tuned_protocol(ProtocolVariant::Original, Net::Gigabit, 1350);
        assert_eq!(p.accelerated_window, 0);
    }

    #[test]
    fn spread_accelerated_uses_conservative_priority() {
        let s = scenario(
            Net::Gigabit,
            ImplProfile::spread(),
            ProtocolVariant::Accelerated,
            ServiceType::Agreed,
            1350,
        );
        assert_eq!(
            s.base.protocol.priority_method,
            ar_core::PriorityMethod::Conservative
        );
        let lib = scenario(
            Net::Gigabit,
            ImplProfile::library(),
            ProtocolVariant::Accelerated,
            ServiceType::Agreed,
            1350,
        );
        assert_eq!(
            lib.base.protocol.priority_method,
            ar_core::PriorityMethod::Aggressive
        );
    }

    #[test]
    fn six_curves_cover_all_combinations() {
        let curves = six_curves(Net::Gigabit, ServiceType::Agreed);
        assert_eq!(curves.len(), 6);
        let labels: Vec<&str> = curves.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.contains(&"library/original"));
        assert!(labels.contains(&"spread/accelerated"));
    }
}
