//! Protocol configuration: flow-control windows, the accelerated window,
//! and the priority-switching method.

/// Which protocol the configuration describes.
///
/// The paper's key observation is that the original Totem Ring protocol
/// is the degenerate point of the Accelerated Ring design space: with an
/// accelerated window of zero and the conservative priority-switching
/// method, the accelerated protocol *is* the original protocol
/// (Section III-D). We keep the variant explicit so benchmarks and logs
/// can name which protocol they measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProtocolVariant {
    /// The original Totem single-ring ordering protocol: all multicasts
    /// complete before the token is passed.
    Original,
    /// The Accelerated Ring protocol: up to `accelerated_window`
    /// messages may be multicast after passing the token.
    #[default]
    Accelerated,
}

impl core::fmt::Display for ProtocolVariant {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProtocolVariant::Original => f.write_str("original"),
            ProtocolVariant::Accelerated => f.write_str("accelerated"),
        }
    }
}

/// The two methods of deciding when to raise the token's processing
/// priority again after handling a token (Section III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PriorityMethod {
    /// Method 1: raise token priority as soon as *any* data message the
    /// immediate predecessor sent in the next round is processed.
    /// Maximizes token speed; used by the paper's prototypes.
    #[default]
    Aggressive,
    /// Method 2: wait for a data message the predecessor sent in the
    /// next round *after* passing the token (its post-token phase).
    /// Slightly slower token, fewer unprocessed-data pile-ups; used by
    /// the production Spread implementation. With an accelerated window
    /// of zero this method reproduces the original Ring protocol.
    Conservative,
}

impl core::fmt::Display for PriorityMethod {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PriorityMethod::Aggressive => f.write_str("method-1 (aggressive)"),
            PriorityMethod::Conservative => f.write_str("method-2 (conservative)"),
        }
    }
}

/// Membership flap damping: per-member penalty scores with exponential
/// decay (Spread/Corosync-style route damping).
///
/// Every time a member drops out of an installed ring it accrues
/// `penalty_per_flap`; once its score reaches `suppress_threshold` the
/// member is *quarantined* — its joins and merge-triggering traffic are
/// ignored and it is placed in the fail set of every gather — until the
/// score decays below `reuse_threshold`. Scores halve every
/// `half_life_rounds` handled tokens, so decay is driven by protocol
/// rounds, never by a clock, preserving the sans-io core's determinism.
/// Disabled by default: one marginal link can then thrash the whole
/// ring through endless gather/commit/recovery cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapDampingConfig {
    /// Master switch; when false all other fields are ignored.
    pub enabled: bool,
    /// Penalty accrued each time the member departs an installed ring.
    pub penalty_per_flap: u32,
    /// Score at which the member is quarantined.
    pub suppress_threshold: u32,
    /// Score below which a quarantined member is reinstated.
    pub reuse_threshold: u32,
    /// Handled-token rounds per penalty half-life (deterministic,
    /// round-based decay).
    pub half_life_rounds: u64,
    /// Hard cap on an accumulated score (bounds reinstatement delay).
    pub max_penalty: u32,
}

impl Default for FlapDampingConfig {
    fn default() -> Self {
        FlapDampingConfig {
            enabled: false,
            penalty_per_flap: 1000,
            suppress_threshold: 2500,
            reuse_threshold: 1000,
            half_life_rounds: 4096,
            max_penalty: 8000,
        }
    }
}

impl FlapDampingConfig {
    /// The default damping constants with the feature switched on.
    pub fn enabled() -> FlapDampingConfig {
        FlapDampingConfig {
            enabled: true,
            ..FlapDampingConfig::default()
        }
    }
}

/// AIMD degradation of the accelerated window under retransmission
/// pressure.
///
/// A round is *pressured* when the received token carries at least
/// `pressure_threshold` retransmission requests. After `pressure_rounds`
/// consecutive pressured rounds the effective accelerated window halves
/// (multiplicative decrease, toward 0 — which is exactly the original
/// Ring protocol per the paper, so acceleration can never amplify a
/// lossy network's retransmission storm); after `recovery_rounds`
/// consecutive clean rounds it grows by one (additive increase) back up
/// to the configured `accelerated_window`. Disabled by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AimdConfig {
    /// Master switch; when false the configured window is always used.
    pub enabled: bool,
    /// Inbound-token rtr volume at which a round counts as pressured.
    pub pressure_threshold: u32,
    /// Consecutive pressured rounds before a multiplicative decrease.
    pub pressure_rounds: u32,
    /// Consecutive clean rounds before an additive increase.
    pub recovery_rounds: u32,
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig {
            enabled: false,
            pressure_threshold: 4,
            pressure_rounds: 2,
            recovery_rounds: 8,
        }
    }
}

impl AimdConfig {
    /// The default AIMD constants with the feature switched on.
    pub fn enabled() -> AimdConfig {
        AimdConfig {
            enabled: true,
            ..AimdConfig::default()
        }
    }
}

/// Tunable parameters of the ordering protocol.
///
/// The defaults correspond to the paper's accelerated configuration for
/// an 8-participant data-center ring; [`ProtocolConfig::original`]
/// produces the baseline Totem Ring configuration.
///
/// ```
/// use ar_core::{ProtocolConfig, ProtocolVariant};
///
/// let cfg = ProtocolConfig::accelerated()
///     .with_personal_window(40)
///     .with_accelerated_window(25);
/// assert_eq!(cfg.variant, ProtocolVariant::Accelerated);
/// assert_eq!(cfg.personal_window, 40);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Which protocol this configuration describes.
    pub variant: ProtocolVariant,
    /// Maximum number of *new* messages one participant may initiate in
    /// a single token round (`Personal_window`).
    pub personal_window: u32,
    /// Maximum number of multicasts (new + retransmissions) that may be
    /// initiated ring-wide in a single round (`Global_window`).
    pub global_window: u32,
    /// Maximum number of messages a participant may multicast *after*
    /// passing the token (`Accelerated_window`). Zero disables
    /// acceleration and recovers the original protocol's send pattern.
    pub accelerated_window: u32,
    /// Maximum gap between the highest assigned sequence number and the
    /// global all-received-up-to (`Max_seq_gap`). Bounds the number of
    /// undelivered messages buffered anywhere in the ring.
    pub max_seq_gap: u64,
    /// When the token becomes high-priority again after being handled.
    pub priority_method: PriorityMethod,
    /// Maximum new-ring data messages buffered while still recovering;
    /// overflow is counted and reported, not silently dropped.
    pub pending_data_limit: u32,
    /// Maximum recovery retransmissions multicast per commit-token
    /// visit; truncation is counted and reported.
    pub recovery_burst_limit: u32,
    /// Membership flap damping (off by default).
    pub flap_damping: FlapDampingConfig,
    /// AIMD accelerated-window degradation (off by default).
    pub accel_aimd: AimdConfig,
}

impl ProtocolConfig {
    /// The accelerated protocol with the paper's default tuning for an
    /// 8-participant ring.
    pub fn accelerated() -> ProtocolConfig {
        ProtocolConfig {
            variant: ProtocolVariant::Accelerated,
            personal_window: 30,
            global_window: 200,
            accelerated_window: 20,
            max_seq_gap: 1000,
            priority_method: PriorityMethod::Aggressive,
            pending_data_limit: 65_536,
            recovery_burst_limit: 1024,
            flap_damping: FlapDampingConfig::default(),
            accel_aimd: AimdConfig::default(),
        }
    }

    /// The original Totem Ring protocol baseline: no post-token
    /// multicasting and the conservative priority method. Per the paper
    /// (Section III-D), this configuration behaves identically to the
    /// original Ring protocol.
    pub fn original() -> ProtocolConfig {
        ProtocolConfig {
            variant: ProtocolVariant::Original,
            personal_window: 30,
            global_window: 200,
            accelerated_window: 0,
            max_seq_gap: 1000,
            priority_method: PriorityMethod::Conservative,
            pending_data_limit: 65_536,
            recovery_burst_limit: 1024,
            flap_damping: FlapDampingConfig::default(),
            accel_aimd: AimdConfig::default(),
        }
    }

    /// Sets `personal_window`.
    #[must_use]
    pub fn with_personal_window(mut self, w: u32) -> Self {
        self.personal_window = w;
        self
    }

    /// Sets `global_window`.
    #[must_use]
    pub fn with_global_window(mut self, w: u32) -> Self {
        self.global_window = w;
        self
    }

    /// Sets `accelerated_window`. Note that a non-zero accelerated
    /// window on a [`ProtocolVariant::Original`] configuration is
    /// rejected by [`validate`](Self::validate).
    #[must_use]
    pub fn with_accelerated_window(mut self, w: u32) -> Self {
        self.accelerated_window = w;
        self
    }

    /// Sets `max_seq_gap`.
    #[must_use]
    pub fn with_max_seq_gap(mut self, gap: u64) -> Self {
        self.max_seq_gap = gap;
        self
    }

    /// Sets the priority-switching method.
    #[must_use]
    pub fn with_priority_method(mut self, m: PriorityMethod) -> Self {
        self.priority_method = m;
        self
    }

    /// Sets `pending_data_limit`.
    #[must_use]
    pub fn with_pending_data_limit(mut self, limit: u32) -> Self {
        self.pending_data_limit = limit;
        self
    }

    /// Sets `recovery_burst_limit`.
    #[must_use]
    pub fn with_recovery_burst_limit(mut self, limit: u32) -> Self {
        self.recovery_burst_limit = limit;
        self
    }

    /// Sets the flap-damping policy.
    #[must_use]
    pub fn with_flap_damping(mut self, d: FlapDampingConfig) -> Self {
        self.flap_damping = d;
        self
    }

    /// Sets the AIMD accelerated-window degradation policy.
    #[must_use]
    pub fn with_accel_aimd(mut self, a: AimdConfig) -> Self {
        self.accel_aimd = a;
        self
    }

    /// Checks the configuration for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any window is zero where it must not
    /// be, if the personal window exceeds the global window, or if an
    /// `Original` variant carries a non-zero accelerated window.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.personal_window == 0 {
            return Err(ConfigError::ZeroWindow("personal_window"));
        }
        if self.global_window == 0 {
            return Err(ConfigError::ZeroWindow("global_window"));
        }
        if self.max_seq_gap == 0 {
            return Err(ConfigError::ZeroWindow("max_seq_gap"));
        }
        if self.personal_window > self.global_window {
            return Err(ConfigError::PersonalExceedsGlobal {
                personal: self.personal_window,
                global: self.global_window,
            });
        }
        if self.variant == ProtocolVariant::Original && self.accelerated_window != 0 {
            return Err(ConfigError::OriginalWithAcceleration(
                self.accelerated_window,
            ));
        }
        if self.pending_data_limit == 0 {
            return Err(ConfigError::ZeroWindow("pending_data_limit"));
        }
        if self.recovery_burst_limit == 0 {
            return Err(ConfigError::ZeroWindow("recovery_burst_limit"));
        }
        if self.flap_damping.enabled {
            let d = &self.flap_damping;
            if d.penalty_per_flap == 0 {
                return Err(ConfigError::ZeroWindow("penalty_per_flap"));
            }
            if d.suppress_threshold == 0 {
                return Err(ConfigError::ZeroWindow("suppress_threshold"));
            }
            if d.half_life_rounds == 0 {
                return Err(ConfigError::ZeroWindow("half_life_rounds"));
            }
            if d.reuse_threshold > d.suppress_threshold {
                return Err(ConfigError::DegradationPolicy(
                    "reuse_threshold must not exceed suppress_threshold",
                ));
            }
            if d.max_penalty < d.suppress_threshold {
                return Err(ConfigError::DegradationPolicy(
                    "max_penalty must be at least suppress_threshold",
                ));
            }
        }
        if self.accel_aimd.enabled {
            let a = &self.accel_aimd;
            if a.pressure_threshold == 0 {
                return Err(ConfigError::ZeroWindow("pressure_threshold"));
            }
            if a.pressure_rounds == 0 {
                return Err(ConfigError::ZeroWindow("pressure_rounds"));
            }
            if a.recovery_rounds == 0 {
                return Err(ConfigError::ZeroWindow("recovery_rounds"));
            }
        }
        Ok(())
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig::accelerated()
    }
}

/// Errors produced by [`ProtocolConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A window parameter that must be positive was zero.
    ZeroWindow(&'static str),
    /// `personal_window` exceeded `global_window`.
    PersonalExceedsGlobal {
        /// The personal window value.
        personal: u32,
        /// The global window value.
        global: u32,
    },
    /// An `Original`-variant configuration had a non-zero accelerated
    /// window.
    OriginalWithAcceleration(u32),
    /// A flap-damping or AIMD parameter relation is inconsistent.
    DegradationPolicy(&'static str),
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::ZeroWindow(name) => write!(f, "{name} must be positive"),
            ConfigError::PersonalExceedsGlobal { personal, global } => write!(
                f,
                "personal_window ({personal}) exceeds global_window ({global})"
            ),
            ConfigError::OriginalWithAcceleration(w) => write!(
                f,
                "original protocol variant cannot have accelerated_window = {w}"
            ),
            ConfigError::DegradationPolicy(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ProtocolConfig::accelerated().validate().unwrap();
        ProtocolConfig::original().validate().unwrap();
        ProtocolConfig::default().validate().unwrap();
    }

    #[test]
    fn default_is_accelerated() {
        assert_eq!(
            ProtocolConfig::default().variant,
            ProtocolVariant::Accelerated
        );
    }

    #[test]
    fn original_has_zero_accel_window_and_conservative_priority() {
        let cfg = ProtocolConfig::original();
        assert_eq!(cfg.accelerated_window, 0);
        assert_eq!(cfg.priority_method, PriorityMethod::Conservative);
    }

    #[test]
    fn builders_set_fields() {
        let cfg = ProtocolConfig::accelerated()
            .with_personal_window(5)
            .with_global_window(50)
            .with_accelerated_window(3)
            .with_max_seq_gap(77)
            .with_priority_method(PriorityMethod::Conservative);
        assert_eq!(cfg.personal_window, 5);
        assert_eq!(cfg.global_window, 50);
        assert_eq!(cfg.accelerated_window, 3);
        assert_eq!(cfg.max_seq_gap, 77);
        assert_eq!(cfg.priority_method, PriorityMethod::Conservative);
    }

    #[test]
    fn zero_windows_are_rejected() {
        assert_eq!(
            ProtocolConfig::accelerated()
                .with_personal_window(0)
                .validate(),
            Err(ConfigError::ZeroWindow("personal_window"))
        );
        assert_eq!(
            ProtocolConfig::accelerated()
                .with_global_window(0)
                .validate(),
            Err(ConfigError::ZeroWindow("global_window"))
        );
        assert_eq!(
            ProtocolConfig::accelerated().with_max_seq_gap(0).validate(),
            Err(ConfigError::ZeroWindow("max_seq_gap"))
        );
    }

    #[test]
    fn personal_window_must_fit_global() {
        let cfg = ProtocolConfig::accelerated()
            .with_personal_window(100)
            .with_global_window(50);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::PersonalExceedsGlobal { .. })
        ));
    }

    #[test]
    fn original_variant_rejects_acceleration() {
        let cfg = ProtocolConfig::original().with_accelerated_window(4);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::OriginalWithAcceleration(4))
        );
    }

    #[test]
    fn recovery_limits_must_be_positive() {
        assert_eq!(
            ProtocolConfig::accelerated()
                .with_pending_data_limit(0)
                .validate(),
            Err(ConfigError::ZeroWindow("pending_data_limit"))
        );
        assert_eq!(
            ProtocolConfig::accelerated()
                .with_recovery_burst_limit(0)
                .validate(),
            Err(ConfigError::ZeroWindow("recovery_burst_limit"))
        );
    }

    #[test]
    fn damping_and_aimd_policies_validate_only_when_enabled() {
        // Nonsensical values are fine while disabled...
        let bad = FlapDampingConfig {
            enabled: false,
            penalty_per_flap: 0,
            suppress_threshold: 0,
            reuse_threshold: 9,
            half_life_rounds: 0,
            max_penalty: 0,
        };
        ProtocolConfig::accelerated()
            .with_flap_damping(bad)
            .validate()
            .unwrap();
        // ...and rejected once enabled.
        let bad = FlapDampingConfig {
            enabled: true,
            ..bad
        };
        assert!(ProtocolConfig::accelerated()
            .with_flap_damping(bad)
            .validate()
            .is_err());
        let inverted = FlapDampingConfig {
            reuse_threshold: 5000,
            ..FlapDampingConfig::enabled()
        };
        assert!(matches!(
            ProtocolConfig::accelerated()
                .with_flap_damping(inverted)
                .validate(),
            Err(ConfigError::DegradationPolicy(_))
        ));
        ProtocolConfig::accelerated()
            .with_flap_damping(FlapDampingConfig::enabled())
            .validate()
            .unwrap();

        let zero_aimd = AimdConfig {
            enabled: true,
            pressure_threshold: 0,
            ..AimdConfig::default()
        };
        assert_eq!(
            ProtocolConfig::accelerated()
                .with_accel_aimd(zero_aimd)
                .validate(),
            Err(ConfigError::ZeroWindow("pressure_threshold"))
        );
        ProtocolConfig::accelerated()
            .with_accel_aimd(AimdConfig::enabled())
            .validate()
            .unwrap();
    }

    #[test]
    fn config_error_display() {
        assert!(ConfigError::ZeroWindow("personal_window")
            .to_string()
            .contains("personal_window"));
        assert!(ConfigError::OriginalWithAcceleration(3)
            .to_string()
            .contains("accelerated_window"));
    }
}
