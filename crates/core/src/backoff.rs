//! Shared exponential-backoff machinery.
//!
//! Two subsystems retry with backoff: the ar-net runtime retransmits
//! lost tokens, and the service-tier client redials and resumes its
//! session after a connection drop or a daemon restart. This module
//! is the one implementation they share.
//!
//! Two shapes are provided:
//!
//! * [`ExpShift`] — a deterministic shift-doubling exponent for
//!   *in-protocol* retries (token retransmission), where determinism
//!   matters more than contention avoidance and the caller clamps the
//!   scaled result against a protocol timeout.
//! * [`Backoff`] — wall-clock delays with **decorrelated jitter** for
//!   *reconnect* loops, where many clients hammering one daemon after
//!   a restart must not synchronise. Each delay is drawn uniformly
//!   from `[base, min(cap, 3 * previous)]`, the AWS "decorrelated
//!   jitter" scheme: bounded below by `base`, above by `cap`, with an
//!   envelope that grows geometrically to the cap.
//!
//! Both are pure (no clocks, no I/O); the jitter source is a seeded
//! SplitMix64 so retry schedules are reproducible in tests.

use std::time::Duration;

/// Deterministic doubling backoff expressed as a capped shift count.
///
/// `scale(base, cap)` returns `min(base << shift, cap)`; [`step`]
/// advances the exponent (saturating at the configured maximum) and
/// [`reset`] clears it when the awaited event arrives.
///
/// [`step`]: ExpShift::step
/// [`reset`]: ExpShift::reset
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpShift {
    shift: u32,
    max_shift: u32,
}

impl ExpShift {
    /// A fresh backoff whose exponent saturates at `max_shift`.
    pub fn new(max_shift: u32) -> ExpShift {
        ExpShift {
            shift: 0,
            max_shift,
        }
    }

    /// The current exponent.
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// One more consecutive failure: double the interval (saturating).
    pub fn step(&mut self) {
        self.shift = (self.shift + 1).min(self.max_shift);
    }

    /// Success: back to the base interval.
    pub fn reset(&mut self) {
        self.shift = 0;
    }

    /// Scales `base` by the current exponent, clamped to `cap`.
    /// Overflow saturates before the clamp (note `checked_shl` alone
    /// would not do: it only rejects shifts >= 64, while a large base
    /// can wrap well below that), so the result is always `<= cap` and
    /// `>= min(base, cap)`.
    pub fn scale(&self, base: u64, cap: u64) -> u64 {
        let scaled = if self.shift >= 64 || base > (u64::MAX >> self.shift) {
            u64::MAX
        } else {
            base << self.shift
        };
        scaled.min(cap)
    }
}

/// Tuning for a [`Backoff`] reconnect schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffConfig {
    /// Lower bound on every delay (and the first draw's whole range).
    pub base: Duration,
    /// Upper bound on every delay.
    pub cap: Duration,
    /// Attempts before [`Backoff::next_delay`] returns `None`
    /// (0 disables retrying entirely).
    pub max_attempts: u32,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base: Duration::from_millis(25),
            cap: Duration::from_secs(2),
            max_attempts: 30,
        }
    }
}

/// A decorrelated-jitter backoff schedule (see the module docs).
#[derive(Debug, Clone)]
pub struct Backoff {
    cfg: BackoffConfig,
    prev: Duration,
    attempt: u32,
    rng: u64,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Backoff {
    /// A fresh schedule. `seed` determines the jitter stream — derive
    /// it from a client identity so a fleet of reconnecting clients
    /// fans out instead of thundering in lockstep.
    pub fn new(cfg: BackoffConfig, seed: u64) -> Backoff {
        Backoff {
            cfg,
            prev: cfg.base,
            attempt: 0,
            rng: seed,
        }
    }

    /// Attempts drawn since the last [`reset`](Backoff::reset).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The next delay to sleep before redialling, or `None` once
    /// `max_attempts` draws have been consumed. Every returned delay
    /// `d` satisfies `min(base, cap) <= d <= cap`.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.cfg.max_attempts {
            return None;
        }
        self.attempt += 1;
        let base = self.cfg.base.min(self.cfg.cap).as_nanos() as u64;
        let cap = self.cfg.cap.as_nanos() as u64;
        // Envelope: three times the previous delay, at least base + 1
        // so the range is never empty, clamped to the cap.
        let hi = (self.prev.as_nanos() as u64)
            .saturating_mul(3)
            .clamp(base.saturating_add(1), cap.max(base.saturating_add(1)));
        let span = hi - base;
        let jittered = base + splitmix(&mut self.rng) % (span + 1);
        let delay = Duration::from_nanos(jittered.min(cap));
        self.prev = delay;
        Some(delay)
    }

    /// Success: restart the schedule from the base.
    pub fn reset(&mut self) {
        self.prev = self.cfg.base;
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_shift_doubles_and_saturates() {
        let mut b = ExpShift::new(3);
        assert_eq!(b.scale(100, u64::MAX), 100);
        b.step();
        assert_eq!(b.scale(100, u64::MAX), 200);
        b.step();
        b.step();
        b.step(); // saturates at 3
        assert_eq!(b.shift(), 3);
        assert_eq!(b.scale(100, u64::MAX), 800);
        assert_eq!(b.scale(100, 500), 500, "cap clamps");
        b.reset();
        assert_eq!(b.scale(100, 500), 100);
    }

    #[test]
    fn exp_shift_overflow_saturates_to_cap() {
        let mut b = ExpShift::new(70);
        for _ in 0..70 {
            b.step();
        }
        assert_eq!(b.scale(u64::MAX / 2, 1_000), 1_000);
    }

    #[test]
    fn backoff_is_bounded_and_exhausts() {
        let cfg = BackoffConfig {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            max_attempts: 8,
        };
        let mut b = Backoff::new(cfg, 42);
        let mut n = 0;
        while let Some(d) = b.next_delay() {
            assert!(d >= cfg.base, "below base: {d:?}");
            assert!(d <= cfg.cap, "above cap: {d:?}");
            n += 1;
        }
        assert_eq!(n, 8);
        b.reset();
        assert!(b.next_delay().is_some(), "reset restores attempts");
    }

    #[test]
    fn backoff_seeds_decorrelate() {
        let cfg = BackoffConfig::default();
        let mut a = Backoff::new(cfg, 1);
        let mut b = Backoff::new(cfg, 2);
        let da: Vec<_> = (0..6).map(|_| a.next_delay().unwrap()).collect();
        let db: Vec<_> = (0..6).map(|_| b.next_delay().unwrap()).collect();
        assert_ne!(da, db, "different seeds, different schedules");
    }

    #[test]
    fn zero_attempts_disables() {
        let mut b = Backoff::new(
            BackoffConfig {
                max_attempts: 0,
                ..BackoffConfig::default()
            },
            7,
        );
        assert!(b.next_delay().is_none());
    }
}
