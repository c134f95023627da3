//! Exponential backoff with jitter for the paper's flaky channels.

use glacsweb_obs::{Event, Origin, Recorder};
use glacsweb_sim::{ConfigError, SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// A bounded exponential-backoff retry policy.
///
/// Attempt numbering: attempt 0 is the first try (no wait); the wait
/// *before* retry `n` (n ≥ 1) is `base_backoff × multiplier^(n-1)`,
/// capped at `max_backoff`. Jitter spreads the wait uniformly over
/// `±jitter` of its nominal value so repeated failures don't retry in
/// lockstep; the jittered wait never exceeds `max_backoff`.
///
/// Deadline capping is the caller's job: stations clamp every wait with
/// `Watchdog::cap` so a backoff can never outlive the two-hour window.
///
/// # Example
///
/// ```
/// use glacsweb_faults::RetryPolicy;
/// use glacsweb_sim::SimDuration;
///
/// let p = RetryPolicy::gprs_attach();
/// assert_eq!(p.backoff(0), SimDuration::ZERO);
/// assert_eq!(p.backoff(1), p.base_backoff);
/// assert!(p.backoff(30) <= p.max_backoff);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts, first try included (≥ 1).
    pub max_attempts: u32,
    /// Wait before the first retry.
    pub base_backoff: SimDuration,
    /// Growth factor per retry (≥ 1).
    pub multiplier: f64,
    /// Upper bound on any single wait.
    pub max_backoff: SimDuration,
    /// Uniform jitter fraction in `[0, 1]` applied to each wait.
    pub jitter: f64,
}

impl RetryPolicy {
    /// The GPRS attach policy: 3 attempts, 30 s → 60 s backoff with 25 %
    /// jitter (attach failures cost 45 s each, so the waits roughly
    /// double the spacing the deployed retry-immediately loop had).
    pub fn gprs_attach() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: SimDuration::from_secs(30),
            multiplier: 2.0,
            max_backoff: SimDuration::from_mins(5),
            jitter: 0.25,
        }
    }

    /// The server control-fetch policy (override/special/update): 3
    /// attempts with short waits — an HTTP timeout is cheap next to an
    /// attach.
    pub fn server_fetch() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: SimDuration::from_secs(15),
            multiplier: 2.0,
            max_backoff: SimDuration::from_mins(2),
            jitter: 0.25,
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_attempts == 0 {
            return Err(ConfigError::new(
                "retry",
                "max_attempts",
                "need at least one attempt",
            ));
        }
        if !self.multiplier.is_finite() || self.multiplier < 1.0 {
            return Err(ConfigError::new(
                "retry",
                "multiplier",
                format!("{} must be a finite factor >= 1", self.multiplier),
            ));
        }
        if self.max_backoff < self.base_backoff {
            return Err(ConfigError::new(
                "retry",
                "max_backoff",
                format!(
                    "{} below base backoff {}",
                    self.max_backoff, self.base_backoff
                ),
            ));
        }
        if !(0.0..=1.0).contains(&self.jitter) {
            return Err(ConfigError::new(
                "retry",
                "jitter",
                format!("{} not a fraction", self.jitter),
            ));
        }
        Ok(())
    }

    /// The nominal (jitter-free) wait before retry `attempt`.
    ///
    /// Attempt 0 — the first try — waits nothing. The wait grows
    /// geometrically and saturates at [`max_backoff`](Self::max_backoff)
    /// for *any* attempt count: the growth factor can overflow `f64` to
    /// infinity at large attempts or multipliers, and `0 × ∞` is NaN, so
    /// anything non-finite (or merely above the cap) is pinned to
    /// `max_backoff` before it can reach `SimDuration::from_secs_f64`
    /// (which panics on non-finite input). A zero base backoff stays
    /// zero no matter the multiplier — it used to surface as the *cap*
    /// through the NaN path.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        if attempt == 0 || self.base_backoff == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        let base = self.base_backoff.as_secs() as f64;
        let cap = self.max_backoff.as_secs() as f64;
        let growth = self
            .multiplier
            .powi(attempt.saturating_sub(1).min(64) as i32);
        let nominal = base * growth;
        if !nominal.is_finite() || nominal >= cap {
            return self.max_backoff;
        }
        SimDuration::from_secs_f64(nominal)
    }

    /// The jittered wait before retry `attempt`: uniform over
    /// `backoff(attempt) × [1 - jitter, 1 + jitter]`, never above
    /// [`max_backoff`](Self::max_backoff). Draws from `rng` only when
    /// both the wait and the jitter are non-zero, so a policy with no
    /// jitter perturbs no random stream.
    pub fn backoff_jittered(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        let nominal = self.backoff(attempt);
        if nominal == SimDuration::ZERO || self.jitter == 0.0 {
            return nominal;
        }
        let factor = 1.0 + self.jitter * (2.0 * rng.f64() - 1.0);
        let secs = (nominal.as_secs() as f64 * factor).min(self.max_backoff.as_secs() as f64);
        SimDuration::from_secs_f64(secs.max(0.0))
    }

    /// [`backoff_jittered`](Self::backoff_jittered), additionally
    /// recording the attempt and the chosen wait to `obs`: a
    /// `retry_wait` event (with the operation label), a `retry_attempts`
    /// counter, and a `retry_wait_secs` histogram observation.
    pub fn backoff_jittered_observed(
        &self,
        attempt: u32,
        rng: &mut SimRng,
        at: SimTime,
        origin: Origin,
        op: &'static str,
        obs: &mut dyn Recorder,
    ) -> SimDuration {
        let wait = self.backoff_jittered(attempt, rng);
        if obs.enabled() && attempt > 0 {
            obs.counter(at, origin, "retry_attempts", 1);
            obs.observe(origin, "retry_wait_secs", wait.as_secs());
            obs.event(
                Event::new(at, origin, "retry_wait")
                    .with("op", op)
                    .with("attempt", attempt)
                    .with("wait_secs", wait.as_secs()),
            );
        }
        wait
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::gprs_attach()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_saturates() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: SimDuration::from_secs(30),
            multiplier: 2.0,
            max_backoff: SimDuration::from_mins(5),
            jitter: 0.0,
        };
        assert_eq!(p.backoff(0), SimDuration::ZERO);
        assert_eq!(p.backoff(1), SimDuration::from_secs(30));
        assert_eq!(p.backoff(2), SimDuration::from_secs(60));
        assert_eq!(p.backoff(3), SimDuration::from_secs(120));
        assert_eq!(p.backoff(4), SimDuration::from_secs(240));
        assert_eq!(p.backoff(5), SimDuration::from_mins(5), "saturated");
        assert_eq!(p.backoff(60), SimDuration::from_mins(5));
    }

    #[test]
    fn jitter_stays_within_band_and_cap() {
        let p = RetryPolicy::gprs_attach();
        let mut rng = SimRng::seed_from(9);
        for attempt in 1..6 {
            let nominal = p.backoff(attempt).as_secs() as f64;
            for _ in 0..50 {
                let j = p.backoff_jittered(attempt, &mut rng).as_secs() as f64;
                assert!(j <= p.max_backoff.as_secs() as f64 + 1.0);
                assert!(j >= nominal * (1.0 - p.jitter) - 1.0, "{j} vs {nominal}");
                assert!(j <= nominal * (1.0 + p.jitter) + 1.0, "{j} vs {nominal}");
            }
        }
    }

    #[test]
    fn zero_jitter_consumes_no_randomness() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::gprs_attach()
        };
        let mut a = SimRng::seed_from(4);
        let mut b = SimRng::seed_from(4);
        let _ = p.backoff_jittered(3, &mut a);
        assert_eq!(a.f64(), b.f64(), "rng untouched");
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut p = RetryPolicy::gprs_attach();
        p.max_attempts = 0;
        assert_eq!(p.validate().unwrap_err().field(), "max_attempts");
        let mut p = RetryPolicy::gprs_attach();
        p.multiplier = 0.5;
        assert_eq!(p.validate().unwrap_err().field(), "multiplier");
        let mut p = RetryPolicy::gprs_attach();
        p.max_backoff = SimDuration::from_secs(1);
        assert_eq!(p.validate().unwrap_err().field(), "max_backoff");
        let mut p = RetryPolicy::gprs_attach();
        p.jitter = 1.5;
        assert_eq!(p.validate().unwrap_err().field(), "jitter");
        RetryPolicy::gprs_attach().validate().expect("valid");
        RetryPolicy::server_fetch().validate().expect("valid");
    }

    #[test]
    fn u32_max_attempt_saturates_at_cap() {
        let p = RetryPolicy::gprs_attach();
        assert_eq!(p.backoff(u32::MAX), p.max_backoff);
        let mut rng = SimRng::seed_from(1);
        assert!(p.backoff_jittered(u32::MAX, &mut rng) <= p.max_backoff);
    }

    #[test]
    fn huge_multiplier_overflow_saturates_not_panics() {
        let p = RetryPolicy {
            max_attempts: 9,
            base_backoff: SimDuration::from_secs(30),
            multiplier: f64::MAX,
            max_backoff: SimDuration::from_mins(5),
            jitter: 0.0,
        };
        p.validate().expect("finite multiplier >= 1 is valid");
        // multiplier^(n-1) overflows to +inf for n >= 3.
        assert_eq!(p.backoff(5), p.max_backoff);
        assert_eq!(p.backoff(u32::MAX), p.max_backoff);
    }

    #[test]
    fn zero_base_with_huge_multiplier_is_zero_not_cap() {
        let p = RetryPolicy {
            max_attempts: 9,
            base_backoff: SimDuration::ZERO,
            multiplier: f64::MAX,
            max_backoff: SimDuration::from_mins(5),
            jitter: 0.0,
        };
        // 0 × ∞ is NaN; `NaN.min(cap)` returns the cap, so the old code
        // reported a five-minute wait for a policy whose every nominal
        // wait is zero.
        assert_eq!(p.backoff(3), SimDuration::ZERO);
        assert_eq!(p.backoff(u32::MAX), SimDuration::ZERO);
    }

    #[test]
    fn observed_backoff_matches_plain_and_records() {
        use glacsweb_obs::MemoryRecorder;
        let p = RetryPolicy::gprs_attach();
        let at = glacsweb_sim::SimTime::from_ymd_hms(2009, 6, 1, 12, 0, 0);
        let origin = Origin::new("retry", "base");
        let mut obs = MemoryRecorder::default();
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for attempt in 0..4 {
            let plain = p.backoff_jittered(attempt, &mut a);
            let observed =
                p.backoff_jittered_observed(attempt, &mut b, at, origin, "gprs_attach", &mut obs);
            assert_eq!(plain, observed, "telemetry must not change the wait");
        }
        assert_eq!(obs.counter_value(origin, "retry_attempts"), 3);
        assert_eq!(obs.events().len(), 3, "attempt 0 records nothing");
    }

    proptest::proptest! {
        /// The issue's pin: for ANY attempt count — u32::MAX included —
        /// the nominal wait saturates at `max_backoff` instead of going
        /// non-finite.
        #[test]
        fn backoff_never_exceeds_cap(
            base in 0u64..=600,
            extra in 0u64..=3_600,
            mult in 1.0f64..1e9,
            attempt in proptest::prelude::any::<u32>(),
        ) {
            let p = RetryPolicy {
                max_attempts: 5,
                base_backoff: SimDuration::from_secs(base),
                multiplier: mult,
                max_backoff: SimDuration::from_secs(base + extra),
                jitter: 0.0,
            };
            proptest::prop_assert!(p.validate().is_ok());
            proptest::prop_assert!(p.backoff(attempt) <= p.max_backoff);
        }

        /// Jitter never pushes a wait above `max_backoff` either.
        #[test]
        fn jittered_backoff_never_exceeds_cap(
            base in 0u64..=600,
            extra in 0u64..=3_600,
            mult in 1.0f64..1e9,
            jitter in 0.0f64..1.0,
            attempt in proptest::prelude::any::<u32>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let p = RetryPolicy {
                max_attempts: 5,
                base_backoff: SimDuration::from_secs(base),
                multiplier: mult,
                max_backoff: SimDuration::from_secs(base + extra),
                jitter,
            };
            let mut rng = SimRng::seed_from(seed);
            proptest::prop_assert!(p.backoff_jittered(attempt, &mut rng) <= p.max_backoff);
        }
    }
}
