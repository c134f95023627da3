//! The GPRS uplink: session establishment, dropouts, throughput and cost.

use glacsweb_sim::{BitsPerSecond, Bytes, ConfigError, SimDuration, SimRng};
use serde::{Deserialize, Serialize};

/// The longest attach (or relay dial) a link may take: an hour, far
/// beyond any window. The station runs its rail across the whole attach,
/// so an unbounded one would stall the run.
pub const MAX_ATTACH_TIME: SimDuration = SimDuration::from_secs(3600);

/// GPRS behaviour parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GprsConfig {
    /// Useful throughput once attached.
    pub rate: BitsPerSecond,
    /// Time to attach and bring up the session.
    pub setup_time: SimDuration,
    /// Probability that an attach attempt fails outright.
    pub setup_failure_p: f64,
    /// Mean session lifetime before a spontaneous drop (exponential).
    pub mean_time_to_drop: SimDuration,
}

impl GprsConfig {
    /// The deployment's network as experienced in the field: 5 000 bps,
    /// ~45 s attach, ~7 % failed attaches, ~40 min mean session life —
    /// "communications fail … frequently, especially in the wetter summer
    /// environment" (§I) is layered on top by the caller raising
    /// `setup_failure_p` with the weather.
    pub fn field() -> Self {
        GprsConfig {
            rate: BitsPerSecond(5_000),
            setup_time: SimDuration::from_secs(45),
            setup_failure_p: 0.07,
            mean_time_to_drop: SimDuration::from_mins(40),
        }
    }

    /// An ideal lab network: instant, lossless, immortal sessions.
    pub fn ideal() -> Self {
        GprsConfig {
            rate: BitsPerSecond(5_000),
            setup_time: SimDuration::from_secs(5),
            setup_failure_p: 0.0,
            mean_time_to_drop: SimDuration::from_days(365),
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.rate.value() == 0 {
            return Err(ConfigError::new("gprs", "rate", "rate must be non-zero"));
        }
        if self.setup_time > MAX_ATTACH_TIME {
            return Err(ConfigError::new(
                "gprs",
                "setup_time",
                format!("setup time {} s exceeds an hour", self.setup_time.as_secs()),
            ));
        }
        if !(0.0..=1.0).contains(&self.setup_failure_p) {
            return Err(ConfigError::new(
                "gprs",
                "setup_failure_p",
                format!("setup failure {} not a probability", self.setup_failure_p),
            ));
        }
        if self.mean_time_to_drop.as_secs() == 0 {
            return Err(ConfigError::new(
                "gprs",
                "mean_time_to_drop",
                "mean time to drop must be non-zero",
            ));
        }
        Ok(())
    }
}

/// Outcome of one transfer attempt over an established session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferOutcome {
    /// Bytes that made it before the session ended or the budget ran out.
    pub sent: Bytes,
    /// Wall time consumed.
    pub elapsed: SimDuration,
    /// `true` if the session dropped mid-transfer (§II: the station must
    /// distinguish this from a completed transfer to decide whether to
    /// stay powered for a retry).
    pub dropped: bool,
}

impl TransferOutcome {
    /// `true` if everything requested was sent.
    pub fn complete(&self, requested: Bytes) -> bool {
        !self.dropped && self.sent >= requested
    }
}

/// A GPRS modem + network pair.
///
/// # Example
///
/// ```
/// use glacsweb_link::{GprsConfig, GprsLink};
/// use glacsweb_sim::{Bytes, SimDuration, SimRng};
///
/// let mut link = GprsLink::try_new(GprsConfig::ideal()).expect("valid config");
/// let mut rng = SimRng::seed_from(7);
/// let setup = link.connect(&mut rng).expect("ideal network attaches");
/// let out = link.transfer(Bytes::from_kib(165), SimDuration::from_hours(1), &mut rng);
/// assert!(out.complete(Bytes::from_kib(165)));
/// # let _ = setup;
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GprsLink {
    config: GprsConfig,
    connected: bool,
    /// Remaining session life drawn at connect time.
    session_life: SimDuration,
    total_sent: Bytes,
    attach_attempts: u64,
    attach_failures: u64,
    drops: u64,
}

impl GprsLink {
    /// Creates a link in the disconnected state, validating the
    /// configuration first.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid configuration field.
    pub fn try_new(config: GprsConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(GprsLink {
            config,
            connected: false,
            session_life: SimDuration::ZERO,
            total_sent: Bytes::ZERO,
            attach_attempts: 0,
            attach_failures: 0,
            drops: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &GprsConfig {
        &self.config
    }

    /// `true` while a session is up.
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// Lifetime bytes moved (feeds the per-MB cost meter).
    pub fn total_sent(&self) -> Bytes {
        self.total_sent
    }

    /// Attach attempts / failures / mid-session drops so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.attach_attempts, self.attach_failures, self.drops)
    }

    /// Attempts to bring up a session. On success returns the setup time
    /// spent; on failure returns `Err` with the time wasted.
    #[allow(clippy::result_large_err)]
    pub fn connect(&mut self, rng: &mut SimRng) -> Result<SimDuration, SimDuration> {
        self.connect_weathered(1.0, rng)
    }

    /// Attach attempt with a weather multiplier on the failure probability
    /// — §I: "the communications fail … frequently, especially in the
    /// wetter summer environment". A multiplier of 1.0 is the baseline;
    /// stations pass `1 + melt_index` so wet summers roughly double the
    /// failure rate. Also shortens the expected session life by the same
    /// factor.
    ///
    /// # Panics
    ///
    /// Panics if already connected or the multiplier is not positive.
    #[allow(clippy::result_large_err)]
    pub fn connect_weathered(
        &mut self,
        weather_multiplier: f64,
        rng: &mut SimRng,
    ) -> Result<SimDuration, SimDuration> {
        assert!(!self.connected, "already connected");
        assert!(
            weather_multiplier.is_finite() && weather_multiplier > 0.0,
            "weather multiplier must be positive"
        );
        self.attach_attempts += 1;
        // Weather can amplify failures up to 95 %, but never *reduces* a
        // configured hard failure (setup_failure_p = 1.0 stays absolute).
        let cap = self.config.setup_failure_p.max(0.95);
        let p = (self.config.setup_failure_p * weather_multiplier).min(cap);
        if rng.bernoulli(p) {
            self.attach_failures += 1;
            return Err(self.config.setup_time);
        }
        self.connected = true;
        let mean = self.config.mean_time_to_drop.as_secs() as f64 / weather_multiplier;
        self.session_life = SimDuration::from_secs_f64(rng.exponential(1.0 / mean.max(1.0)));
        Ok(self.config.setup_time)
    }

    /// Transfers up to `size` bytes within `budget` wall time.
    ///
    /// The session may drop mid-transfer; the outcome says how far it got.
    /// After a drop the link is disconnected and must be re-attached.
    ///
    /// # Panics
    ///
    /// Panics if not connected.
    pub fn transfer(
        &mut self,
        size: Bytes,
        budget: SimDuration,
        rng: &mut SimRng,
    ) -> TransferOutcome {
        assert!(self.connected, "transfer on a down link");
        let _ = rng; // drop time was pre-drawn at connect
        let need = self.config.rate.transfer_time(size);
        let until_drop = self.session_life;
        let allowed = need.min(budget).min(until_drop);
        let sent = self.config.rate.capacity(allowed).min(size);
        let dropped = until_drop < need.min(budget);
        self.session_life = self.session_life.saturating_sub(allowed);
        if dropped {
            self.connected = false;
            self.drops += 1;
        }
        self.total_sent += sent;
        TransferOutcome {
            sent,
            elapsed: allowed,
            dropped,
        }
    }

    /// Cleanly closes the session (transfer finished — §II: the radio "can
    /// immediately be turned off to conserve power").
    pub fn disconnect(&mut self) {
        self.connected = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_link_moves_everything() {
        let mut link = GprsLink::try_new(GprsConfig::ideal()).unwrap();
        let mut rng = SimRng::seed_from(50);
        link.connect(&mut rng).expect("attach");
        let size = Bytes::from_kib(500);
        let out = link.transfer(size, SimDuration::from_hours(2), &mut rng);
        assert!(out.complete(size));
        assert!(!out.dropped);
        // 500 KiB at 625 B/s ≈ 819 s.
        assert!(
            (out.elapsed.as_secs() as i64 - 819).abs() < 5,
            "{:?}",
            out.elapsed
        );
        link.disconnect();
        assert!(!link.is_connected());
    }

    #[test]
    fn budget_truncates_transfers() {
        let mut link = GprsLink::try_new(GprsConfig::ideal()).unwrap();
        let mut rng = SimRng::seed_from(51);
        link.connect(&mut rng).expect("attach");
        let out = link.transfer(Bytes::from_mib(10), SimDuration::from_mins(1), &mut rng);
        assert!(!out.complete(Bytes::from_mib(10)));
        assert_eq!(out.elapsed, SimDuration::from_mins(1));
        // 60 s × 625 B/s = 37 500 B.
        assert_eq!(out.sent, Bytes(37_500));
        assert!(!out.dropped, "budget exhaustion is not a drop");
        assert!(link.is_connected(), "session survives a budget cut");
    }

    #[test]
    fn field_network_fails_attaches_sometimes() {
        let mut link = GprsLink::try_new(GprsConfig::field()).unwrap();
        let mut rng = SimRng::seed_from(52);
        let mut failures = 0;
        for _ in 0..1000 {
            match link.connect(&mut rng) {
                Ok(_) => link.disconnect(),
                Err(wasted) => {
                    failures += 1;
                    assert_eq!(wasted, SimDuration::from_secs(45));
                }
            }
        }
        let rate = failures as f64 / 1000.0;
        assert!((rate - 0.07).abs() < 0.03, "attach failure rate {rate}");
        let (attempts, fails, _) = link.stats();
        assert_eq!(attempts, 1000);
        assert_eq!(fails, failures);
    }

    #[test]
    fn sessions_drop_mid_transfer() {
        // Short-lived sessions + a big file → drops dominate.
        let config = GprsConfig {
            mean_time_to_drop: SimDuration::from_mins(5),
            setup_failure_p: 0.0,
            ..GprsConfig::field()
        };
        let mut link = GprsLink::try_new(config).unwrap();
        let mut rng = SimRng::seed_from(53);
        let mut dropped = 0;
        for _ in 0..200 {
            link.connect(&mut rng).expect("attach");
            let out = link.transfer(Bytes::from_mib(2), SimDuration::from_hours(2), &mut rng);
            if out.dropped {
                dropped += 1;
                assert!(!link.is_connected());
                assert!(out.sent < Bytes::from_mib(2));
            } else {
                link.disconnect();
            }
        }
        // 2 MiB needs ~56 min; mean session 5 min → nearly always drops.
        assert!(dropped > 180, "dropped {dropped}/200");
    }

    #[test]
    fn partial_progress_is_kept_across_drops() {
        // File-by-file resume: even with drops, repeated sessions
        // eventually move the whole payload.
        let config = GprsConfig {
            mean_time_to_drop: SimDuration::from_mins(10),
            setup_failure_p: 0.0,
            ..GprsConfig::field()
        };
        let mut link = GprsLink::try_new(config).unwrap();
        let mut rng = SimRng::seed_from(54);
        let total = Bytes::from_mib(2);
        let mut remaining = total;
        let mut sessions = 0;
        while remaining.value() > 0 && sessions < 100 {
            if link.connect(&mut rng).is_ok() {
                let out = link.transfer(remaining, SimDuration::from_hours(2), &mut rng);
                remaining = remaining.saturating_sub(out.sent);
                if !out.dropped {
                    link.disconnect();
                }
            }
            sessions += 1;
        }
        assert_eq!(
            remaining,
            Bytes::ZERO,
            "resume finishes in {sessions} sessions"
        );
        assert!(sessions > 1, "needed more than one session");
        assert_eq!(link.total_sent(), total);
    }

    #[test]
    fn weather_multiplier_scales_failures() {
        let mut rng = SimRng::seed_from(90);
        let rate_at = |mult: f64, rng: &mut SimRng| {
            let mut link = GprsLink::try_new(GprsConfig::field()).unwrap();
            let mut failures = 0u32;
            for _ in 0..2000 {
                if link.connect_weathered(mult, rng).is_err() {
                    failures += 1;
                } else {
                    link.disconnect();
                }
            }
            f64::from(failures) / 2000.0
        };
        let dry = rate_at(1.0, &mut rng);
        let wet = rate_at(2.0, &mut rng);
        assert!((dry - 0.07).abs() < 0.02, "dry {dry}");
        assert!(
            (wet - 0.14).abs() < 0.03,
            "wet summer doubles failures: {wet}"
        );
    }

    #[test]
    #[should_panic(expected = "multiplier must be positive")]
    fn rejects_bad_weather_multiplier() {
        let mut link = GprsLink::try_new(GprsConfig::field()).unwrap();
        let mut rng = SimRng::seed_from(1);
        let _ = link.connect_weathered(0.0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "transfer on a down link")]
    fn transfer_requires_connection() {
        let mut link = GprsLink::try_new(GprsConfig::ideal()).unwrap();
        let mut rng = SimRng::seed_from(55);
        let _ = link.transfer(Bytes(1), SimDuration::from_secs(1), &mut rng);
    }

    #[test]
    #[should_panic(expected = "invalid GPRS config")]
    fn rejects_invalid_config() {
        let bad = GprsConfig {
            setup_failure_p: 2.0,
            ..GprsConfig::ideal()
        };
        GprsLink::try_new(bad).expect("invalid GPRS config");
    }
}
