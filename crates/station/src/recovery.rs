//! §IV — automatic schedule resetting after total power loss.
//!
//! "The systems have external power inputs meaning that their batteries
//! can recover from total exhaustion. However, this has to be detected
//! because the schedule for the microprocessor is stored in RAM so will
//! need to be re-written; a more fundamental issue is that the real time
//! clock will have reset to 0 which is 01/01/1970 00:00."
//!
//! Detection: the stored `last_run` timestamp survives (flash); a clock
//! reading *before* it means the RTC cannot be trusted. Recovery: take a
//! GPS time fix; on failure "the system will sleep for a day and try
//! again"; optionally fall back to NTP over GPRS (the paper's suggested
//! future extension). Once the clock is fixed, the schedule is rebuilt in
//! state 0.

use glacsweb_sim::{ConfigError, SimDuration};
use serde::{Deserialize, Serialize};

/// Recovery tunables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Probability a GPS time-fix attempt succeeds (sky view, constellation).
    pub gps_fix_success_p: f64,
    /// GPS-on time consumed by one fix attempt.
    pub gps_fix_duration: SimDuration,
    /// Enable the NTP-over-GPRS fallback (§IV: "in the future this could
    /// also be extended to fall back to getting the time using the GPRS
    /// link and network time protocol").
    pub ntp_fallback: bool,
    /// Probability the NTP fallback succeeds when attempted.
    pub ntp_success_p: f64,
}

impl RecoveryConfig {
    /// The system as deployed: GPS fix only, no NTP fallback.
    pub fn deployed_2008() -> Self {
        RecoveryConfig {
            gps_fix_success_p: 0.85,
            gps_fix_duration: SimDuration::from_mins(10),
            ntp_fallback: false,
            ntp_success_p: 0.9,
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, p) in [
            ("gps_fix_success_p", self.gps_fix_success_p),
            ("ntp_success_p", self.ntp_success_p),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(ConfigError::new(
                    "recovery",
                    name,
                    format!("{p} not a probability"),
                ));
            }
        }
        if self.gps_fix_duration.as_secs() == 0 {
            return Err(ConfigError::new(
                "recovery",
                "gps_fix_duration",
                "gps fix duration must be non-zero",
            ));
        }
        Ok(())
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig::deployed_2008()
    }
}

/// How one wake-time recovery check concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryOutcome {
    /// Clock and schedule were healthy; no recovery needed.
    NotNeeded,
    /// Clock re-set from a GPS fix; schedule rebuilt in state 0.
    RecoveredViaGps,
    /// Clock re-set via the NTP fallback; schedule rebuilt in state 0.
    RecoveredViaNtp,
    /// All time sources failed; sleeping a day before retrying (§IV).
    SleepAndRetry,
}

impl RecoveryOutcome {
    /// `true` if a recovery action (not merely a check) took place.
    pub fn recovered(self) -> bool {
        matches!(
            self,
            RecoveryOutcome::RecoveredViaGps | RecoveryOutcome::RecoveredViaNtp
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployed_config_is_valid_and_gps_only() {
        let c = RecoveryConfig::deployed_2008();
        c.validate().expect("valid");
        assert!(!c.ntp_fallback);
    }

    #[test]
    fn ntp_variant_enables_fallback() {
        let c = RecoveryConfig {
            ntp_fallback: true,
            ..RecoveryConfig::deployed_2008()
        };
        assert!(c.ntp_fallback);
        c.validate().expect("valid");
    }

    #[test]
    fn outcome_predicates() {
        assert!(!RecoveryOutcome::NotNeeded.recovered());
        assert!(RecoveryOutcome::RecoveredViaGps.recovered());
        assert!(RecoveryOutcome::RecoveredViaNtp.recovered());
        assert!(!RecoveryOutcome::SleepAndRetry.recovered());
    }

    #[test]
    fn validation_catches_bad_probability() {
        let mut c = RecoveryConfig::deployed_2008();
        c.gps_fix_success_p = 1.5;
        assert!(c.validate().is_err());
        let mut c = RecoveryConfig::deployed_2008();
        c.gps_fix_duration = SimDuration::ZERO;
        assert!(c.validate().is_err());
    }
}
