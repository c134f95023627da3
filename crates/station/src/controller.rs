//! Controller configuration and the daily window report.

use glacsweb_faults::RetryPolicy;
use glacsweb_probe::ProtocolConfig;
use glacsweb_sim::{ConfigError, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::data::UploadReport;
use crate::power_state::PowerState;
use crate::uplink::StationId;

/// Severity of a station log line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TraceLevel {
    /// Routine progress suitable for remote debugging.
    Debug,
    /// Normal operational milestones.
    Info,
    /// Recoverable anomalies (dropped link, missed packets).
    Warn,
    /// Failures requiring intervention or recovery logic.
    Error,
}

/// Tunables of the daily-run controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Hard limit on one window (§VI: two hours).
    pub watchdog_limit: SimDuration,
    /// `false` reproduces the deployed Fig 4 ordering (special command
    /// fetched and executed *after* the data upload — the §VI lesson);
    /// `true` applies the paper's proposed fix ("the execution of remote
    /// code is performed before the data is transferred").
    pub special_before_upload: bool,
    /// Probe-retrieval protocol configuration.
    pub protocol: ProtocolConfig,
    /// Time budget per probe per window.
    pub probe_budget: SimDuration,
    /// GPRS attach retry policy per window: attempt budget plus
    /// exponential backoff between attempts (§VI recovery discipline).
    pub attach_retry: RetryPolicy,
    /// Retry policy for server-side fetches (override, special, update)
    /// when the server is unreachable.
    pub fetch_retry: RetryPolicy,
    /// Log verbosity left in the deployed binaries (§VI: too much output
    /// "takes time/power/money to transfer but is of little use").
    pub log_min_level: TraceLevel,
    /// §VII future-work extension: "analyse the data collected and
    /// prioritise it, forcing communication even if the available power is
    /// marginal if the data warrants it". When enabled, a detected
    /// priority event (sharp conductivity rise — melt water reaching the
    /// bed) permits a minimal GPRS upload even in power state 0.
    pub priority_data: bool,
    /// Conductivity jump (µS, batch mean vs previous batch mean) that
    /// counts as a priority event.
    pub priority_conductivity_jump_us: f64,
}

impl ControllerConfig {
    /// The system as deployed in 2008, including both documented pitfalls
    /// (special-after-upload ordering and the individual-fetch limit).
    pub fn deployed_2008() -> Self {
        ControllerConfig {
            watchdog_limit: SimDuration::from_hours(2),
            special_before_upload: false,
            protocol: ProtocolConfig::deployed_2008(),
            probe_budget: SimDuration::from_mins(25),
            attach_retry: RetryPolicy::gprs_attach(),
            fetch_retry: RetryPolicy::server_fetch(),
            log_min_level: TraceLevel::Debug,
            priority_data: false,
            priority_conductivity_jump_us: 3.0,
        }
    }

    /// The lessons-learnt configuration with the §VII priority-data
    /// extension enabled.
    pub fn with_priority_data() -> Self {
        ControllerConfig {
            priority_data: true,
            ..ControllerConfig::lessons_learnt()
        }
    }

    /// The post-lessons-learnt configuration: special before upload, fixed
    /// protocol, log output trimmed to Info.
    pub fn lessons_learnt() -> Self {
        ControllerConfig {
            special_before_upload: true,
            protocol: ProtocolConfig::fixed(),
            log_min_level: TraceLevel::Info,
            ..ControllerConfig::deployed_2008()
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.watchdog_limit.as_secs() == 0 {
            return Err(ConfigError::new(
                "controller",
                "watchdog_limit",
                "watchdog limit must be non-zero",
            ));
        }
        if !self.priority_conductivity_jump_us.is_finite()
            || self.priority_conductivity_jump_us <= 0.0
        {
            return Err(ConfigError::new(
                "controller",
                "priority_conductivity_jump_us",
                "priority jump threshold must be positive",
            ));
        }
        self.attach_retry.validate()?;
        self.fetch_retry.validate()?;
        self.protocol.validate()
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig::lessons_learnt()
    }
}

/// Everything that happened in one daily communications window — the
/// simulation's equivalent of the station's daily logfile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowReport {
    /// Which station ran.
    pub station: StationId,
    /// Window open (MSP430 wake) time.
    pub opened: SimTime,
    /// When the Gumstix was powered off again.
    pub closed: SimTime,
    /// `true` if the 2-hour watchdog cut the run.
    pub cut_by_watchdog: bool,
    /// `true` if the battery died mid-window.
    pub died_mid_window: bool,
    /// State computed from the daily voltage average.
    pub local_state: PowerState,
    /// Override fetched from the server (if the fetch succeeded).
    pub override_state: Option<PowerState>,
    /// State actually written to tomorrow's schedule.
    pub applied_state: PowerState,
    /// Probes that answered the query.
    pub probes_contacted: usize,
    /// New probe readings retrieved.
    pub probe_readings: usize,
    /// `true` if any probe fetch hit the §V individual-fetch failure.
    pub probe_fetch_aborted: bool,
    /// dGPS files pulled over RS-232 this window.
    pub gps_files_fetched: usize,
    /// `true` if a dGPS file larger than the whole window is stuck (§VI).
    pub gps_file_stuck: bool,
    /// Whether a GPRS session came up at all.
    pub gprs_connected: bool,
    /// Whether today's power state reached the server.
    pub state_uploaded: bool,
    /// Upload activity.
    pub upload: UploadReport,
    /// Special command executed this window, if any.
    pub special_executed: Option<u64>,
    /// Code update applied this window (file name), if any.
    pub update_applied: Option<String>,
    /// Code update rejected on checksum mismatch, if any.
    pub update_rejected: Option<String>,
    /// Clock/schedule recovery performed at wake (§IV), if it ran.
    pub recovered: bool,
    /// §VII extension: a priority event forced communications despite
    /// power state 0.
    pub priority_forced: bool,
    /// §VII: CF-card corruption was detected and recovered at this wake —
    /// `(files kept, files lost)`.
    pub card_recovered: Option<(usize, usize)>,
    /// The Fig 4 steps actually executed this window, in order — lets
    /// tests assert the flowchart itself.
    pub steps: Vec<String>,
}

impl WindowReport {
    /// Total window duration.
    pub fn duration(&self) -> SimDuration {
        self.closed.saturating_since(self.opened)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployed_config_has_the_documented_pitfalls() {
        let c = ControllerConfig::deployed_2008();
        assert!(
            !c.special_before_upload,
            "special runs after upload as deployed"
        );
        assert!(c.protocol.individual_fetch_limit.is_some());
        assert_eq!(c.watchdog_limit, SimDuration::from_hours(2));
        c.validate().expect("valid");
    }

    #[test]
    fn lessons_learnt_fixes_them() {
        let c = ControllerConfig::lessons_learnt();
        assert!(c.special_before_upload);
        assert!(c.protocol.individual_fetch_limit.is_none());
        assert!(c.log_min_level >= TraceLevel::Info);
        c.validate().expect("valid");
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = ControllerConfig {
            watchdog_limit: SimDuration::ZERO,
            ..ControllerConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ControllerConfig {
            attach_retry: RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::gprs_attach()
            },
            ..ControllerConfig::default()
        };
        let err = c.validate().expect_err("zero attach attempts");
        assert_eq!(err.component(), "retry");
        assert_eq!(err.field(), "max_attempts");
        let c = ControllerConfig {
            priority_conductivity_jump_us: -1.0,
            ..ControllerConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
