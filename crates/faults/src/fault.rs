//! The fault vocabulary and the declarative chaos schedule.

use glacsweb_sim::{ConfigError, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// What a fault afflicts.
///
/// Mirrors the deployment topology: the two Gumsense stations, an
/// individual subglacial probe, or the Southampton server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultTarget {
    /// The glacier base station.
    Base,
    /// The café dGPS reference station.
    Reference,
    /// One subglacial probe, by its paper numbering (21, 22, …).
    Probe(u32),
    /// The Southampton server.
    Server,
}

/// One of the paper's §VI failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// §I: "communications fail … frequently, especially in the wetter
    /// summer environment" — multiplies the station's GPRS weather
    /// multiplier, degrading attaches and shortening sessions.
    GprsDegradation {
        /// Extra multiplier on the attach-failure probability (≥ 1;
        /// large values approximate a full blackout — the link model
        /// caps the resulting failure probability at 95 %).
        severity: f64,
    },
    /// §VI: the intermittent RS-232 cable between the Gumstix and the
    /// dGPS receiver — readings strand on the receiver's card.
    Rs232Fault,
    /// §VII: CF/SD-card filesystem corruption, detected (lossily
    /// recovered) at the next window's mount. Instantaneous.
    SdCorruption,
    /// §VI: the Southampton end goes dark; uploads are lost in flight
    /// and every control fetch fails.
    ServerUnreachable,
    /// §IV: total battery exhaustion — the RTC resets to 1970 and the
    /// RAM schedule is lost; recovery is the GPS-fix/sleep-a-day path.
    /// Instantaneous (the battery then recharges from the environment).
    PowerFailure,
    /// §V: the probe radio goes silent. Targeted at a station it kills
    /// the wired gateway probe (every probe unreachable); targeted at
    /// [`FaultTarget::Probe`] it silences just that probe's radio.
    ProbeRadioBlackout,
    /// §VI: "a SCP transfer hangs" — uploads stall until the two-hour
    /// watchdog cuts the window.
    StuckTransfer,
}

impl Fault {
    /// Short stable label used in metrics and rendered tables.
    pub fn label(self) -> &'static str {
        match self {
            Fault::GprsDegradation { .. } => "gprs_degradation",
            Fault::Rs232Fault => "rs232_fault",
            Fault::SdCorruption => "sd_corruption",
            Fault::ServerUnreachable => "server_unreachable",
            Fault::PowerFailure => "power_failure",
            Fault::ProbeRadioBlackout => "probe_radio_blackout",
            Fault::StuckTransfer => "stuck_transfer",
        }
    }

    /// `true` for one-shot faults that fire at onset and have no
    /// activate/clear span (their `duration` is ignored).
    pub fn is_instantaneous(self) -> bool {
        matches!(self, Fault::SdCorruption | Fault::PowerFailure)
    }
}

/// One scheduled fault: what, where, when, for how long, how often.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// The failure mode.
    pub fault: Fault,
    /// What it afflicts.
    pub target: FaultTarget,
    /// Onset, measured from the deployment start.
    pub onset: SimDuration,
    /// How long the fault stays active (ignored for instantaneous
    /// faults).
    pub duration: SimDuration,
    /// Onset-to-onset period for a recurring fault; `None` fires once.
    pub recurrence: Option<SimDuration>,
}

impl FaultSpec {
    /// Creates a one-shot spec.
    pub fn new(
        fault: Fault,
        target: FaultTarget,
        onset: SimDuration,
        duration: SimDuration,
    ) -> Self {
        FaultSpec {
            fault,
            target,
            onset,
            duration,
            recurrence: None,
        }
    }

    /// Makes the spec recur with the given onset-to-onset period.
    pub fn recurring(mut self, every: SimDuration) -> Self {
        self.recurrence = Some(every);
        self
    }

    /// The absolute first activation instant for a deployment starting
    /// at `start`.
    fn first_onset(&self, start: SimTime) -> SimTime {
        start + self.onset
    }

    /// Validates internal coherence.
    ///
    /// # Errors
    ///
    /// Returns the first incoherent field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let Fault::GprsDegradation { severity } = self.fault {
            if !severity.is_finite() || severity < 1.0 {
                return Err(ConfigError::new(
                    "fault",
                    "severity",
                    format!("{severity} must be a finite multiplier >= 1"),
                ));
            }
        }
        if !self.fault.is_instantaneous() && self.duration.as_secs() == 0 {
            return Err(ConfigError::new(
                "fault",
                "duration",
                format!("{} needs a non-zero duration", self.fault.label()),
            ));
        }
        match (self.fault, self.target) {
            (Fault::ServerUnreachable, FaultTarget::Server) => {}
            (Fault::ServerUnreachable, t) => {
                return Err(ConfigError::new(
                    "fault",
                    "target",
                    format!("server_unreachable targets the server, not {t:?}"),
                ));
            }
            (_, FaultTarget::Server) => {
                return Err(ConfigError::new(
                    "fault",
                    "target",
                    format!("{} cannot target the server", self.fault.label()),
                ));
            }
            (Fault::ProbeRadioBlackout, _) => {}
            (_, FaultTarget::Probe(id)) => {
                return Err(ConfigError::new(
                    "fault",
                    "target",
                    format!("{} cannot target probe {id}", self.fault.label()),
                ));
            }
            _ => {}
        }
        if let Some(every) = self.recurrence {
            let floor = if self.fault.is_instantaneous() {
                SimDuration::from_secs(1)
            } else {
                self.duration
            };
            if every <= floor {
                return Err(ConfigError::new(
                    "fault",
                    "recurrence",
                    format!(
                        "period {every} must exceed the active span {floor} or activations overlap"
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// A deterministic chaos schedule: the full set of faults one run will
/// replay. Two runs with the same seed and the same plan are
/// byte-identical.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults — the healthy baseline).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a spec, builder-style.
    #[must_use]
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Adds a spec in place.
    pub fn push(&mut self, spec: FaultSpec) {
        self.specs.push(spec);
    }

    /// The scheduled specs, in insertion order (indices into this slice
    /// identify faults in metrics).
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Number of scheduled specs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Validates every spec.
    ///
    /// # Errors
    ///
    /// Returns the first invalid spec's error.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for spec in &self.specs {
            spec.validate()?;
        }
        Ok(())
    }

    /// `(first activation instant, spec index)` pairs for a deployment
    /// starting at `start` — what the event loop seeds its queue with.
    pub fn first_onsets(&self, start: SimTime) -> Vec<(SimTime, usize)> {
        self.specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.first_onset(start), i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn week_outage() -> FaultSpec {
        FaultSpec::new(
            Fault::ServerUnreachable,
            FaultTarget::Server,
            SimDuration::from_days(3),
            SimDuration::from_days(7),
        )
    }

    #[test]
    fn plan_builds_and_validates() {
        let plan = FaultPlan::new().with(week_outage()).with(FaultSpec::new(
            Fault::Rs232Fault,
            FaultTarget::Base,
            SimDuration::from_days(1),
            SimDuration::from_days(2),
        ));
        plan.validate().expect("valid");
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    fn first_onsets_are_start_relative() {
        let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let plan = FaultPlan::new().with(week_outage());
        let onsets = plan.first_onsets(start);
        assert_eq!(onsets, vec![(start + SimDuration::from_days(3), 0)]);
    }

    #[test]
    fn server_fault_must_target_the_server() {
        let mut s = week_outage();
        s.target = FaultTarget::Base;
        let e = s.validate().unwrap_err();
        assert_eq!(e.field(), "target");
        let s = FaultSpec::new(
            Fault::Rs232Fault,
            FaultTarget::Server,
            SimDuration::ZERO,
            SimDuration::from_days(1),
        );
        assert_eq!(s.validate().unwrap_err().field(), "target");
    }

    #[test]
    fn probe_targets_only_fit_radio_blackouts() {
        let ok = FaultSpec::new(
            Fault::ProbeRadioBlackout,
            FaultTarget::Probe(21),
            SimDuration::ZERO,
            SimDuration::from_days(1),
        );
        ok.validate().expect("valid");
        let bad = FaultSpec::new(
            Fault::Rs232Fault,
            FaultTarget::Probe(21),
            SimDuration::ZERO,
            SimDuration::from_days(1),
        );
        assert_eq!(bad.validate().unwrap_err().field(), "target");
    }

    #[test]
    fn durations_and_recurrence_are_checked() {
        let zero = FaultSpec::new(
            Fault::Rs232Fault,
            FaultTarget::Base,
            SimDuration::ZERO,
            SimDuration::ZERO,
        );
        assert_eq!(zero.validate().unwrap_err().field(), "duration");
        // Instantaneous faults need no duration.
        let corrupt = FaultSpec::new(
            Fault::SdCorruption,
            FaultTarget::Base,
            SimDuration::from_days(1),
            SimDuration::ZERO,
        );
        corrupt.validate().expect("instantaneous");
        // Overlapping recurrence is rejected.
        let overlapping = week_outage().recurring(SimDuration::from_days(5));
        assert_eq!(overlapping.validate().unwrap_err().field(), "recurrence");
        week_outage()
            .recurring(SimDuration::from_days(14))
            .validate()
            .expect("valid recurrence");
    }

    #[test]
    fn degradation_severity_is_checked() {
        let weak = FaultSpec::new(
            Fault::GprsDegradation { severity: 0.5 },
            FaultTarget::Base,
            SimDuration::ZERO,
            SimDuration::from_days(1),
        );
        assert_eq!(weak.validate().unwrap_err().field(), "severity");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Fault::StuckTransfer.label(), "stuck_transfer");
        assert!(Fault::SdCorruption.is_instantaneous());
        assert!(Fault::PowerFailure.is_instantaneous());
        assert!(!Fault::ServerUnreachable.is_instantaneous());
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::new().with(week_outage().recurring(SimDuration::from_days(30)));
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(plan, back);
    }
}
