//! Canned deployment scenarios.

use glacsweb_env::EnvConfig;
use glacsweb_link::GprsConfig;
use glacsweb_probe::MortalityModel;
use glacsweb_sim::SimTime;
use glacsweb_station::{ControllerConfig, StationConfig};

use crate::deployment::DeploymentBuilder;

/// Pre-configured deployments matching the paper's settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario;

impl Scenario {
    /// The paper's deployment: Vatnajökull, summer 2008. Base station
    /// (solar + wind, 7 probes) and café reference station (solar +
    /// seasonal mains), deployed-2008 software including its documented
    /// pitfalls, field-grade GPRS, probe mortality calibrated to §V.
    pub fn iceland_2008() -> DeploymentBuilder {
        DeploymentBuilder::new(EnvConfig::vatnajokull())
            .seed(2008)
            .start(SimTime::from_ymd_hms(2008, 8, 15, 0, 0, 0))
            .base(StationConfig::base_2008())
            .reference(StationConfig::reference_2008())
            .probes(7)
            .mortality(MortalityModel::paper_2008())
    }

    /// The same deployment with every lessons-learnt fix applied
    /// (special-before-upload ordering, unlimited individual fetches,
    /// trimmed logging) — the ablation partner of
    /// [`Scenario::iceland_2008`].
    pub fn iceland_lessons_learnt() -> DeploymentBuilder {
        let mut base = StationConfig::base_2008();
        base.controller = ControllerConfig::lessons_learnt();
        let mut reference = StationConfig::reference_2008();
        reference.controller = ControllerConfig::lessons_learnt();
        DeploymentBuilder::new(EnvConfig::vatnajokull())
            .seed(2008)
            .start(SimTime::from_ymd_hms(2008, 8, 15, 0, 0, 0))
            .base(base)
            .reference(reference)
            .probes(7)
            .mortality(MortalityModel::paper_2008())
    }

    /// A benign lab bring-up: Southampton bench conditions, ideal GPRS,
    /// three probes on the desk, no mortality. §VI: "testing on similar
    /// hardware in the lab before the code or binaries are sent".
    pub fn lab_bringup() -> DeploymentBuilder {
        let mut base = StationConfig::base_2008();
        base.gprs = GprsConfig::ideal();
        base.controller = ControllerConfig::lessons_learnt();
        let mut reference = StationConfig::reference_2008();
        reference.gprs = GprsConfig::ideal();
        reference.controller = ControllerConfig::lessons_learnt();
        DeploymentBuilder::new(EnvConfig::lab())
            .seed(1)
            .start(SimTime::from_ymd_hms(2008, 6, 1, 0, 0, 0))
            .base(base)
            .reference(reference)
            .probes(3)
    }

    /// The Norway-style *architecture* on the Iceland site: the base
    /// station's data rides the 466 MHz radio-modem relay through the
    /// reference station — the §II baseline the dual-GPRS design replaced.
    pub fn iceland_relay_architecture() -> DeploymentBuilder {
        DeploymentBuilder::new(EnvConfig::vatnajokull())
            .seed(2008)
            .start(SimTime::from_ymd_hms(2008, 8, 15, 0, 0, 0))
            .base(StationConfig::base_norway_relay())
            .reference(StationConfig::reference_2008())
            .probes(7)
            .mortality(MortalityModel::paper_2008())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_build() {
        let _ = Scenario::iceland_2008().build();
        let _ = Scenario::iceland_lessons_learnt().build();
        let _ = Scenario::lab_bringup().build();
        let _ = Scenario::iceland_relay_architecture().build();
    }

    #[test]
    fn iceland_runs_a_week() {
        let mut d = Scenario::iceland_2008().build();
        d.run_days(7);
        let s = d.summary();
        assert!(
            s.windows_run >= 10,
            "two stations, most days: {}",
            s.windows_run
        );
        assert_eq!(s.probes_deployed, 7);
    }

    #[test]
    fn lab_bringup_is_clean() {
        let mut d = Scenario::lab_bringup().build();
        d.run_days(3);
        let s = d.summary();
        assert_eq!(s.windows_cut, 0, "no watchdog cuts on the bench");
        assert_eq!(s.power_losses, 0);
    }
}
