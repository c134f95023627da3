//! E12 — ablations of the paper's design choices.
//!
//! Three studies:
//!
//! 1. **Duty-cycling** (the Gumsense premise): an always-on Linux base
//!    station vs the MSP430-supervised design, through a dark winter.
//! 2. **Adaptive power states** (Table II) vs fixed state 3 and fixed
//!    state 1, trading survival against dGPS data yield.
//! 3. **Log discipline** (§VI): deployed debug-level logging vs trimmed
//!    info-level logging, in upload bytes.

use glacsweb_link::GprsConfig;
use glacsweb_sim::{SimTime, Volts};
use glacsweb_station::{ControllerConfig, PolicyTable, PowerState, StationConfig, TraceLevel};
use serde::{Deserialize, Serialize};

use crate::deployment::{Deployment, DeploymentBuilder};
use glacsweb_env::EnvConfig;

/// One policy variant's winter outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyOutcome {
    /// Battery exhaustions over the winter run.
    pub power_losses: u64,
    /// dGPS readings taken.
    pub gps_readings: u64,
    /// Bytes delivered to the server.
    pub uploaded_mib: f64,
    /// Final battery state of charge.
    pub final_soc: f64,
}

/// The E12 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ablation {
    /// Days an always-on 900 mW Linux node survives the winter bank
    /// (analytic, no charging).
    pub always_on_days: f64,
    /// Days the Gumsense duty cycle survives the same bank (analytic,
    /// ~35 min/day of Gumstix time as measured from the simulation).
    pub duty_cycled_days: f64,
    /// Measured Gumstix on-time per day from a winter run, minutes.
    pub measured_gumstix_min_per_day: f64,
    /// Adaptive Table II policy.
    pub adaptive: PolicyOutcome,
    /// Policy pinned to state 3.
    pub fixed_s3: PolicyOutcome,
    /// Policy pinned to state 1 (no GPS at all).
    pub fixed_s1: PolicyOutcome,
    /// Log bytes shipped with deployed debug logging, MiB.
    pub debug_log_mib: f64,
    /// Log bytes shipped with trimmed info logging, MiB.
    pub info_log_mib: f64,
}

/// A policy table pinned to one state regardless of voltage (thresholds
/// pushed to the extremes).
fn pinned(state: PowerState) -> PolicyTable {
    match state {
        PowerState::S3 => PolicyTable {
            s3_min: Volts(0.0),
            s2_min: Volts(0.0),
            s1_min: Volts(0.0),
        },
        PowerState::S1 => PolicyTable {
            s3_min: Volts(99.0),
            s2_min: Volts(99.0),
            s1_min: Volts(0.0),
        },
        _ => PolicyTable::paper(),
    }
}

fn winter_run(policy: PolicyTable, initial: PowerState, seed: u64) -> Deployment {
    let start = SimTime::from_ymd_hms(2008, 11, 1, 0, 0, 0);
    let end = SimTime::from_ymd_hms(2009, 3, 1, 0, 0, 0);
    let mut base = StationConfig::base_2008();
    base.gprs = GprsConfig::field();
    base.policy = policy;
    base.initial_state = initial;
    base.wind = None; // a hard winter: wind generator lost to the storm
    let mut d = DeploymentBuilder::new(EnvConfig::vatnajokull())
        .seed(seed)
        .start(start)
        .base(base)
        .build();
    d.run_until(end);
    d
}

fn outcome(d: &Deployment) -> PolicyOutcome {
    let s = d.base().expect("base");
    PolicyOutcome {
        power_losses: s.power_losses(),
        gps_readings: s.dgps().readings_taken(),
        uploaded_mib: s.store().total_uploaded().as_mib_f64(),
        final_soc: s.rail().battery().state_of_charge(),
    }
}

fn log_run(level: TraceLevel, seed: u64) -> f64 {
    let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
    let mut base = StationConfig::base_2008();
    base.gprs = GprsConfig::ideal();
    base.controller = ControllerConfig {
        log_min_level: level,
        ..ControllerConfig::lessons_learnt()
    };
    let mut d = DeploymentBuilder::new(EnvConfig::vatnajokull())
        .seed(seed)
        .start(start)
        .base(base)
        .probes(3)
        .build();
    d.run_days(20);
    let (_, _, _, log_bytes) = d.server().warehouse().totals();
    log_bytes.as_mib_f64()
}

/// One independent ablation arm (self-seeded, so arms can run on the
/// parallel sweep engine in any order).
enum Arm {
    Winter(PolicyTable, PowerState, u64),
    Log(TraceLevel, u64),
}

/// The raw product of one arm.
enum ArmOut {
    Winter(Box<Deployment>),
    Log(f64),
}

/// Runs all three ablations.
///
/// The five underlying runs (three winters, two logging summers) are
/// independent and keyed only on their own seeds, so they execute on the
/// parallel sweep engine; results are byte-identical at any thread count.
pub fn run(seed: u64) -> Ablation {
    let arms = vec![
        Arm::Winter(PolicyTable::paper(), PowerState::S3, seed),
        Arm::Winter(pinned(PowerState::S3), PowerState::S3, seed + 1),
        Arm::Winter(pinned(PowerState::S1), PowerState::S1, seed + 2),
        Arm::Log(TraceLevel::Debug, seed + 3),
        Arm::Log(TraceLevel::Info, seed + 3),
    ];
    let mut outs = glacsweb_sweep::run_cells(arms, glacsweb_sweep::threads(), |arm| match arm {
        Arm::Winter(policy, initial, s) => ArmOut::Winter(Box::new(winter_run(policy, initial, s))),
        Arm::Log(level, s) => ArmOut::Log(log_run(level, s)),
    })
    .into_iter();
    let mut next_winter = || match outs.next() {
        Some(ArmOut::Winter(d)) => d,
        _ => unreachable!("arm order is fixed"),
    };
    let adaptive_run = next_winter();
    let fixed_s3_run = next_winter();
    let fixed_s1_run = next_winter();
    let mut next_log = || match outs.next() {
        Some(ArmOut::Log(mib)) => mib,
        _ => unreachable!("arm order is fixed"),
    };
    let debug_log_mib = next_log();
    let info_log_mib = next_log();

    // Study 2 (the adaptive winter also yields the measured duty cycle).
    let adaptive = outcome(&adaptive_run);
    let days = adaptive_run
        .now()
        .saturating_since(adaptive_run.start())
        .as_days_f64();
    let gumstix_wh = adaptive_run
        .base()
        .expect("base")
        .rail()
        .loads()
        .energy("gumstix")
        .expect("metered")
        .value();
    // 0.9 W → Wh/day / 0.9 W = h/day.
    let measured_gumstix_min_per_day = gumstix_wh / days / 0.9 * 60.0;

    let fixed_s3 = outcome(&fixed_s3_run);
    let fixed_s1 = outcome(&fixed_s1_run);

    // Study 1: survival arithmetic on the same 36 Ah bank, no charging.
    let bank_wh = 36.0 * 12.0;
    let msp_w = glacsweb_hw::table1::MSP430_POWER.value();
    let gumstix_w = glacsweb_hw::table1::GUMSTIX_POWER.value();
    let always_on_days = bank_wh / ((gumstix_w + msp_w) * 24.0);
    let duty_wh_per_day = msp_w * 24.0 + gumstix_w * measured_gumstix_min_per_day / 60.0;
    let duty_cycled_days = bank_wh / duty_wh_per_day;

    Ablation {
        always_on_days,
        duty_cycled_days,
        measured_gumstix_min_per_day,
        adaptive,
        fixed_s3,
        fixed_s1,
        debug_log_mib,
        info_log_mib,
    }
}

impl Ablation {
    /// Renders all three studies.
    pub fn render(&self) -> String {
        let pol = |label: &str, p: &PolicyOutcome| {
            format!(
                "{:<12} {:>7} {:>8} {:>9.2} {:>7.2}\n",
                label, p.power_losses, p.gps_readings, p.uploaded_mib, p.final_soc
            )
        };
        let mut out = format!(
            "E12a: DUTY-CYCLING (36 Ah, no charging)\n\
             always-on Linux survives {:.0} days; Gumsense ({:.0} min/day Gumstix) survives {:.0} days ({:.0}x)\n\n\
             E12b: POWER-STATE POLICY THROUGH A HARD WINTER (no wind)\n\
             policy        deaths  GPS rdgs  uploaded  final SoC\n",
            self.always_on_days,
            self.measured_gumstix_min_per_day,
            self.duty_cycled_days,
            self.duty_cycled_days / self.always_on_days,
        );
        out.push_str(&pol("adaptive", &self.adaptive));
        out.push_str(&pol("fixed S3", &self.fixed_s3));
        out.push_str(&pol("fixed S1", &self.fixed_s1));
        out.push_str(&format!(
            "\nE12c: LOG DISCIPLINE over 20 days with 3 probes\n\
             debug-level logs shipped {:.2} MiB; info-level {:.2} MiB ({:.0}x reduction)\n",
            self.debug_log_mib,
            self.info_log_mib,
            self.debug_log_mib / self.info_log_mib.max(1e-9),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duty_cycling_extends_life_by_an_order_of_magnitude() {
        let a = run(11);
        assert!(
            a.always_on_days < 25.0,
            "always-on dies in ~20 days: {}",
            a.always_on_days
        );
        assert!(
            a.duty_cycled_days > 10.0 * a.always_on_days,
            "duty cycling {}x",
            a.duty_cycled_days / a.always_on_days
        );
        assert!(
            (5.0..180.0).contains(&a.measured_gumstix_min_per_day),
            "plausible daily window: {} min",
            a.measured_gumstix_min_per_day
        );
    }

    #[test]
    fn adaptive_policy_survives_where_fixed_s3_dies() {
        let a = run(12);
        assert!(
            a.fixed_s3.power_losses > 0,
            "pinned state 3 exhausts the bank in the dark: {:?}",
            a.fixed_s3
        );
        assert_eq!(
            a.adaptive.power_losses, 0,
            "adaptive backs off and survives: {:?}",
            a.adaptive
        );
    }

    #[test]
    fn adaptive_outcollects_fixed_s1() {
        let a = run(13);
        assert_eq!(a.fixed_s1.gps_readings, 0, "state 1 never reads GPS");
        assert!(
            a.adaptive.gps_readings > 50,
            "adaptive still collected dGPS data: {}",
            a.adaptive.gps_readings
        );
    }

    #[test]
    fn trimmed_logging_saves_transfer_cost() {
        let a = run(14);
        assert!(
            a.debug_log_mib > 3.0 * a.info_log_mib,
            "debug {} MiB vs info {} MiB",
            a.debug_log_mib,
            a.info_log_mib
        );
    }
}
