//! Event-stream leaping is bit-invisible at deployment level.
//!
//! `DeploymentBuilder::leaping` (default on) lets the kernel elide
//! provably inert events — currently the hourly probe sweep once every
//! probe is dead. These tests pin that contract three ways: the 60-day
//! Iceland golden hash reproduces with leaping force-disabled, telemetry
//! exports are byte-identical on/off, and a fast-mortality run shows the
//! leap actually firing (and still agreeing bit-for-bit).

use glacsweb::{DeploymentBuilder, Scenario};
use glacsweb_env::EnvConfig;
use glacsweb_probe::MortalityModel;
use glacsweb_sim::SimTime;
use glacsweb_station::StationConfig;

mod common;

const SEED: u64 = 2008;
const DAYS: u64 = 60;

/// Same constant as `golden_trajectory.rs`: the canonical Iceland 2008
/// digest captured from the pre-rewrite kernel.
const GOLDEN: &str = "fc2382f84753c67c4a3f8683d97faf15";

#[test]
fn golden_trajectory_reproduces_with_leaping_disabled() {
    let mut d = Scenario::iceland_2008().seed(SEED).leaping(false).build();
    d.run_days(DAYS);
    assert_eq!(
        common::trajectory_digest(&d),
        GOLDEN,
        "disabling leaping changed the Iceland 2008 trajectory"
    );
}

#[test]
fn telemetry_is_byte_identical_with_and_without_leaping() {
    let run = |leaping: bool| {
        let mut d = Scenario::iceland_2008()
            .seed(SEED)
            .observe()
            .leaping(leaping)
            .build();
        d.run_days(DAYS);
        d.telemetry().expect("observed run").to_json()
    };
    assert_eq!(run(true), run(false));
}

/// A cohort that dies within days, so the leap actually fires inside the
/// horizon: once the last probe is dead the hourly sweep disappears from
/// the queue — and the trajectory still agrees bit-for-bit.
fn fast_mortality(leaping: bool) -> glacsweb::Deployment {
    DeploymentBuilder::new(EnvConfig::vatnajokull())
        .seed(99)
        .start(SimTime::from_ymd_hms(2008, 8, 15, 0, 0, 0))
        .base(StationConfig::base_2008())
        .reference(StationConfig::reference_2008())
        .probes(5)
        .mortality(MortalityModel::new(2.0, 2.0))
        .leaping(leaping)
        .build()
}

#[test]
fn leap_fires_once_the_cohort_is_dead() {
    let mut leap = fast_mortality(true);
    let mut tick = fast_mortality(false);
    leap.run_days(30);
    tick.run_days(30);
    assert_eq!(leap.probes_alive(), 0, "cohort should be dead in 30 days");
    assert_eq!(tick.probes_alive(), 0);
    // The naive run still carries the pending probe sweep; the leaping
    // run dropped it.
    assert_eq!(
        leap.pending_events() + 1,
        tick.pending_events(),
        "leaping run should carry exactly one fewer pending event"
    );
    // And the elision was bit-invisible.
    assert_eq!(
        common::trajectory_digest(&leap),
        common::trajectory_digest(&tick)
    );
}

/// Leaping state survives a snapshot round trip.
#[test]
fn leaping_flag_round_trips_through_snapshot() {
    let mut d = fast_mortality(false);
    d.run_days(5);
    let restored = glacsweb::Deployment::restore(d.snapshot()).unwrap();
    assert!(!restored.leaping());
    let mut d2 = fast_mortality(true);
    d2.run_days(5);
    assert!(glacsweb::Deployment::restore(d2.snapshot())
        .unwrap()
        .leaping());
}
