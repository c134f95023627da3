//! Fig 4 — "Flowchart showing system operation" — asserted step by step.
//!
//! The paper's flowchart for a base station is:
//!
//! > Start → (Basestation?) Get sub-glacial probe data → Get readings from
//! > MSP → Calculate local power state → (state 0? stop) → (state > 1) Get
//! > GPS files → Package data to be sent → Upload power state → Upload
//! > data → Get override power state → Get special → (exists?) Execute →
//! > Stop
//!
//! `WindowReport::steps` records the executed sequence; these tests pin it
//! against the figure for the deployed ordering, and against the §VI
//! proposed fix for the corrected ordering.

use glacsweb::DeploymentBuilder;
use glacsweb_env::EnvConfig;
use glacsweb_link::GprsConfig;
use glacsweb_sim::SimTime;
use glacsweb_station::{ControllerConfig, StationConfig, StationId, WindowStep};

fn run_one_window(controller: ControllerConfig, role_base: bool, soc: f64) -> Vec<String> {
    let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
    let mut config = if role_base {
        StationConfig::base_2008()
    } else {
        StationConfig::reference_2008()
    };
    config.gprs = GprsConfig::ideal();
    config.controller = controller;
    config.initial_soc = soc;
    if soc < 0.2 {
        config.solar = None;
        config.wind = None;
        config.mains = None;
    }
    let mut builder = DeploymentBuilder::new(EnvConfig::lab())
        .seed(3)
        .start(start);
    let id = config.id;
    builder = if role_base {
        builder.base(config).probes(1)
    } else {
        builder.reference(config)
    };
    let mut d = builder.build();
    d.run_days(1);
    let steps = d
        .metrics()
        .reports_for(id)
        .next()
        .expect("window ran")
        .steps
        .iter()
        .map(|step| step.as_str().to_string())
        .collect();
    steps
}

#[test]
fn deployed_base_station_follows_fig4_exactly() {
    let steps = run_one_window(ControllerConfig::deployed_2008(), true, 1.0);
    assert_eq!(
        steps,
        [
            "probe_jobs",            // Basestation? → Get sub-glacial probe data
            "msp_readings",          // Get readings from MSP
            "calculate_power_state", // Calculate local power state
            "get_gps_files",         // Power state > 1 → Get GPS files
            "package_data",          // Package data to be sent
            "connect_gprs",
            "upload_power_state", // Upload power state
            "upload_data",        // Upload data
            "get_override_state", // Get override power state
            "get_special",        // Get special → execute
            "check_updates",
            "write_schedule",
        ]
        .map(String::from)
        .to_vec(),
        "the deployed ordering is Fig 4's"
    );
}

#[test]
fn reference_station_skips_probe_jobs() {
    // Fig 4's first diamond: "Basestation?" — the reference station goes
    // straight to the MSP readings.
    let steps = run_one_window(ControllerConfig::deployed_2008(), false, 1.0);
    assert!(!steps.contains(&"probe_jobs".to_string()));
    assert_eq!(steps[0], "msp_readings");
}

#[test]
fn lessons_learnt_moves_special_before_upload() {
    let steps = run_one_window(ControllerConfig::lessons_learnt(), true, 1.0);
    let pos = |name: &str| {
        steps
            .iter()
            .position(|s| s == name)
            .unwrap_or_else(|| panic!("{name} missing from {steps:?}"))
    };
    assert!(
        pos("get_special") < pos("upload_data"),
        "§VI fix: remote code before the transfer: {steps:?}"
    );
    assert!(pos("upload_power_state") < pos("upload_data"));
    assert!(pos("get_override_state") > pos("upload_data"));
}

#[test]
fn state_zero_stops_after_the_power_state_diamond() {
    // Fig 4: "Power state = 0 → Stop" before any GPS or GPRS step.
    let steps = run_one_window(ControllerConfig::deployed_2008(), true, 0.05);
    assert!(steps.contains(&"calculate_power_state".to_string()));
    for forbidden in [
        "get_gps_files",
        "connect_gprs",
        "upload_data",
        "get_special",
    ] {
        assert!(
            !steps.contains(&forbidden.to_string()),
            "state 0 must not reach {forbidden}: {steps:?}"
        );
    }
}

#[test]
fn state_one_skips_gps_but_keeps_gprs() {
    // Fig 4: "Power state > 1 → Get GPS files" — state 1 bypasses the GPS
    // branch yet still communicates.
    let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
    let mut config = StationConfig::base_2008();
    config.gprs = GprsConfig::ideal();
    config.initial_soc = 0.2; // daily average lands in state 1
    config.solar = None;
    config.wind = None;
    let mut d = DeploymentBuilder::new(EnvConfig::lab())
        .seed(3)
        .start(start)
        .base(config)
        .build();
    d.run_days(1);
    let report = d
        .metrics()
        .reports_for(StationId::Base)
        .next()
        .expect("window ran");
    assert_eq!(report.local_state.level(), 1, "setup puts us in state 1");
    assert!(!report.steps.contains(WindowStep::GetGpsFiles));
    assert!(report.steps.contains(WindowStep::UploadData));
}
