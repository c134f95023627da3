//! Fleet persistence: `run(60)` is bit-identical to
//! `run(30) → checkpoint → resume → run(60)`, and crafted snapshots are
//! rejected with typed errors rather than restored into panicking worlds.

use glacsweb_fleet::{Fleet, FleetConfig};
use glacsweb_snapshot::{from_bytes, to_bytes};

fn config() -> FleetConfig {
    FleetConfig::new(2, 10).seed(41)
}

#[test]
fn resume_is_bit_identical_to_straight_run() {
    let mut straight = Fleet::new(config()).unwrap();
    straight.run_days(60);

    let mut first = Fleet::new(config()).unwrap();
    first.run_days(30);
    let dir = std::env::temp_dir().join("glacsweb-fleet-snapshot-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet30.snap");
    first.checkpoint(&path).unwrap();
    let mut resumed = Fleet::resume(&path).unwrap();
    resumed.run_days(30);
    std::fs::remove_file(&path).ok();

    assert_eq!(straight.state_digest(), resumed.state_digest());
    assert_eq!(
        straight.telemetry().to_json(),
        resumed.telemetry().to_json()
    );
    assert_eq!(straight.summary().to_json(), resumed.summary().to_json());
}

#[test]
fn snapshot_round_trips_through_bytes() {
    let mut fleet = Fleet::new(config()).unwrap();
    fleet.run_days(10);
    let bytes = to_bytes(&fleet.snapshot());
    let restored = Fleet::restore(from_bytes(&bytes).unwrap()).unwrap();
    assert_eq!(fleet.state_digest(), restored.state_digest());
}

#[test]
fn restore_rejects_wrong_site_count() {
    let mut fleet = Fleet::new(config()).unwrap();
    fleet.run_days(1);
    let mut state = fleet.snapshot();
    state.sites.pop();
    let err = Fleet::restore(state).unwrap_err();
    assert!(err.to_string().contains("sites"), "{err}");
}

#[test]
fn restore_rejects_clock_before_start() {
    let mut fleet = Fleet::new(config()).unwrap();
    fleet.run_days(1);
    let mut state = fleet.snapshot();
    state.now = state.config.start - glacsweb_sim::SimDuration::from_days(1);
    let err = Fleet::restore(state).unwrap_err();
    assert!(err.to_string().contains("precedes"), "{err}");
}

#[test]
fn restore_rejects_a_fleet_clock_apart_from_its_sites() {
    let mut fleet = Fleet::new(FleetConfig::new(2, 8)).unwrap();
    fleet.run_days(3);
    let mut state: glacsweb_fleet::FleetState = from_bytes(&to_bytes(&fleet.snapshot())).unwrap();
    state.now += glacsweb_sim::SimDuration::from_days(1);
    // Re-encoded, so the checksum is valid and only the clocks disagree.
    let state = from_bytes(&to_bytes(&state)).unwrap();
    let err = Fleet::restore(state).unwrap_err();
    assert!(
        matches!(err, glacsweb_snapshot::SnapshotError::Invalid(_)),
        "{err}"
    );
    assert!(
        err.to_string().contains("differs from the fleet clock"),
        "{err}"
    );
}

#[test]
fn restore_rejects_mangled_station_columns() {
    let mut fleet = Fleet::new(config()).unwrap();
    fleet.run_days(1);
    let mut state = fleet.snapshot();
    state.sites[1].st.ou.pop();
    let err = Fleet::restore(state).unwrap_err();
    assert!(err.to_string().contains("columns"), "{err}");
}

#[test]
fn restore_rejects_out_of_range_station_event() {
    let mut fleet = Fleet::new(config()).unwrap();
    fleet.run_days(1);
    let mut state = fleet.snapshot();
    let t = state.now + glacsweb_sim::SimDuration::from_days(1);
    state.sites[0]
        .wheel
        .push(t, glacsweb_fleet::SiteEvent::Wake(10_000));
    let err = Fleet::restore(state).unwrap_err();
    assert!(err.to_string().contains("station"), "{err}");
}

#[test]
fn restore_rejects_invalid_config() {
    let mut fleet = Fleet::new(config()).unwrap();
    fleet.run_days(1);
    let mut state = fleet.snapshot();
    state.config.sites = 0;
    assert!(Fleet::restore(state).is_err());
}
