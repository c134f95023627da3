//! The roadmap's snapshot-equivalence pinning test: a run that is
//! interrupted, persisted to disk, reloaded and resumed must take the
//! *bit-identical* trajectory of an uninterrupted run — same golden MD5
//! digest, same telemetry bytes — including when the checkpoint lands in
//! the middle of an active fault window.
//!
//! The golden constant below is the same one `golden_trajectory.rs`
//! pins: 60 straight days must equal 30 days + checkpoint + resume + 30
//! days, and both must equal the pre-rewrite kernel.

use std::path::PathBuf;

use glacsweb::{Deployment, Fault, FaultPlan, FaultSpec, FaultTarget, Scenario, SnapshotError};
use glacsweb_env::EnvConfig;
use glacsweb_link::GprsConfig;
use glacsweb_sim::{SimDuration, SimTime};
use glacsweb_station::StationConfig;
use serde::{Serialize, Value};

mod common;

/// Seed shared with `golden_trajectory.rs` and the CI telemetry check.
const SEED: u64 = 2008;

/// Same pinned constant as `golden_trajectory.rs`: seed 2008, 60 days.
const GOLDEN: &str = "fc2382f84753c67c4a3f8683d97faf15";

/// A scratch path under the target-adjacent temp dir, unique per test so
/// parallel test threads never race on a file.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("glacsweb-snapshot-equivalence");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("{name}-{}.snap", std::process::id()))
}

#[test]
fn sixty_days_equals_thirty_plus_checkpoint_plus_thirty() {
    let path = scratch("iceland-golden");

    let mut straight = Scenario::iceland_2008().seed(SEED).build();
    straight.run_days(60);
    let straight_digest = common::trajectory_digest(&straight);
    assert_eq!(straight_digest, GOLDEN, "straight run diverged");

    let mut first = Scenario::iceland_2008().seed(SEED).build();
    first.run_days(30);
    first.checkpoint(&path).expect("checkpoint");
    drop(first); // The first process is gone; only the file remains.

    let mut resumed = Deployment::resume(&path).expect("resume");
    resumed.run_days(30);
    assert_eq!(
        common::trajectory_digest(&resumed),
        GOLDEN,
        "resumed run diverged from the golden trajectory"
    );
    assert_eq!(straight.summary(), resumed.summary());

    let _ = std::fs::remove_file(&path);
}

/// A chaos schedule whose outage brackets the checkpoint instant: the
/// server is unreachable from day 18 to day 25, so a day-20 snapshot
/// catches an active fault, stations mid-retry, and a stranded backlog.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .with(FaultSpec {
            fault: Fault::ServerUnreachable,
            target: FaultTarget::Server,
            onset: SimDuration::from_days(18),
            duration: SimDuration::from_days(7),
            recurrence: None,
        })
        .with(FaultSpec {
            fault: Fault::GprsDegradation { severity: 3.0 },
            target: FaultTarget::Base,
            onset: SimDuration::from_days(5),
            duration: SimDuration::from_days(30),
            recurrence: None,
        })
}

fn chaos_deployment() -> Deployment {
    let mut base = StationConfig::base_2008();
    base.gprs = GprsConfig::field();
    glacsweb::DeploymentBuilder::new(EnvConfig::vatnajokull())
        .seed(SEED)
        .start(SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0))
        .base(base)
        .reference(StationConfig::reference_2008())
        .probes(4)
        .fault_plan(chaos_plan())
        .observe()
        .build()
}

#[test]
fn equivalence_holds_while_a_fault_is_active() {
    let path = scratch("chaos-midfault");

    let mut straight = chaos_deployment();
    straight.run_days(40);

    let mut resumed = {
        let mut d = chaos_deployment();
        // Stop *inside* the outage, off the midday grid: uploads are
        // failing, the retry ladder is mid-backoff, backlog is stranded.
        d.run_until(d.start() + SimDuration::from_days(20) + SimDuration::from_hours(15));
        d.checkpoint(&path).expect("checkpoint under chaos");
        Deployment::resume(&path).expect("resume under chaos")
    };
    resumed.run_until(resumed.start() + SimDuration::from_days(40));

    assert_eq!(
        common::trajectory_digest(&straight),
        common::trajectory_digest(&resumed),
        "mid-fault checkpoint perturbed the trajectory"
    );

    // Telemetry — counters, daily rollups, gauges, histograms, events —
    // survives the round trip byte-for-byte.
    let a = straight.telemetry().expect("observed").to_json();
    let b = resumed.telemetry().expect("observed").to_json();
    assert_eq!(a, b, "telemetry bytes diverged after resume");
    assert!(
        a.contains("faults_on"),
        "the chaos schedule actually fired during the window"
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_file_round_trips_through_disk_bytes() {
    let path = scratch("byte-stability");
    let mut d = Scenario::iceland_2008().seed(7).build();
    d.run_days(3);
    d.checkpoint(&path).expect("checkpoint");
    let bytes_first = std::fs::read(&path).expect("read");
    // Checkpointing is a pure observation: doing it again without
    // advancing produces identical bytes.
    d.checkpoint(&path).expect("second checkpoint");
    let bytes_second = std::fs::read(&path).expect("read");
    assert_eq!(bytes_first, bytes_second, "checkpoint bytes not stable");

    let resumed = Deployment::resume(&path).expect("resume");
    assert_eq!(d.summary(), resumed.summary());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_checkpoint_is_rejected_not_resumed() {
    let path = scratch("corrupted");
    let mut d = Scenario::iceland_2008().seed(9).build();
    d.run_days(2);
    d.checkpoint(&path).expect("checkpoint");

    let mut bytes = std::fs::read(&path).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).expect("write corrupted");

    match Deployment::resume(&path) {
        Err(SnapshotError::ChecksumMismatch { .. }) => {}
        Err(other) => panic!("expected ChecksumMismatch, got {other}"),
        Ok(_) => panic!("a flipped byte must never resume silently"),
    }
    let _ = std::fs::remove_file(&path);
}

/// FNV-1a over a byte slice (64-bit).
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The benchmark's standard deployment: base_2008 with field GPRS,
/// reference_2008, 4 probes, observed, from 2009-06-01.
fn standard_deployment(seed: u64) -> Deployment {
    let mut base = StationConfig::base_2008();
    base.gprs = GprsConfig::field();
    glacsweb::DeploymentBuilder::new(EnvConfig::vatnajokull())
        .seed(seed)
        .start(SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0))
        .base(base)
        .reference(StationConfig::reference_2008())
        .probes(4)
        .observe()
        .build()
}

/// Pins the snapshot payload bytes (length and FNV) of three runs, so a
/// change to any serialized type's representation — the card, the probe
/// buffer, file names, window reports, the event queue — shows up here
/// even when it would still round-trip. The third run's base station
/// uplinks over the radio-modem relay, so both WAN variants are pinned.
#[test]
fn snapshot_wire_bytes_are_pinned() {
    let mut year = standard_deployment(2010 * 1000);
    year.run_days(365);
    let bytes = glacsweb_snapshot::to_bytes(&year.snapshot());
    assert_eq!(
        (bytes.len(), fnv(&bytes)),
        (13_806_702, 0x5fff_a3f4_5494_dae8),
        "standard deployment, seed 2010000, 365 days"
    );

    let mut chaos = chaos_deployment();
    chaos.run_days(40);
    let bytes = glacsweb_snapshot::to_bytes(&chaos.snapshot());
    assert_eq!(
        (bytes.len(), fnv(&bytes)),
        (1_705_601, 0x8cf6_6d6a_0c16_533b),
        "chaos plan, seed 2008, 40 days"
    );

    let mut relay = Scenario::iceland_relay_architecture().build();
    relay.run_days(10);
    let bytes = glacsweb_snapshot::to_bytes(&relay.snapshot());
    assert_eq!(
        (bytes.len(), fnv(&bytes)),
        (496_277, 0x1ac3_bb2f_7c7f_e2a4),
        "relay architecture, seed 2008, 10 days"
    );
}

/// The map entry `key` of a snapshot value tree.
fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Map(fields) = v else {
        panic!("expected a map holding `{key}`")
    };
    &mut fields
        .iter_mut()
        .find(|(k, _)| k.as_str() == Some(key))
        .expect("field present")
        .1
}

fn items(v: &mut Value) -> &mut Vec<Value> {
    let Value::Seq(items) = v else {
        panic!("expected a sequence")
    };
    items
}

/// The world queue's `[instant, tag, event]` entries.
fn queue_entries(state: &mut Value) -> &mut Vec<Value> {
    items(field(field(state, "queue"), "entries"))
}

/// Rewrites a snapshot value tree.
type Craft = dyn Fn(&mut Value);

/// Restores `d`'s snapshot after `craft` rewrites its value tree. The
/// bytes are sealed afresh, so the checksum passes and only the decoder
/// and `Deployment::restore` can refuse the state.
fn restore_crafted_from(d: &Deployment, craft: &Craft) -> Result<Deployment, SnapshotError> {
    let mut state = d.snapshot().to_value();
    craft(&mut state);
    Deployment::restore(glacsweb_snapshot::from_bytes(
        &glacsweb_snapshot::to_bytes(&state),
    )?)
}

/// [`restore_crafted_from`] the chaos deployment's day-2 snapshot.
fn restore_crafted(craft: &Craft) -> Result<Deployment, SnapshotError> {
    let mut d = chaos_deployment();
    d.run_days(2);
    restore_crafted_from(&d, craft)
}

#[test]
fn restore_rejects_crafted_event_queues() {
    assert!(restore_crafted(&|_| {}).is_ok(), "the clean tree restores");
    // One entry's tag raised to the arrival counter.
    let tag_at_seq = |state: &mut Value| {
        let seq = field(field(state, "queue"), "seq").clone();
        items(&mut queue_entries(state)[0])[1] = seq;
    };
    // The first two events of one instant (the stations' shared tick)
    // swapped, so that instant's tags fall in file order.
    let reorder = |state: &mut Value| {
        let entries = queue_entries(state);
        let at = |entry: &Value| entry.as_seq().expect("an entry")[0].clone();
        let i = entries
            .windows(2)
            .position(|pair| at(&pair[0]) == at(&pair[1]))
            .expect("an instant holding two events");
        entries.swap(i, i + 1);
    };
    // The first entry again at the end: one `(instant, tag)` twice, split
    // around later instants.
    let duplicate = |state: &mut Value| {
        let entries = queue_entries(state);
        entries.push(entries[0].clone());
    };
    let cases: [(&Craft, &str); 3] = [
        (&tag_at_seq, "not below arrival counter"),
        (&reorder, "FIFO"),
        (&duplicate, "firing order"),
    ];
    for (craft, want) in cases {
        let err = restore_crafted(craft)
            .err()
            .expect("crafted queue restored");
        assert!(matches!(err, SnapshotError::Invalid(_)), "{err}");
        assert!(err.to_string().contains(want), "want {want:?}: {err}");
    }
}

/// A CRC-valid snapshot whose battery-voltage series has two sample times
/// swapped used to restore, leaving a series that `value_at` bisects
/// wrongly; a sample time moved past the clock made the next `push`
/// panic with "samples must be time-ordered".
#[test]
fn restore_rejects_an_unordered_time_series() {
    let swap_last_two_samples = |state: &mut Value| {
        let Value::Map(by_station) = field(field(state, "metrics"), "voltage") else {
            panic!("expected the voltage series keyed by station")
        };
        let points = items(field(&mut by_station[0].1, "points"));
        let n = points.len();
        let later = items(&mut points[n - 1])[0].clone();
        let earlier = std::mem::replace(&mut items(&mut points[n - 2])[0], later);
        items(&mut points[n - 1])[0] = earlier;
    };
    let err = restore_crafted(&swap_last_two_samples)
        .err()
        .expect("an unordered series restored");
    assert!(matches!(err, SnapshotError::Invalid(_)), "{err}");
    assert!(err.to_string().contains("time-ordered"), "{err}");
}

/// A CRC-valid snapshot whose rail had lost one of the loads the station
/// switches used to restore, and the next window then panicked with
/// "unknown load".
#[test]
fn restore_rejects_a_rail_without_a_station_load() {
    let mut d = Scenario::lab_bringup().seed(7).build();
    d.run_days(2);
    for name in ["probe_radio", "radio_modem"] {
        let rename = move |state: &mut Value| {
            let loads = field(field(field(field(state, "base"), "rail"), "loads"), "loads");
            let Value::Map(loads) = loads else {
                panic!("expected the loads keyed by name")
            };
            let (key, _) = loads
                .iter_mut()
                .find(|(k, _)| k.as_str() == Some(name))
                .expect("the load is wired");
            *key = Value::Str(format!("{name}_renamed"));
        };
        let err = restore_crafted_from(&d, &rename)
            .err()
            .expect("a rail without a station load restored");
        assert!(matches!(err, SnapshotError::Invalid(_)), "{err}");
        assert!(err.to_string().contains(name), "{name}: {err}");
    }
}
