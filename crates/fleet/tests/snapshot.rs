//! Fleet persistence: `run(60)` is bit-identical to
//! `run(30) → checkpoint → resume → run(60)`, and crafted snapshots are
//! rejected with typed errors rather than restored into panicking worlds.

use glacsweb_fleet::{Fleet, FleetConfig, FleetState};
use glacsweb_snapshot::{from_bytes, to_bytes, SnapshotError, HEADER_LEN};
use serde::{Serialize, Value};

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
    assert_eq!(to_bytes(&straight.summary()), to_bytes(&resumed.summary()));
}

#[test]
fn snapshot_round_trips_through_bytes() {
    let mut fleet = Fleet::new(config()).unwrap();
    fleet.run_days(10);
    let bytes = to_bytes(&fleet.snapshot());
    let restored = Fleet::restore(from_bytes(&bytes).unwrap()).unwrap();
    assert_eq!(fleet.state_digest(), restored.state_digest());
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs `fleet` over ragged horizons — whole days and an off-day
/// instant — so its calendar holds wakes spread over many instants.
fn run_ragged(fleet: &mut Fleet) {
    for days in [1, 3, 2] {
        fleet.run_days(days);
    }
    fleet.run_until(fleet.now() + glacsweb_sim::SimDuration::from_mins(7 * 60 + 35));
}

/// Pins the fleet snapshot payload bytes (length and FNV) in both
/// kernel modes, so a change to any serialized type's representation —
/// station columns, the storm timeline, the site calendar's
/// `{seq, entries}` form — shows up here even when it would still
/// round-trip.
#[test]
fn fleet_snapshot_wire_bytes_are_pinned() {
    let mut leap = Fleet::new(FleetConfig::new(3, 12).seed(2008)).unwrap();
    run_ragged(&mut leap);
    let bytes = to_bytes(&leap.snapshot());
    assert_eq!(
        (bytes.len(), fnv(&bytes)),
        (27_565, 0xa936_7afa_cdc0_f597),
        "leap mode, 3 x 12 stations, seed 2008"
    );

    let mut tick = Fleet::new(FleetConfig::new(2, 5).seed(41).leaping(false)).unwrap();
    run_ragged(&mut tick);
    let bytes = to_bytes(&tick.snapshot());
    assert_eq!(
        (bytes.len(), fnv(&bytes)),
        (9_789, 0xede3_c1f5_bfd7_6b3d),
        "tick mode, 2 x 5 stations, seed 41"
    );
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

/// CRC-32 (IEEE), bitwise: the snapshot envelope's payload checksum.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Sets payload byte `offset` of a snapshot to `value` and re-seals the
/// envelope, so only the meaning of the payload is wrong.
fn poke_payload(bytes: &mut [u8], offset: usize, value: u8) {
    bytes[HEADER_LEN + offset] = value;
    let crc = crc32(&bytes[HEADER_LEN..]);
    bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

fn decode_and_restore(bytes: &[u8]) -> Result<Fleet, SnapshotError> {
    Fleet::restore(from_bytes(bytes)?)
}

/// A CRC-valid snapshot whose byte 805 (inside site 0's storm mean gap)
/// is `0xFF` used to restore, then panic in the next run with
/// `exponential rate must be positive`.
#[test]
fn restore_rejects_a_mangled_storm_schedule() {
    let mut fleet = Fleet::new(FleetConfig::new(2, 8)).unwrap();
    fleet.run_days(3);
    let mut bytes = to_bytes(&fleet.snapshot());
    poke_payload(&mut bytes, 805, 0xFF);
    let state: FleetState = from_bytes(&bytes).unwrap();
    assert_ne!(
        state.sites[0].storms,
        fleet.snapshot().sites[0].storms,
        "byte 805 lies in site 0's storm timeline"
    );
    let err = Fleet::restore(state).unwrap_err();
    assert!(matches!(err, SnapshotError::Invalid(_)), "{err}");
    assert!(err.to_string().contains("storm schedule"), "{err}");
}

/// The map entry `key` of a value tree.
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

fn seq(v: &mut Value) -> &mut Vec<Value> {
    let Value::Seq(items) = v else {
        panic!("expected a sequence")
    };
    items
}

/// Site 0's calendar entries (`[instant, tag, event]`) in a snapshot
/// value tree.
fn calendar_entries(state: &mut Value) -> &mut Vec<Value> {
    let site = &mut seq(field(state, "sites"))[0];
    seq(field(field(site, "wheel"), "entries"))
}

/// Rewrites calendar entries given the site clock's unix seconds.
type Craft = dyn Fn(&mut Vec<Value>, u64);

/// Restores the snapshot of a two-day run after `craft` rewrites site
/// 0's calendar entries, through re-sealed bytes.
fn restore_crafted(craft: impl Fn(&mut Vec<Value>, u64)) -> Result<Fleet, SnapshotError> {
    let mut fleet = Fleet::new(config()).unwrap();
    fleet.run_days(2);
    let mut state = fleet.snapshot().to_value();
    craft(calendar_entries(&mut state), fleet.now().unix());
    decode_and_restore(&to_bytes(&state))
}

#[test]
fn restore_rejects_crafted_calendars() {
    let tick = glacsweb_fleet::TICK.as_secs() as i64;
    let past_horizon = (glacsweb_fleet::MAX_AHEAD_TICKS as i64 + 1) * tick;
    // Moves the first entry, or with `last` the last one, to `offset`
    // seconds from the site clock. An entry moved past the others must
    // be the last, or the decoder refuses it for its firing order first.
    let at = |last: bool, offset: i64| {
        move |entries: &mut Vec<Value>, now: u64| {
            let i = if last { entries.len() - 1 } else { 0 };
            seq(&mut entries[i])[0] = now.saturating_add_signed(offset).to_value();
        }
    };
    assert!(
        restore_crafted(|_, _| {}).is_ok(),
        "the clean tree restores"
    );
    let cases: [(&Craft, &str); 5] = [
        (&at(false, tick / 2), "off the tick grid"),
        (&at(false, -tick), "precedes the site clock"),
        (&at(true, past_horizon), "ticks past the site clock"),
        (
            &|entries: &mut Vec<Value>, _| seq(&mut entries[0])[1] = u64::MAX.to_value(),
            "not below arrival counter",
        ),
        (
            // The first entry twice: one instant's tags not increasing.
            &|entries: &mut Vec<Value>, _| entries.insert(0, entries[0].clone()),
            "FIFO",
        ),
    ];
    for (craft, want) in cases {
        let err = restore_crafted(craft).unwrap_err();
        assert!(matches!(err, SnapshotError::Invalid(_)), "{err}");
        assert!(err.to_string().contains(want), "want {want:?}: {err}");
    }
}
