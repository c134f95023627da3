//! Serialisation round-trips for everything a field operator would
//! persist or ship: configurations, schedules, reports and experiment
//! results. The real system stored configuration on flash and shipped
//! structured records to Southampton; snapshot-ability is part of the
//! public contract.

use glacsweb_env::EnvConfig;
use glacsweb_link::GprsConfig;
use glacsweb_probe::{MortalityModel, ProtocolConfig};
use glacsweb_sim::{SimDuration, SimTime};
use glacsweb_station::{
    ControllerConfig, PolicyTable, PowerState, Schedule, StationConfig, UploadItem,
};

fn round_trip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn env_configs_round_trip() {
    for config in [
        EnvConfig::vatnajokull(),
        EnvConfig::briksdalsbreen(),
        EnvConfig::lab(),
    ] {
        assert_eq!(round_trip(&config), config);
    }
}

#[test]
fn station_configs_round_trip() {
    for config in [StationConfig::base_2008(), StationConfig::reference_2008()] {
        assert_eq!(round_trip(&config), config);
    }
}

#[test]
fn controller_and_protocol_configs_round_trip() {
    for config in [
        ControllerConfig::deployed_2008(),
        ControllerConfig::lessons_learnt(),
        ControllerConfig::with_priority_data(),
    ] {
        assert_eq!(round_trip(&config), config);
    }
    for config in [ProtocolConfig::deployed_2008(), ProtocolConfig::fixed()] {
        assert_eq!(round_trip(&config), config);
    }
    assert_eq!(round_trip(&GprsConfig::field()), GprsConfig::field());
    assert_eq!(round_trip(&PolicyTable::paper()), PolicyTable::paper());
    assert_eq!(
        round_trip(&MortalityModel::paper_2008()),
        MortalityModel::paper_2008()
    );
}

#[test]
fn schedule_and_states_round_trip() {
    for state in PowerState::ALL {
        assert_eq!(round_trip(&state), state);
        let schedule = Schedule::standard(state);
        assert_eq!(round_trip(&schedule), schedule);
    }
}

#[test]
fn window_reports_round_trip() {
    // Run a real window and snapshot its report.
    let mut d = glacsweb::Scenario::lab_bringup().build();
    d.run_days(2);
    for report in d.metrics().window_reports() {
        assert_eq!(&round_trip(report), report);
    }
    assert!(!d.metrics().window_reports().is_empty());
}

#[test]
fn upload_items_round_trip_through_the_wire_format() {
    let item = UploadItem::GpsFile {
        taken_at: SimTime::from_ymd_hms(2009, 9, 22, 0, 30, 0),
        observed_position_m: 12.5,
        size: glacsweb_sim::Bytes::from_kib(165),
    };
    assert_eq!(round_trip(&item), item);
}

#[test]
fn experiment_results_serialize_for_the_json_dump() {
    // The `experiments --json` flag relies on every result serialising.
    let t1 = glacsweb::experiments::table1::run();
    let json = serde_json::to_string_pretty(&t1).expect("table1");
    assert!(json.contains("Gumstix"));

    let t2 = glacsweb::experiments::table2::run();
    let back: glacsweb::experiments::table2::Table2 =
        serde_json::from_str(&serde_json::to_string(&t2).expect("ser")).expect("de");
    assert_eq!(back, t2);

    let s = glacsweb::experiments::survival::run(1, 50);
    let back: glacsweb::experiments::survival::Survival =
        serde_json::from_str(&serde_json::to_string(&s).expect("ser")).expect("de");
    assert_eq!(back, s);
}

#[test]
fn sim_time_serialises_compactly() {
    let t = SimTime::from_ymd_hms(2009, 9, 22, 12, 0, 0);
    let json = serde_json::to_string(&t).expect("serialize");
    // A bare integer — cheap to ship over a paid-per-MB link.
    assert_eq!(json, t.unix().to_string());
    let d = SimDuration::from_hours(2);
    assert_eq!(serde_json::to_string(&d).expect("serialize"), "7200");
}

/// Property round-trips through the *binary snapshot codec* — the path a
/// checkpoint actually takes to disk. JSON tolerates float re-formatting;
/// the snapshot format must not, so these assert on bits, sequence
/// numbers and cache keys, not just `PartialEq`.
mod snapshot_fidelity {
    use glacsweb::Deployment;
    use glacsweb_env::{EnvConfig, Environment};
    use glacsweb_sim::{EventQueue, SimDuration, SimRng, SimTime};
    use proptest::prelude::*;

    /// One trip through the snapshot wire format.
    fn snap_round_trip<T>(value: &T) -> T
    where
        T: serde::Serialize + serde::Deserialize,
    {
        let bytes = glacsweb_snapshot::to_bytes(value);
        glacsweb_snapshot::from_bytes(&bytes).expect("decode")
    }

    /// Encode → decode → encode must be byte-stable: a second checkpoint
    /// of an untouched restore is the same file.
    fn assert_bytes_stable<T>(value: &T)
    where
        T: serde::Serialize + serde::Deserialize,
    {
        let first = glacsweb_snapshot::to_bytes(value);
        let back: T = glacsweb_snapshot::from_bytes(&first).expect("decode");
        let second = glacsweb_snapshot::to_bytes(&back);
        assert_eq!(first, second, "snapshot bytes must be stable");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A mid-stream RNG keeps its exact counter position: the clone
        /// resumed from a snapshot produces the same raw stream, bit for
        /// bit, and reports the same `position()`.
        #[test]
        fn sim_rng_round_trips_mid_stream(
            seed in 0u64..10_000,
            draws in 0u64..400,
            stream in 0u64..64,
        ) {
            let mut rng = SimRng::seed_from(seed);
            for _ in 0..draws {
                let _ = rng.f64();
            }
            // Forking mutates the parent's counter too; include it.
            let mut forked = rng.fork(stream);
            let _ = forked.normal(0.0, 1.0);

            for original in [&mut rng, &mut forked] {
                let mut thawed = snap_round_trip(original);
                prop_assert_eq!(&thawed, original);
                prop_assert_eq!(thawed.position(), original.position());
                for _ in 0..16 {
                    prop_assert_eq!(
                        thawed.f64().to_bits(),
                        original.f64().to_bits(),
                        "post-restore draws must match bit for bit"
                    );
                }
            }
            assert_bytes_stable(&rng);
        }

        /// The event queue keeps its FIFO sequence counter across the
        /// wire: same-time events pop in arrival order after a restore,
        /// even when the queue was half-drained before the snapshot.
        #[test]
        fn event_queue_round_trips_seq_and_order(
            offsets in proptest::collection::vec(0u64..600, 1..40),
            drain in 0usize..10,
        ) {
            let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
            let mut queue: EventQueue<u64> = EventQueue::new();
            for (i, off) in offsets.iter().enumerate() {
                // Coarse instants (minute granularity) force plenty of
                // same-time collisions so the FIFO tag does real work.
                queue.push(start + SimDuration::from_mins(*off / 60), i as u64);
            }
            for _ in 0..drain.min(queue.len().saturating_sub(1)) {
                let _ = queue.pop();
            }
            assert_bytes_stable(&queue);
            let mut thawed = snap_round_trip(&queue);
            prop_assert_eq!(thawed.len(), queue.len());
            while let Some(expect) = queue.pop() {
                prop_assert_eq!(thawed.pop(), Some(expect), "pop order must survive");
            }
            prop_assert_eq!(thawed.pop(), None);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The environment round-trips losslessly mid-run: the step-cache
        /// *keys* (day numbers, second-of-day entries) are derived state
        /// that refills identically, so queries after a restore are
        /// bit-identical to queries that never crossed the wire.
        #[test]
        fn environment_round_trips_bit_identically(
            seed in 0u64..1_000,
            hours in 1u64..200,
        ) {
            let start = SimTime::from_ymd_hms(2008, 9, 1, 0, 0, 0);
            let mut env = Environment::new(EnvConfig::vatnajokull(), seed);
            env.advance_to(start);
            for h in 1..=hours {
                env.advance_to(start + SimDuration::from_hours(h));
            }
            let mut thawed = snap_round_trip(&env);
            prop_assert_eq!(&thawed, &env, "restored environment must compare equal");
            assert_bytes_stable(&env);

            // Warm caches on one side only, then advance both: the memo
            // contents are derived, so trajectories cannot diverge.
            let t = env.now();
            let _ = env.temperature_c(t);
            for h in 1..=6u64 {
                let t = start + SimDuration::from_hours(hours + h);
                env.advance_to(t);
                thawed.advance_to(t);
                prop_assert_eq!(
                    env.temperature_c(t).to_bits(),
                    thawed.temperature_c(t).to_bits()
                );
                prop_assert_eq!(
                    env.wind_speed_ms(t).to_bits(),
                    thawed.wind_speed_ms(t).to_bits()
                );
                prop_assert_eq!(
                    env.water_pressure(t).to_bits(),
                    thawed.water_pressure(t).to_bits()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// A whole deployment's snapshot is byte-stable and restores to a
        /// controller that finishes the run exactly like the original —
        /// whatever day the checkpoint lands on.
        #[test]
        fn deployment_state_round_trips_losslessly(
            seed in 0u64..100,
            checkpoint_day in 1u64..4,
        ) {
            let horizon = 5u64;
            let mut straight = glacsweb::Scenario::lab_bringup().seed(seed).observe().build();
            straight.run_days(horizon);

            let mut split = glacsweb::Scenario::lab_bringup().seed(seed).observe().build();
            split.run_days(checkpoint_day);
            let state = split.snapshot();
            assert_bytes_stable(&state);
            let mut resumed = Deployment::restore(snap_round_trip(&state)).expect("restore");
            resumed.run_until(resumed.start() + SimDuration::from_days(horizon));

            prop_assert_eq!(resumed.summary(), straight.summary());
            // Telemetry registries ride the snapshot too: the restored
            // process exports the full history, byte for byte.
            let a = straight.telemetry().expect("observed").to_json();
            let b = resumed.telemetry().expect("observed").to_json();
            prop_assert_eq!(a, b, "telemetry export must survive the round-trip");
        }
    }
}
