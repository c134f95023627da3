//! Property pins for the sharded core. After *any* interleaving of
//! check-ins, state reports, override queries and batch uploads — valid
//! and invalid alike:
//!
//! * the maintained per-shard aggregates equal a from-scratch scan of
//!   the station records;
//! * every override answer and the state counts equal those of one
//!   [`SouthamptonServer`] per pair, the deployment's §III server, fed
//!   the same valid reports;
//! * a batch upload equals its single check-ins, prefix-on-error
//!   semantics included.
//!
//! The scans and the oracle live here, in test code: nothing on the
//! serving path needs them.

use proptest::prelude::*;
use proptest::TestRng;

use glacsweb_server::SouthamptonServer;
use glacsweb_sim::SimTime;
use glacsweb_station::{PowerState, StationId, Uplink};

use super::{FleetCore, PowerCounts, SocHistogram, Station};

impl FleetCore {
    /// [`FleetCore::power_counts`] recomputed by walking every station
    /// record: the reference the maintained counts are checked against.
    pub(super) fn power_counts_scan(&self) -> PowerCounts {
        let mut out = PowerCounts::default();
        for index in 0..self.shards.len() {
            let Some(guard) = self.lock(index) else {
                continue;
            };
            for state in guard.stations.iter().map(Station::state) {
                out.count(state);
            }
        }
        out
    }

    /// [`FleetCore::soc_histogram`] recomputed from every station's last
    /// state of charge: the reference the maintained histogram is
    /// checked against.
    pub(super) fn soc_histogram_scan(&self) -> SocHistogram {
        let mut out = SocHistogram::default();
        for index in 0..self.shards.len() {
            let Some(guard) = self.lock(index) else {
                continue;
            };
            for soc in guard.stations.iter().filter_map(|r| r.last_soc) {
                if let Some(slot) = out.buckets.get_mut(SocHistogram::bucket(soc)) {
                    *slot += 1;
                }
                out.samples += 1;
            }
        }
        out
    }
}

impl PowerCounts {
    /// Counts one more station whose last report is `state`.
    fn count(&mut self, state: Option<PowerState>) {
        match state {
            Some(state) => {
                if let Some(slot) = self.reported.get_mut(usize::from(state.level())) {
                    *slot += 1;
                }
            }
            None => self.unreported += 1,
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    CheckIn { station: u64, hour: u64, soc: u32 },
    Report { station: u64, hour: u64, level: u8 },
    Override { station: u64, hour: u64 },
    Batch(Vec<(u64, u64, u32)>),
}

fn at(hour: u64) -> SimTime {
    SimTime::from_unix(hour * 3600)
}

/// A batch op's entries as [`FleetCore::check_in_batch`] takes them.
fn batch(entries: &[(u64, u64, u32)]) -> Vec<(u64, SimTime, u32)> {
    entries
        .iter()
        .map(|&(station, hour, soc)| (station, at(hour), soc))
        .collect()
}

/// Station `station`'s §III role within its pair.
fn role(station: u64) -> StationId {
    if station.is_multiple_of(2) {
        StationId::Base
    } else {
        StationId::Reference
    }
}

/// Draws one op over `stations + 2` station ids (some unknown), with
/// out-of-range state-of-charge and level values included, so error
/// paths get interleaved with valid writes. Report instants span about
/// eight civil dates, so reports arrive out of date order and a date is
/// often re-reported.
fn sample_op(rng: &mut TestRng, stations: u64) -> Op {
    let entry = |rng: &mut TestRng| {
        (
            rng.next_u64() % (stations + 2),
            rng.next_u64() % 200,
            (rng.next_u64() % 1100) as u32,
        )
    };
    match rng.next_u64() % 4 {
        0 => {
            let (station, hour, soc) = entry(rng);
            Op::CheckIn { station, hour, soc }
        }
        1 => Op::Report {
            station: rng.next_u64() % (stations + 2),
            hour: rng.next_u64() % 200,
            level: (rng.next_u64() % 5) as u8,
        },
        2 => Op::Override {
            station: rng.next_u64() % (stations + 2),
            hour: rng.next_u64() % 200,
        },
        _ => {
            let len = 1 + (rng.next_u64() % 7) as usize;
            Op::Batch((0..len).map(|_| entry(rng)).collect())
        }
    }
}

/// `(stations, shards, ops)` — the whole interleaving scenario. The
/// vendored proptest subset has no combinators, so this is a bespoke
/// [`Strategy`].
#[derive(Debug)]
struct Scenario;

impl Strategy for Scenario {
    type Value = (u64, usize, Vec<Op>);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        // Station counts must be even (§III pairs).
        let stations = 2 * (1 + rng.next_u64() % 6);
        let shards = 1 + (rng.next_u64() % 4) as usize;
        let len = (rng.next_u64() % 60) as usize;
        let ops = (0..len).map(|_| sample_op(rng, stations)).collect();
        (stations, shards, ops)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn maintained_aggregates_equal_a_from_scratch_scan(case in Scenario) {
        let (stations, shards, ops) = case;
        let core = FleetCore::new(stations, shards).expect("valid core");
        for op in &ops {
            match op {
                Op::CheckIn { station, hour, soc } => {
                    let _ = core.check_in(*station, at(*hour), *soc);
                }
                Op::Report { station, hour, level } => {
                    let _ = core.report_state(*station, at(*hour), *level);
                }
                Op::Override { station, hour } => {
                    let _ = core.override_for(*station, at(*hour));
                }
                Op::Batch(entries) => {
                    let _ = core.check_in_batch(&batch(entries));
                }
            }
        }
        prop_assert_eq!(
            core.power_counts(),
            core.power_counts_scan(),
            "state counts drifted from the scan"
        );
        prop_assert_eq!(
            core.soc_histogram(),
            core.soc_histogram_scan(),
            "battery histogram drifted from the scan"
        );
    }

    #[test]
    fn decisions_equal_one_southampton_server_per_pair(case in Scenario) {
        let (stations, shards, ops) = case;
        let core = FleetCore::new(stations, shards).expect("valid core");
        let mut oracle = vec![SouthamptonServer::new(); (stations / 2) as usize];
        // The oracle's answer for a station; `None` for an unknown one.
        let decide = |oracle: &mut Vec<SouthamptonServer>, station: u64| {
            let server = oracle.get_mut((station / 2) as usize)?;
            Some(server.fetch_override(role(station)))
        };
        for op in &ops {
            match op {
                Op::CheckIn { station, hour, soc } => {
                    let _ = core.check_in(*station, at(*hour), *soc);
                }
                Op::Report { station, hour, level } => {
                    let outcome = core.report_state(*station, at(*hour), *level);
                    let state = PowerState::try_from_level(*level);
                    match (state, oracle.get_mut((*station / 2) as usize)) {
                        (Some(state), Some(server)) => {
                            prop_assert_eq!(outcome, Ok(()));
                            server.upload_power_state(role(*station), at(*hour).date(), state);
                        }
                        _ => prop_assert!(outcome.is_err(), "{:?} was accepted", op),
                    }
                }
                Op::Override { station, hour } => {
                    let got = core.override_for(*station, at(*hour)).ok();
                    prop_assert_eq!(got, decide(&mut oracle, *station), "after {:?}", op);
                }
                Op::Batch(entries) => {
                    let _ = core.check_in_batch(&batch(entries));
                }
            }
        }
        let mut counts = PowerCounts::default();
        for station in 0..stations {
            let got = core.override_for(station, at(0)).ok();
            prop_assert_eq!(got, decide(&mut oracle, station), "station {}", station);
            let server = oracle.get((station / 2) as usize).expect("known station");
            counts.count(server.states().last_reported(role(station)));
        }
        prop_assert_eq!(core.power_counts(), counts, "state counts differ from the oracle's");
        prop_assert_eq!(core.power_counts_scan(), counts);
    }

    #[test]
    fn batch_uploads_equal_prefix_of_singles(case in Scenario) {
        let (stations, shards, ops) = case;
        let batched = FleetCore::new(stations, shards).expect("valid core");
        let singled = FleetCore::new(stations, shards).expect("valid core");
        for op in &ops {
            if let Op::Batch(entries) = op {
                let entries = batch(entries);
                let outcome = batched.check_in_batch(&entries);
                let mut applied = 0u64;
                let mut first_err = None;
                for &(station, when, soc) in &entries {
                    match singled.check_in(station, when, soc) {
                        Ok(()) => applied += 1,
                        Err(e) => {
                            first_err = Some(e);
                            break;
                        }
                    }
                }
                match (outcome, first_err) {
                    (Ok(n), None) => prop_assert_eq!(n, applied),
                    (Err(b), Some(s)) => prop_assert_eq!(b, s, "same typed error"),
                    (got, want) => prop_assert!(
                        false,
                        "batch {:?} disagrees with singles {:?}",
                        got,
                        want
                    ),
                }
            }
        }
        prop_assert_eq!(batched.soc_histogram(), singled.soc_histogram());
        prop_assert_eq!(batched.power_counts(), singled.power_counts());
        prop_assert_eq!(
            batched.telemetry_ndjson(),
            singled.telemetry_ndjson(),
            "batched telemetry must be per-entry identical"
        );
    }
}
