//! Property pin for the incremental analytics aggregates: after *any*
//! interleaving of check-ins, state reports, and batch uploads — valid
//! and invalid alike — the maintained per-shard aggregates must equal a
//! from-scratch scan of the pair servers. A second property pins batch
//! uploads to exact single-check-in equivalence, prefix-on-error
//! semantics included. The scans live here, in test code: nothing on
//! the serving path needs them.

use proptest::prelude::*;
use proptest::TestRng;

use glacsweb_sim::SimTime;
use glacsweb_station::StationId;

use super::{FleetCore, PowerCounts, SocHistogram};

impl FleetCore {
    /// [`FleetCore::power_counts`] recomputed by walking every pair:
    /// the reference the maintained counts are checked against.
    pub(super) fn power_counts_scan(&self) -> PowerCounts {
        let mut out = PowerCounts::default();
        for index in 0..self.shards.len() {
            let Some(guard) = self.lock(index) else {
                continue;
            };
            for server in &guard.pairs {
                for role in [StationId::Base, StationId::Reference] {
                    match server.states().last_reported(role) {
                        Some(state) => {
                            if let Some(slot) = out.reported.get_mut(usize::from(state.level())) {
                                *slot += 1;
                            }
                        }
                        None => out.unreported += 1,
                    }
                }
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
            for &soc in guard.last_soc.iter().flatten() {
                if let Some(slot) = out.buckets.get_mut(SocHistogram::bucket(soc)) {
                    *slot += 1;
                }
                out.samples += 1;
            }
        }
        out
    }
}

#[derive(Debug, Clone)]
enum Op {
    CheckIn { station: u64, hour: u64, soc: u32 },
    Report { station: u64, hour: u64, level: u8 },
    Batch(Vec<(u64, u64, u32)>),
}

fn at(hour: u64) -> SimTime {
    SimTime::from_unix(hour * 3600)
}

/// Draws one op over `stations + 2` station ids (some unknown), with
/// out-of-range state-of-charge and level values included, so error
/// paths get interleaved with valid writes.
fn sample_op(rng: &mut TestRng, stations: u64) -> Op {
    let entry = |rng: &mut TestRng| {
        (
            rng.next_u64() % (stations + 2),
            rng.next_u64() % 200,
            (rng.next_u64() % 1100) as u32,
        )
    };
    match rng.next_u64() % 3 {
        0 => {
            let (station, hour, soc) = entry(rng);
            Op::CheckIn { station, hour, soc }
        }
        1 => Op::Report {
            station: rng.next_u64() % (stations + 2),
            hour: rng.next_u64() % 200,
            level: (rng.next_u64() % 5) as u8,
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
                Op::Batch(entries) => {
                    let entries: Vec<(u64, SimTime, u32)> = entries
                        .iter()
                        .map(|&(station, hour, soc)| (station, at(hour), soc))
                        .collect();
                    let _ = core.check_in_batch(&entries);
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
    fn batch_uploads_equal_prefix_of_singles(case in Scenario) {
        let (stations, shards, ops) = case;
        let batched = FleetCore::new(stations, shards).expect("valid core");
        let singled = FleetCore::new(stations, shards).expect("valid core");
        for op in &ops {
            if let Op::Batch(entries) = op {
                let entries: Vec<(u64, SimTime, u32)> = entries
                    .iter()
                    .map(|&(station, hour, soc)| (station, at(hour), soc))
                    .collect();
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
