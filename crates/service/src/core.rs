//! The fleet-wide decision state behind the HTTP front end.
//!
//! The §III protocol is a *pair* protocol: each base station is coupled
//! to exactly one reference station and the server's override decision
//! is the minimum of the pair's last reported power states. A fleet of
//! `N` stations therefore decomposes into `N / 2` independent pairs —
//! station `2p` is pair `p`'s base, station `2p + 1` its reference —
//! each owning its own [`SouthamptonServer`] decision core. Pairs never
//! read each other's state, which is what makes the whole core shardable
//! without changing a single decision.
//!
//! # Sharding and determinism
//!
//! Pairs are distributed round-robin over a fixed number of shards, each
//! behind its own mutex so concurrent connections touching different
//! pairs never contend. Every shard also carries a
//! [`MemoryRecorder`]; request handlers record only **commutative**
//! telemetry (counters, daily rollups, histogram observations — never
//! events or gauges), so however the shards' recorders are fed by racing
//! worker threads, merging them in shard-index order yields the same
//! aggregate. Combined with per-pair request ordering (the load
//! harness's connection affinity), every response body and the
//! `/api/telemetry` export are pure functions of the request sequence.
//!
//! # Incremental aggregates
//!
//! Each shard additionally maintains its slice of the two analytics
//! aggregates — [`PowerCounts`] and [`SocHistogram`] — updated in place
//! on every write (check-in or state report). An analytics read then
//! only takes each shard lock long enough to copy two small `Copy`
//! structs, instead of walking every pair under the lock: reads cost
//! `O(shards)`, not `O(stations)`, and no longer serialize against the
//! write path for any meaningful time. The invariant — maintained
//! aggregates equal a from-scratch scan after any interleaving of
//! writes — is pinned by a property test.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use glacsweb_obs::{MemoryRecorder, Origin, Recorder};
use glacsweb_server::SouthamptonServer;
use glacsweb_sim::SimTime;
use glacsweb_station::md5::{md5, to_hex};
use glacsweb_station::{PowerState, StationId, Uplink};

use crate::http::push_u64;

/// Telemetry origin for every record the service makes.
const ORIGIN: Origin = Origin::new("service", "fleet");

/// Typed failure of a core operation; the HTTP layer maps each variant
/// to a status code. Nothing in this module panics on bad input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The fleet must have a positive, even station count (§III pairs).
    StationCount(u64),
    /// At least one shard is required.
    ShardCount,
    /// Station id at or beyond the fleet size.
    UnknownStation(u64),
    /// Power-state level outside the Table II ladder (0–3).
    BadLevel(u8),
    /// State of charge outside 0–1000 permille.
    BadSoc(u32),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::StationCount(n) => {
                write!(f, "fleet needs a positive even station count, got {n}")
            }
            CoreError::ShardCount => write!(f, "at least one shard is required"),
            CoreError::UnknownStation(s) => write!(f, "unknown station {s}"),
            CoreError::BadLevel(l) => write!(f, "power-state level {l} is not in 0..=3"),
            CoreError::BadSoc(s) => write!(f, "state of charge {s} is not in 0..=1000 permille"),
        }
    }
}

impl std::error::Error for CoreError {}

/// One shard: a slice of the fleet's pairs plus this shard's telemetry
/// and its maintained slice of the fleet-wide analytics aggregates.
#[derive(Debug)]
struct Shard {
    /// Pair decision cores, indexed by `pair / shard_count`.
    pairs: Vec<SouthamptonServer>,
    /// Latest reported state of charge per *global* station id, permille.
    last_soc: std::collections::BTreeMap<u64, u32>,
    /// Commutative-only telemetry (counters, rollups, observations).
    recorder: MemoryRecorder,
    /// Maintained per-state station counts for this shard's stations;
    /// updated on every state report, summed across shards on read.
    counts: PowerCounts,
    /// Maintained battery histogram over this shard's latest check-ins;
    /// updated on every check-in, summed across shards on read.
    soc: SocHistogram,
}

/// Station-count aggregate per power state — the read side the farm
/// dashboards poll (`/api/analytics/states`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PowerCounts {
    /// Stations whose last report was level 0..=3 (index = level).
    pub reported: [u64; 4],
    /// Stations that have never reported a state.
    pub unreported: u64,
}

impl PowerCounts {
    /// Deterministic JSON rendering (fixed key order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(192);
        self.write_json(&mut out);
        out
    }

    /// Appends the JSON rendering of [`PowerCounts::to_json`] to `out` —
    /// same bytes, no intermediate allocation (the HTTP hot path writes
    /// straight into the response body buffer).
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"schema\":\"glacsweb-service/states-1\",\"states\":[");
        for (level, n) in self.reported.iter().enumerate() {
            if level > 0 {
                out.push(',');
            }
            out.push_str("{\"level\":");
            push_u64(out, u64::try_from(level).unwrap_or(0));
            out.push_str(",\"stations\":");
            push_u64(out, *n);
            out.push('}');
        }
        out.push_str("],\"unreported\":");
        push_u64(out, self.unreported);
        out.push('}');
    }

    /// Adds every count of `other` into `self` (the cross-shard sum).
    fn add(&mut self, other: &PowerCounts) {
        for (mine, theirs) in self.reported.iter_mut().zip(other.reported.iter()) {
            *mine += *theirs;
        }
        self.unreported += other.unreported;
    }

    /// Moves one station's count from `from` to `to`, where `None` is
    /// the never-reported bucket. The aggregate-maintenance primitive:
    /// called with the pair server's last-reported state before and
    /// after an upload, it keeps the counts equal to a full scan.
    fn transfer(&mut self, from: Option<PowerState>, to: Option<PowerState>) {
        if from == to {
            return;
        }
        match from {
            Some(state) => {
                if let Some(slot) = self.reported.get_mut(usize::from(state.level())) {
                    *slot = slot.saturating_sub(1);
                }
            }
            None => self.unreported = self.unreported.saturating_sub(1),
        }
        match to {
            Some(state) => {
                if let Some(slot) = self.reported.get_mut(usize::from(state.level())) {
                    *slot += 1;
                }
            }
            None => self.unreported += 1,
        }
    }
}

/// Fleet battery histogram over the latest check-in per station —
/// ten fixed 10 %-of-charge buckets (`/api/analytics/battery`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SocHistogram {
    /// Bucket `i` counts stations whose last state of charge fell in
    /// `[i*100, (i+1)*100)` permille (the last bucket is closed above).
    pub buckets: [u64; 10],
    /// Stations that have checked in at least once.
    pub samples: u64,
}

impl SocHistogram {
    /// Deterministic JSON rendering (fixed key order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        self.write_json(&mut out);
        out
    }

    /// Appends the JSON rendering of [`SocHistogram::to_json`] to `out`
    /// — same bytes, no intermediate allocation.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"schema\":\"glacsweb-service/battery-1\",\"samples\":");
        push_u64(out, self.samples);
        out.push_str(",\"buckets\":[");
        for (i, n) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let lo = u64::try_from(i).unwrap_or(0) * 100;
            out.push_str("{\"lo_permille\":");
            push_u64(out, lo);
            out.push_str(",\"hi_permille\":");
            push_u64(out, lo + 100);
            out.push_str(",\"count\":");
            push_u64(out, *n);
            out.push('}');
        }
        out.push_str("]}");
    }

    /// The bucket index a state of charge falls in.
    fn bucket(soc: u32) -> usize {
        usize::try_from(soc / 100).unwrap_or(9).min(9)
    }

    /// Adds every bucket of `other` into `self` (the cross-shard sum).
    fn add(&mut self, other: &SocHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
        self.samples += other.samples;
    }

    /// Moves one station's sample from bucket `from` to bucket `to`
    /// (a re-check-in with a new state of charge).
    fn rebucket(&mut self, from: u32, to: u32) {
        if let Some(slot) = self.buckets.get_mut(Self::bucket(from)) {
            *slot = slot.saturating_sub(1);
        }
        if let Some(slot) = self.buckets.get_mut(Self::bucket(to)) {
            *slot += 1;
        }
    }

    /// Records a station's first check-in into bucket `soc`.
    fn sample(&mut self, soc: u32) {
        if let Some(slot) = self.buckets.get_mut(Self::bucket(soc)) {
            *slot += 1;
        }
        self.samples += 1;
    }
}

/// The sharded fleet decision state (see the module docs).
#[derive(Debug)]
pub struct FleetCore {
    stations: u64,
    shards: Vec<Mutex<Shard>>,
    /// Requests the HTTP layer has completed (dashboard colour only —
    /// never part of a deterministic response surface).
    served: AtomicU64,
}

impl FleetCore {
    /// Builds the decision state for a fleet of `stations` (positive and
    /// even: §III stations come in base/reference pairs), sharded over
    /// `shards` mutexes.
    pub fn new(stations: u64, shards: usize) -> Result<FleetCore, CoreError> {
        if stations == 0 || !stations.is_multiple_of(2) {
            return Err(CoreError::StationCount(stations));
        }
        if shards == 0 {
            return Err(CoreError::ShardCount);
        }
        let pairs = stations / 2;
        let shards = shards.min(usize::try_from(pairs).unwrap_or(usize::MAX));
        let mut out = Vec::with_capacity(shards);
        for s in 0..shards as u64 {
            // Round-robin: shard s owns pairs s, s + shards, s + 2*shards, …
            let owned = (pairs.saturating_sub(s)).div_ceil(shards as u64);
            out.push(Mutex::new(Shard {
                pairs: (0..owned).map(|_| SouthamptonServer::new()).collect(),
                last_soc: std::collections::BTreeMap::new(),
                recorder: MemoryRecorder::default(),
                counts: PowerCounts {
                    reported: [0; 4],
                    // Every station starts in the never-reported bucket.
                    unreported: owned * 2,
                },
                soc: SocHistogram::default(),
            }));
        }
        Ok(FleetCore {
            stations,
            shards: out,
            served: AtomicU64::new(0),
        })
    }

    /// Total stations the core serves.
    pub fn stations(&self) -> u64 {
        self.stations
    }

    /// Shard count (fixed at construction).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Requests the HTTP layer has completed so far.
    pub fn requests_served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Counts one completed request (called by the HTTP layer).
    pub fn count_served(&self) {
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    /// Maps a global station id to its shard, the pair's slot within the
    /// shard, and the station's §III role within the pair.
    fn locate(&self, station: u64) -> Result<(usize, usize, StationId), CoreError> {
        if station >= self.stations {
            return Err(CoreError::UnknownStation(station));
        }
        let pair = station / 2;
        let role = if station.is_multiple_of(2) {
            StationId::Base
        } else {
            StationId::Reference
        };
        let shard = usize::try_from(pair % self.shards.len() as u64).unwrap_or(0);
        let slot = usize::try_from(pair / self.shards.len() as u64).unwrap_or(0);
        Ok((shard, slot, role))
    }

    /// Locks shard `index`; a poisoned mutex is recovered rather than
    /// propagated (the protected state is valid after any panic in a
    /// *caller*, and this crate's own code never panics while holding
    /// the lock — the analyze panic-freedom scope pins that).
    fn lock(&self, index: usize) -> Option<MutexGuard<'_, Shard>> {
        self.shards
            .get(index)
            .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Runs `f` on the pair's decision core plus the shard's recorder.
    fn with_pair<T>(
        &self,
        station: u64,
        f: impl FnOnce(&mut SouthamptonServer, &mut MemoryRecorder, StationId) -> T,
    ) -> Result<T, CoreError> {
        let (shard, slot, role) = self.locate(station)?;
        let mut guard = self.lock(shard).ok_or(CoreError::UnknownStation(station))?;
        let shard = &mut *guard;
        let server = shard
            .pairs
            .get_mut(slot)
            .ok_or(CoreError::UnknownStation(station))?;
        Ok(f(server, &mut shard.recorder, role))
    }

    /// Stages one MD5-advertised code update per station, so the
    /// update-fetch / checksum-ack flow has something to serve. The
    /// payload is a pure function of the station id.
    pub fn stage_updates(&self) {
        for station in 0..self.stations {
            let name = update_name(station);
            let payload = update_payload(station);
            let _ = self.with_pair(station, |server, _, role| {
                server.desk_mut().stage_update(role, &name, payload);
            });
        }
    }

    /// A station's periodic power-state check-in: records its battery
    /// state of charge (`soc` in permille of full charge).
    pub fn check_in(&self, station: u64, at: SimTime, soc: u32) -> Result<(), CoreError> {
        if soc > 1000 {
            return Err(CoreError::BadSoc(soc));
        }
        let (shard, _, _) = self.locate(station)?;
        let mut guard = self.lock(shard).ok_or(CoreError::UnknownStation(station))?;
        apply_check_in(&mut guard, station, at, soc);
        Ok(())
    }

    /// A batch of check-ins applied in order — the `/api/checkin-batch`
    /// write path, amortizing lock traffic the way the real deployment's
    /// GPRS batch uploads amortized connection setup.
    ///
    /// Consecutive entries on the same shard reuse one lock acquisition.
    /// Validation is per entry and identical to [`FleetCore::check_in`]
    /// (state-of-charge range first, then station lookup); on the first
    /// invalid entry the batch stops with that entry's error and every
    /// *earlier* entry stays applied — exactly the state a sequence of
    /// single check-ins failing at the same point would leave. Telemetry
    /// records are the same per entry as for singles, so a batched
    /// replay exports byte-identical telemetry.
    ///
    /// Returns the number of entries applied (= `entries.len()` on
    /// success).
    pub fn check_in_batch(&self, entries: &[(u64, SimTime, u32)]) -> Result<u64, CoreError> {
        let mut held: Option<(usize, MutexGuard<'_, Shard>)> = None;
        let mut applied = 0u64;
        for &(station, at, soc) in entries {
            if soc > 1000 {
                return Err(CoreError::BadSoc(soc));
            }
            let (shard, _, _) = self.locate(station)?;
            let reuse = matches!(&held, Some((idx, _)) if *idx == shard);
            if !reuse {
                // Drop the old guard before taking the new one: at most
                // one shard lock is ever held, so batches cannot
                // deadlock against each other whatever their order.
                drop(held.take());
                let guard = self.lock(shard).ok_or(CoreError::UnknownStation(station))?;
                held = Some((shard, guard));
            }
            let Some((_, guard)) = held.as_mut() else {
                return Err(CoreError::UnknownStation(station));
            };
            apply_check_in(guard, station, at, soc);
            applied += 1;
        }
        Ok(applied)
    }

    /// A station's daily power-state report (the §III upload); the civil
    /// date is derived from the report instant. Maintains the per-shard
    /// [`PowerCounts`] by observing the pair server's last-reported
    /// state before and after the upload (newest-date-wins, so an upload
    /// does not always change it).
    pub fn report_state(&self, station: u64, at: SimTime, level: u8) -> Result<(), CoreError> {
        let state = PowerState::try_from_level(level).ok_or(CoreError::BadLevel(level))?;
        let (shard, slot, role) = self.locate(station)?;
        let mut guard = self.lock(shard).ok_or(CoreError::UnknownStation(station))?;
        let shard = &mut *guard;
        let server = shard
            .pairs
            .get_mut(slot)
            .ok_or(CoreError::UnknownStation(station))?;
        let before = server.states().last_reported(role);
        server.upload_power_state(role, at.date(), state);
        let after = server.states().last_reported(role);
        shard.counts.transfer(before, after);
        shard.recorder.counter(at, ORIGIN, "state_reports", 1);
        Ok(())
    }

    /// The §III override decision for a station: the pair minimum,
    /// `None` until both stations of the pair have reported.
    pub fn override_for(&self, station: u64, at: SimTime) -> Result<Option<PowerState>, CoreError> {
        self.with_pair(station, |server, recorder, role| {
            let decision = server.fetch_override(role);
            recorder.counter(at, ORIGIN, "override_queries", 1);
            if decision.is_some() {
                recorder.counter(at, ORIGIN, "override_decided", 1);
            }
            decision
        })
    }

    /// The next staged code update for a station, if any (§VI download).
    pub fn update_for(
        &self,
        station: u64,
        at: SimTime,
    ) -> Result<Option<glacsweb_station::CodeUpdate>, CoreError> {
        self.with_pair(station, |server, recorder, role| {
            let update = server.fetch_update(role);
            recorder.counter(at, ORIGIN, "update_fetches", 1);
            if update.is_some() {
                recorder.counter(at, ORIGIN, "update_served", 1);
            }
            update
        })
    }

    /// A station's MD5 receipt for an applied update (§VI: the tiny HTTP
    /// GET the deployed `wget` could manage). Returns whether the
    /// reported digest matches what was staged. The verdict is computed,
    /// not recorded: no route reads a pair's receipt list, so keeping
    /// every receipt would only grow it without bound. An unreachable
    /// pair server receives no receipt, so verifies nothing.
    pub fn ack_update(
        &self,
        station: u64,
        at: SimTime,
        file: &str,
        md5_hex: &str,
    ) -> Result<bool, CoreError> {
        self.with_pair(station, |server, recorder, _| {
            let verified = server.is_reachable() && server.desk().verify_checksum(file, md5_hex);
            recorder.counter(at, ORIGIN, "update_acks", 1);
            if verified {
                recorder.counter(at, ORIGIN, "update_acks_verified", 1);
            }
            verified
        })
    }

    /// Per-power-state station counts over every pair's last reports:
    /// the maintained per-shard counts summed in shard-index order. Each
    /// shard lock is held only long enough to copy a `Copy` struct.
    pub fn power_counts(&self) -> PowerCounts {
        let mut out = PowerCounts::default();
        for index in 0..self.shards.len() {
            if let Some(guard) = self.lock(index) {
                out.add(&guard.counts);
            }
        }
        out
    }

    /// Fleet battery histogram over the latest check-in per station:
    /// the maintained per-shard histograms summed in shard-index order.
    pub fn soc_histogram(&self) -> SocHistogram {
        let mut out = SocHistogram::default();
        for index in 0..self.shards.len() {
            if let Some(guard) = self.lock(index) {
                out.add(&guard.soc);
            }
        }
        out
    }

    /// The aggregated telemetry as NDJSON: shard recorders folded by
    /// reference (no per-shard recorder clone) into one accumulator in
    /// shard-index order, then serialised. Because handlers record only
    /// commutative telemetry, the export is a pure function of the
    /// requests served, independent of worker scheduling.
    pub fn telemetry_ndjson(&self) -> String {
        let mut out = String::with_capacity(4096);
        self.telemetry_ndjson_into(&mut out);
        out
    }

    /// Appends the `/api/telemetry` NDJSON to `out` — same bytes as
    /// [`FleetCore::telemetry_ndjson`], writing straight into a caller
    /// buffer (the HTTP layer passes its response body buffer).
    pub fn telemetry_ndjson_into(&self, out: &mut String) {
        let mut merged = MemoryRecorder::default();
        for index in 0..self.shards.len() {
            if let Some(guard) = self.lock(index) {
                merged.merge_ref(&guard.recorder);
            }
        }
        merged.write_ndjson_into(out);
    }
}

/// The one write path for a check-in, shared by the single and batch
/// endpoints so their per-entry effects — decision state, maintained
/// histogram, telemetry — are identical by construction.
fn apply_check_in(shard: &mut Shard, station: u64, at: SimTime, soc: u32) {
    match shard.last_soc.insert(station, soc) {
        Some(prev) => shard.soc.rebucket(prev, soc),
        None => shard.soc.sample(soc),
    }
    shard.recorder.counter(at, ORIGIN, "checkins", 1);
    shard
        .recorder
        .observe(ORIGIN, "checkin_soc_permille", u64::from(soc));
}

/// The staged update's file name for a station (pure function).
pub fn update_name(station: u64) -> String {
    // glacsweb: allow(perf-hygiene, reason = "staging runs once at startup, never per request")
    format!("control-{station}.py")
}

/// The staged update's payload for a station (pure function); small,
/// like the real project's Python control code.
pub fn update_payload(station: u64) -> Vec<u8> {
    // glacsweb: allow(perf-hygiene, reason = "staging runs once at startup, never per request")
    format!("# glacsweb control build for station {station}\nSTATION = {station}\n").into_bytes()
}

/// Hex digest of a staged payload — what a correct station reports back.
pub fn update_md5_hex(payload: &[u8]) -> String {
    to_hex(&md5(payload))
}

#[cfg(test)]
mod aggregate_drift;

#[cfg(test)]
mod tests {
    use super::*;

    fn at(hour: u32) -> SimTime {
        SimTime::from_ymd_hms(2009, 9, 22, hour, 0, 0)
    }

    #[test]
    fn rejects_bad_construction() {
        assert_eq!(FleetCore::new(0, 4).err(), Some(CoreError::StationCount(0)));
        assert_eq!(FleetCore::new(7, 4).err(), Some(CoreError::StationCount(7)));
        assert_eq!(FleetCore::new(8, 0).err(), Some(CoreError::ShardCount));
    }

    #[test]
    fn shards_never_outnumber_pairs() {
        let core = FleetCore::new(4, 64).expect("valid");
        assert_eq!(core.shard_count(), 2, "2 pairs cap 64 requested shards");
    }

    #[test]
    fn pair_minimum_is_decided_per_pair() {
        let core = FleetCore::new(8, 3).expect("valid");
        // Pair 1 = stations 2 (base) and 3 (reference).
        core.report_state(2, at(9), 3).expect("ok");
        assert_eq!(core.override_for(2, at(9)).expect("ok"), None);
        core.report_state(3, at(10), 1).expect("ok");
        assert_eq!(
            core.override_for(2, at(10)).expect("ok"),
            Some(PowerState::S1)
        );
        assert_eq!(
            core.override_for(3, at(10)).expect("ok"),
            Some(PowerState::S1)
        );
        // Pair 0 is untouched by pair 1's reports.
        assert_eq!(core.override_for(0, at(10)).expect("ok"), None);
    }

    #[test]
    fn typed_errors_for_bad_input() {
        let core = FleetCore::new(4, 2).expect("valid");
        assert_eq!(
            core.check_in(4, at(9), 500).err(),
            Some(CoreError::UnknownStation(4))
        );
        assert_eq!(
            core.check_in(0, at(9), 1001).err(),
            Some(CoreError::BadSoc(1001))
        );
        assert_eq!(
            core.report_state(0, at(9), 4).err(),
            Some(CoreError::BadLevel(4))
        );
    }

    #[test]
    fn aggregates_span_all_shards() {
        let core = FleetCore::new(6, 2).expect("valid");
        core.check_in(0, at(9), 950).expect("ok");
        core.check_in(1, at(9), 120).expect("ok");
        core.check_in(2, at(9), 1000).expect("ok");
        core.report_state(0, at(9), 3).expect("ok");
        core.report_state(5, at(9), 1).expect("ok");
        let hist = core.soc_histogram();
        assert_eq!(hist.samples, 3);
        assert_eq!(hist.buckets[9], 2, "950 and the closed-top 1000");
        assert_eq!(hist.buckets[1], 1);
        let counts = core.power_counts();
        assert_eq!(counts.reported[3], 1);
        assert_eq!(counts.reported[1], 1);
        assert_eq!(counts.unreported, 4);
        assert!(hist.to_json().contains("\"samples\":3"));
        assert!(counts.to_json().contains("\"unreported\":4"));
    }

    #[test]
    fn maintained_aggregates_match_the_scan() {
        let core = FleetCore::new(10, 3).expect("valid");
        // Re-check-ins move buckets, newer/older reports race per role.
        for (station, soc) in [(0, 950), (0, 120), (3, 40), (3, 990), (7, 500)] {
            core.check_in(station, at(9), soc).expect("ok");
        }
        for (station, hour, level) in [(0, 9, 3), (0, 10, 1), (1, 12, 2), (4, 9, 2), (4, 8, 3)] {
            core.report_state(station, at(hour), level).expect("ok");
        }
        assert_eq!(core.power_counts(), core.power_counts_scan());
        assert_eq!(core.soc_histogram(), core.soc_histogram_scan());
    }

    #[test]
    fn batch_check_in_matches_singles() {
        let entries = [
            (0u64, at(9), 950u32),
            (1, at(9), 120),
            (0, at(10), 130),
            (5, at(10), 700),
        ];
        let single = FleetCore::new(6, 2).expect("valid");
        for &(station, when, soc) in &entries {
            single.check_in(station, when, soc).expect("ok");
        }
        let batch = FleetCore::new(6, 2).expect("valid");
        assert_eq!(batch.check_in_batch(&entries).expect("ok"), 4);
        assert_eq!(batch.soc_histogram(), single.soc_histogram());
        assert_eq!(batch.telemetry_ndjson(), single.telemetry_ndjson());
    }

    #[test]
    fn batch_check_in_stops_at_the_first_bad_entry() {
        let core = FleetCore::new(4, 2).expect("valid");
        let entries = [(0u64, at(9), 500u32), (1, at(9), 1001), (2, at(9), 300)];
        assert_eq!(
            core.check_in_batch(&entries).err(),
            Some(CoreError::BadSoc(1001))
        );
        let hist = core.soc_histogram();
        assert_eq!(hist.samples, 1, "the prefix before the error applied");
        assert_eq!(
            core.check_in_batch(&[(9, at(9), 10)]).err(),
            Some(CoreError::UnknownStation(9))
        );
    }

    #[test]
    fn update_flow_verifies_md5() {
        let core = FleetCore::new(2, 1).expect("valid");
        core.stage_updates();
        let update = core
            .update_for(0, at(9))
            .expect("ok")
            .expect("one update staged");
        assert_eq!(update.name, update_name(0));
        let good = update_md5_hex(&update.payload);
        assert!(core.ack_update(0, at(10), &update.name, &good).expect("ok"));
        assert!(
            !core
                .ack_update(0, at(10), &update.name, "deadbeef")
                .expect("ok"),
            "a corrupted receipt must not verify"
        );
        assert_eq!(
            core.update_for(0, at(11)).expect("ok"),
            None,
            "the queue drains"
        );
    }

    #[test]
    fn telemetry_is_a_pure_function_of_the_requests() {
        let run = |shards: usize| {
            let core = FleetCore::new(8, shards).expect("valid");
            for station in 0..8 {
                core.check_in(station, at(9), 500).expect("ok");
                core.report_state(station, at(10), 2).expect("ok");
                let _ = core.override_for(station, at(10)).expect("ok");
            }
            core.telemetry_ndjson()
        };
        assert_eq!(run(1), run(4), "shard count never shows in telemetry");
    }
}
