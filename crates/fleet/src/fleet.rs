//! The fleet: a vector of independent sites sharded across the sweep
//! thread pool, with index-ordered merges for telemetry and summaries.

use std::path::Path;

use glacsweb_obs::{intern, merge_all, MemoryRecorder, Origin, Recorder};
use glacsweb_sim::{SimDuration, SimRng, SimTime};
use glacsweb_snapshot::SnapshotError;
use serde::{Deserialize, Serialize};

use crate::config::{FleetConfig, FleetConfigError};
use crate::site::{ExecCounters, Site, SiteEvent, TICK};

/// Kernel cost accounting for a fleet run (aggregated over sites).
///
/// These are *execution* statistics: tick mode and leap mode produce
/// identical telemetry but legitimately different numbers here, so they
/// are never part of summaries or digests.
pub type ExecStats = ExecCounters;

/// A fleet of N independent glacier sites × M stations each.
///
/// See the crate docs for the architecture. The fleet owns its sites;
/// [`Fleet::run_until`] shards them across the
/// [`glacsweb_sweep`] thread pool and reassembles them in index order,
/// so results are byte-identical at any thread count.
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    sites: Vec<Site>,
    /// Interned per-site telemetry origins (derived; rebuilt on restore).
    origins: Vec<Origin>,
    now: SimTime,
    threads: usize,
}

impl Fleet {
    /// Builds a fleet from a validated configuration.
    pub fn new(config: FleetConfig) -> Result<Fleet, FleetConfigError> {
        config.validate()?;
        // Forking is a site's only draw from the master: fork every
        // stream in index order, then build the sites across the pool.
        let mut master = SimRng::seed_from(config.seed);
        let streams: Vec<(u32, SimRng)> = (0..config.sites)
            .map(|i| (i, master.fork(u64::from(i))))
            .collect();
        let threads = glacsweb_sweep::threads();
        let sites = glacsweb_sweep::run_cells(streams, threads, |(i, rng)| {
            Site::from_stream(&config, i, rng)
        });
        let origins = site_origins(config.sites);
        let now = config.start;
        Ok(Fleet {
            config,
            sites,
            origins,
            now,
            threads,
        })
    }

    /// Sets the worker-thread count for subsequent runs (results are
    /// byte-identical whatever the value).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Current fleet clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The sites.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// Advances every site to `until` (snapped down to the tick grid),
    /// sharding sites across the worker pool.
    pub fn run_until(&mut self, until: SimTime) {
        let tick = TICK.as_secs();
        let h = SimTime::from_unix((until.unix() / tick) * tick);
        if h <= self.now {
            return;
        }
        let sites = std::mem::take(&mut self.sites);
        self.sites = glacsweb_sweep::run_cells(sites, self.threads, |mut site| {
            site.advance_to(h);
            site
        });
        self.now = h;
    }

    /// Runs `days` further days.
    pub fn run_days(&mut self, days: u64) {
        self.run_until(self.now + SimDuration::from_days(days));
    }

    /// Aggregated service summary, built in site-index order.
    pub fn summary(&self) -> FleetSummary {
        let per_site: Vec<SiteSummary> = self.sites.iter().map(SiteSummary::from_site).collect();
        let mut total = SiteSummary::zero();
        for s in &per_site {
            total.absorb(s);
        }
        FleetSummary {
            sites: self.sites.len() as u64,
            stations: total.stations,
            days: self.now.saturating_since(self.config.start).as_days_f64(),
            windows_healthy: total.windows_healthy,
            windows_degraded: total.windows_degraded,
            windows_lost: total.windows_lost,
            deaths: total.deaths,
            restarts: total.restarts,
            overrides: total.overrides,
            storm_wakes: total.storm_wakes,
            sample_wakes: total.sample_wakes,
            alive: total.alive,
            mean_soc: if total.stations == 0 {
                0.0
            } else {
                total.soc_sum / total.stations as f64
            },
            energy_charged_wh: total.energy_charged_wh,
            energy_discharged_wh: total.energy_discharged_wh,
            per_site,
        }
    }

    /// Merged fleet telemetry: per-site recorders materialised from the
    /// service counters and the final state-of-charge distribution, then
    /// combined in site-index order. Recorders are built here, at export
    /// time, rather than fed on the wake hot path — the counters are a
    /// complete summary of what a recorder would have accumulated, so
    /// the export stays byte-identical at any thread count (and in
    /// either kernel mode) without a `BTreeMap` write per wake.
    pub fn telemetry(&self) -> MemoryRecorder {
        merge_all(
            self.sites
                .iter()
                .zip(self.origins.iter().copied())
                .map(|(site, origin)| {
                    let mut rec = MemoryRecorder::default();
                    let at = site.now;
                    let c = &site.counters;
                    for (name, v) in [
                        ("windows_healthy", c.windows_healthy),
                        ("windows_degraded", c.windows_degraded),
                        ("windows_lost", c.windows_lost),
                        ("deaths", c.deaths),
                        ("restarts", c.restarts),
                        ("overrides", c.overrides),
                        ("storm_wakes", c.storm_wakes),
                        ("sample_wakes", c.sample_wakes),
                    ] {
                        rec.counter(at, origin, name, v);
                    }
                    for b in &site.st.battery {
                        let pct = (b.state_of_charge() * 100.0) as u64;
                        rec.observe(origin, "final_soc_pct", pct);
                    }
                    rec
                }),
        )
    }

    /// Kernel execution statistics aggregated over sites.
    pub fn exec_stats(&self) -> ExecStats {
        let mut total = ExecCounters::default();
        for site in &self.sites {
            total.absorb(site.exec);
        }
        total
    }

    /// A canonical digest of the complete mutable fleet state — every
    /// battery/meter bit, OU anomaly, RNG position, schedule cursor and
    /// counter. Two fleets with equal digests took bit-identical
    /// trajectories; the leap-equivalence and thread-count tests pin it.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for site in &self.sites {
            h.u64(u64::from(site.index));
            h.u64(site.now.unix());
            h.u64(site.storms.rng_position());
            let st = &site.st;
            for s in 0..st.len() {
                h.f64(st.battery[s].state_of_charge());
                h.f64(st.battery[s].total_charged().value());
                h.f64(st.battery[s].total_discharged().value());
                h.f64(st.ou[s]);
                h.u64(st.rng[s].position());
                h.u64(st.tier[s] as u64);
                h.u64(u64::from(st.role[s]));
                h.u64(st.cursor[s].unix());
                h.u64(st.next_wake[s].unix());
                h.u64(u64::from(st.wake_kinds[s]));
                h.f64(st.sleep_load[s]);
                h.f64(st.sleep_harvest[s]);
                h.f64(st.sleep_temp[s]);
                for bits in st.glide[s].digest_bits() {
                    h.u64(bits);
                }
                h.u64(st.glide_start[s].unix());
                h.u64(u64::from(st.glide_storm[s]));
            }
            let c = &site.counters;
            for v in [
                c.windows_healthy,
                c.windows_degraded,
                c.windows_lost,
                c.deaths,
                c.restarts,
                c.overrides,
                c.storm_wakes,
                c.sample_wakes,
            ] {
                h.u64(v);
            }
        }
        h.finish()
    }

    /// Captures the complete fleet state for persistence.
    pub fn snapshot(&self) -> FleetState {
        FleetState {
            config: self.config.clone(),
            sites: self.sites.clone(),
            now: self.now,
        }
    }

    /// Rebuilds a fleet from a captured state, re-imposing every
    /// cross-field invariant (a crafted snapshot yields a typed error,
    /// never a panicking world).
    pub fn restore(mut state: FleetState) -> Result<Fleet, SnapshotError> {
        state
            .config
            .validate()
            .map_err(|e| SnapshotError::invalid(format!("fleet config: {e}")))?;
        if state.sites.len() != state.config.sites as usize {
            return Err(SnapshotError::invalid(format!(
                "snapshot carries {} sites but the config declares {}",
                state.sites.len(),
                state.config.sites
            )));
        }
        if state.now < state.config.start {
            return Err(SnapshotError::invalid(format!(
                "clock {:?} precedes the fleet start {:?}",
                state.now, state.config.start
            )));
        }
        let stations = state.config.stations_per_site as usize;
        for (i, site) in state.sites.iter_mut().enumerate() {
            if site.index as usize != i {
                return Err(SnapshotError::invalid(format!(
                    "site at position {i} carries index {}",
                    site.index
                )));
            }
            // Every run advances all sites and the fleet to one horizon,
            // so the clocks agree; a site clock elsewhere would make the
            // next run simulate from it.
            if site.now != state.now {
                return Err(SnapshotError::invalid(format!(
                    "site {i} clock {:?} differs from the fleet clock {:?}",
                    site.now, state.now
                )));
            }
            if !site.st.columns_consistent(stations) {
                return Err(SnapshotError::invalid(format!(
                    "site {i} station columns are inconsistent with {stations} stations"
                )));
            }
            // The storm draws divide by the schedule's means.
            if !site.storms.follows(&state.config) {
                return Err(SnapshotError::invalid(format!(
                    "site {i} storm schedule differs from the one its config implies"
                )));
            }
            site.wheel
                .rebase(site.now)
                .map_err(|e| SnapshotError::invalid(format!("site {i} calendar: {e}")))?;
            for (_, _, event) in site.wheel.iter() {
                let (SiteEvent::Tick(s) | SiteEvent::Wake(s)) = event;
                if s as usize >= stations {
                    return Err(SnapshotError::invalid(format!(
                        "site {i} queues an event for station {s} of {stations}"
                    )));
                }
            }
            for s in 0..stations {
                if site.st.next_wake[s] < site.st.cursor[s] {
                    return Err(SnapshotError::invalid(format!(
                        "site {i} station {s} wake precedes its cursor"
                    )));
                }
                if site.st.glide_start[s] > site.st.cursor[s] {
                    return Err(SnapshotError::invalid(format!(
                        "site {i} station {s} glide anchor lies past its cursor"
                    )));
                }
            }
        }
        let origins = site_origins(state.config.sites);
        Ok(Fleet {
            now: state.now,
            origins,
            config: state.config,
            sites: state.sites,
            threads: glacsweb_sweep::threads(),
        })
    }

    /// Writes a verified snapshot to `path` (atomic write-then-rename).
    pub fn checkpoint(&self, path: &Path) -> Result<(), SnapshotError> {
        glacsweb_snapshot::save(&self.snapshot(), path)
    }

    /// Loads a snapshot from `path` and rebuilds the fleet.
    pub fn resume(path: &Path) -> Result<Fleet, SnapshotError> {
        Fleet::restore(glacsweb_snapshot::load(path)?)
    }
}

fn site_origins(sites: u32) -> Vec<Origin> {
    (0..sites)
        .map(|i| Origin::new("fleet", intern(&format!("site{i:04}"))))
        .collect()
}

/// Complete serialisable fleet state (the snapshot payload).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetState {
    /// The configuration the fleet was built from.
    pub config: FleetConfig,
    /// Every site's full state.
    pub sites: Vec<Site>,
    /// The fleet clock.
    pub now: SimTime,
}

/// Service summary for one site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteSummary {
    /// Site index.
    pub site: u64,
    /// Stations deployed.
    pub stations: u64,
    /// Comms windows attached first try.
    pub windows_healthy: u64,
    /// Comms windows attached on retry.
    pub windows_degraded: u64,
    /// Comms windows never attached.
    pub windows_lost: u64,
    /// Stations declared dead at a wake.
    pub deaths: u64,
    /// Recoveries past the restart threshold.
    pub restarts: u64,
    /// Server role rotations applied.
    pub overrides: u64,
    /// Comms windows attempted inside a storm.
    pub storm_wakes: u64,
    /// Sampling wakes (restart checks included).
    pub sample_wakes: u64,
    /// Stations not currently dead.
    pub alive: u64,
    /// Sum of final state-of-charge over stations.
    pub soc_sum: f64,
    /// Total energy charged into batteries, Wh.
    pub energy_charged_wh: f64,
    /// Total energy discharged from batteries, Wh.
    pub energy_discharged_wh: f64,
}

impl SiteSummary {
    fn zero() -> Self {
        SiteSummary {
            site: 0,
            stations: 0,
            windows_healthy: 0,
            windows_degraded: 0,
            windows_lost: 0,
            deaths: 0,
            restarts: 0,
            overrides: 0,
            storm_wakes: 0,
            sample_wakes: 0,
            alive: 0,
            soc_sum: 0.0,
            energy_charged_wh: 0.0,
            energy_discharged_wh: 0.0,
        }
    }

    fn from_site(site: &Site) -> Self {
        let mut soc_sum = 0.0;
        let mut charged = 0.0;
        let mut discharged = 0.0;
        for b in &site.st.battery {
            soc_sum += b.state_of_charge();
            charged += b.total_charged().value();
            discharged += b.total_discharged().value();
        }
        let c = &site.counters;
        SiteSummary {
            site: u64::from(site.index),
            stations: site.stations() as u64,
            windows_healthy: c.windows_healthy,
            windows_degraded: c.windows_degraded,
            windows_lost: c.windows_lost,
            deaths: c.deaths,
            restarts: c.restarts,
            overrides: c.overrides,
            storm_wakes: c.storm_wakes,
            sample_wakes: c.sample_wakes,
            alive: site.alive() as u64,
            soc_sum,
            energy_charged_wh: charged,
            energy_discharged_wh: discharged,
        }
    }

    fn absorb(&mut self, other: &SiteSummary) {
        self.stations += other.stations;
        self.windows_healthy += other.windows_healthy;
        self.windows_degraded += other.windows_degraded;
        self.windows_lost += other.windows_lost;
        self.deaths += other.deaths;
        self.restarts += other.restarts;
        self.overrides += other.overrides;
        self.storm_wakes += other.storm_wakes;
        self.sample_wakes += other.sample_wakes;
        self.alive += other.alive;
        self.soc_sum += other.soc_sum;
        self.energy_charged_wh += other.energy_charged_wh;
        self.energy_discharged_wh += other.energy_discharged_wh;
    }
}

/// Fleet-wide service summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSummary {
    /// Number of sites.
    pub sites: u64,
    /// Total stations.
    pub stations: u64,
    /// Simulated days.
    pub days: f64,
    /// Comms windows attached first try.
    pub windows_healthy: u64,
    /// Comms windows attached on retry.
    pub windows_degraded: u64,
    /// Comms windows never attached.
    pub windows_lost: u64,
    /// Stations declared dead at a wake.
    pub deaths: u64,
    /// Recoveries past the restart threshold.
    pub restarts: u64,
    /// Server role rotations applied.
    pub overrides: u64,
    /// Comms windows attempted inside a storm.
    pub storm_wakes: u64,
    /// Sampling wakes.
    pub sample_wakes: u64,
    /// Stations not currently dead.
    pub alive: u64,
    /// Mean final state of charge.
    pub mean_soc: f64,
    /// Total energy charged, Wh.
    pub energy_charged_wh: f64,
    /// Total energy discharged, Wh.
    pub energy_discharged_wh: f64,
    /// Per-site rows in index order.
    pub per_site: Vec<SiteSummary>,
}

impl FleetSummary {
    /// Total comms windows attempted.
    pub fn comms_windows(&self) -> u64 {
        self.windows_healthy + self.windows_degraded + self.windows_lost
    }

    /// Fraction of comms windows that were healthy.
    pub fn healthy_fraction(&self) -> f64 {
        let total = self.comms_windows();
        if total == 0 {
            0.0
        } else {
            self.windows_healthy as f64 / total as f64
        }
    }
}

/// FNV-1a 64-bit, used for the canonical state digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
