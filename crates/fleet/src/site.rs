//! Per-site state: climate parameters, storm timeline, and the
//! struct-of-arrays station columns.
//!
//! Everything in this module is either cold setup code or pure
//! parameter math; the hot event loop lives in [`crate::kernel`].

use glacsweb_env::OuStepCache;
use glacsweb_power::{LeadAcidBattery, SleepGlide};
use glacsweb_sim::{AmpHours, Amps, Celsius, SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::calendar::SiteCalendar;
use crate::config::FleetConfig;

/// The fleet tick: the five-minute MSP430 duty-cycle grid every station
/// schedule lives on. Sleep spans, wake instants and storm boundaries
/// are all whole multiples of this. Five minutes is the paper's own
/// wake-slot scale — the §III power budget prices a duty-cycled reading
/// at 308 s — and a fine grid is exactly where event leaping pays,
/// because a naive stepper's cost scales with the grid and a leap's
/// does not.
pub const TICK: SimDuration = SimDuration::from_mins(5);

/// One tick in hours, the `dt` of every per-tick recurrence.
pub const DT_HOURS: f64 = 1.0 / 12.0;

/// Raw RNG draws budgeted per wake. Every wake consumes exactly this
/// many raw draws — the handler uses what its branches need and
/// [`SimRng::skip_raw`](glacsweb_sim::SimRng::skip_raw) retires the
/// rest — so a station's stream position is a pure function of its wake
/// count, independent of attach outcomes or tier branches.
pub const RAW_DRAWS_PER_WAKE: u64 = 4;

/// State of charge below which a station is declared dead at wake.
pub const DEAD_SOC: f64 = 0.03;

/// State of charge a dead station must recover before restarting.
pub const RESTART_SOC: f64 = 0.15;

/// Wake-kind bit: scheduled sampling wake (or restart check when dead).
pub const KIND_SAMPLE: u8 = 1;
/// Wake-kind bit: daily communications window.
pub const KIND_COMMS: u8 = 2;
/// Wake-kind bit: server-scheduled role-rotation override.
pub const KIND_OVERRIDE: u8 = 4;

/// Power tier of a fleet station — the Table II ladder collapsed to the
/// three running tiers plus `Dead`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Tier {
    /// Full duty cycle: frequent sampling, best radio.
    S3,
    /// Reduced duty cycle.
    S2,
    /// Survival duty cycle: daily window only.
    S1,
    /// Battery exhausted; recharging with the controller off.
    Dead,
}

impl Tier {
    /// Sampling cadence in ticks (dead stations check for restart).
    pub const fn sample_cadence_ticks(self) -> u64 {
        match self {
            Tier::S3 => 72,  // every 6 h
            Tier::S2 => 144, // every 12 h
            Tier::S1 => 288, // daily
            Tier::Dead => 144,
        }
    }

    /// Continuous draw while asleep, in amps.
    pub fn sleep_draw_amps(self) -> f64 {
        match self {
            Tier::S3 => 0.012,
            Tier::S2 => 0.009,
            Tier::S1 => 0.006,
            Tier::Dead => 0.0,
        }
    }

    /// Draw over a wake slot, in amps (before any comms surcharge).
    pub fn wake_draw_amps(self) -> f64 {
        match self {
            Tier::S3 => 0.90,
            Tier::S2 => 0.60,
            Tier::S1 => 0.35,
            Tier::Dead => 0.02,
        }
    }

    /// Baseline GPRS attach success probability.
    pub fn attach_p(self) -> f64 {
        match self {
            Tier::S3 => 0.97,
            Tier::S2 => 0.92,
            Tier::S1 => 0.84,
            Tier::Dead => 0.0,
        }
    }
}

/// Deterministic per-site climate parameters, drawn once at
/// construction from the site's fork of the master seed.
///
/// The site climate is a *pure function of time*: the stochastic parts
/// of a site's weather live in the storm timeline and each station's
/// microclimate OU anomaly, both of which advance on well-defined
/// draws. That split is what makes sleep windows exactly leapable —
/// a sleeping station's inputs are piecewise constant between events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteParams {
    /// Annual mean air temperature, °C.
    pub mean_temp_c: f64,
    /// Seasonal swing amplitude, °C.
    pub season_amp_c: f64,
    /// Diurnal swing amplitude, °C.
    pub diurnal_amp_c: f64,
    /// Solar panel peak output, amps.
    pub panel_amps: f64,
    /// Daily communications slot hour (local).
    pub slot_hour: u32,
    /// Microclimate OU anomaly mean-reversion rate, per hour.
    pub ou_theta: f64,
    /// Microclimate OU anomaly stationary standard deviation, °C.
    pub ou_sd: f64,
}

impl SiteParams {
    fn draw(index: u32, rng: &mut SimRng) -> Self {
        SiteParams {
            mean_temp_c: rng.uniform(-6.0, 2.0),
            season_amp_c: rng.uniform(6.0, 12.0),
            diurnal_amp_c: rng.uniform(2.0, 5.0),
            panel_amps: rng.uniform(0.9, 1.6),
            slot_hour: 9 + index % 6,
            ou_theta: 0.08,
            ou_sd: rng.uniform(0.8, 1.8),
        }
    }

    /// Seasonal insolation factor in `[0.25, 1.0]` (June solstice peak).
    fn season_factor(&self, t: SimTime) -> f64 {
        let doy = f64::from(t.day_of_year());
        let phase = (doy - 172.0) / 365.0 * std::f64::consts::TAU;
        (0.25 + 0.75 * phase.cos()).clamp(0.25, 1.0)
    }

    /// Deterministic site air temperature at `t`, °C (before the
    /// per-station microclimate anomaly).
    pub fn temp_c(&self, t: SimTime) -> f64 {
        let doy = f64::from(t.day_of_year());
        let season = ((doy - 200.0) / 365.0 * std::f64::consts::TAU).cos();
        let hour = t.hour_of_day_f64();
        let diurnal = ((hour - 14.0) / 24.0 * std::f64::consts::TAU).cos();
        self.mean_temp_c + self.season_amp_c * season + self.diurnal_amp_c * diurnal
    }

    /// Clear-sky panel current over a wake slot at `t`, amps.
    pub(crate) fn wake_harvest_amps(&self, t: SimTime) -> f64 {
        let hour = t.hour_of_day_f64();
        let elevation = ((hour - 13.0) / 12.0 * std::f64::consts::PI).cos().max(0.0);
        self.panel_amps * self.season_factor(t) * elevation
    }

    /// Mean clear-sky panel current frozen over a sleep span starting
    /// near `t`, amps — the diurnal-average credit a sleeping charger
    /// banks per tick.
    pub(crate) fn sleep_harvest_amps(&self, t: SimTime) -> f64 {
        self.panel_amps * self.season_factor(t) * 0.18
    }
}

/// One storm interval on a site's timeline (`[on, off)`, grid-aligned).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StormSpan {
    /// First tick instant the storm is active.
    pub on: SimTime,
    /// First tick instant after the storm clears.
    pub off: SimTime,
}

/// A site's storm timeline: a lazily extended, chronologically drawn
/// list of grid-aligned storm intervals.
///
/// Extension is driven by queries but the *contents* are a pure
/// function of the site's storm stream — whichever order tick-mode and
/// leap-mode code ask about instants, they materialise the identical
/// list, which is what lets a leap segment a sleep span at exactly the
/// boundaries the per-tick path would have observed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StormTimeline {
    rng: SimRng,
    spans: Vec<StormSpan>,
    covered_until: SimTime,
    mean_gap_secs: f64,
    mean_len_secs: f64,
    enabled: bool,
}

impl StormTimeline {
    fn new(config: &FleetConfig, start: SimTime, rng: SimRng) -> Self {
        let (enabled, mean_gap_secs, mean_len_secs) = Self::schedule(config);
        StormTimeline {
            rng,
            spans: Vec::new(),
            covered_until: start,
            mean_gap_secs,
            mean_len_secs,
            enabled,
        }
    }

    /// `(enabled, mean gap, mean length)` in seconds, as `config` sets them.
    fn schedule(config: &FleetConfig) -> (bool, f64, f64) {
        (
            config.storm_mean_gap_days > 0.0,
            config.storm_mean_gap_days * 86_400.0,
            config.storm_mean_hours * 3_600.0,
        )
    }

    /// `true` if the timeline's schedule is the one `config` implies
    /// (compared bit for bit). A restored timeline must pass: its draws
    /// divide by these means.
    pub(crate) fn follows(&self, config: &FleetConfig) -> bool {
        let (enabled, gap, len) = Self::schedule(config);
        self.enabled == enabled
            && self.mean_gap_secs.to_bits() == gap.to_bits()
            && self.mean_len_secs.to_bits() == len.to_bits()
    }

    /// Materialises every span starting before `until`.
    pub fn ensure(&mut self, until: SimTime) {
        if !self.enabled {
            return;
        }
        let tick = TICK.as_secs();
        while self.covered_until < until {
            let gap = self.rng.exponential(1.0 / self.mean_gap_secs);
            let len = self.rng.exponential(1.0 / self.mean_len_secs);
            let gap_ticks = ((gap / tick as f64).round() as u64).max(1);
            let len_ticks = ((len / tick as f64).round() as u64).max(1);
            let on = self.covered_until + SimDuration::from_secs(gap_ticks * tick);
            let off = on + SimDuration::from_secs(len_ticks * tick);
            self.spans.push(StormSpan { on, off });
            self.covered_until = off;
        }
    }

    /// `true` if a storm is active over the slot starting at `t`.
    /// Requires `ensure(t + TICK)` to have been called.
    pub fn active_at(&self, t: SimTime) -> bool {
        let idx = self.spans.partition_point(|s| s.on <= t);
        idx > 0 && self.spans.get(idx - 1).is_some_and(|s| s.off > t)
    }

    /// Raw-draw position of the storm stream (for state digests).
    pub fn rng_position(&self) -> u64 {
        self.rng.position()
    }

    /// The storm phase at `t` and the instant it ends, capped at `cap`.
    /// Requires `ensure(cap)` to have been called.
    pub fn segment_end(&self, t: SimTime, cap: SimTime) -> (bool, SimTime) {
        let idx = self.spans.partition_point(|s| s.on <= t);
        if idx > 0 {
            if let Some(prev) = self.spans.get(idx - 1) {
                if prev.off > t {
                    return (true, prev.off.min(cap));
                }
            }
        }
        match self.spans.get(idx) {
            Some(next) if next.on < cap => (false, next.on),
            _ => (false, cap),
        }
    }
}

/// Struct-of-arrays station state: one column vector per field, indexed
/// by station number within the site.
///
/// The columns a batch advance touches (`battery`, `ou`, `rng`) are
/// contiguous, so leaping a quiescent fleet walks memory linearly
/// instead of chasing 100k heap objects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StationArrays {
    /// Battery bank per station, committed up to the glide cursor.
    pub battery: Vec<LeadAcidBattery>,
    /// Microclimate temperature anomaly (OU state) **at the glide
    /// anchor**, °C; the value at tick `k` past the anchor is
    /// `ou · decayᵏ`, evaluated identically by both kernel modes.
    pub ou: Vec<f64>,
    /// Per-station RNG stream (sensing noise, comms attach; exactly
    /// [`RAW_DRAWS_PER_WAKE`] raw draws retired per wake).
    pub rng: Vec<SimRng>,
    /// Current power tier.
    pub tier: Vec<Tier>,
    /// Comms-relay role index (rotated by server overrides).
    pub role: Vec<u32>,
    /// End of the covered timeline: state reflects every tick slot
    /// strictly before this instant.
    pub cursor: Vec<SimTime>,
    /// Next scheduled wake instant.
    pub next_wake: Vec<SimTime>,
    /// Wake-kind bitmask for the scheduled wake.
    pub wake_kinds: Vec<u8>,
    /// Continuous draw while asleep, amps (frozen at the last wake).
    pub sleep_load: Vec<f64>,
    /// Clear-sky harvest credit while asleep, amps (frozen).
    pub sleep_harvest: Vec<f64>,
    /// Battery temperature over the sleep span, °C (frozen).
    pub sleep_temp: Vec<f64>,
    /// Closed-form sleep trajectory for the current constant-current
    /// segment (anchored battery state + per-tick delta).
    pub glide: Vec<SleepGlide>,
    /// Instant the current glide (and OU anchor) was anchored at.
    pub glide_start: Vec<SimTime>,
    /// Storm phase the current glide was anchored in.
    pub glide_storm: Vec<bool>,
}

impl StationArrays {
    /// Number of stations.
    pub fn len(&self) -> usize {
        self.battery.len()
    }

    /// `true` if the site has no stations.
    pub fn is_empty(&self) -> bool {
        self.battery.is_empty()
    }

    /// Checks that every column has exactly `n` rows.
    pub fn columns_consistent(&self, n: usize) -> bool {
        self.battery.len() == n
            && self.ou.len() == n
            && self.rng.len() == n
            && self.tier.len() == n
            && self.role.len() == n
            && self.cursor.len() == n
            && self.next_wake.len() == n
            && self.wake_kinds.len() == n
            && self.sleep_load.len() == n
            && self.sleep_harvest.len() == n
            && self.sleep_temp.len() == n
            && self.glide.len() == n
            && self.glide_start.len() == n
            && self.glide_storm.len() == n
    }
}

/// Aggregate service counters for one site.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SiteCounters {
    /// Comms windows that attached first try.
    pub windows_healthy: u64,
    /// Comms windows that attached on the retry.
    pub windows_degraded: u64,
    /// Comms windows that never attached.
    pub windows_lost: u64,
    /// Stations declared dead at a wake.
    pub deaths: u64,
    /// Dead stations that recovered past the restart threshold.
    pub restarts: u64,
    /// Server role-rotation overrides applied.
    pub overrides: u64,
    /// Comms windows attempted during an active storm.
    pub storm_wakes: u64,
    /// Sampling wakes (restart checks included).
    pub sample_wakes: u64,
}

/// Kernel execution counters for one site — cost accounting only, so
/// they are *excluded* from summaries, telemetry and digests (tick mode
/// and leap mode legitimately differ here).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecCounters {
    /// Events popped from the site wheel.
    pub events: u64,
    /// Ticks advanced one at a time (naive path).
    pub ticks_stepped: u64,
    /// Ticks advanced via closed-form leaps.
    pub ticks_leapt: u64,
    /// Leap calls issued.
    pub leaps: u64,
    /// Constant-current segments those leaps split into.
    pub segments: u64,
    /// Wake handlers run.
    pub wakes: u64,
}

impl ExecCounters {
    /// Accumulates another site's counters.
    pub fn absorb(&mut self, other: ExecCounters) {
        self.events += other.events;
        self.ticks_stepped += other.ticks_stepped;
        self.ticks_leapt += other.ticks_leapt;
        self.leaps += other.leaps;
        self.segments += other.segments;
        self.wakes += other.wakes;
    }
}

/// Events on a site's calendar.
///
/// Leap mode schedules only [`SiteEvent::Wake`]s — the calendar holds
/// one event per station. The naive reference kernel schedules a
/// [`SiteEvent::Tick`] per station per five-minute slot instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SiteEvent {
    /// Naive-mode per-tick advance for one station.
    Tick(u32),
    /// A station's scheduled wake-up.
    Wake(u32),
}

/// One glacier site: independent climate, storm timeline, RNG streams,
/// event calendar and station columns.
///
/// Sites never read each other's state, which is what lets the fleet
/// shard them across the sweep pool and merge results in index order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Site {
    /// Site index within the fleet.
    pub index: u32,
    /// Deterministic climate parameters.
    pub params: SiteParams,
    /// Storm timeline.
    pub storms: StormTimeline,
    /// Pending events. The field keeps its wire name `wheel`, so
    /// snapshots keep their bytes.
    pub wheel: SiteCalendar,
    /// Station state columns.
    pub st: StationArrays,
    /// Memoised OU step coefficients (derived state; serialises null).
    pub ou_cache: OuStepCache,
    /// Always `null`: the wire slot of a climate memo the kernel no
    /// longer keeps, held so snapshots keep their bytes.
    pub climate: (),
    /// Aggregate service counters.
    pub counters: SiteCounters,
    /// Kernel cost counters (mode-dependent; never in telemetry).
    pub exec: ExecCounters,
    /// Simulation start.
    pub start: SimTime,
    /// Horizon this site has been advanced to.
    pub now: SimTime,
    /// Whether this site leaps quiescent stations.
    pub leaping: bool,
    /// Server rotation period in days (0 = off).
    pub rotation_days: u32,
}

impl Site {
    /// Builds site `index` of a fleet, forking its streams from the
    /// fleet master RNG.
    pub fn new(config: &FleetConfig, index: u32, master: &mut SimRng) -> Self {
        Site::from_stream(config, index, master.fork(u64::from(index)))
    }

    /// Builds site `index` from its own stream, `master.fork(index)` of
    /// the fleet master RNG. Forking is the only draw a site takes from
    /// the master, so a fleet forks every stream in index order and then
    /// builds the sites in any order, or in parallel.
    pub(crate) fn from_stream(config: &FleetConfig, index: u32, mut site_rng: SimRng) -> Self {
        let params = SiteParams::draw(index, &mut site_rng);
        let storm_rng = site_rng.fork(1);
        let stations = config.stations_per_site as usize;
        let mut st = StationArrays {
            battery: Vec::with_capacity(stations),
            ou: vec![0.0; stations],
            rng: Vec::with_capacity(stations),
            tier: Vec::with_capacity(stations),
            role: Vec::with_capacity(stations),
            cursor: vec![config.start; stations],
            next_wake: Vec::with_capacity(stations),
            wake_kinds: Vec::with_capacity(stations),
            sleep_load: Vec::with_capacity(stations),
            sleep_harvest: Vec::with_capacity(stations),
            sleep_temp: Vec::with_capacity(stations),
            glide: Vec::with_capacity(stations),
            glide_start: vec![config.start; stations],
            glide_storm: Vec::with_capacity(stations),
        };
        let start = config.start;
        let sleep_temp0 = params.temp_c(start);
        let sleep_harvest0 = params.sleep_harvest_amps(start);
        let mut storms = StormTimeline::new(config, start, storm_rng);
        storms.ensure(start + TICK);
        let storm0 = storms.active_at(start);
        for s in 0..stations {
            let mut rng = site_rng.fork(2 + s as u64);
            let capacity = rng.uniform(30.0, 42.0);
            let soc = rng.uniform(0.5, 0.95);
            let battery = LeadAcidBattery::with_state(AmpHours(capacity), soc);
            let volts = battery.open_circuit_voltage().value();
            let tier = classify_tier(volts);
            let load = tier.sleep_draw_amps();
            let i = if storm0 { -load } else { sleep_harvest0 - load };
            let glide = battery.glide(TICK, Amps(i), Celsius(sleep_temp0));
            st.battery.push(battery);
            st.rng.push(rng);
            st.tier.push(tier);
            st.role.push(s as u32);
            st.wake_kinds.push(KIND_SAMPLE);
            st.sleep_load.push(load);
            st.sleep_harvest.push(sleep_harvest0);
            st.sleep_temp.push(sleep_temp0);
            st.glide.push(glide);
            st.glide_storm.push(storm0);
            st.next_wake.push(start); // placeholder; scheduled below
        }
        let mut site = Site {
            index,
            params,
            storms,
            wheel: SiteCalendar::new(start),
            st,
            ou_cache: OuStepCache::default(),
            climate: (),
            counters: SiteCounters::default(),
            exec: ExecCounters::default(),
            start,
            now: start,
            leaping: config.leaping,
            rotation_days: config.rotation_days,
        };
        for s in 0..stations {
            let tier = site.st.tier[s];
            let role = site.st.role[s];
            let (next, kinds) = site.next_wake_for(start, tier, role);
            site.st.next_wake[s] = next;
            site.st.wake_kinds[s] = kinds;
            let s32 = s as u32;
            if site.leaping {
                site.wheel.push(next, SiteEvent::Wake(s32));
            } else {
                site.wheel.push(start, SiteEvent::Tick(s32));
            }
        }
        site
    }

    /// Number of stations on this site.
    pub fn stations(&self) -> usize {
        self.st.len()
    }

    /// Stations not currently dead.
    pub fn alive(&self) -> usize {
        self.st.tier.iter().filter(|&&t| t != Tier::Dead).count()
    }
}

/// Table II-flavoured tier ladder on the wake terminal voltage.
pub(crate) fn classify_tier(volts: f64) -> Tier {
    if volts >= 12.4 {
        Tier::S3
    } else if volts >= 12.0 {
        Tier::S2
    } else {
        Tier::S1
    }
}
