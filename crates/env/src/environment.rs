//! The composed environment façade.

use glacsweb_sim::{SimRng, SimTime};
use serde::{de, Deserialize, Serialize, Value};

use crate::cafe::cafe_mains_available;
use crate::config::EnvConfig;
use crate::daycache::{DayCell, MinuteTable, SodTable};
use crate::hydrology::Hydrology;
use crate::motion::GlacierMotion;
use crate::snow::SnowPack;
use crate::solar::SolarModel;
use crate::temperature::TemperatureModel;
use crate::wind::WindModel;

/// Coarse season classification used by reports and schedule heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Season {
    /// December–March: the no-field-visit survival window (§I).
    Winter,
    /// April–May.
    Spring,
    /// June–September: wet ice, worst probe radio.
    Summer,
    /// October–November.
    Autumn,
}

impl Season {
    /// Season of the given instant.
    pub fn of(t: SimTime) -> Season {
        match t.date().month {
            12 | 1..=3 => Season::Winter,
            4 | 5 => Season::Spring,
            6..=9 => Season::Summer,
            _ => Season::Autumn,
        }
    }
}

/// [`Environment::solar_factor`] with the terms that stay fixed until the
/// environment next advances taken once; see [`Environment::solar_span`].
#[derive(Debug, Clone, Copy)]
pub struct SolarSpan<'a> {
    env: &'a Environment,
    cloud: f64,
    burial: f64,
}

impl SolarSpan<'_> {
    /// The solar factor at `t`: `(clear-sky(t) × cloud) × burial`, the
    /// products in the order `solar_factor` has always taken them.
    pub fn factor(&self, t: SimTime) -> f64 {
        self.env.clear_sky_fraction(t) * self.cloud * self.burial
    }
}

/// The complete synthetic glacier environment.
///
/// Call [`Environment::advance_to`] from the simulation's main loop before
/// querying; queries are cheap and side-effect free.
///
/// Every memo is derived state: `solar_day` and `cos_hour` write the
/// `null` their memo types serialise as, and the minute table and the
/// mains memo stay off the wire altogether.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Environment {
    config: EnvConfig,
    solar: SolarModel,
    temperature: TemperatureModel,
    wind: WindModel,
    snow: SnowPack,
    hydrology: Hydrology,
    motion: GlacierMotion,
    cloud_factor: f64,
    rng: SimRng,
    now: SimTime,
    started: bool,
    /// Memo of the per-day solar products `(sin φ·sin δ, cos φ·cos δ)`.
    // glacsweb: derived-state
    solar_day: DayCell<(f64, f64)>,
    /// Memo of `cos(hour angle)` — a pure function of second-of-day.
    // glacsweb: derived-state
    cos_hour: SodTable,
    /// Memo of the clear-sky solar fraction at whole sim-minutes, shared
    /// by every station's rail.
    #[serde(skip)]
    // glacsweb: derived-state
    clear_sky: MinuteTable,
    /// Memo of the café-mains season for the current civil day.
    #[serde(skip)]
    // glacsweb: derived-state
    mains: DayCell<bool>,
}

// Deserialization is hand-written so a snapshot cannot smuggle in a
// configuration that `Environment::new` would have rejected with a panic:
// restore validates and reports a typed error instead. The memos are
// derived state — they restart empty and refill bit-identically on first
// use.
impl Deserialize for Environment {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        let config: EnvConfig = de::field(v, "config")?;
        if let Err(e) = config.validate() {
            // glacsweb: allow(perf-hygiene, reason = "restore-time error path; runs once per snapshot load, never per substep")
            return Err(de::Error::custom(format!(
                "snapshot carries invalid environment config: {e}"
            )));
        }
        let snow: SnowPack = de::field(v, "snow")?;
        let hydrology: Hydrology = de::field(v, "hydrology")?;
        let motion: GlacierMotion = de::field(v, "motion")?;
        // The states carry their own copies of the rates they draw with.
        for check in [snow.validate(), hydrology.validate(), motion.validate()] {
            check.map_err(de::Error::custom)?;
        }
        Ok(Environment {
            config,
            solar: de::field(v, "solar")?,
            temperature: de::field(v, "temperature")?,
            wind: de::field(v, "wind")?,
            snow,
            hydrology,
            motion,
            cloud_factor: de::field(v, "cloud_factor")?,
            rng: de::field(v, "rng")?,
            now: de::field(v, "now")?,
            started: de::field(v, "started")?,
            solar_day: DayCell::default(),
            cos_hour: SodTable::default(),
            clear_sky: MinuteTable::default(),
            mains: DayCell::default(),
        })
    }
}

impl Environment {
    /// Creates an environment from a configuration and a master seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`EnvConfig::validate`].
    pub fn new(config: EnvConfig, seed: u64) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid environment config: {e}");
        }
        let mut master = SimRng::seed_from(seed);
        let rng = master.fork(0xE57);
        Environment {
            solar: SolarModel::new(config.latitude_deg),
            temperature: TemperatureModel::new(
                config.temp_annual_mean_c,
                config.temp_annual_amplitude_c,
                config.temp_diurnal_amplitude_c,
                config.temp_noise_sd_c,
            ),
            wind: WindModel::new(
                config.wind_mean_winter_ms,
                config.wind_mean_summer_ms,
                config.wind_gust_sd_ms,
            ),
            snow: SnowPack::new(
                config.storm_rate_winter_per_day,
                config.snow_per_storm_m,
                config.melt_m_per_degree_day,
            ),
            hydrology: Hydrology::new(),
            motion: GlacierMotion::new(
                config.base_velocity_m_per_day,
                config.slip_event_m,
                config.slip_rate_wet_per_day,
            ),
            cloud_factor: config.cloud_clear_fraction,
            config,
            rng,
            now: SimTime::EPOCH,
            started: false,
            solar_day: DayCell::default(),
            cos_hour: SodTable::default(),
            clear_sky: MinuteTable::default(),
            mains: DayCell::default(),
        }
    }

    /// The configuration this environment was built from.
    pub fn config(&self) -> &EnvConfig {
        &self.config
    }

    /// The simulated instant the stochastic state currently reflects.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances all stochastic state to `t` in fixed ticks.
    ///
    /// Idempotent for `t <= now()`. The first call anchors the clock: a
    /// deployment starting in September starts with autumn state, not with
    /// a replay from the epoch.
    pub fn advance_to(&mut self, t: SimTime) {
        if !self.started {
            self.now = t;
            self.started = true;
            // Warm-start slow state: if the deployment begins mid melt
            // season the bed is already wet.
            let warm = Season::of(t) == Season::Summer;
            if warm {
                self.hydrology = Hydrology::with_index(0.7);
            }
            return;
        }
        let tick = self.config.tick;
        let dt_hours = tick.as_secs() as f64 / 3600.0;
        let dt_days = dt_hours / 24.0;
        // The tick is fixed, so every per-step transcendental is a run
        // constant — hoist them out of the loop (this loop dominates
        // long-horizon runs; see BENCH_PERF.json).
        let target = self.config.cloud_clear_fraction;
        let cloud_decay = (-dt_hours / 8.0).exp();
        let cloud_noise_sd = 0.15 * (1.0 - cloud_decay * cloud_decay).sqrt();
        while self.now + tick <= t {
            self.now += tick;
            let temp = self.temperature.temperature_c(self.now);
            self.temperature.step_noise(dt_hours, &mut self.rng);
            self.wind.step(dt_hours, &mut self.rng);
            self.snow.step(dt_days, temp, self.now, &mut self.rng);
            self.hydrology.step(dt_days, temp);
            self.motion.step(
                dt_days,
                self.hydrology.water_pressure(self.now),
                &mut self.rng,
            );
            // Cloud: mean-reverting around the configured clear fraction.
            let noise = self.rng.normal(0.0, cloud_noise_sd);
            self.cloud_factor =
                ((self.cloud_factor - target) * cloud_decay + target + noise).clamp(0.05, 1.0);
        }
    }

    /// Clear-sky fraction, memoised per whole sim-minute and
    /// bit-identical to [`SolarModel::clear_sky_fraction`].
    ///
    /// The power rail calls this every 60 s substep of every station, so
    /// it is the hottest transcendental path in the kernel. A whole
    /// minute is computed once and then served to every rail from the
    /// minute table. A miss, or an instant off the minute grid, replays
    /// the model's own chain: `sin el = (sin φ·sin δ) + (cos φ·cos δ)·cos
    /// H`, where the two parenthesised products depend only on the civil
    /// day and `cos H` only on the second of day (each memoised), then
    /// `asin → degrees → radians → sin → max`. Those are the model's
    /// float operations in the model's order, so the result carries
    /// identical bits; a sun below the horizon skips them (see
    /// [`clear_sky_of`]).
    fn clear_sky_fraction(&self, t: SimTime) -> f64 {
        self.clear_sky.get_or(t.unix(), || {
            let (a, b) = self.solar_day.get_or(t.unix() / 86_400, || {
                let doy = f64::from(t.day_of_year());
                let decl =
                    23.44_f64.to_radians() * (std::f64::consts::TAU * (284.0 + doy) / 365.0).sin();
                let lat = self.solar.latitude_deg().to_radians();
                (lat.sin() * decl.sin(), lat.cos() * decl.cos())
            });
            let cos_h = self.cos_hour.get_or(t.seconds_of_day(), || {
                (15.0 * (t.hour_of_day_f64() - 12.0)).to_radians().cos()
            });
            clear_sky_of(a + b * cos_h)
        })
    }

    /// Fraction of the solar panel's rated output available now, in
    /// `[0, 1]`: clear-sky geometry × cloud × snow burial.
    pub fn solar_factor(&self, t: SimTime) -> f64 {
        self.solar_span().factor(t)
    }

    /// The solar factor with its cloud and panel-burial terms read once.
    ///
    /// Both terms are stochastic state that only [`advance_to`] moves, so
    /// a power rail integrating a span up to `now()` can take them once
    /// and evaluate [`SolarSpan::factor`] per substep; each call carries
    /// the bits of `solar_factor(t)`.
    ///
    /// [`advance_to`]: Environment::advance_to
    pub fn solar_span(&self) -> SolarSpan<'_> {
        SolarSpan {
            env: self,
            cloud: self.cloud_factor,
            burial: self.snow.burial_factor(self.config.panel_burial_depth_m),
        }
    }

    /// Wind speed at hub height, m/s, derated for generator burial.
    pub fn wind_speed_ms(&self, t: SimTime) -> f64 {
        self.wind.speed_ms(t) * self.snow.burial_factor(self.config.turbine_burial_depth_m)
    }

    /// Air temperature, °C.
    pub fn temperature_c(&self, t: SimTime) -> f64 {
        self.temperature.temperature_c(t)
    }

    /// Snow depth at the station, metres.
    pub fn snow_depth_m(&self) -> f64 {
        self.snow.depth_m()
    }

    /// Melt-water index in `[0, 1]`.
    pub fn melt_index(&self) -> f64 {
        self.hydrology.melt_index()
    }

    /// Probe radio packet-loss probability right now.
    pub fn probe_packet_loss(&self) -> f64 {
        self.hydrology
            .probe_loss(self.config.probe_loss_dry, self.config.probe_loss_wet)
    }

    /// Normalised subglacial water pressure in `[0, 1]`.
    pub fn water_pressure(&self, t: SimTime) -> f64 {
        self.hydrology.water_pressure(t)
    }

    /// Baseline bed conductivity in µS (per-probe offsets are added by the
    /// probe sensing model).
    pub fn bed_conductivity_microsiemens(&self) -> f64 {
        self.hydrology.conductivity_microsiemens()
    }

    /// Down-flow displacement of the glacier surface, metres.
    pub fn glacier_displacement_m(&self) -> f64 {
        self.motion.displacement_m()
    }

    /// Count of stick-slip events so far.
    pub fn slip_count(&self) -> u64 {
        self.motion.slip_count()
    }

    /// `true` if the café mains supply is live (the season is looked up
    /// once per civil day).
    pub fn cafe_mains_available(&self, t: SimTime) -> bool {
        self.mains.get_or(t.unix() / 86_400, || {
            cafe_mains_available(t, self.config.cafe_season_months)
        })
    }
}

/// The clear-sky fraction for a solar-elevation sine: the model's
/// `asin → degrees → radians → sin → max(0)` chain, except that a sun
/// below the horizon (`sin_el < 0`) returns `+0.0` without it.
///
/// The short-cut is exact. For `sin_el` in `[-1, 0)`, `asin` is negative
/// and at least as large in magnitude (a subnormal maps to itself); the
/// degree factor (≈ 57.3) keeps it negative and makes it at least 57
/// times the smallest subnormal, and the radian factor (≈ 1/57.3) brings
/// it back to about its old size — never below 0.99 of the smallest
/// subnormal, which rounds to that subnormal, not to `-0.0` — so it is
/// still a negative non-zero value in `[-π/2, 0)`. `sin` maps
/// that to a negative value, and `max` against `0.0` returns the
/// `+0.0` operand. `-0.0`, `+0.0` and NaN are not below zero, so they
/// still take the chain. The `night_short_cut_*` tests pin this bit for
/// bit.
fn clear_sky_of(sin_el: f64) -> f64 {
    if sin_el < 0.0 {
        return 0.0;
    }
    sin_el.asin().to_degrees().to_radians().sin().max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glacsweb_sim::SimDuration;

    fn env() -> Environment {
        Environment::new(EnvConfig::vatnajokull(), 1)
    }

    /// Length and FNV-1a digest of the `Debug` text of the value tree in
    /// `wire_form_is_pinned`, as the derived `Serialize` with the
    /// original memo fields produced it.
    const WIRE_LEN: usize = 2300;
    const WIRE_FNV: u64 = 0xbcdf_31e7_acf2_fbb9;

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut e = Environment::new(EnvConfig::vatnajokull(), 99);
            let t0 = SimTime::from_ymd_hms(2008, 10, 1, 0, 0, 0);
            e.advance_to(t0);
            e.advance_to(t0 + SimDuration::from_days(60));
            (
                e.snow_depth_m(),
                e.melt_index(),
                e.glacier_displacement_m(),
                e.wind_speed_ms(e.now()),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn advance_is_monotonic_and_idempotent() {
        let mut e = env();
        let t0 = SimTime::from_ymd_hms(2009, 2, 1, 0, 0, 0);
        e.advance_to(t0);
        e.advance_to(t0 + SimDuration::from_days(5));
        let snap = e.snow_depth_m();
        // Going backwards is a no-op.
        e.advance_to(t0);
        assert_eq!(e.snow_depth_m(), snap);
    }

    #[test]
    fn iceland_seasonal_temperatures() {
        let m = Environment::new(EnvConfig::vatnajokull(), 1);
        let jan_night = m.temperature_c(SimTime::from_ymd_hms(2009, 1, 25, 3, 0, 0));
        let jul_noon = m.temperature_c(SimTime::from_ymd_hms(2009, 7, 25, 15, 0, 0));
        assert!(jan_night < -7.0, "deep-winter night {jan_night}");
        assert!(jul_noon > 5.0, "high-summer afternoon {jul_noon}");
    }

    #[test]
    fn winter_builds_snow_and_dries_the_bed() {
        let mut e = env();
        let t0 = SimTime::from_ymd_hms(2008, 11, 1, 0, 0, 0);
        e.advance_to(t0);
        e.advance_to(t0 + SimDuration::from_days(110));
        assert!(e.snow_depth_m() > 0.5, "snow {}", e.snow_depth_m());
        assert!(e.melt_index() < 0.1, "melt {}", e.melt_index());
        assert!(
            e.probe_packet_loss() < 0.05,
            "winter loss {}",
            e.probe_packet_loss()
        );
    }

    #[test]
    fn summer_wets_the_bed_and_degrades_probe_radio() {
        let mut e = env();
        let t0 = SimTime::from_ymd_hms(2009, 5, 1, 0, 0, 0);
        e.advance_to(t0);
        e.advance_to(SimTime::from_ymd_hms(2009, 7, 25, 0, 0, 0));
        assert!(e.melt_index() > 0.4, "melt {}", e.melt_index());
        assert!(
            e.probe_packet_loss() > 0.08,
            "summer loss {}",
            e.probe_packet_loss()
        );
        assert!(e.bed_conductivity_microsiemens() > 5.0);
    }

    #[test]
    fn warm_start_in_summer() {
        let mut e = env();
        e.advance_to(SimTime::from_ymd_hms(2009, 7, 15, 0, 0, 0));
        // First call anchors with wet-season hydrology rather than epoch
        // replay.
        assert!(e.melt_index() > 0.5);
    }

    #[test]
    fn solar_factor_is_bounded_and_diurnal() {
        let mut e = env();
        let day = SimTime::from_ymd_hms(2009, 9, 22, 0, 0, 0);
        e.advance_to(day);
        let noon = e.solar_factor(day + SimDuration::from_hours(12));
        let midnight = e.solar_factor(day);
        assert!((0.0..=1.0).contains(&noon));
        assert!(noon > midnight);
        assert_eq!(midnight, 0.0, "no sun at equinox midnight at 64N");
    }

    /// Instants that exercise the memos: whole minutes and off-grid
    /// seconds, across a midnight that is also a month boundary and a
    /// café-season edge (30 Sep → 1 Oct and 31 Mar → 1 Apr), around noon,
    /// and across a year boundary.
    fn memo_instants() -> Vec<SimTime> {
        let mut out = vec![SimTime::from_ymd_hms(2009, 7, 4, 12, 3, 27)];
        for start in [
            SimTime::from_ymd_hms(2009, 9, 30, 23, 0, 0),
            SimTime::from_ymd_hms(2010, 3, 31, 23, 0, 0),
            SimTime::from_ymd_hms(2009, 6, 21, 11, 0, 0),
            SimTime::from_ymd_hms(2009, 12, 31, 23, 0, 0),
        ] {
            for step in 0..120 {
                let t = start + SimDuration::from_mins(step);
                out.push(t);
                out.push(t + SimDuration::from_secs(27));
            }
        }
        out
    }

    /// `solar_factor` and `cafe_mains_available` carry the bits of the
    /// un-memoised expressions at every instant, on the miss and on the
    /// hit, in the given query order.
    fn assert_memos_match_model(e: &Environment, instants: &[SimTime]) {
        let model = SolarModel::new(e.config.latitude_deg);
        let burial = e.snow.burial_factor(e.config.panel_burial_depth_m);
        for &t in instants {
            let solar = model.clear_sky_fraction(t) * e.cloud_factor * burial;
            let mains = cafe_mains_available(t, e.config.cafe_season_months);
            for pass in ["miss", "hit"] {
                assert_eq!(e.solar_factor(t).to_bits(), solar.to_bits(), "{t} {pass}");
                assert_eq!(e.cafe_mains_available(t), mains, "{t} {pass}");
            }
        }
    }

    /// The clear-sky memo (through `solar_factor`) and the café-mains
    /// memo agree with the un-memoised model bit for bit.
    #[test]
    fn memoised_clear_sky_matches_model_bitwise() {
        let mut e = env();
        e.advance_to(SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0));
        let instants = memo_instants();
        assert_memos_match_model(&e, &instants);
        // Reverse order: every day tag flips back, so stale slots must
        // miss rather than hit.
        let reversed: Vec<SimTime> = instants.iter().rev().copied().collect();
        assert_memos_match_model(&e, &reversed);
        // A fresh environment queried two days apart in alternation, the
        // way two rails a day out of step would.
        let fresh = env();
        let day = SimDuration::from_days(1);
        let interleaved: Vec<SimTime> = instants.iter().flat_map(|&t| [t, t + day]).collect();
        assert_memos_match_model(&fresh, &interleaved);
    }

    #[test]
    fn memoised_terms_match_the_model_after_restore() {
        let mut e = env();
        let t0 = SimTime::from_ymd_hms(2009, 9, 28, 0, 0, 0);
        e.advance_to(t0);
        e.advance_to(t0 + SimDuration::from_days(2));
        let instants = memo_instants();
        // Fill the memos before the snapshot: their contents must not
        // travel, and the restored copy must refill to the same bits.
        assert_memos_match_model(&e, &instants);
        let restored = Environment::from_value(&e.to_value()).expect("round trip");
        assert_eq!(restored, e);
        assert_memos_match_model(&restored, &instants);
        for &t in &instants {
            assert_eq!(
                restored.solar_factor(t).to_bits(),
                e.solar_factor(t).to_bits()
            );
        }
    }

    #[test]
    fn wire_form_is_pinned() {
        // The value tree (and so the snapshot bytes) of a warmed-up
        // environment with filled memos. The two memo entries stay `Null`
        // under their fixed keys; the digest pins every other byte.
        let mut e = env();
        let t0 = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        e.advance_to(t0);
        e.advance_to(t0 + SimDuration::from_days(3));
        assert_memos_match_model(&e, &memo_instants());
        let value = e.to_value();
        let entries = value.as_map().expect("a map");
        let keys: Vec<&str> = entries.iter().filter_map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "config",
                "solar",
                "temperature",
                "wind",
                "snow",
                "hydrology",
                "motion",
                "cloud_factor",
                "rng",
                "now",
                "started",
                "solar_day",
                "cos_hour"
            ]
        );
        assert_eq!(value.get("solar_day"), Some(&Value::Null));
        assert_eq!(value.get("cos_hour"), Some(&Value::Null));
        let text = format!("{value:?}");
        let fnv = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((text.len(), fnv), (WIRE_LEN, WIRE_FNV), "{text}");
    }

    #[test]
    fn season_classification() {
        assert_eq!(
            Season::of(SimTime::from_ymd_hms(2009, 1, 5, 0, 0, 0)),
            Season::Winter
        );
        assert_eq!(
            Season::of(SimTime::from_ymd_hms(2009, 12, 5, 0, 0, 0)),
            Season::Winter
        );
        assert_eq!(
            Season::of(SimTime::from_ymd_hms(2009, 4, 5, 0, 0, 0)),
            Season::Spring
        );
        assert_eq!(
            Season::of(SimTime::from_ymd_hms(2009, 8, 5, 0, 0, 0)),
            Season::Summer
        );
        assert_eq!(
            Season::of(SimTime::from_ymd_hms(2009, 10, 5, 0, 0, 0)),
            Season::Autumn
        );
    }

    #[test]
    fn cafe_follows_config() {
        let mut iceland = env();
        let jan = SimTime::from_ymd_hms(2009, 1, 15, 12, 0, 0);
        iceland.advance_to(jan);
        assert!(!iceland.cafe_mains_available(jan));
        let mut norway = Environment::new(EnvConfig::briksdalsbreen(), 1);
        norway.advance_to(jan);
        assert!(norway.cafe_mains_available(jan));
    }

    #[test]
    fn proptest_environment_bounds() {
        use proptest::prelude::*;
        use proptest::test_runner::{Config, TestRunner};
        let mut runner = TestRunner::new(Config::with_cases(16));
        runner
            .run(
                &(0u64..500, 1u32..12, 1u32..28, 0u32..24),
                |(seed, month, day, hour)| {
                    let mut e = Environment::new(EnvConfig::vatnajokull(), seed);
                    let t = SimTime::from_ymd_hms(2009, month, day, hour, 0, 0);
                    e.advance_to(t);
                    e.advance_to(t + SimDuration::from_days(3));
                    let q = t + SimDuration::from_days(3);
                    prop_assert!((0.0..=1.0).contains(&e.solar_factor(q)));
                    prop_assert!(e.wind_speed_ms(q) >= 0.0);
                    prop_assert!(e.snow_depth_m() >= 0.0);
                    prop_assert!((0.0..=1.0).contains(&e.melt_index()));
                    prop_assert!((0.0..=1.0).contains(&e.probe_packet_loss()));
                    prop_assert!((0.0..=1.0).contains(&e.water_pressure(q)));
                    prop_assert!(e.bed_conductivity_microsiemens() >= 0.0);
                    prop_assert!(e.glacier_displacement_m() >= 0.0);
                    prop_assert!((-40.0..=40.0).contains(&e.temperature_c(q)));
                    Ok(())
                },
            )
            .expect("environment invariants");
    }

    /// The model's chain with no short-cut.
    fn full_chain(sin_el: f64) -> f64 {
        sin_el.asin().to_degrees().to_radians().sin().max(0.0)
    }

    fn assert_same_bits(sin_el: f64) {
        assert_eq!(
            clear_sky_of(sin_el).to_bits(),
            full_chain(sin_el).to_bits(),
            "sin_el {sin_el:e} ({:#018x})",
            sin_el.to_bits()
        );
    }

    #[test]
    fn night_short_cut_matches_the_chain_at_the_edges() {
        let smallest = f64::from_bits(1);
        for sin_el in [
            -1.0,
            -0.5,
            -f64::MIN_POSITIVE,
            -f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
            -1e-310,
            -1e-320,
            -smallest, // -5e-324
            -0.0,
            0.0,
            smallest,
            f64::MIN_POSITIVE,
            1.0,
        ] {
            assert_same_bits(sin_el);
        }
        assert_eq!(clear_sky_of(-smallest).to_bits(), 0.0f64.to_bits());
        assert!(clear_sky_of(f64::NAN) == full_chain(f64::NAN));
    }

    #[test]
    fn night_short_cut_proptest() {
        use proptest::prelude::*;
        use proptest::test_runner::{Config, TestRunner};
        let mut runner = TestRunner::new(Config::with_cases(256));
        // Negative normal and subnormal sines, straight into the chain.
        runner
            .run(
                &(-1.0f64..0.0, 1u64..0x0010_0000_0000_0000),
                |(normal, subnormal_bits)| {
                    let subnormal = -f64::from_bits(subnormal_bits);
                    prop_assert!(subnormal < 0.0 && !subnormal.is_normal());
                    for sin_el in [normal, subnormal] {
                        prop_assert_eq!(
                            clear_sky_of(sin_el).to_bits(),
                            full_chain(sin_el).to_bits()
                        );
                        prop_assert_eq!(clear_sky_of(sin_el).to_bits(), 0.0f64.to_bits());
                    }
                    Ok(())
                },
            )
            .expect("the short-cut returns the chain's +0.0");
        // Whole days at any latitude: the memoised fraction equals the
        // model's own chain at every sampled minute, night and day.
        let mut runner = TestRunner::new(Config::with_cases(48));
        runner
            .run(
                &(-90.0f64..90.0, 0u64..366, 0u64..1440),
                |(latitude_deg, day, minute)| {
                    let config = EnvConfig {
                        latitude_deg,
                        ..EnvConfig::vatnajokull()
                    };
                    let e = Environment::new(config, 1);
                    let model = SolarModel::new(latitude_deg);
                    let midnight =
                        SimTime::from_ymd_hms(2009, 1, 1, 0, 0, 0) + SimDuration::from_days(day);
                    for k in 0..48 {
                        let t = midnight + SimDuration::from_mins((minute + 30 * k) % 1440);
                        let want = model.clear_sky_fraction(t).to_bits();
                        prop_assert_eq!(e.clear_sky_fraction(t).to_bits(), want);
                        prop_assert_eq!(e.clear_sky_fraction(t).to_bits(), want);
                    }
                    Ok(())
                },
            )
            .expect("memoised fraction matches the model");
    }

    #[test]
    #[should_panic(expected = "invalid environment config")]
    fn rejects_invalid_config() {
        let mut c = EnvConfig::vatnajokull();
        c.probe_loss_wet = 2.0;
        let _ = Environment::new(c, 0);
    }
}
