//! Snow pack: storm accumulation and degree-day melt.

use glacsweb_sim::{ConfigError, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Snow depth dynamics at the station site.
///
/// Accumulation is a Poisson storm process whose rate follows the season
/// (heavy in winter, zero in high summer); ablation is a classic positive
/// degree-day melt. Depth feeds the solar-panel and wind-generator burial
/// derating and the §V "base station damaged by deep snow" fault model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnowPack {
    storm_rate_winter_per_day: f64,
    snow_per_storm_m: f64,
    melt_m_per_degree_day: f64,
    depth_m: f64,
}

impl SnowPack {
    /// Creates a snow pack with zero initial depth.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is negative.
    pub fn new(
        storm_rate_winter_per_day: f64,
        snow_per_storm_m: f64,
        melt_m_per_degree_day: f64,
    ) -> Self {
        assert!(
            storm_rate_winter_per_day >= 0.0
                && snow_per_storm_m >= 0.0
                && melt_m_per_degree_day >= 0.0,
            "snow parameters must be non-negative"
        );
        SnowPack {
            storm_rate_winter_per_day,
            snow_per_storm_m,
            melt_m_per_degree_day,
            depth_m: 0.0,
        }
    }

    /// Checks the storm depth a snapshot could carry: a storm's depth is
    /// drawn with rate `1 / snow_per_storm_m`, which must stay positive.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if !(self.snow_per_storm_m.is_finite() && self.snow_per_storm_m >= 0.0) {
            return Err(ConfigError::new(
                "snow",
                "snow_per_storm_m",
                "storm depth must be finite and non-negative",
            ));
        }
        Ok(())
    }

    /// Current snow depth in metres.
    pub fn depth_m(&self) -> f64 {
        self.depth_m
    }

    /// Seasonal storm rate at `t`, storms per day. Peaks in late January,
    /// zero around late July.
    fn storm_rate_per_day(&self, t: SimTime) -> f64 {
        let doy = f64::from(t.day_of_year());
        let phase = (std::f64::consts::TAU * (doy - 25.0) / 365.0).cos();
        (self.storm_rate_winter_per_day * (phase + 0.3) / 1.3).max(0.0)
    }

    /// Advances the pack over `dt_days` at air temperature `temp_c`.
    pub fn step(&mut self, dt_days: f64, temp_c: f64, t: SimTime, rng: &mut SimRng) {
        // Storm arrivals (Poisson thinning on the tick). Snow only sticks
        // when it is cold.
        if temp_c < 1.0 {
            let p = (self.storm_rate_per_day(t) * dt_days).min(1.0);
            if rng.bernoulli(p) {
                self.depth_m += rng.exponential(1.0 / self.snow_per_storm_m.max(1e-9));
            }
        }
        // Degree-day melt plus slow compaction.
        if temp_c > 0.0 {
            self.depth_m -= self.melt_m_per_degree_day * temp_c * dt_days;
        }
        self.depth_m -= self.depth_m * 0.002 * dt_days; // settle/compact
        self.depth_m = self.depth_m.max(0.0);
    }

    /// Output derating factor in `[0, 1]` for equipment buried once snow
    /// reaches `burial_depth_m` (linear until fully buried).
    pub fn burial_factor(&self, burial_depth_m: f64) -> f64 {
        if burial_depth_m <= 0.0 {
            return if self.depth_m > 0.0 { 0.0 } else { 1.0 };
        }
        (1.0 - self.depth_m / burial_depth_m).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iceland() -> SnowPack {
        SnowPack::new(0.35, 0.18, 0.004)
    }

    #[test]
    fn accumulates_through_a_cold_winter() {
        let mut s = iceland();
        let mut rng = SimRng::seed_from(21);
        let mut t = SimTime::from_ymd_hms(2008, 11, 1, 0, 0, 0);
        let dt_days = 1.0 / 144.0; // 10-minute ticks
        for _ in 0..(144 * 120) {
            s.step(dt_days, -6.0, t, &mut rng);
            t += glacsweb_sim::SimDuration::from_mins(10);
        }
        assert!(s.depth_m() > 1.0, "after 120 cold days: {}", s.depth_m());
    }

    #[test]
    fn melts_in_a_warm_summer() {
        let mut s = SnowPack::new(0.35, 0.18, 0.004);
        s.depth_m = 2.0;
        let mut rng = SimRng::seed_from(22);
        let mut t = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let dt_days = 1.0 / 144.0;
        for _ in 0..(144 * 90) {
            s.step(dt_days, 6.0, t, &mut rng);
            t += glacsweb_sim::SimDuration::from_mins(10);
        }
        assert!(s.depth_m() < 0.2, "after 90 warm days: {}", s.depth_m());
    }

    #[test]
    fn depth_never_negative() {
        let mut s = iceland();
        let mut rng = SimRng::seed_from(23);
        let t = SimTime::from_ymd_hms(2009, 7, 1, 0, 0, 0);
        for _ in 0..1000 {
            s.step(0.5, 15.0, t, &mut rng);
            assert!(s.depth_m() >= 0.0);
        }
    }

    #[test]
    fn burial_factor_derates_linearly() {
        let mut s = SnowPack::new(0.0, 0.0, 0.0);
        s.depth_m = 0.6;
        assert!((s.burial_factor(1.2) - 0.5).abs() < 1e-12);
        assert_eq!(s.burial_factor(0.6), 0.0);
        assert_eq!(s.burial_factor(0.3), 0.0);
        let clear = SnowPack::new(0.0, 0.0, 0.0);
        assert_eq!(clear.burial_factor(1.2), 1.0);
    }

    #[test]
    fn storm_rate_is_seasonal() {
        let s = iceland();
        let jan = s.storm_rate_per_day(SimTime::from_ymd_hms(2009, 1, 25, 0, 0, 0));
        let jul = s.storm_rate_per_day(SimTime::from_ymd_hms(2009, 7, 25, 0, 0, 0));
        assert!(jan > 0.3, "jan {jan}");
        assert_eq!(jul, 0.0, "no summer storms");
    }
}
