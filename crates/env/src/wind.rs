//! Wind speed: seasonal mean with Ornstein–Uhlenbeck gusting.

use glacsweb_sim::{SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::daycache::{DayCell, OuStepCache};

/// Stochastic wind-speed process.
///
/// Winter is windier than summer at the site (which is why the base station
/// carries a 50 W wind generator for the dark months), but §II notes that
/// in Iceland deep snow can stop even that source — burial is handled by
/// [`SnowPack`](crate::SnowPack) derating in the power crate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindModel {
    mean_winter_ms: f64,
    mean_summer_ms: f64,
    gust_sd_ms: f64,
    /// Deviation from the seasonal mean (OU state).
    deviation_ms: f64,
    step: OuStepCache,
    /// Memo of the seasonal mean — constant within a day.
    seasonal_memo: DayCell,
}

impl WindModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is negative.
    pub fn new(mean_winter_ms: f64, mean_summer_ms: f64, gust_sd_ms: f64) -> Self {
        assert!(
            mean_winter_ms >= 0.0 && mean_summer_ms >= 0.0 && gust_sd_ms >= 0.0,
            "wind parameters must be non-negative"
        );
        WindModel {
            mean_winter_ms,
            mean_summer_ms,
            gust_sd_ms,
            deviation_ms: 0.0,
            step: OuStepCache::default(),
            seasonal_memo: DayCell::default(),
        }
    }

    /// Seasonal mean wind speed at `t`, m/s (cosine between the summer and
    /// winter means, windiest late January).
    fn seasonal_mean_ms(&self, t: SimTime) -> f64 {
        // The whole value depends only on the civil day, so memoise it —
        // a hit returns the exact bits the inline evaluation produces.
        self.seasonal_memo.get_or(t.unix() / 86_400, || {
            let doy = f64::from(t.day_of_year());
            let mid = (self.mean_winter_ms + self.mean_summer_ms) / 2.0;
            let half = (self.mean_winter_ms - self.mean_summer_ms) / 2.0;
            mid + half * (std::f64::consts::TAU * (doy - 25.0) / 365.0).cos()
        })
    }

    /// Current wind speed at `t`, m/s (never negative).
    pub fn speed_ms(&self, t: SimTime) -> f64 {
        (self.seasonal_mean_ms(t) + self.deviation_ms).max(0.0)
    }

    /// Advances the gust state over `dt_hours`.
    pub fn step(&mut self, dt_hours: f64, rng: &mut SimRng) {
        // ~6 h correlation time: weather systems, not turbulence. The
        // tick is fixed, so the decay/step-sd pair is cached.
        let theta = 1.0 / 6.0;
        let (decay, step_sd) = self.step.coeffs(dt_hours, theta, self.gust_sd_ms);
        self.deviation_ms = self.deviation_ms * decay + rng.normal(0.0, step_sd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iceland() -> WindModel {
        WindModel::new(9.0, 5.5, 3.0)
    }

    #[test]
    fn winter_windier_than_summer() {
        let m = iceland();
        let jan = m.seasonal_mean_ms(SimTime::from_ymd_hms(2009, 1, 25, 12, 0, 0));
        let jul = m.seasonal_mean_ms(SimTime::from_ymd_hms(2009, 7, 25, 12, 0, 0));
        assert!((jan - 9.0).abs() < 0.1, "jan {jan}");
        assert!((jul - 5.5).abs() < 0.1, "jul {jul}");
    }

    #[test]
    fn speed_never_negative() {
        let mut m = WindModel::new(1.0, 0.5, 4.0);
        let mut rng = SimRng::seed_from(3);
        let t = SimTime::from_ymd_hms(2009, 7, 1, 0, 0, 0);
        for _ in 0..10_000 {
            m.step(0.25, &mut rng);
            assert!(m.speed_ms(t) >= 0.0);
        }
    }

    #[test]
    fn gusts_average_out() {
        let mut m = iceland();
        let mut rng = SimRng::seed_from(4);
        let t = SimTime::from_ymd_hms(2009, 1, 25, 12, 0, 0);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            m.step(0.25, &mut rng);
            sum += m.speed_ms(t);
        }
        let mean = sum / f64::from(n);
        assert!((mean - 9.0).abs() < 0.3, "long-run mean {mean}");
    }

    #[test]
    fn zero_wind_site_stays_calm() {
        let mut m = WindModel::new(0.0, 0.0, 0.0);
        let mut rng = SimRng::seed_from(5);
        let t = SimTime::from_ymd_hms(2009, 1, 1, 0, 0, 0);
        for _ in 0..100 {
            m.step(1.0, &mut rng);
        }
        assert_eq!(m.speed_ms(t), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_params() {
        let _ = WindModel::new(-1.0, 0.0, 0.0);
    }
}
