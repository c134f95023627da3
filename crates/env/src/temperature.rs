//! Air temperature: annual + diurnal sinusoids plus a correlated noise
//! process.

use glacsweb_sim::{SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::daycache::{DayCell, OuStepCache, SodTable};

/// Seasonal/diurnal air temperature with Ornstein–Uhlenbeck weather noise.
///
/// The deterministic part is a pure function of time; the OU noise state is
/// advanced by [`TemperatureModel::step_noise`], called from the
/// environment's fixed tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemperatureModel {
    annual_mean_c: f64,
    annual_amplitude_c: f64,
    diurnal_amplitude_c: f64,
    noise_sd_c: f64,
    noise_c: f64,
    step: OuStepCache,
    /// Memo of `annual_mean_c + annual(doy)` — constant within a day.
    annual_memo: DayCell,
    /// Memo of the diurnal swing — a pure function of second-of-day.
    diurnal_memo: SodTable,
}

impl TemperatureModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if either amplitude or the noise standard deviation is
    /// negative.
    pub fn new(
        annual_mean_c: f64,
        annual_amplitude_c: f64,
        diurnal_amplitude_c: f64,
        noise_sd_c: f64,
    ) -> Self {
        assert!(
            annual_amplitude_c >= 0.0 && diurnal_amplitude_c >= 0.0 && noise_sd_c >= 0.0,
            "amplitudes must be non-negative"
        );
        TemperatureModel {
            annual_mean_c,
            annual_amplitude_c,
            diurnal_amplitude_c,
            noise_sd_c,
            noise_c: 0.0,
            step: OuStepCache::default(),
            annual_memo: DayCell::default(),
            diurnal_memo: SodTable::default(),
        }
    }

    /// The deterministic seasonal + diurnal component at `t`, °C.
    ///
    /// The annual minimum falls in late January (lag behind the solstice),
    /// the diurnal minimum just before dawn.
    fn seasonal_c(&self, t: SimTime) -> f64 {
        // Memoised form of `(annual_mean_c + annual) + diurnal`: the two
        // addends are whole subexpressions of the original — same
        // operations, same association — so a memo hit returns the exact
        // bits the inline evaluation produced (power-rail substeps call
        // this ~1440× per station-day at only 1 + 86 400 distinct keys).
        let mean_plus_annual = self.annual_memo.get_or(t.unix() / 86_400, || {
            let doy = f64::from(t.day_of_year());
            // Coldest around day 25, warmest around day 207.
            let annual =
                -self.annual_amplitude_c * (std::f64::consts::TAU * (doy - 25.0) / 365.0).cos();
            self.annual_mean_c + annual
        });
        let diurnal = self.diurnal_memo.get_or(t.seconds_of_day(), || {
            let hod = t.hour_of_day_f64();
            // Warmest mid-afternoon (15:00), coldest 03:00.
            -self.diurnal_amplitude_c * (std::f64::consts::TAU * (hod - 3.0) / 24.0).cos()
        });
        mean_plus_annual + diurnal
    }

    /// The current temperature: seasonal component plus weather noise.
    pub fn temperature_c(&self, t: SimTime) -> f64 {
        self.seasonal_c(t) + self.noise_c
    }

    /// Advances the OU weather-noise state over `dt_hours`.
    pub fn step_noise(&mut self, dt_hours: f64, rng: &mut SimRng) {
        // Mean-reverting with ~12 h correlation time. The tick is fixed,
        // so the decay/step-sd pair is cached rather than recomputed.
        let theta = 1.0 / 12.0;
        let (decay, step_sd) = self.step.coeffs(dt_hours, theta, self.noise_sd_c);
        self.noise_c = self.noise_c * decay + rng.normal(0.0, step_sd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iceland() -> TemperatureModel {
        TemperatureModel::new(-2.5, 8.0, 3.0, 1.5)
    }

    #[test]
    fn summer_warmer_than_winter() {
        let m = iceland();
        let july = m.seasonal_c(SimTime::from_ymd_hms(2009, 7, 25, 15, 0, 0));
        let jan = m.seasonal_c(SimTime::from_ymd_hms(2009, 1, 25, 15, 0, 0));
        assert!(july > 3.0, "july afternoon {july}");
        assert!(jan < -7.0, "january afternoon {jan}");
        assert!(july - jan > 12.0);
    }

    #[test]
    fn afternoon_warmer_than_night() {
        let m = iceland();
        let noon = m.seasonal_c(SimTime::from_ymd_hms(2009, 4, 10, 15, 0, 0));
        let night = m.seasonal_c(SimTime::from_ymd_hms(2009, 4, 10, 3, 0, 0));
        assert!(
            (noon - night - 6.0).abs() < 0.1,
            "diurnal swing {}",
            noon - night
        );
    }

    #[test]
    fn noise_is_mean_reverting_and_bounded() {
        let mut m = iceland();
        let mut rng = SimRng::seed_from(5);
        let mut max_abs: f64 = 0.0;
        let mut sum = 0.0;
        let n = 50_000;
        for _ in 0..n {
            m.step_noise(1.0 / 6.0, &mut rng);
            max_abs = max_abs.max(m.noise_c.abs());
            sum += m.noise_c;
        }
        assert!(max_abs < 10.0, "noise escaped: {max_abs}");
        assert!((sum / f64::from(n)).abs() < 0.5, "noise biased");
    }

    #[test]
    fn memoised_seasonal_matches_inline_formula_bitwise() {
        let m = iceland();
        let t0 = SimTime::from_ymd_hms(2009, 2, 3, 0, 0, 0);
        for step in 0..(3 * 1440) {
            let t = t0 + glacsweb_sim::SimDuration::from_mins(step);
            let doy = f64::from(t.day_of_year());
            let annual = -8.0 * (std::f64::consts::TAU * (doy - 25.0) / 365.0).cos();
            let hod = t.hour_of_day_f64();
            let diurnal = -3.0 * (std::f64::consts::TAU * (hod - 3.0) / 24.0).cos();
            let inline = -2.5 + annual + diurnal;
            assert_eq!(m.seasonal_c(t).to_bits(), inline.to_bits(), "step {step}");
            // Hit path must return the same bits again.
            assert_eq!(m.seasonal_c(t).to_bits(), inline.to_bits());
        }
    }

    #[test]
    fn temperature_includes_noise() {
        let mut m = iceland();
        let t = SimTime::from_ymd_hms(2009, 4, 10, 12, 0, 0);
        let before = m.temperature_c(t);
        m.noise_c = 2.0;
        assert!((m.temperature_c(t) - before - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_amplitude() {
        let _ = TemperatureModel::new(0.0, -1.0, 0.0, 0.0);
    }
}
