//! Glacier surface motion: steady creep plus water-pressure-modulated
//! stick-slip events.
//!
//! The whole dGPS apparatus in the paper exists "to understand the nature
//! of glacier movement, in particular the relationship of any 'stick-slip'
//! motion to changes in water pressure". The motion model therefore
//! produces a down-flow displacement with exactly that structure, so the
//! dGPS data products regenerated by the experiments contain a real signal.

use glacsweb_sim::{ConfigError, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Down-flow displacement of the base-station site (metres from the season
/// start position).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlacierMotion {
    base_velocity_m_per_day: f64,
    slip_event_m: f64,
    slip_rate_wet_per_day: f64,
    displacement_m: f64,
    slip_count: u64,
}

impl GlacierMotion {
    /// Creates a motion model starting at zero displacement.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is negative.
    pub fn new(
        base_velocity_m_per_day: f64,
        slip_event_m: f64,
        slip_rate_wet_per_day: f64,
    ) -> Self {
        assert!(
            base_velocity_m_per_day >= 0.0 && slip_event_m >= 0.0 && slip_rate_wet_per_day >= 0.0,
            "motion parameters must be non-negative"
        );
        GlacierMotion {
            base_velocity_m_per_day,
            slip_event_m,
            slip_rate_wet_per_day,
            displacement_m: 0.0,
            slip_count: 0,
        }
    }

    /// Checks the slip size a snapshot could carry: a slip is drawn with
    /// rate `1 / slip_event_m`, which must stay positive.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if !(self.slip_event_m.is_finite() && self.slip_event_m >= 0.0) {
            return Err(ConfigError::new(
                "motion",
                "slip_event_m",
                "slip size must be finite and non-negative",
            ));
        }
        Ok(())
    }

    /// Total down-flow displacement so far, metres.
    pub fn displacement_m(&self) -> f64 {
        self.displacement_m
    }

    /// Number of discrete slip events so far.
    pub fn slip_count(&self) -> u64 {
        self.slip_count
    }

    /// Advances motion over `dt_days` with the given normalised water
    /// pressure (see
    /// [`Hydrology::water_pressure`](crate::Hydrology::water_pressure)).
    ///
    /// Creep runs continuously; slip events arrive as a Poisson process
    /// whose rate scales with water pressure — no pressure, no slips.
    pub fn step(&mut self, dt_days: f64, water_pressure: f64, rng: &mut SimRng) {
        self.displacement_m += self.base_velocity_m_per_day * dt_days;
        let rate = self.slip_rate_wet_per_day * water_pressure.clamp(0.0, 1.0);
        let p = (rate * dt_days).min(1.0);
        if p > 0.0 && rng.bernoulli(p) {
            self.displacement_m += rng.exponential(1.0 / self.slip_event_m.max(1e-12));
            self.slip_count += 1;
        }
    }

    /// True position sampled by a dGPS unit: displacement plus optional
    /// single-receiver noise.
    ///
    /// A *differential* fix subtracts the reference station's simultaneous
    /// error; callers model that by passing a much smaller `noise_m` when a
    /// paired reference reading exists. This is exactly the paper's §II
    /// argument for keeping the two stations' reading schedules
    /// synchronised.
    pub fn observed_position_m(&self, noise_m: f64, rng: &mut SimRng) -> f64 {
        self.displacement_m + rng.normal(0.0, noise_m.max(0.0))
    }

    /// The time-stamped displacement (alias used by data products).
    pub fn sample(&self, _t: SimTime) -> f64 {
        self.displacement_m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creep_accumulates_linearly() {
        let mut m = GlacierMotion::new(0.12, 0.0, 0.0);
        let mut rng = SimRng::seed_from(31);
        for _ in 0..100 {
            m.step(1.0, 0.0, &mut rng);
        }
        assert!((m.displacement_m() - 12.0).abs() < 1e-9);
        assert_eq!(m.slip_count(), 0);
    }

    #[test]
    fn slips_only_under_water_pressure() {
        let mut dry = GlacierMotion::new(0.0, 0.015, 4.0);
        let mut wet = GlacierMotion::new(0.0, 0.015, 4.0);
        let mut rng_d = SimRng::seed_from(32);
        let mut rng_w = SimRng::seed_from(32);
        for _ in 0..(144 * 30) {
            dry.step(1.0 / 144.0, 0.0, &mut rng_d);
            wet.step(1.0 / 144.0, 0.9, &mut rng_w);
        }
        assert_eq!(dry.slip_count(), 0);
        assert!(wet.slip_count() > 50, "wet slips {}", wet.slip_count());
        assert!(wet.displacement_m() > dry.displacement_m());
    }

    #[test]
    fn slip_rate_tracks_pressure() {
        let run = |p: f64| {
            let mut m = GlacierMotion::new(0.0, 0.01, 4.0);
            let mut rng = SimRng::seed_from(33);
            for _ in 0..(144 * 60) {
                m.step(1.0 / 144.0, p, &mut rng);
            }
            m.slip_count()
        };
        let low = run(0.2);
        let high = run(0.9);
        assert!(high > 2 * low, "high {high} vs low {low}");
    }

    #[test]
    fn differential_noise_is_smaller() {
        // With a paired reference the observation noise shrinks; verify the
        // spread of repeated observations reflects the passed noise level.
        let m = GlacierMotion::new(0.0, 0.0, 0.0);
        let spread = |noise: f64, seed: u64| {
            let mut rng = SimRng::seed_from(seed);
            let xs: Vec<f64> = (0..2000)
                .map(|_| m.observed_position_m(noise, &mut rng))
                .collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
        };
        let single = spread(3.0, 7); // raw GPS, metres of error
        let differential = spread(0.05, 7); // dGPS-corrected
        assert!(single > 20.0 * differential);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_velocity() {
        let _ = GlacierMotion::new(-0.1, 0.0, 0.0);
    }
}
