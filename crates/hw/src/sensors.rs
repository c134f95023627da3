//! Base-station surface sensors.
//!
//! §I: "In addition to temperature and ultrasonic snow level sensors …"
//! plus the Gumsense board's own battery-voltage, internal-temperature and
//! humidity channels (§II), which "provide additional data streams from
//! the glacier".

use glacsweb_env::Environment;
use glacsweb_sim::{SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// One sample of every surface channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorReading {
    /// Sample time.
    pub time: SimTime,
    /// Air temperature, °C.
    pub air_temp_c: f64,
    /// Ultrasonic snow depth, metres.
    pub snow_depth_m: f64,
    /// Enclosure-internal temperature, °C (runs a few degrees above air).
    pub internal_temp_c: f64,
    /// Enclosure relative humidity, %.
    pub humidity_pct: f64,
    /// Enclosure pitch from level, degrees — §VII's suggested extra
    /// sensor "so that the enclosure's movement as the ice melts can be
    /// tracked".
    pub pitch_deg: f64,
    /// Enclosure roll from level, degrees.
    pub roll_deg: f64,
}

/// The sensor suite on the station mast and inside the enclosure.
///
/// Sampling is driven by the MSP430 and "has negligible cost" (§III), so
/// no power accounting is attached here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaseSensors {
    samples_taken: u64,
}

impl BaseSensors {
    /// Creates the sensor suite.
    pub fn new() -> Self {
        BaseSensors { samples_taken: 0 }
    }

    /// Samples every channel with realistic instrument noise.
    pub fn sample(&mut self, env: &Environment, t: SimTime, rng: &mut SimRng) -> SensorReading {
        self.samples_taken += 1;
        let air = env.temperature_c(t);
        // The mast slowly tips as the ice it stands on melts out; the
        // cumulative displacement is a fair proxy for that lean.
        let lean = (env.glacier_displacement_m() * 0.15).min(25.0);
        SensorReading {
            time: t,
            air_temp_c: air + rng.normal(0.0, 0.2),
            snow_depth_m: (env.snow_depth_m() + rng.normal(0.0, 0.02)).max(0.0),
            internal_temp_c: air + 3.0 + rng.normal(0.0, 0.5),
            humidity_pct: (70.0 + 20.0 * env.melt_index() + rng.normal(0.0, 3.0)).clamp(0.0, 100.0),
            pitch_deg: lean + rng.normal(0.0, 0.3),
            roll_deg: lean * 0.4 + rng.normal(0.0, 0.3),
        }
    }
}

impl Default for BaseSensors {
    fn default() -> Self {
        BaseSensors::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glacsweb_env::EnvConfig;

    #[test]
    fn samples_track_environment() {
        let mut env = Environment::new(EnvConfig::vatnajokull(), 9);
        let t = SimTime::from_ymd_hms(2009, 2, 1, 12, 0, 0);
        env.advance_to(t);
        let mut sensors = BaseSensors::new();
        let mut rng = SimRng::seed_from(4);
        let r = sensors.sample(&env, t, &mut rng);
        assert!((r.air_temp_c - env.temperature_c(t)).abs() < 1.0);
        assert!((r.snow_depth_m - env.snow_depth_m()).abs() < 0.1);
        assert!(r.internal_temp_c > r.air_temp_c, "enclosure self-heats");
        assert!((0.0..=100.0).contains(&r.humidity_pct));
        assert_eq!(sensors.samples_taken, 1);
    }

    #[test]
    fn enclosure_leans_as_the_ice_melts_out() {
        // §VII: pitch/roll "so that the enclosure's movement as the ice
        // melts can be tracked" — a melt season tips the mast.
        let mut env = Environment::new(EnvConfig::vatnajokull(), 9);
        let spring = SimTime::from_ymd_hms(2009, 5, 1, 12, 0, 0);
        env.advance_to(spring);
        let mut sensors = BaseSensors::new();
        let mut rng = SimRng::seed_from(8);
        let early = sensors.sample(&env, spring, &mut rng).pitch_deg;
        let autumn = SimTime::from_ymd_hms(2009, 9, 15, 12, 0, 0);
        env.advance_to(autumn);
        let late = sensors.sample(&env, autumn, &mut rng).pitch_deg;
        assert!(
            late > early + 1.0,
            "melt season lean: {early:.2} -> {late:.2} deg"
        );
    }

    #[test]
    fn snow_depth_never_negative() {
        let mut env = Environment::new(EnvConfig::lab(), 9);
        let t = SimTime::from_ymd_hms(2009, 7, 1, 12, 0, 0);
        env.advance_to(t);
        let mut sensors = BaseSensors::new();
        let mut rng = SimRng::seed_from(5);
        for _ in 0..200 {
            let r = sensors.sample(&env, t, &mut rng);
            assert!(r.snow_depth_m >= 0.0);
        }
    }

    #[test]
    fn humidity_rises_in_the_melt_season() {
        let mut winter_env = Environment::new(EnvConfig::vatnajokull(), 9);
        let jan = SimTime::from_ymd_hms(2009, 1, 15, 12, 0, 0);
        winter_env.advance_to(jan);
        let mut summer_env = Environment::new(EnvConfig::vatnajokull(), 9);
        let jul = SimTime::from_ymd_hms(2009, 7, 15, 12, 0, 0);
        summer_env.advance_to(jul);
        let mut s = BaseSensors::new();
        let mut rng = SimRng::seed_from(6);
        let mean = |env: &Environment, t, s: &mut BaseSensors, rng: &mut SimRng| {
            (0..50)
                .map(|_| s.sample(env, t, rng).humidity_pct)
                .sum::<f64>()
                / 50.0
        };
        let winter = mean(&winter_env, jan, &mut s, &mut rng);
        let summer = mean(&summer_env, jul, &mut s, &mut rng);
        assert!(summer > winter + 5.0, "winter {winter} summer {summer}");
    }
}
