//! Charging sources: solar panel, wind generator, café mains.

use glacsweb_env::Environment;
use glacsweb_sim::{SimTime, Volts, Watts};
use serde::{Deserialize, Serialize};

/// A photovoltaic panel (the base station carries 10 W).
///
/// Output is the rated power scaled by the environment's
/// [`solar_factor`](Environment::solar_factor), which already folds in
/// solar elevation, cloud and snow burial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolarPanel {
    rated: Watts,
}

impl SolarPanel {
    /// Creates a panel with the given rated output.
    ///
    /// # Panics
    ///
    /// Panics if `rated` is negative.
    pub fn new(rated: Watts) -> Self {
        assert!(rated.value() >= 0.0, "rated power must be non-negative");
        SolarPanel { rated }
    }

    /// Instantaneous output.
    pub fn output(&self, env: &Environment, t: SimTime) -> Watts {
        self.output_at_factor(env.solar_factor(t))
    }

    /// Output at a given [`solar_factor`](Environment::solar_factor).
    pub(crate) fn output_at_factor(&self, solar_factor: f64) -> Watts {
        self.rated * solar_factor
    }
}

/// A small wind generator (the base station carries 50 W).
///
/// Standard power curve: zero below cut-in, cubic between cut-in and rated
/// speed, rated up to cut-out, zero beyond (furling). Snow burial derating
/// is applied by the environment's wind query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindTurbine {
    rated: Watts,
    cut_in_ms: f64,
    rated_speed_ms: f64,
    cut_out_ms: f64,
}

impl WindTurbine {
    /// Creates a turbine with a conventional small-turbine curve
    /// (cut-in 3 m/s, rated 12 m/s, cut-out 25 m/s).
    ///
    /// # Panics
    ///
    /// Panics if `rated` is negative.
    pub fn new(rated: Watts) -> Self {
        Self::with_curve(rated, 3.0, 12.0, 25.0)
    }

    /// Creates a turbine with an explicit power curve.
    ///
    /// # Panics
    ///
    /// Panics if the curve speeds are not strictly increasing or `rated`
    /// is negative.
    fn with_curve(rated: Watts, cut_in_ms: f64, rated_speed_ms: f64, cut_out_ms: f64) -> Self {
        assert!(rated.value() >= 0.0, "rated power must be non-negative");
        assert!(
            0.0 < cut_in_ms && cut_in_ms < rated_speed_ms && rated_speed_ms < cut_out_ms,
            "power curve speeds must be increasing"
        );
        WindTurbine {
            rated,
            cut_in_ms,
            rated_speed_ms,
            cut_out_ms,
        }
    }

    /// Output at a given wind speed.
    fn output_at_speed(&self, speed_ms: f64) -> Watts {
        if speed_ms < self.cut_in_ms || speed_ms >= self.cut_out_ms {
            Watts::ZERO
        } else if speed_ms >= self.rated_speed_ms {
            self.rated
        } else {
            let x = (speed_ms - self.cut_in_ms) / (self.rated_speed_ms - self.cut_in_ms);
            self.rated * x.powi(3)
        }
    }

    /// Instantaneous output in the given environment.
    pub fn output(&self, env: &Environment, t: SimTime) -> Watts {
        self.output_at_speed(env.wind_speed_ms(t))
    }
}

/// A mains-powered charger, live only while the café has power.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MainsCharger {
    output: Watts,
}

impl MainsCharger {
    /// Creates a charger with the given output when mains is live.
    ///
    /// # Panics
    ///
    /// Panics if `output` is negative.
    pub fn new(output: Watts) -> Self {
        assert!(output.value() >= 0.0, "output must be non-negative");
        MainsCharger { output }
    }

    /// Instantaneous output.
    pub fn output(&self, env: &Environment, t: SimTime) -> Watts {
        self.output_if_live(env.cafe_mains_available(t))
    }

    /// Output given whether the café mains supply is live.
    pub(crate) fn output_if_live(&self, mains_live: bool) -> Watts {
        if mains_live {
            self.output
        } else {
            Watts::ZERO
        }
    }
}

/// Any charging source attachable to a [`PowerRail`](crate::PowerRail).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Charger {
    /// Photovoltaic panel.
    Solar(SolarPanel),
    /// Wind generator.
    Wind(WindTurbine),
    /// Café mains charger.
    Mains(MainsCharger),
}

impl Charger {
    /// Instantaneous raw output before charge-controller taper.
    pub fn output(&self, env: &Environment, t: SimTime) -> Watts {
        match self {
            Charger::Solar(s) => s.output(env, t),
            Charger::Wind(w) => w.output(env, t),
            Charger::Mains(m) => m.output(env, t),
        }
    }

    /// Raw output from environment terms already read, bit-identical to
    /// [`Charger::output`] at the instant they were read at.
    pub(crate) fn output_with(&self, inputs: &ChargerInputs) -> Watts {
        match self {
            Charger::Solar(s) => s.output_at_factor(inputs.solar_factor),
            Charger::Wind(w) => w.output_at_speed(inputs.wind_ms),
            Charger::Mains(m) => m.output_if_live(inputs.mains_live),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Charger::Solar(_) => "solar",
            Charger::Wind(_) => "wind",
            Charger::Mains(_) => "mains",
        }
    }
}

/// The environment terms every charger's output is a function of, read
/// once and shared by all the chargers on a rail.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ChargerInputs {
    /// [`Environment::solar_factor`].
    pub(crate) solar_factor: f64,
    /// [`Environment::wind_speed_ms`].
    pub(crate) wind_ms: f64,
    /// [`Environment::cafe_mains_available`].
    pub(crate) mains_live: bool,
}

/// Charge-controller taper: full current in bulk, linear taper between the
/// absorb and float set-points so the battery is never driven past ~14.4 V.
pub(crate) fn controller_taper(battery_voltage: Volts) -> f64 {
    const ABSORB: f64 = 13.8;
    const FLOAT: f64 = 14.4;
    if battery_voltage.value() <= ABSORB {
        1.0
    } else if battery_voltage.value() >= FLOAT {
        0.05
    } else {
        1.0 - 0.95 * (battery_voltage.value() - ABSORB) / (FLOAT - ABSORB)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glacsweb_env::EnvConfig;

    fn env_at(y: i32, mo: u32, d: u32, h: u32) -> (Environment, SimTime) {
        let mut e = Environment::new(EnvConfig::vatnajokull(), 11);
        let t = SimTime::from_ymd_hms(y, mo, d, h, 0, 0);
        e.advance_to(t);
        (e, t)
    }

    #[test]
    fn solar_panel_follows_sun() {
        let p = SolarPanel::new(Watts(10.0));
        let (e, noon) = env_at(2009, 6, 21, 12);
        let (e2, night) = env_at(2009, 6, 21, 1);
        assert!(p.output(&e, noon) > Watts(1.0));
        assert!(p.output(&e2, night) < p.output(&e, noon));
        assert!(p.output(&e, noon) <= Watts(10.0));
    }

    #[test]
    fn turbine_power_curve_shape() {
        let w = WindTurbine::new(Watts(50.0));
        assert_eq!(w.output_at_speed(2.0), Watts::ZERO);
        assert_eq!(w.output_at_speed(12.0), Watts(50.0));
        assert_eq!(w.output_at_speed(20.0), Watts(50.0));
        assert_eq!(w.output_at_speed(30.0), Watts::ZERO, "furled in a storm");
        let half = w.output_at_speed(7.5); // halfway: (0.5)^3 = 12.5%
        assert!((half.value() - 6.25).abs() < 0.01, "{half}");
        // Monotone between cut-in and rated.
        let mut last = -1.0;
        for i in 0..=90 {
            let v = w.output_at_speed(3.0 + 0.1 * f64::from(i)).value();
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn mains_follows_cafe_season() {
        let m = MainsCharger::new(Watts(30.0));
        let (e_winter, jan) = env_at(2009, 1, 15, 12);
        let (e_summer, jul) = env_at(2009, 7, 15, 12);
        assert_eq!(m.output(&e_winter, jan), Watts::ZERO);
        assert_eq!(m.output(&e_summer, jul), Watts(30.0));
    }

    #[test]
    fn charger_enum_dispatch_and_labels() {
        let (e, t) = env_at(2009, 7, 15, 12);
        let chargers = [
            Charger::Solar(SolarPanel::new(Watts(10.0))),
            Charger::Wind(WindTurbine::new(Watts(50.0))),
            Charger::Mains(MainsCharger::new(Watts(30.0))),
        ];
        let labels: Vec<_> = chargers.iter().map(|c| c.label()).collect();
        assert_eq!(labels, ["solar", "wind", "mains"]);
        for c in &chargers {
            assert!(c.output(&e, t).value() >= 0.0);
        }
    }

    #[test]
    fn taper_protects_the_battery() {
        assert_eq!(controller_taper(Volts(12.5)), 1.0);
        assert_eq!(controller_taper(Volts(14.5)), 0.05);
        let mid = controller_taper(Volts(14.1));
        assert!(mid > 0.05 && mid < 1.0);
    }

    #[test]
    #[should_panic(expected = "increasing")]
    fn rejects_bad_power_curve() {
        let _ = WindTurbine::with_curve(Watts(50.0), 12.0, 3.0, 25.0);
    }
}
