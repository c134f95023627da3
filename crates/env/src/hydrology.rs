//! Subglacial hydrology: melt-water index, water pressure and the
//! conductivity signal of Fig 6.

use glacsweb_sim::{ConfigError, SimTime};
use serde::{Deserialize, Serialize};

use crate::daycache::AlphaStepCache;

/// Slow subglacial water state driven by surface melt.
///
/// The melt-water index is a low-pass filter of positive-degree-day melt:
/// it stays near zero through the winter, then climbs from late March as
/// melt percolates to the bed. This one state variable drives three
/// paper-visible behaviours:
///
/// * **Fig 6** — electrical conductivity at the bed rises when melt water
///   arrives ("the electrical conductivity increases show that melt-water
///   is starting to reach the glacier bed");
/// * **§III/§V** — probe radio loss is higher through wet summer ice;
/// * **§I** — diurnal water-pressure variation modulates stick-slip motion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hydrology {
    /// Melt-water index in `[0, 1]`.
    melt_index: f64,
    step: AlphaStepCache,
}

impl Hydrology {
    /// Creates a dry (deep winter) state.
    pub fn new() -> Self {
        Hydrology {
            melt_index: 0.0,
            step: AlphaStepCache::default(),
        }
    }

    /// Creates a state with a given initial melt index.
    ///
    /// # Panics
    ///
    /// Panics if `melt_index` is outside `[0, 1]`.
    pub fn with_index(melt_index: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&melt_index),
            "index {melt_index} out of range"
        );
        Hydrology {
            melt_index,
            step: AlphaStepCache::default(),
        }
    }

    /// Current melt-water index in `[0, 1]`.
    pub fn melt_index(&self) -> f64 {
        self.melt_index
    }

    /// Checks the melt index a snapshot could carry: it scales the GPRS
    /// weather multiplier, which must stay positive and finite.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.melt_index) {
            return Err(ConfigError::new(
                "hydrology",
                "melt_index",
                "melt index must lie in [0, 1]",
            ));
        }
        Ok(())
    }

    /// Advances the filter over `dt_days` at surface temperature `temp_c`.
    ///
    /// Warm days push the index towards 1 with a ~10-day time constant;
    /// cold days relax it towards 0 with a ~25-day constant (englacial
    /// water drains slower than it arrives).
    pub fn step(&mut self, dt_days: f64, temp_c: f64) {
        let melt_drive = (temp_c / 4.0).clamp(0.0, 1.0);
        // Both filter gains are constants of the (fixed) tick; cached so
        // the per-tick cost is a multiply-add, not an `exp`.
        let (alpha_rise, alpha_fall) = self.step.alphas(dt_days, 10.0, 25.0);
        let alpha = if melt_drive > self.melt_index {
            alpha_rise
        } else {
            alpha_fall
        };
        self.melt_index += alpha * (melt_drive - self.melt_index);
        self.melt_index = self.melt_index.clamp(0.0, 1.0);
    }

    /// Probe radio packet-loss probability, interpolated between the dry
    /// and wet extremes by the melt index.
    pub fn probe_loss(&self, loss_dry: f64, loss_wet: f64) -> f64 {
        loss_dry + (loss_wet - loss_dry) * self.melt_index
    }

    /// Normalised subglacial water pressure in `[0, 1]` with a diurnal
    /// component in the melt season (peaks late afternoon, after the day's
    /// melt has drained to the bed).
    pub fn water_pressure(&self, t: SimTime) -> f64 {
        let hod = t.hour_of_day_f64();
        let diurnal = 0.2 * (std::f64::consts::TAU * (hod - 17.0) / 24.0).cos();
        (self.melt_index * (0.8 + diurnal)).clamp(0.0, 1.0)
    }

    /// Baseline electrical conductivity at the bed in µS, before per-probe
    /// offsets and noise (Fig 6 y-axis, roughly 0–16 µS).
    ///
    /// Winter base level ~1.5 µS rising towards ~12 µS as melt water
    /// reaches the bed. The square-root response makes the *first* melt
    /// water the most visible — the early spring flush carries the most
    /// solute, which is exactly the end-of-winter rise Fig 6 plots.
    pub fn conductivity_microsiemens(&self) -> f64 {
        1.5 + 10.5 * self.melt_index.sqrt()
    }
}

impl Default for Hydrology {
    fn default() -> Self {
        Hydrology::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_dry_through_winter() {
        let mut h = Hydrology::new();
        for _ in 0..90 {
            h.step(1.0, -8.0);
        }
        assert!(h.melt_index() < 0.01, "index {}", h.melt_index());
        assert!(h.conductivity_microsiemens() < 2.0);
    }

    #[test]
    fn spring_melt_raises_index_and_conductivity() {
        let mut h = Hydrology::new();
        // Winter…
        for _ in 0..60 {
            h.step(1.0, -8.0);
        }
        let winter_cond = h.conductivity_microsiemens();
        // …then 30 warm spring days.
        for _ in 0..30 {
            h.step(1.0, 5.0);
        }
        let spring_cond = h.conductivity_microsiemens();
        assert!(h.melt_index() > 0.5, "index {}", h.melt_index());
        assert!(
            spring_cond > winter_cond + 4.0,
            "conductivity rise {winter_cond} -> {spring_cond}"
        );
    }

    #[test]
    fn drains_slower_than_it_fills() {
        let mut h = Hydrology::with_index(0.0);
        for _ in 0..10 {
            h.step(1.0, 9.0);
        }
        let after_fill = h.melt_index();
        let mut h2 = Hydrology::with_index(after_fill);
        for _ in 0..10 {
            h2.step(1.0, -10.0);
        }
        let drained = after_fill - h2.melt_index();
        let filled = after_fill;
        assert!(drained < filled, "drain {drained} vs fill {filled}");
    }

    #[test]
    fn probe_loss_interpolates() {
        let dry = Hydrology::with_index(0.0);
        let wet = Hydrology::with_index(1.0);
        let half = Hydrology::with_index(0.5);
        assert!((dry.probe_loss(0.025, 0.16) - 0.025).abs() < 1e-12);
        assert!((wet.probe_loss(0.025, 0.16) - 0.16).abs() < 1e-12);
        assert!((half.probe_loss(0.025, 0.16) - 0.0925).abs() < 1e-12);
    }

    #[test]
    fn water_pressure_has_diurnal_peak_in_melt_season() {
        let h = Hydrology::with_index(0.8);
        let afternoon = h.water_pressure(SimTime::from_ymd_hms(2009, 7, 1, 17, 0, 0));
        let morning = h.water_pressure(SimTime::from_ymd_hms(2009, 7, 1, 5, 0, 0));
        assert!(afternoon > morning, "{afternoon} vs {morning}");
        let dry = Hydrology::new();
        assert_eq!(
            dry.water_pressure(SimTime::from_ymd_hms(2009, 1, 1, 17, 0, 0)),
            0.0
        );
    }

    #[test]
    fn index_bounded() {
        let mut h = Hydrology::new();
        for _ in 0..1000 {
            h.step(5.0, 30.0);
        }
        assert!(h.melt_index() <= 1.0);
        for _ in 0..1000 {
            h.step(5.0, -30.0);
        }
        assert!(h.melt_index() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_index() {
        let _ = Hydrology::with_index(1.5);
    }
}
