//! Solar geometry and panel irradiance.

use glacsweb_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Solar elevation above the horizon in degrees for a site at
/// `latitude_deg` north at the given (UTC) instant.
///
/// Uses the standard declination/hour-angle approximation, which is easily
/// accurate enough to reproduce the diurnal/seasonal structure the paper's
/// charging data shows.
///
/// ```
/// use glacsweb_env::solar_elevation_deg;
/// use glacsweb_sim::SimTime;
///
/// let noon_midsummer = SimTime::from_ymd_hms(2009, 6, 21, 12, 0, 0);
/// let e = solar_elevation_deg(64.3, noon_midsummer);
/// // 90 - 64.3 + 23.44 ≈ 49°
/// assert!((e - 49.0).abs() < 2.0);
/// ```
pub fn solar_elevation_deg(latitude_deg: f64, t: SimTime) -> f64 {
    let doy = f64::from(t.day_of_year());
    // Solar declination (Cooper's formula).
    let decl = 23.44_f64.to_radians() * (std::f64::consts::TAU * (284.0 + doy) / 365.0).sin();
    // Hour angle: 15° per hour from solar noon. The site is close enough to
    // the UTC meridian (Iceland is UTC year-round) that clock noon ≈ solar
    // noon.
    let hour_angle = (15.0 * (t.hour_of_day_f64() - 12.0)).to_radians();
    let lat = latitude_deg.to_radians();
    let sin_el = lat.sin() * decl.sin() + lat.cos() * decl.cos() * hour_angle.cos();
    sin_el.asin().to_degrees()
}

/// Deterministic clear-sky part of the solar model.
///
/// The stochastic cloud attenuation lives in
/// [`Environment`](crate::Environment); this type exposes the pure
/// geometry so it can be tested and benchmarked in isolation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolarModel {
    latitude_deg: f64,
}

impl SolarModel {
    /// Creates a model for a site at the given latitude.
    ///
    /// # Panics
    ///
    /// Panics if the latitude is outside `[-90, 90]`.
    pub fn new(latitude_deg: f64) -> Self {
        assert!(
            (-90.0..=90.0).contains(&latitude_deg),
            "latitude {latitude_deg} out of range"
        );
        SolarModel { latitude_deg }
    }

    /// The site latitude in degrees.
    pub fn latitude_deg(&self) -> f64 {
        self.latitude_deg
    }

    /// Clear-sky output fraction in `[0, 1]`: the fraction of the panel's
    /// rated output available at `t` under a cloudless sky.
    ///
    /// Modelled as `max(0, sin(elevation))` — a horizontal panel under
    /// direct beam irradiance. Rated output corresponds to the sun at
    /// zenith.
    pub fn clear_sky_fraction(&self, t: SimTime) -> f64 {
        solar_elevation_deg(self.latitude_deg, t)
            .to_radians()
            .sin()
            .max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glacsweb_sim::SimDuration;

    const LAT: f64 = 64.3;

    #[test]
    fn midnight_sun_in_june_dark_noon_in_december() {
        // At 64.3°N just below the arctic circle: June nights are bright
        // twilight (elevation near zero), December noon sun is barely up.
        let june_midnight = SimTime::from_ymd_hms(2009, 6, 21, 0, 0, 0);
        let dec_noon = SimTime::from_ymd_hms(2009, 12, 21, 12, 0, 0);
        let e_june_night = solar_elevation_deg(LAT, june_midnight);
        let e_dec_noon = solar_elevation_deg(LAT, dec_noon);
        assert!(e_june_night > -4.0 && e_june_night < 3.0, "{e_june_night}");
        assert!(e_dec_noon > 0.0 && e_dec_noon < 4.0, "{e_dec_noon}");
    }

    #[test]
    fn noon_is_daily_maximum() {
        let m = SolarModel::new(LAT);
        let day = SimTime::from_ymd_hms(2009, 9, 22, 0, 0, 0);
        let noon = m.clear_sky_fraction(day + SimDuration::from_hours(12));
        for h in 0..24u64 {
            let f = m.clear_sky_fraction(day + SimDuration::from_hours(h));
            assert!(f <= noon + 1e-9, "hour {h}: {f} > noon {noon}");
        }
        assert!(
            noon > 0.2,
            "equinox noon should have meaningful sun: {noon}"
        );
    }

    #[test]
    fn seasonal_energy_ordering() {
        let m = SolarModel::new(LAT);
        let daily = |y, mo, d| -> f64 {
            let t0 = SimTime::from_ymd_hms(y, mo, d, 0, 0, 0);
            (0..24 * 6)
                .map(|i| m.clear_sky_fraction(t0 + SimDuration::from_mins(10 * i)))
                .sum()
        };
        let summer = daily(2009, 6, 21);
        let equinox = daily(2009, 9, 22);
        let winter = daily(2009, 12, 21);
        assert!(summer > equinox && equinox > winter);
        // Winter yields almost nothing — the premise of the paper's power
        // management (§III: "winter conditions reduce the amount of power").
        assert!(winter < 0.12 * summer, "winter {winter} vs summer {summer}");
    }

    #[test]
    fn fraction_is_bounded() {
        let m = SolarModel::new(LAT);
        let t0 = SimTime::from_ymd_hms(2009, 1, 1, 0, 0, 0);
        for i in 0..(365 * 24) {
            let f = m.clear_sky_fraction(t0 + SimDuration::from_hours(i));
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    #[should_panic(expected = "latitude")]
    fn rejects_bad_latitude() {
        let _ = SolarModel::new(91.0);
    }
}
