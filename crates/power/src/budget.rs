//! Analytic power-budget helpers.
//!
//! These closed-form calculations reproduce the paper's §III in-text
//! arithmetic: a 3.6 W dGPS drains 36 Ah in five days run continuously,
//! but lasts ~117 days duty-cycled as in power state 3 (12 readings of
//! roughly five minutes per day). They are also used by the ablation
//! benches to sanity-check the simulated results.

use glacsweb_sim::{AmpHours, SimDuration, Volts, WattHours, Watts};

/// Time for a constant load to deplete a bank, ignoring every other
/// consumer (the paper's own simplification: "for simplicity these figures
/// do not include the consumption of any other component").
///
/// # Panics
///
/// Panics if the load is not strictly positive.
///
/// ```
/// use glacsweb_power::budget::time_to_deplete;
/// use glacsweb_sim::{AmpHours, Volts, Watts};
///
/// let t = time_to_deplete(AmpHours(36.0), Volts(12.0), Watts(3.6));
/// assert_eq!(t.as_days_f64().round() as u32, 5);
/// ```
pub fn time_to_deplete(bank: AmpHours, nominal: Volts, load: Watts) -> SimDuration {
    assert!(load.value() > 0.0, "load must be positive");
    let hours = bank.energy_at(nominal).value() / load.value();
    SimDuration::from_secs_f64(hours * 3600.0)
}

/// Time for a duty-cycled load (on for `on_per_day` out of every day) to
/// deplete a bank.
///
/// # Panics
///
/// Panics if the load is not positive or the duty exceeds 24 h/day.
pub fn time_to_deplete_duty(
    bank: AmpHours,
    nominal: Volts,
    load: Watts,
    on_per_day: SimDuration,
) -> SimDuration {
    assert!(load.value() > 0.0, "load must be positive");
    assert!(
        on_per_day <= SimDuration::from_days(1),
        "duty cannot exceed one day per day"
    );
    let daily = daily_energy(load, on_per_day);
    if daily.value() <= 0.0 {
        // Never depletes; saturate far beyond any simulation horizon.
        return SimDuration::from_days(36_500);
    }
    let days = bank.energy_at(nominal).value() / daily.value();
    SimDuration::from_secs_f64(days * 86_400.0)
}

/// Energy consumed per day by a load that is on for `on_per_day` each day.
fn daily_energy(load: Watts, on_per_day: SimDuration) -> WattHours {
    load.over(on_per_day)
}

/// Days of backlog at which accumulated dGPS data exceeds what one
/// communications window can move (the §VI bound: ≈21 days in state 3,
/// ≈259 days in state 2).
///
/// # Panics
///
/// Panics if any rate or size is zero.
pub fn backlog_days_to_overflow(
    window: SimDuration,
    link_bytes_per_sec: f64,
    readings_per_day: u32,
    bytes_per_reading: u64,
) -> f64 {
    assert!(link_bytes_per_sec > 0.0, "link rate must be positive");
    assert!(
        readings_per_day > 0 && bytes_per_reading > 0,
        "workload must be non-zero"
    );
    let window_capacity = link_bytes_per_sec * window.as_secs() as f64;
    let daily_bytes = f64::from(readings_per_day) * bytes_per_reading as f64;
    window_capacity / daily_bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The §III worked example, to the paper's own rounding.
    #[test]
    fn paper_depletion_numbers() {
        let continuous = time_to_deplete(AmpHours(36.0), Volts(12.0), Watts(3.6));
        assert!((continuous.as_days_f64() - 5.0).abs() < 1e-9);

        // State 3: 12 readings/day. A ~5.1-minute reading session gives
        // the paper's 117 days.
        let duty = SimDuration::from_secs(12 * 308);
        let state3 = time_to_deplete_duty(AmpHours(36.0), Volts(12.0), Watts(3.6), duty);
        assert!(
            (state3.as_days_f64() - 117.0).abs() < 1.0,
            "state 3 lifetime {} days",
            state3.as_days_f64()
        );
    }

    #[test]
    fn paper_backlog_bounds() {
        // §VI: a 2-hour window, RS-232 effective ≈5.93 KB/s, 165 KB
        // readings → ≈21 days at 12/day, ≈259 days at 1/day.
        let window = SimDuration::from_hours(2);
        let rate = 5_935.0;
        let s3 = backlog_days_to_overflow(window, rate, 12, 165 * 1024);
        let s2 = backlog_days_to_overflow(window, rate, 1, 165 * 1024);
        assert!((s3 - 21.0).abs() < 1.5, "state 3 bound {s3}");
        assert!((s2 - 259.0).abs() < 15.0, "state 2 bound {s2}");
        // And the paper's internal consistency: s2 = 12 × s3.
        assert!((s2 / s3 - 12.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duty_never_depletes() {
        let t = time_to_deplete_duty(AmpHours(36.0), Volts(12.0), Watts(3.6), SimDuration::ZERO);
        assert!(t.as_days_f64() > 10_000.0);
    }

    #[test]
    fn duty_lifetime_is_monotone_in_duty() {
        let mk = |mins| {
            time_to_deplete_duty(
                AmpHours(36.0),
                Volts(12.0),
                Watts(3.6),
                SimDuration::from_mins(mins),
            )
        };
        assert!(mk(30) > mk(60));
        assert!(mk(60) > mk(120));
    }

    #[test]
    #[should_panic(expected = "load must be positive")]
    fn rejects_zero_load() {
        let _ = time_to_deplete(AmpHours(36.0), Volts(12.0), Watts::ZERO);
    }

    #[test]
    #[should_panic(expected = "one day per day")]
    fn rejects_impossible_duty() {
        let _ = time_to_deplete_duty(
            AmpHours(36.0),
            Volts(12.0),
            Watts(1.0),
            SimDuration::from_hours(25),
        );
    }
}
