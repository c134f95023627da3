//! The differential-GPS receiver.

use glacsweb_sim::{Bytes, SimDuration, SimRng, SimTime, Watts};
use serde::{Deserialize, Serialize};

use crate::table1;

/// One recorded dGPS observation file, sitting on the receiver's internal
/// compact-flash card until the Gumstix pulls it over RS-232.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpsFile {
    /// When the recording session started.
    pub taken_at: SimTime,
    /// File size — "approximately 165KB, although the exact size varies
    /// depending on the number of satellites available" (§III).
    pub size: Bytes,
    /// Number of satellites in view during the session.
    pub satellites: u8,
    /// The observed down-flow position, metres (the data product the
    /// glaciologists are after).
    pub observed_position_m: f64,
}

/// The dGPS receiver.
///
/// §II: "Controlling the dGPS from the microcontroller instead of the
/// Linux system is a change from previous deployments and has been
/// achieved by setting the dGPS to automatically start taking a reading
/// whenever it is turned on." So the model's API is exactly that: the
/// MSP430 powers it on, a reading happens, files accumulate internally.
///
/// # Example
///
/// ```
/// use glacsweb_hw::DGps;
/// use glacsweb_sim::{SimRng, SimTime};
///
/// let mut gps = DGps::new();
/// let mut rng = SimRng::seed_from(1);
/// let t = SimTime::from_ymd_hms(2009, 9, 22, 2, 0, 0);
/// let file = gps.take_reading(t, 12.5, &mut rng);
/// assert!(file.size.value() > 100 * 1024);
/// assert_eq!(gps.pending_files().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DGps {
    pending: Vec<GpsFile>,
    readings_taken: u64,
    /// `true` models the §VI "intermittent RS232 cable or dGPS unit"
    /// fault that can make a transfer window unwinnable.
    rs232_fault: bool,
}

impl DGps {
    /// Creates a receiver with an empty internal card.
    pub fn new() -> Self {
        DGps {
            pending: Vec::new(),
            readings_taken: 0,
            rs232_fault: false,
        }
    }

    /// Power drawn while recording.
    pub fn power(&self) -> Watts {
        table1::GPS_POWER
    }

    /// Duration of one recording session.
    pub fn session_duration(&self) -> SimDuration {
        SimDuration::from_secs(table1::DGPS_SESSION_SECS)
    }

    /// Records one observation session started at `t` observing the given
    /// true down-flow position. Satellite count (and hence file size)
    /// varies randomly.
    pub fn take_reading(&mut self, t: SimTime, true_position_m: f64, rng: &mut SimRng) -> GpsFile {
        let satellites = 5 + rng.below(8) as u8; // 5..=12
                                                 // Size scales mildly with satellite count around the nominal 165 KB.
        let size = Bytes(
            (table1::DGPS_READING_BYTES as f64 * (0.575 + 0.05 * f64::from(satellites))) as u64,
        );
        // GPS error is dominated by the common-mode component (ionosphere,
        // orbit, clock) that every receiver in the area sees identically
        // at the same instant — which is why differencing against a fixed
        // reference "dramatically improve[s] the accuracy" (§II). A small
        // independent residual (multipath, receiver noise) remains.
        let observed = true_position_m + common_mode_error_m(t) + rng.normal(0.0, 0.08);
        let file = GpsFile {
            taken_at: t,
            size,
            satellites,
            observed_position_m: observed,
        };
        self.pending.push(file.clone());
        self.readings_taken += 1;
        file
    }

    /// Files waiting on the internal card.
    pub fn pending_files(&self) -> &[GpsFile] {
        &self.pending
    }

    /// Total size of everything waiting.
    pub fn pending_bytes(&self) -> Bytes {
        self.pending.iter().map(|f| f.size).sum()
    }

    /// Lifetime reading count.
    pub fn readings_taken(&self) -> u64 {
        self.readings_taken
    }

    /// Injects or clears the RS-232 fault.
    pub fn set_rs232_fault(&mut self, fault: bool) {
        self.rs232_fault = fault;
    }

    /// Transfers files to the Gumstix over RS-232, oldest first, within a
    /// time budget. Appends the transferred files to `moved` and returns
    /// the time actually spent.
    ///
    /// Transfers are **file-at-a-time**: a file that does not fit in the
    /// remaining budget is left for tomorrow (the §VI backlog-clearing
    /// behaviour), and a single file larger than the *whole* window can
    /// never be moved — the §VI "no progress could ever be made" hazard,
    /// which callers detect via [`DGps::stuck_file`].
    pub fn transfer_files(&mut self, budget: SimDuration, moved: &mut Vec<GpsFile>) -> SimDuration {
        if self.rs232_fault {
            return SimDuration::ZERO;
        }
        let mut spent = SimDuration::ZERO;
        let mut count = 0;
        for file in &self.pending {
            let need =
                SimDuration::from_secs_f64(file.size.value() as f64 / table1::RS232_BYTES_PER_SEC);
            if spent + need > budget {
                break;
            }
            spent += need;
            count += 1;
        }
        moved.extend(self.pending.drain(..count));
        spent
    }

    /// `true` if the oldest pending file alone exceeds `window` — no
    /// amount of daily retries will ever move it (§VI).
    pub fn stuck_file(&self, window: SimDuration) -> bool {
        self.pending.first().is_some_and(|f| {
            SimDuration::from_secs_f64(f.size.value() as f64 / table1::RS232_BYTES_PER_SEC) > window
        })
    }
}

impl Default for DGps {
    fn default() -> Self {
        DGps::new()
    }
}

/// The atmospheric/orbital GPS error (metres) every receiver in the area
/// sees at instant `t` — a deterministic, slowly varying pseudo-noise
/// keyed on the half-hour slot so that two stations recording
/// simultaneously observe the *same* error and differencing cancels it.
pub fn common_mode_error_m(t: SimTime) -> f64 {
    // SplitMix64 of the half-hour slot index → approximately normal via a
    // sum of four uniforms, scaled to ~2.5 m standard deviation.
    let slot = t.unix() / 1800;
    let mut x = slot;
    let mut sum = 0.0;
    for _ in 0..4 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        sum += (z >> 11) as f64 / (1u64 << 53) as f64;
    }
    // Sum of 4 U(0,1): mean 2, sd sqrt(4/12)=0.577 → scale to sd 2.5.
    (sum - 2.0) * (2.5 / 0.577)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> SimTime {
        SimTime::from_ymd_hms(2009, 9, 22, 0, 0, 0)
    }

    #[test]
    fn reading_sizes_vary_around_165kb() {
        let mut gps = DGps::new();
        let mut rng = SimRng::seed_from(42);
        let sizes: Vec<u64> = (0..200)
            .map(|_| gps.take_reading(t0(), 0.0, &mut rng).size.value())
            .collect();
        let min = *sizes.iter().min().expect("non-empty");
        let max = *sizes.iter().max().expect("non-empty");
        let mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
        assert!(min != max, "sizes vary with satellites");
        let nominal = table1::DGPS_READING_BYTES as f64;
        assert!(
            (mean / nominal - 1.0).abs() < 0.15,
            "mean {mean} vs nominal {nominal}"
        );
        assert_eq!(gps.readings_taken(), 200);
    }

    #[test]
    fn transfer_moves_oldest_first_within_budget() {
        let mut gps = DGps::new();
        let mut rng = SimRng::seed_from(1);
        for i in 0..10u64 {
            gps.take_reading(t0() + SimDuration::from_hours(2 * i), 0.0, &mut rng);
        }
        // Budget for roughly three files: 3 × 165 KiB / 5 935 B/s ≈ 85 s.
        let mut moved = Vec::new();
        let spent = gps.transfer_files(SimDuration::from_secs(90), &mut moved);
        assert!(
            !moved.is_empty() && moved.len() < 10,
            "moved {}",
            moved.len()
        );
        assert!(spent <= SimDuration::from_secs(90));
        assert_eq!(moved[0].taken_at, t0(), "oldest first");
        assert_eq!(gps.pending_files().len(), 10 - moved.len());
    }

    #[test]
    fn twenty_one_days_of_state3_overflow_a_two_hour_window() {
        // §VI reproduced through the model: 22 days of 12 readings/day
        // cannot be drained in one 2-hour window…
        let mut gps = DGps::new();
        let mut rng = SimRng::seed_from(2);
        for d in 0..22u64 {
            for r in 0..12u64 {
                gps.take_reading(
                    t0() + SimDuration::from_days(d) + SimDuration::from_hours(2 * r),
                    0.0,
                    &mut rng,
                );
            }
        }
        let window = SimDuration::from_secs(table1::WATCHDOG_LIMIT_SECS);
        let mut moved = Vec::new();
        gps.transfer_files(window, &mut moved);
        assert!(
            !gps.pending_files().is_empty(),
            "22-day backlog exceeds one window (moved {})",
            moved.len()
        );
        // …but repeated daily windows clear it file-by-file.
        let mut windows = 1;
        while !gps.pending_files().is_empty() {
            gps.transfer_files(window, &mut moved);
            windows += 1;
            assert!(windows < 10, "backlog should clear within days");
        }
        assert!(windows >= 2);
    }

    #[test]
    fn rs232_fault_blocks_transfers() {
        let mut gps = DGps::new();
        let mut rng = SimRng::seed_from(3);
        gps.take_reading(t0(), 0.0, &mut rng);
        gps.set_rs232_fault(true);
        let mut moved = Vec::new();
        let spent = gps.transfer_files(SimDuration::from_hours(2), &mut moved);
        assert!(moved.is_empty());
        assert_eq!(spent, SimDuration::ZERO);
        gps.set_rs232_fault(false);
        gps.transfer_files(SimDuration::from_hours(2), &mut moved);
        assert_eq!(moved.len(), 1);
    }

    #[test]
    fn stuck_file_detection() {
        let mut gps = DGps::new();
        // Hand-craft a pathological file bigger than a whole window
        // (the §VI "single file exceeds the window" hazard).
        gps.pending.push(GpsFile {
            taken_at: t0(),
            size: Bytes::from_mib(100),
            satellites: 9,
            observed_position_m: 0.0,
        });
        let window = SimDuration::from_secs(table1::WATCHDOG_LIMIT_SECS);
        assert!(gps.stuck_file(window));
        let mut moved = Vec::new();
        gps.transfer_files(window, &mut moved);
        assert!(moved.is_empty(), "stuck file never moves");
        // A normal file is not stuck.
        let mut ok = DGps::new();
        let mut rng = SimRng::seed_from(4);
        ok.take_reading(t0(), 0.0, &mut rng);
        assert!(!ok.stuck_file(window));
    }

    #[test]
    fn observed_position_tracks_truth_across_slots() {
        // Averaged over many *different* slots, the common-mode error
        // integrates out and the raw observations track the truth.
        let mut gps = DGps::new();
        let mut rng = SimRng::seed_from(5);
        let n = 500u32;
        let truth = 42.0;
        let mean: f64 = (0..n)
            .map(|i| {
                let t = t0() + SimDuration::from_mins(30 * u64::from(i));
                gps.take_reading(t, truth, &mut rng).observed_position_m
            })
            .sum::<f64>()
            / f64::from(n);
        assert!((mean - truth).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn common_mode_error_is_shared_and_cancels() {
        // Two receivers at the same instant see the same error…
        let t = t0() + SimDuration::from_hours(3);
        assert_eq!(common_mode_error_m(t), common_mode_error_m(t));
        // …and differencing two simultaneous readings removes it.
        let mut base = DGps::new();
        let mut reference = DGps::new();
        let mut rng_b = SimRng::seed_from(6);
        let mut rng_r = SimRng::seed_from(7);
        let mut worst: f64 = 0.0;
        for i in 0..200u64 {
            let t = t0() + SimDuration::from_mins(30 * i);
            let b = base.take_reading(t, 10.0, &mut rng_b).observed_position_m;
            let r = reference
                .take_reading(t, 0.0, &mut rng_r)
                .observed_position_m;
            worst = worst.max(((b - r) - 10.0).abs());
        }
        assert!(worst < 0.5, "differential residual {worst} m");
        // While the raw error is metre-scale.
        let spread: f64 = (0..200u64)
            .map(|i| common_mode_error_m(t0() + SimDuration::from_mins(30 * i)).abs())
            .fold(0.0, f64::max);
        assert!(
            spread > 1.0,
            "raw common-mode error is metre-scale: {spread}"
        );
    }
}
