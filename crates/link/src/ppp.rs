//! PPP over the long-range radio modem — the abandoned inter-station
//! architecture, kept as the comparison baseline (experiment E9).

use glacsweb_sim::{BitsPerSecond, Bytes, SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Why a PPP session ended — §II: "the ability to differentiate between
/// reasons for disconnects becomes vital", because the reference station's
/// response differs (stay up for a retry vs. power the radio straight off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DisconnectReason {
    /// The transfer finished and the session closed cleanly.
    Completed,
    /// Interference or a temporary failure cut the session.
    Interference,
}

/// The 500 mW 466 MHz point-to-point link with PPP on top.
///
/// "When testing the long range modems … it was found to be very
/// unreliable with frequent drop outs and a very low data rate. It was
/// also observed that the reliability was affected by the time of day
/// which implies that the problems were caused by local interference."
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PppRadioLink {
    rate: BitsPerSecond,
    /// Base drop hazard, events per hour, at the quietest time of day.
    base_drop_rate_per_hour: f64,
    /// Extra daytime hazard multiplier at the interference peak.
    interference_peak: f64,
    sessions: u64,
    interference_drops: u64,
}

impl PppRadioLink {
    /// The link as measured in the lab: 2 000 bps, very drop-prone with a
    /// strong daytime interference peak.
    pub fn lab() -> Self {
        PppRadioLink {
            rate: BitsPerSecond(2_000),
            base_drop_rate_per_hour: 1.0,
            interference_peak: 5.0,
            sessions: 0,
            interference_drops: 0,
        }
    }

    /// The link as initially observed on the glacier — quieter RF
    /// environment ("initial testing on the glacier suggested that the
    /// modems would be more reliable there than in the lab").
    pub fn glacier() -> Self {
        PppRadioLink {
            rate: BitsPerSecond(2_000),
            base_drop_rate_per_hour: 0.4,
            interference_peak: 2.0,
            sessions: 0,
            interference_drops: 0,
        }
    }

    /// Link throughput.
    pub fn rate(&self) -> BitsPerSecond {
        self.rate
    }

    /// Drop hazard (events/hour) at time `t` — peaks mid-afternoon when
    /// local activity is highest.
    fn drop_rate_per_hour(&self, t: SimTime) -> f64 {
        let hod = t.hour_of_day_f64();
        // 1.0 at the 04:00 trough rising to `interference_peak` at 16:00.
        let day_factor = 1.0
            + (self.interference_peak - 1.0)
                * (0.5 + 0.5 * (std::f64::consts::TAU * (hod - 16.0) / 24.0).cos());
        self.base_drop_rate_per_hour * day_factor
    }

    /// (sessions attempted, sessions cut by interference) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.sessions, self.interference_drops)
    }

    /// Attempts to move `size` bytes starting at `t` within `budget`.
    ///
    /// Returns bytes sent, elapsed time, and why the session ended.
    pub fn transfer(
        &mut self,
        size: Bytes,
        t: SimTime,
        budget: SimDuration,
        rng: &mut SimRng,
    ) -> (Bytes, SimDuration, DisconnectReason) {
        self.sessions += 1;
        let need = self.rate.transfer_time(size);
        let hazard = self.drop_rate_per_hour(t).max(1e-9);
        let ttf = SimDuration::from_secs_f64(rng.exponential(hazard / 3600.0));
        let allowed = need.min(budget).min(ttf);
        let sent = self.rate.capacity(allowed).min(size);
        if ttf < need.min(budget) {
            self.interference_drops += 1;
            (sent, allowed, DisconnectReason::Interference)
        } else {
            (sent, allowed, DisconnectReason::Completed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daytime_is_worse_than_night() {
        let link = PppRadioLink::lab();
        let afternoon = link.drop_rate_per_hour(SimTime::from_ymd_hms(2008, 5, 1, 16, 0, 0));
        let night = link.drop_rate_per_hour(SimTime::from_ymd_hms(2008, 5, 1, 4, 0, 0));
        assert!(
            afternoon > 3.0 * night,
            "afternoon {afternoon} vs night {night}"
        );
    }

    #[test]
    fn glacier_is_quieter_than_the_lab() {
        let lab = PppRadioLink::lab();
        let glacier = PppRadioLink::glacier();
        let t = SimTime::from_ymd_hms(2008, 5, 1, 14, 0, 0);
        assert!(glacier.drop_rate_per_hour(t) < lab.drop_rate_per_hour(t));
    }

    #[test]
    fn small_transfers_usually_complete_big_ones_usually_drop() {
        let mut link = PppRadioLink::lab();
        let mut rng = SimRng::seed_from(60);
        let t = SimTime::from_ymd_hms(2008, 5, 1, 14, 0, 0);
        let mut small_ok = 0;
        let mut big_ok = 0;
        for _ in 0..200 {
            // 10 KiB at 250 B/s = 41 s: usually survives.
            let (_, _, r) =
                link.transfer(Bytes::from_kib(10), t, SimDuration::from_hours(2), &mut rng);
            if r == DisconnectReason::Completed {
                small_ok += 1;
            }
            // 2 MiB at 250 B/s ≈ 2.3 h: nearly always cut.
            let (_, _, r) =
                link.transfer(Bytes::from_mib(2), t, SimDuration::from_hours(4), &mut rng);
            if r == DisconnectReason::Completed {
                big_ok += 1;
            }
        }
        assert!(
            small_ok > 150,
            "small transfers mostly complete: {small_ok}/200"
        );
        assert!(big_ok < 20, "large transfers mostly drop: {big_ok}/200");
        let (sessions, drops) = link.stats();
        assert_eq!(sessions, 400);
        assert!(drops > 150);
    }

    #[test]
    fn partial_bytes_are_reported_on_drop() {
        let mut link = PppRadioLink::lab();
        let mut rng = SimRng::seed_from(61);
        let t = SimTime::from_ymd_hms(2008, 5, 1, 16, 0, 0);
        for _ in 0..50 {
            let (sent, elapsed, reason) =
                link.transfer(Bytes::from_mib(1), t, SimDuration::from_hours(2), &mut rng);
            if reason == DisconnectReason::Interference {
                assert!(sent < Bytes::from_mib(1));
                assert!(elapsed < SimDuration::from_hours(2));
                return;
            }
        }
        panic!("expected at least one interference drop in 50 big transfers");
    }
}
