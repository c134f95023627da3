//! The wake schedule held in MSP430 RAM.

use glacsweb_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::power_state::PowerState;

/// The MSP430's schedule: when to sample the battery, when to trigger
/// dGPS readings, and when to wake the Gumstix for the daily window.
///
/// Stored in volatile RAM — total power loss destroys it, which is why
/// [`recovery`](crate::recovery) rebuilds a default schedule in state 0
/// after an exhaustion event (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// The operating state this schedule implements.
    pub state: PowerState,
    /// Hour (UTC) of the daily communications window: "daily, at midday
    /// UTC" (§I).
    pub window_hour_utc: u32,
    /// Battery-voltage sampling interval: "every thirty minutes" (§III).
    pub sample_interval: SimDuration,
}

impl Schedule {
    /// The standard schedule for the given state: midday window,
    /// half-hourly sampling.
    pub fn standard(state: PowerState) -> Self {
        Schedule {
            state,
            window_hour_utc: 12,
            sample_interval: SimDuration::from_mins(30),
        }
    }

    /// The post-recovery default: state 0 (§IV: "the system will set the
    /// schedule to state 0 … and will then proceed as normal").
    pub fn recovery_default() -> Self {
        Schedule::standard(PowerState::S0)
    }

    /// Next daily window opening strictly after `now`.
    pub fn next_window(&self, now: SimTime) -> SimTime {
        now.next_time_of_day(self.window_hour_utc, 0, 0)
    }

    /// `true` if `t` lands exactly on one of this schedule's dGPS slots.
    ///
    /// Slots always fall on half-hour marks, so a driver that polls on the
    /// 30-minute sampling grid sees every slot.
    pub fn is_gps_slot(&self, t: SimTime) -> bool {
        let sod = t.seconds_of_day();
        match self.state.gps_readings_per_day() {
            0 => false,
            1 => sod == 11 * 3600 + 1800,
            n => {
                let interval = 86_400 / u64::from(n);
                sod % interval == 1800
            }
        }
    }

    /// Next scheduled dGPS reading strictly after `now`, or `None` in
    /// states without GPS.
    ///
    /// State 3 reads every two hours on odd half-hours (00:30, 02:30, …)
    /// — giving Fig 5's two-hour dip spacing without colliding with the
    /// midday window. State 2 reads once daily at 11:30, just before the
    /// window so the file is fresh for upload.
    pub fn next_gps_reading(&self, now: SimTime) -> Option<SimTime> {
        match self.state.gps_readings_per_day() {
            0 => None,
            1 => Some(now.next_time_of_day(11, 30, 0)),
            n => {
                let interval = (24 * 3600) / u64::from(n);
                let offset = 30 * 60; // first slot 00:30
                let since_midnight = now.seconds_of_day();
                let slot = if since_midnight < offset {
                    offset
                } else {
                    let k = (since_midnight - offset) / interval + 1;
                    offset + k * interval
                };
                let t = if slot < 24 * 3600 {
                    now.start_of_day() + SimDuration::from_secs(slot)
                } else {
                    now.start_of_day() + SimDuration::from_days(1) + SimDuration::from_secs(offset)
                };
                Some(t)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(h: u32, m: u32) -> SimTime {
        SimTime::from_ymd_hms(2009, 9, 22, h, m, 0)
    }

    #[test]
    fn window_is_midday_utc() {
        let s = Schedule::standard(PowerState::S3);
        assert_eq!(s.next_window(at(9, 0)), at(12, 0));
        assert_eq!(
            s.next_window(at(12, 0)),
            SimTime::from_ymd_hms(2009, 9, 23, 12, 0, 0),
            "strictly after"
        );
    }

    #[test]
    fn state3_gps_slots_are_two_hourly() {
        let s = Schedule::standard(PowerState::S3);
        assert_eq!(s.next_gps_reading(at(0, 0)), Some(at(0, 30)));
        assert_eq!(s.next_gps_reading(at(0, 30)), Some(at(2, 30)));
        assert_eq!(s.next_gps_reading(at(3, 0)), Some(at(4, 30)));
        // Twelve slots per day.
        let mut t = at(0, 0);
        let mut count = 0;
        while let Some(next) = s.next_gps_reading(t) {
            if !next.same_day(at(0, 0)) {
                break;
            }
            count += 1;
            t = next;
        }
        assert_eq!(count, 12);
    }

    #[test]
    fn state2_reads_once_before_the_window() {
        let s = Schedule::standard(PowerState::S2);
        assert_eq!(s.next_gps_reading(at(0, 0)), Some(at(11, 30)));
        let next = s.next_gps_reading(at(11, 30)).expect("daily");
        assert_eq!(next, SimTime::from_ymd_hms(2009, 9, 23, 11, 30, 0));
    }

    #[test]
    fn low_states_take_no_gps() {
        assert_eq!(
            Schedule::standard(PowerState::S1).next_gps_reading(at(0, 0)),
            None
        );
        assert_eq!(
            Schedule::standard(PowerState::S0).next_gps_reading(at(0, 0)),
            None
        );
    }

    #[test]
    fn recovery_default_is_state_zero() {
        let s = Schedule::recovery_default();
        assert_eq!(s.state, PowerState::S0);
        assert_eq!(s.window_hour_utc, 12);
    }

    #[test]
    fn is_gps_slot_agrees_with_next_gps_reading() {
        for state in [PowerState::S3, PowerState::S2, PowerState::S1] {
            let s = Schedule::standard(state);
            let day = SimTime::from_ymd_hms(2009, 9, 22, 0, 0, 0);
            let mut slot_count = 0;
            for half_hour in 0..48u64 {
                let t = day + SimDuration::from_mins(30 * half_hour);
                if s.is_gps_slot(t) {
                    slot_count += 1;
                }
            }
            assert_eq!(
                slot_count,
                state.gps_readings_per_day(),
                "{state} slots on the half-hour grid"
            );
        }
    }

    #[test]
    fn gps_slot_wraps_past_midnight() {
        let s = Schedule::standard(PowerState::S3);
        let late = SimTime::from_ymd_hms(2009, 9, 22, 22, 45, 0);
        let next = s.next_gps_reading(late).expect("state 3");
        assert_eq!(next, SimTime::from_ymd_hms(2009, 9, 23, 0, 30, 0));
    }
}
