//! The two-hour runtime watchdog.
//!
//! §VI: "This safety mechanism prevents the system from running for more
//! than two hours at a time. This is to make sure that if something
//! crashes in the system — for example a SCP transfer hangs — the system
//! does not remain running until its batteries are depleted."

use glacsweb_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A hard limit on one power-on window.
///
/// # Example
///
/// ```
/// use glacsweb_hw::Watchdog;
/// use glacsweb_sim::{SimDuration, SimTime};
///
/// let start = SimTime::from_ymd_hms(2009, 9, 22, 12, 0, 0);
/// let wd = Watchdog::start(start, SimDuration::from_hours(2));
/// assert!(!wd.expired(start + SimDuration::from_mins(90)));
/// assert!(wd.expired(start + SimDuration::from_hours(3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Watchdog {
    started: SimTime,
    limit: SimDuration,
}

impl Watchdog {
    /// Arms a watchdog at `started` with the given limit.
    ///
    /// # Panics
    ///
    /// Panics if the limit is zero.
    pub fn start(started: SimTime, limit: SimDuration) -> Self {
        assert!(limit.as_secs() > 0, "watchdog limit must be non-zero");
        Watchdog { started, limit }
    }

    /// When the watchdog was armed.
    pub fn started(&self) -> SimTime {
        self.started
    }

    /// The configured limit.
    pub fn limit(&self) -> SimDuration {
        self.limit
    }

    /// The instant the watchdog will cut power.
    pub fn deadline(&self) -> SimTime {
        self.started + self.limit
    }

    /// `true` once `now` has reached the deadline.
    pub fn expired(&self, now: SimTime) -> bool {
        now >= self.deadline()
    }

    /// Time left before the cut, saturating at zero.
    pub fn remaining(&self, now: SimTime) -> SimDuration {
        self.deadline().saturating_since(now)
    }

    /// Caps a proposed work duration to what fits before the deadline.
    pub fn cap(&self, now: SimTime, want: SimDuration) -> SimDuration {
        want.min(self.remaining(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noon() -> SimTime {
        SimTime::from_ymd_hms(2009, 9, 22, 12, 0, 0)
    }

    /// The paper's standard watchdog, armed at noon.
    fn standard() -> Watchdog {
        Watchdog::start(
            noon(),
            SimDuration::from_secs(crate::table1::WATCHDOG_LIMIT_SECS),
        )
    }

    #[test]
    fn standard_watchdog_is_two_hours() {
        let wd = standard();
        assert_eq!(wd.limit(), SimDuration::from_hours(2));
        assert_eq!(wd.deadline(), noon() + SimDuration::from_hours(2));
    }

    #[test]
    fn remaining_counts_down_and_saturates() {
        let wd = standard();
        assert_eq!(wd.remaining(noon()), SimDuration::from_hours(2));
        assert_eq!(
            wd.remaining(noon() + SimDuration::from_mins(30)),
            SimDuration::from_mins(90)
        );
        assert_eq!(
            wd.remaining(noon() + SimDuration::from_hours(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn cap_limits_work_to_the_window() {
        let wd = standard();
        let near_end = noon() + SimDuration::from_mins(110);
        assert_eq!(
            wd.cap(near_end, SimDuration::from_hours(1)),
            SimDuration::from_mins(10)
        );
        assert_eq!(
            wd.cap(noon(), SimDuration::from_mins(5)),
            SimDuration::from_mins(5)
        );
    }

    #[test]
    fn expiry_is_inclusive_at_deadline() {
        let wd = Watchdog::start(noon(), SimDuration::from_mins(10));
        assert!(!wd.expired(noon() + SimDuration::from_secs(599)));
        assert!(wd.expired(noon() + SimDuration::from_mins(10)));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_limit_rejected() {
        let _ = Watchdog::start(noon(), SimDuration::ZERO);
    }
}
