//! Simulated wall-clock time with a civil (Gregorian) calendar.
//!
//! The Glacsweb controllers schedule work in *civil* terms — the daily
//! communications window opens at midday UTC, the solar model needs the day
//! of year, and the café mains supply follows the tourist season — so the
//! simulated clock carries a full calendar rather than a bare tick count.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Seconds in one minute.
const MIN: u64 = 60;
/// Seconds in one hour.
const HOUR: u64 = 3_600;
/// Seconds in one day.
const DAY: u64 = 86_400;

/// An instant of simulated time, stored as whole seconds since the Unix
/// epoch (1970-01-01 00:00:00 UTC).
///
/// The epoch anchor is deliberate: the paper's recovery logic detects a
/// power-failure clock reset because the MSP430's real-time clock restarts
/// at *01/01/1970 00:00* ([`SimTime::EPOCH`]).
///
/// # Example
///
/// ```
/// use glacsweb_sim::{SimDuration, SimTime};
///
/// let t = SimTime::from_ymd_hms(2009, 9, 22, 12, 0, 0);
/// assert_eq!(t.date().to_string(), "2009-09-22");
/// assert_eq!(t.time_of_day(), (12, 0, 0));
/// assert_eq!((t + SimDuration::from_days(3)).date().day, 25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SimTime(u64);

impl SimTime {
    /// The Unix epoch — the value the MSP430 RTC resets to after total
    /// power loss.
    pub const EPOCH: SimTime = SimTime(0);

    /// Creates a time from raw seconds since the Unix epoch.
    pub const fn from_unix(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Creates a time from a civil date and a time of day (all UTC).
    ///
    /// # Panics
    ///
    /// Panics if the date is before 1970, the month is not in `1..=12`, the
    /// day is not valid for the month, or the time of day is out of range.
    pub fn from_ymd_hms(year: i32, month: u32, day: u32, hour: u32, min: u32, sec: u32) -> Self {
        assert!((1..=12).contains(&month), "month {month} out of range");
        assert!(
            day >= 1 && day <= days_in_month(year, month),
            "day {day} invalid for {year}-{month:02}"
        );
        assert!(hour < 24 && min < 60 && sec < 60, "invalid time of day");
        let days = days_from_civil(year, month, day);
        assert!(days >= 0, "dates before 1970 are not representable");
        SimTime(days as u64 * DAY + u64::from(hour) * HOUR + u64::from(min) * MIN + u64::from(sec))
    }

    /// Seconds since the Unix epoch.
    pub const fn unix(self) -> u64 {
        self.0
    }

    /// The civil (Gregorian) date of this instant.
    pub fn date(self) -> CivilDate {
        civil_from_days((self.0 / DAY) as i64)
    }

    /// The `(hour, minute, second)` of the day, UTC.
    pub const fn time_of_day(self) -> (u32, u32, u32) {
        let s = self.0 % DAY;
        (
            (s / HOUR) as u32,
            ((s % HOUR) / MIN) as u32,
            (s % MIN) as u32,
        )
    }

    /// Seconds elapsed since the most recent midnight UTC.
    pub const fn seconds_of_day(self) -> u64 {
        self.0 % DAY
    }

    /// The hour of day as a fraction, e.g. `12.5` for 12:30 UTC.
    ///
    /// Used by the solar-elevation and interference models.
    pub fn hour_of_day_f64(self) -> f64 {
        self.seconds_of_day() as f64 / HOUR as f64
    }

    /// Day of year in `1..=366`.
    pub fn day_of_year(self) -> u32 {
        let d = self.date();
        let jan1 = days_from_civil(d.year, 1, 1);
        ((self.0 / DAY) as i64 - jan1) as u32 + 1
    }

    /// Midnight UTC at the start of this instant's day.
    pub const fn start_of_day(self) -> SimTime {
        SimTime(self.0 - self.0 % DAY)
    }

    /// The next occurrence of the given time of day, strictly after `self`.
    ///
    /// This is how the MSP430 schedule computes the next midday UTC wake-up.
    ///
    /// ```
    /// use glacsweb_sim::SimTime;
    /// let t = SimTime::from_ymd_hms(2009, 1, 5, 13, 0, 0);
    /// let next = t.next_time_of_day(12, 0, 0);
    /// assert_eq!(next, SimTime::from_ymd_hms(2009, 1, 6, 12, 0, 0));
    /// ```
    pub fn next_time_of_day(self, hour: u32, min: u32, sec: u32) -> SimTime {
        assert!(hour < 24 && min < 60 && sec < 60, "invalid time of day");
        let target = u64::from(hour) * HOUR + u64::from(min) * MIN + u64::from(sec);
        let today = self.start_of_day().0 + target;
        if today > self.0 {
            SimTime(today)
        } else {
            SimTime(today + DAY)
        }
    }

    /// The duration elapsed since `earlier`.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is in the future; the
    /// station recovery logic relies on comparing possibly-reset clocks, so
    /// this is deliberately saturating rather than panicking.
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// `true` if both instants fall on the same civil day (UTC).
    pub const fn same_day(self, other: SimTime) -> bool {
        self.0 / DAY == other.0 / DAY
    }
}

// `Display` writes the digits into a stack buffer and hands the
// formatter one string: telemetry exports print a timestamp on every row,
// and the padded `write!` costs several formatter calls per timestamp.
// Years beyond four digits take the padded `write!` route, whose output
// the buffer reproduces byte for byte for every other year
// (`display_matches_padded_format`).
impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (h, m, s) = self.time_of_day();
        let date = self.date();
        let mut text = *b"0000-00-00 00:00:00";
        if !date.put_digits(&mut text) {
            return write!(f, "{date} {h:02}:{m:02}:{s:02}");
        }
        put_two_digits(&mut text[11..13], h);
        put_two_digits(&mut text[14..16], m);
        put_two_digits(&mut text[17..19], s);
        f.write_str(std::str::from_utf8(&text).map_err(|_| fmt::Error)?)
    }
}

/// Writes `v` (below 100) as two ASCII digits into `slot`.
fn put_two_digits(slot: &mut [u8], v: u32) {
    for (b, d) in slot.iter_mut().zip([v / 10 % 10, v % 10]) {
        *b = b'0' + d as u8;
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// A span of simulated time in whole seconds.
///
/// ```
/// use glacsweb_sim::SimDuration;
/// let window = SimDuration::from_hours(2);
/// assert_eq!(window.as_secs(), 7200);
/// assert_eq!(window * 3, SimDuration::from_hours(6));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * MIN)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * HOUR)
    }

    /// Creates a duration from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * DAY)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// whole second.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration {secs}");
        SimDuration(secs.round() as u64)
    }

    /// Length in whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Length in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / HOUR as f64
    }

    /// Length in fractional days.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / DAY as f64
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.0 / DAY;
        let h = (self.0 % DAY) / HOUR;
        let m = (self.0 % HOUR) / MIN;
        let s = self.0 % MIN;
        if d > 0 {
            write!(f, "{d}d{h:02}h{m:02}m{s:02}s")
        } else if h > 0 {
            write!(f, "{h}h{m:02}m{s:02}s")
        } else if m > 0 {
            write!(f, "{m}m{s:02}s")
        } else {
            write!(f, "{s}s")
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

/// A Gregorian calendar date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CivilDate {
    /// Four-digit year, e.g. `2009`.
    pub year: i32,
    /// Month in `1..=12`.
    pub month: u32,
    /// Day of month in `1..=31`.
    pub day: u32,
}

impl CivilDate {
    /// Writes the date's digits into the front of `text`, which holds
    /// `YYYY-MM-DD` with its separators in place; `false` (and nothing
    /// written) for a year outside `0..=9999`.
    fn put_digits(&self, text: &mut [u8]) -> bool {
        let Ok(year) = u32::try_from(self.year) else {
            return false;
        };
        if year > 9_999 || text.len() < 10 {
            return false;
        }
        put_two_digits(&mut text[0..2], year / 100);
        put_two_digits(&mut text[2..4], year % 100);
        put_two_digits(&mut text[5..7], self.month);
        put_two_digits(&mut text[8..10], self.day);
        true
    }
}

impl fmt::Display for CivilDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = *b"0000-00-00";
        if !self.put_digits(&mut text) {
            return write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day);
        }
        f.write_str(std::str::from_utf8(&text).map_err(|_| fmt::Error)?)
    }
}

/// `true` for Gregorian leap years.
fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Days in the given month of the given year.
fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => unreachable!("month validated by caller"),
    }
}

/// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = i64::from((m + 9) % 12); // [0, 11]
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date from days since 1970-01-01 (inverse of [`days_from_civil`]).
fn civil_from_days(z: i64) -> CivilDate {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    CivilDate {
        year: (y + i64::from(m <= 2)) as i32,
        month: m,
        day: d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn epoch_is_jan_1970() {
        let d = SimTime::EPOCH.date();
        assert_eq!((d.year, d.month, d.day), (1970, 1, 1));
        assert_eq!(SimTime::EPOCH.time_of_day(), (0, 0, 0));
    }

    #[test]
    fn round_trips_known_dates() {
        let cases = [
            (2009, 9, 22, 12, 0, 0),
            (2008, 2, 29, 23, 59, 59), // leap day
            (2000, 2, 29, 0, 0, 0),    // 400-year leap
            (1970, 1, 1, 0, 0, 1),
            (2026, 7, 5, 6, 30, 15),
            (2038, 1, 19, 3, 14, 7),
        ];
        for (y, mo, d, h, mi, s) in cases {
            let t = SimTime::from_ymd_hms(y, mo, d, h, mi, s);
            let date = t.date();
            assert_eq!((date.year, date.month, date.day), (y, mo, d), "{t}");
            assert_eq!(t.time_of_day(), (h, mi, s));
        }
    }

    #[test]
    fn day_of_year_boundaries() {
        assert_eq!(SimTime::from_ymd_hms(2009, 1, 1, 0, 0, 0).day_of_year(), 1);
        assert_eq!(
            SimTime::from_ymd_hms(2009, 12, 31, 12, 0, 0).day_of_year(),
            365
        );
        assert_eq!(
            SimTime::from_ymd_hms(2008, 12, 31, 0, 0, 0).day_of_year(),
            366
        );
        // 2009-09-22 is day 265 of a non-leap year.
        assert_eq!(
            SimTime::from_ymd_hms(2009, 9, 22, 0, 0, 0).day_of_year(),
            265
        );
    }

    #[test]
    fn next_time_of_day_wraps_to_tomorrow() {
        let noon = SimTime::from_ymd_hms(2009, 6, 1, 12, 0, 0);
        // Exactly at the target: must be *strictly after*, so tomorrow.
        assert_eq!(
            noon.next_time_of_day(12, 0, 0),
            SimTime::from_ymd_hms(2009, 6, 2, 12, 0, 0)
        );
        assert_eq!(
            noon.next_time_of_day(12, 30, 0),
            SimTime::from_ymd_hms(2009, 6, 1, 12, 30, 0)
        );
    }

    #[test]
    fn saturating_since_handles_clock_reset() {
        let last_run = SimTime::from_ymd_hms(2009, 3, 1, 12, 0, 0);
        let reset_clock = SimTime::EPOCH + SimDuration::from_hours(1);
        // A reset clock reads *before* the last run: elapsed saturates to 0.
        assert_eq!(reset_clock.saturating_since(last_run), SimDuration::ZERO);
        assert!(reset_clock < last_run, "reset detection predicate");
    }

    #[test]
    fn duration_display_is_humanized() {
        assert_eq!(SimDuration::from_secs(42).to_string(), "42s");
        assert_eq!(SimDuration::from_mins(5).to_string(), "5m00s");
        assert_eq!(SimDuration::from_hours(2).to_string(), "2h00m00s");
        assert_eq!(
            (SimDuration::from_days(1) + SimDuration::from_hours(3)).to_string(),
            "1d03h00m00s"
        );
    }

    #[test]
    fn time_display_format() {
        let t = SimTime::from_ymd_hms(2009, 9, 22, 6, 5, 4);
        assert_eq!(t.to_string(), "2009-09-22 06:05:04");
    }

    #[test]
    fn same_day_and_start_of_day() {
        let a = SimTime::from_ymd_hms(2009, 9, 22, 0, 0, 0);
        let b = SimTime::from_ymd_hms(2009, 9, 22, 23, 59, 59);
        let c = SimTime::from_ymd_hms(2009, 9, 23, 0, 0, 0);
        assert!(a.same_day(b));
        assert!(!b.same_day(c));
        assert_eq!(b.start_of_day(), a);
    }

    #[test]
    #[should_panic(expected = "day 31 invalid")]
    fn rejects_invalid_day() {
        let _ = SimTime::from_ymd_hms(2009, 4, 31, 0, 0, 0);
    }

    #[test]
    #[should_panic(expected = "month 13 out of range")]
    fn rejects_invalid_month() {
        let _ = SimTime::from_ymd_hms(2009, 13, 1, 0, 0, 0);
    }

    proptest! {
        /// `Display` prints the padded `{:04}-{:02}-{:02} {:02}:{:02}:{:02}`
        /// form, including past year 9999 where it falls back to it.
        #[test]
        fn display_matches_padded_format(secs in 0u64..400_000_000_000u64) {
            let t = SimTime::from_unix(secs);
            let d = t.date();
            let (h, m, s) = t.time_of_day();
            let date = format!("{:04}-{:02}-{:02}", d.year, d.month, d.day);
            prop_assert_eq!(d.to_string(), date.clone());
            prop_assert_eq!(t.to_string(), format!("{date} {h:02}:{m:02}:{s:02}"));
        }

        /// Calendar conversion round-trips for every representable second in
        /// a ~140-year window.
        #[test]
        fn civil_round_trip(secs in 0u64..4_500_000_000u64) {
            let t = SimTime::from_unix(secs);
            let d = t.date();
            let (h, m, s) = t.time_of_day();
            let back = SimTime::from_ymd_hms(d.year, d.month, d.day, h, m, s);
            prop_assert_eq!(back, t);
        }

        /// Day-of-year is always in range and increments across midnight.
        #[test]
        fn day_of_year_in_range(secs in 0u64..4_500_000_000u64) {
            let t = SimTime::from_unix(secs);
            let doy = t.day_of_year();
            prop_assert!((1..=366).contains(&doy));
        }

        /// `next_time_of_day` is strictly in the future and within 24 h.
        #[test]
        fn next_time_of_day_props(secs in 0u64..4_500_000_000u64,
                                  h in 0u32..24, m in 0u32..60) {
            let t = SimTime::from_unix(secs);
            let next = t.next_time_of_day(h, m, 0);
            prop_assert!(next > t);
            prop_assert!(next - t <= SimDuration::from_days(1));
            prop_assert_eq!(next.time_of_day(), (h, m, 0));
        }

        /// Duration arithmetic is consistent with the underlying seconds.
        #[test]
        fn duration_arithmetic(a in 0u64..10_000_000, b in 0u64..10_000_000) {
            let da = SimDuration::from_secs(a);
            let db = SimDuration::from_secs(b);
            prop_assert_eq!((da + db).as_secs(), a + b);
            prop_assert_eq!((da - db).as_secs(), a.saturating_sub(b));
            prop_assert_eq!(da.min(db).as_secs(), a.min(b));
        }
    }
}
