//! The MSP430 supervisor: the always-on, ultra-low-power half of Gumsense.

use glacsweb_sim::{SimTime, Volts, Watts};
use serde::{de, Deserialize, Serialize, Value};

use crate::table1;

/// The MSP430 microcontroller.
///
/// It owns the things that must survive while everything else is switched
/// off: the real-time clock, the wake schedule (in **volatile RAM** — §IV),
/// the half-hourly battery-voltage log, and the peripheral power switches.
/// Total battery exhaustion resets the RTC to the Unix epoch and destroys
/// the RAM schedule; the paper's recovery procedure (reproduced in
/// `glacsweb-station::recovery`) exists exactly because of this type's
/// [`Msp430::power_loss`] behaviour.
///
/// The type is generic over the schedule representation `S` so the
/// hardware model does not depend on the controller crate.
///
/// # Example
///
/// ```
/// use glacsweb_hw::Msp430;
/// use glacsweb_sim::{SimTime, Volts};
///
/// let boot = SimTime::from_ymd_hms(2008, 8, 1, 12, 0, 0);
/// let mut msp: Msp430<&str> = Msp430::new(boot);
/// msp.write_schedule("wake at midday");
/// msp.record_voltage(boot, Volts(12.8));
///
/// // Total battery exhaustion: RAM and RTC are lost.
/// msp.power_loss();
/// assert_eq!(msp.rtc(), SimTime::EPOCH);
/// assert!(msp.schedule().is_none());
/// assert!(msp.voltage_log().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Msp430<S> {
    /// RTC reading = wall time + offset; a power loss replaces the offset
    /// so the RTC restarts from the epoch.
    rtc_base: SimTime,
    rtc_set_at: SimTime,
    schedule: Option<S>,
    voltage_log: Vec<(SimTime, Volts)>,
    power_losses: u64,
}

// Hand-written (de)serialization: the type is generic over the schedule
// representation, which the vendored derive does not support. Restore
// re-imposes the voltage-log capacity bound so an oversized log in a
// crafted snapshot cannot grow the model past its hardware limit.
impl<S: Serialize> Serialize for Msp430<S> {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            (Value::Str("rtc_base".to_string()), self.rtc_base.to_value()),
            (
                Value::Str("rtc_set_at".to_string()),
                self.rtc_set_at.to_value(),
            ),
            (Value::Str("schedule".to_string()), self.schedule.to_value()),
            (
                Value::Str("voltage_log".to_string()),
                self.voltage_log.to_value(),
            ),
            (
                Value::Str("power_losses".to_string()),
                self.power_losses.to_value(),
            ),
        ])
    }
}

impl<S: Deserialize> Deserialize for Msp430<S> {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        let voltage_log: Vec<(SimTime, Volts)> = de::field(v, "voltage_log")?;
        if voltage_log.len() > Self::VOLTAGE_LOG_CAP {
            return Err(de::Error::custom(format!(
                "msp430 voltage log holds {} samples, capacity is {}",
                voltage_log.len(),
                Self::VOLTAGE_LOG_CAP
            )));
        }
        Ok(Msp430 {
            rtc_base: de::field(v, "rtc_base")?,
            rtc_set_at: de::field(v, "rtc_set_at")?,
            schedule: de::field(v, "schedule")?,
            voltage_log,
            power_losses: de::field(v, "power_losses")?,
        })
    }
}

impl<S> Msp430<S> {
    /// Capacity of the half-hourly voltage log (a little over a month —
    /// generous; the Gumstix drains it daily in normal operation).
    const VOLTAGE_LOG_CAP: usize = 50 * 48;

    /// Creates a supervisor whose RTC has just been set to `now`.
    pub fn new(now: SimTime) -> Self {
        Msp430 {
            rtc_base: now,
            rtc_set_at: now,
            schedule: None,
            voltage_log: Vec::new(),
            power_losses: 0,
        }
    }

    /// Sleep-mode draw (the Gumsense design's raison d'être).
    pub fn power(&self) -> Watts {
        table1::MSP430_POWER
    }

    /// The RTC reading when the true simulated time is `wall`.
    ///
    /// After a power loss the RTC restarts from the epoch, so its reading
    /// is `EPOCH + (wall - moment_of_restart)` — far in the past, which is
    /// the recovery code's detection signal.
    pub fn rtc_at(&self, wall: SimTime) -> SimTime {
        self.rtc_base + wall.saturating_since(self.rtc_set_at)
    }

    /// The RTC reading at the moment it was last set or reset (used by
    /// examples and tests that don't track wall time).
    pub fn rtc(&self) -> SimTime {
        self.rtc_base
    }

    /// Sets the RTC (from a GPS fix or NTP) at true time `wall`.
    pub fn set_rtc(&mut self, wall: SimTime, to: SimTime) {
        self.rtc_base = to;
        self.rtc_set_at = wall;
    }

    /// Writes the wake schedule into RAM.
    pub fn write_schedule(&mut self, schedule: S) {
        self.schedule = Some(schedule);
    }

    /// The RAM schedule, if it survived.
    pub fn schedule(&self) -> Option<&S> {
        self.schedule.as_ref()
    }

    /// Mutable access to the RAM schedule.
    pub fn schedule_mut(&mut self) -> Option<&mut S> {
        self.schedule.as_mut()
    }

    /// Records one half-hourly battery-voltage sample (§III).
    pub fn record_voltage(&mut self, t: SimTime, v: Volts) {
        if self.voltage_log.len() == Self::VOLTAGE_LOG_CAP {
            self.voltage_log.remove(0);
        }
        self.voltage_log.push((t, v));
    }

    /// Empties the log once the Gumstix has read it (the once-a-day
    /// download that feeds the daily average), keeping its storage.
    pub fn clear_voltage_log(&mut self) {
        self.voltage_log.clear();
    }

    /// Samples currently buffered (without draining).
    pub fn voltage_log(&self) -> &[(SimTime, Volts)] {
        &self.voltage_log
    }

    /// Total battery exhaustion: RTC resets to the epoch, RAM contents
    /// (schedule and voltage log) are lost.
    pub fn power_loss(&mut self) {
        self.rtc_base = SimTime::EPOCH;
        // The restart moment is unknowable to the device itself; the next
        // `rtc_at(wall)` call measures from whenever the caller says the
        // power came back. Callers invoke `power_restored(wall)` for that.
        self.schedule = None;
        self.voltage_log.clear();
        self.power_losses += 1;
    }

    /// Marks the instant external charging revived the supply; the RTC
    /// starts counting from the epoch at this moment.
    pub fn power_restored(&mut self, wall: SimTime) {
        self.rtc_set_at = wall;
    }

    /// Number of total power losses experienced.
    pub fn power_losses(&self) -> u64 {
        self.power_losses
    }

    /// The §IV reset-detection predicate: given the persistent
    /// `last_run` timestamp (stored in flash, which survives), does the
    /// RTC claim a time before it?
    pub fn rtc_is_suspect(&self, wall: SimTime, last_run: SimTime) -> bool {
        self.rtc_at(wall) < last_run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glacsweb_sim::SimDuration;

    fn aug(d: u32, h: u32) -> SimTime {
        SimTime::from_ymd_hms(2008, 8, d, h, 0, 0)
    }

    #[test]
    fn rtc_tracks_wall_time_when_healthy() {
        let msp: Msp430<()> = Msp430::new(aug(1, 12));
        assert_eq!(msp.rtc_at(aug(3, 12)), aug(3, 12));
    }

    #[test]
    fn power_loss_resets_rtc_to_epoch_and_clears_ram() {
        let mut msp: Msp430<u32> = Msp430::new(aug(1, 12));
        msp.write_schedule(7);
        msp.record_voltage(aug(1, 12), Volts(12.5));
        msp.power_loss();
        msp.power_restored(aug(20, 0));
        // One hour after restoration the RTC reads one hour past the epoch.
        let rtc = msp.rtc_at(aug(20, 1));
        assert_eq!(rtc, SimTime::EPOCH + SimDuration::from_hours(1));
        assert!(msp.schedule().is_none());
        assert!(msp.voltage_log().is_empty());
        assert_eq!(msp.power_losses(), 1);
    }

    #[test]
    fn reset_detection_predicate() {
        let mut msp: Msp430<()> = Msp430::new(aug(1, 12));
        let last_run = aug(10, 12);
        assert!(!msp.rtc_is_suspect(aug(11, 12), last_run), "healthy clock");
        msp.power_loss();
        msp.power_restored(aug(20, 0));
        assert!(
            msp.rtc_is_suspect(aug(21, 0), last_run),
            "epoch clock is before last run"
        );
        // After a GPS fix the clock is trusted again.
        msp.set_rtc(aug(21, 1), aug(21, 1));
        assert!(!msp.rtc_is_suspect(aug(21, 2), last_run));
    }

    #[test]
    fn voltage_log_drains_once() {
        let mut msp: Msp430<()> = Msp430::new(aug(1, 0));
        for i in 0..48u64 {
            msp.record_voltage(
                aug(1, 0) + SimDuration::from_mins(30 * i),
                Volts(12.0 + 0.01 * i as f64),
            );
        }
        assert_eq!(msp.voltage_log().len(), 48);
        msp.clear_voltage_log();
        assert!(msp.voltage_log().is_empty(), "the read empties the log");
    }

    #[test]
    fn voltage_log_is_bounded() {
        let mut msp: Msp430<()> = Msp430::new(aug(1, 0));
        for i in 0..(Msp430::<()>::VOLTAGE_LOG_CAP as u64 + 100) {
            msp.record_voltage(aug(1, 0) + SimDuration::from_mins(30 * i), Volts(12.0));
        }
        assert_eq!(msp.voltage_log().len(), Msp430::<()>::VOLTAGE_LOG_CAP);
    }

    #[test]
    fn schedule_round_trip() {
        let mut msp: Msp430<String> = Msp430::new(aug(1, 0));
        assert!(msp.schedule().is_none());
        msp.write_schedule("midday".to_string());
        assert_eq!(msp.schedule().map(String::as_str), Some("midday"));
        if let Some(s) = msp.schedule_mut() {
            s.push_str(" utc");
        }
        assert_eq!(msp.schedule().map(String::as_str), Some("midday utc"));
    }
}
