//! The Gumstix ARM Linux computer.

use glacsweb_sim::{ConfigError, SimDuration, SimTime, Watts};
use serde::{Deserialize, Serialize};

use crate::table1;

/// Power state of the Gumstix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GumstixState {
    /// Rail switched off by the MSP430 (the only "sleep" it has).
    Off,
    /// Linux booting; ready at the contained instant.
    Booting {
        /// When the boot completes and the daily job can start.
        ready_at: SimTime,
    },
    /// Up and running the daily job.
    On {
        /// When the current power-on began (for on-time accounting).
        since: SimTime,
    },
}

/// The high-performance half of the Gumsense board.
///
/// §II: "this processing power comes at the cost of high power consumption
/// (~100mA) and no useful sleep mode. It is for this reason that … it is
/// combined with an MSP430, meaning the Gumstix is only powered when there
/// is a need for more processing power."
///
/// # Example
///
/// ```
/// use glacsweb_hw::{Gumstix, GumstixState};
/// use glacsweb_sim::{SimDuration, SimTime};
///
/// let mut g = Gumstix::new();
/// let t = SimTime::from_ymd_hms(2009, 9, 22, 12, 0, 0);
/// let ready = g.power_on(t);
/// assert!(ready > t, "Linux takes a while to boot");
/// g.boot_complete(ready);
/// assert!(matches!(g.state(), GumstixState::On { .. }));
/// g.power_off(ready + SimDuration::from_mins(20));
/// assert_eq!(g.state(), GumstixState::Off);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gumstix {
    state: GumstixState,
    boot_time: SimDuration,
    power: Watts,
    total_on: SimDuration,
    power_cycles: u64,
}

impl Gumstix {
    /// Creates a powered-off Gumstix with Table I parameters.
    pub fn new() -> Self {
        Gumstix {
            state: GumstixState::Off,
            boot_time: SimDuration::from_secs(table1::GUMSTIX_BOOT_SECS),
            power: table1::GUMSTIX_POWER,
            total_on: SimDuration::ZERO,
            power_cycles: 0,
        }
    }

    /// Checks the boot time a snapshot could carry: at most an hour.
    /// The rail stays on across the boot, so an unbounded one would
    /// stall the run.
    ///
    /// # Errors
    ///
    /// Returns the boot time when it is out of range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.boot_time > SimDuration::from_secs(3600) {
            return Err(ConfigError::new(
                "gumstix",
                "boot_time",
                format!("boot time {} s exceeds an hour", self.boot_time.as_secs()),
            ));
        }
        Ok(())
    }

    /// Current state.
    pub fn state(&self) -> GumstixState {
        self.state
    }

    /// Rated draw while powered (booting or on).
    pub fn power(&self) -> Watts {
        self.power
    }

    /// The MSP430 switches the rail on at `t`; returns when Linux will be
    /// ready.
    ///
    /// # Panics
    ///
    /// Panics if already powered.
    pub fn power_on(&mut self, t: SimTime) -> SimTime {
        assert_eq!(self.state, GumstixState::Off, "double power-on");
        let ready_at = t + self.boot_time;
        self.state = GumstixState::Booting { ready_at };
        self.power_cycles += 1;
        ready_at
    }

    /// Marks the boot finished (call at the instant returned by
    /// [`Gumstix::power_on`]).
    ///
    /// # Panics
    ///
    /// Panics if not booting or called before the boot completes.
    pub fn boot_complete(&mut self, now: SimTime) {
        match self.state {
            GumstixState::Booting { ready_at } => {
                assert!(now >= ready_at, "boot finishes at {ready_at}, not {now}");
                self.state = GumstixState::On { since: ready_at };
            }
            _ => panic!("boot_complete while {:?}", self.state),
        }
    }

    /// The MSP430 cuts the rail at `t` (end of the daily job, or the
    /// watchdog firing).
    pub fn power_off(&mut self, t: SimTime) {
        if let GumstixState::On { since } = self.state {
            self.total_on += t.saturating_since(since);
        } else if let GumstixState::Booting { ready_at } = self.state {
            // Killed mid-boot; count the partial boot as on-time.
            self.total_on += t.saturating_since(ready_at - self.boot_time);
        }
        self.state = GumstixState::Off;
    }
}

impl Default for Gumstix {
    fn default() -> Self {
        Gumstix::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> SimTime {
        SimTime::from_ymd_hms(2009, 9, 22, 12, 0, 0)
    }

    #[test]
    fn full_duty_cycle_accounts_on_time() {
        let mut g = Gumstix::new();
        let ready = g.power_on(t0());
        g.boot_complete(ready);
        let off_at = ready + SimDuration::from_mins(30);
        g.power_off(off_at);
        assert_eq!(g.total_on, SimDuration::from_mins(30));
        assert_eq!(g.power_cycles, 1);
        // A second day accumulates.
        let day2 = t0() + SimDuration::from_days(1);
        let ready2 = g.power_on(day2);
        g.boot_complete(ready2);
        g.power_off(ready2 + SimDuration::from_mins(15));
        assert_eq!(g.total_on, SimDuration::from_mins(45));
        assert_eq!(g.power_cycles, 2);
    }

    #[test]
    fn power_is_table1() {
        assert_eq!(Gumstix::new().power().milliwatts(), 900.0);
    }

    #[test]
    fn kill_mid_boot_is_safe() {
        let mut g = Gumstix::new();
        g.power_on(t0());
        g.power_off(t0() + SimDuration::from_secs(10));
        assert_eq!(g.state(), GumstixState::Off);
        assert_eq!(g.total_on, SimDuration::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "double power-on")]
    fn double_power_on_is_a_bug() {
        let mut g = Gumstix::new();
        g.power_on(t0());
        g.power_on(t0());
    }

    #[test]
    #[should_panic(expected = "boot_complete")]
    fn boot_complete_when_off_is_a_bug() {
        let mut g = Gumstix::new();
        g.boot_complete(t0());
    }

    #[test]
    fn off_power_off_is_idempotent() {
        let mut g = Gumstix::new();
        g.power_off(t0());
        assert_eq!(g.state(), GumstixState::Off);
        assert_eq!(g.total_on, SimDuration::ZERO);
    }
}
