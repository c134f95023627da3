//! GPRS and long-range radio modems (parameters; session behaviour lives
//! in `glacsweb-link`).

use glacsweb_sim::{BitsPerSecond, Bytes, SimDuration, Watts};
use serde::{Deserialize, Serialize};

use crate::table1;

/// The per-station GPRS modem of the final architecture (§II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GprsModem {
    _private: (),
}

impl GprsModem {
    /// Creates a modem with Table I parameters.
    pub fn new() -> Self {
        GprsModem::default()
    }

    /// Draw while a session is up.
    pub fn power(&self) -> Watts {
        table1::GPRS_POWER
    }

    /// Useful throughput.
    pub fn rate(&self) -> BitsPerSecond {
        table1::GPRS_RATE
    }

    /// Time to move `size` over an ideal session.
    pub fn transfer_time(&self, size: Bytes) -> SimDuration {
        self.rate().transfer_time(size)
    }
}

/// The 500 mW 466 MHz long-range radio modem of the abandoned
/// inter-base-station architecture (kept as the comparison baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RadioModem {
    _private: (),
}

impl RadioModem {
    /// Creates a modem with Table I parameters.
    pub fn new() -> Self {
        RadioModem::default()
    }

    /// Draw while the link is up.
    pub fn power(&self) -> Watts {
        table1::RADIO_MODEM_POWER
    }

    /// Useful throughput.
    pub fn rate(&self) -> BitsPerSecond {
        table1::RADIO_MODEM_RATE
    }

    /// Time to move `size` over an ideal link.
    pub fn transfer_time(&self, size: Bytes) -> SimDuration {
        self.rate().transfer_time(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gprs_parameters_match_table1() {
        let m = GprsModem::new();
        assert_eq!(m.power().milliwatts(), 2640.0);
        assert_eq!(m.rate().value(), 5000);
    }

    #[test]
    fn radio_parameters_match_table1() {
        let m = RadioModem::new();
        assert_eq!(m.power().milliwatts(), 3960.0);
        assert_eq!(m.rate().value(), 2000);
    }

    #[test]
    fn gprs_moves_a_reading_faster_and_cheaper() {
        // §II's "twofold power saving" argument at the per-byte level.
        let gprs = GprsModem::new();
        let radio = RadioModem::new();
        let reading = Bytes(table1::DGPS_READING_BYTES);
        assert!(gprs.transfer_time(reading) < radio.transfer_time(reading));
        let e_gprs = gprs.power().over(gprs.transfer_time(reading));
        let e_radio = radio.power().over(radio.transfer_time(reading));
        assert!(
            e_radio.value() / e_gprs.value() > 2.0,
            "radio {} vs gprs {}",
            e_radio,
            e_gprs
        );
    }

    #[test]
    fn reading_transfer_takes_minutes_on_gprs() {
        let gprs = GprsModem::new();
        let dt = gprs.transfer_time(Bytes(table1::DGPS_READING_BYTES));
        let mins = dt.as_secs() as f64 / 60.0;
        assert!(
            (3.0..8.0).contains(&mins),
            "165 KB on 5 kbps takes {mins} min"
        );
    }
}
