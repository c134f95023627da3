//! GPRS data-cost metering.
//!
//! §II: "The data sent over the GPRS link is paid for per megabyte and so
//! any changes in the amount of data sent would have a cost implication."
//! The architecture decision explicitly weighed this; experiment E9
//! reports both energy and cost for each architecture.

use glacsweb_sim::Bytes;
use serde::{Deserialize, Serialize};

/// Accumulates the monetary cost of data moved over a paid link.
///
/// # Example
///
/// ```
/// use glacsweb_link::DataCostMeter;
/// use glacsweb_sim::Bytes;
///
/// let mut meter = DataCostMeter::per_megabyte(4.50);
/// meter.charge(Bytes::from_mib(2));
/// meter.charge(Bytes::from_kib(512));
/// assert!((meter.total_cost() - 11.25).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataCostMeter {
    tariff_per_mib: f64,
    bytes: Bytes,
}

impl DataCostMeter {
    /// Creates a meter with the given tariff (currency units per MiB).
    ///
    /// # Panics
    ///
    /// Panics if the tariff is negative.
    pub fn per_megabyte(tariff_per_mib: f64) -> Self {
        assert!(tariff_per_mib >= 0.0, "tariff must be non-negative");
        DataCostMeter {
            tariff_per_mib,
            bytes: Bytes::ZERO,
        }
    }

    /// Records a transfer.
    pub fn charge(&mut self, size: Bytes) {
        self.bytes += size;
    }

    /// Total cost so far.
    pub fn total_cost(&self) -> f64 {
        self.bytes.as_mib_f64() * self.tariff_per_mib
    }

    /// The tariff.
    pub fn tariff_per_mib(&self) -> f64 {
        self.tariff_per_mib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_cost() {
        let mut m = DataCostMeter::per_megabyte(2.0);
        assert_eq!(m.total_cost(), 0.0);
        m.charge(Bytes::from_mib(3));
        assert!((m.total_cost() - 6.0).abs() < 1e-12);
        assert_eq!(m.bytes, Bytes::from_mib(3));
    }

    #[test]
    fn fractional_megabytes_cost_fractionally() {
        let mut m = DataCostMeter::per_megabyte(1.0);
        m.charge(Bytes::from_kib(256));
        assert!((m.total_cost() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn free_tariff_costs_nothing() {
        let mut m = DataCostMeter::per_megabyte(0.0);
        m.charge(Bytes::from_mib(1000));
        assert_eq!(m.total_cost(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_tariff() {
        let _ = DataCostMeter::per_megabyte(-1.0);
    }

    #[test]
    fn architectures_move_similar_data_so_cost_is_similar() {
        // §II: "the architecture does not dramatically affect the amount
        // of data sent back to Southampton so the cost implication is
        // minimal" — dual-GPRS sends the same payloads, just from two SIMs.
        let daily_payload = Bytes::from_kib(12 * 165 + 64); // GPS + sensor data
        let mut single = DataCostMeter::per_megabyte(4.0);
        single.charge(daily_payload);
        let mut dual_a = DataCostMeter::per_megabyte(4.0);
        let mut dual_b = DataCostMeter::per_megabyte(4.0);
        dual_a.charge(daily_payload);
        dual_b.charge(Bytes::from_kib(165 + 32)); // reference's own data
        let relayed_total = single.total_cost() + 4.0 * Bytes::from_kib(165 + 32).as_mib_f64();
        let dual_total = dual_a.total_cost() + dual_b.total_cost();
        assert!((dual_total - relayed_total).abs() / relayed_total < 0.05);
    }
}
