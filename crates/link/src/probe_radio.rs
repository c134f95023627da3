//! The base-station ↔ subglacial-probe radio channel.

use glacsweb_sim::{BitsPerSecond, Bytes, SimDuration, SimRng, Watts};
use serde::{Deserialize, Serialize};

use crate::loss::LossModel;

/// Result of pushing a batch of packets through the ice.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchResult {
    /// For each packet sent (in order), whether it arrived.
    pub received: Vec<bool>,
    /// Airtime consumed.
    pub elapsed: SimDuration,
}

impl BatchResult {
    /// Number of packets that arrived.
    pub fn delivered(&self) -> usize {
        self.received.iter().filter(|&&r| r).count()
    }

    /// Indices of packets that were lost.
    pub fn missing(&self) -> Vec<usize> {
        self.received
            .iter()
            .enumerate()
            .filter_map(|(i, &r)| (!r).then_some(i))
            .collect()
    }
}

/// The base station's draw while its probe radio receives (~0.5 W):
/// the figure [`ProbeRadioLink`] carries and the station's power rail
/// charges for the probe-radio load.
pub const PROBE_RX_POWER: Watts = Watts(0.5);

/// The through-ice radio used to fetch probe readings.
///
/// A low-rate packet channel: the base transmits queries, the probe
/// streams reading packets back without per-packet acknowledgements (§V).
/// The per-packet loss probability is supplied by the caller from
/// [`Environment::probe_packet_loss`](glacsweb_env::Environment::probe_packet_loss),
/// so summer ice loses ~13 % and winter ice ~2.5 %.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeRadioLink {
    rate: BitsPerSecond,
    packet_payload: Bytes,
    packet_overhead: Bytes,
    /// Always [`PROBE_RX_POWER`]; kept so the snapshot wire form holds
    /// the figure the rail charges.
    rx_power: Watts,
}

impl ProbeRadioLink {
    /// Creates the deployment's probe radio: 2 400 bps, 32-byte readings
    /// in 48-byte packets, [`PROBE_RX_POWER`] receiver draw at the base
    /// station.
    pub fn new() -> Self {
        ProbeRadioLink {
            rate: BitsPerSecond(2_400),
            packet_payload: Bytes(32),
            packet_overhead: Bytes(16),
            rx_power: PROBE_RX_POWER,
        }
    }

    /// Airtime of one packet (payload + framing).
    pub fn packet_time(&self) -> SimDuration {
        self.rate
            .transfer_time(self.packet_payload + self.packet_overhead)
    }

    /// Streams `n` packets through the ice at the given loss probability.
    pub fn send_batch(&self, n: usize, loss_p: f64, rng: &mut SimRng) -> BatchResult {
        let mut model = LossModel::bernoulli(loss_p);
        self.send_batch_with(n, &mut model, rng)
    }

    /// Streams `n` packets using an explicit (possibly bursty) loss model.
    fn send_batch_with(&self, n: usize, model: &mut LossModel, rng: &mut SimRng) -> BatchResult {
        let received: Vec<bool> = (0..n).map(|_| !model.next_lost(rng)).collect();
        BatchResult {
            received,
            elapsed: self.packet_time() * n as u64,
        }
    }

    /// Airtime to move `n` packets (every packet is transmitted whether or
    /// not it survives — the sender does not know).
    pub fn batch_time(&self, n: usize) -> SimDuration {
        self.packet_time() * n as u64
    }
}

impl Default for ProbeRadioLink {
    fn default() -> Self {
        ProbeRadioLink::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_summer_loss_figure() {
        // §V: "With 3000 readings being sent in the summer … 400 missed
        // packets were common." Summer wetness loss ≈ 13 %.
        let link = ProbeRadioLink::new();
        let mut rng = SimRng::seed_from(33);
        let result = link.send_batch(3000, 0.134, &mut rng);
        let missing = result.missing().len();
        assert!(
            (340..460).contains(&missing),
            "3000 summer readings should lose ~400 packets, lost {missing}"
        );
    }

    #[test]
    fn winter_ice_is_much_better() {
        let link = ProbeRadioLink::new();
        let mut rng = SimRng::seed_from(34);
        let result = link.send_batch(3000, 0.025, &mut rng);
        let missing = result.missing().len();
        assert!(missing < 120, "winter losses are small: {missing}");
    }

    #[test]
    fn batch_timing_is_linear() {
        let link = ProbeRadioLink::new();
        let one = link.packet_time();
        assert_eq!(link.batch_time(10), one * 10);
        // 48 bytes at 2400 bps = 0.16 s → rounded up to whole seconds by
        // the transfer-time model.
        assert!(one.as_secs() >= 1);
        let mut rng = SimRng::seed_from(35);
        let r = link.send_batch(100, 0.0, &mut rng);
        assert_eq!(r.elapsed, link.batch_time(100));
        assert_eq!(r.delivered(), 100);
    }

    #[test]
    fn missing_indices_are_correct() {
        let link = ProbeRadioLink::new();
        let mut rng = SimRng::seed_from(36);
        let r = link.send_batch(50, 0.3, &mut rng);
        let missing = r.missing();
        for &i in &missing {
            assert!(!r.received[i]);
        }
        assert_eq!(missing.len() + r.delivered(), 50);
    }

    #[test]
    fn bursty_model_loses_contiguous_runs() {
        let link = ProbeRadioLink::new();
        let mut model = LossModel::bursty(0.13, 10.0);
        let mut rng = SimRng::seed_from(37);
        let r = link.send_batch_with(3000, &mut model, &mut rng);
        let missing = r.missing();
        // Count adjacent-index pairs among the missing.
        let adjacent = missing.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(
            adjacent as f64 > missing.len() as f64 * 0.4,
            "bursty loss should cluster: {adjacent} adjacent of {}",
            missing.len()
        );
    }
}
