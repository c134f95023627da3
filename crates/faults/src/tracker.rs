//! Recovery bookkeeping: MTTR, degraded/lost windows, backlog drainage.

use glacsweb_sim::{Bytes, SimTime};
use serde::{Deserialize, Serialize};

use crate::fault::FaultTarget;

/// How one daily window fared, as classified by the event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowClass {
    /// Ran to completion with a connected uplink.
    Healthy,
    /// Ran, but cut by the watchdog, died mid-window, or never attached.
    Degraded,
    /// Never ran — the station was unpowered at window time.
    Lost,
}

/// The life of one fault activation.
///
/// A recurring spec produces one record per activation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Index into the plan's spec list.
    pub spec: usize,
    /// The fault's stable label (`"rs232_fault"`, …).
    pub label: String,
    /// What it afflicted.
    pub target: FaultTarget,
    /// When the fault activated.
    pub activated: SimTime,
    /// When the fault condition was lifted (instantaneous faults clear
    /// at activation).
    pub cleared: Option<SimTime>,
    /// First healthy window after clearance — the service-restoration
    /// instant MTTR is measured to.
    pub restored: Option<SimTime>,
    /// Windows that ran degraded while the fault was unresolved.
    pub windows_degraded: u64,
    /// Windows lost outright while the fault was unresolved.
    pub windows_lost: u64,
    /// Upload backlog on the afflicted station when the fault cleared.
    pub backlog_at_clear: Option<Bytes>,
    /// When that backlog finished draining, if it has.
    pub backlog_drained_at: Option<SimTime>,
}

impl FaultRecord {
    /// Mean-time-to-recovery: activation → first healthy window.
    pub fn mttr(&self) -> Option<glacsweb_sim::SimDuration> {
        self.restored.map(|r| r.saturating_since(self.activated))
    }

    fn applies_to_station(&self, station: FaultTarget) -> bool {
        match self.target {
            FaultTarget::Base | FaultTarget::Reference => self.target == station,
            // A server outage afflicts every station's window; a probe
            // blackout shows up in the base station's probe jobs.
            FaultTarget::Server => true,
            FaultTarget::Probe(_) => station == FaultTarget::Base,
        }
    }
}

/// Aggregated recovery metrics over a whole run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultRecoverySummary {
    /// Fault activations injected.
    pub injected: u64,
    /// Activations whose fault condition has lifted.
    pub cleared: u64,
    /// Activations that saw a healthy window after clearing.
    pub recovered: u64,
    /// Mean time-to-recovery over recovered activations, in hours
    /// (0 when none recovered).
    pub mean_mttr_hours: f64,
    /// Windows degraded across all unresolved faults.
    pub windows_degraded: u64,
    /// Windows lost across all unresolved faults.
    pub windows_lost: u64,
    /// Activations whose post-clearance backlog fully drained.
    pub backlogs_drained: u64,
}

/// Records fault activations and watches windows for recovery.
///
/// The deployment event loop drives it: [`activate`](Self::activate) /
/// [`clear`](Self::clear) when the plan toggles a fault, and
/// [`note_window`](Self::note_window) after every daily window.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RecoveryTracker {
    records: Vec<FaultRecord>,
}

impl RecoveryTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        RecoveryTracker::default()
    }

    /// Records a fault activation.
    pub fn activate(&mut self, spec: usize, label: &str, target: FaultTarget, t: SimTime) {
        self.records.push(FaultRecord {
            spec,
            label: label.to_string(),
            target,
            activated: t,
            cleared: None,
            restored: None,
            windows_degraded: 0,
            windows_lost: 0,
            backlog_at_clear: None,
            backlog_drained_at: None,
        });
    }

    /// Records the clearance of the most recent unresolved activation of
    /// `spec`, noting the afflicted station's upload backlog at that
    /// instant (None for targets without a backlog).
    pub fn clear(&mut self, spec: usize, t: SimTime, backlog: Option<Bytes>) {
        if let Some(r) = self
            .records
            .iter_mut()
            .rev()
            .find(|r| r.spec == spec && r.cleared.is_none())
        {
            r.cleared = Some(t);
            r.backlog_at_clear = backlog;
        }
    }

    /// Classifies one daily window against every unresolved fault record
    /// that applies to `station`, advancing degraded/lost counts, marking
    /// restoration (first healthy window after clearance), and watching
    /// the backlog drain.
    pub fn note_window(
        &mut self,
        station: FaultTarget,
        t: SimTime,
        class: WindowClass,
        backlog: Bytes,
    ) {
        for r in &mut self.records {
            if !r.applies_to_station(station) || r.restored.is_some() {
                continue;
            }
            match (r.cleared, class) {
                (None, WindowClass::Degraded) => r.windows_degraded += 1,
                (None, WindowClass::Lost) => r.windows_lost += 1,
                (None, WindowClass::Healthy) => {}
                (Some(cleared), _) if t < cleared => {}
                (Some(_), WindowClass::Healthy) => r.restored = Some(t),
                (Some(_), WindowClass::Degraded) => r.windows_degraded += 1,
                (Some(_), WindowClass::Lost) => r.windows_lost += 1,
            }
        }
        // Backlog drainage is tracked past restoration: the fault can be
        // long gone while the store is still catching up.
        for r in &mut self.records {
            if r.applies_to_station(station)
                && r.cleared.is_some()
                && r.backlog_drained_at.is_none()
                && r.backlog_at_clear.unwrap_or(Bytes::ZERO) > Bytes::ZERO
                && backlog == Bytes::ZERO
            {
                r.backlog_drained_at = Some(t);
            }
        }
    }

    /// Every activation recorded so far.
    pub fn records(&self) -> &[FaultRecord] {
        &self.records
    }

    /// Aggregates the run's recovery metrics.
    pub fn summary(&self) -> FaultRecoverySummary {
        let injected = self.records.len() as u64;
        let cleared = self.records.iter().filter(|r| r.cleared.is_some()).count() as u64;
        let recovered: Vec<_> = self.records.iter().filter_map(FaultRecord::mttr).collect();
        let mean_mttr_hours = if recovered.is_empty() {
            0.0
        } else {
            recovered
                .iter()
                .map(|d| d.as_secs() as f64 / 3600.0)
                .sum::<f64>()
                / recovered.len() as f64
        };
        FaultRecoverySummary {
            injected,
            cleared,
            recovered: recovered.len() as u64,
            mean_mttr_hours,
            windows_degraded: self.records.iter().map(|r| r.windows_degraded).sum(),
            windows_lost: self.records.iter().map(|r| r.windows_lost).sum(),
            backlogs_drained: self
                .records
                .iter()
                .filter(|r| r.backlog_drained_at.is_some())
                .count() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glacsweb_sim::SimDuration;

    fn t0() -> SimTime {
        SimTime::from_ymd_hms(2009, 6, 1, 12, 0, 0)
    }

    fn day(n: u64) -> SimTime {
        t0() + SimDuration::from_days(n)
    }

    #[test]
    fn mttr_spans_activation_to_first_healthy_window() {
        let mut tr = RecoveryTracker::new();
        tr.activate(0, "server_unreachable", FaultTarget::Server, t0());
        tr.note_window(FaultTarget::Base, day(1), WindowClass::Degraded, Bytes(100));
        tr.clear(0, day(3), Some(Bytes(5000)));
        tr.note_window(FaultTarget::Base, day(4), WindowClass::Healthy, Bytes(500));
        tr.note_window(FaultTarget::Base, day(5), WindowClass::Healthy, Bytes::ZERO);
        let r = &tr.records()[0];
        assert_eq!(r.cleared, Some(day(3)));
        assert_eq!(r.restored, Some(day(4)));
        assert_eq!(r.mttr(), Some(SimDuration::from_days(4)));
        assert_eq!(r.windows_degraded, 1);
        assert_eq!(
            r.backlog_drained_at,
            Some(day(5)),
            "backlog watched past restoration"
        );
        let s = tr.summary();
        assert_eq!(s.injected, 1);
        assert_eq!(s.recovered, 1);
        assert!((s.mean_mttr_hours - 96.0).abs() < 1e-9);
        assert_eq!(s.backlogs_drained, 1);
    }

    #[test]
    fn lost_windows_count_separately_from_degraded() {
        let mut tr = RecoveryTracker::new();
        tr.activate(0, "power_failure", FaultTarget::Base, t0());
        tr.clear(0, t0(), None);
        tr.note_window(FaultTarget::Base, day(1), WindowClass::Lost, Bytes::ZERO);
        tr.note_window(
            FaultTarget::Base,
            day(2),
            WindowClass::Degraded,
            Bytes::ZERO,
        );
        tr.note_window(FaultTarget::Base, day(3), WindowClass::Healthy, Bytes::ZERO);
        let r = &tr.records()[0];
        assert_eq!((r.windows_lost, r.windows_degraded), (1, 1));
        assert_eq!(r.restored, Some(day(3)));
    }

    #[test]
    fn station_faults_ignore_the_other_stations_windows() {
        let mut tr = RecoveryTracker::new();
        tr.activate(0, "rs232_fault", FaultTarget::Base, t0());
        tr.clear(0, day(1), Some(Bytes(10)));
        // A healthy *reference* window must not mark the base fault
        // restored.
        tr.note_window(
            FaultTarget::Reference,
            day(2),
            WindowClass::Healthy,
            Bytes::ZERO,
        );
        assert!(tr.records()[0].restored.is_none());
        tr.note_window(FaultTarget::Base, day(2), WindowClass::Healthy, Bytes::ZERO);
        assert!(tr.records()[0].restored.is_some());
    }

    #[test]
    fn recurring_activations_get_separate_records() {
        let mut tr = RecoveryTracker::new();
        tr.activate(0, "rs232_fault", FaultTarget::Base, t0());
        tr.clear(0, day(1), None);
        tr.activate(0, "rs232_fault", FaultTarget::Base, day(10));
        tr.clear(0, day(11), None);
        assert_eq!(tr.records().len(), 2);
        assert_eq!(tr.summary().cleared, 2);
    }

    #[test]
    fn windows_before_clearance_do_not_restore() {
        let mut tr = RecoveryTracker::new();
        tr.activate(0, "server_unreachable", FaultTarget::Server, t0());
        // Window at day 1, fault clears at day 3 — even though the window
        // classified healthy (e.g. local fallback), it predates clearance.
        tr.note_window(FaultTarget::Base, day(1), WindowClass::Healthy, Bytes::ZERO);
        tr.clear(0, day(3), None);
        assert!(tr.records()[0].restored.is_none());
    }
}
