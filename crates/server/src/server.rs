//! The composed server implementing the stations' [`Uplink`] contract.

use glacsweb_obs::Event;
use glacsweb_sim::CivilDate;
use glacsweb_station::{CodeUpdate, PowerState, SpecialCommand, StationId, Uplink, UploadItem};
use serde::{Deserialize, Serialize};

use crate::commands::CommandDesk;
use crate::state_sync::StateSync;
use crate::warehouse::Warehouse;

/// The Glacsweb server in Southampton.
///
/// # Example
///
/// ```
/// use glacsweb_server::SouthamptonServer;
/// use glacsweb_station::{PowerState, StationId, Uplink};
/// use glacsweb_sim::SimTime;
///
/// let mut server = SouthamptonServer::new();
/// let today = SimTime::from_ymd_hms(2009, 9, 22, 12, 0, 0).date();
/// server.upload_power_state(StationId::Base, today, PowerState::S3);
/// server.upload_power_state(StationId::Reference, today, PowerState::S2);
/// // Each station is offered the LOWER of the two states.
/// assert_eq!(server.fetch_override(StationId::Base), Some(PowerState::S2));
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SouthamptonServer {
    states: StateSync,
    desk: CommandDesk,
    warehouse: Warehouse,
    /// Fault injection: when `true`, override/special/update fetches fail
    /// (server unreachable), exercising the stations' local fallbacks.
    unreachable: bool,
}

impl SouthamptonServer {
    /// Creates an empty server.
    pub fn new() -> Self {
        SouthamptonServer::default()
    }

    /// The power-state synchroniser.
    pub fn states(&self) -> &StateSync {
        &self.states
    }

    /// Mutable access to the state synchroniser (manual overrides).
    pub fn states_mut(&mut self) -> &mut StateSync {
        &mut self.states
    }

    /// The command desk.
    pub fn desk(&self) -> &CommandDesk {
        &self.desk
    }

    /// Mutable access to the command desk (staging).
    pub fn desk_mut(&mut self) -> &mut CommandDesk {
        &mut self.desk
    }

    /// The data warehouse.
    pub fn warehouse(&self) -> &Warehouse {
        &self.warehouse
    }

    /// Makes the server unreachable (or reachable again) — simulates an
    /// outage at the Southampton end.
    pub fn set_unreachable(&mut self, unreachable: bool) {
        self.unreachable = unreachable;
    }

    /// Renders the researchers' status page — the at-a-glance view the
    /// real project's web front-end gave the team in Southampton.
    pub fn dashboard(&self) -> String {
        let mut out = String::from("== GLACSWEB SOUTHAMPTON ==\n");
        for id in [StationId::Base, StationId::Reference] {
            match self.states.last_reported(id) {
                Some(state) => {
                    out.push_str(&format!("{id:?}: last reported {state}"));
                    if let Some(o) = self.states.override_for(id) {
                        out.push_str(&format!(" (override -> {o})"));
                    }
                    out.push('\n');
                }
                None => out.push_str(&format!("{id:?}: NO REPORT YET\n")),
            }
        }
        if let Some(cap) = self.states.manual_cap() {
            out.push_str(&format!("manual cap active: {cap}\n"));
        }
        let (items, sensors, logs, log_bytes) = self.warehouse.totals();
        out.push_str(&format!(
            "warehouse: {items} items, {sensors} sensor samples, {logs} logs ({log_bytes})\n"
        ));
        let fixes = self.warehouse.differential_fixes();
        out.push_str(&format!(
            "dGPS: {} fixes, pairing yield {:.0}%\n",
            fixes.len(),
            self.warehouse.pairing_yield(&fixes) * 100.0
        ));
        for probe in self.warehouse.probes_reporting() {
            let series = self.warehouse.conductivity_series(probe);
            if let Some((t, v)) = series.last() {
                out.push_str(&format!(
                    "probe {probe}: {} readings, last {v:.2} uS at {t}\n",
                    series.len()
                ));
            }
        }
        let receipts = self.desk.checksum_reports();
        if !receipts.is_empty() {
            let ok = receipts.iter().filter(|r| r.3).count();
            out.push_str(&format!(
                "update receipts: {ok}/{} verified\n",
                receipts.len()
            ));
        }
        out
    }
}

impl Uplink for SouthamptonServer {
    fn is_reachable(&self) -> bool {
        !self.unreachable
    }

    fn upload_power_state(&mut self, from: StationId, date: CivilDate, state: PowerState) {
        if self.unreachable {
            return;
        }
        self.states.report(from, date, state);
    }

    fn upload_item(&mut self, from: StationId, item: UploadItem) {
        if self.unreachable {
            return;
        }
        if let UploadItem::SystemLog {
            special_results, ..
        } = &item
        {
            self.desk.receive_special_results(from, special_results);
        }
        self.warehouse.ingest(from, &item);
    }

    fn fetch_override(&mut self, for_station: StationId) -> Option<PowerState> {
        if self.unreachable {
            return None;
        }
        self.states.override_for(for_station)
    }

    fn fetch_override_observed(
        &mut self,
        for_station: StationId,
        scope: &mut glacsweb_obs::Scope<'_>,
    ) -> Option<PowerState> {
        let decision = self.fetch_override(for_station);
        scope.counter("override_fetches", 1);
        if scope.enabled() {
            // The server sees both inputs of the §III min rule — record
            // them next to the decision so a surprising override can be
            // explained from the telemetry alone.
            let level = |s: Option<PowerState>| s.map(|s| u64::from(s.level()));
            let opt = |event: Event, key, v: Option<u64>| match v {
                Some(n) => event.with(key, n),
                None => event.with(key, "none"),
            };
            let mut event = scope.make("override_decision");
            let name = match for_station {
                StationId::Base => "Base",
                StationId::Reference => "Reference",
            };
            event = event.with("for", name);
            event = opt(event, "own", level(self.states.last_reported(for_station)));
            event = opt(
                event,
                "other",
                level(self.states.last_reported(for_station.other())),
            );
            event = opt(event, "manual_cap", level(self.states.manual_cap()));
            event = event.with("reachable", !self.unreachable);
            event = opt(event, "decision", level(decision));
            scope.emit(event);
        }
        decision
    }

    fn fetch_special(&mut self, for_station: StationId) -> Option<SpecialCommand> {
        if self.unreachable {
            return None;
        }
        self.desk.next_special(for_station)
    }

    fn fetch_update(&mut self, for_station: StationId) -> Option<CodeUpdate> {
        if self.unreachable {
            return None;
        }
        self.desk.next_update(for_station)
    }

    fn report_checksum(&mut self, from: StationId, file: &str, md5_hex: &str) {
        if self.unreachable {
            return;
        }
        self.desk.receive_checksum(from, file, md5_hex);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glacsweb_sim::{Bytes, SimDuration, SimTime};

    fn today() -> CivilDate {
        SimTime::from_ymd_hms(2009, 9, 22, 12, 0, 0).date()
    }

    #[test]
    fn implements_the_min_override_protocol() {
        let mut s = SouthamptonServer::new();
        s.upload_power_state(StationId::Base, today(), PowerState::S3);
        s.upload_power_state(StationId::Reference, today(), PowerState::S1);
        assert_eq!(s.fetch_override(StationId::Base), Some(PowerState::S1));
        assert_eq!(s.fetch_override(StationId::Reference), Some(PowerState::S1));
    }

    #[test]
    fn log_uploads_surface_special_results() {
        let mut s = SouthamptonServer::new();
        let id = s.desk_mut().stage_special(
            StationId::Base,
            Bytes(100),
            SimDuration::from_mins(1),
            Bytes(10),
        );
        // Station fetches, runs, and ships the result in tomorrow's log.
        let cmd = s.fetch_special(StationId::Base).expect("staged");
        assert_eq!(cmd.id, id);
        s.upload_item(
            StationId::Base,
            UploadItem::SystemLog {
                size: Bytes::from_kib(5),
                special_results: vec![glacsweb_station::SpecialResult {
                    id,
                    executed_at: SimTime::from_ymd_hms(2009, 9, 22, 12, 40, 0),
                    output_size: Bytes(10),
                }],
            },
        );
        assert_eq!(s.desk().special_results().len(), 1);
        let (_, _, logs, _) = s.warehouse().totals();
        assert_eq!(logs, 1);
    }

    #[test]
    fn dashboard_renders_the_state_of_the_world() {
        let mut s = SouthamptonServer::new();
        assert!(s.dashboard().contains("NO REPORT YET"));
        s.upload_power_state(StationId::Base, today(), PowerState::S3);
        s.upload_power_state(StationId::Reference, today(), PowerState::S2);
        s.states_mut().set_manual_cap(Some(PowerState::S1));
        s.upload_item(
            StationId::Base,
            UploadItem::SensorData {
                samples: 48,
                size: Bytes::from_kib(1),
            },
        );
        let page = s.dashboard();
        assert!(page.contains("Base: last reported state 3"));
        assert!(page.contains("override -> state 1"));
        assert!(page.contains("manual cap active"));
        assert!(page.contains("48 sensor samples"));
    }

    #[test]
    fn observed_override_matches_plain_and_records_both_inputs() {
        use glacsweb_obs::{MemoryRecorder, Origin, Scope, Value};

        let mut s = SouthamptonServer::new();
        s.upload_power_state(StationId::Base, today(), PowerState::S3);
        s.upload_power_state(StationId::Reference, today(), PowerState::S1);
        s.states_mut().set_manual_cap(Some(PowerState::S2));

        let mut rec = MemoryRecorder::default();
        let origin = Origin::new("server", "base");
        let at = SimTime::from_ymd_hms(2009, 9, 22, 12, 5, 0);
        let mut scope = Scope::new(at, origin, &mut rec);
        let observed = s.fetch_override_observed(StationId::Base, &mut scope);
        assert_eq!(observed, s.fetch_override(StationId::Base));
        assert_eq!(observed, Some(PowerState::S1));

        assert_eq!(rec.counter_value(origin, "override_fetches"), 1);
        let event = rec
            .events()
            .find(|e| e.name == "override_decision")
            .expect("decision event recorded");
        let field = |key: &str| event.fields().find(|(k, _)| *k == key).map(|(_, v)| v);
        assert_eq!(field("own"), Some(Value::U64(3)));
        assert_eq!(field("other"), Some(Value::U64(1)));
        assert_eq!(field("manual_cap"), Some(Value::U64(2)));
        assert_eq!(field("reachable"), Some(Value::Bool(true)));
        assert_eq!(field("decision"), Some(Value::U64(1)));
    }

    #[test]
    fn unreachable_server_fails_all_fetches() {
        let mut s = SouthamptonServer::new();
        s.upload_power_state(StationId::Base, today(), PowerState::S3);
        s.upload_power_state(StationId::Reference, today(), PowerState::S3);
        s.set_unreachable(true);
        assert_eq!(s.fetch_override(StationId::Base), None);
        assert_eq!(s.fetch_special(StationId::Base), None);
        assert_eq!(s.fetch_update(StationId::Base), None);
        // Uploads while unreachable are lost (the station's store keeps
        // its copy, so nothing is lost end-to-end).
        s.upload_power_state(StationId::Base, today(), PowerState::S1);
        s.set_unreachable(false);
        assert_eq!(
            s.states().last_reported(StationId::Base),
            Some(PowerState::S3),
            "the S1 report never arrived"
        );
    }
}
