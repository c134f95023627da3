//! Special-command staging and code-update distribution.

use std::collections::{BTreeMap, VecDeque};

use glacsweb_station::md5::{md5, to_hex};
use glacsweb_station::{CodeUpdate, SpecialCommand, SpecialResult, StationId};
use serde::{Deserialize, Serialize};

/// The researchers' desk: queues of special commands and staged updates
/// per station, plus the receipts that come back.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CommandDesk {
    specials: BTreeMap<StationId, VecDeque<SpecialCommand>>,
    updates: BTreeMap<StationId, VecDeque<CodeUpdate>>,
    next_special_id: u64,
    /// `(station, file, reported hex, matches what we staged)`.
    checksum_reports: Vec<(StationId, String, String, bool)>,
    /// Results that arrived inside shipped logs.
    special_results: Vec<(StationId, SpecialResult)>,
    /// MD5s of everything staged, for receipt verification.
    staged_md5: BTreeMap<String, String>,
}

impl CommandDesk {
    /// Creates an empty desk.
    pub fn new() -> Self {
        CommandDesk::default()
    }

    /// Stages a special command for a station; returns its id.
    pub fn stage_special(
        &mut self,
        station: StationId,
        size: glacsweb_sim::Bytes,
        runtime: glacsweb_sim::SimDuration,
        output_size: glacsweb_sim::Bytes,
    ) -> u64 {
        self.next_special_id += 1;
        let id = self.next_special_id;
        self.specials
            .entry(station)
            .or_default()
            .push_back(SpecialCommand {
                id,
                size,
                runtime,
                output_size,
            });
        id
    }

    /// Stages a code update; the advertised MD5 is computed here, exactly
    /// as the researchers did before sending (§VI: code "has to be
    /// carefully verified … tested on similar hardware in the lab").
    pub fn stage_update(&mut self, station: StationId, name: &str, payload: Vec<u8>) {
        let digest = md5(&payload);
        self.staged_md5.insert(name.to_string(), to_hex(&digest));
        self.updates
            .entry(station)
            .or_default()
            .push_back(CodeUpdate {
                name: name.to_string(),
                payload,
                expected_md5: digest,
            });
    }

    /// A station polls for its next special command.
    pub fn next_special(&mut self, station: StationId) -> Option<SpecialCommand> {
        self.specials.get_mut(&station)?.pop_front()
    }

    /// A station polls for its next code update.
    pub fn next_update(&mut self, station: StationId) -> Option<CodeUpdate> {
        self.updates.get_mut(&station)?.pop_front()
    }

    /// Receives a checksum receipt (the §VI immediate HTTP GET).
    pub fn receive_checksum(&mut self, from: StationId, file: &str, md5_hex: &str) {
        let matches = self.verify_checksum(file, md5_hex);
        self.checksum_reports
            .push((from, file.to_string(), md5_hex.to_string(), matches));
    }

    /// Whether a receipt reporting `md5_hex` for `file` matches what was
    /// staged: the verdict [`CommandDesk::receive_checksum`] records,
    /// without recording anything.
    fn verify_checksum(&self, file: &str, md5_hex: &str) -> bool {
        self.staged_md5
            .get(file)
            .is_some_and(|expected| expected == md5_hex)
    }

    /// Receives special results carried in a shipped log.
    pub fn receive_special_results(&mut self, from: StationId, results: &[SpecialResult]) {
        for r in results {
            self.special_results.push((from, r.clone()));
        }
    }

    /// Checksum receipts so far.
    pub fn checksum_reports(&self) -> &[(StationId, String, String, bool)] {
        &self.checksum_reports
    }

    /// Special results received so far.
    pub fn special_results(&self) -> &[(StationId, SpecialResult)] {
        &self.special_results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glacsweb_sim::{Bytes, SimDuration};

    #[test]
    fn specials_queue_in_order_per_station() {
        let mut desk = CommandDesk::new();
        let a = desk.stage_special(
            StationId::Base,
            Bytes(100),
            SimDuration::from_mins(1),
            Bytes(50),
        );
        let b = desk.stage_special(
            StationId::Base,
            Bytes(100),
            SimDuration::from_mins(1),
            Bytes(50),
        );
        let c = desk.stage_special(
            StationId::Reference,
            Bytes(10),
            SimDuration::from_secs(5),
            Bytes(5),
        );
        assert_eq!(desk.next_special(StationId::Base).map(|s| s.id), Some(a));
        assert_eq!(desk.next_special(StationId::Base).map(|s| s.id), Some(b));
        assert_eq!(desk.next_special(StationId::Base), None);
        assert_eq!(
            desk.next_special(StationId::Reference).map(|s| s.id),
            Some(c)
        );
    }

    #[test]
    fn staged_updates_carry_a_correct_md5() {
        let mut desk = CommandDesk::new();
        desk.stage_update(StationId::Base, "control.py", b"new code".to_vec());
        let update = desk.next_update(StationId::Base).expect("staged");
        assert_eq!(update.expected_md5, md5(b"new code"));
        assert_eq!(desk.next_update(StationId::Base), None);
    }

    #[test]
    fn checksum_receipts_verify_against_staged() {
        let mut desk = CommandDesk::new();
        desk.stage_update(StationId::Base, "control.py", b"new code".to_vec());
        let good = to_hex(&md5(b"new code"));
        desk.receive_checksum(StationId::Base, "control.py", &good);
        desk.receive_checksum(StationId::Base, "control.py", "deadbeef");
        let reports = desk.checksum_reports();
        assert!(reports[0].3, "matching receipt verified");
        assert!(!reports[1].3, "corrupted receipt flagged");
    }

    #[test]
    fn verifying_matches_receiving_and_records_nothing() {
        let mut desk = CommandDesk::new();
        desk.stage_update(StationId::Base, "control.py", b"new code".to_vec());
        desk.receive_checksum(StationId::Base, "control.py", "deadbeef");
        let before = desk.clone();
        let good = to_hex(&md5(b"new code"));
        let receipts = [
            ("control.py", good.as_str()),
            ("control.py", "deadbeef"),
            ("other.py", good.as_str()),
            ("control.py", ""),
        ];
        let mut receiver = desk.clone();
        for i in 0..10_000 {
            let (file, hex) = receipts[i % receipts.len()];
            let verdict = desk.verify_checksum(file, hex);
            receiver.receive_checksum(StationId::Base, file, hex);
            let recorded = receiver.checksum_reports().last().map(|r| r.3);
            assert_eq!(Some(verdict), recorded, "receipt {i}: {file} {hex}");
        }
        assert_eq!(desk, before, "verifying leaves the desk as it was");
        assert_eq!(desk.checksum_reports().len(), 1);
    }

    #[test]
    fn special_results_are_collected() {
        let mut desk = CommandDesk::new();
        let id = desk.stage_special(
            StationId::Base,
            Bytes(1),
            SimDuration::from_secs(1),
            Bytes(1),
        );
        desk.receive_special_results(
            StationId::Base,
            &[SpecialResult {
                id,
                executed_at: glacsweb_sim::SimTime::from_ymd_hms(2009, 9, 23, 12, 30, 0),
                output_size: Bytes(1),
            }],
        );
        assert_eq!(desk.special_results().len(), 1);
    }
}
