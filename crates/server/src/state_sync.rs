//! Power-state synchronisation and manual override.

use std::collections::BTreeMap;

use glacsweb_sim::CivilDate;
use glacsweb_station::{PowerState, StationId};
use serde::{Deserialize, Serialize};

/// The server-side half of the §III state synchronisation.
///
/// Each station uploads its locally computed state daily; a station asking
/// for its override receives the **lowest** of the two stations' reported
/// states ("the server looks up both the existing states from the
/// stations and returns the lowest one to the client"), optionally capped
/// by a manual override set by the researchers.
///
/// The one-day-lag behaviour the paper describes falls out naturally: the
/// upload happens *before* the override fetch in the Fig 4 sequence, so
/// whichever station runs first each day sees the other's state from
/// yesterday unless its partner has already run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StateSync {
    reported: BTreeMap<StationId, (CivilDate, PowerState)>,
    manual_cap: Option<PowerState>,
    history: Vec<(StationId, CivilDate, PowerState)>,
}

impl StateSync {
    /// Creates an empty synchroniser.
    pub fn new() -> Self {
        StateSync::default()
    }

    /// Records a station's daily state upload: the station's entry keeps
    /// the report [`StateSync::newest`] retains, and every upload, kept
    /// or not, lands in the history.
    pub fn report(&mut self, from: StationId, date: CivilDate, state: PowerState) {
        let kept = Self::newest(self.reported.get(&from).copied(), (date, state));
        self.reported.insert(from, kept);
        self.history.push((from, date, state));
    }

    /// The §III retention rule: the report a station's entry holds after
    /// `report` arrives on top of `current`.
    ///
    /// Reports are keyed by the civil date the station computed its state
    /// for, and the **newest date wins**: a late-arriving report for an
    /// older date (a station re-sending yesterday's state after a comms
    /// outage, or a pair of uploads racing across midnight) never
    /// clobbers the station's current entry, so an already-made override
    /// decision for today cannot regress to yesterday's state. A second
    /// report for the *same* date supersedes the first — a station
    /// re-uploading a corrected same-day state is the freshest
    /// information available.
    pub fn newest(
        current: Option<(CivilDate, PowerState)>,
        report: (CivilDate, PowerState),
    ) -> (CivilDate, PowerState) {
        match current {
            Some(kept) if kept.0 > report.0 => kept,
            _ => report,
        }
    }

    /// The §III pair rule: the lower of a station's and its partner's
    /// last reported states, `None` until both have reported — with only
    /// one data point there is nothing to synchronise against, and the
    /// station falls back to its local state anyway.
    pub fn pair_minimum(own: Option<PowerState>, other: Option<PowerState>) -> Option<PowerState> {
        Some(own?.min(other?))
    }

    /// Sets (or clears) the researchers' manual override cap.
    pub fn set_manual_cap(&mut self, cap: Option<PowerState>) {
        self.manual_cap = cap;
    }

    /// The current manual cap, if any.
    pub fn manual_cap(&self) -> Option<PowerState> {
        self.manual_cap
    }

    /// The last state reported by a station.
    pub fn last_reported(&self, station: StationId) -> Option<PowerState> {
        self.reported.get(&station).map(|&(_, s)| s)
    }

    /// The current report for a station: the civil date it was computed
    /// for and the state — what [`StateSync::report`]'s newest-date-wins
    /// rule has retained.
    pub fn current_report(&self, station: StationId) -> Option<(CivilDate, PowerState)> {
        self.reported.get(&station).copied()
    }

    /// Computes the override returned to `for_station`: the
    /// [`StateSync::pair_minimum`] of both stations' last reports, capped
    /// by the manual cap if one is set.
    pub fn override_for(&self, for_station: StationId) -> Option<PowerState> {
        let base = Self::pair_minimum(
            self.last_reported(for_station),
            self.last_reported(for_station.other()),
        )?;
        Some(match self.manual_cap {
            Some(cap) => base.min(cap),
            None => base,
        })
    }

    /// Full upload history (for experiment reporting).
    pub fn history(&self) -> &[(StationId, CivilDate, PowerState)] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glacsweb_sim::SimTime;

    fn date(d: u32) -> CivilDate {
        SimTime::from_ymd_hms(2009, 9, d, 12, 0, 0).date()
    }

    #[test]
    fn returns_the_lowest_of_both_states() {
        let mut s = StateSync::new();
        s.report(StationId::Base, date(22), PowerState::S3);
        s.report(StationId::Reference, date(22), PowerState::S2);
        assert_eq!(s.override_for(StationId::Base), Some(PowerState::S2));
        assert_eq!(s.override_for(StationId::Reference), Some(PowerState::S2));
    }

    #[test]
    fn no_override_until_both_report() {
        let mut s = StateSync::new();
        assert_eq!(s.override_for(StationId::Base), None);
        s.report(StationId::Base, date(22), PowerState::S3);
        assert_eq!(s.override_for(StationId::Base), None, "partner unknown");
        s.report(StationId::Reference, date(22), PowerState::S3);
        assert_eq!(s.override_for(StationId::Base), Some(PowerState::S3));
    }

    #[test]
    fn manual_cap_holds_stations_down() {
        // The Fig 5 situation: both stations healthy (state 3) but held in
        // state 2 from Southampton.
        let mut s = StateSync::new();
        s.report(StationId::Base, date(22), PowerState::S3);
        s.report(StationId::Reference, date(22), PowerState::S3);
        s.set_manual_cap(Some(PowerState::S2));
        assert_eq!(s.override_for(StationId::Base), Some(PowerState::S2));
        s.set_manual_cap(None);
        assert_eq!(s.override_for(StationId::Base), Some(PowerState::S3));
    }

    #[test]
    fn later_reports_supersede() {
        let mut s = StateSync::new();
        s.report(StationId::Base, date(22), PowerState::S3);
        s.report(StationId::Reference, date(22), PowerState::S3);
        s.report(StationId::Reference, date(23), PowerState::S1);
        assert_eq!(s.override_for(StationId::Base), Some(PowerState::S1));
        assert_eq!(s.history().len(), 3);
    }

    #[test]
    fn the_rules_keep_the_newest_date_and_wait_for_both_stations() {
        let kept = (date(23), PowerState::S2);
        assert_eq!(StateSync::newest(None, kept), kept);
        assert_eq!(
            StateSync::newest(Some(kept), (date(22), PowerState::S3)),
            kept,
            "an older date never clobbers"
        );
        let corrected = (date(23), PowerState::S1);
        assert_eq!(StateSync::newest(Some(kept), corrected), corrected);
        assert_eq!(StateSync::pair_minimum(Some(PowerState::S3), None), None);
        assert_eq!(StateSync::pair_minimum(None, Some(PowerState::S3)), None);
        assert_eq!(
            StateSync::pair_minimum(Some(PowerState::S3), Some(PowerState::S1)),
            Some(PowerState::S1)
        );
    }

    #[test]
    fn manual_cap_cannot_raise() {
        let mut s = StateSync::new();
        s.report(StationId::Base, date(22), PowerState::S1);
        s.report(StationId::Reference, date(22), PowerState::S1);
        s.set_manual_cap(Some(PowerState::S3));
        assert_eq!(
            s.override_for(StationId::Base),
            Some(PowerState::S1),
            "a cap is a minimum with, not a replacement of, reported states"
        );
    }
}
