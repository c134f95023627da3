//! Table II: the adaptive power states.

use std::fmt;

use glacsweb_sim::Volts;
use serde::{Deserialize, Serialize};

/// One of the four operating states of Table II.
///
/// | State | Min threshold | Probe jobs | Sensors | GPS | GPRS |
/// |---|---|---|---|---|---|
/// | 3 | 12.5 V | yes | yes | 12/day | yes |
/// | 2 | 12.0 V | yes | yes | 1/day | yes |
/// | 1 | 11.5 V | yes | yes | no | yes |
/// | 0 | — | yes | yes | no | no |
///
/// Probe jobs run in *every* state because "radio communication with the
/// probes is better in the winter due to the drier ice conditions so probe
/// communications should always be attempted", and MSP430 sensing "has
/// negligible cost" (§III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PowerState {
    /// Survival: sensing and probe jobs only; no GPS, no GPRS.
    S0,
    /// Communications restored, still no GPS.
    S1,
    /// One dGPS reading per day.
    S2,
    /// Full operation: twelve dGPS readings per day.
    S3,
}

impl PowerState {
    /// All states, lowest first.
    pub const ALL: [PowerState; 4] = [
        PowerState::S0,
        PowerState::S1,
        PowerState::S2,
        PowerState::S3,
    ];

    /// The numeric label used in the paper (0–3).
    pub fn level(self) -> u8 {
        match self {
            PowerState::S0 => 0,
            PowerState::S1 => 1,
            PowerState::S2 => 2,
            PowerState::S3 => 3,
        }
    }

    /// Inverse of [`PowerState::level`], for levels that exist.
    pub fn try_from_level(level: u8) -> Option<PowerState> {
        match level {
            0 => Some(PowerState::S0),
            1 => Some(PowerState::S1),
            2 => Some(PowerState::S2),
            3 => Some(PowerState::S3),
            _ => None,
        }
    }

    /// Inverse of [`PowerState::level`].
    ///
    /// # Panics
    ///
    /// Panics if `level > 3`; fallible callers (e.g. parsing a server
    /// override byte) should use [`PowerState::try_from_level`].
    pub fn from_level(level: u8) -> PowerState {
        match PowerState::try_from_level(level) {
            Some(state) => state,
            // glacsweb: allow(panic-freedom, reason = "Table II has exactly four states; a level > 3 from inside the workspace is a logic bug, and untrusted inputs go through try_from_level")
            None => panic!("no power state {level}"),
        }
    }

    /// Scheduled dGPS readings per day.
    pub fn gps_readings_per_day(self) -> u32 {
        match self {
            PowerState::S3 => 12,
            PowerState::S2 => 1,
            _ => 0,
        }
    }

    /// Whether the GPRS modem may be used.
    pub fn gprs_enabled(self) -> bool {
        self != PowerState::S0
    }

    /// Probe jobs are always attempted (Table II).
    pub fn probe_jobs(self) -> bool {
        true
    }

    /// MSP430 sensor readings always run (Table II).
    pub fn sensor_readings(self) -> bool {
        true
    }
}

impl fmt::Display for PowerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "state {}", self.level())
    }
}

/// The Table II threshold column plus the selection and clamping logic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyTable {
    /// Minimum daily-average voltage for state 3.
    pub s3_min: Volts,
    /// Minimum daily-average voltage for state 2.
    pub s2_min: Volts,
    /// Minimum daily-average voltage for state 1.
    pub s1_min: Volts,
}

impl PolicyTable {
    /// The thresholds exactly as published: 12.5 / 12.0 / 11.5 V.
    pub fn paper() -> Self {
        PolicyTable {
            s3_min: Volts(12.5),
            s2_min: Volts(12.0),
            s1_min: Volts(11.5),
        }
    }

    /// Selects the local state from a daily average voltage.
    pub fn state_for(&self, daily_average: Volts) -> PowerState {
        if daily_average >= self.s3_min {
            PowerState::S3
        } else if daily_average >= self.s2_min {
            PowerState::S2
        } else if daily_average >= self.s1_min {
            PowerState::S1
        } else {
            PowerState::S0
        }
    }

    /// Applies a server override to a locally computed state, with the
    /// paper's §III safeguards: the override can lower but never raise the
    /// state beyond "the battery voltage allows", and cannot force the
    /// station "into a state in which it does not do communications"
    /// (state 0).
    ///
    /// If the override fetch failed (`None`), the local state stands:
    /// "if the fetching of the over-ride state from the server fails for
    /// any reason then the system will just rely on its local state".
    pub fn apply_override(&self, local: PowerState, remote: Option<PowerState>) -> PowerState {
        let Some(remote) = remote else {
            return local;
        };
        if remote >= local {
            // Cannot be set higher than the battery allows.
            return local;
        }
        // Cannot be forced to state 0 (but a *local* 0 stands on its own).
        if remote == PowerState::S0 {
            return local.min(PowerState::S1);
        }
        remote
    }
}

impl Default for PolicyTable {
    fn default() -> Self {
        PolicyTable::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table2_rows() {
        for s in PowerState::ALL {
            assert!(s.probe_jobs(), "{s}: probe jobs always yes");
            assert!(s.sensor_readings(), "{s}: sensing always yes");
        }
        assert_eq!(PowerState::S3.gps_readings_per_day(), 12);
        assert_eq!(PowerState::S2.gps_readings_per_day(), 1);
        assert_eq!(PowerState::S1.gps_readings_per_day(), 0);
        assert_eq!(PowerState::S0.gps_readings_per_day(), 0);
        assert!(PowerState::S3.gprs_enabled());
        assert!(PowerState::S1.gprs_enabled());
        assert!(!PowerState::S0.gprs_enabled());
    }

    #[test]
    fn thresholds_select_states() {
        let p = PolicyTable::paper();
        assert_eq!(p.state_for(Volts(13.2)), PowerState::S3);
        assert_eq!(
            p.state_for(Volts(12.5)),
            PowerState::S3,
            "inclusive boundary"
        );
        assert_eq!(p.state_for(Volts(12.49)), PowerState::S2);
        assert_eq!(p.state_for(Volts(12.0)), PowerState::S2);
        assert_eq!(p.state_for(Volts(11.7)), PowerState::S1);
        assert_eq!(p.state_for(Volts(11.5)), PowerState::S1);
        assert_eq!(p.state_for(Volts(11.49)), PowerState::S0);
        assert_eq!(p.state_for(Volts(9.0)), PowerState::S0);
    }

    #[test]
    fn override_lowers_but_never_raises() {
        let p = PolicyTable::paper();
        // Fig 5's situation: battery good for state 3, server holds it at 2.
        assert_eq!(
            p.apply_override(PowerState::S3, Some(PowerState::S2)),
            PowerState::S2
        );
        // Server asking for a higher state than the battery allows: denied.
        assert_eq!(
            p.apply_override(PowerState::S1, Some(PowerState::S3)),
            PowerState::S1
        );
    }

    #[test]
    fn override_cannot_force_state_zero() {
        let p = PolicyTable::paper();
        assert_eq!(
            p.apply_override(PowerState::S3, Some(PowerState::S0)),
            PowerState::S1,
            "remote zero clamps to 1 so communications continue"
        );
        // But a local zero (dead battery) stands.
        assert_eq!(
            p.apply_override(PowerState::S0, Some(PowerState::S0)),
            PowerState::S0
        );
    }

    #[test]
    fn failed_fetch_falls_back_to_local() {
        let p = PolicyTable::paper();
        for s in PowerState::ALL {
            assert_eq!(p.apply_override(s, None), s);
        }
    }

    #[test]
    fn level_round_trip() {
        for s in PowerState::ALL {
            assert_eq!(PowerState::from_level(s.level()), s);
        }
        assert_eq!(PowerState::S2.to_string(), "state 2");
    }

    #[test]
    #[should_panic(expected = "no power state 4")]
    fn bad_level_panics() {
        let _ = PowerState::from_level(4);
    }

    proptest! {
        /// The selected state is monotone in voltage.
        #[test]
        fn policy_is_monotone(v1 in 9.0f64..15.0, v2 in 9.0f64..15.0) {
            let p = PolicyTable::paper();
            let (lo, hi) = if v1 <= v2 { (v1, v2) } else { (v2, v1) };
            prop_assert!(p.state_for(Volts(lo)) <= p.state_for(Volts(hi)));
        }

        /// The override result never exceeds the local state and is never
        /// a remote-forced zero.
        #[test]
        fn override_invariants(local in 0u8..4, remote in proptest::option::of(0u8..4)) {
            let p = PolicyTable::paper();
            let local = PowerState::from_level(local);
            let remote = remote.map(PowerState::from_level);
            let eff = p.apply_override(local, remote);
            prop_assert!(eff <= local);
            if eff == PowerState::S0 {
                prop_assert_eq!(local, PowerState::S0, "zero only if locally zero");
            }
        }
    }
}
