//! The station's wide-area uplink.
//!
//! The paper's §II weighs two architectures: independent per-station GPRS
//! (deployed) versus the Norway-style relay, where the base station
//! reaches the internet through a 466 MHz PPP link to the reference
//! station. [`Wan`] is the closed choice between the two, fixed at
//! deployment, so the station controller is identical either way — which
//! is precisely the property that made the architecture swap a deployment
//! decision rather than a rewrite.

use glacsweb_obs::{Event, Origin, Recorder};
use glacsweb_sim::{BitsPerSecond, Bytes, SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::gprs::{GprsLink, TransferOutcome};
use crate::ppp::{DisconnectReason, PppRadioLink};

/// A wide-area uplink a station can move its daily data over: one of the
/// paper's two §II architectures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Wan {
    /// Independent per-station GPRS (the deployed architecture).
    Gprs(GprsLink),
    /// The Norway-style PPP relay through the reference station.
    Relay(RelayWanLink),
}

impl Wan {
    /// Short name for logs, and the power-rail load the modem draws from
    /// (`"gprs"` or `"radio_modem"`).
    pub fn label(&self) -> &'static str {
        match self {
            Wan::Gprs(_) => "gprs",
            Wan::Relay(_) => "radio_modem",
        }
    }

    /// Useful throughput once connected.
    pub fn rate(&self) -> BitsPerSecond {
        match self {
            Wan::Gprs(link) => link.config().rate,
            Wan::Relay(link) => link.ppp.rate(),
        }
    }

    /// `true` while a session is up.
    pub fn is_connected(&self) -> bool {
        match self {
            Wan::Gprs(link) => link.is_connected(),
            Wan::Relay(link) => link.connected,
        }
    }

    /// Attach attempt with a weather multiplier; `Ok(setup time)` or
    /// `Err(time wasted)`.
    #[allow(clippy::result_large_err)]
    pub fn connect_weathered(
        &mut self,
        weather_multiplier: f64,
        rng: &mut SimRng,
    ) -> Result<SimDuration, SimDuration> {
        match self {
            Wan::Gprs(link) => link.connect_weathered(weather_multiplier, rng),
            Wan::Relay(link) => link.connect_weathered(weather_multiplier, rng),
        }
    }

    /// Transfers up to `size` within `budget`; may drop mid-transfer.
    pub fn transfer(
        &mut self,
        size: Bytes,
        budget: SimDuration,
        rng: &mut SimRng,
    ) -> TransferOutcome {
        match self {
            Wan::Gprs(link) => link.transfer(size, budget, rng),
            Wan::Relay(link) => link.transfer(size, budget, rng),
        }
    }

    /// Cleanly closes the session.
    pub fn disconnect(&mut self) {
        match self {
            Wan::Gprs(link) => link.disconnect(),
            Wan::Relay(link) => link.connected = false,
        }
    }

    /// Informs the link of the wall clock: PPP interference follows local
    /// activity; GPRS ignores it.
    pub fn advance_clock(&mut self, t: SimTime) {
        if let Wan::Relay(link) = self {
            link.now = link.now.max(t);
        }
    }

    /// Informs the link whether the partner station is up (the §II
    /// failure-coupling: "if the reference station failed in any way then
    /// all communication with the base station would also cease"). GPRS
    /// ignores it.
    pub fn set_partner_up(&mut self, up: bool) {
        if let Wan::Relay(link) = self {
            link.partner_up = up;
            if !up {
                link.connected = false;
            }
        }
    }

    /// [`connect_weathered`](Self::connect_weathered) plus telemetry:
    /// attach counters, a setup-time histogram, and a `wan_attach` event
    /// carrying the outcome. Identical link behaviour — the recorder
    /// only watches.
    #[allow(clippy::result_large_err)]
    pub fn connect_observed(
        &mut self,
        weather_multiplier: f64,
        rng: &mut SimRng,
        at: SimTime,
        origin: Origin,
        obs: &mut dyn Recorder,
    ) -> Result<SimDuration, SimDuration> {
        let result = self.connect_weathered(weather_multiplier, rng);
        if obs.enabled() {
            obs.counter(at, origin, "attach_attempts", 1);
            let (ok, spent) = match &result {
                Ok(d) => (true, *d),
                Err(d) => (false, *d),
            };
            if !ok {
                obs.counter(at, origin, "attach_failures", 1);
            }
            obs.observe(origin, "attach_secs", spent.as_secs());
            obs.event(
                Event::new(at, origin, "wan_attach")
                    .with("link", self.label())
                    .with("ok", ok)
                    .with("spent_secs", spent.as_secs()),
            );
        }
        result
    }
}

/// The Norway-style relay uplink: PPP over the long-range radio modem to
/// the reference station, which forwards to the internet.
///
/// # Example
///
/// ```
/// use glacsweb_link::{RelayWanLink, Wan};
/// use glacsweb_sim::{Bytes, SimDuration, SimRng, SimTime};
///
/// let mut wan = Wan::Relay(RelayWanLink::new());
/// wan.advance_clock(SimTime::from_ymd_hms(2008, 5, 1, 12, 0, 0));
/// wan.set_partner_up(true);
/// let mut rng = SimRng::seed_from(1);
/// if wan.connect_weathered(1.0, &mut rng).is_ok() {
///     let out = wan.transfer(Bytes::from_kib(10), SimDuration::from_mins(30), &mut rng);
///     assert!(out.sent.value() > 0);
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelayWanLink {
    ppp: PppRadioLink,
    now: SimTime,
    partner_up: bool,
    connected: bool,
    dial_time: SimDuration,
    dial_failure_p: f64,
    sessions: u64,
    failed_dials: u64,
}

impl RelayWanLink {
    /// Creates the relay link with glacier-profile interference.
    pub fn new() -> Self {
        RelayWanLink {
            ppp: PppRadioLink::glacier(),
            now: SimTime::EPOCH,
            partner_up: true,
            connected: false,
            dial_time: SimDuration::from_secs(30),
            dial_failure_p: 0.15,
            sessions: 0,
            failed_dials: 0,
        }
    }

    /// (sessions dialled, failed dials) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.sessions, self.failed_dials)
    }

    /// Dials the reference station.
    #[allow(clippy::result_large_err)]
    fn connect_weathered(
        &mut self,
        weather_multiplier: f64,
        rng: &mut SimRng,
    ) -> Result<SimDuration, SimDuration> {
        assert!(!self.connected, "already connected");
        self.sessions += 1;
        if !self.partner_up {
            // The café end is dead: no amount of dialling helps.
            self.failed_dials += 1;
            return Err(self.dial_time);
        }
        let p = (self.dial_failure_p * weather_multiplier).min(0.95);
        if rng.bernoulli(p) {
            self.failed_dials += 1;
            return Err(self.dial_time);
        }
        self.connected = true;
        Ok(self.dial_time)
    }

    /// Moves data over the PPP hop while the partner is up.
    fn transfer(&mut self, size: Bytes, budget: SimDuration, rng: &mut SimRng) -> TransferOutcome {
        assert!(self.connected, "transfer on a down link");
        if !self.partner_up {
            self.connected = false;
            return TransferOutcome {
                sent: Bytes::ZERO,
                elapsed: SimDuration::ZERO,
                dropped: true,
            };
        }
        let (sent, elapsed, reason) = self.ppp.transfer(size, self.now, budget, rng);
        self.now += elapsed;
        let dropped = reason == DisconnectReason::Interference;
        if dropped {
            self.connected = false;
        }
        TransferOutcome {
            sent,
            elapsed,
            dropped,
        }
    }
}

impl Default for RelayWanLink {
    fn default() -> Self {
        RelayWanLink::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gprs::GprsConfig;

    fn noon() -> SimTime {
        SimTime::from_ymd_hms(2008, 5, 1, 12, 0, 0)
    }

    #[test]
    fn gprs_dispatches_through_the_enum() {
        let mut wan = Wan::Gprs(GprsLink::try_new(GprsConfig::ideal()).unwrap());
        assert_eq!(wan.label(), "gprs");
        assert_eq!(wan.rate().value(), 5000);
        let mut rng = SimRng::seed_from(1);
        wan.connect_weathered(1.0, &mut rng)
            .expect("ideal attaches");
        let out = wan.transfer(Bytes::from_kib(10), SimDuration::from_mins(10), &mut rng);
        assert!(out.complete(Bytes::from_kib(10)));
        wan.disconnect();
        assert!(!wan.is_connected());
    }

    #[test]
    fn relay_moves_data_while_the_partner_is_up() {
        let mut wan = Wan::Relay(RelayWanLink::new());
        wan.advance_clock(noon());
        wan.set_partner_up(true);
        let mut rng = SimRng::seed_from(2);
        let mut delivered = Bytes::ZERO;
        let target = Bytes::from_kib(100);
        for _ in 0..50 {
            if !wan.is_connected() && wan.connect_weathered(1.0, &mut rng).is_err() {
                continue;
            }
            let out = wan.transfer(
                target.saturating_sub(delivered),
                SimDuration::from_mins(60),
                &mut rng,
            );
            delivered += out.sent;
            if delivered >= target {
                break;
            }
        }
        assert_eq!(delivered, target, "resume over drops eventually finishes");
    }

    #[test]
    fn dead_partner_kills_the_relay_entirely() {
        let mut wan = Wan::Relay(RelayWanLink::new());
        wan.advance_clock(noon());
        wan.set_partner_up(false);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..20 {
            assert!(
                wan.connect_weathered(1.0, &mut rng).is_err(),
                "no dial succeeds"
            );
        }
        let Wan::Relay(link) = &wan else {
            unreachable!("built as a relay")
        };
        let (sessions, failed) = link.stats();
        assert_eq!(sessions, failed);
    }

    #[test]
    fn partner_death_mid_session_drops_it() {
        let mut wan = Wan::Relay(RelayWanLink::new());
        wan.advance_clock(noon());
        wan.set_partner_up(true);
        let mut rng = SimRng::seed_from(4);
        while wan.connect_weathered(1.0, &mut rng).is_err() {}
        assert!(wan.is_connected());
        wan.set_partner_up(false);
        assert!(!wan.is_connected(), "session dies with the partner");
    }

    #[test]
    fn observed_attach_matches_plain_and_records_outcomes() {
        use glacsweb_obs::MemoryRecorder;
        let cfg = GprsConfig::field();
        let origin = Origin::new("gprs", "base");
        let mut plain = GprsLink::try_new(cfg.clone()).unwrap();
        let mut observed = Wan::Gprs(GprsLink::try_new(cfg).unwrap());
        let mut rng_a = SimRng::seed_from(12);
        let mut rng_b = SimRng::seed_from(12);
        let mut obs = MemoryRecorder::default();
        let mut failures = 0u64;
        for i in 0..20 {
            let t = noon() + SimDuration::from_mins(i);
            let a = plain.connect_weathered(2.0, &mut rng_a);
            let b = observed.connect_observed(2.0, &mut rng_b, t, origin, &mut obs);
            assert_eq!(a, b, "telemetry must not change link behaviour");
            if b.is_err() {
                failures += 1;
            } else {
                observed.disconnect();
                plain.disconnect();
            }
        }
        assert_eq!(obs.counter_value(origin, "attach_attempts"), 20);
        assert_eq!(obs.counter_value(origin, "attach_failures"), failures);
        assert!(failures > 0, "field config fails sometimes at 2x weather");
        assert_eq!(obs.events().len(), 20);
    }

    #[test]
    fn relay_is_slower_than_gprs() {
        let wan = Wan::Relay(RelayWanLink::new());
        assert_eq!(wan.rate().value(), 2000);
        assert_eq!(wan.label(), "radio_modem");
    }
}
