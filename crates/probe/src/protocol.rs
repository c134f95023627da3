//! The reading-retrieval protocols.
//!
//! The paper's base station "used a new technique, avoiding acknowledge
//! packets": the probe streams readings without per-packet ACKs, the base
//! "records missing or broken data packets then later requests individual
//! readings which were missed, unless there were so many that it would be
//! as efficient to request them all again" (§V). [`FetchSession`] is that
//! protocol; [`AckFetchSession`] is the classic stop-and-wait alternative
//! used as the ablation baseline (experiment E12).
//!
//! §V also records a field failure: "Fetching that many individual
//! readings was never considered in the testing phase and the process
//! could fail." [`ProtocolConfig::individual_fetch_limit`] reproduces that
//! bug when set; the fixed firmware chunks the requests instead.

use glacsweb_link::{LossModel, ProbeRadioLink};
use glacsweb_obs::{NullRecorder, Scope};
use glacsweb_sim::{ConfigError, SimDuration, SimRng};
use serde::{Deserialize, Serialize};

use crate::firmware::{ProbeFirmware, ProbeId};
use crate::reading::ProbeReading;
use crate::seqruns::SeqRuns;

/// Query/manifest handshake attempts per session before declaring the
/// probe unreachable — the base retries a lost query within the window
/// rather than wasting the whole day.
const HANDSHAKE_RETRIES: u32 = 5;

/// Tuning knobs of the NACK protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// If the fraction of wanted readings still missing after a bulk
    /// stream exceeds this, the next round re-requests everything rather
    /// than fetching readings one at a time.
    pub rerequest_all_threshold: f64,
    /// `Some(limit)`: reproduce the deployed code's failure when more than
    /// `limit` individual fetches are attempted in one session (§V).
    /// `None`: the fixed behaviour (chunked individual fetches).
    pub individual_fetch_limit: Option<usize>,
    /// Safety bound on protocol rounds per session.
    pub max_rounds: u32,
}

impl ProtocolConfig {
    /// The behaviour as deployed in 2008, including the individual-fetch
    /// failure mode discovered in the field.
    pub fn deployed_2008() -> Self {
        ProtocolConfig {
            rerequest_all_threshold: 0.5,
            individual_fetch_limit: Some(300),
            max_rounds: 6,
        }
    }

    /// The post-lessons-learnt behaviour: no individual-fetch limit.
    pub fn fixed() -> Self {
        ProtocolConfig {
            individual_fetch_limit: None,
            ..ProtocolConfig::deployed_2008()
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.rerequest_all_threshold) {
            return Err(ConfigError::new(
                "protocol",
                "rerequest_all_threshold",
                // glacsweb: allow(perf-hygiene, reason = "validate() error path; runs once at construction, never per session")
                format!("threshold {} not a fraction", self.rerequest_all_threshold),
            ));
        }
        if self.max_rounds == 0 {
            return Err(ConfigError::new(
                "protocol",
                "max_rounds",
                "max_rounds must be non-zero",
            ));
        }
        if self.individual_fetch_limit == Some(0) {
            return Err(ConfigError::new(
                "protocol",
                "individual_fetch_limit",
                "a zero limit aborts every session that enters the individual \
                 phase with anything missing; use None for no limit",
            ));
        }
        Ok(())
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig::fixed()
    }
}

/// Result of one daily fetch session against one probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FetchOutcome {
    /// Readings newly received this session.
    pub new_readings: usize,
    /// Wanted readings still missing when the session ended.
    pub missing_after: usize,
    /// Readings still missing right after the first no-ACK bulk stream of
    /// this session — the paper's "400 missed packets" figure, before any
    /// NACK recovery ran.
    pub missing_after_bulk: usize,
    /// `true` once every available reading has been received and the
    /// probe's buffer confirmed free.
    pub complete: bool,
    /// Air/processing time consumed.
    pub elapsed: SimDuration,
    /// Packets transmitted in either direction.
    pub packets: u64,
    /// `true` if the session hit the deployed code's individual-fetch
    /// failure (§V) and aborted.
    pub aborted: bool,
    /// `true` if the probe never answered (dead, or the query was lost).
    pub no_contact: bool,
}

/// Base-station-side state of the NACK protocol for one probe.
///
/// Persists across days: an incomplete fetch resumes tomorrow, which is
/// how the paper's 400 missing readings "were obtained in subsequent
/// days".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FetchSession {
    probe_id: ProbeId,
    config: ProtocolConfig,
    received_seqs: SeqRuns,
    delivered: Vec<ProbeReading>,
    sessions_run: u64,
    total_packets: u64,
    /// The want-list of the session in progress, kept between sessions
    /// so a daily fetch reuses its buffer. Derived state: empty between
    /// sessions, never on the wire and invisible to equality.
    #[serde(skip)]
    want_scratch: Vec<u64>,
}

// Equality is hand-written to leave out the want-list scratch.
impl PartialEq for FetchSession {
    fn eq(&self, other: &Self) -> bool {
        self.probe_id == other.probe_id
            && self.config == other.config
            && self.received_seqs == other.received_seqs
            && self.delivered == other.delivered
            && self.sessions_run == other.sessions_run
            && self.total_packets == other.total_packets
    }
}

impl FetchSession {
    /// Creates the per-probe protocol state.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(probe_id: ProbeId, config: ProtocolConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid protocol config: {e}");
        }
        FetchSession {
            probe_id,
            config,
            received_seqs: SeqRuns::new(),
            delivered: Vec::new(),
            sessions_run: 0,
            total_packets: 0,
            want_scratch: Vec::new(),
        }
    }

    /// The probe this state tracks.
    pub fn probe_id(&self) -> ProbeId {
        self.probe_id
    }

    /// Total packets over the protocol's life.
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }

    /// Readings received and not yet handed to the data store, in one
    /// exactly-sized vector; the session keeps its own buffer for
    /// tomorrow.
    pub fn drain_delivered(&mut self) -> Vec<ProbeReading> {
        self.delivered.drain(..).collect()
    }

    /// Runs one daily session within `budget` at per-packet loss `loss_p`
    /// (independent losses).
    pub fn run(
        &mut self,
        probe: &mut ProbeFirmware,
        link: &ProbeRadioLink,
        loss_p: f64,
        budget: SimDuration,
        rng: &mut SimRng,
    ) -> FetchOutcome {
        let mut model = LossModel::bernoulli(loss_p);
        self.run_with_model(probe, link, &mut model, budget, rng)
    }

    /// [`run`](Self::run) with per-round NACK progress recorded through
    /// `scope`: bulk rounds and their misses, individual fetch counts,
    /// aborts, and session/packet counters. The protocol itself is
    /// unchanged — the recorder only watches.
    pub fn run_observed(
        &mut self,
        probe: &mut ProbeFirmware,
        link: &ProbeRadioLink,
        loss_p: f64,
        budget: SimDuration,
        rng: &mut SimRng,
        scope: &mut Scope<'_>,
    ) -> FetchOutcome {
        let mut model = LossModel::bernoulli(loss_p);
        self.run_with_model_observed(probe, link, &mut model, budget, rng, scope)
    }

    /// Runs one daily session with an explicit loss model — used to study
    /// how bursty through-ice fading (melt channels opening and closing)
    /// affects the NACK design versus independent loss.
    pub fn run_with_model(
        &mut self,
        probe: &mut ProbeFirmware,
        link: &ProbeRadioLink,
        loss: &mut LossModel,
        budget: SimDuration,
        rng: &mut SimRng,
    ) -> FetchOutcome {
        let mut null = NullRecorder;
        let mut scope = Scope::null(&mut null);
        self.run_with_model_observed(probe, link, loss, budget, rng, &mut scope)
    }

    /// [`run_with_model`](Self::run_with_model) plus telemetry (see
    /// [`run_observed`](Self::run_observed)).
    fn run_with_model_observed(
        &mut self,
        probe: &mut ProbeFirmware,
        link: &ProbeRadioLink,
        loss: &mut LossModel,
        budget: SimDuration,
        rng: &mut SimRng,
        scope: &mut Scope<'_>,
    ) -> FetchOutcome {
        self.sessions_run += 1;
        scope.counter("fetch_sessions", 1);
        let mut elapsed = SimDuration::ZERO;
        let mut packets = 0u64;
        let before = self.received_seqs.len();

        let done = |s: &mut Self,
                    elapsed: SimDuration,
                    packets: u64,
                    missing: usize,
                    missing_after_bulk: usize,
                    complete: bool,
                    aborted: bool,
                    no_contact: bool| {
            s.total_packets += packets;
            FetchOutcome {
                new_readings: s.received_seqs.len() - before,
                missing_after: missing,
                missing_after_bulk,
                complete,
                elapsed,
                packets,
                aborted,
                no_contact,
            }
        };

        // 1. QUERY + MANIFEST exchange (one packet each way, both lossy),
        // retried a few times within the session.
        let mut manifest = None;
        for _ in 0..HANDSHAKE_RETRIES {
            elapsed += link.packet_time() * 2;
            packets += 2;
            let q_lost = loss.next_lost(rng);
            let m_lost = loss.next_lost(rng);
            if !q_lost && !m_lost {
                manifest = probe.manifest();
                break;
            }
            if elapsed >= budget {
                break;
            }
        }
        let Some((first, last)) = manifest else {
            scope.counter("fetch_no_contact", 1);
            scope.counter("protocol_packets", packets);
            return done(self, elapsed, packets, 0, 0, false, false, true);
        };

        // 2. Compute the want-list: everything in range not yet received.
        let mut want = std::mem::take(&mut self.want_scratch);
        want.clear();
        want.extend((first..=last).filter(|&s| !self.received_seqs.contains(s)));
        if want.is_empty() {
            // Nothing new; (re-)confirm so the probe can free its buffer.
            elapsed += link.packet_time();
            packets += 1;
            if !loss.next_lost(rng) {
                probe.confirm_complete_up_to(last);
            }
            scope.counter("fetch_complete", 1);
            scope.counter("protocol_packets", packets);
            self.want_scratch = want;
            return done(self, elapsed, packets, 0, 0, true, false, false);
        }

        let total_wanted = want.len();
        let mut bulk_phase = true;
        let mut first_bulk_done = false;
        let mut missing_after_bulk = total_wanted;
        for _round in 0..self.config.max_rounds {
            if want.is_empty() {
                break;
            }
            let remaining_budget = budget.saturating_sub(elapsed);
            if remaining_budget == SimDuration::ZERO {
                break;
            }

            if bulk_phase {
                // Bulk stream without ACKs: probe sends every wanted seq
                // it still holds; the radio decides, packet by packet,
                // which arrive.
                let fit =
                    (remaining_budget.as_secs() / link.packet_time().as_secs().max(1)) as usize;
                let n = want.len().min(fit.max(1));
                let mut sent = 0;
                for reading in want.iter().take(n).filter_map(|&s| probe.reading(s)) {
                    sent += 1;
                    if !loss.next_lost(rng) && self.received_seqs.insert(reading.seq) {
                        self.delivered.push(reading);
                    }
                }
                elapsed += link.batch_time(sent) + link.packet_time(); // + the request packet
                packets += sent as u64 + 1;
                want.retain(|&s| !self.received_seqs.contains(s));
                if !first_bulk_done {
                    first_bulk_done = true;
                    missing_after_bulk = want.len();
                    scope.counter("bulk_misses", missing_after_bulk as u64);
                }
                if scope.enabled() {
                    let event = scope
                        .make("bulk_round")
                        .with("probe", self.probe_id)
                        .with("sent", n)
                        .with("missing", want.len());
                    scope.emit(event);
                }
                // Decide the next phase exactly as §V describes.
                let missing_fraction = want.len() as f64 / total_wanted as f64;
                if missing_fraction <= self.config.rerequest_all_threshold {
                    bulk_phase = false;
                }
            } else {
                // Individual NACK fetches: request + response per reading.
                if let Some(limit) = self.config.individual_fetch_limit {
                    if want.len() > limit {
                        // The deployed code path fell over here (§V).
                        scope.counter("fetch_aborts", 1);
                        scope.counter("protocol_packets", packets);
                        if scope.enabled() {
                            let event = scope
                                .make("fetch_abort")
                                .with("probe", self.probe_id)
                                .with("pending", want.len())
                                .with("limit", limit);
                            scope.emit(event);
                        }
                        let pending = want.len();
                        self.want_scratch = want;
                        return done(
                            self,
                            elapsed,
                            packets,
                            pending,
                            missing_after_bulk,
                            false,
                            true,
                            false,
                        );
                    }
                }
                let per_fetch = link.packet_time() * 2;
                let fit = (remaining_budget.as_secs() / per_fetch.as_secs().max(1)) as usize;
                // The first `chunk` wanted seqs, in order, until the budget
                // runs out; a fetched or overwritten seq leaves the list.
                let chunk = want.len().min(fit.max(1));
                scope.counter("individual_fetches", chunk as u64);
                let (mut tried, mut out_of_time) = (0, false);
                want.retain(|&seq| {
                    if out_of_time || tried == chunk {
                        return true;
                    }
                    tried += 1;
                    elapsed += per_fetch;
                    packets += 2;
                    if loss.next_lost(rng) {
                        let _ = loss.next_lost(rng); // the response slot still burns channel state
                        return true; // request lost
                    }
                    let Some(reading) = probe.reading(seq) else {
                        // Overwritten on the probe; give up on this seq.
                        return false;
                    };
                    let fetched = !loss.next_lost(rng) && self.received_seqs.insert(reading.seq);
                    if fetched {
                        self.delivered.push(reading);
                    }
                    out_of_time = elapsed >= budget;
                    !fetched
                });
            }
        }

        let complete = want.is_empty();
        if complete {
            // COMPLETE notification; loss only delays the probe freeing
            // its buffer (safe direction).
            elapsed += link.packet_time();
            packets += 1;
            if !loss.next_lost(rng) {
                probe.confirm_complete_up_to(last);
            }
            scope.counter("fetch_complete", 1);
        }
        scope.counter("protocol_packets", packets);
        let missing = want.len();
        self.want_scratch = want;
        done(
            self,
            elapsed,
            packets,
            missing,
            missing_after_bulk,
            complete,
            false,
            false,
        )
    }
}

/// The stop-and-wait ACK baseline: request, data, ACK for every reading,
/// with bounded retransmissions. Used only for the E12 protocol ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AckFetchSession {
    probe_id: ProbeId,
    max_retries: u32,
    received_seqs: SeqRuns,
    delivered: Vec<ProbeReading>,
    total_packets: u64,
}

impl AckFetchSession {
    /// Creates the baseline with the given per-reading retry bound.
    pub fn new(probe_id: ProbeId, max_retries: u32) -> Self {
        AckFetchSession {
            probe_id,
            max_retries,
            received_seqs: SeqRuns::new(),
            delivered: Vec::new(),
            total_packets: 0,
        }
    }

    /// Total packets over the protocol's life.
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }

    /// Readings received and not yet handed to the data store.
    pub fn drain_delivered(&mut self) -> Vec<ProbeReading> {
        std::mem::take(&mut self.delivered)
    }

    /// Runs one session within `budget`.
    pub fn run(
        &mut self,
        probe: &mut ProbeFirmware,
        link: &ProbeRadioLink,
        loss_p: f64,
        budget: SimDuration,
        rng: &mut SimRng,
    ) -> FetchOutcome {
        let mut elapsed = SimDuration::ZERO;
        let mut packets = 0u64;
        let before = self.received_seqs.len();
        let mut manifest = None;
        for _ in 0..HANDSHAKE_RETRIES {
            elapsed += link.packet_time() * 2;
            packets += 2;
            if !rng.bernoulli(loss_p) && !rng.bernoulli(loss_p) {
                manifest = probe.manifest();
                break;
            }
            if elapsed >= budget {
                break;
            }
        }
        let Some((first, last)) = manifest else {
            self.total_packets += packets;
            return FetchOutcome {
                new_readings: 0,
                missing_after: 0,
                missing_after_bulk: 0,
                complete: false,
                elapsed,
                packets,
                aborted: false,
                no_contact: true,
            };
        };
        let want: Vec<u64> = (first..=last)
            .filter(|&s| !self.received_seqs.contains(s))
            .collect();
        let mut missing = 0usize;
        for seq in &want {
            if elapsed >= budget {
                missing += 1;
                continue;
            }
            let mut got = false;
            for _attempt in 0..=self.max_retries {
                // request + data + ack = 3 packets per attempt.
                elapsed += link.packet_time() * 3;
                packets += 3;
                if rng.bernoulli(loss_p) {
                    continue; // request lost
                }
                let Some(reading) = probe.reading(*seq) else {
                    got = true; // overwritten: nothing to fetch
                    break;
                };
                if rng.bernoulli(loss_p) {
                    continue; // data lost
                }
                // ACK loss causes a duplicate data send next attempt, but
                // the base has the reading either way.
                if self.received_seqs.insert(reading.seq) {
                    self.delivered.push(reading);
                }
                got = true;
                if !rng.bernoulli(loss_p) {
                    break; // ack arrived; probe moves on
                }
            }
            if !got {
                missing += 1;
            }
        }
        let complete = missing == 0;
        if complete {
            elapsed += link.packet_time();
            packets += 1;
            if !rng.bernoulli(loss_p) {
                probe.confirm_complete_up_to(last);
            }
        }
        self.total_packets += packets;
        FetchOutcome {
            new_readings: self.received_seqs.len() - before,
            missing_after: missing,
            missing_after_bulk: missing,
            complete,
            elapsed,
            packets,
            aborted: false,
            no_contact: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glacsweb_env::{EnvConfig, Environment};
    use glacsweb_sim::SimTime;

    /// Builds a probe with `n` hourly readings buffered.
    fn probe_with_backlog(n: u64) -> (ProbeFirmware, SimRng) {
        let mut rng = SimRng::seed_from(70);
        let mut t = SimTime::from_ymd_hms(2009, 3, 1, 0, 0, 0);
        let mut env = Environment::new(EnvConfig::vatnajokull(), 5);
        env.advance_to(t);
        let mut probe = ProbeFirmware::deploy(21, t, &mut rng);
        for _ in 0..n {
            t += glacsweb_sim::SimDuration::from_hours(1);
            env.advance_to(t);
            probe.sample(&env, t, &mut rng);
        }
        (probe, rng)
    }

    fn generous_budget() -> SimDuration {
        SimDuration::from_hours(6)
    }

    #[test]
    fn clean_link_fetches_everything_in_one_session() {
        let (mut probe, mut rng) = probe_with_backlog(500);
        let link = ProbeRadioLink::new();
        let mut session = FetchSession::new(21, ProtocolConfig::fixed());
        let out = session.run(&mut probe, &link, 0.0, generous_budget(), &mut rng);
        assert!(out.complete);
        assert_eq!(out.new_readings, 500);
        assert_eq!(out.missing_after, 0);
        assert_eq!(probe.stored_readings(), 0, "probe freed after confirm");
        assert_eq!(session.drain_delivered().len(), 500);
    }

    #[test]
    fn summer_loss_leaves_missing_then_recovers_across_days() {
        // The §V scenario: 3000 readings across the wet summer link,
        // ~400 missed in the bulk stream, recovered in subsequent days.
        let (mut probe, mut rng) = probe_with_backlog(3000);
        let link = ProbeRadioLink::new();
        let mut session = FetchSession::new(21, ProtocolConfig::fixed());
        let loss = 0.134;

        let day1 = session.run(&mut probe, &link, loss, generous_budget(), &mut rng);
        assert!(
            day1.new_readings > 2400,
            "bulk stream delivers most readings: {}",
            day1.new_readings
        );

        let mut days = 1;
        let mut complete = day1.complete;
        while !complete && days < 10 {
            let out = session.run(&mut probe, &link, loss, generous_budget(), &mut rng);
            complete = out.complete;
            days += 1;
        }
        assert!(complete, "recovered after {days} days");
        assert!(days >= 1);
        let all = session.drain_delivered();
        assert_eq!(
            all.len(),
            3000,
            "every reading eventually arrives exactly once"
        );
        let mut seqs: Vec<u64> = all.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 3000, "no duplicates");
    }

    #[test]
    fn deployed_config_reproduces_the_field_failure() {
        // §V: "Fetching that many individual readings was never considered
        // in the testing phase and the process could fail." With 3000
        // readings at 13 % loss, ~400 misses exceed the 300-fetch limit
        // once the protocol enters the individual phase.
        let (mut probe, mut rng) = probe_with_backlog(3000);
        let link = ProbeRadioLink::new();
        let mut session = FetchSession::new(21, ProtocolConfig::deployed_2008());
        let out = session.run(&mut probe, &link, 0.134, generous_budget(), &mut rng);
        assert!(
            out.aborted,
            "deployed code aborts on ~400 individual fetches"
        );
        assert!(!out.complete);
        // The save: nothing was confirmed, so the probe still holds all
        // 3000 readings for subsequent days.
        assert_eq!(probe.stored_readings(), 3000);
        // And the fixed config, resuming from the same base state,
        // eventually completes.
        let mut fixed = FetchSession::new(21, ProtocolConfig::fixed());
        let mut complete = false;
        for _ in 0..10 {
            if fixed
                .run(&mut probe, &link, 0.134, generous_budget(), &mut rng)
                .complete
            {
                complete = true;
                break;
            }
        }
        assert!(complete);
    }

    #[test]
    fn heavy_loss_triggers_rerequest_all_not_individuals() {
        // At 60 % loss the first bulk round leaves >50 % missing, so the
        // protocol re-requests in bulk ("as efficient to request them all
        // again") instead of falling into thousands of individual fetches.
        let (mut probe, mut rng) = probe_with_backlog(1000);
        let link = ProbeRadioLink::new();
        // Keep re-requesting in bulk until only 30 % is missing, so the
        // individual phase starts well under the 300-fetch limit — the
        // §V design intent.
        let config = ProtocolConfig {
            rerequest_all_threshold: 0.3,
            individual_fetch_limit: Some(300),
            max_rounds: 6,
        };
        let mut session = FetchSession::new(21, config);
        // At 60 % loss the QUERY/MANIFEST handshake itself often fails;
        // run daily sessions as the field system would.
        let mut delivered = 0usize;
        for _ in 0..30 {
            let out = session.run(&mut probe, &link, 0.6, generous_budget(), &mut rng);
            assert!(
                !out.aborted,
                "bulk re-request avoids the individual-fetch bug"
            );
            delivered += out.new_readings;
            if out.complete {
                break;
            }
        }
        assert!(delivered > 300, "bulk rounds deliver data: {delivered}");
    }

    #[test]
    fn budget_truncates_but_progress_persists() {
        let (mut probe, mut rng) = probe_with_backlog(3000);
        let link = ProbeRadioLink::new();
        let mut session = FetchSession::new(21, ProtocolConfig::fixed());
        // A tight 10-minute budget cannot move 3000 × 1 s packets.
        let out = session.run(
            &mut probe,
            &link,
            0.02,
            SimDuration::from_mins(10),
            &mut rng,
        );
        assert!(!out.complete);
        assert!(out.new_readings > 100, "got {}", out.new_readings);
        assert!(out.elapsed <= SimDuration::from_mins(11));
        // Tomorrow continues where we stopped.
        let out2 = session.run(&mut probe, &link, 0.02, generous_budget(), &mut rng);
        assert!(out2.complete);
        assert_eq!(session.drain_delivered().len(), 3000);
    }

    #[test]
    fn dead_probe_yields_no_contact() {
        let (mut probe, mut rng) = probe_with_backlog(100);
        probe.kill(SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0));
        let link = ProbeRadioLink::new();
        let mut session = FetchSession::new(21, ProtocolConfig::fixed());
        let out = session.run(&mut probe, &link, 0.0, generous_budget(), &mut rng);
        assert!(out.no_contact);
        assert_eq!(out.new_readings, 0);
    }

    #[test]
    fn empty_probe_completes_trivially() {
        let (mut probe, mut rng) = probe_with_backlog(0);
        let link = ProbeRadioLink::new();
        let mut session = FetchSession::new(21, ProtocolConfig::fixed());
        let out = session.run(&mut probe, &link, 0.0, generous_budget(), &mut rng);
        assert!(out.no_contact, "empty probe has no manifest");
    }

    #[test]
    fn ack_baseline_is_correct_but_costs_more_packets() {
        let n = 500;
        let loss = 0.134;
        let (mut probe_a, mut rng_a) = probe_with_backlog(n);
        let link = ProbeRadioLink::new();
        let mut nack = FetchSession::new(21, ProtocolConfig::fixed());
        let mut nack_packets = 0u64;
        for _ in 0..10 {
            let out = nack.run(&mut probe_a, &link, loss, generous_budget(), &mut rng_a);
            nack_packets += out.packets;
            if out.complete {
                break;
            }
        }
        assert_eq!(nack.drain_delivered().len(), n as usize);

        let (mut probe_b, mut rng_b) = probe_with_backlog(n);
        let mut ack = AckFetchSession::new(21, 5);
        let mut ack_packets = 0u64;
        for _ in 0..10 {
            let out = ack.run(&mut probe_b, &link, loss, generous_budget(), &mut rng_b);
            ack_packets += out.packets;
            if out.complete {
                break;
            }
        }
        assert_eq!(
            ack.drain_delivered().len(),
            n as usize,
            "baseline is also correct"
        );
        assert!(
            ack_packets as f64 > 2.0 * nack_packets as f64,
            "stop-and-wait costs far more airtime: {ack_packets} vs {nack_packets}"
        );
    }

    #[test]
    fn confirm_loss_is_safe() {
        // Force the COMPLETE packet to be lost by using a loss probability
        // of 1.0 *after* a clean transfer is impossible — instead verify
        // semantics directly: an unconfirmed probe re-serves data and the
        // base deduplicates.
        let (mut probe, mut rng) = probe_with_backlog(50);
        let link = ProbeRadioLink::new();
        let mut session = FetchSession::new(21, ProtocolConfig::fixed());
        let out = session.run(&mut probe, &link, 0.0, generous_budget(), &mut rng);
        assert!(out.complete);
        // Simulate the confirm having been lost: refill the probe state by
        // pretending it never freed (run another session against a probe
        // that still has data).
        let (mut probe2, _) = probe_with_backlog(50);
        let out2 = session.run(&mut probe2, &link, 0.0, generous_budget(), &mut rng);
        assert!(out2.complete);
        assert_eq!(out2.new_readings, 0, "duplicates are not re-delivered");
    }

    #[test]
    #[should_panic(expected = "invalid protocol config")]
    fn rejects_invalid_config() {
        let bad = ProtocolConfig {
            rerequest_all_threshold: 2.0,
            ..ProtocolConfig::fixed()
        };
        let _ = FetchSession::new(21, bad);
    }

    #[test]
    fn rejects_zero_individual_fetch_limit() {
        // A zero limit would abort any session entering the individual
        // phase with even one reading missing — not the §V behaviour
        // (which deployed with 300) and never a useful configuration.
        let bad = ProtocolConfig {
            individual_fetch_limit: Some(0),
            ..ProtocolConfig::fixed()
        };
        let err = bad.validate().expect_err("Some(0) must be rejected");
        assert_eq!(err.field(), "individual_fetch_limit");
        // Regression guard: both presets still validate.
        ProtocolConfig::deployed_2008()
            .validate()
            .expect("deployed_2008 is valid");
        ProtocolConfig::fixed().validate().expect("fixed is valid");
        ProtocolConfig::default()
            .validate()
            .expect("default is valid");
    }

    /// A loss model for the threshold-boundary tests: the 2-packet
    /// handshake survives, then exactly 4 of the 8 bulk packets are
    /// lost, making the missing fraction exactly 0.5.
    fn half_loss_pattern() -> LossModel {
        LossModel::pattern(&[
            false, false, // query + manifest arrive
            true, false, true, false, true, false, true, false, // 4 of 8 bulk packets lost
        ])
    }

    #[test]
    fn threshold_boundary_equal_fraction_goes_individual() {
        // Doc contract: the protocol re-requests everything only if the
        // missing fraction *exceeds* the threshold. A fraction exactly
        // equal to it therefore enters the individual phase — observable
        // here because the 4 pending fetches trip a limit of 3 and abort.
        let (mut probe, mut rng) = probe_with_backlog(8);
        let link = ProbeRadioLink::new();
        let config = ProtocolConfig {
            rerequest_all_threshold: 0.5,
            individual_fetch_limit: Some(3),
            max_rounds: 6,
        };
        let mut session = FetchSession::new(21, config);
        let mut loss = half_loss_pattern();
        let out = session.run_with_model(&mut probe, &link, &mut loss, generous_budget(), &mut rng);
        assert_eq!(out.missing_after_bulk, 4, "pattern lost exactly half");
        assert!(
            out.aborted,
            "fraction == threshold does not exceed it, so the session went individual"
        );
        assert_eq!(out.missing_after, 4);
    }

    #[test]
    fn threshold_boundary_exceeding_fraction_rerequests_all() {
        // Same loss sequence, threshold a hair lower: 0.5 now *exceeds*
        // it, so the next round stays bulk and the abort never happens.
        let (mut probe, mut rng) = probe_with_backlog(8);
        let link = ProbeRadioLink::new();
        let config = ProtocolConfig {
            rerequest_all_threshold: 0.49,
            individual_fetch_limit: Some(3),
            max_rounds: 6,
        };
        let mut session = FetchSession::new(21, config);
        let mut loss = half_loss_pattern();
        let out = session.run_with_model(&mut probe, &link, &mut loss, generous_budget(), &mut rng);
        assert_eq!(out.missing_after_bulk, 4, "same first bulk round");
        assert!(
            !out.aborted,
            "fraction above the threshold re-requests all instead of going individual"
        );
        assert!(out.new_readings > 4, "bulk re-request delivered more");
    }

    #[test]
    fn observed_session_matches_plain_and_records_progress() {
        use glacsweb_obs::{MemoryRecorder, Origin, Recorder};
        let origin = Origin::new("protocol", "base");
        let at = SimTime::from_ymd_hms(2009, 6, 1, 12, 0, 0);
        let link = ProbeRadioLink::new();

        let (mut probe_a, mut rng_a) = probe_with_backlog(3000);
        let mut plain = FetchSession::new(21, ProtocolConfig::deployed_2008());
        let expect = plain.run(&mut probe_a, &link, 0.134, generous_budget(), &mut rng_a);

        let (mut probe_b, mut rng_b) = probe_with_backlog(3000);
        let mut observed = FetchSession::new(21, ProtocolConfig::deployed_2008());
        let mut obs = MemoryRecorder::default();
        let out = {
            let mut scope = Scope::new(at, origin, &mut obs);
            observed.run_observed(
                &mut probe_b,
                &link,
                0.134,
                generous_budget(),
                &mut rng_b,
                &mut scope,
            )
        };
        assert_eq!(out, expect, "telemetry must not change the protocol");
        assert!(out.aborted, "the §V abort fires in this scenario");
        assert_eq!(obs.counter_value(origin, "fetch_sessions"), 1);
        assert_eq!(obs.counter_value(origin, "fetch_aborts"), 1);
        assert_eq!(
            obs.counter_value(origin, "bulk_misses"),
            out.missing_after_bulk as u64
        );
        assert_eq!(obs.counter_value(origin, "protocol_packets"), out.packets);
        assert!(
            obs.events().any(|e| e.name == "fetch_abort"),
            "abort event recorded"
        );
        assert!(
            obs.events().any(|e| e.name == "bulk_round"),
            "bulk rounds recorded"
        );
        let _ = obs.enabled();
    }
}
