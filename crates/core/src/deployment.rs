//! The deployment world: builder and deterministic event loop.

use glacsweb_env::{EnvConfig, Environment};
use glacsweb_faults::{Fault, FaultPlan, FaultTarget, WindowClass};
use glacsweb_obs::{Event, MemoryRecorder, Origin, Recorder};
use glacsweb_probe::{MortalityModel, ProbeFirmware};
use glacsweb_server::SouthamptonServer;
use glacsweb_sim::{Bytes, EventQueue, SimDuration, SimRng, SimTime};
use glacsweb_snapshot::SnapshotError;
use glacsweb_station::{Station, StationConfig, StationId};
use serde::{Deserialize, Serialize};

use crate::metrics::{DeploymentSummary, Metrics};

/// World events driving the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum WorldEvent {
    /// MSP430 half-hour tick for one station (voltage sample + any dGPS
    /// slot that falls on this tick).
    Tick(StationId),
    /// The daily midday communications window for one station.
    Window(StationId),
    /// Hourly sampling pass over every probe.
    ProbeSample,
    /// A fault-plan entry activates (index into the plan's specs).
    FaultOn(usize),
    /// A non-instantaneous fault clears.
    FaultOff(usize),
}

/// Builds a [`Deployment`].
///
/// # Example
///
/// ```
/// use glacsweb::DeploymentBuilder;
/// use glacsweb_env::EnvConfig;
/// use glacsweb_sim::SimTime;
/// use glacsweb_station::StationConfig;
///
/// let mut deployment = DeploymentBuilder::new(EnvConfig::lab())
///     .seed(7)
///     .start(SimTime::from_ymd_hms(2008, 8, 15, 0, 0, 0))
///     .base(StationConfig::base_2008())
///     .probes(3)
///     .build();
/// deployment.run_days(2);
/// assert!(deployment.now() >= SimTime::from_ymd_hms(2008, 8, 17, 0, 0, 0));
/// ```
#[derive(Debug, Clone)]
pub struct DeploymentBuilder {
    env: EnvConfig,
    seed: u64,
    start: SimTime,
    base: Option<StationConfig>,
    reference: Option<StationConfig>,
    probes: u32,
    mortality: Option<MortalityModel>,
    probe_interval: SimDuration,
    fault_plan: FaultPlan,
    observe: bool,
    leaping: bool,
}

impl DeploymentBuilder {
    /// Starts a builder for the given environment.
    pub fn new(env: EnvConfig) -> Self {
        DeploymentBuilder {
            env,
            seed: 0,
            start: SimTime::from_ymd_hms(2008, 8, 15, 0, 0, 0),
            base: None,
            reference: None,
            probes: 0,
            mortality: None,
            probe_interval: SimDuration::from_hours(1),
            fault_plan: FaultPlan::new(),
            observe: false,
            leaping: true,
        }
    }

    /// Sets the master seed (identical seeds reproduce identical runs).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the deployment start instant.
    pub fn start(mut self, start: SimTime) -> Self {
        self.start = start;
        self
    }

    /// Adds the glacier base station.
    pub fn base(mut self, config: StationConfig) -> Self {
        self.base = Some(config);
        self
    }

    /// Adds the café reference station.
    pub fn reference(mut self, config: StationConfig) -> Self {
        self.reference = Some(config);
        self
    }

    /// Deploys `n` subglacial probes.
    pub fn probes(mut self, n: u32) -> Self {
        self.probes = n;
        self
    }

    /// Enables the probe mortality model.
    pub fn mortality(mut self, model: MortalityModel) -> Self {
        self.mortality = Some(model);
        self
    }

    /// Installs in-memory telemetry recorders on the world and on every
    /// station. Recording never consumes simulation randomness, so an
    /// observed run takes the exact same trajectory as an unobserved one;
    /// collect the result with [`Deployment::telemetry`].
    pub fn observe(mut self) -> Self {
        self.observe = true;
        self
    }

    /// Enables or disables event-stream leaping (default: enabled).
    ///
    /// Leaping elides world events that provably cannot change the
    /// trajectory — currently the hourly probe sweep once every probe is
    /// dead (a dead probe draws no randomness and answers no queries).
    /// Runs with leaping on and off are bit-identical; the
    /// `leap_equivalence` integration tests pin that contract.
    pub fn leaping(mut self, on: bool) -> Self {
        self.leaping = on;
        self
    }

    /// Installs a deterministic fault schedule: every entry activates and
    /// clears as a normal world event, so identical seeds + plans replay
    /// the exact same chaos.
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid (see
    /// [`FaultPlan::validate`](glacsweb_faults::FaultPlan::validate)).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        self.fault_plan = plan;
        self
    }

    /// Builds the deployment.
    ///
    /// # Panics
    ///
    /// Panics if any station configuration is invalid, or if probes are
    /// requested without a base station to query them.
    pub fn build(self) -> Deployment {
        assert!(
            self.probes == 0 || self.base.is_some(),
            "probes need a base station to talk to"
        );
        let mut master = SimRng::seed_from(self.seed);
        let mut env = Environment::new(self.env, self.seed);
        env.advance_to(self.start);
        let mut probe_rng = master.fork(0x9B);
        let mut probes = Vec::new();
        let mut death_times = Vec::new();
        for i in 0..self.probes {
            // The paper numbers probes from 21.
            let id = 21 + i;
            probes.push(ProbeFirmware::deploy(id, self.start, &mut probe_rng));
            let death = self
                .mortality
                .map(|m| m.draw_death_time(self.start, &mut probe_rng));
            death_times.push(death);
        }
        let start = self.start;
        let build_station = |c, seed| {
            Station::try_new(c, start, seed)
                .unwrap_or_else(|e| panic!("invalid station config: {e}"))
        };
        let mut base = self
            .base
            .map(|c| build_station(c, master.fork(0xBA5E).next_u64_raw()));
        let mut reference = self
            .reference
            .map(|c| build_station(c, master.fork(0x5EF).next_u64_raw()));
        let world_obs = if self.observe {
            for station in [base.as_mut(), reference.as_mut()].into_iter().flatten() {
                station.record_telemetry();
            }
            Some(MemoryRecorder::default())
        } else {
            None
        };

        // Kick-off events are filed per station, Tick then Window, base
        // before reference. The order matters when the first tick and the
        // midday window land on the same instant (a deployment starting
        // at exactly 11:30): the whole run inherits its FIFO tie-break,
        // so this push order is part of the pinned trajectory.
        let stations: Vec<StationId> = [
            base.as_ref().map(|_| StationId::Base),
            reference.as_ref().map(|_| StationId::Reference),
        ]
        .into_iter()
        .flatten()
        .collect();
        let mut queue = EventQueue::new();
        for &id in &stations {
            queue.push(
                self.start + SimDuration::from_mins(30),
                WorldEvent::Tick(id),
            );
            queue.push(
                self.start.next_time_of_day(12, 0, 0),
                WorldEvent::Window(id),
            );
        }
        if !probes.is_empty() {
            queue.push(self.start + self.probe_interval, WorldEvent::ProbeSample);
        }
        for (onset, spec) in self.fault_plan.first_onsets(self.start) {
            queue.push(onset, WorldEvent::FaultOn(spec));
        }

        Deployment {
            env,
            server: SouthamptonServer::new(),
            base,
            reference,
            probes,
            death_times,
            probe_rng,
            probe_interval: self.probe_interval,
            queue,
            start: self.start,
            now: self.start,
            metrics: Metrics::new(),
            fault_plan: self.fault_plan,
            world_obs,
            leaping: self.leaping,
        }
    }
}

/// Small extension so the builder can mint station seeds without exposing
/// `rand::RngCore` to callers.
trait RawU64 {
    fn next_u64_raw(&mut self) -> u64;
}

impl RawU64 for SimRng {
    fn next_u64_raw(&mut self) -> u64 {
        use rand::RngCore;
        self.next_u64()
    }
}

/// The complete persisted state of a [`Deployment`] — everything the
/// event loop needs to resume bit-identically: environment models and
/// their RNG position, both stations down to retry counters and telemetry
/// registries, the probe cohort and its mortality draws, the event queue
/// with its FIFO arrival counter, metrics, and the fault plan with every
/// in-flight activation.
///
/// Derived caches (environment step-caches, the power rail's taper memo)
/// are deliberately *not* captured; they serialize as null or stay off
/// the wire, and rebuild on first use, which cannot perturb the
/// trajectory because they memoize pure functions of captured state.
///
/// Obtain one with [`Deployment::snapshot`]; turn it back into a live
/// world with [`Deployment::restore`]. The struct is opaque by design —
/// its only contract is the round trip.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeploymentState {
    env: Environment,
    server: SouthamptonServer,
    base: Option<Station>,
    reference: Option<Station>,
    probes: Vec<ProbeFirmware>,
    death_times: Vec<Option<SimTime>>,
    probe_rng: SimRng,
    probe_interval: SimDuration,
    queue: EventQueue<WorldEvent>,
    start: SimTime,
    now: SimTime,
    metrics: Metrics,
    fault_plan: FaultPlan,
    world_obs: Option<MemoryRecorder>,
    leaping: bool,
}

/// A running Glacsweb deployment.
pub struct Deployment {
    env: Environment,
    server: SouthamptonServer,
    base: Option<Station>,
    reference: Option<Station>,
    probes: Vec<ProbeFirmware>,
    death_times: Vec<Option<SimTime>>,
    probe_rng: SimRng,
    probe_interval: SimDuration,
    queue: EventQueue<WorldEvent>,
    start: SimTime,
    now: SimTime,
    metrics: Metrics,
    fault_plan: FaultPlan,
    /// World-level telemetry (fault activations, window classes).
    world_obs: Option<MemoryRecorder>,
    leaping: bool,
}

impl Deployment {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// When the deployment began.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// The environment.
    pub fn env(&self) -> &Environment {
        &self.env
    }

    /// The Southampton server.
    pub fn server(&self) -> &SouthamptonServer {
        &self.server
    }

    /// Mutable server access (manual overrides, staging commands,
    /// injecting outages).
    pub fn server_mut(&mut self) -> &mut SouthamptonServer {
        &mut self.server
    }

    /// The base station, if deployed.
    pub fn base(&self) -> Option<&Station> {
        self.base.as_ref()
    }

    /// Mutable base-station access (fault injection).
    pub fn base_mut(&mut self) -> Option<&mut Station> {
        self.base.as_mut()
    }

    /// The reference station, if deployed.
    pub fn reference(&self) -> Option<&Station> {
        self.reference.as_ref()
    }

    /// The probe cohort.
    pub fn probes(&self) -> &[ProbeFirmware] {
        &self.probes
    }

    /// Probes still alive.
    pub fn probes_alive(&self) -> usize {
        self.probes.iter().filter(|p| !p.is_dead()).count()
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Events currently pending in the world queue (ticks, windows,
    /// probe sweeps, fault transitions).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Whether event-stream leaping is enabled (see
    /// [`DeploymentBuilder::leaping`]).
    pub fn leaping(&self) -> bool {
        self.leaping
    }

    /// Runs the event loop until `until`.
    ///
    /// Stations integrate their power rails only at their own events
    /// (the half-hourly ticks and the windows), never at the horizon, so
    /// where a run stops cannot change its trajectory: `run_until(a)`
    /// then `run_until(b)` equals `run_until(b)` for any `a <= b`, and a
    /// snapshot taken at any second resumes onto the uninterrupted run.
    pub fn run_until(&mut self, until: SimTime) {
        // Pre-size the metric buffers from the horizon so the half-hourly
        // recording loop appends without reallocating (values unaffected).
        let days = until.saturating_since(self.now).as_days_f64().ceil() as usize;
        let stations = usize::from(self.base.is_some()) + usize::from(self.reference.is_some());
        self.metrics.pre_size(days, stations);
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            let (t, event) = self.queue.pop().expect("peeked");
            self.now = t;
            match event {
                WorldEvent::Tick(id) => self.handle_tick(id, t),
                WorldEvent::Window(id) => self.handle_window(id, t),
                WorldEvent::ProbeSample => self.handle_probe_sample(t),
                WorldEvent::FaultOn(spec) => self.handle_fault_on(spec, t),
                WorldEvent::FaultOff(spec) => self.handle_fault_off(spec, t),
            }
        }
        self.now = until;
        self.env.advance_to(until);
    }

    /// Runs `days` further days.
    pub fn run_days(&mut self, days: u64) {
        self.run_until(self.now + SimDuration::from_days(days));
    }

    /// Summarises the run so far.
    pub fn summary(&self) -> DeploymentSummary {
        let mut windows_run = 0;
        let mut windows_cut = 0;
        let mut recoveries = 0;
        let mut power_losses = 0;
        let mut data_uploaded = glacsweb_sim::Bytes::ZERO;
        let mut gprs_cost = 0.0;
        let mut base_discharged = glacsweb_sim::WattHours::ZERO;
        for station in [self.base.as_ref(), self.reference.as_ref()]
            .into_iter()
            .flatten()
        {
            let (run, cut, rec) = station.stats();
            windows_run += run;
            windows_cut += cut;
            recoveries += rec;
            power_losses += station.power_losses();
            data_uploaded += station.store().total_uploaded();
            gprs_cost += station.cost().total_cost();
            if station.id() == StationId::Base {
                base_discharged = station.rail().battery().total_discharged();
            }
        }
        let warehouse = self.server.warehouse();
        let readings: usize = warehouse
            .probes_reporting()
            .iter()
            .map(|&p| warehouse.probe_series(p).len())
            .sum();
        let faults = self.metrics.fault_summary();
        let fixes = warehouse.differential_fixes();
        DeploymentSummary {
            days: (self.now.saturating_since(self.start)).as_days_f64(),
            windows_run,
            windows_cut,
            recoveries,
            power_losses,
            data_uploaded,
            gprs_cost,
            probes_alive: self.probes_alive(),
            probes_deployed: self.probes.len(),
            probe_readings_received: readings,
            dgps_fixes: fixes.len(),
            dgps_pairing_yield: warehouse.pairing_yield(&fixes),
            base_energy_discharged: base_discharged,
            faults_injected: faults.injected,
            faults_recovered: faults.recovered,
            mean_mttr_hours: faults.mean_mttr_hours,
        }
    }

    /// The installed fault schedule (empty when none was supplied).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Takes the accumulated telemetry: the world recorder merged with
    /// the base and then the reference station's recorder, in that fixed
    /// order (so the merge is deterministic). Returns `None` unless the
    /// deployment was built with [`DeploymentBuilder::observe`].
    pub fn telemetry(&mut self) -> Option<MemoryRecorder> {
        let mut merged = self.world_obs.as_mut().map(std::mem::take)?;
        for station in [self.base.as_mut(), self.reference.as_mut()]
            .into_iter()
            .flatten()
        {
            if let Some(t) = station.take_telemetry() {
                merged.merge_from(t);
            }
        }
        Some(merged)
    }

    /// Captures the complete runtime state for persistence.
    ///
    /// The capture is pure observation: it never consumes randomness,
    /// advances clocks or drains telemetry, so a run that checkpoints
    /// every N days takes the exact same trajectory as one that never
    /// checkpoints. Pair with [`Deployment::restore`]; write to disk with
    /// [`Deployment::checkpoint`].
    pub fn snapshot(&self) -> DeploymentState {
        DeploymentState {
            env: self.env.clone(),
            server: self.server.clone(),
            base: self.base.clone(),
            reference: self.reference.clone(),
            probes: self.probes.clone(),
            death_times: self.death_times.clone(),
            probe_rng: self.probe_rng.clone(),
            probe_interval: self.probe_interval,
            queue: self.queue.clone(),
            start: self.start,
            now: self.now,
            metrics: self.metrics.clone(),
            fault_plan: self.fault_plan.clone(),
            world_obs: self.world_obs.clone(),
            leaping: self.leaping,
        }
    }

    /// Rebuilds a live deployment from captured state.
    ///
    /// Every cross-field invariant the builder establishes is re-imposed
    /// here, so a corrupted or hand-crafted snapshot yields a typed
    /// [`SnapshotError::Invalid`] instead of a world that panics later:
    /// the fault plan must validate, mortality draws must align with the
    /// probe cohort, the clock may not precede the start, no queued
    /// event may reference a station or fault spec that was not captured,
    /// and every station must pass [`Station::validate`].
    pub fn restore(state: DeploymentState) -> Result<Deployment, SnapshotError> {
        if state.now < state.start {
            return Err(SnapshotError::invalid(format!(
                "clock {:?} precedes deployment start {:?}",
                state.now, state.start
            )));
        }
        if state.death_times.len() != state.probes.len() {
            return Err(SnapshotError::invalid(format!(
                "{} mortality draws for {} probes",
                state.death_times.len(),
                state.probes.len()
            )));
        }
        if let Err(e) = state.fault_plan.validate() {
            return Err(SnapshotError::invalid(format!(
                "snapshot carries an invalid fault plan: {e}"
            )));
        }
        let specs = state.fault_plan.specs().len();
        for (t, event) in state.queue.iter() {
            if t < state.now {
                return Err(SnapshotError::invalid(format!(
                    "queued event {event:?} at {t:?} is before the clock {:?}",
                    state.now
                )));
            }
            let station_present = |id: StationId| match id {
                StationId::Base => state.base.is_some(),
                StationId::Reference => state.reference.is_some(),
            };
            match *event {
                WorldEvent::Tick(id) | WorldEvent::Window(id) => {
                    if !station_present(id) {
                        return Err(SnapshotError::invalid(format!(
                            "queued event {event:?} targets a station the snapshot does not carry"
                        )));
                    }
                }
                WorldEvent::ProbeSample => {
                    if state.probes.is_empty() {
                        return Err(SnapshotError::invalid(
                            "queued probe sample but the snapshot carries no probes",
                        ));
                    }
                }
                WorldEvent::FaultOn(spec) | WorldEvent::FaultOff(spec) => {
                    if spec >= specs {
                        return Err(SnapshotError::invalid(format!(
                            "queued fault event references spec {spec} but the plan has {specs}"
                        )));
                    }
                }
            }
            // A tick appends to its station's series, which must not run
            // past it. (The clock is no bound: a mid-dGPS dip sample
            // lies after the tick that records it.)
            if let WorldEvent::Tick(id) = *event {
                let series = [
                    state.metrics.voltage_series(id),
                    state.metrics.state_series(id),
                ];
                let last = series.into_iter().flatten().filter_map(|s| s.last());
                if let Some(at) = last.map(|(at, _)| at).max().filter(|&at| at > t) {
                    return Err(SnapshotError::invalid(format!(
                        "{id:?} series sample at {at:?} lies after the station's next tick at {t:?}"
                    )));
                }
            }
        }
        for (role, station) in [("base", &state.base), ("reference", &state.reference)] {
            if let Some(station) = station {
                station
                    .validate()
                    .map_err(|e| SnapshotError::invalid(format!("{role} station: {e}")))?;
            }
        }
        Ok(Deployment {
            env: state.env,
            server: state.server,
            base: state.base,
            reference: state.reference,
            probes: state.probes,
            death_times: state.death_times,
            probe_rng: state.probe_rng,
            probe_interval: state.probe_interval,
            queue: state.queue,
            start: state.start,
            now: state.now,
            metrics: state.metrics,
            fault_plan: state.fault_plan,
            world_obs: state.world_obs,
            leaping: state.leaping,
        })
    }

    /// Writes a verified snapshot of the current state to `path`
    /// (atomic write-then-rename; see [`glacsweb_snapshot::save`]).
    pub fn checkpoint(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        glacsweb_snapshot::save(&self.snapshot(), path)
    }

    /// Loads, verifies and revives the snapshot at `path`.
    pub fn resume(path: &std::path::Path) -> Result<Deployment, SnapshotError> {
        Deployment::restore(glacsweb_snapshot::load(path)?)
    }

    /// Telemetry origin for world events scoped to one station.
    fn world_origin(id: StationId) -> Origin {
        match id {
            StationId::Base => Origin::new("deployment", "base"),
            StationId::Reference => Origin::new("deployment", "reference"),
        }
    }

    fn station_mut(&mut self, id: StationId) -> Option<&mut Station> {
        match id {
            StationId::Base => self.base.as_mut(),
            StationId::Reference => self.reference.as_mut(),
        }
    }

    fn station_ref(&self, id: StationId) -> Option<&Station> {
        match id {
            StationId::Base => self.base.as_ref(),
            StationId::Reference => self.reference.as_ref(),
        }
    }

    /// The upload backlog a fault against `target` strands. A server
    /// outage strands both stations' data; the base station's (the
    /// data-heavy one) stands in for it.
    fn backlog_of(&self, target: FaultTarget) -> Option<Bytes> {
        let station = match target {
            FaultTarget::Base | FaultTarget::Probe(_) | FaultTarget::Server => self.base.as_ref(),
            FaultTarget::Reference => self.reference.as_ref(),
        };
        station.map(|s| s.store().backlog_bytes())
    }

    fn handle_fault_on(&mut self, spec: usize, t: SimTime) {
        let Some(s) = self.fault_plan.specs().get(spec).copied() else {
            return;
        };
        self.metrics
            .record_fault_on(spec, s.fault.label(), s.target, t);
        let world = Origin::new("deployment", "world");
        self.world_obs.counter(t, world, "faults_on", 1);
        if self.world_obs.enabled() {
            self.world_obs.event(
                Event::new(t, world, "fault_on")
                    .with("fault", s.fault.label())
                    .with("target", format!("{:?}", s.target)),
            );
        }
        let env = &mut self.env;
        let station = match s.target {
            FaultTarget::Base | FaultTarget::Probe(_) => self.base.as_mut(),
            FaultTarget::Reference => self.reference.as_mut(),
            FaultTarget::Server => None,
        };
        match s.fault {
            Fault::ServerUnreachable => self.server.set_unreachable(true),
            Fault::GprsDegradation { severity } => {
                if let Some(st) = station {
                    st.set_gprs_degradation(severity);
                }
            }
            Fault::Rs232Fault => {
                if let Some(st) = station {
                    st.inject_rs232_fault(true);
                }
            }
            Fault::SdCorruption => {
                if let Some(st) = station {
                    st.inject_card_corruption();
                }
            }
            Fault::PowerFailure => {
                if let Some(st) = station {
                    st.force_power_failure(env, t);
                }
            }
            Fault::StuckTransfer => {
                if let Some(st) = station {
                    st.inject_stuck_transfer(true);
                }
            }
            Fault::ProbeRadioBlackout => match s.target {
                FaultTarget::Probe(id) => {
                    if let Some(p) = self.probes.iter_mut().find(|p| p.id() == id) {
                        p.set_radio_ok(false);
                    }
                }
                _ => {
                    if let Some(st) = station {
                        st.set_wired_probe_ok(false);
                    }
                }
            },
        }
        if s.fault.is_instantaneous() {
            // Fires and is done: the fault condition does not persist,
            // only its consequences (corruption to recover, a battery to
            // recharge).
            let backlog = self.backlog_of(s.target);
            self.metrics.record_fault_off(spec, t, backlog);
        } else {
            self.queue.push(t + s.duration, WorldEvent::FaultOff(spec));
        }
        if let Some(every) = s.recurrence {
            self.queue.push(t + every, WorldEvent::FaultOn(spec));
        }
    }

    fn handle_fault_off(&mut self, spec: usize, t: SimTime) {
        let Some(s) = self.fault_plan.specs().get(spec).copied() else {
            return;
        };
        let station = match s.target {
            FaultTarget::Base | FaultTarget::Probe(_) => self.base.as_mut(),
            FaultTarget::Reference => self.reference.as_mut(),
            FaultTarget::Server => None,
        };
        match s.fault {
            Fault::ServerUnreachable => self.server.set_unreachable(false),
            Fault::GprsDegradation { .. } => {
                if let Some(st) = station {
                    st.set_gprs_degradation(1.0);
                }
            }
            Fault::Rs232Fault => {
                if let Some(st) = station {
                    st.inject_rs232_fault(false);
                }
            }
            Fault::StuckTransfer => {
                if let Some(st) = station {
                    st.inject_stuck_transfer(false);
                }
            }
            Fault::ProbeRadioBlackout => match s.target {
                FaultTarget::Probe(id) => {
                    if let Some(p) = self.probes.iter_mut().find(|p| p.id() == id) {
                        p.set_radio_ok(true);
                    }
                }
                _ => {
                    if let Some(st) = station {
                        st.set_wired_probe_ok(true);
                    }
                }
            },
            // Instantaneous faults never schedule a FaultOff.
            Fault::SdCorruption | Fault::PowerFailure => {}
        }
        let backlog = self.backlog_of(s.target);
        self.metrics.record_fault_off(spec, t, backlog);
        let world = Origin::new("deployment", "world");
        self.world_obs.counter(t, world, "faults_off", 1);
        if self.world_obs.enabled() {
            self.world_obs.event(
                Event::new(t, world, "fault_off")
                    .with("fault", s.fault.label())
                    .with("target", format!("{:?}", s.target)),
            );
        }
    }

    fn handle_tick(&mut self, id: StationId, t: SimTime) {
        let env = &mut self.env;
        let Some(station) = (match id {
            StationId::Base => self.base.as_mut(),
            StationId::Reference => self.reference.as_mut(),
        }) else {
            return;
        };
        // `on_sample` hands back the voltage its ADC pass already solved
        // for; re-reading it here would run the whole taper solve again.
        if let Some(v) = station.on_sample(env, t) {
            let v = v.value();
            let level = station.current_state().level();
            self.metrics.record_voltage(id, t, v);
            self.metrics.record_state(id, t, level);
            if station.effective_schedule().is_gps_slot(t) {
                if let Some((mid, dip)) = station.on_gps_slot(env, t) {
                    // Mid-session sag — the two-hourly dips of Fig 5.
                    self.metrics.record_voltage(id, mid, dip.value());
                    self.metrics.record_state(id, mid, level);
                }
            }
        }
        self.queue
            .push(t + SimDuration::from_mins(30), WorldEvent::Tick(id));
    }

    fn handle_window(&mut self, id: StationId, t: SimTime) {
        let env = &mut self.env;
        let server = &mut self.server;
        let probes = &mut self.probes;
        // Relay-architecture stations can only reach the internet while
        // their partner is alive (§II's failure coupling).
        let reference_up = self
            .reference
            .as_ref()
            .map(|r| r.is_powered())
            .unwrap_or(false);
        let report = match id {
            StationId::Base => self.base.as_mut().and_then(|s| {
                s.set_wan_partner_up(reference_up);
                s.on_window(env, t, probes, server)
            }),
            StationId::Reference => self
                .reference
                .as_mut()
                .and_then(|s| s.on_window(env, t, &mut [], server)),
        };
        // Classify the window for the recovery tracker: healthy service,
        // degraded (ran but cut/died/never attached), or lost outright
        // (station unpowered at window time).
        let target = match id {
            StationId::Base => FaultTarget::Base,
            StationId::Reference => FaultTarget::Reference,
        };
        match report {
            Some(report) => {
                let healthy =
                    !report.cut_by_watchdog && !report.died_mid_window && report.gprs_connected;
                let class = if healthy {
                    WindowClass::Healthy
                } else {
                    WindowClass::Degraded
                };
                let backlog = self
                    .station_ref(id)
                    .map(|s| s.store().backlog_bytes())
                    .unwrap_or(Bytes::ZERO);
                self.metrics.record_fault_window(target, t, class, backlog);
                self.record_window_class(id, t, class);
                self.metrics.record_window(report);
            }
            None => {
                if let Some(s) = self.station_ref(id) {
                    let backlog = s.store().backlog_bytes();
                    self.metrics
                        .record_fault_window(target, t, WindowClass::Lost, backlog);
                }
                self.record_window_class(id, t, WindowClass::Lost);
            }
        }
        // The next window comes from the (possibly rewritten) schedule; an
        // unpowered station still gets its ROM midday wake.
        let next = self
            .station_mut(id)
            .map(|s| s.effective_schedule().next_window(t))
            .unwrap_or_else(|| t.next_time_of_day(12, 0, 0));
        self.queue.push(next, WorldEvent::Window(id));
    }

    /// Records one window's service classification in the telemetry.
    fn record_window_class(&mut self, id: StationId, t: SimTime, class: WindowClass) {
        let origin = Deployment::world_origin(id);
        let label = match class {
            WindowClass::Healthy => "healthy",
            WindowClass::Degraded => "degraded",
            WindowClass::Lost => "lost",
        };
        let counter = match class {
            WindowClass::Healthy => "windows_healthy",
            WindowClass::Degraded => "windows_degraded",
            WindowClass::Lost => "windows_lost",
        };
        self.world_obs.counter(t, origin, counter, 1);
        if self.world_obs.enabled() {
            self.world_obs
                .event(Event::new(t, origin, "window_class").with("class", label));
        }
    }

    fn handle_probe_sample(&mut self, t: SimTime) {
        self.env.advance_to(t);
        for (i, probe) in self.probes.iter_mut().enumerate() {
            if let Some(Some(death)) = self.death_times.get(i) {
                if *death <= t && !probe.is_dead() {
                    probe.kill(*death);
                    self.metrics.record_probe_death(*death, probe.id());
                }
            }
            probe.sample(&self.env, t, &mut self.probe_rng);
        }
        // Stream leap: once every probe is dead the sweep is pure event
        // churn — a dead probe draws no randomness, answers no queries and
        // records nothing, and `env.advance_to` lands on the same internal
        // grid whether or not it is poked hourly. Dropping the reschedule
        // is therefore bit-identical to keeping it (pinned by the
        // `leap_equivalence` tests); it turns a fully-dead cohort from an
        // O(hours) event load into zero events.
        let leapable = self.leaping && self.probes.iter().all(ProbeFirmware::is_dead);
        if !leapable {
            self.queue
                .push(t + self.probe_interval, WorldEvent::ProbeSample);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glacsweb_link::GprsConfig;

    fn lab_deployment(seed: u64) -> Deployment {
        let mut base = StationConfig::base_2008();
        base.gprs = GprsConfig::ideal();
        let mut reference = StationConfig::reference_2008();
        reference.gprs = GprsConfig::ideal();
        DeploymentBuilder::new(EnvConfig::lab())
            .seed(seed)
            .start(SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0))
            .base(base)
            .reference(reference)
            .probes(3)
            .build()
    }

    #[test]
    fn two_stations_run_daily_windows() {
        let mut d = lab_deployment(1);
        d.run_days(5);
        let summary = d.summary();
        assert_eq!(summary.windows_run, 10, "2 stations × 5 days");
        assert_eq!(summary.power_losses, 0);
        assert!(
            summary.probe_readings_received > 0,
            "probe data reached the server"
        );
    }

    #[test]
    fn dgps_readings_pair_into_fixes() {
        let mut d = lab_deployment(2);
        d.run_days(4);
        let summary = d.summary();
        assert!(summary.dgps_fixes > 0, "paired differential fixes exist");
        assert!(
            summary.dgps_pairing_yield > 0.8,
            "synchronized schedules pair well: {}",
            summary.dgps_pairing_yield
        );
    }

    #[test]
    fn deterministic_across_identical_seeds() {
        let mut a = lab_deployment(42);
        let mut b = lab_deployment(42);
        a.run_days(6);
        b.run_days(6);
        let sa = a.summary();
        let sb = b.summary();
        assert_eq!(sa, sb);
        // And the Fig 5 series match sample for sample.
        let va: Vec<_> = a
            .metrics()
            .voltage_series(StationId::Base)
            .expect("series")
            .iter()
            .collect();
        let vb: Vec<_> = b
            .metrics()
            .voltage_series(StationId::Base)
            .expect("series")
            .iter()
            .collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = lab_deployment(1);
        let mut b = lab_deployment(2);
        a.run_days(6);
        b.run_days(6);
        assert_ne!(
            a.summary().data_uploaded,
            b.summary().data_uploaded,
            "stochastic transfers should differ across seeds"
        );
    }

    #[test]
    fn voltage_series_shows_half_hourly_sampling() {
        let mut d = lab_deployment(3);
        d.run_days(2);
        let series = d.metrics().voltage_series(StationId::Base).expect("series");
        // 48 half-hourly samples plus 12 mid-dGPS-session dip samples per
        // day in state 3, for 2 days (±boundary effects).
        assert!(
            (110..=125).contains(&series.len()),
            "{} samples",
            series.len()
        );
    }

    #[test]
    fn probes_accumulate_readings_between_windows() {
        let mut d = lab_deployment(4);
        d.run_until(d.start() + SimDuration::from_hours(11));
        // 10 hourly samples before the first window, nothing fetched yet.
        assert!(d.probes().iter().all(|p| p.stored_readings() >= 9));
        d.run_days(1);
        // After the first window the backlog was fetched and confirmed, so
        // each probe holds only the samples taken since midday (< 24),
        // not its full lifetime production (~35).
        assert!(d.probes().iter().all(|p| p.stored_readings() < 30));
    }

    #[test]
    fn observed_run_matches_unobserved_and_yields_telemetry() {
        let mut plain = lab_deployment(42);
        let mut base = StationConfig::base_2008();
        base.gprs = GprsConfig::ideal();
        let mut reference = StationConfig::reference_2008();
        reference.gprs = GprsConfig::ideal();
        let mut observed = DeploymentBuilder::new(EnvConfig::lab())
            .seed(42)
            .start(SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0))
            .base(base)
            .reference(reference)
            .probes(3)
            .observe()
            .build();
        plain.run_days(5);
        observed.run_days(5);
        assert_eq!(
            plain.summary(),
            observed.summary(),
            "recording must not perturb the simulation"
        );
        assert!(plain.telemetry().is_none(), "not built with observe()");
        let telemetry = observed.telemetry().expect("observed");
        let world_base = Origin::new("deployment", "base");
        assert_eq!(telemetry.counter_value(world_base, "windows_healthy"), 5);
        let station_base = Origin::new("station", "base");
        assert_eq!(telemetry.counter_value(station_base, "windows_run"), 5);
        assert!(
            telemetry.counter_value(Origin::new("gprs", "base"), "upload_bytes") > 0,
            "upload telemetry flowed through the merge"
        );
        // Taking the telemetry drains it; the next slice starts fresh.
        observed.run_days(1);
        let next = observed.telemetry().expect("still observed");
        assert_eq!(next.counter_value(station_base, "windows_run"), 1);
    }

    #[test]
    fn fault_activations_are_recorded() {
        let mut base = StationConfig::base_2008();
        base.gprs = GprsConfig::ideal();
        let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let plan = FaultPlan::new().with(glacsweb_faults::FaultSpec {
            fault: Fault::ServerUnreachable,
            target: FaultTarget::Server,
            onset: SimDuration::from_days(1),
            duration: SimDuration::from_days(2),
            recurrence: None,
        });
        let mut d = DeploymentBuilder::new(EnvConfig::lab())
            .seed(7)
            .start(start)
            .base(base)
            .fault_plan(plan)
            .observe()
            .build();
        d.run_days(5);
        let telemetry = d.telemetry().expect("observed");
        let world = Origin::new("deployment", "world");
        assert_eq!(telemetry.counter_value(world, "faults_on"), 1);
        assert_eq!(telemetry.counter_value(world, "faults_off"), 1);
        assert!(
            telemetry.events().any(|e| e.name == "fault_on"),
            "fault activation event present"
        );
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let mut straight = lab_deployment(42);
        straight.run_days(6);
        let mut first = lab_deployment(42);
        first.run_days(3);
        let resumed = Deployment::restore(first.snapshot()).expect("restore");
        // The capture itself must not perturb the original.
        let mut untouched = first;
        let mut resumed = resumed;
        untouched.run_days(3);
        resumed.run_days(3);
        assert_eq!(straight.summary(), untouched.summary());
        assert_eq!(straight.summary(), resumed.summary());
        let series = |d: &Deployment| {
            d.metrics()
                .voltage_series(StationId::Base)
                .expect("series")
                .iter()
                .map(|(t, v)| (t, v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(series(&straight), series(&resumed), "bit-identical Fig 5");
    }

    #[test]
    fn snapshot_restore_preserves_active_faults() {
        let mut base = StationConfig::base_2008();
        base.gprs = GprsConfig::ideal();
        let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let plan = FaultPlan::new().with(glacsweb_faults::FaultSpec {
            fault: Fault::ServerUnreachable,
            target: FaultTarget::Server,
            onset: SimDuration::from_days(1),
            duration: SimDuration::from_days(3),
            recurrence: None,
        });
        let build = || {
            DeploymentBuilder::new(EnvConfig::lab())
                .seed(7)
                .start(start)
                .base(base.clone())
                .probes(2)
                .fault_plan(plan.clone())
                .observe()
                .build()
        };
        let mut straight = build();
        straight.run_days(6);
        let mut resumed = {
            let mut d = build();
            // Snapshot on day 2: the outage is active, its FaultOff is
            // still queued, and uploads are failing mid-retry.
            d.run_days(2);
            Deployment::restore(d.snapshot()).expect("restore")
        };
        resumed.run_days(4);
        assert_eq!(straight.summary(), resumed.summary());
        let a = straight.telemetry().expect("observed");
        let b = resumed.telemetry().expect("observed");
        let world = Origin::new("deployment", "world");
        assert_eq!(
            a.counter_value(world, "faults_off"),
            b.counter_value(world, "faults_off"),
            "the restored world cleared the in-flight fault on schedule"
        );
        assert_eq!(a.events().len(), b.events().len());
    }

    #[test]
    fn restore_rejects_misaligned_mortality_draws() {
        let d = lab_deployment(3);
        let mut state = d.snapshot();
        // Reach in via serde: drop one death-time entry.
        state.death_times.pop();
        let err = match Deployment::restore(state) {
            Err(e) => e,
            Ok(_) => panic!("restore must reject misaligned mortality draws"),
        };
        assert!(err.to_string().contains("mortality draws"), "got: {err}");
    }

    #[test]
    #[should_panic(expected = "probes need a base station")]
    fn probes_without_base_rejected() {
        let _ = DeploymentBuilder::new(EnvConfig::lab()).probes(3).build();
    }

    #[test]
    fn station_less_deployment_runs_harmlessly() {
        // Legal (probes == 0, no stations): the event queue starts empty
        // and the run just advances the clock. Regression test for the
        // empty-batch calendar bucket that made this panic on `pop`.
        let mut d = DeploymentBuilder::new(EnvConfig::lab())
            .seed(5)
            .start(SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0))
            .build();
        d.run_days(3);
        assert_eq!(d.now(), d.start() + SimDuration::from_days(3));
        let s = d.summary();
        assert_eq!(s.windows_run, 0);
        assert_eq!(s.probes_deployed, 0);
    }

    #[test]
    fn start_at_1130_puts_first_tick_and_window_on_the_same_instant() {
        // start + 30 min coincides with next_time_of_day(12, 0, 0): the
        // kick-off events for both stations share one bucket and must
        // keep the historical per-station FIFO order (tick before window,
        // base before reference). The run must proceed normally.
        let mut base = StationConfig::base_2008();
        base.gprs = GprsConfig::ideal();
        let mut reference = StationConfig::reference_2008();
        reference.gprs = GprsConfig::ideal();
        let mut d = DeploymentBuilder::new(EnvConfig::lab())
            .seed(11)
            .start(SimTime::from_ymd_hms(2009, 6, 1, 11, 30, 0))
            .base(base)
            .reference(reference)
            .build();
        d.run_days(3);
        let s = d.summary();
        assert_eq!(s.windows_run, 6, "2 stations x 3 midday windows");
        assert_eq!(s.power_losses, 0);
    }
}
