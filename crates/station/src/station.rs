//! The station: Gumsense hardware assembly plus the daily-run controller.

use std::collections::BTreeMap;

use glacsweb_env::Environment;
use glacsweb_hw::{BaseSensors, CfCard, DGps, FileName, GpsFile, Gumstix, Msp430, Watchdog};
use glacsweb_link::{DataCostMeter, GprsConfig, GprsLink, RelayWanLink, Wan};
use glacsweb_obs::{MemoryRecorder, Origin, Recorder, Scope};
use glacsweb_power::{Charger, LeadAcidBattery, MainsCharger, PowerRail, SolarPanel, WindTurbine};
use glacsweb_probe::{FetchSession, ProbeFirmware, ProbeId};
use glacsweb_sim::{AmpHours, Bytes, ConfigError, SimDuration, SimRng, SimTime, Volts, Watts};
use serde::{Deserialize, Serialize};

use crate::controller::{ControllerConfig, TraceLevel, WindowReport, WindowStep, WindowSteps};
use crate::data::{DataStore, FileKind, UploadReport};
use crate::log::{formatted_len, LogMeter};
use crate::md5::{md5, to_hex};
use crate::power_state::{PolicyTable, PowerState};
use crate::recovery::{RecoveryConfig, RecoveryOutcome};
use crate::schedule::Schedule;
use crate::uplink::{SpecialResult, StationId, Uplink, UploadItem};

/// What duties a station carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StationRole {
    /// On the glacier: subglacial probes, mobile dGPS, solar + wind.
    Base,
    /// At the café: fixed-location dGPS, solar + seasonal mains.
    Reference,
}

/// Static configuration of one station.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StationConfig {
    /// Identity on the server.
    pub id: StationId,
    /// Duties.
    pub role: StationRole,
    /// Battery bank capacity.
    pub battery: AmpHours,
    /// Initial state of charge.
    pub initial_soc: f64,
    /// Solar panel rating, if fitted.
    pub solar: Option<Watts>,
    /// Wind generator rating, if fitted.
    pub wind: Option<Watts>,
    /// Mains charger rating, if fitted (café power).
    pub mains: Option<Watts>,
    /// Table II thresholds.
    pub policy: PolicyTable,
    /// Daily-run controller settings.
    pub controller: ControllerConfig,
    /// §IV recovery settings.
    pub recovery: RecoveryConfig,
    /// GPRS network behaviour (used by the [`CommsPath::DualGprs`] path
    /// and by the reference station's onward hop).
    pub gprs: GprsConfig,
    /// Which wide-area path this station uses.
    pub comms: CommsPath,
    /// Data tariff, currency per MiB.
    pub tariff_per_mib: f64,
    /// Power state the schedule starts in.
    pub initial_state: PowerState,
}

impl StationConfig {
    /// The glacier base station as deployed: 36 Ah bank, 10 W solar, 50 W
    /// wind, probes, deployed-2008 controller.
    pub fn base_2008() -> Self {
        StationConfig {
            id: StationId::Base,
            role: StationRole::Base,
            battery: AmpHours(36.0),
            initial_soc: 1.0,
            solar: Some(Watts(10.0)),
            wind: Some(Watts(50.0)),
            mains: None,
            policy: PolicyTable::paper(),
            controller: ControllerConfig::deployed_2008(),
            recovery: RecoveryConfig::deployed_2008(),
            gprs: GprsConfig::field(),
            comms: CommsPath::DualGprs,
            tariff_per_mib: 4.0,
            initial_state: PowerState::S3,
        }
    }

    /// The Norway-style base station: same hardware, but its data rides
    /// the radio-modem relay through the reference station (§II baseline).
    pub fn base_norway_relay() -> Self {
        StationConfig {
            comms: CommsPath::RelayViaReference,
            ..StationConfig::base_2008()
        }
    }

    /// The café reference station: 36 Ah bank, 10 W solar, seasonal mains.
    pub fn reference_2008() -> Self {
        StationConfig {
            id: StationId::Reference,
            role: StationRole::Reference,
            wind: None,
            mains: Some(Watts(30.0)),
            ..StationConfig::base_2008()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.battery.value() <= 0.0 {
            return Err(ConfigError::new(
                "station",
                "battery",
                "battery capacity must be positive",
            ));
        }
        if !(0.0..=1.0).contains(&self.initial_soc) {
            return Err(ConfigError::new(
                "station",
                "initial_soc",
                format!("initial soc {} out of range", self.initial_soc),
            ));
        }
        if self.tariff_per_mib < 0.0 {
            return Err(ConfigError::new(
                "station",
                "tariff_per_mib",
                "tariff must be non-negative",
            ));
        }
        self.controller.validate()?;
        self.recovery.validate()?;
        self.gprs.validate()
    }
}

/// Which wide-area path carries the station's data home (§II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CommsPath {
    /// The deployed architecture: this station has its own GPRS modem.
    #[default]
    DualGprs,
    /// The abandoned Norway architecture: PPP over the long-range radio
    /// modem to the reference station, which forwards onward. Couples
    /// this station's communications to the partner's health.
    RelayViaReference,
}

/// A point-in-time housekeeping snapshot — the equivalent of the real
/// system's daily status record ("data collated from the base station can
/// provide useful insights into the condition of the system", §VII).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StationStatus {
    /// Which station.
    pub id: StationId,
    /// Snapshot time.
    pub at: SimTime,
    /// Battery terminal voltage.
    pub voltage: Volts,
    /// Battery state of charge.
    pub soc: f64,
    /// Operating power state.
    pub state: PowerState,
    /// Upload backlog.
    pub backlog: Bytes,
    /// CF-card usage.
    pub card_used: Bytes,
    /// dGPS files waiting on the receiver's internal card.
    pub gps_pending: usize,
    /// Accumulated RTC error, seconds.
    pub clock_error_secs: f64,
    /// Lifetime GPRS cost.
    pub gprs_cost: f64,
    /// Windows run / cut / recoveries.
    pub windows: (u64, u64, u64),
}

/// Load rail names registered on the power rail.
mod loads {
    pub const MSP430: &str = "msp430";
    pub const GUMSTIX: &str = "gumstix";
    pub const GPS: &str = "gps";
    pub const GPRS: &str = "gprs";
    pub const RADIO_MODEM: &str = "radio_modem";
    pub const PROBE_RADIO: &str = "probe_radio";
    /// Every load the station switches: a rail without one of them
    /// cannot run the station.
    pub const ALL: [&str; 6] = [MSP430, GUMSTIX, GPS, GPRS, RADIO_MODEM, PROBE_RADIO];
}

/// Time modelled for one small control exchange (state upload, override
/// fetch…) over an established GPRS session.
const CONTROL_EXCHANGE: SimDuration = SimDuration::from_secs(10);

/// SoC at which a dead station's supply is considered restored.
const RESTART_SOC: f64 = 0.15;

/// Crystal drift of the MSP430 RTC, seconds per day. §II: "maintaining
/// good time accuracy on the two units is still needed" — each dGPS
/// recording doubles as a time fix, so the error only accumulates in
/// states without GPS.
const RTC_DRIFT_SECS_PER_DAY: f64 = 4.0;

/// One Gumsense station.
///
/// The simulation world drives it through four entry points, all of which
/// internally advance the environment and the power rail to their event
/// time:
///
/// * [`Station::advance`] — integrate power between events;
/// * [`Station::on_sample`] — the MSP430's half-hourly voltage sample;
/// * [`Station::on_gps_slot`] — an MSP430-triggered dGPS recording;
/// * [`Station::on_window`] — the daily midday communications window
///   (Fig 4).
///
/// A station is its own snapshot: it serialises whole, bar the window's
/// scratch buffers. Deserialising does not check the state; a deployment
/// restore runs [`Station::validate`] before it runs a restored station.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Station {
    config: StationConfig,
    rail: PowerRail,
    msp: Msp430<Schedule>,
    gumstix: Gumstix,
    dgps: DGps,
    /// The uplink; its [`Wan::label`] names the load-rail the modem
    /// draws from.
    wan: Wan,
    cost: DataCostMeter,
    sensors: BaseSensors,
    store: DataStore,
    /// The 4 GB compact-flash card mirroring the upload queue (§II/§VII).
    card: CfCard,
    log: LogMeter,
    rng: SimRng,
    /// Survives power loss (flash) — §IV's reset-detection anchor.
    last_run: Option<SimTime>,
    fetch_sessions: BTreeMap<ProbeId, FetchSession>,
    pending_special_results: Vec<SpecialResult>,
    sensor_batch: u64,
    /// §VII priority extension: armed when a conductivity jump is seen,
    /// cleared once the data has been uploaded.
    priority_event: bool,
    /// Per-probe conductivity baselines for the priority detector
    /// (probes have different offsets, so jumps are judged per probe).
    conductivity_baselines: BTreeMap<ProbeId, f64>,
    /// §V: the wired probe is the through-ice radio gateway to the
    /// wireless probes — and a single point of failure ("using several
    /// wired probes has been considered … ruled out because of the lack
    /// of serial ports"). When it is down, no probe can be queried.
    wired_probe_ok: bool,
    /// Fault-injected GPRS degradation multiplier on the weather factor
    /// (1.0 = healthy network).
    gprs_degradation: f64,
    /// Fault-injected §VI stuck-transfer hang: the next upload stalls
    /// until the watchdog cuts the window.
    stuck_transfer: bool,
    /// Accumulated RTC error, seconds (positive = clock fast). Drifts a
    /// few seconds per day; zeroed whenever a GPS time fix happens.
    clock_error_secs: f64,
    /// Drift direction/rate multiplier for this unit's crystal.
    drift_sign: f64,
    last_drift_update: SimTime,
    powered: bool,
    /// Telemetry sink — `None`, which drops every record, unless a
    /// deployment installs a [`MemoryRecorder`]. Recording never draws
    /// from `rng`, so installing one cannot change behaviour.
    obs: Option<MemoryRecorder>,
    windows_run: u64,
    windows_cut: u64,
    recoveries: u64,
    file_seq: u64,
    /// The window's reused buffers; they grow on first use and are never
    /// part of the station's state.
    #[serde(skip)]
    // glacsweb: derived-state
    scratch: WindowScratch,
}

/// Buffers the daily window reuses instead of allocating: the framed
/// voltage log crossing the inter-processor bus and the dGPS files
/// moving over RS-232.
#[derive(Debug, Clone, Default)]
struct WindowScratch {
    bus_frame: Vec<u8>,
    gps_files: Vec<GpsFile>,
}

impl Station {
    /// Builds a station at `start` simulated time, validating the
    /// configuration first.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid configuration field.
    pub fn try_new(config: StationConfig, start: SimTime, seed: u64) -> Result<Self, ConfigError> {
        config.validate()?;
        let mut rng = SimRng::seed_from(seed);
        let battery = LeadAcidBattery::with_state(config.battery, config.initial_soc);
        let mut rail = PowerRail::new(battery, start);
        if let Some(w) = config.solar {
            rail.add_charger(Charger::Solar(SolarPanel::new(w)));
        }
        if let Some(w) = config.wind {
            rail.add_charger(Charger::Wind(WindTurbine::new(w)));
        }
        if let Some(w) = config.mains {
            rail.add_charger(Charger::Mains(MainsCharger::new(w)));
        }
        let gumstix = Gumstix::new();
        {
            let l = rail.loads_mut();
            l.add(loads::MSP430, glacsweb_hw::table1::MSP430_POWER);
            l.add(loads::GUMSTIX, gumstix.power());
            l.add(loads::GPS, glacsweb_hw::table1::GPS_POWER);
            l.add(loads::GPRS, glacsweb_hw::table1::GPRS_POWER);
            l.add(loads::RADIO_MODEM, glacsweb_hw::table1::RADIO_MODEM_POWER);
            l.add(loads::PROBE_RADIO, glacsweb_link::PROBE_RX_POWER);
            l.set_on(loads::MSP430, true);
        }
        let mut msp = Msp430::new(start);
        msp.write_schedule(Schedule::standard(config.initial_state));
        let log = LogMeter::new(config.controller.log_min_level);
        let wan = match config.comms {
            CommsPath::DualGprs => Wan::Gprs(GprsLink::try_new(config.gprs.clone())?),
            CommsPath::RelayViaReference => Wan::Relay(RelayWanLink::new()),
        };
        let cost = DataCostMeter::per_megabyte(config.tariff_per_mib);
        let is_base = config.id == StationId::Base;
        Ok(Station {
            rng: rng.fork(u64::from(is_base)),
            config,
            rail,
            msp,
            gumstix,
            dgps: DGps::new(),
            wan,
            cost,
            sensors: BaseSensors::new(),
            store: DataStore::new(),
            card: CfCard::new(Bytes::from_mib(4096)),
            log,
            last_run: Some(start),
            last_drift_update: start,
            fetch_sessions: BTreeMap::new(),
            pending_special_results: Vec::new(),
            sensor_batch: 0,
            priority_event: false,
            conductivity_baselines: BTreeMap::new(),
            wired_probe_ok: true,
            gprs_degradation: 1.0,
            stuck_transfer: false,
            clock_error_secs: 0.0,
            drift_sign: if is_base { 1.0 } else { -0.7 },
            powered: true,
            obs: None,
            windows_run: 0,
            windows_cut: 0,
            recoveries: 0,
            file_seq: 0,
            scratch: WindowScratch::default(),
        })
    }

    /// Checks a deserialised station before it runs: the configuration
    /// passes [`StationConfig::validate`], the WAN link is the one its
    /// [`CommsPath`] names, and the power rail carries every load the
    /// station switches.
    ///
    /// # Errors
    ///
    /// Returns a description of the first check that fails.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.config.validate()?;
        self.wan.validate()?;
        self.gumstix.validate()?;
        if !self.gprs_degradation.is_finite() || self.gprs_degradation < 1.0 {
            return Err(ConfigError::new(
                "station",
                "gprs_degradation",
                format!(
                    "degradation {} must be a finite multiplier >= 1",
                    self.gprs_degradation
                ),
            ));
        }
        let comms = self.config.comms;
        if !matches!(
            (comms, &self.wan),
            (CommsPath::DualGprs, Wan::Gprs(_)) | (CommsPath::RelayViaReference, Wan::Relay(_))
        ) {
            return Err(ConfigError::new(
                "station",
                "comms",
                format!(
                    "comms path {comms:?} does not match WAN state {}",
                    self.wan.label()
                ),
            ));
        }
        for name in loads::ALL {
            if self.rail.loads().energy(name).is_none() {
                return Err(ConfigError::new(
                    "station",
                    "rail",
                    format!("the power rail has no load `{name}`"),
                ));
            }
        }
        Ok(())
    }

    /// The station configuration.
    pub fn config(&self) -> &StationConfig {
        &self.config
    }

    /// The station identity.
    pub fn id(&self) -> StationId {
        self.config.id
    }

    /// The power rail (battery, loads, harvest meters).
    pub fn rail(&self) -> &PowerRail {
        &self.rail
    }

    /// The upload queue / data store.
    pub fn store(&self) -> &DataStore {
        &self.store
    }

    /// The GPRS cost meter.
    pub fn cost(&self) -> &DataCostMeter {
        &self.cost
    }

    /// The dGPS receiver.
    pub fn dgps(&self) -> &DGps {
        &self.dgps
    }

    /// Lifetime (windows run, windows cut by the watchdog, recoveries).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.windows_run, self.windows_cut, self.recoveries)
    }

    /// Total MSP430 power losses (battery exhaustions).
    pub fn power_losses(&self) -> u64 {
        self.msp.power_losses()
    }

    /// Installs an in-memory telemetry recorder. By default the station
    /// records nothing; recording never consumes simulation randomness,
    /// so installing a recorder cannot change what the station does.
    pub fn record_telemetry(&mut self) {
        self.obs = Some(MemoryRecorder::default());
    }

    /// Takes the accumulated in-memory telemetry (if a recorder is
    /// installed), leaving an empty recorder behind.
    pub fn take_telemetry(&mut self) -> Option<MemoryRecorder> {
        self.obs.as_mut().map(std::mem::take)
    }

    /// Telemetry station label for [`Origin`] scoping.
    fn station_label(&self) -> &'static str {
        match self.config.id {
            StationId::Base => "base",
            StationId::Reference => "reference",
        }
    }

    /// The station-component telemetry origin.
    fn origin(&self) -> Origin {
        Origin::new("station", self.station_label())
    }

    /// `true` while the supply can run the MSP430.
    pub fn is_powered(&self) -> bool {
        self.powered
    }

    /// The schedule the MSP430 will act on: RAM contents, or the ROM
    /// fallback (midday wake, state 0, used only to run recovery) if RAM
    /// was lost.
    pub fn effective_schedule(&self) -> Schedule {
        self.msp
            .schedule()
            .copied()
            .unwrap_or_else(Schedule::recovery_default)
    }

    /// The battery terminal voltage the MSP430's ADC would read now.
    pub fn measured_voltage(&self, env: &Environment) -> Volts {
        self.rail.measured_voltage(env)
    }

    /// Current operating power state (from the schedule).
    pub fn current_state(&self) -> PowerState {
        self.effective_schedule().state
    }

    /// When the station last completed (or started) a daily run.
    pub fn last_run(&self) -> Option<SimTime> {
        self.last_run
    }

    /// A housekeeping snapshot of the station's condition.
    pub fn status(&self, env: &Environment) -> StationStatus {
        StationStatus {
            id: self.config.id,
            at: self.rail.now(),
            voltage: self.rail.measured_voltage(env),
            soc: self.rail.battery().state_of_charge(),
            state: self.current_state(),
            backlog: self.store.backlog_bytes(),
            card_used: self.card.used(),
            gps_pending: self.dgps.pending_files().len(),
            clock_error_secs: self.clock_error_secs,
            gprs_cost: self.cost.total_cost(),
            windows: (self.windows_run, self.windows_cut, self.recoveries),
        }
    }

    /// Integrates power up to `to`, handling total exhaustion and
    /// subsequent supply restoration.
    pub fn advance(&mut self, env: &mut Environment, to: SimTime) {
        env.advance_to(to);
        self.rail.advance(env, to);
        if to > self.last_drift_update {
            let days = to.saturating_since(self.last_drift_update).as_days_f64();
            self.clock_error_secs += self.drift_sign * RTC_DRIFT_SECS_PER_DAY * days;
            self.last_drift_update = to;
        }
        if self.powered && self.rail.is_exhausted() {
            // Total power loss: RTC resets, RAM schedule and samples gone.
            self.msp.power_loss();
            self.rail.loads_mut().all_off();
            self.gumstix.power_off(to);
            if self.wan.is_connected() {
                self.wan.disconnect();
            }
            self.powered = false;
            let mut scope = Scope::new(to, self.origin(), &mut self.obs);
            scope.counter("power_losses", 1);
            if scope.enabled() {
                let event = scope.make("power_loss");
                scope.emit(event);
            }
        } else if !self.powered && self.rail.battery().state_of_charge() >= RESTART_SOC {
            // External charging revived the supply (§IV).
            self.msp.power_restored(to);
            self.rail.loads_mut().set_on(loads::MSP430, true);
            self.powered = true;
            let mut scope = Scope::new(to, self.origin(), &mut self.obs);
            scope.counter("power_restores", 1);
            if scope.enabled() {
                let event = scope.make("power_restored");
                scope.emit(event);
            }
        }
    }

    /// The MSP430's half-hourly battery sample (§III), plus hourly surface
    /// sensor readings.
    ///
    /// Returns the voltage the ADC read, or `None` if the station is
    /// unpowered — callers that want the sample (the deployment loop
    /// records it) reuse it instead of re-running the taper solve.
    pub fn on_sample(&mut self, env: &mut Environment, t: SimTime) -> Option<Volts> {
        self.advance(env, t);
        if !self.powered {
            return None;
        }
        let v = self.rail.measured_voltage(env);
        self.msp.record_voltage(t, v);
        if t.seconds_of_day().is_multiple_of(3600) {
            let _ = self.sensors.sample(env, t, &mut self.rng);
            self.sensor_batch += 1;
        }
        Some(v)
    }

    /// An MSP430-scheduled dGPS recording slot.
    ///
    /// §II: "the dGPS is activated by the microcontroller … by setting the
    /// dGPS to automatically start taking a reading whenever it is turned
    /// on."
    pub fn on_gps_slot(&mut self, env: &mut Environment, t: SimTime) -> Option<(SimTime, Volts)> {
        self.advance(env, t);
        if !self.powered || self.effective_schedule().state.gps_readings_per_day() == 0 {
            return None;
        }
        let session = self.dgps.session_duration();
        self.rail.loads_mut().set_on(loads::GPS, true);
        // Sample the sagged voltage mid-session — these are the regular
        // dips Fig 5 shows at two-hour intervals in state 3.
        let mid = t + SimDuration::from_secs(session.as_secs() / 2);
        self.advance(env, mid);
        let dip = (mid, self.rail.measured_voltage(env));
        self.advance(env, t + session);
        self.rail.loads_mut().set_on(loads::GPS, false);
        if !self.powered {
            return None; // died mid-reading
        }
        let true_position = match self.config.role {
            StationRole::Base => env.glacier_displacement_m(),
            StationRole::Reference => 0.0,
        };
        // The MSP430 triggers the session by its own (drifting) clock, so
        // the recording actually happens offset from the nominal slot —
        // the §II synchronisation concern. The dGPS then hands back GPS
        // time, which doubles as a free RTC fix.
        let skew = SimDuration::from_secs_f64(self.clock_error_secs.abs());
        // A fast clock fires the slot early; a slow one fires late.
        let actual = if self.clock_error_secs >= 0.0 {
            t - skew
        } else {
            t + skew
        };
        let file = self.dgps.take_reading(actual, true_position, &mut self.rng);
        self.clock_error_secs = 0.0;
        self.msp.set_rtc(t, t);
        // "reading {taken_at} ({satellites} sats, {size})", with the
        // size's length counted rather than float-formatted.
        if self.log.meters(TraceLevel::Debug) {
            let head = formatted_len(format_args!(
                "reading {} ({} sats, ",
                file.taken_at, file.satellites
            ));
            self.log.record_len(
                TraceLevel::Debug,
                "dgps",
                head + file.size.display_len() + ")".len() as u64,
            );
        }
        Some(dip)
    }

    /// Runs the daily communications window (Fig 4). Returns `None` when
    /// the station is unpowered.
    pub fn on_window(
        &mut self,
        env: &mut Environment,
        t: SimTime,
        probes: &mut [ProbeFirmware],
        uplink: &mut dyn Uplink,
    ) -> Option<WindowReport> {
        self.advance(env, t);
        if !self.powered {
            return None;
        }
        self.windows_run += 1;
        self.obs.counter(t, self.origin(), "windows_run", 1);
        self.wan.advance_clock(t);
        let wd = Watchdog::start(t, self.config.controller.watchdog_limit);
        let mut report = self.blank_report(t);

        // Boot Linux.
        let mut now = t;
        self.rail.loads_mut().set_on(loads::GUMSTIX, true);
        let ready = self.gumstix.power_on(now);
        self.advance(env, ready);
        now = ready;
        if !self.still_alive(&mut report, now) {
            return Some(self.finalize(env, report, now, false));
        }
        self.gumstix.boot_complete(now);

        // §IV: wake-time clock/schedule sanity check.
        let outcome = self.maybe_recover(env, &mut now);
        report.recovered = outcome.recovered();
        if outcome == RecoveryOutcome::SleepAndRetry {
            // "the system will sleep for a day and try again"
            return Some(self.finalize(env, report, now, false));
        }
        if outcome.recovered() {
            // §IV: "the system will set the schedule to state 0 … and will
            // then proceed as normal" — normal operation resumes from the
            // next window; today's run ends with the recovery itself.
            report.local_state = PowerState::S0;
            report.applied_state = PowerState::S0;
            return Some(self.finalize(env, report, now, false));
        }

        self.last_run = Some(now);

        // §VII: a corrupted CF card is detected at mount time; run the
        // (lossy) recovery before any new files are written.
        if self.card.is_corrupted() {
            let (kept, lost) = self.card.recover();
            report.card_recovered = Some((kept, lost));
            self.log.record_fmt(
                TraceLevel::Error,
                "cf",
                format_args!("filesystem corrupted; recovered {kept} files, lost {lost}"),
            );
        }

        let mut cut = false;

        'window: {
            // 1. Probe jobs — always attempted (Table II).
            if self.config.role == StationRole::Base {
                report.steps.push(WindowStep::ProbeJobs);
                cut = self.step_probe_jobs(env, &mut now, &wd, probes, &mut report);
                if cut || !self.still_alive(&mut report, now) {
                    break 'window;
                }
            }

            // 2. Readings from the MSP430 → daily average → local state.
            // The samples cross the Fig 2 inter-processor bus as framed,
            // checksummed messages (an on-board transfer is still a
            // transfer — §VI's verification lesson applies here too).
            report.steps.push(WindowStep::MspReadings);
            let (samples, daily_avg) = {
                let frame = &mut self.scratch.bus_frame;
                glacsweb_hw::bus::encode_voltage_log(self.msp.voltage_log(), frame);
                self.msp.clear_voltage_log();
                let volts = match glacsweb_hw::bus::decode_voltage_log(frame) {
                    Ok(log) => Some(log.map(|(_, mv)| f64::from(mv) / 1000.0)),
                    Err(_) => {
                        self.log.record(
                            TraceLevel::Error,
                            "bus",
                            "voltage log transfer failed checksum; using live reading",
                        );
                        None
                    }
                };
                let samples = volts.as_ref().map_or(0, |v| v.clone().count());
                match volts {
                    Some(volts) if samples > 0 => {
                        (samples, Volts(volts.sum::<f64>() / samples as f64))
                    }
                    _ => (samples, self.rail.measured_voltage(env)),
                }
            };
            report.steps.push(WindowStep::CalculatePowerState);
            report.local_state = self.config.policy.state_for(daily_avg);
            self.log.record_fmt(
                TraceLevel::Info,
                "power",
                format_args!("daily average {daily_avg} -> {}", report.local_state),
            );

            // Power state 0: stop (Fig 4's first decision diamond) —
            // unless the §VII priority extension is armed and the data
            // warrants forcing a minimal communication.
            if report.local_state == PowerState::S0 {
                if self.config.controller.priority_data && self.priority_event {
                    report.priority_forced = true;
                    self.log.record(
                        TraceLevel::Warn,
                        "priority",
                        "state 0 but priority data pending; forcing minimal upload",
                    );
                    self.step_package(now, samples as u64);
                    report.gprs_connected = self.step_connect(env, &mut now, &wd);
                    if report.gprs_connected {
                        self.advance(env, now + CONTROL_EXCHANGE);
                        now += CONTROL_EXCHANGE;
                        uplink.upload_power_state(self.config.id, now.date(), report.local_state);
                        report.state_uploaded = true;
                        cut = self.step_upload(env, &mut now, &wd, uplink, &mut report);
                        self.reconcile_card();
                        if report.upload.drained {
                            self.priority_event = false;
                            self.conductivity_baselines.clear();
                        }
                    }
                }
                report.applied_state = PowerState::S0;
                self.write_schedule(PowerState::S0, now);
                break 'window;
            }

            // 3. GPS files (only above state 1).
            if report.local_state > PowerState::S1 {
                report.steps.push(WindowStep::GetGpsFiles);
                cut = self.step_gps_files(env, &mut now, &wd, &mut report);
                if cut || !self.still_alive(&mut report, now) {
                    break 'window;
                }
            }

            // 4. Package data to be sent.
            report.steps.push(WindowStep::PackageData);
            self.step_package(now, samples as u64);

            // 5. GPRS: bring the session up.
            report.steps.push(WindowStep::ConnectGprs);
            report.gprs_connected = self.step_connect(env, &mut now, &wd);
            if wd.expired(now) {
                cut = true;
                break 'window;
            }

            if report.gprs_connected {
                // Proposed-fix ordering: special first (§VI suggestion).
                if self.config.controller.special_before_upload {
                    report.steps.push(WindowStep::GetSpecial);
                    cut = self.step_special(env, &mut now, &wd, uplink, &mut report);
                    if cut || !self.still_alive(&mut report, now) {
                        break 'window;
                    }
                }

                // 6. Upload power state.
                if self.wan.is_connected() {
                    report.steps.push(WindowStep::UploadPowerState);
                    self.advance(env, now + CONTROL_EXCHANGE);
                    now += CONTROL_EXCHANGE;
                    uplink.upload_power_state(self.config.id, now.date(), report.local_state);
                    report.state_uploaded = true;
                }

                // 7. Upload data (file by file; resumes tomorrow on cuts).
                report.steps.push(WindowStep::UploadData);
                cut = self.step_upload(env, &mut now, &wd, uplink, &mut report);
                self.reconcile_card();
                if report.upload.drained && self.priority_event {
                    // The priority event has been reported; re-arm the
                    // baselines at current levels.
                    self.priority_event = false;
                    self.conductivity_baselines.clear();
                }
                if cut || !self.still_alive(&mut report, now) {
                    break 'window;
                }

                // 8. Fetch override state.
                report.steps.push(WindowStep::GetOverrideState);
                if self.ensure_connected(env, &mut now, &wd)
                    && self.server_fetch_ready(env, &mut now, &wd, &*uplink)
                {
                    self.advance(env, now + CONTROL_EXCHANGE);
                    now += CONTROL_EXCHANGE;
                    let server_origin = Origin::new("server", self.station_label());
                    let mut scope = Scope::new(now, server_origin, &mut self.obs);
                    report.override_state =
                        uplink.fetch_override_observed(self.config.id, &mut scope);
                }

                // 9. Deployed ordering: special last (the §VI lesson).
                if !self.config.controller.special_before_upload {
                    report.steps.push(WindowStep::GetSpecial);
                    cut = self.step_special(env, &mut now, &wd, uplink, &mut report);
                    if cut || !self.still_alive(&mut report, now) {
                        break 'window;
                    }
                }

                // 10. Code updates (checksum-verified, §VI).
                report.steps.push(WindowStep::CheckUpdates);
                cut = self.step_update(env, &mut now, &wd, uplink, &mut report);
                if cut || !self.still_alive(&mut report, now) {
                    break 'window;
                }
            }

            // 11. Decide tomorrow's state and write the schedule.
            report.steps.push(WindowStep::WriteSchedule);
            report.applied_state = self
                .config
                .policy
                .apply_override(report.local_state, report.override_state);
            self.write_schedule(report.applied_state, now);
        }

        if wd.expired(now) {
            cut = true;
        }
        Some(self.finalize(env, report, now, cut))
    }

    /// Injects the §VI intermittent RS-232 cable fault.
    pub fn inject_rs232_fault(&mut self, fault: bool) {
        self.dgps.set_rs232_fault(fault);
    }

    /// Injects the §VII CF-card filesystem corruption fault.
    pub fn inject_card_corruption(&mut self) {
        self.card.inject_corruption(&mut self.rng);
    }

    /// Scales GPRS attach failures beyond the weather — the fault
    /// injector's knob for network degradation. `1.0` is a healthy
    /// network; large severities saturate at the 95 % failure cap, which
    /// approximates a total blackout.
    ///
    /// # Panics
    ///
    /// Panics if `severity` is not a finite value ≥ 1.
    pub fn set_gprs_degradation(&mut self, severity: f64) {
        assert!(
            severity.is_finite() && severity >= 1.0,
            "degradation severity must be >= 1"
        );
        self.gprs_degradation = severity;
    }

    /// Arms (or clears) the §VI stuck-transfer hang: while armed, the
    /// upload step stalls until the watchdog cuts the window — "a
    /// watchdog was added … to reboot the system if the software hangs".
    pub fn inject_stuck_transfer(&mut self, stuck: bool) {
        self.stuck_transfer = stuck;
    }

    /// Forces total battery exhaustion at `t` — the §IV power-failure
    /// fault. The exhaustion is processed immediately: the MSP430 loses
    /// its RTC and RAM schedule, and the station stays dark until
    /// external charging lifts the battery back over the restart
    /// threshold.
    pub fn force_power_failure(&mut self, env: &mut Environment, t: SimTime) {
        self.advance(env, t);
        self.rail.battery_mut().drain_empty();
        self.advance(env, t);
    }

    /// Fails or repairs the wired probe — the §V single point of failure
    /// between the base station and every wireless probe under the ice.
    pub fn set_wired_probe_ok(&mut self, ok: bool) {
        self.wired_probe_ok = ok;
    }

    /// Informs a relay-architecture station whether its partner (the
    /// reference station) is alive; a no-op for dual-GPRS stations.
    pub fn set_wan_partner_up(&mut self, up: bool) {
        self.wan.set_partner_up(up);
    }

    /// Mirrors a queued file onto the CF card, logging (but tolerating)
    /// card failures — the queue itself is the source of truth.
    fn persist(&mut self, name: FileName, size: Bytes, now: SimTime) {
        if let Err(e) = self.card.write(name, size, now) {
            self.log
                .record_fmt(TraceLevel::Warn, "cf", format_args!("write {name}: {e}"));
        }
    }

    /// Frees card copies of files that finished uploading.
    fn reconcile_card(&mut self) {
        for name in self.store.drain_completed() {
            if let Err(e) = self.card.delete(name) {
                self.log
                    .record_fmt(TraceLevel::Warn, "cf", format_args!("delete {name}: {e}"));
            }
        }
    }

    // ------------------------------------------------------------------
    // window steps
    // ------------------------------------------------------------------

    fn blank_report(&self, t: SimTime) -> WindowReport {
        WindowReport {
            station: self.config.id,
            opened: t,
            closed: t,
            cut_by_watchdog: false,
            died_mid_window: false,
            local_state: self.current_state(),
            override_state: None,
            applied_state: self.current_state(),
            probes_contacted: 0,
            probe_readings: 0,
            probe_fetch_aborted: false,
            gps_files_fetched: 0,
            gps_file_stuck: false,
            gprs_connected: false,
            state_uploaded: false,
            upload: UploadReport::default(),
            special_executed: None,
            update_applied: None,
            update_rejected: None,
            recovered: false,
            priority_forced: false,
            card_recovered: None,
            steps: WindowSteps::new(),
        }
    }

    fn still_alive(&mut self, report: &mut WindowReport, _now: SimTime) -> bool {
        if self.rail.is_exhausted() {
            report.died_mid_window = true;
            false
        } else {
            true
        }
    }

    fn maybe_recover(&mut self, env: &mut Environment, now: &mut SimTime) -> RecoveryOutcome {
        let suspect = self
            .last_run
            .map(|lr| self.msp.rtc_is_suspect(*now, lr))
            .unwrap_or(false)
            || self.msp.schedule().is_none();
        if !suspect {
            return RecoveryOutcome::NotNeeded;
        }
        let rc = self.config.recovery;
        // GPS time fix attempt.
        self.rail.loads_mut().set_on(loads::GPS, true);
        self.advance(env, *now + rc.gps_fix_duration);
        *now += rc.gps_fix_duration;
        self.rail.loads_mut().set_on(loads::GPS, false);
        if self.rng.bernoulli(rc.gps_fix_success_p) {
            self.msp.set_rtc(*now, *now);
            self.msp.write_schedule(Schedule::recovery_default());
            self.last_run = Some(*now);
            self.recoveries += 1;
            self.log.record(
                TraceLevel::Warn,
                "recovery",
                "RTC reset detected; re-synced from GPS; schedule -> state 0",
            );
            self.record_recovery(*now, "gps");
            return RecoveryOutcome::RecoveredViaGps;
        }
        if rc.ntp_fallback {
            // NTP over GPRS (the paper's proposed extension).
            if self.wan.connect_weathered(1.0, &mut self.rng).is_ok() {
                self.rail.loads_mut().set_on(self.wan.label(), true);
                self.advance(env, *now + CONTROL_EXCHANGE);
                *now += CONTROL_EXCHANGE;
                self.rail.loads_mut().set_on(self.wan.label(), false);
                self.wan.disconnect();
                if self.rng.bernoulli(rc.ntp_success_p) {
                    self.msp.set_rtc(*now, *now);
                    self.msp.write_schedule(Schedule::recovery_default());
                    self.last_run = Some(*now);
                    self.recoveries += 1;
                    self.log
                        .record(TraceLevel::Warn, "recovery", "re-synced via NTP fallback");
                    self.record_recovery(*now, "ntp");
                    return RecoveryOutcome::RecoveredViaNtp;
                }
            }
        }
        self.log
            .record(TraceLevel::Error, "recovery", "no time fix; sleeping a day");
        let mut scope = Scope::new(*now, self.origin(), &mut self.obs);
        scope.counter("recovery_failures", 1);
        if scope.enabled() {
            let event = scope.make("recovery_failed");
            scope.emit(event);
        }
        RecoveryOutcome::SleepAndRetry
    }

    /// Records a successful §IV RTC-reset recovery through the telemetry.
    fn record_recovery(&mut self, at: SimTime, via: &'static str) {
        let mut scope = Scope::new(at, self.origin(), &mut self.obs);
        scope.counter("recoveries", 1);
        if scope.enabled() {
            let event = scope.make("recovery").with("via", via);
            scope.emit(event);
        }
    }

    fn step_probe_jobs(
        &mut self,
        env: &mut Environment,
        now: &mut SimTime,
        wd: &Watchdog,
        probes: &mut [ProbeFirmware],
        report: &mut WindowReport,
    ) -> bool {
        if !self.wired_probe_ok {
            // §V: with the wired gateway dead, every probe is unreachable;
            // their readings keep accumulating under the ice.
            self.log.record(
                TraceLevel::Error,
                "probe",
                "wired probe dead; no sub-glacial communications",
            );
            return false;
        }
        let loss = env.probe_packet_loss();
        let link = glacsweb_link::ProbeRadioLink::new();
        let protocol_origin = Origin::new("protocol", self.station_label());
        for probe in probes.iter_mut() {
            if wd.expired(*now) {
                return true;
            }
            let budget = wd.cap(*now, self.config.controller.probe_budget);
            let protocol = self.config.controller.protocol;
            let session = self
                .fetch_sessions
                .entry(probe.id())
                .or_insert_with(|| FetchSession::new(probe.id(), protocol));
            self.rail.loads_mut().set_on(loads::PROBE_RADIO, true);
            let mut scope = Scope::new(*now, protocol_origin, &mut self.obs);
            let out = session.run_observed(probe, &link, loss, budget, &mut self.rng, &mut scope);
            let delivered = session.drain_delivered();
            self.advance(env, *now + out.elapsed);
            *now += out.elapsed;
            self.rail.loads_mut().set_on(loads::PROBE_RADIO, false);

            if !out.no_contact {
                report.probes_contacted += 1;
            }
            report.probe_readings += out.new_readings;
            report.probe_fetch_aborted |= out.aborted;

            if out.aborted {
                self.log.record_fmt(
                    TraceLevel::Error,
                    "probe",
                    format_args!(
                        "probe {}: individual fetch of {} readings failed",
                        probe.id(),
                        out.missing_after
                    ),
                );
            }
            if out.new_readings > 0 {
                // §VII priority extension: watch the delivered batches for
                // a conductivity rise above a running baseline (melt water
                // reaching the bed). The baseline only moves down, so a
                // gradual multi-day rise still triggers once it has grown
                // by the configured jump.
                let mean_cond = delivered.iter().map(|r| r.conductivity_us).sum::<f64>()
                    / delivered.len().max(1) as f64;
                let baseline = *self
                    .conductivity_baselines
                    .entry(probe.id())
                    .or_insert(mean_cond);
                if mean_cond < baseline {
                    self.conductivity_baselines.insert(probe.id(), mean_cond);
                } else if mean_cond - baseline
                    >= self.config.controller.priority_conductivity_jump_us
                    && !self.priority_event
                {
                    self.priority_event = true;
                    self.log.record_fmt(
                        TraceLevel::Warn,
                        "priority",
                        format_args!(
                            "probe {}: conductivity rise {baseline:.2} -> {mean_cond:.2} uS",
                            probe.id()
                        ),
                    );
                }
                // §VI lesson: a probe reappearing after months produces
                // over a megabyte of debug output.
                self.log
                    .record_len(TraceLevel::Debug, "probe", out.new_readings as u64 * 300);
                self.log.record_fmt(
                    TraceLevel::Info,
                    "probe",
                    format_args!("probe {}: {} new readings", probe.id(), out.new_readings),
                );
                let size = Bytes(delivered.len() as u64 * 32);
                let name = self.next_file_name(FileKind::Probe);
                self.persist(name, size, *now);
                self.store
                    .queue(name, size, UploadItem::ProbeData(delivered), *now);
            }
        }
        false
    }

    fn step_gps_files(
        &mut self,
        env: &mut Environment,
        now: &mut SimTime,
        wd: &Watchdog,
        report: &mut WindowReport,
    ) -> bool {
        report.gps_file_stuck = self.dgps.stuck_file(wd.limit());
        let budget = wd.remaining(*now);
        // The dGPS unit is powered while its card is read over RS-232.
        self.rail.loads_mut().set_on(loads::GPS, true);
        let mut files = std::mem::take(&mut self.scratch.gps_files);
        let spent = self.dgps.transfer_files(budget, &mut files);
        self.advance(env, *now + spent);
        *now += spent;
        self.rail.loads_mut().set_on(loads::GPS, false);
        report.gps_files_fetched = files.len();
        for f in files.drain(..) {
            let name = self.next_file_name(FileKind::Gps);
            self.persist(name, f.size, *now);
            self.store.queue(
                name,
                f.size,
                UploadItem::GpsFile {
                    taken_at: f.taken_at,
                    observed_position_m: f.observed_position_m,
                    size: f.size,
                },
                *now,
            );
        }
        self.scratch.gps_files = files;
        wd.expired(*now)
    }

    fn step_package(&mut self, now: SimTime, voltage_samples: u64) {
        // Sensor/housekeeping bundle.
        if self.sensor_batch > 0 || voltage_samples > 0 {
            let samples = self.sensor_batch + voltage_samples;
            let size = Bytes(samples * 24);
            let name = self.next_file_name(FileKind::Sensor);
            self.persist(name, size, now);
            self.store
                .queue(name, size, UploadItem::SensorData { samples, size }, now);
            self.sensor_batch = 0;
        }
        // Daily log (carries yesterday's special-command output — the §VI
        // 24-hour delay is structural).
        let size = self.log.rotate();
        let results = std::mem::take(&mut self.pending_special_results);
        let name = self.next_file_name(FileKind::Log);
        self.persist(name, size.max(Bytes(256)), now);
        self.store.queue(
            name,
            size.max(Bytes(256)),
            UploadItem::SystemLog {
                size,
                special_results: results,
            },
            now,
        );
    }

    fn step_connect(&mut self, env: &mut Environment, now: &mut SimTime, wd: &Watchdog) -> bool {
        // §I: the wetter the summer environment, the flakier the GPRS —
        // and a fault-injected degradation multiplies on top.
        let weather = (1.0 + env.melt_index()) * self.gprs_degradation;
        let policy = self.config.controller.attach_retry;
        let retry_origin = Origin::new("retry", self.station_label());
        let wan_origin = Origin::new("gprs", self.station_label());
        for attempt in 0..policy.max_attempts {
            if attempt > 0 {
                // Back off (modem powered down) before retrying, never
                // past the watchdog deadline.
                let chosen = policy.backoff_jittered_observed(
                    attempt,
                    &mut self.rng,
                    *now,
                    retry_origin,
                    "gprs_attach",
                    &mut self.obs,
                );
                let wait = wd.cap(*now, chosen);
                if wait > SimDuration::ZERO {
                    self.advance(env, *now + wait);
                    *now += wait;
                }
            }
            if wd.expired(*now) {
                return false;
            }
            self.rail.loads_mut().set_on(self.wan.label(), true);
            match self
                .wan
                .connect_observed(weather, &mut self.rng, *now, wan_origin, &mut self.obs)
            {
                Ok(setup) => {
                    self.advance(env, *now + setup);
                    *now += setup;
                    return true;
                }
                Err(wasted) => {
                    self.advance(env, *now + wasted);
                    *now += wasted;
                    self.rail.loads_mut().set_on(self.wan.label(), false);
                    self.log
                        .record(TraceLevel::Warn, self.wan.label(), "attach failed");
                }
            }
        }
        false
    }

    /// Re-attaches if a drop killed the session; returns whether connected.
    fn ensure_connected(
        &mut self,
        env: &mut Environment,
        now: &mut SimTime,
        wd: &Watchdog,
    ) -> bool {
        if self.wan.is_connected() {
            return true;
        }
        self.step_connect(env, now, wd)
    }

    /// Probes the server end-to-end before a control fetch, backing off
    /// and retrying while it is unreachable (a fault-injected outage).
    /// Waits are capped by the watchdog; a reachable server costs no
    /// time and no randomness. Returns `true` once the server answers.
    fn server_fetch_ready(
        &mut self,
        env: &mut Environment,
        now: &mut SimTime,
        wd: &Watchdog,
        uplink: &dyn Uplink,
    ) -> bool {
        let policy = self.config.controller.fetch_retry;
        let retry_origin = Origin::new("retry", self.station_label());
        for attempt in 0..policy.max_attempts {
            if attempt > 0 {
                let chosen = policy.backoff_jittered_observed(
                    attempt,
                    &mut self.rng,
                    *now,
                    retry_origin,
                    "server_fetch",
                    &mut self.obs,
                );
                let wait = wd.cap(*now, chosen);
                if wait > SimDuration::ZERO {
                    self.advance(env, *now + wait);
                    *now += wait;
                }
            }
            if wd.expired(*now) {
                return false;
            }
            if uplink.is_reachable() {
                return true;
            }
            self.log.record(
                TraceLevel::Warn,
                "server",
                "server unreachable; backing off",
            );
        }
        false
    }

    fn step_upload(
        &mut self,
        env: &mut Environment,
        now: &mut SimTime,
        wd: &Watchdog,
        uplink: &mut dyn Uplink,
        report: &mut WindowReport,
    ) -> bool {
        if self.stuck_transfer {
            // §VI: the transfer hangs and never completes; only the
            // watchdog's forced power-off ends the window.
            let stall = wd.remaining(*now);
            self.advance(env, *now + stall);
            *now += stall;
            self.log.record(
                TraceLevel::Error,
                "upload",
                "transfer hung; waiting on watchdog",
            );
            return true;
        }
        loop {
            if wd.expired(*now) {
                return true;
            }
            if !self.ensure_connected(env, now, wd) {
                return wd.expired(*now);
            }
            let budget = wd.remaining(*now);
            let r = self.store.upload(
                self.config.id,
                &mut self.wan,
                uplink,
                &mut self.cost,
                budget,
                &mut self.rng,
            );
            self.advance(env, *now + r.elapsed);
            *now += r.elapsed;
            let wan_origin = Origin::new("gprs", self.station_label());
            let mut scope = Scope::new(*now, wan_origin, &mut self.obs);
            scope.counter("upload_files", r.files_completed as u64);
            scope.counter("upload_bytes", r.bytes_sent.value());
            scope.counter("upload_session_drops", u64::from(r.session_drops));
            report.upload.files_completed += r.files_completed;
            report.upload.bytes_sent += r.bytes_sent;
            report.upload.elapsed += r.elapsed;
            report.upload.session_drops += r.session_drops;
            report.upload.drained = r.drained;
            if r.drained {
                return false;
            }
            if r.session_drops == 0 {
                // Budget exhausted (watchdog will catch it next loop).
                return wd.expired(*now);
            }
            // Session dropped: §II — stay powered briefly and retry.
        }
    }

    fn step_special(
        &mut self,
        env: &mut Environment,
        now: &mut SimTime,
        wd: &Watchdog,
        uplink: &mut dyn Uplink,
        report: &mut WindowReport,
    ) -> bool {
        if !self.ensure_connected(env, now, wd) {
            return wd.expired(*now);
        }
        self.advance(env, *now + CONTROL_EXCHANGE);
        *now += CONTROL_EXCHANGE;
        let Some(cmd) = uplink.fetch_special(self.config.id) else {
            return wd.expired(*now);
        };
        // Download the script.
        let dl = self.wan.rate().transfer_time(cmd.size);
        if wd.cap(*now, dl) < dl {
            return true; // watchdog starves the special (the §VI hazard)
        }
        self.advance(env, *now + dl);
        *now += dl;
        // Execute it (bounded by the watchdog).
        let run = wd.cap(*now, cmd.runtime);
        self.advance(env, *now + run);
        *now += run;
        if run < cmd.runtime {
            self.log.record(
                TraceLevel::Error,
                "special",
                "watchdog cut special execution",
            );
            return true;
        }
        // Output goes into the normal log (§VI) → ships tomorrow.
        self.log
            .record_len(TraceLevel::Info, "special", cmd.output_size.value());
        self.pending_special_results.push(SpecialResult {
            id: cmd.id,
            executed_at: *now,
            output_size: cmd.output_size,
        });
        report.special_executed = Some(cmd.id);
        wd.expired(*now)
    }

    fn step_update(
        &mut self,
        env: &mut Environment,
        now: &mut SimTime,
        wd: &Watchdog,
        uplink: &mut dyn Uplink,
        report: &mut WindowReport,
    ) -> bool {
        if !self.ensure_connected(env, now, wd) {
            return wd.expired(*now);
        }
        if !self.server_fetch_ready(env, now, wd, &*uplink) {
            return wd.expired(*now);
        }
        self.advance(env, *now + CONTROL_EXCHANGE);
        *now += CONTROL_EXCHANGE;
        let Some(update) = uplink.fetch_update(self.config.id) else {
            return wd.expired(*now);
        };
        let dl = self
            .wan
            .rate()
            .transfer_time(Bytes(update.payload.len() as u64));
        if wd.cap(*now, dl) < dl {
            return true;
        }
        self.advance(env, *now + dl);
        *now += dl;
        // In-flight corruption occasionally garbles the payload.
        let mut received = update.payload.clone();
        if !received.is_empty() && self.rng.bernoulli(0.03) {
            let idx = usize::try_from(self.rng.below(received.len() as u64)).unwrap_or(0);
            if let Some(byte) = received.get_mut(idx) {
                *byte ^= 0xFF;
            }
        }
        let digest = md5(&received);
        let hex = to_hex(&digest);
        // Report the computed checksum immediately by HTTP GET (§VI).
        uplink.report_checksum(self.config.id, &update.name, &hex);
        if digest == update.expected_md5 {
            report.update_applied = Some(update.name.clone());
            self.log.record_fmt(
                TraceLevel::Info,
                "update",
                format_args!("{} verified and installed", update.name),
            );
        } else {
            report.update_rejected = Some(update.name.clone());
            self.log.record_fmt(
                TraceLevel::Error,
                "update",
                format_args!("{} checksum mismatch; keeping old version", update.name),
            );
        }
        wd.expired(*now)
    }

    fn write_schedule(&mut self, state: PowerState, now: SimTime) {
        let prev = self.current_state();
        self.msp.write_schedule(Schedule::standard(state));
        let mut scope = Scope::new(now, self.origin(), &mut self.obs);
        scope.counter("schedule_writes", 1);
        if scope.enabled() && prev != state {
            let event = scope
                .make("state_transition")
                .with("from", u64::from(prev.level()))
                .with("to", u64::from(state.level()));
            scope.emit(event);
        }
    }

    fn next_file_name(&mut self, kind: FileKind) -> FileName {
        self.file_seq += 1;
        FileName::new(kind, self.file_seq)
    }

    fn finalize(
        &mut self,
        env: &mut Environment,
        mut report: WindowReport,
        now: SimTime,
        cut: bool,
    ) -> WindowReport {
        report.cut_by_watchdog = cut;
        if cut {
            self.windows_cut += 1;
            let mut scope = Scope::new(now, self.origin(), &mut self.obs);
            scope.counter("watchdog_cuts", 1);
            if scope.enabled() {
                let event = scope.make("watchdog_cut");
                scope.emit(event);
            }
            self.log.record(
                TraceLevel::Error,
                "watchdog",
                "2-hour limit reached; forcing power-off",
            );
        }
        report.closed = now;
        if self.wan.is_connected() {
            self.wan.disconnect();
        }
        // The MSP430 cuts every peripheral rail.
        let loads = self.rail.loads_mut();
        loads.set_on(loads::GUMSTIX, false);
        loads.set_on(loads::GPS, false);
        loads.set_on(loads::GPRS, false);
        loads.set_on(loads::RADIO_MODEM, false);
        loads.set_on(loads::PROBE_RADIO, false);
        self.gumstix.power_off(now);
        let _ = env;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glacsweb_env::EnvConfig;
    use glacsweb_sim::CivilDate;

    use crate::uplink::{CodeUpdate, SpecialCommand};

    /// A scriptable in-memory server for station tests.
    #[derive(Default)]
    struct FakeServer {
        states: Vec<(StationId, CivilDate, PowerState)>,
        items: Vec<UploadItem>,
        override_state: Option<PowerState>,
        special: Option<SpecialCommand>,
        update: Option<CodeUpdate>,
        checksums: Vec<(String, String)>,
        unreachable: bool,
    }

    impl Uplink for FakeServer {
        fn is_reachable(&self) -> bool {
            !self.unreachable
        }
        fn upload_power_state(&mut self, from: StationId, date: CivilDate, state: PowerState) {
            self.states.push((from, date, state));
        }
        fn upload_item(&mut self, _from: StationId, item: UploadItem) {
            self.items.push(item);
        }
        fn fetch_override(&mut self, _for: StationId) -> Option<PowerState> {
            self.override_state
        }
        fn fetch_special(&mut self, _for: StationId) -> Option<SpecialCommand> {
            self.special.take()
        }
        fn fetch_update(&mut self, _for: StationId) -> Option<CodeUpdate> {
            self.update.take()
        }
        fn report_checksum(&mut self, _from: StationId, file: &str, md5_hex: &str) {
            self.checksums.push((file.to_string(), md5_hex.to_string()));
        }
    }

    fn lab_station(start: SimTime) -> (Environment, Station) {
        let env = Environment::new(EnvConfig::lab(), 17);
        let mut config = StationConfig::base_2008();
        config.gprs = GprsConfig::ideal();
        config.controller = ControllerConfig::lessons_learnt();
        let station = Station::try_new(config, start, 4242).unwrap();
        (env, station)
    }

    fn run_day(
        env: &mut Environment,
        station: &mut Station,
        probes: &mut [ProbeFirmware],
        server: &mut FakeServer,
        day_start: SimTime,
    ) -> Option<WindowReport> {
        // Half-hourly samples up to the midday window.
        let mut t = day_start;
        for _ in 0..24 {
            t += SimDuration::from_mins(30);
            station.on_sample(env, t);
        }
        let report =
            station.on_window(env, day_start + SimDuration::from_hours(12), probes, server);
        // Rest of the day's samples.
        let mut t = day_start + SimDuration::from_hours(12) + SimDuration::from_mins(30);
        while t < day_start + SimDuration::from_days(1) {
            station.on_sample(env, t);
            t += SimDuration::from_mins(30);
        }
        report
    }

    #[test]
    fn healthy_day_runs_the_full_flowchart() {
        let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let (mut env, mut station) = lab_station(start);
        let mut server = FakeServer::default();
        let report = run_day(&mut env, &mut station, &mut [], &mut server, start)
            .expect("powered station runs");
        assert!(!report.cut_by_watchdog);
        assert!(!report.died_mid_window);
        assert_eq!(report.local_state, PowerState::S3, "full battery in June");
        assert!(report.gprs_connected);
        assert!(report.state_uploaded);
        assert!(report.upload.drained, "small first-day payload fits");
        assert_eq!(report.applied_state, PowerState::S3);
        assert_eq!(server.states.len(), 1);
        assert!(!server.items.is_empty(), "sensor + log files arrived");
        assert_eq!(station.stats().0, 1);
    }

    #[test]
    fn recording_telemetry_does_not_change_behaviour() {
        let start = SimTime::from_ymd_hms(2009, 2, 1, 0, 0, 0);
        let mut rng = SimRng::seed_from(5);
        let mut probe_plain = ProbeFirmware::deploy(21, start, &mut rng);
        let mut probe_obs = probe_plain.clone();
        let (mut env_plain, mut plain) = lab_station(start);
        let (mut env_obs, mut observed) = lab_station(start);
        observed.record_telemetry();
        let mut t = start;
        for _ in 0..200 {
            t += SimDuration::from_hours(1);
            env_plain.advance_to(t);
            env_obs.advance_to(t);
            let mut sample_rng = SimRng::seed_from(99);
            probe_plain.sample(&env_plain, t, &mut sample_rng);
            let mut sample_rng = SimRng::seed_from(99);
            probe_obs.sample(&env_obs, t, &mut sample_rng);
        }
        let window_at = t.next_time_of_day(12, 0, 0);
        let mut server_plain = FakeServer::default();
        let mut server_obs = FakeServer::default();
        let report_plain = plain
            .on_window(
                &mut env_plain,
                window_at,
                std::slice::from_mut(&mut probe_plain),
                &mut server_plain,
            )
            .expect("runs");
        let report_obs = observed
            .on_window(
                &mut env_obs,
                window_at,
                std::slice::from_mut(&mut probe_obs),
                &mut server_obs,
            )
            .expect("runs");
        assert_eq!(
            report_plain, report_obs,
            "telemetry must not consume randomness or change control flow"
        );
        assert!(
            plain.take_telemetry().is_none(),
            "null recorder keeps nothing"
        );
        let telemetry = observed.take_telemetry().expect("memory recorder");
        let station_origin = Origin::new("station", "base");
        assert_eq!(telemetry.counter_value(station_origin, "windows_run"), 1);
        assert_eq!(
            telemetry.counter_value(station_origin, "schedule_writes"),
            1
        );
        assert_eq!(
            telemetry.counter_value(Origin::new("protocol", "base"), "fetch_sessions"),
            1
        );
        assert!(
            telemetry.counter_value(Origin::new("gprs", "base"), "attach_attempts") >= 1,
            "the window attached at least once"
        );
    }

    #[test]
    fn gps_slots_record_readings_in_state3() {
        let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let (mut env, mut station) = lab_station(start);
        // Fire the twelve state-3 slots for one day.
        let sched = station.effective_schedule();
        let mut t = start;
        let mut slots = 0;
        while let Some(next) = sched.next_gps_reading(t) {
            if !next.same_day(start) {
                break;
            }
            station.on_gps_slot(&mut env, next);
            slots += 1;
            t = next;
        }
        assert_eq!(slots, 12);
        assert_eq!(station.dgps().readings_taken(), 12);
        assert_eq!(station.dgps().pending_files().len(), 12);
        // The window then drains them over RS-232.
        let mut server = FakeServer::default();
        let report = station
            .on_window(
                &mut env,
                start.next_time_of_day(12, 0, 0),
                &mut [],
                &mut server,
            )
            .expect("runs");
        assert_eq!(report.gps_files_fetched, 12);
    }

    #[test]
    fn probe_data_flows_to_the_server() {
        let start = SimTime::from_ymd_hms(2009, 2, 1, 0, 0, 0);
        let (mut env, mut station) = lab_station(start);
        let mut rng = SimRng::seed_from(5);
        let mut probe = ProbeFirmware::deploy(21, start, &mut rng);
        let mut t = start;
        for _ in 0..200 {
            t += SimDuration::from_hours(1);
            env.advance_to(t);
            probe.sample(&env, t, &mut rng);
        }
        let mut server = FakeServer::default();
        let window_at = t.next_time_of_day(12, 0, 0);
        let report = station
            .on_window(
                &mut env,
                window_at,
                std::slice::from_mut(&mut probe),
                &mut server,
            )
            .expect("runs");
        assert_eq!(report.probes_contacted, 1);
        assert_eq!(report.probe_readings, 200);
        let probe_items: usize = server
            .items
            .iter()
            .filter(|i| matches!(i, UploadItem::ProbeData(_)))
            .count();
        assert_eq!(probe_items, 1);
        assert_eq!(probe.stored_readings(), 0, "confirmed and freed");
    }

    #[test]
    fn override_holds_the_station_down() {
        // Fig 5: battery good for state 3 but held in state 2 by the
        // remote override.
        let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let (mut env, mut station) = lab_station(start);
        let mut server = FakeServer {
            override_state: Some(PowerState::S2),
            ..FakeServer::default()
        };
        let report = run_day(&mut env, &mut station, &mut [], &mut server, start).expect("runs");
        assert_eq!(report.local_state, PowerState::S3);
        assert_eq!(report.override_state, Some(PowerState::S2));
        assert_eq!(report.applied_state, PowerState::S2);
        assert_eq!(
            station.current_state(),
            PowerState::S2,
            "schedule rewritten"
        );
    }

    #[test]
    fn update_with_good_checksum_is_applied_and_reported() {
        let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let (mut env, mut station) = lab_station(start);
        let payload = b"print('new control code')".to_vec();
        let digest = md5(&payload);
        let mut server = FakeServer {
            update: Some(CodeUpdate {
                name: "control.py".into(),
                payload,
                expected_md5: digest,
            }),
            ..FakeServer::default()
        };
        // Try a few days: the 3 % in-flight corruption may hit once.
        let mut applied = false;
        for d in 0..5 {
            let day = start + SimDuration::from_days(d);
            if server.update.is_none() && !applied {
                server.update = Some(CodeUpdate {
                    name: "control.py".into(),
                    payload: b"print('new control code')".to_vec(),
                    expected_md5: digest,
                });
            }
            let report = run_day(&mut env, &mut station, &mut [], &mut server, day).expect("runs");
            if report.update_applied.is_some() {
                applied = true;
                break;
            }
        }
        assert!(applied, "update applies within a few days");
        assert!(!server.checksums.is_empty(), "checksum reported via GET");
        assert_eq!(server.checksums[0].1, crate::md5::to_hex(&digest));
    }

    #[test]
    fn corrupted_update_is_rejected() {
        let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let (mut env, mut station) = lab_station(start);
        let payload = b"good code".to_vec();
        let mut server = FakeServer {
            update: Some(CodeUpdate {
                name: "control.py".into(),
                payload,
                // Server advertises a hash that cannot match.
                expected_md5: [0u8; 16],
            }),
            ..FakeServer::default()
        };
        let report = run_day(&mut env, &mut station, &mut [], &mut server, start).expect("runs");
        assert_eq!(report.update_rejected.as_deref(), Some("control.py"));
        assert_eq!(report.update_applied, None);
        assert!(!server.checksums.is_empty(), "mismatch still reported");
    }

    #[test]
    fn special_command_runs_and_results_ship_next_day() {
        let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let (mut env, mut station) = lab_station(start);
        let mut server = FakeServer {
            special: Some(SpecialCommand {
                id: 7,
                size: Bytes::from_kib(2),
                runtime: SimDuration::from_mins(1),
                output_size: Bytes(500),
            }),
            ..FakeServer::default()
        };
        let day1 = run_day(&mut env, &mut station, &mut [], &mut server, start).expect("runs");
        assert_eq!(day1.special_executed, Some(7));
        // The §VI lesson: the output only reaches Southampton in the NEXT
        // day's log upload.
        let results_day1: usize = server
            .items
            .iter()
            .filter_map(|i| match i {
                UploadItem::SystemLog {
                    special_results, ..
                } => Some(special_results.len()),
                _ => None,
            })
            .sum();
        assert_eq!(results_day1, 0, "no results on day one");
        run_day(
            &mut env,
            &mut station,
            &mut [],
            &mut server,
            start + SimDuration::from_days(1),
        )
        .expect("runs");
        let results_total: usize = server
            .items
            .iter()
            .filter_map(|i| match i {
                UploadItem::SystemLog {
                    special_results, ..
                } => Some(special_results.len()),
                _ => None,
            })
            .sum();
        assert_eq!(results_total, 1, "results arrive with day two's log");
    }

    #[test]
    fn dead_battery_triggers_power_loss_and_recovery() {
        let start = SimTime::from_ymd_hms(2009, 1, 1, 0, 0, 0);
        let env_cfg = EnvConfig::lab();
        let mut env = Environment::new(env_cfg, 17);
        let mut config = StationConfig::base_2008();
        config.gprs = GprsConfig::ideal();
        // Tiny, nearly flat battery and no chargers: dies quickly…
        config.battery = AmpHours(1.0);
        config.initial_soc = 0.2;
        config.solar = None;
        config.wind = None;
        let mut station = Station::try_new(config, start, 9).unwrap();
        // Leave the Gumstix-scale GPS load on via gps slots: simply advance
        // with the MSP on; self-discharge plus load kills a 0.2-SoC 1-Ah
        // bank within days.
        station.rail.loads_mut().set_on(loads::GPS, true);
        let mut t = start;
        while station.is_powered() && t < start + SimDuration::from_days(10) {
            t += SimDuration::from_hours(1);
            station.advance(&mut env, t);
        }
        assert!(!station.is_powered(), "battery exhausted");
        assert_eq!(station.power_losses(), 1);
        assert_eq!(station.msp.schedule(), None, "RAM schedule lost");

        // Re-fit chargers by swapping in a fresh rail? No — model external
        // recovery directly: the real systems recover because chargers
        // refill the bank. Force-feed the battery through the rail by
        // attaching a mains charger via a new station is overkill; instead
        // verify the recovery path at the next window after the supply
        // returns.
        station.rail.loads_mut().set_on(loads::GPS, false);
        // Manually recharge (scenario hook).
        station.rail = {
            let mut rail = PowerRail::new(LeadAcidBattery::with_state(AmpHours(36.0), 0.9), t);
            {
                let l = rail.loads_mut();
                l.add(loads::MSP430, glacsweb_hw::table1::MSP430_POWER);
                l.add(loads::GUMSTIX, glacsweb_hw::table1::GUMSTIX_POWER);
                l.add(loads::GPS, glacsweb_hw::table1::GPS_POWER);
                l.add(loads::GPRS, glacsweb_hw::table1::GPRS_POWER);
                l.add(loads::RADIO_MODEM, glacsweb_hw::table1::RADIO_MODEM_POWER);
                l.add(loads::PROBE_RADIO, glacsweb_link::PROBE_RX_POWER);
            }
            rail
        };
        let wake = t + SimDuration::from_hours(2);
        station.advance(&mut env, wake);
        assert!(station.is_powered(), "supply restored");
        // The RTC now reads a 1970-epoch time: suspect.
        let mut server = FakeServer::default();
        let report = station
            .on_window(&mut env, wake, &mut [], &mut server)
            .expect("powered again");
        assert!(report.recovered, "GPS time fix re-synced the clock");
        assert_eq!(
            station.current_state(),
            PowerState::S0,
            "schedule rebuilt in state 0 (§IV)"
        );
        assert_eq!(station.stats().2, 1, "one recovery recorded");
    }

    #[test]
    fn watchdog_cuts_a_backlogged_window() {
        let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let (mut env, mut station) = lab_station(start);
        // 25 days of state-3 dGPS backlog (> the ≈21-day bound).
        let mut rng = SimRng::seed_from(31);
        for d in 0..25u64 {
            for r in 0..12u64 {
                let t = start + SimDuration::from_days(d) + SimDuration::from_hours(2 * r);
                station.dgps.take_reading(t, 0.0, &mut rng);
            }
        }
        let mut server = FakeServer::default();
        let window_at = start + SimDuration::from_days(25) + SimDuration::from_hours(12);
        let report = station
            .on_window(&mut env, window_at, &mut [], &mut server)
            .expect("runs");
        // RS-232 transfer of ~300 files plus the upload cannot fit: the
        // watchdog fires.
        assert!(report.cut_by_watchdog);
        assert!(report.gps_files_fetched > 0, "partial progress");
        assert!(
            station.dgps().pending_files().len() < 300,
            "file-by-file progress was made"
        );
        assert_eq!(station.stats().1, 1, "cut counted");
        let d = report.duration();
        assert!(
            d >= SimDuration::from_hours(2)
                && d < SimDuration::from_hours(2) + SimDuration::from_mins(5),
            "window bounded at ~2 h: {d}"
        );
    }

    #[test]
    fn state_zero_day_skips_comms() {
        let start = SimTime::from_ymd_hms(2009, 1, 1, 0, 0, 0);
        let mut env = Environment::new(EnvConfig::lab(), 17);
        let mut config = StationConfig::base_2008();
        config.gprs = GprsConfig::ideal();
        config.initial_soc = 0.02; // deeply discharged → S0 daily average
        config.solar = None;
        config.wind = None;
        let mut station = Station::try_new(config, start, 4242).unwrap();
        let mut server = FakeServer::default();
        let report = run_day(&mut env, &mut station, &mut [], &mut server, start)
            .expect("still powered, barely");
        assert_eq!(report.local_state, PowerState::S0);
        assert!(!report.gprs_connected, "state 0 does no GPRS");
        assert!(!report.state_uploaded);
        assert!(server.states.is_empty());
        assert_eq!(station.current_state(), PowerState::S0);
    }

    #[test]
    fn reference_station_takes_fixed_position_readings() {
        let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let mut env = Environment::new(EnvConfig::vatnajokull(), 17);
        let mut config = StationConfig::reference_2008();
        config.gprs = GprsConfig::ideal();
        let mut station = Station::try_new(config, start, 7).unwrap();
        let slot = start + SimDuration::from_mins(30);
        station.on_gps_slot(&mut env, slot);
        let file = &station.dgps().pending_files()[0];
        assert!(
            file.observed_position_m.abs() < 10.0,
            "reference sits still: {}",
            file.observed_position_m
        );
    }

    #[test]
    fn cf_card_mirrors_the_upload_queue() {
        let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let (mut env, _) = lab_station(start);
        // Break the uplink so nothing uploads: files must pile up on the
        // card exactly as in the queue.
        let mut config = StationConfig::base_2008();
        config.gprs = GprsConfig {
            setup_failure_p: 1.0,
            ..GprsConfig::field()
        };
        let mut station = Station::try_new(config, start, 4242).unwrap();
        let mut server = FakeServer::default();
        for d in 0..3 {
            run_day(
                &mut env,
                &mut station,
                &mut [],
                &mut server,
                start + SimDuration::from_days(d),
            );
        }
        assert_eq!(
            station.card.list().len(),
            station.store().backlog_files(),
            "card and queue agree"
        );
        assert!(station.card.used().value() > 0);
        let _ = station;
    }

    #[test]
    fn cf_card_frees_files_after_upload() {
        let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let (mut env, mut station) = lab_station(start);
        let mut server = FakeServer::default();
        let report = run_day(&mut env, &mut station, &mut [], &mut server, start).expect("runs");
        assert!(report.upload.drained);
        assert_eq!(
            station.card.list().len(),
            0,
            "everything uploaded and freed"
        );
    }

    #[test]
    fn card_corruption_is_recovered_at_the_next_window() {
        let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let (mut env, _) = lab_station(start);
        // Break the uplink so the card carries files.
        let mut config = StationConfig::base_2008();
        config.gprs = GprsConfig {
            setup_failure_p: 1.0,
            ..GprsConfig::field()
        };
        config.controller = ControllerConfig::lessons_learnt();
        let mut station = Station::try_new(config, start, 4242).unwrap();
        let mut server = FakeServer::default();
        for d in 0..4 {
            run_day(
                &mut env,
                &mut station,
                &mut [],
                &mut server,
                start + SimDuration::from_days(d),
            );
        }
        let files_before = station.card.list().len();
        assert!(files_before > 0);
        station.inject_card_corruption();
        assert!(station.card.is_corrupted());
        let report = run_day(
            &mut env,
            &mut station,
            &mut [],
            &mut server,
            start + SimDuration::from_days(4),
        )
        .expect("runs");
        let (kept, lost) = report.card_recovered.expect("recovery ran");
        assert_eq!(kept + lost, files_before, "every file accounted for");
        assert!(!station.card.is_corrupted());
        assert_eq!(station.card.corruption_events(), 1);
    }

    #[test]
    fn priority_event_forces_a_state0_upload() {
        // A flat-battery station in state 0 with the extension enabled.
        let start = SimTime::from_ymd_hms(2009, 2, 1, 0, 0, 0);
        let mut env = Environment::new(EnvConfig::lab(), 17);
        let mut config = StationConfig::base_2008();
        config.gprs = GprsConfig::ideal();
        config.controller = ControllerConfig::with_priority_data();
        config.solar = None;
        config.wind = None;
        config.initial_soc = 0.11; // state 0
        let mut station = Station::try_new(config, start, 4242).unwrap();
        let mut rng = SimRng::seed_from(5);
        let mut probe = ProbeFirmware::deploy(21, start, &mut rng);
        let mut server = FakeServer::default();

        // Day 1: baseline fetch in state 0 — no upload.
        let mut t = start;
        for _ in 0..20 {
            t += SimDuration::from_hours(1);
            env.advance_to(t);
            probe.sample(&env, t, &mut rng);
        }
        let r1 = station
            .on_window(
                &mut env,
                start + SimDuration::from_hours(12),
                std::slice::from_mut(&mut probe),
                &mut server,
            )
            .expect("runs");
        assert_eq!(r1.local_state, PowerState::S0);
        assert!(!r1.priority_forced, "no event yet");
        assert!(server.items.is_empty());

        // Inject a conductivity surge by killing this probe and deploying
        // a hotter one? Simpler: sample many more readings after pushing
        // the environment's melt up is slow in a lab env — instead drive
        // the detector directly through a second probe whose personality
        // reads hot is still indirect. Use the baseline-reset property:
        // feed the same probe but with the environment's conductivity
        // raised via a long advance into summer.
        let jump_day = SimTime::from_ymd_hms(2009, 6, 20, 0, 0, 0);
        let mut t = jump_day;
        env.advance_to(t);
        for _ in 0..48 {
            t += SimDuration::from_hours(1);
            env.advance_to(t);
            probe.sample(&env, t, &mut rng);
        }
        let r2 = station
            .on_window(
                &mut env,
                t.next_time_of_day(12, 0, 0),
                std::slice::from_mut(&mut probe),
                &mut server,
            )
            .expect("runs");
        assert_eq!(r2.local_state, PowerState::S0, "battery still flat");
        assert!(r2.priority_forced, "summer conductivity jump forces comms");
        assert!(r2.state_uploaded);
        assert!(!server.items.is_empty(), "the data reached Southampton");
        // The forced upload carried the conductivity-rise and the
        // priority-override lines.
        assert_eq!(log_sizes(&server), [445]);
    }

    #[test]
    fn status_snapshot_reflects_the_station() {
        let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let (mut env, mut station) = lab_station(start);
        let mut server = FakeServer::default();
        run_day(&mut env, &mut station, &mut [], &mut server, start);
        let status = station.status(&env);
        assert_eq!(status.id, StationId::Base);
        assert!((0.0..=1.0).contains(&status.soc));
        assert!(status.voltage.value() > 11.0);
        assert_eq!(status.windows.0, 1);
        assert_eq!(status.backlog, Bytes::ZERO, "ideal link drained");
        // Snapshot serialises for the housekeeping stream.
        let json = serde_json::to_string(&status).expect("serialize");
        let back: StationStatus = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.state, status.state);
    }

    #[test]
    fn rtc_drift_accumulates_and_gps_readings_fix_it() {
        let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let (mut env, mut station) = lab_station(start);
        assert_eq!(station.clock_error_secs, 0.0);
        // Thirty days with no GPS activity: the crystal drifts.
        station.advance(&mut env, start + SimDuration::from_days(30));
        let drifted = station.clock_error_secs;
        assert!((drifted - 120.0).abs() < 1.0, "4 s/day × 30 d: {drifted}");
        // One dGPS recording doubles as a time fix.
        let slot = start + SimDuration::from_days(30) + SimDuration::from_mins(30);
        station.on_gps_slot(&mut env, slot);
        assert_eq!(station.clock_error_secs, 0.0, "GPS time zeroes the error");
        // And the reading's timestamp reflects the pre-fix skew.
        let file = station
            .dgps()
            .pending_files()
            .last()
            .expect("reading taken");
        let offset = slot.saturating_since(file.taken_at).as_secs();
        assert!(
            (115..=125).contains(&offset),
            "slot fired ~2 min early: {offset}s"
        );
    }

    // ------------------------------------------------------------------
    // log-byte pins: the daily system log's size feeds GPRS airtime and
    // energy, so every line the station logs is pinned through the
    // `SystemLog` sizes the server receives. Each scenario ends on clean
    // days that drain the queue, so no logged byte stays undelivered.
    // ------------------------------------------------------------------

    /// Every daily system log's size, in delivery order.
    fn log_sizes(server: &FakeServer) -> Vec<u64> {
        server
            .items
            .iter()
            .filter_map(|i| match i {
                UploadItem::SystemLog { size, .. } => Some(size.value()),
                _ => None,
            })
            .collect()
    }

    /// A lab base station with the deployed controller, which logs at
    /// debug level.
    fn debug_station(env_config: EnvConfig, start: SimTime) -> (Environment, Station) {
        let env = Environment::new(env_config, 17);
        let mut config = StationConfig::base_2008();
        config.gprs = GprsConfig::ideal();
        let station = Station::try_new(config, start, 4242).unwrap();
        (env, station)
    }

    /// A probe deployed `days` before `start` and sampled hourly up to
    /// it, so it has a backlog to fetch.
    fn probe_with_backlog(env: &mut Environment, start: SimTime, days: u64) -> ProbeFirmware {
        let mut rng = SimRng::seed_from(5);
        let deployed = start - SimDuration::from_days(days);
        let mut probe = ProbeFirmware::deploy(21, deployed, &mut rng);
        let mut t = deployed;
        while t < start {
            t += SimDuration::from_hours(1);
            env.advance_to(t);
            probe.sample(env, t, &mut rng);
        }
        probe
    }

    fn day(start: SimTime, d: u64) -> SimTime {
        start + SimDuration::from_days(d)
    }

    #[test]
    fn log_bytes_of_a_debug_level_day_are_pinned() {
        // dGPS readings, a probe fetch (debug dump and summary), the
        // daily average, a special command's output and both code-update
        // outcomes.
        let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let (mut env, mut station) = debug_station(EnvConfig::lab(), start);
        let mut probes = [probe_with_backlog(&mut env, start, 3)];
        let payload = b"print('new control code')".to_vec();
        let mut server = FakeServer {
            special: Some(SpecialCommand {
                id: 7,
                size: Bytes::from_kib(2),
                runtime: SimDuration::from_mins(1),
                output_size: Bytes(500),
            }),
            update: Some(CodeUpdate {
                name: "control.py".into(),
                expected_md5: md5(&payload),
                payload,
            }),
            ..FakeServer::default()
        };
        station.on_gps_slot(&mut env, start + SimDuration::from_mins(10));
        let r0 = run_day(&mut env, &mut station, &mut probes, &mut server, start).expect("runs");
        assert!(r0.probe_readings > 0);
        assert_eq!(r0.special_executed, Some(7));
        assert_eq!(r0.update_applied.as_deref(), Some("control.py"));
        server.update = Some(CodeUpdate {
            name: "control.py".into(),
            payload: b"good code".to_vec(),
            expected_md5: [0u8; 16],
        });
        let r1 =
            run_day(&mut env, &mut station, &mut [], &mut server, day(start, 1)).expect("runs");
        assert_eq!(r1.update_rejected.as_deref(), Some("control.py"));
        for d in 2..4 {
            run_day(&mut env, &mut station, &mut [], &mut server, day(start, d));
        }
        assert_eq!(station.store().backlog_files(), 0);
        assert_eq!(log_sizes(&server), [21852, 680, 157, 70]);
    }

    #[test]
    fn log_bytes_of_fault_days_are_pinned() {
        let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let (mut env, mut station) = debug_station(EnvConfig::lab(), start);
        let mut probes = [probe_with_backlog(&mut env, start, 3)];
        let mut server = FakeServer::default();
        let mut days = (0..).map(|d| day(start, d));
        let mut next =
            |station: &mut Station, probes: &mut [ProbeFirmware], server: &mut FakeServer| {
                let at = days.next().expect("unbounded");
                run_day(&mut env, station, probes, server, at).expect("runs")
            };
        // The wired gateway is dead and the server is unreachable.
        station.set_wired_probe_ok(false);
        server.unreachable = true;
        let dead = next(&mut station, &mut probes, &mut server);
        assert_eq!(dead.probes_contacted, 0);
        station.set_wired_probe_ok(true);
        server.unreachable = false;
        // Every GPRS attach fails for a week: files pile up on the card.
        station.wan = Wan::Gprs(
            GprsLink::try_new(GprsConfig {
                setup_failure_p: 1.0,
                ..GprsConfig::ideal()
            })
            .unwrap(),
        );
        for _ in 0..7 {
            let no_attach = next(&mut station, &mut [], &mut server);
            assert!(!no_attach.gprs_connected);
        }
        station.wan = Wan::Gprs(GprsLink::try_new(GprsConfig::ideal()).unwrap());
        // The card is corrupted (recovered, some files lost) and the
        // transfer hangs until the watchdog cuts the window.
        station.inject_card_corruption();
        station.inject_stuck_transfer(true);
        let stuck = next(&mut station, &mut [], &mut server);
        let (_, lost) = stuck.card_recovered.expect("card recovered");
        assert!(lost > 0, "the recovery lost files");
        assert!(stuck.cut_by_watchdog);
        station.inject_stuck_transfer(false);
        // The upload frees files the recovery lost; then a special
        // command outruns the watchdog.
        server.special = Some(SpecialCommand {
            id: 8,
            size: Bytes::from_kib(2),
            runtime: SimDuration::from_hours(3),
            output_size: Bytes(100),
        });
        let special_cut = next(&mut station, &mut [], &mut server);
        assert!(special_cut.cut_by_watchdog);
        // A tiny card: every file write fails, and so does every delete.
        station.card = CfCard::new(Bytes(64));
        let tiny_card = next(&mut station, &mut [], &mut server);
        assert!(tiny_card.upload.drained);
        station.card = CfCard::new(Bytes::from_mib(4096));
        // RTC resets: recovery by GPS, by NTP, then no fix at all.
        for (gps, ntp, recovers) in [(1.0, false, true), (0.0, true, true), (0.0, false, false)] {
            station.config.recovery = RecoveryConfig {
                gps_fix_success_p: gps,
                ntp_fallback: ntp,
                ntp_success_p: 1.0,
                ..RecoveryConfig::deployed_2008()
            };
            station.msp.power_loss();
            station.msp.power_restored(station.last_drift_update);
            let reset = next(&mut station, &mut [], &mut server);
            assert_eq!(reset.recovered, recovers);
        }
        station.config.recovery = RecoveryConfig {
            gps_fix_success_p: 1.0,
            ..RecoveryConfig::deployed_2008()
        };
        for _ in 0..4 {
            next(&mut station, &mut [], &mut server);
        }
        assert_eq!(station.store().backlog_files(), 0);
        assert_eq!(
            log_sizes(&server),
            [154, 484, 217, 217, 217, 217, 217, 217, 299, 221, 405, 678, 70, 70]
        );
    }

    #[test]
    fn log_bytes_of_an_aborted_probe_fetch_are_pinned() {
        // A lossy radio and a long backlog: the deployed protocol's
        // individual fetch gives up (§V).
        let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let lossy = EnvConfig {
            probe_loss_dry: 0.134,
            probe_loss_wet: 0.134,
            ..EnvConfig::lab()
        };
        let (mut env, mut station) = debug_station(lossy, start);
        station.config.controller.watchdog_limit = SimDuration::from_hours(8);
        station.config.controller.probe_budget = SimDuration::from_hours(6);
        let mut probe = probe_with_backlog(&mut env, start, 125);
        let mut server = FakeServer::default();
        let r = run_day(
            &mut env,
            &mut station,
            std::slice::from_mut(&mut probe),
            &mut server,
            start,
        )
        .expect("runs");
        assert!(r.probe_fetch_aborted);
        for d in 1..3 {
            run_day(&mut env, &mut station, &mut [], &mut server, day(start, d));
        }
        assert_eq!(station.store().backlog_files(), 0);
        assert_eq!(log_sizes(&server), [785957, 70, 70]);
    }

    #[test]
    #[should_panic(expected = "invalid station config")]
    fn rejects_invalid_config() {
        let mut config = StationConfig::base_2008();
        config.initial_soc = 2.0;
        Station::try_new(config, SimTime::EPOCH, 0).expect("invalid station config");
    }
}
