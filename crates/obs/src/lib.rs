//! Deterministic observability for the Glacsweb reproduction.
//!
//! The paper's hardest lesson (§V) is that the 2008 field failures — the
//! individual-fetch abort, the RTC reset, the dGPS desync — were only
//! understood *after* the season because the deployed system reported
//! almost nothing about its own behaviour. This crate is the telemetry
//! layer the deployment lacked: a [`Recorder`] sink for structured
//! events, counters, gauges, and fixed-bucket histograms, threaded
//! through the station controller, the NACK protocol, the retry policy,
//! the GPRS link, and the server override logic.
//!
//! # Determinism contract
//!
//! Telemetry is part of the simulation's reproducibility surface, so the
//! same rules apply as everywhere else in the workspace:
//!
//! * **Sim time only.** Every record is timestamped with
//!   [`glacsweb_sim::SimTime`]; wall clocks (`Instant`/`SystemTime`) are
//!   banned here by the `glacsweb-analyze` determinism rule.
//! * **Ordered storage.** [`MemoryRecorder`] gives each `(origin, name)`
//!   key a slot in one key registry; counter totals, gauges and
//!   histograms are columns indexed by slot, and the per-civil-day
//!   rollup is a date-ordered run of day rows holding one count per
//!   slot. Every export walks the registry in `(origin, name)` order and
//!   the rows in date order, so JSON byte order never depends on
//!   hashing, label addresses, or the order keys were first seen.
//!   Retained events sit in record order in a compact arena and are
//!   read back as [`EventRef`] views (see [`Events`]).
//! * **Deterministic merge.** [`MemoryRecorder::merge_from`] is a pure
//!   fold; merging per-cell recorders in input-index order produces
//!   byte-identical [`MemoryRecorder::to_json`] output at any thread
//!   count (asserted by `glacsweb-sweep`'s tests).
//! * **Zero-cost default.** [`NullRecorder`] reports
//!   [`Recorder::enabled`]` == false` and drops everything, so hot paths
//!   guard event construction and pay nothing when telemetry is off.
//!
//! # Example
//!
//! ```
//! use glacsweb_obs::{Event, MemoryRecorder, Origin, Recorder};
//! use glacsweb_sim::SimTime;
//!
//! let t = SimTime::from_ymd_hms(2009, 6, 1, 12, 0, 0);
//! let origin = Origin::new("station", "base");
//! let mut rec = MemoryRecorder::default();
//! rec.counter(t, origin, "windows_run", 1);
//! if rec.enabled() {
//!     rec.event(Event::new(t, origin, "state_transition").with("from", 3u64).with("to", 2u64));
//! }
//! assert!(rec.to_json().starts_with("{\n  \"schema\": \"glacsweb-obs/1\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events;
mod memory;
mod ndjson;
#[cfg(test)]
mod reference;

pub use events::{EventRef, Events};
pub use memory::{merge_all, Histogram, MemoryRecorder, BUCKET_BOUNDS, DEFAULT_EVENT_CAPACITY};
pub use ndjson::NDJSON_SCHEMA;

use std::fmt;

use glacsweb_sim::SimTime;

/// Interns a label into the process-wide `&'static str` pool.
///
/// All telemetry keys ([`Origin`] halves, counter and event names, field
/// keys) are `&'static str` so records stay `Copy`-cheap; a snapshot
/// restore, however, starts from owned strings read off disk. This pool
/// bridges the two: each distinct label is leaked exactly once and every
/// later request returns the same `'static` reference. The set of labels
/// in a deployment is a small closed vocabulary, so the leak is bounded.
/// A `BTreeSet` (never a `HashMap`) keeps lookups deterministic, per the
/// `glacsweb-analyze` rule.
pub fn intern(s: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static POOL: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(BTreeSet::new()));
    // A poisoned lock only means another thread panicked mid-insert; the
    // set itself is still a valid set of leaked strings, so keep going.
    let mut guard = match pool.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(&existing) = guard.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    guard.insert(leaked);
    leaked
}

/// Where a telemetry record came from: a component scoped to a station.
///
/// Both halves are `&'static str` so records are cheap to build and the
/// pair is `Copy`; the derived `Ord` orders the [`MemoryRecorder`]'s key
/// registry, and so every export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Origin {
    /// Subsystem label, e.g. `"station"`, `"gprs"`, `"protocol"`,
    /// `"retry"`, `"server"`, or `"deployment"` for world-level records.
    pub component: &'static str,
    /// Station scope: `"base"`, `"reference"`, or `"world"` for records
    /// not attributable to a single station.
    pub station: &'static str,
}

impl Origin {
    /// Creates an origin from a component and a station label.
    pub const fn new(component: &'static str, station: &'static str) -> Self {
        Origin { component, station }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.component, self.station)
    }
}

/// A dynamically-typed field value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point; non-finite values serialise as JSON `null`.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short free-form text (state names, fault labels, outcomes).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(u64::try_from(v).unwrap_or(u64::MAX))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One structured telemetry event: a named occurrence at a sim-time
/// instant with ordered key/value fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// When the event happened, in simulated time.
    pub at: SimTime,
    /// Which component/station emitted it.
    pub origin: Origin,
    /// Event name, e.g. `"state_transition"` or `"fault_on"`.
    pub name: &'static str,
    /// Ordered fields; insertion order is preserved into the JSON.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Creates an event with no fields.
    pub fn new(at: SimTime, origin: Origin, name: &'static str) -> Self {
        Event {
            at,
            origin,
            name,
            fields: Vec::new(),
        }
    }

    /// Appends a field, fluently.
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.fields.push((key, value.into()));
        self
    }
}

// Serde for the record types is hand-written because they carry
// `&'static str` labels: serialization writes the label text, restore
// routes it through [`intern`] to get the `'static` reference back.
impl serde::Serialize for Origin {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            (
                serde::Value::Str("component".to_string()),
                serde::Value::Str(self.component.to_string()),
            ),
            (
                serde::Value::Str("station".to_string()),
                serde::Value::Str(self.station.to_string()),
            ),
        ])
    }
}

impl serde::Deserialize for Origin {
    fn from_value(v: &serde::Value) -> Result<Self, serde::de::Error> {
        let component: String = serde::de::field(v, "component")?;
        let station: String = serde::de::field(v, "station")?;
        Ok(Origin {
            component: intern(&component),
            station: intern(&station),
        })
    }
}

// Externally tagged, matching the shape the vendored derive would emit
// for a data-carrying enum: `{"U64": 3}`.
impl serde::Serialize for Value {
    fn to_value(&self) -> serde::Value {
        let (tag, inner) = match self {
            Value::U64(v) => ("U64", serde::Value::U64(*v)),
            Value::I64(v) => ("I64", serde::Value::I64(*v)),
            Value::F64(v) => ("F64", serde::Value::F64(*v)),
            Value::Bool(v) => ("Bool", serde::Value::Bool(*v)),
            Value::Str(v) => ("Str", serde::Value::Str(v.clone())),
        };
        serde::Value::Map(vec![(serde::Value::Str(tag.to_string()), inner)])
    }
}

impl serde::Deserialize for Value {
    fn from_value(v: &serde::Value) -> Result<Self, serde::de::Error> {
        let entry = v
            .as_map()
            .filter(|m| m.len() == 1)
            .and_then(<[(serde::Value, serde::Value)]>::first)
            .ok_or_else(|| {
                serde::de::Error::custom("telemetry value must be a single-entry tagged map")
            })?;
        let (tag, inner) = entry;
        match tag.as_str() {
            Some("U64") => Ok(Value::U64(serde::Deserialize::from_value(inner)?)),
            Some("I64") => Ok(Value::I64(serde::Deserialize::from_value(inner)?)),
            Some("F64") => Ok(Value::F64(serde::Deserialize::from_value(inner)?)),
            Some("Bool") => Ok(Value::Bool(serde::Deserialize::from_value(inner)?)),
            Some("Str") => Ok(Value::Str(serde::Deserialize::from_value(inner)?)),
            _ => Err(serde::de::Error::custom(format!(
                "unknown telemetry value tag: {tag:?}"
            ))),
        }
    }
}

impl serde::Serialize for Event {
    fn to_value(&self) -> serde::Value {
        let fields = self
            .fields
            .iter()
            .map(|(k, val)| {
                serde::Value::Seq(vec![serde::Value::Str((*k).to_string()), val.to_value()])
            })
            .collect();
        serde::Value::Map(vec![
            (serde::Value::Str("at".to_string()), self.at.to_value()),
            (
                serde::Value::Str("origin".to_string()),
                self.origin.to_value(),
            ),
            (
                serde::Value::Str("name".to_string()),
                serde::Value::Str(self.name.to_string()),
            ),
            (
                serde::Value::Str("fields".to_string()),
                serde::Value::Seq(fields),
            ),
        ])
    }
}

impl serde::Deserialize for Event {
    fn from_value(v: &serde::Value) -> Result<Self, serde::de::Error> {
        let name: String = serde::de::field(v, "name")?;
        let raw_fields = v
            .get("fields")
            .and_then(serde::Value::as_seq)
            .ok_or_else(|| serde::de::Error::custom("event: missing `fields` sequence"))?;
        let mut fields = Vec::with_capacity(raw_fields.len());
        for pair in raw_fields {
            let (key, val) = match pair.as_seq() {
                Some([k, val]) => (k, val),
                _ => {
                    return Err(serde::de::Error::custom(
                        "event field must be a [key, value] pair",
                    ))
                }
            };
            let key = key
                .as_str()
                .ok_or_else(|| serde::de::Error::custom("event field key must be a string"))?;
            fields.push((intern(key), <Value as serde::Deserialize>::from_value(val)?));
        }
        Ok(Event {
            at: serde::de::field(v, "at")?,
            origin: serde::de::field(v, "origin")?,
            name: intern(&name),
            fields,
        })
    }
}

/// A sink for telemetry records.
///
/// Implementations must be deterministic: same record sequence in, same
/// state out. The shipped sinks are [`NullRecorder`] (drops everything,
/// `enabled() == false`), [`MemoryRecorder`] (accumulates everything and
/// exports `TELEMETRY.json`) and `Option<MemoryRecorder>`, the one a
/// station or deployment holds (`None` drops everything).
///
/// Call-site pattern for anything that allocates to describe itself:
///
/// ```
/// use glacsweb_obs::{Event, Origin, Recorder};
/// use glacsweb_sim::SimTime;
///
/// fn fault_on(obs: &mut dyn Recorder, now: SimTime, origin: Origin, label: &str) {
///     if obs.enabled() {
///         obs.event(Event::new(now, origin, "fault_on").with("fault", label));
///     }
/// }
/// ```
pub trait Recorder: fmt::Debug + Send {
    /// `false` for sinks that drop everything — hot paths use this to
    /// skip building event payloads entirely.
    fn enabled(&self) -> bool;

    /// Records a structured event.
    fn event(&mut self, event: Event);

    /// Adds `delta` to the counter `name` under `origin`, and to the
    /// per-civil-day rollup for `at.date()`.
    fn counter(&mut self, at: SimTime, origin: Origin, name: &'static str, delta: u64);

    /// Sets the gauge `name` under `origin`; the chronologically latest
    /// write wins (ties resolved in favour of the later write).
    fn gauge(&mut self, at: SimTime, origin: Origin, name: &'static str, value: f64);

    /// Records `value` into the fixed-bucket histogram `name` under
    /// `origin` (bucket bounds: [`BUCKET_BOUNDS`]).
    fn observe(&mut self, origin: Origin, name: &'static str, value: u64);
}

/// A recorder handle pre-scoped with the instant and origin every record
/// should carry — collapses the `(at, origin, obs)` argument triple at
/// instrumented call sites.
#[derive(Debug)]
pub struct Scope<'a> {
    /// Timestamp applied to every record made through this scope.
    pub at: SimTime,
    /// Origin applied to every record made through this scope.
    pub origin: Origin,
    /// The underlying sink.
    pub obs: &'a mut dyn Recorder,
}

impl<'a> Scope<'a> {
    /// Scopes `obs` to one instant and origin.
    pub fn new(at: SimTime, origin: Origin, obs: &'a mut dyn Recorder) -> Self {
        Scope { at, origin, obs }
    }

    /// A scope over a throwaway [`NullRecorder`] — what un-instrumented
    /// delegating APIs pass to their observed counterparts.
    pub fn null(obs: &'a mut NullRecorder) -> Self {
        Scope {
            at: SimTime::EPOCH,
            origin: Origin::new("null", "null"),
            obs,
        }
    }

    /// Whether the underlying sink keeps anything.
    pub fn enabled(&self) -> bool {
        self.obs.enabled()
    }

    /// Starts an event at this scope's instant and origin (finish with
    /// [`Event::with`] and hand it to [`Scope::emit`]).
    pub fn make(&self, name: &'static str) -> Event {
        Event::new(self.at, self.origin, name)
    }

    /// Records a fully-built event.
    pub fn emit(&mut self, event: Event) {
        self.obs.event(event);
    }

    /// Adds to a counter at this scope's instant and origin.
    pub fn counter(&mut self, name: &'static str, delta: u64) {
        self.obs.counter(self.at, self.origin, name, delta);
    }

    /// Sets a gauge at this scope's instant and origin.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.obs.gauge(self.at, self.origin, name, value);
    }

    /// Records a histogram observation at this scope's origin.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.obs.observe(self.origin, name, value);
    }
}

/// The zero-cost default recorder: drops every record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn event(&mut self, _event: Event) {}

    fn counter(&mut self, _at: SimTime, _origin: Origin, _name: &'static str, _delta: u64) {}

    fn gauge(&mut self, _at: SimTime, _origin: Origin, _name: &'static str, _value: f64) {}

    fn observe(&mut self, _origin: Origin, _name: &'static str, _value: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> SimTime {
        SimTime::from_ymd_hms(2009, 6, 1, 12, 0, 0)
    }

    #[test]
    fn origin_displays_component_at_station() {
        assert_eq!(Origin::new("gprs", "base").to_string(), "gprs@base");
    }

    #[test]
    fn event_builder_preserves_field_order() {
        let e = Event::new(t0(), Origin::new("station", "base"), "x")
            .with("b", 2u64)
            .with("a", 1u64);
        let keys: Vec<&str> = e.fields.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["b", "a"], "insertion order, not sorted");
    }

    #[test]
    fn value_from_conversions() {
        assert_eq!(Value::from(3u32), Value::U64(3));
        assert_eq!(Value::from(3usize), Value::U64(3));
        assert_eq!(Value::from(-3i64), Value::I64(-3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("s"), Value::Str("s".to_string()));
    }

    #[test]
    fn null_recorder_is_disabled_and_keeps_nothing() {
        let mut n = NullRecorder;
        assert!(!n.enabled());
        n.event(Event::new(t0(), Origin::new("a", "b"), "e"));
        n.counter(t0(), Origin::new("a", "b"), "c", 5);
        n.gauge(t0(), Origin::new("a", "b"), "g", 1.5);
        n.observe(Origin::new("a", "b"), "h", 10);
    }
}
