//! The in-memory accumulating recorder and its `TELEMETRY.json` export.

use std::collections::BTreeMap;
use std::fmt::Write;

use glacsweb_sim::{CivilDate, SimTime};

use crate::{Event, Origin, Recorder, Value};

/// Default cap on retained events; beyond it events are counted in
/// `events_dropped` instead of stored, bounding memory on long runs.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// Upper bucket bounds (inclusive) of every histogram, in the unit of
/// the observed value (seconds for waits, counts for packets). One
/// overflow bucket catches everything above the last bound.
///
/// Fixed bounds keep bucket assignment a pure function of the value —
/// no adaptive resizing, so merged histograms are associative and the
/// JSON is byte-stable.
pub const BUCKET_BOUNDS: &[u64] = &[1, 2, 5, 15, 60, 300, 900, 3_600, 14_400];

/// A fixed-bucket histogram (bounds: [`BUCKET_BOUNDS`] + overflow).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    /// One count per bound, plus the trailing overflow bucket.
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// Records one observation.
    fn record(&mut self, value: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKET_BOUNDS.len() + 1];
        }
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(BUCKET_BOUNDS.len());
        if let Some(slot) = self.counts.get_mut(idx) {
            *slot += 1;
        }
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Adds every observation of `other` into `self`.
    fn merge(&mut self, other: &Histogram) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKET_BOUNDS.len() + 1];
        }
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += *theirs;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Saturating sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Per-bucket counts aligned with [`BUCKET_BOUNDS`], the final entry
    /// being the overflow bucket. Empty until the first observation.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

/// A [`Recorder`] that accumulates everything in ordered containers and
/// exports the lot as a hand-rolled `TELEMETRY.json`.
///
/// All storage is `Vec` / `BTreeMap`, so iteration — and therefore the
/// JSON byte stream — is a pure function of the recorded data.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryRecorder {
    events: Vec<Event>,
    max_events: usize,
    events_dropped: u64,
    counters: BTreeMap<(Origin, &'static str), u64>,
    daily: BTreeMap<(CivilDate, Origin, &'static str), u64>,
    gauges: BTreeMap<(Origin, &'static str), (SimTime, f64)>,
    histograms: BTreeMap<(Origin, &'static str), Histogram>,
}

impl Default for MemoryRecorder {
    fn default() -> Self {
        MemoryRecorder::with_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

impl MemoryRecorder {
    /// Creates a recorder retaining at most `max_events` events
    /// (`0` retains none; counters/gauges/histograms are unaffected).
    pub fn with_capacity(max_events: usize) -> Self {
        MemoryRecorder {
            events: Vec::new(),
            max_events,
            events_dropped: 0,
            counters: BTreeMap::new(),
            daily: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// The retained events, in record order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events discarded once the retention cap was hit.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Current value of a counter, `0` if never written.
    pub fn counter_value(&self, origin: Origin, name: &'static str) -> u64 {
        self.counters.get(&(origin, name)).copied().unwrap_or(0)
    }

    /// Value of a counter restricted to one civil day, `0` if absent.
    pub fn daily_value(&self, date: CivilDate, origin: Origin, name: &'static str) -> u64 {
        self.daily.get(&(date, origin, name)).copied().unwrap_or(0)
    }

    /// Latest gauge write, if any.
    pub fn gauge_value(&self, origin: Origin, name: &'static str) -> Option<f64> {
        self.gauges.get(&(origin, name)).map(|&(_, v)| v)
    }

    /// The histogram under `(origin, name)`, if any value was observed.
    pub fn histogram(&self, origin: Origin, name: &'static str) -> Option<&Histogram> {
        self.histograms.get(&(origin, name))
    }

    /// All counters in key order: `(origin, name, value)`.
    pub fn counters(&self) -> impl Iterator<Item = (Origin, &'static str, u64)> + '_ {
        self.counters.iter().map(|(&(o, n), &v)| (o, n, v))
    }

    /// All per-civil-day counter rollups in key order:
    /// `(date, origin, name, value)`.
    pub fn daily(&self) -> impl Iterator<Item = (CivilDate, Origin, &'static str, u64)> + '_ {
        self.daily.iter().map(|(&(d, o, n), &v)| (d, o, n, v))
    }

    /// All gauges in key order: `(origin, name, written_at, value)`.
    pub fn gauges(&self) -> impl Iterator<Item = (Origin, &'static str, SimTime, f64)> + '_ {
        self.gauges.iter().map(|(&(o, n), &(at, v))| (o, n, at, v))
    }

    /// All histograms in key order: `(origin, name, histogram)`.
    pub fn histograms(&self) -> impl Iterator<Item = (Origin, &'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&(o, n), h)| (o, n, h))
    }

    /// `true` if nothing at all has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.events_dropped == 0
            && self.counters.is_empty()
            && self.daily.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
    }

    /// Folds every record of `other` into `self`.
    ///
    /// Events append in `other`'s order (respecting `self`'s cap);
    /// counters, daily rollups, and histograms add; a gauge is replaced
    /// when `other`'s write is at the same instant or later. The fold is
    /// associative over disjoint origins and deterministic always, which
    /// is what lets `glacsweb-sweep` merge per-cell recorders in input
    /// order and get byte-identical JSON at any thread count.
    pub fn merge_from(&mut self, other: MemoryRecorder) {
        for event in other.events {
            self.push_event(event);
        }
        self.events_dropped += other.events_dropped;
        for ((origin, name), v) in other.counters {
            *self.counters.entry((origin, name)).or_insert(0) += v;
        }
        for (key, v) in other.daily {
            *self.daily.entry(key).or_insert(0) += v;
        }
        for (key, (at, v)) in other.gauges {
            match self.gauges.get(&key) {
                Some(&(existing_at, _)) if existing_at > at => {}
                _ => {
                    self.gauges.insert(key, (at, v));
                }
            }
        }
        for (key, hist) in other.histograms {
            self.histograms.entry(key).or_default().merge(&hist);
        }
    }

    /// [`MemoryRecorder::merge_from`] without taking ownership: folds
    /// every record of `other` into `self` by reference, with identical
    /// semantics (events append in order, counters/daily/histograms add,
    /// later-or-equal gauge writes win).
    ///
    /// This is the aggregation path for hot readers that fold many
    /// shard-local recorders into one accumulator per export: nothing of
    /// `other` is cloned except the retained events themselves, where
    /// `merge_from` would first require cloning the whole recorder.
    pub fn merge_ref(&mut self, other: &MemoryRecorder) {
        for event in &other.events {
            self.push_event(event.clone());
        }
        self.events_dropped += other.events_dropped;
        for (&(origin, name), &v) in &other.counters {
            *self.counters.entry((origin, name)).or_insert(0) += v;
        }
        for (&key, &v) in &other.daily {
            *self.daily.entry(key).or_insert(0) += v;
        }
        for (&key, &(at, v)) in &other.gauges {
            match self.gauges.get(&key) {
                Some(&(existing_at, _)) if existing_at > at => {}
                _ => {
                    self.gauges.insert(key, (at, v));
                }
            }
        }
        for (&key, hist) in &other.histograms {
            self.histograms.entry(key).or_default().merge(hist);
        }
    }

    fn push_event(&mut self, event: Event) {
        if self.events.len() < self.max_events {
            self.events.push(event);
        } else {
            self.events_dropped += 1;
        }
    }

    /// Serialises everything as `TELEMETRY.json` (schema
    /// `glacsweb-obs/1`), hand-rolled in the same style as
    /// `glacsweb-analyze`'s `ANALYSIS.json` — key order fixed, map
    /// sections sorted by their `BTreeMap` keys, events in record order.
    /// Rows are written straight into the one output buffer.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(4096);
        o.push_str("{\n");
        o.push_str("  \"schema\": \"glacsweb-obs/1\",\n");
        let _ = writeln!(o, "  \"events_dropped\": {},", self.events_dropped);

        o.push_str("  \"counters\": [");
        push_block(&mut o, self.counters.iter(), |o, (&(origin, name), v)| {
            o.push('{');
            push_origin(o, origin, name, Layout::Pretty);
            let _ = write!(o, ", \"value\": {v}}}");
        });
        o.push_str("],\n");

        o.push_str("  \"daily\": [");
        push_block(
            &mut o,
            self.daily.iter(),
            |o, (&(date, origin, name), v)| {
                let _ = write!(o, "{{\"date\": \"{date}\", ");
                push_origin(o, origin, name, Layout::Pretty);
                let _ = write!(o, ", \"value\": {v}}}");
            },
        );
        o.push_str("],\n");

        o.push_str("  \"gauges\": [");
        push_block(
            &mut o,
            self.gauges.iter(),
            |o, (&(origin, name), &(at, v))| {
                o.push('{');
                push_origin(o, origin, name, Layout::Pretty);
                let _ = write!(o, ", \"at\": \"{at}\", \"value\": ");
                push_json_f64(o, v);
                o.push('}');
            },
        );
        o.push_str("],\n");

        o.push_str("  \"histograms\": [");
        push_block(&mut o, self.histograms.iter(), |o, (&(origin, name), h)| {
            o.push('{');
            push_origin(o, origin, name, Layout::Pretty);
            let _ = write!(
                o,
                ", \"total\": {}, \"sum\": {}, \"buckets\": [",
                h.total(),
                h.sum()
            );
            push_buckets(o, h, Layout::Pretty);
            o.push_str("]}");
        });
        o.push_str("],\n");

        o.push_str("  \"events\": [");
        push_block(&mut o, self.events.iter(), |o, event| {
            let _ = write!(o, "{{\"at\": \"{}\", ", event.at);
            push_origin(o, event.origin, event.name, Layout::Pretty);
            o.push_str(", \"fields\": {");
            push_fields(o, &event.fields, Layout::Pretty);
            o.push_str("}}");
        });
        o.push_str("]\n");

        o.push_str("}\n");
        o
    }
}

impl Recorder for MemoryRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&mut self, event: Event) {
        self.push_event(event);
    }

    fn counter(&mut self, at: SimTime, origin: Origin, name: &'static str, delta: u64) {
        *self.counters.entry((origin, name)).or_insert(0) += delta;
        *self.daily.entry((at.date(), origin, name)).or_insert(0) += delta;
    }

    fn gauge(&mut self, at: SimTime, origin: Origin, name: &'static str, value: f64) {
        match self.gauges.get(&(origin, name)) {
            Some(&(existing_at, _)) if existing_at > at => {}
            _ => {
                self.gauges.insert((origin, name), (at, value));
            }
        }
    }

    fn observe(&mut self, origin: Origin, name: &'static str, value: u64) {
        self.histograms
            .entry((origin, name))
            .or_default()
            .record(value);
    }

    fn take_memory(&mut self) -> Option<MemoryRecorder> {
        Some(std::mem::take(self))
    }

    fn memory(&self) -> Option<&MemoryRecorder> {
        Some(self)
    }
}

// Hand-written (de)serialization: every map in the recorder is keyed by
// `&'static str` labels, which restore routes through [`crate::intern`].
// Each map section flattens to a sequence of `[key parts..., value]`
// rows in `BTreeMap` order, so the wire form is as deterministic as the
// JSON export.
impl serde::Serialize for Histogram {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            (
                serde::Value::Str("counts".to_string()),
                self.counts.to_value(),
            ),
            (
                serde::Value::Str("total".to_string()),
                self.total.to_value(),
            ),
            (serde::Value::Str("sum".to_string()), self.sum.to_value()),
        ])
    }
}

impl serde::Deserialize for Histogram {
    fn from_value(v: &serde::Value) -> Result<Self, serde::de::Error> {
        let counts: Vec<u64> = serde::de::field(v, "counts")?;
        if !counts.is_empty() && counts.len() != BUCKET_BOUNDS.len() + 1 {
            return Err(serde::de::Error::custom(format!(
                "histogram has {} buckets, expected {} or none",
                counts.len(),
                BUCKET_BOUNDS.len() + 1
            )));
        }
        let total: u64 = serde::de::field(v, "total")?;
        if counts.iter().sum::<u64>() != total {
            return Err(serde::de::Error::custom(
                "histogram bucket counts do not sum to its total",
            ));
        }
        Ok(Histogram {
            counts,
            total,
            sum: serde::de::field(v, "sum")?,
        })
    }
}

impl serde::Serialize for MemoryRecorder {
    fn to_value(&self) -> serde::Value {
        let label = |s: &str| serde::Value::Str(s.to_string());
        let counters = self
            .counters
            .iter()
            .map(|((origin, name), v)| {
                serde::Value::Seq(vec![origin.to_value(), label(name), v.to_value()])
            })
            .collect();
        let daily = self
            .daily
            .iter()
            .map(|((date, origin, name), v)| {
                serde::Value::Seq(vec![
                    date.to_value(),
                    origin.to_value(),
                    label(name),
                    v.to_value(),
                ])
            })
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|((origin, name), (at, v))| {
                serde::Value::Seq(vec![
                    origin.to_value(),
                    label(name),
                    at.to_value(),
                    v.to_value(),
                ])
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|((origin, name), h)| {
                serde::Value::Seq(vec![origin.to_value(), label(name), h.to_value()])
            })
            .collect();
        serde::Value::Map(vec![
            (label("events"), self.events.to_value()),
            (
                label("max_events"),
                serde::Value::U64(self.max_events as u64),
            ),
            (label("events_dropped"), self.events_dropped.to_value()),
            (label("counters"), serde::Value::Seq(counters)),
            (label("daily"), serde::Value::Seq(daily)),
            (label("gauges"), serde::Value::Seq(gauges)),
            (label("histograms"), serde::Value::Seq(histograms)),
        ])
    }
}

/// Reads section `name` as a sequence of fixed-arity rows.
fn rows<'v>(
    v: &'v serde::Value,
    name: &str,
    arity: usize,
) -> Result<Vec<&'v [serde::Value]>, serde::de::Error> {
    v.get(name)
        .and_then(serde::Value::as_seq)
        .ok_or_else(|| serde::de::Error::custom(format!("telemetry: missing `{name}` sequence")))?
        .iter()
        .map(|row| {
            row.as_seq().filter(|r| r.len() == arity).ok_or_else(|| {
                serde::de::Error::custom(format!(
                    "telemetry `{name}` row must have {arity} elements"
                ))
            })
        })
        .collect()
}

/// An interned label read from row position `idx`.
fn label_at(row: &[serde::Value], idx: usize) -> Result<&'static str, serde::de::Error> {
    row.get(idx)
        .and_then(serde::Value::as_str)
        .map(crate::intern)
        .ok_or_else(|| serde::de::Error::custom("telemetry row label must be a string"))
}

/// A typed value read from row position `idx`.
fn item_at<T: serde::Deserialize>(row: &[serde::Value], idx: usize) -> Result<T, serde::de::Error> {
    let v = row
        .get(idx)
        .ok_or_else(|| serde::de::Error::custom("telemetry row is too short"))?;
    T::from_value(v)
}

impl serde::Deserialize for MemoryRecorder {
    fn from_value(v: &serde::Value) -> Result<Self, serde::de::Error> {
        let max_events: u64 = serde::de::field(v, "max_events")?;
        let max_events = usize::try_from(max_events)
            .map_err(|_| serde::de::Error::custom("telemetry max_events exceeds usize"))?;
        let events: Vec<Event> = serde::de::field(v, "events")?;
        if events.len() > max_events {
            return Err(serde::de::Error::custom(format!(
                "telemetry holds {} events over its cap of {max_events}",
                events.len()
            )));
        }
        let mut counters = BTreeMap::new();
        for row in rows(v, "counters", 3)? {
            let key = (item_at::<Origin>(row, 0)?, label_at(row, 1)?);
            if counters.insert(key, item_at::<u64>(row, 2)?).is_some() {
                return Err(serde::de::Error::custom("duplicate telemetry counter key"));
            }
        }
        let mut daily = BTreeMap::new();
        for row in rows(v, "daily", 4)? {
            let key = (
                item_at::<CivilDate>(row, 0)?,
                item_at::<Origin>(row, 1)?,
                label_at(row, 2)?,
            );
            if daily.insert(key, item_at::<u64>(row, 3)?).is_some() {
                return Err(serde::de::Error::custom("duplicate telemetry daily key"));
            }
        }
        let mut gauges = BTreeMap::new();
        for row in rows(v, "gauges", 4)? {
            let key = (item_at::<Origin>(row, 0)?, label_at(row, 1)?);
            let at = item_at::<SimTime>(row, 2)?;
            let value = item_at::<f64>(row, 3)?;
            if gauges.insert(key, (at, value)).is_some() {
                return Err(serde::de::Error::custom("duplicate telemetry gauge key"));
            }
        }
        let mut histograms = BTreeMap::new();
        for row in rows(v, "histograms", 3)? {
            let key = (item_at::<Origin>(row, 0)?, label_at(row, 1)?);
            if histograms
                .insert(key, item_at::<Histogram>(row, 2)?)
                .is_some()
            {
                return Err(serde::de::Error::custom(
                    "duplicate telemetry histogram key",
                ));
            }
        }
        Ok(MemoryRecorder {
            events,
            max_events,
            events_dropped: serde::de::field(v, "events_dropped")?,
            counters,
            daily,
            gauges,
            histograms,
        })
    }
}

/// Merges recorders in iteration order into one.
///
/// This is the reduction `glacsweb-sweep` applies to per-cell recorders:
/// because [`MemoryRecorder::merge_from`] is deterministic and the cells
/// arrive in input-index order, the result is independent of how many
/// worker threads produced them.
pub fn merge_all(recorders: impl IntoIterator<Item = MemoryRecorder>) -> MemoryRecorder {
    let mut merged = MemoryRecorder::default();
    for r in recorders {
        merged.merge_from(r);
    }
    merged
}

/// Writes `items` as a multi-line JSON array body with 4-space-indented
/// entries, leaving the surrounding brackets to the caller.
fn push_block<T>(
    o: &mut String,
    items: impl Iterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T),
) {
    let mut any = false;
    for item in items {
        if any {
            o.push(',');
        }
        any = true;
        o.push_str("\n    ");
        write_item(o, item);
    }
    if any {
        o.push_str("\n  ");
    }
}

/// Separators of the two export layouts: `TELEMETRY.json` puts a space
/// after every `:` and `,`, NDJSON lines put none.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Layout {
    /// `"key": value, "key": value` (`TELEMETRY.json`).
    Pretty,
    /// `"key":value,"key":value` (NDJSON).
    Compact,
}

impl Layout {
    fn colon(self) -> &'static str {
        match self {
            Layout::Pretty => ": ",
            Layout::Compact => ":",
        }
    }

    fn comma(self) -> &'static str {
        match self {
            Layout::Pretty => ", ",
            Layout::Compact => ",",
        }
    }
}

/// Appends the `component`, `station` and `name` entries every row
/// carries, in that order.
pub(crate) fn push_origin(o: &mut String, origin: Origin, name: &str, layout: Layout) {
    let entries = [
        ("component", origin.component),
        ("station", origin.station),
        ("name", name),
    ];
    for (i, (key, value)) in entries.into_iter().enumerate() {
        if i > 0 {
            o.push_str(layout.comma());
        }
        o.push('"');
        o.push_str(key);
        o.push('"');
        o.push_str(layout.colon());
        push_json_str(o, value);
    }
}

/// Appends an event's fields as the entries of a JSON object, in their
/// insertion order.
pub(crate) fn push_fields(o: &mut String, fields: &[(&str, Value)], layout: Layout) {
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            o.push_str(layout.comma());
        }
        push_json_str(o, key);
        o.push_str(layout.colon());
        push_json_value(o, value);
    }
}

/// Appends a histogram's buckets as `{"le": bound, "count": n}` objects,
/// the overflow bucket's bound being the string `"inf"`.
pub(crate) fn push_buckets(o: &mut String, h: &Histogram, layout: Layout) {
    let (colon, comma) = (layout.colon(), layout.comma());
    for (i, count) in h.counts().iter().enumerate() {
        if i > 0 {
            o.push_str(comma);
        }
        o.push_str("{\"le\"");
        o.push_str(colon);
        match BUCKET_BOUNDS.get(i) {
            Some(bound) => {
                let _ = write!(o, "{bound}");
            }
            None => o.push_str("\"inf\""),
        }
        o.push_str(comma);
        o.push_str("\"count\"");
        o.push_str(colon);
        let _ = write!(o, "{count}}}");
    }
}

/// Appends a JSON string literal with escaping, matching
/// `glacsweb-analyze`'s `ANALYSIS.json` writer.
pub(crate) fn push_json_str(o: &mut String, s: &str) {
    o.push('"');
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        o.push_str(s);
        o.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            '\r' => o.push_str("\\r"),
            '\t' => o.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
}

/// Appends an `f64` so it round-trips as a JSON number: integral values
/// gain a `.0`, and non-finite values become `null`.
pub(crate) fn push_json_f64(o: &mut String, v: f64) {
    if !v.is_finite() {
        o.push_str("null");
        return;
    }
    let start = o.len();
    let _ = write!(o, "{v}");
    if !o.get(start..).is_some_and(|s| s.contains(['.', 'e'])) {
        o.push_str(".0");
    }
}

/// Appends an event field value.
pub(crate) fn push_json_value(o: &mut String, v: &Value) {
    match v {
        Value::U64(n) => {
            let _ = write!(o, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(o, "{n}");
        }
        Value::F64(x) => push_json_f64(o, *x),
        Value::Bool(b) => o.push_str(if *b { "true" } else { "false" }),
        Value::Str(s) => push_json_str(o, s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(day: u32, hour: u32) -> SimTime {
        SimTime::from_ymd_hms(2009, 6, day, hour, 0, 0)
    }

    fn orig() -> Origin {
        Origin::new("station", "base")
    }

    #[test]
    fn counters_accumulate_and_roll_up_per_day() {
        let mut r = MemoryRecorder::default();
        r.counter(at(1, 12), orig(), "windows_run", 1);
        r.counter(at(1, 13), orig(), "windows_run", 2);
        r.counter(at(2, 12), orig(), "windows_run", 5);
        assert_eq!(r.counter_value(orig(), "windows_run"), 8);
        assert_eq!(r.daily_value(at(1, 0).date(), orig(), "windows_run"), 3);
        assert_eq!(r.daily_value(at(2, 0).date(), orig(), "windows_run"), 5);
        assert_eq!(r.daily_value(at(3, 0).date(), orig(), "windows_run"), 0);
    }

    #[test]
    fn gauge_latest_write_wins_and_stale_write_is_ignored() {
        let mut r = MemoryRecorder::default();
        r.gauge(at(2, 12), orig(), "soc", 0.8);
        r.gauge(at(1, 12), orig(), "soc", 0.9); // stale: earlier instant
        assert_eq!(r.gauge_value(orig(), "soc"), Some(0.8));
        r.gauge(at(2, 12), orig(), "soc", 0.7); // same instant: later write wins
        assert_eq!(r.gauge_value(orig(), "soc"), Some(0.7));
    }

    #[test]
    fn histogram_buckets_are_deterministic() {
        let mut r = MemoryRecorder::default();
        for v in [0, 1, 2, 3, 15, 16, 100_000] {
            r.observe(orig(), "wait_secs", v);
        }
        let h = r.histogram(orig(), "wait_secs").cloned();
        let h = h.unwrap_or_default();
        assert_eq!(h.total(), 7);
        assert_eq!(h.sum(), 100_037);
        // bounds: 1, 2, 5, 15, 60, 300, 900, 3600, 14400, inf
        assert_eq!(h.counts(), [2, 1, 1, 1, 1, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn event_cap_counts_drops() {
        let mut r = MemoryRecorder::with_capacity(2);
        for i in 0..5u64 {
            r.event(Event::new(at(1, 12), orig(), "e").with("i", i));
        }
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.events_dropped(), 3);
    }

    #[test]
    fn merge_is_order_deterministic_and_sums() {
        let mut a = MemoryRecorder::default();
        a.counter(at(1, 12), orig(), "c", 1);
        a.observe(orig(), "h", 10);
        a.event(Event::new(at(1, 12), orig(), "from_a"));
        let mut b = MemoryRecorder::default();
        b.counter(at(1, 13), orig(), "c", 2);
        b.observe(orig(), "h", 2000);
        b.event(Event::new(at(1, 13), orig(), "from_b"));

        let merged = merge_all([a.clone(), b.clone()]);
        assert_eq!(merged.counter_value(orig(), "c"), 3);
        assert_eq!(merged.histogram(orig(), "h").map(Histogram::total), Some(2));
        assert_eq!(merged.events().len(), 2);
        assert_eq!(merged.events().first().map(|e| e.name), Some("from_a"));

        // Same bytes regardless of how the fold is associated.
        let mut left = MemoryRecorder::default();
        left.merge_from(a);
        left.merge_from(b);
        assert_eq!(left.to_json(), merged.to_json());
    }

    #[test]
    fn merge_ref_matches_merge_from() {
        let mut a = MemoryRecorder::default();
        a.counter(at(1, 12), orig(), "c", 1);
        a.observe(orig(), "h", 10);
        a.gauge(at(1, 12), orig(), "g", 0.25);
        a.event(Event::new(at(1, 12), orig(), "from_a"));
        let mut b = MemoryRecorder::default();
        b.counter(at(2, 13), orig(), "c", 2);
        b.observe(orig(), "h", 2000);
        b.gauge(at(2, 13), orig(), "g", 0.75);
        b.event(Event::new(at(2, 13), orig(), "from_b"));

        let mut by_value = MemoryRecorder::default();
        by_value.merge_from(a.clone());
        by_value.merge_from(b.clone());
        let mut by_ref = MemoryRecorder::default();
        by_ref.merge_ref(&a);
        by_ref.merge_ref(&b);
        assert_eq!(by_ref, by_value);
        assert_eq!(by_ref.to_json(), by_value.to_json());
        assert!(!a.is_empty(), "merge_ref leaves the source untouched");
    }

    #[test]
    fn take_memory_drains_the_recorder() {
        let mut r = MemoryRecorder::default();
        r.counter(at(1, 12), orig(), "c", 4);
        let taken = r.take_memory().unwrap_or_default();
        assert_eq!(taken.counter_value(orig(), "c"), 4);
        assert!(r.is_empty(), "recorder left empty");
    }

    fn first(parsed: &serde::Value, section: &str) -> serde::Value {
        parsed
            .get(section)
            .and_then(serde::Value::as_seq)
            .and_then(<[serde::Value]>::first)
            .cloned()
            .expect("section has an entry")
    }

    #[test]
    fn json_is_valid_and_schema_first() {
        let mut r = MemoryRecorder::default();
        r.counter(at(1, 12), orig(), "packets", 7);
        r.gauge(at(1, 12), orig(), "soc", 0.5);
        r.observe(orig(), "wait", 30);
        r.event(
            Event::new(at(1, 12), orig(), "quote\"test")
                .with("s", "line\nbreak")
                .with("f", 1.25)
                .with("neg", -2i64)
                .with("flag", true),
        );
        let json = r.to_json();
        assert!(json.starts_with("{\n  \"schema\": \"glacsweb-obs/1\""));
        let parsed: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(serde::Value::as_str),
            Some("glacsweb-obs/1")
        );
        let counter = first(&parsed, "counters");
        assert_eq!(counter.get("value").and_then(serde::Value::as_u64), Some(7));
        let event = first(&parsed, "events");
        let fields = event.get("fields").cloned().expect("fields object");
        assert_eq!(
            fields.get("s").and_then(serde::Value::as_str),
            Some("line\nbreak")
        );
        assert_eq!(fields.get("flag"), Some(&serde::Value::Bool(true)));
        assert_eq!(fields.get("neg").and_then(serde::Value::as_i64), Some(-2));
        let hist = first(&parsed, "histograms");
        assert_eq!(hist.get("total").and_then(serde::Value::as_u64), Some(1));
        let buckets = hist
            .get("buckets")
            .and_then(serde::Value::as_seq)
            .map(<[serde::Value]>::len);
        assert_eq!(buckets, Some(BUCKET_BOUNDS.len() + 1));
    }

    #[test]
    fn non_finite_gauges_serialise_as_null() {
        let mut r = MemoryRecorder::default();
        r.gauge(at(1, 12), orig(), "bad", f64::NAN);
        let parsed: serde::Value = serde_json::from_str(&r.to_json()).expect("valid JSON");
        let gauge = first(&parsed, "gauges");
        assert_eq!(gauge.get("value"), Some(&serde::Value::Null));
    }

    #[test]
    fn empty_recorder_exports_empty_sections() {
        let r = MemoryRecorder::default();
        let parsed: serde::Value = serde_json::from_str(&r.to_json()).expect("valid JSON");
        assert_eq!(
            parsed.get("events_dropped").and_then(serde::Value::as_u64),
            Some(0)
        );
        for section in ["counters", "daily", "gauges", "histograms", "events"] {
            let len = parsed
                .get(section)
                .and_then(serde::Value::as_seq)
                .map(<[serde::Value]>::len);
            assert_eq!(len, Some(0), "section {section} empty");
        }
    }
}
