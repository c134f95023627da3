//! The in-memory accumulating recorder and its `TELEMETRY.json` export.
//!
//! # Storage
//!
//! A recorder files every counter, gauge and histogram under a key
//! `(origin, name)`. Its key registry gives each distinct key a *slot*
//! the first time the key is seen. Counter totals, gauges and histograms
//! are columns indexed by slot, and the per-civil-day rollup is a
//! date-ordered run of day rows, each holding one count per slot. A warm
//! [`Recorder::counter`] call is then a slot lookup (integer compares
//! over the labels' addresses) and two indexed adds: no civil-date
//! conversion and no string comparison. Every export walks the registry
//! in `(origin, name)` order, so the bytes depend on the recorded
//! content alone, never on the order in which keys were first seen.

use std::collections::BTreeMap;
use std::fmt::{self, Write};

use glacsweb_sim::{CivilDate, SimTime};

use crate::events::{EventLog, Events, ValueRef};
use crate::{Event, Origin, Recorder};

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
    pub(crate) fn record(&mut self, value: u64) {
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
    pub(crate) fn merge(&mut self, other: &Histogram) {
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

/// What a counter, gauge or histogram is filed under: `(origin, name)`.
type Key = (Origin, &'static str);

/// A key's identity by address: the pointer and length of each label,
/// name first. Labels are `&'static str` (literals, or leaked by
/// [`crate::intern`]) and never move, so equal addresses mean equal
/// content; equal content may still sit at different addresses.
type Address = [usize; 6];

fn address((origin, name): Key) -> Address {
    [
        name.as_ptr().addr(),
        name.len(),
        origin.component.as_ptr().addr(),
        origin.component.len(),
        origin.station.as_ptr().addr(),
        origin.station.len(),
    ]
}

/// One civil day of the counter rollup.
#[derive(Debug, Clone)]
struct DayRow {
    date: CivilDate,
    /// The day's count per slot, `None` for a slot no counter call named
    /// that day (a zero-delta call names it). Shorter than the registry
    /// when slots were added after the row.
    counts: Vec<Option<u64>>,
}

impl DayRow {
    fn get(&self, slot: usize) -> Option<u64> {
        self.counts.get(slot).copied().flatten()
    }

    fn add(&mut self, slot: usize, delta: u64) {
        if self.counts.len() <= slot {
            self.counts.resize(slot + 1, None);
        }
        if let Some(count) = self.counts.get_mut(slot) {
            *count = Some(count.unwrap_or(0) + delta);
        }
    }
}

/// The keyed half of a recorder: the key registry, the columns indexed
/// by slot, and the day rows.
#[derive(Clone, Default)]
struct Store {
    /// The key registry: key content to slot, in `(origin, name)` order.
    slots: BTreeMap<Key, usize>,
    /// Key addresses to slots, sorted by address: the lookup in front of
    /// `slots`. Call sites pass the same literals every time, so a warm
    /// lookup compares integers only. A miss (a new key, or a label
    /// whose address differs from the one first seen, as after a
    /// restore) falls back to `slots`, which compares content. Only the
    /// speed of a lookup depends on addresses, never its result.
    // glacsweb: derived-state
    by_address: Vec<(Address, usize)>,
    /// Counter total per slot; `None` until a counter names the slot.
    totals: Vec<Option<u64>>,
    /// Latest gauge write per slot.
    gauges: Vec<Option<(SimTime, f64)>>,
    /// Histogram per slot.
    histograms: Vec<Option<Histogram>>,
    /// The per-civil-day counter rollup, in date order.
    days: Vec<DayRow>,
    /// Midnight of the last counter call's day and that day's row.
    // glacsweb: derived-state
    today: Option<(SimTime, usize)>,
}

impl Store {
    /// `true` if no key holds anything: a slot exists only once
    /// something was recorded under it.
    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn slot_of(&self, origin: Origin, name: &'static str) -> Option<usize> {
        self.slots.get(&(origin, name)).copied()
    }

    fn counters(&self) -> impl Iterator<Item = (Origin, &'static str, u64)> + '_ {
        self.slots.iter().filter_map(|(&(origin, name), &slot)| {
            Some((origin, name, self.totals.get(slot).copied().flatten()?))
        })
    }

    fn daily(&self) -> impl Iterator<Item = (CivilDate, Origin, &'static str, u64)> + '_ {
        self.days.iter().flat_map(move |row| {
            self.slots
                .iter()
                .filter_map(move |(&(origin, name), &slot)| {
                    Some((row.date, origin, name, row.get(slot)?))
                })
        })
    }

    fn gauges(&self) -> impl Iterator<Item = (Origin, &'static str, SimTime, f64)> + '_ {
        self.slots.iter().filter_map(|(&(origin, name), &slot)| {
            let (at, value) = self.gauges.get(slot).copied().flatten()?;
            Some((origin, name, at, value))
        })
    }

    fn histograms(&self) -> impl Iterator<Item = (Origin, &'static str, &Histogram)> + '_ {
        self.slots.iter().filter_map(|(&(origin, name), &slot)| {
            Some((origin, name, self.histograms.get(slot)?.as_ref()?))
        })
    }

    /// The slot of `(origin, name)`, registering the key if it is new.
    fn slot(&mut self, origin: Origin, name: &'static str) -> usize {
        let address = address((origin, name));
        let probe = self.by_address.binary_search_by(|(a, _)| a.cmp(&address));
        if let Some(&(_, slot)) = probe.ok().and_then(|i| self.by_address.get(i)) {
            return slot;
        }
        let slot = self.slot_by_content((origin, name));
        let (Ok(at) | Err(at)) = probe;
        self.by_address.insert(at, (address, slot));
        slot
    }

    /// The slot of `key` by content, registering the key if it is new:
    /// a new slot is appended to every column.
    fn slot_by_content(&mut self, key: Key) -> usize {
        let next = self.totals.len();
        let slot = *self.slots.entry(key).or_insert(next);
        if slot == next {
            self.totals.push(None);
            self.gauges.push(None);
            self.histograms.push(None);
        }
        slot
    }

    /// The row of `at`'s civil day. The day converts to a civil date
    /// only when it differs from the previous call's.
    fn row_of(&mut self, at: SimTime) -> usize {
        let midnight = at.start_of_day();
        match self.today {
            Some((day, row)) if day == midnight => row,
            _ => {
                let row = self.row_at(at.date());
                self.today = Some((midnight, row));
                row
            }
        }
    }

    /// The row of `date`, inserted in date order if absent, sized to
    /// the registry so the day's adds do not grow it.
    fn row_at(&mut self, date: CivilDate) -> usize {
        match self.days.binary_search_by(|row| row.date.cmp(&date)) {
            Ok(at) => at,
            Err(at) => {
                let counts = vec![None; self.totals.len()];
                self.days.insert(at, DayRow { date, counts });
                if let Some((_, row)) = &mut self.today {
                    if *row >= at {
                        *row += 1;
                    }
                }
                at
            }
        }
    }

    fn counter(&mut self, at: SimTime, origin: Origin, name: &'static str, delta: u64) {
        let slot = self.slot(origin, name);
        if let Some(total) = self.totals.get_mut(slot) {
            *total = Some(total.unwrap_or(0) + delta);
        }
        let row = self.row_of(at);
        if let Some(row) = self.days.get_mut(row) {
            row.add(slot, delta);
        }
    }

    fn gauge(&mut self, at: SimTime, origin: Origin, name: &'static str, value: f64) {
        let slot = self.slot(origin, name);
        if let Some(gauge) = self.gauges.get_mut(slot) {
            set_gauge(gauge, at, value);
        }
    }

    fn observe(&mut self, origin: Origin, name: &'static str, value: u64) {
        let slot = self.slot(origin, name);
        if let Some(hist) = self.histograms.get_mut(slot) {
            hist.get_or_insert_with(Histogram::default).record(value);
        }
    }

    /// Adds `other`'s counters, day rows, gauges and histograms: its
    /// slots are mapped to this store's once, then its columns and rows
    /// are added slot by slot.
    fn merge(&mut self, other: &Store) {
        let mut to_mine = vec![0; other.totals.len()];
        for (&key, &theirs) in &other.slots {
            let mine = self.slot_by_content(key);
            if let Some(slot) = to_mine.get_mut(theirs) {
                *slot = mine;
            }
        }
        for (theirs, &mine) in to_mine.iter().enumerate() {
            if let (Some(&Some(v)), Some(total)) =
                (other.totals.get(theirs), self.totals.get_mut(mine))
            {
                *total = Some(total.unwrap_or(0) + v);
            }
            if let (Some(&Some((at, v))), Some(gauge)) =
                (other.gauges.get(theirs), self.gauges.get_mut(mine))
            {
                set_gauge(gauge, at, v);
            }
            if let (Some(Some(hist)), Some(mine)) =
                (other.histograms.get(theirs), self.histograms.get_mut(mine))
            {
                mine.get_or_insert_with(Histogram::default).merge(hist);
            }
        }
        for row in &other.days {
            let at = self.row_at(row.date);
            let Some(dest) = self.days.get_mut(at) else {
                continue;
            };
            for (theirs, count) in row.counts.iter().enumerate() {
                if let (Some(v), Some(&mine)) = (count, to_mine.get(theirs)) {
                    dest.add(mine, *v);
                }
            }
        }
    }
}

/// Applies a gauge write: the chronologically latest write wins, ties
/// going to the later write.
fn set_gauge(gauge: &mut Option<(SimTime, f64)>, at: SimTime, value: f64) {
    if !gauge.is_some_and(|(existing, _)| existing > at) {
        *gauge = Some((at, value));
    }
}

/// Equality is over content: the same records compare equal however
/// the stores were assembled, whatever order their keys arrived in.
/// Gauge values compare by bit pattern, so a NaN gauge equals itself.
impl PartialEq for Store {
    fn eq(&self, other: &Self) -> bool {
        let gauge_bits = |(origin, name, at, v): (Origin, &'static str, SimTime, f64)| {
            (origin, name, at, v.to_bits())
        };
        self.counters().eq(other.counters())
            && self.daily().eq(other.daily())
            && self
                .gauges()
                .map(gauge_bits)
                .eq(other.gauges().map(gauge_bits))
            && self.histograms().eq(other.histograms())
    }
}

/// Shows the stored records; the address index and the day cache are
/// left out, since the index holds process-specific pointers.
impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("slots", &self.slots)
            .field("totals", &self.totals)
            .field("gauges", &self.gauges)
            .field("histograms", &self.histograms)
            .field("days", &self.days)
            .finish_non_exhaustive()
    }
}

/// A [`Recorder`] that accumulates everything in memory and exports the
/// lot as a hand-rolled `TELEMETRY.json`.
///
/// Events sit in a bounded compact arena (see [`Events`]); counters,
/// gauges and histograms in slot-indexed columns behind one key
/// registry (see the module docs).
/// Every export and comparison walks the registry in `(origin, name)`
/// order and the day rows in date order, so the JSON byte stream is a
/// pure function of the recorded data, and two recorders holding the
/// same records are equal however they were assembled.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryRecorder {
    events: EventLog,
    max_events: usize,
    events_dropped: u64,
    store: Store,
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
            events: EventLog::default(),
            max_events,
            events_dropped: 0,
            store: Store::default(),
        }
    }

    /// The retained events, in record order, decoded one at a time.
    pub fn events(&self) -> Events<'_> {
        self.events.iter()
    }

    /// Events discarded once the retention cap was hit.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Current value of a counter, `0` if never written.
    pub fn counter_value(&self, origin: Origin, name: &'static str) -> u64 {
        self.store
            .slot_of(origin, name)
            .and_then(|slot| self.store.totals.get(slot).copied().flatten())
            .unwrap_or(0)
    }

    /// Value of a counter restricted to one civil day, `0` if absent.
    pub fn daily_value(&self, date: CivilDate, origin: Origin, name: &'static str) -> u64 {
        let days = &self.store.days;
        let row = days
            .binary_search_by(|row| row.date.cmp(&date))
            .ok()
            .and_then(|i| days.get(i));
        self.store
            .slot_of(origin, name)
            .and_then(|slot| row?.get(slot))
            .unwrap_or(0)
    }

    /// Latest gauge write, if any.
    pub fn gauge_value(&self, origin: Origin, name: &'static str) -> Option<f64> {
        let slot = self.store.slot_of(origin, name)?;
        self.store
            .gauges
            .get(slot)
            .copied()
            .flatten()
            .map(|(_, v)| v)
    }

    /// The histogram under `(origin, name)`, if any value was observed.
    pub fn histogram(&self, origin: Origin, name: &'static str) -> Option<&Histogram> {
        let slot = self.store.slot_of(origin, name)?;
        self.store.histograms.get(slot)?.as_ref()
    }

    /// All counters in key order: `(origin, name, value)`.
    pub fn counters(&self) -> impl Iterator<Item = (Origin, &'static str, u64)> + '_ {
        self.store.counters()
    }

    /// All per-civil-day counter rollups in key order:
    /// `(date, origin, name, value)`.
    pub fn daily(&self) -> impl Iterator<Item = (CivilDate, Origin, &'static str, u64)> + '_ {
        self.store.daily()
    }

    /// All gauges in key order: `(origin, name, written_at, value)`.
    pub fn gauges(&self) -> impl Iterator<Item = (Origin, &'static str, SimTime, f64)> + '_ {
        self.store.gauges()
    }

    /// All histograms in key order: `(origin, name, histogram)`.
    pub fn histograms(&self) -> impl Iterator<Item = (Origin, &'static str, &Histogram)> + '_ {
        self.store.histograms()
    }

    /// `true` if nothing at all has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.events_dropped == 0 && self.store.is_empty()
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
        if self.events.is_empty() && other.events.len() <= self.max_events {
            self.store.merge(&other.store);
            self.events = other.events;
            self.events_dropped += other.events_dropped;
        } else {
            self.merge_ref(&other);
        }
    }

    /// [`MemoryRecorder::merge_from`] without taking ownership: folds
    /// every record of `other` into `self` by reference, with identical
    /// semantics (events append in order, counters/daily/histograms add,
    /// later-or-equal gauge writes win).
    ///
    /// This is the aggregation path for hot readers that fold many
    /// shard-local recorders into one accumulator per export: nothing of
    /// `other` is copied except the retained events that fit under
    /// `self`'s cap, where `merge_from` would first require cloning the
    /// whole recorder.
    pub fn merge_ref(&mut self, other: &MemoryRecorder) {
        self.store.merge(&other.store);
        let room = self.max_events.saturating_sub(self.events.len());
        let kept = room.min(other.events.len());
        let refused = self.events.extend_from(&other.events, kept);
        let dropped = u64::try_from(other.events.len() - kept + refused).unwrap_or(u64::MAX);
        self.events_dropped += dropped + other.events_dropped;
    }

    fn push_event(&mut self, event: &Event) {
        if self.events.len() >= self.max_events || !self.events.push(event) {
            self.events_dropped += 1;
        }
    }

    /// Serialises everything as `TELEMETRY.json` (schema
    /// `glacsweb-obs/1`), hand-rolled in the same style as
    /// `glacsweb-analyze`'s `ANALYSIS.json` — key order fixed, keyed
    /// sections sorted by `(origin, name)` (daily rows by date first),
    /// events in record order. Rows are written straight into the one
    /// output buffer.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(4096);
        o.push_str("{\n");
        o.push_str("  \"schema\": \"glacsweb-obs/1\",\n");
        let _ = writeln!(o, "  \"events_dropped\": {},", self.events_dropped);

        o.push_str("  \"counters\": [");
        push_block(&mut o, self.counters(), |o, (origin, name, v)| {
            o.push('{');
            push_origin(o, origin, name, Layout::Pretty);
            let _ = write!(o, ", \"value\": {v}}}");
        });
        o.push_str("],\n");

        o.push_str("  \"daily\": [");
        push_block(&mut o, self.daily(), |o, (date, origin, name, v)| {
            let _ = write!(o, "{{\"date\": \"{date}\", ");
            push_origin(o, origin, name, Layout::Pretty);
            let _ = write!(o, ", \"value\": {v}}}");
        });
        o.push_str("],\n");

        o.push_str("  \"gauges\": [");
        push_block(&mut o, self.gauges(), |o, (origin, name, at, v)| {
            o.push('{');
            push_origin(o, origin, name, Layout::Pretty);
            let _ = write!(o, ", \"at\": \"{at}\", \"value\": ");
            push_json_f64(o, v);
            o.push('}');
        });
        o.push_str("],\n");

        o.push_str("  \"histograms\": [");
        push_block(&mut o, self.histograms(), |o, (origin, name, h)| {
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
            push_fields(o, event.raw_fields(), Layout::Pretty);
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
        self.push_event(&event);
    }

    fn counter(&mut self, at: SimTime, origin: Origin, name: &'static str, delta: u64) {
        self.store.counter(at, origin, name, delta);
    }

    fn gauge(&mut self, at: SimTime, origin: Origin, name: &'static str, value: f64) {
        self.store.gauge(at, origin, name, value);
    }

    fn observe(&mut self, origin: Origin, name: &'static str, value: u64) {
        self.store.observe(origin, name, value);
    }
}

/// An optional [`MemoryRecorder`]: `None` drops every record like a
/// [`NullRecorder`](crate::NullRecorder), `Some` keeps them. This is the
/// sink a station or deployment holds, and already its snapshot form.
impl Recorder for Option<MemoryRecorder> {
    fn enabled(&self) -> bool {
        self.is_some()
    }

    fn event(&mut self, event: Event) {
        if let Some(r) = self {
            r.event(event);
        }
    }

    fn counter(&mut self, at: SimTime, origin: Origin, name: &'static str, delta: u64) {
        if let Some(r) = self {
            r.counter(at, origin, name, delta);
        }
    }

    fn gauge(&mut self, at: SimTime, origin: Origin, name: &'static str, value: f64) {
        if let Some(r) = self {
            r.gauge(at, origin, name, value);
        }
    }

    fn observe(&mut self, origin: Origin, name: &'static str, value: u64) {
        if let Some(r) = self {
            r.observe(origin, name, value);
        }
    }
}

// Hand-written (de)serialization: every key is a pair of `&'static str`
// labels, which restore routes through [`crate::intern`]. Each keyed
// section flattens to a sequence of `[key parts..., value]` rows in
// export order, so the wire form is as deterministic as the JSON export.
impl serde::Serialize for Histogram {
    fn to_value(&self) -> serde::Value {
        // glacsweb: allow(perf-hygiene, reason = "snapshot-export keys; runs once per checkpoint save, never per record")
        let label = |s: &str| serde::Value::Str(s.to_string());
        serde::Value::Map(vec![
            (label("counts"), self.counts.to_value()),
            (label("total"), self.total.to_value()),
            (label("sum"), self.sum.to_value()),
        ])
    }
}

impl serde::Deserialize for Histogram {
    fn from_value(v: &serde::Value) -> Result<Self, serde::de::Error> {
        let counts: Vec<u64> = serde::de::field(v, "counts")?;
        if !counts.is_empty() && counts.len() != BUCKET_BOUNDS.len() + 1 {
            // glacsweb: allow(perf-hygiene, reason = "restore-time error path; runs once per snapshot load, never per record")
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
        // glacsweb: allow(perf-hygiene, reason = "snapshot-export labels; runs once per checkpoint save, never per record")
        let label = |s: &str| serde::Value::Str(s.to_string());
        let counters = self
            .store
            .counters()
            .map(|(origin, name, v)| {
                serde::Value::Seq(vec![origin.to_value(), label(name), v.to_value()])
            })
            .collect();
        let daily = self
            .store
            .daily()
            .map(|(date, origin, name, v)| {
                serde::Value::Seq(vec![
                    date.to_value(),
                    origin.to_value(),
                    label(name),
                    v.to_value(),
                ])
            })
            .collect();
        let gauges = self
            .store
            .gauges()
            .map(|(origin, name, at, v)| {
                serde::Value::Seq(vec![
                    origin.to_value(),
                    label(name),
                    at.to_value(),
                    v.to_value(),
                ])
            })
            .collect();
        let histograms = self
            .store
            .histograms()
            .map(|(origin, name, h)| {
                serde::Value::Seq(vec![origin.to_value(), label(name), h.to_value()])
            })
            .collect();
        serde::Value::Map(vec![
            (
                label("events"),
                serde::Value::Seq(self.events().map(|e| e.to_event().to_value()).collect()),
            ),
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
        // glacsweb: allow(perf-hygiene, reason = "restore-time error path; runs once per snapshot load, never per record")
        .ok_or_else(|| serde::de::Error::custom(format!("telemetry: missing `{name}` sequence")))?
        .iter()
        .map(|row| {
            row.as_seq().filter(|r| r.len() == arity).ok_or_else(|| {
                // glacsweb: allow(perf-hygiene, reason = "restore-time error path; runs once per snapshot load, never per record")
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

/// Stores `value` in an empty cell, or fails with `duplicate`.
fn fill<T>(
    cell: Option<&mut Option<T>>,
    value: T,
    duplicate: &'static str,
) -> Result<(), serde::de::Error> {
    match cell {
        Some(cell @ None) => {
            *cell = Some(value);
            Ok(())
        }
        _ => Err(serde::de::Error::custom(duplicate)),
    }
}

impl serde::Deserialize for MemoryRecorder {
    fn from_value(v: &serde::Value) -> Result<Self, serde::de::Error> {
        let max_events: u64 = serde::de::field(v, "max_events")?;
        let max_events = usize::try_from(max_events)
            .map_err(|_| serde::de::Error::custom("telemetry max_events exceeds usize"))?;
        let raw_events: Vec<Event> = serde::de::field(v, "events")?;
        if raw_events.len() > max_events {
            // glacsweb: allow(perf-hygiene, reason = "restore-time error path; runs once per snapshot load, never per record")
            return Err(serde::de::Error::custom(format!(
                "telemetry holds {} events over its cap of {max_events}",
                raw_events.len()
            )));
        }
        let mut events = EventLog::default();
        for event in &raw_events {
            if !events.push(event) {
                return Err(serde::de::Error::custom("telemetry event cannot be stored"));
            }
        }
        let mut store = Store::default();
        for row in rows(v, "counters", 3)? {
            let slot = store.slot_by_content((item_at::<Origin>(row, 0)?, label_at(row, 1)?));
            let value = item_at::<u64>(row, 2)?;
            fill(
                store.totals.get_mut(slot),
                value,
                "duplicate telemetry counter key",
            )?;
        }
        for row in rows(v, "daily", 4)? {
            let day = store.row_at(item_at::<CivilDate>(row, 0)?);
            let slot = store.slot_by_content((item_at::<Origin>(row, 1)?, label_at(row, 2)?));
            let value = item_at::<u64>(row, 3)?;
            let Some(day) = store.days.get_mut(day) else {
                continue;
            };
            if day.get(slot).is_some() {
                return Err(serde::de::Error::custom("duplicate telemetry daily key"));
            }
            day.add(slot, value);
        }
        for row in rows(v, "gauges", 4)? {
            let slot = store.slot_by_content((item_at::<Origin>(row, 0)?, label_at(row, 1)?));
            let at = item_at::<SimTime>(row, 2)?;
            let value = item_at::<f64>(row, 3)?;
            fill(
                store.gauges.get_mut(slot),
                (at, value),
                "duplicate telemetry gauge key",
            )?;
        }
        for row in rows(v, "histograms", 3)? {
            let slot = store.slot_by_content((item_at::<Origin>(row, 0)?, label_at(row, 1)?));
            let hist = item_at::<Histogram>(row, 2)?;
            fill(
                store.histograms.get_mut(slot),
                hist,
                "duplicate telemetry histogram key",
            )?;
        }
        Ok(MemoryRecorder {
            events,
            max_events,
            events_dropped: serde::de::field(v, "events_dropped")?,
            store,
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
pub(crate) fn push_block<T>(
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
pub(crate) fn push_fields<'k, 'v>(
    o: &mut String,
    fields: impl Iterator<Item = (&'k str, ValueRef<'v>)>,
    layout: Layout,
) {
    for (i, (key, value)) in fields.enumerate() {
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
fn push_json_value(o: &mut String, v: ValueRef<'_>) {
    match v {
        ValueRef::U64(n) => {
            let _ = write!(o, "{n}");
        }
        ValueRef::I64(n) => {
            let _ = write!(o, "{n}");
        }
        ValueRef::F64(x) => push_json_f64(o, x),
        ValueRef::Bool(b) => o.push_str(if b { "true" } else { "false" }),
        ValueRef::Str(s) => push_json_str(o, s),
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
    fn equality_is_reflexive_with_nan_values() {
        let mut r = MemoryRecorder::default();
        r.gauge(at(1, 12), orig(), "soc", f64::NAN);
        r.event(Event::new(at(1, 12), orig(), "e").with("v", f64::NAN));
        assert!(r == r.clone());
        let mut other = r.clone();
        other.gauge(at(1, 13), orig(), "soc", -f64::NAN);
        assert!(r != other, "a NaN of other bits is another value");
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
        assert_eq!(merged.events().next().map(|e| e.name), Some("from_a"));

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
    fn an_optional_recorder_keeps_records_only_when_present() {
        let mut none: Option<MemoryRecorder> = None;
        assert!(!none.enabled());
        none.counter(at(1, 12), orig(), "c", 4);
        assert!(none.is_none(), "a missing recorder stays missing");
        let mut some = Some(MemoryRecorder::default());
        assert!(some.enabled());
        some.counter(at(1, 12), orig(), "c", 4);
        some.event(Event::new(at(1, 12), orig(), "e"));
        let r = some.unwrap_or_default();
        assert_eq!(r.counter_value(orig(), "c"), 4);
        assert_eq!(r.events().len(), 1);
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

    #[test]
    fn zero_delta_counters_create_their_keys() {
        let mut r = MemoryRecorder::default();
        r.counter(at(1, 12), orig(), "idle", 0);
        assert!(!r.is_empty());
        assert_eq!(r.counters().collect::<Vec<_>>(), [(orig(), "idle", 0)]);
        assert_eq!(
            r.daily().collect::<Vec<_>>(),
            [(at(1, 0).date(), orig(), "idle", 0)]
        );
        // A gauge-only key has no counter and no daily row.
        r.gauge(at(2, 12), orig(), "soc", 0.5);
        assert_eq!(r.counters().count(), 1);
        assert_eq!(r.daily().count(), 1);
    }

    #[test]
    fn interned_and_literal_labels_share_a_slot() {
        let interned = Origin::new(crate::intern("station"), crate::intern("base"));
        let name = crate::intern("windows_run");
        assert!(!std::ptr::eq(name, "windows_run"), "a distinct address");
        let mut r = MemoryRecorder::default();
        r.counter(at(1, 12), interned, name, 2);
        r.counter(at(1, 13), orig(), "windows_run", 3);
        r.observe(interned, name, 4);
        r.observe(orig(), "windows_run", 5);
        assert_eq!(r.counter_value(orig(), "windows_run"), 5);
        assert_eq!(r.daily().count(), 1);
        assert_eq!(r.histograms().count(), 1);
        assert_eq!(r.histogram(interned, name).map(Histogram::total), Some(2));
    }

    #[test]
    fn first_seen_order_changes_neither_equality_nor_bytes() {
        let keys = ["a", "b", "c"];
        let mut forward = MemoryRecorder::default();
        let mut backward = MemoryRecorder::default();
        for (i, name) in keys.iter().enumerate() {
            forward.counter(at(1 + i as u32, 12), orig(), name, 1);
            forward.observe(orig(), name, 7);
        }
        for (i, name) in keys.iter().enumerate().rev() {
            backward.observe(orig(), name, 7);
            backward.counter(at(1 + i as u32, 12), orig(), name, 1);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.to_json(), backward.to_json());
        assert_eq!(
            glacsweb_snapshot::to_bytes(&forward),
            glacsweb_snapshot::to_bytes(&backward)
        );
        backward.counter(at(9, 12), orig(), "a", 0);
        assert_ne!(forward, backward, "a zero-delta day is content");
    }

    #[test]
    fn counters_on_earlier_days_keep_the_rows_in_date_order() {
        let mut r = MemoryRecorder::default();
        r.counter(at(5, 12), orig(), "c", 1);
        r.counter(at(3, 12), orig(), "c", 2);
        r.counter(at(5, 13), orig(), "c", 4);
        r.counter(at(4, 12), orig(), "c", 8);
        r.counter(at(5, 14), orig(), "c", 16);
        let days: Vec<_> = r.daily().map(|(d, _, _, v)| (d.day, v)).collect();
        assert_eq!(days, [(3, 2), (4, 8), (5, 21)]);
    }

    fn daily_row(date: serde::Value, value: u64) -> serde::Value {
        serde::Value::Seq(vec![
            date,
            serde::Serialize::to_value(&orig()),
            serde::Value::Str("c".to_string()),
            serde::Value::U64(value),
        ])
    }

    fn with_daily(rows: Vec<serde::Value>) -> serde::Value {
        let mut v = serde::Serialize::to_value(&MemoryRecorder::default());
        if let serde::Value::Map(entries) = &mut v {
            for (key, section) in entries.iter_mut() {
                if key.as_str() == Some("daily") {
                    *section = serde::Value::Seq(rows.clone());
                }
            }
        }
        v
    }

    fn date_value(year: i32, month: u32, day: u32) -> serde::Value {
        serde::Serialize::to_value(&CivilDate { year, month, day })
    }

    #[test]
    fn crafted_daily_rows_load_or_fail_typed() {
        use serde::Deserialize;
        // A month-13 date is not a real day, but it is a key like any other.
        let crafted = with_daily(vec![
            daily_row(date_value(2009, 13, 40), 3),
            daily_row(date_value(2009, 6, 1), 2),
        ]);
        let r = MemoryRecorder::from_value(&crafted).expect("crafted dates load");
        let dates: Vec<_> = r.daily().map(|(d, _, _, v)| (d.month, v)).collect();
        assert_eq!(dates, [(6, 2), (13, 3)], "rows in date order");
        // Counting on into the restored recorder keeps the crafted row.
        let mut r = r;
        r.counter(at(1, 12), orig(), "c", 5);
        assert_eq!(r.daily_value(at(1, 0).date(), orig(), "c"), 7);
        assert_eq!(r.daily().count(), 2);

        let duplicate = with_daily(vec![
            daily_row(date_value(2009, 6, 1), 2),
            daily_row(date_value(2009, 6, 1), 9),
        ]);
        let err = MemoryRecorder::from_value(&duplicate).expect_err("duplicate rows");
        assert!(err.to_string().contains("duplicate telemetry daily key"));

        let short = with_daily(vec![serde::Value::Seq(vec![date_value(2009, 6, 1)])]);
        let err = MemoryRecorder::from_value(&short).expect_err("short row");
        assert!(err.to_string().contains("must have 4 elements"));

        let bad_date = with_daily(vec![daily_row(serde::Value::Str("x".into()), 1)]);
        assert!(MemoryRecorder::from_value(&bad_date).is_err());
    }

    /// The equivalence oracle: the slot store against the `BTreeMap`
    /// recorder it replaced.
    mod oracle {
        use proptest::prelude::*;

        use super::super::*;
        use crate::reference::BTreeRecorder;

        /// `(kind, key, day, hour, value, flag)`; kinds: 0–1 counter
        /// (1 straight into the accumulator, between its merges), 2
        /// gauge, 3 observe, 4 event, 5 end of a merged chunk.
        type Op = (u8, u8, u8, u8, u8, bool);

        const CAP: usize = 3;

        /// Each label as a literal or as an interned copy: the same text
        /// at a different address.
        fn label(text: &'static str, interned: bool) -> &'static str {
            if interned {
                crate::intern(text)
            } else {
                text
            }
        }

        fn key(bits: u8) -> (Origin, &'static str) {
            let component = if bits & 1 == 0 { "station" } else { "gprs" };
            let station = if bits & 2 == 0 { "base" } else { "reference" };
            let name = ["alpha", "beta", "gamma"]
                .get(usize::from(bits >> 2) % 3)
                .copied()
                .unwrap_or("alpha");
            let interned = bits & 32 != 0;
            (
                Origin::new(label(component, interned), label(station, interned)),
                label(name, interned),
            )
        }

        /// Days out of calendar order, two of them across a year end.
        fn when(day: u8, hour: u8) -> SimTime {
            let (y, m, d) = match day % 4 {
                0 => (2009, 6, 3),
                1 => (2009, 6, 1),
                2 => (2010, 1, 1),
                _ => (2009, 12, 31),
            };
            SimTime::from_ymd_hms(y, m, d, u32::from(hour % 24), 0, 0)
        }

        fn amount(v: u8) -> u64 {
            [0, 1, 7, 100_000][usize::from(v % 4)]
        }

        fn apply(op: &Op, r: &mut dyn Recorder) {
            let &(kind, bits, day, hour, value, _) = op;
            let (origin, name) = key(bits);
            let at = when(day, hour);
            match kind {
                0 | 1 => r.counter(at, origin, name, amount(value)),
                2 => r.gauge(at, origin, name, f64::from(value) / 4.0),
                3 => r.observe(origin, name, amount(value)),
                4 => r.event(Event::new(at, origin, name).with("v", u64::from(value))),
                _ => {}
            }
        }

        fn fold(
            acc: &mut (MemoryRecorder, BTreeRecorder),
            chunk: (MemoryRecorder, BTreeRecorder),
            by_value: bool,
        ) {
            if by_value {
                acc.0.merge_from(chunk.0);
                acc.1.merge_from(chunk.1);
            } else {
                acc.0.merge_ref(&chunk.0);
                acc.1.merge_ref(&chunk.1);
            }
        }

        fn pair() -> (MemoryRecorder, BTreeRecorder) {
            (
                MemoryRecorder::with_capacity(CAP),
                BTreeRecorder::with_capacity(CAP),
            )
        }

        /// Every export, accessor and emptiness test agrees.
        fn agree(store: &MemoryRecorder, reference: &BTreeRecorder) -> Result<(), TestCaseError> {
            prop_assert_eq!(store.to_json(), reference.to_json());
            prop_assert_eq!(store.to_ndjson(), reference.to_ndjson());
            prop_assert_eq!(
                glacsweb_snapshot::to_bytes(store),
                glacsweb_snapshot::to_bytes(reference)
            );
            prop_assert!(store.counters().eq(reference.counters()));
            prop_assert!(store.daily().eq(reference.daily()));
            prop_assert!(store.gauges().eq(reference.gauges()));
            prop_assert!(store.histograms().eq(reference.histograms()));
            prop_assert_eq!(store.is_empty(), reference.is_empty());
            for bits in 0..64 {
                let (origin, name) = key(bits);
                prop_assert_eq!(
                    store.counter_value(origin, name),
                    reference.counter_value(origin, name)
                );
                prop_assert_eq!(
                    store.gauge_value(origin, name),
                    reference.gauge_value(origin, name)
                );
                prop_assert_eq!(
                    store.histogram(origin, name),
                    reference.histogram(origin, name)
                );
                for day in 0..4 {
                    let date = when(day, 0).date();
                    prop_assert_eq!(
                        store.daily_value(date, origin, name),
                        reference.daily_value(date, origin, name)
                    );
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Random counter/gauge/observe/event sequences, cut into
            /// chunks merged by value or by reference: the slot store
            /// matches the map recorder in every export; a recorder fed
            /// the same records with its keys first seen in another
            /// order is equal and writes the same bytes; and a snapshot
            /// restore, whose interned labels sit at other addresses than
            /// the literals, keeps counting into the same keys.
            #[test]
            fn slot_store_matches_the_btree_recorder(
                ops in proptest::collection::vec(
                    (0u8..6, 0u8..64, 0u8..4, 0u8..24, 0u8..8, any::<bool>()),
                    0..120,
                ),
            ) {
                let mut acc = pair();
                let mut first: Option<(MemoryRecorder, BTreeRecorder)> = None;
                let mut chunk = pair();
                let mut by_value = false;
                for op in &ops {
                    let target = match op.0 {
                        1 => &mut acc,
                        5 => {
                            let done = std::mem::replace(&mut chunk, pair());
                            first.get_or_insert_with(|| done.clone());
                            fold(&mut acc, done, by_value);
                            by_value = op.5;
                            continue;
                        }
                        _ => &mut chunk,
                    };
                    apply(op, &mut target.0);
                    apply(op, &mut target.1);
                }
                fold(&mut acc, chunk, by_value);
                agree(&acc.0, &acc.1)?;

                // `==` agrees with the reference on a recorder that may differ.
                if let Some((store, reference)) = &first {
                    agree(store, reference)?;
                    prop_assert_eq!(acc.0 == *store, acc.1 == *reference);
                }

                // Same records, counters and observations in reverse.
                let mut reordered = MemoryRecorder::with_capacity(CAP);
                for op in ops.iter().filter(|op| matches!(op.0, 2 | 4)) {
                    apply(op, &mut reordered);
                }
                for op in ops.iter().rev().filter(|op| matches!(op.0, 0 | 1 | 3)) {
                    apply(op, &mut reordered);
                }
                prop_assert!(reordered == acc.0);
                prop_assert_eq!(reordered.to_json(), acc.0.to_json());
                prop_assert_eq!(
                    glacsweb_snapshot::to_bytes(&reordered),
                    glacsweb_snapshot::to_bytes(&acc.0)
                );

                // Restore, then keep recording with literal labels.
                let bytes = glacsweb_snapshot::to_bytes(&acc.0);
                let mut restored: MemoryRecorder =
                    glacsweb_snapshot::from_bytes(&bytes).expect("round trip");
                prop_assert!(restored == acc.0);
                for op in &ops {
                    apply(op, &mut restored);
                    apply(op, &mut acc.1);
                }
                agree(&restored, &acc.1)?;
            }
        }
    }
}
