//! The `BTreeMap` recorder that the slot-indexed [`MemoryRecorder`]
//! replaced, kept as the reference model its equivalence proptest
//! checks against: every record keyed by its full
//! `(origin, name)` / `(date, origin, name)` tuple, and its own copy of
//! the `TELEMETRY.json`, NDJSON and snapshot writers.
//!
//! [`MemoryRecorder`]: crate::MemoryRecorder

use std::collections::BTreeMap;
use std::fmt::Write;

use glacsweb_sim::{CivilDate, SimTime};

use crate::memory::{
    push_block, push_buckets, push_fields, push_json_f64, push_json_str, push_origin, Layout,
};
use crate::{Event, Histogram, Origin, Recorder, NDJSON_SCHEMA};

/// The map-backed recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct BTreeRecorder {
    events: Vec<Event>,
    max_events: usize,
    events_dropped: u64,
    counters: BTreeMap<(Origin, &'static str), u64>,
    daily: BTreeMap<(CivilDate, Origin, &'static str), u64>,
    gauges: BTreeMap<(Origin, &'static str), (SimTime, f64)>,
    histograms: BTreeMap<(Origin, &'static str), Histogram>,
}

impl BTreeRecorder {
    pub fn with_capacity(max_events: usize) -> Self {
        BTreeRecorder {
            events: Vec::new(),
            max_events,
            events_dropped: 0,
            counters: BTreeMap::new(),
            daily: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    pub fn events(&self) -> &[Event] {
        &self.events
    }

    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    pub fn counter_value(&self, origin: Origin, name: &'static str) -> u64 {
        self.counters.get(&(origin, name)).copied().unwrap_or(0)
    }

    pub fn daily_value(&self, date: CivilDate, origin: Origin, name: &'static str) -> u64 {
        self.daily.get(&(date, origin, name)).copied().unwrap_or(0)
    }

    pub fn gauge_value(&self, origin: Origin, name: &'static str) -> Option<f64> {
        self.gauges.get(&(origin, name)).map(|&(_, v)| v)
    }

    pub fn histogram(&self, origin: Origin, name: &'static str) -> Option<&Histogram> {
        self.histograms.get(&(origin, name))
    }

    pub fn counters(&self) -> impl Iterator<Item = (Origin, &'static str, u64)> + '_ {
        self.counters.iter().map(|(&(o, n), &v)| (o, n, v))
    }

    pub fn daily(&self) -> impl Iterator<Item = (CivilDate, Origin, &'static str, u64)> + '_ {
        self.daily.iter().map(|(&(d, o, n), &v)| (d, o, n, v))
    }

    pub fn gauges(&self) -> impl Iterator<Item = (Origin, &'static str, SimTime, f64)> + '_ {
        self.gauges.iter().map(|(&(o, n), &(at, v))| (o, n, at, v))
    }

    pub fn histograms(&self) -> impl Iterator<Item = (Origin, &'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&(o, n), h)| (o, n, h))
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.events_dropped == 0
            && self.counters.is_empty()
            && self.daily.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
    }

    pub fn merge_from(&mut self, other: BTreeRecorder) {
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

    pub fn merge_ref(&mut self, other: &BTreeRecorder) {
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
            push_fields(
                o,
                event.fields.iter().map(|(k, v)| (*k, v.view())),
                Layout::Pretty,
            );
            o.push_str("}}");
        });
        o.push_str("]\n");

        o.push_str("}\n");
        o
    }

    pub fn to_ndjson(&self) -> String {
        let mut o = String::new();
        o.push_str("{\"kind\":\"schema\",\"schema\":");
        push_json_str(&mut o, NDJSON_SCHEMA);
        let _ = writeln!(o, ",\"events_dropped\":{}}}", self.events_dropped);
        for (&(origin, name), value) in &self.counters {
            o.push_str("{\"kind\":\"counter_total\",");
            push_origin(&mut o, origin, name, Layout::Compact);
            let _ = writeln!(o, ",\"value\":{value}}}");
        }
        for (&(date, origin, name), value) in &self.daily {
            let _ = write!(o, "{{\"kind\":\"daily\",\"date\":\"{date}\",");
            push_origin(&mut o, origin, name, Layout::Compact);
            let _ = writeln!(o, ",\"value\":{value}}}");
        }
        for (&(origin, name), &(at, value)) in &self.gauges {
            let _ = write!(o, "{{\"kind\":\"gauge\",\"at\":\"{at}\",");
            push_origin(&mut o, origin, name, Layout::Compact);
            o.push_str(",\"value\":");
            push_json_f64(&mut o, value);
            o.push_str("}\n");
        }
        for (&(origin, name), hist) in &self.histograms {
            o.push_str("{\"kind\":\"histogram\",");
            push_origin(&mut o, origin, name, Layout::Compact);
            let _ = write!(
                o,
                ",\"total\":{},\"sum\":{},\"buckets\":[",
                hist.total(),
                hist.sum()
            );
            push_buckets(&mut o, hist, Layout::Compact);
            o.push_str("]}\n");
        }
        for event in &self.events {
            let _ = write!(o, "{{\"kind\":\"event\",\"at\":\"{}\",", event.at);
            push_origin(&mut o, event.origin, event.name, Layout::Compact);
            o.push_str(",\"fields\":{");
            push_fields(
                &mut o,
                event.fields.iter().map(|(k, v)| (*k, v.view())),
                Layout::Compact,
            );
            o.push_str("}}\n");
        }
        o
    }
}

impl Recorder for BTreeRecorder {
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
}

impl serde::Serialize for BTreeRecorder {
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
