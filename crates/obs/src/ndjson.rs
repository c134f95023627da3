//! NDJSON telemetry export: [`MemoryRecorder::to_ndjson`] dumps a
//! recorder's accumulated state as deterministic NDJSON (`(origin,
//! name)` key order, fixed key layout per line). Merging per-shard
//! recorders in shard-index order and exporting yields byte-identical
//! output at any thread count, which is what the service's
//! `/api/telemetry` endpoint and the CI byte-identity check rely on.
//!
//! Every line is a self-contained JSON object whose first key is
//! `"kind"`, so consumers can `grep '"kind":"gauge"'` an export without
//! a JSON parser. The first line is a `"schema"` line
//! (`glacsweb-obs/ndjson-1`).

use std::fmt::Write as _;

use crate::memory::{push_buckets, push_fields, push_json_f64, push_json_str, push_origin, Layout};
use crate::MemoryRecorder;

/// Schema tag carried by the first line of every aggregated export.
pub const NDJSON_SCHEMA: &str = "glacsweb-obs/ndjson-1";

impl MemoryRecorder {
    /// Exports the accumulated state as NDJSON, one record per line.
    ///
    /// Line order is fully deterministic: the `schema` header, then
    /// counters, daily rollups, gauges, and histograms in `(origin,
    /// name)` key order (daily rollups by date first), then events in
    /// record order. Byte-identical output is therefore guaranteed for
    /// recorders with equal contents, however they were assembled — the
    /// property the service's telemetry endpoint pins in CI.
    pub fn to_ndjson(&self) -> String {
        let mut o = String::with_capacity(4096);
        self.write_ndjson_into(&mut o);
        o
    }

    /// Appends the NDJSON export of [`MemoryRecorder::to_ndjson`] to an
    /// existing buffer — same bytes, no intermediate `String`. Hot
    /// readers that re-export telemetry per poll reuse one buffer across
    /// exports instead of allocating a fresh one each time.
    pub fn write_ndjson_into(&self, o: &mut String) {
        o.push_str("{\"kind\":\"schema\",\"schema\":");
        push_json_str(o, NDJSON_SCHEMA);
        let _ = writeln!(o, ",\"events_dropped\":{}}}", self.events_dropped());
        for (origin, name, value) in self.counters() {
            o.push_str("{\"kind\":\"counter_total\",");
            push_origin(o, origin, name, Layout::Compact);
            let _ = writeln!(o, ",\"value\":{value}}}");
        }
        for (date, origin, name, value) in self.daily() {
            let _ = write!(o, "{{\"kind\":\"daily\",\"date\":\"{date}\",");
            push_origin(o, origin, name, Layout::Compact);
            let _ = writeln!(o, ",\"value\":{value}}}");
        }
        for (origin, name, at, value) in self.gauges() {
            let _ = write!(o, "{{\"kind\":\"gauge\",\"at\":\"{at}\",");
            push_origin(o, origin, name, Layout::Compact);
            o.push_str(",\"value\":");
            push_json_f64(o, value);
            o.push_str("}\n");
        }
        for (origin, name, hist) in self.histograms() {
            o.push_str("{\"kind\":\"histogram\",");
            push_origin(o, origin, name, Layout::Compact);
            let _ = write!(
                o,
                ",\"total\":{},\"sum\":{},\"buckets\":[",
                hist.total(),
                hist.sum()
            );
            push_buckets(o, hist, Layout::Compact);
            o.push_str("]}\n");
        }
        for event in self.events() {
            let _ = write!(o, "{{\"kind\":\"event\",\"at\":\"{}\",", event.at);
            push_origin(o, event.origin, event.name, Layout::Compact);
            o.push_str(",\"fields\":{");
            push_fields(o, event.raw_fields(), Layout::Compact);
            o.push_str("}}\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{merge_all, Event, Origin, Recorder};
    use glacsweb_sim::SimTime;

    fn at(day: u32, hour: u32) -> SimTime {
        SimTime::from_ymd_hms(2009, 6, day, hour, 0, 0)
    }

    fn orig() -> Origin {
        Origin::new("station", "base")
    }

    fn sample() -> MemoryRecorder {
        let mut r = MemoryRecorder::default();
        r.counter(at(1, 12), orig(), "packets", 7);
        r.gauge(at(1, 12), orig(), "soc", 0.5);
        r.observe(orig(), "wait", 30);
        r.event(Event::new(at(1, 12), orig(), "boot").with("ok", true));
        r
    }

    #[test]
    fn aggregated_export_is_schema_first_and_valid() {
        let text = sample().to_ndjson();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            6,
            "schema + counter + its daily rollup + gauge + histogram + event"
        );
        let header: serde::Value = serde_json::from_str(lines[0]).expect("valid header");
        assert_eq!(
            header.get("schema").and_then(serde::Value::as_str),
            Some(NDJSON_SCHEMA)
        );
        for line in &lines {
            let _: serde::Value = serde_json::from_str(line).expect("valid JSON line");
        }
    }

    #[test]
    fn equal_contents_export_identical_bytes_regardless_of_assembly() {
        // One recorder fed directly vs. the same records split across two
        // and merged: byte-identical NDJSON. This is the service's
        // any-thread-count telemetry guarantee in miniature.
        let mut split_a = MemoryRecorder::default();
        split_a.counter(at(1, 12), orig(), "packets", 3);
        split_a.event(Event::new(at(1, 12), orig(), "boot").with("ok", true));
        let mut split_b = MemoryRecorder::default();
        split_b.counter(at(1, 12), orig(), "packets", 4);
        split_b.gauge(at(1, 12), orig(), "soc", 0.5);
        split_b.observe(orig(), "wait", 30);
        let merged = merge_all([split_a, split_b]);
        assert_eq!(merged.to_ndjson(), sample().to_ndjson());
    }

    #[test]
    fn empty_recorder_exports_only_the_schema_line() {
        let text = MemoryRecorder::default().to_ndjson();
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("{\"kind\":\"schema\""));
    }
}
