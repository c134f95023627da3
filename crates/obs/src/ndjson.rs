//! NDJSON streaming telemetry: records leave the process as they happen
//! instead of landing in one post-run `TELEMETRY.json`.
//!
//! Two halves:
//!
//! * [`NdjsonWriter`] — a [`Recorder`] that serialises every record to
//!   one JSON line on an [`io::Write`] the moment it arrives. This is
//!   the live tail the 2008 deployment lacked: point it at a file (or a
//!   socket) and the telemetry survives even if the process dies
//!   mid-season.
//! * [`MemoryRecorder::to_ndjson`] — the aggregated counterpart: dumps a
//!   recorder's accumulated state as deterministic NDJSON (`(origin,
//!   name)` key order, fixed key layout per line). Merging per-shard recorders
//!   in shard-index order and exporting yields byte-identical output at
//!   any thread count, which is what the service's `/api/telemetry`
//!   endpoint and the CI byte-identity check rely on.
//!
//! Every line is a self-contained JSON object whose first key is
//! `"kind"`, so consumers can `grep '"kind":"gauge"'` a stream without a
//! JSON parser. The aggregated export additionally leads with a
//! `"schema"` line (`glacsweb-obs/ndjson-1`).

use std::fmt::{self, Write as _};
use std::io;

use glacsweb_sim::SimTime;

use crate::memory::{push_buckets, push_fields, push_json_f64, push_json_str, push_origin, Layout};
use crate::{Event, MemoryRecorder, Origin, Recorder};

/// Schema tag carried by the first line of every aggregated export.
pub const NDJSON_SCHEMA: &str = "glacsweb-obs/ndjson-1";

/// A [`Recorder`] that streams each record as one JSON line.
///
/// The `Recorder` trait's methods cannot return errors, so I/O failures
/// are stashed: the first error stops all further writes and is
/// surfaced by [`NdjsonWriter::finish`]. Lines are written whole — a record
/// either appears complete or not at all (short of the underlying
/// writer tearing a single `write_all`).
pub struct NdjsonWriter<W: io::Write + Send> {
    out: W,
    lines: u64,
    error: Option<io::Error>,
    /// The line being written, reused from record to record.
    line: String,
}

impl<W: io::Write + Send> NdjsonWriter<W> {
    /// Wraps a sink; callers wanting buffering should pass a
    /// `BufWriter` themselves (and remember [`NdjsonWriter::finish`]
    /// flushes it).
    pub fn new(out: W) -> Self {
        NdjsonWriter {
            out,
            lines: 0,
            error: None,
            line: String::new(),
        }
    }

    /// Lines successfully written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the underlying sink, or the first error the
    /// stream hit (including the flush).
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    /// Builds one line with `build` in the reused buffer and writes it.
    fn write_line(&mut self, build: impl FnOnce(&mut String)) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        build(&mut self.line);
        let write = self
            .out
            .write_all(self.line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"));
        match write {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

impl<W: io::Write + Send> fmt::Debug for NdjsonWriter<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NdjsonWriter")
            .field("lines", &self.lines)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl<W: io::Write + Send> Recorder for NdjsonWriter<W> {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&mut self, event: Event) {
        self.write_line(|o| push_event_line(o, &event));
    }

    fn counter(&mut self, at: SimTime, origin: Origin, name: &'static str, delta: u64) {
        self.write_line(|o| {
            let _ = write!(o, "{{\"kind\":\"counter\",\"at\":\"{at}\",");
            push_origin(o, origin, name, Layout::Compact);
            let _ = write!(o, ",\"delta\":{delta}}}");
        });
    }

    fn gauge(&mut self, at: SimTime, origin: Origin, name: &'static str, value: f64) {
        self.write_line(|o| push_gauge_line(o, at, origin, name, value));
    }

    fn observe(&mut self, origin: Origin, name: &'static str, value: u64) {
        self.write_line(|o| {
            o.push_str("{\"kind\":\"observe\",");
            push_origin(o, origin, name, Layout::Compact);
            let _ = write!(o, ",\"value\":{value}}}");
        });
    }
}

/// Appends one event as a single NDJSON line, without the newline
/// (shared between the streaming writer and the aggregated export).
fn push_event_line(o: &mut String, event: &Event) {
    let _ = write!(o, "{{\"kind\":\"event\",\"at\":\"{}\",", event.at);
    push_origin(o, event.origin, event.name, Layout::Compact);
    o.push_str(",\"fields\":{");
    push_fields(o, &event.fields, Layout::Compact);
    o.push_str("}}");
}

/// Appends one gauge reading as a single NDJSON line, without the
/// newline (the streamed and the aggregated form are the same).
fn push_gauge_line(o: &mut String, at: SimTime, origin: Origin, name: &str, value: f64) {
    let _ = write!(o, "{{\"kind\":\"gauge\",\"at\":\"{at}\",");
    push_origin(o, origin, name, Layout::Compact);
    o.push_str(",\"value\":");
    push_json_f64(o, value);
    o.push('}');
}

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
            push_gauge_line(o, at, origin, name, value);
            o.push('\n');
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
            push_event_line(o, event);
            o.push('\n');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge_all;

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
    fn writer_streams_one_line_per_record() {
        let mut w = NdjsonWriter::new(Vec::new());
        w.counter(at(1, 12), orig(), "packets", 7);
        w.gauge(at(1, 12), orig(), "soc", 0.5);
        w.observe(orig(), "wait", 30);
        w.event(Event::new(at(1, 12), orig(), "boot").with("ok", true));
        assert_eq!(w.lines(), 4);
        let bytes = w.finish().expect("no I/O errors on a Vec");
        let text = String::from_utf8(bytes).expect("utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            let parsed: serde::Value = serde_json::from_str(line).expect("valid JSON line");
            assert!(parsed.get("kind").is_some(), "every line is kind-tagged");
        }
        assert!(lines[0].starts_with("{\"kind\":\"counter\""));
        assert!(lines[3].contains("\"fields\":{\"ok\":true}"));
    }

    #[test]
    fn writer_stops_at_the_first_io_error() {
        /// Fails every write after the first.
        struct OneShot(u32);
        impl io::Write for OneShot {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 >= 2 {
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"));
                }
                self.0 += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = NdjsonWriter::new(OneShot(0));
        w.counter(at(1, 12), orig(), "a", 1); // line + newline: 2 writes, ok
        w.counter(at(1, 12), orig(), "b", 1); // fails
        w.counter(at(1, 12), orig(), "c", 1); // dropped silently
        assert_eq!(w.lines(), 1);
        assert!(w.error.is_some());
        assert!(w.finish().is_err());
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
