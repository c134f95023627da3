//! The station logfile, metered rather than stored.
//!
//! §VI: verbose field logs "take time/power/money to transfer". All the
//! simulation needs from the log is how many bytes each daily upload
//! carries, so a line is never built: it costs its source and message
//! text plus 32 bytes of timestamp and level framing, and only the sum
//! is kept.

use std::fmt;

use glacsweb_sim::Bytes;
use serde::{Deserialize, Serialize};

use crate::TraceLevel;

/// Framing bytes (timestamp, level, separators) every logged line adds.
const LINE_OVERHEAD: u64 = 32;

/// Byte meter of the station logfile since the last daily rotation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct LogMeter {
    min_level: TraceLevel,
    bytes: u64,
}

impl LogMeter {
    /// An empty meter that counts lines at or above `min_level`.
    pub(crate) fn new(min_level: TraceLevel) -> Self {
        LogMeter {
            min_level,
            bytes: 0,
        }
    }

    /// Meters a line with a literal message.
    pub(crate) fn record(&mut self, level: TraceLevel, source: &str, message: &str) {
        self.record_len(level, source, message.len() as u64);
    }

    /// Meters a line with a formatted message, without building it.
    pub(crate) fn record_fmt(
        &mut self,
        level: TraceLevel,
        source: &str,
        message: fmt::Arguments<'_>,
    ) {
        if level >= self.min_level {
            self.add(source, formatted_len(message));
        }
    }

    /// Whether lines at `level` are metered at all — lets a caller skip
    /// computing a length nobody counts.
    pub(crate) fn meters(&self, level: TraceLevel) -> bool {
        level >= self.min_level
    }

    /// Meters a line whose message is `message_len` bytes long.
    pub(crate) fn record_len(&mut self, level: TraceLevel, source: &str, message_len: u64) {
        if self.meters(level) {
            self.add(source, message_len);
        }
    }

    /// The daily rotation after upload: returns the bytes metered since
    /// the last one and resets the meter.
    pub(crate) fn rotate(&mut self) -> Bytes {
        Bytes(std::mem::take(&mut self.bytes))
    }

    fn add(&mut self, source: &str, message_len: u64) {
        self.bytes += source.len() as u64 + message_len + LINE_OVERHEAD;
    }
}

/// Length of `args` once formatted, counted without allocating.
pub(crate) fn formatted_len(args: fmt::Arguments<'_>) -> u64 {
    struct Counter(u64);
    impl fmt::Write for Counter {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len() as u64;
            Ok(())
        }
    }
    let mut counter = Counter(0);
    // A counter never fails to write; an error could only come from a
    // `Display` impl, and `format!` would panic on that same error.
    let _ = fmt::write(&mut counter, args);
    counter.0
}
