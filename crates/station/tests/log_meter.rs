//! Tests of the station's log byte meter. The meter is private to the
//! crate, so its source file is compiled into this test as a module.
//!
//! One test pins that metering a day's lines allocates nothing. Its
//! counting allocator counts per thread, so the tests running beside it
//! cannot pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt;

use glacsweb_hw::{FileKind, FileName, StorageError};
use glacsweb_sim::{Bytes, SimTime, Volts};
use glacsweb_station::PowerState;
// The meter's module names its level type as `crate::TraceLevel`.
use glacsweb_station::TraceLevel;
use serde::{Deserialize, Serialize, Value};

#[path = "../src/log.rs"]
mod log;

use log::LogMeter;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The message length the meter counts for one formatted line.
fn metered(message: fmt::Arguments<'_>) -> u64 {
    let mut meter = LogMeter::new(TraceLevel::Debug);
    meter.record_fmt(TraceLevel::Debug, "", message);
    meter.rotate().value() - 32
}

/// Asserts the meter counts exactly the bytes `format!` would build.
macro_rules! counts_like_format {
    ($($arg:tt)*) => {
        assert_eq!(
            metered(format_args!($($arg)*)),
            format!($($arg)*).len() as u64,
            "{}",
            format!($($arg)*)
        )
    };
}

#[test]
fn a_line_costs_its_source_its_message_and_32_bytes() {
    let mut meter = LogMeter::new(TraceLevel::Debug);
    meter.record(TraceLevel::Warn, "gprs", "attach failed");
    assert_eq!(meter.rotate(), Bytes(4 + 13 + 32));
    meter.record_len(TraceLevel::Info, "special", 500);
    assert_eq!(meter.rotate(), Bytes(7 + 500 + 32));
    let name = "control.py";
    meter.record_fmt(
        TraceLevel::Info,
        "update",
        format_args!("{name} verified and installed"),
    );
    assert_eq!(meter.rotate(), Bytes(6 + 33 + 32));
}

#[test]
fn formatted_lengths_equal_the_built_strings() {
    let times = [
        SimTime::EPOCH,
        SimTime::from_ymd_hms(2009, 6, 1, 9, 5, 7),
        SimTime::from_unix(u64::MAX / 4),
    ];
    let sizes = [
        Bytes(0),
        Bytes(999),
        Bytes::from_kib(165),
        Bytes(1536),
        Bytes::from_mib(4096),
    ];
    for taken_at in times {
        for (satellites, size) in sizes.into_iter().enumerate() {
            counts_like_format!("reading {} ({} sats, {})", taken_at, satellites, size);
        }
    }
    for (kept, lost) in [(0usize, 0usize), (12, 3), (usize::MAX, 1)] {
        counts_like_format!("filesystem corrupted; recovered {kept} files, lost {lost}");
    }
    for daily_avg in [Volts(12.8), Volts(-0.0), Volts(11.499_999), Volts(f64::MAX)] {
        for state in [PowerState::S0, PowerState::S3] {
            counts_like_format!("daily average {daily_avg} -> {}", state);
        }
    }
    let name = FileName::new(FileKind::Gps, 42);
    for e in [
        StorageError::Full {
            requested: Bytes::from_kib(165),
            free: Bytes(64),
        },
        StorageError::Exists(name),
        StorageError::NotFound(FileName::new(FileKind::Log, 7)),
        StorageError::Corrupted,
    ] {
        counts_like_format!("write {name}: {e}");
        counts_like_format!("delete {name}: {e}");
    }
    for (id, n) in [(0u32, 0usize), (21, 412), (u32::MAX, 3000)] {
        counts_like_format!("probe {}: individual fetch of {} readings failed", id, n);
        counts_like_format!("probe {}: {} new readings", id, n);
    }
    for (baseline, mean_cond) in [(0.0, 3.0), (-1.005, 1e300), (12.344_9, f64::NAN)] {
        counts_like_format!(
            "probe {}: conductivity rise {baseline:.2} -> {mean_cond:.2} uS",
            21u32
        );
    }
    for name in ["control.py", "", "ünïcode.py"] {
        counts_like_format!("{} verified and installed", name);
        counts_like_format!("{} checksum mismatch; keeping old version", name);
    }
}

#[test]
fn lines_below_the_minimum_level_add_nothing() {
    let mut meter = LogMeter::new(TraceLevel::Info);
    meter.record(TraceLevel::Debug, "probe", "chatty");
    meter.record_len(TraceLevel::Debug, "probe", 300_000);
    meter.record_fmt(TraceLevel::Debug, "dgps", format_args!("reading {}", 1));
    assert_eq!(meter.rotate(), Bytes::ZERO);
    meter.record(TraceLevel::Info, "a", "b");
    meter.record(TraceLevel::Warn, "a", "b");
    meter.record(TraceLevel::Error, "a", "b");
    assert_eq!(meter.rotate(), Bytes(3 * 34));
}

#[test]
fn rotate_returns_the_sum_and_resets() {
    let mut meter = LogMeter::new(TraceLevel::Debug);
    assert_eq!(meter.rotate(), Bytes::ZERO);
    meter.record(TraceLevel::Info, "probe", "x");
    meter.record_len(TraceLevel::Debug, "probe", 1000);
    assert_eq!(meter.rotate(), Bytes(5 + 1 + 32 + 5 + 1000 + 32));
    assert_eq!(meter.rotate(), Bytes::ZERO);
}

#[test]
fn a_schema_v1_log_decodes_to_the_same_bytes_and_level() {
    // A v1 snapshot stored the whole bounded trace log: retained events,
    // capacity, evictions, per-level counts, the level and the meter.
    let s = |text: &str| Value::Str(text.to_string());
    let event = |time: u64, level: &str, source: &str, message: &str| {
        Value::Map(vec![
            (s("time"), Value::U64(time)),
            (s("level"), s(level)),
            (s("source"), s(source)),
            (s("message"), s(message)),
        ])
    };
    let v1 = Value::Map(vec![
        (
            s("events"),
            Value::Seq(vec![
                event(
                    1_243_857_600,
                    "Info",
                    "power",
                    "daily average 12.80 V -> state 3",
                ),
                event(1_243_857_660, "Warn", "gprs", "attach failed"),
            ]),
        ),
        (s("capacity"), Value::U64(8192)),
        (s("dropped"), Value::U64(0)),
        (s("min_level"), s("Info")),
        (
            s("counts"),
            Value::Seq(vec![
                Value::U64(0),
                Value::U64(1),
                Value::U64(1),
                Value::U64(0),
            ]),
        ),
        (s("bytes"), Value::U64(118)),
    ]);
    let mut meter = LogMeter::from_value(&v1).expect("a v1 log decodes");
    assert_eq!(
        meter.to_value(),
        Value::Map(vec![
            (s("min_level"), s("Info")),
            (s("bytes"), Value::U64(118)),
        ])
    );
    assert_eq!(meter.rotate(), Bytes(118));
}

#[test]
fn metering_a_days_lines_does_not_allocate() {
    let mut meter = LogMeter::new(TraceLevel::Debug);
    let taken_at = SimTime::from_ymd_hms(2009, 6, 1, 2, 0, 0);
    let name = FileName::new(FileKind::Sensor, 113);
    let update = String::from("control.py");
    let full = StorageError::Full {
        requested: Bytes::from_kib(165),
        free: Bytes(64),
    };
    let missing = StorageError::NotFound(name);
    let before = allocations();
    for _ in 0..4 {
        for slot in 0..12u32 {
            meter.record_fmt(
                TraceLevel::Debug,
                "dgps",
                format_args!(
                    "reading {} ({} sats, {})",
                    taken_at,
                    slot,
                    Bytes::from_kib(165)
                ),
            );
        }
        meter.record_fmt(
            TraceLevel::Info,
            "power",
            format_args!("daily average {} -> {}", Volts(12.71), PowerState::S3),
        );
        meter.record_fmt(
            TraceLevel::Error,
            "probe",
            format_args!("probe {}: individual fetch of {} readings failed", 21, 412),
        );
        meter.record_fmt(
            TraceLevel::Warn,
            "priority",
            format_args!(
                "probe {}: conductivity rise {:.2} -> {:.2} uS",
                21, 4.125, 7.5
            ),
        );
        meter.record_len(TraceLevel::Debug, "probe", 48 * 300);
        meter.record_fmt(
            TraceLevel::Info,
            "probe",
            format_args!("probe {}: {} new readings", 21, 48),
        );
        meter.record_fmt(TraceLevel::Warn, "cf", format_args!("write {name}: {full}"));
        meter.record_fmt(
            TraceLevel::Warn,
            "cf",
            format_args!("delete {name}: {missing}"),
        );
        meter.record(TraceLevel::Warn, "gprs", "attach failed");
        meter.record_fmt(
            TraceLevel::Info,
            "update",
            format_args!("{update} verified and installed"),
        );
        meter.record_len(TraceLevel::Info, "special", 500);
        assert!(meter.rotate() > Bytes::ZERO);
    }
    assert_eq!(allocations() - before, 0, "metering allocated");
}
