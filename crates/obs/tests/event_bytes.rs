//! Counting-allocator pin for what a retained event costs: a recorder
//! holding 65,536 events shaped like a campaign's (one, three or six
//! fields of integers, flags and short labels) keeps at most 64 live
//! heap bytes per event, Vec growth slack included. A `Vec<Event>`
//! store spent about 290.
//!
//! This file holds exactly one `#[test]` because the `#[global_allocator]`
//! counts every allocation in the process — concurrent tests would
//! pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use glacsweb_obs::{Event, MemoryRecorder, Origin, Recorder, DEFAULT_EVENT_CAPACITY};
use glacsweb_sim::{SimDuration, SimTime};

struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

fn signed(n: usize) -> isize {
    isize::try_from(n).expect("allocation fits isize")
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(signed(layout.size()), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(signed(layout.size()), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(signed(new_size) - signed(layout.size()), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// The `i`th event of a campaign-shaped stream: a window class (one
/// field), a WAN attach (three) and a server override decision (six).
fn event(i: u64, at: SimTime) -> Event {
    let station = if i.is_multiple_of(2) {
        "base"
    } else {
        "reference"
    };
    match i % 3 {
        0 => Event::new(at, Origin::new("deployment", station), "window_class").with(
            "class",
            ["healthy", "degraded", "lost"][(i / 3 % 3) as usize],
        ),
        1 => Event::new(at, Origin::new("gprs", station), "wan_attach")
            .with("link", "gprs")
            .with("ok", !i.is_multiple_of(5))
            .with("spent_secs", i % 600),
        _ => Event::new(at, Origin::new("server", station), "override_decision")
            .with(
                "for",
                if i.is_multiple_of(2) {
                    "Base"
                } else {
                    "Reference"
                },
            )
            .with("own", i % 4)
            .with("other", "none")
            .with("manual_cap", i % 3)
            .with("reachable", !i.is_multiple_of(7))
            .with("decision", i % 4),
    }
}

#[test]
fn a_retained_event_costs_at_most_64_heap_bytes() {
    let events = DEFAULT_EVENT_CAPACITY as u64;
    let start = SimTime::from_ymd_hms(2008, 8, 1, 12, 0, 0);

    let before = LIVE.load(Ordering::Relaxed);
    let mut rec = MemoryRecorder::default();
    for i in 0..events {
        rec.event(event(i, start + SimDuration::from_mins(i)));
    }
    let held = LIVE.load(Ordering::Relaxed) - before;

    assert_eq!(rec.events().len() as u64, events);
    assert_eq!(rec.events_dropped(), 0);
    let per_event = held as f64 / events as f64;
    assert!(
        per_event <= 64.0,
        "{held} live heap bytes for {events} events: {per_event:.1} per event"
    );
    // The store gives back what it was given.
    let last = rec.events().last().map(|e| e.to_event());
    assert_eq!(
        last,
        Some(event(
            events - 1,
            start + SimDuration::from_mins(events - 1)
        ))
    );
}
