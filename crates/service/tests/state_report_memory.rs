//! Live-byte pin for the §III state path: the core keeps one retained
//! report per station, so a station re-reporting its power state any
//! number of times holds no more heap than its first report did.
//!
//! This file holds exactly one test because the `#[global_allocator]`
//! counts every allocation in the process — concurrent tests would
//! pollute the measurement. Every report falls on one civil date, so
//! the telemetry's daily rows are the same set throughout and only
//! their values change.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use glacsweb_service::FleetCore;
use glacsweb_sim::{SimDuration, SimTime};

struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

#[test]
fn repeated_state_reports_hold_no_more_heap() {
    let core = FleetCore::new(2, 1).expect("valid core");
    let noon = SimTime::from_ymd_hms(2009, 9, 22, 12, 0, 0);
    // The n-th report: alternating base and reference, a level from
    // the whole ladder, an instant within the same afternoon.
    let report = |n: u32| {
        let at = noon + SimDuration::from_secs(u64::from(n % 36_000));
        let level = u8::try_from(n % 4).unwrap_or(0);
        core.report_state(u64::from(n % 2), at, level)
            .expect("a valid report");
    };
    // Warm: both stations have a record and the day's counter exists.
    for n in 0..4 {
        report(n);
    }
    let _ = core.override_for(0, noon);

    let before = LIVE.load(Ordering::Relaxed);
    for n in 0..100_000 {
        report(n);
    }
    let after = LIVE.load(Ordering::Relaxed);
    assert_eq!(
        core.override_for(0, noon).expect("known station"),
        glacsweb_station::PowerState::try_from_level(2),
        "the pair minimum of the last two reports (levels 2 and 3)"
    );
    assert!(
        after <= before,
        "100,000 state reports grew live heap bytes from {before} to {after}"
    );
}
