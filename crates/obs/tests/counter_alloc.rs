//! Counting-allocator pin for the recorder's hot path: once a key and
//! its day exist, `counter()` allocates nothing, and neither does
//! `observe()` into an existing histogram. Both run inside every
//! observed station window, so a stray allocation here is paid by every
//! cell-day of a campaign.
//!
//! This file holds exactly one `#[test]` because the `#[global_allocator]`
//! counts every allocation in the process — concurrent tests would
//! pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use glacsweb_obs::{intern, MemoryRecorder, Origin, Recorder};
use glacsweb_sim::{SimDuration, SimTime};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn warm_counters_and_observations_allocate_nothing() {
    let gprs = Origin::new("gprs", "base");
    let protocol = Origin::new("protocol", "reference");
    // A key first registered through interned labels, as a snapshot
    // restore leaves it, then counted with literals: the warm path must
    // not depend on the two sharing an address.
    let restored = Origin::new(intern("station"), intern("base"));
    let noon = SimTime::from_ymd_hms(2009, 6, 1, 12, 0, 0);

    let mut rec = MemoryRecorder::default();
    rec.counter(noon, restored, intern("windows_run"), 1);
    // Warm-up: every key, its day row and its histogram exist, and each
    // literal address has been seen once.
    for (origin, name) in [
        (gprs, "upload_bytes"),
        (gprs, "upload_files"),
        (protocol, "bulk_misses"),
        (Origin::new("station", "base"), "windows_run"),
    ] {
        rec.counter(noon, origin, name, 0);
        rec.observe(origin, name, 1);
    }

    let before = allocations();
    for minute in 0..180u64 {
        let at = noon + SimDuration::from_mins(minute);
        rec.counter(at, gprs, "upload_bytes", 4_096);
        rec.counter(at, gprs, "upload_files", 1);
        rec.counter(at, protocol, "bulk_misses", 0);
        rec.counter(at, Origin::new("station", "base"), "windows_run", 1);
        rec.observe(gprs, "upload_bytes", minute * 60);
        rec.observe(protocol, "bulk_misses", minute);
    }
    let spent = allocations() - before;
    assert_eq!(
        spent, 0,
        "warm counter/observe calls allocated {spent} times"
    );

    assert_eq!(rec.counter_value(gprs, "upload_bytes"), 180 * 4_096);
    assert_eq!(rec.counter_value(restored, "windows_run"), 181);
    assert_eq!(rec.daily().count(), 4);
}
