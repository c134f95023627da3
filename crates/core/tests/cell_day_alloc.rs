//! Counting-allocator pin for the campaign cell-day: once a deployment
//! has warmed up, its daily window (11:00–14:00 UTC: boot, probe fetch,
//! dGPS packaging, GPRS and uploads) and its quiet hours must stay within
//! a small allocation budget.
//!
//! This file holds exactly one `#[test]` because the `#[global_allocator]`
//! counts every allocation in the process — concurrent tests would
//! pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use glacsweb::{Deployment, DeploymentBuilder};
use glacsweb_env::EnvConfig;
use glacsweb_link::GprsConfig;
use glacsweb_sim::{SimDuration, SimTime};
use glacsweb_station::StationConfig;

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

/// Window allocations allowed per cell-day, on average.
const WINDOW_BUDGET: f64 = 20.0;
/// Allocations allowed per cell-day across both quiet phases
/// (00:00–11:00 and 14:00–24:00), on average.
const QUIET_BUDGET: f64 = 10.0;

/// The benchmark's standard deployment (base_2008 with field GPRS,
/// reference_2008, 4 probes) with telemetry off.
fn standard_deployment(seed: u64) -> Deployment {
    let mut base = StationConfig::base_2008();
    base.gprs = GprsConfig::field();
    DeploymentBuilder::new(EnvConfig::vatnajokull())
        .seed(seed)
        .start(SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0))
        .base(base)
        .reference(StationConfig::reference_2008())
        .probes(4)
        .build()
}

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn warm_cell_days_stay_within_their_allocation_budget() {
    let mut d = standard_deployment(2010 * 1000);
    let start = d.start();
    // Warm-up: the first month grows every scratch buffer, memo table
    // and history series to its working size.
    d.run_until(start + SimDuration::from_days(31));

    let (mut quiet, mut window) = (0u64, 0u64);
    let days = 31..365u64;
    for day in days.clone() {
        let midnight = start + SimDuration::from_days(day);
        let a = allocations();
        d.run_until(midnight + SimDuration::from_hours(11));
        let b = allocations();
        d.run_until(midnight + SimDuration::from_hours(14));
        let c = allocations();
        d.run_until(midnight + SimDuration::from_days(1));
        let e = allocations();
        quiet += (b - a) + (e - c);
        window += c - b;
    }
    let n = (days.end - days.start) as f64;
    let (window_per_day, quiet_per_day) = (window as f64 / n, quiet as f64 / n);
    assert!(
        d.summary().windows_run > 600,
        "both stations ran their windows"
    );
    assert!(
        window_per_day <= WINDOW_BUDGET,
        "window allocates {window_per_day:.1} times per cell-day (budget {WINDOW_BUDGET})"
    );
    assert!(
        quiet_per_day <= QUIET_BUDGET,
        "quiet hours allocate {quiet_per_day:.1} times per cell-day (budget {QUIET_BUDGET})"
    );
}
