//! Counting-allocator pin for the replay client: once a client's
//! buffers are warm, issuing a request and recording its transcript
//! line must not allocate, so a whole replay stays within one
//! allocation per request — server, setup and merge included.
//!
//! This file holds exactly one `#[test]` because the
//! `#[global_allocator]` counts every allocation in the process —
//! concurrent tests would pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use glacsweb_fleet::{FleetConfig, WakeTrace};
use glacsweb_service::{
    replay, script_from_trace, FleetCore, HttpServer, ReplayConfig, ServerConfig,
};

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

#[test]
fn a_replay_allocates_at_most_once_per_request() {
    let trace = WakeTrace::derive(&FleetConfig::new(8, 64).seed(2010), 2).expect("valid config");
    let script = script_from_trace(&trace, true);
    let core = Arc::new(FleetCore::new(trace.stations, 8).expect("valid core"));
    core.stage_updates();
    let server = HttpServer::start(
        Arc::clone(&core),
        &ServerConfig {
            workers: 2,
            read_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let config = ReplayConfig {
        clients: 2,
        pipeline: 8,
        batch_checkins: false,
        keep_transcript: false,
    };

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = replay(server.addr(), &script, &config);
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    server.shutdown();

    let outcome = outcome.expect("replay");
    assert_eq!(outcome.requests, script.steps.len() as u64);
    let per_request = delta as f64 / outcome.requests as f64;
    assert!(
        per_request <= 1.0,
        "replay allocates: {delta} allocations over {} requests ({per_request:.3}/request)",
        outcome.requests
    );
}
