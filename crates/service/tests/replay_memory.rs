//! Live-byte pin for the replay's fold: the transcript is hashed as it
//! arrives, so a replay's heap high-water mark stays a small fraction
//! of the transcript it digests instead of growing with it.
//!
//! The server runs in a child process (the crate's `serve --listen`),
//! so the counted heap is the replay's alone: its client, its chunks
//! and the fold. This file holds exactly one test because the
//! `#[global_allocator]` counts every allocation in the process —
//! concurrent tests would pollute the measurement. One client keeps the
//! fold in step with the only connection. The replay's fixed cost (the
//! channel's slots, a few chunks, one more when the fold is
//! descheduled for a moment) is ~60–90 KB; four simulated days make the
//! transcript long enough that this stays well inside the bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

use glacsweb_fleet::{FleetConfig, WakeTrace};
use glacsweb_service::{replay, script_from_trace, ReplayConfig};

struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the new block before the old one goes: a moving realloc
        // holds both for a moment.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// A `serve --listen` child with updates staged, killed on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    fn start(stations: u64) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--listen", "--updates", "--workers", "1", "--shards", "8"])
            .args(["--stations", &stations.to_string()])
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn serve");
        // "serving N stations on http://ADDR (W workers); …"
        let mut banner = String::new();
        if let Some(stderr) = child.stderr.take() {
            let _ = BufReader::new(stderr).read_line(&mut banner);
        }
        let addr = banner
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .and_then(|addr| addr.parse().ok());
        match addr {
            Some(addr) => Server { child, addr },
            None => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("no address in the serve banner {banner:?}")
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn a_replay_holds_a_fraction_of_its_transcript() {
    let trace = WakeTrace::derive(&FleetConfig::new(8, 64).seed(2010), 4).expect("valid config");
    let script = script_from_trace(&trace, true);
    let config = ReplayConfig {
        clients: 1,
        pipeline: 8,
        batch_checkins: false,
        keep_transcript: false,
    };
    let server = Server::start(trace.stations);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let outcome = replay(server.addr, &script, &config);
    let high_water = PEAK.load(Ordering::Relaxed) - before;
    drop(server);
    outcome.expect("replay");

    // The same replay with the transcript kept, for its length.
    let server = Server::start(trace.stations);
    let kept = replay(
        server.addr,
        &script,
        &ReplayConfig {
            keep_transcript: true,
            ..config
        },
    );
    drop(server);
    let transcript = kept.expect("replay").transcript.expect("kept").len();

    assert!(
        high_water * 4 < transcript,
        "the replay's live bytes rose by {high_water} for a {transcript}-byte transcript \
         (the bound is a quarter of it)"
    );
}
