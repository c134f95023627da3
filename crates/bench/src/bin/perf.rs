//! Throughput baseline: single-run simulation speed, sweep-engine
//! scaling, and a kernel-component breakdown, **appended** to the
//! committed `BENCH_PERF.json` history.
//!
//! ```text
//! cargo run -p glacsweb-bench --bin perf --release -- \
//!     [--days N] [--cells K] [--threads N] [--repeat R] \
//!     [--label S] [--out PATH] [--check] [--fleet-out PATH] \
//!     [--checkpoint-every D] [--snapshot PATH] [--restore PATH]
//! ```
//!
//! Five measurements:
//!
//! 1. **Single-run hot path** — one standard two-station deployment with
//!    probes over `--days` simulated days, reported as sim-days/second.
//!    With `--repeat R` the run executes `R` times and the fastest wins
//!    (shared machines jitter upward, never downward).
//! 2. **Sweep throughput** — `--cells` independent deployment cells run
//!    serially and then on the resolved thread count (`--threads`,
//!    `GLACSWEB_THREADS`, or the machine's parallelism), reported as
//!    cells/second each plus the speedup ratio, and a thread-scaling
//!    table at 1/2/4/8 workers over the same cells. The parallel passes
//!    re-check that their per-cell results equal the serial pass bit for
//!    bit — the sweep engine's determinism contract — and abort loudly
//!    if they ever diverge.
//! 3. **Kernel breakdown** — where a simulated minute goes: the
//!    environment tick loop, the power-rail integration (charge-taper
//!    solve included), event-wheel scheduling, and metrics reduction,
//!    each timed in isolation.
//! 4. **Snapshot cost** — what durable checkpoints cost: state capture +
//!    binary encode, the atomic save to disk, the verified load +
//!    restore, and the warm-start sweep speedup (every cell resumed from
//!    a mid-run checkpoint vs run from scratch, with the resumed
//!    fingerprints checked against the cold ones bit for bit).
//! 5. **Fleet scaling** — the `glacsweb-fleet` kernel at 1k/10k/100k
//!    stations: station-days/second with quiescent-station leaping
//!    against the naive per-tick reference kernel (naive measured where
//!    affordable; the two are asserted digest-identical first). The
//!    table also lands in `--fleet-out PATH` as a standalone artifact
//!    for CI upload.
//! 6. **Service replay** — the `glacsweb-service` HTTP front end under a
//!    10k-station compressed-time fleet replay: a fixed-seed
//!    `WakeTrace` expands to the canonical request script, and the
//!    harness reports sustained requests/second plus p50/p99/p999
//!    request latency. The measured run pipelines requests (the
//!    steady-state client shape); a cross-check run at a different
//!    client count with no pipelining must produce the identical
//!    transcript FNV first — the wall-clock numbers sit outside the
//!    determinism boundary, the payload surface does not. The record
//!    also carries allocations-per-request from a counting-allocator
//!    pass over the in-memory request loop: the zero-allocation
//!    steady-state claim, measured rather than asserted.
//!
//! # Checkpointing the measured run
//!
//! `--checkpoint-every D` makes the single-run measurement checkpoint to
//! `--snapshot PATH` (default `glacsweb-perf.snap`) every `D` sim-days —
//! the measured throughput then *includes* checkpointing, which is the
//! honest number for a crash-safe campaign. `--restore PATH` warm-starts
//! the single run from an earlier checkpoint instead of building fresh
//! and simulates only the remaining horizon. Both paths must land on the
//! same trajectory fingerprint as an uninterrupted run; the binary
//! asserts it.
//!
//! # The committed history
//!
//! `BENCH_PERF.json` holds an **array** of schema-versioned records, one
//! per `perf` invocation, oldest first. Appending rather than overwriting
//! is what keeps kernel-rewrite claims auditable: the pre-rewrite entry
//! stays in the file next to the post-rewrite entry.
//!
//! # The CI regression gate
//!
//! `--check` runs the single-run measurement, the fleet gate row, and
//! the service replay, and compares each against its **like-for-like**
//! counterpart in the last record of `--out`: the process exits
//! non-zero when fresh throughput drops more than 20 % below that
//! record, or when service p99 latency grows more than 50 % above it
//! (latency jitters more than throughput on shared runners). The
//! baseline must be a schema-6 (or newer) record carrying every gated
//! figure; a missing record or field fails the check with a message
//! naming it. A fleet or service gate measured at another scale is
//! skipped with a note, since it is not like for like. Absolute
//! sim-days/sec are hardware-dependent, so the comparison is only
//! meaningful when both numbers come from the same machine. CI therefore
//! never checks against the committed `BENCH_PERF.json` (recorded on
//! whatever machine its author used): the `bench-perf` job builds the
//! perf harness from the baseline revision, measures it moments earlier
//! on the same runner into a scratch file, and hands `--check` that
//! file. Checking against the committed history stays useful locally, on
//! the machine that recorded it. For a knowingly-slower change, set
//! `GLACSWEB_BENCH_ALLOW_REGRESSION=1` in the job environment — the
//! check still prints the regression, it just stops failing the build.

use std::io::Write as _;
use std::time::Instant;

use glacsweb::{Deployment, DeploymentBuilder};
use glacsweb_bench::{exit_with_usage, flag_value, CliError};
use glacsweb_env::{EnvConfig, Environment};
use glacsweb_fleet::{Fleet, FleetConfig};
use glacsweb_link::GprsConfig;
use glacsweb_power::{Charger, LeadAcidBattery, PowerRail, SolarPanel, WindTurbine};
use glacsweb_sim::{AmpHours, EventWheel, SimDuration, SimTime, Watts};
use glacsweb_station::StationConfig;
use serde::{Serialize, Value};

/// Counting wrapper over the system allocator: two relaxed atomic adds
/// per heap allocation, cheap enough to leave installed for the whole
/// binary, precise enough to measure the service hot path's
/// allocations-per-request (measurement 6).
struct CountingAllocator;

static ALLOCATIONS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counter is a
// side effect with no bearing on the returned memory.
unsafe impl std::alloc::GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        unsafe { std::alloc::System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Schema version stamped on each appended record (3 adds `snapshot`,
/// 4 adds the sweep thread-scaling table and the `fleet` record, 5 adds
/// the `service` replay record, 6 adds `pipeline` and
/// `allocs_per_request` to the service record and gates p99 latency).
const SCHEMA: u64 = 6;

/// One `BENCH_PERF.json` record.
#[derive(Serialize)]
struct PerfRecord {
    schema: u64,
    label: String,
    single_run: SingleRun,
    sweep: Sweep,
    kernel: Kernel,
    snapshot: SnapshotPerf,
    fleet: FleetPerf,
    service: ServicePerf,
}

#[derive(Serialize)]
struct SingleRun {
    days: u64,
    repeats: u64,
    seconds: f64,
    sim_days_per_sec: f64,
}

#[derive(Serialize)]
struct Sweep {
    cells: usize,
    cell_days: u64,
    threads: usize,
    serial_seconds: f64,
    serial_cells_per_sec: f64,
    parallel_seconds: f64,
    parallel_cells_per_sec: f64,
    speedup: f64,
    /// Thread-scaling table over the same cells at 1/2/4/8 workers.
    scaling: Vec<ScalingRow>,
}

/// One row of the sweep thread-scaling table.
#[derive(Serialize)]
struct ScalingRow {
    threads: usize,
    seconds: f64,
    cells_per_sec: f64,
    /// Speedup over this table's single-thread row.
    speedup: f64,
}

/// Fleet-kernel scaling: the headline record of the schema-4 format.
#[derive(Serialize)]
struct FleetPerf {
    /// Worker threads the fleet sharded over.
    threads: usize,
    /// Stations in the gate row (the one `--check` compares).
    gate_stations: u64,
    /// Simulated days in the gate row.
    gate_days: u64,
    /// Leap-mode throughput of the gate row, station-days/second.
    gate_station_days_per_sec: f64,
    /// Scaling table, smallest fleet first.
    rows: Vec<FleetRow>,
}

/// One fleet scale point. Naive figures are absent where the per-tick
/// reference kernel is too slow to measure routinely; wherever both
/// kernels run, their state digests are asserted equal first.
#[derive(Serialize)]
struct FleetRow {
    sites: u32,
    stations_per_site: u32,
    stations: u64,
    days: u64,
    leap_seconds: f64,
    leap_station_days_per_sec: f64,
    naive_seconds: Option<f64>,
    naive_station_days_per_sec: Option<f64>,
    /// Leap over naive throughput, where naive was measured.
    speedup: Option<f64>,
}

/// The service front end under a compressed-time fleet replay: the
/// headline record of the schema-5 format. Wall-clock figures
/// (seconds, rates, latencies) are machine-dependent; the transcript
/// digest is not — it must be identical across runs and client counts.
#[derive(Serialize)]
struct ServicePerf {
    /// Stations in the replayed fleet.
    stations: u64,
    /// Simulated days the wake trace covers.
    days: u64,
    /// Wakes in the trace (before script expansion).
    wakes: u64,
    /// Concurrent keep-alive clients in the measured run.
    clients: usize,
    /// HTTP worker threads serving the measured run.
    workers: usize,
    /// Mutex shards the fleet's pairs were spread over.
    shards: usize,
    /// Pipeline window each measured client kept in flight (1 = the
    /// schema-5 lockstep shape).
    pipeline: usize,
    /// HTTP requests replayed (the canonical script length).
    requests: u64,
    /// Wall-clock replay duration, seconds.
    seconds: f64,
    /// Sustained request rate (the `--check` gate figure).
    requests_per_sec: f64,
    /// Median request latency, microseconds.
    p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    p99_us: u64,
    /// 99.9th-percentile request latency, microseconds.
    p999_us: u64,
    /// FNV-1a digest of the canonical-order transcript, hex — asserted
    /// equal across the two client counts before recording.
    transcript_fnv: String,
    /// Heap allocations per request over a warmed in-memory request
    /// loop (counting allocator; the steady-state target is 0).
    allocs_per_request: f64,
}

/// Component timings over the single run's horizon: where a simulated
/// minute actually goes.
#[derive(Serialize)]
struct Kernel {
    /// Environment tick loop alone (`Environment::advance_to`).
    env_advance_secs: f64,
    /// Power-rail integration over a pre-advanced environment: charger
    /// evaluation, charge-taper solve, battery step, and metering.
    rail_advance_secs: f64,
    /// One million event-wheel pushes (with interleaved pops) on the
    /// deployment's tick pattern — two stations sharing each instant.
    wheel_ops_secs: f64,
    /// Metrics reduction of a finished run (`Deployment::summary`).
    metrics_secs: f64,
}

/// What durable checkpoints cost, measured on the standard deployment.
#[derive(Serialize)]
struct SnapshotPerf {
    /// Sim-days the measured deployment had run when captured.
    days: u64,
    /// Encoded snapshot size (envelope + payload), bytes.
    snapshot_bytes: u64,
    /// State capture + binary encode, in memory.
    capture_secs: f64,
    /// Atomic write-then-rename to disk (includes a fresh capture).
    save_secs: f64,
    /// Read + checksum verify + decode + `Deployment::restore`.
    load_secs: f64,
    /// Cells in the warm-start sweep comparison.
    warm_cells: usize,
    /// Sim-days each sweep cell covers in total.
    warm_cell_days: u64,
    /// Every cell run from scratch over the full horizon.
    cold_sweep_secs: f64,
    /// Every cell resumed from its mid-run checkpoint (restore included).
    warm_sweep_secs: f64,
    /// `cold_sweep_secs / warm_sweep_secs` — what checkpoint reuse buys.
    warm_start_speedup: f64,
}

/// Days of the single-run measurement.
const DEFAULT_DAYS: u64 = 60;
/// Cells in the sweep measurement.
const DEFAULT_CELLS: usize = 8;
/// Days each sweep cell simulates.
const CELL_DAYS: u64 = 20;
/// Tolerated single-run slowdown before `--check` fails the build.
const REGRESSION_TOLERANCE: f64 = 0.20;
/// Tolerated p99-latency growth before `--check` fails the build.
const LATENCY_TOLERANCE: f64 = 0.50;
/// Environment override that downgrades a `--check` failure to a warning.
const OVERRIDE_VAR: &str = "GLACSWEB_BENCH_ALLOW_REGRESSION";

struct Args {
    days: u64,
    cells: usize,
    threads: Option<usize>,
    repeat: u64,
    label: String,
    out: String,
    check: bool,
    checkpoint_every: Option<u64>,
    snapshot: String,
    restore: Option<String>,
    fleet_out: Option<String>,
}

const USAGE: &str = "usage: perf [--days N] [--cells K] [--threads N] [--repeat R] \
                     [--label S] [--out PATH] [--check] [--fleet-out PATH] \
                     [--checkpoint-every D] [--snapshot PATH] [--restore PATH]";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, CliError> {
    let mut args = Args {
        days: DEFAULT_DAYS,
        cells: DEFAULT_CELLS,
        threads: None,
        repeat: 3,
        label: "local".to_string(),
        out: "BENCH_PERF.json".to_string(),
        check: false,
        checkpoint_every: None,
        snapshot: "glacsweb-perf.snap".to_string(),
        restore: None,
        fleet_out: None,
    };
    let at_least_one = |flag: &str, n: u64| {
        if n == 0 {
            Err(CliError::Bad(format!("{flag} must be at least 1")))
        } else {
            Ok(n)
        }
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--days" => args.days = flag_value(&mut argv, "--days")?,
            "--cells" => args.cells = flag_value(&mut argv, "--cells")?,
            "--threads" => args.threads = Some(flag_value(&mut argv, "--threads")?),
            "--repeat" => {
                args.repeat = at_least_one("--repeat", flag_value(&mut argv, "--repeat")?)?;
            }
            "--label" => args.label = flag_value(&mut argv, "--label")?,
            "--out" => args.out = flag_value(&mut argv, "--out")?,
            "--check" => args.check = true,
            "--checkpoint-every" => {
                let every = flag_value(&mut argv, "--checkpoint-every")?;
                args.checkpoint_every = Some(at_least_one("--checkpoint-every", every)?);
            }
            "--snapshot" => args.snapshot = flag_value(&mut argv, "--snapshot")?,
            "--restore" => args.restore = Some(flag_value(&mut argv, "--restore")?),
            "--fleet-out" => args.fleet_out = Some(flag_value(&mut argv, "--fleet-out")?),
            "--help" | "-h" => return Err(CliError::Help),
            other => return Err(CliError::Bad(format!("unknown argument {other:?}"))),
        }
    }
    Ok(args)
}

/// The standard field deployment (the Fig 5 configuration), unstarted.
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

/// Summary fingerprint for cheap equality checks.
fn fingerprint(d: &Deployment) -> (u64, u64, u32) {
    let s = d.summary();
    (s.windows_run, s.data_uploaded.value(), s.dgps_fixes as u32)
}

/// One standard deployment run for `days`, reduced to its fingerprint.
fn run_cell(seed: u64, days: u64) -> (u64, u64, u32) {
    let mut d = standard_deployment(seed);
    d.run_days(days);
    fingerprint(&d)
}

/// The single-run measurement body, honouring the checkpoint/restore
/// flags: a warm start resumes from the snapshot and simulates only the
/// remaining horizon; `--checkpoint-every` splits the run into legs with
/// a durable checkpoint after each.
fn single_run(days: u64, args: &Args) -> (u64, u64, u32) {
    let mut d = match &args.restore {
        Some(path) => Deployment::resume(std::path::Path::new(path))
            .unwrap_or_else(|e| panic!("cannot restore {path}: {e}")),
        None => standard_deployment(2009),
    };
    let horizon = d.start() + SimDuration::from_days(days);
    match args.checkpoint_every {
        Some(every) => {
            while d.now() < horizon {
                let leg = (d.now() + SimDuration::from_days(every)).min(horizon);
                d.run_until(leg);
                d.checkpoint(std::path::Path::new(&args.snapshot))
                    .unwrap_or_else(|e| panic!("cannot checkpoint {}: {e}", args.snapshot));
            }
        }
        None => d.run_until(horizon),
    }
    fingerprint(&d)
}

/// Fastest of `repeat` single runs, with the (identical) fingerprint.
fn measure_single(days: u64, repeat: u64, args: &Args) -> (f64, (u64, u64, u32)) {
    let mut best = f64::INFINITY;
    let mut result = (0, 0, 0);
    for _ in 0..repeat {
        let started = Instant::now();
        result = single_run(days, args);
        best = best.min(started.elapsed().as_secs_f64());
    }
    // Checkpointed and warm-started runs must still land on the plain
    // trajectory — splitting or resuming never changes the physics.
    if args.checkpoint_every.is_some() || args.restore.is_some() {
        assert_eq!(
            result,
            run_cell(2009, days),
            "checkpoint/restore perturbed the trajectory"
        );
    }
    (best, result)
}

/// Snapshot cost on the standard deployment, plus the warm-start sweep
/// comparison (see [`SnapshotPerf`]).
fn measure_snapshot(days: u64, cells: usize, threads: usize) -> SnapshotPerf {
    let mut d = standard_deployment(2009);
    d.run_days(days);

    let started = Instant::now();
    let bytes = glacsweb_snapshot::to_bytes(&d.snapshot());
    let capture_secs = started.elapsed().as_secs_f64();

    let path = std::env::temp_dir().join(format!("glacsweb-perf-{}.snap", std::process::id()));
    let started = Instant::now();
    d.checkpoint(&path)
        .unwrap_or_else(|e| panic!("cannot checkpoint {}: {e}", path.display()));
    let save_secs = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let resumed = Deployment::resume(&path)
        .unwrap_or_else(|e| panic!("cannot resume {}: {e}", path.display()));
    let load_secs = started.elapsed().as_secs_f64();
    assert_eq!(fingerprint(&d), fingerprint(&resumed));
    let _ = std::fs::remove_file(&path);

    // Warm-start sweep: every cell from scratch vs every cell resumed
    // from its own mid-run checkpoint (restore time included in the warm
    // pass — that is the price a warm-started campaign actually pays).
    let warm_cell_days = CELL_DAYS;
    let half = warm_cell_days / 2;
    let seeds: Vec<u64> = (0..cells as u64).collect();
    let started = Instant::now();
    let cold = glacsweb_sweep::run_cells(seeds.clone(), threads, |seed| {
        run_cell(seed, warm_cell_days)
    });
    let cold_sweep_secs = started.elapsed().as_secs_f64();
    let checkpoints: Vec<Vec<u8>> = seeds
        .iter()
        .map(|&seed| {
            let mut d = standard_deployment(seed);
            d.run_days(half);
            glacsweb_snapshot::to_bytes(&d.snapshot())
        })
        .collect();
    let started = Instant::now();
    let warm = glacsweb_sweep::run_cells(checkpoints, threads, |bytes| {
        let state = glacsweb_snapshot::from_bytes(&bytes).expect("snapshot decodes");
        let mut d = Deployment::restore(state).expect("snapshot restores");
        d.run_days(warm_cell_days - half);
        fingerprint(&d)
    });
    let warm_sweep_secs = started.elapsed().as_secs_f64();
    assert_eq!(
        cold, warm,
        "warm-started cells must land on the cold trajectories"
    );

    SnapshotPerf {
        days,
        snapshot_bytes: bytes.len() as u64,
        capture_secs,
        save_secs,
        load_secs,
        warm_cells: cells,
        warm_cell_days,
        cold_sweep_secs,
        warm_sweep_secs,
        warm_start_speedup: cold_sweep_secs / warm_sweep_secs,
    }
}

/// Fleet scale points: (sites, stations/site, days, measure naive too).
/// Naive stepping at 100k stations costs minutes per run, so the largest
/// point is leap-only — the equivalence is already pinned at the smaller
/// scales (digest-asserted here) and in the fleet crate's tests.
const FLEET_SCALES: [(u32, u32, u64, bool); 3] = [
    (4, 250, 30, true),
    (10, 1_000, 30, true),
    (100, 1_000, 30, false),
];

/// Index into [`FLEET_SCALES`] of the row `--check` gates on.
const FLEET_GATE: usize = 1;

fn fleet_config(sites: u32, per_site: u32, leaping: bool) -> FleetConfig {
    FleetConfig::new(sites, per_site)
        .seed(2010)
        .leaping(leaping)
}

/// Measures one fleet scale point: leap mode always, naive mode when
/// affordable, with the two asserted digest-identical.
fn measure_fleet_row(
    sites: u32,
    per_site: u32,
    days: u64,
    with_naive: bool,
    threads: usize,
    repeat: u64,
) -> FleetRow {
    let stations = u64::from(sites) * u64::from(per_site);
    // Fastest of `repeat` runs, like the single-run measurement: one
    // fleet month is short enough that scheduler noise dominates a
    // single sample, and the gate compares against a committed baseline.
    let mut leap_seconds = f64::INFINITY;
    let mut leap = None;
    for _ in 0..repeat {
        let mut fleet =
            Fleet::new(fleet_config(sites, per_site, true)).expect("valid fleet config");
        fleet.set_threads(threads);
        let started = Instant::now();
        fleet.run_days(days);
        leap_seconds = leap_seconds.min(started.elapsed().as_secs_f64());
        leap = Some(fleet);
    }
    let leap = leap.expect("at least one repeat");
    let station_days = (stations * days) as f64;
    let leap_rate = station_days / leap_seconds;
    let (naive_seconds, naive_rate, speedup) = if with_naive {
        let mut secs = f64::INFINITY;
        let mut naive = None;
        for _ in 0..repeat {
            let mut fleet =
                Fleet::new(fleet_config(sites, per_site, false)).expect("valid fleet config");
            fleet.set_threads(threads);
            let started = Instant::now();
            fleet.run_days(days);
            secs = secs.min(started.elapsed().as_secs_f64());
            naive = Some(fleet);
        }
        let naive = naive.expect("at least one repeat");
        assert_eq!(
            leap.state_digest(),
            naive.state_digest(),
            "leap and naive fleet kernels diverged at {sites}x{per_site}"
        );
        let rate = station_days / secs;
        (Some(secs), Some(rate), Some(leap_rate / rate))
    } else {
        (None, None, None)
    };
    FleetRow {
        sites,
        stations_per_site: per_site,
        stations,
        days,
        leap_seconds,
        leap_station_days_per_sec: leap_rate,
        naive_seconds,
        naive_station_days_per_sec: naive_rate,
        speedup,
    }
}

/// The full fleet scaling table (see [`FleetPerf`]).
fn measure_fleet(threads: usize, repeat: u64) -> FleetPerf {
    let mut rows = Vec::new();
    for (sites, per_site, days, with_naive) in FLEET_SCALES {
        let row = measure_fleet_row(sites, per_site, days, with_naive, threads, repeat);
        match (row.naive_station_days_per_sec, row.speedup) {
            (Some(naive), Some(speedup)) => println!(
                "fleet: {}x{} = {} stations, {} days: leap {:.3}s ({:.2} M station-days/sec), \
                 naive {:.3}s ({:.2} M), speedup {speedup:.1}x",
                row.sites,
                row.stations_per_site,
                row.stations,
                row.days,
                row.leap_seconds,
                row.leap_station_days_per_sec / 1e6,
                row.naive_seconds.unwrap_or(0.0),
                naive / 1e6,
            ),
            _ => println!(
                "fleet: {}x{} = {} stations, {} days: leap {:.3}s ({:.2} M station-days/sec), \
                 naive skipped (too slow to measure routinely at this scale)",
                row.sites,
                row.stations_per_site,
                row.stations,
                row.days,
                row.leap_seconds,
                row.leap_station_days_per_sec / 1e6,
            ),
        }
        rows.push(row);
    }
    let gate = &rows[FLEET_GATE];
    FleetPerf {
        threads,
        gate_stations: gate.stations,
        gate_days: gate.days,
        gate_station_days_per_sec: gate.leap_station_days_per_sec,
        rows,
    }
}

/// The fleet measurement `--check` gates on: the gate row, leap only.
fn measure_fleet_gate(threads: usize, repeat: u64) -> f64 {
    let (sites, per_site, days, _) = FLEET_SCALES[FLEET_GATE];
    let row = measure_fleet_row(sites, per_site, days, false, threads, repeat);
    row.leap_station_days_per_sec
}

/// Service-replay fleet: 40 sites x 256 stations = 10,240 stations.
const SERVICE_SITES: u32 = 40;
/// Stations per site in the service-replay fleet.
const SERVICE_PER_SITE: u32 = 256;
/// Simulated days the service replay compresses.
const SERVICE_DAYS: u64 = 2;
/// Clients in the measured replay run.
const SERVICE_CLIENTS: usize = 8;
/// Clients in the determinism cross-check run (different on purpose).
const SERVICE_ALT_CLIENTS: usize = 13;
/// Mutex shards the service core spreads its pairs over.
const SERVICE_SHARDS: usize = 32;
/// Pipeline window each measured client keeps in flight. The
/// cross-check run stays at depth 1: pipelining changes *when* bytes
/// hit the wire, never *which* bytes, and asserting the two digests
/// equal re-proves it on every record.
const SERVICE_PIPELINE: usize = 8;

/// One full service boot + replay at the given client count and
/// pipeline depth; the server lives on an ephemeral port and is torn
/// down before returning.
fn service_replay(clients: usize, pipeline: usize) -> glacsweb_service::ReplayOutcome {
    let config = FleetConfig::new(SERVICE_SITES, SERVICE_PER_SITE).seed(2010);
    let trace = glacsweb_fleet::WakeTrace::derive(&config, SERVICE_DAYS)
        .expect("valid service fleet config");
    let script = glacsweb_service::script_from_trace(&trace, true);
    let core = std::sync::Arc::new(
        glacsweb_service::FleetCore::new(trace.stations, SERVICE_SHARDS)
            .expect("valid service core"),
    );
    core.stage_updates();
    let server = glacsweb_service::HttpServer::start(
        std::sync::Arc::clone(&core),
        &glacsweb_service::ServerConfig {
            workers: clients,
            read_timeout: std::time::Duration::from_secs(60),
            ..glacsweb_service::ServerConfig::default()
        },
    )
    .expect("service bind");
    let outcome = glacsweb_service::replay(
        server.addr(),
        &script,
        &glacsweb_service::ReplayConfig {
            clients,
            pipeline,
            batch_checkins: false,
            keep_transcript: false,
        },
    )
    .expect("service replay");
    server.shutdown();
    outcome
}

/// Fastest of `repeat` measured replays (every transcript digest
/// asserted equal along the way — shared machines jitter the clock, not
/// the bytes).
fn best_service_replay(repeat: u64) -> glacsweb_service::ReplayOutcome {
    let mut best: Option<glacsweb_service::ReplayOutcome> = None;
    for _ in 0..repeat.max(1) {
        let outcome = service_replay(SERVICE_CLIENTS, SERVICE_PIPELINE);
        if let Some(prior) = &best {
            assert_eq!(
                prior.transcript_fnv, outcome.transcript_fnv,
                "service replay transcripts diverged across repeats"
            );
        }
        if best.as_ref().is_none_or(|b| outcome.seconds < b.seconds) {
            best = Some(outcome);
        }
    }
    best.expect("at least one repeat")
}

/// The service measurement (see [`ServicePerf`]): the fastest of
/// `repeat` measured runs, plus one cross-check run at a different
/// client count, digests asserted equal.
fn measure_service(repeat: u64) -> ServicePerf {
    let config = FleetConfig::new(SERVICE_SITES, SERVICE_PER_SITE).seed(2010);
    let trace = glacsweb_fleet::WakeTrace::derive(&config, SERVICE_DAYS)
        .expect("valid service fleet config");
    let measured = best_service_replay(repeat);
    // The cross-check varies both knobs at once — client count *and*
    // pipeline depth — and must still reassemble the same bytes.
    let cross = service_replay(SERVICE_ALT_CLIENTS, 1);
    assert_eq!(
        measured.transcript_fnv, cross.transcript_fnv,
        "service replay transcripts diverged across client counts \
         ({SERVICE_CLIENTS} pipelined vs {SERVICE_ALT_CLIENTS} lockstep)"
    );
    ServicePerf {
        stations: trace.stations,
        days: SERVICE_DAYS,
        wakes: trace.len() as u64,
        clients: SERVICE_CLIENTS,
        workers: SERVICE_CLIENTS,
        shards: SERVICE_SHARDS,
        pipeline: SERVICE_PIPELINE,
        requests: measured.requests,
        seconds: measured.seconds,
        requests_per_sec: measured.requests_per_sec,
        p50_us: measured.latency.p50_us,
        p99_us: measured.latency.p99_us,
        p999_us: measured.latency.p999_us,
        transcript_fnv: format!("{:016x}", measured.transcript_fnv),
        allocs_per_request: measure_service_allocs(),
    }
}

/// Allocations per request over a warmed in-memory request loop: the
/// replay mix (override reads and check-ins) served by `serve_stream`
/// through a scripted stream, counted by the global allocator wrapper.
/// The first pass warms the connection buffers to steady-state
/// capacity; only the second pass is counted.
fn measure_service_allocs() -> f64 {
    use std::io::{Read, Write};

    struct MemStream {
        input: Vec<u8>,
        read_at: usize,
        output: Vec<u8>,
    }
    impl Read for MemStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let remaining = &self.input[self.read_at..];
            let n = remaining.len().min(buf.len()).min(4096);
            buf[..n].copy_from_slice(&remaining[..n]);
            self.read_at += n;
            Ok(n)
        }
    }
    impl Write for MemStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let requests: u64 = 8192;
    let core = std::sync::Arc::new(
        glacsweb_service::FleetCore::new(4, 2).expect("valid alloc-count core"),
    );
    let config = glacsweb_service::ServerConfig::default();
    let mut input = Vec::new();
    for i in 0..requests {
        let station = (i % 2) * 2;
        let at = 86_400 + i * 60;
        if i % 4 == 0 {
            let soc = 100 + i % 900;
            input.extend_from_slice(
                format!(
                    "POST /api/checkin?station={station}&at={at}&soc={soc} HTTP/1.1\r\n\
                     Host: glacsweb\r\nContent-Length: 0\r\n\r\n"
                )
                .as_bytes(),
            );
        } else {
            input.extend_from_slice(
                format!(
                    "GET /api/override?station={station}&at={at} HTTP/1.1\r\n\
                     Host: glacsweb\r\n\r\n"
                )
                .as_bytes(),
            );
        }
    }
    let mut stream = MemStream {
        output: Vec::with_capacity(input.len() * 4),
        input,
        read_at: 0,
    };
    let mut conn = glacsweb_service::ConnBuffers::default();
    let warm = glacsweb_service::serve_stream(&mut stream, &core, &config, &mut conn);
    assert_eq!(warm.requests, requests, "warmup pass served every request");

    stream.read_at = 0;
    stream.output.clear();
    let before = ALLOCATIONS.load(std::sync::atomic::Ordering::Relaxed);
    let measured = glacsweb_service::serve_stream(&mut stream, &core, &config, &mut conn);
    let after = ALLOCATIONS.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        measured.requests, requests,
        "measured pass served every request"
    );
    (after - before) as f64 / requests as f64
}

/// The service measurement `--check` gates on: fastest of `repeat`
/// replays, no cross-check run (CI pins transcript identity in the
/// service job). Returns `(requests_per_sec, p99_us)`.
fn measure_service_gate(repeat: u64) -> (f64, u64) {
    let best = best_service_replay(repeat);
    (best.requests_per_sec, best.latency.p99_us)
}

/// Writes the standalone fleet-scaling artifact for CI upload.
fn write_fleet_artifact(path: &str, label: &str, fleet: &FleetPerf) {
    let key = |s: &str| Value::Str(s.to_string());
    let doc = Value::Map(vec![
        (key("schema"), key("glacsweb-fleet-scaling/1")),
        (key("label"), key(label)),
        (key("fleet"), fleet.to_value()),
    ]);
    std::fs::write(
        path,
        serde_json::to_string_pretty(&doc).expect("serializable"),
    )
    .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote fleet-scaling artifact to {path}");
}

/// Component timings in isolation (see [`Kernel`]).
fn measure_kernel(days: u64) -> Kernel {
    let t0 = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
    let end = t0 + SimDuration::from_days(days);

    // Environment tick loop.
    let mut env = Environment::new(EnvConfig::vatnajokull(), 7);
    env.advance_to(t0);
    let started = Instant::now();
    env.advance_to(end);
    let env_advance_secs = started.elapsed().as_secs_f64();

    // Rail integration over the pre-advanced environment, with the base
    // station's charger set and an always-on controller load.
    let mut rail = PowerRail::new(LeadAcidBattery::with_state(AmpHours(36.0), 0.9), t0);
    rail.add_charger(Charger::Solar(SolarPanel::new(Watts(10.0))));
    rail.add_charger(Charger::Wind(WindTurbine::new(Watts(50.0))));
    rail.loads_mut().add("msp430", Watts::from_milliwatts(5.0));
    rail.loads_mut().set_on("msp430", true);
    let started = Instant::now();
    let mut t = t0;
    while t < end {
        t += SimDuration::from_mins(30);
        rail.advance(&env, t);
    }
    let rail_advance_secs = started.elapsed().as_secs_f64();

    // Event-wheel scheduling at the deployment's tick pattern.
    let started = Instant::now();
    let mut wheel = EventWheel::new();
    let mut t = t0;
    for i in 0u64..1_000_000 {
        wheel.push(t, i);
        if i % 2 == 1 {
            // Two stations share each instant, then the bucket drains.
            let _ = wheel.pop();
            let _ = wheel.pop();
            t += SimDuration::from_mins(30);
        }
    }
    assert!(wheel.is_empty());
    let wheel_ops_secs = started.elapsed().as_secs_f64();

    // Metrics reduction of a finished (short) run.
    let mut base = StationConfig::base_2008();
    base.gprs = GprsConfig::field();
    let mut d = DeploymentBuilder::new(EnvConfig::vatnajokull())
        .seed(2009)
        .start(t0)
        .base(base)
        .reference(StationConfig::reference_2008())
        .probes(4)
        .build();
    d.run_days(days.min(10));
    let started = Instant::now();
    let summary = d.summary();
    assert!(summary.windows_run > 0);
    let metrics_secs = started.elapsed().as_secs_f64();

    Kernel {
        env_advance_secs,
        rail_advance_secs,
        wheel_ops_secs,
        metrics_secs,
    }
}

/// Parses `path` as the record history: an array of records, or
/// nothing when the file does not exist yet.
fn read_history(path: &str) -> Result<Vec<Value>, String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(Vec::new());
    };
    match serde_json::from_str::<Value>(&text) {
        Ok(Value::Seq(records)) => Ok(records),
        _ => Err(format!("{path} exists but is not a JSON array of records")),
    }
}

/// The figures `--check` gates on, read from the baseline record.
struct Baseline {
    sim_days_per_sec: f64,
    fleet_stations: u64,
    fleet_days: u64,
    fleet_station_days_per_sec: f64,
    service_stations: u64,
    service_days: u64,
    service_requests_per_sec: f64,
    service_p99_us: f64,
}

/// Reads the gated figures from the last record of the history. A
/// missing record or field is an error naming it: the baseline must be
/// a schema-6 record (the first whose service p99 is pipelined, like
/// this binary's), and every gated figure must be there.
fn read_baseline(history: &[Value], path: &str) -> Result<Baseline, String> {
    let record = history
        .last()
        .ok_or_else(|| format!("--check needs at least one record in {path}"))?;
    let field = |keys: &[&str]| {
        keys.iter()
            .try_fold(record, |v, k| v.get(k))
            .ok_or_else(|| format!("baseline record in {path} has no `{}`", keys.join(".")))
    };
    let num = |keys: &[&str]| {
        field(keys)?
            .as_f64()
            .ok_or_else(|| format!("baseline `{}` is not a number", keys.join(".")))
    };
    let int = |keys: &[&str]| {
        field(keys)?
            .as_u64()
            .ok_or_else(|| format!("baseline `{}` is not an integer", keys.join(".")))
    };
    let schema = int(&["schema"])?;
    if schema < 6 {
        return Err(format!(
            "baseline record in {path} is schema {schema}; --check needs schema 6 or newer"
        ));
    }
    Ok(Baseline {
        sim_days_per_sec: num(&["single_run", "sim_days_per_sec"])?,
        fleet_stations: int(&["fleet", "gate_stations"])?,
        fleet_days: int(&["fleet", "gate_days"])?,
        fleet_station_days_per_sec: num(&["fleet", "gate_station_days_per_sec"])?,
        service_stations: int(&["service", "stations"])?,
        service_days: int(&["service", "days"])?,
        service_requests_per_sec: num(&["service", "requests_per_sec"])?,
        service_p99_us: num(&["service", "p99_us"])?,
    })
}

/// One `--check` comparison: fails (or warns under the override) when
/// `fresh` is more than the tolerance below `baseline`.
fn gate(name: &str, unit: &str, fresh: f64, baseline: f64) -> bool {
    let floor = baseline * (1.0 - REGRESSION_TOLERANCE);
    println!("bench-perf check [{name}]: fresh {fresh:.1} {unit} vs baseline {baseline:.1} (floor {floor:.1})");
    if fresh >= floor {
        return true;
    }
    if std::env::var(OVERRIDE_VAR).is_ok() {
        println!(
            "REGRESSION [{name}] ({:.0} % below baseline) — allowed by {OVERRIDE_VAR}",
            (1.0 - fresh / baseline) * 100.0
        );
        true
    } else {
        eprintln!(
            "REGRESSION [{name}]: {fresh:.1} {unit} is more than {:.0} % below the \
             baseline {baseline:.1}; set {OVERRIDE_VAR}=1 to override",
            REGRESSION_TOLERANCE * 100.0
        );
        false
    }
}

/// A lower-is-better `--check` comparison (latency): fails (or warns
/// under the override) when `fresh` is more than the tolerance *above*
/// `baseline`. Latency jitters far more than throughput on shared
/// runners, so the ceiling is wider than the throughput floor.
fn gate_lower(name: &str, unit: &str, fresh: f64, baseline: f64) -> bool {
    let ceiling = baseline * (1.0 + LATENCY_TOLERANCE);
    println!(
        "bench-perf check [{name}]: fresh {fresh:.1} {unit} vs baseline {baseline:.1} \
         (ceiling {ceiling:.1})"
    );
    if fresh <= ceiling {
        return true;
    }
    if std::env::var(OVERRIDE_VAR).is_ok() {
        println!(
            "REGRESSION [{name}] ({:.0} % above baseline) — allowed by {OVERRIDE_VAR}",
            (fresh / baseline - 1.0) * 100.0
        );
        true
    } else {
        eprintln!(
            "REGRESSION [{name}]: {fresh:.1} {unit} is more than {:.0} % above the \
             baseline {baseline:.1}; set {OVERRIDE_VAR}=1 to override",
            LATENCY_TOLERANCE * 100.0
        );
        false
    }
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| exit_with_usage(e, USAGE));

    if args.check {
        let baseline = match read_history(&args.out).and_then(|h| read_baseline(&h, &args.out)) {
            Ok(b) => b,
            Err(msg) => {
                eprintln!("bench-perf check: {msg}");
                std::process::exit(1);
            }
        };
        let (secs, fingerprint) = measure_single(args.days, args.repeat, &args);
        let fresh = args.days as f64 / secs;
        println!("bench-perf check: single-run summary {fingerprint:?}");
        let mut ok = gate(
            "single-run",
            "sim-days/sec",
            fresh,
            baseline.sim_days_per_sec,
        );
        // Fleet and service gates compare like for like only: a baseline
        // measured at another scale is skipped with a note.
        let (s, p, d, _) = FLEET_SCALES[FLEET_GATE];
        if baseline.fleet_stations == u64::from(s) * u64::from(p) && baseline.fleet_days == d {
            let threads = glacsweb_sweep::resolve_threads(args.threads);
            let fleet_fresh = measure_fleet_gate(threads, args.repeat);
            ok &= gate(
                "fleet",
                "station-days/sec",
                fleet_fresh,
                baseline.fleet_station_days_per_sec,
            );
        } else {
            println!(
                "bench-perf check: baseline fleet gate covers {} stations x {} days, \
                 current gate differs — skipping fleet comparison",
                baseline.fleet_stations, baseline.fleet_days
            );
        }
        if baseline.service_stations == u64::from(SERVICE_SITES) * u64::from(SERVICE_PER_SITE)
            && baseline.service_days == SERVICE_DAYS
        {
            let (service_fresh, p99_fresh) = measure_service_gate(args.repeat);
            ok &= gate(
                "service",
                "req/sec",
                service_fresh,
                baseline.service_requests_per_sec,
            );
            ok &= gate_lower(
                "service-p99",
                "us",
                p99_fresh as f64,
                baseline.service_p99_us,
            );
        } else {
            println!(
                "bench-perf check: baseline service gate covers {} stations x {} days, \
                 current gate differs — skipping service comparison",
                baseline.service_stations, baseline.service_days
            );
        }
        if !ok {
            std::process::exit(1);
        }
        return;
    }

    let threads = glacsweb_sweep::resolve_threads(args.threads);

    // 1. Single-run hot path (checkpointing/warm start included when the
    // flags say so — the printed mode makes the difference auditable).
    let (single_secs, fingerprint) = measure_single(args.days, args.repeat, &args);
    let sim_days_per_sec = args.days as f64 / single_secs;
    let mode = match (&args.checkpoint_every, &args.restore) {
        (Some(every), _) => format!(" [checkpoint every {every}d -> {}]", args.snapshot),
        (None, Some(path)) => format!(" [warm start from {path}]"),
        (None, None) => String::new(),
    };
    println!(
        "single run{mode}: {} sim days in {:.3}s (best of {}) = {:.1} sim-days/sec (summary {:?})",
        args.days, single_secs, args.repeat, sim_days_per_sec, fingerprint
    );

    // 2. Sweep throughput, serial then parallel over identical cells.
    let seeds: Vec<u64> = (0..args.cells as u64).collect();
    let started = Instant::now();
    let serial = glacsweb_sweep::run_cells(seeds.clone(), 1, |seed| run_cell(seed, CELL_DAYS));
    let serial_secs = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let parallel = glacsweb_sweep::run_cells(seeds, threads, |seed| run_cell(seed, CELL_DAYS));
    let parallel_secs = started.elapsed().as_secs_f64();
    assert_eq!(
        serial, parallel,
        "sweep results must be identical at any thread count"
    );
    let serial_cells_per_sec = args.cells as f64 / serial_secs;
    let parallel_cells_per_sec = args.cells as f64 / parallel_secs;
    let speedup = serial_secs / parallel_secs;
    println!(
        "sweep: {} cells x {} days; serial {:.2}s ({:.2} cells/sec), \
         {} threads {:.2}s ({:.2} cells/sec), speedup {:.2}x",
        args.cells,
        CELL_DAYS,
        serial_secs,
        serial_cells_per_sec,
        threads,
        parallel_secs,
        parallel_cells_per_sec,
        speedup,
    );

    // Thread-scaling table over the same cells (the serial pass above is
    // the 1-thread row; every row re-checks bit-identity against it).
    let mut scaling = vec![ScalingRow {
        threads: 1,
        seconds: serial_secs,
        cells_per_sec: serial_cells_per_sec,
        speedup: 1.0,
    }];
    for n in [2usize, 4, 8] {
        let seeds: Vec<u64> = (0..args.cells as u64).collect();
        let started = Instant::now();
        let results = glacsweb_sweep::run_cells(seeds, n, |seed| run_cell(seed, CELL_DAYS));
        let secs = started.elapsed().as_secs_f64();
        assert_eq!(serial, results, "sweep diverged at {n} threads");
        scaling.push(ScalingRow {
            threads: n,
            seconds: secs,
            cells_per_sec: args.cells as f64 / secs,
            speedup: serial_secs / secs,
        });
    }
    let table = scaling
        .iter()
        .map(|r| format!("{}t {:.2}s ({:.2}x)", r.threads, r.seconds, r.speedup))
        .collect::<Vec<_>>()
        .join(", ");
    println!("sweep scaling: {table}");

    // 3. Kernel breakdown.
    let kernel = measure_kernel(args.days);
    println!(
        "kernel: env {:.3}s, rail {:.3}s, wheel {:.3}s, metrics {:.4}s",
        kernel.env_advance_secs,
        kernel.rail_advance_secs,
        kernel.wheel_ops_secs,
        kernel.metrics_secs,
    );

    // 4. Snapshot cost and warm-start speedup.
    let snapshot = measure_snapshot(args.days, args.cells, threads);
    println!(
        "snapshot: {} bytes after {} days; capture {:.4}s, save {:.4}s, load {:.4}s; \
         warm-start sweep ({} cells x {} days, resume at half): cold {:.2}s vs warm {:.2}s \
         = {:.2}x",
        snapshot.snapshot_bytes,
        snapshot.days,
        snapshot.capture_secs,
        snapshot.save_secs,
        snapshot.load_secs,
        snapshot.warm_cells,
        snapshot.warm_cell_days,
        snapshot.cold_sweep_secs,
        snapshot.warm_sweep_secs,
        snapshot.warm_start_speedup,
    );

    // 5. Fleet-kernel scaling (prints each row as it lands).
    let fleet = measure_fleet(threads, args.repeat);
    if let Some(path) = &args.fleet_out {
        write_fleet_artifact(path, &args.label, &fleet);
    }

    // 6. Service front end under the compressed-time fleet replay.
    let service = measure_service(args.repeat);
    println!(
        "service: {} stations x {} days = {} requests over {} clients (pipeline {}) in {:.2}s \
         ({:.0} req/sec; p50 {} us, p99 {} us, p999 {} us; {:.3} allocs/req; transcript {})",
        service.stations,
        service.days,
        service.requests,
        service.clients,
        service.pipeline,
        service.seconds,
        service.requests_per_sec,
        service.p50_us,
        service.p99_us,
        service.p999_us,
        service.allocs_per_request,
        service.transcript_fnv,
    );

    let record = PerfRecord {
        schema: SCHEMA,
        label: args.label,
        single_run: SingleRun {
            days: args.days,
            repeats: args.repeat,
            seconds: single_secs,
            sim_days_per_sec,
        },
        sweep: Sweep {
            cells: args.cells,
            cell_days: CELL_DAYS,
            threads,
            serial_seconds: serial_secs,
            serial_cells_per_sec,
            parallel_seconds: parallel_secs,
            parallel_cells_per_sec,
            speedup,
            scaling,
        },
        kernel,
        snapshot,
        fleet,
        service,
    };
    let mut history = read_history(&args.out).unwrap_or_else(|msg| {
        eprintln!("perf: {msg}");
        std::process::exit(1);
    });
    history.push(record.to_value());
    let mut f = std::fs::File::create(&args.out)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", args.out));
    f.write_all(
        serde_json::to_string_pretty(&Value::Seq(history))
            .expect("serializable")
            .as_bytes(),
    )
    .unwrap_or_else(|e| panic!("cannot write {}: {e}", args.out));
    println!("appended record to {}", args.out);
}
