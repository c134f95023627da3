//! End-to-end and per-layer benchmark of the glacsweb workspace.
//!
//! Three workloads, one per process: [`campaign`] (seeded one-year
//! Iceland deployments fanned out over the sweep engine), [`fleet`] (the
//! 100k-station fleet kernel with a mid-run checkpoint) and [`service`]
//! (the coordination service replaying a fleet wake trace over
//! loopback). A plain run reports the end-to-end metrics of
//! [`END_TO_END`]; a traced run interleaves plain and traced repetitions
//! and reports the per-layer metrics of [`PER_LAYER`], timed around the
//! calls the benchmark makes into each crate's public API. Nothing is
//! traced inside the program. See `README.md` for the metric map.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod fleet;
pub mod pinned;
pub mod service;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use glacsweb_snapshot::SnapshotError;

/// End-to-end metrics `(name, unit)`, printed by every workload's plain
/// run. Each is defined per workload in `README.md`. A plain run also
/// prints `op_p99_us` among its samples. It is left out of
/// `BENCHMARK.json` because its run-to-run spread on a shared host
/// exceeds the largest regression bound the file allows.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, printed by every workload's traced
/// run. A layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sweep.busy_frac", "ratio"),
    ("sweep.tail_ms", "ms"),
    ("core.day_us.p50", "us"),
    ("core.day_us.p99", "us"),
    ("core.quiet_us_per_day", "us"),
    ("core.window_us_per_day", "us"),
    ("core.summary_ms", "ms"),
    ("obs.export_ms", "ms"),
    ("fleet.build_ms", "ms"),
    ("fleet.day_ms.p50", "ms"),
    ("fleet.ns_per_wake", "ns"),
    ("fleet.leap_frac", "ratio"),
    ("fleet.trace_ms", "ms"),
    ("snapshot.checkpoint_ms", "ms"),
    ("snapshot.resume_ms", "ms"),
    ("snapshot.capture_ms", "ms"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.read_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.restore_ms", "ms"),
    ("service.script_ms", "ms"),
    ("service.core_build_ms", "ms"),
    ("service.bind_ms", "ms"),
    ("service.core.checkin_ns", "ns"),
    ("service.core.state_ns", "ns"),
    ("service.core.override_ns", "ns"),
    ("service.core.update_ns", "ns"),
    ("service.core.ack_ns", "ns"),
    ("service.http.request_ns", "ns"),
    ("service.wire_us", "us"),
    ("service.p99_us", "us"),
    ("core.windows", "count"),
    ("core.dgps_fixes", "count"),
    ("core.uploaded_bytes", "count"),
    ("obs.events", "count"),
    ("fleet.wakes", "count"),
    ("fleet.events", "count"),
    ("fleet.leaps", "count"),
    ("snapshot.bytes", "count"),
    ("service.requests", "count"),
    ("service.max_conn_requests", "count"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Seeded one-year deployments through the sweep engine.
    Campaign,
    /// The 100k-station fleet kernel with a day-15 checkpoint.
    Fleet,
    /// The HTTP service replaying a fleet wake trace.
    Service,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::Campaign, Workload::Fleet, Workload::Service];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::Fleet => "fleet",
            Workload::Service => "service",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What `throughput_per_s` counts on this workload.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::Campaign => "sim-days",
            Workload::Fleet => "station-days",
            Workload::Service => "requests (pass P)",
        }
    }

    /// What one `op_p50_us` sample times on this workload.
    pub fn op(self) -> &'static str {
        match self {
            Workload::Campaign => "one cell-day run_until",
            Workload::Fleet => "one fleet-day run_until",
            Workload::Service => "one request (pass L)",
        }
    }
}

/// Workload scale: the benchmark proper, or a tiny smoke size for the
/// self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes documented in `README.md`.
    Full,
    /// Seconds-long sizes that exercise every code path.
    Smoke,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Measurement budget: repetitions start until this much has passed.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of plain (end-to-end).
    pub trace: bool,
    /// Workload scale.
    pub size: Size,
    /// Replaces the pinned value of the workload's headline digest
    /// (telemetry, fleet state or transcript FNV).
    pub expect_digest: Option<u64>,
    /// Worker threads and client connections.
    pub threads: usize,
    /// Directory for checkpoint files (created, and removed at exit).
    pub scratch: PathBuf,
}

impl Options {
    /// Defaults for `workload`: seed 2010, 10 s, plain, full size, one
    /// thread per available core, scratch under `glacbench/tmp/<pid>`.
    pub fn new(workload: Workload) -> Options {
        Options {
            workload,
            seed: 2010,
            seconds: 10.0,
            trace: false,
            size: Size::Full,
            expect_digest: None,
            threads: available_parallelism(),
            scratch: Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("tmp")
                .join(std::process::id().to_string()),
        }
    }
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Named samples. Each entry keeps the values pushed and how many
/// underlying observations they summarise; a metric reports the
/// median of its values.
#[derive(Debug, Default)]
pub struct Samples {
    map: BTreeMap<&'static str, (Vec<f64>, u64)>,
}

impl Samples {
    /// Pushes one value standing for one observation.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.add_n(name, value, 1);
    }

    /// Pushes one value standing for `n` observations (a percentile
    /// over `n` latencies, say).
    pub fn add_n(&mut self, name: &'static str, value: f64, n: u64) {
        let entry = self.map.entry(name).or_default();
        entry.0.push(value);
        entry.1 += n;
    }

    /// Median of the values pushed under `name`.
    pub fn median(&self, name: &str) -> Option<f64> {
        self.map.get(name).map(|(values, _)| median(values))
    }

    /// Observations behind `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.map.get(name).map_or(0, |(_, n)| *n)
    }
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`pct` of 100) of an unsorted sample; 0 when
/// empty.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Pushes the p50 and p99 of a pooled latency sample (microseconds)
/// under `p50` and `p99`, each standing for the whole pool.
pub fn add_percentiles(
    samples: &mut Samples,
    pooled_us: &[f64],
    p50: &'static str,
    p99: &'static str,
) {
    if pooled_us.is_empty() {
        return;
    }
    let n = pooled_us.len() as u64;
    samples.add_n(p50, percentile(pooled_us, 50.0), n);
    samples.add_n(p99, percentile(pooled_us, 99.0), n);
}

/// Output checks: operations attempted and failed, with a note per
/// failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that errored or produced a wrong output.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Checks {
    /// Checks `got == want` for an output covering `ops` operations.
    pub fn expect<T: PartialEq + std::fmt::Debug>(
        &mut self,
        ops: u64,
        what: &str,
        got: T,
        want: T,
    ) {
        self.attempted += ops;
        if got != want {
            self.failed += ops;
            self.notes
                .push(format!("{what}: got {got:?}, expected {want:?}"));
        }
    }

    /// Records `ops` operations that errored or went unanswered.
    pub fn fail(&mut self, ops: u64, note: String) {
        self.attempted += ops;
        self.failed += ops;
        self.notes.push(note);
    }
}

/// What a workload measured: plain-repetition samples, traced-repetition
/// samples, output checks and host facts.
#[derive(Debug, Default)]
pub struct Measured {
    /// Samples from plain repetitions (end-to-end metrics).
    pub plain: Samples,
    /// Samples from traced repetitions (per-layer metrics).
    pub traced: Samples,
    /// Output checks.
    pub checks: Checks,
    /// Client connections held open (service only).
    pub connections: usize,
    /// Pipeline depths of the replay passes (service only).
    pub pipeline: &'static str,
    /// Digests of the run's outputs, printed for the record.
    pub digests: Vec<(&'static str, u64)>,
}

/// Runs repetitions until `opts.seconds` have passed, and at least
/// `min` of them (in a traced run at least two: plain and traced
/// alternate, plain first). `rep` receives `(index, traced)`.
///
/// Returns the process's peak RSS after the first repetition: the
/// memory the workload needs, before the allocator fragmentation of
/// further repetitions adds to it (by up to half again, varying run to
/// run, on the service).
pub fn repeat(opts: &Options, min: usize, mut rep: impl FnMut(usize, bool)) -> f64 {
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let started = Instant::now();
    let min = if opts.trace { min.max(2) } else { min };
    rep(0, false);
    let rss = peak_rss_mb();
    let mut index = 1;
    while index < min || started.elapsed() < budget {
        rep(index, opts.trace && index % 2 == 1);
        index += 1;
    }
    rss
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// FNV-1a over `bytes`.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Checkpoints through the snapshot crate's phases, timing each:
/// `capture` (the state snapshot), `snapshot::save`, and
/// `snapshot::to_bytes`, whose time taken from the save's is the write
/// share. An untimed encode runs first so that the save and the timed
/// encode both meet warm allocator pages. Returns the snapshot size in
/// bytes.
pub fn traced_checkpoint<S: serde::Serialize>(
    samples: &mut Samples,
    path: &Path,
    capture: impl FnOnce() -> S,
) -> Result<u64, SnapshotError> {
    let t = Instant::now();
    let state = capture();
    let capture_s = secs(t);
    let size = glacsweb_snapshot::to_bytes(&state).len() as u64;
    let t = Instant::now();
    glacsweb_snapshot::save(&state, path)?;
    let save_s = secs(t);
    let t = Instant::now();
    std::hint::black_box(glacsweb_snapshot::to_bytes(&state));
    let encode_s = secs(t);
    samples.add("snapshot.capture_ms", capture_s * 1e3);
    samples.add("snapshot.encode_ms", encode_s * 1e3);
    samples.add("snapshot.write_ms", (save_s - encode_s).max(0.0) * 1e3);
    samples.add("snapshot.checkpoint_ms", (capture_s + save_s) * 1e3);
    Ok(size)
}

/// Resumes through the snapshot crate's phases, timing each:
/// `snapshot::load`, `snapshot::from_bytes`, whose time taken from the
/// load's is the read share, and `restore`. An untimed decode runs
/// first, as in [`traced_checkpoint`].
pub fn traced_resume<S: serde::Deserialize, T>(
    samples: &mut Samples,
    path: &Path,
    restore: impl FnOnce(S) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let bytes = std::fs::read(path)?;
    drop(glacsweb_snapshot::from_bytes::<S>(&bytes)?);
    let t = Instant::now();
    let state: S = glacsweb_snapshot::load(path)?;
    let load_s = secs(t);
    let t = Instant::now();
    drop(std::hint::black_box(glacsweb_snapshot::from_bytes::<S>(
        &bytes,
    )?));
    let decode_s = secs(t);
    drop(bytes);
    let t = Instant::now();
    let restored = restore(state)?;
    let restore_s = secs(t);
    samples.add("snapshot.decode_ms", decode_s * 1e3);
    samples.add("snapshot.read_ms", (load_s - decode_s).max(0.0) * 1e3);
    samples.add("snapshot.restore_ms", restore_s * 1e3);
    samples.add("snapshot.resume_ms", (load_s + restore_s) * 1e3);
    Ok(restored)
}

/// Peak resident set of this process (`VmHWM`), MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checked-out commit, `unknown` outside a git repository.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (from [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Median value.
    pub value: f64,
    /// Observations behind the value.
    pub samples: u64,
}

/// A finished run.
#[derive(Debug)]
pub struct Report {
    /// The run's options.
    pub opts: Options,
    /// The reported metrics: [`END_TO_END`] for a plain run,
    /// [`PER_LAYER`] for a traced one.
    pub metrics: Vec<Metric>,
    /// Everything measured.
    pub measured: Measured,
}

impl Report {
    /// `true` when every checked operation produced the right output.
    pub fn correct(&self) -> bool {
        self.measured.checks.failed == 0 && self.measured.checks.attempted > 0
    }

    /// The metric named `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The human-readable lines: host block, digests, every sample
    /// recorded, check notes.
    pub fn human(&self) -> String {
        let o = &self.opts;
        let m = &self.measured;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "host {{\"workload\":\"{}\",\"mode\":\"{}\",\"size\":\"{}\",\"seed\":{},\
             \"available_parallelism\":{},\"threads\":{},\"connections\":{},\
             \"pipeline\":\"{}\",\"git_commit\":\"{}\"}}",
            o.workload.name(),
            if o.trace { "traced" } else { "plain" },
            if o.size == Size::Full {
                "full"
            } else {
                "smoke"
            },
            o.seed,
            available_parallelism(),
            o.threads,
            m.connections,
            m.pipeline,
            git_commit(),
        );
        for (name, value) in &m.digests {
            let _ = writeln!(out, "digest {name} {value:016x}");
        }
        let _ = writeln!(
            out,
            "throughput_per_s counts {} per second; op_*_us time {}",
            o.workload.work_unit(),
            o.workload.op()
        );
        for (label, samples) in [("plain", &m.plain), ("traced", &m.traced)] {
            for (name, (values, n)) in &samples.map {
                let (lo, hi) = values
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                        (lo.min(v), hi.max(v))
                    });
                let _ = writeln!(
                    out,
                    "{label} {name} = {} (n={n}; {} values from {lo} to {hi})",
                    median(values),
                    values.len()
                );
            }
        }
        let c = &m.checks;
        let _ = writeln!(
            out,
            "failed_frac = {} ratio ({} failed of {} attempted)",
            if c.attempted == 0 {
                1.0
            } else {
                c.failed as f64 / c.attempted as f64
            },
            c.failed,
            c.attempted
        );
        for note in &c.notes {
            let _ = writeln!(out, "FAILED {note}");
        }
        out
    }

    /// The one-line result object.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.measured.checks.attempted,
            self.measured.checks.failed,
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            let _ = write!(
                out,
                "{}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                if i == 0 { "" } else { "," },
                metric.name,
                metric.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs one workload and assembles its report.
pub fn run(opts: &Options) -> Report {
    let _ = std::fs::create_dir_all(&opts.scratch);
    let mut measured = match opts.workload {
        Workload::Campaign => campaign::run(opts),
        Workload::Fleet => fleet::run(opts),
        Workload::Service => service::run(opts),
    };
    let _ = std::fs::remove_dir_all(&opts.scratch);
    // Printed for the record only: allocator state makes it vary run to
    // run (see `peak_rss_mb` in README.md).
    measured.plain.add("run_peak_rss_mb", peak_rss_mb());
    if opts.trace {
        let plain = measured.plain.median("throughput_per_s").unwrap_or(0.0);
        let traced = measured.traced.median("throughput_per_s").unwrap_or(0.0);
        if plain > 0.0 {
            let n = measured.traced.count("throughput_per_s");
            measured
                .traced
                .add_n("bench.trace_overhead_frac", 1.0 - traced / plain, n);
        }
    }
    let (table, samples) = if opts.trace {
        (PER_LAYER, &measured.traced)
    } else {
        (END_TO_END, &measured.plain)
    };
    let metrics = table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: samples.median(name).unwrap_or(0.0),
            samples: samples.count(name),
        })
        .collect();
    Report {
        opts: opts.clone(),
        metrics,
        measured,
    }
}
