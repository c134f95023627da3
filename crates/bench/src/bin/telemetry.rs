//! Telemetry export for the Iceland 2008 deployment.
//!
//! Runs the paper's deployment with in-memory recorders installed on the
//! world and both stations, plus a small observed seed sweep on the
//! parallel engine, and writes the merged telemetry to `TELEMETRY.json`
//! (same hand-rolled JSON style as `ANALYSIS.json`).
//!
//! ```text
//! cargo run -p glacsweb-bench --bin telemetry --release -- \
//!     [--seed N] [--days N] [--threads N] [--out PATH] \
//!     [--checkpoint-every D] [--snapshot PATH] [--restore PATH]
//! ```
//!
//! Determinism contract: recorders never consume simulation randomness,
//! per-sweep-cell recorders are merged in input-index order, and the
//! export contains no wall-clock times or host facts — so the emitted
//! file is **byte-identical** for the same seed at any `--threads`
//! value. CI runs this twice (`--threads 1` vs `--threads 8`) and
//! `cmp`s the outputs.
//!
//! The checkpoint flags extend the same contract across process
//! boundaries: `--checkpoint-every D` persists the main deployment to
//! `--snapshot PATH` every `D` sim-days, and `--restore PATH` revives it
//! in a *fresh process* and runs it to the `--days` horizon. Because the
//! snapshot carries the telemetry registries, the restored process's
//! export covers the whole deployment from day zero — CI `cmp`s it
//! against a straight run's export byte for byte.

use std::path::Path;

use glacsweb::{Deployment, Scenario};
use glacsweb_bench::{exit_with_usage, flag_value, CliError};
use glacsweb_obs::{merge_all, MemoryRecorder, Origin};

/// Number of cells in the observed seed sweep.
const SWEEP_CELLS: u64 = 4;

/// Days each sweep cell simulates (shorter than the main run).
const SWEEP_DAYS: u64 = 10;

/// The main observed deployment: Iceland 2008, both stations, probes.
///
/// `--restore` swaps the fresh build for a revived checkpoint;
/// `--checkpoint-every` splits the run into legs with a durable
/// checkpoint after each. Neither changes the trajectory — the CI
/// snapshot-equivalence job proves it with `cmp`.
fn run_deployment(
    seed: u64,
    days: u64,
    checkpoint_every: Option<u64>,
    snapshot: &str,
    restore: Option<&str>,
) -> Result<MemoryRecorder, String> {
    let mut d = match restore {
        Some(path) => Deployment::resume(Path::new(path))
            .map_err(|e| format!("cannot restore {path}: {e}"))?,
        None => Scenario::iceland_2008().seed(seed).observe().build(),
    };
    let horizon = d.start() + glacsweb_sim::SimDuration::from_days(days);
    match checkpoint_every {
        Some(every) => {
            while d.now() < horizon {
                let leg = (d.now() + glacsweb_sim::SimDuration::from_days(every)).min(horizon);
                d.run_until(leg);
                d.checkpoint(Path::new(snapshot))
                    .map_err(|e| format!("cannot checkpoint {snapshot}: {e}"))?;
            }
        }
        None => d.run_until(horizon),
    }
    Ok(d.telemetry().unwrap_or_default())
}

/// An observed sweep over neighbouring seeds: each cell records into its
/// own recorder; the engine merges them in cell order, so the result is
/// independent of the thread count.
fn run_sweep(seed: u64, threads: usize) -> (Vec<(u64, u64)>, MemoryRecorder) {
    let seeds: Vec<u64> = (0..SWEEP_CELLS).map(|i| seed + 1 + i).collect();
    glacsweb_sweep::run_cells_observed(seeds, threads, |cell_seed| {
        let mut d = Scenario::iceland_2008().seed(cell_seed).observe().build();
        d.run_days(SWEEP_DAYS);
        let windows = d.summary().windows_run;
        let telemetry = d.telemetry().unwrap_or_default();
        ((cell_seed, windows), telemetry)
    })
}

const USAGE: &str = "usage: telemetry [--seed N] [--days N] [--threads N] [--out PATH] \
                     [--checkpoint-every D] [--snapshot PATH] [--restore PATH]";

struct Args {
    seed: u64,
    days: u64,
    threads: Option<usize>,
    out: String,
    checkpoint_every: Option<u64>,
    snapshot: String,
    restore: Option<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, CliError> {
    let mut args = Args {
        seed: 2008,
        days: 30,
        threads: None,
        out: String::from("TELEMETRY.json"),
        checkpoint_every: None,
        snapshot: String::from("glacsweb-telemetry.snap"),
        restore: None,
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--seed" => args.seed = flag_value(&mut argv, "--seed")?,
            "--days" => args.days = flag_value(&mut argv, "--days")?,
            "--threads" => args.threads = Some(flag_value(&mut argv, "--threads")?),
            "--out" => args.out = flag_value(&mut argv, "--out")?,
            "--checkpoint-every" => {
                let every: u64 = flag_value(&mut argv, "--checkpoint-every")?;
                if every == 0 {
                    return Err(CliError::Bad(
                        "--checkpoint-every must be at least 1 day".to_string(),
                    ));
                }
                args.checkpoint_every = Some(every);
            }
            "--snapshot" => args.snapshot = flag_value(&mut argv, "--snapshot")?,
            "--restore" => args.restore = Some(flag_value(&mut argv, "--restore")?),
            "--help" | "-h" => return Err(CliError::Help),
            other => return Err(CliError::Bad(format!("unknown argument {other:?}"))),
        }
    }
    Ok(args)
}

fn main() {
    let Args {
        seed,
        days,
        threads,
        out,
        checkpoint_every,
        snapshot,
        restore,
    } = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| exit_with_usage(e, USAGE));
    let threads = glacsweb_sweep::resolve_threads(threads);

    println!("== glacsweb telemetry export (seed {seed}, {days} days) ==");
    let deployment =
        match run_deployment(seed, days, checkpoint_every, &snapshot, restore.as_deref()) {
            Ok(recorder) => recorder,
            Err(msg) => {
                eprintln!("telemetry: {msg}");
                std::process::exit(1);
            }
        };
    let (cells, sweep) = run_sweep(seed, threads);
    for &(cell_seed, windows) in &cells {
        println!("sweep cell seed {cell_seed}: {windows} windows over {SWEEP_DAYS} days");
    }
    // Fixed merge order (main run, then cells in seed order) keeps the
    // export identical however the cells were scheduled.
    let merged = merge_all([deployment, sweep]);

    let base = Origin::new("station", "base");
    let reference = Origin::new("station", "reference");
    println!(
        "windows_run: base {} / reference {}",
        merged.counter_value(base, "windows_run"),
        merged.counter_value(reference, "windows_run"),
    );
    println!(
        "gprs attach attempts {} (failures {})",
        merged.counter_value(Origin::new("gprs", "base"), "attach_attempts")
            + merged.counter_value(Origin::new("gprs", "reference"), "attach_attempts"),
        merged.counter_value(Origin::new("gprs", "base"), "attach_failures")
            + merged.counter_value(Origin::new("gprs", "reference"), "attach_failures"),
    );
    println!(
        "probe fetch sessions {} / aborts {}",
        merged.counter_value(Origin::new("protocol", "base"), "fetch_sessions"),
        merged.counter_value(Origin::new("protocol", "base"), "fetch_aborts"),
    );
    println!(
        "events kept {} (dropped {})",
        merged.events().len(),
        merged.events_dropped(),
    );

    let json = merged.to_json();
    if let Err(e) = std::fs::write(&out, json.as_bytes()) {
        eprintln!("telemetry: cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
}
