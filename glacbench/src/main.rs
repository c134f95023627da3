//! `glacbench`: runs one benchmark workload and prints its result.
//!
//! ```text
//! glacbench --workload campaign|fleet|service|all [--seed N] [--seconds S]
//!           [--trace 0|1]
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! carry the host block, digests, every sample and any failed check.
//! Exits 1 when a check failed, 2 on bad arguments. `--workload all`
//! runs each workload in a child process of its own. Load always comes
//! from `available_parallelism` threads and connections.

use std::process::ExitCode;

use glacbench::{Options, Workload};

const USAGE: &str = "usage: glacbench --workload campaign|fleet|service|all [--seed N] \
                     [--seconds S] [--trace 0|1]";

/// Parsed command line: the workload (`None` for `all`) and options.
fn parse(args: &[String]) -> Result<(Option<Workload>, Options), String> {
    let mut workload: Option<Option<Workload>> = None;
    let mut opts = Options::new(Workload::Campaign);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(None),
            "--workload" => {
                let w = Workload::parse(value).ok_or_else(|| bad(&"unknown workload"))?;
                workload = Some(Some(w));
            }
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(bad(&"not a non-negative number"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if let Some(w) = workload {
        opts.workload = w;
    }
    Ok((workload, opts))
}

/// Runs every workload in a child process of its own, in turn.
fn run_all(args: &[String]) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate the benchmark executable");
        return ExitCode::FAILURE;
    };
    let mut shared: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            shared.push(a);
        }
    }
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(&shared)
            .args(["--workload", w.name()])
            .status();
        match status {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("cannot run workload {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if workload.is_none() {
        return run_all(&args);
    }
    let report = glacbench::run(&opts);
    // The per-process scratch directory is gone; drop its parent too
    // when no other run is using it.
    if let Some(parent) = opts.scratch.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    print!("{}", report.human());
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
