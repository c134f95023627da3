//! The CI regression gate: compares `glacbench` runs of a base and a
//! head revision under the end-to-end bounds of `BENCHMARK.json`.
//!
//! ```text
//! gate BENCHMARK.json BASE_RESULTS HEAD_RESULTS
//! ```
//!
//! Each results file holds one workload's result objects (the last line
//! `glacbench` prints), one run a line. Prints one line per check; exits
//! 0 when all pass, 1 when one fails ([`glacsweb_bench::gate`] says
//! which), and 2 on bad arguments or unreadable input.

use glacsweb_bench::gate::{compare, parse_bounds, parse_runs};
use glacsweb_bench::{exit_with_usage, CliError};

const USAGE: &str = "usage: gate BENCHMARK.json BASE_RESULTS HEAD_RESULTS";

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2)
    })
}

fn parsed<T>(path: &str, result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        exit_with_usage(CliError::Help, USAGE);
    }
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        exit_with_usage(CliError::Bad(format!("unknown flag {flag}")), USAGE);
    }
    let [benchmark, base, head] = args.as_slice() else {
        exit_with_usage(CliError::Bad("expected three paths".into()), USAGE)
    };
    let bounds = parsed(benchmark, parse_bounds(&read(benchmark)));
    let base = parsed(base, parse_runs(&read(base)));
    let head = parsed(head, parse_runs(&read(head)));
    let checks = compare(&bounds, &base, &head);
    for check in &checks {
        println!("{} {}", if check.ok { "ok  " } else { "FAIL" }, check.what);
    }
    if checks.iter().any(|c| !c.ok) {
        std::process::exit(1);
    }
}
