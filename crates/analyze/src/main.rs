//! CLI for `glacsweb-analyze`.
//!
//! ```text
//! cargo run -p glacsweb-analyze -- [--deny] [--root DIR] [--json PATH]
//!     [--sarif PATH] [--quiet]
//! ```
//!
//! * `--deny`    — exit nonzero if any unsuppressed finding remains (CI mode).
//! * `--root`    — workspace root; defaults to walking up from the current
//!   directory to the first `Cargo.toml` with a `[workspace]` section.
//! * `--json`    — where to write the machine-readable report
//!   (default `ANALYSIS.json` under the workspace root).
//! * `--sarif`   — where to write the SARIF 2.1.0 report
//!   (default `ANALYSIS.sarif` under the workspace root).
//! * `--quiet`   — suppress the ledger listing; findings still print.
//!
//! Every run analyzes every file on the machine's cores (at most 8); the
//! reports are byte-identical whatever the core count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use glacsweb_analyze::{analyze_workspace, find_workspace_root, sarif};

fn main() -> ExitCode {
    let mut deny = false;
    let mut quiet = false;
    let mut root: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut sarif_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--quiet" => quiet = true,
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json = args.next().map(PathBuf::from),
            "--sarif" => sarif_path = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!(
                    "usage: glacsweb-analyze [--deny] [--root DIR] [--json PATH] \
                     [--sarif PATH] [--quiet]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("glacsweb-analyze: could not locate a workspace root (try --root)");
            return ExitCode::from(2);
        }
    };

    let started = Instant::now();
    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("glacsweb-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    let json_path = json.unwrap_or_else(|| root.join("ANALYSIS.json"));
    if let Err(e) = std::fs::write(&json_path, report.to_json()) {
        eprintln!("glacsweb-analyze: writing {}: {e}", json_path.display());
        return ExitCode::from(2);
    }
    let sarif_path = sarif_path.unwrap_or_else(|| root.join("ANALYSIS.sarif"));
    if let Err(e) = std::fs::write(&sarif_path, sarif::to_sarif(&report)) {
        eprintln!("glacsweb-analyze: writing {}: {e}", sarif_path.display());
        return ExitCode::from(2);
    }

    let text = report.render_text();
    if quiet {
        // Findings and the summary line only.
        for line in text.lines() {
            if line.starts_with("error[")
                || line.trim_start().starts_with("-->")
                || line.starts_with("glacsweb-analyze:")
            {
                println!("{line}");
            }
        }
    } else {
        print!("{text}");
    }
    println!("glacsweb-analyze: finished in {elapsed_ms:.1} ms");

    if deny && report.unsuppressed().next().is_some() {
        eprintln!("glacsweb-analyze: failing (--deny) on unsuppressed findings");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
