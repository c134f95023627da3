//! Benchmark harness support for the Glacsweb reproduction.
//!
//! The real content lives in:
//!
//! * `src/bin/experiments.rs` — regenerates every table/figure/in-text
//!   number of the paper (run `cargo run -p glacsweb-bench --bin
//!   experiments --release`);
//! * `benches/bench_*.rs` — Criterion benchmarks timing each experiment's
//!   underlying machinery (one bench target per paper artifact).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::str::FromStr;

/// Names of all experiments the binary understands, in run order.
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "fig5",
    "fig6",
    "depletion",
    "backlog",
    "retrieval",
    "survival",
    "architecture",
    "recovery",
    "ordering",
    "ablation",
    "science",
    "priority",
    "sites",
    "chaos",
    "checkpoint",
];

/// Why a bin's command line did not parse into options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h`: print the usage and exit 0.
    Help,
    /// A bad argument: print this message and the usage, exit 2.
    Bad(String),
}

/// Takes the value after `flag` off `args` and parses it as `T`.
///
/// # Errors
///
/// [`CliError::Bad`] when the value is missing or does not parse.
pub fn flag_value<T>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, CliError>
where
    T: FromStr,
    T::Err: Display,
{
    let v = args
        .next()
        .ok_or_else(|| CliError::Bad(format!("{flag} needs a value")))?;
    v.parse()
        .map_err(|e| CliError::Bad(format!("bad {flag} value {v:?}: {e}")))
}

/// Ends the process for a command line that did not parse: `--help`
/// prints `usage` to stdout and exits 0; a bad argument prints the
/// message and `usage` to stderr and exits 2.
pub fn exit_with_usage(err: CliError, usage: &str) -> ! {
    match err {
        CliError::Help => {
            println!("{usage}");
            std::process::exit(0)
        }
        CliError::Bad(msg) => {
            eprintln!("{msg}\n{usage}");
            std::process::exit(2)
        }
    }
}

/// Parsed command line of the `experiments` binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Seed passed to every experiment.
    pub seed: u64,
    /// Directory to dump raw JSON results into, if requested.
    pub json_dir: Option<String>,
    /// Experiments to run, in order.
    pub which: Vec<String>,
    /// Worker threads for the sweep engine (`--threads N`); `None` falls
    /// back to `GLACSWEB_THREADS`, then to the machine's parallelism.
    /// Output is byte-identical whatever the value.
    pub threads: Option<usize>,
}

/// Parses the binary's arguments (without the program name).
///
/// # Errors
///
/// Returns a usage/error message for unknown experiments, malformed seeds
/// or missing flag values.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
    let mut options = Options {
        seed: 2009,
        json_dir: None,
        which: Vec::new(),
        threads: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                options.seed = v.parse().map_err(|e| format!("bad seed {v:?}: {e}"))?;
            }
            "--json" => {
                options.json_dir = Some(args.next().ok_or("--json needs a directory")?);
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|e| format!("bad thread count {v:?}: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                options.threads = Some(n);
            }
            "--help" | "-h" => {
                return Err(format!(
                    "usage: experiments [--seed N] [--json DIR] [--threads N] [{}...]",
                    EXPERIMENTS.join("|")
                ));
            }
            name if EXPERIMENTS.contains(&name) => options.which.push(name.to_string()),
            other => return Err(format!("unknown experiment {other:?}; try --help")),
        }
    }
    if options.which.is_empty() {
        options.which = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    Ok(options)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn seventeen_experiments_cover_the_paper_plus_extensions() {
        assert_eq!(EXPERIMENTS.len(), 17);
    }

    #[test]
    fn no_args_runs_everything_with_the_default_seed() {
        let o = parse_args(args(&[])).expect("valid");
        assert_eq!(o.seed, 2009);
        assert_eq!(o.which.len(), EXPERIMENTS.len());
        assert_eq!(o.json_dir, None);
        assert_eq!(o.threads, None, "thread count defers to the environment");
    }

    #[test]
    fn threads_flag_parses() {
        let o = parse_args(args(&["--threads", "4", "fig5"])).expect("valid");
        assert_eq!(o.threads, Some(4));
        assert_eq!(o.which, vec!["fig5".to_string()]);
    }

    #[test]
    fn bad_thread_counts_are_errors() {
        assert!(parse_args(args(&["--threads"])).is_err());
        assert!(parse_args(args(&["--threads", "zero"])).is_err());
        assert!(parse_args(args(&["--threads", "0"])).is_err());
    }

    #[test]
    fn subset_and_flags_parse() {
        let o = parse_args(args(&["--seed", "7", "fig5", "--json", "/tmp/out", "fig6"]))
            .expect("valid");
        assert_eq!(o.seed, 7);
        assert_eq!(o.which, vec!["fig5".to_string(), "fig6".to_string()]);
        assert_eq!(o.json_dir.as_deref(), Some("/tmp/out"));
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        let err = parse_args(args(&["fig9"])).expect_err("invalid");
        assert!(err.contains("unknown experiment"));
    }

    #[test]
    fn missing_flag_values_are_errors() {
        assert!(parse_args(args(&["--seed"])).is_err());
        assert!(parse_args(args(&["--json"])).is_err());
        assert!(parse_args(args(&["--seed", "abc"])).is_err());
    }

    #[test]
    fn flag_value_parses_or_names_the_problem() {
        let mut it = args(&["12", "x"]).into_iter();
        assert_eq!(flag_value::<u64>(&mut it, "--days"), Ok(12));
        let bad = flag_value::<u64>(&mut it, "--days");
        assert!(matches!(bad, Err(CliError::Bad(m)) if m.contains("bad --days value \"x\"")));
        let missing = flag_value::<u64>(&mut it, "--days");
        assert_eq!(missing, Err(CliError::Bad("--days needs a value".into())));
    }

    #[test]
    fn help_returns_usage() {
        let err = parse_args(args(&["--help"])).expect_err("usage");
        assert!(err.starts_with("usage:"));
        assert!(err.contains("fig5"));
    }
}
