//! The CI regression gate over `glacbench` results.
//!
//! The gate compares the result lines of runs of a base revision with
//! those of a head revision, all measured on the same machine. The
//! metrics it compares, their directions and their bounds come only
//! from the `end_to_end` list of `BENCHMARK.json`. It fails when:
//!
//! * any run reports `"correct": false`;
//! * head's failed share (`failed` ÷ `attempted`) exceeds base's;
//! * an end-to-end metric's head median is worse than its base median
//!   by more than the metric's `bound`, a fraction of the base median,
//!   in the metric's own `better` direction. A metric missing from any
//!   run is a failure too.

use std::collections::BTreeMap;

use serde::Deserialize;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Bound {
    /// Metric name, as in the result object's `metrics`.
    pub name: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Largest allowed worsening of the median, as a fraction of base.
    pub bound: f64,
}

#[derive(Deserialize)]
struct Benchmark {
    end_to_end: Vec<Bound>,
}

#[derive(Debug, Clone, PartialEq, Deserialize)]
struct Metric {
    value: f64,
}

/// One run's result object: the last line `glacbench` prints.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct RunResult {
    /// Every output check of the run passed.
    pub correct: bool,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    metrics: BTreeMap<String, Metric>,
}

/// One line of the gate's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Whether this check passed.
    pub ok: bool,
    /// What was compared, with the numbers.
    pub what: String,
}

/// Reads the end-to-end bounds out of `BENCHMARK.json`.
///
/// # Errors
///
/// A message when the text is not JSON, lacks `end_to_end`, or names a
/// direction other than `lower` and `higher`.
pub fn parse_bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let bench: Benchmark = serde_json::from_str(benchmark_json).map_err(|e| e.to_string())?;
    match bench
        .end_to_end
        .iter()
        .find(|b| b.better != "lower" && b.better != "higher")
    {
        Some(b) => Err(format!("{}: unknown direction {:?}", b.name, b.better)),
        None => Ok(bench.end_to_end),
    }
}

/// Reads result objects, one per non-empty line.
///
/// # Errors
///
/// A message naming the first line that is not a result object, or
/// saying that there is none.
pub fn parse_runs(text: &str) -> Result<Vec<RunResult>, String> {
    let runs = text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect::<Result<Vec<RunResult>, String>>()?;
    if runs.is_empty() {
        return Err("no result lines".into());
    }
    Ok(runs)
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => f64::NAN,
        n => (values[(n - 1) / 2] + values[n / 2]) / 2.0,
    }
}

fn failed_share(runs: &[RunResult]) -> f64 {
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    failed as f64 / attempted.max(1) as f64
}

/// Compares head's runs with base's under `bounds`. The gate passes
/// when every returned check is `ok`.
pub fn compare(bounds: &[Bound], base: &[RunResult], head: &[RunResult]) -> Vec<Check> {
    let mut checks = Vec::new();
    let mut check = |ok: bool, what: String| checks.push(Check { ok, what });
    let incorrect = |runs: &[RunResult]| runs.iter().filter(|r| !r.correct).count();
    let (bad_base, bad_head) = (incorrect(base), incorrect(head));
    check(
        bad_base + bad_head == 0,
        format!(
            "correct: {bad_base} of {} base and {bad_head} of {} head runs report correct:false",
            base.len(),
            head.len()
        ),
    );
    let (share_base, share_head) = (failed_share(base), failed_share(head));
    check(
        share_head <= share_base,
        format!("failed share: base {share_base}, head {share_head}"),
    );
    for b in bounds {
        let values = |runs: &[RunResult]| {
            runs.iter()
                .map(|r| r.metrics.get(&b.name).map(|m| m.value))
                .collect::<Option<Vec<f64>>>()
        };
        let (Some(base_values), Some(head_values)) = (values(base), values(head)) else {
            check(false, format!("{}: missing from a run", b.name));
            continue;
        };
        let (base_med, head_med) = (median(base_values), median(head_values));
        let ratio = head_med / base_med;
        let worse = if b.better == "lower" {
            ratio - 1.0
        } else {
            1.0 - ratio
        };
        check(
            // A NaN worsening, as from two zero medians, fails.
            worse <= b.bound,
            format!(
                "{} ({} is better, bound {}): base median {base_med}, head median {head_med}, \
                 {:+.1}% worse",
                b.name,
                b.better,
                b.bound,
                worse * 100.0
            ),
        );
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{"paths": ["glacbench"], "end_to_end": [
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.25}]}"#;

    fn run(throughput: f64, p50: f64) -> String {
        format!(
            r#"{{"correct":true,"attempted":10,"failed":0,"metrics":{{"throughput_per_s":{{"value":{throughput},"unit":"1/s"}},"op_p50_us":{{"value":{p50},"unit":"us"}}}}}}"#
        )
    }

    /// The failing checks of `gate` over `base` and `head`, one a line.
    fn failures(base: &[String], head: &[String]) -> String {
        let bounds = parse_bounds(BENCHMARK).expect("bounds");
        let base = parse_runs(&base.join("\n")).expect("base");
        let head = parse_runs(&head.join("\n")).expect("head");
        let checks = compare(&bounds, &base, &head);
        assert_eq!(checks.len(), 4, "correct, failed share and two metrics");
        let failed: Vec<String> = checks
            .into_iter()
            .filter(|c| !c.ok)
            .map(|c| c.what)
            .collect();
        failed.join("\n")
    }

    #[test]
    fn metrics_within_their_bounds_and_improvements_pass() {
        let base = [run(100.0, 10.0), run(90.0, 11.0), run(110.0, 9.0)];
        // Medians 80 (20% lower) and 12 (20% higher): inside 0.25.
        let head = [run(80.0, 12.0), run(70.0, 13.0), run(85.0, 12.0)];
        assert_eq!(failures(&base, &head), "");
        assert_eq!(failures(&base, &[run(1000.0, 1.0)]), "");
    }

    #[test]
    fn a_lower_is_better_metric_past_its_bound_fails() {
        let failed = failures(&[run(100.0, 10.0)], &[run(100.0, 12.6)]);
        assert!(
            failed.starts_with("op_p50_us") && !failed.contains('\n'),
            "{failed}"
        );
    }

    #[test]
    fn a_higher_is_better_metric_past_its_bound_fails() {
        let failed = failures(&[run(100.0, 10.0)], &[run(74.0, 10.0)]);
        assert!(
            failed.starts_with("throughput_per_s") && !failed.contains('\n'),
            "{failed}"
        );
    }

    #[test]
    fn an_incorrect_run_fails() {
        let bad = run(100.0, 10.0).replace("\"correct\":true", "\"correct\":false");
        let failed = failures(&[run(100.0, 10.0)], &[bad]);
        assert!(
            failed.contains("1 of 1 head runs report correct:false"),
            "{failed}"
        );
    }

    #[test]
    fn a_metric_missing_from_head_fails() {
        let head =
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"op_p50_us":{"value":10}}}"#;
        let failed = failures(&[run(100.0, 10.0)], &[head.to_string()]);
        assert_eq!(failed, "throughput_per_s: missing from a run");
    }

    #[test]
    fn a_higher_failed_share_fails() {
        let head = run(100.0, 10.0).replace("\"failed\":0", "\"failed\":1");
        let failed = failures(&[run(100.0, 10.0)], &[head]);
        assert!(failed.starts_with("failed share"), "{failed}");
    }

    #[test]
    fn bad_inputs_are_errors() {
        assert!(parse_runs("").is_err(), "no runs");
        assert!(parse_runs("host {}\n").is_err(), "a human line");
        assert!(parse_bounds(&BENCHMARK.replace("higher", "up")).is_err());
        assert_eq!(median(vec![3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }
}
