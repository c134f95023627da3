//! Self-tests at smoke size: every reported metric is printed with its
//! unit, a wrong expected digest is reported as failures, only compared
//! outputs count as attempted, and `BENCHMARK.json` names exactly the
//! metrics the benchmark prints.

use std::path::{Path, PathBuf};

use glacbench::{run, Options, Report, Size, Workload, END_TO_END, PER_LAYER};
use serde::Value;

fn smoke(workload: Workload, trace: bool) -> Options {
    let mut opts = Options::new(workload);
    opts.size = Size::Smoke;
    opts.seconds = 0.0;
    opts.trace = trace;
    opts.threads = 2;
    opts.scratch =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{}-{trace}", workload.name()));
    opts
}

/// The result line parsed back, with its `metrics` object.
fn result_line(report: &Report) -> Value {
    let json = report.json();
    assert!(!json.contains('\n'), "the result is one line");
    let value: Value = serde_json::from_str(&json).expect("the result line is JSON");
    let keys: Vec<&str> = value
        .as_map()
        .expect("an object")
        .iter()
        .filter_map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    value
}

/// Asserts the metrics object holds exactly `table`, each with its unit.
fn assert_metrics(value: &Value, table: &[(&str, &str)], workload: Workload) {
    let metrics = value
        .get("metrics")
        .and_then(Value::as_map)
        .expect("metrics object");
    let names: Vec<&str> = metrics.iter().filter_map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = table.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, want, "{}", workload.name());
    for &(name, unit) in table {
        let metric = value
            .get("metrics")
            .and_then(|m| m.get(name))
            .expect("metric present");
        assert_eq!(
            metric.get("unit").and_then(Value::as_str),
            Some(unit),
            "{name}"
        );
        let v = metric
            .get("value")
            .and_then(Value::as_f64)
            .expect("numeric value");
        assert!(v.is_finite(), "{} {name} = {v}", workload.name());
    }
}

#[test]
fn plain_runs_print_every_end_to_end_metric_with_its_unit() {
    for w in Workload::ALL {
        let report = run(&smoke(w, false));
        assert!(report.correct(), "{}", report.human());
        let value = result_line(&report);
        assert_metrics(&value, END_TO_END, w);
        for m in &report.metrics {
            assert!(m.value > 0.0 && m.samples > 0, "{} {m:?}", w.name());
        }
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_with_its_unit() {
    for w in Workload::ALL {
        let report = run(&smoke(w, true));
        assert!(report.correct(), "{}", report.human());
        let value = result_line(&report);
        assert_metrics(&value, PER_LAYER, w);
        let overhead = report
            .metric("bench.trace_overhead_frac")
            .expect("overhead");
        assert!(overhead.samples > 0, "{}", w.name());
    }
}

#[test]
fn a_wrong_expected_digest_is_reported_as_failures() {
    for w in Workload::ALL {
        let mut opts = smoke(w, false);
        opts.expect_digest = Some(0x0123_4567_89ab_cdef);
        let report = run(&opts);
        assert!(!report.correct(), "{}", w.name());
        assert!(report.measured.checks.failed > 0, "{}", w.name());
        let value = result_line(&report);
        assert!(matches!(value.get("correct"), Some(Value::Bool(false))));
        assert!(report.human().contains("FAILED"), "{}", w.name());
    }
}

#[test]
fn only_compared_outputs_count_as_attempted() {
    // No seed is pinned at smoke size, so the first output of each kind is
    // the reference the later ones are compared with, not a check itself.
    // Fleet: the checkpointed repetition 1 against the straight repetition 0.
    let fleet = run(&smoke(Workload::Fleet, false));
    assert!(fleet.correct(), "{}", fleet.human());
    assert_eq!(fleet.measured.checks.attempted, 1);
    // Campaign: one repetition, so only the cell-0 checkpoint and resume.
    let campaign = run(&smoke(Workload::Campaign, false));
    assert!(campaign.correct(), "{}", campaign.human());
    assert_eq!(campaign.measured.checks.attempted, 1);
    // Service: pass P's transcript against pass L's.
    let service = run(&smoke(Workload::Service, false));
    assert!(service.correct(), "{}", service.human());
    let requests = service.measured.plain.median("service.requests");
    assert_eq!(Some(service.measured.checks.attempted as f64), requests);
}

#[test]
fn benchmark_json_names_exactly_the_printed_metrics() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let table = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Value::as_seq)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(table("end_to_end"), owned(END_TO_END));
    assert_eq!(table("per_layer"), owned(PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_seq)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}

#[test]
fn one_connection_past_the_request_cap_fails_its_passes_instead_of_crashing() {
    // At full size one connection carries all 116,148 requests, past the
    // server's 100,000-request per-connection cap; `replay` aborts and
    // every request of both passes must count as failed.
    let mut opts = Options::new(Workload::Service);
    opts.seconds = 0.0;
    opts.threads = 1;
    opts.scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("service-one-connection");
    let report = run(&opts);
    let m = &report.measured;
    let requests = m.plain.median("service.requests").expect("requests");
    assert!(m.plain.median("service.max_conn_requests") > Some(100_000.0));
    assert!(!report.correct());
    assert_eq!(m.checks.failed as f64, 2.0 * requests);
    assert!(
        report.human().contains("closed mid-response"),
        "{}",
        report.human()
    );
}
