//! The analyzer's acceptance gate, turned on itself: the live workspace
//! must analyze clean under `--deny` semantics, and the suppression
//! ledger must be fully justified and fully used.

use std::path::Path;

use glacsweb_analyze::analyze_workspace;
use serde::Value;

fn workspace_root() -> std::path::PathBuf {
    // crates/analyze -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_default()
}

#[test]
fn live_workspace_is_clean_under_deny() {
    let report = analyze_workspace(&workspace_root()).expect("workspace readable");
    let remaining: Vec<String> = report
        .unsuppressed()
        .map(|f| format!("{}:{} [{}] {}", f.file, f.line, f.rule.name(), f.message))
        .collect();
    assert!(
        remaining.is_empty(),
        "unsuppressed findings in the live workspace:\n{}",
        remaining.join("\n")
    );
}

#[test]
fn live_ledger_is_justified_and_fully_used() {
    let report = analyze_workspace(&workspace_root()).expect("workspace readable");
    assert!(
        !report.suppressions.is_empty(),
        "the workspace is expected to carry a documented ledger (e.g. the md5 block-word lookup)"
    );
    for s in &report.suppressions {
        assert!(
            s.reason.len() >= 10,
            "{}:{} suppression reason too thin: {:?}",
            s.file,
            s.line,
            s.reason
        );
        assert!(s.used, "{}:{} stale suppression", s.file, s.line);
    }
}

#[test]
fn scan_covers_the_whole_workspace() {
    let report = analyze_workspace(&workspace_root()).expect("workspace readable");
    assert!(
        report.files_scanned > 100,
        "expected the full workspace, scanned only {}",
        report.files_scanned
    );
}

#[test]
fn json_report_is_parseable_and_consistent() {
    let report = analyze_workspace(&workspace_root()).expect("workspace readable");
    let json = report.to_json();
    let value: Value = serde_json::from_str(&json).expect("ANALYSIS.json parses");
    let Value::Map(top) = value else {
        panic!("top level must be an object");
    };
    let get = |k: &str| {
        top.iter()
            .find(|(key, _)| matches!(key, Value::Str(s) if s == k))
            .map(|(_, v)| v)
    };
    // Numeric schema version, mirroring BENCH_PERF.json's convention.
    assert!(
        matches!(get("schema"), Some(Value::U64(2))),
        "schema must be the numeric version 2, got {:?}",
        get("schema")
    );
    assert!(matches!(get("tool"), Some(Value::Str(s)) if s == "glacsweb-analyze"));
    let Some(Value::Seq(rules)) = get("rules") else {
        panic!("rules array missing");
    };
    assert_eq!(rules.len(), 10);
    let Some(Value::Map(summary)) = get("summary") else {
        panic!("summary missing");
    };
    let clean = summary
        .iter()
        .find(|(k, _)| matches!(k, Value::Str(s) if s == "clean"))
        .map(|(_, v)| matches!(v, Value::Bool(true)));
    assert_eq!(clean, Some(true), "live workspace must report clean: true");
    let Some(Value::Seq(sups)) = get("suppressions") else {
        panic!("suppressions array missing");
    };
    assert_eq!(sups.len(), report.suppressions.len());
}
