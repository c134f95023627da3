//! Fixture tests: for every rule, at least one snippet that must fire
//! and one that must not, plus the scoping and suppression mechanics.
//!
//! Each fixture is analyzed under a synthetic workspace-relative path,
//! because the path is what places a file in (or out of) a rule's scope.

use glacsweb_analyze::{analyze_source, analyze_sources, RuleId};

/// Findings of one rule in `src` analyzed under `rel`.
fn fire(rel: &str, src: &str, rule: RuleId) -> usize {
    analyze_source(rel, src)
        .0
        .iter()
        .filter(|f| f.rule == rule && !f.suppressed)
        .count()
}

// ---------------------------------------------------------------- determinism

#[test]
fn determinism_fires_on_hashmap_in_sim_lib() {
    let src =
        "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
    assert!(fire("crates/sim/src/fake.rs", src, RuleId::Determinism) >= 1);
}

#[test]
fn determinism_fires_on_wall_clock_and_env() {
    let src = "fn f() { let t = std::time::Instant::now(); let v = std::env::var(\"X\"); }\n";
    assert_eq!(
        fire("crates/sweep/src/fake.rs", src, RuleId::Determinism),
        2
    );
}

#[test]
fn determinism_ignores_btreemap_and_out_of_scope_crates() {
    let ordered = "use std::collections::BTreeMap;\nfn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); }\n";
    assert_eq!(
        fire("crates/env/src/fake.rs", ordered, RuleId::Determinism),
        0
    );
    // station is not in the determinism scope (it is in the panic scope).
    let hash = "use std::collections::HashMap;\n";
    assert_eq!(
        fire("crates/station/src/fake.rs", hash, RuleId::Determinism),
        0
    );
}

#[test]
fn determinism_ignores_comments_strings_and_tests() {
    let src = r#"
// a HashMap would be wrong here
fn f() { let s = "HashMap"; }
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() { let _ = std::time::Instant::now(); }
}
"#;
    assert_eq!(fire("crates/sim/src/fake.rs", src, RuleId::Determinism), 0);
}

#[test]
fn determinism_skips_test_and_example_files() {
    let src = "fn f() { let _ = std::time::Instant::now(); }\n";
    assert_eq!(
        fire("crates/sim/tests/fake.rs", src, RuleId::Determinism),
        0
    );
    assert_eq!(fire("examples/fake.rs", src, RuleId::Determinism), 0);
    assert_eq!(
        fire("crates/bench/src/bin/gate.rs", src, RuleId::Determinism),
        0
    );
}

// --------------------------------------------------------------- panic-freedom

#[test]
fn panic_freedom_fires_on_unwrap_expect_and_macros() {
    let src = "fn f(x: Option<u32>) -> u32 { let _ = x.expect(\"y\"); match x { Some(v) => v, None => panic!(\"no\") } }\n";
    assert_eq!(
        fire("crates/station/src/fake.rs", src, RuleId::PanicFreedom),
        2
    );
    let src2 = "fn g(x: Option<u32>) -> u32 { x.unwrap() }\nfn h() { unreachable!() }\n";
    assert_eq!(
        fire("crates/link/src/fake.rs", src2, RuleId::PanicFreedom),
        2
    );
}

#[test]
fn panic_freedom_does_not_fire_on_unwrap_or_variants() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_else(|| 1) + x.unwrap_or_default() }\n";
    assert_eq!(
        fire("crates/power/src/fake.rs", src, RuleId::PanicFreedom),
        0
    );
}

#[test]
fn panic_freedom_fires_on_indexing_but_not_array_types() {
    let src = "fn f(v: &[u32], i: usize) -> u32 { v[i] }\n";
    assert_eq!(
        fire("crates/server/src/fake.rs", src, RuleId::PanicFreedom),
        1
    );
    let benign = "fn f() -> [u8; 4] { let x: [u8; 4] = [0; 4]; x }\nstatic T: [u32; 2] = [1, 2];\n";
    assert_eq!(
        fire("crates/server/src/fake.rs", benign, RuleId::PanicFreedom),
        0
    );
    // Range slicing panics too.
    let slicing = "fn f(v: &[u32]) -> &[u32] { &v[1..] }\n";
    assert_eq!(
        fire("crates/faults/src/fake.rs", slicing, RuleId::PanicFreedom),
        1
    );
}

#[test]
fn panic_freedom_exempts_tests_and_out_of_scope_crates() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); panic!(\"x\"); }\n}\n";
    assert_eq!(
        fire("crates/station/src/fake.rs", src, RuleId::PanicFreedom),
        0
    );
    // sim is not in the panic scope.
    let lib = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert_eq!(fire("crates/sim/src/fake.rs", lib, RuleId::PanicFreedom), 0);
}

// -------------------------------------------------------------- numeric-safety

#[test]
fn numeric_safety_fires_on_int_casts_and_float_eq() {
    let src = "fn f(x: f64) -> u32 { x as u32 }\nfn g(x: f64) -> bool { x == 0.0 }\n";
    assert_eq!(
        fire("crates/power/src/fake.rs", src, RuleId::NumericSafety),
        2
    );
    assert_eq!(
        fire(
            "crates/station/src/power_state.rs",
            src,
            RuleId::NumericSafety
        ),
        2
    );
    assert_eq!(
        fire("crates/station/src/schedule.rs", src, RuleId::NumericSafety),
        2
    );
}

#[test]
fn numeric_safety_allows_float_casts_epsilon_compares_and_other_files() {
    let benign = "fn f(x: u32) -> f64 { f64::from(x) }\nfn g(a: f64, b: f64) -> bool { (a - b).abs() < 1e-9 }\nfn h(x: u8) -> u64 { u64::from(x) }\n";
    assert_eq!(
        fire("crates/power/src/fake.rs", benign, RuleId::NumericSafety),
        0
    );
    // Out of the numeric scope: the same cast is allowed elsewhere.
    let cast = "fn f(x: f64) -> u32 { x as u32 }\n";
    assert_eq!(
        fire("crates/station/src/station.rs", cast, RuleId::NumericSafety),
        0
    );
    assert_eq!(
        fire("crates/sim/src/fake.rs", cast, RuleId::NumericSafety),
        0
    );
}

// ---------------------------------------------------------------- perf-hygiene

#[test]
fn perf_hygiene_fires_on_format_collect_and_clone_in_hot_paths() {
    let src = "fn f(x: u32, v: &[String]) -> Vec<String> {\n    let s = format!(\"{x}\");\n    let c = v.first().map(|t| t.clone());\n    v.iter().map(|t| t.to_uppercase()).collect::<Vec<_>>()\n}\n";
    assert_eq!(fire("crates/env/src/fake.rs", src, RuleId::PerfHygiene), 3);
    assert_eq!(
        fire("crates/power/src/fake.rs", src, RuleId::PerfHygiene),
        3
    );
    assert_eq!(fire("crates/sim/src/event.rs", src, RuleId::PerfHygiene), 3);
    // The station's daily window path, the update check's MD5, the
    // replay client, the §III state rules every state report and
    // override query runs, and the telemetry store are in scope…
    for hot_file in [
        "crates/probe/src/protocol.rs",
        "crates/probe/src/firmware.rs",
        "crates/link/src/probe_radio.rs",
        "crates/hw/src/storage.rs",
        "crates/hw/src/bus.rs",
        "crates/station/src/data.rs",
        "crates/station/src/md5.rs",
        "crates/service/src/load.rs",
        "crates/server/src/state_sync.rs",
        "crates/obs/src/memory.rs",
    ] {
        assert_eq!(fire(hot_file, src, RuleId::PerfHygiene), 3, "{hot_file}");
    }
    // …but the rest of those crates is not.
    for cold_file in [
        "crates/probe/src/mortality.rs",
        "crates/link/src/gprs.rs",
        "crates/hw/src/dgps.rs",
        "crates/station/src/station.rs",
        "crates/obs/src/lib.rs",
        "crates/obs/src/ndjson.rs",
        "crates/server/src/server.rs",
        "crates/server/src/warehouse.rs",
    ] {
        assert_eq!(fire(cold_file, src, RuleId::PerfHygiene), 0, "{cold_file}");
    }
}

#[test]
fn perf_hygiene_fires_on_to_string_and_covers_the_service_hot_path() {
    let src = "fn f(x: u32) -> String { x.to_string() }\n";
    assert_eq!(fire("crates/env/src/fake.rs", src, RuleId::PerfHygiene), 1);
    // The request→response path is in scope…
    assert_eq!(
        fire("crates/service/src/http.rs", src, RuleId::PerfHygiene),
        1
    );
    assert_eq!(
        fire("crates/service/src/core.rs", src, RuleId::PerfHygiene),
        1
    );
    // …and so is the replay client that measures it…
    assert_eq!(
        fire("crates/service/src/load.rs", src, RuleId::PerfHygiene),
        1
    );
    // …but the serve bin is tooling code.
    assert_eq!(
        fire("crates/service/src/bin/serve.rs", src, RuleId::PerfHygiene),
        0
    );
    // `to_string` must be a method call: `Display::to_string` paths and
    // idents named to_string alone do not fire.
    let benign = "fn f(s: &str) -> &str { s }\n";
    assert_eq!(
        fire("crates/service/src/http.rs", benign, RuleId::PerfHygiene),
        0
    );
}

#[test]
fn perf_hygiene_allows_cloned_iterators_and_annotated_collect() {
    // `.cloned()` / `.clone_from()` are not `.clone()`, and a `collect()`
    // without the Vec turbofish is the caller's choice of container.
    let benign =
        "fn f(v: &[u32]) -> Vec<u32> { let out: Vec<u32> = v.iter().cloned().collect(); out }\n";
    assert_eq!(
        fire("crates/env/src/fake.rs", benign, RuleId::PerfHygiene),
        0
    );
}

#[test]
fn perf_hygiene_exempts_cold_files_tests_and_bins() {
    let src = "fn f(x: u32) -> String { format!(\"{x}\") }\n";
    // Out of the hot-path scope entirely.
    assert_eq!(
        fire("crates/station/src/fake.rs", src, RuleId::PerfHygiene),
        0
    );
    assert_eq!(fire("crates/sim/src/units.rs", src, RuleId::PerfHygiene), 0);
    // Bins and tests are never lib scope.
    assert_eq!(
        fire("crates/env/src/bin/fake.rs", src, RuleId::PerfHygiene),
        0
    );
    assert_eq!(
        fire("crates/env/tests/fake.rs", src, RuleId::PerfHygiene),
        0
    );
    let in_test = "#[cfg(test)]\nmod tests {\n    fn f(x: u32) -> String { format!(\"{x}\") }\n}\n";
    assert_eq!(
        fire("crates/env/src/fake.rs", in_test, RuleId::PerfHygiene),
        0
    );
}

#[test]
fn perf_hygiene_suppression_ledger_applies() {
    let src = "fn f(x: u32) -> String {\n    // glacsweb: allow(perf-hygiene, reason = \"error path, runs once\")\n    format!(\"{x}\")\n}\n";
    let (findings, sups) = analyze_source("crates/power/src/fake.rs", src);
    assert!(findings
        .iter()
        .all(|f| f.suppressed || f.rule != RuleId::PerfHygiene));
    assert!(sups.iter().all(|s| s.used));
}

// --------------------------------------------------------------- crate-hygiene

#[test]
fn crate_hygiene_fires_on_missing_attributes() {
    let bare = "//! A crate.\npub fn f() {}\n";
    assert_eq!(
        fire("crates/power/src/lib.rs", bare, RuleId::CrateHygiene),
        2
    );
    let half = "#![forbid(unsafe_code)]\npub fn f() {}\n";
    assert_eq!(
        fire("crates/power/src/lib.rs", half, RuleId::CrateHygiene),
        1
    );
}

#[test]
fn crate_hygiene_satisfied_by_both_attributes() {
    let good = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}\n";
    assert_eq!(
        fire("crates/power/src/lib.rs", good, RuleId::CrateHygiene),
        0
    );
    // Only crate roots are checked.
    let bare = "pub fn f() {}\n";
    assert_eq!(
        fire("crates/power/src/other.rs", bare, RuleId::CrateHygiene),
        0
    );
}

// -------------------------------------------------------------------- dead-pub

/// Messages of the unsuppressed dead-pub findings when `files` are
/// analyzed together as one workspace.
fn dead_pub(files: &[(&str, &str)]) -> Vec<String> {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(rel, src)| ((*rel).to_string(), (*src).to_string()))
        .collect();
    analyze_sources("", &files)
        .findings
        .into_iter()
        .filter(|f| f.rule == RuleId::DeadPub && !f.suppressed)
        .map(|f| f.message)
        .collect()
}

const LIB: &str = "pub fn used() -> u32 {\n    helper()\n}\n\
                   pub fn helper() -> u32 {\n    1\n}\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        assert_eq!(super::used(), 1);\n    }\n}\n";

#[test]
fn dead_pub_fires_on_a_fn_named_only_in_its_own_file() {
    // `used` is named only by its own tests and `helper` only by `used`:
    // uses inside the defining file, test code included, do not count.
    let hits = dead_pub(&[
        ("crates/power/src/fake.rs", LIB),
        ("crates/power/src/other.rs", "fn unrelated() {}\n"),
    ]);
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits.iter().any(|m| m.contains("`pub fn used`")), "{hits:?}");
    assert!(
        hits.iter().any(|m| m.contains("`pub fn helper`")),
        "{hits:?}"
    );
}

#[test]
fn dead_pub_counts_tests_and_bins_in_other_files_as_users() {
    let names_both = "fn main() {\n    let _ = fake::used() + fake::helper();\n}\n";
    for user in [
        "crates/power/tests/fake.rs",
        "crates/power/src/bin/tool.rs",
        "tests/fake.rs",
    ] {
        let hits = dead_pub(&[("crates/power/src/fake.rs", LIB), (user, names_both)]);
        assert!(hits.is_empty(), "{user}: {hits:?}");
    }
}

#[test]
fn dead_pub_ignores_restricted_visibility_trait_methods_and_bins() {
    let src = "pub(crate) fn narrow() {}\npub(super) fn narrower() {}\n\
               pub struct Meter;\n\
               impl std::fmt::Display for Meter {\n\
                   fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n\
                       write!(f, \"meter\")\n\
                   }\n\
               }\n\
               pub trait Gauge {\n    fn read(&self) -> u32 {\n        0\n    }\n}\n";
    assert!(dead_pub(&[("crates/power/src/fake.rs", src)]).is_empty());
    // Binaries and the root facade are entry points, not API.
    let entry = "pub fn helper() {}\nfn main() {}\n";
    for rel in [
        "crates/power/src/bin/tool.rs",
        "crates/analyze/src/main.rs",
        "src/lib.rs",
    ] {
        assert!(dead_pub(&[(rel, entry)]).is_empty(), "{rel}");
    }
}

#[test]
fn dead_pub_suppression_ledger_applies() {
    let src = "// glacsweb: allow(dead-pub, reason = \"called by an out-of-tree harness\")\n\
               pub fn external() {}\n";
    let (findings, sups) = analyze_source("crates/power/src/fake.rs", src);
    assert!(findings
        .iter()
        .all(|f| f.suppressed || f.rule != RuleId::DeadPub));
    assert!(sups.iter().all(|s| s.used));
}

// ----------------------------------------------------------------- suppression

#[test]
fn suppression_on_same_line_silences_the_finding() {
    let src = "fn f(v: &[u32], i: usize) -> u32 { v[i] } // glacsweb: allow(panic-freedom, reason = \"i is clamped by the caller\")\n";
    let (findings, sups) = analyze_source("crates/station/src/fake.rs", src);
    assert!(findings
        .iter()
        .all(|f| f.suppressed || f.rule != RuleId::PanicFreedom));
    assert_eq!(sups.len(), 1);
    assert!(sups.iter().all(|s| s.used));
    assert_eq!(
        sups.first().map(|s| s.reason.as_str()),
        Some("i is clamped by the caller")
    );
}

#[test]
fn suppression_on_line_above_silences_the_finding() {
    let src = "fn f(v: &[u32], i: usize) -> u32 {\n    // glacsweb: allow(panic-freedom, reason = \"bounds proven above\")\n    v[i]\n}\n";
    let (findings, _) = analyze_source("crates/station/src/fake.rs", src);
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.rule == RuleId::PanicFreedom && !f.suppressed)
            .count(),
        0
    );
}

#[test]
fn suppression_of_wrong_rule_does_not_silence() {
    let src = "fn f(v: &[u32], i: usize) -> u32 {\n    // glacsweb: allow(determinism, reason = \"wrong rule\")\n    v[i]\n}\n";
    let (findings, _) = analyze_source("crates/station/src/fake.rs", src);
    // The indexing finding survives, and the mismatched entry is stale.
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.rule == RuleId::PanicFreedom && !f.suppressed)
            .count(),
        1
    );
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.rule == RuleId::SuppressionHygiene)
            .count(),
        1
    );
}

#[test]
fn malformed_suppressions_are_their_own_findings() {
    let unknown = "// glacsweb: allow(no-such-rule, reason = \"x\")\nfn f() {}\n";
    assert_eq!(
        fire(
            "crates/station/src/fake.rs",
            unknown,
            RuleId::SuppressionHygiene
        ),
        1
    );
    let reasonless = "fn f(v: &[u32]) -> u32 { v[0] } // glacsweb: allow(panic-freedom)\n";
    let (findings, _) = analyze_source("crates/station/src/fake.rs", reasonless);
    // Missing reason: the entry is rejected AND the finding survives.
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.rule == RuleId::SuppressionHygiene)
            .count(),
        1
    );
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.rule == RuleId::PanicFreedom && !f.suppressed)
            .count(),
        1
    );
}

#[test]
fn unused_suppression_is_flagged_and_doc_examples_are_not_entries() {
    let unused = "// glacsweb: allow(panic-freedom, reason = \"nothing here fires\")\nfn f() {}\n";
    assert_eq!(
        fire(
            "crates/station/src/fake.rs",
            unused,
            RuleId::SuppressionHygiene
        ),
        1
    );
    let doc = "/// // glacsweb: allow(panic-freedom, reason = \"just documentation\")\nfn f() {}\n";
    assert_eq!(
        fire(
            "crates/station/src/fake.rs",
            doc,
            RuleId::SuppressionHygiene
        ),
        0
    );
}

// ------------------------------------------------------------- serde(skip)

#[test]
fn derived_state_accepts_a_memo_field_under_serde_skip() {
    let src = |attr: &str| {
        format!(
            "#[derive(Serialize)]\nstruct Rail {{\n    charge: f64,\n    {attr}\n    taper: TaperMemo,\n}}\n"
        )
    };
    let skipped = src("#[serde(skip)]");
    assert_eq!(
        fire("crates/power/src/fake.rs", &skipped, RuleId::DerivedState),
        0
    );
    assert_eq!(
        fire("crates/power/src/fake.rs", &src(""), RuleId::DerivedState),
        1
    );
}

#[test]
fn serde_skip_on_a_state_field_fires_snapshot_coverage() {
    let src = "#[derive(Serialize, Deserialize)]\nstruct Rail {\n    #[serde(skip)]\n    charge: f64,\n}\n";
    assert_eq!(
        fire("crates/power/src/fake.rs", src, RuleId::SnapshotCoverage),
        1
    );
}
