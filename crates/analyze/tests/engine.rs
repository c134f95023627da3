//! Engine-level acceptance tests: seeded mutations prove each semantic
//! pack fires on the live workspace, and a stale ledger entry anchors
//! at its own line.

use std::path::{Path, PathBuf};

use glacsweb_analyze::{analyze_sources, workspace_sources, Finding, Report, RuleId};

fn workspace_root() -> PathBuf {
    // crates/analyze -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_default()
}

fn live_sources() -> Vec<(String, String)> {
    workspace_sources(&workspace_root()).expect("workspace readable")
}

/// Applies one textual mutation to one live file and returns the
/// findings the mutated workspace has and the live one does not. Asserts
/// the anchor text exists so a refactor that moves it fails loudly here
/// instead of silently weakening the mutation. Findings elsewhere in the
/// workspace, ledgered or not, cancel out against the baseline.
fn mutate(rel: &str, from: &str, to: &str) -> Vec<Finding> {
    let mut files = live_sources();
    let baseline = analyze_sources("live", &files);
    let entry = files
        .iter_mut()
        .find(|(r, _)| r == rel)
        .unwrap_or_else(|| panic!("{rel} not in workspace"));
    assert!(
        entry.1.contains(from),
        "mutation anchor {from:?} missing from {rel}; update the test"
    );
    entry.1 = entry.1.replace(from, to);
    let key = |f: &Finding| (f.rule, f.file.clone(), f.line, f.message.clone());
    let before: Vec<_> = baseline.findings.iter().map(key).collect();
    let Report { findings, .. } = analyze_sources("live", &files);
    findings
        .into_iter()
        .filter(|f| !before.contains(&key(f)))
        .collect()
}

/// The one finding a mutation adds, which must be of `rule`, unsuppressed
/// and in `file`.
fn only_new(added: Vec<Finding>, rule: RuleId, file: &str) -> Finding {
    let described: Vec<String> = added
        .iter()
        .map(|f| format!("{}:{} [{}] {}", f.file, f.line, f.rule.name(), f.message))
        .collect();
    let [finding]: [Finding; 1] = added.try_into().unwrap_or_else(|_| {
        panic!(
            "expected exactly one new finding:\n{}",
            described.join("\n")
        )
    });
    assert_eq!(finding.rule, rule, "{}", described.join("\n"));
    assert!(!finding.suppressed);
    assert_eq!(finding.file, file);
    finding
}

#[test]
fn live_baseline_is_clean_and_all_packs_are_active() {
    let report = analyze_sources("live", &live_sources());
    let remaining: Vec<String> = report
        .unsuppressed()
        .map(|f| format!("{}:{} [{}] {}", f.file, f.line, f.rule.name(), f.message))
        .collect();
    assert!(
        remaining.is_empty(),
        "unsuppressed findings:\n{}",
        remaining.join("\n")
    );
}

#[test]
fn deleting_a_field_from_a_serialize_path_fires_snapshot_coverage_once() {
    let added = mutate(
        "crates/power/src/rail.rs",
        "self.harvested.to_value()",
        "Value::Null",
    );
    let finding = only_new(added, RuleId::SnapshotCoverage, "crates/power/src/rail.rs");
    assert!(
        finding.message.contains("`harvested`"),
        "{}",
        finding.message
    );
}

#[test]
fn unbalancing_a_wake_branch_fires_rng_draw_budget_once() {
    let added = mutate(
        "crates/fleet/src/kernel.rs",
        "self.counters.windows_lost += 1;",
        "self.counters.windows_lost += 1; let _ = rng.f64();",
    );
    let finding = only_new(added, RuleId::RngDrawBudget, "crates/fleet/src/kernel.rs");
    assert!(
        finding
            .message
            .contains("exceeding the declared budget of 4"),
        "{}",
        finding.message
    );
}

#[test]
fn comparing_a_memo_field_in_partial_eq_fires_derived_state_once() {
    let added = mutate(
        "crates/power/src/rail.rs",
        "&& self.brownout_secs == other.brownout_secs",
        "&& self.brownout_secs == other.brownout_secs && self.taper == other.taper",
    );
    let finding = only_new(added, RuleId::DerivedState, "crates/power/src/rail.rs");
    assert!(finding.message.contains("`taper`"), "{}", finding.message);
}

#[test]
fn removing_the_only_outside_call_fires_dead_pub_once() {
    // The fleet kernel is the only file outside env that names
    // `OuStepCache::decay_pow`.
    let added = mutate(
        "crates/fleet/src/kernel.rs",
        ".decay_pow(",
        ".decay_pow_renamed(",
    );
    let finding = only_new(added, RuleId::DeadPub, "crates/env/src/daycache.rs");
    assert!(
        finding.message.contains("`pub fn decay_pow`"),
        "{}",
        finding.message
    );
}

#[test]
fn stale_ledger_entry_carries_its_own_location() {
    // Satellite regression: a deliberately stale entry's finding must
    // point at the ledger comment itself (clickable from --deny output),
    // not at any rule's original site.
    let mut files = live_sources();
    let entry = files
        .iter_mut()
        .find(|(r, _)| r == "crates/power/src/rail.rs")
        .expect("rail.rs present");
    let stale_line_text =
        "// glacsweb: allow(determinism, reason = \"deliberately stale for the regression test\")";
    entry.1 = format!("{stale_line_text}\n{}", entry.1);
    let report = analyze_sources("live", &files);
    let stale: Vec<_> = report
        .findings
        .iter()
        .filter(|f| {
            f.rule == RuleId::SuppressionHygiene && f.message.contains("deliberately stale")
        })
        .collect();
    assert_eq!(stale.len(), 1, "exactly one stale-entry finding");
    assert_eq!(stale[0].file, "crates/power/src/rail.rs");
    assert_eq!(
        stale[0].line, 1,
        "must anchor at the ledger entry's own line"
    );
    assert!(stale[0].message.contains("matches no finding"));
}
