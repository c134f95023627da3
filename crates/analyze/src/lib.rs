//! `glacsweb-analyze`: the workspace's own lint engine.
//!
//! The paper's core field lesson (§IV–§V) is that the deployed system
//! must never hang or die unrecoverably — the 2-hour hardware watchdog
//! and RTC-reset recovery exist because code review alone did not keep
//! the Gumsense nodes alive. This workspace has a second load-bearing
//! invariant on top: the sweep engine promises byte-identical output at
//! any thread count. Neither invariant is visible to `rustc`, so this
//! crate enforces both statically, plus the unit-math and crate-hygiene
//! rules that protect them at the edges. See [`rules`] for the rule
//! table and [`suppress`] for the inline ledger that is the only way to
//! silence a finding.
//!
//! Every run takes one path, [`analyze_sources`], in two phases. Phase
//! one is per-file and fans out over the machine's cores (at most 8):
//! lex ([`lexer`]), token rules ([`rules`]), ledger scan ([`suppress`]),
//! item extraction ([`parser`]), and fact reduction ([`semantic`]), a
//! pure function of one file's text. Phase two is single-threaded and
//! deterministic: the per-file facts join into a workspace item table,
//! the semantic packs run, the ledger is matched, and findings normalize
//! into a stable order, so the report is byte-identical at any core
//! count. There is no cache: a cold run of the whole workspace takes a
//! fraction of a second.
//!
//! The analyzer is deliberately dependency-free: it lexes Rust with its
//! own comment/string-aware tokenizer rather than `syn`, and writes all
//! of its JSON by hand ([`json`], [`report`], [`sarif`]), so it builds
//! first and fastest in the air-gapped CI image.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod sarif;
pub mod semantic;
pub mod suppress;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

pub use report::Report;
pub use rules::{Finding, RuleId};
pub use suppress::Suppression;

use semantic::FileFacts;

/// The pristine result of phase-one analysis of one file: token-rule and
/// malformed-ledger findings (before suppression matching), the parsed
/// ledger entries (with `used` unset), and the semantic facts.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Token-level and malformed-suppression findings.
    pub findings: Vec<Finding>,
    /// Parsed ledger entries.
    pub sups: Vec<Suppression>,
    /// Facts for the workspace-level semantic packs.
    pub facts: FileFacts,
}

/// Phase one: analyzes a single file's source text under its
/// workspace-relative path (the path determines which rules are in
/// scope). Pure in `(rel, source)`, so files analyze in parallel.
pub fn analyze_file(rel: &str, source: &str) -> FileAnalysis {
    let toks = lexer::lex(source);
    let (mask, test_ranges) = rules::test_mask(&toks);
    let mut findings = rules::check_tokens(rel, &toks, &mask);
    let (sups, malformed) = suppress::scan(rel, source, &test_ranges);
    findings.extend(malformed);
    let items = parser::parse_items(source, &toks, &mask);
    let facts = semantic::extract_facts(rel, &toks, &items);
    FileAnalysis {
        rel: rel.to_string(),
        findings,
        sups,
        facts,
    }
}

/// Phase two: joins per-file results into the final report — runs the
/// semantic packs over the combined fact table, matches the suppression
/// ledger (which can silence semantic findings too), reports stale
/// entries, and normalizes ordering.
fn finish(root_label: &str, mut files: Vec<FileAnalysis>) -> Report {
    let refs: Vec<&FileFacts> = files.iter().map(|f| &f.facts).collect();
    let semantic_findings = semantic::check(&refs);
    let mut by_file: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in semantic_findings {
        by_file.entry(f.file.clone()).or_default().push(f);
    }

    let files_scanned = files.len();
    let mut findings = Vec::new();
    let mut suppressions = Vec::new();
    for fa in &mut files {
        let mut f = std::mem::take(&mut fa.findings);
        if let Some(extra) = by_file.remove(&fa.rel) {
            f.extend(extra);
        }
        let mut sups = std::mem::take(&mut fa.sups);
        let unused = suppress::apply(&mut f, &mut sups);
        f.extend(unused);
        findings.extend(f);
        suppressions.extend(sups);
    }
    // Semantic findings can only anchor in analyzed files, but never
    // drop a finding even if that invariant breaks.
    for (_, extra) in by_file {
        findings.extend(extra);
    }

    let mut report = Report {
        root: root_label.to_string(),
        files_scanned,
        findings,
        suppressions,
    };
    report.normalize();
    report
}

/// Analyzes a set of in-memory `(rel, source)` files as one workspace.
/// This is the one engine path: the CLI, the mutation tests (read the
/// live sources, patch one file, re-run without touching disk) and the
/// fixture tests all come through here.
pub fn analyze_sources(root_label: &str, files: &[(String, String)]) -> Report {
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8);
    finish(root_label, analyze_files(files, workers))
}

/// Phase one over `workers` scoped threads, same idiom as the sweep
/// engine: an atomic index hands out files, each worker keeps (slot,
/// result) pairs locally, and the merge is by slot, so the result order
/// never depends on scheduling. A worker panic propagates to the caller.
fn analyze_files(files: &[(String, String)], workers: usize) -> Vec<FileAnalysis> {
    let workers = workers.clamp(1, files.len().max(1));
    let next = AtomicUsize::new(0);
    let mut produced: Vec<(usize, FileAnalysis)> = Vec::with_capacity(files.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((rel, source)) = files.get(i) else {
                            break;
                        };
                        local.push((i, analyze_file(rel, source)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(local) => produced.extend(local),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    produced.sort_unstable_by_key(|&(i, _)| i);
    produced.into_iter().map(|(_, fa)| fa).collect()
}

/// Single-file compatibility wrapper over the full two-phase engine (the
/// semantic packs see just this one file's facts). This is the unit the
/// fixture tests drive.
pub fn analyze_source(rel: &str, source: &str) -> (Vec<Finding>, Vec<Suppression>) {
    let report = analyze_sources("", &[(rel.to_string(), source.to_string())]);
    (report.findings, report.suppressions)
}

/// Walks `crates/`, `src/`, `tests/`, and `examples/` under `root` and
/// analyzes every `.rs` file. `vendor/` and `target/` are never visited:
/// vendored third-party subsets are not held to project rules.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let sources = workspace_sources(root)?;
    Ok(analyze_sources(&root.display().to_string(), &sources))
}

/// Reads every in-scope `.rs` file under `root` as `(rel, source)`
/// pairs, sorted by path. This is the exact input set of a workspace
/// run; the mutation tests read it, patch one file in memory, and re-run
/// the engine via [`analyze_sources`].
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut paths = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        collect_rs(&root.join(top), &mut paths)?;
    }
    // Deterministic reporting order regardless of directory-entry order —
    // the analyzer holds itself to its own determinism rule.
    paths.sort();
    let mut sources = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = rel_path(root, path);
        let source = fs::read_to_string(path)?;
        sources.push((rel, source));
    }
    Ok(sources)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Finds the workspace root by walking up from `start` until a directory
/// holding a `Cargo.toml` that declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_byte_identical_at_1_and_8_workers() {
        // crates/analyze -> crates -> workspace root
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        let sources = workspace_sources(root).expect("workspace readable");
        let run = |workers| finish("live", analyze_files(&sources, workers));
        let (one, eight) = (run(1), run(8));
        assert!(one.files_scanned > 100);
        assert_eq!(
            one.to_json(),
            eight.to_json(),
            "ANALYSIS.json must not depend on the worker count"
        );
        assert_eq!(one.render_text(), eight.render_text());
        assert_eq!(sarif::to_sarif(&one), sarif::to_sarif(&eight));
    }
}
