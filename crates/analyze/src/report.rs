//! Rendering: human-readable diagnostics and the `ANALYSIS.json` artifact.
//!
//! JSON emission is hand-rolled (the analyzer is dependency-free by
//! design); the schema is small and flat enough that a string builder
//! over [`escape`] is simpler than pulling in a serializer.

use crate::json::escape;
use crate::rules::{Finding, RuleId};
use crate::suppress::Suppression;

/// `ANALYSIS.json` format version. 1 was the string-schema token-rule
/// report; 2 adds the semantic rule packs and the numeric version field.
pub const REPORT_SCHEMA: u64 = 2;

/// The complete result of analyzing a workspace.
#[derive(Debug)]
pub struct Report {
    /// Workspace root the paths are relative to.
    pub root: String,
    /// Number of `.rs` files lexed.
    pub files_scanned: usize,
    /// Every finding, including suppressed ones, sorted by (file, line).
    pub findings: Vec<Finding>,
    /// Every ledger entry, sorted by (file, line).
    pub suppressions: Vec<Suppression>,
}

impl Report {
    /// Findings not covered by a ledger entry — what `--deny` gates on.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.suppressed)
    }

    /// Sorts findings and suppressions into stable reporting order.
    pub fn normalize(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.suppressions
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    }

    /// The human-readable diagnostic listing.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in self.unsuppressed() {
            out.push_str(&format!(
                "error[{}]: {}\n  --> {}:{}\n",
                f.rule.name(),
                f.message,
                f.file,
                f.line
            ));
        }
        let denied = self.unsuppressed().count();
        let suppressed = self.findings.len() - denied;
        out.push_str(&format!(
            "glacsweb-analyze: {} file(s) scanned, {} finding(s) ({} suppressed), \
             {} ledger entr(ies)\n",
            self.files_scanned,
            self.findings.len(),
            suppressed,
            self.suppressions.len()
        ));
        if !self.suppressions.is_empty() {
            out.push_str("suppression ledger:\n");
            for s in &self.suppressions {
                out.push_str(&format!(
                    "  {}:{} allow({}) — {}\n",
                    s.file,
                    s.line,
                    s.rule.name(),
                    s.reason
                ));
            }
        }
        out
    }

    /// The machine-readable `ANALYSIS.json` document. `schema` is a
    /// numeric format version (mirroring `BENCH_PERF.json`'s convention)
    /// so downstream tooling can gate on format changes; `tool` carries
    /// the emitter name the old string schema used to encode.
    pub fn to_json(&self) -> String {
        let mut o = String::from("{\n");
        o.push_str(&format!("  \"schema\": {REPORT_SCHEMA},\n"));
        o.push_str("  \"tool\": \"glacsweb-analyze\",\n");
        o.push_str(&format!("  \"root\": {},\n", escape(&self.root)));
        o.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        o.push_str("  \"rules\": [\n");
        let rules: Vec<String> = RuleId::ALL
            .iter()
            .map(|r| {
                format!(
                    "    {{\"name\": {}, \"description\": {}}}",
                    escape(r.name()),
                    escape(r.description())
                )
            })
            .collect();
        o.push_str(&rules.join(",\n"));
        o.push_str("\n  ],\n");
        o.push_str("  \"findings\": [\n");
        let finds: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                format!(
                    "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \
                     \"suppressed\": {}}}",
                    escape(f.rule.name()),
                    escape(&f.file),
                    f.line,
                    escape(&f.message),
                    f.suppressed
                )
            })
            .collect();
        o.push_str(&finds.join(",\n"));
        o.push_str(if finds.is_empty() {
            "  ],\n"
        } else {
            "\n  ],\n"
        });
        o.push_str("  \"suppressions\": [\n");
        let sups: Vec<String> = self
            .suppressions
            .iter()
            .map(|s| {
                format!(
                    "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}, \
                     \"used\": {}}}",
                    escape(s.rule.name()),
                    escape(&s.file),
                    s.line,
                    escape(&s.reason),
                    s.used
                )
            })
            .collect();
        o.push_str(&sups.join(",\n"));
        o.push_str(if sups.is_empty() {
            "  ],\n"
        } else {
            "\n  ],\n"
        });
        let denied = self.unsuppressed().count();
        o.push_str("  \"summary\": {\n");
        o.push_str(&format!("    \"findings\": {},\n", self.findings.len()));
        o.push_str(&format!(
            "    \"suppressed\": {},\n",
            self.findings.len() - denied
        ));
        o.push_str(&format!("    \"unsuppressed\": {},\n", denied));
        o.push_str(&format!("    \"clean\": {}\n", denied == 0));
        o.push_str("  }\n}\n");
        o
    }
}
