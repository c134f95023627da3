//! The suppression ledger.
//!
//! A finding may be silenced only by an inline ledger entry of the form
//! (shown here doc-prefixed so the scanner ignores this very file):
//!
//! ```text
//! // glacsweb: allow(panic-freedom, reason = "g is reduced mod 16 above")
//! ```
//!
//! placed either at the end of the offending line or on the line directly
//! above it. The entry must name a real rule and carry a non-empty
//! reason; the analyzer reports every entry (used or not) so the ledger
//! is a reviewable artifact, and an entry that suppresses nothing is
//! itself a `suppression-hygiene` finding — stale entries cannot
//! accumulate silently.

use crate::rules::{Finding, RuleId};

/// One parsed `glacsweb: allow(...)` comment.
#[derive(Debug)]
pub struct Suppression {
    /// The rule being suppressed.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line the comment sits on.
    pub line: u32,
    /// The mandatory human-written justification.
    pub reason: String,
    /// Set during matching if this entry silenced at least one finding.
    pub used: bool,
}

/// Scans raw source lines for ledger entries. `skip_ranges` holds the
/// line spans of `#[cfg(test)]` regions, where suppressions are
/// meaningless (no rule fires there) and therefore not collected.
///
/// Malformed entries (unknown rule, missing reason) are returned as
/// `suppression-hygiene` findings rather than suppressions.
pub fn scan(
    rel: &str,
    source: &str,
    skip_ranges: &[(u32, u32)],
) -> (Vec<Suppression>, Vec<Finding>) {
    // Built from fragments so this file's own source line never matches.
    let marker: String = ["// glacsweb", ": allow("].concat();
    let mut sups = Vec::new();
    let mut finds = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line = idx as u32 + 1;
        if skip_ranges.iter().any(|&(a, b)| line >= a && line <= b) {
            continue;
        }
        let Some(pos) = raw.find(&marker) else {
            continue;
        };
        // Doc comments (`///`, `//!`) quoting the syntax are not entries.
        let lead = raw.trim_start();
        if lead.starts_with("///") || lead.starts_with("//!") {
            continue;
        }
        let body = &raw[pos + marker.len()..];
        if !body.contains(')') {
            finds.push(bad(rel, line, "unterminated `allow(` entry"));
            continue;
        }
        let rule_name = body.split([',', ')']).next().unwrap_or("").trim();
        let Some(rule) = RuleId::from_name(rule_name) else {
            finds.push(bad(
                rel,
                line,
                &format!("unknown rule {rule_name:?} in suppression"),
            ));
            continue;
        };
        let reason = body
            .split_once("reason")
            .and_then(|(_, rest)| rest.split_once('"'))
            .and_then(|(_, rest)| rest.split_once('"'))
            .map(|(r, _)| r.trim().to_string())
            .unwrap_or_default();
        if reason.is_empty() {
            finds.push(bad(
                rel,
                line,
                "suppression is missing a non-empty `reason = \"...\"`",
            ));
            continue;
        }
        sups.push(Suppression {
            rule,
            file: rel.to_string(),
            line,
            reason,
            used: false,
        });
    }
    (sups, finds)
}

fn bad(rel: &str, line: u32, msg: &str) -> Finding {
    Finding {
        rule: RuleId::SuppressionHygiene,
        file: rel.to_string(),
        line,
        message: msg.to_string(),
        suppressed: false,
    }
}

/// Matches findings against the ledger: a suppression covers findings of
/// its rule on its own line or the line directly below. Afterwards,
/// entries that silenced nothing become `suppression-hygiene` findings —
/// anchored at the ledger entry's *own* file:line (not any rule's
/// original site), so a `--deny` failure is a clickable pointer to the
/// exact comment to delete.
pub fn apply(findings: &mut [Finding], sups: &mut [Suppression]) -> Vec<Finding> {
    for f in findings.iter_mut() {
        for s in sups.iter_mut() {
            if s.rule == f.rule && s.file == f.file && (f.line == s.line || f.line == s.line + 1) {
                f.suppressed = true;
                s.used = true;
            }
        }
    }
    sups.iter()
        .filter(|s| !s.used)
        .map(|s| Finding {
            rule: RuleId::SuppressionHygiene,
            file: s.file.clone(),
            line: s.line,
            message: format!(
                "suppression of `{}` matches no finding; delete the stale entry \
                 (its recorded reason: {:?})",
                s.rule.name(),
                s.reason
            ),
            suppressed: false,
        })
        .collect()
}
