//! SARIF 2.1.0 emission (`ANALYSIS.sarif`).
//!
//! The minimal single-run document GitHub code scanning ingests: one
//! `run` whose driver lists every rule, and one `result` per finding.
//! Suppressed findings are still emitted — downgraded to `note` level
//! and carrying an `inSource` suppression object — so the ledger stays
//! reviewable from the code-scanning UI, while only unsuppressed
//! findings annotate at `error` level.

use crate::json::Jv;
use crate::report::Report;
use crate::rules::RuleId;

/// The SARIF version this emitter targets.
pub const SARIF_VERSION: &str = "2.1.0";

const SARIF_SCHEMA_URI: &str =
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json";

/// Renders the normalized report as a SARIF 2.1.0 document.
pub fn to_sarif(report: &Report) -> String {
    let rules: Vec<Jv> = RuleId::ALL
        .iter()
        .map(|r| {
            Jv::Obj(vec![
                ("id".into(), Jv::Str(r.name().to_string())),
                (
                    "shortDescription".into(),
                    Jv::Obj(vec![("text".into(), Jv::Str(r.description().to_string()))]),
                ),
                (
                    "defaultConfiguration".into(),
                    Jv::Obj(vec![("level".into(), Jv::Str("error".into()))]),
                ),
            ])
        })
        .collect();

    let results: Vec<Jv> = report
        .findings
        .iter()
        .map(|f| {
            let mut result = vec![
                ("ruleId".into(), Jv::Str(f.rule.name().to_string())),
                (
                    "level".into(),
                    Jv::Str(if f.suppressed { "note" } else { "error" }.into()),
                ),
                (
                    "message".into(),
                    Jv::Obj(vec![("text".into(), Jv::Str(f.message.clone()))]),
                ),
                (
                    "locations".into(),
                    Jv::Arr(vec![Jv::Obj(vec![(
                        "physicalLocation".into(),
                        Jv::Obj(vec![
                            (
                                "artifactLocation".into(),
                                Jv::Obj(vec![
                                    ("uri".into(), Jv::Str(f.file.clone())),
                                    ("uriBaseId".into(), Jv::Str("SRCROOT".into())),
                                ]),
                            ),
                            (
                                "region".into(),
                                Jv::Obj(vec![("startLine".into(), Jv::Num(f.line.max(1).into()))]),
                            ),
                        ]),
                    )])]),
                ),
            ];
            if f.suppressed {
                result.push((
                    "suppressions".into(),
                    Jv::Arr(vec![Jv::Obj(vec![(
                        "kind".into(),
                        Jv::Str("inSource".into()),
                    )])]),
                ));
            }
            Jv::Obj(result)
        })
        .collect();

    let run = Jv::Obj(vec![
        (
            "tool".into(),
            Jv::Obj(vec![(
                "driver".into(),
                Jv::Obj(vec![
                    ("name".into(), Jv::Str("glacsweb-analyze".into())),
                    (
                        "informationUri".into(),
                        Jv::Str("https://example.invalid/glacsweb".into()),
                    ),
                    ("rules".into(), Jv::Arr(rules)),
                ]),
            )]),
        ),
        (
            "originalUriBaseIds".into(),
            Jv::Obj(vec![(
                "SRCROOT".into(),
                Jv::Obj(vec![(
                    "uri".into(),
                    Jv::Str(format!("file://{}/", report.root)),
                )]),
            )]),
        ),
        ("results".into(), Jv::Arr(results)),
    ]);

    let mut doc = Jv::Obj(vec![
        ("$schema".into(), Jv::Str(SARIF_SCHEMA_URI.into())),
        ("version".into(), Jv::Str(SARIF_VERSION.into())),
        ("runs".into(), Jv::Arr(vec![run])),
    ])
    .emit();
    doc.push('\n');
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Finding, RuleId};
    use serde::Value;

    fn sample_report() -> Report {
        let mut report = Report {
            root: "/ws".into(),
            files_scanned: 1,
            findings: vec![
                Finding {
                    rule: RuleId::SnapshotCoverage,
                    file: "crates/power/src/rail.rs".into(),
                    line: 92,
                    message: "field dropped".into(),
                    suppressed: false,
                },
                Finding {
                    rule: RuleId::PerfHygiene,
                    file: "crates/env/src/environment.rs".into(),
                    line: 70,
                    message: "clone in hot path".into(),
                    suppressed: true,
                },
            ],
            suppressions: Vec::new(),
        };
        report.normalize();
        report
    }

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).expect("valid JSON")
    }

    #[test]
    fn sarif_parses_and_carries_all_findings() {
        let doc = parse(&to_sarif(&sample_report()));
        assert_eq!(doc.get("version").and_then(Value::as_str), Some("2.1.0"));
        let runs = doc.get("runs").and_then(Value::as_seq).expect("runs");
        let results = runs[0]
            .get("results")
            .and_then(Value::as_seq)
            .expect("results");
        assert_eq!(results.len(), 2);
        let rules = runs[0]
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(Value::as_seq)
            .expect("rules");
        assert_eq!(rules.len(), RuleId::ALL.len());
    }

    #[test]
    fn suppressed_findings_are_notes_with_suppression_objects() {
        let doc = parse(&to_sarif(&sample_report()));
        let runs = doc.get("runs").and_then(Value::as_seq).expect("runs");
        let results = runs[0]
            .get("results")
            .and_then(Value::as_seq)
            .expect("results");
        let suppressed: Vec<&Value> = results
            .iter()
            .filter(|r| r.get("suppressions").is_some())
            .collect();
        assert_eq!(suppressed.len(), 1);
        assert_eq!(
            suppressed[0].get("level").and_then(Value::as_str),
            Some("note")
        );
        let live: Vec<&Value> = results
            .iter()
            .filter(|r| r.get("suppressions").is_none())
            .collect();
        assert_eq!(live[0].get("level").and_then(Value::as_str), Some("error"));
    }
}
