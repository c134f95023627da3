//! The `glacsweb-analyze` command line: exactly five flags plus
//! `--help`, and repeated runs write byte-identical reports.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn workspace_root() -> PathBuf {
    // crates/analyze -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_default()
}

fn analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_glacsweb-analyze"))
        .args(args)
        .output()
        .expect("analyzer runs")
}

#[test]
fn help_lists_exactly_the_supported_flags() {
    let out = analyze(&["--help"]);
    assert!(out.status.success());
    let usage = String::from_utf8_lossy(&out.stdout);
    let flags: Vec<&str> = usage
        .split(|c: char| c == '[' || c == ']' || c.is_whitespace())
        .filter(|w| w.starts_with("--"))
        .collect();
    assert_eq!(flags, ["--deny", "--root", "--json", "--sarif", "--quiet"]);
}

#[test]
fn removed_tuning_flags_are_rejected() {
    for flag in ["--threads", "--cache", "--no-cache"] {
        let out = analyze(&[flag, "2"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument"));
    }
}

#[test]
fn repeated_deny_runs_write_identical_reports() {
    let root = workspace_root();
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let mut reports = Vec::new();
    for run in 0..2 {
        let json = dir.join(format!("glacsweb_analyze_cli_{pid}_{run}.json"));
        let sarif = dir.join(format!("glacsweb_analyze_cli_{pid}_{run}.sarif"));
        let out = analyze(&[
            "--deny",
            "--quiet",
            "--root",
            root.to_str().expect("utf-8 root"),
            "--json",
            json.to_str().expect("utf-8 temp path"),
            "--sarif",
            sarif.to_str().expect("utf-8 temp path"),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stdout)
        );
        reports.push((
            std::fs::read(&json).expect("json written"),
            std::fs::read(&sarif).expect("sarif written"),
        ));
        let _ = std::fs::remove_file(json);
        let _ = std::fs::remove_file(sarif);
    }
    assert!(reports[0] == reports[1], "reports differ between runs");
}
