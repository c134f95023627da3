//! The bench bins' command lines: `--help` prints usage and exits 0, and
//! a bad argument prints usage and exits 2. Neither may panic.

use std::process::{Command, Output};

const BINS: [&str; 3] = [
    env!("CARGO_BIN_EXE_sweeps"),
    env!("CARGO_BIN_EXE_telemetry"),
    env!("CARGO_BIN_EXE_gate"),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_no_panic(bin: &str, out: &Output) {
    let err = stderr(out);
    assert!(!err.contains("panicked"), "{bin} panicked: {err}");
    assert_ne!(out.status.code(), Some(101), "{bin} exited like a panic");
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for bin in BINS {
        let out = run(bin, &["--help"]);
        assert_no_panic(bin, &out);
        assert!(out.status.success(), "{bin} --help: {:?}", out.status);
        assert!(
            String::from_utf8_lossy(&out.stdout).starts_with("usage:"),
            "{bin} --help prints no usage"
        );
    }
}

#[test]
fn bad_arguments_print_usage_and_exit_two() {
    let cases: [&[&str]; 3] = [&["--threads", "x"], &["--threads"], &["--no-such-flag"]];
    for bin in BINS {
        for args in cases {
            let out = run(bin, args);
            assert_no_panic(bin, &out);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
            assert!(stderr(&out).contains("usage:"), "{bin} {args:?}");
        }
    }
}
