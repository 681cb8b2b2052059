//! The `repro` command line fails loudly: a mistyped experiment name or an
//! unwritable report path is an error exit, never a silent success or a
//! panic.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("failed to start repro")
}

#[test]
fn unknown_experiment_names_exit_2_and_list_the_valid_names() {
    for args in [
        &["--experiment", "no-such-experiment"][..],
        &["--scenario", "wallclock"][..],
        &["--experiment"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown experiment"), "{args:?}: {stderr}");
        for name in ["data-dependence", "sharded", "netsoak", "typed"] {
            assert!(stderr.contains(name), "{args:?} must list {name}: {stderr}");
        }
        assert!(out.stdout.is_empty(), "{args:?} must run nothing");
    }
}

#[test]
fn missing_or_non_numeric_option_values_exit_2_without_a_panic() {
    for (args, message) in [
        (&["--max-log-n", "x"][..], "--max-log-n requires"),
        (&["--dump-plan", "x"][..], "--dump-plan requires"),
        (&["--json"][..], "--json requires"),
        (&["--trace"][..], "--trace requires"),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must run nothing");
    }
}

#[test]
fn failed_report_writes_exit_1_with_the_error() {
    let missing = std::env::temp_dir()
        .join(format!("repro-cli-{}", std::process::id()))
        .join("no-such-dir")
        .join("out.json");
    let path = missing.to_str().expect("temp path is UTF-8");
    for flag in ["--json", "--trace"] {
        let out = repro(&["--figures", flag, path]);
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("failed to write"), "{flag}: {stderr}");
        assert!(stderr.contains(path), "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
    }
}
