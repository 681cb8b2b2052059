//! The `repro` command line and the profiling binaries fail loudly: a
//! mistyped experiment name, a non-numeric size or an unwritable report
//! path is an error exit, never a silent success or a panic.

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

#[test]
fn profiling_binaries_exit_2_on_bad_arguments_before_running() {
    for (bin, args, message) in [
        (
            env!("CARGO_BIN_EXE_kernel_profile"),
            &["abc"][..],
            "\"abc\" is not a non-negative integer",
        ),
        (
            env!("CARGO_BIN_EXE_kernel_profile"),
            &["4096", "-1"][..],
            "\"-1\" is not a non-negative integer",
        ),
        (
            env!("CARGO_BIN_EXE_profile_seq"),
            &["1024", "x"][..],
            "\"x\" is not a non-negative integer",
        ),
        (
            env!("CARGO_BIN_EXE_profile_seq"),
            &["64", "1", "1"][..],
            "\"1\" is one argument too many",
        ),
        (
            env!("CARGO_BIN_EXE_replay_profile"),
            &["2.5"][..],
            "\"2.5\" is not a non-negative integer",
        ),
    ] {
        let out = Command::new(bin)
            .args(args)
            .output()
            .expect("failed to start the binary");
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} must run nothing");
    }
}
