//! Smoke test: every workload at minimal size, untraced and traced.

use perfbench::{run, Options, Outcome, Scale, Workload};
use std::process::Command;

/// One test, run sequentially: traced runs switch the process-wide trace
/// sink on and off, so two must not overlap.
#[test]
fn every_workload_reports_every_metric_finite_with_nothing_failed() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Options {
                workload,
                seed: 7,
                seconds: 0.4,
                trace,
            };
            let out = run(&opts, &Scale::smoke());
            let label = format!("{} trace={trace}", workload.name());
            assert!(out.attempted > 0, "{label}: nothing attempted");
            assert_eq!(out.failed, 0, "{label}: failed_share must be 0");
            assert_eq!(out.mismatches, 0, "{label}: wrong outputs");
            let line = out.result_json(trace);
            for (name, unit) in Outcome::declared(trace) {
                let value = out.metrics.get(name).copied();
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{label}: {name} is {value:?}"
                );
                assert!(
                    line.contains(&format!(r#""{name}": {{"value": "#))
                        && line.contains(&format!(r#""unit": "{unit}"}}"#)),
                    "{label}: {name} not printed with its unit in {line}"
                );
            }
            assert!(line.starts_with(r#"{"correct": true, "#), "{label}: {line}");
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--seed", "1"],
        &["--workload", "wire-small", "--seed", "1", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("run the benchmark binary");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
