//! Identity and snapshot properties of the launch-graph planner:
//!
//! * **Runs match the committed fingerprints.** Full sorts, segmented
//!   batch sorts, block merges and top-k runs hash to the lines of
//!   `tests/golden_fingerprints.txt`: output bits, every counter including
//!   the cache statistics, and simulated time. Plan caching and
//!   every other host-side engine optimization must leave them unchanged.
//! * **Plans are cached per problem shape**, and clones share the cache.
//! * **The plan dump is pinned** against a committed golden snapshot
//!   (`tests/golden_plan_n64.txt`), so accidental changes to the recorded
//!   launch graph — stage boundaries, buffer refs, Table-1 blocks — show
//!   up as a reviewable diff.

mod fingerprints;

use abisort::stream_sort::SortPlan;
use abisort::{GpuAbiSorter, SortConfig};
use stream_arch::{GpuProfile, StreamProcessor};

/// Every cell of the fingerprint matrix under the default (batched)
/// accounting. On a mismatch the actual file is printed in full.
#[test]
fn sort_runs_match_the_committed_fingerprints() {
    let actual = fingerprints::render(&fingerprints::lines(|_, _| true));
    if actual != fingerprints::GOLDEN {
        let changed = actual
            .lines()
            .zip(fingerprints::GOLDEN.lines())
            .filter(|(a, g)| a != g)
            .count();
        panic!(
            "{changed} line(s) differ from tests/golden_fingerprints.txt; actual file:\n{actual}"
        );
    }
}

/// The staged planner (the only planner) records each problem shape once
/// and replays it; clones share the cache.
#[test]
fn plans_are_cached_per_shape_under_staged_planning_only() {
    let sorter = GpuAbiSorter::new(SortConfig::default());
    assert_eq!(sorter.cached_plans(), 0);

    let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
    for _ in 0..3 {
        sorter
            .sort_run(&mut proc, &workloads::uniform(256, 2))
            .unwrap();
    }
    assert_eq!(sorter.cached_plans(), 1, "one shape, one cached plan");
    sorter
        .sort_run(&mut proc, &workloads::uniform(512, 3))
        .unwrap();
    assert_eq!(sorter.cached_plans(), 2, "a new shape records a new plan");
    // Non-power-of-two lengths pad onto an existing shape.
    sorter
        .sort_run(&mut proc, &workloads::uniform(300, 4))
        .unwrap();
    assert_eq!(sorter.cached_plans(), 2, "padded shapes share their plan");

    // Clones share the cache (the service hands one sorter to many slots).
    assert_eq!(sorter.clone().cached_plans(), 2);
}

/// The recorded plan for the default configuration at n = 64 is pinned
/// against the committed golden dump (regenerate with
/// `cargo run -p bench --bin repro -- --dump-plan 64`).
#[test]
fn plan_dump_matches_the_committed_golden_snapshot() {
    let sorter = GpuAbiSorter::new(SortConfig::default());
    let dump = sorter
        .describe_plan(64)
        .expect("n=64 runs a stream program");
    let golden = include_str!("golden_plan_n64.txt");
    assert_eq!(
        dump, golden,
        "launch plan changed; review the diff and regenerate \
         tests/golden_plan_n64.txt with repro --dump-plan 64"
    );
}

/// The dump's own accounting is consistent: the header's node/stage totals
/// match the body, and the key round-trips through the public helpers.
#[test]
fn plan_dump_header_matches_its_body() {
    let sorter = GpuAbiSorter::new(SortConfig::default());
    let key = sorter.sort_plan_key(4096).unwrap();
    let plan = SortPlan::record(key);
    assert_eq!(plan.key(), key);
    let text = plan.describe();
    assert!(text.contains(&format!(
        "{} nodes in {} stages, {} kernel instances",
        plan.num_nodes(),
        plan.num_stages(),
        plan.total_instances()
    )));
    let stage_lines = text.lines().filter(|l| l.starts_with("stage ")).count();
    assert_eq!(stage_lines, plan.num_stages());
    // No stream program for degenerate inputs.
    assert!(sorter.sort_plan_key(1).is_none());
    assert!(sorter.describe_plan(0).is_none());
}
