//! Accounting of PRAM executions: steps, work, accesses, conflicts, and the
//! Brent-scheduled parallel time for a machine with `p` processors.
//!
//! The quantities recorded here are exactly the ones the complexity claims
//! of Section 2.1 of the paper are about:
//!
//! * **parallel steps** — the `O(log² n)` bound of adaptive bitonic sorting
//!   and of the bitonic network;
//! * **work / comparisons** — the `< 2 n log n` bound of adaptive bitonic
//!   sorting versus the `Θ(n log² n)` of the sorting networks;
//! * **processor demand** — the `O(n / log n)` processors needed for the
//!   optimal-time execution;
//! * **access conflicts** — whether an algorithm really runs on an EREW
//!   machine or silently needs concurrent reads (CREW).

use crate::machine::PramModel;
use serde::{Deserialize, Serialize};

/// What happened in one synchronous parallel step.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepRecord {
    /// Number of processors (tasks) active in this step.
    pub tasks: u64,
    /// The largest number of shared-memory accesses performed by any single
    /// task in this step — the unit-cost duration of the step.
    pub max_accesses: u64,
    /// Total shared-memory reads issued in this step.
    pub reads: u64,
    /// Total shared-memory writes issued in this step.
    pub writes: u64,
    /// Total comparisons charged in this step.
    pub comparisons: u64,
}

/// Aggregated statistics of a PRAM execution.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PramStats {
    /// Per-step records, in execution order.
    pub steps: Vec<StepRecord>,
    /// Concurrent reads that occurred under CREW, where they are allowed.
    /// Always 0 under EREW: [`crate::Pram::step_map`] fails the step with
    /// `ReadConflict` at the first one.
    pub read_conflicts: u64,
    /// Concurrent writes that occurred: always 0, since
    /// [`crate::Pram::step_map`] fails the step with `WriteConflict` at the
    /// first one under both models.
    pub write_conflicts: u64,
}

impl PramStats {
    /// Number of synchronous parallel steps executed.
    pub fn num_steps(&self) -> u64 {
        self.steps.len() as u64
    }

    /// Parallel time with unlimited processors: the sum of the per-step
    /// unit-cost durations (`max_accesses` of each step).
    pub fn parallel_time(&self) -> u64 {
        self.steps.iter().map(|s| s.max_accesses.max(1)).sum()
    }

    /// Total work: the sum over steps of `tasks × max_accesses` — what a
    /// work-time scheduling argument charges.
    pub fn work(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| s.tasks * s.max_accesses.max(1))
            .sum()
    }

    /// Total shared-memory accesses actually issued (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.steps.iter().map(|s| s.reads + s.writes).sum()
    }

    /// Total comparisons charged by the algorithm.
    pub fn comparisons(&self) -> u64 {
        self.steps.iter().map(|s| s.comparisons).sum()
    }

    /// The largest number of processors used in any single step — the
    /// processor count required to achieve [`PramStats::parallel_time`].
    pub fn max_processors(&self) -> u64 {
        self.steps.iter().map(|s| s.tasks).max().unwrap_or(0)
    }

    /// Parallel time on a machine with only `p` processors, by Brent's
    /// scheduling principle: a step with `t` tasks of duration `d` takes
    /// `ceil(t / p) · d` time.
    pub fn brent_time(&self, p: u64) -> u64 {
        assert!(p > 0, "Brent scheduling needs at least one processor");
        self.steps
            .iter()
            .map(|s| s.tasks.div_ceil(p).max(1) * s.max_accesses.max(1))
            .sum()
    }

    /// Speed-up of `p` processors over one processor under Brent scheduling.
    pub fn speedup(&self, p: u64) -> f64 {
        self.brent_time(1) as f64 / self.brent_time(p) as f64
    }

    /// Number of access conflicts that are violations under `model`
    /// (concurrent writes always count; concurrent reads only under EREW).
    pub fn conflicts(&self, model: PramModel) -> u64 {
        match model {
            PramModel::Erew => self.read_conflicts + self.write_conflicts,
            PramModel::Crew => self.write_conflicts,
        }
    }

    /// Merge another execution's statistics into this one (used when an
    /// algorithm is built from phases that run on separate machines).
    pub fn absorb(&mut self, other: &PramStats) {
        self.steps.extend(other.steps.iter().copied());
        self.read_conflicts += other.read_conflicts;
        self.write_conflicts += other.write_conflicts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(steps: Vec<StepRecord>) -> PramStats {
        PramStats {
            steps,
            read_conflicts: 0,
            write_conflicts: 0,
        }
    }

    fn step(tasks: u64, max_accesses: u64) -> StepRecord {
        StepRecord {
            tasks,
            max_accesses,
            reads: 0,
            writes: 0,
            comparisons: 0,
        }
    }

    #[test]
    fn parallel_time_sums_step_durations() {
        let s = stats_with(vec![step(8, 3), step(4, 5)]);
        assert_eq!(s.num_steps(), 2);
        assert_eq!(s.parallel_time(), 8);
        assert_eq!(s.work(), 8 * 3 + 4 * 5);
        assert_eq!(s.max_processors(), 8);
    }

    #[test]
    fn brent_time_with_unlimited_processors_equals_parallel_time() {
        let s = stats_with(vec![step(8, 3), step(4, 5), step(1, 1)]);
        assert_eq!(s.brent_time(1024), s.parallel_time());
    }

    #[test]
    fn brent_time_with_one_processor_equals_work() {
        let s = stats_with(vec![step(8, 3), step(4, 5)]);
        assert_eq!(s.brent_time(1), s.work());
    }

    #[test]
    fn brent_time_rounds_task_groups_up() {
        let s = stats_with(vec![step(5, 2)]);
        // 5 tasks on 2 processors: 3 rounds of duration 2.
        assert_eq!(s.brent_time(2), 6);
    }

    #[test]
    fn speedup_is_work_over_brent_time() {
        let s = stats_with(vec![step(16, 1); 4]);
        assert!((s.speedup(16) - 16.0).abs() < 1e-9);
        assert!((s.speedup(1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn conflicts_depend_on_the_model() {
        let mut s = stats_with(vec![]);
        s.read_conflicts = 3;
        s.write_conflicts = 1;
        assert_eq!(s.conflicts(PramModel::Erew), 4);
        assert_eq!(s.conflicts(PramModel::Crew), 1);
    }

    #[test]
    fn absorb_concatenates_steps() {
        let mut a = stats_with(vec![step(1, 1)]);
        let b = stats_with(vec![step(2, 2), step(3, 3)]);
        a.absorb(&b);
        assert_eq!(a.num_steps(), 3);
        assert_eq!(a.work(), 1 + 4 + 9);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn brent_time_rejects_zero_processors() {
        let _ = stats_with(vec![]).brent_time(0);
    }

    #[test]
    fn empty_stats_are_all_zero() {
        let s = PramStats::default();
        assert_eq!(s.parallel_time(), 0);
        assert_eq!(s.work(), 0);
        assert_eq!(s.accesses(), 0);
        assert_eq!(s.comparisons(), 0);
        assert_eq!(s.max_processors(), 0);
    }
}
