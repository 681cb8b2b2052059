//! The complete hybrid out-of-core sorting pipeline.
//!
//! [`TeraSorter`] chains the stages of Section 2.2's description of
//! GPUTeraSort — reader → key generator → in-core (GPU) sort → reorder →
//! writer for every run, followed by the CPU multi-way merge — and accounts
//! simulated time per phase. Disk I/O and GPU/CPU compute may be modelled
//! as overlapped (the pipelined execution with DMA the original system
//! uses) or strictly sequential, which is the knob the overlap experiment
//! turns.

use crate::disk::{FileId, SimulatedDisk};
use crate::external_merge::{self, MergeConfig};
use crate::keygen::FixupStats;
use crate::manifest::{self, Manifest, ManifestError, RunEntry, Stage};
use crate::run_formation::{self, RunFormationConfig};
use std::fs;
use std::path::Path;
use stream_arch::{GpuProfile, Result};

pub use crate::run_formation::CoreSorter;

/// Configuration of the whole pipeline.
#[derive(Clone, Debug)]
pub struct TeraSortConfig {
    /// Records per run (the in-core memory budget).
    pub run_size: usize,
    /// The in-core sorter used during run formation.
    pub core_sorter: CoreSorter,
    /// GPU profile for the simulator-backed sorters.
    pub gpu_profile: GpuProfile,
    /// Records per read request during the external merge.
    pub merge_page_records: usize,
    /// Model disk I/O as overlapped with compute (pipelined reader/writer
    /// stages with DMA) instead of strictly sequential.
    pub overlap_io: bool,
}

impl Default for TeraSortConfig {
    fn default() -> Self {
        TeraSortConfig {
            run_size: 1 << 15,
            core_sorter: CoreSorter::default(),
            gpu_profile: GpuProfile::geforce_7800(),
            merge_page_records: 4096,
            overlap_io: true,
        }
    }
}

/// Time breakdown of one pipeline phase.
#[derive(Copy, Clone, Debug, Default)]
pub struct PhaseTime {
    /// Disk I/O time of the phase in ms.
    pub io_ms: f64,
    /// Simulated GPU time of the phase in ms.
    pub gpu_ms: f64,
    /// Modelled CPU time of the phase in ms.
    pub cpu_ms: f64,
    /// Elapsed time of the phase under the configured overlap model.
    pub elapsed_ms: f64,
}

impl PhaseTime {
    fn new(io_ms: f64, gpu_ms: f64, cpu_ms: f64, overlap: bool) -> Self {
        let compute = gpu_ms + cpu_ms;
        let elapsed_ms = if overlap {
            io_ms.max(compute)
        } else {
            io_ms + compute
        };
        PhaseTime {
            io_ms,
            gpu_ms,
            cpu_ms,
            elapsed_ms,
        }
    }
}

/// The report of one complete out-of-core sort.
#[derive(Clone, Debug)]
pub struct TeraSortReport {
    /// Handle of the sorted output file.
    pub output: FileId,
    /// Total records sorted.
    pub records: usize,
    /// Number of intermediate runs.
    pub runs: usize,
    /// Name of the in-core sorter used.
    pub core_sorter: &'static str,
    /// Run-formation phase times.
    pub run_phase: PhaseTime,
    /// External-merge phase times.
    pub merge_phase: PhaseTime,
    /// Total elapsed time (run phase + merge phase).
    pub total_ms: f64,
    /// Tie fix-up statistics of the reorder stage.
    pub fixup: FixupStats,
    /// Full-key comparisons of the external merge.
    pub merge_comparisons: u64,
    /// Stream operations launched on the GPU simulator.
    pub stream_ops: u64,
}

/// The hybrid out-of-core sorter.
#[derive(Clone, Debug)]
pub struct TeraSorter {
    config: TeraSortConfig,
}

impl TeraSorter {
    /// Create a sorter with the given configuration.
    pub fn new(config: TeraSortConfig) -> Self {
        TeraSorter { config }
    }

    /// The sorter's configuration.
    pub fn config(&self) -> &TeraSortConfig {
        &self.config
    }

    /// Sort the records of `input` and write them to a new output file on
    /// the same disk, returning the handle and the phase accounting.
    pub fn sort(&self, disk: &mut SimulatedDisk, input: FileId) -> Result<TeraSortReport> {
        let run_config = RunFormationConfig {
            run_size: self.config.run_size,
            core_sorter: self.config.core_sorter.clone(),
            gpu_profile: self.config.gpu_profile.clone(),
            ..RunFormationConfig::default()
        };
        let (runs, run_stats) = run_formation::form_runs(disk, input, &run_config)?;

        let output = disk.create(&format!("{}-sorted", disk.name(input)));
        let merge_config = MergeConfig {
            page_records: self.config.merge_page_records,
            ..MergeConfig::default()
        };
        let merge_stats = external_merge::merge_runs(disk, &runs, output, &merge_config);

        let run_phase = PhaseTime::new(
            run_stats.io.io_time_ms,
            run_stats.gpu_time_ms,
            run_stats.cpu_time_ms,
            self.config.overlap_io,
        );
        let merge_phase = PhaseTime::new(
            merge_stats.io.io_time_ms,
            0.0,
            merge_stats.cpu_time_ms,
            self.config.overlap_io,
        );

        Ok(TeraSortReport {
            output,
            records: run_stats.records,
            runs: run_stats.runs,
            core_sorter: self.config.core_sorter.name(),
            run_phase,
            merge_phase,
            total_ms: run_phase.elapsed_ms + merge_phase.elapsed_ms,
            fixup: run_stats.fixup,
            merge_comparisons: merge_stats.comparisons,
            stream_ops: run_stats.stream_ops,
        })
    }

    /// Like [`TeraSorter::sort`], but checkpointed: every sorted run and
    /// the merged output are persisted (with checksums) into `dir` at the
    /// pipeline's two phase boundaries, together with an atomically
    /// updated [`Manifest`]. When `dir` already holds a checkpoint from a
    /// previous — possibly crashed — invocation, the sort *resumes* at the
    /// last completed level: a `merged` manifest reloads the output
    /// without any sorting, a `runs` manifest reloads the sorted runs and
    /// only merges. A checkpoint that fails verification is a typed
    /// [`ManifestError::Corrupt`], never silently (re)trusted.
    ///
    /// The [`SimulatedDisk`] is in-memory and does not survive a crash;
    /// the checkpoint directory is the durable copy, which is why run and
    /// output *data* is persisted alongside the manifest metadata.
    pub fn sort_durable(
        &self,
        disk: &mut SimulatedDisk,
        input: FileId,
        dir: impl AsRef<Path>,
    ) -> std::result::Result<DurableSortReport, ManifestError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        match Manifest::load(dir)? {
            Some(m) if m.stage == Stage::Merged => {
                // The whole sort completed before the crash: reload the
                // verified output, no sorting at all.
                let entry = m.output.as_ref().ok_or_else(|| ManifestError::Corrupt {
                    reason: "merged manifest without output".into(),
                })?;
                let records = manifest::read_records(dir, entry)?;
                let output = disk.create(&format!("{}-sorted", disk.name(input)));
                disk.append(output, &records);
                Ok(DurableSortReport {
                    report: TeraSortReport {
                        output,
                        records: records.len(),
                        runs: m.runs.len(),
                        core_sorter: self.config.core_sorter.name(),
                        run_phase: PhaseTime::default(),
                        merge_phase: PhaseTime::default(),
                        total_ms: 0.0,
                        fixup: FixupStats::default(),
                        merge_comparisons: 0,
                        stream_ops: 0,
                    },
                    resumed_from: Some(Stage::Merged),
                    resumed_records: records.len(),
                })
            }
            Some(m) => {
                // Run formation completed: reload the verified runs and
                // resume at the merge level.
                let mut runs = Vec::with_capacity(m.runs.len());
                let mut resumed_records = 0usize;
                for entry in &m.runs {
                    let records = manifest::read_records(dir, entry)?;
                    resumed_records += records.len();
                    let file = disk.create(&entry.file);
                    disk.append(file, &records);
                    runs.push(file);
                }
                let (output, merge_phase, comparisons) =
                    self.merge_and_checkpoint(disk, input, &runs, m.records, m.runs.clone(), dir)?;
                Ok(DurableSortReport {
                    report: TeraSortReport {
                        output,
                        records: m.records,
                        runs: runs.len(),
                        core_sorter: self.config.core_sorter.name(),
                        run_phase: PhaseTime::default(),
                        merge_phase,
                        total_ms: merge_phase.elapsed_ms,
                        fixup: FixupStats::default(),
                        merge_comparisons: comparisons,
                        stream_ops: 0,
                    },
                    resumed_from: Some(Stage::Runs),
                    resumed_records,
                })
            }
            None => {
                // No checkpoint yet (or a crash before the first manifest
                // became visible): the full pipeline, checkpointing at
                // both boundaries.
                let run_config = RunFormationConfig {
                    run_size: self.config.run_size,
                    core_sorter: self.config.core_sorter.clone(),
                    gpu_profile: self.config.gpu_profile.clone(),
                    ..RunFormationConfig::default()
                };
                let (runs, run_stats) = run_formation::form_runs(disk, input, &run_config)?;

                let mut entries = Vec::with_capacity(runs.len());
                for (i, &run) in runs.iter().enumerate() {
                    let data = disk.read_all(run);
                    entries.push(manifest::write_records(
                        dir,
                        &format!("run-{i:04}.dat"),
                        &data,
                    )?);
                }
                Manifest {
                    stage: Stage::Runs,
                    records: run_stats.records,
                    runs: entries.clone(),
                    output: None,
                }
                .save(dir)?;

                let (output, merge_phase, comparisons) =
                    self.merge_and_checkpoint(disk, input, &runs, run_stats.records, entries, dir)?;
                let run_phase = PhaseTime::new(
                    run_stats.io.io_time_ms,
                    run_stats.gpu_time_ms,
                    run_stats.cpu_time_ms,
                    self.config.overlap_io,
                );
                Ok(DurableSortReport {
                    report: TeraSortReport {
                        output,
                        records: run_stats.records,
                        runs: run_stats.runs,
                        core_sorter: self.config.core_sorter.name(),
                        run_phase,
                        merge_phase,
                        total_ms: run_phase.elapsed_ms + merge_phase.elapsed_ms,
                        fixup: run_stats.fixup,
                        merge_comparisons: comparisons,
                        stream_ops: run_stats.stream_ops,
                    },
                    resumed_from: None,
                    resumed_records: 0,
                })
            }
        }
    }

    /// Merge `runs` into a fresh output file and checkpoint the result:
    /// `output.dat` plus a `merged`-stage manifest carrying the run
    /// entries forward. Shared by the fresh and the resumed-at-runs paths.
    fn merge_and_checkpoint(
        &self,
        disk: &mut SimulatedDisk,
        input: FileId,
        runs: &[FileId],
        records: usize,
        run_entries: Vec<RunEntry>,
        dir: &Path,
    ) -> std::result::Result<(FileId, PhaseTime, u64), ManifestError> {
        let output = disk.create(&format!("{}-sorted", disk.name(input)));
        let merge_config = MergeConfig {
            page_records: self.config.merge_page_records,
            ..MergeConfig::default()
        };
        let merge_stats = external_merge::merge_runs(disk, runs, output, &merge_config);

        let data = disk.read_all(output);
        let entry = manifest::write_records(dir, "output.dat", &data)?;
        Manifest {
            stage: Stage::Merged,
            records,
            runs: run_entries,
            output: Some(entry),
        }
        .save(dir)?;

        let merge_phase = PhaseTime::new(
            merge_stats.io.io_time_ms,
            0.0,
            merge_stats.cpu_time_ms,
            self.config.overlap_io,
        );
        Ok((output, merge_phase, merge_stats.comparisons))
    }
}

/// The report of one durable (checkpointed) out-of-core sort.
#[derive(Clone, Debug)]
pub struct DurableSortReport {
    /// The underlying pipeline report. Phase times cover only the work
    /// actually performed — a resumed sort reports zero for the levels it
    /// skipped.
    pub report: TeraSortReport,
    /// The checkpoint level this sort resumed from (`None`: it ran from
    /// scratch).
    pub resumed_from: Option<Stage>,
    /// Records reloaded from the checkpoint directory instead of being
    /// re-sorted.
    pub resumed_records: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskProfile;
    use crate::record;
    use abisort::SortConfig;

    fn setup(
        n: usize,
        seed: u64,
        profile: DiskProfile,
    ) -> (SimulatedDisk, FileId, Vec<record::WideRecord>) {
        let mut disk = SimulatedDisk::new(profile);
        let input = disk.create("table");
        let records = record::generate(n, seed);
        disk.append(input, &records);
        (disk, input, records)
    }

    fn small_config(core_sorter: CoreSorter) -> TeraSortConfig {
        TeraSortConfig {
            run_size: 2048,
            core_sorter,
            ..TeraSortConfig::default()
        }
    }

    #[test]
    fn end_to_end_sorts_an_out_of_core_table() {
        let (mut disk, input, records) = setup(9_500, 1, DiskProfile::raid_2006());
        let report = TeraSorter::new(small_config(CoreSorter::default()))
            .sort(&mut disk, input)
            .unwrap();
        assert_eq!(report.records, 9_500);
        assert_eq!(report.runs, 5);
        assert_eq!(report.core_sorter, "gpu-abisort");
        let sorted = disk.read_all(report.output);
        assert!(record::is_sorted(&sorted));
        assert!(record::is_permutation(&records, &sorted));
        assert!(report.total_ms > 0.0);
        assert!(report.stream_ops > 0);
    }

    #[test]
    fn all_core_sorters_produce_the_same_output() {
        let records = record::generate(6_000, 7);
        let mut outputs = Vec::new();
        for sorter in [
            CoreSorter::GpuAbiSort(SortConfig::default()),
            CoreSorter::GpuBitonicNetwork,
            CoreSorter::CpuQuicksort,
        ] {
            let mut disk = SimulatedDisk::new(DiskProfile::ideal());
            let input = disk.create("table");
            disk.append(input, &records);
            let report = TeraSorter::new(small_config(sorter))
                .sort(&mut disk, input)
                .unwrap();
            outputs.push(disk.read_all(report.output));
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
    }

    #[test]
    fn overlapping_io_never_increases_the_elapsed_time() {
        let records = record::generate(8_192, 3);
        let mut totals = Vec::new();
        for overlap in [false, true] {
            let mut disk = SimulatedDisk::new(DiskProfile::hdd_2006());
            let input = disk.create("table");
            disk.append(input, &records);
            let config = TeraSortConfig {
                overlap_io: overlap,
                ..small_config(CoreSorter::default())
            };
            let report = TeraSorter::new(config).sort(&mut disk, input).unwrap();
            totals.push(report.total_ms);
        }
        assert!(totals[1] < totals[0], "overlap {totals:?}");
    }

    #[test]
    fn phase_times_compose_io_gpu_and_cpu() {
        let (mut disk, input, _) = setup(4_096, 5, DiskProfile::hdd_2006());
        let config = TeraSortConfig {
            overlap_io: false,
            ..small_config(CoreSorter::default())
        };
        let report = TeraSorter::new(config).sort(&mut disk, input).unwrap();
        let p = report.run_phase;
        assert!(p.io_ms > 0.0 && p.gpu_ms > 0.0 && p.cpu_ms > 0.0);
        assert!((p.elapsed_ms - (p.io_ms + p.gpu_ms + p.cpu_ms)).abs() < 1e-9);
        let m = report.merge_phase;
        assert_eq!(m.gpu_ms, 0.0);
        assert!(m.io_ms > 0.0 && m.cpu_ms > 0.0);
        assert!((report.total_ms - (p.elapsed_ms + m.elapsed_ms)).abs() < 1e-9);
    }

    #[test]
    fn overlapped_phase_elapsed_is_the_maximum_of_io_and_compute() {
        let (mut disk, input, _) = setup(4_096, 5, DiskProfile::hdd_2006());
        let report = TeraSorter::new(small_config(CoreSorter::default()))
            .sort(&mut disk, input)
            .unwrap();
        let p = report.run_phase;
        assert!((p.elapsed_ms - p.io_ms.max(p.gpu_ms + p.cpu_ms)).abs() < 1e-9);
    }

    #[test]
    fn single_run_input_skips_real_merging() {
        let (mut disk, input, records) = setup(1_000, 9, DiskProfile::raid_2006());
        let config = TeraSortConfig {
            run_size: 4_096,
            ..small_config(CoreSorter::default())
        };
        let report = TeraSorter::new(config).sort(&mut disk, input).unwrap();
        assert_eq!(report.runs, 1);
        assert_eq!(report.merge_comparisons, 0);
        let sorted = disk.read_all(report.output);
        assert!(record::is_sorted(&sorted));
        assert!(record::is_permutation(&records, &sorted));
    }

    #[test]
    fn empty_input_produces_an_empty_output() {
        let mut disk = SimulatedDisk::new(DiskProfile::ideal());
        let input = disk.create("table");
        let report = TeraSorter::new(TeraSortConfig::default())
            .sort(&mut disk, input)
            .unwrap();
        assert_eq!(report.records, 0);
        assert!(disk.is_empty(report.output));
    }

    #[test]
    fn skewed_keys_are_sorted_correctly_and_exercise_fixup() {
        let mut disk = SimulatedDisk::new(DiskProfile::ideal());
        let input = disk.create("table");
        let records = record::generate_skewed(5_000, 6, 11);
        disk.append(input, &records);
        let report = TeraSorter::new(small_config(CoreSorter::default()))
            .sort(&mut disk, input)
            .unwrap();
        assert!(report.fixup.tied_records > 0);
        let sorted = disk.read_all(report.output);
        assert!(record::is_sorted(&sorted));
        assert!(record::is_permutation(&records, &sorted));
    }

    use crate::manifest::fault;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "terasort-pipeline-{tag}-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            fs::remove_dir_all(&self.0).ok();
        }
    }

    // The fault plan is process-global; every durable test serializes on
    // this lock so an armed plan can only fire in the test that armed it.
    fn fault_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    #[test]
    fn durable_sort_matches_plain_and_resumes_from_merged() {
        let _guard = fault_lock().lock().unwrap_or_else(|p| p.into_inner());
        let (mut disk, input, _) = setup(9_500, 1, DiskProfile::raid_2006());
        let sorter = TeraSorter::new(small_config(CoreSorter::default()));
        let plain = sorter.sort(&mut disk, input).unwrap();
        let reference = disk.read_all(plain.output);

        let tmp = TempDir::new("durable");
        let (mut disk2, input2, _) = setup(9_500, 1, DiskProfile::raid_2006());
        let durable = sorter.sort_durable(&mut disk2, input2, tmp.path()).unwrap();
        assert_eq!(durable.resumed_from, None);
        assert_eq!(disk2.read_all(durable.report.output), reference);
        let m = Manifest::load(tmp.path()).unwrap().unwrap();
        assert_eq!(m.stage, Stage::Merged);
        assert_eq!(m.runs.len(), 5);

        // A second invocation resumes from the merged checkpoint and does
        // no sorting at all — the reloaded output is still byte-identical.
        let (mut disk3, input3, _) = setup(9_500, 1, DiskProfile::raid_2006());
        let resumed = sorter.sort_durable(&mut disk3, input3, tmp.path()).unwrap();
        assert_eq!(resumed.resumed_from, Some(Stage::Merged));
        assert_eq!(resumed.resumed_records, 9_500);
        assert_eq!(resumed.report.stream_ops, 0);
        assert_eq!(disk3.read_all(resumed.report.output), reference);
    }

    #[test]
    fn crash_at_each_fault_point_then_resume_is_byte_identical() {
        let _guard = fault_lock().lock().unwrap_or_else(|p| p.into_inner());
        let records = record::generate(9_500, 17);
        let sorter = TeraSorter::new(small_config(CoreSorter::default()));
        let reference = {
            let mut disk = SimulatedDisk::new(DiskProfile::ideal());
            let input = disk.create("table");
            disk.append(input, &records);
            let report = sorter.sort(&mut disk, input).unwrap();
            disk.read_all(report.output)
        };

        // 9 500 records at run_size 2048 form 5 runs, so the checkpoint
        // write sequence is: run data hits 0–4, the runs-stage manifest
        // (temp-write hit 0, rename hit 0), output data (run-data hit 5),
        // the merged-stage manifest (temp-write hit 1, rename hit 1).
        let cases = [
            (fault::FaultPoint::RunData, 0, None),
            (fault::FaultPoint::RunData, 4, None),
            (fault::FaultPoint::TempWrite, 0, None),
            (fault::FaultPoint::Rename, 0, None),
            (fault::FaultPoint::RunData, 5, Some(Stage::Runs)),
            (fault::FaultPoint::TempWrite, 1, Some(Stage::Runs)),
            (fault::FaultPoint::Rename, 1, Some(Stage::Runs)),
        ];
        for (point, after, expect_resume) in cases {
            let tmp = TempDir::new("crash");
            fault::arm(fault::FaultPlan { point, after });
            let mut disk = SimulatedDisk::new(DiskProfile::ideal());
            let input = disk.create("table");
            disk.append(input, &records);
            let err = sorter
                .sort_durable(&mut disk, input, tmp.path())
                .unwrap_err();
            assert!(
                matches!(err, ManifestError::Injected(p) if p == point),
                "{point:?}/{after}: {err}"
            );
            fault::disarm();

            // "Restart": the in-memory disk died with the process; only
            // the checkpoint directory survives.
            let mut disk = SimulatedDisk::new(DiskProfile::ideal());
            let input = disk.create("table");
            disk.append(input, &records);
            let durable = sorter.sort_durable(&mut disk, input, tmp.path()).unwrap();
            assert_eq!(durable.resumed_from, expect_resume, "{point:?}/{after}");
            assert_eq!(
                disk.read_all(durable.report.output),
                reference,
                "resume after {point:?}/{after} diverged"
            );
        }
    }

    #[test]
    fn corrupted_checkpoint_data_is_a_typed_error_never_replayed() {
        let _guard = fault_lock().lock().unwrap_or_else(|p| p.into_inner());
        let tmp = TempDir::new("corrupt");
        let (mut disk, input, _) = setup(3_000, 5, DiskProfile::ideal());
        let sorter = TeraSorter::new(small_config(CoreSorter::default()));
        sorter.sort_durable(&mut disk, input, tmp.path()).unwrap();

        let path = tmp.path().join("output.dat");
        let mut bytes = fs::read(&path).unwrap();
        bytes[1000] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let (mut disk2, input2, _) = setup(3_000, 5, DiskProfile::ideal());
        assert!(matches!(
            sorter.sort_durable(&mut disk2, input2, tmp.path()),
            Err(ManifestError::Corrupt { .. })
        ));
    }

    #[test]
    fn empty_input_checkpoints_and_resumes_cleanly() {
        let _guard = fault_lock().lock().unwrap_or_else(|p| p.into_inner());
        let tmp = TempDir::new("emptydur");
        let sorter = TeraSorter::new(TeraSortConfig::default());
        let mut disk = SimulatedDisk::new(DiskProfile::ideal());
        let input = disk.create("table");
        let durable = sorter.sort_durable(&mut disk, input, tmp.path()).unwrap();
        assert_eq!(durable.report.records, 0);
        assert!(disk.is_empty(durable.report.output));

        let mut disk2 = SimulatedDisk::new(DiskProfile::ideal());
        let input2 = disk2.create("table");
        let resumed = sorter.sort_durable(&mut disk2, input2, tmp.path()).unwrap();
        assert_eq!(resumed.resumed_from, Some(Stage::Merged));
        assert!(disk2.is_empty(resumed.report.output));
    }

    #[test]
    fn faster_disks_reduce_io_time_but_not_gpu_time() {
        let records = record::generate(8_192, 21);
        let mut reports = Vec::new();
        for profile in [DiskProfile::hdd_2006(), DiskProfile::raid_2006()] {
            let mut disk = SimulatedDisk::new(profile);
            let input = disk.create("table");
            disk.append(input, &records);
            reports.push(
                TeraSorter::new(small_config(CoreSorter::default()))
                    .sort(&mut disk, input)
                    .unwrap(),
            );
        }
        assert!(reports[1].run_phase.io_ms < reports[0].run_phase.io_ms);
        // The GPU work, and so its simulated time, is identical.
        assert_eq!(reports[0].run_phase.gpu_ms, reports[1].run_phase.gpu_ms);
    }
}
