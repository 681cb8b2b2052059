//! `GPUABiSort` — the complete sort (Listing 2) with the Section 7
//! optimizations, wrapped in the [`GpuAbiSorter`] API.
//!
//! The driver allocates the streams, looks up (or records) the
//! [`SortPlan`] for the problem shape, and executes it: the plan contains
//! the Section 7.1 local sort, the recursion levels (Listing 2), and
//! either the Listing-2 commit or the Section 7.2 fixed-merge pipeline at
//! the end of every level. The sorted result is read back from the input
//! half of the node stream, where every level leaves its output in
//! in-order storage.

use super::kernels;
use super::merge::MergeStreams;
use super::plan::{PlanBuffers, PlanKey, SortPlan};
use crate::config::SortConfig;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use stream_arch::padding::{self, Split};
use stream_arch::{Counters, Node, Result, SimTime, Stream, StreamProcessor, Value};

/// The GPU-ABiSort sorter: a [`SortConfig`], a cache of recorded launch
/// plans, and the logic to run them on a [`StreamProcessor`].
///
/// Clones share the plan cache — a service that hands one sorter to many
/// worker slots pays the planning cost once per problem shape.
#[derive(Clone, Debug, Default)]
pub struct GpuAbiSorter {
    config: SortConfig,
    plans: Arc<Mutex<HashMap<PlanKey, Arc<SortPlan>>>>,
}

/// The outcome of one sort run: the sorted data plus the cost-accounting
/// artefacts the experiments report.
#[derive(Clone, Debug)]
pub struct SortRun {
    /// The sorted values (same length as the input).
    pub output: Vec<Value>,
    /// Event counters accumulated by this run (the processor is reset at
    /// the start of the run).
    pub counters: Counters,
    /// Simulated running time under the processor's hardware profile.
    pub sim_time: SimTime,
    /// Host wall-clock time spent executing the run.
    pub wall_time: std::time::Duration,
    /// The padded power-of-two problem size the stream program operated on.
    pub padded_len: usize,
}

/// The outcome of one *batched segmented* sort: many equal-sized segments
/// sorted independently but in shared stream operations (see
/// [`GpuAbiSorter::sort_segments_run`]).
#[derive(Clone, Debug)]
pub struct SegmentedRun {
    /// The concatenation of the sorted segments, each ascending.
    pub output: Vec<Value>,
    /// Event counters accumulated by this run (the processor is reset at
    /// the start of the run).
    pub counters: Counters,
    /// Simulated running time under the processor's hardware profile.
    pub sim_time: SimTime,
    /// Host wall-clock time spent executing the run.
    pub wall_time: std::time::Duration,
    /// Length of every segment (a power of two).
    pub segment_len: usize,
    /// Number of segments (a power of two).
    pub segments: usize,
}

/// The outcome of one top-k run: the `k` smallest values plus the
/// cost-accounting artefacts (see [`GpuAbiSorter::top_k_run`]).
#[derive(Clone, Debug)]
pub struct TopKRun {
    /// The `k` smallest values, ascending (fewer if the input was
    /// shorter than `k`).
    pub output: Vec<Value>,
    /// Event counters accumulated by this run (the processor is reset at
    /// the start of the run).
    pub counters: Counters,
    /// Simulated running time under the processor's hardware profile.
    pub sim_time: SimTime,
    /// Host wall-clock time spent executing the run.
    pub wall_time: std::time::Duration,
    /// The block size the bitonic recursion stopped at. Equal to
    /// [`TopKRun::padded_len`] when the run degenerated to a full sort;
    /// strictly smaller — skipping the merge levels above it — whenever
    /// `2 · k` rounded up to a power of two is below the padded length.
    pub block_len: usize,
    /// The padded power-of-two problem size the stream program operated
    /// on.
    pub padded_len: usize,
}

impl GpuAbiSorter {
    /// Create a sorter with the given configuration.
    pub fn new(config: SortConfig) -> Self {
        GpuAbiSorter {
            config,
            plans: Arc::default(),
        }
    }

    /// The configuration of this sorter.
    pub fn config(&self) -> &SortConfig {
        &self.config
    }

    /// Number of distinct launch plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plans.lock().expect("plan cache poisoned").len()
    }

    /// The plan key [`Self::sort_run`] would use for an input of `len`
    /// values (after power-of-two padding), or `None` when no stream
    /// program runs (`len ≤ 1`).
    pub fn sort_plan_key(&self, len: usize) -> Option<PlanKey> {
        if len <= 1 {
            return None;
        }
        let n = len.next_power_of_two();
        Some(self.plan_key(n, n.trailing_zeros()))
    }

    /// Record (fresh, uncached) the launch plan [`Self::sort_run`] would
    /// execute for an input of `len` values — the `repro --dump-plan`
    /// backend.
    pub fn describe_plan(&self, len: usize) -> Option<String> {
        self.sort_plan_key(len)
            .map(|key| SortPlan::record(key).describe())
    }

    /// The plan key of a `run_stream_program` invocation: `n` elements,
    /// levels up to `top_level`, Section 7 optimizations gated on the
    /// independently sorted block size `2^top_level`.
    fn plan_key(&self, n: usize, top_level: u32) -> PlanKey {
        // The Section 7 optimizations assume at least 16 elements per
        // independently sorted block (8-element local-sort blocks,
        // 16-element fixed merges); below that the plain algorithm runs.
        let block = 1usize << top_level;
        let local_sort = self.config.local_sort_optimization && block >= 16;
        let fixed_merge = self.config.fixed_merge_optimization && block >= 16;
        PlanKey {
            n,
            first_level: if local_sort { 4 } else { 1 },
            top_level,
            local_sort,
            fixed_merge,
            overlapped: self.config.overlapped_steps,
        }
    }

    /// Look up (or record) the plan for `key`: the first run of a problem
    /// shape records the launch graph, every later run replays it.
    fn plan_for(&self, key: PlanKey) -> Arc<SortPlan> {
        let mut plans = self.plans.lock().expect("plan cache poisoned");
        Arc::clone(
            plans
                .entry(key)
                .or_insert_with(|| Arc::new(SortPlan::record(key))),
        )
    }

    /// Sort `values` ascending, returning just the sorted data.
    ///
    /// Arbitrary input lengths are supported: non-power-of-two inputs are
    /// padded with maximum-key sentinels (the paper’s padding remark in
    /// Section 4; see [`stream_arch::padding`]) which are cut off again
    /// before returning.
    pub fn sort(&self, proc: &mut StreamProcessor, values: &[Value]) -> Result<Vec<Value>> {
        Ok(self.sort_run(proc, values)?.output)
    }

    /// Sort `values` ascending and return the full [`SortRun`] record.
    pub fn sort_run(&self, proc: &mut StreamProcessor, values: &[Value]) -> Result<SortRun> {
        let started = std::time::Instant::now();
        proc.reset();

        let split = Split::new(values);
        let body = split.body();
        let (mut output, padded_len) = if body.len() <= 1 {
            (body.to_vec(), body.len())
        } else {
            // Pad to a power of two (Section 4). The padded copy lives in a
            // recycled arena buffer: a service sorting thousands of jobs on
            // one pooled processor reuses the same allocation run after run.
            let n = body.len().next_power_of_two();
            let mut padded = proc.arena().take_capacity::<Value>(n);
            padding::fill(&mut padded, body, n, &mut 0);
            let output = self.run_stream_program(proc, &padded, n.trailing_zeros())?;
            proc.arena().put_vec(padded);
            (output, n)
        };
        split.restore(&mut output);

        let counters = proc.counters();
        Ok(SortRun {
            output,
            sim_time: proc.simulated_time(),
            counters,
            wall_time: started.elapsed(),
            padded_len,
        })
    }

    /// Sort many equal-sized segments of `values` independently — but in
    /// *shared* stream operations — and return the full [`SegmentedRun`]
    /// record.
    ///
    /// This is the device side of a batched sorting service: the recursion
    /// of Listing 2 is simply stopped at level `log₂ segment_len`, so every
    /// `segment_len`-aligned block ends up sorted on its own while all
    /// blocks share each level's kernel launches. The number of stream
    /// operations is therefore that of sorting *one* segment, not
    /// `segments` times that — exactly the launch-overhead amortization the
    /// paper's cost model (Section 3.1) rewards for coalescing many small
    /// sorts into one device submission.
    ///
    /// Requirements: `segment_len` and `values.len() / segment_len` are
    /// powers of two, `values.len()` is a multiple of `segment_len`, and
    /// the elements of each segment are distinct under the total order
    /// (the adaptive-bitonic precondition; unique `id`s per segment
    /// suffice). Callers pad short segments through
    /// [`stream_arch::padding`] and restore each segment after the run.
    pub fn sort_segments_run(
        &self,
        proc: &mut StreamProcessor,
        values: &[Value],
        segment_len: usize,
    ) -> Result<SegmentedRun> {
        assert!(
            segment_len.is_power_of_two(),
            "segment_len must be a power of two"
        );
        assert!(
            values.len().is_multiple_of(segment_len),
            "values length must be a multiple of segment_len"
        );
        let segments = values.len() / segment_len;
        assert!(
            segments == 0 || segments.is_power_of_two(),
            "segment count must be a power of two"
        );

        let started = std::time::Instant::now();
        proc.reset();

        let mut output = if values.is_empty() || segment_len == 1 {
            // Zero or single-element segments are sorted by definition.
            values.to_vec()
        } else {
            self.run_stream_program(proc, values, segment_len.trailing_zeros())?
        };

        // Simultaneously merged trees alternate between ascending and
        // descending order (Listings 3/4); the service wants every segment
        // ascending, so the odd segments are read back in reverse.
        for t in (1..segments).step_by(2) {
            output[t * segment_len..(t + 1) * segment_len].reverse();
        }

        let counters = proc.counters();
        Ok(SegmentedRun {
            output,
            sim_time: proc.simulated_time(),
            counters,
            wall_time: started.elapsed(),
            segment_len,
            segments,
        })
    }

    /// The block size [`Self::top_k_run`] stops the bitonic recursion at
    /// for the `k` smallest of a `padded_len`-element padded input: `2·k`
    /// rounded up to a power of two, at least 16 so the Section 7
    /// optimizations stay applicable, at most `padded_len` when `k` is no
    /// longer small.
    pub fn top_k_block(padded_len: usize, k: usize) -> usize {
        (2 * k.next_power_of_two()).max(16).min(padded_len)
    }

    /// Return the `k` smallest values ascending, returning just the data.
    pub fn top_k(
        &self,
        proc: &mut StreamProcessor,
        values: &[Value],
        k: usize,
    ) -> Result<Vec<Value>> {
        Ok(self.top_k_run(proc, values, k)?.output)
    }

    /// Return the `k` smallest values ascending, stopping the bitonic
    /// recursion early, and return the full [`TopKRun`] record.
    ///
    /// The recursion of Listing 2 runs only up to level `log₂ b` where
    /// `b = max(16, 2·k rounded up to a power of two)`: every
    /// `b`-aligned block ends up sorted on its own (alternating
    /// directions, Listings 3/4) while the merge levels *above* `b` —
    /// which a full sort would still have to run — are skipped entirely.
    /// The `k` smallest of the whole input are necessarily among the `k`
    /// extremal elements of each sorted block, so the host-side readback
    /// filters `k` candidates per block (the prefix of ascending blocks,
    /// the reversed suffix of descending ones) and merges them by a
    /// `k`-way selection.
    ///
    /// Because the skipped merge levels cost at least one stream
    /// operation each (the workspace's `merge_blocks_is_the_tail_of_the_
    /// full_recursion` test shows level costs are additive), the kernel
    /// step count is *strictly* below a full sort's whenever `b` is
    /// smaller than the padded input length.
    pub fn top_k_run(
        &self,
        proc: &mut StreamProcessor,
        values: &[Value],
        k: usize,
    ) -> Result<TopKRun> {
        let started = std::time::Instant::now();
        proc.reset();

        let split = Split::new(values);
        let body = split.body();
        let k = k.min(values.len());
        let body_k = k.min(body.len());
        if body.len() <= 1 || body_k == 0 {
            let mut output = body[..body_k].to_vec();
            split.restore_top_k(&mut output, k);
            return Ok(TopKRun {
                output,
                counters: proc.counters(),
                sim_time: proc.simulated_time(),
                wall_time: started.elapsed(),
                block_len: body.len(),
                padded_len: body.len(),
            });
        }

        let n = body.len().next_power_of_two();
        let block = Self::top_k_block(n, body_k);

        let mut padded = proc.arena().take_capacity::<Value>(n);
        padding::fill(&mut padded, body, n, &mut 0);
        let blocks = self.run_stream_program(proc, &padded, block.trailing_zeros())?;
        proc.arena().put_vec(padded);

        // Candidate runs: the body_k smallest of each block, ascending.
        // Even blocks are sorted ascending (take the prefix), odd blocks
        // descending (take the suffix, reversed) — the Listing 3/4
        // alternating-direction convention. Padding sentinels are greater
        // than the whole body, so with body_k ≤ body.len() they never make
        // the cut.
        let take = body_k.min(block);
        let runs: Vec<Vec<Value>> = blocks
            .chunks(block)
            .enumerate()
            .map(|(t, chunk)| {
                if t % 2 == 0 {
                    chunk[..take].to_vec()
                } else {
                    chunk[chunk.len() - take..].iter().rev().copied().collect()
                }
            })
            .collect();

        // Host-side k-way selection merge over the candidate runs.
        let mut heap = std::collections::BinaryHeap::with_capacity(runs.len());
        for (r, run) in runs.iter().enumerate() {
            if let Some(&head) = run.first() {
                heap.push(std::cmp::Reverse((head, r, 0usize)));
            }
        }
        let mut output = Vec::with_capacity(k);
        while output.len() < body_k {
            let std::cmp::Reverse((value, r, i)) = heap.pop().expect("k candidates exist");
            output.push(value);
            if let Some(&next) = runs[r].get(i + 1) {
                heap.push(std::cmp::Reverse((next, r, i + 1)));
            }
        }
        split.restore_top_k(&mut output, k);

        let counters = proc.counters();
        Ok(TopKRun {
            output,
            sim_time: proc.simulated_time(),
            counters,
            wall_time: started.elapsed(),
            block_len: block,
            padded_len: n,
        })
    }

    /// Merge `values.len() / block_len` pre-sorted blocks into one sorted
    /// sequence on the device, and return the full [`SortRun`] record.
    ///
    /// This is the recombination half of Listing 2 run on its own: the
    /// recursion levels *below* `log₂ block_len` are skipped because the
    /// blocks are already sorted, and the remaining levels form a
    /// tournament of pairwise adaptive bitonic merges (each level merges
    /// adjacent blocks, halving the block count) until one sorted sequence
    /// remains. A multi-device sorter uses this as its p-way recombination
    /// step: shards sorted on other devices are gathered onto one device
    /// and merged here.
    ///
    /// Requirements: `block_len` and `values.len() / block_len` are powers
    /// of two, and the blocks are sorted in **alternating directions**
    /// (block 0 ascending, block 1 descending, …) — the Listing 3/4
    /// direction convention every level of the recursion expects. All
    /// elements must be distinct under the total order.
    pub fn merge_blocks_run(
        &self,
        proc: &mut StreamProcessor,
        values: &[Value],
        block_len: usize,
    ) -> Result<SortRun> {
        assert!(
            block_len.is_power_of_two(),
            "block_len must be a power of two"
        );
        assert!(
            values.len().is_multiple_of(block_len.max(1)),
            "values length must be a multiple of block_len"
        );
        let blocks = values.len() / block_len;
        assert!(
            blocks == 0 || blocks.is_power_of_two(),
            "block count must be a power of two"
        );

        let started = std::time::Instant::now();
        proc.reset();

        let output = if values.len() <= 1 || blocks <= 1 {
            // Zero or one block: already sorted by precondition.
            values.to_vec()
        } else {
            let n = values.len();
            proc.check_stream_size::<Node>(2 * n)?;
            let layout = self.config.layout.to_layout();
            // A block merge gates the fixed-merge tail on the *total* size
            // (every level it runs has 16-element groups available), and
            // never runs the local-sort prologue — the blocks arrive
            // sorted.
            let key = PlanKey {
                n,
                first_level: block_len.trailing_zeros() + 1,
                top_level: n.trailing_zeros(),
                local_sort: false,
                fixed_merge: self.config.fixed_merge_optimization && n >= 16,
                overlapped: self.config.overlapped_steps,
            };
            let plan = self.plan_for(key);
            let mut streams = MergeStreams::take(proc.arena(), n, layout);
            // Scratch/merged value streams are written in full by
            // `traverse16` / `fixed_merge16` before either is read, so
            // their refill is elided too.
            let mut scratch_values: Stream<Value> =
                proc.arena().take_stream_uninit("scratch-values", n, layout);
            let mut merged_values: Stream<Value> =
                proc.arena().take_stream_uninit("merged-values", n, layout);

            // The Listing-2 invariant at the start of level j is "the input
            // half holds the values in in-order storage, each 2^(j-1) block
            // sorted in alternating directions" — exactly what the caller
            // provides, so the recursion simply resumes above the blocks.
            kernels::init_input_trees(&mut streams.trees_a, values);
            plan.execute(
                proc,
                &mut PlanBuffers {
                    trees_a: &mut streams.trees_a,
                    trees_b: &mut streams.trees_b,
                    pq: &mut streams.pq,
                    scratch: Some(&mut scratch_values),
                    merged: Some(&mut merged_values),
                    source: None,
                },
            )?;
            let output = kernels::read_back_values(&streams.trees_a, n);
            streams.recycle(proc.arena());
            proc.arena().recycle(scratch_values);
            proc.arena().recycle(merged_values);
            output
        };

        let counters = proc.counters();
        Ok(SortRun {
            output,
            sim_time: proc.simulated_time(),
            counters,
            wall_time: started.elapsed(),
            padded_len: values.len(),
        })
    }

    /// The stream program shared by [`Self::sort_run`] (runs all
    /// `log₂ n` recursion levels) and [`Self::sort_segments_run`] (stops at
    /// level `top_level`, leaving every `2^top_level`-aligned block sorted
    /// with alternating directions).
    ///
    /// `padded.len()` must be a power-of-two multiple of `2^top_level`.
    fn run_stream_program(
        &self,
        proc: &mut StreamProcessor,
        padded: &[Value],
        top_level: u32,
    ) -> Result<Vec<Value>> {
        let n = padded.len();
        proc.check_stream_size::<Node>(2 * n)?;
        let layout = self.config.layout.to_layout();
        let key = self.plan_key(n, top_level);
        let plan = self.plan_for(key);

        if self.config.include_transfer {
            // Upload of the input pairs and readback of the sorted output
            // (Section 8).
            proc.charge_transfer(2 * (n as u64) * 8);
        }

        let mut streams = MergeStreams::take(proc.arena(), n, layout);
        // Value streams used by the Section 7 kernels. Both are fully
        // written before they are read (`local_sort8`/`traverse16` fill
        // the scratch stream, `fixed_merge16` the merged stream), so the
        // default refill is elided.
        let mut scratch_values: Stream<Value> =
            proc.arena().take_stream_uninit("scratch-values", n, layout);
        let mut merged_values: Stream<Value> =
            proc.arena().take_stream_uninit("merged-values", n, layout);

        // --- Input setup -------------------------------------------------
        let source = if key.local_sort {
            // Section 7.1: the plan starts with the local sort of 8
            // value/pointer pairs per kernel instance; it reads the source
            // pairs from their own stream.
            Some(
                proc.arena()
                    .take_stream_from("source-values", padded, layout),
            )
        } else {
            // Listing 2: the input half of the node stream holds the source
            // data with the fixed in-order child indices (host-side
            // initialization / data upload).
            kernels::init_input_trees(&mut streams.trees_a, padded);
            None
        };

        plan.execute(
            proc,
            &mut PlanBuffers {
                trees_a: &mut streams.trees_a,
                trees_b: &mut streams.trees_b,
                pq: &mut streams.pq,
                scratch: Some(&mut scratch_values),
                merged: Some(&mut merged_values),
                source: source.as_ref(),
            },
        )?;

        let output = kernels::read_back_values(&streams.trees_a, n);
        streams.recycle(proc.arena());
        proc.arena().recycle(scratch_values);
        proc.arena().recycle(merged_values);
        if let Some(source) = source {
            proc.arena().recycle(source);
        }
        Ok(output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LayoutChoice, SortConfig};
    use crate::verify::check_sorts;
    use stream_arch::GpuProfile;
    use workloads::Distribution;

    fn run(config: SortConfig, n: usize, seed: u64) -> SortRun {
        let input = workloads::uniform(n, seed);
        let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
        let sorter = GpuAbiSorter::new(config);
        let run = sorter.sort_run(&mut proc, &input).expect("sort failed");
        check_sorts(&input, &run.output).expect("incorrect sort");
        run
    }

    #[test]
    fn default_configuration_sorts_various_sizes() {
        for &n in &[16usize, 32, 64, 128, 256, 512, 1024, 4096] {
            run(SortConfig::default(), n, n as u64);
        }
    }

    #[test]
    fn unoptimized_configuration_sorts_various_sizes() {
        for &n in &[2usize, 4, 8, 16, 64, 256, 1024] {
            run(SortConfig::unoptimized(), n, n as u64);
        }
    }

    #[test]
    fn every_configuration_combination_sorts_correctly() {
        let n = 256;
        for overlapped in [false, true] {
            for local in [false, true] {
                for fixed in [false, true] {
                    for layout in [LayoutChoice::ZOrder, LayoutChoice::RowWise { width: 64 }] {
                        let config = SortConfig {
                            layout,
                            overlapped_steps: overlapped,
                            local_sort_optimization: local,
                            fixed_merge_optimization: fixed,
                            include_transfer: false,
                        };
                        let input = workloads::uniform(n, 7);
                        let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
                        let out = GpuAbiSorter::new(config).sort(&mut proc, &input).unwrap();
                        check_sorts(&input, &out)
                            .unwrap_or_else(|e| panic!("{}: {e}", config.describe()));
                    }
                }
            }
        }
    }

    #[test]
    fn non_power_of_two_lengths_are_padded() {
        for &n in &[1usize, 3, 17, 100, 1000, 1023] {
            let input = workloads::uniform(n, n as u64);
            let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
            let out = GpuAbiSorter::new(SortConfig::default())
                .sort(&mut proc, &input)
                .unwrap();
            assert_eq!(out.len(), n);
            if n > 1 {
                check_sorts(&input, &out).unwrap();
            }
        }
    }

    #[test]
    fn small_inputs_fall_back_to_the_plain_algorithm() {
        // n < 16 cannot use the Section 7 optimizations; the sorter must
        // still work with the default (optimized) configuration.
        for &n in &[2usize, 4, 8] {
            run(SortConfig::default(), n, 5);
        }
    }

    #[test]
    fn adversarial_distributions_are_sorted() {
        for dist in Distribution::all_for_data_dependence() {
            let input = workloads::generate(dist, 512, 3);
            let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
            let out = GpuAbiSorter::new(SortConfig::default())
                .sort(&mut proc, &input)
                .unwrap();
            check_sorts(&input, &out).unwrap_or_else(|e| panic!("{}: {e}", dist.name()));
        }
    }

    #[test]
    fn comparison_count_is_data_independent() {
        let n = 1024;
        let mut counts = std::collections::HashSet::new();
        for dist in Distribution::all_for_data_dependence() {
            let input = workloads::generate(dist, n, 11);
            let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
            let run = GpuAbiSorter::new(SortConfig::default())
                .sort_run(&mut proc, &input)
                .unwrap();
            counts.insert(run.counters.comparisons);
        }
        assert_eq!(counts.len(), 1, "comparison counts varied: {counts:?}");
    }

    #[test]
    fn stream_and_sequential_sorts_agree() {
        for seed in 0..5u64 {
            let input = workloads::uniform(512, seed);
            let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
            let stream_out = GpuAbiSorter::new(SortConfig::default())
                .sort(&mut proc, &input)
                .unwrap();
            let seq_out = crate::sequential::adaptive_bitonic_sort(&input);
            assert_eq!(stream_out, seq_out);
        }
    }

    #[test]
    fn overlapped_steps_reduce_stream_operations() {
        let n = 4096;
        let overlapped = run(SortConfig::unoptimized().with_overlapped_steps(true), n, 1);
        let sequential = run(SortConfig::unoptimized(), n, 1);
        assert!(overlapped.counters.steps < sequential.counters.steps);
        assert_eq!(
            overlapped.counters.comparisons,
            sequential.counters.comparisons
        );
    }

    #[test]
    fn optimizations_reduce_steps_and_comparisons_stay_bounded() {
        let n = 4096;
        let optimized = run(SortConfig::default(), n, 2);
        let plain = run(
            SortConfig::default()
                .with_local_sort(false)
                .with_fixed_merge(false),
            n,
            2,
        );
        assert!(optimized.counters.steps < plain.counters.steps);
        // The plain adaptive sort stays under the 2 n log n comparison bound
        // cited in Section 2.1. The Section 7 optimizations trade a few
        // extra comparisons (the fixed merge is non-adaptive) for far fewer
        // stream operations, so its bound is slightly looser.
        let n_log_n = (n as u64) * 12;
        assert!(plain.counters.comparisons < 2 * n_log_n);
        assert!(optimized.counters.comparisons < 3 * n_log_n);
    }

    #[test]
    fn z_order_layout_beats_row_wise_in_simulated_time() {
        let n = 8192;
        let z = run(SortConfig::z_order(), n, 9);
        let row = run(SortConfig::row_wise(2048), n, 9);
        assert!(
            z.sim_time.total_ms < row.sim_time.total_ms,
            "z-order {:.2} ms vs row-wise {:.2} ms",
            z.sim_time.total_ms,
            row.sim_time.total_ms
        );
        assert!(z.counters.bytes_read < row.counters.bytes_read);
    }

    #[test]
    fn transfer_charge_is_optional_and_additive() {
        let n = 1024;
        let without = run(SortConfig::default(), n, 4);
        let with = run(SortConfig::default().with_transfer(true), n, 4);
        assert_eq!(without.counters.transfer_bytes, 0);
        assert_eq!(with.counters.transfer_bytes, 2 * 1024 * 8);
        assert!(with.sim_time.total_ms > without.sim_time.total_ms);
    }

    #[test]
    fn sort_run_reports_padded_length_and_wall_time() {
        let input = workloads::uniform(100, 0);
        let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
        let run = GpuAbiSorter::new(SortConfig::default())
            .sort_run(&mut proc, &input)
            .unwrap();
        assert_eq!(run.padded_len, 128);
        assert_eq!(run.output.len(), 100);
        assert!(run.wall_time.as_nanos() > 0);
    }

    #[test]
    fn empty_and_single_element_inputs() {
        let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
        let sorter = GpuAbiSorter::new(SortConfig::default());
        assert!(sorter.sort(&mut proc, &[]).unwrap().is_empty());
        let one = vec![Value::new(2.0, 7)];
        assert_eq!(sorter.sort(&mut proc, &one).unwrap(), one);
    }

    /// Reference for the segmented sort: sort each `segment_len` block of
    /// `input` on its own.
    fn per_segment_sorted(input: &[Value], segment_len: usize) -> Vec<Value> {
        let mut expected = input.to_vec();
        for chunk in expected.chunks_mut(segment_len.max(1)) {
            chunk.sort();
        }
        expected
    }

    #[test]
    fn segmented_sort_sorts_every_segment_ascending() {
        for &(segments, segment_len) in &[
            (1usize, 16usize),
            (2, 16),
            (2, 8),
            (4, 4),
            (8, 2),
            (16, 1),
            (4, 64),
            (8, 32),
            (2, 256),
        ] {
            let input = workloads::uniform(segments * segment_len, (segments * segment_len) as u64);
            let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
            let run = GpuAbiSorter::new(SortConfig::default())
                .sort_segments_run(&mut proc, &input, segment_len)
                .expect("segmented sort failed");
            assert_eq!(run.segments, segments);
            assert_eq!(
                run.output,
                per_segment_sorted(&input, segment_len),
                "segments={segments} segment_len={segment_len}"
            );
        }
    }

    #[test]
    fn segmented_sort_works_for_every_configuration() {
        let segments = 4;
        let segment_len = 64;
        let input = workloads::uniform(segments * segment_len, 7);
        let expected = per_segment_sorted(&input, segment_len);
        for config in [
            SortConfig::default(),
            SortConfig::unoptimized(),
            SortConfig::unoptimized().with_overlapped_steps(true),
            SortConfig::default().with_fixed_merge(false),
            SortConfig::default().with_local_sort(false),
            SortConfig::row_wise(64),
        ] {
            let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
            let run = GpuAbiSorter::new(config)
                .sort_segments_run(&mut proc, &input, segment_len)
                .expect("segmented sort failed");
            assert_eq!(run.output, expected, "{}", config.describe());
        }
    }

    #[test]
    fn segmented_sort_amortizes_stream_operations() {
        // Sorting k segments in one batched submission costs exactly the
        // stream operations of sorting ONE segment — every level's launches
        // are shared by all segments — while a one-job-per-launch submission
        // pays them k times. This is the economics the sorting service is
        // built on (Section 3.1 launch overhead).
        let segment_len = 256;
        let segments = 8;
        let input = workloads::uniform(segments * segment_len, 3);

        let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
        let sorter = GpuAbiSorter::new(SortConfig::default());
        let batched = sorter
            .sort_segments_run(&mut proc, &input, segment_len)
            .unwrap();

        let single = sorter.sort_run(&mut proc, &input[..segment_len]).unwrap();

        assert_eq!(batched.counters.steps, single.counters.steps);
        assert_eq!(
            batched.counters.kernel_instances,
            segments as u64 * single.counters.kernel_instances
        );
        // The batch is nevertheless cheaper than k separate submissions in
        // simulated time.
        let naive_ms = segments as f64 * single.sim_time.total_ms;
        assert!(
            batched.sim_time.total_ms < naive_ms,
            "batched {:.3} ms vs naive {:.3} ms",
            batched.sim_time.total_ms,
            naive_ms
        );
    }

    #[test]
    fn segmented_sort_with_sentinel_padding_truncates_cleanly() {
        // Two jobs of uneven length padded into 16-element segments: after
        // the run the sentinels sit at the end of each segment, so
        // restoring each segment yields the per-job sorted data.
        let jobs: Vec<Vec<Value>> = vec![workloads::uniform(11, 1), workloads::uniform(5, 2)];
        let splits: Vec<Split<'_>> = jobs.iter().map(|job| Split::new(job)).collect();
        let segment_len = 16;
        let mut packed = Vec::new();
        let mut pad = 0usize;
        for (t, split) in splits.iter().enumerate() {
            padding::fill(&mut packed, split.body(), (t + 1) * segment_len, &mut pad);
        }
        let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
        let run = GpuAbiSorter::new(SortConfig::default())
            .sort_segments_run(&mut proc, &packed, segment_len)
            .unwrap();
        for (t, (job, split)) in jobs.iter().zip(&splits).enumerate() {
            let mut got = run.output[t * segment_len..(t + 1) * segment_len].to_vec();
            split.restore(&mut got);
            let mut expected = job.clone();
            expected.sort();
            assert_eq!(got, expected, "job {t}");
        }
    }

    /// Alternating-direction pre-sorted blocks, the precondition of
    /// [`GpuAbiSorter::merge_blocks_run`].
    fn alternating_blocks(input: &[Value], block_len: usize) -> Vec<Value> {
        let mut blocks = input.to_vec();
        for (t, chunk) in blocks.chunks_mut(block_len).enumerate() {
            if t % 2 == 0 {
                chunk.sort();
            } else {
                chunk.sort_by(|a, b| b.cmp(a));
            }
        }
        blocks
    }

    #[test]
    fn merge_blocks_recombines_presorted_blocks() {
        for &(blocks, block_len) in &[(2usize, 16usize), (4, 64), (8, 32), (2, 256), (16, 16)] {
            let input = workloads::uniform(blocks * block_len, (blocks + block_len) as u64);
            let prepared = alternating_blocks(&input, block_len);
            let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
            let run = GpuAbiSorter::new(SortConfig::default())
                .merge_blocks_run(&mut proc, &prepared, block_len)
                .expect("block merge failed");
            let mut expected = input.clone();
            expected.sort();
            assert_eq!(
                run.output, expected,
                "blocks={blocks} block_len={block_len}"
            );
        }
    }

    #[test]
    fn merge_blocks_works_for_every_configuration() {
        let input = workloads::uniform(512, 21);
        let prepared = alternating_blocks(&input, 128);
        let mut expected = input.clone();
        expected.sort();
        for config in [
            SortConfig::default(),
            SortConfig::unoptimized(),
            SortConfig::unoptimized().with_overlapped_steps(true),
            SortConfig::default().with_fixed_merge(false),
            SortConfig::row_wise(64),
        ] {
            let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
            let run = GpuAbiSorter::new(config)
                .merge_blocks_run(&mut proc, &prepared, 128)
                .expect("block merge failed");
            assert_eq!(run.output, expected, "{}", config.describe());
        }
    }

    #[test]
    fn merge_blocks_is_the_tail_of_the_full_recursion() {
        // A segmented sort stopped at level log₂(segment) plus a block
        // merge of its (re-reversed) output runs exactly the levels the
        // full sort runs — so the outputs agree and the stream-operation
        // counts add up to the full sort's count.
        let n = 2048;
        let seg = 256;
        let input = workloads::uniform(n, 17);
        let sorter = GpuAbiSorter::new(SortConfig::default());
        let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());

        let full = sorter.sort_run(&mut proc, &input).unwrap();
        let segmented = sorter.sort_segments_run(&mut proc, &input, seg).unwrap();

        // Undo the readback reversal: the merge wants alternating order.
        let mut blocks = segmented.output.clone();
        for t in (1..n / seg).step_by(2) {
            blocks[t * seg..(t + 1) * seg].reverse();
        }
        let merged = sorter.merge_blocks_run(&mut proc, &blocks, seg).unwrap();

        assert_eq!(merged.output, full.output);
        assert_eq!(
            segmented.counters.steps + merged.counters.steps,
            full.counters.steps,
            "segment + merge levels must cost exactly the full recursion"
        );
        assert!(merged.sim_time.total_ms < full.sim_time.total_ms);
    }

    #[test]
    fn merge_blocks_handles_degenerate_shapes() {
        let sorter = GpuAbiSorter::new(SortConfig::default());
        let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
        // Empty input and a single block are returned as-is.
        assert!(sorter
            .merge_blocks_run(&mut proc, &[], 16)
            .unwrap()
            .output
            .is_empty());
        let mut one = workloads::uniform(64, 3);
        one.sort();
        assert_eq!(
            sorter.merge_blocks_run(&mut proc, &one, 64).unwrap().output,
            one
        );
        // Tiny blocks below the Section 7 sizes still merge correctly.
        let input = workloads::uniform(8, 5);
        let prepared = alternating_blocks(&input, 2);
        let mut expected = input.clone();
        expected.sort();
        assert_eq!(
            sorter
                .merge_blocks_run(&mut proc, &prepared, 2)
                .unwrap()
                .output,
            expected
        );
    }

    #[test]
    fn top_k_matches_the_sorted_prefix() {
        for &(n, k) in &[
            (1000usize, 10usize),
            (1024, 1),
            (1023, 16),
            (256, 256),
            (100, 200), // k > n clamps to n
            (17, 5),
            (2, 1),
            (1, 1),
            (0, 3),
            (64, 0),
        ] {
            let input = workloads::uniform(n, (n + k) as u64);
            let mut expected = input.clone();
            expected.sort();
            expected.truncate(k.min(n));
            let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
            let run = GpuAbiSorter::new(SortConfig::default())
                .top_k_run(&mut proc, &input, k)
                .expect("top-k failed");
            assert_eq!(run.output, expected, "n={n} k={k}");
        }
    }

    #[test]
    fn top_k_matches_the_sorted_prefix_on_adversarial_distributions() {
        for dist in Distribution::all_for_data_dependence() {
            let input = workloads::generate(dist, 512, 13);
            let mut expected = input.clone();
            expected.sort();
            expected.truncate(20);
            let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
            let run = GpuAbiSorter::new(SortConfig::default())
                .top_k_run(&mut proc, &input, 20)
                .expect("top-k failed");
            assert_eq!(run.output, expected, "{}", dist.name());
        }
    }

    #[test]
    fn top_k_does_strictly_fewer_kernel_steps_than_a_full_sort() {
        // The acceptance claim: stopping the recursion at blocks of ~2k
        // skips every merge level above them, so for k ≪ n the kernel
        // step count is strictly below the full sort of the same input.
        let n = 4096;
        let input = workloads::uniform(n, 23);
        let sorter = GpuAbiSorter::new(SortConfig::default());
        let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());

        let full = sorter.sort_run(&mut proc, &input).unwrap();
        for k in [1usize, 8, 64] {
            let top = sorter.top_k_run(&mut proc, &input, k).unwrap();
            assert!(top.block_len < top.padded_len, "k={k} must stop early");
            assert!(
                top.counters.steps < full.counters.steps,
                "k={k}: top-k ran {} steps, full sort {}",
                top.counters.steps,
                full.counters.steps
            );
            assert!(top.sim_time.total_ms < full.sim_time.total_ms);
        }

        // Once k stops being small the run degenerates to the full sort.
        let large = sorter.top_k_run(&mut proc, &input, n).unwrap();
        assert_eq!(large.block_len, large.padded_len);
        assert_eq!(large.counters.steps, full.counters.steps);
    }

    #[test]
    fn segmented_sort_handles_empty_input() {
        let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
        let run = GpuAbiSorter::new(SortConfig::default())
            .sort_segments_run(&mut proc, &[], 16)
            .unwrap();
        assert!(run.output.is_empty());
        assert_eq!(run.segments, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn segmented_sort_rejects_non_power_of_two_segment_count() {
        let input = workloads::uniform(48, 0); // 3 segments of 16
        let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
        let _ = GpuAbiSorter::new(SortConfig::default()).sort_segments_run(&mut proc, &input, 16);
    }

    #[test]
    fn stream_size_limit_is_enforced() {
        // A profile with a tiny maximum texture dimension must reject
        // oversized inputs instead of producing wrong results.
        let mut profile = GpuProfile::geforce_6800();
        profile.max_texture_dim = 8; // max 64 elements per stream
        let mut proc = StreamProcessor::new(profile);
        let input = workloads::uniform(64, 0); // needs a 128-node stream
        let err = GpuAbiSorter::new(SortConfig::default())
            .sort(&mut proc, &input)
            .unwrap_err();
        assert!(matches!(
            err,
            stream_arch::StreamError::StreamTooLarge { .. }
        ));
    }
}
