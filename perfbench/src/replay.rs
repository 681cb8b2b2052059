//! The traced run's replay: the workload's own jobs fed through each
//! public call in turn, one layer at a time, each call in a span.
//!
//! The live workload shows how the layers behave together; the replay
//! prices each layer alone on the same data, so a per-layer metric can be
//! set against the end-to-end number it should move.

use crate::trace::SpanLog;
use crate::wire::Pool;
use crate::{median, same_output, Outcome, Scale};
use abisort::{GpuAbiSorter, SortConfig};
use baselines::CpuSorter;
use sortsvc::batch::segment_for;
use sortsvc::net::{PayloadEncoding, ResultPayload, SubmitPayload, RAW_RECORD_LEN};
use sortsvc::wal::FsyncPolicy;
use sortsvc::{
    AdmittedJob, Engine, JobKind, PolicyConfig, ServiceConfig, SortJob, SortPolicy, SortService,
    Wal, WalConfig,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use stream_arch::{ArenaStats, Counters, GpuProfile, SimTime, StreamProcessor, Value};

/// Engine-call totals behind the `stream_arch.*` metrics.
#[derive(Clone, Debug, Default)]
pub struct EngineTally {
    /// Engine calls.
    pub calls: u64,
    /// Kernel launches.
    pub launches: u64,
    /// Kernel instances.
    pub kernel_instances: u64,
    /// Host time of the engine calls, ns.
    pub wall_ns: f64,
    /// Simulated time, ms.
    pub sim_ms: f64,
    /// Simulated cache hits.
    pub cache_hits: u64,
    /// Simulated cache accesses.
    pub cache_accesses: u64,
    /// Real (input) elements.
    pub real: u64,
    /// Padded elements the engine operated on.
    pub padded: u64,
    /// Arena takes over the measured calls.
    pub arena_takes: u64,
    /// Arena hits over the measured calls.
    pub arena_hits: u64,
}

impl EngineTally {
    /// Add one engine call.
    pub fn add(
        &mut self,
        counters: &Counters,
        sim: &SimTime,
        wall: Duration,
        real: usize,
        padded: usize,
    ) {
        self.calls += 1;
        self.launches += counters.launches;
        self.kernel_instances += counters.kernel_instances;
        self.wall_ns += wall.as_nanos() as f64;
        self.sim_ms += sim.total_ms;
        self.cache_hits += counters.cache.hits;
        self.cache_accesses += counters.cache.accesses;
        self.real += real as u64;
        self.padded += padded as u64;
    }

    /// Record the arena's reuse over the measured calls.
    pub fn arena(&mut self, before: &ArenaStats, after: &ArenaStats) {
        self.arena_takes += after.takes - before.takes;
        self.arena_hits += after.hits - before.hits;
    }

    /// Set the six `stream_arch.*` metrics.
    pub fn report_stream_arch(&self, out: &mut Outcome) {
        let calls = self.calls.max(1) as f64;
        out.set("stream_arch.launches", self.launches as f64 / calls);
        out.set(
            "stream_arch.kernel_instances",
            self.kernel_instances as f64 / calls,
        );
        out.set(
            "stream_arch.host_ns_per_instance",
            self.wall_ns / self.kernel_instances.max(1) as f64,
        );
        out.set(
            "stream_arch.arena_hit_rate",
            self.arena_hits as f64 / self.arena_takes.max(1) as f64,
        );
        out.set("stream_arch.sim_ms", self.sim_ms / calls);
        out.set(
            "stream_arch.cache_hit_rate",
            self.cache_hits as f64 / self.cache_accesses.max(1) as f64,
        );
        out.line(format!(
            "engine totals over {} calls: launches={} kernel_instances={} sim_ms={} \
             cache_hits={} cache_accesses={} padded_elements={}",
            self.calls,
            self.launches,
            self.kernel_instances,
            self.sim_ms,
            self.cache_hits,
            self.cache_accesses,
            self.padded
        ));
    }

    /// Host ns per real element.
    pub fn ns_per_real(&self) -> f64 {
        self.wall_ns / self.real.max(1) as f64
    }
}

/// What the replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// `frame.*` ns per element: submit encode, submit decode, result
    /// encode, result decode.
    pub frame_ns_per_elem: [f64; 4],
    /// `Wal::append_admitted` + `append_completed`, `OnRotate`.
    pub wal_ns_per_elem: f64,
    /// The same calls with `FsyncPolicy::Always`.
    pub wal_always_ns_per_elem: f64,
    /// WAL directory bytes ÷ job payload bytes.
    pub wal_bytes_per_user_byte: f64,
    /// `SortService::process` host ns per element.
    pub process_ns_per_elem: f64,
    /// Process time − reported engine time, per call, µs.
    pub overhead_us_per_batch: f64,
    /// `sort_segments_run` on the GPU-routed batches (measured pass).
    pub segments: EngineTally,
    /// `sort_run` on every job (measured pass), when asked for.
    pub sort_run: Option<EngineTally>,
    /// `CpuSorter::sort` ns per element.
    pub cpu_ns_per_elem: f64,
    /// Median `SortPolicy::calibrate` time, ms.
    pub calibrate_ms: f64,
    /// Plans cached by the replay's sorter.
    pub cached_plans: usize,
    /// Mean self time per call of each replayed span.
    pub mean_self_ms: BTreeMap<&'static str, f64>,
}

/// Replay the jobs of `pool` through every layer. `group` is the
/// micro-batch size the service calls use; `with_sort_run` adds an engine
/// `sort_run` pass over every job.
pub fn run(
    pool: &Pool,
    group: usize,
    with_sort_run: bool,
    scale: &Scale,
    wal_dir: &Path,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> Replay {
    let (jobs, expected) = (&pool.jobs[..], &pool.expected[..]);
    let mut r = Replay::default();
    let elements: usize = jobs.iter().map(Vec::len).sum();

    // frame: the SUBMIT and RESULT payload codecs.
    let mut frame_ns = [0.0f64; 4];
    for (i, (job, want)) in jobs.iter().zip(expected).enumerate() {
        let id = i as u64;
        let submit = SubmitPayload {
            job_id: id,
            tenant: 0,
            encoding: PayloadEncoding::RawLe,
            values: job.clone(),
        };
        let (bytes, ns) = timed(log, "frame.submit_encode", id, || {
            submit.encode().expect("encode SUBMIT")
        });
        frame_ns[0] += ns;
        let (decoded, ns) = timed(log, "frame.submit_decode", id, || {
            SubmitPayload::decode(&bytes).expect("decode SUBMIT")
        });
        frame_ns[1] += ns;
        check(same_output(&decoded.values, job), out);
        let result = ResultPayload {
            job_id: id,
            encoding: PayloadEncoding::RawLe,
            values: want.clone(),
        };
        let (bytes, ns) = timed(log, "frame.result_encode", id, || {
            result.encode().expect("encode RESULT")
        });
        frame_ns[2] += ns;
        let (decoded, ns) = timed(log, "frame.result_decode", id, || {
            ResultPayload::decode(&bytes).expect("decode RESULT")
        });
        frame_ns[3] += ns;
        check(same_output(&decoded.values, want), out);
    }
    r.frame_ns_per_elem = frame_ns.map(|ns| ns / elements.max(1) as f64);

    // wal: admission + completion records, at both fsync policies. The
    // `Always` pass gets one segment, so its directory holds every byte
    // appended.
    r.wal_ns_per_elem = wal_pass(
        &wal_dir.join("on-rotate"),
        WalConfig::default(),
        jobs,
        "wal.append",
        log,
    )
    .0;
    let always = &jobs[..scale.wal_always_jobs.min(jobs.len())];
    let (ns, bytes) = wal_pass(
        &wal_dir.join("always"),
        WalConfig {
            segment_max_bytes: u64::MAX,
            fsync: FsyncPolicy::Always,
        },
        always,
        "wal.append_always",
        log,
    );
    r.wal_always_ns_per_elem = ns;
    let user_bytes: usize = always.iter().map(|j| j.len() * RAW_RECORD_LEN).sum();
    r.wal_bytes_per_user_byte = bytes as f64 / user_bytes.max(1) as f64;

    // policy: calibration with the default configuration.
    let profile = GpuProfile::geforce_7800();
    let mut calibrate = Vec::new();
    for i in 0..3 {
        let (_, ns) = timed(log, "policy.calibrate", i, || {
            SortPolicy::calibrate(&profile, &SortConfig::default(), &PolicyConfig::default())
        });
        calibrate.push(ns / 1e6);
    }
    r.calibrate_ms = median(&calibrate);

    // service: `process` on the jobs in micro-batch-sized groups; the
    // first pass records the sorter's plans, the second is measured.
    let service = SortService::new(ServiceConfig::default());
    service_pass(
        &service,
        jobs,
        expected,
        group,
        "service.process_warm",
        log,
        out,
    );
    let pass = service_pass(&service, jobs, expected, group, "service.process", log, out);
    r.process_ns_per_elem = pass.ns / elements.max(1) as f64;
    r.overhead_us_per_batch = (pass.ns / 1e3 - pass.engine_ms * 1e3) / pass.calls.max(1) as f64;
    let cpu_jobs = pass.cpu;
    let gpu_batches = if pass.gpu.is_empty() {
        // No job of this workload reaches the GPU under the calibrated
        // policy; price the segmented engine on the batches it would form
        // with every job pinned to the GPU.
        let forced = SortService::with_policy(
            ServiceConfig::default(),
            service.policy().clone().with_crossover(0),
        );
        let mut quiet = SpanLog::new(false, Instant::now());
        service_pass(
            &forced,
            jobs,
            expected,
            group,
            "service.process_forced",
            &mut quiet,
            out,
        )
        .gpu
    } else {
        pass.gpu
    };
    let gpu_batches = if gpu_batches.is_empty() {
        // Jobs large enough for the sharded route: one segment each.
        (0..jobs.len()).map(|i| vec![i]).collect()
    } else {
        gpu_batches
    };

    // abisort/stream_arch: the segmented engine on those batches, then
    // (optionally) `sort_run` on every job. The first pass records plans
    // and fills the arena; the second is measured.
    let sorter = GpuAbiSorter::new(SortConfig::default());
    let mut proc = StreamProcessor::new(profile.clone());
    for pass in 0..2 {
        let mut tally = EngineTally::default();
        let before = proc.arena_ref().stats();
        for (b, batch) in gpu_batches.iter().enumerate() {
            let m = batch
                .iter()
                .map(|&i| segment_for(jobs[i].len()))
                .max()
                .unwrap_or(1);
            let segments = batch.len().next_power_of_two();
            let mut packed = Vec::with_capacity(m * segments);
            let mut pad = 0usize;
            for &i in batch {
                packed.extend_from_slice(&jobs[i]);
                for _ in jobs[i].len()..m {
                    packed.push(Value::padding_sentinel(pad));
                    pad += 1;
                }
            }
            while packed.len() < m * segments {
                packed.push(Value::padding_sentinel(pad));
                pad += 1;
            }
            let name = if pass == 0 {
                "abisort.segments_warm"
            } else {
                "abisort.sort_segments_run"
            };
            let run = log.time(name, None, b as u64, || {
                sorter
                    .sort_segments_run(&mut proc, &packed, m)
                    .expect("sort_segments_run")
            });
            for (t, &i) in batch.iter().enumerate() {
                check(
                    same_output(&run.output[t * m..t * m + jobs[i].len()], &expected[i]),
                    out,
                );
            }
            let real = batch.iter().map(|&i| jobs[i].len()).sum();
            tally.add(
                &run.counters,
                &run.sim_time,
                run.wall_time,
                real,
                packed.len(),
            );
        }
        tally.arena(&before, &proc.arena_ref().stats());
        r.segments = tally;
    }
    if with_sort_run {
        let mut proc = StreamProcessor::new(profile.clone());
        for pass in 0..2 {
            let mut tally = EngineTally::default();
            let before = proc.arena_ref().stats();
            for (i, (job, want)) in jobs.iter().zip(expected).enumerate() {
                let name = if pass == 0 {
                    "abisort.sort_warm"
                } else {
                    "abisort.sort_run"
                };
                let run = log.time(name, None, i as u64, || {
                    sorter.sort_run(&mut proc, job).expect("sort_run")
                });
                check(same_output(&run.output, want), out);
                tally.add(
                    &run.counters,
                    &run.sim_time,
                    run.wall_time,
                    job.len(),
                    run.padded_len,
                );
            }
            tally.arena(&before, &proc.arena_ref().stats());
            r.sort_run = Some(tally);
        }
    }
    r.cached_plans = sorter.cached_plans();

    // baselines: the CPU sorter on the CPU-routed jobs (every job when the
    // policy routed none to it).
    let cpu: Vec<usize> = if cpu_jobs.is_empty() {
        (0..jobs.len()).collect()
    } else {
        cpu_jobs
    };
    let (mut ns, mut n) = (0.0, 0usize);
    for i in cpu {
        let ((sorted, _stats), t) = timed(log, "baselines.cpu_sort", i as u64, || {
            CpuSorter.sort(&jobs[i])
        });
        check(same_output(&sorted, &expected[i]), out);
        ns += t;
        n += jobs[i].len();
    }
    r.cpu_ns_per_elem = ns / n.max(1) as f64;

    r.mean_self_ms = log
        .times()
        .into_iter()
        .map(|(k, t)| (k, t.mean_self_ms()))
        .collect();
    r
}

/// Count a wrong output.
fn check(ok: bool, out: &mut Outcome) {
    if !ok {
        out.mismatches += 1;
    }
}

/// Run `f` in a span and return its result and duration in ns.
fn timed<R>(log: &mut SpanLog, name: &'static str, job: u64, f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let out = log.time(name, None, job, f);
    (out, started.elapsed().as_nanos() as f64)
}

/// Append an admission and a completion record per job to a fresh log in
/// `dir`; return ns per element and the directory's bytes afterwards.
fn wal_pass(
    dir: &Path,
    config: WalConfig,
    jobs: &[Vec<Value>],
    name: &'static str,
    log: &mut SpanLog,
) -> (f64, u64) {
    let _ = std::fs::remove_dir_all(dir);
    let mut wal = Wal::open(dir, config).expect("open the replay WAL").wal;
    let (mut ns, mut elements) = (0.0, 0usize);
    for (i, job) in jobs.iter().enumerate() {
        let record = AdmittedJob {
            job_id: i as u64 + 1,
            tenant: 0,
            arrival_ms: 0.0,
            hint: None,
            values: job.clone(),
        };
        let (_, t) = timed(log, name, i as u64, || {
            wal.append_admitted(&record).expect("append admission");
            wal.append_completed(record.job_id)
                .expect("append completion");
        });
        ns += t;
        elements += job.len();
    }
    drop(wal);
    let bytes = std::fs::read_dir(dir)
        .expect("list the replay WAL")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    let _ = std::fs::remove_dir_all(dir);
    (ns / elements.max(1) as f64, bytes)
}

/// What one pass of `SortService::process` calls saw.
struct ServicePass {
    /// The GPU-routed batches, as job indices.
    gpu: Vec<Vec<usize>>,
    /// The CPU-routed jobs.
    cpu: Vec<usize>,
    /// Host time of the calls, ns.
    ns: f64,
    /// Engine time of the calls, ms: per call, the busiest device slot's
    /// summed batch wall time (slots run in parallel).
    engine_ms: f64,
    /// Calls made.
    calls: usize,
}

/// `SortService::process` over `jobs` in groups of `group`, each call in
/// a span named `name`.
fn service_pass(
    service: &SortService,
    jobs: &[Vec<Value>],
    expected: &[Vec<Value>],
    group: usize,
    name: &'static str,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> ServicePass {
    let mut pass = ServicePass {
        gpu: Vec::new(),
        cpu: Vec::new(),
        ns: 0.0,
        engine_ms: 0.0,
        calls: 0,
    };
    let group = group.max(1);
    for (g, first) in (0..jobs.len()).step_by(group).enumerate() {
        let last = (first + group).min(jobs.len());
        let batch: Vec<SortJob> = (first..last)
            .map(|i| SortJob {
                id: (i - first) as u64,
                tenant: 0,
                arrival_ms: 0.0,
                values: jobs[i].clone(),
                hint: None,
                kind: JobKind::Sort,
            })
            .collect();
        let (report, t) = timed(log, name, g as u64, || {
            service.process(batch).expect("service process")
        });
        pass.ns += t;
        pass.calls += 1;
        out.mismatches += (last - first - report.results.len()) as u64;
        let mut by_batch: BTreeMap<usize, (Vec<usize>, f64)> = BTreeMap::new();
        for res in &report.results {
            let i = first + res.id as usize;
            check(same_output(&res.output, &expected[i]), out);
            let entry = by_batch.entry(res.batch).or_default();
            entry.1 = res.batch_wall_ms;
            match res.engine {
                Engine::GpuAbiSort => entry.0.push(i),
                Engine::CpuQuicksort => pass.cpu.push(i),
                _ => {}
            }
        }
        let mut slot_ms: BTreeMap<usize, f64> = BTreeMap::new();
        for b in &report.batches {
            *slot_ms.entry(b.slot).or_default() += by_batch.get(&b.id).map_or(0.0, |e| e.1);
        }
        pass.engine_ms += slot_ms.values().copied().fold(0.0, f64::max);
        pass.gpu.extend(
            by_batch
                .into_values()
                .map(|(jobs, _)| jobs)
                .filter(|jobs| !jobs.is_empty()),
        );
    }
    pass
}

impl Replay {
    /// Set every per-layer metric the replay measures alone (the engine,
    /// service-aggregate, server, client and net metrics depend on the
    /// workload and are set by it).
    pub fn report(&self, out: &mut Outcome, std_ns_per_elem: f64) {
        let [se, sd, re, rd] = self.frame_ns_per_elem;
        out.set("frame.submit_encode_ns_per_elem", se);
        out.set("frame.submit_decode_ns_per_elem", sd);
        out.set("frame.result_encode_ns_per_elem", re);
        out.set("frame.result_decode_ns_per_elem", rd);
        out.set("wal.append_ns_per_elem", self.wal_ns_per_elem);
        out.set("wal.append_always_ns_per_elem", self.wal_always_ns_per_elem);
        out.set("wal.bytes_per_user_byte", self.wal_bytes_per_user_byte);
        out.set("policy.calibrate_ms", self.calibrate_ms);
        out.set("service.process_ns_per_elem", self.process_ns_per_elem);
        out.set("service.overhead_us_per_batch", self.overhead_us_per_batch);
        out.set(
            "abisort.segments_ns_per_elem",
            self.segments.wall_ns / self.segments.padded.max(1) as f64,
        );
        out.set(
            "abisort.padding_share",
            (self.segments.padded - self.segments.real) as f64 / self.segments.padded.max(1) as f64,
        );
        out.set("abisort.cached_plans", self.cached_plans as f64);
        out.set("baselines.cpu_sort_ns_per_elem", self.cpu_ns_per_elem);
        out.set("host.std_sort_ns_per_elem", std_ns_per_elem);
    }

    /// Mean self time of one job's replayed request path: the frame
    /// codecs, the WAL appends (when the workload's server logs), and the
    /// `process` call of its micro-batch. Returns the parts and the sum.
    pub fn request_path_ms(&self, with_wal: bool) -> (Vec<(&'static str, f64)>, f64) {
        let mut names = vec!["frame.submit_encode", "frame.submit_decode"];
        if with_wal {
            names.push("wal.append");
        }
        names.extend([
            "service.process",
            "frame.result_encode",
            "frame.result_decode",
        ]);
        let parts: Vec<(&'static str, f64)> = names
            .into_iter()
            .map(|n| (n, self.mean_self_ms.get(n).copied().unwrap_or(0.0)))
            .collect();
        let sum = parts.iter().map(|(_, ms)| ms).sum();
        (parts, sum)
    }
}
