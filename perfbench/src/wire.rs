//! `wire-small` and `wire-mixed`: closed-loop clients over loopback
//! framed TCP to a `SortServer`, plus the loopback round trip the
//! `engine-large` replay uses.

use crate::replay::{self, Replay};
use crate::trace::SpanLog;
use crate::{
    derive_seed, finish_trace, out_dir, peak_rss_mb, same_output, std_reference, Done, Options,
    Outcome, Phase, Scale, Workload,
};
use sortsvc::net::{ClientConfig, JobReply, JobTicket, ServerConfig, ServerStats, SortClient};
use sortsvc::SortServer;
use std::collections::VecDeque;
use std::thread;
use std::time::{Duration, Instant};
use stream_arch::telemetry::TraceSink;
use stream_arch::Value;
use workloads::{RequestMix, SizeClass};

/// Client connections (one client thread each), matching a 2-core host.
pub const CONNECTIONS: usize = 2;

/// A job unanswered this long counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// What distinguishes the two wire workloads.
struct Spec {
    mix: RequestMix,
    /// Jobs each connection keeps outstanding.
    depth: usize,
    /// Whether the server runs the write-ahead log.
    durability: bool,
}

fn spec(workload: Workload, jobs: usize) -> Spec {
    match workload {
        // Every job below the coalescer cutoff (4096) and the CPU/GPU
        // crossover, so the request path dominates.
        Workload::WireSmall => Spec {
            mix: RequestMix {
                size_classes: vec![SizeClass {
                    weight: 1,
                    min: 32,
                    max: 1024,
                }],
                ..RequestMix::connection_driven(jobs)
            },
            depth: 1,
            durability: true,
        },
        _ => Spec {
            mix: RequestMix::connection_driven(jobs),
            depth: 8,
            durability: false,
        },
    }
}

/// One connection's jobs and their `std`-sorted outputs.
pub struct Pool {
    /// Job inputs, cycled by the timed phase.
    pub jobs: Vec<Vec<Value>>,
    /// The `std` sort of each input.
    pub expected: Vec<Vec<Value>>,
}

/// When a connection stops submitting, and which jobs it sends.
#[derive(Copy, Clone, Debug)]
pub enum Stop {
    /// After this many jobs, taken from the pool in order.
    Jobs(usize),
    /// Once this long has passed since the phase started. Each job is
    /// picked from the pool at random (seeded per connection), so which
    /// jobs share a micro-batch does not hinge on how the connections'
    /// passes through their pools line up.
    After(Duration),
}

/// `count` jobs from `mix`'s size classes and distributions, stratified:
/// the classes take turns in proportion to their weights and each class
/// cycles through the distributions, so every pool carries the mix's
/// shares exactly. Sizes within a class and the job order are seeded.
fn stratified_jobs(mix: &RequestMix, count: usize, seed: u64) -> Vec<Vec<Value>> {
    let turns: Vec<usize> = mix
        .size_classes
        .iter()
        .enumerate()
        .flat_map(|(i, c)| std::iter::repeat_n(i, c.weight as usize))
        .collect();
    let mut drawn = vec![0usize; mix.size_classes.len()];
    let mut draws = 0u64;
    let mut next = || {
        draws += 1;
        derive_seed(seed, draws)
    };
    let mut jobs: Vec<Vec<Value>> = (0..count)
        .map(|k| {
            let i = turns[k % turns.len()];
            let class: &SizeClass = &mix.size_classes[i];
            let dist = mix.distributions[drawn[i] % mix.distributions.len()];
            drawn[i] += 1;
            let n = class.min + (next() % (class.max - class.min + 1) as u64) as usize;
            workloads::generate(dist, n, next())
        })
        .collect();
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    jobs
}

/// Drive every connection in a closed loop: each keeps `depth` jobs
/// outstanding and submits the next only when a reply came back.
/// `cursors` counts each connection's submissions across phases.
pub fn drive(
    clients: &mut [SortClient],
    pools: &[Pool],
    cursors: &mut [usize],
    depth: usize,
    stop: Stop,
    log_epoch: Option<Instant>,
) -> (Phase, SpanLog) {
    let started = Instant::now();
    let parts: Vec<(Phase, SpanLog)> = thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(pools)
            .zip(cursors.iter_mut())
            .enumerate()
            .map(|(c, ((client, pool), cursor))| {
                scope.spawn(move || {
                    let mut log = SpanLog::new(log_epoch.is_some(), log_epoch.unwrap_or(started));
                    let phase = connection_loop(
                        client, pool, cursor, c as u64, depth, stop, started, &mut log,
                    );
                    (phase, log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        wall_s: started.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    let mut log = SpanLog::new(log_epoch.is_some(), log_epoch.unwrap_or(started));
    for (p, l) in parts {
        phase.ops.extend(p.ops);
        phase.attempted += p.attempted;
        phase.rejected += p.rejected;
        phase.timeouts += p.timeouts;
        phase.mismatches += p.mismatches;
        log.absorb(l);
    }
    (phase, log)
}

#[allow(clippy::too_many_arguments)]
fn connection_loop(
    client: &mut SortClient,
    pool: &Pool,
    cursor: &mut usize,
    conn: u64,
    depth: usize,
    stop: Stop,
    started: Instant,
    log: &mut SpanLog,
) -> Phase {
    struct Pending {
        index: usize,
        job: u64,
        sent: Instant,
        root: crate::trace::SpanId,
        ticket: JobTicket,
    }
    let mut phase = Phase::default();
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut submitted = 0usize;
    loop {
        let more = match stop {
            Stop::Jobs(n) => submitted < n,
            Stop::After(d) => started.elapsed() < d,
        };
        if more && pending.len() < depth {
            let index = match stop {
                Stop::Jobs(_) => *cursor,
                Stop::After(_) => derive_seed(conn, *cursor as u64) as usize,
            } % pool.jobs.len();
            *cursor += 1;
            submitted += 1;
            phase.attempted += 1;
            let job = conn << 32 | submitted as u64;
            let values = pool.jobs[index].clone();
            let sent = Instant::now();
            let root = log.open("bench.round_trip", None, job);
            let ticket = log.time("client.submit", root, job, || {
                let ticket = client.submit(values)?;
                client.flush()?;
                Ok::<_, std::io::Error>(ticket)
            });
            match ticket {
                Ok(ticket) => pending.push_back(Pending {
                    index,
                    job,
                    sent,
                    root,
                    ticket,
                }),
                Err(_) => phase.timeouts += 1,
            }
            continue;
        }
        let Some(p) = pending.pop_front() else { break };
        let reply = log.time("client.wait", p.root, p.job, || {
            p.ticket.wait_timeout(REPLY_TIMEOUT)
        });
        let ms = p.sent.elapsed().as_secs_f64() * 1e3;
        log.close(p.root);
        match reply {
            Ok(JobReply::Sorted(values)) if same_output(&values, &pool.expected[p.index]) => {
                phase.ops.push(Done {
                    at_s: started.elapsed().as_secs_f64(),
                    latency_ms: ms,
                    elements: values.len() as u64,
                });
            }
            Ok(JobReply::Sorted(_)) => phase.mismatches += 1,
            Ok(JobReply::Rejected { .. }) => phase.rejected += 1,
            Err(_) => phase.timeouts += 1,
        }
    }
    phase
}

/// Connect one client per pool.
fn connect(server: &SortServer, n: usize) -> Vec<SortClient> {
    (0..n)
        .map(|c| {
            SortClient::connect_with(
                server.local_addr(),
                ClientConfig::default().with_tenant(c as u32),
            )
            .expect("connect to the loopback server")
        })
        .collect()
}

/// Set the server-side per-layer metrics from two stats snapshots taken
/// around a traced phase.
pub fn report_server(s0: &ServerStats, s1: &ServerStats, out: &mut Outcome) {
    let (a, b) = (&s0.service, &s1.service);
    let jobs = (b.jobs_submitted - a.jobs_submitted) as f64;
    let completed = (b.jobs_completed - a.jobs_completed) as f64;
    let frames = (s1.frames_received + s1.frames_sent) - (s0.frames_received + s0.frames_sent);
    out.set(
        "server.jobs_per_micro_batch",
        jobs / (s1.micro_batches - s0.micro_batches).max(1) as f64,
    );
    out.set("server.frames_per_job", frames as f64 / jobs.max(1.0));
    out.set(
        "server.wire_rejects",
        (s1.wire_rejects - s0.wire_rejects) as f64,
    );
    out.set(
        "policy.gpu_job_share",
        (b.gpu_jobs - a.gpu_jobs) as f64 / completed.max(1.0),
    );
    out.set(
        "service.engine_busy_ms_per_job",
        (b.wall_ms - a.wall_ms) / completed.max(1.0),
    );
    out.set(
        "service.jobs_per_batch",
        completed / (b.batches - a.batches).max(1) as f64,
    );
    out.set("service.occupancy", b.mean_batch_occupancy);
}

/// Set `client.submit_us` and `net.unaccounted_ms`, and print how one
/// job's mean round trip splits into the replayed layer self times and
/// the rest (socket, thread hand-offs, batch-window wait).
pub fn report_round_trip(
    phase: &Phase,
    log: &SpanLog,
    replay: &Replay,
    with_wal: bool,
    out: &mut Outcome,
) {
    let submit = log
        .times()
        .get("client.submit")
        .copied()
        .unwrap_or_default();
    out.set(
        "client.submit_us",
        submit.total_ns as f64 / submit.count.max(1) as f64 / 1e3,
    );
    let rtt = phase.mean_latency_ms();
    let (parts, sum) = replay.request_path_ms(with_wal);
    out.set("net.unaccounted_ms", rtt - sum);
    let parts: Vec<String> = parts.iter().map(|(n, ms)| format!("{n} {ms:.6}")).collect();
    out.line(format!(
        "round trip: mean {rtt:.6} ms = replayed self times [{}] (sum {sum:.6} ms) + net.unaccounted {:.6} ms",
        parts.join(", "),
        rtt - sum
    ));
}

/// The loopback round trip of the pool's jobs, one at a time over one
/// connection to a default server, traced into `log`. Sets the server and
/// service-aggregate metrics and returns the phase.
pub fn loopback(pool: Pool, epoch: Instant, log: &mut SpanLog, out: &mut Outcome) -> Phase {
    let server = SortServer::start("127.0.0.1:0", ServerConfig::default())
        .expect("start the loopback server");
    let jobs = pool.jobs.len();
    let pools = [pool];
    let mut clients = connect(&server, 1);
    let s0 = server.stats();
    let (phase, l) = drive(
        &mut clients,
        &pools,
        &mut [0],
        1,
        Stop::Jobs(jobs),
        Some(epoch),
    );
    let s1 = server.stats();
    drop(clients);
    let stats = server.shutdown();
    log.absorb(l);
    report_server(&s0, &s1, out);
    phase.tally_into(out);
    out.line(server_line(&stats));
    out.line(phase.describe("loopback replay"));
    phase
}

/// Run `wire-small` or `wire-mixed`.
pub fn run(opts: &Options, scale: &Scale) -> Outcome {
    let epoch = Instant::now();
    let spec = spec(opts.workload, scale.pool_jobs);
    let mut out = Outcome::default();
    let mut log = SpanLog::new(opts.trace, epoch);

    // Inputs: a seeded job pool and warm-up set per connection, and the
    // `std` sort of every job, all before anything is timed.
    let (mut std_ns, mut std_elems) = (0.0, 0.0);
    let mut pool = |jobs: Vec<Vec<Value>>, log: &mut SpanLog| {
        let (expected, ns) = std_reference(&jobs, log);
        let n: usize = jobs.iter().map(Vec::len).sum();
        std_ns += ns * n as f64;
        std_elems += n as f64;
        Pool { jobs, expected }
    };
    let pools: Vec<Pool> = (0..CONNECTIONS as u64)
        .map(|c| {
            pool(
                stratified_jobs(&spec.mix, scale.pool_jobs, derive_seed(opts.seed, c)),
                &mut log,
            )
        })
        .collect();
    // The warm-up set does not depend on `--seed`: which jobs reach the
    // GPU, and so how long warming up takes, depends on the exact mix, and
    // `setup_s` must measure the same work in every run.
    let warm_pools: Vec<Pool> = (0..CONNECTIONS as u64)
        .map(|c| {
            pool(
                stratified_jobs(&spec.mix, scale.warmup_jobs, derive_seed(0, c)),
                &mut log,
            )
        })
        .collect();
    let std_ns = std_ns / std_elems;
    out.line(format!(
        "host.std_sort_ns_per_elem {std_ns} ns/elem (in-sitting reference)"
    ));

    // Set-up, several times: server start (policy calibration, WAL open
    // and replay) and the untimed warm-up pass. Only the last server
    // stays up for the timed phase.
    let dir = out_dir().join(format!("{}-{}", opts.workload.name(), std::process::id()));
    let mut setup_s = Vec::new();
    let mut live: Option<(SortServer, Vec<SortClient>)> = None;
    for i in 0..scale.setups {
        if let Some((server, clients)) = live.take() {
            drop(clients);
            server.shutdown();
        }
        let mut config = ServerConfig::default();
        if spec.durability {
            config = config.with_durability_dir(dir.join(format!("wal-{i}")));
        }
        let started = Instant::now();
        let server = SortServer::start("127.0.0.1:0", config).expect("start the server");
        let mut clients = connect(&server, CONNECTIONS);
        let (warm, _) = drive(
            &mut clients,
            &warm_pools,
            &mut [0; CONNECTIONS],
            spec.depth,
            Stop::Jobs(scale.warmup_jobs),
            None,
        );
        setup_s.push(started.elapsed().as_secs_f64());
        warm.tally_into(&mut out);
        live = Some((server, clients));
    }
    let (server, mut clients) = live.expect("at least one set-up");
    let mut cursors = [0; CONNECTIONS];

    if !opts.trace {
        let (phase, _) = drive(
            &mut clients,
            &pools,
            &mut cursors,
            spec.depth,
            Stop::After(Duration::from_secs_f64(opts.seconds)),
            None,
        );
        drop(clients);
        let stats = server.shutdown();
        phase.tally_into(&mut out);
        phase.report_end_to_end("timed phase", &setup_s, &mut out);
        out.line(server_line(&stats));
        out.set("peak_rss_mb", peak_rss_mb());
    } else {
        let half = Duration::from_secs_f64(opts.seconds / 2.0);
        let (untraced, _) = drive(
            &mut clients,
            &pools,
            &mut cursors,
            spec.depth,
            Stop::After(half),
            None,
        );
        let s0 = server.stats();
        TraceSink::global().set_enabled(true);
        let (traced, client_log) = drive(
            &mut clients,
            &pools,
            &mut cursors,
            spec.depth,
            Stop::After(half),
            Some(epoch),
        );
        TraceSink::global().set_enabled(false);
        let s1 = server.stats();
        drop(clients);
        let stats = server.shutdown();
        let events = TraceSink::global().take_events();
        log.absorb(client_log);
        untraced.tally_into(&mut out);
        traced.tally_into(&mut out);
        out.line(untraced.describe("untraced half"));
        out.line(traced.describe("traced half"));
        out.line(Phase::overhead_line(&untraced, &traced));
        out.line(server_line(&stats));
        report_server(&s0, &s1, &mut out);

        // Replay the workload's own jobs (both connections, interleaved)
        // through every layer, in groups of the observed micro-batch size.
        let (jobs, expected) = (0..scale.replay_jobs)
            .map(|k| {
                let pool = &pools[k % CONNECTIONS];
                let i = (k / CONNECTIONS) % pool.jobs.len();
                (pool.jobs[i].clone(), pool.expected[i].clone())
            })
            .unzip();
        let group = out.metrics["server.jobs_per_micro_batch"].round().max(1.0) as usize;
        let mut replay_log = SpanLog::new(true, epoch);
        let replay = replay::run(
            &Pool { jobs, expected },
            group,
            true,
            scale,
            &dir.join("replay-wal"),
            &mut replay_log,
            &mut out,
        );
        replay.report(&mut out, std_ns);
        replay.segments.report_stream_arch(&mut out);
        let sort_run = replay
            .sort_run
            .as_ref()
            .expect("the wire replay runs sort_run");
        out.set("abisort.sort_ns_per_elem", sort_run.ns_per_real());
        out.set("abisort.vs_std", sort_run.ns_per_real() / std_ns);
        report_round_trip(&traced, &log, &replay, spec.durability, &mut out);
        log.absorb(replay_log);
        finish_trace(opts, &log, &events, &mut out);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn server_line(stats: &ServerStats) -> String {
    format!(
        "server: micro_batches={} frames_received={} frames_sent={} wire_rejects={} \
         completed={} rejected={} cpu_jobs={} gpu_jobs={} sharded_jobs={}",
        stats.micro_batches,
        stats.frames_received,
        stats.frames_sent,
        stats.wire_rejects,
        stats.service.jobs_completed,
        stats.service.jobs_rejected,
        stats.service.cpu_jobs,
        stats.service.gpu_jobs,
        stats.service.sharded_jobs
    )
}
