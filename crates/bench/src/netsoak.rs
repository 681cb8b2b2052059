//! E22 — networked soak (netsoak): drive the framed-TCP front-end over
//! loopback with N concurrent client threads and measure what the wire
//! adds on top of the in-process service — client-observed round-trip
//! latency percentiles, rejection rate under backpressure, and the
//! connection/frame accounting of the server.
//!
//! Unlike the simulated-time experiments, a soak measures real host
//! wall-clock behaviour: the numbers vary with the machine,
//! but the structural assertions hold everywhere — every submitted job is
//! answered (completed or typed-rejected, never dropped), and the
//! latency/rejection metrics are finite.

use crate::service::SCENARIO_SEED;
use serde::Serialize;
use sortsvc::metrics::ratio;
use sortsvc::net::{ClientConfig, JobReply, JobTicket, ServerConfig, SortClient};
use sortsvc::SortServer;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};
use stream_arch::telemetry::{HistogramSummary, LogHistogram};
use workloads::RequestMix;

/// How many jobs one soak client keeps outstanding before reaping the
/// oldest — the pipelining window.
const PIPELINE_WINDOW: usize = 16;

/// Per-job reply deadline. Generous: a debug-mode CI runner sharing cores
/// with the server threads can take a while per micro-batch.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One netsoak result row.
#[derive(Clone, Debug, Serialize)]
pub struct NetSoakRow {
    /// Concurrent client threads.
    pub clients: usize,
    /// Jobs submitted across all clients.
    pub jobs: usize,
    /// Jobs answered with a `RESULT`.
    pub completed: usize,
    /// Jobs answered with a typed `REJECT`.
    pub rejected: usize,
    /// `rejected / jobs`.
    pub rejection_rate: f64,
    /// Client-observed median round-trip latency (wall ms; submit →
    /// reply, including client buffering and both wire directions).
    pub wire_p50_ms: f64,
    /// Client-observed 99th-percentile round-trip latency (wall ms).
    pub wire_p99_ms: f64,
    /// Client-observed mean round-trip latency (wall ms).
    pub wire_mean_ms: f64,
    /// Completed jobs per wall-clock second across the whole soak.
    pub throughput_jobs_per_s: f64,
    /// Connections the server accepted.
    pub connections: u64,
    /// Peak simultaneous connections.
    pub peak_connections: u64,
    /// Frames the server received.
    pub frames_received: u64,
    /// Frames the server sent.
    pub frames_sent: u64,
    /// Micro-batches the dispatcher ran.
    pub micro_batches: u64,
    /// Elements sorted (server-side, from the service metrics).
    pub elements_sorted: u64,
    /// Server-side simulated p99 latency (ms) — the service's own view of
    /// the same jobs, for comparison with the wire numbers.
    pub service_p99_ms: f64,
    /// Full distribution of the client-observed round trips (the stage
    /// the wire adds; source of `wire_p50_ms` / `wire_p99_ms`).
    pub wire: HistogramSummary,
    /// Server-side distribution of simulated queue/coalesce wait per job.
    pub queue: HistogramSummary,
    /// Server-side distribution of simulated execution time per job.
    pub execute: HistogramSummary,
}

/// What one client thread brings home. Latencies stream into a mergeable
/// histogram rather than a materialized vector, so a long soak's memory
/// is O(buckets) and the per-stage breakdown is exact-to-bucket.
struct ClientOutcome {
    wire: LogHistogram,
    completed: usize,
    rejected: usize,
}

/// Run the soak: `clients` threads, each submitting `jobs_per_client`
/// jobs from the seeded [`RequestMix::connection_driven`] mix over its
/// own loopback connection, pipelined `PIPELINE_WINDOW` (16) deep.
///
/// Panics if any job goes unanswered — a soak in which the server drops
/// work is a failed soak, not a slow one.
pub fn netsoak(clients: usize, jobs_per_client: usize) -> NetSoakRow {
    netsoak_with(ServerConfig::default(), clients, jobs_per_client)
}

/// [`netsoak`] with an explicit server configuration (the overload tests
/// shrink the queues to force typed rejects).
pub fn netsoak_with(config: ServerConfig, clients: usize, jobs_per_client: usize) -> NetSoakRow {
    let server = SortServer::start("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();

    let soak_started = Instant::now();
    let outcomes: Vec<ClientOutcome> = thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| scope.spawn(move || client_worker(addr, c as u32, jobs_per_client)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = soak_started.elapsed().as_secs_f64();
    let stats = server.shutdown();

    // Merge the per-client wire histograms — associative and lossless, so
    // the merged quantiles equal one histogram over every round trip.
    let mut wire = LogHistogram::new();
    for o in &outcomes {
        wire.merge(&o.wire);
    }
    let completed: usize = outcomes.iter().map(|o| o.completed).sum();
    let rejected: usize = outcomes.iter().map(|o| o.rejected).sum();
    let jobs = clients * jobs_per_client;
    assert_eq!(
        completed + rejected,
        jobs,
        "every submitted job must be answered (completed or typed-rejected)"
    );
    // The server's one metrics rollup must agree with what the clients saw.
    let service = &stats.service;
    assert_eq!(service.jobs_submitted, jobs, "server rollup: submitted");
    assert_eq!(
        service.jobs_completed, completed,
        "server rollup: completed"
    );
    assert_eq!(service.jobs_rejected, rejected, "server rollup: rejected");

    NetSoakRow {
        clients,
        jobs,
        completed,
        rejected,
        rejection_rate: ratio(rejected as f64, jobs as f64),
        wire_p50_ms: wire.quantile(0.5),
        wire_p99_ms: wire.quantile(0.99),
        wire_mean_ms: wire.mean(),
        throughput_jobs_per_s: ratio(completed as f64, wall_s),
        connections: stats.connections_accepted,
        peak_connections: stats.peak_connections,
        frames_received: stats.frames_received,
        frames_sent: stats.frames_sent,
        micro_batches: stats.micro_batches,
        elements_sorted: stats.service.elements_sorted,
        service_p99_ms: stats.service.latency_p99_ms,
        wire: wire.summary(),
        queue: stats.service.queue_wait,
        execute: stats.service.execution,
    }
}

/// One soak client: submit the connection's request stream pipelined,
/// timing submit → reply per job.
fn client_worker(addr: SocketAddr, tenant: u32, jobs: usize) -> ClientOutcome {
    let requests =
        RequestMix::connection_driven(jobs).generate(SCENARIO_SEED ^ ((tenant as u64) << 32));
    let mut client = SortClient::connect_with(
        addr,
        ClientConfig {
            tenant,
            ..ClientConfig::default()
        },
    )
    .expect("connect to loopback server");

    let mut outcome = ClientOutcome {
        wire: LogHistogram::new(),
        completed: 0,
        rejected: 0,
    };
    let mut pending: VecDeque<(Instant, JobTicket)> = VecDeque::new();
    let reap = |pending: &mut VecDeque<(Instant, JobTicket)>, outcome: &mut ClientOutcome| {
        let (submitted, ticket) = pending.pop_front().expect("non-empty pipeline");
        let reply = ticket
            .wait_timeout(REPLY_TIMEOUT)
            .expect("job went unanswered");
        outcome.wire.record(submitted.elapsed().as_secs_f64() * 1e3);
        match reply {
            JobReply::Sorted(values) => {
                assert!(
                    values.windows(2).all(|w| w[0] <= w[1]),
                    "wire result must come back sorted"
                );
                outcome.completed += 1;
            }
            JobReply::Rejected { .. } => outcome.rejected += 1,
        }
    };

    for request in requests {
        let ticket = client.submit(request.values).expect("submit");
        pending.push_back((Instant::now(), ticket));
        if pending.len() >= PIPELINE_WINDOW {
            // The window is full: get the oldest reply on the wire and
            // wait for it before submitting more.
            client.flush().expect("flush");
            reap(&mut pending, &mut outcome);
        }
    }
    client.flush().expect("flush");
    while !pending.is_empty() {
        reap(&mut pending, &mut outcome);
    }
    outcome
}

/// Render the soak rows as a report table.
pub fn render_netsoak(rows: &[NetSoakRow]) -> String {
    let mut out =
        String::from("E22 — networked soak: concurrent TCP clients over loopback (wall clock)\n");
    out.push_str(&format!(
        "{:>7} | {:>5} | {:>9} | {:>8} | {:>9} | {:>9} | {:>9} | {:>8} | {:>7} | {:>12}\n",
        "clients",
        "jobs",
        "completed",
        "rejected",
        "p50 ms",
        "p99 ms",
        "jobs/s",
        "frames",
        "batches",
        "svc p99 ms"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>7} | {:>5} | {:>9} | {:>7.1}% | {:>9.2} | {:>9.2} | {:>9.1} | {:>8} | {:>7} | {:>12.2}\n",
            row.clients,
            row.jobs,
            row.completed,
            100.0 * row.rejection_rate,
            row.wire_p50_ms,
            row.wire_p99_ms,
            row.throughput_jobs_per_s,
            row.frames_received + row.frames_sent,
            row.micro_batches,
            row.service_p99_ms,
        ));
    }
    out.push_str(
        "(wire p50/p99 are client-observed round trips — wall clock, host dependent; \
         svc p99 is the server's simulated view of the same jobs)\n",
    );
    out.push_str("per-stage breakdown (streaming histograms; queue/execute are simulated ms):\n");
    for row in rows {
        out.push_str(&format!(
            "{:>7} clients | wire mean {:>8.2} p99 {:>8.2} | queue mean {:>8.2} p99 {:>8.2} | execute mean {:>8.2} p99 {:>8.2}\n",
            row.clients,
            row.wire.mean_ms,
            row.wire.p99_ms,
            row.queue.mean_ms,
            row.queue.p99_ms,
            row.execute.mean_ms,
            row.execute.p99_ms,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_soak_answers_every_job_with_finite_metrics() {
        // Small but genuinely concurrent: 2 clients × 8 jobs.
        let row = netsoak(2, 8);
        assert_eq!(row.clients, 2);
        assert_eq!(row.jobs, 16);
        assert_eq!(row.completed + row.rejected, 16);
        assert_eq!(row.connections, 2);
        assert!(row.wire_p50_ms.is_finite() && row.wire_p50_ms >= 0.0);
        assert!(row.wire_p99_ms.is_finite() && row.wire_p99_ms >= row.wire_p50_ms);
        assert!(row.rejection_rate.is_finite() && (0.0..=1.0).contains(&row.rejection_rate));
        assert!(row.frames_received >= 16); // ≥ one SUBMIT per job
        assert!(row.frames_sent >= 16); // ≥ one reply per job
        let rendered = render_netsoak(&[row]);
        assert!(rendered.contains("networked soak"));
    }
}
