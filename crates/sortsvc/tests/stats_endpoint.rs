//! The `STATS` wire endpoint, end to end over loopback:
//!
//! * an empty `STATS` request is answered with a JSON snapshot whose
//!   histogram quantiles match the server's own final metrics rollup
//!   exactly (both derive from the same merged histograms), and whose
//!   counters add up across accepted jobs and wire rejects;
//! * the snapshot's JSON shape is pinned byte-exactly, so a field rename
//!   or serializer change that would break deployed scrapers fails here
//!   first;
//! * a non-empty `STATS` request is a connection-fatal protocol error.

use sortsvc::metrics::ServiceMetrics;
use sortsvc::net::{ErrorCode, JobReply, ServerConfig, ServerStats, SortClient, SortServer};
use std::time::Duration;

/// Jobs above this many records are wire-rejected with `JOB_TOO_LARGE`.
const MAX_JOB_ELEMENTS: usize = 1024;

fn small_server() -> SortServer {
    let mut config = ServerConfig::default();
    config.service.device_slots = 1;
    config.max_job_elements = MAX_JOB_ELEMENTS;
    SortServer::start("127.0.0.1:0", config).expect("bind loopback")
}

#[test]
fn stats_round_trip_matches_final_rollup() {
    let server = small_server();
    let mut client = SortClient::connect(server.local_addr()).expect("connect");

    // A few jobs of different sizes so the histograms are non-trivial.
    let lens = [256usize, 512, 300, 64];
    let tickets: Vec<_> = lens
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            client
                .submit(workloads::uniform(n, 100 + i as u64))
                .expect("submit")
        })
        .collect();
    // …and one the wire layer turns away before it reaches the service.
    let oversized = client
        .submit(workloads::uniform(MAX_JOB_ELEMENTS + 1, 99))
        .expect("submit");
    client.flush().expect("flush");
    for t in &tickets {
        t.wait_timeout(Duration::from_secs(60)).expect("reply");
    }
    match oversized
        .wait_timeout(Duration::from_secs(60))
        .expect("reply")
    {
        JobReply::Rejected { code, .. } => assert_eq!(code, ErrorCode::JobTooLarge),
        JobReply::Sorted(_) => panic!("an oversized job must be wire-rejected"),
    }

    let snap = client.stats().expect("STATS round trip");
    let service = snap.get("service").expect("service object");
    let num = |v: &serde_json::Value, key: &str| {
        v.get(key)
            .and_then(|x| x.as_f64())
            .unwrap_or_else(|| panic!("missing numeric field {key}"))
    };
    assert_eq!(num(service, "jobs_completed"), 4.0);
    assert_eq!(num(&snap, "wire_rejects"), 1.0);
    assert!(num(&snap, "frames_received") >= 6.0); // 5 SUBMIT + STATS

    // One rollup: the counters add up across the service's jobs and the
    // wire reject.
    assert_eq!(
        num(service, "jobs_submitted"),
        num(service, "jobs_completed") + num(service, "jobs_rejected")
    );
    assert_eq!(num(service, "jobs_rejected"), 1.0);
    let engines: f64 = ["cpu_jobs", "gpu_jobs", "sharded_jobs", "tera_jobs"]
        .iter()
        .map(|k| num(service, k))
        .sum();
    assert_eq!(engines, num(service, "jobs_completed"));
    let latency = service.get("latency").expect("latency summary");
    assert_eq!(num(latency, "count"), num(service, "jobs_completed"));
    assert_eq!(
        num(service, "elements_sorted"),
        lens.iter().sum::<usize>() as f64
    );

    // The quantile-consistency acceptance: the wire snapshot and the
    // server's in-process rollup come from the same histograms, and the
    // JSON round trip is shortest-roundtrip formatted, so the numbers
    // match exactly — not approximately.
    drop(client);
    let final_stats = server.shutdown();
    let m = &final_stats.service;
    assert_eq!(num(service, "latency_p50_ms"), m.latency_p50_ms);
    assert_eq!(num(service, "latency_p99_ms"), m.latency_p99_ms);
    assert_eq!(num(service, "latency_mean_ms"), m.latency_mean_ms);
    assert_eq!(num(service, "queue_mean_ms"), m.queue_mean_ms);
    assert_eq!(num(latency, "count"), m.latency.count as f64);
    assert_eq!(num(latency, "p50_ms"), m.latency.p50_ms);
    assert_eq!(num(latency, "p99_ms"), m.latency.p99_ms);
    assert_eq!(num(latency, "max_ms"), m.latency.max_ms);
    let queue = service.get("queue_wait").expect("queue_wait summary");
    assert_eq!(num(queue, "count"), m.queue_wait.count as f64);
    let exec = service.get("execution").expect("execution summary");
    assert_eq!(num(exec, "count"), m.execution.count as f64);
    // The per-stage histograms tile the end-to-end one.
    assert_eq!(m.queue_wait.count, m.latency.count);
    assert_eq!(m.execution.count, m.latency.count);
}

#[test]
fn stats_json_shape_is_pinned() {
    // The exact bytes a scraper sees for a known snapshot. Built from a
    // hand-constructed ServerStats (not a live server) so the pin is
    // deterministic; the serializer and field order are the same code
    // path the STATS frame uses.
    let stats = ServerStats {
        connections_accepted: 2,
        connections_open: 1,
        peak_connections: 2,
        frames_received: 7,
        frames_sent: 6,
        wire_rejects: 1,
        fatal_errors: 0,
        micro_batches: 3,
        service: ServiceMetrics {
            jobs_submitted: 5,
            jobs_completed: 4,
            jobs_rejected: 1,
            latency_p50_ms: 1.25,
            ..ServiceMetrics::default()
        },
    };
    let json = serde_json::to_string(&stats).expect("serialize");
    let expected = "{\n  \"connections_accepted\": 2,\n  \"connections_open\": 1,\n  \
\"peak_connections\": 2,\n  \"frames_received\": 7,\n  \"frames_sent\": 6,\n  \
\"wire_rejects\": 1,\n  \"fatal_errors\": 0,\n  \"micro_batches\": 3,\n  \"service\": {\n    \
\"jobs_submitted\": 5,\n    \"jobs_completed\": 4,\n    \"jobs_rejected\": 1,\n    \
\"batches\": 0,\n    \"elements_sorted\": 0,\n    \"makespan_ms\": 0.0,\n    \
\"throughput_jobs_per_s\": 0.0,\n    \"throughput_kelems_per_s\": 0.0,\n    \
\"latency_mean_ms\": 0.0,\n    \"latency_p50_ms\": 1.25,\n    \"latency_p99_ms\": 0.0,\n    \
\"queue_mean_ms\": 0.0,\n    \"mean_batch_occupancy\": 0.0,\n    \
\"mean_jobs_per_batch\": 0.0,\n    \"cpu_jobs\": 0,\n    \"gpu_jobs\": 0,\n    \
\"sharded_jobs\": 0,\n    \"tera_jobs\": 0,\n    \"topk_jobs\": 0,\n    \
\"orderby_jobs\": 0,\n    \"percentile_jobs\": 0,\n    \"sharded_batches\": 0,\n    \
\"shard_skew_max\": 0.0,\n    \"device_busy_ms\": 0.0,\n    \"device_utilization\": 0.0,\n    \
\"wall_ms\": 0.0,\n    \"policy_crossover\": 0,\n    \"recovered_jobs\": 0,\n    \
\"replayed_bytes\": 0,\n    \"torn_tail_truncated\": 0,\n    \
\"latency\": {\n      \"count\": 0,\n      \
\"mean_ms\": 0.0,\n      \"p50_ms\": 0.0,\n      \"p90_ms\": 0.0,\n      \"p99_ms\": 0.0,\n      \
\"max_ms\": 0.0\n    },\n    \"queue_wait\": {\n      \"count\": 0,\n      \"mean_ms\": 0.0,\n      \
\"p50_ms\": 0.0,\n      \"p90_ms\": 0.0,\n      \"p99_ms\": 0.0,\n      \"max_ms\": 0.0\n    },\n    \
\"execution\": {\n      \"count\": 0,\n      \"mean_ms\": 0.0,\n      \"p50_ms\": 0.0,\n      \
\"p90_ms\": 0.0,\n      \"p99_ms\": 0.0,\n      \"max_ms\": 0.0\n    }\n  }\n}";
    assert_eq!(json, expected, "STATS snapshot JSON shape changed");
}

#[test]
fn non_empty_stats_request_is_connection_fatal() {
    use sortsvc::net::{Frame, FrameType};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let server = small_server();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect raw");
    stream
        .write_all(&Frame::new(FrameType::Stats, vec![1, 2, 3]).encode())
        .expect("write");
    // The server answers with an ERROR frame and hangs up: read to EOF
    // and check we got bytes then a clean close.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read until close");
    assert!(!buf.is_empty(), "server must answer before hanging up");
    assert_eq!(&buf[0..4], b"ABSR", "the answer is a protocol frame");
    let stats = server.shutdown();
    assert_eq!(stats.fatal_errors, 1);
}
