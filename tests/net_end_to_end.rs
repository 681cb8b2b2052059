//! End-to-end tests of the networked front-end over real loopback TCP:
//! wire results must be byte-identical to the in-process service, overload
//! must surface as typed reject frames (not dropped connections), protocol
//! violations must kill only the offending connection, and the liveness
//! probes must round-trip.

use gpu_abisort::prelude::*;
use gpu_abisort::sortsvc::net::{
    ErrorCode, ErrorPayload, Frame, FramePoll, FrameReader, FrameType, JobReply, PayloadEncoding,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

fn bits(values: &[Value]) -> Vec<(u32, u32)> {
    values.iter().map(|v| (v.key.to_bits(), v.id)).collect()
}

/// A job at the top of the key domain: every fourth value carries the
/// padding sentinel's key with an id counting down from `u32::MAX`.
fn top_of_domain_job(len: usize) -> Vec<Value> {
    workloads::uniform(len, 7)
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            if i % 4 == 0 {
                Value::new(f32::from_bits(0x7FFF_FFFF), u32::MAX - (i / 4) as u32)
            } else {
                v
            }
        })
        .collect()
}

/// Wire results must be byte-identical to running the very same jobs
/// through an in-process [`SortService`], and to `std` sort — several
/// concurrent clients, each sending one job at the top of the key domain
/// sized for the GPU route.
#[test]
fn wire_results_match_the_in_process_service_bit_for_bit() {
    let server = SortServer::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    // The in-process reference: same request mixes, same seeds.
    let reference_service = SortService::new(ServiceConfig::default());
    // Above the crossover and a third short of a power of two, so the job
    // takes the GPU route and the engine pads with thousands of sentinels.
    let gpu_len = 3 * reference_service.policy().crossover() / 2;

    let clients = 3usize;
    let jobs_per_client = 10usize;
    std::thread::scope(|scope| {
        let reference_service = &reference_service;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let tenant = c as u32;
                    let mut jobs: Vec<Vec<Value>> = RequestMix::connection_driven(jobs_per_client)
                        .generate(990 + tenant as u64)
                        .into_iter()
                        .map(|r| r.values)
                        .collect();
                    jobs.push(top_of_domain_job(gpu_len));

                    // In-process reference run of the identical jobs.
                    let ref_jobs: Vec<SortJob> = jobs
                        .iter()
                        .enumerate()
                        .map(|(i, values)| SortJob::new(i as u64, tenant, values.clone()))
                        .collect();
                    let ref_report = reference_service
                        .process(ref_jobs)
                        .expect("reference service run");
                    assert!(ref_report.rejected.is_empty());
                    let top = ref_report.results.last().expect("top-of-domain job");
                    assert_eq!(top.engine, Engine::GpuAbiSort);

                    let mut client =
                        SortClient::connect_with(addr, ClientConfig::default().with_tenant(tenant))
                            .expect("connect");
                    let tickets: Vec<_> = jobs
                        .iter()
                        .map(|values| client.submit(values.clone()).expect("submit"))
                        .collect();
                    client.flush().expect("flush");

                    for ((ticket, reference), values) in
                        tickets.iter().zip(&ref_report.results).zip(&jobs)
                    {
                        let reply = ticket.wait_timeout(REPLY_TIMEOUT).expect("reply");
                        let sorted = match reply {
                            JobReply::Sorted(values) => values,
                            JobReply::Rejected { code, .. } => {
                                panic!("job {} rejected with {code}", ticket.job_id())
                            }
                        };
                        assert_eq!(
                            bits(&sorted),
                            bits(&reference.output),
                            "tenant {tenant} job {} differs from the in-process run",
                            ticket.job_id(),
                        );
                        let mut expected = values.clone();
                        expected.sort();
                        assert_eq!(
                            bits(&sorted),
                            bits(&expected),
                            "tenant {tenant} job {} differs from std sort",
                            ticket.job_id(),
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });

    let stats = server.shutdown();
    assert_eq!(stats.connections_accepted, clients as u64);
    assert_eq!(
        stats.service.jobs_completed,
        clients * (jobs_per_client + 1)
    );
    assert_eq!(stats.service.jobs_rejected, 0);
}

/// Overload surfaces as typed `REJECT` frames with retry hints, never as a
/// dropped connection: a server with a single pending-job slot answers
/// every job of a deep pipeline, marking the overflow retryable.
#[test]
fn overload_returns_typed_rejects_and_keeps_the_connection_alive() {
    let config = ServerConfig {
        // One pending job at a time: everything behind it in a burst is
        // turned away at the wire with SERVER_BUSY.
        max_pending_jobs: 1,
        ..ServerConfig::default()
    };
    let server = SortServer::start("127.0.0.1:0", config).expect("bind");
    let mut client = SortClient::connect(server.local_addr()).expect("connect");

    let burst = 24usize;
    let tickets: Vec<_> = (0..burst)
        .map(|i| {
            client
                .submit(workloads::uniform(256, i as u64))
                .expect("submit")
        })
        .collect();
    client.flush().expect("flush");

    let (mut completed, mut rejected) = (0usize, 0usize);
    for ticket in &tickets {
        match ticket
            .wait_timeout(REPLY_TIMEOUT)
            .expect("every job answered")
        {
            JobReply::Sorted(values) => {
                assert_eq!(values.len(), 256);
                completed += 1;
            }
            JobReply::Rejected {
                code,
                retry_after_ms,
            } => {
                assert!(code.is_retryable(), "overload reject must be retryable");
                assert!(!code.is_connection_fatal());
                assert!(retry_after_ms > 0, "overload reject must carry a back-off");
                rejected += 1;
            }
        }
    }
    assert_eq!(completed + rejected, burst);
    assert!(completed >= 1, "the slot holder must complete");
    assert!(rejected >= 1, "a 24-deep burst into 1 slot must overflow");

    // The connection survived the rejects: a fresh job still round-trips.
    let ticket = client.submit(workloads::uniform(64, 99)).expect("submit");
    client.flush().expect("flush");
    let reply = ticket.wait_timeout(REPLY_TIMEOUT).expect("post-reject job");
    assert!(matches!(
        reply,
        JobReply::Sorted(_) | JobReply::Rejected { .. }
    ));

    drop(client);
    let stats = server.shutdown();
    assert!(stats.wire_rejects >= 1);
    assert_eq!(stats.fatal_errors, 0);
}

/// A protocol violation gets a typed `ERROR` frame and a close — and only
/// for the offending connection; a well-behaved neighbour keeps working.
#[test]
fn malformed_bytes_kill_only_the_offending_connection() {
    let server = SortServer::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    // A well-behaved client connects first.
    let mut good = SortClient::connect(addr).expect("connect good client");

    // The offender writes an HTTP request at the sort server.
    let mut bad = TcpStream::connect(addr).expect("connect raw");
    bad.write_all(b"GET / HTTP/1.1\r\nHost: sortsvc\r\n\r\n")
        .expect("write garbage");
    bad.set_read_timeout(Some(REPLY_TIMEOUT)).expect("timeout");
    let mut reader = FrameReader::new(1 << 20);
    let frame = loop {
        match reader.poll(&mut bad).expect("server answers with a frame") {
            FramePoll::Frame(f) => break f,
            FramePoll::WouldBlock => continue,
            FramePoll::Eof => panic!("connection closed without an ERROR frame"),
        }
    };
    assert_eq!(frame.frame_type, FrameType::Error);
    let error = ErrorPayload::decode(&frame.payload).expect("typed error payload");
    assert_eq!(error.code, ErrorCode::BadMagic);
    assert!(error.code.is_connection_fatal());
    // After the ERROR frame the server closes the connection.
    let mut rest = Vec::new();
    bad.read_to_end(&mut rest).expect("read to close");
    assert!(rest.is_empty(), "ERROR must be the final frame");

    // The neighbour is unaffected.
    let ticket = good.submit(workloads::uniform(128, 5)).expect("submit");
    good.flush().expect("flush");
    let sorted = ticket
        .wait_timeout(REPLY_TIMEOUT)
        .expect("reply")
        .sorted()
        .expect("completed");
    assert!(sorted.windows(2).all(|w| w[0] <= w[1]));

    drop(good);
    let stats = server.shutdown();
    assert_eq!(stats.fatal_errors, 1);
    assert_eq!(stats.service.jobs_completed, 1);
}

/// An oversized length prefix is refused from the header alone with
/// `FRAME_OVERSIZED` — the server never allocates the claimed payload.
#[test]
fn oversized_frames_are_refused_with_a_typed_error() {
    let server = SortServer::start(
        "127.0.0.1:0",
        ServerConfig {
            max_frame_bytes: 1 << 16,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let mut conn = TcpStream::connect(server.local_addr()).expect("connect raw");
    // A syntactically valid header claiming a 1 GiB payload.
    let mut huge = Frame::new(FrameType::Submit, Vec::new()).encode();
    huge[8..12].copy_from_slice(&(1u32 << 30).to_le_bytes());
    conn.write_all(&huge).expect("write header");
    conn.set_read_timeout(Some(REPLY_TIMEOUT)).expect("timeout");

    let mut reader = FrameReader::new(1 << 20);
    let frame = loop {
        match reader.poll(&mut conn).expect("server answers") {
            FramePoll::Frame(f) => break f,
            FramePoll::WouldBlock => continue,
            FramePoll::Eof => panic!("connection closed without an ERROR frame"),
        }
    };
    assert_eq!(frame.frame_type, FrameType::Error);
    let error = ErrorPayload::decode(&frame.payload).expect("typed payload");
    assert_eq!(error.code, ErrorCode::FrameOversized);
    server.shutdown();
}

/// PING → PONG round-trips through a busy connection.
#[test]
fn ping_pong_round_trips() {
    let server = SortServer::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = SortClient::connect(server.local_addr()).expect("connect");

    let ticket = client.submit(workloads::uniform(512, 1)).expect("submit");
    client.ping().expect("ping");
    assert!(ticket.wait_timeout(REPLY_TIMEOUT).is_ok());

    // The pong arrives asynchronously; poll briefly.
    let deadline = std::time::Instant::now() + REPLY_TIMEOUT;
    while client.pongs() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "no PONG within the deadline"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(client.pongs() >= 1);
    server.shutdown();
}

/// A malformed SUBMIT payload (good frame, bad contents) is a *per-job*
/// reject, not a connection error.
#[test]
fn malformed_submit_payload_is_rejected_per_job() {
    let server = SortServer::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let mut conn = TcpStream::connect(addr).expect("connect raw");
    // Job header claims RAW_LE but the record section is 3 bytes.
    let mut payload = Vec::new();
    payload.extend_from_slice(&7u64.to_le_bytes()); // job id
    payload.extend_from_slice(&0u32.to_le_bytes()); // tenant
    payload.push(PayloadEncoding::RawLe as u8);
    payload.extend_from_slice(&[0u8; 3]);
    payload.extend_from_slice(&[1, 2, 3]);
    conn.write_all(&Frame::new(FrameType::Submit, payload).encode())
        .expect("write submit");
    conn.set_read_timeout(Some(REPLY_TIMEOUT)).expect("timeout");

    let mut reader = FrameReader::new(1 << 20);
    let frame = loop {
        match reader.poll(&mut conn).expect("server answers") {
            FramePoll::Frame(f) => break f,
            FramePoll::WouldBlock => continue,
            FramePoll::Eof => panic!("connection closed instead of rejecting the job"),
        }
    };
    assert_eq!(frame.frame_type, FrameType::Reject);
    let reject =
        gpu_abisort::sortsvc::net::RejectPayload::decode(&frame.payload).expect("typed reject");
    assert_eq!(reject.job_id, 7, "the reject echoes the submitted job id");
    assert_eq!(reject.code, ErrorCode::MalformedPayload);
    assert_eq!(reject.retry_after_ms, 0, "malformed payloads never retry");

    // The same connection can still submit a well-formed job.
    let good = gpu_abisort::sortsvc::net::SubmitPayload {
        job_id: 8,
        tenant: 0,
        encoding: PayloadEncoding::RawLe,
        values: workloads::uniform(16, 2),
    };
    conn.write_all(&Frame::new(FrameType::Submit, good.encode().unwrap()).encode())
        .expect("write good submit");
    let frame = loop {
        match reader.poll(&mut conn).expect("server answers") {
            FramePoll::Frame(f) => break f,
            FramePoll::WouldBlock => continue,
            FramePoll::Eof => panic!("connection died after a per-job reject"),
        }
    };
    assert_eq!(frame.frame_type, FrameType::Result);
    server.shutdown();
}

/// `max_job_elements` is inclusive, and the record count it is checked
/// against comes from the payload length: a job one record over the limit
/// gets `JOB_TOO_LARGE`, while a ragged record section stays
/// `MALFORMED_PAYLOAD` however long it is.
#[test]
fn job_size_limit_is_inclusive_and_a_ragged_section_stays_malformed() {
    const LIMIT: usize = 64;
    let config = ServerConfig {
        max_job_elements: LIMIT,
        ..ServerConfig::default()
    };
    let server = SortServer::start("127.0.0.1:0", config).expect("bind");
    let mut client = SortClient::connect(server.local_addr()).expect("connect");
    let at_limit = client.submit(workloads::uniform(LIMIT, 3)).expect("submit");
    let over_limit = client
        .submit(workloads::uniform(LIMIT + 1, 4))
        .expect("submit");
    client.flush().expect("flush");
    match at_limit.wait_timeout(REPLY_TIMEOUT).expect("reply") {
        JobReply::Sorted(values) => assert_eq!(values.len(), LIMIT),
        other => panic!("a job at the limit must be sorted: {other:?}"),
    }
    match over_limit.wait_timeout(REPLY_TIMEOUT).expect("reply") {
        JobReply::Rejected { code, .. } => assert_eq!(code, ErrorCode::JobTooLarge),
        other => panic!("a job over the limit must be rejected: {other:?}"),
    }

    let mut conn = TcpStream::connect(server.local_addr()).expect("connect raw");
    conn.set_read_timeout(Some(REPLY_TIMEOUT)).expect("timeout");
    let mut payload = Vec::new();
    payload.extend_from_slice(&11u64.to_le_bytes()); // job id
    payload.extend_from_slice(&0u32.to_le_bytes()); // tenant
    payload.push(PayloadEncoding::RawLe as u8);
    payload.extend_from_slice(&[0u8; 3]);
    payload.extend(std::iter::repeat_n(0u8, 8 * (LIMIT + 1) + 3));
    conn.write_all(&Frame::new(FrameType::Submit, payload).encode())
        .expect("write submit");
    let mut reader = FrameReader::new(1 << 20);
    let frame = loop {
        match reader.poll(&mut conn).expect("server answers") {
            FramePoll::Frame(f) => break f,
            FramePoll::WouldBlock => continue,
            FramePoll::Eof => panic!("connection closed instead of rejecting the job"),
        }
    };
    let reject =
        gpu_abisort::sortsvc::net::RejectPayload::decode(&frame.payload).expect("typed reject");
    assert_eq!(reject.job_id, 11);
    assert_eq!(reject.code, ErrorCode::MalformedPayload);
    drop(client);
    server.shutdown();
}

/// A payload of 200 000 nested `[` under the retired encoding byte 1
/// (once JSON, whose recursive parse of this frame aborted the whole
/// server process) gets the per-job `UNSUPPORTED_ENCODING` reject before
/// any record byte is parsed. The connection survives, and a concurrent
/// client gets its reply.
#[test]
fn retired_encoding_byte_is_rejected_per_job_and_the_server_survives() {
    let server = SortServer::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut neighbour = SortClient::connect(addr).expect("connect");

    let mut conn = TcpStream::connect(addr).expect("connect raw");
    let mut payload = Vec::new();
    payload.extend_from_slice(&9u64.to_le_bytes()); // job id
    payload.extend_from_slice(&0u32.to_le_bytes()); // tenant
    payload.push(1); // the retired encoding byte
    payload.extend_from_slice(&[0u8; 3]);
    payload.extend(std::iter::repeat_n(b'[', 200_000));
    let frame = Frame::new(FrameType::Submit, payload).encode();
    assert_eq!(frame.len(), 200_028);
    conn.write_all(&frame).expect("write submit");
    conn.set_read_timeout(Some(REPLY_TIMEOUT)).expect("timeout");

    let input = workloads::uniform(512, 5);
    let ticket = neighbour.submit(input.clone()).expect("submit");
    neighbour.flush().expect("flush");

    let mut reader = FrameReader::new(1 << 20);
    let mut next_frame = |conn: &mut TcpStream| loop {
        match reader.poll(conn).expect("server answers") {
            FramePoll::Frame(f) => break f,
            FramePoll::WouldBlock => continue,
            FramePoll::Eof => panic!("connection closed instead of rejecting the job"),
        }
    };
    let frame = next_frame(&mut conn);
    assert_eq!(frame.frame_type, FrameType::Reject);
    let reject =
        gpu_abisort::sortsvc::net::RejectPayload::decode(&frame.payload).expect("typed reject");
    assert_eq!(reject.job_id, 9);
    assert_eq!(reject.code, ErrorCode::UnsupportedEncoding);

    let mut expected = input;
    expected.sort();
    match ticket
        .wait_timeout(REPLY_TIMEOUT)
        .expect("neighbour answered")
    {
        JobReply::Sorted(values) => assert_eq!(bits(&values), bits(&expected)),
        other => panic!("the neighbour's job was not sorted: {other:?}"),
    }

    // The connection that sent the hostile frame still works.
    let good = gpu_abisort::sortsvc::net::SubmitPayload {
        job_id: 10,
        tenant: 0,
        encoding: PayloadEncoding::RawLe,
        values: workloads::uniform(16, 2),
    };
    conn.write_all(&Frame::new(FrameType::Submit, good.encode().unwrap()).encode())
        .expect("write good submit");
    assert_eq!(next_frame(&mut conn).frame_type, FrameType::Result);
    drop(neighbour);
    server.shutdown();
}
