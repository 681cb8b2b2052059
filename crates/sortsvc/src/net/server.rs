//! The framed-TCP server front-end: an accept loop, one reader thread per
//! connection, and a dispatcher thread that micro-batches wire submissions
//! into [`SortService::process`] runs.
//!
//! The server is the bridge between the wire protocol (`docs/PROTOCOL.md`)
//! and the in-process pipeline: every well-formed `SUBMIT` frame becomes a
//! [`SortJob`] stamped with its wall-clock arrival time and flows through
//! the existing admission → tenant-fair-queue → coalescer → pooled-engine
//! path. Responses stream back per job id over the submitting connection
//! (`RESULT` on completion, `REJECT` with a typed [`ErrorCode`] and a
//! `retry_after_ms` hint on backpressure).
//!
//! Overload never drops a connection. Three layers of backpressure each
//! produce a typed, retryable answer:
//!
//! 1. **Wire level** — when more than [`ServerConfig::max_pending_jobs`]
//!    submissions are in flight, new jobs are rejected with
//!    [`ErrorCode::ServerBusy`] before they reach the service.
//! 2. **Admission control** — the service's own [`crate::RejectReason`]
//!    ([`ErrorCode::QueueFull`] / [`ErrorCode::MemoryPressure`]) are
//!    forwarded as `REJECT` frames.
//! 3. **Per-job validation** — malformed payloads, unknown encodings and
//!    oversized jobs are rejected individually; only frame-layer
//!    violations (bad magic, wrong version, oversized length prefix) are
//!    connection-fatal, because the byte stream can no longer be trusted.
//!
//! Observability is built in on two axes: any client can ask for a
//! [`ServerStats`] snapshot over the wire with an empty `STATS` frame
//! (answered as UTF-8 JSON), and [`ServerConfig::trace_path`] turns on the
//! process-wide [`stream_arch::telemetry`] sink for the server's lifetime,
//! exporting a Chrome `trace_event` JSON file at shutdown. Hot-path wire
//! counters (frames, connections, rejects) are relaxed atomics so the
//! per-frame path never contends on the service-aggregate mutex.

use super::error::ErrorCode;
use super::frame::{
    ErrorPayload, Frame, FramePoll, FrameReader, FrameType, PayloadEncoding, RejectPayload,
    ResultPayload, StatsPayload, SubmitPayload, HEADER_LEN, JOB_HEADER_LEN,
};
use super::lock;
use crate::job::SortJob;
use crate::metrics::{MetricsTally, ServiceMetrics};
use crate::service::{ServiceConfig, SortService};
use crate::wal::{AdmittedJob, Wal, WalConfig};
use serde::Serialize;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use stream_arch::telemetry::{self, TraceSink};
use stream_arch::Value;

/// Configuration of a [`SortServer`].
///
/// ```
/// use sortsvc::net::ServerConfig;
///
/// let mut config = ServerConfig::default();
/// config.service.device_slots = 4;       // the in-process pipeline knobs
/// config.max_pending_jobs = 64;          // wire-level backpressure bound
/// assert!(config.max_batch_jobs > 0);
/// ```
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Configuration of the in-process [`SortService`] the server feeds.
    pub service: ServiceConfig,
    /// Wall-clock window the dispatcher holds a micro-batch open after its
    /// first submission, waiting for more jobs to coalesce with.
    pub batch_window: Duration,
    /// Maximum submissions per micro-batch (a batch closes early when it
    /// fills).
    pub max_batch_jobs: usize,
    /// Wire-level backpressure bound: submissions accepted but not yet
    /// answered. Beyond it new jobs get [`ErrorCode::ServerBusy`].
    pub max_pending_jobs: usize,
    /// Maximum frame payload length the server will read (the
    /// [`FrameReader`] bound; larger length prefixes are connection-fatal).
    pub max_frame_bytes: u32,
    /// Maximum records per job; larger jobs get [`ErrorCode::JobTooLarge`].
    pub max_job_elements: usize,
    /// Socket read timeout of the reader threads — the granularity at
    /// which they notice a shutdown request.
    pub read_timeout: Duration,
    /// Base advisory back-off returned in `retry_after_ms` with retryable
    /// rejects ([`ErrorCode::MemoryPressure`] hints twice this, since
    /// memory drains slower than queue slots).
    pub retry_after: Duration,
    /// When set, the server enables the process-wide
    /// [`stream_arch::telemetry`] sink for its lifetime and writes the
    /// collected spans as Chrome `trace_event` JSON to this path at
    /// shutdown (loadable in `chrome://tracing` / Perfetto). `None` (the
    /// default) leaves tracing untouched: the only per-frame cost is one
    /// relaxed atomic load.
    pub trace_path: Option<PathBuf>,
    /// When set, turns on the durability tier: a [`Wal`] in this
    /// directory records every admitted job before it is enqueued and
    /// every delivered outcome after its reply is sent, and on start the
    /// log is replayed (see [`SortService::recover`]) *before* the
    /// listener accepts traffic. `None` (the default) keeps durability
    /// entirely off the hot path — no extra I/O, no extra locking.
    pub durability_dir: Option<PathBuf>,
    /// WAL tuning (segment size, fsync policy) used when
    /// [`ServerConfig::durability_dir`] is set.
    pub wal: WalConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            service: ServiceConfig::default(),
            batch_window: Duration::from_millis(1),
            max_batch_jobs: 256,
            max_pending_jobs: 1024,
            max_frame_bytes: 64 << 20,
            max_job_elements: 1 << 22,
            read_timeout: Duration::from_millis(5),
            retry_after: Duration::from_millis(10),
            trace_path: None,
            durability_dir: None,
            wal: WalConfig::default(),
        }
    }
}

/// Builder-style setters (the workspace-wide `with_*` convention).
///
/// ```
/// use sortsvc::net::ServerConfig;
///
/// let config = ServerConfig::default()
///     .with_max_pending_jobs(64)
///     .with_max_batch_jobs(16);
/// assert_eq!(config.max_pending_jobs, 64);
/// ```
impl ServerConfig {
    /// Set the in-process service configuration.
    pub fn with_service(mut self, service: ServiceConfig) -> Self {
        self.service = service;
        self
    }

    /// Set the micro-batch window.
    pub fn with_batch_window(mut self, window: Duration) -> Self {
        self.batch_window = window;
        self
    }

    /// Set the maximum submissions per micro-batch.
    pub fn with_max_batch_jobs(mut self, jobs: usize) -> Self {
        self.max_batch_jobs = jobs;
        self
    }

    /// Set the wire-level backpressure bound.
    pub fn with_max_pending_jobs(mut self, jobs: usize) -> Self {
        self.max_pending_jobs = jobs;
        self
    }

    /// Set the maximum records per job.
    pub fn with_max_job_elements(mut self, elements: usize) -> Self {
        self.max_job_elements = elements;
        self
    }

    /// Enable Chrome-trace export to `path` at shutdown.
    pub fn with_trace_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_path = Some(path.into());
        self
    }

    /// Enable the durability tier in `dir`.
    pub fn with_durability_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durability_dir = Some(dir.into());
        self
    }

    /// Set the WAL tuning used with [`ServerConfig::durability_dir`].
    pub fn with_wal(mut self, wal: WalConfig) -> Self {
        self.wal = wal;
        self
    }
}

/// A point-in-time snapshot of a running server.
#[derive(Clone, Debug, Serialize)]
pub struct ServerStats {
    /// Connections accepted since start.
    pub connections_accepted: u64,
    /// Connections currently open.
    pub connections_open: u64,
    /// Peak simultaneous connections.
    pub peak_connections: u64,
    /// Frames received (all types).
    pub frames_received: u64,
    /// Frames sent (all types).
    pub frames_sent: u64,
    /// Jobs rejected before reaching the service (busy, malformed, too
    /// large, unsupported encoding).
    pub wire_rejects: u64,
    /// Connection-fatal protocol violations answered with `ERROR`.
    pub fatal_errors: u64,
    /// Micro-batches the dispatcher ran through the service.
    pub micro_batches: u64,
    /// Aggregate service metrics: every micro-batch's (and startup
    /// recovery's) [`MetricsTally`] merged, then finished once. Job, batch
    /// and engine counters and the simulated makespan are summed,
    /// latency/queue/execution distributions are merged streaming
    /// histograms (so percentiles stay exact-to-bucket no matter how many
    /// jobs the server has seen), occupancy stays capacity-weighted, and
    /// every derived rate uses the per-run formula. `jobs_submitted` /
    /// `jobs_rejected` include the wire-level rejects, so
    /// `submitted = completed + rejected` holds for the server exactly as
    /// it does for one in-process run.
    pub service: ServiceMetrics,
}

/// What one reader thread hands the dispatcher per accepted `SUBMIT`.
struct Submission {
    writer: Arc<ConnWriter>,
    job_id: u64,
    tenant: u32,
    values: Vec<Value>,
    received: Instant,
    /// Log-wide WAL id of the admission record, when durability is on —
    /// the id the dispatcher acknowledges after the reply goes out.
    wal_id: Option<u64>,
}

/// The write half of one connection. Reader threads (rejects, pongs) and
/// the dispatcher (results) share it behind a mutex, so response frames
/// never interleave mid-frame.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    shared: Arc<Shared>,
}

impl ConnWriter {
    /// Send one frame, best effort: a peer that vanished mid-response is
    /// the peer's problem, not the server's.
    fn send(&self, frame_type: FrameType, payload: Vec<u8>) {
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        Frame::new(frame_type, payload).encode_into(&mut bytes);
        if lock(&self.stream).write_all(&bytes).is_ok() {
            self.shared.wire.frames_sent.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn close(&self) {
        let _ = lock(&self.stream).shutdown(Shutdown::Both);
    }
}

/// Per-frame wire counters. These are bumped on every frame of every
/// connection, so they are relaxed atomics rather than fields behind the
/// [`Shared::stats`] mutex: a reader thread never blocks on another
/// connection's counter bump (or on a concurrent [`Shared::snapshot`])
/// just to note that a frame went by. Each counter is independently
/// monotone; a snapshot is a set of individually-exact values, not a
/// cross-counter transaction — the same guarantee the old mutex gave
/// anyone who read stats while traffic was in flight.
#[derive(Default)]
struct WireStats {
    connections_accepted: AtomicU64,
    connections_open: AtomicU64,
    peak_connections: AtomicU64,
    frames_received: AtomicU64,
    frames_sent: AtomicU64,
    wire_rejects: AtomicU64,
    fatal_errors: AtomicU64,
}

impl WireStats {
    fn connection_opened(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
        let open = self.connections_open.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_connections.fetch_max(open, Ordering::Relaxed);
    }
}

/// State shared by every server thread.
struct Shared {
    stop: AtomicBool,
    /// Set by [`SortServer::drain`]: new submissions are turned away with
    /// [`ErrorCode::ServerBusy`] while in-flight ones finish.
    draining: AtomicBool,
    pending: AtomicUsize,
    wire: WireStats,
    /// Micro-batches run through the service, and the merged metrics
    /// tally of those runs plus startup recovery. Only the dispatcher
    /// writes it (once per micro-batch), so the mutex is off the
    /// per-frame path entirely — see [`WireStats`].
    stats: Mutex<(u64, MetricsTally)>,
    device_slots: usize,
    policy_crossover: u64,
    /// Wall-clock origin of the server's arrival timeline.
    started: Instant,
    /// The write-ahead log, when [`ServerConfig::durability_dir`] is set.
    /// Reader threads append admissions, the dispatcher appends
    /// acknowledgements; the mutex keeps records whole.
    wal: Option<Mutex<Wal>>,
    /// Next log-wide WAL job id (wire echo ids are only per-connection
    /// unique, so the log mints its own).
    wal_seq: AtomicU64,
    /// Write halves of live connections, so a drain can say GOODBYE to
    /// everyone. Dead entries are pruned on each accept.
    writers: Mutex<Vec<Weak<ConnWriter>>>,
}

impl Shared {
    fn snapshot(&self) -> ServerStats {
        let (micro_batches, mut tally) = lock(&self.stats).clone();
        let wire_rejects = self.wire.wire_rejects.load(Ordering::Relaxed);
        tally.record_rejected(wire_rejects as usize);
        ServerStats {
            connections_accepted: self.wire.connections_accepted.load(Ordering::Relaxed),
            connections_open: self.wire.connections_open.load(Ordering::Relaxed),
            peak_connections: self.wire.peak_connections.load(Ordering::Relaxed),
            frames_received: self.wire.frames_received.load(Ordering::Relaxed),
            frames_sent: self.wire.frames_sent.load(Ordering::Relaxed),
            wire_rejects,
            fatal_errors: self.wire.fatal_errors.load(Ordering::Relaxed),
            micro_batches,
            service: tally.finish(self.device_slots, self.policy_crossover),
        }
    }
}

/// The framed-TCP sorting server.
///
/// [`SortServer::start`] binds, calibrates a [`SortService`] and spawns
/// the thread ensemble; the handle only *observes* ([`SortServer::stats`])
/// and *stops* ([`SortServer::shutdown`], also run on drop). Shutdown is
/// graceful: accepted submissions still in the dispatcher queue are
/// processed and answered before the threads exit.
pub struct SortServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
    submit_tx: Option<Sender<Submission>>,
    trace_path: Option<PathBuf>,
}

impl SortServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving, calibrating a fresh [`SortService`] from
    /// [`ServerConfig::service`].
    pub fn start(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<SortServer> {
        let service = SortService::new(config.service.clone());
        Self::start_with(addr, config, service)
    }

    /// Bind `addr` and start serving with an already built service (lets
    /// tests share one policy calibration across servers).
    pub fn start_with(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        service: SortService,
    ) -> io::Result<SortServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let trace_path = config.trace_path.clone();
        if trace_path.is_some() {
            TraceSink::global().set_enabled(true);
        }

        // Durability: replay the log *before* the listener accepts
        // traffic, so every job a previous process life admitted but
        // never answered is re-run (and acknowledged) ahead of new work.
        // The replay is not a dispatcher micro-batch: it merges into the
        // tally only.
        let mut tally = MetricsTally::default();
        let mut wal_state = None;
        if let Some(dir) = &config.durability_dir {
            let recovered = service
                .recover(dir, config.wal.clone())
                .map_err(|e| io::Error::other(format!("wal recovery failed: {e}")))?;
            tally.merge(&recovered.report.tally);
            wal_state = Some(Mutex::new(recovered.wal));
        }

        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            wire: WireStats::default(),
            stats: Mutex::new((0, tally)),
            device_slots: service.config().device_slots,
            policy_crossover: service.policy().crossover() as u64,
            started: Instant::now(),
            wal: wal_state,
            wal_seq: AtomicU64::new(1),
            writers: Mutex::new(Vec::new()),
        });
        let (tx, rx) = mpsc::channel::<Submission>();

        let dispatcher = {
            let config = config.clone();
            let shared = shared.clone();
            let started = shared.started;
            thread::spawn(move || dispatcher_loop(rx, service, config, shared, started))
        };
        let accept = {
            let tx = tx.clone();
            let shared = shared.clone();
            thread::spawn(move || accept_loop(listener, tx, config, shared))
        };

        Ok(SortServer {
            local_addr,
            shared,
            accept: Some(accept),
            dispatcher: Some(dispatcher),
            submit_tx: Some(tx),
            trace_path,
        })
    }

    /// The address the server is listening on (resolves the ephemeral
    /// port of a `"127.0.0.1:0"` bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> ServerStats {
        self.shared.snapshot()
    }

    /// Stop accepting, drain the dispatcher queue, join every thread and
    /// return the final stats.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop();
        self.shared.snapshot()
    }

    /// Graceful drain: stop admitting (new submissions get a retryable
    /// [`ErrorCode::ServerBusy`]), let every in-flight job finish and be
    /// answered, fsync the write-ahead log, send `GOODBYE` on every live
    /// connection, then shut down and return the final stats.
    ///
    /// This is the clean-handoff half of the durability contract: after
    /// `drain` returns, the log on disk contains an acknowledgement for
    /// every job any client got an answer for, so the next process life
    /// recovers nothing (see `docs/DURABILITY.md`).
    pub fn drain(mut self) -> ServerStats {
        self.shared.draining.store(true, Ordering::SeqCst);
        while self.shared.pending.load(Ordering::SeqCst) > 0 {
            thread::sleep(Duration::from_millis(2));
        }
        if let Some(wal) = &self.shared.wal {
            if let Err(err) = lock(wal).sync() {
                eprintln!("sortsvc: wal fsync on drain failed: {err}");
            }
        }
        for weak in lock(&self.shared.writers).drain(..) {
            if let Some(writer) = weak.upgrade() {
                writer.send(FrameType::Goodbye, Vec::new());
            }
        }
        self.stop();
        self.shared.snapshot()
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // With the accept thread and every reader gone, dropping the last
        // sender disconnects the channel; the dispatcher drains what is
        // queued, answers it, and exits.
        drop(self.submit_tx.take());
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        if let Some(path) = self.trace_path.take() {
            // Every thread has joined, so the sink holds the complete
            // span set. Export failures are reported, not fatal: the
            // server already shut down cleanly.
            let sink = TraceSink::global();
            sink.set_enabled(false);
            let json = telemetry::chrome_trace_json(&sink.take_events());
            if let Err(err) = std::fs::write(&path, json) {
                eprintln!("sortsvc: failed to write trace {}: {err}", path.display());
            }
        }
    }
}

impl Drop for SortServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Accept connections until asked to stop, then join the reader threads.
fn accept_loop(
    listener: TcpListener,
    tx: Sender<Submission>,
    config: ServerConfig,
    shared: Arc<Shared>,
) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(config.read_timeout));
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                shared.wire.connection_opened();
                let writer = Arc::new(ConnWriter {
                    stream: Mutex::new(write_half),
                    shared: shared.clone(),
                });
                {
                    let mut writers = lock(&shared.writers);
                    writers.retain(|w| w.strong_count() > 0);
                    writers.push(Arc::downgrade(&writer));
                }
                let tx = tx.clone();
                let config = config.clone();
                let shared = shared.clone();
                readers.push(thread::spawn(move || {
                    reader_loop(stream, writer, tx, config, shared)
                }));
            }
            // Nonblocking accept: idle-sleep and re-check the stop flag.
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
    for h in readers {
        let _ = h.join();
    }
}

/// One connection's read loop: decode frames, answer protocol traffic,
/// forward submissions.
fn reader_loop(
    mut stream: TcpStream,
    writer: Arc<ConnWriter>,
    tx: Sender<Submission>,
    config: ServerConfig,
    shared: Arc<Shared>,
) {
    let mut frames = FrameReader::new(config.max_frame_bytes);
    while !shared.stop.load(Ordering::Relaxed) {
        match frames.poll(&mut stream) {
            Ok(FramePoll::Frame(frame)) => {
                shared.wire.frames_received.fetch_add(1, Ordering::Relaxed);
                if !handle_frame(frame, &writer, &tx, &config, &shared) {
                    break;
                }
            }
            Ok(FramePoll::WouldBlock) => continue,
            Ok(FramePoll::Eof) => break,
            Err(err) => {
                // The stream is out of sync: say why, then hang up.
                writer.send(
                    FrameType::Error,
                    ErrorPayload {
                        code: err.error_code(),
                        message: err.to_string(),
                    }
                    .encode(),
                );
                shared.wire.fatal_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
    writer.close();
    shared.wire.connections_open.fetch_sub(1, Ordering::Relaxed);
}

/// Dispatch one client frame. Returns `false` when the connection should
/// close.
fn handle_frame(
    frame: Frame,
    writer: &Arc<ConnWriter>,
    tx: &Sender<Submission>,
    config: &ServerConfig,
    shared: &Arc<Shared>,
) -> bool {
    match frame.frame_type {
        FrameType::Submit => {
            handle_submit(frame.payload, writer, tx, config, shared);
            true
        }
        FrameType::Ping => {
            writer.send(FrameType::Pong, frame.payload);
            true
        }
        // An unsolicited PONG is harmless; ignore it.
        FrameType::Pong => true,
        FrameType::Stats => {
            if !frame.payload.is_empty() {
                // A non-empty STATS request means the peer speaks a
                // different dialect; don't guess at the rest of the
                // stream.
                writer.send(
                    FrameType::Error,
                    ErrorPayload {
                        code: ErrorCode::BadFrame,
                        message: "STATS request payload must be empty".into(),
                    }
                    .encode(),
                );
                shared.wire.fatal_errors.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            let payload = StatsPayload {
                json: serde_json::to_string(&shared.snapshot()).expect("stats serialize"),
            };
            writer.send(FrameType::Stats, payload.encode());
            true
        }
        FrameType::Goodbye => false,
        // The peer declared the connection broken; nothing left to say.
        FrameType::Error => false,
        // Server-to-client frame types are invalid in this direction.
        FrameType::Result | FrameType::Reject => {
            writer.send(
                FrameType::Error,
                ErrorPayload {
                    code: ErrorCode::BadFrame,
                    message: "RESULT/REJECT are server-to-client frames".into(),
                }
                .encode(),
            );
            shared.wire.fatal_errors.fetch_add(1, Ordering::Relaxed);
            false
        }
    }
}

/// Validate one submission and either queue it or reject it in place.
fn handle_submit(
    payload: Vec<u8>,
    writer: &Arc<ConnWriter>,
    tx: &Sender<Submission>,
    config: &ServerConfig,
    shared: &Arc<Shared>,
) {
    // The job id lives in the first 8 payload bytes, so it is recoverable
    // (for the echo in the reject) even when the rest is malformed.
    let echo_id = payload
        .get(0..8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        .unwrap_or(0);
    if payload.len() >= JOB_HEADER_LEN && PayloadEncoding::from_wire(payload[12]).is_none() {
        reject(writer, shared, echo_id, ErrorCode::UnsupportedEncoding, 0);
        return;
    }
    // The record count follows from the payload length, so an oversized
    // job is turned away before its records are decoded.
    match SubmitPayload::record_count(&payload) {
        Err(_) => {
            reject(writer, shared, echo_id, ErrorCode::MalformedPayload, 0);
            return;
        }
        Ok(count) if count > config.max_job_elements => {
            reject(writer, shared, echo_id, ErrorCode::JobTooLarge, 0);
            return;
        }
        Ok(_) => {}
    }
    let decode_started = telemetry::enabled().then(Instant::now);
    let mut submit = match SubmitPayload::decode(&payload) {
        Ok(s) => s,
        Err(_) => {
            reject(writer, shared, echo_id, ErrorCode::MalformedPayload, 0);
            return;
        }
    };
    if let Some(started) = decode_started {
        telemetry::record_host_span(
            "wire",
            "submit-decode",
            started,
            &[("bytes", payload.len() as f64)],
        );
    }
    // A draining server turns new work away with the same retryable
    // answer as a saturated one; clients with back-off find the restarted
    // process (or a sibling) on their next attempt.
    if shared.draining.load(Ordering::SeqCst) {
        let hint = retry_hint_ms(config, ErrorCode::ServerBusy);
        reject(writer, shared, submit.job_id, ErrorCode::ServerBusy, hint);
        return;
    }
    // Wire-level backpressure: bound the submissions in flight before the
    // service's own admission control ever sees them.
    let admitted = shared
        .pending
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < config.max_pending_jobs).then_some(n + 1)
        })
        .is_ok();
    if !admitted {
        let hint = retry_hint_ms(config, ErrorCode::ServerBusy);
        reject(writer, shared, submit.job_id, ErrorCode::ServerBusy, hint);
        return;
    }
    let received = Instant::now();
    // Durability: the admission record must be in the log *before* the
    // job can reach the dispatcher — a crash after this append replays
    // the job, a crash before it means the client never got an answer
    // and retries. Wire-level rejects above never touch the log because
    // nothing was admitted.
    let mut wal_id = None;
    if let Some(wal) = &shared.wal {
        let id = shared.wal_seq.fetch_add(1, Ordering::Relaxed);
        let record = AdmittedJob {
            job_id: id,
            tenant: submit.tenant,
            arrival_ms: received.duration_since(shared.started).as_secs_f64() * 1e3,
            hint: None,
            values: std::mem::take(&mut submit.values),
        };
        let appended = lock(wal).append_admitted(&record);
        submit.values = record.values;
        if let Err(err) = appended {
            // The job was never admitted durably, so it must not run:
            // answer with a non-retryable Internal and undo the pending
            // reservation.
            eprintln!("sortsvc: wal admission append failed: {err}");
            shared.pending.fetch_sub(1, Ordering::SeqCst);
            reject(writer, shared, submit.job_id, ErrorCode::Internal, 0);
            return;
        }
        wal_id = Some(id);
    }
    let submission = Submission {
        writer: writer.clone(),
        job_id: submit.job_id,
        tenant: submit.tenant,
        values: submit.values,
        received,
        wal_id,
    };
    if tx.send(submission).is_err() {
        // The dispatcher is gone (shutdown race): still answer.
        shared.pending.fetch_sub(1, Ordering::SeqCst);
        let hint = retry_hint_ms(config, ErrorCode::ServerBusy);
        reject(writer, shared, echo_id, ErrorCode::ServerBusy, hint);
    }
}

fn reject(writer: &ConnWriter, shared: &Shared, job_id: u64, code: ErrorCode, retry_after_ms: u32) {
    shared.wire.wire_rejects.fetch_add(1, Ordering::Relaxed);
    writer.send(
        FrameType::Reject,
        RejectPayload {
            job_id,
            code,
            retry_after_ms,
        }
        .encode(),
    );
}

/// The advisory back-off sent with a retryable reject.
fn retry_hint_ms(config: &ServerConfig, code: ErrorCode) -> u32 {
    // `as_millis` is u128; a plain `as u32` cast would silently wrap a
    // large configured back-off (e.g. 2^32 ms ≈ 49.7 days → 0). Saturate
    // at the wire field's maximum instead.
    let base = u32::try_from(config.retry_after.as_millis())
        .unwrap_or(u32::MAX)
        .max(1);
    match code {
        ErrorCode::QueueFull | ErrorCode::ServerBusy => base,
        // In-flight memory drains slower than queue slots.
        ErrorCode::MemoryPressure => base.saturating_mul(2),
        _ => 0,
    }
}

/// Collect submissions into wall-clock micro-batches and run each through
/// the service.
fn dispatcher_loop(
    rx: Receiver<Submission>,
    service: SortService,
    config: ServerConfig,
    shared: Arc<Shared>,
    started: Instant,
) {
    loop {
        let first = match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(s) => s,
            Err(RecvTimeoutError::Timeout) => continue,
            // Every sender dropped and the queue is drained: shutdown.
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let deadline = Instant::now() + config.batch_window;
        let mut batch = vec![first];
        while batch.len() < config.max_batch_jobs {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(s) => batch.push(s),
                Err(_) => break,
            }
        }
        run_batch(&service, &config, &shared, started, batch);
    }
}

/// Run one micro-batch through the service and fan the answers back out
/// to the submitting connections.
fn run_batch(
    service: &SortService,
    config: &ServerConfig,
    shared: &Shared,
    started: Instant,
    mut batch: Vec<Submission>,
) {
    let n = batch.len();
    let _batch_span =
        telemetry::host_span("service", "micro-batch").map(|s| s.arg("jobs", n as f64));
    // Service job ids are batch positions, so each verdict maps back to
    // its wire submission by index; arrival times are wall-clock
    // milliseconds since server start, which preserves arrival order for
    // the admission queue and fairness machinery.
    let jobs: Vec<SortJob> = batch
        .iter_mut()
        .enumerate()
        .map(|(i, sub)| SortJob {
            id: i as u64,
            tenant: sub.tenant,
            arrival_ms: sub.received.duration_since(started).as_secs_f64() * 1e3,
            values: std::mem::take(&mut sub.values),
            hint: None,
            // The SUBMIT payload carries no kind; wire jobs are plain
            // sorts (typed clients encode/decode around them).
            kind: crate::job::JobKind::Sort,
        })
        .collect();

    match service.process(jobs) {
        Ok(report) => {
            {
                let (micro_batches, tally) = &mut *lock(&shared.stats);
                *micro_batches += 1;
                tally.merge(&report.tally);
            }
            for (id, reason) in &report.rejected {
                let sub = &batch[*id as usize];
                let code = ErrorCode::from(*reason);
                sub.writer.send(
                    FrameType::Reject,
                    RejectPayload {
                        job_id: sub.job_id,
                        code,
                        retry_after_ms: retry_hint_ms(config, code),
                    }
                    .encode(),
                );
            }
            let mut completed_wal_ids = Vec::new();
            for result in report.results {
                let sub = &batch[result.id as usize];
                if let Some(id) = sub.wal_id {
                    completed_wal_ids.push(id);
                }
                let Ok(payload) = ResultPayload {
                    job_id: sub.job_id,
                    encoding: PayloadEncoding::RawLe,
                    values: result.output,
                }
                .encode();
                sub.writer.send(FrameType::Result, payload);
            }
            // Durability: acknowledgements go in *after* the replies are
            // on the wire, so a crash in between replays the job once
            // more (at-least-once) instead of losing an admitted job. An
            // append failure here is logged, not fatal — the worst case
            // is the same at-least-once replay.
            if let Some(wal_mutex) = &shared.wal {
                let mut wal = lock(wal_mutex);
                for (id, reason) in &report.rejected {
                    if let Some(wal_id) = batch[*id as usize].wal_id {
                        if let Err(err) = wal.append_rejected(wal_id, *reason) {
                            eprintln!("sortsvc: wal ack append failed: {err}");
                        }
                    }
                }
                for wal_id in completed_wal_ids {
                    if let Err(err) = wal.append_completed(wal_id) {
                        eprintln!("sortsvc: wal ack append failed: {err}");
                    }
                }
            }
        }
        Err(_) => {
            // The whole batch failed inside the engine: answer every job
            // so no client hangs, and count them as submitted + rejected.
            // Their WAL admissions stay unacknowledged on purpose — a
            // durability-enabled restart replays them (at-least-once).
            lock(&shared.stats).1.record_rejected(n);
            for sub in &batch {
                sub.writer.send(
                    FrameType::Reject,
                    RejectPayload {
                        job_id: sub.job_id,
                        code: ErrorCode::Internal,
                        retry_after_ms: 0,
                    }
                    .encode(),
                );
            }
        }
    }
    // Wall-clock wire residency: SUBMIT accepted → answer written. One
    // span per job, closing exactly when its reply has gone out.
    if telemetry::enabled() {
        for sub in &batch {
            telemetry::record_host_span(
                "wire",
                "job-residency",
                sub.received,
                &[("job", sub.job_id as f64)],
            );
        }
    }
    shared.pending.fetch_sub(n, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_with_retry_after(d: Duration) -> ServerConfig {
        ServerConfig {
            retry_after: d,
            ..ServerConfig::default()
        }
    }

    /// Regression: `retry_after.as_millis()` is u128 — a back-off at or
    /// beyond 2^32 ms used to wrap to a tiny (or zero) hint via `as u32`.
    #[test]
    fn retry_hint_saturates_instead_of_wrapping() {
        // 2^32 ms wrapped to exactly 0 under the old cast, which `.max(1)`
        // then turned into a 1 ms hint for a ~49.7-day configured back-off.
        let wrap = config_with_retry_after(Duration::from_millis(1u64 << 32));
        assert_eq!(retry_hint_ms(&wrap, ErrorCode::QueueFull), u32::MAX);
        assert_eq!(retry_hint_ms(&wrap, ErrorCode::ServerBusy), u32::MAX);
        // The 2x memory-pressure hint must saturate too, even when the
        // base itself fits in u32.
        let big = config_with_retry_after(Duration::from_millis(u64::from(u32::MAX)));
        assert_eq!(retry_hint_ms(&big, ErrorCode::MemoryPressure), u32::MAX);
    }

    #[test]
    fn retry_hint_small_values_unchanged() {
        let c = config_with_retry_after(Duration::from_millis(10));
        assert_eq!(retry_hint_ms(&c, ErrorCode::QueueFull), 10);
        assert_eq!(retry_hint_ms(&c, ErrorCode::MemoryPressure), 20);
        assert_eq!(retry_hint_ms(&c, ErrorCode::JobTooLarge), 0);
        // A sub-millisecond duration still advertises a non-zero hint.
        let zero = config_with_retry_after(Duration::from_micros(10));
        assert_eq!(retry_hint_ms(&zero, ErrorCode::QueueFull), 1);
    }
}
