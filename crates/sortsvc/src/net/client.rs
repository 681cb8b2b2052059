//! The buffering wire client: batched submission, pipelined outstanding
//! jobs, and per-job futures-by-polling.
//!
//! [`SortClient`] encodes each submission into an in-memory buffer and
//! only touches the socket when the buffer crosses the configured
//! thresholds (or on an explicit [`SortClient::flush`]), so a burst of
//! small jobs costs one `write` instead of one syscall each — the wire
//! analogue of the service's own job coalescing. Responses are read by a
//! background thread and parked under their job id; the [`JobTicket`]
//! returned per submission is a future-by-polling over that mailbox
//! ([`JobTicket::poll`] / [`JobTicket::wait_timeout`]), which is what
//! lets one client keep many jobs outstanding at once.

use super::error::ErrorCode;
use super::frame::{
    Frame, FramePoll, FrameReader, FrameType, PayloadEncoding, RejectPayload, ResultPayload,
    StatsPayload, SubmitPayload,
};
use super::lock;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use stream_arch::Value;

/// Configuration of a [`SortClient`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Tenant id stamped on submissions (the service's fairness key).
    pub tenant: u32,
    /// Auto-flush after this many buffered submissions.
    pub flush_jobs: usize,
    /// Auto-flush when the submission buffer reaches this many bytes.
    pub flush_bytes: usize,
    /// Maximum frame payload length the client will read.
    pub max_frame_bytes: u32,
    /// Socket read timeout of the response thread — the granularity at
    /// which it notices the client shutting down.
    pub read_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            tenant: 0,
            flush_jobs: 32,
            flush_bytes: 1 << 20,
            max_frame_bytes: 64 << 20,
            read_timeout: Duration::from_millis(5),
        }
    }
}

/// Builder-style setters (the workspace-wide `with_*` convention).
///
/// ```
/// use sortsvc::net::ClientConfig;
///
/// let config = ClientConfig::default().with_tenant(7).with_flush_jobs(8);
/// assert_eq!((config.tenant, config.flush_jobs), (7, 8));
/// ```
impl ClientConfig {
    /// Set the tenant id stamped on submissions.
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Set the job-count auto-flush threshold.
    pub fn with_flush_jobs(mut self, jobs: usize) -> Self {
        self.flush_jobs = jobs;
        self
    }

    /// Set the byte-size auto-flush threshold.
    pub fn with_flush_bytes(mut self, bytes: usize) -> Self {
        self.flush_bytes = bytes;
        self
    }

    /// Set the maximum frame payload the client will read.
    pub fn with_max_frame_bytes(mut self, bytes: u32) -> Self {
        self.max_frame_bytes = bytes;
        self
    }

    /// Set the response thread's socket read timeout.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }
}

/// The server's answer to one job.
#[derive(Clone, Debug, PartialEq)]
pub enum JobReply {
    /// The job completed; these are the sorted records.
    Sorted(Vec<Value>),
    /// The job was turned away.
    Rejected {
        /// Why (see [`ErrorCode`]; `code.is_retryable()` tells whether
        /// resubmitting can help).
        code: ErrorCode,
        /// Advisory back-off before a retry, milliseconds (0 = no hint).
        retry_after_ms: u32,
    },
}

impl JobReply {
    /// The sorted records, if the job completed.
    pub fn sorted(self) -> Option<Vec<Value>> {
        match self {
            JobReply::Sorted(values) => Some(values),
            JobReply::Rejected { .. } => None,
        }
    }

    /// True when the job was rejected.
    pub fn is_rejected(&self) -> bool {
        matches!(self, JobReply::Rejected { .. })
    }
}

/// State shared between the client handle and its response thread.
struct ClientShared {
    /// Parked replies by job id, filled by the response thread.
    replies: Mutex<HashMap<u64, JobReply>>,
    /// Signalled whenever a reply is parked or the connection dies.
    ready: Condvar,
    /// Set when the connection is finished (client drop, server goodbye,
    /// fatal protocol error, I/O error).
    closed: AtomicBool,
    /// Why the connection died, when it died abnormally.
    fatal: Mutex<Option<String>>,
    /// `PONG` frames received (see [`SortClient::ping`]).
    pongs: AtomicU64,
    /// The latest unclaimed `STATS` response (see [`SortClient::stats`]).
    stats: Mutex<Option<String>>,
}

impl ClientShared {
    fn die(&self, reason: Option<String>) {
        if let Some(msg) = reason {
            lock(&self.fatal).get_or_insert(msg);
        }
        self.closed.store(true, Ordering::SeqCst);
        let _guard = lock(&self.replies);
        self.ready.notify_all();
    }

    fn closed_error(&self) -> io::Error {
        let msg = lock(&self.fatal)
            .clone()
            .unwrap_or_else(|| "connection closed".into());
        io::Error::new(io::ErrorKind::ConnectionAborted, msg)
    }
}

/// A handle to one outstanding job: a future-by-polling over the client's
/// reply mailbox.
pub struct JobTicket {
    shared: Arc<ClientShared>,
    job_id: u64,
}

impl JobTicket {
    /// The wire job id this ticket tracks.
    pub fn job_id(&self) -> u64 {
        self.job_id
    }

    /// Take the reply if it has arrived (non-blocking). Returns `None`
    /// while the job is still outstanding.
    pub fn poll(&self) -> Option<JobReply> {
        lock(&self.shared.replies).remove(&self.job_id)
    }

    /// Block until the reply arrives, the connection dies, or `timeout`
    /// elapses. Remember to [`SortClient::flush`] first — a buffered
    /// submission the server never saw cannot be answered.
    ///
    /// **Deadline guarantee**: the wait is condvar-driven, not a poll
    /// loop. Every iteration recomputes the remaining time and parks for
    /// at most that long, and a parked reply (or connection death)
    /// notifies the condvar, so the call returns as soon as its answer
    /// exists. On timeout the overshoot is bounded by scheduler wake-up
    /// latency alone — it never rounds up to a fixed poll interval such
    /// as [`ClientConfig::read_timeout`] (which bounds how fast the
    /// *response thread* notices shutdown, not this wait).
    pub fn wait_timeout(&self, timeout: Duration) -> io::Result<JobReply> {
        let deadline = Instant::now() + timeout;
        let mut replies = lock(&self.shared.replies);
        loop {
            if let Some(reply) = replies.remove(&self.job_id) {
                return Ok(reply);
            }
            if self.shared.closed.load(Ordering::SeqCst) {
                return Err(self.shared.closed_error());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("no reply for job {} within {timeout:?}", self.job_id),
                ));
            }
            replies = match self.shared.ready.wait_timeout(replies, deadline - now) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }
}

/// The typed counterpart of [`JobReply`]: decoded keys or a rejection.
#[derive(Clone, Debug, PartialEq)]
pub enum TypedReply<K: crate::keys::SortKey> {
    /// The job completed; the sorted keys with duplicate multiplicities
    /// restored.
    Sorted(Vec<K>),
    /// The job was turned away (same semantics as
    /// [`JobReply::Rejected`]).
    Rejected {
        /// Why the server refused the job.
        code: ErrorCode,
        /// Advisory back-off before a retry, milliseconds (0 = no hint).
        retry_after_ms: u32,
    },
}

impl<K: crate::keys::SortKey> TypedReply<K> {
    /// The sorted keys, if the job completed.
    pub fn sorted(self) -> Option<Vec<K>> {
        match self {
            TypedReply::Sorted(keys) => Some(keys),
            TypedReply::Rejected { .. } => None,
        }
    }
}

/// A [`JobTicket`] for a typed submission: holds the duplicate
/// multiplicities recorded at encode time so the wire reply can be
/// decoded back into the caller's key domain.
pub struct TypedTicket<K: crate::keys::SortKey> {
    ticket: JobTicket,
    batch: crate::keys::EncodedBatch<K>,
}

impl<K: crate::keys::SortKey> TypedTicket<K> {
    /// The wire job id of the submission.
    pub fn job_id(&self) -> u64 {
        self.ticket.job_id()
    }

    /// Non-blocking: the decoded reply if the server has answered.
    pub fn poll(&self) -> Option<TypedReply<K>> {
        self.ticket.poll().map(|r| self.decode(r))
    }

    /// Block until the reply arrives (or `timeout` passes / the
    /// connection dies) and decode it.
    pub fn wait_timeout(&self, timeout: Duration) -> io::Result<TypedReply<K>> {
        Ok(self.decode(self.ticket.wait_timeout(timeout)?))
    }

    fn decode(&self, reply: JobReply) -> TypedReply<K> {
        match reply {
            JobReply::Sorted(values) => TypedReply::Sorted(self.batch.decode_sorted(&values)),
            JobReply::Rejected {
                code,
                retry_after_ms,
            } => TypedReply::Rejected {
                code,
                retry_after_ms,
            },
        }
    }
}

/// A buffering client for the framed-TCP sorting protocol.
///
/// ```no_run
/// use sortsvc::net::SortClient;
/// use std::time::Duration;
///
/// let mut client = SortClient::connect("127.0.0.1:7600")?;
/// let ticket = client.submit(workloads::uniform(1024, 7))?;
/// client.flush()?;
/// let sorted = ticket
///     .wait_timeout(Duration::from_secs(10))?
///     .sorted()
///     .expect("not rejected");
/// assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct SortClient {
    stream: TcpStream,
    shared: Arc<ClientShared>,
    buf: Vec<u8>,
    buffered_jobs: usize,
    next_job_id: u64,
    config: ClientConfig,
    reader: Option<JoinHandle<()>>,
}

impl SortClient {
    /// Connect with the default [`ClientConfig`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<SortClient> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with an explicit configuration.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<SortClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        read_half.set_read_timeout(Some(config.read_timeout))?;
        let shared = Arc::new(ClientShared {
            replies: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
            closed: AtomicBool::new(false),
            fatal: Mutex::new(None),
            pongs: AtomicU64::new(0),
            stats: Mutex::new(None),
        });
        let reader = {
            let shared = shared.clone();
            let limit = config.max_frame_bytes;
            thread::spawn(move || response_loop(read_half, shared, limit))
        };
        Ok(SortClient {
            stream,
            shared,
            buf: Vec::new(),
            buffered_jobs: 0,
            next_job_id: 0,
            config,
            reader: Some(reader),
        })
    }

    /// Submit one job under the configured tenant. The
    /// submission is *buffered*; it reaches the server on auto-flush
    /// (see [`ClientConfig::flush_jobs`] / [`ClientConfig::flush_bytes`])
    /// or an explicit [`SortClient::flush`].
    pub fn submit(&mut self, values: Vec<Value>) -> io::Result<JobTicket> {
        self.submit_with(values, self.config.tenant)
    }

    /// Submit one job with an explicit tenant.
    pub fn submit_with(&mut self, values: Vec<Value>, tenant: u32) -> io::Result<JobTicket> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(self.shared.closed_error());
        }
        let job_id = self.next_job_id;
        let Ok(payload) = SubmitPayload {
            job_id,
            tenant,
            encoding: PayloadEncoding::RawLe,
            values,
        }
        .encode();
        self.next_job_id += 1;
        Frame::new(FrameType::Submit, payload).encode_into(&mut self.buf);
        self.buffered_jobs += 1;
        if self.buffered_jobs >= self.config.flush_jobs || self.buf.len() >= self.config.flush_bytes
        {
            self.flush()?;
        }
        Ok(JobTicket {
            shared: self.shared.clone(),
            job_id,
        })
    }

    /// Submit typed keys over the wire. The order-preserving encodings
    /// ride the existing SUBMIT frame as raw [`Value`] bit patterns,
    /// which the bit-exact [`PayloadEncoding::RawLe`] record carries
    /// unchanged, NaN keys included. Duplicate keys are deduplicated
    /// before transmission (the engines need distinct elements) and
    /// re-expanded when the reply is decoded by
    /// [`TypedTicket::wait_timeout`].
    pub fn submit_keys<K: crate::keys::SortKey>(
        &mut self,
        keys: &[K],
    ) -> io::Result<TypedTicket<K>> {
        let mut batch = crate::keys::EncodedBatch::new(keys);
        let values = batch.take_values();
        let ticket = self.submit_with(values, self.config.tenant)?;
        Ok(TypedTicket { ticket, batch })
    }

    /// Write every buffered submission to the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.stream.write_all(&self.buf)?;
        self.stream.flush()?;
        self.buf.clear();
        self.buffered_jobs = 0;
        Ok(())
    }

    /// Submissions buffered but not yet written.
    pub fn buffered_jobs(&self) -> usize {
        self.buffered_jobs
    }

    /// Send a `PING` (flushing first, to preserve frame order). The pong
    /// is counted asynchronously; see [`SortClient::pongs`].
    pub fn ping(&mut self) -> io::Result<()> {
        self.flush()?;
        self.stream
            .write_all(&Frame::new(FrameType::Ping, Vec::new()).encode())
    }

    /// `PONG` frames received so far.
    pub fn pongs(&self) -> u64 {
        self.shared.pongs.load(Ordering::SeqCst)
    }

    /// Ask the server for a [`ServerStats`](crate::ServerStats) snapshot
    /// over the wire (a `STATS` round trip) and parse the JSON answer.
    ///
    /// The snapshot carries the full stats surface — wire counters plus
    /// the aggregate service metrics with their streaming-histogram
    /// summaries — so a live client can watch percentiles move without
    /// any side channel to the server process:
    ///
    /// ```
    /// use sortsvc::net::{ServerConfig, SortClient, SortServer};
    /// use std::time::Duration;
    ///
    /// let mut config = ServerConfig::default();
    /// config.service.device_slots = 1;
    /// let server = SortServer::start("127.0.0.1:0", config)?;
    /// let mut client = SortClient::connect(server.local_addr())?;
    ///
    /// let ticket = client.submit(workloads::uniform(256, 9))?;
    /// client.flush()?;
    /// ticket.wait_timeout(Duration::from_secs(30))?;
    ///
    /// let stats = client.stats()?;
    /// let completed = stats
    ///     .get("service")
    ///     .and_then(|s| s.get("jobs_completed"))
    ///     .and_then(|v| v.as_f64());
    /// assert_eq!(completed, Some(1.0));
    /// # Ok::<(), std::io::Error>(())
    /// ```
    ///
    /// Keep at most one `STATS` request outstanding per client: replies
    /// carry no correlation id, so a second concurrent request could
    /// claim the first one's answer.
    pub fn stats(&mut self) -> io::Result<serde_json::Value> {
        self.stats_timeout(Duration::from_secs(30))
    }

    /// [`SortClient::stats`] with an explicit reply deadline.
    pub fn stats_timeout(&mut self, timeout: Duration) -> io::Result<serde_json::Value> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(self.shared.closed_error());
        }
        // Flush first so the snapshot reflects every submission already
        // handed to this client, then send the empty STATS request.
        self.flush()?;
        self.stream
            .write_all(&Frame::new(FrameType::Stats, Vec::new()).encode())?;
        let deadline = Instant::now() + timeout;
        let mut replies = lock(&self.shared.replies);
        loop {
            if let Some(json) = lock(&self.shared.stats).take() {
                drop(replies);
                return serde_json::from_str(&json).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("malformed STATS JSON from server: {e}"),
                    )
                });
            }
            if self.shared.closed.load(Ordering::SeqCst) {
                return Err(self.shared.closed_error());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("no STATS reply within {timeout:?}"),
                ));
            }
            replies = match self.shared.ready.wait_timeout(replies, deadline - now) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// Flush, announce `GOODBYE` and tear the connection down. Dropping
    /// the client does the same, minus the error reporting.
    pub fn close(mut self) -> io::Result<()> {
        self.flush()?;
        Ok(())
    }
}

impl Drop for SortClient {
    fn drop(&mut self) {
        let _ = self.flush();
        let _ = self
            .stream
            .write_all(&Frame::new(FrameType::Goodbye, Vec::new()).encode());
        self.shared.die(None);
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// The background response thread: decode frames, park replies, record
/// why the connection ended.
fn response_loop(mut stream: TcpStream, shared: Arc<ClientShared>, max_frame_bytes: u32) {
    let mut frames = FrameReader::new(max_frame_bytes);
    let reason = loop {
        if shared.closed.load(Ordering::Relaxed) {
            break None;
        }
        match frames.poll(&mut stream) {
            Ok(FramePoll::Frame(frame)) => match dispatch_reply(frame, &shared) {
                Ok(()) => continue,
                Err(reason) => break Some(reason),
            },
            Ok(FramePoll::WouldBlock) => continue,
            Ok(FramePoll::Eof) => break Some("server closed the connection".into()),
            Err(err) => break Some(format!("frame decode failed: {err}")),
        }
    };
    shared.die(reason);
}

/// Handle one server frame. `Err` carries the reason the connection is
/// now over.
fn dispatch_reply(frame: Frame, shared: &ClientShared) -> Result<(), String> {
    match frame.frame_type {
        FrameType::Result => {
            let payload = ResultPayload::decode(&frame.payload)
                .map_err(|e| format!("malformed RESULT from server: {e}"))?;
            park(shared, payload.job_id, JobReply::Sorted(payload.values));
            Ok(())
        }
        FrameType::Reject => {
            let payload = RejectPayload::decode(&frame.payload)
                .map_err(|e| format!("malformed REJECT from server: {e}"))?;
            park(
                shared,
                payload.job_id,
                JobReply::Rejected {
                    code: payload.code,
                    retry_after_ms: payload.retry_after_ms,
                },
            );
            Ok(())
        }
        FrameType::Pong => {
            shared.pongs.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
        FrameType::Stats => {
            let payload = StatsPayload::decode(&frame.payload)
                .map_err(|e| format!("malformed STATS from server: {e}"))?;
            *lock(&shared.stats) = Some(payload.json);
            // Same lost-wakeup discipline as `die()`: take the condvar's
            // mutex so a waiter is either before its mailbox check (and
            // will see the value) or already parked (and gets notified).
            let _guard = lock(&shared.replies);
            shared.ready.notify_all();
            Ok(())
        }
        // Version-1 servers never ping; tolerate it anyway.
        FrameType::Ping => Ok(()),
        FrameType::Goodbye => Err("server said goodbye".into()),
        FrameType::Error => Err(match super::frame::ErrorPayload::decode(&frame.payload) {
            Ok(p) => format!("server reported {}: {}", p.code, p.message),
            Err(_) => "server reported an unreadable error".into(),
        }),
        FrameType::Submit => Err("server sent a client-only SUBMIT frame".into()),
    }
}

fn park(shared: &ClientShared, job_id: u64, reply: JobReply) {
    lock(&shared.replies).insert(job_id, reply);
    shared.ready.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare_shared() -> Arc<ClientShared> {
        Arc::new(ClientShared {
            replies: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
            closed: AtomicBool::new(false),
            fatal: Mutex::new(None),
            pongs: AtomicU64::new(0),
            stats: Mutex::new(None),
        })
    }

    /// Regression for the deadline guarantee documented on
    /// [`JobTicket::wait_timeout`]: the wait must track its *own*
    /// remaining time, not round up to a poll interval.
    #[test]
    fn wait_timeout_tracks_its_own_deadline() {
        let shared = bare_shared();
        let ticket = JobTicket {
            shared: shared.clone(),
            job_id: 7,
        };

        // A 2 ms timeout with no reply must come back as TimedOut with an
        // overshoot far below any fixed poll interval (generous bound for
        // loaded CI machines; the failure mode this pins would add the
        // full interval per parked iteration).
        let started = Instant::now();
        let err = ticket
            .wait_timeout(Duration::from_millis(2))
            .expect_err("no reply was parked");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "timeout overshot by {:?}",
            started.elapsed()
        );

        // A reply parked mid-wait wakes the waiter immediately — the call
        // must not sleep anywhere near its (long) deadline.
        let parker = {
            let shared = shared.clone();
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                park(&shared, 7, JobReply::Sorted(Vec::new()));
            })
        };
        let started = Instant::now();
        let reply = ticket
            .wait_timeout(Duration::from_secs(60))
            .expect("parked reply");
        assert_eq!(reply, JobReply::Sorted(Vec::new()));
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "condvar wake-up took {:?}",
            started.elapsed()
        );
        parker.join().unwrap();
    }
}
