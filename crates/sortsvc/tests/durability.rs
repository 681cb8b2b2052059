//! The durability tier's headline contract (`docs/DURABILITY.md`): a
//! process that crashes anywhere in the WAL write path restarts, replays
//! exactly the admitted-but-unacknowledged jobs, and produces outputs
//! byte-identical to an uninterrupted run — with zero loss of any job a
//! client was acknowledged for.
//!
//! Three escalation levels of "crash" are exercised:
//!
//! 1. **Simulated** ([`FaultMode::Stop`]) — every [`FaultPoint`] in the
//!    write path fires a typed error mid-operation and the abandoned log
//!    is recovered in-process.
//! 2. **Server-level** — a real [`SortServer`] loses its ack append and
//!    is dropped without drain; a second server on the same directory
//!    replays the open job before accepting traffic, and a
//!    [`RetryingClient`] rides over a drain onto a sibling server.
//! 3. **`kill -9`** — a child *process* is SIGKILLed while stalled
//!    mid-record inside an append (a real torn write); the parent
//!    recovers the directory it left behind.

use sortsvc::net::{RetryingClient, ServerConfig, SortClient, SortServer};
use sortsvc::wal::{fault, AdmittedJob, Wal, WalConfig, WalError};
use sortsvc::{RecoveredService, ServiceConfig, SortService};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};
use stream_arch::Value;

/// Serializes every test that arms the process-global fault plan.
fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sortsvc-durability-{tag}-{}-{}",
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

/// Deterministic per-job inputs with globally distinct keys (so the
/// sorted output is unique and "byte-identical" is meaningful): job `id`
/// gets keys drawn from `id*1000..id*1000+len`, order scrambled.
fn job_values(id: u64, len: usize) -> Vec<Value> {
    let mut values: Vec<Value> = (0..len)
        .map(|i| Value::new((id * 1000 + i as u64) as f32, i as u32))
        .collect();
    let mut state = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x2006;
    for i in (1..values.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        values.swap(i, (state % (i as u64 + 1)) as usize);
    }
    values
}

/// The exact bit pattern of a value sequence, for byte-identity asserts.
fn bits(values: &[Value]) -> Vec<(u32, u32)> {
    values.iter().map(|v| (v.key.to_bits(), v.id)).collect()
}

/// What an uninterrupted run must produce for `input`: ascending by key
/// (keys are distinct by construction, so this is total).
fn reference_sorted(input: &[Value]) -> Vec<Value> {
    let mut sorted = input.to_vec();
    sorted.sort_by(|a, b| a.key.partial_cmp(&b.key).unwrap());
    sorted
}

/// Ground truth the tests maintain while driving a WAL toward a crash:
/// which jobs are durably admitted and still unacknowledged, and what
/// their inputs were.
#[derive(Default)]
struct Tracker {
    inputs: BTreeMap<u64, Vec<Value>>,
    open: BTreeSet<u64>,
}

impl Tracker {
    /// Append an admission, folding the fault semantics into the
    /// bookkeeping: a torn admission ([`fault::FaultPoint::AdmitPrefix`])
    /// never becomes durable, a crash-after-write
    /// ([`fault::FaultPoint::AdmitFull`]) does.
    fn admit(&mut self, wal: &mut Wal, id: u64) -> Result<(), WalError> {
        let values = job_values(id, 48 + (id as usize * 37) % 150);
        let result = wal.append_admitted(&AdmittedJob {
            job_id: id,
            tenant: (id % 3) as u32,
            arrival_ms: id as f64,
            hint: None,
            values: values.clone(),
        });
        let durable = match &result {
            Ok(()) => true,
            Err(WalError::Injected(fault::FaultPoint::AdmitFull)) => true,
            Err(_) => false,
        };
        if durable {
            self.inputs.insert(id, values);
            self.open.insert(id);
        }
        result
    }

    /// Append a completion, with the same durable-or-not folding: a torn
    /// ack leaves the job open, a crash after the ack (or during the
    /// compaction it triggered) closes it.
    fn ack(&mut self, wal: &mut Wal, id: u64) -> Result<(), WalError> {
        let result = wal.append_completed(id);
        let durable = match &result {
            Ok(()) => true,
            Err(WalError::Injected(fault::FaultPoint::AckFull))
            | Err(WalError::Injected(fault::FaultPoint::CompactUnlink)) => true,
            Err(_) => false,
        };
        if durable {
            self.open.remove(&id);
        }
        result
    }
}

/// Recover `dir` and assert the full contract against `tracker`: exactly
/// the open jobs replay, every replayed output is byte-identical to the
/// uninterrupted reference, and a second recovery finds a converged log.
fn assert_recovery_matches(
    service: &SortService,
    dir: &Path,
    config: WalConfig,
    tracker: &Tracker,
    context: &str,
) {
    let RecoveredService { report, wal, stats } =
        service.recover(dir, config.clone()).unwrap_or_else(|e| {
            panic!("{context}: recovery failed: {e}");
        });
    assert_eq!(
        stats.recovered_jobs,
        tracker.open.len() as u64,
        "{context}: wrong replay count"
    );
    assert_eq!(
        report.metrics.recovered_jobs, stats.recovered_jobs,
        "{context}"
    );
    let replayed: BTreeSet<u64> = report.results.iter().map(|r| r.id).collect();
    assert!(
        report.rejected.is_empty(),
        "{context}: replay rejected jobs"
    );
    assert_eq!(replayed, tracker.open, "{context}: wrong replayed set");
    for result in &report.results {
        let input = &tracker.inputs[&result.id];
        assert_eq!(
            bits(&result.output),
            bits(&reference_sorted(input)),
            "{context}: job {} output diverged from the uninterrupted run",
            result.id
        );
    }
    drop(wal);

    // Crash-loop convergence: recovery acked everything it replayed, so
    // a second process life starts clean.
    let again = service.recover(dir, config).unwrap();
    assert_eq!(again.stats.recovered_jobs, 0, "{context}: did not converge");
    assert!(again.report.results.is_empty(), "{context}: replayed twice");
}

/// Shared service for the in-process tests (policy calibration is the
/// expensive part of construction; one instance serves every recovery).
fn service() -> &'static SortService {
    static SERVICE: OnceLock<SortService> = OnceLock::new();
    SERVICE.get_or_init(|| SortService::new(ServiceConfig::default()))
}

#[test]
fn a_simulated_crash_at_every_fault_point_recovers_every_unacked_job() {
    let _guard = fault_lock();
    use fault::FaultPoint::*;
    // (point, occurrences to let pass) — each chosen so the fault fires
    // mid-workload with a mix of acked and open jobs on both sides.
    for (point, after) in [
        (AdmitPrefix, 5),
        (AdmitFull, 5),
        (AckPrefix, 2),
        (AckFull, 2),
    ] {
        let tmp = TempDir::new("sweep");
        let config = WalConfig::default();
        let mut wal = Wal::open(tmp.path(), config.clone()).unwrap().wal;
        fault::arm(fault::FaultPlan {
            point,
            after,
            mode: fault::FaultMode::Stop,
            marker: None,
        });

        let mut tracker = Tracker::default();
        let crashed = 'crash: {
            for id in 0..12u64 {
                if tracker.admit(&mut wal, id).is_err() {
                    break 'crash true;
                }
                if id % 3 == 0 && tracker.ack(&mut wal, id).is_err() {
                    break 'crash true;
                }
            }
            false
        };
        assert!(crashed, "{point:?}: fault never fired");
        fault::disarm();
        drop(wal); // the process life that crashed abandons its handle

        assert_recovery_matches(
            service(),
            tmp.path(),
            config,
            &tracker,
            &format!("{point:?} after {after}"),
        );
    }
}

#[test]
fn a_crash_during_compaction_leaves_a_recoverable_partially_compacted_log() {
    let _guard = fault_lock();
    let tmp = TempDir::new("compact");
    // Tiny segments so acking the early jobs makes sealed segments
    // deletable while later jobs are still open.
    let config = WalConfig {
        segment_max_bytes: 400,
        ..WalConfig::default()
    };
    let mut wal = Wal::open(tmp.path(), config.clone()).unwrap().wal;
    let mut tracker = Tracker::default();
    for id in 0..10u64 {
        tracker.admit(&mut wal, id).unwrap();
    }
    assert!(wal.segment_count() > 2, "workload must span segments");

    fault::arm(fault::FaultPlan {
        point: fault::FaultPoint::CompactUnlink,
        after: 0,
        mode: fault::FaultMode::Stop,
        marker: None,
    });
    let mut crashed = false;
    for id in 0..8u64 {
        if tracker.ack(&mut wal, id).is_err() {
            crashed = true;
            break;
        }
    }
    assert!(crashed, "compaction fault never fired");
    fault::disarm();
    drop(wal);

    // The log now mixes sealed segments that were about to be deleted
    // (all-acked), stray acks, and open jobs; recovery must take it all
    // in stride.
    assert_recovery_matches(service(), tmp.path(), config, &tracker, "compact-unlink");
}

fn durable_server_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        durability_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

#[test]
fn a_drained_server_leaves_nothing_to_recover() {
    let tmp = TempDir::new("drain");
    let server = SortServer::start("127.0.0.1:0", durable_server_config(tmp.path())).unwrap();
    let mut client = SortClient::connect(server.local_addr()).unwrap();
    let tickets: Vec<_> = (0..6u64)
        .map(|id| client.submit(job_values(id, 200)).unwrap())
        .collect();
    client.flush().unwrap();
    for ticket in tickets {
        let reply = ticket.wait_timeout(Duration::from_secs(30)).unwrap();
        assert!(reply.sorted().is_some(), "job rejected under no load");
    }

    let stats = server.drain();
    assert_eq!(stats.service.jobs_completed, 6);
    assert_eq!(stats.service.recovered_jobs, 0);

    // The clean-handoff half of the contract: every answered job has its
    // acknowledgement on disk, so the next life replays nothing.
    let recovered = service().recover(tmp.path(), WalConfig::default()).unwrap();
    assert_eq!(recovered.stats.recovered_jobs, 0);
    assert!(recovered.report.results.is_empty());
}

#[test]
fn a_crashed_server_is_replayed_by_its_successor_with_zero_acknowledged_loss() {
    let _guard = fault_lock();
    let tmp = TempDir::new("restart");
    let first = SortServer::start("127.0.0.1:0", durable_server_config(tmp.path())).unwrap();
    let mut client = RetryingClient::connect(first.local_addr()).unwrap();

    // Normal traffic: every answer the client gets is correct.
    for id in 0..3u64 {
        let input = job_values(id, 300);
        let sorted = client.sort(input.clone()).unwrap();
        assert_eq!(bits(&sorted), bits(&reference_sorted(&input)));
    }

    // The crash: the next job's acknowledgement append tears. The client
    // still gets its RESULT (replies go out before acks are logged), but
    // the log keeps the job open — exactly the at-least-once window.
    fault::arm(fault::FaultPlan {
        point: fault::FaultPoint::AckPrefix,
        after: 0,
        mode: fault::FaultMode::Stop,
        marker: None,
    });
    let input = job_values(99, 300);
    let sorted = client.sort(input.clone()).unwrap();
    assert_eq!(bits(&sorted), bits(&reference_sorted(&input)));
    drop(first); // joins the dispatcher, so the ack append (and its fault) ran
    fault::disarm();

    // The successor replays the open job before accepting traffic…
    let second = SortServer::start("127.0.0.1:0", durable_server_config(tmp.path())).unwrap();
    let stats = second.stats();
    assert_eq!(
        stats.service.recovered_jobs, 1,
        "the unacked job must replay"
    );
    assert!(stats.service.replayed_bytes > 0);
    assert!(
        stats.service.jobs_completed >= 1,
        "the replayed job must finish"
    );
    assert_eq!(
        stats.micro_batches, 0,
        "the startup replay is not a dispatcher micro-batch"
    );

    // …and serves new work as usual.
    let mut client = RetryingClient::connect(second.local_addr()).unwrap();
    let input = job_values(100, 300);
    let sorted = client.sort(input.clone()).unwrap();
    assert_eq!(bits(&sorted), bits(&reference_sorted(&input)));
    assert_eq!(second.drain().service.recovered_jobs, 1);
}

#[test]
fn a_retrying_client_rides_a_drain_onto_the_sibling_server() {
    let primary = SortServer::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let sibling = SortServer::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addrs = [primary.local_addr(), sibling.local_addr()];
    let mut client = RetryingClient::connect(&addrs[..]).unwrap();

    let input = job_values(1, 250);
    let sorted = client.sort(input.clone()).unwrap();
    assert_eq!(bits(&sorted), bits(&reference_sorted(&input)));

    // Drain the server the client is talking to: it says GOODBYE and the
    // connection dies. The client's failure loop must reconnect (rotating
    // to the sibling) and resubmit without the caller noticing.
    primary.drain();
    let input = job_values(2, 250);
    let sorted = client.sort(input.clone()).unwrap();
    assert_eq!(bits(&sorted), bits(&reference_sorted(&input)));
    let stats = client.stats();
    assert!(
        stats.reconnects >= 1 || stats.rejects_retried >= 1,
        "failover must have gone through the retry loop: {stats:?}"
    );
    sibling.shutdown();
}

/// Environment variable carrying the child's WAL directory in the
/// `kill -9` test. Unset (the normal case) makes the child helper a
/// no-op.
const CHILD_DIR_ENV: &str = "SORTSVC_DURABILITY_CHILD_DIR";

/// How many admissions the child's armed fault lets pass before stalling
/// (see [`kill_minus_nine_mid_append_then_restart_replays_exactly_the_unacked_jobs`]).
const CHILD_STALL_AFTER: u64 = 7;

/// Helper, not a test: the process the `kill -9` test SIGKILLs. It
/// appends the deterministic workload until the env-armed fault stalls it
/// mid-record. Only runs when spawned by the parent (env var set).
#[test]
#[ignore = "subprocess helper for the kill -9 test"]
fn child_wal_writer() {
    let Ok(dir) = std::env::var(CHILD_DIR_ENV) else {
        return;
    };
    fault::arm_from_env();
    let mut wal = Wal::open(&dir, WalConfig::default()).unwrap().wal;
    let mut tracker = Tracker::default();
    for id in 0.. {
        // The armed stall never returns from inside the append, so the
        // loop needs no exit of its own; unwrap keeps real errors loud.
        tracker.admit(&mut wal, id).unwrap();
        if id % 2 == 0 {
            tracker.ack(&mut wal, id).unwrap();
        }
    }
}

#[test]
fn kill_minus_nine_mid_append_then_restart_replays_exactly_the_unacked_jobs() {
    let tmp = TempDir::new("kill9");
    let marker = tmp.path().join("stalled");

    // Re-exec this test binary, filtered down to the (ignored) child
    // helper, with a stall fault armed via the environment: the child
    // writes `marker` and hangs *mid-record inside an admission append*,
    // and we SIGKILL it right there — a genuine torn write by a genuine
    // dead process.
    let mut child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "--ignored", "--nocapture", "child_wal_writer"])
        .env(CHILD_DIR_ENV, tmp.path())
        .env(
            fault::FAULT_ENV,
            format!(
                "admit-prefix:{CHILD_STALL_AFTER}:stall:{}",
                marker.display()
            ),
        )
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(60);
    while !marker.exists() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("child never reached the stall point");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().unwrap(); // SIGKILL: no destructors, no flushes
    child.wait().unwrap();

    // Reconstruct the child's ground truth: admissions 0..CHILD_STALL_AFTER
    // are durable (the one *at* the stall is the torn half-record), even
    // ids were acked.
    let mut expected = Tracker::default();
    for id in 0..CHILD_STALL_AFTER {
        expected
            .inputs
            .insert(id, job_values(id, 48 + (id as usize * 37) % 150));
        if id % 2 != 0 {
            expected.open.insert(id);
        }
    }

    let recovered = service().recover(tmp.path(), WalConfig::default()).unwrap();
    assert!(
        recovered.stats.torn_tail_truncated > 0,
        "the kill left a half-written record that must be truncated"
    );
    let replayed: BTreeSet<u64> = recovered.report.results.iter().map(|r| r.id).collect();
    assert_eq!(replayed, expected.open, "wrong set of jobs replayed");
    assert!(recovered.report.rejected.is_empty());
    for result in &recovered.report.results {
        let input = &expected.inputs[&result.id];
        assert_eq!(
            bits(&result.output),
            bits(&reference_sorted(input)),
            "job {} output diverged after the kill",
            result.id
        );
    }
    drop(recovered);

    // Convergence survives a real kill too.
    let again = service().recover(tmp.path(), WalConfig::default()).unwrap();
    assert_eq!(again.stats.recovered_jobs, 0);
    assert_eq!(again.stats.torn_tail_truncated, 0);
}
