//! Telemetry: structured tracing spans and mergeable streaming histograms.
//!
//! Two independent facilities live here, both designed to cost nothing
//! when unused:
//!
//! * **Tracing** — a process-wide [`TraceSink`] collecting [`TraceEvent`]
//!   spans from per-thread buffers. Recording is gated on one relaxed
//!   [`AtomicBool`] load ([`enabled`]); with the sink disabled the hot
//!   paths (notably [`crate::StreamProcessor::launch_wide`]) pay exactly that
//!   one branch and allocate nothing. Collected spans export as Chrome
//!   `trace_event` JSON ([`chrome_trace_json`]) loadable in Perfetto or
//!   `chrome://tracing`.
//! * **Histograms** — [`LogHistogram`], an HDR-style log-bucketed
//!   streaming histogram: constant memory per distinct magnitude,
//!   mergeable across threads/runs, with deterministic nearest-rank
//!   quantiles within a guaranteed relative error bound. These replace
//!   sort-the-whole-vector percentile computation in the service metrics.
//!
//! ## Span taxonomy
//!
//! Spans live on two synthetic "processes" so wall-clock executor
//! activity and the simulated service timeline stay separable in the
//! viewer (see `docs/OBSERVABILITY.md` for the full taxonomy):
//!
//! | pid | tid | cat | what |
//! |---|---|---|---|
//! | [`SIM_PID`] | slot | `batch` | one coalesced batch occupying a device slot |
//! | [`SIM_PID`] | per-job | `job` / `queue` / `execute` | one job's span tree |
//! | [`HOST_PID`] | per-thread | `launch` | one stream-operation launch |
//! | [`HOST_PID`] | per-thread | `wire` / `service` | net-server decode, micro-batch, reply spans |
//!
//! ## Example
//!
//! ```
//! use stream_arch::telemetry::{self, TraceSink};
//!
//! TraceSink::global().set_enabled(true);
//! {
//!     let _span = telemetry::host_span("demo", "outer-work");
//!     // ... traced work ...
//! }
//! TraceSink::global().set_enabled(false);
//!
//! let events = TraceSink::global().take_events();
//! assert!(events.iter().any(|e| e.name == "outer-work"));
//! let json = telemetry::chrome_trace_json(&events);
//! assert!(json.contains("\"traceEvents\""));
//! ```

use parking_lot::Mutex;
use serde::Serializer;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Streaming histogram
// ---------------------------------------------------------------------------

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets. 32 sub-buckets bound the quantile
/// relative error by `2^-(SUB_BITS+1)` = 1/64 ≈ 1.6%.
const SUB_BITS: u32 = 5;

/// A mergeable, log-bucketed (HDR-style) streaming histogram for
/// non-negative `f64` samples (milliseconds, in this workspace).
///
/// Buckets are derived from the sample's floating-point representation:
/// the 11 exponent bits plus the top `SUB_BITS` mantissa bits form the
/// bucket index, so each power-of-two octave carries 32 linear
/// sub-buckets. A quantile reports the midpoint of the bucket holding the
/// nearest-rank sample, clamped into `[min, max]` — deterministic, within
/// **1/64 relative error** of the exact sorted-vector percentile, and
/// exact for 0- and 1-sample histograms.
///
/// Out-of-domain samples are clamped, never dropped: NaN and negative
/// values count as `0.0`, `+∞` as [`f64::MAX`].
///
/// ```
/// use stream_arch::telemetry::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in [0.25, 1.0, 2.0, 4.0, 100.0] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!((h.quantile(0.5) - 2.0).abs() / 2.0 <= 1.0 / 64.0);
/// assert_eq!(h.quantile(1.0), 100.0); // max is tracked exactly
///
/// // Histograms merge bucket-wise: h ∪ g ≡ recording every sample into one.
/// let mut g = LogHistogram::new();
/// g.record(8.0);
/// h.merge(&g);
/// assert_eq!(h.count(), 6);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LogHistogram {
    /// Samples that clamped to exactly zero.
    zeros: u64,
    /// Sparse positive buckets: index → count.
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Clamp a sample into the recordable domain (see the type docs).
    fn clamp(v: f64) -> f64 {
        if v.is_nan() || v <= 0.0 {
            0.0
        } else if v == f64::INFINITY {
            f64::MAX
        } else {
            v
        }
    }

    /// Bucket index of a positive finite sample: exponent bits plus the
    /// top [`SUB_BITS`] mantissa bits.
    fn index(v: f64) -> u32 {
        (v.to_bits() >> (52 - SUB_BITS)) as u32
    }

    /// `[lo, hi)` bounds of bucket `index` (inverse of [`Self::index`]).
    fn bounds(index: u32) -> (f64, f64) {
        let lo = f64::from_bits((index as u64) << (52 - SUB_BITS));
        let hi = f64::from_bits(((index as u64) + 1) << (52 - SUB_BITS));
        (lo, hi)
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        let v = Self::clamp(v);
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        if v == 0.0 {
            self.zeros += 1;
        } else {
            *self.buckets.entry(Self::index(v)).or_insert(0) += 1;
        }
    }

    /// Fold `other` into `self` bucket-wise. Merging is associative and
    /// commutative: any merge tree over the same samples yields the same
    /// histogram.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.zeros += other.zeros;
        self.count += other.count;
        self.sum += other.sum;
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the (clamped) samples — exact, not bucketed.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean of the samples; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample seen (exact); `0.0` when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample seen (exact); `0.0` when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`; `0.0` when empty.
    ///
    /// Uses the nearest-rank convention of an exact percentile over the
    /// sorted samples (rank `⌈q·n⌉`, clamped to `[1, n]`): the value
    /// reported is the midpoint of the bucket containing the `⌈q·n⌉`-th
    /// smallest sample, clamped into `[min, max]`. Monotone in `q`, so
    /// `p99 ≥ p50` always holds.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank <= self.zeros {
            return 0.0;
        }
        let mut seen = self.zeros;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let (lo, hi) = Self::bounds(idx);
                let mid = lo + (hi - lo) * 0.5;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The fixed summary used in reports and the `STATS` wire snapshot.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean_ms: self.mean(),
            p50_ms: self.quantile(0.5),
            p90_ms: self.quantile(0.9),
            p99_ms: self.quantile(0.99),
            max_ms: self.max(),
        }
    }
}

/// A fixed-size quantile summary of one [`LogHistogram`], embedded in
/// `ServiceMetrics` and the `STATS` wire snapshot.
#[derive(Copy, Clone, Debug, Default, PartialEq, serde::Serialize)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact mean (ms).
    pub mean_ms: f64,
    /// Median (ms), within 1/64 relative error.
    pub p50_ms: f64,
    /// 90th percentile (ms), within 1/64 relative error.
    pub p90_ms: f64,
    /// 99th percentile (ms), within 1/64 relative error.
    pub p99_ms: f64,
    /// Exact largest sample (ms).
    pub max_ms: f64,
}

// ---------------------------------------------------------------------------
// Trace sink
// ---------------------------------------------------------------------------

/// Synthetic Chrome-trace process id for spans on the *simulated*
/// timeline (service batches and job span trees; timestamps are simulated
/// milliseconds × 1000).
pub const SIM_PID: u32 = 1;

/// Synthetic Chrome-trace process id for spans on the *host wall-clock*
/// timeline (executor launches, net-server stages;
/// timestamps are microseconds since the sink epoch).
pub const HOST_PID: u32 = 2;

/// One complete span. The Chrome exporter turns each into a balanced
/// `"B"`/`"E"` event pair.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Synthetic process id ([`SIM_PID`] or [`HOST_PID`]).
    pub pid: u32,
    /// Track id within the pid (thread, device slot, or job).
    pub tid: u64,
    /// Span name, shown on the span.
    pub name: String,
    /// Span category (the taxonomy row; filterable in Perfetto).
    pub cat: &'static str,
    /// Span start, microseconds on the pid's timeline.
    pub ts_us: f64,
    /// Span duration in microseconds (≥ 0).
    pub dur_us: f64,
    /// Numeric span arguments, shown in the viewer's detail pane.
    pub args: Vec<(&'static str, f64)>,
}

/// Global-sink event cap: a backstop against unbounded memory if tracing
/// is left on for a very long run. Events beyond it are counted as
/// dropped, never silently lost.
const MAX_EVENTS: usize = 1 << 20;

/// Per-thread buffer size; a full buffer flushes into the global sink.
const FLUSH_AT: usize = 128;

static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// The process-wide trace collector.
///
/// Threads record spans into lock-free thread-local buffers; full buffers
/// (and exiting threads) drain into this sink, and
/// [`TraceSink::take_events`] collects everything for export. There is
/// exactly one sink per process ([`TraceSink::global`]).
///
/// ```
/// use stream_arch::telemetry::{self, TraceSink};
///
/// let sink = TraceSink::global();
/// sink.set_enabled(true);
/// drop(telemetry::host_span("example", "step").map(|s| s.arg("items", 3.0)));
/// sink.set_enabled(false);
/// let step = sink
///     .take_events()
///     .into_iter()
///     .find(|e| e.name == "step")
///     .expect("span recorded while enabled");
/// assert_eq!(step.args, vec![("items", 3.0)]);
/// ```
pub struct TraceSink {
    events: Mutex<Vec<TraceEvent>>,
    epoch: Instant,
}

impl TraceSink {
    /// The process-wide sink (created on first use; its creation instant
    /// is the zero point of the host-span timeline).
    pub fn global() -> &'static TraceSink {
        static SINK: OnceLock<TraceSink> = OnceLock::new();
        SINK.get_or_init(|| TraceSink {
            events: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        })
    }

    /// Turn recording on or off. Off is the default; while off, every
    /// instrumented hot path pays one relaxed atomic load and nothing
    /// else.
    pub fn set_enabled(&self, on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on (relaxed load — the hot-path gate).
    #[inline]
    pub fn enabled(&self) -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Flush the calling thread's buffer and drain every collected event.
    ///
    /// Live threads other than the caller may still hold sub-`FLUSH_AT`
    /// buffers; scoped worker threads flush on exit, so collect after the
    /// traced work has joined.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        flush_thread();
        std::mem::take(&mut *self.events.lock())
    }

    /// Events dropped at the `MAX_EVENTS` cap since process start.
    pub fn dropped(&self) -> u64 {
        DROPPED.load(Ordering::Relaxed)
    }

    /// Microseconds since the sink epoch, the host-span timeline.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn absorb(&self, batch: &mut Vec<TraceEvent>) {
        let mut events = self.events.lock();
        let room = MAX_EVENTS.saturating_sub(events.len());
        if batch.len() > room {
            DROPPED.fetch_add((batch.len() - room) as u64, Ordering::Relaxed);
            batch.truncate(room);
        }
        events.append(batch);
    }
}

/// Whether tracing is on — the one-branch gate every instrumentation
/// site checks first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct LocalBuf(Vec<TraceEvent>);

impl Drop for LocalBuf {
    fn drop(&mut self) {
        if !self.0.is_empty() {
            TraceSink::global().absorb(&mut self.0);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = const { RefCell::new(LocalBuf(Vec::new())) };
    static THREAD_TID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Push the calling thread's buffered events into the global sink now
/// (normally they drain when the buffer fills or the thread exits).
pub fn flush_thread() {
    let _ = LOCAL.try_with(|buf| {
        let mut buf = buf.borrow_mut();
        if !buf.0.is_empty() {
            TraceSink::global().absorb(&mut buf.0);
        }
    });
}

/// A small per-process id for the calling thread, used as the host-span
/// track id (stable for the thread's lifetime).
pub fn thread_tid() -> u64 {
    THREAD_TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

/// Record one complete span. No-op when tracing is off.
pub fn record(event: TraceEvent) {
    if !enabled() {
        return;
    }
    let mut event = Some(event);
    let _ = LOCAL.try_with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.0.push(event.take().expect("taken once"));
        if buf.0.len() >= FLUSH_AT {
            TraceSink::global().absorb(&mut buf.0);
        }
    });
    if let Some(event) = event {
        // Thread-local storage is gone (thread teardown): go direct.
        TraceSink::global().absorb(&mut vec![event]);
    }
}

/// Record a host-clock span that began at `started` and ends now, on the
/// calling thread's track. No-op when tracing is off (callers should
/// check [`enabled`] *before* taking the `Instant` to keep the off path
/// free).
pub fn record_host_span(
    cat: &'static str,
    name: &str,
    started: Instant,
    args: &[(&'static str, f64)],
) {
    if !enabled() {
        return;
    }
    let sink = TraceSink::global();
    let ts_us = started.duration_since(sink.epoch).as_secs_f64() * 1e6;
    record(TraceEvent {
        pid: HOST_PID,
        tid: thread_tid(),
        name: name.to_string(),
        cat,
        ts_us,
        dur_us: started.elapsed().as_secs_f64() * 1e6,
        args: args.to_vec(),
    });
}

/// An RAII host-clock span: records from creation to drop on the calling
/// thread's track. `None` when tracing is off, so the disabled cost is
/// the [`enabled`] branch alone.
#[must_use = "a span guard records when dropped; binding it to _ discards the span immediately"]
pub struct HostSpan {
    cat: &'static str,
    name: String,
    started: Instant,
    args: Vec<(&'static str, f64)>,
}

impl HostSpan {
    /// Attach one numeric argument (builder-style).
    pub fn arg(mut self, key: &'static str, value: f64) -> Self {
        self.args.push((key, value));
        self
    }
}

impl Drop for HostSpan {
    fn drop(&mut self) {
        record_host_span(self.cat, &self.name, self.started, &self.args);
    }
}

/// Open a host-clock span guard; see [`HostSpan`].
pub fn host_span(cat: &'static str, name: impl Into<String>) -> Option<HostSpan> {
    if !enabled() {
        return None;
    }
    Some(HostSpan {
        cat,
        name: name.into(),
        started: Instant::now(),
        args: Vec::new(),
    })
}

// ---------------------------------------------------------------------------
// Chrome trace_event export
// ---------------------------------------------------------------------------

/// Render spans as Chrome `trace_event` JSON (the `{"traceEvents": [...]}`
/// object form), loadable in Perfetto or `chrome://tracing`.
///
/// Every span becomes one `"ph": "B"` / `"ph": "E"` pair; pairs are
/// emitted per track in properly nested order (children close before
/// their parents), so begin/end events are balanced by construction. A
/// child span whose recorded end would overrun its parent (floating-point
/// rounding) is clamped to the parent's end.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    // Group span indices per (pid, tid) track.
    let mut tracks: BTreeMap<(u32, u64), Vec<usize>> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        tracks.entry((ev.pid, ev.tid)).or_default().push(i);
    }

    let mut s = Serializer::new();
    s.begin_object();
    s.key("traceEvents");
    s.begin_array();
    for indices in tracks.values_mut() {
        // Parents sort before their children: earlier start first, and at
        // equal starts the longer span first.
        indices.sort_by(|&a, &b| {
            events[a]
                .ts_us
                .total_cmp(&events[b].ts_us)
                .then(events[b].dur_us.total_cmp(&events[a].dur_us))
                .then(a.cmp(&b))
        });
        // Emit with an explicit open-span stack: before a span begins,
        // every already-open span that ended at or before its start is
        // closed (innermost first).
        let mut open: Vec<(f64, usize)> = Vec::new();
        for &i in indices.iter() {
            let ev = &events[i];
            while let Some(&(end_us, j)) = open.last() {
                if end_us <= ev.ts_us {
                    emit_end(&mut s, &events[j], end_us);
                    open.pop();
                } else {
                    break;
                }
            }
            let mut end_us = ev.ts_us + ev.dur_us.max(0.0);
            if let Some(&(parent_end, _)) = open.last() {
                end_us = end_us.min(parent_end);
            }
            emit_begin(&mut s, ev);
            open.push((end_us, i));
        }
        while let Some((end_us, j)) = open.pop() {
            emit_end(&mut s, &events[j], end_us);
        }
    }
    s.end_array();
    s.key("displayTimeUnit");
    s.string("ms");
    s.key("droppedEvents");
    s.unsigned(TraceSink::global().dropped() as u128);
    s.end_object();
    s.into_string()
}

fn emit_begin(s: &mut Serializer, ev: &TraceEvent) {
    s.elem(&RawSpanEvent {
        ev,
        phase: "B",
        ts_us: ev.ts_us,
        with_args: true,
    });
}

fn emit_end(s: &mut Serializer, ev: &TraceEvent, end_us: f64) {
    s.elem(&RawSpanEvent {
        ev,
        phase: "E",
        ts_us: end_us,
        with_args: false,
    });
}

/// One `"B"` or `"E"` record of the Chrome `trace_event` array.
struct RawSpanEvent<'a> {
    ev: &'a TraceEvent,
    phase: &'static str,
    ts_us: f64,
    with_args: bool,
}

impl serde::Serialize for RawSpanEvent<'_> {
    fn serialize(&self, s: &mut Serializer) {
        s.begin_object();
        s.key("name");
        s.string(&self.ev.name);
        s.key("cat");
        s.string(self.ev.cat);
        s.key("ph");
        s.string(self.phase);
        s.key("pid");
        s.unsigned(self.ev.pid as u128);
        s.key("tid");
        s.unsigned(self.ev.tid as u128);
        s.key("ts");
        s.float(self.ts_us);
        if self.with_args && !self.ev.args.is_empty() {
            s.key("args");
            s.begin_object();
            for (k, v) in &self.ev.args {
                s.key(k);
                s.float(*v);
            }
            s.end_object();
        }
        s.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank percentile over a sorted slice, the reference
    /// the histogram is checked against.
    fn exact_percentile(sorted: &[f64], q: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn histogram_edges_are_exact() {
        let empty = LogHistogram::new();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.quantile(0.5), 0.0);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.min(), 0.0);
        assert_eq!(empty.max(), 0.0);

        let mut one = LogHistogram::new();
        one.record(7.25);
        // One sample: every quantile is that sample, exactly (min/max
        // clamping collapses the bucket midpoint onto it).
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 7.25);
        }
        assert_eq!(one.mean(), 7.25);

        let mut zeros = LogHistogram::new();
        zeros.record(0.0);
        zeros.record(-3.0); // clamps to 0.0
        zeros.record(f64::NAN); // clamps to 0.0
        assert_eq!(zeros.count(), 3);
        assert_eq!(zeros.quantile(0.99), 0.0);
        assert_eq!(zeros.sum(), 0.0);
    }

    #[test]
    fn histogram_quantiles_track_exact_percentiles() {
        let mut h = LogHistogram::new();
        let mut samples: Vec<f64> = (1..=1000).map(|i| (i as f64) * 0.37).collect();
        for &v in &samples {
            h.record(v);
        }
        samples.sort_by(f64::total_cmp);
        for q in [0.01, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let exact = exact_percentile(&samples, q);
            let approx = h.quantile(q);
            assert!(
                (approx - exact).abs() <= exact / 64.0 + 1e-12,
                "q={q}: approx {approx} vs exact {exact}"
            );
        }
        assert!(h.quantile(0.99) >= h.quantile(0.5));
    }

    #[test]
    fn histogram_merge_equals_single_recording() {
        let (mut a, mut b, mut all) = (
            LogHistogram::new(),
            LogHistogram::new(),
            LogHistogram::new(),
        );
        for i in 0..100 {
            let v = (i as f64 * 1.7).sin().abs() * 50.0;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        TraceSink::global().set_enabled(false);
        assert!(host_span("test", "ignored").is_none());
        record(TraceEvent {
            pid: HOST_PID,
            tid: 1,
            name: "ignored".into(),
            cat: "test",
            ts_us: 0.0,
            dur_us: 1.0,
            args: Vec::new(),
        });
        let events = TraceSink::global().take_events();
        assert!(events.iter().all(|e| e.name != "ignored"));
    }

    #[test]
    fn chrome_export_emits_balanced_nested_pairs() {
        // A job-shaped tree: parent [0,10], queue [0,4], execute [4,10],
        // plus a zero-duration child — the rounding edge cases.
        let mk = |name: &str, ts: f64, dur: f64| TraceEvent {
            pid: SIM_PID,
            tid: 9,
            name: name.into(),
            cat: "test",
            ts_us: ts,
            dur_us: dur,
            args: vec![("tenant", 3.0)],
        };
        let events = vec![
            mk("job", 0.0, 10.0),
            mk("queue", 0.0, 4.0),
            mk("zero", 4.0, 0.0),
            mk("execute", 4.0, 10.0), // overruns parent: clamped to 10
        ];
        let json = chrome_trace_json(&events);
        assert_eq!(json.matches("\"ph\": \"B\"").count(), 4);
        assert_eq!(json.matches("\"ph\": \"E\"").count(), 4);
        // Nesting: job opens first, execute closes before job.
        let job_b = json.find("\"job\"").unwrap();
        let queue_b = json.find("\"queue\"").unwrap();
        assert!(job_b < queue_b, "parent must open before its child");
    }
}
