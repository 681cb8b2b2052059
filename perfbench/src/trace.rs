//! The traced run's span log, kept in memory and written out at the end.
//!
//! Every call the benchmark makes into a layer is wrapped in a span named
//! `<layer>.<call>`, where the layer is the program module it enters. A
//! span records its start and end on the run's clock, its parent span and
//! the job it belongs to. A disabled log records nothing, so the untraced
//! phases run the same code with one branch per call.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;
use stream_arch::telemetry::{TraceEvent, HOST_PID};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// Index of the parent span in the same log.
    pub parent: Option<usize>,
    /// The job (or operation) the span belongs to.
    pub job: u64,
}

/// Handle of an open span; `None` when the log is disabled.
pub type SpanId = Option<usize>;

/// Self and total time of all spans with one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTime {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the part covered by child spans.
    pub self_ns: u64,
}

impl SpanTime {
    /// Mean self time per span, in milliseconds.
    pub fn mean_self_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// An append-only span log owned by one thread.
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log measuring from `epoch`; a disabled log records nothing.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        SpanLog {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that [`SpanLog::close`] ends.
    pub fn open(&mut self, name: &'static str, parent: SpanId, job: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            job,
        });
        Some(self.spans.len() - 1)
    }

    /// End a span opened by [`SpanLog::open`].
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        job: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, job);
        let out = f();
        self.close(id);
        out
    }

    /// Append another thread's log (same epoch), keeping parent links.
    pub fn absorb(&mut self, other: SpanLog) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Total and self time per span name. A span's self time is its
    /// duration minus the union of its children's intervals.
    pub fn times(&self) -> BTreeMap<&'static str, SpanTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SpanTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let total = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += total;
            t.self_ns += total.saturating_sub(covered);
        }
        out
    }

    /// Write the spans, then the program's own host spans, as JSON lines.
    pub fn write_jsonl(&self, path: &Path, program: &[TraceEvent]) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"job":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.job
            )?;
        }
        for e in program.iter().filter(|e| e.pid == HOST_PID) {
            writeln!(
                out,
                r#"{{"program":"{}/{}","tid":{},"ts_us":{},"dur_us":{}}}"#,
                e.cat,
                e.name.replace('"', "'"),
                e.tid,
                e.ts_us,
                e.dur_us
            )?;
        }
        out.flush()
    }
}

/// Count and total duration of the program's own host spans, per
/// `category/name`.
pub fn program_span_totals(events: &[TraceEvent]) -> BTreeMap<String, (u64, f64)> {
    let mut out: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for e in events.iter().filter(|e| e.pid == HOST_PID) {
        let t = out.entry(format!("{}/{}", e.cat, e.name)).or_default();
        t.0 += 1;
        t.1 += e.dur_us;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new(true, Instant::now());
        log.spans = vec![
            Span {
                name: "a.root",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                job: 0,
            },
            Span {
                name: "b.child",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                job: 0,
            },
            Span {
                name: "b.child",
                start_ns: 30,
                end_ns: 50,
                parent: Some(0),
                job: 0,
            },
        ];
        let t = log.times();
        assert_eq!(t["a.root"].self_ns, 60);
        assert_eq!(t["b.child"].count, 2);
        assert_eq!(t["b.child"].self_ns, 50);
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now());
        let id = log.open("a.x", None, 1);
        log.close(id);
        assert_eq!(log.time("a.y", id, 1, || 7), 7);
        assert!(log.times().is_empty());
    }
}
