//! Bindings remember their stream's slot in the recorder's stream table.
//! Whatever the interleaving of reads and gathers, bindings and
//! processors, the chunks a processor hands to its observer must equal
//! those of a recorder that searches the table for every fetch.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use stream_arch::accounting::{Fetch, FetchChunk, FetchStream};
use stream_arch::{
    GatherView, GpuProfile, Input, LaunchCtx, LaunchShape, Layout, Stream, StreamElement,
    StreamProcessor,
};

/// Fetches per chunk (the [`FetchChunk`] size).
const CHUNK_FETCHES: usize = 4096;

/// A chunk as the test compares it: its fetches and its stream table.
type Chunk = (Vec<Fetch>, Vec<FetchStream>);

/// What one operation records on its processor.
enum Event {
    Fetch(FetchStream, u32, u32),
    Drain,
}

/// The recorder without a memo: the table is searched for every fetch.
/// As in the recorder, a fetch's stream gets its slot before a full chunk
/// is handed off, and again in the next chunk's table.
fn searched_chunks(events: &[Event]) -> Vec<Chunk> {
    let mut chunks = Vec::new();
    let (mut fetches, mut streams): Chunk = Default::default();
    for event in events {
        match *event {
            Event::Drain => {
                if !fetches.is_empty() {
                    chunks.push((std::mem::take(&mut fetches), std::mem::take(&mut streams)));
                }
            }
            Event::Fetch(_, _, 0) => {}
            Event::Fetch(stream, first, count) => {
                let mut slot = slot_of(&mut streams, stream);
                if let Some(last) = fetches.last_mut() {
                    if last.slot == slot && last.first + last.count == first {
                        last.count += count;
                        continue;
                    }
                }
                if fetches.len() == CHUNK_FETCHES {
                    chunks.push((std::mem::take(&mut fetches), std::mem::take(&mut streams)));
                    slot = slot_of(&mut streams, stream);
                }
                fetches.push(Fetch { first, count, slot });
            }
        }
    }
    if !fetches.is_empty() {
        chunks.push((fetches, streams));
    }
    chunks
}

/// The slot of `stream` in `streams`, added if new.
fn slot_of(streams: &mut Vec<FetchStream>, stream: FetchStream) -> u32 {
    match streams.iter().position(|s| *s == stream) {
        Some(slot) => slot as u32,
        None => {
            streams.push(stream);
            streams.len() as u32 - 1
        }
    }
}

/// The cache identity of `stream`, as the recorder sees it.
fn fetch_stream<T: StreamElement>(stream: &Stream<T>) -> FetchStream {
    FetchStream {
        tag: stream.cache_tag(),
        layout: stream.layout(),
        bytes: T::BYTES as u32,
    }
}

/// A small deterministic generator (xorshift64*).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// One launch of one instance on `proc`.
fn launch(proc: &mut StreamProcessor, body: impl FnOnce(&mut LaunchCtx<'_>)) {
    proc.launch_wide("memo-probe", LaunchShape::new(1), body)
        .expect("in-bounds launch");
}

fn observer(seen: &Arc<Mutex<Vec<Chunk>>>) -> stream_arch::accounting::FetchObserver {
    let seen = Arc::clone(seen);
    Box::new(move |chunk: &FetchChunk| {
        seen.lock()
            .unwrap()
            .push((chunk.fetches().to_vec(), chunk.streams().to_vec()))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn memoised_slots_log_what_a_table_search_logs(
        seed in 1u64..u64::MAX,
        ops in 20000usize..26000,
        switch in (0usize..3000, 0usize..3000),
        drains in proptest::collection::vec((0usize..26000, 0usize..2), 0..4),
    ) {
        const LEN: usize = 1 << 12;
        // "trees" under two layouts: one tag, two cache identities.
        let keys = Stream::from_vec("keys", (0..LEN as u32).collect(), Layout::Linear);
        let trees_z = Stream::from_vec("trees", (0..LEN as u64).collect(), Layout::ZOrder);
        let trees_r = Stream::from_vec(
            "trees",
            (0..LEN as u64).collect(),
            Layout::RowMajor { width: 64 },
        );
        let read_keys = Input::new(&keys, 0, LEN).unwrap();
        let read_trees = Input::new(&trees_z, LEN / 2, LEN / 2).unwrap();
        let gather_keys = GatherView::new(&keys);
        let gather_z = GatherView::new(&trees_z);
        let gather_r = GatherView::new(&trees_r);

        let mut procs = [
            StreamProcessor::new(GpuProfile::geforce_7800()),
            StreamProcessor::new(GpuProfile::geforce_7800()),
        ];
        let seen = [Arc::new(Mutex::new(Vec::new())), Arc::new(Mutex::new(Vec::new()))];
        let mut events: [Vec<Event>; 2] = [Vec::new(), Vec::new()];
        let switch = [switch.0, switch.1];
        let mut rng = Rng(seed);
        for op in 0..ops {
            for p in 0..2 {
                if op == switch[p] {
                    procs[p].observe_fetches(observer(&seen[p]));
                }
            }
            // A drain point hands the partial chunk off.
            for &(_, p) in drains.iter().filter(|&&(at, _)| at == op) {
                procs[p].counters();
                if op >= switch[p] {
                    events[p].push(Event::Drain);
                }
            }
            let p = rng.below(2) as usize;
            let proc = &mut procs[p];
            // Runs of neighbouring indices merge; scattered ones fill chunks.
            let at = |rng: &mut Rng, len: usize| {
                if rng.below(4) == 0 {
                    rng.below(8) as usize
                } else {
                    rng.below(len as u64) as usize
                }
            };
            let event = match rng.below(6) {
                0 => {
                    let pos = at(&mut rng, LEN - 8);
                    let count = rng.below(4) as usize;
                    launch(proc, |ctx| {
                        let _ = ctx.read(&read_keys, pos, count);
                    });
                    Event::Fetch(fetch_stream(&keys), pos as u32, count as u32)
                }
                1 => {
                    let pos = at(&mut rng, LEN / 2 - 8);
                    launch(proc, |ctx| {
                        let _ = ctx.read(&read_trees, pos, 1);
                    });
                    Event::Fetch(fetch_stream(&trees_z), (LEN / 2 + pos) as u32, 1)
                }
                2 => {
                    let index = at(&mut rng, LEN);
                    launch(proc, |ctx| {
                        let _ = ctx.gather(&gather_keys, index);
                    });
                    Event::Fetch(fetch_stream(&keys), index as u32, 1)
                }
                3 => {
                    let index = at(&mut rng, LEN);
                    launch(proc, |ctx| {
                        let _ = ctx.gather(&gather_z, index);
                    });
                    Event::Fetch(fetch_stream(&trees_z), index as u32, 1)
                }
                4 => {
                    let index = at(&mut rng, LEN);
                    launch(proc, |ctx| {
                        let _ = ctx.gather(&gather_r, index);
                    });
                    Event::Fetch(fetch_stream(&trees_r), index as u32, 1)
                }
                _ => {
                    let start = at(&mut rng, LEN - 16);
                    let mut out = [0u64; 5];
                    launch(proc, |ctx| ctx.gather_range(&gather_r, start, &mut out));
                    Event::Fetch(fetch_stream(&trees_r), start as u32, 5)
                }
            };
            if op >= switch[p] {
                events[p].push(event);
            }
        }
        for p in 0..2 {
            procs[p].counters();
            events[p].push(Event::Drain);
            let observed = seen[p].lock().unwrap();
            let expected = searched_chunks(&events[p]);
            prop_assert!(
                expected.iter().any(|(fetches, _)| fetches.len() == CHUNK_FETCHES),
                "processor {} filled no chunk",
                p
            );
            prop_assert_eq!(&*observed, &expected);
        }
    }
}
