//! The per-access reference model of the texture cache, as a consumer of
//! a processor's raw fetch log.
//!
//! It probes the cache once per fetched element, through single
//! [`CacheSim::access`] calls, and charges a block fill per miss. The
//! engine's cost model coalesces the same fetches into per-tile runs; the
//! identity tests check that both give the same cache statistics,
//! `bytes_read` and simulated time.
//!
//! Shared by `stream-arch`'s own tests and the workspace identity and
//! acceptance suites, which include this file by path.

// Each test target uses its own subset of these helpers.
#![allow(dead_code)]

use std::sync::{Arc, Mutex};
use stream_arch::accounting::FetchChunk;
use stream_arch::{CacheConfig, CacheSim, Counters, GpuProfile, SimTime, StreamProcessor};

/// A texture cache driven one element at a time.
pub struct PerAccess {
    cache: CacheSim,
    bytes_read: u64,
}

impl PerAccess {
    /// An empty reference cache.
    pub fn new(config: CacheConfig) -> Self {
        PerAccess {
            cache: CacheSim::new(config),
            bytes_read: 0,
        }
    }

    /// Probe every element of every fetch of `chunk`, in record order.
    pub fn replay(&mut self, chunk: &FetchChunk) {
        let edge = self.cache.config().block_edge as u64;
        for fetch in chunk.fetches() {
            let stream = chunk.stream(fetch);
            for idx in fetch.indices() {
                let (x, y) = stream.layout.to_2d(idx);
                if !self.cache.access(stream.tag, x, y) {
                    self.bytes_read += edge * edge * stream.bytes as u64;
                }
            }
        }
    }

    /// Forget everything (the reference's side of a processor reset).
    pub fn reset(&mut self) {
        self.cache.reset();
        self.bytes_read = 0;
    }

    /// `counters` with the cache statistics and block-fill bytes replaced
    /// by the reference's.
    pub fn counters(&self, counters: &Counters) -> Counters {
        Counters {
            cache: *self.cache.stats(),
            bytes_read: self.bytes_read,
            ..*counters
        }
    }

    /// The simulated time of `counters` under the reference's cache.
    pub fn simulated_time(&self, profile: &GpuProfile, counters: &Counters) -> SimTime {
        profile.simulate(&self.counters(counters))
    }
}

/// A reference model fed by `proc`'s fetch log: every chunk the processor
/// hands off is replayed into it, on the engine thread, before the
/// processor's own cost model sees it.
pub fn attach(proc: &mut StreamProcessor) -> Arc<Mutex<PerAccess>> {
    let reference = Arc::new(Mutex::new(PerAccess::new(proc.profile().cache)));
    let fed = Arc::clone(&reference);
    proc.observe_fetches(Box::new(move |chunk: &FetchChunk| {
        fed.lock().unwrap().replay(chunk)
    }));
    reference
}
