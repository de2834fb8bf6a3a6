//! Store-layer probes: a [`CheckpointStore`] decorator that sits between
//! any two layers of a stack and counts (and, when traced, times) every
//! trait method.
//!
//! Self time is measured with a per-thread span stack: each timed call
//! opens a span, and on close adds its duration to the enclosing span's
//! child total. A layer's self time is its call's duration minus the
//! durations of the timed calls it made into the layer below, so across a
//! fully probed stack the self times sum exactly (in integer nanoseconds)
//! to the outermost layer's total. Calls that fan out to other threads
//! would break that identity; no store layer does so.

use mana_core::image::ImageBytes;
use mana_core::{CheckpointStore, StoreError};
use mana_sim::fs::IoShape;
use mana_sim::time::SimDuration;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// Child-time accumulators of the spans open on this thread.
    static SPANS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Counters of one store layer (shared by every probe with its name, e.g.
/// both replicas of a replicated tier).
#[derive(Debug, Default)]
pub struct LayerStats {
    /// Layer name (`fs`, `journal`, `replicated`, `tiered`, `compress`,
    /// `delta`).
    pub name: &'static str,
    put_ns: AtomicU64,
    get_ns: AtomicU64,
    epoch_ns: AtomicU64,
    remove_ns: AtomicU64,
    other_ns: AtomicU64,
    self_ns: AtomicU64,
    root_ns: AtomicU64,
    puts: AtomicU64,
    gets: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    get_errors: AtomicU64,
}

/// A point-in-time copy of [`LayerStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerSnapshot {
    /// Inclusive nanoseconds in `put`.
    pub put_ns: u64,
    /// Inclusive nanoseconds in `get`.
    pub get_ns: u64,
    /// Inclusive nanoseconds in `begin_epoch` (async drains run here).
    pub epoch_ns: u64,
    /// Inclusive nanoseconds in `remove` (delta GC promotes bases here).
    pub remove_ns: u64,
    /// Inclusive nanoseconds in `exists`, `logical_len` and `list`.
    pub other_ns: u64,
    /// Nanoseconds in this layer minus its timed children.
    pub self_ns: u64,
    /// Nanoseconds of calls that entered the stack at this layer (no
    /// timed caller on the thread).
    pub root_ns: u64,
    /// `put` calls.
    pub puts: u64,
    /// `get` calls.
    pub gets: u64,
    /// Bytes handed to `put`.
    pub bytes_in: u64,
    /// Bytes returned by successful `get`s.
    pub bytes_out: u64,
    /// `get` calls that returned an error.
    pub get_errors: u64,
}

impl LayerSnapshot {
    /// Inclusive nanoseconds over every trait method.
    pub fn total_ns(&self) -> u64 {
        self.put_ns + self.get_ns + self.epoch_ns + self.remove_ns + self.other_ns
    }
}

impl LayerStats {
    /// Fresh counters for layer `name`.
    pub fn new(name: &'static str) -> Arc<LayerStats> {
        Arc::new(LayerStats {
            name,
            ..LayerStats::default()
        })
    }

    /// Copy the counters.
    pub fn snapshot(&self) -> LayerSnapshot {
        let r = |a: &AtomicU64| a.load(Ordering::Relaxed);
        LayerSnapshot {
            put_ns: r(&self.put_ns),
            get_ns: r(&self.get_ns),
            epoch_ns: r(&self.epoch_ns),
            remove_ns: r(&self.remove_ns),
            other_ns: r(&self.other_ns),
            self_ns: r(&self.self_ns),
            root_ns: r(&self.root_ns),
            puts: r(&self.puts),
            gets: r(&self.gets),
            bytes_in: r(&self.bytes_in),
            bytes_out: r(&self.bytes_out),
            get_errors: r(&self.get_errors),
        }
    }
}

fn bump(a: &AtomicU64, by: u64) {
    a.fetch_add(by, Ordering::Relaxed);
}

/// Decorator counting (and optionally timing) calls into `inner`.
pub struct Probe<S> {
    inner: S,
    stats: Arc<LayerStats>,
    timed: bool,
}

impl<S: CheckpointStore> Probe<S> {
    /// Count and time every call.
    pub fn timed(inner: S, stats: Arc<LayerStats>) -> Probe<S> {
        Probe {
            inner,
            stats,
            timed: true,
        }
    }

    /// Count calls and bytes only (no clock reads): the untraced run's
    /// outermost layer, which feeds the failed-operation count.
    pub fn counting(inner: S, stats: Arc<LayerStats>) -> Probe<S> {
        Probe {
            inner,
            stats,
            timed: false,
        }
    }

    fn span<R>(&self, slot: &AtomicU64, f: impl FnOnce(&S) -> R) -> R {
        if !self.timed {
            return f(&self.inner);
        }
        SPANS.with(|s| s.borrow_mut().push(0));
        let t0 = Instant::now();
        let out = f(&self.inner);
        let ns = t0.elapsed().as_nanos() as u64;
        let (child, root) = SPANS.with(|s| {
            let mut s = s.borrow_mut();
            let child = s.pop().expect("span stack underflow");
            match s.last_mut() {
                Some(parent) => {
                    *parent += ns;
                    (child, false)
                }
                None => (child, true),
            }
        });
        bump(slot, ns);
        bump(&self.stats.self_ns, ns - child);
        if root {
            bump(&self.stats.root_ns, ns);
        }
        out
    }
}

impl<S: CheckpointStore> CheckpointStore for Probe<S> {
    fn put(
        &self,
        path: &str,
        data: ImageBytes,
        logical_len: u64,
        rank: u64,
        shape: IoShape,
    ) -> SimDuration {
        bump(&self.stats.puts, 1);
        bump(&self.stats.bytes_in, data.len() as u64);
        self.span(&self.stats.put_ns, |s| {
            s.put(path, data, logical_len, rank, shape)
        })
    }

    fn get(
        &self,
        path: &str,
        rank: u64,
        shape: IoShape,
    ) -> Result<(ImageBytes, SimDuration), StoreError> {
        bump(&self.stats.gets, 1);
        let out = self.span(&self.stats.get_ns, |s| s.get(path, rank, shape));
        match &out {
            Ok((bytes, _)) => bump(&self.stats.bytes_out, bytes.len() as u64),
            Err(_) => bump(&self.stats.get_errors, 1),
        }
        out
    }

    fn begin_epoch(&self) {
        self.span(&self.stats.epoch_ns, |s| s.begin_epoch())
    }

    fn exists(&self, path: &str) -> bool {
        self.span(&self.stats.other_ns, |s| s.exists(path))
    }

    fn logical_len(&self, path: &str) -> Result<u64, StoreError> {
        self.span(&self.stats.other_ns, |s| s.logical_len(path))
    }

    fn remove(&self, path: &str) -> bool {
        self.span(&self.stats.remove_ns, |s| s.remove(path))
    }

    fn list(&self) -> Vec<String> {
        self.span(&self.stats.other_ns, |s| s.list())
    }
}
