//! Cross-rank checkpoint worker pool: snapshot → encode → digest/put
//! pipelining.
//!
//! Inside the discrete-event simulation every rank's helper runs on one
//! green scheduler thread, so the *simulated* checkpoint overlap is
//! modeled in virtual time. This module is the real-concurrency
//! counterpart for harnesses that drain a batch of rank snapshots outside
//! the simulation — the figure benches and property tests: OS worker
//! threads of [`mana_sim::pool::ordered_par_map`] build and encode rank
//! images while the calling thread commits the ranks that finished
//! earlier, so rank `r+1` snapshots while `r` encodes and `r−1` is being
//! digested and written by the store stack.
//!
//! Determinism: worker scheduling decides only *which thread* builds a
//! rank. Every built image is committed to the store strictly in
//! ascending job order on the calling thread, so stored bytes, store-side
//! state evolution (tier eviction, delta chains, dedup refcounts) and the
//! returned [`RankCkptStats`] are identical to the serial path
//! (`workers <= 1`) — proven byte-for-byte by property test
//! (`tests/properties.rs`).
//!
//! Zero-copy discipline: images are encoded with
//! [`CheckpointImage::encode_shared`], so clean snapshot pages travel as
//! shared rope handles with the decoded image attached — image-aware
//! stores digest pages straight from the rope and
//! [`mana_sim::scatter::shared_flatten_bytes`] stays flat across the
//! whole batch.

use crate::image::{CheckpointImage, ImageBytes};
use crate::stats::RankCkptStats;
use crate::store::CheckpointStore;
use mana_sim::fs::IoShape;
use mana_sim::pool::ordered_par_map;
use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::Arc;

/// One rank's checkpoint work: where the encoded image goes and how to
/// build it.
pub struct RankJob<B> {
    /// Rank id, recorded in the stats and used for straggler draws.
    pub rank: u32,
    /// Store path the encoded image is committed at.
    pub path: String,
    /// I/O contention shape charged by the store.
    pub shape: IoShape,
    /// The snapshot/build stage: produce the rank's image plus its
    /// snapshot-side stats. Runs on a worker thread when `workers > 1`,
    /// so it must not depend on the build order of other jobs.
    pub build: B,
}

/// What a [`RankJob`]'s build stage returns.
pub struct BuiltRank {
    /// The rank's checkpoint image.
    pub image: CheckpointImage,
    /// Snapshot-side stats (drain time, `bytes_copied`, dirty/clean page
    /// counts). The pipeline overwrites `rank`, `write`,
    /// `image_logical_bytes` and `image_dense_bytes` at commit.
    pub stats: RankCkptStats,
}

impl From<CheckpointImage> for BuiltRank {
    /// Build result with zeroed snapshot stats, for harnesses that only
    /// measure the encode/put side.
    fn from(image: CheckpointImage) -> BuiltRank {
        BuiltRank {
            image,
            stats: RankCkptStats::default(),
        }
    }
}

/// A built-and-encoded rank waiting for its in-order commit.
struct Cooked {
    rank: u32,
    path: String,
    shape: IoShape,
    bytes: ImageBytes,
    logical: u64,
    dense: u64,
    stats: RankCkptStats,
}

/// The worker-side stages: build the image, then encode it as a shared
/// scatter with the decoded image attached.
fn cook<B: FnOnce() -> BuiltRank>(job: RankJob<B>) -> Cooked {
    let RankJob {
        rank,
        path,
        shape,
        build,
    } = job;
    let BuiltRank { image, stats } = build();
    let image = Arc::new(image);
    let bytes = CheckpointImage::encode_shared(&image);
    let logical = image.logical_bytes();
    let dense = image.dense_bytes();
    Cooked {
        rank,
        path,
        shape,
        bytes,
        logical,
        dense,
        stats,
    }
}

/// The committer-side stage: put the encoded image and finalize stats.
fn commit<S: CheckpointStore + ?Sized>(store: &S, cooked: Cooked) -> RankCkptStats {
    let mut stats = cooked.stats;
    stats.rank = cooked.rank;
    stats.image_logical_bytes = cooked.logical;
    stats.image_dense_bytes = cooked.dense;
    stats.write = store.put(
        &cooked.path,
        cooked.bytes,
        cooked.logical,
        u64::from(cooked.rank),
        cooked.shape,
    );
    stats
}

/// Checkpoint a batch of ranks through `store`, building and encoding up
/// to `workers` ranks concurrently while committing strictly in job
/// order. Returns one [`RankCkptStats`] per job, in job order, with
/// `write` set to the store's virtual put duration.
///
/// Runs on [`ordered_par_map`]: `cook` (build + encode) on the workers,
/// `commit` (put + stats) on the calling thread in job order.
/// `workers <= 1` (or a batch of one) runs build → encode → put per rank
/// on the calling thread. Both paths store identical bytes and return
/// identical stats.
pub fn checkpoint_ranks<S, B>(
    store: &S,
    workers: usize,
    jobs: Vec<RankJob<B>>,
) -> Vec<RankCkptStats>
where
    S: CheckpointStore + ?Sized,
    B: FnOnce() -> BuiltRank + Send,
{
    let mut out = Vec::with_capacity(jobs.len());
    ordered_par_map(
        workers,
        jobs,
        |_, job| cook(job),
        |_, cooked| {
            out.push(commit(store, cooked));
            ControlFlow::<Infallible>::Continue(())
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::InMemStore;
    use mana_sim::memory::{DenseSnap, Half, RegionKind, RegionSnapshot, SnapshotContent};
    use mana_sim::rng::splitmix64;
    use mana_sim::time::SimDuration;

    const SHAPE: IoShape = IoShape {
        writers_on_node: 4,
        total_writers: 16,
    };

    fn image(rank: u32) -> CheckpointImage {
        let payload: Vec<u8> = (0..3 * 4096usize)
            .map(|i| splitmix64(i as u64 ^ (u64::from(rank) << 40)) as u8)
            .collect();
        CheckpointImage {
            rank,
            nranks: 16,
            ckpt_id: 1,
            app_name: "pipeline-test".to_string(),
            seed: 7,
            regions: vec![
                RegionSnapshot {
                    start: 0x1000,
                    len: payload.len() as u64,
                    half: Half::Upper,
                    kind: RegionKind::Mmap,
                    name: "heap".to_string(),
                    content: SnapshotContent::Dense(DenseSnap::from_vec(payload)),
                },
                RegionSnapshot {
                    start: 0x40_0000,
                    len: 1 << 20,
                    half: Half::Upper,
                    kind: RegionKind::Text,
                    name: "text".to_string(),
                    content: SnapshotContent::Pattern {
                        seed: u64::from(rank),
                    },
                },
            ],
            upper_cursor: 0,
            comms: Vec::new(),
            groups: Vec::new(),
            dtypes: Vec::new(),
            log: Vec::new(),
            counters: Default::default(),
            buffered: Vec::new(),
            pending: Vec::new(),
            ops_done: 5,
            allocs: Vec::new(),
            slots: Vec::new(),
            slot_seq: 0,
            slot_seq_at_step: 0,
            world_virt: 0,
            rebind: Vec::new(),
            step_created: Vec::new(),
            dirty: Vec::new(),
        }
    }

    fn jobs(nranks: u32) -> Vec<RankJob<impl FnOnce() -> BuiltRank + Send>> {
        (0..nranks)
            .map(|rank| RankJob {
                rank,
                path: format!("ckpt/ckpt_1/rank_{rank}.mana"),
                shape: SHAPE,
                build: move || {
                    let mut built = BuiltRank::from(image(rank));
                    built.stats.drain = SimDuration::millis(u64::from(rank));
                    built.stats.bytes_copied = u64::from(rank) * 4096;
                    built
                },
            })
            .collect()
    }

    #[test]
    fn parallel_matches_serial_bytes_and_stats() {
        let serial_store = InMemStore::new();
        let serial = checkpoint_ranks(&serial_store, 1, jobs(8));
        let par_store = InMemStore::new();
        let par = checkpoint_ranks(&par_store, 4, jobs(8));

        assert_eq!(serial, par);
        assert_eq!(serial_store.list(), par_store.list());
        for path in serial_store.list() {
            let (a, _) = serial_store.get(&path, 0, SHAPE).unwrap();
            let (b, _) = par_store.get(&path, 0, SHAPE).unwrap();
            assert_eq!(a, b, "stored bytes differ at {path}");
        }
    }

    #[test]
    fn stats_are_filled_in_job_order() {
        let store = InMemStore::new();
        let stats = checkpoint_ranks(&store, 3, jobs(5));
        assert_eq!(stats.len(), 5);
        for (i, s) in stats.iter().enumerate() {
            assert_eq!(s.rank, i as u32);
            assert_eq!(s.drain, SimDuration::millis(i as u64));
            assert_eq!(s.bytes_copied, i as u64 * 4096);
            assert!(s.image_logical_bytes > 0);
            let img = image(i as u32);
            assert_eq!(s.image_logical_bytes, img.logical_bytes());
            assert_eq!(s.image_dense_bytes, img.dense_bytes());
        }
    }

    #[test]
    fn more_workers_than_jobs_and_tiny_batches() {
        let store = InMemStore::new();
        assert!(checkpoint_ranks(&store, 8, jobs(0)).is_empty());
        let one = checkpoint_ranks(&store, 8, jobs(1));
        assert_eq!(one.len(), 1);
        let two = checkpoint_ranks(&store, 64, jobs(2));
        assert_eq!(two.len(), 2);
        assert_eq!(two[1].rank, 1);
    }

    #[test]
    fn stored_images_decode_back() {
        let store = InMemStore::new();
        checkpoint_ranks(&store, 4, jobs(6));
        for rank in 0..6u32 {
            let (bytes, _) = store
                .get(&format!("ckpt/ckpt_1/rank_{rank}.mana"), 0, SHAPE)
                .unwrap();
            let (img, _) = CheckpointImage::decode_shared(&bytes).unwrap();
            assert_eq!(img.rank, rank);
            assert_eq!(img, image(rank));
        }
    }
}
