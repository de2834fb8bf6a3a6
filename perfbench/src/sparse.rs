//! `sparse-rolling`'s application: a large, mostly stable dense state of
//! which each step rewrites only a few blocks.
//!
//! It follows the restore contract of `mana_core::env`: the loop iterates
//! a managed step counter with `begin_step` at its top, every value that
//! crosses a step lives in managed memory, and the operation sequence of a
//! step depends only on (seed, rank, step). Each block is its own managed
//! array because `MemView::with_mut` marks the whole array it opens dirty:
//! opening only the blocks a step writes keeps the dirty set to those
//! blocks' pages.

use mana_core::{AppEnv, Arr, Workload};
use mana_mpi::ReduceOp;
use mana_sim::rng::{derive_seed_idx, splitmix64};
use mana_sim::time::SimDuration;

/// Workload configuration.
#[derive(Clone, Debug)]
pub struct SparseRolling {
    /// Managed blocks per rank.
    pub blocks: usize,
    /// `f64`s per block.
    pub block_len: usize,
    /// Distinct blocks each step rewrites.
    pub blocks_per_step: usize,
    /// Steps in the whole job.
    pub steps: u64,
    /// Simulated compute per step. Long against a checkpoint's simulated
    /// cost, so a schedule taken from the native run lands inside the
    /// intended steps under MANA too.
    pub step_compute: SimDuration,
    /// Operations the step's compute is split into. Operations are atomic
    /// with respect to checkpoints, so this bounds how long a checkpoint
    /// waits for a rank to reach a safe point.
    pub compute_ops: u32,
}

impl Default for SparseRolling {
    /// 256 blocks of 128 KiB (32 MiB per rank); two blocks per step.
    fn default() -> SparseRolling {
        SparseRolling {
            blocks: 256,
            block_len: 16 * 1024,
            blocks_per_step: 2,
            steps: 18,
            step_compute: SimDuration::secs(2),
            compute_ops: 100,
        }
    }
}

impl SparseRolling {
    /// Distinct blocks rank `rank` rewrites in step `step`.
    pub fn picks(&self, seed: u64, rank: u32, step: u64) -> Vec<usize> {
        let mut s = derive_seed_idx(seed, "sparse-rolling", (u64::from(rank) << 32) | step);
        let mut out: Vec<usize> = Vec::with_capacity(self.blocks_per_step);
        while out.len() < self.blocks_per_step.min(self.blocks) {
            s = splitmix64(s);
            let b = (s % self.blocks as u64) as usize;
            if !out.contains(&b) {
                out.push(b);
            }
        }
        out
    }
}

impl Workload for SparseRolling {
    fn name(&self) -> &'static str {
        "sparse-rolling"
    }

    fn run(&self, env: &mut AppEnv) {
        let world = env.world();
        let rank = env.rank();
        let n = f64::from(env.nranks());
        let seed = env.seed();
        let blocks: Vec<Arr<f64>> = (0..self.blocks)
            .map(|i| env.alloc_f64(&format!("block{i}"), self.block_len))
            .collect();
        let ctl = env.alloc_f64("ctl", 2); // [step, initialized]
        let acc = env.alloc_f64("acc", 2); // [local sum, carried global]

        // The fill runs once per job: a restarted incarnation finds the
        // flag set in its restored state.
        if env.peek(ctl, |c| c[1]) == 0.0 {
            env.work(SimDuration::millis(10), |m| {
                for (i, b) in blocks.iter().enumerate() {
                    m.with_mut(*b, |v| {
                        let mut s =
                            derive_seed_idx(seed, "block", (u64::from(rank) << 32) | i as u64);
                        for x in v.iter_mut() {
                            s = splitmix64(s);
                            *x = (s >> 11) as f64 / (1u64 << 53) as f64;
                        }
                    });
                }
                m.with_mut(ctl, |c| c[1] = 1.0);
            });
        }

        loop {
            let step = env.peek(ctl, |c| c[0]) as u64;
            if step >= self.steps {
                break;
            }
            env.begin_step();
            let picks = self.picks(seed, rank, step);
            env.work(SimDuration::millis(1), |m| {
                let carry = m.with(acc, |a| a[1]);
                let mut sum = 0.0;
                for &b in &picks {
                    m.with_mut(blocks[b], |v| {
                        for x in v.iter_mut() {
                            *x = 0.75 * *x + 0.25 * (carry + 0.5).fract();
                            sum += *x;
                        }
                    });
                }
                m.with_mut(acc, |a| a[0] = sum);
            });
            let slice =
                SimDuration::nanos(self.step_compute.as_nanos() / u64::from(self.compute_ops));
            for _ in 0..self.compute_ops {
                env.compute(slice);
            }
            env.allreduce_arr(world, acc, ReduceOp::Sum);
            env.work(SimDuration::micros(5), |m| {
                m.with2_mut(ctl, acc, |c, a| {
                    a[1] = (a[1] / n + a[0] / n).fract();
                    c[0] += 1.0;
                })
            });
        }
    }
}
