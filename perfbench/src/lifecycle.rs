//! One workload's life cycle through the public session API: a native
//! reference run, a MANA run that checkpoints and is killed, and an
//! `Incarnation::restart_on` that runs the job to completion.

use crate::sparse::SparseRolling;
use crate::stack::{self, Stack, StackKind};
use mana_apps::Hpcg;
use mana_core::image::ImageBytes;
use mana_core::{
    CheckpointImage, CkptReport, GcPolicy, InMemStore, JobBuilder, ManaSession, RestartReport,
    RunOutcome, Workload,
};
use mana_mpi::MpiProfile;
use mana_sim::checksum::checksum_bytes;
use mana_sim::cluster::ClusterSpec;
use mana_sim::fs::IoShape;
use mana_sim::rng::derive_seed;
use mana_sim::time::SimTime;
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// 64-rank HPCG with tiny state: scheduler, MPI, wrapper, protocol
    /// and replay dominate; the data path is nearly idle.
    RankScale,
    /// 4-rank HPCG with 100%-dirty state, migrated to another cluster and
    /// MPI over the durable (journaled, replicated) stack.
    DenseMigrate,
    /// 4 ranks of mostly stable state, 8 rolling checkpoints of ~1.5%
    /// dirty pages over the README's production stack.
    SparseRolling,
}

impl WorkloadKind {
    /// Every workload, in reporting order.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::RankScale,
        WorkloadKind::DenseMigrate,
        WorkloadKind::SparseRolling,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::RankScale => "rank-scale",
            WorkloadKind::DenseMigrate => "dense-migrate",
            WorkloadKind::SparseRolling => "sparse-rolling",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Application state a workload runs.
#[derive(Clone, Debug)]
pub enum App {
    /// Stock HPCG with `rows` rows per rank and `iters` iterations.
    Hpcg {
        /// Rows per rank.
        rows: usize,
        /// CG iterations (steps).
        iters: u64,
    },
    /// The benchmark's own sparse-dirty workload.
    Sparse(SparseRolling),
}

/// Everything that defines one workload's life cycle.
#[derive(Clone, Debug)]
pub struct Spec {
    /// World size.
    pub ranks: u32,
    /// The application.
    pub app: App,
    /// Cluster of the reference and checkpointed runs.
    pub cluster: ClusterSpec,
    /// MPI of the reference and checkpointed runs.
    pub profile: MpiProfile,
    /// Cluster the restart runs on.
    pub restart_cluster: ClusterSpec,
    /// MPI the restart runs under.
    pub restart_profile: MpiProfile,
    /// Worker threads of the restart's fetch/decode/validate pool.
    pub restart_workers: usize,
    /// Checkpoints the killed run takes (the last one kills it).
    pub ckpts: u32,
    /// Checkpoint retention.
    pub gc: GcPolicy,
    /// Store stack.
    pub stack: StackKind,
}

/// Worker threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `base` scaled by a factor in [0.99, 1.01] drawn from `seed`: the
/// seed moves the problem size slightly, so every clock the benchmark
/// reports (the simulated one too) depends on its inputs.
fn jitter(base: usize, seed: u64, label: &str) -> usize {
    let u = (derive_seed(seed, label) >> 11) as f64 / (1u64 << 53) as f64;
    (base as f64 * (0.99 + 0.02 * u)).round() as usize
}

impl Spec {
    /// The benchmark's standard configuration of `kind`, with inputs
    /// sized from `seed`.
    pub fn standard(kind: WorkloadKind, seed: u64) -> Spec {
        let base = Spec {
            ranks: 4,
            app: App::Hpcg {
                rows: jitter(2_000, seed, "rows"),
                iters: 25,
            },
            cluster: ClusterSpec::cori(1),
            profile: MpiProfile::cray_mpich(),
            restart_cluster: ClusterSpec::cori(1),
            restart_profile: MpiProfile::cray_mpich(),
            restart_workers: 1,
            ckpts: 2,
            gc: GcPolicy::KeepAll,
            stack: StackKind::Fs,
        };
        match kind {
            // 64 ranks is the most `cori(2)` holds (2 × 32 cores).
            WorkloadKind::RankScale => Spec {
                ranks: 64,
                cluster: ClusterSpec::cori(2),
                restart_cluster: ClusterSpec::cori(2),
                ..base
            },
            WorkloadKind::DenseMigrate => Spec {
                app: App::Hpcg {
                    rows: jitter(1 << 20, seed, "rows"),
                    iters: 6,
                },
                restart_cluster: ClusterSpec::local_cluster(1),
                restart_profile: MpiProfile::open_mpi(),
                restart_workers: nproc(),
                stack: StackKind::Durable,
                ..base
            },
            WorkloadKind::SparseRolling => Spec {
                app: App::Sparse(SparseRolling {
                    block_len: jitter(SparseRolling::default().block_len, seed, "block_len"),
                    ..SparseRolling::default()
                }),
                ckpts: 8,
                gc: GcPolicy::KeepLast(2),
                stack: StackKind::Production,
                ..base
            },
        }
    }

    /// Application steps of the whole job.
    pub fn steps(&self) -> u64 {
        match &self.app {
            App::Hpcg { iters, .. } => *iters,
            App::Sparse(s) => s.steps,
        }
    }

    /// Simulated rank-steps one complete job performs.
    pub fn rank_steps(&self) -> u64 {
        self.steps() * u64::from(self.ranks)
    }

    /// A fresh application object.
    pub fn workload(&self) -> Arc<dyn Workload> {
        match &self.app {
            App::Hpcg { rows, iters } => Arc::new(Hpcg {
                iters: *iters,
                rows: *rows,
                ..Hpcg::default()
            }),
            App::Sparse(s) => Arc::new(s.clone()),
        }
    }

    fn job(&self, seed: u64) -> JobBuilder {
        JobBuilder::new()
            .cluster(self.cluster.clone())
            .ranks(self.ranks)
            .profile(self.profile.clone())
            .seed(seed)
    }

    fn restart_job(&self) -> JobBuilder {
        JobBuilder::new()
            .cluster(self.restart_cluster.clone())
            .profile(self.restart_profile.clone())
            .restart_workers(self.restart_workers)
    }

    /// Checkpoint times from the native reference: evenly spaced over the
    /// application's run, each placed mid-step, so no checkpoint sits on a
    /// step boundary and the drift a checkpoint's own cost adds stays
    /// inside the intended step.
    pub fn schedule(&self, native: &RunOutcome) -> Vec<SimTime> {
        let start = native.wall.as_nanos() - native.app_wall.as_nanos();
        let step = native.app_wall.as_nanos() as f64 / self.steps() as f64;
        let every = self.steps() / u64::from(self.ckpts + 1);
        (1..=u64::from(self.ckpts))
            .map(|k| SimTime(start + (step * ((k * every) as f64 + 0.5)) as u64))
            .collect()
    }
}

/// Measurements of one life cycle.
pub struct Sample {
    /// Wall seconds to build the stack and workload and run the native
    /// reference.
    pub setup_s: f64,
    /// Wall seconds of the native reference run.
    pub native_s: f64,
    /// Wall seconds inside `ManaSession::run` (checkpoints, then killed).
    pub run_s: f64,
    /// Wall seconds inside `Incarnation::restart_on`.
    pub restart_s: f64,
    /// Operations attempted: runs, restarts, outermost-store `get`s.
    pub attempted: u64,
    /// Operations that failed (an `Err`, a `get` error, or checksums that
    /// differ from the reference).
    pub failed: u64,
    /// The native reference run.
    pub native: RunOutcome,
    /// Every checkpoint of the session.
    pub ckpts: Vec<CkptReport>,
    /// The restart's report.
    pub restart: Option<RestartReport>,
    /// Logical bytes the session's store holds at the end.
    pub stored_bytes: u64,
    /// The store stack (with its probe counters).
    pub stack: Stack,
    /// The session (its store still holds the surviving images).
    pub session: ManaSession,
    /// Image paths of the last checkpoint, by rank.
    pub last_paths: Vec<String>,
}

impl Sample {
    /// Σ `CkptReport::total()` in simulated seconds.
    pub fn ckpt_sim_s(&self) -> f64 {
        self.ckpts.iter().map(|c| c.total().as_secs_f64()).sum()
    }

    /// The restart's simulated total, seconds.
    pub fn restart_sim_s(&self) -> f64 {
        self.restart.as_ref().map_or(0.0, |r| r.total.as_secs_f64())
    }
}

/// Run `spec`'s life cycle once with inputs from `seed`. `traced` puts a
/// timed probe between every store layer.
pub fn run(spec: &Spec, seed: u64, traced: bool) -> Sample {
    let t0 = Instant::now();
    let stack = stack::build(spec.stack, &spec.cluster.fs, traced);
    let app = spec.workload();
    let session = ManaSession::builder()
        .shared_store(stack.store.clone())
        .gc(spec.gc)
        .build();
    let t_native = Instant::now();
    let native = session
        .run_native(spec.job(seed), app.clone())
        .expect("a native run without a checkpoint schedule is a valid job");
    let native_s = t_native.elapsed().as_secs_f64();
    let schedule = spec.schedule(&native);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut attempted = 2;
    let mut failed = 0;
    let t_run = Instant::now();
    let killed = session.run(spec.job(seed).checkpoint_times(schedule).then_kill(), app);
    let run_s = t_run.elapsed().as_secs_f64();
    let mut restart_s = 0.0;
    let mut restart = None;
    let mut last_paths = Vec::new();
    match killed {
        Ok(killed) if killed.killed() && killed.ckpts().len() == spec.ckpts as usize => {
            if let Some(images) = killed.checkpoint_images().last() {
                last_paths = images.paths.clone();
            }
            attempted += 1;
            let t_restart = Instant::now();
            let resumed = killed.restart_on(spec.restart_job());
            restart_s = t_restart.elapsed().as_secs_f64();
            match resumed {
                Ok(resumed) => {
                    restart = resumed.restart_report().cloned();
                    if resumed.killed() || resumed.checksums() != &native.checksums {
                        failed += 1;
                    }
                }
                Err(_) => failed += 1,
            }
        }
        _ => failed += 1,
    }
    let outer = stack.outer().snapshot();
    attempted += outer.gets;
    failed += outer.get_errors;
    Sample {
        setup_s,
        native_s,
        run_s,
        restart_s,
        attempted,
        failed,
        native,
        ckpts: session.checkpoints(),
        restart,
        stored_bytes: session.stored_bytes(),
        stack,
        session,
        last_paths,
    }
}

/// A checkpoint-free MANA run of the same job: the wrapper's cost alone.
/// Returns (wall seconds, the run's outcome).
pub fn run_checkpoint_free(spec: &Spec, seed: u64) -> (f64, RunOutcome) {
    let session = ManaSession::builder().store(InMemStore::new()).build();
    let t0 = Instant::now();
    let inc = session
        .run(spec.job(seed), spec.workload())
        .expect("a checkpoint-free MANA run is a valid job");
    (t0.elapsed().as_secs_f64(), inc.outcome().clone())
}

/// Codec and digest throughput on the workload's own stored images.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecRates {
    /// `CheckpointImage::encode_shared`, MB of wire bytes per second.
    pub encode_mbps: f64,
    /// `CheckpointImage::decode_shared` from the bare scatter, MB/s.
    pub decode_mbps: f64,
    /// `checksum_bytes` over the flattened wire bytes, MB/s.
    pub digest_mbps: f64,
    /// `get`s that failed or returned an undecodable image.
    pub failed: u64,
    /// `get`s attempted.
    pub attempted: u64,
}

/// Fetch the last checkpoint's images through the session's store and
/// time the codec and digest on them (the fetch itself is not timed).
pub fn codec_rates(sample: &Sample) -> CodecRates {
    let shape = IoShape {
        writers_on_node: 1,
        total_writers: 1,
    };
    let mut out = CodecRates::default();
    let (mut bytes, mut enc_s, mut dec_s, mut dig_s) = (0.0, 0.0, 0.0, 0.0);
    for (rank, path) in sample.last_paths.iter().enumerate() {
        out.attempted += 1;
        let Ok((stored, _)) = sample.session.store().get(path, rank as u64, shape) else {
            out.failed += 1;
            continue;
        };
        // Drop any attached image so the decode walks the wire bytes.
        let wire = ImageBytes::from(stored.scatter().clone());
        let t = Instant::now();
        let decoded = CheckpointImage::decode_shared(&wire);
        dec_s += t.elapsed().as_secs_f64();
        let Ok((image, _)) = decoded else {
            out.failed += 1;
            continue;
        };
        let image = Arc::new(image);
        let t = Instant::now();
        let encoded = CheckpointImage::encode_shared(&image);
        enc_s += t.elapsed().as_secs_f64();
        let flat = encoded.to_vec();
        let t = Instant::now();
        let digest = checksum_bytes(&flat);
        dig_s += t.elapsed().as_secs_f64();
        if flat.len() != wire.len() || digest != wire.scatter().checksum() {
            out.failed += 1;
        }
        bytes += flat.len() as f64 / 1e6;
    }
    let rate = |s: f64| if s > 0.0 { bytes / s } else { 0.0 };
    out.encode_mbps = rate(enc_s);
    out.decode_mbps = rate(dec_s);
    out.digest_mbps = rate(dig_s);
    out
}
