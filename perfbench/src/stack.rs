//! The store stack each workload runs on, with probes between its layers.
//!
//! Untraced, only the outermost layer carries a (counting, clock-free)
//! probe. Traced, every layer — and every replica — is wrapped in a timed
//! probe, so per-layer self times can be read off the span stack.

use crate::probe::{LayerStats, Probe};
use mana_core::{CheckpointStore, FsStore};
use mana_sim::fs::FsConfig;
use mana_sim::rng::derive_seed_idx;
use mana_store::{
    CompressingStore, CompressionConfig, DeltaConfig, DeltaStore, DrainMode, JournaledStore,
    ReplicaConfig, ReplicatedStore, TierConfig, TieredStore,
};
use std::sync::Arc;

/// Every store layer a workload can hold, in reporting order.
pub const LAYERS: [&str; 6] = ["fs", "journal", "replicated", "tiered", "compress", "delta"];

/// Which store stack to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackKind {
    /// The session default: one Lustre-like `FsStore`.
    Fs,
    /// `JournaledStore` → `ReplicatedStore` (2 × `FsStore`, write quorum
    /// 2): the chaos harness's durable stack.
    Durable,
    /// `TieredStore` (async burst buffer) → `CompressingStore` →
    /// `DeltaStore` → `FsStore`: the README's production stack.
    Production,
}

type Delta = DeltaStore<Arc<dyn CheckpointStore>>;

/// A built stack.
pub struct Stack {
    /// The session's store (outermost layer).
    pub store: Arc<dyn CheckpointStore>,
    /// Probe counters, one per layer name, outermost first.
    pub layers: Vec<Arc<LayerStats>>,
    /// The delta layer, for its put-path digest counters.
    pub delta: Option<Arc<Delta>>,
}

impl Stack {
    /// Counters of layer `name`, if the stack holds it.
    pub fn layer(&self, name: &str) -> Option<&Arc<LayerStats>> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// The outermost layer's counters.
    pub fn outer(&self) -> &Arc<LayerStats> {
        &self.layers[0]
    }
}

struct Layers {
    traced: bool,
    layers: Vec<Arc<LayerStats>>,
}

impl Layers {
    fn stats(&mut self, name: &'static str) -> Arc<LayerStats> {
        if let Some(l) = self.layers.iter().find(|l| l.name == name) {
            return l.clone();
        }
        let l = LayerStats::new(name);
        self.layers.push(l.clone());
        l
    }

    /// Wrap an inner layer (timed when traced, bare otherwise).
    fn layer(
        &mut self,
        name: &'static str,
        store: impl CheckpointStore + 'static,
    ) -> Arc<dyn CheckpointStore> {
        if self.traced {
            let stats = self.stats(name);
            Arc::new(Probe::timed(store, stats))
        } else {
            Arc::new(store)
        }
    }

    /// Wrap the outermost layer (always probed: it counts the session's
    /// `get`s and their errors).
    fn outer(mut self, name: &'static str, store: impl CheckpointStore + 'static) -> Stack {
        let stats = self.stats(name);
        let store: Arc<dyn CheckpointStore> = if self.traced {
            Arc::new(Probe::timed(store, stats))
        } else {
            Arc::new(Probe::counting(store, stats))
        };
        // Built inside-out; report outermost first.
        self.layers.reverse();
        Stack {
            store,
            layers: self.layers,
            delta: None,
        }
    }
}

/// Filesystem `i` of a stack. The cost-model seeds (straggler draws,
/// compression ratios, replica liveness) belong to the simulated machine,
/// not to the workload's inputs, so they stay fixed: the simulated clock
/// then moves only with the inputs and the code.
fn fs(fs: &FsConfig, i: u64) -> FsStore {
    FsStore::with_config(FsConfig {
        seed: derive_seed_idx(fs.seed, "replica", i),
        ..fs.clone()
    })
}

/// Build `kind` over filesystems shaped like `fs_cfg`.
pub fn build(kind: StackKind, fs_cfg: &FsConfig, traced: bool) -> Stack {
    let mut b = Layers {
        traced,
        layers: Vec::new(),
    };
    match kind {
        StackKind::Fs => b.outer("fs", fs(fs_cfg, 0)),
        StackKind::Durable => {
            let replicas = (0..2).map(|i| b.layer("fs", fs(fs_cfg, i))).collect();
            let cfg = ReplicaConfig {
                write_quorum: 2,
                ..ReplicaConfig::default()
            };
            let replicated = b.layer("replicated", ReplicatedStore::new(cfg, replicas));
            b.outer("journal", JournaledStore::new(replicated))
        }
        StackKind::Production => {
            let slow = b.layer("fs", fs(fs_cfg, 0));
            let delta = Arc::new(DeltaStore::new(DeltaConfig::default(), slow));
            let delta_layer = b.layer("delta", delta.clone());
            let compressed = b.layer(
                "compress",
                CompressingStore::new(CompressionConfig::default(), delta_layer),
            );
            let tiered = TieredStore::new(TierConfig::burst_buffer(DrainMode::Async), compressed);
            let mut stack = b.outer("tiered", tiered);
            stack.delta = Some(delta);
            stack
        }
    }
}
