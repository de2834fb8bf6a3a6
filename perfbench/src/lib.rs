//! # perfbench — the repository's end-to-end benchmark
//!
//! Three workloads run the paper's life cycle through the public session
//! API (native reference → MANA run that checkpoints and is killed →
//! `Incarnation::restart_on`), check their checksums against the
//! reference, and report wall-clock and simulated-clock headlines. A
//! separate traced run puts a timed probe between every store layer for
//! the per-layer numbers. See `README.md` for the workloads, the layer →
//! metric map, and what no workload reaches.

pub mod host;
pub mod lifecycle;
pub mod metrics;
pub mod probe;
pub mod sparse;
pub mod stack;
