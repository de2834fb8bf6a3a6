//! The store probes' self times account for the outermost layer's time
//! exactly, on every stack the benchmark builds.

use perfbench::lifecycle::{self, App, Spec, WorkloadKind};
use perfbench::probe::LayerSnapshot;

/// `kind` at a size that runs in well under a second.
fn small(kind: WorkloadKind) -> Spec {
    let mut spec = Spec::standard(kind, 7);
    match &mut spec.app {
        App::Hpcg { rows, .. } => *rows = (*rows).min(1 << 14),
        App::Sparse(s) => s.blocks = 32,
    }
    if kind == WorkloadKind::RankScale {
        spec.ranks = 8;
    }
    spec
}

#[test]
fn self_times_sum_to_the_outermost_total() {
    for kind in WorkloadKind::ALL {
        let s = lifecycle::run(&small(kind), 7, true);
        assert_eq!(s.failed, 0, "{kind:?} life cycle failed");
        let snaps: Vec<LayerSnapshot> = s.stack.layers.iter().map(|l| l.snapshot()).collect();
        let outer = snaps[0];
        let self_sum: u64 = snaps.iter().map(|l| l.self_ns).sum();
        assert!(outer.total_ns() > 0, "{kind:?}: outer layer never timed");
        assert_eq!(
            self_sum,
            outer.total_ns(),
            "{kind:?}: self times do not add up"
        );
        assert_eq!(
            outer.root_ns,
            outer.total_ns(),
            "{kind:?}: a call bypassed the outer layer"
        );
        for inner in &snaps[1..] {
            assert_eq!(
                inner.root_ns, 0,
                "{kind:?}: an inner layer was called directly"
            );
            assert!(inner.self_ns <= inner.total_ns());
        }
    }
}

#[test]
fn every_layer_of_each_stack_sees_traffic() {
    let expect = [
        (WorkloadKind::RankScale, vec!["fs"]),
        (
            WorkloadKind::DenseMigrate,
            vec!["journal", "replicated", "fs"],
        ),
        (
            WorkloadKind::SparseRolling,
            vec!["tiered", "compress", "delta", "fs"],
        ),
    ];
    for (kind, layers) in expect {
        let s = lifecycle::run(&small(kind), 7, true);
        let names: Vec<&str> = s.stack.layers.iter().map(|l| l.name).collect();
        assert_eq!(names, layers, "{kind:?}");
        for l in &s.stack.layers {
            let snap = l.snapshot();
            assert!(
                snap.puts > 0 && snap.bytes_in > 0,
                "{kind:?}/{}: no puts",
                l.name
            );
            assert_eq!(snap.get_errors, 0, "{kind:?}/{}", l.name);
        }
        // Reads may be served above the bottom (a burst-tier copy), so only
        // the outermost layer must see every one.
        let outer = s.stack.outer().snapshot();
        assert_eq!(outer.gets, s.ckpts[0].ranks.len() as u64);
        assert!(outer.bytes_out > 0);
    }
}

#[test]
fn tiered_drains_inside_begin_epoch() {
    let s = lifecycle::run(&small(WorkloadKind::SparseRolling), 7, true);
    let tiered = s
        .stack
        .layer("tiered")
        .expect("production stack")
        .snapshot();
    let compress = s
        .stack
        .layer("compress")
        .expect("production stack")
        .snapshot();
    // Async drains reach the slow tier from `begin_epoch`, not from the
    // checkpoint-visible `put`: timing only the outer `put` misses them.
    assert!(compress.puts > 0);
    assert!(tiered.epoch_ns > tiered.put_ns);
}
