//! Simulated-clock metrics are a pure function of the seed: two life
//! cycles with the same inputs report identical values, traced or not.

use perfbench::lifecycle::{self, App, Spec, WorkloadKind};
use perfbench::metrics;

#[test]
fn simulated_metrics_repeat_exactly() {
    for kind in WorkloadKind::ALL {
        let mut spec = Spec::standard(kind, 3);
        if let App::Hpcg { rows, .. } = &mut spec.app {
            *rows = (*rows).min(1 << 16);
        }
        let run = |traced| {
            let s = lifecycle::run(&spec, 3, traced);
            assert_eq!(s.failed, 0, "{kind:?} life cycle failed");
            let (free_wall, free) = lifecycle::run_checkpoint_free(&spec, 3);
            let mut v =
                metrics::per_layer_values(&spec, &s, free_wall, free.app_wall.as_secs_f64());
            v.insert("ckpt_sim_s".into(), s.ckpt_sim_s());
            v.insert("restart_sim_s".into(), s.restart_sim_s());
            v.insert("stored_mb".into(), s.stored_bytes as f64 / 1e6);
            v.retain(|k, _| k.ends_with("_sim_ms") || k.ends_with("_sim_s") || k == "stored_mb");
            v
        };
        let (a, b) = (run(false), run(true));
        assert_eq!(a.len(), 3 + 3 + 2 + 8, "{kind:?}: {:?}", a.keys());
        assert_eq!(a, b, "{kind:?}: simulated metrics differ between runs");
        assert!(a["ckpt_sim_s"] > 0.0 && a["restart_sim_s"] > 0.0 && a["stored_mb"] > 0.0);
    }
}

#[test]
fn the_seed_moves_the_simulated_clock() {
    let ckpt = |seed| {
        let spec = Spec::standard(WorkloadKind::SparseRolling, seed);
        lifecycle::run(&spec, seed, false).ckpt_sim_s()
    };
    assert_ne!(ckpt(1), ckpt(2));
}
