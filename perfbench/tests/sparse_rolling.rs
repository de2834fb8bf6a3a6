//! `sparse-rolling` dirties the share of pages it promises, and its
//! restart reproduces the native reference bit for bit.

use perfbench::lifecycle::{self, Spec, WorkloadKind};

#[test]
fn dirty_fraction_is_in_band_and_restart_matches_native() {
    for seed in [1, 2] {
        let spec = Spec::standard(WorkloadKind::SparseRolling, seed);
        let s = lifecycle::run(&spec, seed, false);
        assert_eq!(s.failed, 0, "seed {seed}: a run, restart or get failed");
        assert!(s.restart.is_some(), "seed {seed}: no restart report");
        assert_eq!(s.ckpts.len(), 8);
        // The first checkpoint has no base epoch: everything is dirty.
        assert_eq!(s.ckpts[0].total_clean_pages_shared(), 0);
        for c in &s.ckpts[1..] {
            let dirty = c.total_dirty_pages() as f64;
            let frac = dirty / (dirty + c.total_clean_pages_shared() as f64);
            assert!(
                (0.01..=0.02).contains(&frac),
                "seed {seed}: checkpoint {} is {:.4} dirty",
                c.ckpt_id,
                frac
            );
        }
    }
}
