//! Restart read-path sweep: the zero-copy, rank-pipelined twin of
//! `fig_ckpt_path`.
//!
//! Part 1 (restore data path): one full checkpoint image travels through
//! each image-aware store tier — `InMemStore`, `FsStore`,
//! `DeltaStore<InMemStore>`, `CasStore<InMemStore>` — and is restored
//! into a fresh `AddressSpace` via `CheckpointImage::decode_shared` on
//! the get-returned scatter. The `shared_flatten_bytes()` counter
//! brackets the get→decode→restore window: stored rope pages must be
//! installed as shared handles end to end, with **zero** memcpys of
//! clean page bytes. The table reports pages shared, decode copy
//! traffic (metadata only — zero when the store hands back an attached
//! image), the modeled read time, and measured wall throughput.
//!
//! Part 2 (rank pipeline): N flat-stored rank images are fetched,
//! decoded and restored serially vs on `mana_sim::pool::ordered_par_map`
//! — the pool `ManaConfig::restart_workers` drives inside the restart
//! engine. The images are stored before any timed window; each arm runs
//! once to warm up, then the two arms run in interleaved pairs that
//! alternate which goes first. The harness asserts every run restores
//! checksums identical to serial and (on ≥2 CPUs) that the median
//! per-pair speedup of the pipelined restore is ≥1.5×; medians and IQRs
//! are printed and written to the JSON.
//!
//! Every run writes the machine-readable `BENCH_restart_path.json`.
//! Run with `--test` for the CI smoke configuration.

use mana_bench::{banner, image_around, Scale, Table};
use mana_core::image::CheckpointImage;
use mana_core::{CheckpointStore, FsStore, InMemStore};
use mana_sim::fs::{FsConfig, IoShape};
use mana_sim::memory::{AddressSpace, Backing, DenseBuf, Half, RegionKind, PAGE};
use mana_sim::pool::ordered_par_map;
use mana_sim::rng::splitmix64;
use mana_sim::scatter::{reset_shared_flatten_bytes, shared_flatten_bytes};
use mana_store::{CasConfig, CasStore, DeltaConfig, DeltaStore};
use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

const APP: &str = "fig-restart-path";

/// Timed serial/pooled pairs in the rank-pipeline comparison.
const PAIRS: usize = 15;

const SHAPE: IoShape = IoShape {
    writers_on_node: 1,
    total_writers: 1,
};

/// A primed address space: `nregions` dense regions with derived
/// contents, every page committed.
fn build_space(nregions: u64, pages_per_region: u64) -> AddressSpace {
    let a = AddressSpace::new();
    for i in 0..nregions {
        let len = (pages_per_region * PAGE) as usize;
        let mut buf = DenseBuf::zeroed(len);
        for (k, chunk) in buf.as_bytes_mut().chunks_mut(8).enumerate() {
            let v = splitmix64(k as u64 ^ (i << 32) ^ 0xBEEF).to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
        a.map(
            Half::Upper,
            RegionKind::Mmap,
            &format!("state{i}"),
            len as u64,
            Backing::Dense(buf),
        )
        .expect("map region");
    }
    a
}

struct RestoreResult {
    store: &'static str,
    pages_shared: u64,
    bytes_copied: u64,
    /// Shared rope bytes memcpy'd inside the get→decode→restore window
    /// (the zero-copy claim: must be 0).
    flatten_bytes: u64,
    modeled_read: mana_sim::time::SimDuration,
    wall: std::time::Duration,
    mbps: f64,
    attached: bool,
}

/// Round one image through `store` and restore it zero-copy, bracketing
/// the window with the flatten counter.
fn restore_through(
    name: &'static str,
    store: &dyn CheckpointStore,
    img: &Arc<CheckpointImage>,
    src: &AddressSpace,
    dense_bytes: u64,
) -> RestoreResult {
    let path = "fig-restart-path/ckpt_1/rank_0.mana";
    store.put(
        path,
        CheckpointImage::encode_shared(img),
        img.logical_bytes(),
        0,
        SHAPE,
    );

    reset_shared_flatten_bytes();
    let t0 = Instant::now();
    let (bytes, modeled_read) = store.get(path, 0, SHAPE).expect("get back");
    let attached = bytes.image().is_some();
    let (back, stats) = CheckpointImage::decode_shared(&bytes).expect("shared decode");
    let b = AddressSpace::new();
    for r in &back.regions {
        b.restore_region(r).expect("restore region");
    }
    let wall = t0.elapsed();
    let flatten_bytes = shared_flatten_bytes();

    // Fidelity check — deliberately outside the counter window (the
    // checksum walks pages read-only; it must not thaw anything either,
    // so a flatten here would also be a bug, but it is not the claim
    // this bench brackets).
    assert_eq!(
        b.checksum_half(Half::Upper),
        src.checksum_half(Half::Upper),
        "{name}: restored space diverged from the source"
    );

    let secs = wall.as_secs_f64().max(1e-9);
    RestoreResult {
        store: name,
        pages_shared: stats.pages_shared,
        bytes_copied: stats.bytes_copied,
        flatten_bytes,
        modeled_read,
        wall,
        mbps: dense_bytes as f64 / 1e6 / secs,
        attached,
    }
}

/// An all-dirty rank image stored as *flat owned* wire bytes, so the
/// fetch stage does real per-rank decode work the pool can overlap.
fn rank_wire(rank: u32, nranks: u32, pages: u64) -> Vec<u8> {
    let len = (pages * PAGE) as usize;
    let a = AddressSpace::new();
    let mut buf = DenseBuf::zeroed(len);
    for (i, chunk) in buf.as_bytes_mut().chunks_mut(8).enumerate() {
        let v = splitmix64(i as u64 ^ (u64::from(rank) << 40) ^ 0xC0FFEE).to_le_bytes();
        chunk.copy_from_slice(&v[..chunk.len()]);
    }
    a.map(
        Half::Upper,
        RegionKind::Mmap,
        "state",
        len as u64,
        Backing::Dense(buf),
    )
    .expect("map rank region");
    let img = CheckpointImage {
        rank,
        nranks,
        ..image_around(APP, 2, a.snapshot_half_tracked(Half::Upper))
    };
    img.encode().into_vec()
}

/// Fetch+decode+restore every rank and return the per-rank restored
/// checksums in rank order, on the same ordered pool the restart engine
/// fetches on (serial when `workers <= 1`).
fn restore_ranks(store: &FsStore, nranks: u32, workers: usize) -> Vec<u64> {
    let one = |rank: u32| -> u64 {
        let path = format!("fig-restart-path/pipe/ckpt_2/rank_{rank}.mana");
        let (bytes, _) = store.get(&path, u64::from(rank), SHAPE).expect("get rank");
        let (img, _) = CheckpointImage::decode_shared(&bytes).expect("decode rank");
        let b = AddressSpace::new();
        for r in &img.regions {
            b.restore_region(r).expect("restore rank region");
        }
        b.checksum_half(Half::Upper)
    };
    let mut sums = Vec::with_capacity(nranks as usize);
    ordered_par_map(
        workers,
        0..nranks,
        |_, rank| one(rank),
        |_, sum| {
            sums.push(sum);
            ControlFlow::<Infallible>::Continue(())
        },
    );
    sums
}

/// Median and interquartile range of a sample, by linear interpolation
/// between order statistics.
struct Spread {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Spread {
    fn of(mut xs: Vec<f64>) -> Spread {
        xs.sort_by(f64::total_cmp);
        let q = |p: f64| {
            let i = p * (xs.len() - 1) as f64;
            let (lo, hi) = (i.floor() as usize, i.ceil() as usize);
            xs[lo] + (xs[hi] - xs[lo]) * (i - lo as f64)
        };
        Spread {
            median: q(0.5),
            q1: q(0.25),
            q3: q(0.75),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"median\": {:.3}, \"q1\": {:.3}, \"q3\": {:.3}}}",
            self.median, self.q1, self.q3
        )
    }
}

struct PipelineResult {
    nranks: u32,
    workers: usize,
    pairs: usize,
    /// Serial restore wall time, ms.
    serial: Spread,
    /// Pooled restore wall time, ms.
    pipelined: Spread,
    /// Per-pair serial / pooled wall-time ratio.
    speedup: Spread,
    cpus: usize,
}

fn run_pipeline(nranks: u32, workers: usize, pages: u64) -> PipelineResult {
    let store = FsStore::with_config(FsConfig::default());
    for rank in 0..nranks {
        let wire = rank_wire(rank, nranks, pages);
        let len = wire.len() as u64;
        store.put(
            &format!("fig-restart-path/pipe/ckpt_2/rank_{rank}.mana"),
            wire.into(),
            len,
            u64::from(rank),
            SHAPE,
        );
    }
    let timed = |w: usize| -> (Duration, Vec<u64>) {
        let t0 = Instant::now();
        let sums = restore_ranks(&store, nranks, w);
        (t0.elapsed(), sums)
    };
    // Warm-up, one run per arm; the serial one is the checksum reference.
    let (_, reference) = timed(1);
    let (_, sums) = timed(workers);
    assert_eq!(sums, reference, "pipelined restore diverged from serial");

    let (mut serial, mut pipelined, mut speedup) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        // Arm 0 is serial, arm 1 pooled; odd pairs run the pooled arm first.
        let arms = [1, workers];
        let mut ms = [0.0; 2];
        for arm in [pair % 2, 1 - pair % 2] {
            let (wall, sums) = timed(arms[arm]);
            assert_eq!(sums, reference, "{}-worker restore diverged", arms[arm]);
            ms[arm] = wall.as_secs_f64() * 1e3;
        }
        serial.push(ms[0]);
        pipelined.push(ms[1]);
        speedup.push(ms[0] / ms[1].max(1e-9));
    }
    PipelineResult {
        nranks,
        workers,
        pairs: PAIRS,
        serial: Spread::of(serial),
        pipelined: Spread::of(pipelined),
        speedup: Spread::of(speedup),
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

fn write_json(results: &[RestoreResult], pipe: &PipelineResult, dense_mb: u64) {
    let mut s = String::from("{\n  \"bench\": \"restart_path\",\n");
    s.push_str(&format!("  \"dense_mb\": {dense_mb},\n  \"stores\": [\n"));
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"store\": \"{}\", \"attached\": {}, \"pages_shared\": {}, \
             \"bytes_copied\": {}, \"flatten_bytes\": {}, \"modeled_read_s\": {:.6}, \
             \"wall_ms\": {:.3}, \"mb_per_s\": {:.1}}}{}\n",
            r.store,
            r.attached,
            r.pages_shared,
            r.bytes_copied,
            r.flatten_bytes,
            r.modeled_read.as_secs_f64(),
            r.wall.as_secs_f64() * 1e3,
            r.mbps,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"pipeline\": {{\"ranks\": {}, \"workers\": {}, \"cpus\": {}, \"pairs\": {}, \
         \"serial_ms\": {}, \"pipelined_ms\": {}, \"speedup\": {}, \
         \"checksum_identical\": true}}\n}}\n",
        pipe.nranks,
        pipe.workers,
        pipe.cpus,
        pipe.pairs,
        pipe.serial.json(),
        pipe.pipelined.json(),
        pipe.speedup.json(),
    ));
    std::fs::write("BENCH_restart_path.json", s).expect("write BENCH_restart_path.json");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let scale = Scale::from_env();
    banner(
        "Restart read path",
        "zero-copy restore through every image-aware store + rank worker pool",
        "stored pages install as shared handles — no clean-page memcpy between store and memory",
    );
    let (nregions, pages_per_region) = if smoke {
        (8, 128) // 4 MiB
    } else if scale.full {
        (16, 2048) // 128 MiB
    } else {
        (8, 512) // 16 MiB
    };
    let total_pages = nregions * pages_per_region;
    let dense_bytes = total_pages * PAGE;
    let dense_mb = dense_bytes >> 20;
    println!(
        "address space: {} regions x {} pages = {} MB dense\n",
        nregions, pages_per_region, dense_mb
    );

    let src = build_space(nregions, pages_per_region);
    let img = Arc::new(image_around(APP, 1, src.snapshot_half_tracked(Half::Upper)));

    let mut results = Vec::new();
    let mut table = Table::new(&[
        "store",
        "image attached",
        "pages shared",
        "copied (B)",
        "flattened (B)",
        "modeled read",
        "wall (ms)",
        "wall MB/s",
    ]);
    let delta = DeltaStore::new(DeltaConfig::default(), InMemStore::new());
    let cas = CasStore::new(CasConfig::default(), InMemStore::new());
    let mem = InMemStore::new();
    let fs = FsStore::with_config(FsConfig::default());
    let stores: [(&'static str, &dyn CheckpointStore); 4] = [
        ("InMem", &mem),
        ("Fs", &fs),
        ("Delta(InMem)", &delta),
        ("Cas(InMem)", &cas),
    ];
    for (name, store) in stores {
        let r = restore_through(name, store, &img, &src, dense_bytes);
        table.row(vec![
            r.store.to_string(),
            r.attached.to_string(),
            r.pages_shared.to_string(),
            r.bytes_copied.to_string(),
            r.flatten_bytes.to_string(),
            format!("{}", r.modeled_read),
            format!("{:.2}", r.wall.as_secs_f64() * 1e3),
            format!("{:.0}", r.mbps),
        ]);
        results.push(r);
    }
    table.print();
    println!(
        "\n(\"pages shared\" = stored rope pages installed as shared handles by decode+restore;"
    );
    println!(" \"copied\" = decode copy traffic — metadata only, zero on the attached-image path;");
    println!(
        " \"flattened\" = shared rope bytes memcpy'd in the restore window — the zero-copy claim)"
    );

    // Part 2: the rank restore pipeline.
    let (nranks, pipe_pages) = if smoke {
        (4u32, 1024u64) // 4 ranks x 4 MiB
    } else if scale.full {
        (16, 4096) // 16 ranks x 16 MiB
    } else {
        (8, 2048) // 8 ranks x 8 MiB
    };
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 4)
        .max(2);
    let pipe = run_pipeline(nranks, workers, pipe_pages);
    println!(
        "\nrank restore pipeline: {} ranks x {} MB, {} workers on {} cpu(s), {} interleaved \
         pairs after one warm-up per arm (median [IQR]): serial {:.1} [{:.1}, {:.1}] ms, \
         pipelined {:.1} [{:.1}, {:.1}] ms, speedup {:.2}x [{:.2}, {:.2}], restored checksums \
         identical",
        pipe.nranks,
        (pipe_pages * PAGE) >> 20,
        pipe.workers,
        pipe.cpus,
        pipe.pairs,
        pipe.serial.median,
        pipe.serial.q1,
        pipe.serial.q3,
        pipe.pipelined.median,
        pipe.pipelined.q1,
        pipe.pipelined.q3,
        pipe.speedup.median,
        pipe.speedup.q1,
        pipe.speedup.q3,
    );

    write_json(&results, &pipe, dense_mb);
    println!("wrote BENCH_restart_path.json");

    if smoke {
        let total = total_pages;
        for r in &results {
            assert_eq!(
                r.flatten_bytes, 0,
                "{}: restore window flattened {} shared rope bytes — the zero-copy \
                 read path memcpy'd clean stored pages",
                r.store, r.flatten_bytes
            );
            assert_eq!(
                r.pages_shared, total,
                "{}: expected every dense page installed as a shared handle \
                 ({} of {} shared)",
                r.store, r.pages_shared, total
            );
        }
        for r in &results {
            if r.attached {
                assert_eq!(
                    r.bytes_copied, 0,
                    "{}: attached-image decode still copied {} bytes",
                    r.store, r.bytes_copied
                );
            }
        }
        if pipe.cpus >= 2 {
            assert!(
                pipe.speedup.median >= 1.5,
                "pipelined restore only {:.2}x serial (median of {} pairs) on {} cpus (floor 1.5x)",
                pipe.speedup.median,
                pipe.pairs,
                pipe.cpus
            );
        } else {
            println!(
                "(single cpu: {:.2}x median measured, 1.5x floor not applicable)",
                pipe.speedup.median
            );
        }
        println!(
            "smoke assertions passed: zero clean-page memcpys through every image-aware \
             store; every dense page restored as a shared handle; pipelined restore \
             byte-identical to serial"
        );
    }
}
