//! Metric names, units, and their extraction from life-cycle samples.

use crate::lifecycle::{CodecRates, Sample, Spec};
use crate::probe::LayerSnapshot;
use crate::stack::LAYERS;
use mana_core::RestartStage;
use std::collections::BTreeMap;

/// End-to-end metrics (untraced run): name, unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("rank_steps_per_s", "1/s"),
    ("run_s", "s"),
    ("restart_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ckpt_sim_s", "s"),
    ("restart_sim_s", "s"),
    ("stored_mb", "MB"),
    ("ok_ops_frac", "ratio"),
];

/// End-to-end metrics that are a pure function of the seed.
pub const DETERMINISTIC: [&str; 3] = ["ckpt_sim_s", "restart_sim_s", "stored_mb"];

const STORE_TIMES: [&str; 5] = ["put_s", "get_s", "epoch_s", "remove_s", "self_s"];
const STORE_COUNTS: [(&str, &str); 5] = [
    ("puts", "count"),
    ("gets", "count"),
    ("get_errors", "count"),
    ("bytes_in", "B"),
    ("bytes_out", "B"),
];

fn stage_metric(stage: RestartStage) -> String {
    format!("restart.{}_sim_ms", stage.name().replace('-', "_"))
}

/// Per-layer metrics (traced run): name, unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("native.wall_s", "s"),
        ("native.us_per_rank_step", "us"),
        ("wrapper.wall_s", "s"),
        ("wrapper.overhead_sim_pct", "%"),
        ("protocol.agreement_sim_ms", "ms"),
        ("protocol.bookmark_sim_ms", "ms"),
        ("protocol.completion_sim_ms", "ms"),
        ("ckpt.count", "count"),
        ("ckpt.image_bytes", "B"),
        ("ckpt.bytes_copied", "B"),
        ("ckpt.dirty_pages", "count"),
        ("ckpt.clean_pages_shared", "count"),
        ("ckpt.dirty_frac", "ratio"),
        ("ckpt.write_sim_ms", "ms"),
        ("ckpt.drain_sim_ms", "ms"),
        ("core.excess_s", "s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    out.extend(RestartStage::ALL.iter().map(|s| (stage_metric(*s), "ms")));
    out.extend(
        [
            ("restart.bytes_copied", "B"),
            ("restart.pages_shared", "count"),
            ("restart.replayed_calls", "count"),
            ("codec.encode_MBps", "MB/s"),
            ("codec.decode_MBps", "MB/s"),
            ("digest.MBps", "MB/s"),
        ]
        .map(|(n, u)| (n.to_string(), u)),
    );
    for layer in LAYERS {
        out.extend(STORE_TIMES.map(|m| (format!("store.{layer}.{m}"), "s")));
        out.extend(STORE_COUNTS.map(|(m, u)| (format!("store.{layer}.{m}"), u)));
    }
    out.push(("store.delta.pages_digested".into(), "count"));
    out.push(("store.delta.pages_reused".into(), "count"));
    out.push(("trace.overhead_pct".into(), "%"));
    out
}

/// One iteration's values, by metric name.
pub type Values = BTreeMap<String, f64>;

/// End-to-end values of an untraced sample.
pub fn end_to_end(spec: &Spec, s: &Sample, peak_rss_mb: f64) -> Values {
    let wall = s.run_s + s.restart_s;
    let ok = 1.0 - s.failed as f64 / s.attempted as f64;
    [
        ("rank_steps_per_s", spec.rank_steps() as f64 / wall),
        ("run_s", s.run_s),
        ("restart_s", s.restart_s),
        ("setup_s", s.setup_s),
        ("peak_rss_mb", peak_rss_mb),
        ("ckpt_sim_s", s.ckpt_sim_s()),
        ("restart_sim_s", s.restart_sim_s()),
        ("stored_mb", s.stored_bytes as f64 / 1e6),
        ("ok_ops_frac", ok),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Per-layer values of one traced iteration, from the traced sample and
/// the checkpoint-free MANA run's wall seconds and simulated application
/// time. Take them before anything else reads the sample's store.
pub fn per_layer_values(
    spec: &Spec,
    traced: &Sample,
    free_wall_s: f64,
    free_app_sim_s: f64,
) -> Values {
    let mut v = Values::new();
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    put("native.wall_s", traced.native_s);
    put(
        "native.us_per_rank_step",
        traced.native_s * 1e6 / spec.rank_steps() as f64,
    );
    put("wrapper.wall_s", free_wall_s - traced.native_s);
    let native_app = traced.native.app_wall.as_secs_f64();
    put(
        "wrapper.overhead_sim_pct",
        (free_app_sim_s - native_app) / native_app * 100.0,
    );

    let ck = &traced.ckpts;
    let ms = |f: &dyn Fn(&mana_core::CkptReport) -> f64| ck.iter().map(f).sum::<f64>();
    put(
        "protocol.agreement_sim_ms",
        ms(&|c| c.agreement_overhead().as_secs_f64() * 1e3),
    );
    put(
        "protocol.bookmark_sim_ms",
        ms(&|c| c.bookmark_overhead().as_secs_f64() * 1e3),
    );
    put(
        "protocol.completion_sim_ms",
        ms(&|c| c.completion_overhead().as_secs_f64() * 1e3),
    );
    put("ckpt.count", ck.len() as f64);
    put("ckpt.image_bytes", ms(&|c| c.total_image_bytes() as f64));
    put("ckpt.bytes_copied", ms(&|c| c.total_bytes_copied() as f64));
    put("ckpt.dirty_pages", ms(&|c| c.total_dirty_pages() as f64));
    put(
        "ckpt.clean_pages_shared",
        ms(&|c| c.total_clean_pages_shared() as f64),
    );
    put("ckpt.dirty_frac", dirty_frac(ck));
    put(
        "ckpt.write_sim_ms",
        ms(&|c| c.max_write().as_secs_f64() * 1e3),
    );
    put(
        "ckpt.drain_sim_ms",
        ms(&|c| c.max_drain().as_secs_f64() * 1e3),
    );

    let layers: BTreeMap<&str, LayerSnapshot> = traced
        .stack
        .layers
        .iter()
        .map(|l| (l.name, l.snapshot()))
        .collect();
    let store_self: u64 = layers.values().map(|l| l.self_ns).sum();
    put(
        "core.excess_s",
        traced.run_s + traced.restart_s - free_wall_s - secs(store_self),
    );

    let restart = traced.restart.clone().unwrap_or_default();
    for stage in RestartStage::ALL {
        put(
            &stage_metric(stage),
            restart.max_stage(stage).as_secs_f64() * 1e3,
        );
    }
    put("restart.bytes_copied", restart.total_bytes_copied() as f64);
    put("restart.pages_shared", restart.total_pages_shared() as f64);
    put(
        "restart.replayed_calls",
        restart.ranks.iter().map(|r| r.replayed_calls).sum::<u64>() as f64,
    );

    for name in LAYERS {
        // A layer the workload's stack does not hold reads 0.
        let l = layers.get(name).copied().unwrap_or_default();
        for (m, x) in [
            ("put_s", secs(l.put_ns)),
            ("get_s", secs(l.get_ns)),
            ("epoch_s", secs(l.epoch_ns)),
            ("remove_s", secs(l.remove_ns)),
            ("self_s", secs(l.self_ns)),
            ("puts", l.puts as f64),
            ("gets", l.gets as f64),
            ("get_errors", l.get_errors as f64),
            ("bytes_in", l.bytes_in as f64),
            ("bytes_out", l.bytes_out as f64),
        ] {
            put(&format!("store.{name}.{m}"), x);
        }
    }
    let delta = traced
        .stack
        .delta
        .as_ref()
        .map(|d| d.put_stats())
        .unwrap_or_default();
    put("store.delta.pages_digested", delta.pages_digested as f64);
    put("store.delta.pages_reused", delta.pages_reused as f64);
    v
}

/// Add the codec rates to a traced iteration's values.
pub fn add_codec(v: &mut Values, codec: &CodecRates) {
    v.insert("codec.encode_MBps".into(), codec.encode_mbps);
    v.insert("codec.decode_MBps".into(), codec.decode_mbps);
    v.insert("digest.MBps".into(), codec.digest_mbps);
}

/// Dirty share of the pages captured by every checkpoint after the
/// first (the first has no base epoch, so all its pages are dirty).
pub fn dirty_frac(ckpts: &[mana_core::CkptReport]) -> f64 {
    let later = ckpts.iter().skip(1);
    let dirty: u64 = later.clone().map(|c| c.total_dirty_pages()).sum();
    let clean: u64 = later.map(|c| c.total_clean_pages_shared()).sum();
    if dirty + clean == 0 {
        0.0
    } else {
        dirty as f64 / (dirty + clean) as f64
    }
}

/// Median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-metric medians over iterations.
pub fn medians(rows: &[Values]) -> Values {
    let mut out = Values::new();
    if let Some(first) = rows.first() {
        for k in first.keys() {
            let xs: Vec<f64> = rows.iter().filter_map(|r| r.get(k).copied()).collect();
            out.insert(k.clone(), median(&xs));
        }
    }
    out
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
/// with `metrics` in the order of `names`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(String, &str)],
    values: &Values,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let x = values.get(name).copied().unwrap_or(0.0);
            let x = if x.is_finite() { x } else { 0.0 };
            format!("\"{name}\": {{\"value\": {x}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
