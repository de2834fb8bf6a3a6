//! The benchmark's command line.
//!
//! ```text
//! perfbench --workload <rank-scale|dense-migrate|sparse-rolling>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one warm-up life cycle, then repeats the life cycle with inputs
//! from `--seed` until `--seconds` have passed (at least three times),
//! and prints a host-facts line followed by the result line: medians of
//! the end-to-end metrics (`--trace 0`) or of the per-layer metrics
//! (`--trace 1`).

use perfbench::host;
use perfbench::lifecycle::{self, Sample, Spec, WorkloadKind};
use perfbench::metrics::{self, Values, DETERMINISTIC, END_TO_END};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fewest measured life cycles per run, however short `--seconds` is.
const MIN_ITERS: usize = 3;

struct Args {
    kind: WorkloadKind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(WorkloadKind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Running totals over every life cycle of the run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Deterministic values of the first life cycle; every later one
    /// (traced or not) must match them exactly.
    reference: Option<[f64; 3]>,
    diverged: bool,
}

impl Tally {
    fn add(&mut self, s: &Sample) {
        self.attempted += s.attempted;
        self.failed += s.failed;
        let det = [s.ckpt_sim_s(), s.restart_sim_s(), s.stored_bytes as f64];
        match self.reference {
            None => self.reference = Some(det),
            Some(r) => self.diverged |= r != det,
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Sized before pinning: the restart pool keeps `nproc` workers.
    let spec = Spec::standard(args.kind, args.seed);
    let (nproc, affinity) = (lifecycle::nproc(), host::affinity());
    // The baton runs one simulated thread at a time, so one CPU changes
    // no simulated result. Across virtual CPUs every handoff is a
    // cross-CPU wake-up whose latency, and the steal time the process is
    // exposed to, follow the host's load rather than the code.
    let pinned = host::pin_to_one_cpu();
    let mut tally = Tally::default();

    // Warm-up: first-touch allocation and lazy set-up stay out of the
    // measured life cycles.
    tally.add(&lifecycle::run(&spec, args.seed, false));

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut rows: Vec<Values> = Vec::new();
    let (mut untraced_wall, mut traced_wall) = (Vec::new(), Vec::new());
    while rows.len() < MIN_ITERS || start.elapsed() < budget {
        if !args.trace {
            let s = lifecycle::run(&spec, args.seed, false);
            tally.add(&s);
            eprintln!(
                "life cycle {}: setup {:.3} s, run {:.3} s, restart {:.3} s",
                rows.len(),
                s.setup_s,
                s.run_s,
                s.restart_s
            );
            rows.push(metrics::end_to_end(&spec, &s, host::peak_rss_mb()));
            continue;
        }
        let (free_wall, free) = lifecycle::run_checkpoint_free(&spec, args.seed);
        // Alternate which run goes first so drift favours neither.
        let untraced_first = rows.len().is_multiple_of(2);
        if untraced_first {
            let u = lifecycle::run(&spec, args.seed, false);
            tally.add(&u);
            untraced_wall.push(u.run_s + u.restart_s);
        }
        let t = lifecycle::run(&spec, args.seed, true);
        tally.add(&t);
        tally.attempted += 1;
        if free.checksums != t.native.checksums {
            tally.failed += 1;
        }
        traced_wall.push(t.run_s + t.restart_s);
        let mut values =
            metrics::per_layer_values(&spec, &t, free_wall, free.app_wall.as_secs_f64());
        let codec = lifecycle::codec_rates(&t);
        tally.attempted += codec.attempted;
        tally.failed += codec.failed;
        metrics::add_codec(&mut values, &codec);
        rows.push(values);
        drop(t);
        if !untraced_first {
            let u = lifecycle::run(&spec, args.seed, false);
            tally.add(&u);
            untraced_wall.push(u.run_s + u.restart_s);
        }
    }

    let mut values = metrics::medians(&rows);
    let names: Vec<(String, &str)> = if args.trace {
        let (u, t) = (
            metrics::median(&untraced_wall),
            metrics::median(&traced_wall),
        );
        values.insert("trace.overhead_pct".into(), (t - u) / u * 100.0);
        metrics::per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    if tally.diverged {
        eprintln!(
            "perfbench: deterministic metrics ({}) differ between life cycles",
            DETERMINISTIC.join(", ")
        );
    }
    let correct = tally.failed == 0 && !tally.diverged;
    println!(
        "{{\"host\": {{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \"cpu_model\": \"{}\", \"profile\": \"{}\", \"affinity\": \"{}\", \"pinned_cpu\": {}, \"iterations\": {}}}}}",
        args.kind.name(),
        args.seed,
        nproc,
        host::cpu_model().replace('"', "'"),
        host::profile(),
        affinity,
        pinned.map_or("null".to_string(), |c| c.to_string()),
        rows.len()
    );
    println!(
        "{}",
        metrics::result_json(correct, tally.attempted, tally.failed, &names, &values)
    );
    ExitCode::SUCCESS
}
