//! `perfbench` — the fixed-work end-to-end benchmark of the hta workspace.
//!
//! ```text
//! perfbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] [--hta PATH]
//! ```
//!
//! Every workload replays a seed-generated script to completion; the
//! number of passes is a fixed function of `--seconds`, so two runs with
//! the same arguments do identical work. With `--trace 0` the last stdout
//! line is a JSON object with the end-to-end metrics; with `--trace 1` it
//! carries the per-layer metrics of the traced run instead. Every metric
//! (including ones not in the JSON) is printed above it with its unit and
//! sample counts. A failed correctness gate prints `"correct": false` and
//! exits with status 1.

mod client;
mod layers;
mod report;
mod script;
mod serve;
mod simulate;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

use report::Outcome;
use script::Shape;
use serve::ServeCfg;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// The end-to-end metrics every run reports (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("assign_p50_ms", "ms"),
    ("assign_tail_ms", "ms"),
    ("batch_p50_ms", "ms"),
    ("motivation_mean", "eq3"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced run (`--trace 1`), with units. A
/// layer that does no work in a workload reports 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("net.health_p50_ms", "ms"),
    ("net.overhead_assign_p50_ms", "ms"),
    ("net.overhead_complete_p50_ms", "ms"),
    ("net.overhead_read_p50_ms", "ms"),
    ("net.rejected_503", "count"),
    ("net.queue_depth_max", "count"),
    ("server.assign_p50_ms", "ms"),
    ("server.complete_p50_ms", "ms"),
    ("server.read_p50_ms", "ms"),
    ("server.batch_p50_ms", "ms"),
    ("server.unattributed_share", "share"),
    ("server.shadow_divergent", "count"),
    ("index.build_s", "s"),
    ("index.topk_p50_ms", "ms"),
    ("index.pool_p50_ms", "ms"),
    ("index.pool_members", "count"),
    ("index.requery_share", "share"),
    ("core.edge_cache_build_s", "s"),
    ("core.edge_refresh_p50_ms", "ms"),
    ("core.edges", "count"),
    ("core.edge_enum_ms", "ms"),
    ("core.solve_p50_ms", "ms"),
    ("kernels.rows_per_s", "1/s"),
    ("matching.matching_ms", "ms"),
    ("matching.lsap_ms", "ms"),
    ("matching.repair_p50_ms", "ms"),
    ("matching.rebuild_share", "share"),
    ("crowd.cohort_p50_ms", "ms"),
    ("crowd.solve_share", "share"),
    ("snapshot.encode_p50_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.delta_p50_ms", "ms"),
    ("snapshot.delta_bytes", "bytes"),
    ("snapshot.apply_p50_ms", "ms"),
    ("cluster.publish_p50_ms", "ms"),
    ("cluster.epochs_per_write", "ratio"),
    ("trace.overhead_share", "share"),
];

/// How a workload runs.
#[derive(Clone, Copy)]
enum Kind {
    Serve(ServeCfg),
    Simulate { sessions: usize },
}

/// A workload: its name, what it runs, and how long one pass takes on the
/// reference machine (2 cores), which fixes the pass count for a given
/// `--seconds`.
struct Workload {
    name: &'static str,
    kind: Kind,
    pass_s: f64,
}

const SERVE_SHAPE: Shape = Shape {
    workers: 24,
    rounds: 6,
    batch: 8,
    topk_k: 16,
};

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "serve-dense-4k",
            kind: Kind::Serve(ServeCfg {
                catalog: 4096,
                shape: SERVE_SHAPE,
                replicated: false,
            }),
            pass_s: 1.9,
        },
        Workload {
            name: "serve-sparse-100k",
            kind: Kind::Serve(ServeCfg {
                catalog: 100_000,
                // Retrieval cost depends on each worker's keywords, so this
                // workload spreads the same request count over twice the
                // workers.
                shape: Shape {
                    workers: 48,
                    rounds: 3,
                    ..SERVE_SHAPE
                },
                replicated: false,
            }),
            pass_s: 3.75,
        },
        Workload {
            name: "serve-replicated-4k",
            kind: Kind::Serve(ServeCfg {
                catalog: 4096,
                // Every mutation publishes a full snapshot (~10 ms here),
                // so the sessions are fewer and shorter than on the dense
                // workload: 4 workers, 4-worker batches.
                shape: Shape {
                    workers: 4,
                    rounds: 3,
                    batch: 4,
                    topk_k: 16,
                },
                replicated: true,
            }),
            pass_s: 4.7,
        },
        Workload {
            name: "simulate-4k",
            kind: Kind::Simulate { sessions: 10 },
            pass_s: 6.25,
        },
    ]
}

/// `<workload>-<seed>` of the run in progress, naming its span dump.
static LABEL: Mutex<String> = Mutex::new(String::new());

/// Scratch directory inside the checkout (snapshot files, span dumps).
pub fn tmp_dir() -> PathBuf {
    let dir = std::env::var_os("PERFBENCH_TMP").map_or_else(
        || PathBuf::from(".bench_build/perfbench-tmp"),
        PathBuf::from,
    );
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Write a traced run's spans out, once the run has finished measuring.
pub fn write_spans(t: &trace::Tracer) {
    let label = LABEL.lock().expect("label lock").clone();
    let path = tmp_dir().join(format!("spans-{label}.jsonl"));
    if let Err(e) = std::fs::write(&path, t.to_jsonl()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    hta: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        hta: PathBuf::from("target/release/hta"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            "--hta" => args.hta = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

fn run_one(w: &Workload, args: &Args) -> Outcome {
    // A traced run measures one untraced pass as its baseline.
    let passes = if args.trace {
        1
    } else {
        ((args.seconds / w.pass_s).round() as usize).max(2)
    };
    let mut out = match w.kind {
        Kind::Serve(cfg) => serve::run(&cfg, args.seed, passes, args.trace),
        Kind::Simulate { sessions } => {
            simulate::run(sessions, args.seed, passes, args.trace, &args.hta)
        }
    };
    out.finish();
    out
}

fn json_line(out: &Outcome, trace: bool) -> String {
    let correct = out.errors.is_empty();
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let source: &BTreeMap<&str, f64> = if trace { &out.layers } else { &out.e2e };
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = source.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let all = workloads();
    let chosen: Vec<&Workload> = all
        .iter()
        .filter(|w| args.workload == "all" || w.name == args.workload)
        .collect();
    if chosen.is_empty() {
        let names: Vec<&str> = all.iter().map(|w| w.name).collect();
        eprintln!(
            "error: --workload must be one of {} or all",
            names.join(", ")
        );
        return ExitCode::from(2);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ok = true;
    for w in chosen {
        *LABEL.lock().expect("label lock") = format!("{}-{}", w.name, args.seed);
        let started = Instant::now();
        let out = run_one(w, &args);
        println!(
            "workload {} seed={} seconds={} trace={} nproc={cores} simd={} wall_s={:.3}",
            w.name,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            hta_core::kernels::mode_name(),
            started.elapsed().as_secs_f64()
        );
        for line in out.notes.iter().chain(&out.report) {
            println!("  {line}");
        }
        if args.trace {
            for (name, _) in PER_LAYER {
                println!(
                    "  layer {name} = {}",
                    out.layers.get(name).copied().unwrap_or(0.0)
                );
            }
        }
        for e in &out.errors {
            println!("  GATE FAILED: {e}");
        }
        ok &= out.errors.is_empty();
        println!("{}", json_line(&out, args.trace));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
