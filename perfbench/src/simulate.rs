//! The `simulate-4k` workload: the Figure 5 online experiment exactly as
//! `hta simulate --catalog 4096 --sessions N --seed S` runs it (shipped
//! defaults: full candidates, warm start off), driven through the crowd
//! crate's public `Platform` so each solve can be timed. The loop is the
//! arm/cohort loop of `hta_crowd::run_with`; the printed strategy table is
//! checked byte for byte against the `hta` binary's.
//!
//! Each arm's `Platform::new` (keyword index + diversity edge cache) is a
//! set-up; the cohorts that follow are the measured work. No network,
//! server or index retrieval is involved.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;
use std::rc::Rc;
use std::time::Instant;

use hta_core::motivation::motivation;
use hta_core::solver::{HtaGre, PhaseTimings, SparseWarmState, WarmState};
use hta_core::sparse::SparseEdgeCache;
use hta_core::{DiversityEdgeCache, Instance, KeywordVec, SolveOutcome, Solver, WeightedEdge};
use hta_crowd::metrics::summarize;
use hta_crowd::population::generate;
use hta_crowd::{LiveWorker, OnlineConfig, Platform, Strategy};
use hta_datagen::crowdflower::{CrowdflowerCatalog, CrowdflowerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::{kernel_rows_per_s, self_time_line};
use crate::report::{peak_rss_mb, Outcome, Samples};
use crate::script::SplitMix;
use crate::stats::{median, p50};
use crate::trace::Tracer;

/// Catalog size of the workload.
pub const CATALOG: usize = 4096;

/// One solve seen by the timing wrapper.
struct SolveRec {
    start: Instant,
    end: Instant,
    workers: usize,
    timings: PhaseTimings,
    edges: usize,
    motivations: Vec<f64>,
}

/// The shipped solver behind a wrapper that times every call and keeps
/// the Eq. 3 motivation of each set it hands out. Every `Solver` entry
/// point is forwarded, so the wrapped solver takes the same route.
struct Timed {
    inner: HtaGre,
    log: Rc<RefCell<Vec<SolveRec>>>,
}

impl Timed {
    fn record(
        &self,
        inst: &Instance,
        edges: usize,
        f: impl FnOnce() -> SolveOutcome,
    ) -> SolveOutcome {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let motivations = (0..inst.n_workers())
            .filter(|&q| !out.assignment.tasks_of(q).is_empty())
            .map(|q| motivation(inst, q, out.assignment.tasks_of(q)))
            .collect();
        self.log.borrow_mut().push(SolveRec {
            start,
            end,
            workers: inst.n_workers(),
            timings: out.timings,
            edges,
            motivations,
        });
        out
    }
}

impl Solver for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn solve(&self, inst: &Instance, rng: &mut dyn rand::Rng) -> SolveOutcome {
        self.record(inst, 0, || self.inner.solve(inst, rng))
    }

    fn solve_with_diversity_edges(
        &self,
        inst: &Instance,
        sorted_edges: &[WeightedEdge],
        rng: &mut dyn rand::Rng,
    ) -> SolveOutcome {
        self.record(inst, sorted_edges.len(), || {
            self.inner
                .solve_with_diversity_edges(inst, sorted_edges, rng)
        })
    }

    fn solve_warm(
        &self,
        inst: &Instance,
        cache: &DiversityEdgeCache,
        warm: &mut WarmState,
        open: &[u32],
        rng: &mut dyn rand::Rng,
    ) -> SolveOutcome {
        self.record(inst, 0, || {
            self.inner.solve_warm(inst, cache, warm, open, rng)
        })
    }

    fn solve_warm_sparse(
        &self,
        inst: &Instance,
        cache: &SparseEdgeCache,
        warm: &mut SparseWarmState,
        open: &[u32],
        rng: &mut dyn rand::Rng,
    ) -> SolveOutcome {
        self.record(inst, 0, || {
            self.inner.solve_warm_sparse(inst, cache, warm, open, rng)
        })
    }
}

/// The arm RNG seed offsets of `hta_crowd::run_with`.
fn strategy_seed(s: Strategy) -> u64 {
    match s {
        Strategy::HtaGre => 0x01,
        Strategy::HtaGreRel => 0x02,
        Strategy::HtaGreDiv => 0x03,
        Strategy::Random => 0x04,
    }
}

/// The configuration `hta simulate --catalog 4096 --sessions N --seed S`
/// builds.
fn config(sessions: usize, seed: u64) -> OnlineConfig {
    OnlineConfig {
        sessions_per_strategy: sessions,
        catalog: CrowdflowerConfig {
            n_tasks: CATALOG,
            ..Default::default()
        },
        seed,
        ..Default::default()
    }
}

/// The strategy table in the format `hta simulate` prints it.
fn table_header() -> String {
    format!(
        "{:<13} {:>9} {:>10} {:>14} {:>10} {:>11}",
        "strategy", "%correct", "completed", "tasks/session", "mean min", "%>18.2min"
    )
}

/// What one pass of the experiment measured.
struct Pass {
    setup_s: Vec<f64>,
    cohort_s: f64,
    sessions: usize,
    completed: usize,
    table: String,
    solves: Vec<SolveRec>,
    /// Mean Eq. 3 motivation of the sets each solver arm handed out.
    arm_motivation: Vec<f64>,
}

fn run_pass(
    cfg: &OnlineConfig,
    catalog: &CrowdflowerCatalog,
    population: &[LiveWorker],
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let mut pass = Pass {
        setup_s: Vec::new(),
        cohort_s: 0.0,
        sessions: 0,
        completed: 0,
        table: table_header(),
        solves: Vec::new(),
        arm_motivation: Vec::new(),
    };
    for strategy in Strategy::ALL {
        let log = Rc::new(RefCell::new(Vec::new()));
        let setup = Instant::now();
        let solver = Timed {
            inner: HtaGre::structured()
                .without_flip()
                .with_threads(cfg.platform.solver_threads),
            log: Rc::clone(&log),
        };
        let mut platform =
            Platform::new(catalog, cfg.platform.clone()).with_solver(Box::new(solver));
        pass.setup_s.push(setup.elapsed().as_secs_f64());
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ strategy_seed(strategy));
        let mut records = Vec::new();
        let mut next_worker = 0usize;
        while records.len() < cfg.sessions_per_strategy {
            let take = cfg
                .cohort_size
                .min(cfg.sessions_per_strategy - records.len());
            let cohort: Vec<&LiveWorker> = (0..take)
                .map(|k| &population[(next_worker + k) % population.len()])
                .collect();
            next_worker += take;
            let start = Instant::now();
            let recs = match tracer.as_deref_mut() {
                Some(t) => {
                    t.next_request();
                    let before = log.borrow().len();
                    let recs = t.span("crowd.cohort", |_| {
                        platform.run_cohort(strategy, &cohort, &mut rng)
                    });
                    let parent = t.last();
                    for s in &log.borrow()[before..] {
                        t.record("core.solve", s.start, s.end, Some(parent));
                    }
                    recs
                }
                None => platform.run_cohort(strategy, &cohort, &mut rng),
            };
            pass.cohort_s += start.elapsed().as_secs_f64();
            records.extend(recs);
        }
        pass.sessions += records.len();
        pass.completed += records.iter().map(|r| r.n_completed()).sum::<usize>();
        let s = summarize(&records, cfg.retention_probe_minutes);
        let _ = write!(
            pass.table,
            "\n{:<13} {:>9.1} {:>10} {:>14.1} {:>10.1} {:>11.0}",
            strategy.name(),
            s.percent_correct,
            s.total_completed,
            s.completed_per_session,
            s.mean_session_minutes,
            s.retention_at_probe,
        );
        drop(platform);
        let solves = Rc::try_unwrap(log).map_or_else(|_| Vec::new(), RefCell::into_inner);
        let sets: Vec<f64> = solves
            .iter()
            .flat_map(|r| r.motivations.iter().copied())
            .collect();
        if !sets.is_empty() {
            pass.arm_motivation
                .push(sets.iter().sum::<f64>() / sets.len() as f64);
        }
        pass.solves.extend(solves);
    }
    pass
}

/// The strategy table `hta simulate` prints for the same flags.
fn cli_table(hta: &Path, sessions: usize, seed: u64) -> Result<String, String> {
    let out = Command::new(hta)
        .args(["simulate", "--catalog", &CATALOG.to_string()])
        .args([
            "--sessions",
            &sessions.to_string(),
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", hta.display()))?;
    if !out.status.success() {
        return Err(format!(
            "hta simulate failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("strategy"))
        .collect();
    Ok(lines.join("\n"))
}

/// Run `passes` passes (plus, with `trace`, one traced pass and the layer
/// probes), then check the table against the `hta` binary.
pub fn run(sessions: usize, seed: u64, passes: usize, trace: bool, hta: &Path) -> Outcome {
    // Each pass simulates its own seeded arm streams; the catalog and the
    // worker population are the experiment's fixed defaults.
    let configs: Vec<OnlineConfig> = (0..passes as u64)
        .map(|i| config(sessions, SplitMix::new(seed ^ (i << 32)).next_u64() >> 1))
        .collect();
    let catalog = CrowdflowerCatalog::generate(&configs[0].catalog);
    let population = generate(&catalog.space, &configs[0].population);
    let mut out = Outcome {
        traced: trace,
        ..Outcome::default()
    };

    let mut results: Vec<Pass> = Vec::new();
    for cfg in &configs {
        results.push(run_pass(cfg, &catalog, &population, None));
        if results.len() == 1 {
            out.peak_rss_mb = peak_rss_mb();
        }
    }
    let mut tracer = Tracer::new();
    let traced = trace.then(|| run_pass(&configs[0], &catalog, &population, Some(&mut tracer)));

    for p in results.iter().chain(&traced) {
        out.attempted += p.sessions;
    }
    if traced.as_ref().is_some_and(|t| t.table != results[0].table) {
        out.errors
            .push("the traced pass printed another strategy table".to_owned());
    }
    match cli_table(hta, sessions, configs[0].seed) {
        Ok(t) if t == results[0].table => {}
        Ok(t) => out.errors.push(format!(
            "strategy table differs from hta simulate's:\n{}\n--- hta simulate ---\n{t}",
            results[0].table
        )),
        Err(e) => out.errors.push(e),
    }

    let mut s = Samples::default();
    for p in &results {
        for r in &p.solves {
            let ms = r.end.duration_since(r.start).as_secs_f64() * 1e3;
            if r.workers == 1 {
                s.assign.push(ms)
            } else {
                s.batch.push(ms)
            }
        }
    }
    let setup: Vec<f64> = results
        .iter()
        .flat_map(|p| p.setup_s.iter().copied())
        .collect();
    // Completed tasks per second of simulation: the crowd's unit of work
    // (the paper's Fig. 5b throughput). Sessions per second would mix in
    // how long the seed's simulated workers happen to stay.
    let rate: Vec<f64> = results
        .iter()
        .map(|p| p.completed as f64 / p.cohort_s)
        .collect();
    let per_s: Vec<f64> = results
        .iter()
        .map(|p| p.sessions as f64 / p.cohort_s)
        .collect();
    out.metric(
        "setup_s",
        median(&setup),
        "s",
        &format!("median of {} Platform::new", setup.len()),
        true,
    );
    out.metric(
        "throughput_per_s",
        median(&rate),
        "1/s",
        &format!(
            "completed tasks per second, median of {} passes",
            rate.len()
        ),
        true,
    );
    out.metric(
        "sessions_per_s",
        median(&per_s),
        "1/s",
        &format!("median of {} passes", per_s.len()),
        false,
    );
    out.p50_metric("assign_p50_ms", &s.assign, true);
    out.tail_metric("assign_tail_ms", &s.assign, 0.25, true);
    out.p50_metric("batch_p50_ms", &s.batch, true);
    // Averaged per solver arm first: the arms' weights differ (relevance
    // only, diversity only, adaptive), and how many sets each hands out
    // depends on how long the seed's sessions last.
    let arms: Vec<f64> = results
        .iter()
        .flat_map(|p| p.arm_motivation.iter().copied())
        .collect();
    let sets: usize = results
        .iter()
        .flat_map(|p| &p.solves)
        .map(|r| r.motivations.len())
        .sum();
    out.metric(
        "motivation_mean",
        arms.iter().sum::<f64>() / arms.len().max(1) as f64,
        "eq3",
        &format!("mean of {} per-arm means over {sets} sets", arms.len()),
        true,
    );
    let completed: usize = results.iter().map(|p| p.completed).sum();
    let total: usize = results.iter().map(|p| p.sessions).sum();
    out.metric(
        "tasks_per_session",
        completed as f64 / total as f64,
        "tasks",
        &format!("{total} sessions"),
        false,
    );
    let seeds: Vec<String> = configs.iter().map(|c| c.seed.to_string()).collect();
    out.note(format!(
        "passes={passes} catalog={CATALOG} sessions_per_arm={sessions} pass_seeds={}",
        seeds.join(",")
    ));
    out.note(format!(
        "strategy table of the first pass (= hta simulate --seed {}):\n{}",
        configs[0].seed, results[0].table
    ));

    if let Some(t) = &traced {
        let untraced = median(&results.iter().map(|p| p.cohort_s).collect::<Vec<_>>());
        let v = &mut out.layers;
        v.insert("trace.overhead_share", t.cohort_s / untraced - 1.0);
        let cohorts = tracer.durations_ms("crowd.cohort");
        let solves = tracer.durations_ms("core.solve");
        v.insert("crowd.cohort_p50_ms", p50(&cohorts));
        v.insert(
            "crowd.solve_share",
            solves.iter().sum::<f64>() / cohorts.iter().sum::<f64>(),
        );
        v.insert("core.solve_p50_ms", p50(&solves));
        let ms = |f: fn(&PhaseTimings) -> std::time::Duration| -> f64 {
            t.solves
                .iter()
                .map(|r| f(&r.timings).as_secs_f64() * 1e3)
                .sum()
        };
        v.insert("core.edge_enum_ms", ms(|p| p.edge_enum));
        v.insert("matching.matching_ms", ms(|p| p.matching));
        v.insert("matching.lsap_ms", ms(|p| p.lsap));
        v.insert(
            "core.edges",
            median(&t.solves.iter().map(|r| r.edges as f64).collect::<Vec<_>>()),
        );
        let tasks: Vec<hta_core::Task> = catalog.tasks.iter().map(|t| t.task.clone()).collect();
        let start = Instant::now();
        let cache =
            DiversityEdgeCache::build(&tasks, &hta_core::Jaccard, hta_par::solver_threads(0));
        v.insert("core.edge_cache_build_s", start.elapsed().as_secs_f64());
        drop(cache);
        let kws: Vec<&KeywordVec> = tasks.iter().map(|t| &t.keywords).collect();
        let queries: Vec<KeywordVec> = population.iter().map(|w| w.keywords.clone()).collect();
        v.insert("kernels.rows_per_s", kernel_rows_per_s(&kws, &queries));
        out.notes.push(self_time_line(&tracer, 0));
        crate::write_spans(&tracer);
    }
    out
}
