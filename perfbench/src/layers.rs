//! The per-layer split of the serve workloads, from the traced run.
//!
//! The script is replayed in process, without HTTP, through
//! `PlatformState`'s public calls (the server layer). Beside every
//! assignment the benchmark re-runs the same solve route itself through
//! the public APIs of the layers below — index pool, edge cache, warm
//! matching, solver — on the same inputs, with a span around each call.
//! The replay follows the server's real results, so the two never drift;
//! a solve whose sets differ from the server's is counted in
//! `server.shadow_divergent`. On a replicated workload every mutation is
//! also encoded, diffed, applied and published as the primary does.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hta_cluster::{ReplicationHub, DEFAULT_RETAIN};
use hta_core::edges::edge_cache_cap;
use hta_core::metric::Jaccard;
use hta_core::solver::{
    solve_open_subset_sparse_warm, solve_open_subset_warm, HtaGre, SolveOutcome, SparseWarmState,
    WarmState,
};
use hta_core::sparse::SparseEdgeCache;
use hta_core::{
    keywords_fingerprint, DiversityEdgeCache, Instance, KeywordVec, PackedCatalog, Task, TaskId,
    Weights, Worker, WorkerId,
};
use hta_datagen::amt::AmtWorkload;
use hta_index::{CandidatePool, PoolMaintainer, PoolParams, ShardedIndex};
use hta_server::{AssignResult, PlatformState};
use hta_snapshot::delta::SnapshotDelta;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::script::{Read, Script, Write};
use crate::serve::{STATE_SEED, XMAX};
use crate::stats::{median, p50};
use crate::trace::{self_times, Tracer};

/// Per-layer values plus context lines.
#[derive(Debug, Default)]
pub struct Layers {
    /// Metric name → value.
    pub values: BTreeMap<&'static str, f64>,
    /// Context lines (self time by layer).
    pub notes: Vec<String>,
}

/// Rows per second of the one-vs-many Jaccard kernel: every query
/// against the whole packed catalog, repeated for at least 100 ms.
pub fn kernel_rows_per_s(tasks: &[&KeywordVec], queries: &[KeywordVec]) -> f64 {
    let nbits = tasks.iter().map(|k| k.nbits()).max().unwrap_or(0);
    let packed = PackedCatalog::from_vecs(nbits, tasks.iter().copied());
    let mut out = vec![0.0; packed.len()];
    let start = Instant::now();
    let mut rows = 0usize;
    while rows == 0 || start.elapsed() < Duration::from_millis(100) {
        for q in queries {
            hta_core::kernels::jaccard_one_vs_many(q, &packed, 0, &mut out);
            std::hint::black_box(&out);
            rows += packed.len();
        }
    }
    rows as f64 / start.elapsed().as_secs_f64()
}

/// The solve route re-run beside the server (one per replay, so the
/// variants' size difference does not matter).
#[allow(clippy::large_enum_variant)]
enum Route {
    Dense {
        cache: DiversityEdgeCache,
        warm: WarmState,
    },
    Sparse {
        maint: PoolMaintainer,
        cache: SparseEdgeCache,
        warm: Option<SparseWarmState>,
    },
}

struct Shadow<'a> {
    cat: &'a AmtWorkload,
    index: ShardedIndex,
    route: Route,
    rng: StdRng,
    worker_kw: Vec<KeywordVec>,
    divergent: usize,
    pool_members: Vec<f64>,
    requery: Vec<f64>,
    edges: Vec<f64>,
    repaired: Vec<bool>,
}

impl<'a> Shadow<'a> {
    fn new(cat: &'a AmtWorkload, worker_kw: Vec<KeywordVec>, t: &mut Tracer) -> Self {
        let pairs: Vec<(u32, &KeywordVec)> = cat
            .tasks
            .tasks()
            .iter()
            .map(|t| (t.id.0, &t.keywords))
            .collect();
        let index = t.span("index.build", |_| {
            ShardedIndex::build(cat.space.len(), &pairs, 0)
        });
        let route = if cat.tasks.len() <= edge_cache_cap(0) {
            let cache = t.span("core.edge_cache_build", |_| {
                DiversityEdgeCache::build(cat.tasks.tasks(), &Jaccard, hta_par::solver_threads(0))
            });
            let warm = WarmState::new(&cache);
            Route::Dense { cache, warm }
        } else {
            let fp = keywords_fingerprint(cat.tasks.tasks().iter().map(|t| &t.keywords));
            Route::Sparse {
                maint: PoolMaintainer::new(hta_index::CandidateMode::DEFAULT_K),
                cache: SparseEdgeCache::new(fp, cat.tasks.len()),
                warm: None,
            }
        };
        Self {
            cat,
            index,
            route,
            rng: StdRng::seed_from_u64(STATE_SEED),
            worker_kw,
            divergent: 0,
            pool_members: Vec::new(),
            requery: Vec::new(),
            edges: Vec::new(),
            repaired: Vec::new(),
        }
    }

    /// Re-run the solve the server just did for `cohort`, then apply the
    /// server's real result to the shadow's index.
    fn solve(
        &mut self,
        t: &mut Tracer,
        name: &'static str,
        cohort: &[usize],
        real: &[AssignResult],
    ) {
        let workers: Vec<Worker> = cohort
            .iter()
            .zip(real)
            .enumerate()
            .map(|(li, (&w, r))| {
                Worker::new(WorkerId(li as u32), self.worker_kw[w].clone())
                    .with_weights(Weights::new(r.alpha, r.beta))
            })
            .collect();
        let tasks = &self.cat.tasks;
        let (index, route, rng) = (&self.index, &mut self.route, &mut self.rng);
        let mut stats = (0.0, 0.0);
        let (open, out) = t.span(name, |t| {
            let members: Vec<u32> = match route {
                Route::Dense { .. } => t.span("index.pool", |_| {
                    let k = hta_index::CandidateMode::DEFAULT_K;
                    CandidatePool::generate(index, &workers, XMAX, &PoolParams::with_k(k))
                        .members()
                        .to_vec()
                }),
                Route::Sparse { maint, cache, warm } => {
                    let kw: Vec<(u64, &KeywordVec)> = cohort
                        .iter()
                        .zip(&workers)
                        .map(|(&w, lw)| (w as u64, &lw.keywords))
                        .collect();
                    let pool = t.span("index.pool", |_| maint.pool_for(index, &kw, XMAX).0);
                    stats.0 = maint.last_refreshed() as f64 / cohort.len() as f64;
                    let weight = |u: u32, v: u32| {
                        hta_core::kernels::jaccard_distance(
                            &tasks.get(TaskId(u)).keywords,
                            &tasks.get(TaskId(v)).keywords,
                        )
                    };
                    t.span("core.edge_refresh", |_| {
                        cache.refresh(pool.members(), weight)
                    });
                    if warm.is_none() {
                        *warm = Some(SparseWarmState::new(cache));
                    }
                    pool.members().to_vec()
                }
            };
            let open: Vec<usize> = members.iter().map(|&m| m as usize).collect();
            let local: Vec<Task> = open
                .iter()
                .enumerate()
                .map(|(li, &ci)| {
                    let task = tasks.get(TaskId(ci as u32));
                    Task::new(TaskId(li as u32), task.group, task.keywords.clone())
                })
                .collect();
            let inst = Instance::new(local, workers.clone(), XMAX).expect("valid instance");
            let solver = HtaGre::structured().without_flip().with_threads(0);
            let out: SolveOutcome = t.span("core.solve", |_| match route {
                Route::Dense { cache, warm } => {
                    solve_open_subset_warm(&solver, &inst, &open, Some(cache), Some(warm), rng)
                }
                Route::Sparse { cache, warm, .. } => solve_open_subset_sparse_warm(
                    &solver,
                    &inst,
                    &open,
                    Some(cache),
                    warm.as_mut(),
                    rng,
                ),
            });
            let solve = t.last();
            let tm = out.timings;
            t.child(solve, "core.edge_enum", Duration::ZERO, tm.edge_enum);
            t.child(solve, "matching.matching", tm.edge_enum, tm.matching);
            t.child(solve, "matching.lsap", tm.edge_enum + tm.matching, tm.lsap);
            stats.1 = open.len() as f64;
            (open, out)
        });
        // Counted outside the spans: the edges the solve ran over.
        let open_u32: Vec<u32> = open.iter().map(|&i| i as u32).collect();
        let (edges, repaired) = match &self.route {
            Route::Dense { cache, warm } => (
                cache.filter_sorted(&open_u32).len(),
                warm.last_stats().repaired,
            ),
            Route::Sparse { cache, warm, .. } => (
                cache.filter_sorted(&open_u32).len(),
                warm.as_ref().is_some_and(|w| w.last_stats().repaired),
            ),
        };
        self.edges.push(edges as f64);
        self.repaired.push(repaired);
        self.pool_members.push(stats.1);
        if let Route::Sparse { .. } = self.route {
            self.requery.push(stats.0);
        }
        for (li, r) in real.iter().enumerate() {
            let mine: Vec<usize> = out
                .assignment
                .tasks_of(li)
                .iter()
                .map(|&l| open[l])
                .collect();
            if mine != r.tasks {
                self.divergent += 1;
            }
            for &ci in &r.tasks {
                self.index.remove(ci as u32);
                if let Route::Sparse { maint, .. } = &mut self.route {
                    maint.apply_remove(ci as u32);
                }
            }
        }
    }
}

/// Publication of every mutation, as a primary does it.
struct Publisher {
    hub: ReplicationHub,
    prev: Vec<u8>,
    bytes: Vec<f64>,
    delta_bytes: Vec<f64>,
    writes: usize,
    mismatches: usize,
}

impl Publisher {
    fn new(state: &PlatformState) -> Self {
        let hub = ReplicationHub::new(DEFAULT_RETAIN);
        let prev = state.snapshot_bytes();
        hub.publish(prev.clone());
        Self {
            hub,
            prev,
            bytes: Vec::new(),
            delta_bytes: Vec::new(),
            writes: 0,
            mismatches: 0,
        }
    }

    fn publish(&mut self, t: &mut Tracer, state: &PlatformState) {
        let bytes = t.span("snapshot.encode", |_| state.snapshot_bytes());
        let epoch = self.hub.epoch();
        let delta = t.span("snapshot.delta", |_| {
            SnapshotDelta::compute(&self.prev, &bytes, epoch, epoch + 1)
        });
        match delta {
            Ok(delta) => {
                self.delta_bytes.push(delta.carried_bytes() as f64);
                let applied = t.span("snapshot.apply", |_| delta.apply(&self.prev));
                if applied.as_deref() != Ok(bytes.as_slice()) {
                    self.mismatches += 1;
                }
            }
            Err(_) => self.mismatches += 1,
        }
        self.bytes.push(bytes.len() as f64);
        let copy = bytes.clone();
        t.span("cluster.publish", |_| self.hub.publish(copy));
        self.writes += 1;
        self.prev = bytes;
    }
}

fn registered_keywords(cat: &AmtWorkload, script: &Script) -> Vec<KeywordVec> {
    let mut kws: Vec<KeywordVec> = script
        .keywords
        .iter()
        .map(|names| {
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            cat.space.vector_of_known(&names)
        })
        .collect();
    // The warm-up worker registers with worker 0's interests.
    kws.push(kws[0].clone());
    kws
}

/// Replay the script in process and measure every layer it crosses.
pub fn replay_serve(
    cat: &AmtWorkload,
    script: &Script,
    replicated: bool,
) -> Result<Layers, String> {
    let mut t = Tracer::new();
    let state = PlatformState::new(cat.space.clone(), cat.tasks.clone(), XMAX, STATE_SEED);
    let names: Vec<Vec<&str>> = script
        .keywords
        .iter()
        .chain(std::iter::once(&script.keywords[0]))
        .map(|k| k.iter().map(String::as_str).collect())
        .collect();
    for n in &names {
        state.register_worker(n).map_err(|e| e.to_string())?;
    }
    let worker_kw = registered_keywords(cat, script);
    let mut shadow = Shadow::new(cat, worker_kw.clone(), &mut t);
    let mut publisher = replicated.then(|| Publisher::new(&state));

    // Warm-up (request 0, excluded from the per-request figures).
    let warmup = script.keywords.len();
    let first = state.assign(warmup).map_err(|e| e.to_string())?;
    shadow.solve(&mut t, "shadow.warmup", &[warmup], &[first]);
    if let Some(p) = publisher.as_mut() {
        p.publish(&mut t, &state);
    }
    let from = t.spans().len();

    let mut reads = script.reads.iter().peekable();
    for (step, write) in script.writes.iter().enumerate() {
        t.next_request();
        let (cohort, results) = match write {
            Write::Assign(w) => {
                let r = t
                    .span("server.assign", |_| state.assign(*w))
                    .map_err(|e| e.to_string())?;
                shadow.solve(&mut t, "shadow.assign", &[*w], std::slice::from_ref(&r));
                (vec![*w], vec![r])
            }
            Write::Batch(ws) => {
                let rs = t
                    .span("server.batch", |_| state.assign_batch(ws))
                    .map_err(|e| e.to_string())?;
                shadow.solve(&mut t, "shadow.batch", ws, &rs);
                (ws.clone(), rs)
            }
        };
        if let Some(p) = publisher.as_mut() {
            p.publish(&mut t, &state);
        }
        let mut pos = 0;
        for (w, r) in cohort.iter().zip(&results) {
            for &task in &r.tasks {
                let ok = script.outcome(step, pos);
                pos += 1;
                t.span("server.complete", |_| {
                    state.complete_with_outcome(*w, task, ok)
                })
                .map_err(|e| e.to_string())?;
                if let Some(p) = publisher.as_mut() {
                    p.publish(&mut t, &state);
                }
            }
        }
        while let Some((_, read)) = reads.next_if(|(after, _)| *after == step + 1) {
            match *read {
                Read::Topk(w) => {
                    let k = script.shape.topk_k;
                    t.span("server.read", |_| state.worker_topk(w, k))
                        .map_err(|e| e.to_string())?;
                    let idx = &shadow.index;
                    t.span("index.topk", |_| idx.top_k(&worker_kw[w], k));
                }
                Read::Reputation(w) => {
                    t.span("server.read", |_| state.reputation(w))
                        .map_err(|e| e.to_string())?;
                }
                Read::Stats => {
                    t.span("server.read", |_| state.stats());
                }
            }
        }
    }

    let spans = &t.spans()[from..];
    let selfs = self_times(t.spans());
    let dur = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64 / 1e6)
            .collect()
    };
    let total = |name: &str| dur(name).iter().sum::<f64>();
    let setup_s = |name: &str| t.durations_ms(name).first().copied().unwrap_or(0.0) / 1e3;
    // Attributed parts of each shadow assignment: its span minus its
    // own (glue) self time.
    let parts: Vec<f64> = t
        .spans()
        .iter()
        .zip(&selfs)
        .skip(from)
        .filter(|(s, _)| s.name == "shadow.assign")
        .map(|(s, &own)| (s.dur() - own) as f64 / 1e6)
        .collect();

    let mut l = Layers::default();
    let v = &mut l.values;
    let server_assign = p50(&dur("server.assign"));
    v.insert("server.assign_p50_ms", server_assign);
    v.insert("server.batch_p50_ms", p50(&dur("server.batch")));
    v.insert("server.complete_p50_ms", p50(&dur("server.complete")));
    v.insert("server.read_p50_ms", p50(&dur("server.read")));
    v.insert(
        "server.unattributed_share",
        1.0 - p50(&parts) / server_assign,
    );
    v.insert("server.shadow_divergent", shadow.divergent as f64);
    v.insert("index.build_s", setup_s("index.build"));
    v.insert("index.topk_p50_ms", p50(&dur("index.topk")));
    v.insert("index.pool_p50_ms", p50(&dur("index.pool")));
    v.insert("index.pool_members", median(&shadow.pool_members));
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64 + 0.0;
    v.insert("index.requery_share", mean(&shadow.requery));
    v.insert("core.edge_cache_build_s", setup_s("core.edge_cache_build"));
    v.insert("core.edge_refresh_p50_ms", p50(&dur("core.edge_refresh")));
    v.insert("core.edges", median(&shadow.edges));
    v.insert("core.edge_enum_ms", total("core.edge_enum"));
    v.insert("core.solve_p50_ms", p50(&dur("core.solve")));
    v.insert("matching.matching_ms", total("matching.matching"));
    v.insert("matching.lsap_ms", total("matching.lsap"));
    // On the warm routes the solver reports repair + extraction as its
    // matching phase.
    v.insert("matching.repair_p50_ms", p50(&dur("matching.matching")));
    let rebuilds = shadow.repaired.iter().skip(1).filter(|&&r| !r).count();
    v.insert(
        "matching.rebuild_share",
        rebuilds as f64 / shadow.repaired.len().saturating_sub(1).max(1) as f64,
    );
    if let Some(p) = &publisher {
        if p.mismatches > 0 {
            return Err(format!(
                "{} snapshot deltas did not reproduce their target",
                p.mismatches
            ));
        }
        v.insert("snapshot.encode_p50_ms", p50(&dur("snapshot.encode")));
        v.insert("snapshot.bytes", median(&p.bytes));
        v.insert("snapshot.delta_p50_ms", p50(&dur("snapshot.delta")));
        v.insert("snapshot.delta_bytes", median(&p.delta_bytes));
        v.insert("snapshot.apply_p50_ms", p50(&dur("snapshot.apply")));
        v.insert("cluster.publish_p50_ms", p50(&dur("cluster.publish")));
        v.insert(
            "cluster.epochs_per_write",
            (p.hub.epoch() - 1) as f64 / p.writes as f64,
        );
    }
    let tasks: Vec<&KeywordVec> = cat.tasks.tasks().iter().map(|t| &t.keywords).collect();
    v.insert("kernels.rows_per_s", kernel_rows_per_s(&tasks, &worker_kw));
    l.notes.push(self_time_line(&t, from));
    crate::write_spans(&t);
    Ok(l)
}

/// Self time per layer (the span-name prefix), in ms, over the measured
/// requests.
pub fn self_time_line(t: &Tracer, from: usize) -> String {
    let selfs = self_times(t.spans());
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, own) in t.spans().iter().zip(selfs).skip(from) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *by_layer.entry(layer).or_insert(0.0) += own as f64 / 1e6;
    }
    let parts: Vec<String> = by_layer
        .iter()
        .map(|(k, v)| format!("{k}={v:.1}ms"))
        .collect();
    format!("self time by layer: {}", parts.join(" "))
}
