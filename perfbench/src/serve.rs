//! The serve workloads: an in-process `hta-serve` reactor (optionally a
//! primary with one replica) driven over keep-alive HTTP by a closed-loop
//! generator of two connections — one writer replaying the script's
//! assign/complete steps, one reader sending the scheduled reads beside
//! them.
//!
//! Every pass starts from a fresh platform state: building it (catalog
//! load, keyword index), registering the workers and one warm-up `/assign`
//! that forces the lazy edge caches is the pass's set-up. The script then
//! runs to completion; nothing is bounded by a timer.

use std::collections::HashSet;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hta_cluster::{ReplicaState, ReplicationHub, DEFAULT_RETAIN};
use hta_core::motivation::motivation;
use hta_core::{Instance, KeywordVec, Task, TaskId, Weights, Worker, WorkerId};
use hta_datagen::amt::{generate_exact, AmtConfig, AmtWorkload};
use hta_server::cluster::{acquire_initial_state, spawn_follower, AppliedEpoch, ClusterCtx};
use hta_server::{PlatformState, ServeOptions, Server};

use crate::client::{batch_entries, int_array, number, Conn};
use crate::layers;
use crate::report::{peak_rss_mb, Outcome, Samples};
use crate::script::{Script, Shape, SplitMix, Write};
use crate::stats::p50;

/// Tasks per assignment (the paper's X_max, the server's shipped value).
pub const XMAX: usize = 15;
/// Seed of the served catalog. A deployment serves one catalog while
/// its traffic varies, so the catalog is fixed and `--seed` drives the
/// workers and their requests; cost differences between generated
/// catalogs would otherwise swamp run-to-run comparisons.
pub const CATALOG_SEED: u64 = 0xA37;
/// Seed of the platform state's solver RNG.
pub const STATE_SEED: u64 = 0x5E11;
/// How long a replica may take to apply one epoch before the run fails.
const REPLICA_TIMEOUT: Duration = Duration::from_secs(30);

/// One serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeCfg {
    /// Catalog size.
    pub catalog: usize,
    /// Script shape of one pass.
    pub shape: Shape,
    /// Reads go to a replica following the primary.
    pub replicated: bool,
}

/// The generated catalog: `n` AMT-like tasks in groups of ten.
pub fn catalog(n: usize, seed: u64) -> AmtWorkload {
    let mut cfg = AmtConfig::with_totals(n, n.div_ceil(10));
    cfg.seed = seed;
    generate_exact(&cfg, n)
}

/// Writer progress (write steps finished), which paces the reader.
struct Progress {
    done: Mutex<usize>,
    bump: Condvar,
}

impl Progress {
    fn set(&self, n: usize) {
        *self.done.lock().expect("progress lock") = n;
        self.bump.notify_all();
    }

    fn wait(&self, at_least: usize) {
        let mut held = self.done.lock().expect("progress lock");
        while *held < at_least {
            held = self.bump.wait(held).expect("progress lock");
        }
    }
}

/// The replication side of `serve-replicated-*`: a hub the per-pass
/// primaries publish to, and one replica that follows it for the whole
/// run.
struct Replica {
    hub: Arc<ReplicationHub>,
    applied: Arc<AppliedEpoch>,
    server: Server,
}

impl Replica {
    /// Start the hub, publish `initial`, and bring up a caught-up replica.
    fn start(initial: &PlatformState) -> Result<Self, String> {
        let hub = Arc::new(ReplicationHub::new(DEFAULT_RETAIN));
        hub.publish(initial.snapshot_bytes());
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let join = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        {
            let hub = Arc::clone(&hub);
            thread::spawn(move || hub.serve(listener));
        }
        let mut rstate = ReplicaState::empty();
        let state = Arc::new(acquire_initial_state(&join, &mut rstate, REPLICA_TIMEOUT)?);
        let applied = Arc::new(AppliedEpoch::new());
        applied.set(rstate.epoch);
        spawn_follower(join, rstate, Arc::clone(&state), Arc::clone(&applied));
        // Writes never reach the replica (the generator sends them to the
        // primary), so its redirect target is never used.
        let ctx = ClusterCtx::replica("127.0.0.1:9".to_owned(), Arc::clone(&applied));
        let server = Server::spawn_with_cluster(
            "127.0.0.1:0",
            Arc::clone(&state),
            ServeOptions::default(),
            Some(Arc::new(ctx)),
        )
        .map_err(|e| e.to_string())?;
        Ok(Self {
            hub,
            applied,
            server,
        })
    }

    /// Block until the replica has applied everything published so far.
    fn catch_up(&self) -> Result<(), String> {
        let target = self.hub.epoch();
        let got = self.applied.wait_for(target, REPLICA_TIMEOUT);
        if got < target {
            return Err(format!("replica stuck at epoch {got}, primary at {target}"));
        }
        Ok(())
    }
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    setup_s: f64,
    wall_s: f64,
    samples: Samples,
    /// Handed-out sets: `(worker, tasks, alpha)`.
    sets: Vec<(usize, Vec<usize>, f64)>,
    /// FNV-1a over every request target the writer sent.
    write_hash: u64,
    requests: usize,
    failed: usize,
    errors: Vec<String>,
    rejected_503: u64,
    queue_depth_max: u64,
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01B3);
    }
}

/// Build the platform state a pass starts from: the catalog loaded and
/// indexed, nothing registered yet.
fn fresh_state(cat: &AmtWorkload) -> PlatformState {
    PlatformState::new(cat.space.clone(), cat.tasks.clone(), XMAX, STATE_SEED)
}

/// Run one pass: set-up, then the whole script.
fn run_pass(
    cfg: &ServeCfg,
    cat: &AmtWorkload,
    script: &Script,
    replica: Option<&Replica>,
    health_probes: bool,
) -> Pass {
    let mut pass = Pass {
        write_hash: 0xCBF2_9CE4_8422_2325,
        ..Pass::default()
    };
    let warmup_worker = script.keywords.len();

    // ---- set-up ---------------------------------------------------------
    let setup = Instant::now();
    let state = Arc::new(fresh_state(cat));
    let ctx = replica.map(|r| {
        r.hub.publish(state.snapshot_bytes());
        Arc::new(ClusterCtx::primary(Arc::clone(&r.hub)))
    });
    let server = match Server::spawn_with_cluster(
        "127.0.0.1:0",
        Arc::clone(&state),
        ServeOptions::default(),
        ctx,
    ) {
        Ok(s) => s,
        Err(e) => {
            pass.errors.push(format!("cannot start server: {e}"));
            return pass;
        }
    };
    let net = Arc::clone(&server.metrics().net);
    let primary = server.addr();
    let read_addr = replica.map_or(primary, |r| r.server.addr());
    let conns = Conn::connect(primary).and_then(|w| Ok((w, Conn::connect(read_addr)?)));
    let (mut writer, reader) = match conns {
        Ok(c) => c,
        Err(e) => {
            pass.errors.push(format!("cannot connect: {e}"));
            server.shutdown();
            return pass;
        }
    };
    let mut handed: HashSet<usize> = HashSet::new();
    for w in 0..=warmup_worker {
        let target = if w < warmup_worker {
            script.register_target(w)
        } else {
            // The warm-up worker registers with worker 0's interests.
            script.register_target(0)
        };
        match writer.request("POST", &target) {
            Ok(r) if r.status == 200 && number(&r.body, "worker_id") == Some(w as f64) => {}
            Ok(r) => pass
                .errors
                .push(format!("register {w}: {} {}", r.status, r.body)),
            Err(e) => pass.errors.push(format!("register {w}: {e}")),
        }
    }
    match writer.request("POST", &format!("/assign?worker={warmup_worker}")) {
        Ok(r) if r.status == 200 => handed.extend(int_array(&r.body, "tasks").unwrap_or_default()),
        Ok(r) => pass
            .errors
            .push(format!("warm-up assign: {} {}", r.status, r.body)),
        Err(e) => pass.errors.push(format!("warm-up assign: {e}")),
    }
    if let Some(r) = replica {
        if let Err(e) = r.catch_up() {
            pass.errors.push(e);
        }
    }
    pass.setup_s = setup.elapsed().as_secs_f64();
    if !pass.errors.is_empty() {
        server.shutdown();
        return pass;
    }

    // ---- the script -----------------------------------------------------
    let progress = Progress {
        done: Mutex::new(0),
        bump: Condvar::new(),
    };
    let start = Instant::now();
    let (reader_samples, reader_stats) = thread::scope(|s| {
        let reader = s.spawn(|| read_loop(script, reader, &progress, health_probes));
        write_loop(
            script,
            &mut writer,
            replica,
            &net,
            &mut handed,
            &mut pass,
            &progress,
        );
        progress.set(usize::MAX);
        reader.join().expect("reader thread")
    });
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.samples.read.extend(reader_samples.read);
    pass.samples.health.extend(reader_samples.health);
    pass.requests += reader_stats.0;
    pass.failed += reader_stats.1;
    pass.errors.extend(reader_stats.2);
    pass.rejected_503 = net.rejected_busy.load(Ordering::Relaxed);

    // ---- gates ----------------------------------------------------------
    let handed_out: usize = pass.sets.iter().map(|(_, tasks, _)| tasks.len()).sum();
    let probes = if health_probes { script.reads.len() } else { 0 };
    let expected = script.writes.len() + handed_out + script.reads.len();
    if pass.requests != expected || pass.samples.health.len() != probes {
        pass.errors.push(format!(
            "sent {} scripted requests, the script has {expected}",
            pass.requests
        ));
    }
    let open = state.stats().open_tasks;
    if open * 4 < cfg.catalog {
        pass.errors.push(format!(
            "catalog drained: {open} of {} tasks open at the end",
            cfg.catalog
        ));
    }
    if let Some(r) = replica {
        if let Err(e) = snapshots_match(&mut writer, r) {
            pass.errors.push(e);
        }
    }
    drop(writer);
    server.shutdown();
    pass
}

/// The writer: each write step, then a `/complete` per returned task.
fn write_loop(
    script: &Script,
    conn: &mut Conn,
    replica: Option<&Replica>,
    net: &hta_net::NetMetrics,
    handed: &mut HashSet<usize>,
    pass: &mut Pass,
    progress: &Progress,
) {
    for (step, write) in script.writes.iter().enumerate() {
        let target = Script::write_target(write);
        fnv(&mut pass.write_hash, target.as_bytes());
        pass.requests += 1;
        let reply = conn.request("POST", &target);
        pass.queue_depth_max = pass
            .queue_depth_max
            .max(net.queue_depth.load(Ordering::Relaxed));
        let reply = match reply {
            Ok(r) if r.status == 200 => r,
            Ok(r) => {
                pass.failed += 1;
                pass.errors
                    .push(format!("{target}: {} {}", r.status, r.body));
                progress.set(step + 1);
                continue;
            }
            Err(e) => {
                pass.failed += 1;
                pass.errors.push(format!("{target}: {e}"));
                progress.set(step + 1);
                continue;
            }
        };
        let mut last_ok = Instant::now();
        let mut sets: Vec<(usize, Vec<usize>, f64)> = Vec::new();
        match write {
            Write::Assign(w) => {
                pass.samples.assign.push(reply.ms);
                let tasks = int_array(&reply.body, "tasks").unwrap_or_default();
                let alpha = number(&reply.body, "alpha").unwrap_or(f64::NAN);
                sets.push((*w, tasks, alpha));
            }
            Write::Batch(ws) => {
                pass.samples.batch.push(reply.ms);
                let entries = batch_entries(&reply.body);
                if entries.len() != ws.len() {
                    pass.errors.push(format!(
                        "{target}: {} sets for {} workers",
                        entries.len(),
                        ws.len()
                    ));
                }
                for (e, &w) in entries.iter().zip(ws) {
                    let tasks = int_array(e, "tasks").unwrap_or_default();
                    let alpha = number(e, "alpha").unwrap_or(f64::NAN);
                    if !e.starts_with(&format!("{w},")) {
                        pass.errors
                            .push(format!("{target}: set for the wrong worker"));
                    }
                    sets.push((w, tasks, alpha));
                }
            }
        }
        for (w, tasks, _) in &sets {
            if tasks.len() > XMAX {
                pass.errors
                    .push(format!("worker {w} got {} tasks (> {XMAX})", tasks.len()));
            }
            for &t in tasks {
                if !handed.insert(t) {
                    pass.errors.push(format!("task {t} handed out twice"));
                }
            }
        }
        let mut pos = 0;
        for (w, tasks, _) in &sets {
            for &t in tasks {
                let ok = script.outcome(step, pos);
                pos += 1;
                let target = format!("/complete?worker={w}&task={t}&ok={ok}");
                fnv(&mut pass.write_hash, target.as_bytes());
                pass.requests += 1;
                match conn.request("POST", &target) {
                    Ok(r) if r.status == 200 => {
                        last_ok = Instant::now();
                        pass.samples.complete.push(r.ms);
                    }
                    Ok(r) => {
                        pass.failed += 1;
                        pass.errors
                            .push(format!("{target}: {} {}", r.status, r.body));
                    }
                    Err(e) => {
                        pass.failed += 1;
                        pass.errors.push(format!("{target}: {e}"));
                    }
                }
            }
        }
        // Read-your-writes: once a session's last write is acknowledged,
        // wait until the replica serves that state. The next step then
        // starts against an idle replica, as with a replica on its own
        // machine.
        if let Some(r) = replica {
            let target = r.hub.epoch();
            if r.applied.wait_for(target, REPLICA_TIMEOUT) < target {
                pass.errors
                    .push(format!("replica did not reach epoch {target}"));
            } else {
                pass.samples.lag.push(last_ok.elapsed().as_secs_f64() * 1e3);
            }
        }
        pass.sets.extend(sets);
        progress.set(step + 1);
    }
}

/// The reader: every scheduled read, once its write step has finished.
fn read_loop(
    script: &Script,
    mut conn: Conn,
    progress: &Progress,
    health_probes: bool,
) -> (Samples, (usize, usize, Vec<String>)) {
    let mut samples = Samples::default();
    let (mut requests, mut failed, mut errors) = (0usize, 0usize, Vec::new());
    for &(after, read) in &script.reads {
        progress.wait(after);
        let target = script.read_target(read);
        requests += 1;
        match conn.request("GET", &target) {
            Ok(r) if r.status == 200 => samples.read.push(r.ms),
            Ok(r) => {
                failed += 1;
                errors.push(format!("{target}: {} {}", r.status, r.body));
            }
            Err(e) => {
                failed += 1;
                errors.push(format!("{target}: {e}"));
            }
        }
        if health_probes {
            match conn.request("GET", "/health") {
                Ok(r) if r.status == 200 => samples.health.push(r.ms),
                Ok(r) => errors.push(format!("/health: {}", r.status)),
                Err(e) => errors.push(format!("/health: {e}")),
            }
        }
    }
    (samples, (requests, failed, errors))
}

/// `POST /snapshot` on the primary and on the caught-up replica must save
/// identical bytes.
fn snapshots_match(writer: &mut Conn, replica: &Replica) -> Result<(), String> {
    replica.catch_up()?;
    let dir = crate::tmp_dir();
    let save = |conn: &mut Conn, name: &str| -> Result<Vec<u8>, String> {
        let path = dir.join(name);
        let target = format!("/snapshot?path={}", path.display());
        match conn.request("POST", &target) {
            Ok(r) if r.status == 200 => {
                let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                let _ = std::fs::remove_file(&path);
                Ok(bytes)
            }
            Ok(r) => Err(format!("{target}: {} {}", r.status, r.body)),
            Err(e) => Err(format!("{target}: {e}")),
        }
    };
    let primary = save(writer, "primary.htasnap")?;
    let mut rconn = Conn::connect(replica.server.addr()).map_err(|e| e.to_string())?;
    let replica_bytes = save(&mut rconn, "replica.htasnap")?;
    if primary != replica_bytes {
        return Err(format!(
            "replica snapshot differs from the primary's ({} vs {} bytes)",
            replica_bytes.len(),
            primary.len()
        ));
    }
    Ok(())
}

/// Eq. 3 motivation of each handed-out set, from the returned task ids,
/// the worker's registered keywords and the returned α (β = 1 − α).
fn motivations(cat: &AmtWorkload, script: &Script, sets: &[(usize, Vec<usize>, f64)]) -> Vec<f64> {
    let worker_kw: Vec<KeywordVec> = script
        .keywords
        .iter()
        .map(|names| {
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            cat.space.vector_of_known(&names)
        })
        .collect();
    sets.iter()
        .filter(|(_, tasks, alpha)| !tasks.is_empty() && (0.0..=1.0).contains(alpha))
        .map(|(w, tasks, alpha)| {
            let local: Vec<Task> = tasks
                .iter()
                .enumerate()
                .map(|(li, &t)| {
                    let task = cat.tasks.get(TaskId(t as u32));
                    Task::new(TaskId(li as u32), task.group, task.keywords.clone())
                })
                .collect();
            let n = local.len();
            let worker = Worker::new(WorkerId(0), worker_kw[*w].clone())
                .with_weights(Weights::from_alpha(*alpha));
            let inst = Instance::new(local, vec![worker], XMAX).expect("handed-out sets are valid");
            motivation(&inst, 0, &(0..n).collect::<Vec<_>>())
        })
        .collect()
}

/// Run `passes` passes of a serve workload, each replaying its own seeded
/// script (plus, with `trace`, a traced replay of the first pass's script
/// and the in-process layer replay).
pub fn run(cfg: &ServeCfg, seed: u64, passes: usize, trace: bool) -> Outcome {
    let cat = catalog(cfg.catalog, CATALOG_SEED);
    let scripts: Vec<Script> = (0..passes as u64)
        .map(|i| {
            let pass_seed = SplitMix::new(seed ^ (i << 32)).next_u64();
            Script::generate(cfg.shape, &cat.space, &cat.tasks, pass_seed)
        })
        .collect();
    let mut out = Outcome {
        traced: trace,
        ..Outcome::default()
    };
    let most = scripts[0].max_tasks(XMAX) + XMAX;
    if most > cfg.catalog * 3 / 4 {
        out.errors.push(format!(
            "a pass may hand out {most} of {} tasks; a quarter must stay open",
            cfg.catalog
        ));
        return out;
    }
    let replica = if cfg.replicated {
        match Replica::start(&fresh_state(&cat)) {
            Ok(r) => Some(r),
            Err(e) => {
                out.errors.push(format!("replica: {e}"));
                return out;
            }
        }
    } else {
        None
    };

    let mut results: Vec<Pass> = Vec::new();
    for script in &scripts {
        results.push(run_pass(cfg, &cat, script, replica.as_ref(), false));
        if results.len() == 1 {
            out.peak_rss_mb = peak_rss_mb();
        }
    }
    let traced = trace.then(|| run_pass(cfg, &cat, &scripts[0], replica.as_ref(), true));

    let mut hash = 0u64;
    for p in results.iter().chain(&traced) {
        out.attempted += p.requests;
        out.failed += p.failed;
        out.errors.extend(p.errors.iter().take(5).cloned());
        hash = hash.rotate_left(7) ^ p.write_hash;
    }

    let mut all = Samples::default();
    let mut motiv = Vec::new();
    for (p, script) in results.iter().zip(&scripts) {
        all.extend(&p.samples);
        motiv.extend(motivations(&cat, script, &p.sets));
    }
    let setup: Vec<f64> = results.iter().map(|p| p.setup_s).collect();
    let rps: Vec<f64> = results
        .iter()
        .filter(|p| p.wall_s > 0.0)
        .map(|p| p.requests as f64 / p.wall_s)
        .collect();
    out.serve_metrics(&all, &setup, &rps, &motiv, cfg.replicated);
    out.note(format!(
        "passes={passes} catalog={} workers={} rounds={} batch={} requests={} requests_fnv={hash:016x}",
        cfg.catalog,
        cfg.shape.workers,
        cfg.shape.rounds,
        cfg.shape.batch,
        results.iter().map(|p| p.requests).sum::<usize>(),
    ));

    if let Some(t) = &traced {
        let first = &results[0];
        let lay = &mut out.layers;
        lay.insert("trace.overhead_share", t.wall_s / first.wall_s - 1.0);
        lay.insert("net.health_p50_ms", p50(&t.samples.health));
        lay.insert(
            "net.rejected_503",
            results
                .iter()
                .chain(&traced)
                .map(|p| p.rejected_503)
                .sum::<u64>() as f64,
        );
        lay.insert(
            "net.queue_depth_max",
            results
                .iter()
                .chain(&traced)
                .map(|p| p.queue_depth_max)
                .max()
                .unwrap_or(0) as f64,
        );
        match layers::replay_serve(&cat, &scripts[0], cfg.replicated) {
            Ok(l) => {
                out.layers.extend(l.values);
                // HTTP p50 minus the in-process call p50 of the same script.
                let s = &first.samples;
                let lay = &mut out.layers;
                lay.insert(
                    "net.overhead_assign_p50_ms",
                    p50(&s.assign) - lay["server.assign_p50_ms"],
                );
                lay.insert(
                    "net.overhead_complete_p50_ms",
                    p50(&s.complete) - lay["server.complete_p50_ms"],
                );
                lay.insert(
                    "net.overhead_read_p50_ms",
                    p50(&s.read) - lay["server.read_p50_ms"],
                );
                out.notes.extend(l.notes);
            }
            Err(e) => out.errors.push(e),
        }
    }
    if let Some(r) = replica {
        r.server.shutdown();
        r.hub.shutdown();
    }
    out
}
