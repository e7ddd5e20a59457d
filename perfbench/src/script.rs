//! The seeded request script of the serve workloads.
//!
//! A script is a pure function of its [`Shape`], the catalog and the seed:
//! worker registrations, then rounds of worker sessions. In each round
//! every worker (in a seeded order) asks for a task set with `/assign` and
//! completes every task it received; once per round a seeded cohort asks
//! for sets with one `/assign_batch`. Reads (`/topk`, `/reputation`,
//! `/stats`) are scheduled after the write step they follow and are sent
//! on a second connection while later writes run. Completions name only
//! tasks the server handed out, so their ids come from the responses; the
//! plan itself never depends on timing.

#[cfg(test)]
use std::fmt::Write as _;

use hta_core::{KeywordId, KeywordSpace, TaskId, TaskPool};

/// splitmix64: a small, fixed generator, so the script never depends on
/// the program's own RNG.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Size of one pass of a serve script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Registered workers taking part in the sessions.
    pub workers: usize,
    /// Session rounds; each worker asks for one set per round.
    pub rounds: usize,
    /// Workers in the one `/assign_batch` of each round.
    pub batch: usize,
    /// Retrieval depth of the `/topk` reads.
    pub topk_k: usize,
}

/// A write step: one assignment request, followed by one `/complete` per
/// task it returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Write {
    /// `POST /assign?worker=W`.
    Assign(usize),
    /// `POST /assign_batch?workers=...`.
    Batch(Vec<usize>),
}

/// A read sent beside the writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Read {
    /// `GET /topk?worker=W&k=K`.
    Topk(usize),
    /// `GET /reputation?worker=W`.
    Reputation(usize),
    /// `GET /stats`.
    Stats,
}

/// One pass of a serve workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    /// The shape it was generated for.
    pub shape: Shape,
    /// Keyword names each worker registers with, by worker id.
    pub keywords: Vec<Vec<String>>,
    /// Write steps in order.
    pub writes: Vec<Write>,
    /// Reads, each with the number of write steps that must have finished
    /// before it is sent.
    pub reads: Vec<(usize, Read)>,
    seed: u64,
}

impl Script {
    /// Generate the script for `shape` over the catalog `(space, tasks)`.
    /// Each worker registers with the keywords of a random catalog task
    /// plus two random vocabulary words, so their interests overlap the
    /// catalog the way real workers' do.
    pub fn generate(shape: Shape, space: &KeywordSpace, tasks: &TaskPool, seed: u64) -> Self {
        let mut rng = SplitMix::new(seed ^ 0x5C21_F7A0);
        let mut keywords = Vec::with_capacity(shape.workers);
        for _ in 0..shape.workers {
            let t = tasks.get(TaskId(rng.below(tasks.len()) as u32));
            let mut ids: Vec<usize> = t.keywords.iter_ones().collect();
            for _ in 0..2 {
                let k = rng.below(space.len());
                if !ids.contains(&k) {
                    ids.push(k);
                }
            }
            keywords.push(
                ids.iter()
                    .map(|&k| space.name(KeywordId(k as u32)).to_owned())
                    .collect(),
            );
        }
        let mut writes = Vec::new();
        let mut reads = Vec::new();
        let mut order: Vec<usize> = (0..shape.workers).collect();
        for _ in 0..shape.rounds {
            rng.shuffle(&mut order);
            for &w in &order {
                writes.push(Write::Assign(w));
                reads.push((writes.len(), Read::Topk(w)));
                reads.push((writes.len(), Read::Reputation(w)));
            }
            let mut cohort: Vec<usize> = (0..shape.workers).collect();
            rng.shuffle(&mut cohort);
            cohort.truncate(shape.batch);
            writes.push(Write::Batch(cohort));
            reads.push((writes.len(), Read::Stats));
        }
        Self {
            shape,
            keywords,
            writes,
            reads,
            seed,
        }
    }

    /// The verification outcome reported with the `pos`-th completion of
    /// write step `step` (nine in ten pass).
    pub fn outcome(&self, step: usize, pos: usize) -> bool {
        let mut rng = SplitMix::new(self.seed ^ ((step as u64) << 20) ^ pos as u64);
        rng.below(10) != 0
    }

    /// Upper bound on the tasks one pass hands out: every worker filled to
    /// X_max in every round, plus the batch cohorts.
    pub fn max_tasks(&self, xmax: usize) -> usize {
        self.shape.rounds * (self.shape.workers + self.shape.batch) * xmax
    }

    /// Register request target for worker `w`.
    pub fn register_target(&self, w: usize) -> String {
        format!("/register?keywords={}", self.keywords[w].join(";"))
    }

    /// Request target of a read.
    pub fn read_target(&self, read: Read) -> String {
        match read {
            Read::Topk(w) => format!("/topk?worker={w}&k={}", self.shape.topk_k),
            Read::Reputation(w) => format!("/reputation?worker={w}"),
            Read::Stats => "/stats".to_owned(),
        }
    }

    /// Request target of a write step.
    pub fn write_target(write: &Write) -> String {
        match write {
            Write::Assign(w) => format!("/assign?worker={w}"),
            Write::Batch(ws) => {
                let ids: Vec<String> = ws.iter().map(usize::to_string).collect();
                format!("/assign_batch?workers={}", ids.join(","))
            }
        }
    }

    /// The plan as request lines: registrations, then writes with their
    /// scheduled reads. Completions are written symbolically, since their
    /// task ids come from the server.
    #[cfg(test)]
    pub fn plan_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        for w in 0..self.keywords.len() {
            let _ = writeln!(out, "POST {}", self.register_target(w));
        }
        let mut reads = self.reads.iter().peekable();
        for (step, write) in self.writes.iter().enumerate() {
            let _ = writeln!(out, "POST {}", Self::write_target(write));
            let _ = writeln!(out, "POST /complete <each task of step {step}>");
            while let Some((_, read)) = reads.next_if(|(after, _)| *after == step + 1) {
                let _ = writeln!(out, "GET {}", self.read_target(*read));
            }
        }
        out.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hta_datagen::amt::{generate, AmtConfig};

    const SHAPE: Shape = Shape {
        workers: 6,
        rounds: 3,
        batch: 4,
        topk_k: 16,
    };

    fn catalog(seed: u64) -> hta_datagen::amt::AmtWorkload {
        generate(&AmtConfig {
            n_groups: 30,
            tasks_per_group: 10,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn same_seed_gives_the_same_request_bytes() {
        let c = catalog(7);
        let a = Script::generate(SHAPE, &c.space, &c.tasks, 11);
        let c2 = catalog(7);
        let b = Script::generate(SHAPE, &c2.space, &c2.tasks, 11);
        assert_eq!(a.plan_bytes(), b.plan_bytes());
        assert_eq!(a, b);
        let outcomes =
            |s: &Script| -> Vec<bool> { (0..20).map(|i| s.outcome(i % 5, i / 5)).collect() };
        assert_eq!(outcomes(&a), outcomes(&b));
    }

    #[test]
    fn another_seed_gives_another_script() {
        let c = catalog(7);
        let a = Script::generate(SHAPE, &c.space, &c.tasks, 11);
        let b = Script::generate(SHAPE, &c.space, &c.tasks, 12);
        assert_ne!(a.plan_bytes(), b.plan_bytes());
    }

    #[test]
    fn script_has_the_documented_shape() {
        let c = catalog(3);
        let s = Script::generate(SHAPE, &c.space, &c.tasks, 5);
        assert_eq!(s.keywords.len(), 6);
        assert_eq!(s.writes.len(), 3 * (6 + 1));
        for round in s.writes.chunks(7) {
            let mut assigned: Vec<usize> = round[..6]
                .iter()
                .map(|w| match w {
                    Write::Assign(w) => *w,
                    Write::Batch(_) => panic!("batch before the round's assigns"),
                })
                .collect();
            assigned.sort_unstable();
            assert_eq!(assigned, (0..6).collect::<Vec<_>>());
            match &round[6] {
                Write::Batch(ws) => assert_eq!(ws.len(), 4),
                Write::Assign(_) => panic!("round must end with a batch"),
            }
        }
        assert_eq!(s.reads.len(), 3 * (2 * 6 + 1));
        assert!(s.reads.windows(2).all(|r| r[0].0 <= r[1].0));
        assert_eq!(s.max_tasks(15), 3 * 10 * 15);
        let plan = String::from_utf8(s.plan_bytes()).unwrap();
        assert_eq!(plan.lines().count(), 6 + 2 * 21 + 39);
    }
}
