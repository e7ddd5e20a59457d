//! Cluster roles for the serving layer: primary/replica replication and
//! sharded candidate retrieval (DESIGN.md §14).
//!
//! Three roles share one binary:
//!
//! * **primary** — owns the authoritative [`PlatformState`] and the solver.
//!   After every successful mutating operation it publishes its serialized
//!   state to a [`ReplicationHub`], which diffs consecutive snapshots into
//!   epoch-tagged deltas and streams them to attached peers.
//! * **replica** — follows the primary's replication stream, applies every
//!   update that has already arrived to its held bytes, swaps the result
//!   into its local `PlatformState` once per such drain
//!   ([`PlatformState::replace_from_snapshot_bytes`]), and answers read
//!   traffic (`/stats`, `/topk`, `/candidates`) locally — byte-identically
//!   to the primary at the same epoch, because both hold the same bytes.
//!   Write endpoints bounce to the primary with `307` + `Location`.
//! * **shard worker** — a replica that additionally owns the catalog slice
//!   `task % count == index` and serves `GET /shard_topk`: exact per-worker
//!   top-k over its owned open tasks, scores shipped as `f64` bit patterns.
//!
//! The primary's [`ShardCoordinator`] runs *under the state lock* during an
//! assignment: it publishes the current state (deduplicated, so the epoch
//! only advances if something changed), queries every shard at that pinned
//! epoch, and merges the per-shard lists into the exact global top-k
//! ([`hta_index::merge_topk`]). Any failure — shard down, stale, malformed
//! — falls back to the local index, which by construction produces the same
//! lists, so the fallback changes nothing but latency. Assignment decisions
//! (the one joint solve) never leave the primary.

use std::io;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hta_cluster::{http_get, Follower, ReplicaState, ReplicationHub, RunReport, ShardSpec};
use hta_index::merge_topk;

use crate::snapshot::snapshot_from_inner;
use crate::state::{Inner, PlatformState, ShardTopk};

/// Which cluster role this process plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Authoritative state + solver; publishes replication epochs.
    Primary,
    /// Read replica following the primary's snapshot-delta stream.
    Replica,
    /// Replica that also serves shard-local top-k retrieval.
    ShardWorker,
}

impl FromStr for Role {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "primary" => Ok(Role::Primary),
            "replica" => Ok(Role::Replica),
            "shard-worker" => Ok(Role::ShardWorker),
            _ => Err(format!(
                "unknown role {s:?} (want primary, replica, or shard-worker)"
            )),
        }
    }
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Role::Primary => "primary",
            Role::Replica => "replica",
            Role::ShardWorker => "shard-worker",
        })
    }
}

/// The epoch a replica has fully applied to its serving state, with a
/// waitable bump — `GET /shard_topk?epoch=E` blocks (bounded) until the
/// node has caught up to `E` so it answers against exactly the state the
/// primary pinned. Also counts what the follower applied, for
/// `GET /cluster`.
pub struct AppliedEpoch {
    epoch: Mutex<u64>,
    bump: Condvar,
    deltas: AtomicU64,
    fulls: AtomicU64,
    swaps: AtomicU64,
}

/// A follower's replication counters, as `GET /cluster` reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FollowerCounts {
    /// Snapshot deltas applied to the held bytes.
    pub deltas_applied: u64,
    /// Full snapshots applied to the held bytes.
    pub fulls_applied: u64,
    /// Times the serving state was rebuilt from the held bytes; one per
    /// drain, however many updates the drain applied.
    pub state_swaps: u64,
}

impl Default for AppliedEpoch {
    fn default() -> Self {
        Self::new()
    }
}

impl AppliedEpoch {
    /// Epoch 0: nothing applied yet.
    pub fn new() -> Self {
        Self {
            epoch: Mutex::new(0),
            bump: Condvar::new(),
            deltas: AtomicU64::new(0),
            fulls: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
        }
    }

    /// The follower's counters so far.
    pub fn counts(&self) -> FollowerCounts {
        FollowerCounts {
            deltas_applied: self.deltas.load(Ordering::Relaxed),
            fulls_applied: self.fulls.load(Ordering::Relaxed),
            state_swaps: self.swaps.load(Ordering::Relaxed),
        }
    }

    fn record_run(&self, report: &RunReport) {
        self.deltas
            .fetch_add(report.deltas as u64, Ordering::Relaxed);
        self.fulls.fetch_add(report.fulls as u64, Ordering::Relaxed);
    }

    /// Record that `epoch` is now fully applied (monotone; stale sets are
    /// ignored) and wake waiters.
    pub fn set(&self, epoch: u64) {
        let mut held = self.epoch.lock().expect("epoch lock");
        if epoch > *held {
            *held = epoch;
            self.bump.notify_all();
        }
    }

    /// The currently applied epoch.
    pub fn get(&self) -> u64 {
        *self.epoch.lock().expect("epoch lock")
    }

    /// Wait until the applied epoch reaches `at_least` or `timeout`
    /// elapses; returns the applied epoch either way.
    pub fn wait_for(&self, at_least: u64, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut held = self.epoch.lock().expect("epoch lock");
        while *held < at_least {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            let (guard, _) = self.bump.wait_timeout(held, left).expect("epoch lock");
            held = guard;
        }
        *held
    }
}

/// Per-node cluster configuration handed to the HTTP layer.
pub struct ClusterCtx {
    /// This node's role.
    pub role: Role,
    /// Primary only: the replication hub peers attach to.
    pub hub: Option<Arc<ReplicationHub>>,
    /// Replica/shard: the primary's HTTP address (`host:port`) write
    /// endpoints redirect to.
    pub primary_http: Option<String>,
    /// Replica/shard: the epoch applied to the local serving state.
    pub applied: Arc<AppliedEpoch>,
    /// Shard worker: the catalog slice this node owns.
    pub shard: Option<ShardSpec>,
}

impl ClusterCtx {
    /// Context for a primary publishing through `hub`.
    pub fn primary(hub: Arc<ReplicationHub>) -> Self {
        Self {
            role: Role::Primary,
            hub: Some(hub),
            primary_http: None,
            applied: Arc::new(AppliedEpoch::new()),
            shard: None,
        }
    }

    /// Context for a read replica redirecting writes to `primary_http`.
    pub fn replica(primary_http: String, applied: Arc<AppliedEpoch>) -> Self {
        Self {
            role: Role::Replica,
            hub: None,
            primary_http: Some(primary_http),
            applied,
            shard: None,
        }
    }

    /// Context for a shard worker owning `shard`.
    pub fn shard_worker(
        primary_http: String,
        applied: Arc<AppliedEpoch>,
        shard: ShardSpec,
    ) -> Self {
        Self {
            role: Role::ShardWorker,
            hub: None,
            primary_http: Some(primary_http),
            applied,
            shard: Some(shard),
        }
    }

    /// The epoch this node reports on `GET /cluster`: the hub's head on a
    /// primary, the applied epoch on a follower.
    pub fn epoch(&self) -> u64 {
        match &self.hub {
            Some(hub) => hub.epoch(),
            None => self.applied.get(),
        }
    }
}

impl PlatformState {
    /// Publish the current state to `hub` while holding the state lock.
    /// Publishes from concurrent requests are thereby serialized in
    /// mutation order: a slower request can never publish an older
    /// encoding over a newer one. Returns the hub's epoch after it.
    pub fn publish_to(&self, hub: &ReplicationHub) -> u64 {
        self.with_inner(|inner| hub.publish_snapshot(snapshot_from_inner(inner)))
    }
}

/// How long the coordinator waits on each shard before falling back to
/// local retrieval. Also the bound a shard worker waits for a pinned epoch.
pub const SHARD_TIMEOUT: Duration = Duration::from_secs(2);

/// The primary-side [`ShardTopk`] implementation: pin an epoch, fan the
/// cohort's retrieval out to the shard workers, merge exactly.
struct ShardCoordinator {
    hub: Arc<ReplicationHub>,
    shards: Vec<String>,
    timeout: Duration,
}

impl ShardTopk for ShardCoordinator {
    fn worker_topk(
        &self,
        inner: &Inner,
        cohort: &[usize],
        k: usize,
    ) -> Option<Vec<Vec<(u32, f64)>>> {
        if self.shards.is_empty() || cohort.is_empty() {
            return None;
        }
        // Publish the state we hold the lock on. Identical bytes do not
        // advance the epoch, so repeated assigns between mutations pin the
        // same epoch; and no newer epoch can appear while we hold the lock,
        // so the shards' answers are against exactly this state.
        let epoch = self.hub.publish_snapshot(snapshot_from_inner(inner));
        let workers: Vec<String> = cohort.iter().map(usize::to_string).collect();
        let target = format!(
            "/shard_topk?epoch={epoch}&workers={}&k={k}",
            workers.join(",")
        );
        let mut per_shard: Vec<Vec<Vec<(u32, f64)>>> = Vec::with_capacity(self.shards.len());
        for addr in &self.shards {
            let resp = http_get(addr, &target, self.timeout).ok()?;
            if resp.status != 200 {
                return None;
            }
            per_shard.push(parse_shard_lists(&resp.body_text(), cohort.len())?);
        }
        Some(
            (0..cohort.len())
                .map(|wi| {
                    let lists: Vec<Vec<(u32, f64)>> =
                        per_shard.iter().map(|s| s[wi].clone()).collect();
                    merge_topk(&lists, k)
                })
                .collect(),
        )
    }
}

/// Install the shard coordinator on a primary's state: assignment-time
/// candidate retrieval fans out to the shard workers at `shards` (HTTP
/// addresses), with identity-safe fallback to the local index.
pub fn install_shard_coordinator(
    state: &PlatformState,
    hub: Arc<ReplicationHub>,
    shards: Vec<String>,
) {
    state.set_shard_topk(Some(Arc::new(ShardCoordinator {
        hub,
        shards,
        timeout: SHARD_TIMEOUT,
    })));
}

/// Render per-worker top-k lists as the `/shard_topk` response body.
/// Scores travel as `u64` bit patterns (`f64::to_bits`) so retrieval stays
/// bit-identical across the wire — a decimal rendering would not.
pub fn encode_shard_lists(epoch: u64, lists: &[Vec<(u32, f64)>]) -> String {
    use std::fmt::Write as _;
    let mut body = format!("{{\"epoch\":{epoch},\"lists\":[");
    for (i, list) in lists.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('[');
        for (j, (task, score)) in list.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            let _ = write!(body, "[{task},{}]", score.to_bits());
        }
        body.push(']');
    }
    body.push_str("]}");
    body
}

/// Parse [`encode_shard_lists`] output back into per-worker lists.
/// Returns `None` (coordinator falls back to local retrieval) on any
/// malformation or a list count other than `expect`.
pub fn parse_shard_lists(body: &str, expect: usize) -> Option<Vec<Vec<(u32, f64)>>> {
    let rest = body.split_once("\"lists\":")?.1.as_bytes();
    let mut cur = Cursor { b: rest, i: 0 };
    cur.expect(b'[')?;
    let mut lists = Vec::new();
    if cur.peek()? == b']' {
        cur.expect(b']')?;
    } else {
        loop {
            cur.expect(b'[')?;
            let mut list = Vec::new();
            if cur.peek()? == b']' {
                cur.expect(b']')?;
            } else {
                loop {
                    cur.expect(b'[')?;
                    let task = cur.number()?;
                    cur.expect(b',')?;
                    let bits = cur.number()?;
                    cur.expect(b']')?;
                    list.push((u32::try_from(task).ok()?, f64::from_bits(bits)));
                    if cur.peek()? == b',' {
                        cur.expect(b',')?;
                    } else {
                        cur.expect(b']')?;
                        break;
                    }
                }
            }
            lists.push(list);
            if cur.peek()? == b',' {
                cur.expect(b',')?;
            } else {
                cur.expect(b']')?;
                break;
            }
        }
    }
    (lists.len() == expect).then_some(lists)
}

/// A strict byte cursor for the rigid `/shard_topk` grammar.
struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl Cursor<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Option<()> {
        if self.peek()? == c {
            self.i += 1;
            Some(())
        } else {
            None
        }
    }

    fn number(&mut self) -> Option<u64> {
        let start = self.i;
        while self.peek()?.is_ascii_digit() {
            self.i += 1;
        }
        if self.i == start {
            return None;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()?
            .parse()
            .ok()
    }
}

/// Block until this node holds a full platform state: restored from the
/// journal when it carries one, otherwise fetched from the primary's
/// replication listener at `join` (retrying until `deadline` — the primary
/// may not be up yet).
pub fn acquire_initial_state(
    join: &str,
    rstate: &mut ReplicaState,
    deadline: Duration,
) -> Result<PlatformState, String> {
    if rstate.epoch > 0 {
        if let Ok(state) = PlatformState::from_snapshot_bytes(&rstate.bytes) {
            return Ok(state);
        }
    }
    let start = Instant::now();
    loop {
        if let Ok(mut follower) = Follower::connect(join, rstate.epoch) {
            follower.set_read_timeout(Some(Duration::from_secs(5))).ok();
            while let Ok(update) = follower.next_update() {
                let _ = rstate.apply(update);
                if rstate.epoch > 0 {
                    if let Ok(state) = PlatformState::from_snapshot_bytes(&rstate.bytes) {
                        return Ok(state);
                    }
                }
            }
        }
        if start.elapsed() > deadline {
            return Err(format!("no initial state from {join} within {deadline:?}"));
        }
        thread::sleep(Duration::from_millis(200));
    }
}

/// Most updates one drain applies before swapping them in, so a primary
/// that publishes without pause cannot hold the serving state back.
const MAX_DRAIN: usize = 64;

/// Keep a follower converged forever: wait for an update, apply it and
/// every further update that has already arrived to the held bytes, swap
/// the result into `state` once, bump `applied`. The applied epoch only
/// rises and never passes the hub's head. Reconnects with backoff on any
/// connection or apply error, re-handshaking from the epoch it holds —
/// the hub ships the covering delta chain or one full snapshot, so a
/// restarted or lagging follower always converges to byte-identical state.
pub fn spawn_follower(
    join: String,
    mut rstate: ReplicaState,
    state: Arc<PlatformState>,
    applied: Arc<AppliedEpoch>,
) -> JoinHandle<()> {
    applied.set(rstate.epoch);
    thread::spawn(move || loop {
        let Ok(mut follower) = Follower::connect(&join, rstate.epoch) else {
            thread::sleep(Duration::from_millis(200));
            continue;
        };
        follower
            .set_read_timeout(Some(Duration::from_millis(500)))
            .ok();
        loop {
            let first = match follower.next_update() {
                Ok(update) => update,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    continue;
                }
                Err(_) => break,
            };
            let mut read_failed = false;
            let arrived = std::iter::from_fn(|| {
                if read_failed {
                    return None;
                }
                let next = match follower.update_ready() {
                    Ok(true) => follower.next_update(),
                    Ok(false) => return None,
                    Err(e) => Err(e),
                };
                read_failed = next.is_err();
                next.ok()
            });
            let report = rstate.apply_run(std::iter::once(first).chain(arrived).take(MAX_DRAIN));
            applied.record_run(&report);
            if report.accepted() > 0 {
                if state.replace_from_snapshot_bytes(&rstate.bytes).is_err() {
                    break;
                }
                applied.swaps.fetch_add(1, Ordering::Relaxed);
                applied.set(rstate.epoch);
            }
            // A refusal (epoch gap, bad delta) or a broken frame
            // re-handshakes from the held epoch; what the drain applied
            // before it is already served.
            if report.refused.is_some() || read_failed {
                break;
            }
        }
        thread::sleep(Duration::from_millis(100));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_parses_and_prints() {
        assert_eq!("primary".parse::<Role>().unwrap(), Role::Primary);
        assert_eq!("replica".parse::<Role>().unwrap(), Role::Replica);
        assert_eq!("shard-worker".parse::<Role>().unwrap(), Role::ShardWorker);
        assert!("leader".parse::<Role>().is_err());
        assert_eq!(Role::ShardWorker.to_string(), "shard-worker");
    }

    #[test]
    fn shard_list_wire_format_round_trips_bit_exactly() {
        let lists: Vec<Vec<(u32, f64)>> = vec![
            vec![
                (3, 0.625),
                (17, 0.1234567890123_f64),
                (0, f64::MIN_POSITIVE),
            ],
            vec![],
            vec![(42, 1.0)],
        ];
        let body = encode_shard_lists(9, &lists);
        assert!(body.starts_with("{\"epoch\":9,"));
        let parsed = parse_shard_lists(&body, 3).expect("parse");
        assert_eq!(parsed.len(), 3);
        for (p, l) in parsed.iter().zip(&lists) {
            assert_eq!(p.len(), l.len());
            for (a, b) in p.iter().zip(l) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "score bits must survive");
            }
        }
        // Wrong expected count and malformed bodies are refused, not
        // mis-parsed.
        assert!(parse_shard_lists(&body, 2).is_none());
        assert!(parse_shard_lists("{\"lists\":[[[1]]]}", 1).is_none());
        assert!(parse_shard_lists("{\"nope\":[]}", 0).is_none());
        assert!(parse_shard_lists("{\"lists\":[]}", 0).is_some());
    }

    #[test]
    fn applied_epoch_waits_and_stays_monotone() {
        let applied = Arc::new(AppliedEpoch::new());
        assert_eq!(applied.get(), 0);
        applied.set(4);
        applied.set(2); // stale: ignored
        assert_eq!(applied.get(), 4);
        assert_eq!(applied.wait_for(4, Duration::from_millis(1)), 4);
        // A waiter is released when another thread bumps past its target.
        let a = Arc::clone(&applied);
        let waiter = thread::spawn(move || a.wait_for(7, Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(20));
        applied.set(7);
        assert_eq!(waiter.join().unwrap(), 7);
        // Timeout returns what is applied, not a hang.
        assert_eq!(applied.wait_for(99, Duration::from_millis(10)), 7);
    }
}
