//! The primary's replication hub: epoch-tagged snapshot publishing and the
//! per-peer catch-up protocol.
//!
//! The hub owns the authoritative *serialized* state: the last published
//! snapshot bytes, the current epoch, and a bounded window of retained
//! deltas (epoch `e` → `e+1`). Publishing is linearized under one lock, so
//! the delta chain is gapless by construction; peers that fall outside the
//! retained window — or that present an epoch the chain cannot reach — get
//! a full snapshot instead. That is the whole catch-up protocol:
//!
//! 1. peer sends `HELLO{last_epoch}`;
//! 2. hub replies with the retained deltas `last_epoch → current` when the
//!    chain covers that span, else one `FULL{current}`;
//! 3. thereafter every `publish` pushes the new delta (or a full, if the
//!    peer ever lags out of the window) as it happens.
//!
//! Slow peers never block `publish`: each peer has its own writer thread
//! that re-reads the hub state after every send, so a peer that missed
//! three epochs while writing simply gets the three retained deltas (or a
//! full) on its next pass.
//!
//! The hub keeps its head parsed as well as serialized, so a publish diffs
//! against CRCs it already holds: [`ReplicationHub::publish`] verifies the
//! new bytes once, and [`ReplicationHub::publish_snapshot`], for callers
//! that assemble the snapshot from sealed sections, hashes nothing but the
//! container header.

use crate::frame::Frame;
use hta_snapshot::{Snapshot, SnapshotDelta};
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

/// How many deltas the hub retains for catch-up by default. A rejoining
/// replica within this many epochs of the head avoids a full-snapshot
/// transfer.
pub const DEFAULT_RETAIN: usize = 256;

struct HubInner {
    /// Epoch of `bytes`; 0 means nothing has been published yet.
    epoch: u64,
    /// Last published snapshot bytes (authoritative serialized state).
    bytes: Arc<Vec<u8>>,
    /// `bytes` parsed, with its verified section CRCs; `None` before the
    /// first publish or when the published bytes were not a valid
    /// container (the next publish then drops the delta chain).
    head: Option<Snapshot>,
    /// Retained deltas: element `i` carries `base_epoch` → `base_epoch+1`,
    /// bases strictly consecutive, back base == `epoch - 1`.
    deltas: VecDeque<(u64, Arc<Vec<u8>>)>,
    /// Set by [`ReplicationHub::shutdown`]; peer threads exit on wake.
    closed: bool,
}

/// Primary-side replication state. Cheap to share (`Arc`), safe to publish
/// from any thread.
pub struct ReplicationHub {
    inner: Mutex<HubInner>,
    bump: Condvar,
    retain: usize,
    peers: AtomicUsize,
    publishes: AtomicU64,
    dedup_hits: AtomicU64,
}

impl ReplicationHub {
    /// A hub retaining up to `retain` deltas for catch-up.
    pub fn new(retain: usize) -> Self {
        Self {
            inner: Mutex::new(HubInner {
                epoch: 0,
                bytes: Arc::new(Vec::new()),
                head: None,
                deltas: VecDeque::new(),
                closed: false,
            }),
            bump: Condvar::new(),
            retain: retain.max(1),
            peers: AtomicUsize::new(0),
            publishes: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
        }
    }

    /// Publish a new authoritative snapshot. Returns the epoch the bytes
    /// are now published at. Identical bytes are deduplicated (the epoch
    /// does not advance), so callers can publish after *every* mutating
    /// operation without chattering no-op deltas at the replicas.
    pub fn publish(&self, bytes: Vec<u8>) -> u64 {
        let inner = self.inner.lock().unwrap();
        if self.dedup(&inner, &bytes) {
            return inner.epoch;
        }
        let head = Snapshot::from_bytes(&bytes).ok();
        self.advance(inner, bytes, head)
    }

    /// [`Self::publish`] for a snapshot that is already assembled (from
    /// sealed sections, so its CRCs are known): serializes it once and
    /// diffs it against the head without hashing any payload.
    pub fn publish_snapshot(&self, snapshot: Snapshot) -> u64 {
        let bytes = snapshot.to_bytes();
        let inner = self.inner.lock().unwrap();
        if self.dedup(&inner, &bytes) {
            return inner.epoch;
        }
        self.advance(inner, bytes, Some(snapshot))
    }

    /// Count a publish; `true` when `bytes` equal the head (no new epoch).
    fn dedup(&self, inner: &HubInner, bytes: &[u8]) -> bool {
        self.publishes.fetch_add(1, Ordering::Relaxed);
        let same = inner.epoch > 0 && **inner.bytes == *bytes;
        if same {
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
        }
        same
    }

    /// Make `bytes` (parsed as `head`, when valid) the next epoch and
    /// retain the delta from the previous one.
    fn advance(
        &self,
        mut inner: std::sync::MutexGuard<'_, HubInner>,
        bytes: Vec<u8>,
        head: Option<Snapshot>,
    ) -> u64 {
        if inner.epoch > 0 {
            match (&inner.head, &head) {
                (Some(base), Some(target)) => {
                    let base_epoch = inner.epoch;
                    let delta = SnapshotDelta::diff(base, target, base_epoch, base_epoch + 1);
                    inner
                        .deltas
                        .push_back((base_epoch, Arc::new(delta.to_bytes())));
                    while inner.deltas.len() > self.retain {
                        inner.deltas.pop_front();
                    }
                }
                // Un-diffable bytes (shouldn't happen with container-valid
                // input): drop the chain; peers fall back to fulls.
                _ => inner.deltas.clear(),
            }
        }
        inner.epoch += 1;
        inner.bytes = Arc::new(bytes);
        inner.head = head;
        let epoch = inner.epoch;
        drop(inner);
        self.bump.notify_all();
        epoch
    }

    /// The current epoch (0 before the first publish).
    pub fn epoch(&self) -> u64 {
        self.inner.lock().unwrap().epoch
    }

    /// The last published snapshot, if any.
    pub fn snapshot(&self) -> Option<(u64, Arc<Vec<u8>>)> {
        let inner = self.inner.lock().unwrap();
        (inner.epoch > 0).then(|| (inner.epoch, Arc::clone(&inner.bytes)))
    }

    /// Number of peer connections currently attached.
    pub fn peer_count(&self) -> usize {
        self.peers.load(Ordering::Relaxed)
    }

    /// Publish calls so far, deduplicated ones included.
    pub fn publishes(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }

    /// Publish calls whose bytes equalled the head, so no epoch advanced.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits.load(Ordering::Relaxed)
    }

    /// Wake every peer thread and make them exit after their current send.
    pub fn shutdown(&self) {
        self.inner.lock().unwrap().closed = true;
        self.bump.notify_all();
    }

    /// Accept replication peers on `listener` forever (until the hub shuts
    /// down). One writer thread per peer. Call from a dedicated thread.
    pub fn serve(self: &Arc<Self>, listener: TcpListener) {
        for stream in listener.incoming() {
            if self.inner.lock().unwrap().closed {
                return;
            }
            let Ok(stream) = stream else { continue };
            let hub = Arc::clone(self);
            thread::spawn(move || {
                hub.peers.fetch_add(1, Ordering::Relaxed);
                let _ = hub.peer_loop(stream);
                hub.peers.fetch_sub(1, Ordering::Relaxed);
            });
        }
    }

    /// What a peer at `peer_epoch` should be sent to reach `current`:
    /// the contiguous retained deltas when they cover the span, else a
    /// full snapshot.
    fn plan(inner: &HubInner, peer_epoch: u64) -> Plan {
        if peer_epoch == inner.epoch {
            return Plan::UpToDate;
        }
        if peer_epoch > 0 && peer_epoch < inner.epoch {
            if let Some(&(front_base, _)) = inner.deltas.front() {
                if peer_epoch >= front_base {
                    let skip = (peer_epoch - front_base) as usize;
                    return Plan::Deltas(
                        inner
                            .deltas
                            .iter()
                            .skip(skip)
                            .map(|(_, d)| Arc::clone(d))
                            .collect(),
                    );
                }
            }
        }
        Plan::Full(inner.epoch, Arc::clone(&inner.bytes))
    }

    fn peer_loop(&self, stream: TcpStream) -> io::Result<()> {
        stream.set_nodelay(true).ok();
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        let mut peer_epoch = Frame::read_from(&mut reader)?.parse_hello()?;
        loop {
            let plan = {
                let mut inner = self.inner.lock().unwrap();
                loop {
                    if inner.closed {
                        return Ok(());
                    }
                    match Self::plan(&inner, peer_epoch) {
                        Plan::UpToDate => inner = self.bump.wait(inner).unwrap(),
                        plan => break plan,
                    }
                }
            };
            match plan {
                Plan::UpToDate => unreachable!(),
                Plan::Full(epoch, bytes) => {
                    Frame::full(epoch, &bytes).write_to(&mut writer)?;
                    peer_epoch = epoch;
                }
                Plan::Deltas(deltas) => {
                    for d in &deltas {
                        Frame::delta(d.to_vec()).write_to(&mut writer)?;
                        peer_epoch += 1;
                    }
                }
            }
        }
    }
}

enum Plan {
    UpToDate,
    Full(u64, Arc<Vec<u8>>),
    Deltas(Vec<Arc<Vec<u8>>>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use hta_snapshot::SnapshotBuilder;

    fn snap(v: u8) -> Vec<u8> {
        SnapshotBuilder::new("t")
            .section("a", vec![v; 4])
            .section("b", vec![1, 2, 3])
            .to_bytes()
    }

    #[test]
    fn publish_dedupes_and_retains() {
        let hub = ReplicationHub::new(2);
        assert_eq!(hub.epoch(), 0);
        assert!(hub.snapshot().is_none());
        assert_eq!(hub.publish(snap(1)), 1);
        assert_eq!(hub.publish(snap(1)), 1, "identical bytes do not advance");
        assert_eq!(hub.publish(snap(2)), 2);
        assert_eq!(hub.publish(snap(3)), 3);
        assert_eq!(hub.publish(snap(4)), 4);
        let inner = hub.inner.lock().unwrap();
        assert_eq!(inner.deltas.len(), 2, "retention cap holds");
        assert_eq!(inner.deltas.front().unwrap().0, 2);
        assert_eq!(inner.deltas.back().unwrap().0, 3);
    }

    #[test]
    fn plan_picks_deltas_inside_the_window_and_full_outside() {
        let hub = ReplicationHub::new(8);
        for v in 1..=5 {
            hub.publish(snap(v));
        }
        let inner = hub.inner.lock().unwrap();
        assert!(matches!(ReplicationHub::plan(&inner, 5), Plan::UpToDate));
        match ReplicationHub::plan(&inner, 3) {
            Plan::Deltas(d) => assert_eq!(d.len(), 2),
            _ => panic!("expected deltas"),
        }
        // Epoch 0 (nothing held) and unknown epochs get a full.
        assert!(matches!(ReplicationHub::plan(&inner, 0), Plan::Full(5, _)));
        assert!(matches!(ReplicationHub::plan(&inner, 99), Plan::Full(5, _)));
    }

    #[test]
    fn publish_snapshot_matches_publish() {
        let (by_bytes, by_snapshot) = (ReplicationHub::new(8), ReplicationHub::new(8));
        for v in [1, 2, 2, 3] {
            let a = by_bytes.publish(snap(v));
            let b = by_snapshot.publish_snapshot(Snapshot::from_bytes(&snap(v)).unwrap());
            assert_eq!(a, b);
        }
        assert_eq!((by_bytes.publishes(), by_bytes.dedup_hits()), (4, 1));
        assert_eq!((by_snapshot.publishes(), by_snapshot.dedup_hits()), (4, 1));
        let (a, b) = (
            by_bytes.inner.lock().unwrap(),
            by_snapshot.inner.lock().unwrap(),
        );
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.deltas, b.deltas, "identical delta frames");
    }

    #[test]
    fn invalid_bytes_drop_the_chain() {
        let hub = ReplicationHub::new(8);
        hub.publish(snap(1));
        hub.publish(snap(2));
        assert_eq!(hub.publish(b"not a snapshot".to_vec()), 3);
        assert!(hub.inner.lock().unwrap().deltas.is_empty());
        hub.publish(snap(3));
        assert!(
            hub.inner.lock().unwrap().deltas.is_empty(),
            "no base to diff"
        );
        hub.publish(snap(4));
        assert_eq!(hub.inner.lock().unwrap().deltas.len(), 1);
    }

    #[test]
    fn chain_from_hub_replays_to_head_bytes() {
        let hub = ReplicationHub::new(16);
        for v in 1..=6 {
            hub.publish(snap(v));
        }
        // Replay the retained chain from epoch 1 by hand.
        let inner = hub.inner.lock().unwrap();
        let mut bytes = snap(1);
        for (base, wire) in &inner.deltas {
            let d = SnapshotDelta::from_bytes(wire).unwrap();
            assert_eq!(d.base_epoch, *base);
            bytes = d.apply(&bytes).unwrap();
        }
        assert_eq!(&bytes, &**inner.bytes);
    }
}
