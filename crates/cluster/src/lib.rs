//! # hta-cluster — primary/replica replication and shard coordination
//!
//! A std-only serving layer that composes two existing guarantees into a
//! multi-process story:
//!
//! * `hta-snapshot` serializes the full platform state **deterministically**
//!   (same state → same bytes), and [`hta_snapshot::SnapshotDelta`] diffs
//!   two snapshots at section granularity;
//! * the platform state restores from those bytes and re-serializes to the
//!   **same** bytes (round-trip identity, proptested in `hta-server`).
//!
//! So replication is just: the **primary** publishes its serialized state
//! to a [`ReplicationHub`] after every mutating operation; the hub diffs
//! consecutive snapshots into epoch-tagged deltas and streams them (as
//! CRC'd [`frame`]s over plain TCP) to **followers**, which splice them
//! into their held bytes and rebuild their in-memory state. A follower's
//! answers to read traffic (`/stats`, top-k, candidate generation) are then
//! byte-identical to the primary's at the same epoch — not approximately
//! consistent, *identical*, because both sides hold the same bytes.
//!
//! Catch-up falls out of the same mechanism: the hub retains a window of
//! deltas, a rejoining follower presents the epoch it last persisted
//! ([`ReplicaState::with_journal`]), and the hub ships either the covering
//! delta chain or one full snapshot. Kill a replica, relaunch it, and it
//! converges to byte-identical state.
//!
//! **Shard workers** are followers with one extra duty: each owns the slice
//! of the task catalog selected by a [`ShardSpec`] and serves per-worker
//! top-k over a shard-local index. The primary merges per-shard lists into
//! the exact global top-k (score bits are carried as `u64`, so nothing is
//! lost to text formatting) and runs the one joint solve itself —
//! assignment decisions never leave the primary, mirroring the
//! centralized-decision/distributed-retrieval split in the online
//! assignment literature.

#![warn(missing_docs)]

pub mod follower;
pub mod frame;
pub mod hub;

pub use follower::{Follower, ReplicaState, RunReport, Update, JOURNAL_KIND};
pub use frame::{Frame, FRAME_DELTA, FRAME_FULL, FRAME_HELLO, MAX_FRAME_PAYLOAD};
pub use hub::{ReplicationHub, DEFAULT_RETAIN};

use hta_net::client::{read_response, request_bytes, request_bytes_with_body, ClientResponse};
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Which slice of the task catalog a shard worker owns: task `t` belongs to
/// shard `index` iff `t % count == index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This worker's shard number, `0 <= index < count`.
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

impl ShardSpec {
    /// A spec for shard `index` of `count`.
    ///
    /// # Panics
    /// Panics when `count == 0` or `index >= count`.
    pub fn new(index: u32, count: u32) -> Self {
        assert!(count > 0, "shard count must be positive");
        assert!(index < count, "shard index {index} out of range 0..{count}");
        Self { index, count }
    }

    /// Whether this shard owns task `task_id`.
    pub fn owns(&self, task_id: u32) -> bool {
        task_id % self.count == self.index
    }
}

/// One blocking HTTP exchange with a cluster node: connect, send a
/// body-less request, read the response. Used by the launcher, the chaos
/// harness, and tests; per-call connection, no pooling.
pub fn http_get(addr: &str, target: &str, timeout: Duration) -> io::Result<ClientResponse> {
    http_exchange(addr, &request_bytes("GET", target, false), timeout)
}

/// Like [`http_get`] but a `POST` carrying a binary-safe body.
pub fn http_post(
    addr: &str,
    target: &str,
    body: &[u8],
    timeout: Duration,
) -> io::Result<ClientResponse> {
    http_exchange(
        addr,
        &request_bytes_with_body("POST", target, false, body),
        timeout,
    )
}

fn http_exchange(addr: &str, request: &[u8], timeout: Duration) -> io::Result<ClientResponse> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    (&stream).write_all(request)?;
    let mut reader = BufReader::new(stream);
    read_response(&mut reader)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_spec_partitions_exactly() {
        let shards: Vec<ShardSpec> = (0..3).map(|i| ShardSpec::new(i, 3)).collect();
        for task in 0..100u32 {
            let owners = shards.iter().filter(|s| s.owns(task)).count();
            assert_eq!(owners, 1, "task {task} owned by exactly one shard");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_index_must_be_in_range() {
        let _ = ShardSpec::new(3, 3);
    }
}
