//! The server's replication seam.
//!
//! The server stays ignorant of *how* records are shipped: a node that
//! can serve [`crate::proto::Request::ReplPull`] plugs a [`Replicator`]
//! into [`crate::Server`], and a node that wants its staleness visible
//! in `Stats` plugs in a [`ReplicationGauge`]. The cluster crate owns
//! the actual log shipping; this module only defines the hooks, which
//! keeps the dependency arrow pointing cluster → server and not both
//! ways.

use crate::proto::{ReplBatch, ReplRole, ReplWatermark, ReplicationStats};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};

/// Why a [`Replicator::pull`] could not be served. Carried to the wire
/// as [`crate::proto::ErrorCode::ReplUnavailable`] with this message.
#[derive(Debug)]
pub struct ReplError(pub String);

impl fmt::Display for ReplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ReplError {}

/// Serves the replication opcode family: a primary's log, pullable.
pub trait Replicator: Send + Sync {
    /// Records starting at `from_lsn`, at most `max_records` of them,
    /// plus this node's durable watermark.
    fn pull(&self, from_lsn: u64, max_records: u32) -> Result<ReplBatch, ReplError>;

    /// Register a follower's applied watermark; answers with the
    /// primary's view of the topology.
    fn heartbeat(&self, replica: u64, durable_lsn: u64) -> ReplWatermark;
}

/// Lock-free replication watermarks, snapshotted by the stats path.
///
/// Writers (the replication loop on a replica, the [`Replicator`] on a
/// primary) store plain relaxed atomics; a snapshot is the same
/// not-a-consistent-cut contract every other counter in the stats
/// response follows.
#[derive(Debug)]
pub struct ReplicationGauge {
    /// 0 = primary, 1 = replica.
    role: AtomicU8,
    /// This node's own durable LSN.
    local: AtomicU64,
    /// The other side's durable watermark (primary LSN on a replica; the
    /// slowest replica's acked LSN on a primary).
    remote: AtomicU64,
    /// Recently heartbeating followers (primary side).
    replicas: AtomicU32,
    /// Replication link currently up.
    connected: AtomicBool,
}

impl ReplicationGauge {
    /// A primary's gauge: connected to itself by definition.
    pub fn primary() -> Self {
        ReplicationGauge {
            role: AtomicU8::new(0),
            local: AtomicU64::new(0),
            remote: AtomicU64::new(0),
            replicas: AtomicU32::new(0),
            connected: AtomicBool::new(true),
        }
    }

    /// A replica's gauge: disconnected until its pull loop says otherwise.
    pub fn replica() -> Self {
        ReplicationGauge {
            role: AtomicU8::new(1),
            local: AtomicU64::new(0),
            remote: AtomicU64::new(0),
            replicas: AtomicU32::new(0),
            connected: AtomicBool::new(false),
        }
    }

    /// Flip the role to primary — the observable half of a promotion.
    pub fn promote(&self) {
        self.role.store(0, Ordering::Relaxed);
        self.connected.store(true, Ordering::Relaxed);
        self.replicas.store(0, Ordering::Relaxed);
    }

    /// Record this node's own durable LSN.
    pub fn set_local(&self, lsn: u64) {
        self.local.store(lsn, Ordering::Relaxed);
    }

    /// Record the other side's durable watermark.
    pub fn set_remote(&self, lsn: u64) {
        self.remote.store(lsn, Ordering::Relaxed);
    }

    /// Record the follower count (primary side).
    pub fn set_replicas(&self, n: u32) {
        self.replicas.store(n, Ordering::Relaxed);
    }

    /// Record whether the replication link is up.
    pub fn set_connected(&self, connected: bool) {
        self.connected.store(connected, Ordering::Relaxed);
    }

    /// The staleness picture as of now; `lag` is the distance between
    /// the local and remote watermarks. A primary with no live follower
    /// trails nobody: its remote watermark reads as its own and lag is 0
    /// (a freshly promoted node would otherwise report the stale
    /// watermark of the primary it replaced).
    pub fn snapshot(&self) -> ReplicationStats {
        let local = self.local.load(Ordering::Relaxed);
        let mut remote = self.remote.load(Ordering::Relaxed);
        let role = if self.role.load(Ordering::Relaxed) == 0 {
            ReplRole::Primary
        } else {
            ReplRole::Replica
        };
        let replicas = self.replicas.load(Ordering::Relaxed);
        if role == ReplRole::Primary && replicas == 0 {
            remote = local;
        }
        ReplicationStats {
            role,
            local_durable_lsn: local,
            remote_durable_lsn: remote,
            lag: local.abs_diff(remote),
            replicas,
            connected: self.connected.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_reports_lag_in_both_directions() {
        let gauge = ReplicationGauge::replica();
        gauge.set_local(90);
        gauge.set_remote(100);
        gauge.set_connected(true);
        let stats = gauge.snapshot();
        assert_eq!(stats.role, ReplRole::Replica);
        assert_eq!(stats.lag, 10);
        assert!(stats.connected);

        gauge.promote();
        let stats = gauge.snapshot();
        assert_eq!(stats.role, ReplRole::Primary);
        assert_eq!(stats.lag, 0, "no follower ⇒ a primary trails nobody");

        gauge.set_replicas(1);
        gauge.set_remote(80);
        let stats = gauge.snapshot();
        assert_eq!(stats.lag, 10, "slowest follower trails by 10");
    }
}
