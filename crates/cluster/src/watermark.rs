//! The primary's view of its followers: who heartbeated, how far along.
//!
//! Each [`crate::Replica`] reports its applied LSN with every heartbeat;
//! the table keeps the latest mark per replica id and ages entries out
//! after a TTL, so a follower that died silently stops holding the
//! `min_replica_lsn` watermark down. The snapshot is advisory — it feeds
//! stats and the wire [`ReplWatermark`](wsrep_server::ReplWatermark)
//! response, not any correctness decision (replication here is async;
//! the primary never waits for acks).

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
struct ReplicaMark {
    durable_lsn: u64,
    last_seen: Instant,
}

/// Latest heartbeat per replica id, TTL-aged.
#[derive(Debug, Default)]
pub(crate) struct WatermarkTable {
    marks: Mutex<HashMap<u64, ReplicaMark>>,
}

impl WatermarkTable {
    pub(crate) fn new() -> Self {
        WatermarkTable::default()
    }

    /// Record a heartbeat from `replica` claiming `durable_lsn` applied.
    pub(crate) fn observe(&self, replica: u64, durable_lsn: u64) {
        let mut marks = self.marks.lock().unwrap_or_else(|e| e.into_inner());
        marks.insert(
            replica,
            ReplicaMark {
                durable_lsn,
                last_seen: Instant::now(),
            },
        );
    }

    /// `(live replica count, slowest live replica's LSN)`. Entries older
    /// than `ttl` are dropped; `None` when no replica is live.
    pub(crate) fn snapshot(&self, ttl: Duration) -> (u32, Option<u64>) {
        let mut marks = self.marks.lock().unwrap_or_else(|e| e.into_inner());
        let now = Instant::now();
        marks.retain(|_, mark| now.duration_since(mark.last_seen) < ttl);
        let min = marks.values().map(|mark| mark.durable_lsn).min();
        (marks.len() as u32, min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowest_live_replica_holds_the_watermark() {
        let table = WatermarkTable::new();
        assert_eq!(table.snapshot(Duration::from_secs(1)), (0, None));

        table.observe(1, 100);
        table.observe(2, 80);
        assert_eq!(table.snapshot(Duration::from_secs(60)), (2, Some(80)));

        // A replica catching up moves the watermark forward.
        table.observe(2, 120);
        assert_eq!(table.snapshot(Duration::from_secs(60)), (2, Some(100)));

        // A zero TTL ages everyone out.
        assert_eq!(table.snapshot(Duration::ZERO), (0, None));
    }
}
