//! The primary: a journaled registry that also ships its log.
//!
//! [`Primary::start`] wraps a journaled [`ReputationService`] in a
//! [`Server`] with a [`Replicator`] plugged in, so the connection threads
//! that serve clients also serve `ReplPull`/`ReplHeartbeat` from
//! replicas.
//! Shipping is **pull-based**:
//! the replica is just another pipelined client, which keeps the
//! protocol's FIFO contract and costs the primary nothing when no
//! replica is attached.
//!
//! A pull may ship records that are written but not yet fsynced. That is
//! safe: such records were never acknowledged to any client (the `Flush`
//! barrier is what acknowledges), so a follower that applied them is
//! merely *ahead of* the acknowledged prefix, never divergent from it.

use crate::watermark::WatermarkTable;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use wsrep_journal::ShipCursor;
use wsrep_serve::ReputationService;
use wsrep_server::{
    ReplBatch, ReplError, ReplWatermark, ReplicationGauge, ReplicationHooks, ReplicationStats,
    Replicator, Server, ServerConfig,
};

/// Tuning for a [`Primary`].
#[derive(Debug, Clone)]
pub struct PrimaryConfig {
    /// Connection cap and stall timeout, passed through to the server.
    pub server: ServerConfig,
    /// Hard cap on records per `ReplPull` response, whatever the replica
    /// asks for (bounds response frames well under the frame size limit).
    pub max_batch_records: u32,
    /// A replica that has not heartbeated for this long no longer counts
    /// toward the follower watermark.
    pub replica_ttl: Duration,
}

impl Default for PrimaryConfig {
    fn default() -> Self {
        PrimaryConfig {
            server: ServerConfig::default(),
            max_batch_records: 4096,
            replica_ttl: Duration::from_secs(10),
        }
    }
}

/// How many ship cursors to keep warm. One per steadily-pulling replica
/// is plenty; the cache only avoids a re-locate scan per pull.
const CURSOR_CACHE: usize = 8;

struct PrimaryState {
    service: Arc<ReputationService>,
    journal_dir: PathBuf,
    cursors: Mutex<Vec<ShipCursor>>,
    watermarks: WatermarkTable,
    gauge: Arc<ReplicationGauge>,
    max_batch_records: u32,
    replica_ttl: Duration,
}

impl Replicator for PrimaryState {
    fn pull(&self, from_lsn: u64, max_records: u32) -> Result<ReplBatch, ReplError> {
        let durable_lsn = self.service.durable_lsn().unwrap_or(0);
        self.gauge.set_local(durable_lsn);
        // Take a cached cursor positioned at from_lsn, or open one. The
        // cursor leaves the lock while it reads the log, so concurrent
        // pulls from different replicas don't serialize on file I/O.
        let cached = {
            let mut cursors = self.cursors.lock().unwrap_or_else(|e| e.into_inner());
            cursors
                .iter()
                .position(|cursor| cursor.next_lsn() == from_lsn)
                .map(|at| cursors.remove(at))
        };
        let mut cursor = match cached {
            Some(cursor) => cursor,
            None => ShipCursor::open(&self.journal_dir, from_lsn).map_err(|err| {
                ReplError(match err.kind() {
                    io::ErrorKind::NotFound => format!(
                        "LSN {from_lsn} precedes the oldest retained segment; \
                         re-seed the replica from a snapshot: {err}"
                    ),
                    _ => format!("cannot position log cursor at LSN {from_lsn}: {err}"),
                })
            })?,
        };
        let max = max_records.min(self.max_batch_records).max(1);
        let batch = cursor
            .next_batch(max as usize)
            .map_err(|err| ReplError(format!("log read at LSN {from_lsn} failed: {err}")))?;
        let mut cursors = self.cursors.lock().unwrap_or_else(|e| e.into_inner());
        if cursors.len() >= CURSOR_CACHE {
            cursors.remove(0);
        }
        cursors.push(cursor);
        drop(cursors);
        Ok(ReplBatch {
            first_lsn: batch.first_lsn,
            records: batch.records,
            durable_lsn,
        })
    }

    fn heartbeat(&self, replica: u64, durable_lsn: u64) -> ReplWatermark {
        self.watermarks.observe(replica, durable_lsn);
        let local = self.service.durable_lsn().unwrap_or(0);
        let (replicas, min) = self.watermarks.snapshot(self.replica_ttl);
        // With no live follower the primary trails nobody: lag 0.
        let min_replica_lsn = min.unwrap_or(local);
        self.gauge.set_local(local);
        self.gauge.set_remote(min_replica_lsn);
        self.gauge.set_replicas(replicas);
        ReplWatermark {
            durable_lsn: local,
            replicas,
            min_replica_lsn,
        }
    }
}

/// A serving node that ships its journal to pulling replicas.
pub struct Primary {
    server: Server,
    service: Arc<ReputationService>,
    gauge: Arc<ReplicationGauge>,
}

impl Primary {
    /// Serve `service` on `addr` with log shipping attached. Errors with
    /// [`io::ErrorKind::InvalidInput`] if the service has no journal —
    /// there is no log to ship without one.
    pub fn start(
        service: Arc<ReputationService>,
        addr: impl ToSocketAddrs,
        config: PrimaryConfig,
    ) -> io::Result<Primary> {
        let journal_dir = service.journal_dir().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "a primary requires a journaled service (no log to ship)",
            )
        })?;
        let gauge = Arc::new(ReplicationGauge::primary());
        let state = Arc::new(PrimaryState {
            service: Arc::clone(&service),
            journal_dir,
            cursors: Mutex::new(Vec::new()),
            watermarks: WatermarkTable::new(),
            gauge: Arc::clone(&gauge),
            max_batch_records: config.max_batch_records,
            replica_ttl: config.replica_ttl,
        });
        let hooks = ReplicationHooks {
            replicator: Some(state as Arc<dyn Replicator>),
            gauge: Some(Arc::clone(&gauge)),
            read_only: false,
        };
        let server = Server::start_with_replication(service.clone(), addr, config.server, hooks)?;
        Ok(Primary {
            server,
            service,
            gauge,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Replication watermarks as of now.
    pub fn replication_stats(&self) -> ReplicationStats {
        self.gauge
            .set_local(self.service.durable_lsn().unwrap_or(0));
        self.gauge.snapshot()
    }

    /// Whether a shutdown has been requested (locally or over the wire).
    pub fn is_shutting_down(&self) -> bool {
        self.server.is_shutting_down()
    }

    /// Begin a graceful drain.
    pub fn shutdown(&self) {
        self.server.shutdown();
    }

    /// Drain and stop; returns once every connection closed.
    pub fn join(self) {
        self.server.join();
    }
}
