//! The replica: a read-only registry trailing the primary's log.
//!
//! [`Replica::start`] builds its **own journaled** service (recovering
//! from its directory, so a restarted replica resumes where it left
//! off), serves the full wait-free read surface in read-only mode, and
//! runs a pull loop: `ReplPull` from its local durable LSN, apply
//! through [`ReputationService::apply_replicated`], heartbeat the
//! applied watermark back.
//!
//! Because `apply_replicated` journals the stream in exactly shipped
//! order, the replica's **local LSNs equal the primary's** — which is
//! what makes [`Replica::promote`] sound: the promoted node's own log
//! is, record for record, a prefix of the primary's
//! ([`log_prefix`](wsrep_serve::check::log_prefix)), and its state equals
//! that log's sequential-replay twin
//! ([`twin_equal`](wsrep_serve::check::twin_equal)).

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wsrep_serve::{ReplicateError, ReputationService};
use wsrep_server::{
    Backoff, Client, ReplicationGauge, ReplicationHooks, ReplicationStats, RetryPolicy, Server,
    ServerConfig,
};

/// Tuning for a [`Replica`].
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Connection cap and stall timeout for the replica's own read-only
    /// server.
    pub server: ServerConfig,
    /// Store shards for the replica's service.
    pub shards: usize,
    /// Identifies this replica in heartbeats (and the primary's
    /// watermark table).
    pub replica_id: u64,
    /// How long to sleep when a pull comes back empty (the staleness
    /// floor while the link is idle).
    pub poll_interval: Duration,
    /// Read timeout on the replication connection — bounds how long a
    /// dead primary can keep the pull loop blocked.
    pub read_timeout: Duration,
    /// Reconnect schedule after the link drops: jittered exponential
    /// backoff (see [`RetryPolicy`]), reset after every successful
    /// pull. Jitter matters here — a fleet of replicas orphaned by one
    /// primary restart must not stampede back in lockstep.
    pub reconnect: RetryPolicy,
    /// Records requested per pull.
    pub max_batch_records: u32,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            server: ServerConfig::default(),
            shards: 8,
            replica_id: 1,
            poll_interval: Duration::from_millis(20),
            read_timeout: Duration::from_secs(1),
            reconnect: RetryPolicy {
                base: Duration::from_millis(100),
                cap: Duration::from_secs(2),
                ..RetryPolicy::unbounded()
            },
            max_batch_records: 4096,
        }
    }
}

/// State shared between the replica and its pull loop.
struct ReplShared {
    service: Arc<ReputationService>,
    gauge: Arc<ReplicationGauge>,
    stop: AtomicBool,
    /// Last successful exchange with the primary.
    last_contact: Mutex<Instant>,
}

impl ReplShared {
    fn touch(&self) {
        *self.last_contact.lock().unwrap_or_else(|e| e.into_inner()) = Instant::now();
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Sleep `total` in short slices so a stop request is honored fast.
    fn interruptible_sleep(&self, total: Duration) {
        let slice = Duration::from_millis(10);
        let mut left = total;
        while !left.is_zero() && !self.stopped() {
            let nap = left.min(slice);
            std::thread::sleep(nap);
            left -= nap;
        }
    }
}

/// A read-only node trailing a primary, promotable on its failure.
pub struct Replica {
    /// `Some` until [`Replica::join`] consumes it (`Server::join` takes
    /// ownership, and `Replica` needs a `Drop` impl for the pull loop).
    server: Option<Server>,
    service: Arc<ReputationService>,
    shared: Arc<ReplShared>,
    puller: Option<JoinHandle<()>>,
}

impl Replica {
    /// Recover (or create) a journaled service at `journal_dir`, serve it
    /// read-only on `listen`, and start pulling from `primary_addr`.
    pub fn start(
        primary_addr: impl Into<String>,
        listen: impl ToSocketAddrs,
        journal_dir: impl Into<PathBuf>,
        config: ReplicaConfig,
    ) -> io::Result<Replica> {
        let service = Arc::new(
            ReputationService::builder()
                .shards(config.shards)
                .recover_from(journal_dir.into())
                .try_build()?,
        );
        let gauge = Arc::new(ReplicationGauge::replica());
        gauge.set_local(service.durable_lsn().unwrap_or(0));
        let hooks = ReplicationHooks {
            replicator: None,
            gauge: Some(Arc::clone(&gauge)),
            read_only: true,
        };
        let server =
            Server::start_with_replication(Arc::clone(&service), listen, config.server, hooks)?;
        let shared = Arc::new(ReplShared {
            service: Arc::clone(&service),
            gauge,
            stop: AtomicBool::new(false),
            last_contact: Mutex::new(Instant::now()),
        });
        let primary_addr = primary_addr.into();
        let loop_shared = Arc::clone(&shared);
        let puller = std::thread::Builder::new()
            .name("wsrep-repl-pull".to_string())
            .spawn(move || pull_loop(&loop_shared, &primary_addr, &config))?;
        Ok(Replica {
            server: Some(server),
            service,
            shared,
            puller: Some(puller),
        })
    }

    fn server(&self) -> &Server {
        self.server.as_ref().expect("server taken only by join")
    }

    /// The bound address of the replica's own read-only server.
    pub fn local_addr(&self) -> SocketAddr {
        self.server().local_addr()
    }

    /// The replica's service — reads here see the replicated state.
    pub fn service(&self) -> &Arc<ReputationService> {
        &self.service
    }

    /// Replication watermarks as of now; `lag` is the bounded-staleness
    /// distance to the primary's last observed durable LSN.
    pub fn replication_stats(&self) -> ReplicationStats {
        self.shared
            .gauge
            .set_local(self.service.durable_lsn().unwrap_or(0));
        self.shared.gauge.snapshot()
    }

    /// How long since the last successful exchange with the primary —
    /// the signal a failover policy watches.
    pub fn primary_silence(&self) -> Duration {
        self.shared
            .last_contact
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .elapsed()
    }

    /// Promote this replica to a writable primary-role node: stop the
    /// pull loop, flush, and lift read-only. Returns the durable LSN the
    /// node is promoted at — equal to the primary's LSN for every record
    /// the primary ever acknowledged to this replica's applied prefix.
    pub fn promote(&mut self) -> u64 {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(puller) = self.puller.take() {
            let _ = puller.join();
        }
        self.service.flush();
        let durable = self.service.durable_lsn().unwrap_or(0);
        self.shared.gauge.set_local(durable);
        self.shared.gauge.set_remote(durable);
        self.shared.gauge.promote();
        self.server().set_read_only(false);
        durable
    }

    /// Whether a shutdown has been requested (locally or over the wire).
    pub fn is_shutting_down(&self) -> bool {
        self.server().is_shutting_down()
    }

    /// Stop pulling, drain the server, and return once everything exited.
    pub fn join(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(puller) = self.puller.take() {
            let _ = puller.join();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        // The pull loop holds this node's journal open for appends; it
        // must be gone before anyone reuses the directory.
        self.shared.stop.store(true, Ordering::Release);
        if let Some(puller) = self.puller.take() {
            let _ = puller.join();
        }
    }
}

/// The replication loop: connect, pull from the local watermark, apply,
/// heartbeat; reconnect with jittered exponential backoff when the link
/// drops (reset after every successful pull, so a healthy link always
/// reconnects from the base delay).
///
/// Any pull that times out abandons the connection rather than reading
/// again: a timed-out [`Client`] is poisoned mid-frame, and the next
/// `recv` on it could pair the late response with the wrong request.
/// Reconnecting and re-pulling from the local durable watermark is
/// always safe — the stream is idempotent below the watermark.
fn pull_loop(shared: &ReplShared, primary_addr: &str, config: &ReplicaConfig) {
    let mut backoff = Backoff::new(config.reconnect, config.replica_id);
    while !shared.stopped() {
        let mut client = match Client::connect(primary_addr) {
            Ok(client) => client,
            Err(_) => {
                shared.gauge.set_connected(false);
                shared.interruptible_sleep(backoff.next_delay());
                continue;
            }
        };
        if client.set_read_timeout(Some(config.read_timeout)).is_err() {
            shared.interruptible_sleep(backoff.next_delay());
            continue;
        }
        shared.gauge.set_connected(true);
        shared.touch();

        while !shared.stopped() {
            let local = shared.service.durable_lsn().unwrap_or(0);
            shared.gauge.set_local(local);
            let batch = match client.repl_pull(local, config.max_batch_records) {
                Ok(batch) => batch,
                Err(err) => {
                    if !shared.stopped() {
                        eprintln!("wsrep-cluster: replica pull failed: {err}");
                    }
                    shared.gauge.set_connected(false);
                    break;
                }
            };
            shared.touch();
            backoff.reset();
            shared.gauge.set_remote(batch.durable_lsn);

            if batch.records.is_empty() {
                if client.repl_heartbeat(config.replica_id, local).is_err() {
                    shared.gauge.set_connected(false);
                    break;
                }
                shared.touch();
                shared.interruptible_sleep(config.poll_interval);
                continue;
            }
            if batch.first_lsn != local {
                // The primary answered from a different position than we
                // asked for — a diverged or rewound log. Refuse to apply.
                eprintln!(
                    "wsrep-cluster: replica at LSN {local} got a batch starting at {}; \
                     refusing to apply a diverged stream",
                    batch.first_lsn
                );
                shared.gauge.set_connected(false);
                break;
            }
            match shared.service.apply_replicated(batch.records) {
                Ok(_) => {}
                // Ingest pipeline closed: this service is shutting down.
                Err(ReplicateError::Closed) => return,
                // This replica's own journal failed and its durability
                // policy fences writes. Re-pulling would just fence
                // again — stop replicating rather than silently fall
                // behind while claiming to trail the primary.
                Err(ReplicateError::NotDurable) => {
                    eprintln!(
                        "wsrep-cluster: replica journal fenced by its durability policy; \
                         stopping the pull loop"
                    );
                    shared.gauge.set_connected(false);
                    return;
                }
            }
            let applied = shared.service.durable_lsn().unwrap_or(0);
            shared.gauge.set_local(applied);
            if client.repl_heartbeat(config.replica_id, applied).is_err() {
                shared.gauge.set_connected(false);
                break;
            }
            shared.touch();
        }
        if !shared.stopped() {
            shared.interruptible_sleep(backoff.next_delay());
        }
    }
}
