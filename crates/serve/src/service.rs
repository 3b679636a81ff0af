//! The served reputation registry.
//!
//! [`ReputationService`] is the paper's Figure 2 central QoS registry
//! grown into a thread-safe service: providers `publish` listings,
//! consumers `ingest` feedback (batched, through the bounded pipeline) and
//! ask for `score`s and `top_k` rankings.
//!
//! The ingest writer applies each report to its subject's row of the
//! shard's accumulator table. When the configured [`ReputationMechanism`]
//! offers a fold ([`ReputationMechanism::accumulator`]) each row is that
//! fold, which drops the report: the service then holds **no feedback log
//! in RAM**, the journal is the only copy, recovery folds it back in, and
//! a checkpoint is built from the journal itself, outside every commit
//! lock. A mechanism without a fold gets a table whose rows keep the
//! subject's reports and replay them once per applied group; wrapping a
//! folding mechanism
//! in [`Unfolded`](wsrep_core::mechanism::Unfolded) makes the replay twin
//! a fold is tested against.
//!
//! Either way the writer that applies a report **publishes the subject's
//! new score** before it moves on, so the query path computes nothing and
//! takes no lock: `score` is one probe of the published map; `top_k`
//! validates the listings epoch (one atomic load) and the category's
//! score epoch, then serves a pre-ranked list with a `k`-element copy.
//! See `DESIGN.md` § "Scoring and read path".
//!
//! Reads are eventually consistent with respect to ingestion: a query
//! reflects the reports the writer has applied, not the ones still queued.
//! Call [`ReputationService::flush`] for a consistency point.

use crate::durability::{DurabilityPolicy, JournalHandle, JournalHealth, NotDurable};
use crate::ingest::{IngestClosed, IngestPipeline};
use crate::shard::{MechanismFactory, Routed, ShardedStore};
use crate::topk::{CategoryPlan, PlanCache, RankCache, RankedList};
use parking_lot::RwLock;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex as StdMutex};
use std::thread;
use std::time::Duration;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{ServiceId, SubjectId};
use wsrep_core::mechanism::ReputationMechanism;
use wsrep_core::mechanisms::beta::BetaMechanism;
use wsrep_core::trust::TrustEstimate;
use wsrep_journal::faults::IoPolicy;
use wsrep_journal::snapshot::list_snapshots;
use wsrep_journal::{recover_prefix, write_snapshot, GroupSet, JournalConfig, JournalRecord};
use wsrep_qos::metric::Metric;
use wsrep_qos::normalize::{NormalizationMatrix, OverallScore};
use wsrep_qos::preference::Preferences;
use wsrep_qos::value::QosVector;
use wsrep_sim::registry::{search_category, Listing, PublishStatus, RegistryError};

pub use crate::topk::RankedService;

/// The listing table plus its **epoch** and **count**, both readable
/// without the lock.
///
/// The epoch is bumped under the write lock on every publish/deregister;
/// cached category plans and rank lists are stamped with the epoch they
/// were built from, so any listing change invalidates exactly the state
/// it could affect — and the read path checks it with one atomic load.
/// The count feeds stats without touching the lock.
#[derive(Debug, Default)]
pub(crate) struct Listings {
    pub(crate) table: RwLock<BTreeMap<ServiceId, Listing>>,
    epoch: AtomicU64,
    count: AtomicU64,
}

impl Listings {
    /// Current epoch, without the lock. Readers validating cached plans
    /// against this may trail a publish mid-apply by one bump — the
    /// served answer is then the consistent pre-publish one, exactly as
    /// if the query had run a moment earlier.
    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed) as usize
    }

    /// Insert/replace under the write lock, then bump the epoch. Plan
    /// builders hold the read lock while stamping, so a stamped epoch
    /// always matches the exact table contents it was built from.
    fn publish(&self, listing: Listing) -> PublishStatus {
        let mut table = self.table.write();
        let status = match table.insert(listing.service, listing) {
            Some(_) => PublishStatus::Updated,
            None => {
                self.count.fetch_add(1, Ordering::Relaxed);
                PublishStatus::Created
            }
        };
        self.epoch.fetch_add(1, Ordering::Release);
        status
    }

    /// Take a recovered table whole, in place of an empty one: one swap
    /// and one bump for what a publish each would pay per listing.
    fn install(&self, recovered: BTreeMap<ServiceId, Listing>) {
        let mut table = self.table.write();
        debug_assert!(table.is_empty(), "a table is installed into a new service");
        self.count.store(recovered.len() as u64, Ordering::Relaxed);
        *table = recovered;
        self.epoch.fetch_add(1, Ordering::Release);
    }

    fn deregister(&self, service: ServiceId) -> bool {
        let mut table = self.table.write();
        if table.remove(&service).is_some() {
            self.count.fetch_sub(1, Ordering::Relaxed);
            self.epoch.fetch_add(1, Ordering::Release);
            true
        } else {
            false
        }
    }
}

/// Operational counters for dashboards and benchmarks.
///
/// **Consistency contract:** every counter is maintained as a relaxed
/// atomic (or derived from one) and read without stopping writers. Each
/// counter is individually monotonic and exact, but one `stats()` call is
/// *not* a consistent cut across them — e.g. `preranked_hits +
/// preranked_misses` may momentarily disagree with the number of `top_k`
/// calls that have returned, and `feedback` may trail an in-flight batch.
/// Collecting stats never takes a lock the read or write path uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Shards in the feedback store.
    pub shards: usize,
    /// Published listings.
    pub listings: usize,
    /// Feedback reports applied to the store.
    pub feedback: u64,
    /// Reports accepted but possibly still queued.
    pub submitted: u64,
    /// `top_k` rebuilds ranking over a prebuilt category plan.
    pub topk_plan_hits: u64,
    /// `top_k` rebuilds that (re)built their category plan.
    pub topk_plan_misses: u64,
    /// `top_k` queries served whole from a pre-ranked list (no scoring,
    /// no sort).
    pub preranked_hits: u64,
    /// `top_k` queries that had to score and sort the category.
    pub preranked_misses: u64,
    /// Immutable snapshots swapped in across the store's published maps
    /// (first-seen subjects and categories) and the plan and rank caches
    /// (one per copy-on-write insert).
    pub snapshot_swaps: u64,
    /// `top_k` rebuilds that reused a warm thread-local scratch buffer
    /// instead of allocating.
    pub scratch_reuse: u64,
    /// Whether the mechanism offers a fold (else each subject's reports
    /// are kept and replayed).
    pub incremental: bool,
    /// Journal health, when a write-ahead log is attached.
    pub journal: Option<JournalHealth>,
}

/// What one [`ReputationService::checkpoint`] pass captured and reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The snapshot covers journal records `[0, lsn)`.
    pub lsn: u64,
    /// Entries written to the snapshot (listings + feedback).
    pub entries: u64,
    /// WAL segments the snapshot made deletable.
    pub segments_removed: u64,
    /// Superseded snapshot files deleted.
    pub snapshots_removed: u64,
    /// Total bytes reclaimed.
    pub bytes_reclaimed: u64,
}

/// Why [`ReputationService::apply_replicated`] stopped applying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicateError {
    /// The ingest pipeline already shut down.
    Closed,
    /// The durability policy fenced writes after a journal failure; the
    /// replica refuses to acknowledge records it cannot journal.
    NotDurable,
}

impl fmt::Display for ReplicateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicateError::Closed => IngestClosed.fmt(f),
            ReplicateError::NotDurable => NotDurable.fmt(f),
        }
    }
}

impl std::error::Error for ReplicateError {}

impl From<IngestClosed> for ReplicateError {
    fn from(_: IngestClosed) -> Self {
        ReplicateError::Closed
    }
}

impl From<NotDurable> for ReplicateError {
    fn from(_: NotDurable) -> Self {
        ReplicateError::NotDurable
    }
}

/// Reports recovery hands its fold thread at a time. Two chunks exist,
/// one filling while the other folds, and both are recycled, so recovery
/// holds at most 8 192 reports of the log (720 KB) beside the frame each
/// log is reading. Every page of them is a fault in a fresh process,
/// which is why a chunk is small and grows only as reports arrive (a log
/// with none allocates neither); it is still enough of a batch that each
/// shard's lock is taken once for hundreds of reports.
const RECOVERY_CHUNK: usize = 4_096;

/// Open the journal at `dir` and replay it into `store` and `listings`
/// as it is read, in two stages: this thread reads, checks and decodes
/// the log and routes each report to its shard ([`ShardedStore::route`])
/// as it fills [`RECOVERY_CHUNK`]s, and one fold thread applies each
/// chunk, in LSN order, a shard's group at a time, then hands it back.
/// That is the ingest writers' own apply without their per-group publish
/// ([`ShardedStore::recover_routed`]): once the log is read the fold
/// thread publishes every estimate once ([`ShardedStore::publish_all`]),
/// which may wait because no reader can reach the store before the build
/// returns. The journal stays the only copy of the log. The listing
/// table stays on this thread, and goes in while the fold thread
/// finishes: one swap per shard and one of the table, not a map copy per
/// listing. Returns the journal and how many records it restored.
fn recover_into(
    store: &ShardedStore,
    listings: &Listings,
    dir: &Path,
    writer_groups: usize,
    config: JournalConfig,
) -> io::Result<(GroupSet, u64)> {
    let mut table = BTreeMap::new();
    let (full, to_fold) = mpsc::channel::<(Vec<Feedback>, Routed)>();
    let (emptied, from_fold) = mpsc::channel();
    let opened = thread::scope(|scope| {
        let fold = scope.spawn(move || {
            // The spare chunk.
            let _ = emptied.send((Vec::new(), store.routes()));
            for (mut chunk, mut routed) in to_fold {
                store.recover_routed(&mut routed, &chunk);
                chunk.clear();
                let _ = emptied.send((chunk, routed));
            }
            store.publish_all();
        });
        let mut filling = (Vec::new(), store.routes());
        let opened = GroupSet::open_replaying(dir, writer_groups, config, 0, |run| {
            for record in run.drain(..) {
                let report = match record {
                    JournalRecord::Feedback(report) => report,
                    JournalRecord::Publish(listing) => {
                        table.insert(listing.service, listing);
                        continue;
                    }
                    JournalRecord::Deregister(service) => {
                        table.remove(&service);
                        continue;
                    }
                };
                let (chunk, routed) = &mut filling;
                store.route(routed, &report, chunk.len());
                chunk.push(report);
                if chunk.len() == RECOVERY_CHUNK {
                    // Waits for the fold of the chunk handed over before.
                    // An error means the fold thread panicked, and its join
                    // says so.
                    match from_fold.recv() {
                        Ok(next) => _ = full.send(std::mem::replace(&mut filling, next)),
                        Err(_) => filling = (Vec::new(), store.routes()),
                    }
                }
            }
        });
        // The rest, on an error too (the service is then not built, and
        // what was folded goes with it); then the hand-off ends, and so
        // does the fold thread.
        let _ = full.send(filling);
        drop(full);
        // The listings go in while the fold thread finishes.
        store.list(
            table
                .values()
                .map(|listing| (listing.service.into(), listing.category)),
        );
        listings.install(table);
        if let Err(panic) = fold.join() {
            std::panic::resume_unwind(panic);
        }
        opened
    })?;
    let (set, replayed) = opened;
    Ok((set, replayed.records_recovered))
}

/// Configures and builds a [`ReputationService`].
pub struct ServiceBuilder {
    shards: usize,
    reputation_weight: f64,
    factory: MechanismFactory,
    journal_dir: Option<PathBuf>,
    journal_config: JournalConfig,
    checkpoint_every: Option<Duration>,
    writer_groups: usize,
    durability: DurabilityPolicy,
    io_policy: Option<Arc<dyn IoPolicy>>,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        ServiceBuilder {
            shards: 8,
            reputation_weight: 0.5,
            factory: Arc::new(|| Box::new(BetaMechanism::new())),
            journal_dir: None,
            journal_config: JournalConfig::default(),
            checkpoint_every: None,
            writer_groups: 1,
            durability: DurabilityPolicy::default(),
            io_policy: None,
        }
    }
}

impl ServiceBuilder {
    /// Number of store shards (clamped to at least 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Weight of reputation vs advertised QoS in `top_k` (clamped to
    /// `[0, 1]`; 0 ranks purely on claims, 1 purely on reputation).
    pub fn reputation_weight(mut self, weight: f64) -> Self {
        self.reputation_weight = weight.clamp(0.0, 1.0);
        self
    }

    /// The reputation mechanism feedback is scored by.
    pub fn mechanism<F, M>(mut self, factory: F) -> Self
    where
        F: Fn() -> M + Send + Sync + 'static,
        M: ReputationMechanism + 'static,
    {
        self.factory = Arc::new(move || Box::new(factory()));
        self
    }

    /// Like [`ServiceBuilder::mechanism`], but taking the boxed factory
    /// form directly — for callers that pick the mechanism at runtime.
    pub fn mechanism_factory(mut self, factory: MechanismFactory) -> Self {
        self.factory = factory;
        self
    }

    /// Attach a write-ahead journal at `dir` (created if missing): every
    /// ingested batch and every publish/deregister is group-committed to
    /// the log before it is applied. Whatever `dir` already holds, snapshot
    /// plus WAL tail(s), is replayed into the service before it serves.
    pub fn journal(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal_dir = Some(dir.into());
        self
    }

    /// [`ServiceBuilder::journal`], by the name callers that restart a
    /// service use.
    pub fn recover_from(self, dir: impl Into<PathBuf>) -> Self {
        self.journal(dir)
    }

    /// Rotate the active WAL segment once it exceeds this many bytes.
    pub fn max_segment_bytes(mut self, bytes: u64) -> Self {
        self.journal_config.max_segment_bytes = bytes;
        self
    }

    /// Checkpoint (snapshot + compact) in the background at this period.
    /// Only meaningful with a journal attached.
    pub fn checkpoint_every(mut self, every: Duration) -> Self {
        self.checkpoint_every = Some(every);
        self
    }

    /// Ingest writer groups (clamped to at least 1). The ingest pipeline
    /// runs `n` writer threads, each owning a disjoint set of store
    /// shards — and, with a journal attached, its own `group-NNN/` log
    /// with its own commit lock and group-commit fsync. A journal
    /// directory that already holds `m > n` group logs reopens with `m`
    /// writers; the layout never shrinks in place.
    pub fn writer_groups(mut self, groups: usize) -> Self {
        self.writer_groups = groups.max(1);
        self
    }

    /// How the service responds to a journal I/O failure: keep serving
    /// without durability ([`DurabilityPolicy::Degrade`], the default),
    /// fence writes ([`DurabilityPolicy::ReadOnly`]), or fence writes
    /// and report fail-stop ([`DurabilityPolicy::FailStop`]). Only
    /// meaningful with a journal attached.
    pub fn durability_policy(mut self, policy: DurabilityPolicy) -> Self {
        self.durability = policy;
        self
    }

    /// Install a fault-injection policy on the journal (and the
    /// checkpointer's snapshot writes) — the test seam behind every
    /// durability claim. See [`wsrep_journal::faults`].
    pub fn io_policy(mut self, policy: Arc<dyn IoPolicy>) -> Self {
        self.io_policy = Some(policy);
        self
    }

    /// Start the service (spawns the ingest writer thread).
    ///
    /// Panics if the journal directory cannot be opened or recovered;
    /// use [`ServiceBuilder::try_build`] to handle that as an error.
    pub fn build(self) -> ReputationService {
        self.try_build().expect("failed to open reputation journal")
    }

    /// Start the service, surfacing journal open/recovery errors.
    pub fn try_build(self) -> io::Result<ReputationService> {
        let store = Arc::new(ShardedStore::new(self.shards, self.factory));
        let listings = Arc::new(Listings::default());

        let mut journal = None;
        if let Some(dir) = self.journal_dir {
            // Opening the log is its recovery pass, one read of it, and
            // what it replays is whatever the directory holds.
            let (groups, config) = (self.writer_groups, self.journal_config);
            let (set, records_recovered) = recover_into(&store, &listings, &dir, groups, config)?;
            if let Some(policy) = &self.io_policy {
                set.set_io_policy(Arc::clone(policy));
            }
            let handle =
                JournalHandle::new(set, records_recovered, self.durability, self.io_policy);
            journal = Some(Arc::new(handle));
        }

        // A journaled pipeline's fan-out must match the log's partition
        // count (which may exceed the requested one when reopening a
        // wider on-disk layout); without a journal the knob alone decides.
        let pipeline_groups = journal
            .as_ref()
            .map(|handle| handle.writer_groups())
            .unwrap_or(self.writer_groups);
        let ingest = IngestPipeline::start_with_journal(
            Arc::clone(&store),
            journal.clone(),
            pipeline_groups,
        );
        let compactor = match (&journal, self.checkpoint_every) {
            (Some(handle), Some(every)) => Some(Compactor::spawn(every, Arc::clone(handle))),
            _ => None,
        };
        Ok(ReputationService {
            store,
            plans: PlanCache::new(),
            ranks: RankCache::new(),
            listings,
            reputation_weight: self.reputation_weight,
            scratch_reuse: AtomicU64::new(0),
            journal,
            _compactor: compactor,
            ingest,
        })
    }
}

thread_local! {
    /// Per-thread rank-rebuild scratch: weight and score buffers reused
    /// across `top_k` misses so a rebuild allocates only the cached
    /// `RankedList` itself.
    static RANK_SCRATCH: RefCell<RankScratch> = RefCell::new(RankScratch::default());
}

#[derive(Default)]
struct RankScratch {
    weights: Vec<f64>,
    scores: Vec<OverallScore>,
    warm: bool,
}

/// Thread-safe reputation registry: sharded store with written-through
/// scores + batched ingestion + snapshot-swapped plan/rank caches +
/// preference-aware top-k.
pub struct ReputationService {
    store: Arc<ShardedStore>,
    plans: PlanCache,
    ranks: RankCache,
    pub(crate) listings: Arc<Listings>,
    pub(crate) reputation_weight: f64,
    scratch_reuse: AtomicU64,
    journal: Option<Arc<JournalHandle>>,
    // Held only for its Drop. Declared before `ingest`: drop stops the
    // checkpointer first, then the pipeline drains (journaling the
    // remainder) and joins.
    _compactor: Option<Compactor>,
    ingest: IngestPipeline,
}

impl fmt::Debug for ReputationService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReputationService")
            .field("shards", &self.store.num_shards())
            .field("listings", &self.listings.len())
            .field("feedback", &self.store.len())
            .finish_non_exhaustive()
    }
}

impl Default for ReputationService {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl ReputationService {
    /// Configure a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::default()
    }

    /// Publish (or update) a listing. The served registry has no down
    /// state, so the only refusal is [`RegistryError::NotDurable`]: the
    /// durability policy fenced writes after a journal failure. With a
    /// journal attached the event is committed to the log before the
    /// listing table changes.
    pub fn publish(&self, listing: Listing) -> Result<PublishStatus, RegistryError> {
        match &self.journal {
            Some(handle) => {
                // Listing mutations always commit through group 0, so
                // they keep a total order among themselves however many
                // feedback writers run.
                let record = JournalRecord::Publish(listing.clone());
                handle
                    .commit(0, &[[record]], || self.apply_publish(listing))
                    .map_err(|NotDurable| RegistryError::NotDurable)
            }
            None => Ok(self.apply_publish(listing)),
        }
    }

    fn apply_publish(&self, listing: Listing) -> PublishStatus {
        // Membership first: feedback landing between the two calls bumps
        // the (possibly brand-new) category epoch, which at worst
        // invalidates a rank list one query earlier than necessary.
        self.store
            .list([(listing.service.into(), listing.category)]);
        self.listings.publish(listing)
    }

    /// Remove a listing. Journaled only when it actually removes one;
    /// a fenced journal refuses with [`RegistryError::NotDurable`]
    /// **without** removing anything.
    pub fn deregister(&self, service: ServiceId) -> Result<(), RegistryError> {
        match &self.journal {
            Some(handle) => {
                // Hold group 0's commit lock across check-append-remove:
                // a concurrent checkpoint never sees the removal without
                // its journal record, and the journal-before-apply order
                // means a policy-rejected append leaves the listing in
                // place — the service never claims a removal it cannot
                // make durable.
                let mut guard = handle.lock_group(0);
                if self.listing(service).is_none() {
                    return Err(RegistryError::NotFound);
                }
                guard
                    .append(&[[JournalRecord::Deregister(service)]])
                    .map_err(|NotDurable| RegistryError::NotDurable)?;
                self.apply_deregister(service);
                Ok(())
            }
            None => {
                if self.apply_deregister(service) {
                    Ok(())
                } else {
                    Err(RegistryError::NotFound)
                }
            }
        }
    }

    fn apply_deregister(&self, service: ServiceId) -> bool {
        if self.listings.deregister(service) {
            self.store.unlist(service.into());
            true
        } else {
            false
        }
    }

    /// Look up one listing.
    pub fn listing(&self, service: ServiceId) -> Option<Listing> {
        self.listings.table.read().get(&service).cloned()
    }

    /// Every listing in `category`, through the same [`search_category`]
    /// the simulated UDDI registry answers with.
    pub fn search(&self, category: u32) -> Vec<Listing> {
        let table = self.listings.table.read();
        search_category(table.values(), category)
            .into_iter()
            .cloned()
            .collect()
    }

    /// Enqueue one feedback report: a one-report
    /// [`ReputationService::ingest_batch`].
    pub fn ingest(&self, feedback: Feedback) -> Result<(), IngestClosed> {
        self.ingest_batch([feedback]).map(drop)
    }

    /// Enqueue a whole batch of reports (blocks while a writer group's
    /// queue is full), returning how many were accepted. This is the entry
    /// point for batched ingest RPCs: the batch is queued whole, as one
    /// batch per writer group it touches, and journaled and applied whole.
    pub fn ingest_batch(
        &self,
        batch: impl IntoIterator<Item = Feedback>,
    ) -> Result<u64, IngestClosed> {
        self.ingest.submit_batch(batch)
    }

    /// Block until everything ingested so far is applied and queryable.
    ///
    /// With a journal attached this is also a **durability barrier**: the
    /// ingest writer group-commits each batch to the WAL before applying
    /// it and only then counts it applied, which this waits on. When `flush`
    /// returns, every previously ingested report is fdatasync'd on disk
    /// and will survive a crash — [`ServiceBuilder::journal`] gets
    /// it back.
    pub fn flush(&self) {
        self.ingest.flush();
    }

    /// [`ReputationService::flush`], but honest about fencing: if the
    /// durability policy fenced writes ([`DurabilityPolicy::ReadOnly`] /
    /// [`DurabilityPolicy::FailStop`]), some previously accepted reports
    /// were rejected instead of journaled, and this returns
    /// [`NotDurable`] rather than acknowledging them. Servers use this
    /// as the ack barrier so a fenced node refuses instead of lying.
    pub fn try_flush(&self) -> Result<(), NotDurable> {
        self.ingest.flush();
        // The writer sets the fence before it counts a batch applied, so
        // after the wait above any rejected prior batch is visible here.
        if self.durability_fenced() {
            return Err(NotDurable);
        }
        Ok(())
    }

    /// True once the durability policy fenced writes after a journal
    /// failure. A fenced service keeps answering reads but refuses every
    /// mutation; under [`DurabilityPolicy::FailStop`] the host process
    /// is expected to exit when this turns true.
    pub fn durability_fenced(&self) -> bool {
        self.journal.as_ref().is_some_and(|handle| handle.fenced())
    }

    /// The configured response to journal failure
    /// ([`DurabilityPolicy::Degrade`] when no journal is attached).
    pub fn durability_policy(&self) -> DurabilityPolicy {
        self.journal
            .as_ref()
            .map(|handle| handle.policy())
            .unwrap_or_default()
    }

    /// Apply a run of replicated journal records in shipped order — the
    /// entry point a replication follower feeds records pulled from its
    /// primary through.
    ///
    /// Contiguous feedback records ride the batched ingest pipeline;
    /// listing operations (publish/deregister) apply inline. Before each
    /// listing operation — and once at the end — the pipeline is flushed,
    /// so with a journal attached the replica's *own* log records the
    /// stream in exactly the shipped LSN order: local LSNs equal primary
    /// LSNs, which is what lets a promoted replica's log stand in for the
    /// primary's. A deregister of an unknown service is tolerated (the
    /// primary only journals removals that happened, so this indicates
    /// nothing worse than a duplicate delivery).
    ///
    /// Returns how many records were applied; when it returns `Ok`,
    /// every one of them is queryable (and durable, with a journal
    /// attached). A fenced replica ([`DurabilityPolicy::ReadOnly`] /
    /// [`DurabilityPolicy::FailStop`] after a journal failure) returns
    /// [`ReplicateError::NotDurable`] instead of acknowledging records
    /// it could not journal.
    pub fn apply_replicated(
        &self,
        records: impl IntoIterator<Item = JournalRecord>,
    ) -> Result<u64, ReplicateError> {
        let mut applied = 0u64;
        let mut batch: Vec<Feedback> = Vec::new();
        for record in records {
            match record {
                JournalRecord::Feedback(report) => batch.push(report),
                JournalRecord::Publish(listing) => {
                    applied += self.drain_replicated(&mut batch)?;
                    self.publish(listing)
                        .map_err(|_| ReplicateError::NotDurable)?;
                    applied += 1;
                }
                JournalRecord::Deregister(service) => {
                    applied += self.drain_replicated(&mut batch)?;
                    // NotFound is tolerated (duplicate delivery); a
                    // durability fence is not.
                    match self.deregister(service) {
                        Ok(()) | Err(RegistryError::NotFound) => {}
                        Err(_) => return Err(ReplicateError::NotDurable),
                    }
                    applied += 1;
                }
            }
        }
        applied += self.drain_replicated(&mut batch)?;
        Ok(applied)
    }

    /// Submit buffered replicated feedback and wait until it is applied
    /// (and journaled, when a journal is attached).
    fn drain_replicated(&self, batch: &mut Vec<Feedback>) -> Result<u64, ReplicateError> {
        if batch.is_empty() {
            return Ok(0);
        }
        let accepted = self.ingest_batch(batch.drain(..))?;
        self.try_flush()?;
        Ok(accepted)
    }

    /// The attached journal's contiguous durable frontier — the
    /// watermark replication lag is measured against: the min over
    /// writer groups of each group's settled prefix, so every record
    /// below it is on disk. `None` without a journal.
    pub fn durable_lsn(&self) -> Option<u64> {
        self.journal.as_ref().map(|handle| handle.durable_lsn())
    }

    /// The attached journal's root directory, when one is attached —
    /// where a [`wsrep_journal::ShipCursor`] reads records to replicate,
    /// merging the writer groups' logs.
    pub fn journal_dir(&self) -> Option<PathBuf> {
        self.journal
            .as_ref()
            .map(|handle| handle.dir().to_path_buf())
    }

    /// Snapshot the journal's first `L` records' worth of registry state,
    /// then drop every WAL segment (and superseded snapshot) the new
    /// snapshot covers. Returns `None` when no journal is attached.
    ///
    /// Flushes first, so the snapshot covers everything ingested before
    /// the call. Writers stall only while `L` is read; the snapshot is
    /// built from the log on disk with ingestion running (see
    /// `checkpoint_now`). After a journal failure under
    /// [`DurabilityPolicy::Degrade`] that means it covers the journal's
    /// clean prefix — not the un-journaled state the service still
    /// serves from memory.
    pub fn checkpoint(&self) -> io::Result<Option<CheckpointReport>> {
        let Some(handle) = &self.journal else {
            return Ok(None);
        };
        self.flush();
        checkpoint_now(handle).map(Some)
    }

    /// The subject's reputation as the ingest writer last published it
    /// ([`ShardedStore::score`]): one probe, no lock, no computation,
    /// whatever the mechanism.
    ///
    /// `None` means no evidence: either nothing was ever reported, or the
    /// mechanism abstains.
    pub fn score(&self, subject: SubjectId) -> Option<TrustEstimate> {
        self.store.score(subject)
    }

    /// The `k` best services in `category` under `prefs`.
    ///
    /// Advertised claims are normalized Liu–Ngu–Zeng style across the
    /// category's candidates; each candidate's claim score is blended with
    /// its reputation (ignorance counts as the neutral 0.5 prior) by the
    /// configured weight, and ties keep the deterministic listing order.
    ///
    /// Allocates the answer vector; the hot path is
    /// [`ReputationService::top_k_into`], which reuses a caller buffer.
    pub fn top_k(&self, category: u32, prefs: &Preferences, k: usize) -> Vec<RankedService> {
        let mut out = Vec::new();
        self.top_k_into(category, prefs, k, &mut out);
        out
    }

    /// [`ReputationService::top_k`] into a caller-provided buffer
    /// (cleared first) — the allocation-free form for query loops.
    ///
    /// The fast path is wait-free: one listings-epoch load, one
    /// score-epoch load, one rank-cache snapshot probe, and a `k`-element
    /// copy of the pre-ranked list. Only when a publish/deregister or
    /// member feedback moved an epoch does the query score and sort the
    /// category again — and that rebuild is cached for everyone.
    pub fn top_k_into(
        &self,
        category: u32,
        prefs: &Preferences,
        k: usize,
        out: &mut Vec<RankedService>,
    ) {
        out.clear();
        if k == 0 {
            return;
        }
        let listings_epoch = self.listings.epoch();
        // Read the score epoch BEFORE any scoring: if feedback lands
        // mid-rebuild the list is stamped older than its content and the
        // bumped counter forces a harmless rebuild — never the reverse
        // (fresh-stamped stale scores served forever).
        let score_epoch = self.store.category_epoch(category);
        if let Some(list) = self.ranks.get(category, prefs, listings_epoch, score_epoch) {
            let take = k.min(list.ranked.len());
            out.extend_from_slice(&list.ranked[..take]);
            return;
        }
        let plan = self.category_plan(category);
        let ranked = self.rank_category(&plan, prefs);
        let list = self.ranks.insert(
            category,
            Arc::new(RankedList {
                // The plan's epoch, not the one loaded above: the plan
                // build may have observed a racing publish, and the
                // ranked content corresponds to *its* candidate set.
                listings_epoch: plan.epoch,
                score_epoch,
                prefs: prefs.clone(),
                ranked,
            }),
        );
        let take = k.min(list.ranked.len());
        out.extend_from_slice(&list.ranked[..take]);
    }

    /// Score and sort every candidate of `plan` under `prefs`, reusing
    /// the thread-local scratch buffers for the weight/score vectors.
    fn rank_category(&self, plan: &CategoryPlan, prefs: &Preferences) -> Vec<RankedService> {
        if plan.candidates.is_empty() {
            return Vec::new();
        }
        let w = self.reputation_weight;
        let mut ranked: Vec<RankedService> = Vec::with_capacity(plan.candidates.len());
        RANK_SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            if scratch.warm {
                self.scratch_reuse.fetch_add(1, Ordering::Relaxed);
            } else {
                scratch.warm = true;
            }
            let RankScratch {
                weights, scores, ..
            } = &mut *scratch;
            plan.matrix.scores_unsorted_into(prefs, weights, scores);
            for (&(service, provider), qos) in plan.candidates.iter().zip(scores.iter()) {
                let reputation = self.score(service.into());
                let rep_value = reputation
                    .map(|e| e.value.get())
                    .unwrap_or_else(|| TrustEstimate::ignorance().value.get());
                ranked.push(RankedService {
                    service,
                    provider,
                    qos_score: qos.score,
                    reputation,
                    score: (1.0 - w) * qos.score + w * rep_value,
                });
            }
        });
        ranked.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        ranked
    }

    /// The category's prepared ranking plan, rebuilt only when a publish
    /// or deregister has moved the listings epoch since it was cached.
    ///
    /// The plan is built under the listings read lock, so a plan can
    /// never pair stale candidates with a fresh epoch; the matrix is
    /// built over borrowed advertised vectors — no listing is cloned on
    /// this path.
    fn category_plan(&self, category: u32) -> Arc<CategoryPlan> {
        let plan = {
            let table = self.listings.table.read();
            let epoch = self.listings.epoch();
            if let Some(plan) = self.plans.get(category, epoch) {
                return plan;
            }
            let candidates = search_category(table.values(), category);
            let vectors: Vec<&QosVector> = candidates.iter().map(|l| &l.advertised).collect();
            let mut metrics: Vec<Metric> = vectors.iter().flat_map(|v| v.metrics()).collect();
            metrics.sort();
            metrics.dedup();
            Arc::new(CategoryPlan {
                epoch,
                candidates: candidates.iter().map(|l| (l.service, l.provider)).collect(),
                matrix: NormalizationMatrix::new(&vectors, &metrics),
            })
        };
        self.plans.insert(category, plan)
    }

    /// Operational counters. See [`ServiceStats`] for the consistency
    /// contract — collection never blocks the read or write path.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            shards: self.store.num_shards(),
            listings: self.listings.len(),
            feedback: self.store.len() as u64,
            submitted: self.ingest.submitted(),
            topk_plan_hits: self.plans.hits(),
            topk_plan_misses: self.plans.misses(),
            preranked_hits: self.ranks.hits(),
            preranked_misses: self.ranks.misses(),
            snapshot_swaps: self.store.swaps() + self.plans.swaps() + self.ranks.swaps(),
            scratch_reuse: self.scratch_reuse.load(Ordering::Relaxed),
            incremental: self.store.is_incremental(),
            journal: self.journal.as_ref().map(|handle| handle.health()),
        }
    }

    /// The shared sharded store (for tests and benchmarks).
    pub fn store(&self) -> &Arc<ShardedStore> {
        &self.store
    }
}

/// Read the checkpoint LSN `L` with every commit lock held — and only
/// that — then build `snap-L` from what is on disk: the latest valid
/// snapshot plus the WAL records `[snapshot.lsn, L)`.
///
/// Consistency argument: every mutation appends its journal record
/// under a commit lock, so with all locks held no append is in flight
/// and every record below `L` is in its segment. The snapshot is then
/// *by construction* what the first `L` records rebuild — the same
/// [`recover_prefix`] code recovery itself runs — whatever the serving
/// state holds: reports still queued in the ingest queues get LSNs at
/// or above `L` and survive compaction in the WAL tails, and state a
/// degraded handle applied without journaling is never persisted under
/// a journal LSN.
fn checkpoint_now(handle: &JournalHandle) -> io::Result<CheckpointReport> {
    let _one_at_a_time = handle.checkpoint_guard();
    let lsn = handle.frozen_lsn();
    // The checkpoint-side fault seam: an installed IoPolicy can fail or
    // delay the snapshot write just like any journal I/O.
    handle.consult_snapshot()?;
    let dir = handle.dir();
    let state = recover_prefix(dir, lsn)?;
    // `recover_prefix` falls back past a damaged snapshot, as recovery
    // must; but the segments that one covered are gone, so a snapshot
    // built on the fallback would seal the loss in and delete its trace.
    let newest = list_snapshots(dir)?.last().map(|(lsn, _)| *lsn);
    if newest != state.snapshot_lsn {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "newest snapshot in {} does not validate; refusing to checkpoint over it",
                dir.display()
            ),
        ));
    }
    write_snapshot(dir, lsn, &state.listings, &state.feedback)?;
    let report = handle.compact(lsn)?;
    Ok(CheckpointReport {
        lsn,
        entries: state.listings.len() as u64 + state.feedback.len() as u64,
        segments_removed: report.segments_removed,
        snapshots_removed: report.snapshots_removed,
        bytes_reclaimed: report.bytes_reclaimed,
    })
}

/// The background checkpointer: wakes on a period, snapshots, compacts.
/// Stopped and joined on drop.
struct Compactor {
    stop: Arc<(StdMutex<bool>, Condvar)>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Compactor {
    fn spawn(every: Duration, handle: Arc<JournalHandle>) -> Compactor {
        let stop = Arc::new((StdMutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let thread = thread::spawn(move || {
            let (lock, wake) = &*thread_stop;
            let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
            while !*stopped {
                let (guard, timeout) = wake
                    .wait_timeout(stopped, every)
                    .unwrap_or_else(|e| e.into_inner());
                stopped = guard;
                if !*stopped && timeout.timed_out() {
                    // A failed background pass only delays compaction;
                    // the WAL still holds everything.
                    let _ = checkpoint_now(&handle);
                }
            }
        });
        Compactor {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        let (lock, wake) = &*self.stop;
        *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
        wake.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrep_core::id::{AgentId, ProviderId};
    use wsrep_core::time::Time;
    use wsrep_journal::Journal;

    fn listing(service: u64, category: u32, price: f64, accuracy: f64) -> Listing {
        Listing {
            service: ServiceId::new(service),
            provider: ProviderId::new(service),
            category,
            advertised: QosVector::from_pairs([
                (Metric::Price, price),
                (Metric::Accuracy, accuracy),
            ]),
        }
    }

    fn feedback(rater: u64, service: u64, score: f64, at: u64) -> Feedback {
        Feedback::scored(
            AgentId::new(rater),
            ServiceId::new(service),
            score,
            Time::new(at),
        )
    }

    #[test]
    fn publish_search_and_deregister() {
        let svc = ReputationService::builder().shards(2).build();
        assert_eq!(
            svc.publish(listing(1, 0, 5.0, 0.9)),
            Ok(PublishStatus::Created)
        );
        assert_eq!(
            svc.publish(listing(1, 0, 4.0, 0.9)),
            Ok(PublishStatus::Updated)
        );
        assert_eq!(
            svc.publish(listing(2, 7, 2.0, 0.5)),
            Ok(PublishStatus::Created)
        );
        assert_eq!(svc.search(0).len(), 1);
        assert_eq!(svc.search(7).len(), 1);
        assert_eq!(svc.deregister(ServiceId::new(2)), Ok(()));
        assert_eq!(
            svc.deregister(ServiceId::new(2)),
            Err(RegistryError::NotFound)
        );
        assert_eq!(svc.search(7).len(), 0);
    }

    #[test]
    fn score_reflects_flushed_feedback() {
        let svc = ReputationService::default();
        let subject: SubjectId = ServiceId::new(1).into();
        assert_eq!(svc.score(subject), None);
        for i in 0..20 {
            svc.ingest(feedback(i, 1, 0.9, i)).unwrap();
        }
        svc.flush();
        let first = svc.score(subject).expect("evidence exists");
        assert!(first.value.get() > 0.5, "20 positive reports");
        assert_eq!(svc.score(subject), Some(first));
        assert_eq!(svc.stats().feedback, 20);
    }

    #[test]
    fn new_feedback_moves_the_published_score() {
        let svc = ReputationService::default();
        let subject: SubjectId = ServiceId::new(1).into();
        svc.ingest(feedback(0, 1, 0.95, 0)).unwrap();
        svc.flush();
        let optimistic = svc.score(subject).unwrap();
        for i in 1..30 {
            svc.ingest(feedback(i, 1, 0.05, i)).unwrap();
        }
        svc.flush();
        let corrected = svc.score(subject).unwrap();
        assert!(
            corrected.value.get() < optimistic.value.get(),
            "29 negative reports must drag the score down"
        );
    }

    #[test]
    fn top_k_blends_claims_with_reputation() {
        let svc = ReputationService::builder().reputation_weight(0.5).build();
        // Same category, same claims — only reputation can separate them.
        svc.publish(listing(1, 0, 5.0, 0.9)).unwrap();
        svc.publish(listing(2, 0, 5.0, 0.9)).unwrap();
        for i in 0..15 {
            svc.ingest(feedback(i, 1, 0.95, i)).unwrap();
            svc.ingest(feedback(i, 2, 0.05, i)).unwrap();
        }
        svc.flush();
        let prefs = Preferences::uniform([Metric::Price, Metric::Accuracy]);
        let top = svc.top_k(0, &prefs, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].service, ServiceId::new(1));
        assert!(top[0].score > top[1].score);
        assert_eq!(svc.top_k(0, &prefs, 1).len(), 1);
        assert_eq!(svc.top_k(99, &prefs, 5), Vec::new());
    }

    #[test]
    fn unrated_services_rank_by_claims_alone() {
        let svc = ReputationService::builder().reputation_weight(0.5).build();
        svc.publish(listing(1, 0, 1.0, 0.9)).unwrap(); // cheap and accurate
        svc.publish(listing(2, 0, 9.0, 0.2)).unwrap(); // pricey and sloppy
        let prefs = Preferences::uniform([Metric::Price, Metric::Accuracy]);
        let top = svc.top_k(0, &prefs, 5);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].service, ServiceId::new(1));
        assert!(top.iter().all(|r| r.reputation.is_none()));
    }

    #[test]
    fn repeat_top_k_serves_from_the_preranked_list() {
        let svc = ReputationService::builder().reputation_weight(0.5).build();
        svc.publish(listing(1, 0, 1.0, 0.9)).unwrap();
        svc.publish(listing(2, 0, 2.0, 0.8)).unwrap();
        let prefs = Preferences::uniform([Metric::Price, Metric::Accuracy]);
        let first = svc.top_k(0, &prefs, 2);
        let mut out = Vec::new();
        for _ in 0..10 {
            svc.top_k_into(0, &prefs, 2, &mut out);
            assert_eq!(out, first);
        }
        let stats = svc.stats();
        assert_eq!(stats.preranked_hits, 10, "{stats:?}");
        assert_eq!(stats.preranked_misses, 1, "{stats:?}");
    }

    #[test]
    fn member_feedback_invalidates_the_preranked_list() {
        let svc = ReputationService::builder().reputation_weight(1.0).build();
        svc.publish(listing(1, 0, 5.0, 0.9)).unwrap();
        svc.publish(listing(2, 0, 5.0, 0.9)).unwrap();
        let prefs = Preferences::uniform([Metric::Price, Metric::Accuracy]);
        let before = svc.top_k(0, &prefs, 2);
        // Pure-reputation weights and identical claims: the ranking can
        // only move if the rank list is actually invalidated by feedback.
        for i in 0..20 {
            svc.ingest(feedback(i, 2, 0.99, i)).unwrap();
            svc.ingest(feedback(i, 1, 0.01, i)).unwrap();
        }
        svc.flush();
        let after = svc.top_k(0, &prefs, 2);
        assert_eq!(before[0].service, ServiceId::new(1), "listing order tie");
        assert_eq!(after[0].service, ServiceId::new(2), "feedback re-ranked");
        let stats = svc.stats();
        assert!(stats.preranked_misses >= 2, "{stats:?}");
    }

    #[test]
    fn feedback_about_unlisted_subjects_keeps_rank_lists_valid() {
        let svc = ReputationService::default();
        svc.publish(listing(1, 0, 1.0, 0.9)).unwrap();
        let prefs = Preferences::uniform([Metric::Price]);
        svc.top_k(0, &prefs, 1);
        // Feedback about a service nobody listed: no category member
        // moved, so the pre-ranked list must keep serving.
        for i in 0..10 {
            svc.ingest(feedback(i, 999, 0.5, i)).unwrap();
        }
        svc.flush();
        svc.top_k(0, &prefs, 1);
        let stats = svc.stats();
        assert_eq!(stats.preranked_hits, 1, "{stats:?}");
        assert_eq!(stats.preranked_misses, 1, "{stats:?}");
    }

    /// Installing a recovered listing table one listing at a time would
    /// copy a published map per first-seen listing — quadratic. Recovery
    /// installs the whole table with at most one swap per shard.
    #[test]
    fn recovering_a_listing_table_swaps_each_published_map_at_most_once() {
        const LISTINGS: u64 = 20_000;
        let dir = std::env::temp_dir().join(format!(
            "wsrep-serve-service-memberships-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
            let records: Vec<JournalRecord> = (0..LISTINGS)
                .map(|s| JournalRecord::Publish(listing(s, (s % 40) as u32, 1.0, 0.5)))
                .collect();
            journal.append_batch(&records).unwrap();
        }
        let svc = ReputationService::builder().recover_from(&dir).build();
        assert_eq!(svc.stats().listings, LISTINGS as usize);
        // One swap per shard, and one for the 40 categories' epochs.
        let recovered = svc.store.swaps();
        assert!(
            recovered <= svc.store.num_shards() as u64 + 1,
            "{recovered}"
        );
        // The memberships are live: feedback about a recovered listing
        // moves its category's score epoch, and swaps nothing.
        svc.ingest(feedback(0, 47, 0.9, 0)).unwrap();
        svc.flush();
        assert_eq!(svc.store.category_epoch(7), 1);
        // Nor does re-publishing an unchanged listing.
        svc.publish(listing(47, 7, 1.0, 0.5)).unwrap();
        assert_eq!(svc.store.swaps(), recovered);
        // A new listing in a new category still pays its copy: one swap
        // for the category's epoch, one for the member.
        svc.publish(listing(LISTINGS, 40, 1.0, 0.5)).unwrap();
        assert_eq!(svc.store.swaps(), recovered + 2);
        drop(svc);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_report_snapshot_swaps_and_scratch_reuse() {
        let svc = ReputationService::default();
        svc.publish(listing(1, 0, 1.0, 0.9)).unwrap();
        let prefs = Preferences::uniform([Metric::Price]);
        svc.top_k(0, &prefs, 1);
        svc.publish(listing(2, 0, 2.0, 0.8)).unwrap();
        svc.top_k(0, &prefs, 2);
        let stats = svc.stats();
        assert!(stats.snapshot_swaps >= 2, "{stats:?}");
        assert!(stats.scratch_reuse >= 1, "second rebuild reuses: {stats:?}");
    }
}
