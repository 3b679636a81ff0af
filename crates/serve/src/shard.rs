//! The sharded scoring state behind the served registry.
//!
//! Subjects are spread over independently locked shards, keyed by a hash
//! of the subject, so ingestion and queries touching different subjects
//! proceed in parallel. Every report about one subject lands in exactly
//! one shard, which keeps per-subject scoring local: a score never needs
//! more than one read lock.
//!
//! What a shard keeps of the reports it applied is a property of the
//! mechanism, fixed when the store is built:
//!
//! - **Fold mode** ([`ShardedStore::with_fold`] with a factory): one
//!   [`SubjectAccumulator`] per subject, folded forward as reports are
//!   applied. A report is absorbed **by reference and dropped** — the
//!   shard holds no log, the journal is the only copy of it, and what one
//!   more report costs in RAM is nothing once its subject is resident. A
//!   score read is O(1) in the subject's history.
//! - **Log mode** (no factory: the mechanism has no fold, or the service
//!   was built with `replay_scoring()`): a plain [`FeedbackStore`], kept
//!   as replay material for `score_from_log`.
//!
//! The accessors that hand out the log ([`Shard::store`],
//! [`ShardedStore::about`]) return `None` in fold mode rather than an
//! empty log; report counts come from counters in both modes.
//!
//! Each shard also tracks a per-subject **epoch** — a counter bumped on
//! every report about that subject. The score cache stamps entries with
//! the epoch it computed from; a stale epoch is a cache miss, so readers
//! can never serve a score that silently ignores applied feedback. Epochs
//! live *outside* the shard lock, in an [`EpochMap`] of atomic counters
//! behind a snapshot cell: reading an epoch — the first step of every
//! `score` — is wait-free and never queues behind the ingest writer.
//!
//! Epoch bumps happen **after** the report is applied to the shard. A
//! reader that observes epoch `E` and recomputes therefore sees *at
//! least* `E` reports — the score it caches at `E` is never staler than
//! `E`, only possibly fresher, and the next bump invalidates it.

use crate::fxhash::{self, FxHashMap};
use crate::snapshot::SnapshotCell;
use parking_lot::{Mutex, RwLock};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::SubjectId;
use wsrep_core::mechanism::SubjectAccumulator;
use wsrep_core::store::FeedbackStore;
use wsrep_core::trust::TrustEstimate;

/// Builds one empty per-subject accumulator; shards call it the first
/// time they see a subject. `None` on the store means the configured
/// mechanism has no incremental fold and scoring replays the log.
pub type FoldFactory = Arc<dyn Fn() -> Box<dyn SubjectAccumulator> + Send + Sync>;

/// A report handed to the store: borrowed or owned. Fold mode only ever
/// looks at it; log mode needs to own it, and clones a borrowed one.
pub trait Report: Borrow<Feedback> {
    /// The owned report, for the shard log.
    fn into_feedback(self) -> Feedback;
}

impl Report for Feedback {
    fn into_feedback(self) -> Feedback {
        self
    }
}

impl Report for &Feedback {
    fn into_feedback(self) -> Feedback {
        self.clone()
    }
}

/// Wait-free subject → epoch counters for one shard.
///
/// The map of `Arc<AtomicU64>` counters is published through a
/// [`SnapshotCell`]; reading an epoch is a pin + probe + atomic load.
/// Adding *new* subjects copies the map and swaps the snapshot (rare —
/// once per subject lifetime, and once per applied batch however many
/// first-seen subjects it carries); bumping an existing subject is a
/// single `fetch_add` with no snapshot churn.
#[derive(Debug, Default)]
pub struct EpochMap {
    snapshot: SnapshotCell<FxHashMap<SubjectId, Arc<AtomicU64>>>,
    write: Mutex<()>,
}

impl EpochMap {
    /// The subject's epoch (0 = never seen). Wait-free.
    pub fn get(&self, subject: SubjectId) -> u64 {
        self.snapshot.read(|map| {
            map.get(&subject)
                .map(|counter| counter.load(Ordering::Acquire))
                .unwrap_or(0)
        })
    }

    /// Count one applied report per entry of `subjects`. First-seen
    /// subjects are published together in one snapshot swap, so applying
    /// a batch (or a whole recovered log) costs one map copy, not one
    /// per new subject.
    fn bump_all(&self, subjects: impl IntoIterator<Item = SubjectId>) {
        let current = self.snapshot.load();
        let mut unseen: Vec<SubjectId> = Vec::new();
        for subject in subjects {
            match current.get(&subject) {
                Some(counter) => {
                    counter.fetch_add(1, Ordering::AcqRel);
                }
                None => unseen.push(subject),
            }
        }
        if unseen.is_empty() {
            return;
        }
        let _writer = self.write.lock();
        // Re-read under the writer mutex: a racing bump may have
        // published some of these counters while we waited.
        let mut next = (*self.snapshot.load()).clone();
        for subject in unseen {
            next.entry(subject)
                .or_insert_with(|| Arc::new(AtomicU64::new(0)))
                .fetch_add(1, Ordering::AcqRel);
        }
        self.snapshot.store(Arc::new(next));
    }
}

/// What a shard keeps of the reports it applied.
enum ShardState {
    /// The mechanism folds: a report is absorbed into its subject's
    /// accumulator and dropped.
    Folded {
        fold: FoldFactory,
        accumulators: BTreeMap<SubjectId, Box<dyn SubjectAccumulator>>,
    },
    /// No fold: the log itself, replayed on every score miss.
    Logged(FeedbackStore),
}

/// One shard: the resident accumulators of the subjects it owns, or —
/// for a mechanism without a fold — their feedback log.
pub struct Shard {
    state: ShardState,
    /// Reports applied to this shard, whether or not they are held.
    applied: usize,
}

impl Shard {
    fn new(fold: Option<FoldFactory>) -> Shard {
        Shard {
            state: match fold {
                Some(fold) => ShardState::Folded {
                    fold,
                    accumulators: BTreeMap::new(),
                },
                None => ShardState::Logged(FeedbackStore::new()),
            },
            applied: 0,
        }
    }

    /// The shard's feedback log — `None` in fold mode, where no log is
    /// held (the journal owns it).
    pub fn store(&self) -> Option<&FeedbackStore> {
        match &self.state {
            ShardState::Folded { .. } => None,
            ShardState::Logged(store) => Some(store),
        }
    }

    /// The resident estimate for `subject`: `Some(estimate)` when an
    /// accumulator is folding this subject, `None` when scoring must
    /// replay the log (log mode, or no report applied yet).
    pub fn resident_estimate(&self, subject: SubjectId) -> Option<Option<TrustEstimate>> {
        match &self.state {
            ShardState::Folded { accumulators, .. } => {
                accumulators.get(&subject).map(|acc| acc.estimate())
            }
            ShardState::Logged(_) => None,
        }
    }

    fn push(&mut self, report: impl Report) {
        match &mut self.state {
            ShardState::Folded { fold, accumulators } => {
                let feedback = report.borrow();
                accumulators
                    .entry(feedback.subject)
                    .or_insert_with(|| fold())
                    .absorb(feedback);
            }
            ShardState::Logged(store) => store.push(report.into_feedback()),
        }
        self.applied += 1;
    }
}

/// A fixed set of independently locked shards.
///
/// All methods take `&self`; interior mutability lives in the per-shard
/// `RwLock`s, so the store can sit behind an `Arc` and be hit from any
/// number of ingest and query threads at once. Epoch reads and the total
/// report count bypass the locks entirely.
pub struct ShardedStore {
    shards: Vec<RwLock<Shard>>,
    epochs: Vec<EpochMap>,
    /// Reports applied across all shards; relaxed, bumped per batch.
    total: AtomicU64,
    incremental: bool,
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.shards.len())
            .field("incremental", &self.incremental)
            .finish()
    }
}

impl ShardedStore {
    /// A store with `shards` independent locks (at least one), keeping
    /// each shard's log and scoring by replay.
    pub fn new(shards: usize) -> Self {
        Self::with_fold(shards, None)
    }

    /// With a factory, a store whose shards keep resident per-subject
    /// accumulators built by `fold`, folded forward on every applied
    /// report, and no log; with `None`, one whose shards keep the log.
    pub fn with_fold(shards: usize, fold: Option<FoldFactory>) -> Self {
        let count = shards.max(1);
        ShardedStore {
            shards: (0..count)
                .map(|_| RwLock::new(Shard::new(fold.clone())))
                .collect(),
            epochs: (0..count).map(|_| EpochMap::default()).collect(),
            total: AtomicU64::new(0),
            incremental: fold.is_some(),
        }
    }

    /// Whether shards fold reports into resident scoring state (and so
    /// hold no log).
    pub fn is_incremental(&self) -> bool {
        self.incremental
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning `subject`.
    pub fn shard_of(&self, subject: SubjectId) -> usize {
        (fxhash::hash_one(&subject) % self.shards.len() as u64) as usize
    }

    /// Apply one report.
    pub fn insert(&self, report: impl Report) {
        let subject = report.borrow().subject;
        let idx = self.shard_of(subject);
        self.shards[idx].write().push(report);
        self.total.fetch_add(1, Ordering::Relaxed);
        // Bump after the report is applied (never-stale rule).
        self.epochs[idx].bump_all([subject]);
    }

    /// Apply a batch — owned reports or references — taking each shard's
    /// write lock once.
    ///
    /// This is what makes batched ingestion pay: a batch of B reports
    /// spread over S shards costs at most `min(B, S)` lock acquisitions
    /// instead of B. In fold mode a borrowed batch is never copied.
    pub fn insert_batch<R: Report>(&self, batch: impl IntoIterator<Item = R>) {
        for (idx, group) in self.partition(batch).into_iter().enumerate() {
            if !group.is_empty() {
                self.apply_group(idx, group);
            }
        }
    }

    /// Apply one shard's pre-partitioned group: push everything under one
    /// write-lock acquisition, then bump epochs (after-apply, so epoch
    /// observers can never get ahead of the applied state — the
    /// never-stale rule; see module docs).
    fn apply_group<R: Report>(&self, idx: usize, group: Vec<R>) {
        let subjects: Vec<SubjectId> = group.iter().map(|r| r.borrow().subject).collect();
        {
            let mut shard = self.shards[idx].write();
            for report in group {
                shard.push(report);
            }
        }
        self.total
            .fetch_add(subjects.len() as u64, Ordering::Relaxed);
        self.epochs[idx].bump_all(subjects);
    }

    /// Apply a batch with one worker thread per core, each owning a
    /// disjoint set of shards — the recovery path, where the WAL replay
    /// hands us the whole history at once and restart cost should scale
    /// with cores, not log length. In fold mode the workers absorb the
    /// reports by reference: nothing is moved out of `batch`.
    ///
    /// Equivalent to [`ShardedStore::insert_batch`]: partitioning keeps
    /// per-subject order (a subject lives in exactly one shard group),
    /// and cross-shard apply order never mattered — shards share no
    /// state. Epochs and resident state come out identical.
    pub fn insert_batch_parallel(&self, batch: Vec<Feedback>) {
        if self.incremental {
            self.apply_parallel(self.partition(&batch));
        } else {
            self.apply_parallel(self.partition(batch));
        }
    }

    fn apply_parallel<R: Report + Send>(&self, per_shard: Vec<Vec<R>>) {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(self.shards.len());
        // Round-robin shard ownership: worker w applies shard groups
        // w, w + workers, w + 2·workers, … No two workers touch the
        // same shard, so there is no lock contention to speak of.
        let mut per_worker: Vec<Vec<(usize, Vec<R>)>> = (0..workers).map(|_| Vec::new()).collect();
        for (idx, group) in per_shard.into_iter().enumerate() {
            if !group.is_empty() {
                per_worker[idx % workers].push((idx, group));
            }
        }
        std::thread::scope(|scope| {
            for mine in per_worker {
                if mine.is_empty() {
                    continue;
                }
                scope.spawn(move || {
                    for (idx, group) in mine {
                        self.apply_group(idx, group);
                    }
                });
            }
        });
    }

    fn partition<R: Report>(&self, batch: impl IntoIterator<Item = R>) -> Vec<Vec<R>> {
        let mut per_shard: Vec<Vec<R>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for report in batch {
            per_shard[self.shard_of(report.borrow().subject)].push(report);
        }
        per_shard
    }

    /// The subject's current epoch (0 = no evidence yet). Wait-free:
    /// one snapshot pin, one probe, one atomic load — never queues
    /// behind the ingest writer.
    pub fn epoch(&self, subject: SubjectId) -> u64 {
        self.epochs[self.shard_of(subject)].get(subject)
    }

    /// Every report about `subject`, oldest first — `None` in fold mode,
    /// where the store holds no log to copy from.
    pub fn about(&self, subject: SubjectId) -> Option<Vec<Feedback>> {
        self.with_subject_shard(subject, |shard| {
            shard
                .store()
                .map(|store| store.about(subject).cloned().collect())
        })
    }

    /// Run `f` against the shard owning `subject` under its read lock —
    /// scoring without copying anything out.
    pub fn with_subject_shard<R>(&self, subject: SubjectId, f: impl FnOnce(&Shard) -> R) -> R {
        f(&self.shards[self.shard_of(subject)].read())
    }

    /// Reports applied to shard `idx` (a counter: fold mode holds none).
    pub fn shard_len(&self, idx: usize) -> usize {
        self.shards[idx].read().applied
    }

    /// Reports held in RAM across all shards: every applied report in
    /// log mode, zero in fold mode.
    pub fn resident_reports(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.read().store().map_or(0, FeedbackStore::len))
            .sum()
    }

    /// Total reports across all shards, from a relaxed counter bumped as
    /// batches are applied — reading it takes no locks. Monotonic; may
    /// trail an in-flight batch by a few reports.
    pub fn len(&self) -> usize {
        self.total.load(Ordering::Relaxed) as usize
    }

    /// Whether no report has been applied anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrep_core::id::{AgentId, ServiceId};
    use wsrep_core::mechanism::ReputationMechanism;
    use wsrep_core::mechanisms::beta::BetaMechanism;
    use wsrep_core::time::Time;

    fn fb(rater: u64, service: u64, score: f64) -> Feedback {
        Feedback::scored(
            AgentId::new(rater),
            ServiceId::new(service),
            score,
            Time::ZERO,
        )
    }

    fn beta_fold() -> Option<FoldFactory> {
        Some(Arc::new(|| {
            BetaMechanism::new()
                .accumulator()
                .expect("beta has an incremental fold")
        }))
    }

    #[test]
    fn subject_always_maps_to_the_same_shard() {
        let store = ShardedStore::new(8);
        let s: SubjectId = ServiceId::new(42).into();
        let first = store.shard_of(s);
        for _ in 0..10 {
            assert_eq!(store.shard_of(s), first);
        }
    }

    #[test]
    fn epochs_count_reports_per_subject() {
        let store = ShardedStore::new(4);
        let s: SubjectId = ServiceId::new(1).into();
        assert_eq!(store.epoch(s), 0);
        store.insert(fb(0, 1, 0.9));
        store.insert(fb(1, 1, 0.4));
        store.insert(fb(0, 2, 0.7));
        assert_eq!(store.epoch(s), 2);
        assert_eq!(store.epoch(ServiceId::new(2).into()), 1);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn batch_equals_sequential_inserts() {
        let batch: Vec<Feedback> = (0..40).map(|i| fb(i, i % 7, 0.5)).collect();
        let batched = ShardedStore::new(4);
        batched.insert_batch(batch.clone());
        let sequential = ShardedStore::new(4);
        for f in batch {
            sequential.insert(f);
        }
        assert_eq!(batched.len(), sequential.len());
        for service in 0..7u64 {
            let s: SubjectId = ServiceId::new(service).into();
            assert_eq!(batched.epoch(s), sequential.epoch(s));
            assert_eq!(batched.about(s), sequential.about(s));
        }
    }

    #[test]
    fn resident_estimates_track_applied_feedback() {
        let store = ShardedStore::with_fold(4, beta_fold());
        assert!(store.is_incremental());
        let s: SubjectId = ServiceId::new(1).into();
        assert_eq!(
            store.with_subject_shard(s, |sh| sh.resident_estimate(s)),
            None
        );
        store.insert(fb(0, 1, 1.0));
        store.insert(fb(1, 1, 1.0));
        let resident = store
            .with_subject_shard(s, |sh| sh.resident_estimate(s))
            .expect("accumulator exists")
            .expect("evidence exists");
        // Fold mode holds no log; a log-mode twin fed the same reports
        // is the replay reference.
        assert_eq!(store.about(s), None);
        assert_eq!(store.resident_reports(), 0);
        let twin = ShardedStore::new(4);
        twin.insert(fb(0, 1, 1.0));
        twin.insert(fb(1, 1, 1.0));
        assert_eq!(twin.resident_reports(), 2);
        let log = twin.about(s).expect("log mode keeps the log");
        let mut replay = BetaMechanism::new();
        let replayed = wsrep_core::mechanism::score_from_log(&mut replay, &log, s).unwrap();
        assert_eq!(resident, replayed);
    }

    #[test]
    fn replay_mode_has_no_resident_state() {
        let store = ShardedStore::new(4);
        assert!(!store.is_incremental());
        let s: SubjectId = ServiceId::new(1).into();
        store.insert(fb(0, 1, 0.9));
        assert_eq!(
            store.with_subject_shard(s, |sh| sh.resident_estimate(s)),
            None
        );
        assert_eq!(store.epoch(s), 1);
    }

    #[test]
    fn parallel_batch_equals_sequential_batch() {
        let batch: Vec<Feedback> = (0..500)
            .map(|i| fb(i, i % 13, (i % 10) as f64 / 10.0))
            .collect();
        // Both modes: fold mode absorbs the batch by reference, log mode
        // moves it into the shard logs.
        for fold in [beta_fold(), None] {
            let parallel = ShardedStore::with_fold(8, fold.clone());
            parallel.insert_batch_parallel(batch.clone());
            let sequential = ShardedStore::with_fold(8, fold);
            sequential.insert_batch(&batch);
            assert_eq!(parallel.len(), sequential.len());
            for idx in 0..8 {
                assert_eq!(parallel.shard_len(idx), sequential.shard_len(idx));
            }
            for service in 0..13u64 {
                let s: SubjectId = ServiceId::new(service).into();
                assert_eq!(parallel.epoch(s), sequential.epoch(s));
                assert_eq!(parallel.about(s), sequential.about(s));
                assert_eq!(
                    parallel.with_subject_shard(s, |sh| sh.resident_estimate(s)),
                    sequential.with_subject_shard(s, |sh| sh.resident_estimate(s)),
                );
            }
        }
    }

    /// A batch full of first-seen subjects publishes their epoch
    /// counters in one snapshot swap per shard, not one per subject.
    #[test]
    fn first_seen_subjects_of_a_batch_share_one_epoch_swap() {
        let store = ShardedStore::with_fold(2, beta_fold());
        let batch: Vec<Feedback> = (0..600).map(|i| fb(i, i % 300, 0.5)).collect();
        store.insert_batch(&batch);
        let swaps: u64 = store.epochs.iter().map(|e| e.snapshot.swaps()).sum();
        assert_eq!(swaps, 2, "one swap per touched shard");
        for service in 0..300u64 {
            assert_eq!(store.epoch(ServiceId::new(service).into()), 2);
        }
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let store = ShardedStore::new(0);
        assert_eq!(store.num_shards(), 1);
        store.insert(fb(0, 1, 0.5));
        assert_eq!(store.len(), 1);
    }

    /// Epoch readers racing the writer observe a monotone counter that
    /// never gets ahead of the applied log.
    #[test]
    fn epoch_reads_race_inserts_without_blocking() {
        let store = Arc::new(ShardedStore::new(2));
        let s: SubjectId = ServiceId::new(5).into();
        std::thread::scope(|scope| {
            let reader_store = Arc::clone(&store);
            scope.spawn(move || {
                let mut last = 0;
                for _ in 0..50_000 {
                    let e = reader_store.epoch(s);
                    assert!(e >= last, "epoch went backwards: {e} < {last}");
                    last = e;
                }
            });
            let writer_store = Arc::clone(&store);
            scope.spawn(move || {
                for i in 0..2_000 {
                    writer_store.insert(fb(i, 5, 0.5));
                }
            });
        });
        assert_eq!(store.epoch(s), 2_000);
    }
}
