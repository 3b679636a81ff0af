//! The sharded scoring state behind the served registry, and the one
//! published estimate per subject that every read is served from.
//!
//! Subjects are spread over independently locked shards, keyed by a hash
//! of the subject, so ingestion touching different subjects proceeds in
//! parallel. Every report about one subject lands in exactly one shard,
//! which keeps per-subject scoring local.
//!
//! Each shard holds its subjects' state as the rows of one
//! [`AccumulatorTable`], built once per shard by [`accumulator_table`].
//! When the mechanism offers a fold ([`ReputationMechanism::accumulator`]),
//! the table is a [`Rows`] of that fold: its rows sit inline in blocks of
//! [`ROWS_PER_BLOCK`], allocated as the last one fills and never grown or
//! moved. A row absorbs a report **by reference and drops it**: the
//! journal is the only copy of the log, and one more report costs nothing
//! in RAM once its subject is resident. A mechanism without a fold gets a
//! [`LogReplay`] table instead: per row, the subject's reports in arrival
//! order, replayed through a fresh instance by [`score_from_log`].
//! [`ShardedStore::resident_reports`] counts what those hold.
//!
//! [`ReputationMechanism::accumulator`]: wsrep_core::mechanism::ReputationMechanism::accumulator
//! [`Rows`]: wsrep_core::mechanism::Rows
//! [`ROWS_PER_BLOCK`]: wsrep_core::mechanism::ROWS_PER_BLOCK
//! [`LogReplay`]: wsrep_core::mechanism::LogReplay
//! [`score_from_log`]: wsrep_core::mechanism::score_from_log
//!
//! Each subject a shard has seen has a dense **slot**, kept in its
//! published entry: its row in the table, which also indexes a stamp
//! naming the last group that touched it. A shard keys nothing else by
//! subject.
//!
//! # The publish protocol
//!
//! The registry computes a rating once and serves it to everyone who
//! asks. Beside each shard's lock the store keeps one snapshot-swapped map
//! of subject → `Published`: the subject's current estimate, held inline
//! as plain atomics behind a sequence counter, plus the category the
//! subject is listed in. The writer that applies a group of reports
//! stores, **before it releases the shard's write lock**, the shard's own
//! estimate of every distinct subject the group touched, and bumps the
//! score epoch of each touched subject's category. [`ShardedStore::score`]
//! is then one pin, one probe and one sequence-checked read: no lock, no
//! computation, and never older than the last applied group.
//!
//! **One lock, one rule.** Entries are stored to, and a map is cloned and
//! swapped (first-seen subjects only: one swap per applied group or
//! installed listing table, however many it carries), *only under that
//! shard's write lock* — `Slot::update` is the one place that takes it.
//! That is what makes inline values in a copy-on-write map sound: no
//! store can land in a map that a concurrent clone is about to supersede,
//! a superseded map is never stored to again (its sequence counters stay
//! even, so a reader pinned to it never retries), and such a reader
//! linearizes before the swap.
//!
//! **Recovery** is the one writer that publishes late: `recover_routed`
//! applies a recovering log's groups through the same loop and publishes
//! nothing, and `publish_all` then publishes every subject once, before
//! the service that owns the store is built, so no reader sees the store
//! in between.
//!
//! **Cost model.** Applying a report is one probe of the published map,
//! which yields the slot, plus one dynamic call that absorbs it into the
//! slot's row, found beside its neighbours in a block rather than behind
//! a pointer of its own; the slot's stamp collects the distinct touched
//! subjects as they come, with no sort. A publish then asks the table for
//! each touched subject's estimate once: an O(1) read for a fold, and for
//! a `LogReplay` a replay of the subject's whole log, so a write under a
//! mechanism without a fold is O(subject history) per touched subject per
//! applied group.

use crate::fxhash::{self, FxHashMap};
use crate::snapshot::SnapshotCell;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::SubjectId;
use wsrep_core::mechanism::{accumulator_table, AccumulatorTable};
use wsrep_core::trust::{TrustEstimate, TrustValue};

pub use wsrep_core::mechanism::MechanismFactory;

/// The word that encodes `None`, in `Published::confidence` (no estimate:
/// a NaN payload no arithmetic produces), in `Published::category` (not
/// listed: above every `u32`) and in `Published::slot` (no report yet).
const NONE: u64 = u64::MAX;

/// Reads that found the writer mid-publish spin this many times before
/// they start yielding the core to it.
const SPINS_BEFORE_YIELD: u32 = 16;

/// One subject's published state: its estimate behind a sequence counter,
/// the category it is listed in, and its slot in the shard.
///
/// Every access but the slot's is `SeqCst`, so all of them sit in one
/// total order consistent with each thread's program order. A publish is
/// `seq` odd, `value`, `confidence`, `seq` even; a read is `seq`, `value`,
/// `confidence`, `seq`. A read whose two `seq` loads return the same even
/// number lies, in that order, after the publish that stored it and before
/// the next publish's first store — so both words it loaded are that one
/// publish's.
#[derive(Debug)]
struct Published {
    seq: AtomicU64,
    value: AtomicU64,
    confidence: AtomicU64,
    category: AtomicU64,
    /// Only inside [`Slot::update`], whose lock orders it: relaxed.
    slot: AtomicU64,
}

impl Published {
    fn new(estimate: Option<TrustEstimate>, category: Option<u32>) -> Self {
        let (value, confidence) = Self::words(estimate);
        Published {
            seq: AtomicU64::new(0),
            value: AtomicU64::new(value),
            confidence: AtomicU64::new(confidence),
            category: AtomicU64::new(category.map_or(NONE, u64::from)),
            slot: AtomicU64::new(NONE),
        }
    }

    fn words(estimate: Option<TrustEstimate>) -> (u64, u64) {
        match estimate {
            Some(e) => (e.value.get().to_bits(), e.confidence.to_bits()),
            None => (0, NONE),
        }
    }

    /// The current estimate. Retries only while the writer is between the
    /// two `seq` stores of this subject's publish; a writer descheduled
    /// there is a real schedule on a small box, so the wait yields.
    fn estimate(&self) -> Option<TrustEstimate> {
        let mut attempts = 0u32;
        loop {
            let seq = self.seq.load(Ordering::SeqCst);
            let value = self.value.load(Ordering::SeqCst);
            let confidence = self.confidence.load(Ordering::SeqCst);
            if seq & 1 == 0 && self.seq.load(Ordering::SeqCst) == seq {
                return (confidence != NONE).then(|| TrustEstimate {
                    value: TrustValue::new(f64::from_bits(value)),
                    confidence: f64::from_bits(confidence),
                });
            }
            attempts += 1;
            if attempts < SPINS_BEFORE_YIELD {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Publish `estimate`. Only inside [`Slot::update`].
    fn set_estimate(&self, estimate: Option<TrustEstimate>) {
        let (value, confidence) = Self::words(estimate);
        let seq = self.seq.load(Ordering::SeqCst);
        self.seq.store(seq + 1, Ordering::SeqCst);
        self.value.store(value, Ordering::SeqCst);
        self.confidence.store(confidence, Ordering::SeqCst);
        self.seq.store(seq + 2, Ordering::SeqCst);
    }

    fn category(&self) -> Option<u32> {
        u32::try_from(self.category.load(Ordering::SeqCst)).ok()
    }

    /// Only inside [`Slot::update`].
    fn set_category(&self, category: Option<u32>) {
        self.category
            .store(category.map_or(NONE, u64::from), Ordering::SeqCst);
    }
}

impl Clone for Published {
    /// Copies the words, the slot too, into fresh atomics. Maps are cloned
    /// only inside [`Slot::update`], where no publish can be in flight.
    fn clone(&self) -> Self {
        Published {
            slot: AtomicU64::new(self.slot.load(Ordering::Relaxed)),
            ..Published::new(self.estimate(), self.category())
        }
    }
}

type PublishedMap = FxHashMap<SubjectId, Published>;

/// One shard: the accumulator table of the subjects it owns, whose row
/// index is the slot.
struct Shard {
    table: Box<dyn AccumulatorTable>,
    /// Per slot, the last group that touched its subject.
    stamps: Vec<u64>,
    /// The group being applied, renewed per group; stamps start below it.
    group: u64,
    /// Reports applied to this shard, whether or not they are held.
    applied: usize,
}

impl Shard {
    /// `entry`'s slot, handed out with a fresh row on its subject's first
    /// report. Only inside [`Slot::update`].
    fn slot_of(&mut self, entry: &Published) -> usize {
        if entry.slot.load(Ordering::Relaxed) == NONE {
            let row = self.table.push();
            entry.slot.store(row as u64, Ordering::Relaxed);
            self.stamps.push(0);
        }
        entry.slot.load(Ordering::Relaxed) as usize
    }

    /// Whether this is the current group's first report about `slot`.
    fn first_touch(&mut self, slot: usize) -> bool {
        std::mem::replace(&mut self.stamps[slot], self.group) != self.group
    }
}

/// A shard behind its lock, and beside it the map its writers publish to.
struct Slot {
    shard: RwLock<Shard>,
    published: SnapshotCell<PublishedMap>,
}

impl Slot {
    /// Run `f` with the shard write-locked and the current published map
    /// in hand. `f` stores to the entries it finds; the entries it returns
    /// are first-seen subjects, installed with one copy-on-write swap
    /// before the lock is released. The only place this lock is taken for
    /// writing, hence the only place entries or maps change.
    fn update(&self, f: impl FnOnce(&mut Shard, &PublishedMap) -> PublishedMap) {
        let mut shard = self.shard.write();
        let current = self.published.load();
        let fresh = f(&mut shard, &current);
        if !fresh.is_empty() {
            let mut next = (*current).clone();
            next.extend(fresh);
            self.published.store(Arc::new(next));
        }
    }
}

/// A fixed set of independently locked shards and their published maps.
///
/// All methods take `&self`; interior mutability lives in the per-shard
/// `RwLock`s, so the store can sit behind an `Arc` and be hit from any
/// number of ingest and query threads at once. Score reads, category
/// epochs and the total report count bypass the locks entirely.
pub struct ShardedStore {
    slots: Vec<Slot>,
    /// category → its score epoch: bumped once per touched listed subject
    /// per applied group, after that subject's estimate is published.
    category_epochs: SnapshotCell<FxHashMap<u32, Arc<AtomicU64>>>,
    /// Serializes first-seen categories, which arrive under any shard.
    category_write: Mutex<()>,
    /// Reports applied across all shards; relaxed, bumped per batch.
    total: AtomicU64,
    incremental: bool,
    /// The recipe every shard's accumulators come from, and a twin's.
    pub(crate) mechanism: MechanismFactory,
}

/// Where the reports of a batch go, worked out ahead of
/// [`ShardedStore::recover_routed`]: each shard's reports by their place
/// in the batch. Filled and applied over and over, it allocates nothing
/// once it has held its largest groups.
#[derive(Debug)]
pub(crate) struct Routed {
    shards: Vec<Vec<u32>>,
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.slots.len())
            .field("incremental", &self.incremental)
            .finish()
    }
}

impl ShardedStore {
    /// A store with `shards` independent locks (at least one) scoring
    /// through `mechanism`: by its fold's rows where it offers one, and by
    /// a `LogReplay` table where it does not.
    pub fn new(shards: usize, mechanism: MechanismFactory) -> Self {
        let incremental = mechanism().accumulator().is_some();
        let slot = || Slot {
            shard: RwLock::new(Shard {
                table: accumulator_table(&mechanism),
                stamps: Vec::new(),
                group: 0,
                applied: 0,
            }),
            published: SnapshotCell::default(),
        };
        ShardedStore {
            slots: (0..shards.max(1)).map(|_| slot()).collect(),
            category_epochs: SnapshotCell::default(),
            category_write: Mutex::new(()),
            total: AtomicU64::new(0),
            incremental,
            mechanism,
        }
    }

    /// Whether the mechanism offers a fold, so that shards hold no report
    /// (probed once, when the store is built).
    pub fn is_incremental(&self) -> bool {
        self.incremental
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.slots.len()
    }

    /// The shard index owning `subject`.
    pub fn shard_of(&self, subject: SubjectId) -> usize {
        (fxhash::hash_one(&subject) % self.slots.len() as u64) as usize
    }

    /// Apply a batch, taking each shard's write lock once.
    ///
    /// This is what makes batched ingestion pay: a batch of B reports
    /// spread over S shards costs at most `min(B, S)` lock acquisitions
    /// instead of B. A fold copies no report. When it returns,
    /// [`ShardedStore::score`] reflects every report in it.
    pub fn insert_batch<'a>(&self, batch: impl IntoIterator<Item = &'a Feedback>) {
        let groups = self.partition(batch, |report| report.subject);
        for (idx, group) in groups.into_iter().enumerate() {
            if !group.is_empty() {
                self.apply_group(idx, group.into_iter(), true);
            }
        }
    }

    /// An empty [`Routed`] with a group for each shard.
    pub(crate) fn routes(&self) -> Routed {
        let shards = self.slots.iter().map(|_| Vec::new()).collect();
        Routed { shards }
    }

    /// Route `report`, at index `at` of its batch, to its shard's group.
    pub(crate) fn route(&self, routed: &mut Routed, report: &Feedback, at: usize) {
        routed.shards[self.shard_of(report.subject)].push(at as u32);
    }

    /// Recovery's [`ShardedStore::insert_batch`] of a batch already routed,
    /// which leaves `routed` empty for the next. It publishes nothing: a
    /// score lags the applied state until [`ShardedStore::publish_all`],
    /// so only a store no reader can reach yet may take it.
    pub(crate) fn recover_routed(&self, routed: &mut Routed, batch: &[Feedback]) {
        for (idx, group) in routed.shards.iter_mut().enumerate() {
            if !group.is_empty() {
                let reports = group.iter().map(|&at| &batch[at as usize]);
                self.apply_group(idx, reports, false);
                group.clear();
            }
        }
    }

    /// Publish every subject's estimate, once: what
    /// [`ShardedStore::recover_routed`] left unpublished.
    pub(crate) fn publish_all(&self) {
        for slot in &self.slots {
            slot.update(|shard, published| {
                for entry in published.values() {
                    let row = entry.slot.load(Ordering::Relaxed);
                    if row != NONE {
                        entry.set_estimate(shard.table.estimate(row as usize));
                    }
                }
                PublishedMap::default()
            });
        }
    }

    /// Apply one shard's pre-partitioned group under one write-lock
    /// acquisition: push every report, then publish the shard's estimate
    /// of each distinct touched subject and bump its category's epoch —
    /// after the apply and before the lock is released, so neither a
    /// score nor an epoch a reader observes can be ahead of, or (once
    /// this returns) behind, the applied state.
    ///
    /// Without `publish` it only applies (recovery's way, which publishes
    /// once at its end): no estimate or epoch moves, and no stamp.
    fn apply_group<'a>(
        &self,
        idx: usize,
        group: impl ExactSizeIterator<Item = &'a Feedback>,
        publish: bool,
    ) {
        let applied = group.len();
        self.slots[idx].update(|shard, published| {
            shard.group += 1;
            let (mut touched, mut fresh) = (Vec::new(), PublishedMap::default());
            let unseen = || Published::new(None, None);
            for report in group {
                let subject = report.subject;
                let known = published.get(&subject);
                let slot = match known {
                    Some(entry) => shard.slot_of(entry),
                    None => shard.slot_of(fresh.entry(subject).or_insert_with(unseen)),
                };
                if publish && shard.first_touch(slot) {
                    touched.push((subject, slot, known));
                }
                shard.table.absorb(slot, report);
            }
            shard.applied += applied;
            self.category_epochs.read(|epochs| {
                for (subject, slot, known) in touched {
                    // A first-seen subject is in `fresh`, and unlisted.
                    let entry = known.unwrap_or_else(|| &fresh[&subject]);
                    entry.set_estimate(shard.table.estimate(slot));
                    if let Some(epoch) = entry.category().and_then(|c| epochs.get(&c)) {
                        epoch.fetch_add(1, Ordering::AcqRel);
                    }
                }
            });
            fresh
        });
        self.total.fetch_add(applied as u64, Ordering::Relaxed);
    }

    fn partition<T>(
        &self,
        items: impl IntoIterator<Item = T>,
        subject: impl Fn(&T) -> SubjectId,
    ) -> Vec<Vec<T>> {
        let mut per_shard: Vec<Vec<T>> = (0..self.slots.len()).map(|_| Vec::new()).collect();
        for item in items {
            per_shard[self.shard_of(subject(&item))].push(item);
        }
        per_shard
    }

    /// The subject's published estimate: `None` when nothing was ever
    /// reported about it or the mechanism abstains. One snapshot pin, one
    /// probe, one sequence-checked read — no lock, and never older than
    /// the last group [`ShardedStore::insert_batch`] returned from.
    pub fn score(&self, subject: SubjectId) -> Option<TrustEstimate> {
        self.slots[self.shard_of(subject)]
            .published
            .read(|map| map.get(&subject)?.estimate())
    }

    /// The category's score epoch (0 = no member feedback yet): moves
    /// whenever a group that touched a subject listed in it is applied,
    /// after that subject's estimate is published. A rank rebuild reads it
    /// **before** it reads scores. Wait-free.
    pub fn category_epoch(&self, category: u32) -> u64 {
        self.category_epochs.read(|epochs| {
            epochs
                .get(&category)
                .map_or(0, |epoch| epoch.load(Ordering::Acquire))
        })
    }

    /// Record that each `subject` is listed in `category` — one listing
    /// on the publish path, a whole table on recovery. Listing a subject
    /// elsewhere repoints it; an entry created here, before any feedback,
    /// reads as no estimate; first-seen subjects share one swap per shard,
    /// and an unchanged membership costs none.
    pub fn list(&self, memberships: impl IntoIterator<Item = (SubjectId, u32)>) {
        let per_shard = self.partition(memberships, |&(subject, _)| subject);
        self.ensure_categories(per_shard.iter().flatten().map(|&(_, category)| category));
        let touched = self.slots.iter().zip(per_shard);
        for (slot, group) in touched.filter(|(_, group)| !group.is_empty()) {
            slot.update(|_, published| {
                let mut fresh = PublishedMap::default();
                for (subject, category) in group {
                    match published.get(&subject) {
                        Some(entry) => entry.set_category(Some(category)),
                        None => _ = fresh.insert(subject, Published::new(None, Some(category))),
                    }
                }
                fresh
            });
        }
    }

    /// Give every first-seen category its epoch counter — before any
    /// entry names the category, so a writer that reads a category word
    /// always finds its counter.
    fn ensure_categories(&self, categories: impl IntoIterator<Item = u32>) {
        let missing: Vec<u32> = self.category_epochs.read(|epochs| {
            categories
                .into_iter()
                .filter(|category| !epochs.contains_key(category))
                .collect()
        });
        if missing.is_empty() {
            return;
        }
        let _writer = self.category_write.lock();
        let mut next = (*self.category_epochs.load()).clone();
        for category in missing {
            next.entry(category).or_default();
        }
        self.category_epochs.store(Arc::new(next));
    }

    /// Drop `subject`'s membership (deregister path); its estimate stays.
    pub fn unlist(&self, subject: SubjectId) {
        self.slots[self.shard_of(subject)].update(|_, published| {
            if let Some(entry) = published.get(&subject) {
                entry.set_category(None);
            }
            PublishedMap::default()
        });
    }

    /// Snapshots of the published maps and the category-epoch map swapped
    /// in so far: first-seen subjects and categories only, never a score.
    pub fn swaps(&self) -> u64 {
        let published: u64 = self.slots.iter().map(|slot| slot.published.swaps()).sum();
        published + self.category_epochs.swaps()
    }

    /// Reports applied to shard `idx` (a counter: a fold holds none).
    pub fn shard_len(&self, idx: usize) -> usize {
        self.slots[idx].shard.read().applied
    }

    /// Reports held in RAM across all shards: none under a mechanism that
    /// folds, every applied report under one that does not.
    pub fn resident_reports(&self) -> usize {
        let held = |slot: &Slot| slot.shard.read().table.reports_held();
        self.slots.iter().map(held).sum()
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
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    use wsrep_core::id::{AgentId, ServiceId};
    use wsrep_core::mechanism::{score_from_log, ReputationMechanism, Unfolded};
    use wsrep_core::mechanisms::all_figure4_mechanisms;
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

    fn subject(service: u64) -> SubjectId {
        ServiceId::new(service).into()
    }

    fn beta() -> MechanismFactory {
        Arc::new(|| Box::new(BetaMechanism::new()))
    }

    /// `mechanism` with its fold withheld: the replay twin.
    fn unfolded(mechanism: &MechanismFactory) -> MechanismFactory {
        let mechanism = Arc::clone(mechanism);
        Arc::new(move || Box::new(Unfolded(mechanism())))
    }

    /// What a fresh `mechanism` makes of `log`'s reports about `subject`:
    /// the reference every published score is held to.
    fn replayed(
        mechanism: &MechanismFactory,
        log: &[Feedback],
        subject: SubjectId,
    ) -> Option<TrustEstimate> {
        let about = log.iter().filter(|report| report.subject == subject);
        score_from_log(mechanism().as_mut(), about, subject)
    }

    #[test]
    fn subject_always_maps_to_the_same_shard() {
        let store = ShardedStore::new(8, beta());
        let first = store.shard_of(subject(42));
        for _ in 0..10 {
            assert_eq!(store.shard_of(subject(42)), first);
        }
    }

    #[test]
    fn batch_equals_sequential_inserts() {
        let batch: Vec<Feedback> = (0..40).map(|i| fb(i, i % 7, 0.5)).collect();
        let batched = ShardedStore::new(4, unfolded(&beta()));
        batched.insert_batch(&batch);
        let sequential = ShardedStore::new(4, unfolded(&beta()));
        for f in &batch {
            sequential.insert_batch([f]);
        }
        assert_eq!(batched.len(), sequential.len());
        assert_eq!(batched.resident_reports(), sequential.resident_reports());
        for service in 0..7 {
            let s = subject(service);
            assert_eq!(batched.score(s), sequential.score(s));
            assert_eq!(batched.score(s), replayed(&beta(), &batch, s));
        }
    }

    /// Store-level never-stale, fold and replay twin, every Figure-4 mechanism:
    /// the moment `insert_batch` returns, every published score equals a
    /// replay of the log so far — `None` included, for a mechanism that
    /// abstains on evidence it has.
    #[test]
    fn published_scores_equal_a_replay_when_insert_batch_returns() {
        let reports: Vec<Feedback> = (0..120)
            .map(|i| {
                let mut report = fb(i % 11, i % 5, (i % 10) as f64 / 10.0);
                report.at = Time::new(i / 3);
                report
            })
            .collect();
        let mut abstained = 0;
        for prototype in all_figure4_mechanisms() {
            let key = prototype.info().key;
            let mechanism: MechanismFactory = Arc::new(move || {
                all_figure4_mechanisms()
                    .into_iter()
                    .find(|m| m.info().key == key)
                    .expect("mechanism key is stable")
            });
            let folding = ShardedStore::new(3, Arc::clone(&mechanism));
            assert_eq!(folding.is_incremental(), prototype.accumulator().is_some());
            let twin = ShardedStore::new(3, unfolded(&mechanism));
            for (n, chunk) in reports.chunks(17).enumerate() {
                folding.insert_batch(chunk);
                twin.insert_batch(chunk);
                let log = &reports[..17 * n + chunk.len()];
                for service in 0..5 {
                    let s = subject(service);
                    let expected = replayed(&mechanism, log, s);
                    assert_eq!(folding.score(s), expected, "{key}, service {service}");
                    assert_eq!(twin.score(s), expected, "{key}, service {service}");
                    abstained += usize::from(expected.is_none());
                }
            }
        }
        assert!(abstained > 0, "some Figure-4 mechanism abstains");
    }

    /// A batch full of first-seen subjects installs their entries with
    /// one snapshot swap per shard, not one per subject.
    #[test]
    fn first_seen_subjects_of_a_batch_share_one_published_swap() {
        let store = ShardedStore::new(2, beta());
        let batch: Vec<Feedback> = (0..600).map(|i| fb(i, i % 300, 0.5)).collect();
        store.insert_batch(&batch);
        assert_eq!(store.swaps(), 2, "one swap per touched shard");
        for service in 0..300 {
            let s = subject(service);
            assert_eq!(store.score(s), replayed(&beta(), &batch, s));
        }
    }

    /// The scaling property of writing through: once a subject has its
    /// entry, neither feedback about it, nor reading it, nor re-listing
    /// it where it already is copies a map.
    #[test]
    fn known_subjects_never_swap_a_published_map() {
        const SUBJECTS: u64 = 400;
        let store = ShardedStore::new(8, beta());
        store.list((0..SUBJECTS).map(|s| (subject(s), (s % 5) as u32)));
        let batch = |round, score| {
            (0..SUBJECTS)
                .map(|s| fb(round, s, score))
                .collect::<Vec<_>>()
        };
        store.insert_batch(&batch(0, 0.5));
        let warm = store.swaps();
        for round in 0..25 {
            store.insert_batch(&batch(round, 0.9));
        }
        assert_eq!(store.len() as u64, SUBJECTS + 10_000);
        for s in 0..SUBJECTS {
            assert!(store.score(subject(s)).is_some());
            store.list([(subject(s), (s % 5) as u32)]);
        }
        assert_eq!(store.swaps(), warm);
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let store = ShardedStore::new(0, beta());
        assert_eq!(store.num_shards(), 1);
        assert_eq!(store.score(subject(1)), None);
        store.insert_batch([&fb(0, 1, 0.5)]);
        assert_eq!(store.len(), 1);
        assert!(store.score(subject(1)).is_some());
    }

    #[test]
    fn category_epochs_follow_memberships() {
        let store = ShardedStore::new(4, beta());
        assert_eq!(store.category_epoch(7), 0);
        // Feedback about a never-listed subject counts against nothing.
        store.insert_batch([&fb(0, 1, 0.5)]);
        assert_eq!(store.category_epoch(7), 0);
        // Listed: one bump per applied group that touched it, however
        // many reports the group carried.
        store.list([(subject(1), 7)]);
        store.insert_batch([&fb(1, 1, 0.5)]);
        store.insert_batch(&[fb(2, 1, 0.5), fb(3, 1, 0.5), fb(4, 1, 0.5)]);
        assert_eq!(store.category_epoch(7), 2);
        // Listed elsewhere: the membership is repointed.
        store.list([(subject(1), 9)]);
        store.insert_batch([&fb(5, 1, 0.5)]);
        assert_eq!(store.category_epoch(7), 2);
        assert_eq!(store.category_epoch(9), 1);
        // Unlisted: silent again, and the score keeps moving.
        store.unlist(subject(1));
        let before = store.score(subject(1));
        store.insert_batch([&fb(6, 1, 1.0)]);
        assert_eq!(store.category_epoch(9), 1);
        assert_ne!(store.score(subject(1)), before);
        // An entry a listing creates before any feedback reads as `None`.
        store.list([(subject(2), 7)]);
        assert_eq!(store.score(subject(2)), None);
        store.insert_batch([&fb(0, 2, 0.5)]);
        assert!(store.score(subject(2)).is_some());
        assert_eq!(store.category_epoch(7), 3);
    }

    /// Torn-read stress: one writer folds a stream whose successive
    /// estimates are all distinct in both words; every `score()` a
    /// reader sees must be one of the published pairs, and never an
    /// older one than it saw before. First-seen neighbours keep swapping
    /// the map under the readers meanwhile.
    #[test]
    fn racing_reads_see_whole_estimates_that_never_go_back() {
        const REPORTS: u64 = 20_000;
        const READERS: usize = 3;
        let mut twin = BetaMechanism::new().accumulator().expect("beta folds");
        let mut nth: HashMap<(u64, u64), u64> = HashMap::new();
        for n in 1..=REPORTS {
            twin.absorb(&fb(n, 5, 1.0));
            let e = twin.estimate().expect("evidence exists");
            let pair = (e.value.get().to_bits(), e.confidence.to_bits());
            assert_eq!(nth.insert(pair, n), None, "estimates must be distinct");
        }
        let store = ShardedStore::new(1, beta());
        let start = Barrier::new(READERS + 1);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                scope.spawn(|| {
                    let mut last = 0;
                    start.wait();
                    while !done.load(Ordering::SeqCst) {
                        let Some(e) = store.score(subject(5)) else {
                            assert_eq!(last, 0, "a published score vanished");
                            continue;
                        };
                        let pair = (e.value.get().to_bits(), e.confidence.to_bits());
                        let n = *nth.get(&pair).expect("a torn or unpublished estimate");
                        assert!(n >= last, "score went back: report {n} after {last}");
                        last = n;
                    }
                });
            }
            start.wait();
            for n in 1..=REPORTS {
                store.insert_batch([&fb(n, 5, 1.0)]);
                if n % 100 == 0 {
                    store.insert_batch([&fb(0, 1_000 + n, 0.5)]);
                }
            }
            done.store(true, Ordering::SeqCst);
        });
        assert_eq!(store.score(subject(5)), twin.estimate());
    }

    /// Subjects the random steps of the slot property draw from; the
    /// scripted steps use the ids above them.
    const RANDOM_SUBJECTS: u64 = 10;
    const CATEGORIES: u32 = 3;

    /// One step of the slot property.
    #[derive(Debug)]
    enum Step {
        List(Vec<(SubjectId, u32)>),
        Unlist(SubjectId),
        Insert(Vec<Feedback>),
    }

    impl Step {
        /// A random step: a kind, and items of (rater, service, score,
        /// category, round) it takes what it needs from.
        fn random(kind: u8, items: &[(u64, u64, f64, u32, u64)]) -> Step {
            match kind {
                0 => Step::List(
                    items
                        .iter()
                        .map(|&(_, s, _, c, _)| (subject(s), c))
                        .collect(),
                ),
                1 => Step::Unlist(subject(items[0].1)),
                _ => Step::Insert(
                    items
                        .iter()
                        .map(|&(rater, service, score, _, round)| {
                            let mut report = fb(rater, service, score);
                            report.at = Time::new(round);
                            report
                        })
                        .collect(),
                ),
            }
        }

        /// The orders a slot must survive, on subjects no random step
        /// uses: `a` is seen for the first time twice within one group and
        /// reported before it is listed, as recovery applies them; `c` is
        /// listed before its first report; `n`, first seen in `a`'s shard,
        /// forces a published-map swap between two groups that touch `a`.
        fn scripted(store: &ShardedStore) -> Vec<Step> {
            let (a, b, c) = (RANDOM_SUBJECTS, RANDOM_SUBJECTS + 1, RANDOM_SUBJECTS + 2);
            let n = (c + 1..)
                .find(|&n| store.shard_of(subject(n)) == store.shard_of(subject(a)))
                .expect("some id shares a's shard");
            vec![
                Step::Insert(vec![fb(0, a, 0.9), fb(1, a, 0.2), fb(2, b, 0.7)]),
                Step::List(vec![(subject(a), 0), (subject(b), 1), (subject(c), 2)]),
                Step::Insert(vec![fb(3, c, 0.4), fb(4, a, 0.6)]),
                Step::Insert(vec![fb(5, n, 0.5)]),
                Step::Insert(vec![fb(6, a, 0.1), fb(7, b, 0.3)]),
            ]
        }

        fn subjects(&self) -> Vec<SubjectId> {
            match self {
                Step::List(memberships) => memberships.iter().map(|&(s, _)| s).collect(),
                Step::Unlist(s) => vec![*s],
                Step::Insert(batch) => batch.iter().map(|report| report.subject).collect(),
            }
        }
    }

    /// Per shard: slots handed out, each with the table row it indexes.
    fn slot_counts(store: &ShardedStore) -> Vec<usize> {
        let count = |slot: &Slot| slot.shard.read().stamps.len();
        store.slots.iter().map(count).collect()
    }

    proptest! {
        /// The slot is the subject's only key into its shard, so every
        /// order of listings and reports must keep it: after each step,
        /// for every Figure-4 mechanism that folds, every score equals the
        /// replay twin's and a replay of the reports so far, each shard of
        /// either holds one accumulator per distinct subject it has seen,
        /// and a category's epoch has moved once per listed subject per
        /// group that touched it.
        #[test]
        fn slots_survive_every_order_of_listings_and_reports(
            shards in 1usize..=8,
            raw in proptest::collection::vec(
                (
                    0u8..5,
                    proptest::collection::vec(
                        (0u64..6, 0u64..RANDOM_SUBJECTS, 0.0f64..=1.0, 0u32..CATEGORIES, 0u64..20),
                        1..10,
                    ),
                ),
                0..16,
            ),
        ) {
            let mut folded = 0;
            for prototype in all_figure4_mechanisms() {
                if prototype.accumulator().is_none() {
                    continue;
                }
                folded += 1;
                let key = prototype.info().key;
                let mechanism: MechanismFactory = Arc::new(move || {
                    all_figure4_mechanisms()
                        .into_iter()
                        .find(|m| m.info().key == key)
                        .expect("mechanism key is stable")
                });
                let folding = ShardedStore::new(shards, Arc::clone(&mechanism));
                let twin = ShardedStore::new(shards, unfolded(&mechanism));
                let mut steps = Step::scripted(&folding);
                steps.extend(raw.iter().map(|(kind, items)| Step::random(*kind, items)));
                let universe: HashSet<SubjectId> = steps.iter().flat_map(Step::subjects).collect();
                let mut log: Vec<Feedback> = Vec::new();
                let mut listed: HashMap<SubjectId, u32> = HashMap::new();
                let mut seen: HashSet<SubjectId> = HashSet::new();
                let mut epochs = [0u64; CATEGORIES as usize];
                for (n, step) in steps.iter().enumerate() {
                    match step {
                        Step::List(memberships) => {
                            folding.list(memberships.iter().copied());
                            twin.list(memberships.iter().copied());
                            listed.extend(memberships.iter().copied());
                        }
                        Step::Unlist(s) => {
                            folding.unlist(*s);
                            twin.unlist(*s);
                            listed.remove(s);
                        }
                        Step::Insert(batch) => {
                            folding.insert_batch(batch);
                            twin.insert_batch(batch);
                            log.extend(batch.iter().cloned());
                            // A subject lives in one shard, so it is in
                            // one group of the batch.
                            let touched: HashSet<SubjectId> = step.subjects().into_iter().collect();
                            for s in touched {
                                seen.insert(s);
                                if let Some(&c) = listed.get(&s) {
                                    epochs[c as usize] += 1;
                                }
                            }
                        }
                    }
                    let at = format!("{key}, {shards} shards, after step {n} {step:?}");
                    for &s in &universe {
                        let expected = replayed(&mechanism, &log, s);
                        prop_assert_eq!(twin.score(s), expected, "{at}, {s:?}");
                        prop_assert_eq!(folding.score(s), expected, "{at}, {s:?}");
                    }
                    let mut per_shard = vec![0; shards];
                    for &s in &seen {
                        per_shard[folding.shard_of(s)] += 1;
                    }
                    prop_assert_eq!(slot_counts(&folding), per_shard.clone(), "{at}");
                    prop_assert_eq!(slot_counts(&twin), per_shard, "{at}");
                    for c in 0..CATEGORIES {
                        let expected = epochs[c as usize];
                        prop_assert_eq!(folding.category_epoch(c), expected, "{at}, category {c}");
                        prop_assert_eq!(twin.category_epoch(c), expected, "{at}, category {c}");
                    }
                }
            }
            prop_assert!(folded > 1, "several Figure-4 mechanisms fold");
        }
    }
}
