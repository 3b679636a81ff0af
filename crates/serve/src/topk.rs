//! Pre-ranked `top_k` state: category plans and rank lists.
//!
//! These two caches hold ranking work derived from the *listing table*,
//! which no ingest writer holds — unlike a score, which the writer that
//! folds a report publishes itself (see [`crate::shard`]). Ranking a
//! category has three cost tiers, and this module caches the top two:
//!
//! 1. **Plan** ([`CategoryPlan`], cached in [`PlanCache`]): the
//!    listings-derived part — candidate set and normalized advertised-QoS
//!    matrix. Depends only on the listing table; invalidated by the
//!    listings epoch (publish/deregister).
//! 2. **Rank list** ([`RankedList`], cached in [`RankCache`]): the fully
//!    scored, fully sorted answer for one `(category, preferences)` pair.
//!    Depends on the plan *and* on every member's reputation, so it is
//!    stamped with both the listings epoch and the category's **score
//!    epoch** ([`ShardedStore::category_epoch`]), which the ingest writer
//!    bumps when it publishes a category member's new score. A hit serves
//!    `top_k` with one snapshot probe and a `k`-element copy: no scoring,
//!    no sort, no allocation.
//! 3. The miss path reads every candidate's published score over the plan
//!    matrix and re-sorts — paid only when listings or member feedback
//!    actually moved.
//!
//! Both caches publish immutable snapshots through [`SnapshotCell`], so
//! the validating reads above are wait-free; writers copy-on-write behind
//! a small mutex.
//!
//! **Never-stale rule.** A rank rebuild reads the category's score epoch
//! *before* it reads scores. If feedback lands mid-build, the list gets
//! stamped with the pre-build epoch while holding possibly-fresher
//! scores; the already-bumped counter then fails validation and forces a
//! harmless rebuild. Reading the epoch *after* scoring would allow the
//! opposite — stale scores stamped fresh and served forever.
//!
//! [`ShardedStore::category_epoch`]: crate::shard::ShardedStore::category_epoch

use crate::fxhash::{FxHashMap, FxHasher};
use crate::snapshot::SnapshotCell;
use parking_lot::Mutex;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wsrep_core::id::{ProviderId, ServiceId};
use wsrep_core::trust::TrustEstimate;
use wsrep_qos::normalize::NormalizationMatrix;
use wsrep_qos::preference::Preferences;

/// One entry of a `top_k` answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedService {
    /// The ranked service.
    pub service: ServiceId,
    /// Its provider.
    pub provider: ProviderId,
    /// Advertised-QoS score in `[0, 1]` from the normalization matrix.
    pub qos_score: f64,
    /// Reputation evidence, when any feedback exists.
    pub reputation: Option<TrustEstimate>,
    /// The blended ranking score.
    pub score: f64,
}

/// The listings-derived, preference-independent part of a `top_k`
/// answer for one category, valid while the listings epoch stands still.
#[derive(Debug)]
pub struct CategoryPlan {
    /// The listings epoch this plan was built from.
    pub epoch: u64,
    /// The category's candidates in deterministic listing order, matching
    /// the matrix rows.
    pub candidates: Vec<(ServiceId, ProviderId)>,
    /// Normalized advertised-QoS matrix over the candidates.
    pub matrix: NormalizationMatrix,
}

/// Concurrent category → plan map with hit/miss accounting and wait-free
/// reads (snapshot probe; no lock).
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: SnapshotCell<FxHashMap<u32, Arc<CategoryPlan>>>,
    write: Mutex<()>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached plan for `category` if it was built at exactly `epoch`.
    pub fn get(&self, category: u32, epoch: u64) -> Option<Arc<CategoryPlan>> {
        let hit = self
            .plans
            .read(|map| map.get(&category).filter(|p| p.epoch == epoch).cloned());
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Remember `plan` by copy-on-write, never clobbering a fresher one a
    /// racing builder installed (a higher epoch saw more listing changes).
    pub fn insert(&self, category: u32, plan: Arc<CategoryPlan>) -> Arc<CategoryPlan> {
        let _writer = self.write.lock();
        let current = self.plans.load();
        if let Some(existing) = current.get(&category) {
            if existing.epoch >= plan.epoch {
                return Arc::clone(existing);
            }
        }
        let mut next = (*current).clone();
        next.insert(category, Arc::clone(&plan));
        self.plans.store(Arc::new(next));
        plan
    }

    /// Queries answered from a prebuilt plan.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Queries that had to (re)build the plan.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Snapshots published (one per accepted insert).
    pub fn swaps(&self) -> u64 {
        self.plans.swaps()
    }
}

/// A fully scored, fully sorted `top_k` answer for one `(category,
/// preferences)` pair, valid while both stamped epochs stand still.
#[derive(Debug)]
pub struct RankedList {
    /// Listings epoch of the plan the list was ranked over.
    pub listings_epoch: u64,
    /// The category's score epoch, read **before** scoring began.
    pub score_epoch: u64,
    /// The exact preferences the list was ranked under — checked on hit,
    /// so a fingerprint collision degrades to a miss, never a wrong
    /// answer.
    pub prefs: Preferences,
    /// Every candidate, best-first; `top_k(k)` copies the prefix.
    pub ranked: Vec<RankedService>,
}

/// Most `(category, prefs)` rank lists held before the cache resets —
/// a backstop against unbounded preference diversity, not an LRU.
const RANK_CACHE_CAP: usize = 1024;

/// Concurrent `(category, preferences)` → [`RankedList`] map with
/// wait-free validating reads.
#[derive(Debug, Default)]
pub struct RankCache {
    lists: SnapshotCell<FxHashMap<u64, Arc<RankedList>>>,
    write: Mutex<()>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RankCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cache key: category folded with a fingerprint of the preference
    /// weights. Collisions are tolerated (stored prefs are re-checked);
    /// they only cost a rebuild.
    fn key(category: u32, prefs: &Preferences) -> u64 {
        let mut hasher = FxHasher::default();
        category.hash(&mut hasher);
        for (metric, weight) in prefs.iter() {
            metric.hash(&mut hasher);
            hasher.write_u64(weight.to_bits());
        }
        hasher.finish()
    }

    /// The cached rank list for `(category, prefs)` if it is still valid
    /// at both epochs. Wait-free; counts a hit or miss.
    pub fn get(
        &self,
        category: u32,
        prefs: &Preferences,
        listings_epoch: u64,
        score_epoch: u64,
    ) -> Option<Arc<RankedList>> {
        let key = Self::key(category, prefs);
        let hit = self.lists.read(|map| {
            map.get(&key)
                .filter(|list| {
                    list.listings_epoch == listings_epoch
                        && list.score_epoch == score_epoch
                        && list.prefs == *prefs
                })
                .cloned()
        });
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Remember `list` for `(category, list.prefs)` by copy-on-write.
    /// Never clobbers a strictly fresher entry; sweeps entries whose
    /// listings epoch regressed behind the inserted one and resets the
    /// whole map at the capacity backstop.
    pub fn insert(&self, category: u32, list: Arc<RankedList>) -> Arc<RankedList> {
        let key = Self::key(category, &list.prefs);
        let _writer = self.write.lock();
        let current = self.lists.load();
        if let Some(existing) = current.get(&key) {
            let fresher = (existing.listings_epoch, existing.score_epoch)
                >= (list.listings_epoch, list.score_epoch);
            if fresher && existing.prefs == list.prefs {
                return Arc::clone(existing);
            }
        }
        let mut next = (*current).clone();
        if next.len() >= RANK_CACHE_CAP {
            next.clear();
        }
        next.insert(key, Arc::clone(&list));
        self.lists.store(Arc::new(next));
        list
    }

    /// Queries answered from a pre-ranked list.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Queries that had to score and sort.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Snapshots published (one per accepted insert).
    pub fn swaps(&self) -> u64 {
        self.lists.swaps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrep_qos::metric::Metric;
    use wsrep_qos::value::QosVector;

    fn plan(epoch: u64) -> Arc<CategoryPlan> {
        let vectors = [QosVector::from_pairs([(Metric::Price, 1.0)])];
        let refs: Vec<&QosVector> = vectors.iter().collect();
        Arc::new(CategoryPlan {
            epoch,
            candidates: vec![(ServiceId::new(1), ProviderId::new(1))],
            matrix: NormalizationMatrix::new(&refs, &[Metric::Price]),
        })
    }

    fn ranked(listings_epoch: u64, score_epoch: u64, prefs: Preferences) -> Arc<RankedList> {
        Arc::new(RankedList {
            listings_epoch,
            score_epoch,
            prefs,
            ranked: vec![RankedService {
                service: ServiceId::new(1),
                provider: ProviderId::new(1),
                qos_score: 1.0,
                reputation: None,
                score: 0.75,
            }],
        })
    }

    #[test]
    fn epoch_mismatch_misses_and_rebuild_hits() {
        let cache = PlanCache::new();
        assert!(cache.get(0, 1).is_none());
        cache.insert(0, plan(1));
        assert!(cache.get(0, 1).is_some());
        assert!(cache.get(0, 2).is_none(), "stale epoch must miss");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn stale_insert_does_not_clobber_fresher_plan() {
        let cache = PlanCache::new();
        cache.insert(0, plan(5));
        let kept = cache.insert(0, plan(3));
        assert_eq!(kept.epoch, 5);
        assert!(cache.get(0, 5).is_some());
    }

    #[test]
    fn rank_cache_validates_both_epochs_and_prefs() {
        let cache = RankCache::new();
        let prefs = Preferences::uniform([Metric::Price]);
        assert!(cache.get(0, &prefs, 1, 1).is_none());
        cache.insert(0, ranked(1, 1, prefs.clone()));
        assert!(cache.get(0, &prefs, 1, 1).is_some());
        assert!(cache.get(0, &prefs, 2, 1).is_none(), "listings moved");
        assert!(
            cache.get(0, &prefs, 1, 2).is_none(),
            "member feedback landed"
        );
        let other = Preferences::uniform([Metric::Accuracy]);
        assert!(cache.get(0, &other, 1, 1).is_none(), "different prefs");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 4);
    }

    #[test]
    fn rank_cache_is_per_category() {
        let cache = RankCache::new();
        let prefs = Preferences::uniform([Metric::Price]);
        cache.insert(3, ranked(1, 0, prefs.clone()));
        assert!(cache.get(3, &prefs, 1, 0).is_some());
        assert!(cache.get(4, &prefs, 1, 0).is_none());
    }

    #[test]
    fn stale_rank_insert_does_not_clobber_fresher_list() {
        let cache = RankCache::new();
        let prefs = Preferences::uniform([Metric::Price]);
        cache.insert(0, ranked(5, 9, prefs.clone()));
        let kept = cache.insert(0, ranked(5, 3, prefs.clone()));
        assert_eq!(kept.score_epoch, 9);
        assert!(cache.get(0, &prefs, 5, 9).is_some());
    }

    #[test]
    fn rank_cache_capacity_backstop_resets() {
        let cache = RankCache::new();
        for category in 0..(RANK_CACHE_CAP as u32 + 10) {
            let prefs = Preferences::uniform([Metric::Price]);
            cache.insert(category, ranked(1, 0, prefs));
        }
        // Still serving the most recent insert after the reset.
        let prefs = Preferences::uniform([Metric::Price]);
        assert!(cache.get(RANK_CACHE_CAP as u32 + 9, &prefs, 1, 0).is_some());
    }
}
