//! # wsrep-serve — the reputation registry as a concurrent service
//!
//! The paper's Figure 2 places one central QoS registry between providers
//! and consumers. The simulation crates model that registry single-
//! threaded; this crate is the same registry grown into a production-shaped
//! subsystem:
//!
//! - [`snapshot`] — the RCU-style [`SnapshotCell`](snapshot::SnapshotCell)
//!   every read-path cache publishes through: readers pin + probe
//!   (wait-free), writers swap whole immutable snapshots;
//! - [`fxhash`] — the multiply-xor hasher the hot maps key with;
//! - [`shard`] — per-subject scoring state split over independently
//!   locked shards — resident accumulators when the mechanism folds (no
//!   log is held: the journal owns it), the feedback log when it does not
//!   — with wait-free per-subject epoch counters;
//! - [`ingest`] — bounded channels + one writer thread per **writer
//!   group** (subjects route by shard, groups own disjoint shard sets),
//!   applying feedback in per-shard batches and bumping category score
//!   epochs;
//! - [`cache`] — epoch-validated score memoization over snapshot-swapped
//!   shards, so a hot subject costs one atomic probe instead of a log
//!   replay;
//! - [`topk`] — per-category ranking plans *and* fully pre-ranked result
//!   lists, validated against the listings epoch and per-category score
//!   epochs, so a repeat `top_k` is a probe plus a `k`-element copy;
//! - [`service`] — the query API: `publish` / `ingest` / `score` /
//!   `top_k`, speaking the same [`Listing`](wsrep_sim::registry::Listing)
//!   and [`Preferences`](wsrep_qos::preference::Preferences) types as the
//!   simulator, and scoring through any
//!   [`ReputationMechanism`](wsrep_core::mechanism::ReputationMechanism);
//! - [`durability`] — the optional [`wsrep_journal`] integration: batches
//!   are group-committed to a write-ahead log before they are applied —
//!   with `ServiceBuilder::writer_groups(n)`, to `n` partitioned logs
//!   with independent fsync pipelines under a shared LSN space —
//!   `ServiceBuilder::recover_from` replays snapshot + WAL tail(s) on
//!   boot, and a background checkpointer builds snapshots from the log
//!   itself and compacts it.

pub mod cache;
pub mod durability;
pub mod fxhash;
pub mod ingest;
pub mod service;
pub mod shard;
pub mod snapshot;
pub mod topk;

pub use cache::ScoreCache;
pub use durability::{DurabilityPolicy, JournalHealth, NotDurable};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHasher};
pub use ingest::{IngestClosed, IngestConfig, IngestPipeline};
pub use service::{
    CheckpointReport, MechanismFactory, ReplicateError, ReputationService, ServiceBuilder,
    ServiceStats,
};
pub use shard::{EpochMap, FoldFactory, ShardedStore};
pub use snapshot::SnapshotCell;
pub use topk::{CategoryPlan, PlanCache, RankCache, RankedList, RankedService, ScoreEpochs};
