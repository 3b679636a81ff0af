//! # wsrep-serve — the reputation registry as a concurrent service
//!
//! The paper's Figure 2 places one central QoS registry between providers
//! and consumers. The simulation crates model that registry single-
//! threaded; this crate is the same registry grown into a production-shaped
//! subsystem:
//!
//! - [`snapshot`] — the RCU-style [`SnapshotCell`]
//!   every read-path map publishes through: readers pin + probe
//!   (wait-free), writers swap whole immutable snapshots. The crate's
//!   only `unsafe`, and the compiler holds it there;
//! - [`fxhash`] — the multiply-xor hasher the hot maps key with;
//! - [`shard`] — one accumulator per subject, split over independently
//!   locked shards — the mechanism's fold when it has one (no log is
//!   held: the journal owns it), a replay of the subject's reports when
//!   it does not — and the one published estimate per subject that the
//!   writer stores to before it releases the shard, so a score read is
//!   one probe;
//! - [`ingest`] — one bounded queue of whole submissions + one writer
//!   thread per **writer group** (subjects route by shard, groups own
//!   disjoint shard sets), committing everything queued at once and
//!   applying it batch by batch;
//! - [`topk`] — per-category ranking plans *and* fully pre-ranked result
//!   lists, validated against the listings epoch and the store's
//!   per-category score epochs, so a repeat `top_k` is a probe plus a
//!   `k`-element copy;
//! - [`service`] — the query API: `publish` / `ingest` / `score` /
//!   `top_k`, speaking the same [`Listing`](wsrep_sim::registry::Listing)
//!   and [`Preferences`](wsrep_qos::preference::Preferences) types as the
//!   simulator, and scoring through any
//!   [`ReputationMechanism`](wsrep_core::mechanism::ReputationMechanism);
//! - [`durability`] — the optional [`wsrep_journal`] integration: batches
//!   are group-committed to a write-ahead log before they are applied —
//!   one log per `ServiceBuilder::writer_groups(n)` group, each with its
//!   own fsync pipeline, under a shared LSN space —
//!   `ServiceBuilder::recover_from` replays snapshot + WAL tail(s) on
//!   boot, and a background checkpointer builds snapshots from the log
//!   itself and compacts it;
//! - [`check`] — one checker per invariant the registry promises, each
//!   answering its first counterexample: the suites' and the cluster's
//!   shared definition of "correct".

#![deny(unsafe_code)]

pub mod check;
pub mod durability;
pub mod fxhash;
pub mod ingest;
pub mod service;
pub mod shard;
#[allow(unsafe_code)]
pub mod snapshot;
pub mod topk;

pub use durability::{DurabilityPolicy, JournalHealth, NotDurable};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHasher};
pub use ingest::{IngestClosed, IngestPipeline};
pub use service::{
    CheckpointReport, ReplicateError, ReputationService, ServiceBuilder, ServiceStats,
};
pub use shard::{MechanismFactory, ShardedStore};
pub use snapshot::SnapshotCell;
pub use topk::{CategoryPlan, PlanCache, RankCache, RankedList, RankedService};
