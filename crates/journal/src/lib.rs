//! # wsrep-journal — durability for the reputation registry
//!
//! The paper's activities model centers on a **central QoS registry that
//! accumulates consumer feedback over time**; a registry that forgets its
//! feedback on restart defeats the whole selection mechanism. This crate
//! is the durability layer under `wsrep-serve`: an append-only,
//! CRC32-framed, segment-rotated **write-ahead log** of registry events,
//! point-in-time **snapshots**, and a **recovery** path that replays
//! `snapshot + WAL tail` back into a serving registry — the same
//! log-then-derive architecture rs-eigentrust uses for its attestation
//! log.
//!
//! - [`record`] — the event vocabulary, and the payload that spells it;
//! - [`codec`] — the hand-rolled, version-pinned binary layout;
//! - [`faults`] — failpoint-style fault injection over
//!   append/fsync/rotate/snapshot, so durability claims are testable
//!   under disk failures, not just SIGKILL;
//! - [`frame`] — CRC32 framing, and `split_frame`, its one parser;
//! - [`segment`] — LSN-named segment files, the one reader of their
//!   frames, and the one rule that gives a frame's records their LSNs;
//! - [`journal`] — the group-committing writer of one log (one frame and
//!   one fsync per batch);
//! - `group` — the write-ahead log: one journal per writer group,
//!   sharing one LSN space via a global allocator, with a cross-group
//!   durable watermark; opening it is the recovery pass;
//! - [`snapshot`] — atomic point-in-time state captures;
//! - `recovery` — snapshot + tail replay in one streaming pass, merging
//!   all log streams by LSN as it reads, tolerant of torn final records;
//! - `compact` — deletion of segments fully covered by a snapshot;
//! - `ship` — incremental reads of a live log, merged across writer
//!   groups, for replication followers.
//!
//! ## Durability contract
//!
//! A record is *acknowledged* once the [`GroupSet::append_batch`] call
//! that carried it returns `Ok`: it has been written and fdatasync'd.
//! Recovery restores **at least the acknowledged prefix** of the log — a
//! crash mid-append loses only unacknowledged records, a whole batch at a
//! time, which the framing detects and truncates per log stream. Only
//! what a crashed append or rotation leaves is cut away; any other damage
//! refuses to open. The acknowledged prefix is bounded by the cross-group
//! watermark (`group::LsnAllocator::durable_lsn`); a crash
//! may additionally preserve unacknowledged records above a gap, which
//! recovery keeps (they are a superset of every acknowledged record).

#![forbid(unsafe_code)]

pub mod codec;
mod compact;
pub mod faults;
pub mod frame;
mod group;
pub mod journal;
pub mod record;
mod recovery;
pub mod segment;
mod ship;
pub mod snapshot;

pub use compact::{compact_dir, CompactReport};
pub use faults::{Fault, FaultCounters, FaultScript, IoOp, IoPolicy, PeriodicFaults};
pub use group::{GroupSet, LsnAllocator};
pub use journal::{AppendReceipt, Journal, JournalConfig, JournalStats};
pub use record::JournalRecord;
pub use recovery::{recover, recover_prefix, replay_prefix, Recovered, Replayed};
pub use segment::{group_dir_name, list_group_dirs};
pub use ship::{ShipCursor, ShippedBatch};
pub use snapshot::{latest_snapshot, write_snapshot, Snapshot};
