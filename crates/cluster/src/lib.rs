//! # wsrep-cluster — log-shipping replication for the registry
//!
//! The paper's selection loop assumes the reputation registry is *there*
//! — always answering, close to the querying consumer. One journaled
//! server gives durability; this crate adds **availability and read
//! scale** without giving up the single-writer scoring discipline that
//! makes recovery deterministic:
//!
//! - a [`Primary`] is an ordinary journaled server that additionally
//!   answers the replication opcode family (`ReplPull` /
//!   `ReplHeartbeat`), shipping sealed WAL segments and the live tail
//!   straight off its own log via
//!   [`ShipCursor`](wsrep_journal::ShipCursor);
//! - a [`Replica`] trails the primary **pull-based**, applies records
//!   through [`apply_replicated`](wsrep_serve::ReputationService::apply_replicated)
//!   into its own journaled service, and serves the full wait-free read
//!   surface (`Score` / `TopK` / `Stats`) read-only at a
//!   **bounded-staleness watermark** — its lag in LSNs is visible in
//!   every `Stats` response;
//! - failover is [`Replica::promote`]: stop pulling, flush, lift
//!   read-only. The replica journals the shipped stream at the
//!   primary's own LSNs, so the promoted node's log is a prefix-equal
//!   stand-in for the dead primary's — checked, not assumed, by
//!   [`log_prefix`](wsrep_serve::check::log_prefix) and, on promotion, by
//!   [`twin_equal`](wsrep_serve::check::twin_equal)'s sequential replay.
//!
//! Replication is asynchronous: the primary never waits for a replica,
//! and a record is only *guaranteed* replicated once a replica's
//! watermark passed it. What can never happen is divergence — every
//! shipped record was (or will be, barring primary disk loss before its
//! next fsync) part of the primary's acknowledged history, in the same
//! order.

#![forbid(unsafe_code)]

mod primary;
mod replica;
mod watermark;

pub use primary::{Primary, PrimaryConfig};
pub use replica::{Replica, ReplicaConfig};
