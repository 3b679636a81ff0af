//! # wsrep-server — the reputation registry's network boundary
//!
//! The paper frames trust and reputation as infrastructure for service
//! selection *at scale*; WeSSQoS makes the point concrete by shipping
//! quality-aware selection as a **service with a process boundary**, not
//! a library. This crate is that boundary for `wsrep-serve`: a TCP
//! server speaking a versioned, length-prefixed, CRC32-framed binary
//! protocol, and the sync client used by tests, tooling and loadgen.
//!
//! - [`proto`] — the wire vocabulary: request/response messages, their
//!   version-pinned binary layout (reusing the journal codec's layout
//!   primitives and the WAL's frame discipline), and the pipelining /
//!   error contract;
//! - [`poll`] — readiness behind a trait: raw epoll (no `libc` crate,
//!   hand-declared syscall prototypes) with an `eventfd` waker;
//! - [`server`] — the readiness-driven reactor: an acceptor thread
//!   dealing sockets to worker threads that own their connections and
//!   block on a [`poll::Poller`], with bounded pipeline depth,
//!   write-buffer backpressure, slow-client eviction, and graceful
//!   drain-on-shutdown;
//! - [`client`] — the blocking connection: call-style one-shot RPCs and
//!   a queue/flush/recv pipelining API over reusable buffers;
//! - [`retry`] — jittered exponential backoff ([`RetryPolicy`],
//!   [`Backoff`]) and [`RetryingClient`], the auto-reconnecting wrapper
//!   whose keyed ingest retries are exactly-once: each batch carries a
//!   `(producer, seq)` [`IngestKey`] the server deduplicates;
//! - [`chaos`] — the fault lab's link half: [`FlakyProxy`], an in-test
//!   TCP proxy that drops, delays, splits, and corrupts traffic on a
//!   deterministic schedule, with counters proving it did;
//! - [`repl`] — the replication seam: the [`Replicator`] hook a cluster
//!   primary plugs into the reactor to ship its log, and the
//!   [`ReplicationGauge`] that surfaces watermarks and lag in `Stats`.
//!
//! The binary (`wsrep-server`) wraps [`server::Server`] around a
//! [`ReputationService`](wsrep_serve::ReputationService) built from CLI
//! flags — shards, journal directory, recovery — and serves until a
//! `Shutdown` request drains it.
//!
//! The crate is Linux-only: its reactor blocks in `epoll_wait`.

#[cfg(not(target_os = "linux"))]
compile_error!("wsrep-server is Linux-only: its reactor blocks in epoll");

pub mod chaos;
pub mod client;
pub mod poll;
pub mod proto;
pub mod repl;
pub mod retry;
pub mod server;

pub use chaos::{ChaosConfig, ChaosCounters, FlakyProxy};
pub use client::{Client, ClientError};
pub use proto::{
    ErrorCode, IngestKey, ReplBatch, ReplRole, ReplWatermark, ReplicationStats, Request, Response,
    ServerStats, WireRanked, WireStats, PROTO_VERSION,
};
pub use repl::{ReplError, ReplicationGauge, Replicator};
pub use retry::{Backoff, RetryPolicy, RetryingClient, Rng64};
pub use server::{ReplicationHooks, Server, ServerConfig};

/// The value of the valued flag `name` when `arg` is that flag, in either
/// form: `--name=V`, or `--name` with `V` as the next argument. Every
/// binary in the workspace parses its flags with this.
///
/// When the spaced form has no argument left to take, this is a
/// [`usage_error`].
pub fn flag_value(
    arg: &str,
    name: &str,
    rest: &mut impl Iterator<Item = String>,
) -> Option<String> {
    match arg.strip_prefix(name)? {
        "" => Some(
            rest.next()
                .unwrap_or_else(|| usage_error(&format!("{name} requires a value"))),
        ),
        // `None` for a longer flag that only starts with `name`.
        tail => tail.strip_prefix('=').map(str::to_string),
    }
}

/// `value`, the value of the flag `name`, as a number; anything else is a
/// [`usage_error`].
pub fn flag_number<T: std::str::FromStr>(name: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{name} expects a number, got {value:?}")))
}

/// Refuse the command line: `message` as one line on stderr, then exit
/// the process with status 2.
pub fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}
