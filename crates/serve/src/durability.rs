//! The serve-side durability seam: commit locks around the journal.
//!
//! Everything that must be journaled — ingested feedback batches, listing
//! publishes and deregistrations — goes through `JournalHandle`, which
//! pairs each append with the in-memory apply **while a commit lock is
//! held**. The log is a [`GroupSet`]: each writer group has its own
//! commit lock and fsyncs independently, and a shared allocator hands
//! out LSNs so cross-group order is defined. The invariant that makes
//! checkpoints consistent: at an instant when *all* commit locks are
//! held no batch is in flight, so the LSN read there
//! (`JournalHandle::frozen_lsn`) names a prefix of the log that is
//! entirely on disk — and a snapshot built from that prefix is, by
//! construction, what its first `LSN` records rebuild.
//!
//! Listing mutations (publish/deregister) always commit through **group
//! 0**, so they keep a total order among themselves regardless of how
//! many feedback writers run.
//!
//! # Failure policy
//!
//! What journal I/O failure (disk full, volume gone, injected fault)
//! means is configurable per service via [`DurabilityPolicy`]:
//!
//! - [`DurabilityPolicy::Degrade`] (the default) keeps serving: the
//!   in-memory apply still happens and the handle stops journaling, so
//!   availability survives at the cost of durability. The log keeps a
//!   clean prefix — no interior gaps — and every failure is counted in
//!   [`JournalHealth::journal_errors`] with `degraded` latched true.
//! - [`DurabilityPolicy::ReadOnly`] fences writes: the failing batch is
//!   **rejected, not applied**, and every later mutation refuses with
//!   [`NotDurable`] while reads keep serving the last durable state.
//! - [`DurabilityPolicy::FailStop`] fences exactly like `ReadOnly` and
//!   additionally reports the node as fail-stopped, so a host process
//!   can exit rather than keep a lying registry reachable.

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use wsrep_journal::faults::{Fault, IoOp, IoPolicy};
use wsrep_journal::{CompactReport, GroupSet, Journal, JournalRecord};

/// How the service responds to a journal I/O failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityPolicy {
    /// Keep serving and applying writes without the journal; durability
    /// is lost from the first failure on, visibly (`degraded`,
    /// `journal_errors`).
    #[default]
    Degrade,
    /// Fence writes after the first failure: reject every further
    /// mutation with [`NotDurable`], keep serving reads.
    ReadOnly,
    /// Fence writes and report fail-stop, so the host process can exit
    /// instead of serving at all.
    FailStop,
}

impl DurabilityPolicy {
    /// Stable wire encoding (shipped inside `WireStats`).
    pub fn as_u8(self) -> u8 {
        match self {
            DurabilityPolicy::Degrade => 0,
            DurabilityPolicy::ReadOnly => 1,
            DurabilityPolicy::FailStop => 2,
        }
    }

    /// Inverse of [`DurabilityPolicy::as_u8`].
    pub fn from_u8(value: u8) -> Option<DurabilityPolicy> {
        match value {
            0 => Some(DurabilityPolicy::Degrade),
            1 => Some(DurabilityPolicy::ReadOnly),
            2 => Some(DurabilityPolicy::FailStop),
            _ => None,
        }
    }

    /// Parse the operator-facing spelling (`degrade` / `read-only` /
    /// `fail-stop`), for CLI flags.
    pub fn parse(name: &str) -> Option<DurabilityPolicy> {
        match name {
            "degrade" => Some(DurabilityPolicy::Degrade),
            "read-only" | "readonly" => Some(DurabilityPolicy::ReadOnly),
            "fail-stop" | "failstop" => Some(DurabilityPolicy::FailStop),
            _ => None,
        }
    }

    /// The operator-facing spelling.
    pub fn name(self) -> &'static str {
        match self {
            DurabilityPolicy::Degrade => "degrade",
            DurabilityPolicy::ReadOnly => "read-only",
            DurabilityPolicy::FailStop => "fail-stop",
        }
    }
}

impl fmt::Display for DurabilityPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A mutation was rejected because the durability policy fenced writes
/// after a journal failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotDurable;

impl fmt::Display for NotDurable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal failed; durability policy fenced writes")
    }
}

impl std::error::Error for NotDurable {}

/// Journal health counters, surfaced through
/// [`ServiceStats`](crate::service::ServiceStats).
///
/// Like `ServiceStats`, multi-writer counters are **monotone but not a
/// consistent cut**: each writer group is sampled under its own commit
/// lock, so `commits` (summed across groups) and `durable_lsn` may
/// disagree by in-flight batches. `last_fsync_nanos` is the slowest
/// group's most recent fsync — the number an operator watching commit
/// latency cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalHealth {
    /// WAL segment files currently on disk, summed across writer groups.
    pub segments: u64,
    /// Bytes appended since the service started, summed across groups.
    pub bytes_appended: u64,
    /// Wall time of the most recent group-commit fsync; with several
    /// writer groups, the slowest group's most recent fsync.
    pub last_fsync_nanos: u64,
    /// Group commits (fsyncs) issued since the service started, summed
    /// across writer groups.
    pub commits: u64,
    /// The contiguous durable frontier — the watermark replication and
    /// staleness are measured in: the min over writer groups of each
    /// group's settled prefix.
    pub durable_lsn: u64,
    /// Entries replayed at startup (snapshot entries + WAL records).
    pub records_recovered: u64,
    /// Writer groups committing in parallel (1 = single commit lock).
    pub writer_groups: u64,
    /// Journal append failures since the service started (monotone).
    pub journal_errors: u64,
    /// The configured response to journal failure.
    pub policy: DurabilityPolicy,
    /// True once a failure degraded durability under
    /// [`DurabilityPolicy::Degrade`]: the service keeps serving, but
    /// writes since the first failure are not durable.
    pub degraded: bool,
    /// True once a failure fenced writes under
    /// [`DurabilityPolicy::ReadOnly`] / [`DurabilityPolicy::FailStop`]:
    /// every mutation since refuses with [`NotDurable`].
    pub fenced: bool,
}

/// The commit-lock layer: serializes journal appends with their
/// in-memory applies and with the checkpoint's LSN read, and enforces
/// the configured [`DurabilityPolicy`] on append failure.
#[derive(Debug)]
pub(crate) struct JournalHandle {
    wal: GroupSet,
    records_recovered: u64,
    policy: DurabilityPolicy,
    io_policy: Option<Arc<dyn IoPolicy>>,
    journal_errors: AtomicU64,
    degraded: AtomicBool,
    fenced: AtomicBool,
    checkpointing: Mutex<()>,
}

/// One writer group's held commit lock, for multi-step commits
/// (deregister checks the listing table before appending).
pub(crate) struct CommitGuard<'a> {
    handle: &'a JournalHandle,
    journal: MutexGuard<'a, Journal>,
    group: usize,
}

impl CommitGuard<'_> {
    /// Append `parts` as one batch under this held commit lock, subject to
    /// the durability policy: `Err(NotDurable)` means the batch was **not**
    /// journaled and must not be applied; `Ok` means it was journaled — or
    /// that the policy is [`DurabilityPolicy::Degrade`] and durability was
    /// (already) visibly given up.
    pub(crate) fn append<P: AsRef<[JournalRecord]>>(
        &mut self,
        parts: &[P],
    ) -> Result<(), NotDurable> {
        let handle = self.handle;
        if handle.fenced.load(Ordering::SeqCst) {
            return Err(NotDurable);
        }
        if handle.policy == DurabilityPolicy::Degrade && handle.degraded.load(Ordering::SeqCst) {
            // Sticky degrade: stop journaling entirely after the first
            // failure so the log keeps a clean prefix — resuming after
            // a gap would make later records replay out of a hole.
            return Ok(());
        }
        match handle
            .wal
            .append_locked(self.group, &mut self.journal, parts)
        {
            Ok(_) => Ok(()),
            Err(err) => {
                handle.journal_errors.fetch_add(1, Ordering::SeqCst);
                match handle.policy {
                    DurabilityPolicy::Degrade => {
                        if !handle.degraded.swap(true, Ordering::SeqCst) {
                            eprintln!(
                                "wsrep-serve: journal append failed; durability degraded: {err}"
                            );
                        }
                        Ok(())
                    }
                    DurabilityPolicy::ReadOnly | DurabilityPolicy::FailStop => {
                        if !handle.fenced.swap(true, Ordering::SeqCst) {
                            eprintln!(
                                "wsrep-serve: journal append failed; {} policy fenced writes: {err}",
                                handle.policy
                            );
                        }
                        Err(NotDurable)
                    }
                }
            }
        }
    }
}

impl JournalHandle {
    pub(crate) fn new(
        wal: GroupSet,
        records_recovered: u64,
        policy: DurabilityPolicy,
        io_policy: Option<Arc<dyn IoPolicy>>,
    ) -> Self {
        JournalHandle {
            wal,
            records_recovered,
            policy,
            io_policy,
            journal_errors: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            fenced: AtomicBool::new(false),
            checkpointing: Mutex::new(()),
        }
    }

    /// The journal root directory (snapshots live here; each writer
    /// group keeps its segments in a subdirectory).
    pub(crate) fn dir(&self) -> &Path {
        self.wal.root()
    }

    /// The configured response to journal failure.
    pub(crate) fn policy(&self) -> DurabilityPolicy {
        self.policy
    }

    /// True once the policy fenced writes after a failure.
    pub(crate) fn fenced(&self) -> bool {
        self.fenced.load(Ordering::SeqCst)
    }

    /// Consult the installed fault-injection policy for a snapshot
    /// write — the checkpoint-side fault seam.
    pub(crate) fn consult_snapshot(&self) -> io::Result<()> {
        let Some(policy) = &self.io_policy else {
            return Ok(());
        };
        match policy.inject(IoOp::Snapshot) {
            None => Ok(()),
            Some(Fault::Delay(delay)) => {
                std::thread::sleep(delay);
                Ok(())
            }
            Some(fault) => Err(fault.into_error(IoOp::Snapshot)),
        }
    }

    /// Writer groups committing in parallel.
    pub(crate) fn writer_groups(&self) -> usize {
        self.wal.group_count()
    }

    /// Take one writer group's commit lock. Listing mutations use group
    /// 0; ingest writers use their own group.
    pub(crate) fn lock_group(&self, group: usize) -> CommitGuard<'_> {
        CommitGuard {
            handle: self,
            journal: self.wal.lock(group),
            group,
        }
    }

    /// Group-commit `parts` to `group` as one batch, then run `apply` —
    /// both under that group's commit lock, so the log order of one group's
    /// batches is their apply order. When the durability policy rejects the
    /// append (`Err(NotDurable)`), `apply` is **not** run.
    pub(crate) fn commit<P: AsRef<[JournalRecord]>, R>(
        &self,
        group: usize,
        parts: &[P],
        apply: impl FnOnce() -> R,
    ) -> Result<R, NotDurable> {
        let mut guard = self.lock_group(group);
        guard.append(parts)?;
        Ok(apply())
    }

    /// Take **every** commit lock just long enough to read the
    /// checkpoint LSN. With all locks held no batch is in flight, so the
    /// allocator's next LSN is a consistent cut: every record below it
    /// has been written to its segment, and nothing the handle refused to
    /// journal is below it.
    pub(crate) fn frozen_lsn(&self) -> u64 {
        // Writers each hold at most one group lock and never acquire a
        // second, so taking all of them in index order cannot deadlock.
        let _guards: Vec<_> = (0..self.wal.group_count())
            .map(|group| self.wal.lock(group))
            .collect();
        self.wal.allocator().next_lsn()
    }

    /// Serializes checkpoints: one reads segments outside every commit
    /// lock, which must not race another one's compaction deleting them.
    pub(crate) fn checkpoint_guard(&self) -> MutexGuard<'_, ()> {
        self.checkpointing.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Compact segments (every group's, plus the root's sealed log) and
    /// stale snapshots covered by `covered_lsn`.
    pub(crate) fn compact(&self, covered_lsn: u64) -> io::Result<CompactReport> {
        self.wal.compact(covered_lsn)
    }

    /// The contiguous durable frontier.
    pub(crate) fn durable_lsn(&self) -> u64 {
        self.wal.durable_lsn()
    }

    pub(crate) fn health(&self) -> JournalHealth {
        let stats = self.wal.stats();
        JournalHealth {
            segments: stats.segments,
            bytes_appended: stats.bytes_appended,
            last_fsync_nanos: stats.last_fsync_nanos,
            commits: stats.commits,
            durable_lsn: self.wal.durable_lsn(),
            records_recovered: self.records_recovered,
            writer_groups: self.writer_groups() as u64,
            journal_errors: self.journal_errors.load(Ordering::SeqCst),
            policy: self.policy,
            degraded: self.degraded.load(Ordering::SeqCst),
            fenced: self.fenced.load(Ordering::SeqCst),
        }
    }
}
