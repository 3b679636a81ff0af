//! The write-ahead log: N writer groups, one LSN space.
//!
//! A [`GroupSet`] holds one [`Journal`] per writer group, each in its
//! own `group-NNN/` subdirectory of the journal root, so N writer
//! threads group-commit concurrently — one commit lock and one fsync per
//! group per batch. Record order across groups is preserved by a shared
//! [`LsnAllocator`]: every batch takes a contiguous run of global LSNs
//! before it is written, and readers (recovery, the ship cursor) merge
//! the per-group logs back into one stream by LSN. One group
//! is the same thing with nothing to merge: its log is dense and no
//! frame in it ever states an LSN.
//!
//! # The durable watermark
//!
//! With N logs, group A may have fsynced LSN 900 while group B is still
//! writing LSN 850, so the *contiguous* durable frontier — the largest
//! `w` such that every LSN below `w` is on stable storage — trails the
//! fastest writer. The allocator tracks it exactly: each group registers
//! the first LSN of its in-flight batch when it allocates and clears it
//! after its fsync returns, so the frontier is
//!
//! ```text
//! durable_lsn = min(next_unallocated, min over groups of in-flight first LSN)
//! ```
//!
//! recomputed under the allocator lock and published through an atomic
//! for lock-free readers. It is monotone by construction. Replication
//! ships and heartbeats against this watermark.
//!
//! # Crash shape
//!
//! After a crash the union of the groups' valid prefixes may have
//! *interior gaps*: group A's batch at LSNs 10–13 can be on disk while
//! group B's 8–9 died in the page cache. That is safe — a `flush()`
//! acknowledgement only ever covered prefixes all groups had fsynced —
//! but it means recovery must take the union of what survived (never
//! truncate a group back to the watermark: LSNs *above* a gap may have
//! been acknowledged by a later flush) and the merged stream must treat
//! a gap as permanently empty once every group has moved past it.

use crate::compact::{compact_log, CompactReport};
use crate::journal::{AppendReceipt, Journal, JournalConfig, JournalStats};
use crate::record::JournalRecord;
use crate::recovery::{replay_logs, Replayed};
use crate::segment::{group_dir_name, list_group_dirs};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A group with no batch in flight.
const IDLE: u64 = u64::MAX;

/// Hands out contiguous runs of global LSNs to writer groups and tracks
/// the cross-group durable watermark.
#[derive(Debug)]
pub struct LsnAllocator {
    state: Mutex<AllocState>,
    /// Cached `min(next, min(in-flight))`, recomputed under the lock on
    /// every allocate/complete; reads are lock-free.
    watermark: AtomicU64,
}

#[derive(Debug)]
struct AllocState {
    /// Next unallocated LSN.
    next: u64,
    /// Per group: first LSN of the batch being written, or [`IDLE`].
    in_flight: Vec<u64>,
}

impl LsnAllocator {
    /// An allocator starting at `next_lsn` for `groups` writer groups.
    pub fn new(next_lsn: u64, groups: usize) -> LsnAllocator {
        LsnAllocator {
            state: Mutex::new(AllocState {
                next: next_lsn,
                in_flight: vec![IDLE; groups.max(1)],
            }),
            watermark: AtomicU64::new(next_lsn),
        }
    }

    /// Next unallocated LSN. With every group idle (e.g. all commit
    /// locks held), this is a consistent cut: every LSN below it is both
    /// journaled and applied or about to be applied by its committer.
    pub fn next_lsn(&self) -> u64 {
        self.lock().next
    }

    /// Claim `[returned, returned + count)` for `group` and mark the run
    /// in flight. Call with the group's commit lock held, and pair with
    /// [`LsnAllocator::complete`] once the batch's fsync returns (or
    /// fails — an abandoned claim would freeze the watermark forever).
    pub fn allocate(&self, group: usize, count: u64) -> u64 {
        let mut state = self.lock();
        let first = state.next;
        state.next += count;
        debug_assert_eq!(state.in_flight[group], IDLE, "group already in flight");
        state.in_flight[group] = first;
        self.publish(&state);
        first
    }

    /// Mark `group`'s in-flight batch settled, advancing the watermark.
    pub fn complete(&self, group: usize) {
        let mut state = self.lock();
        state.in_flight[group] = IDLE;
        self.publish(&state);
    }

    /// Settle `group`'s in-flight run `[first, first + count)` whose
    /// append was rejected. It goes back to be claimed again if nothing
    /// later was claimed since — always, with one group — so a rejected
    /// batch leaves no hole in the LSN space; otherwise the run stays
    /// claimed and empty. Every run still in flight was claimed before
    /// this one, so the watermark cannot move back.
    pub fn release(&self, group: usize, first: u64, count: u64) {
        let mut state = self.lock();
        if state.next == first + count {
            state.next = first;
        }
        state.in_flight[group] = IDLE;
        self.publish(&state);
    }

    /// The contiguous durable frontier: every LSN below this is settled.
    pub fn durable_lsn(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }

    fn publish(&self, state: &AllocState) {
        let floor = state.in_flight.iter().copied().min().unwrap_or(IDLE);
        self.watermark
            .store(state.next.min(floor), Ordering::Release);
    }

    fn lock(&self) -> MutexGuard<'_, AllocState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The per-group journals of a write-ahead log, plus their allocator.
#[derive(Debug)]
pub struct GroupSet {
    root: PathBuf,
    groups: Vec<Mutex<Journal>>,
    allocator: LsnAllocator,
    /// One past the last record of the root's own sealed log, when the
    /// root held one at open.
    sealed_end: Option<u64>,
}

impl GroupSet {
    /// [`Self::open_replaying`] with a visitor that keeps nothing.
    pub fn open(
        root: impl Into<PathBuf>,
        writer_groups: usize,
        config: JournalConfig,
        floor_lsn: u64,
    ) -> io::Result<GroupSet> {
        Ok(Self::open_replaying(root, writer_groups, config, floor_lsn, |_| {})?.0)
    }

    /// Open (or create) a journal under `root` with at least
    /// `writer_groups` groups — an on-disk layout with more groups wins,
    /// so reopening with a smaller setting never strands a group's
    /// records — in one read, the recovery pass, which hands each record
    /// to `visit`. Each writer resumes at its log's end, repaired as
    /// [`Journal::open`] says; the allocator past them and `floor_lsn`.
    pub fn open_replaying(
        root: impl Into<PathBuf>,
        writer_groups: usize,
        config: JournalConfig,
        floor_lsn: u64,
        visit: impl FnMut(JournalRecord),
    ) -> io::Result<(GroupSet, Replayed)> {
        let root = root.into();
        let on_disk = list_group_dirs(&root)?
            .last()
            .map_or(0, |(group, _)| group + 1);
        let count = writer_groups.max(on_disk).max(1);
        // Every group's directory first: the pass then reads `0..count`.
        for group in 0..count {
            fs::create_dir_all(root.join(group_dir_name(group)))?;
        }
        let (replayed, logs) = replay_logs(&root, u64::MAX, visit)?;
        let mut logs = logs.into_iter();
        // A root from a single-directory life still holds that log's
        // segments: nothing appends to them again, but readers assume
        // clean frames, and its end is an LSN the allocator must clear.
        let sealed = logs.next().expect("the root's own log").finish()?;
        let sealed_end = sealed.reader.map(|last| last.walk.next_lsn());
        let groups: Vec<Journal> = logs
            .map(|log| Journal::resume(log, config))
            .collect::<io::Result<_>>()?;
        let ends = groups.iter().map(Journal::next_lsn).chain(sealed_end);
        let next = ends.fold(floor_lsn.max(replayed.next_lsn), u64::max);
        let set = GroupSet {
            root,
            groups: groups.into_iter().map(Mutex::new).collect(),
            allocator: LsnAllocator::new(next, count),
            sealed_end,
        };
        Ok((set, replayed))
    }

    /// The journal root (the directory holding the group subdirectories
    /// and the snapshots).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of writer groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The shared LSN allocator.
    pub fn allocator(&self) -> &LsnAllocator {
        &self.allocator
    }

    /// Install a fault-injection policy on every group's journal (see
    /// [`Journal::set_io_policy`]).
    pub fn set_io_policy(&self, policy: std::sync::Arc<dyn crate::faults::IoPolicy>) {
        for group in 0..self.groups.len() {
            self.lock(group)
                .set_io_policy(std::sync::Arc::clone(&policy));
        }
    }

    /// Lock one group's journal (its commit lock).
    pub fn lock(&self, group: usize) -> MutexGuard<'_, Journal> {
        self.groups[group].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Allocate LSNs for the records of `parts` and group-commit them, in
    /// order and as one batch (`Journal::append_parts_at`), to `group`,
    /// whose lock the caller already holds. The in-flight claim is
    /// always settled, even when the append fails — otherwise one I/O
    /// error would freeze the watermark for the whole partition.
    pub fn append_locked<P: AsRef<[JournalRecord]>>(
        &self,
        group: usize,
        journal: &mut Journal,
        parts: &[P],
    ) -> io::Result<AppendReceipt> {
        let count = parts.iter().map(|part| part.as_ref().len() as u64).sum();
        let first_lsn = self.allocator.allocate(group, count);
        let result = journal.append_parts_at(first_lsn, parts);
        match &result {
            Ok(_) => self.allocator.complete(group),
            Err(_) => self.allocator.release(group, first_lsn, count),
        }
        result
    }

    /// Convenience: lock `group`, then [`GroupSet::append_locked`].
    pub fn append_batch(
        &self,
        group: usize,
        records: &[JournalRecord],
    ) -> io::Result<AppendReceipt> {
        let mut journal = self.lock(group);
        self.append_locked(group, &mut journal, &[records])
    }

    /// The cross-group contiguous durable frontier.
    pub fn durable_lsn(&self) -> u64 {
        self.allocator.durable_lsn()
    }

    /// Aggregated counters: segments, bytes and commits summed over
    /// groups; `last_fsync_nanos` is the slowest group's most recent
    /// fsync. Each group is sampled under its own lock, so the sums are
    /// monotone but not a consistent cut.
    pub fn stats(&self) -> JournalStats {
        let mut total = JournalStats::default();
        for group in 0..self.groups.len() {
            let stats = self.lock(group).stats();
            total.segments += stats.segments;
            total.bytes_appended += stats.bytes_appended;
            total.commits += stats.commits;
            total.last_fsync_nanos = total.last_fsync_nanos.max(stats.last_fsync_nanos);
        }
        total
    }

    /// Compact every group's log — and the root's sealed log, along with
    /// stale snapshots — up to `covered_lsn`. The sealed log has no
    /// active segment to protect: once the snapshot covers its end, its
    /// last segment goes too.
    pub fn compact(&self, covered_lsn: u64) -> io::Result<CompactReport> {
        let mut total = compact_log(&self.root, covered_lsn, self.sealed_end)?;
        for group in 0..self.groups.len() {
            let report = self.lock(group).compact(covered_lsn)?;
            total.segments_removed += report.segments_removed;
            total.snapshots_removed += report.snapshots_removed;
            total.bytes_reclaimed += report.bytes_reclaimed;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use wsrep_core::feedback::Feedback;
    use wsrep_core::id::{AgentId, ServiceId};
    use wsrep_core::time::Time;

    fn record(i: u64) -> JournalRecord {
        JournalRecord::Feedback(Feedback::scored(
            AgentId::new(i),
            ServiceId::new(1),
            0.5,
            Time::new(i),
        ))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wsrep-journal-group-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn allocator_hands_out_disjoint_runs_and_tracks_the_frontier() {
        let alloc = LsnAllocator::new(0, 2);
        assert_eq!(alloc.durable_lsn(), 0);
        let a = alloc.allocate(0, 3); // [0, 3) in flight on group 0
        assert_eq!(a, 0);
        let b = alloc.allocate(1, 2); // [3, 5) in flight on group 1
        assert_eq!(b, 3);
        assert_eq!(alloc.durable_lsn(), 0, "both batches still in flight");
        alloc.complete(1);
        assert_eq!(alloc.durable_lsn(), 0, "group 0 still holds the floor");
        alloc.complete(0);
        assert_eq!(alloc.durable_lsn(), 5, "all settled: frontier = next");
    }

    #[test]
    fn watermark_is_monotone_under_concurrent_writers() {
        let alloc = std::sync::Arc::new(LsnAllocator::new(0, 4));
        let mut watchers = Vec::new();
        for _ in 0..2 {
            let alloc = std::sync::Arc::clone(&alloc);
            watchers.push(thread::spawn(move || {
                let mut last = 0;
                for _ in 0..10_000 {
                    let now = alloc.durable_lsn();
                    assert!(now >= last, "watermark went backwards: {last} -> {now}");
                    last = now;
                }
            }));
        }
        let mut writers = Vec::new();
        for group in 0..4 {
            let alloc = std::sync::Arc::clone(&alloc);
            writers.push(thread::spawn(move || {
                for i in 0..1_000 {
                    let first = alloc.allocate(group, 1 + (i % 3));
                    assert!(first >= alloc.durable_lsn());
                    alloc.complete(group);
                }
            }));
        }
        for handle in writers.into_iter().chain(watchers) {
            handle.join().unwrap();
        }
        assert_eq!(alloc.durable_lsn(), alloc.next_lsn());
    }

    #[test]
    fn group_set_reopens_past_every_groups_highest_lsn() {
        let dir = temp_dir("reopen");
        {
            let set = GroupSet::open(&dir, 3, JournalConfig::default(), 0).unwrap();
            set.append_batch(0, &[record(0)]).unwrap(); // LSN 0
            set.append_batch(2, &[record(1), record(2)]).unwrap(); // LSNs 1-2
            set.append_batch(1, &[record(3)]).unwrap(); // LSN 3
            assert_eq!(set.durable_lsn(), 4);
        }
        // Reopen asking for fewer groups: the on-disk three win.
        let set = GroupSet::open(&dir, 1, JournalConfig::default(), 0).unwrap();
        assert_eq!(set.group_count(), 3);
        assert_eq!(set.allocator().next_lsn(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_error_does_not_freeze_the_watermark() {
        let dir = temp_dir("error");
        let set = GroupSet::open(&dir, 2, JournalConfig::default(), 0).unwrap();
        set.append_batch(0, &[record(0)]).unwrap();
        // A claim completed without an append (the failed-fsync path in
        // append_locked) must still release the watermark floor.
        let first = set.allocator().allocate(1, 5);
        assert_eq!(first, 1);
        assert_eq!(set.durable_lsn(), 1);
        set.allocator().complete(1);
        assert_eq!(set.durable_lsn(), 6, "abandoned claim settled");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_rejected_run_goes_back_unless_something_later_was_claimed() {
        let alloc = LsnAllocator::new(0, 2);
        let first = alloc.allocate(0, 3);
        alloc.release(0, first, 3);
        assert_eq!(alloc.next_lsn(), 0, "nothing claimed since: no hole");
        assert_eq!(alloc.durable_lsn(), 0);

        let first = alloc.allocate(0, 3); // [0, 3)
        alloc.allocate(1, 2); // [3, 5) claimed behind it
        alloc.release(0, first, 3);
        assert_eq!(alloc.next_lsn(), 5, "a later claim pins the run");
        assert_eq!(alloc.durable_lsn(), 3, "group 1 still in flight");
        alloc.complete(1);
        assert_eq!(alloc.durable_lsn(), 5);
    }

    #[test]
    fn a_rejected_batch_of_a_lone_group_claims_no_lsn() {
        use crate::faults::{Fault, FaultScript, IoOp};
        let dir = temp_dir("lone-reject");
        let set = GroupSet::open(&dir, 1, JournalConfig::default(), 0).unwrap();
        let script = std::sync::Arc::new(FaultScript::new());
        script.push_after(IoOp::Append, 1, Fault::enospc());
        set.set_io_policy(script);
        set.append_batch(0, &[record(0)]).unwrap();
        set.append_batch(0, &[record(1), record(2)]).unwrap_err();
        assert_eq!(set.durable_lsn(), 1);
        let receipt = set.append_batch(0, &[record(1)]).unwrap();
        assert_eq!(receipt.first_lsn, 1, "the rejected run was handed back");
        let dense: usize = (0..2)
            .map(|i| 8 + crate::record::tests::payload(&[record(i)]).len())
            .sum();
        assert_eq!(set.stats().bytes_appended, dense as u64, "no LSN stated");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_aggregate_across_groups() {
        let dir = temp_dir("stats");
        let set = GroupSet::open(&dir, 2, JournalConfig::default(), 0).unwrap();
        set.append_batch(0, &[record(0)]).unwrap();
        set.append_batch(1, &[record(1)]).unwrap();
        set.append_batch(1, &[record(2)]).unwrap();
        let stats = set.stats();
        assert_eq!(stats.commits, 3);
        assert_eq!(stats.segments, 2);
        assert!(stats.bytes_appended > 0);
        assert!(stats.last_fsync_nanos > 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
