//! How many heap blocks the registry keeps per subject, and how many a
//! recovery makes. A shard holds its subjects' accumulators as the rows
//! of one table, in blocks of `ROWS_PER_BLOCK` that never regrow, so
//! first reports about S fresh subjects leave about ⌈S / ROWS_PER_BLOCK⌉
//! allocations behind, plus a few per shard — not one (or more) per
//! subject. A recovery reads, decodes and folds into buffers it recycles,
//! so a longer log about the same subjects costs it no more allocations,
//! and a larger snapshot no more than the snapshot itself.
//! Counted by a global allocator, so the bounds hold run after run,
//! unlike a resident size; the tests take turns, since it counts for the
//! whole process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Mutex;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ServiceId};
use wsrep_core::mechanism::ROWS_PER_BLOCK;
use wsrep_core::time::Time;
use wsrep_journal::{GroupSet, JournalConfig, JournalRecord};
use wsrep_serve::ReputationService;

/// Heap blocks allocated and not yet freed, by anyone in this process.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Allocations made, a reallocation included, by anyone in this process.
static TOTAL: AtomicUsize = AtomicUsize::new(0);
/// Bytes those allocations asked for, a reallocation's new size included.
static BYTES: AtomicUsize = AtomicUsize::new(0);
/// Held by each test while it counts.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(1, Ordering::Relaxed);
        TOTAL.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(1, Ordering::Relaxed);
        TOTAL.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        TOTAL.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SUBJECTS: u64 = 4_000;
const REPORTS_PER_SUBJECT: u64 = 3;
const SHARDS: usize = 8;
/// What a shard may keep beyond its rows' blocks: its last, partly filled
/// block, the block index, the slot stamps, the published map and its
/// retired-snapshot list, with room to spare.
const PER_SHARD: usize = 8;

#[test]
fn fresh_subjects_leave_a_block_per_rows_per_block_subjects() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let service = ReputationService::builder().shards(SHARDS).build();
    // Warm the ingest path (queues, the writer's buffers) on one subject
    // that is not counted.
    let warm = Feedback::scored(AgentId::new(0), ServiceId::new(SUBJECTS), 0.5, Time::ZERO);
    service.ingest_batch([warm]).unwrap();
    service.flush();

    let reports: Vec<Feedback> = (0..REPORTS_PER_SUBJECT * SUBJECTS)
        .map(|i| {
            Feedback::scored(
                AgentId::new(i % 17),
                ServiceId::new(i % SUBJECTS),
                (i % 10) as f64 / 10.0,
                Time::new(i / 500),
            )
        })
        .collect();
    let before = LIVE.load(Ordering::SeqCst);
    for chunk in reports.chunks(512) {
        service.ingest_batch(chunk.iter().cloned()).unwrap();
    }
    service.flush();
    let kept = LIVE.load(Ordering::SeqCst) - before;

    assert_eq!(service.stats().feedback, REPORTS_PER_SUBJECT * SUBJECTS + 1);
    assert!(service.score(ServiceId::new(SUBJECTS - 1).into()).is_some());
    let blocks = (SUBJECTS as usize).div_ceil(ROWS_PER_BLOCK);
    let bound = blocks + SHARDS * PER_SHARD;
    println!("{kept} allocations kept for {SUBJECTS} subjects; bound {bound}");
    assert!(
        kept <= bound as isize,
        "{kept} allocations kept for {SUBJECTS} fresh subjects: more than \
         ⌈{SUBJECTS} / {ROWS_PER_BLOCK}⌉ = {blocks} blocks + {PER_SHARD} per shard"
    );
}

/// Subjects the recovered logs report about, round robin.
const RECOVERED_SUBJECTS: u64 = 100;
/// What a recovery of 40 000 reports may allocate beyond one of 10 000:
/// one more read buffer, staging frame or chunk growth here and there.
/// One allocation per report would be 30 000 more; one per shard per
/// recovery chunk of 4 096 reports, some 60.
const RECOVERY_SLACK: usize = 16;

/// The `i`-th plain report of a recovered log.
fn recovered_report(i: u64) -> Feedback {
    Feedback::scored(
        AgentId::new(i % 17),
        ServiceId::new(i % RECOVERED_SUBJECTS),
        (i % 10) as f64 / 10.0,
        Time::new(i / 500),
    )
}

/// A fresh journal directory for a test's log of `reports`.
fn journal_dir(what: &str, reports: u64) -> std::path::PathBuf {
    let name = format!("wsrep-serve-{what}-{reports}-{}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Allocations and bytes `recover_from` asks for over the two-group
/// journal at `dir`, which holds `reports` reports in all.
fn recover_counted(dir: &std::path::Path, reports: u64) -> (usize, usize) {
    let before = (TOTAL.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    let service = ReputationService::builder()
        .writer_groups(2)
        .recover_from(dir)
        .build();
    let made = TOTAL.load(Ordering::SeqCst) - before.0;
    let bytes = BYTES.load(Ordering::SeqCst) - before.1;
    assert_eq!(service.stats().feedback, reports);
    drop(service);
    std::fs::remove_dir_all(dir).unwrap();
    (made, bytes)
}

/// Allocations `recover_from` makes over a two-group journal of
/// `reports` plain reports in commits of 128, alternating groups.
fn recovery_allocations(reports: u64) -> usize {
    let dir = journal_dir("allocations", reports);
    let set = GroupSet::open(&dir, 2, JournalConfig::default(), 0).unwrap();
    let log: Vec<JournalRecord> = (0..reports)
        .map(|i| JournalRecord::Feedback(recovered_report(i)))
        .collect();
    for (commit, records) in log.chunks(128).enumerate() {
        set.append_batch(commit % 2, records).unwrap();
    }
    drop((set, log));
    recover_counted(&dir, reports).0
}

#[test]
fn a_longer_log_about_the_same_subjects_costs_recovery_no_more_allocations() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let short = recovery_allocations(10_000);
    let long = recovery_allocations(40_000);
    println!("recovery allocations: {short} for 10 000 reports, {long} for 40 000");
    assert!(
        long <= short + RECOVERY_SLACK,
        "recovering 40 000 reports made {long} allocations, 10 000 made {short}: \
         more than {RECOVERY_SLACK} apart"
    );
}

/// Reports written after the checkpoint, in the log the snapshot leaves.
const AFTER_SNAPSHOT: u64 = 1_000;

/// Allocations and bytes `recover_from` asks for over a two-group journal
/// checkpointed after `snapshotted` plain reports, then given
/// [`AFTER_SNAPSHOT`] more.
fn snapshot_recovery(snapshotted: u64) -> (usize, usize) {
    let dir = journal_dir("snapshot-allocations", snapshotted);
    let service = ReputationService::builder()
        .writer_groups(2)
        .journal(&dir)
        .build();
    for commit in (0..snapshotted).collect::<Vec<_>>().chunks(128) {
        service
            .ingest_batch(commit.iter().map(|&i| recovered_report(i)))
            .unwrap();
    }
    service
        .checkpoint()
        .unwrap()
        .expect("a journal is attached");
    let after = snapshotted..snapshotted + AFTER_SNAPSHOT;
    service.ingest_batch(after.map(recovered_report)).unwrap();
    service.flush();
    drop(service);
    recover_counted(&dir, snapshotted + AFTER_SNAPSHOT)
}

#[test]
fn a_larger_snapshot_costs_recovery_no_more_than_the_snapshot_itself() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (short, short_bytes) = snapshot_recovery(10_000);
    let (long, long_bytes) = snapshot_recovery(40_000);
    println!(
        "snapshot recovery: {short} allocations, {short_bytes} B for 10 000 reports; \
         {long}, {long_bytes} B for 40 000"
    );
    assert!(
        long <= short + RECOVERY_SLACK,
        "recovering a snapshot of 40 000 reports made {long} allocations, one of \
         10 000 made {short}: more than {RECOVERY_SLACK} apart"
    );
    // The snapshot is read whole and decoded into one `Vec`; a second copy
    // of its records, or a chunk grown to hold them, is as large again.
    let own = 30_000 * (std::mem::size_of::<Feedback>() + 32);
    assert!(
        long_bytes <= short_bytes + own,
        "recovering a snapshot of 40 000 reports asked for {long_bytes} B, one of \
         10 000 for {short_bytes} B: more than the 30 000 reports' own {own} B apart"
    );
}
