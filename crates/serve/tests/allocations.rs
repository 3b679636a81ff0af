//! How many heap blocks the registry keeps per subject. A shard holds its
//! subjects' accumulators as the rows of one table, in blocks of
//! `ROWS_PER_BLOCK` that never regrow, so first reports about S fresh
//! subjects leave about ⌈S / ROWS_PER_BLOCK⌉ allocations behind, plus a
//! few per shard — not one (or more) per subject. Counted by a global
//! allocator, so the bound holds run after run, unlike a resident size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ServiceId};
use wsrep_core::mechanism::ROWS_PER_BLOCK;
use wsrep_core::time::Time;
use wsrep_serve::ReputationService;

/// Heap blocks allocated and not yet freed, by anyone in this process.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
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
