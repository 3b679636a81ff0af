//! Where a frame states its LSN, and what that costs.
//!
//! A writer group's log states an LSN exactly on a batch that does not
//! continue the log's own previous one. These tests pin the price (nine
//! bytes, once per such batch, nothing for a group with no neighbour),
//! beside the eight-byte frame header every batch pays once, and the
//! crash shape that makes the statement necessary.

use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ServiceId};
use wsrep_core::time::Time;
use wsrep_journal::segment::{group_dir_name, list_segments, scan_segment_entries};
use wsrep_journal::{recover, GroupSet, JournalConfig, JournalRecord, ShipCursor};

/// A record carrying the LSN it is meant to get in its rater id.
fn feedback(lsn: u64) -> Feedback {
    Feedback::scored(
        AgentId::new(lsn),
        ServiceId::new(lsn % 5),
        0.5,
        Time::new(lsn),
    )
}

fn record(lsn: u64) -> JournalRecord {
    JournalRecord::Feedback(feedback(lsn))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("wsrep-journal-stated-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Every `(lsn, record)` the cursor ships from LSN 0 on, gaps skipped.
fn shipped(root: &Path) -> Vec<(u64, JournalRecord)> {
    let mut cursor = ShipCursor::open(root, 0).unwrap();
    let mut out = Vec::new();
    loop {
        let batch = cursor.next_batch(7).unwrap();
        if batch.records.is_empty() {
            return out;
        }
        out.extend((batch.first_lsn..).zip(batch.records));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bytes appended = the records, plus eight per batch (its one frame
    /// header), plus nine per batch that begins off its own log's expected
    /// LSN — which a batch that opens a segment never does — so exactly
    /// records and headers for one group, whatever the batching.
    #[test]
    fn a_stated_lsn_costs_nine_bytes_per_batch_that_needs_one(
        groups in 1usize..=3,
        rotating in 0usize..2,
        batches in proptest::collection::vec((0usize..3, 1u64..5), 1..40),
    ) {
        let dir = temp_dir(&format!("bytes-{groups}-{}", batches.len()));
        let config = JournalConfig {
            max_segment_bytes: if rotating == 1 { 200 } else { 8 << 20 },
        };
        let set = GroupSet::open(&dir, groups, config, 0).unwrap();
        let mut own_next = vec![0u64; groups];
        let mut dense = 0;
        let mut stated = 0;
        let mut lsn = 0;
        for (group, len) in batches {
            let group = group % groups;
            let records: Vec<JournalRecord> = (lsn..lsn + len).map(record).collect();
            dense += 8 + records.iter().map(|r| r.to_bytes().len() as u64).sum::<u64>();
            let segments = set.lock(group).stats().segments;
            let receipt = set.append_batch(group, &records).unwrap();
            prop_assert_eq!(receipt.first_lsn, lsn);
            let opened_a_segment = set.lock(group).stats().segments > segments;
            stated += u64::from(own_next[group] != lsn && !opened_a_segment);
            lsn += len;
            own_next[group] = lsn;
        }
        prop_assert_eq!(set.stats().bytes_appended, dense + 9 * stated);
        if groups == 1 {
            prop_assert_eq!(stated, 0);
        }
        drop(set);
        // And every reader labels every record with the LSN it was given.
        let expected: Vec<(u64, JournalRecord)> = (0..lsn).map(|l| (l, record(l))).collect();
        prop_assert_eq!(shipped(&dir), expected);
        let recovered = recover(&dir).unwrap();
        prop_assert_eq!(recovered.feedback, (0..lsn).map(feedback).collect::<Vec<_>>());
        prop_assert_eq!((recovered.next_lsn, recovered.durable_lsn), (lsn, lsn));
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// The crash shape, made the way a crash makes it: group 1's batch dies
/// in the page cache while group 0's later one survives, so after the
/// restart group 1's log resumes above a hole only a stated LSN can
/// express.
#[test]
fn the_first_batch_after_a_torn_tail_states_its_lsn() {
    let dir = temp_dir("torn-reopen");
    let set = GroupSet::open(&dir, 2, JournalConfig::default(), 0).unwrap();
    set.append_batch(0, &[record(0)]).unwrap();
    set.append_batch(1, &[record(1)]).unwrap();
    set.append_batch(0, &[record(2)]).unwrap();
    drop(set);
    let group1 = dir.join(group_dir_name(1));
    let (_, path) = list_segments(&group1).unwrap().pop().unwrap();
    let len = fs::metadata(&path).unwrap().len();
    fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(len - 3)
        .unwrap();

    let floor = recover(&dir).unwrap().next_lsn;
    assert_eq!(floor, 3);
    let set = GroupSet::open(&dir, 2, JournalConfig::default(), floor).unwrap();
    let receipt = set.append_batch(1, &[record(3), record(4)]).unwrap();
    assert_eq!(receipt.first_lsn, 3, "LSN 1 is never handed out again");
    let records: u64 = (3..5).map(|l| record(l).to_bytes().len() as u64).sum();
    assert_eq!(
        set.stats().bytes_appended,
        8 + 9 + records,
        "one frame header, stated once"
    );
    drop(set);

    // Group 1's log now reads 3, 4 from a header that says 0…
    let scan = scan_segment_entries(&path).unwrap().unwrap();
    assert_eq!(scan.start_lsn, 0);
    assert_eq!(scan.entries, vec![(3, record(3)), (4, record(4))]);
    // …and recovery and the cursor agree on every LSN around the hole.
    let survivors = [0, 2, 3, 4];
    let recovered = recover(&dir).unwrap();
    assert_eq!(
        recovered.feedback,
        survivors.map(feedback).to_vec(),
        "replayed in LSN order"
    );
    assert_eq!((recovered.durable_lsn, recovered.next_lsn), (1, 5));
    assert_eq!(shipped(&dir), survivors.map(|l| (l, record(l))).to_vec());
    fs::remove_dir_all(&dir).unwrap();
}
