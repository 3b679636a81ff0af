//! The write-ahead log through its public surface: defects of the
//! partitioned path that the single cursor and the sealed root made
//! everyone's, each reproduced on the commit before the fix.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ServiceId};
use wsrep_core::time::Time;
use wsrep_journal::segment::list_segments;
use wsrep_journal::{
    recover, recover_prefix, write_snapshot, GroupSet, Journal, JournalConfig, JournalRecord,
    ShipCursor,
};

fn record(i: u64) -> JournalRecord {
    JournalRecord::Feedback(Feedback::scored(
        AgentId::new(i),
        ServiceId::new(i % 5),
        0.5,
        Time::new(i),
    ))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wsrep-journal-one-log-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A batch and the rotation after it can both land between a
/// tailer's read of a segment and its listing of the directory; the
/// tailer must still see that batch. No seam forces the window, so
/// this hunts it: rotation every two or three records, six tailers.
#[test]
fn tailing_cursors_step_over_nothing_at_a_rotation() {
    const ROUNDS: u64 = 1_500;
    let config = JournalConfig {
        max_segment_bytes: 120,
    };
    for groups in [1usize, 2] {
        let dir = temp_dir(&format!("rotation-stress-{groups}"));
        let set = GroupSet::open(&dir, groups, config, 0).unwrap();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for tailer in 0..6 {
                let (dir, done) = (&dir, &done);
                scope.spawn(move || {
                    let mut cursor = ShipCursor::open(dir, 0).unwrap();
                    let mut expected = 0;
                    loop {
                        // Read before the pull: an empty batch pulled
                        // after the last append has seen every record.
                        let finished = done.load(Ordering::Acquire);
                        let batch = cursor.next_batch(64).unwrap();
                        if batch.records.is_empty() {
                            if finished {
                                break;
                            }
                            std::thread::yield_now();
                            continue;
                        }
                        assert_eq!(
                            batch.first_lsn, expected,
                            "tailer {tailer} over {groups} groups stepped over records"
                        );
                        for (i, got) in batch.records.iter().enumerate() {
                            assert_eq!(*got, record(expected + i as u64));
                        }
                        expected += batch.records.len() as u64;
                    }
                    assert_eq!(expected, ROUNDS, "tailer {tailer} lost the tail");
                });
            }
            for lsn in 0..ROUNDS {
                set.append_batch(lsn as usize % groups, &[record(lsn)])
                    .unwrap();
            }
            done.store(true, Ordering::Release);
        });
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// An upgraded single-directory journal is a sealed root. Its last
/// segment protects no active writer, so a snapshot at its end takes it —
/// and a follower is still told what became of the LSNs it held, which no
/// segment name records any more.
#[test]
fn a_covered_sealed_root_keeps_no_segment() {
    let dir = temp_dir("sealed-root");
    {
        let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        let records: Vec<JournalRecord> = (0..50).map(record).collect();
        journal.append_batch(&records).unwrap();
    }
    let set = GroupSet::open(&dir, 2, JournalConfig::default(), 0).unwrap();
    let checkpoint = |lsn: u64| {
        let state = recover_prefix(&dir, lsn).unwrap();
        write_snapshot(&dir, lsn, &state.listings, &state.feedback).unwrap();
        set.compact(lsn).unwrap().segments_removed
    };
    assert_eq!(checkpoint(40), 0, "a snapshot inside it leaves it alone");
    assert_eq!(list_segments(&dir).unwrap().len(), 1);
    assert_eq!(checkpoint(50), 1);
    assert!(
        list_segments(&dir).unwrap().is_empty(),
        "root kept a segment"
    );

    let gone = ShipCursor::open(&dir, 10).unwrap_err();
    assert_eq!(gone.kind(), std::io::ErrorKind::NotFound);
    let ahead = ShipCursor::open(&dir, 51).unwrap_err();
    assert_eq!(ahead.kind(), std::io::ErrorKind::InvalidData);
    let mut cursor = ShipCursor::open(&dir, 50).unwrap();
    assert!(cursor.next_batch(100).unwrap().records.is_empty());

    for i in 50..80u64 {
        set.append_batch((i % 2) as usize, &[record(i)]).unwrap();
    }
    let batch = cursor.next_batch(100).unwrap();
    assert_eq!((batch.first_lsn, batch.records.len()), (50, 30));
    let recovered = recover(&dir).unwrap();
    let twin: Vec<JournalRecord> = (0..80).map(record).collect();
    let replayed: Vec<JournalRecord> = recovered
        .feedback
        .into_iter()
        .map(JournalRecord::Feedback)
        .collect();
    assert_eq!(replayed, twin);
    assert_eq!((recovered.durable_lsn, recovered.next_lsn), (80, 80));
    drop(set);
    fs::remove_dir_all(&dir).unwrap();
}
