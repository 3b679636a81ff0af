//! The write-ahead log through its public surface: defects of the
//! partitioned path that the single cursor and the sealed root made
//! everyone's, each reproduced on the commit before the fix.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ServiceId};
use wsrep_core::time::Time;
use wsrep_journal::frame::{split_frame, FrameSplit, FRAME_HEADER_LEN};
use wsrep_journal::journal::FRAME_SPLIT_BYTES;
use wsrep_journal::segment::{group_dir_name, list_segments, SEGMENT_HEADER_LEN};
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
    tail_through_rotations("rotation-stress", |_| 1, |_| 64);
}

/// The same hunt over commits of one to five records: a rotation then
/// falls behind a frame of several LSNs, and half the tailers ask for
/// fewer records than a frame may hold, leaving the rest for the next
/// pull.
#[test]
fn tailing_cursors_step_over_nothing_at_a_rotation_between_commits() {
    tail_through_rotations(
        "rotation-stress-commits",
        |round| 1 + round % 5,
        |tailer| if tailer < 3 { 2 } else { 64 },
    );
}

/// `ROUNDS` commits of `commit_len(round)` records under six tailers,
/// tailer `t` pulling `pull(t)` records at a time.
fn tail_through_rotations(
    tag: &str,
    commit_len: impl Fn(u64) -> u64,
    pull: impl Fn(usize) -> usize + Sync,
) {
    const ROUNDS: u64 = 1_500;
    let config = JournalConfig {
        max_segment_bytes: 120,
    };
    let total: u64 = (0..ROUNDS).map(&commit_len).sum();
    for groups in [1usize, 2] {
        let dir = temp_dir(&format!("{tag}-{groups}"));
        let set = GroupSet::open(&dir, groups, config, 0).unwrap();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for tailer in 0..6 {
                let (dir, done, pull) = (&dir, &done, &pull);
                scope.spawn(move || {
                    let mut cursor = ShipCursor::open(dir, 0).unwrap();
                    let mut expected = 0;
                    loop {
                        // Read before the pull: an empty batch pulled
                        // after the last append has seen every record.
                        let finished = done.load(Ordering::Acquire);
                        let batch = cursor.next_batch(pull(tailer)).unwrap();
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
                    assert_eq!(expected, total, "tailer {tailer} lost the tail");
                });
            }
            let mut lsn = 0;
            for round in 0..ROUNDS {
                let len = commit_len(round);
                let records: Vec<JournalRecord> = (lsn..lsn + len).map(record).collect();
                set.append_batch(round as usize % groups, &records).unwrap();
                lsn += len;
            }
            done.store(true, Ordering::Release);
        });
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// One batch larger than a frame may grow lands as several frames in one
/// commit and reads back whole; cut inside its second frame, exactly the
/// first frame's records are left.
#[test]
fn a_batch_beyond_the_frame_cap_is_several_frames_of_one_commit() {
    let dir = temp_dir("huge-batch");
    let records: Vec<JournalRecord> = (0..80_000).map(record).collect();
    let set = GroupSet::open(&dir, 1, JournalConfig::default(), 0).unwrap();
    let receipt = set.append_batch(0, &records).unwrap();
    assert_eq!((receipt.first_lsn, receipt.count), (0, 80_000));
    let stats = set.stats();
    assert_eq!(stats.commits, 1, "one write, one fdatasync");
    drop(set);

    let (_, path) = list_segments(&dir.join(group_dir_name(0)))
        .unwrap()
        .pop()
        .unwrap();
    let bytes = fs::read(&path).unwrap();
    let mut frames = Vec::new();
    let mut at = SEGMENT_HEADER_LEN;
    while let FrameSplit::Frame { frame_len } = split_frame(&bytes[at..]) {
        assert!(frame_len - FRAME_HEADER_LEN < FRAME_SPLIT_BYTES + 64);
        at += frame_len;
        frames.push(at);
    }
    assert_eq!(at, bytes.len());
    assert!(frames.len() >= 2, "{} frames", frames.len());
    let encoded: usize = records.iter().map(|r| r.to_bytes().len()).sum();
    assert_eq!(
        stats.bytes_appended as usize,
        encoded + FRAME_HEADER_LEN * frames.len(),
        "no LSN stated between the frames of one call"
    );

    let feedback = |recovered: wsrep_journal::Recovered| -> Vec<JournalRecord> {
        let reports = recovered.feedback.into_iter();
        reports.map(JournalRecord::Feedback).collect()
    };
    assert_eq!(feedback(recover(&dir).unwrap()), records);
    let mut cursor = ShipCursor::open(&dir, 0).unwrap();
    let mut shipped = Vec::new();
    loop {
        let batch = cursor.next_batch(4_096).unwrap();
        if batch.records.is_empty() {
            break;
        }
        assert_eq!(batch.first_lsn, shipped.len() as u64);
        shipped.extend(batch.records);
    }
    assert_eq!(shipped, records);

    // Torn inside the second frame: the first is all that is left.
    fs::write(&path, &bytes[..(frames[0] + frames[1]) / 2]).unwrap();
    let recovered = recover(&dir).unwrap();
    assert!(recovered.torn_tail);
    let kept = feedback(recovered);
    assert!(!kept.is_empty() && kept.len() < records.len());
    assert_eq!(kept, records[..kept.len()]);
    let first_frame: usize = records[..kept.len()]
        .iter()
        .map(|r| r.to_bytes().len())
        .sum();
    assert_eq!(
        SEGMENT_HEADER_LEN + FRAME_HEADER_LEN + first_frame,
        frames[0]
    );
    fs::remove_dir_all(&dir).unwrap();
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
