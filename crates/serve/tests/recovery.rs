//! Crash-recovery integration tests: kill the service at an arbitrary
//! point, recover from the journal, and demand the exact acknowledged
//! state back.
//!
//! "Crash" is simulated by copying the journal directory while the
//! service is still live (everything durable at that instant is in the
//! copy; everything else is lost, exactly like power failure) or by
//! truncating segment files at arbitrary byte offsets (a torn write).

use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId, SubjectId};
use wsrep_core::time::Time;
use wsrep_journal::{recover, GroupSet, Journal, JournalConfig, JournalRecord};
use wsrep_qos::metric::Metric;
use wsrep_qos::value::QosVector;
use wsrep_serve::check::{twin_equal, Twin};
use wsrep_serve::ReputationService;
use wsrep_sim::registry::Listing;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("wsrep-serve-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Copy the journal directory byte for byte (including writer-group
/// subdirectories) — the durable state an abrupt kill would leave behind.
fn freeze(live: &Path, tag: &str) -> PathBuf {
    let frozen = temp_dir(tag);
    copy_tree(live, &frozen);
    frozen
}

fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            fs::copy(entry.path(), target).unwrap();
        }
    }
}

fn feedback(rater: u64, service: u64, score: f64, at: u64) -> Feedback {
    Feedback::scored(
        AgentId::new(rater),
        ServiceId::new(service),
        score,
        Time::new(at),
    )
}

fn listing(service: u64, category: u32) -> Listing {
    Listing {
        service: ServiceId::new(service),
        provider: ProviderId::new(service),
        category,
        advertised: QosVector::from_pairs([(Metric::Price, service as f64 + 1.0)]),
    }
}

/// Six publishes, a deregister of the last, then `reports`: what the
/// kill-and-recover tests acknowledge, as a journal would hold it.
fn published_then(reports: &[Feedback]) -> Twin {
    let listings = (0..6).map(|s| JournalRecord::Publish(listing(s, s as u32 % 2)));
    let deregister = JournalRecord::Deregister(ServiceId::new(5));
    let reports = reports.iter().cloned().map(JournalRecord::Feedback);
    Twin::replay(listings.chain([deregister]).chain(reports))
}

#[test]
fn kill_and_recover_restores_every_acknowledged_score() {
    let live = temp_dir("kill-live");
    let svc = ReputationService::builder()
        .shards(4)
        .journal(&live)
        .build();
    for s in 0..6 {
        svc.publish(listing(s, s as u32 % 2)).unwrap();
    }
    svc.deregister(ServiceId::new(5)).unwrap();
    let reports: Vec<Feedback> = (0..300)
        .map(|i| feedback(i % 17, i % 6, (i % 10) as f64 / 10.0, i))
        .collect();
    for report in &reports {
        svc.ingest(report.clone()).unwrap();
    }
    // Durability barrier: everything above is now fdatasync'd.
    svc.flush();
    // One writer group by default, and its log is group-000/, not the root.
    let segments = |dir: &Path| wsrep_journal::segment::list_segments(dir).unwrap();
    assert!(!segments(&live.join("group-000")).is_empty() && segments(&live).is_empty());
    let frozen = freeze(&live, "kill-frozen");
    // The live node and the revived one both equal the twin of what was
    // acked: every report and listing survives, the deregistration too.
    let acked = published_then(&reports);
    twin_equal(&svc, &acked).unwrap();
    drop(svc); // the "crashed" process; its directory is never reused

    let revived = ReputationService::builder()
        .shards(4)
        .recover_from(&frozen)
        .build();
    twin_equal(&revived, &acked).unwrap();
    let health = revived.stats().journal.expect("journal attached");
    // 6 publishes + 1 deregister + 300 reports.
    assert_eq!(health.records_recovered, 307);
    assert!(!health.degraded);
    fs::remove_dir_all(&live).unwrap();
    fs::remove_dir_all(&frozen).unwrap();
}

/// Opening a journal replays it: a service built with `journal(dir)` on
/// a directory that already holds a log serves that log's state, as
/// `recover_from` always did, not empty state over its history.
#[test]
fn reopening_a_journal_serves_what_it_holds() {
    let live = temp_dir("reopen");
    {
        let svc = ReputationService::builder().journal(&live).build();
        for s in 0..3 {
            svc.publish(listing(s, 0)).unwrap();
        }
        svc.ingest_batch((0..60).map(|i| feedback(i, i % 3, 0.8, i)))
            .unwrap();
        svc.flush();
    }
    let reopened = ReputationService::builder().journal(&live).build();
    let twin = Twin::read(&live).unwrap();
    assert_eq!(twin.reports.values().map(Vec::len).sum::<usize>(), 60);
    assert_eq!(twin_equal(&reopened, &twin), Ok(()));
    drop(reopened);
    fs::remove_dir_all(&live).unwrap();
}

#[test]
fn feedback_after_recovery_still_moves_the_score() {
    let live = temp_dir("epoch-live");
    let subject: SubjectId = ServiceId::new(1).into();
    {
        let svc = ReputationService::builder().journal(&live).build();
        for i in 0..40 {
            svc.ingest(feedback(i, 1, 0.9, i)).unwrap();
        }
        svc.flush();
    }
    let revived = ReputationService::builder().recover_from(&live).build();
    let before = revived.score(subject).unwrap();
    for i in 0..40 {
        revived.ingest(feedback(100 + i, 1, 0.0, 50 + i)).unwrap();
    }
    revived.flush();
    let after = revived.score(subject).unwrap();
    assert!(
        after.value.get() < before.value.get(),
        "post-recovery feedback must move the score"
    );
    fs::remove_dir_all(&live).unwrap();
}

#[test]
fn torn_final_record_is_skipped_without_error() {
    let live = temp_dir("torn-live");
    let reports: Vec<Feedback> = (0..25).map(|i| feedback(i, i % 3, 0.7, i)).collect();
    {
        let mut journal = Journal::open(&live, JournalConfig::default()).unwrap();
        // One record per commit, so every frame boundary is a possible
        // durable point.
        for report in &reports {
            journal
                .append_batch(&[JournalRecord::Feedback(report.clone())])
                .unwrap();
        }
    }
    // Tear the last record mid-frame.
    let (_, segment) = wsrep_journal::segment::list_segments(&live)
        .unwrap()
        .pop()
        .unwrap();
    let len = fs::metadata(&segment).unwrap().len();
    fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .unwrap()
        .set_len(len - 3)
        .unwrap();

    let revived = ReputationService::builder().recover_from(&live).build();
    twin_equal(&revived, &Twin::published(&[], &reports[..24])).unwrap();
    // The revived journal truncated the torn tail and appends cleanly.
    revived.ingest(reports[24].clone()).unwrap();
    revived.flush();
    assert_eq!(revived.stats().feedback, 25);
    fs::remove_dir_all(&live).unwrap();
}

#[test]
fn checkpoint_plus_tail_recovers_and_reclaims_segments() {
    let live = temp_dir("checkpoint-live");
    let svc = ReputationService::builder()
        .shards(4)
        .journal(&live)
        .max_segment_bytes(512)
        .build();
    svc.publish(listing(0, 0)).unwrap();
    svc.publish(listing(1, 0)).unwrap();
    let reports: Vec<Feedback> = (0..200)
        .map(|i| feedback(i % 9, i % 2, (i % 7) as f64 / 7.0, i))
        .collect();
    for report in &reports[..120] {
        svc.ingest(report.clone()).unwrap();
    }
    let report = svc.checkpoint().unwrap().expect("journal attached");
    assert_eq!(report.lsn, 122, "2 publishes + 120 reports");
    assert!(
        report.segments_removed > 0,
        "512-byte segments must leave covered segments to reclaim: {report:?}"
    );
    for more in &reports[120..] {
        svc.ingest(more.clone()).unwrap();
    }
    svc.flush();
    let frozen = freeze(&live, "checkpoint-frozen");
    let acked = Twin::published(&[listing(0, 0), listing(1, 0)], &reports);
    twin_equal(&svc, &acked).unwrap();
    drop(svc);

    let revived = ReputationService::builder()
        .shards(4)
        .recover_from(&frozen)
        .build();
    twin_equal(&revived, &acked).unwrap();
    fs::remove_dir_all(&live).unwrap();
    fs::remove_dir_all(&frozen).unwrap();
}

#[test]
fn background_compactor_takes_checkpoints_on_its_own() {
    let live = temp_dir("compactor-live");
    let svc = ReputationService::builder()
        .journal(&live)
        .max_segment_bytes(256)
        .checkpoint_every(Duration::from_millis(25))
        .build();
    for i in 0..400 {
        svc.ingest(feedback(i % 13, i % 5, 0.6, i)).unwrap();
    }
    svc.flush();
    // Poll until the background thread has written a snapshot.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let snapshot = loop {
        if let Some(snapshot) = wsrep_journal::latest_snapshot(&live).unwrap() {
            break snapshot;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "compactor never wrote a snapshot"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(snapshot.lsn > 0);
    drop(svc);
    // Whatever instant the compactor snapshotted at, recovery is exact.
    let revived = ReputationService::builder().recover_from(&live).build();
    assert_eq!(revived.stats().feedback, 400);
    fs::remove_dir_all(&live).unwrap();
}

#[test]
fn partitioned_kill_and_recover_restores_every_acknowledged_score() {
    let live = temp_dir("part-kill-live");
    let svc = ReputationService::builder()
        .shards(4)
        .writer_groups(4)
        .journal(&live)
        .build();
    for s in 0..6 {
        svc.publish(listing(s, s as u32 % 2)).unwrap();
    }
    svc.deregister(ServiceId::new(5)).unwrap();
    let reports: Vec<Feedback> = (0..300)
        .map(|i| feedback(i % 17, i % 6, (i % 10) as f64 / 10.0, i))
        .collect();
    for report in &reports {
        svc.ingest(report.clone()).unwrap();
    }
    // Durability barrier: everything above is fsynced across all four
    // writer-group logs, so the cross-group watermark covers it.
    svc.flush();
    // Four writer groups are four logs on disk, group-000/ … group-003/.
    for group in 0..4 {
        let dir = live.join(format!("group-{group:03}"));
        let segments = wsrep_journal::segment::list_segments(&dir).unwrap();
        assert!(!segments.is_empty(), "group {group} holds no wal-*.log");
    }
    let frozen = freeze(&live, "part-kill-frozen");
    let acked = published_then(&reports);
    twin_equal(&svc, &acked).unwrap();
    drop(svc);

    // No writer_groups setting: the on-disk partitioned layout decides.
    let revived = ReputationService::builder()
        .shards(4)
        .recover_from(&frozen)
        .build();
    twin_equal(&revived, &acked).unwrap();
    let health = revived.stats().journal.expect("journal attached");
    assert_eq!(health.records_recovered, 307);
    assert_eq!(health.writer_groups, 4, "on-disk layout reopens wide");
    assert!(!health.degraded);
    fs::remove_dir_all(&live).unwrap();
    fs::remove_dir_all(&frozen).unwrap();
}

#[test]
fn torn_tail_in_one_group_loses_only_that_groups_suffix() {
    let live = temp_dir("part-torn-live");
    let reports: Vec<Feedback> = (0..10).map(|i| feedback(i, i % 3, 0.7, i)).collect();
    {
        let set = GroupSet::open(&live, 2, JournalConfig::default(), 0).unwrap();
        // One record per commit, alternating groups: LSN i lands in
        // group i % 2, so each group's log is every other LSN.
        for (i, report) in reports.iter().enumerate() {
            let receipt = set
                .append_batch(i % 2, &[JournalRecord::Feedback(report.clone())])
                .unwrap();
            assert_eq!(receipt.first_lsn, i as u64);
        }
    }
    // Tear group 1 back to 3 whole frames: LSNs 7 and 9 are lost while
    // group 0's 8 survives above the resulting gap.
    let group1 = live.join("group-001");
    let (_, segment) = wsrep_journal::segment::list_segments(&group1)
        .unwrap()
        .pop()
        .unwrap();
    let len = fs::metadata(&segment).unwrap().len();
    let frame = (len - 13) / 5; // 13-byte header, five same-size frames
    fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .unwrap()
        .set_len(13 + 3 * frame)
        .unwrap();

    let recovered = recover(&live).unwrap();
    let survivors: Vec<u64> = recovered.feedback.iter().map(|f| f.rater.raw()).collect();
    assert_eq!(survivors, vec![0, 1, 2, 3, 4, 5, 6, 8], "gap at 7, keep 8");
    assert_eq!(recovered.durable_lsn, 7, "frontier stops at the gap");
    assert_eq!(recovered.next_lsn, 9, "appends resume past the survivor");
    fs::remove_dir_all(&live).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Write N reports, truncate the segment at an arbitrary byte, and
    /// recovery must yield exactly a prefix of the log — scoring equal to
    /// a sequential replay of that prefix for every subject.
    #[test]
    fn truncate_anywhere_recovers_a_score_exact_prefix(
        raw in proptest::collection::vec((0u64..12, 0u64..6, 0.0f64..1.0, 0u64..50), 1..60),
        chunk in 1usize..8,
        cut_back in 0u64..2000,
    ) {
        let tag = format!("prop-{}-{}-{}", raw.len(), chunk, cut_back);
        let live = temp_dir(&tag);
        let reports: Vec<Feedback> = raw
            .iter()
            .map(|&(rater, service, score, at)| feedback(rater, service, score, at))
            .collect();
        {
            let mut journal = Journal::open(&live, JournalConfig::default()).unwrap();
            for batch in reports.chunks(chunk) {
                let records: Vec<JournalRecord> =
                    batch.iter().cloned().map(JournalRecord::Feedback).collect();
                journal.append_batch(&records).unwrap();
            }
        }
        let (_, segment) = wsrep_journal::segment::list_segments(&live)
            .unwrap()
            .pop()
            .unwrap();
        let len = fs::metadata(&segment).unwrap().len();
        // Cut anywhere from "keep everything" down to the bare header.
        let cut = len.saturating_sub(cut_back).max(13);
        fs::OpenOptions::new()
            .write(true)
            .open(&segment)
            .unwrap()
            .set_len(cut)
            .unwrap();

        let recovered = recover(&live).unwrap();
        let k = recovered.feedback.len();
        prop_assert!(k <= reports.len());
        prop_assert_eq!(&recovered.feedback, &reports[..k], "must be an exact prefix");

        let revived = ReputationService::builder()
            .shards(3)
            .recover_from(&live)
            .build();
        twin_equal(&revived, &Twin::published(&[], &reports[..k])).unwrap();
        drop(revived);
        fs::remove_dir_all(&live).unwrap();
    }

    /// Partition the log over several writer groups, tear every group's
    /// tail at an arbitrary byte, and recovery must (a) keep exactly a
    /// prefix of each group's log, (b) merge the survivors in LSN order
    /// into a service equal to their twin, and (c) report a durable
    /// watermark that never exceeds any group's torn frontier.
    #[test]
    fn partitioned_truncate_anywhere_recovers_the_twin_of_the_survivors(
        n in 1usize..60,
        groups in 2usize..5,
        chunk in 1usize..6,
        cuts in proptest::collection::vec(0u64..2000, 4),
    ) {
        let tag = format!("part-prop-{n}-{groups}-{chunk}-{}", cuts[0]);
        let live = temp_dir(&tag);
        // Record i carries its own LSN in the rater id: batches are
        // appended one at a time, so allocation is dense and global
        // position == LSN.
        let reports: Vec<Feedback> = (0..n as u64)
            .map(|i| feedback(i, i % 6, ((i % 7) as f64) / 7.0, i))
            .collect();
        let mut group_lsns: Vec<Vec<u64>> = vec![Vec::new(); groups];
        {
            let set = GroupSet::open(&live, groups, JournalConfig::default(), 0).unwrap();
            for (b, batch) in reports.chunks(chunk).enumerate() {
                let group = b % groups;
                let records: Vec<JournalRecord> =
                    batch.iter().cloned().map(JournalRecord::Feedback).collect();
                let receipt = set.append_batch(group, &records).unwrap();
                group_lsns[group]
                    .extend(receipt.first_lsn..receipt.first_lsn + receipt.count);
            }
        }
        // Tear each group's last segment at an independent offset —
        // groups torn at different LSNs is exactly the crash shape a
        // partitioned writer leaves.
        for (group, lsns) in group_lsns.iter().enumerate() {
            if lsns.is_empty() {
                continue;
            }
            let dir = live.join(format!("group-{group:03}"));
            let (_, segment) = wsrep_journal::segment::list_segments(&dir)
                .unwrap()
                .pop()
                .unwrap();
            let len = fs::metadata(&segment).unwrap().len();
            let cut = len.saturating_sub(cuts[group % cuts.len()]).max(13);
            fs::OpenOptions::new()
                .write(true)
                .open(&segment)
                .unwrap()
                .set_len(cut)
                .unwrap();
        }

        let recovered = recover(&live).unwrap();
        let survivors: Vec<u64> = recovered.feedback.iter().map(|f| f.rater.raw()).collect();

        // (a) Per-group, the surviving LSNs are a prefix of that group's
        // appends: tearing a suffix of bytes loses a suffix of records.
        let survived: std::collections::BTreeSet<u64> = survivors.iter().copied().collect();
        let mut torn_frontiers: Vec<u64> = Vec::new();
        for lsns in &group_lsns {
            let kept = lsns.iter().take_while(|lsn| survived.contains(lsn)).count();
            for lost in &lsns[kept..] {
                prop_assert!(
                    !survived.contains(lost),
                    "group lost LSN {} but kept a later one", lost
                );
            }
            torn_frontiers.push(lsns.get(kept).copied().unwrap_or(u64::MAX));
        }

        // (b) The merge hands the survivors on in LSN order; the revived
        // service below equals their twin.
        prop_assert!(survivors.windows(2).all(|pair| pair[0] < pair[1]));

        // (c) The reported frontier is the first hole in the survivor
        // set and never exceeds any group's torn frontier.
        let first_hole = (0..n as u64)
            .find(|lsn| !survived.contains(lsn))
            .unwrap_or(n as u64);
        prop_assert_eq!(recovered.durable_lsn, first_hole);
        for frontier in torn_frontiers {
            prop_assert!(
                recovered.durable_lsn <= frontier,
                "watermark {} beyond a torn frontier {}", recovered.durable_lsn, frontier
            );
        }
        prop_assert_eq!(
            recovered.next_lsn,
            survivors.iter().max().map(|lsn| lsn + 1).unwrap_or(0)
        );

        // The revived service equals the twin of the surviving stream.
        let revived = ReputationService::builder()
            .shards(3)
            .recover_from(&live)
            .build();
        twin_equal(&revived, &Twin::published(&[], &recovered.feedback)).unwrap();
        drop(revived);
        fs::remove_dir_all(&live).unwrap();
    }
}

/// Every file under `dir`, by path, with its bytes.
fn tree(dir: &Path) -> std::collections::BTreeMap<PathBuf, Vec<u8>> {
    let mut files = std::collections::BTreeMap::new();
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(tree(&path));
        } else {
            files.insert(path.clone(), fs::read(&path).unwrap());
        }
    }
    files
}

/// A one-group journal of `commits` commits of three reports each, in
/// segments small enough that it spans several; returns the reports.
fn small_segment_journal(dir: &Path, commits: u64) -> Vec<Feedback> {
    let reports: Vec<Feedback> = (0..commits * 3)
        .map(|i| feedback(i, i % 4, (i % 9) as f64 / 9.0, i))
        .collect();
    let config = JournalConfig {
        max_segment_bytes: 200,
    };
    let set = GroupSet::open(dir, 1, config, 0).unwrap();
    for commit in reports.chunks(3) {
        let records: Vec<JournalRecord> = commit
            .iter()
            .cloned()
            .map(JournalRecord::Feedback)
            .collect();
        set.append_batch(0, &records).unwrap();
    }
    reports
}

/// File offsets at which the frames of a segment end, its header first.
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    use wsrep_journal::frame::{split_frame, FrameSplit};
    let mut ends = vec![13];
    while let FrameSplit::Frame { frame_len } = split_frame(&bytes[*ends.last().unwrap()..]) {
        ends.push(ends.last().unwrap() + frame_len);
    }
    ends
}

/// `recover_from` over a journal whose first segment, not its last, has
/// its second frame replaced by `damaged(frame)`: refused as
/// `InvalidData`, and not one byte of the journal changes.
fn assert_damaged_history_is_refused(tag: &str, damaged: impl Fn(&[u8]) -> Vec<u8>) {
    let live = temp_dir(tag);
    small_segment_journal(&live, 12);
    let segments = wsrep_journal::segment::list_segments(&live.join("group-000")).unwrap();
    assert!(
        segments.len() >= 3,
        "the damage must sit in a non-final segment"
    );
    let (_, first) = &segments[0];
    let bytes = fs::read(first).unwrap();
    let ends = frame_ends(&bytes);
    assert!(ends.len() >= 3, "two whole frames in the first segment");
    let mut with_damage = bytes[..ends[1]].to_vec();
    with_damage.extend(damaged(&bytes[ends[1]..ends[2]]));
    with_damage.extend_from_slice(&bytes[ends[2]..]);
    fs::write(first, &with_damage).unwrap();

    let before = tree(&live);
    let err = ReputationService::builder()
        .recover_from(&live)
        .try_build()
        .expect_err("acknowledged history is damaged");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!(tree(&live), before, "a refused journal is left as it lies");
    fs::remove_dir_all(&live).unwrap();
}

#[test]
fn a_frame_failing_its_checksum_in_a_non_final_segment_is_refused() {
    assert_damaged_history_is_refused("refuse-crc", |frame| {
        let mut frame = frame.to_vec();
        let last = frame.len() - 1;
        frame[last] ^= 0x20;
        frame
    });
}

#[test]
fn a_frame_that_checks_and_does_not_decode_in_a_non_final_segment_is_refused() {
    assert_damaged_history_is_refused("refuse-decode", |_| {
        let mut frame = Vec::new();
        wsrep_journal::frame::write_frame(&mut frame, &[0x7F]);
        frame
    });
}

#[test]
fn a_torn_final_segment_recovers_its_whole_commits_and_is_cut_to_them() {
    let live = temp_dir("torn-final-commit");
    let reports = small_segment_journal(&live, 12);
    let segments = wsrep_journal::segment::list_segments(&live.join("group-000")).unwrap();
    let (_, last) = segments.last().unwrap();
    let bytes = fs::read(last).unwrap();
    let ends = frame_ends(&bytes);
    let [.., kept, whole] = ends[..] else {
        panic!("the final segment holds no frame");
    };
    assert_eq!(whole, bytes.len());
    // Every commit but the last is whole: three reports each.
    let survivors = &reports[..reports.len() - 3];
    for cut in [kept + 1, kept + 8, (kept + whole) / 2, whole - 1] {
        fs::write(last, &bytes[..cut]).unwrap();
        let revived = ReputationService::builder()
            .shards(3)
            .recover_from(&live)
            .build();
        twin_equal(&revived, &Twin::published(&[], survivors))
            .unwrap_or_else(|v| panic!("cut at {cut}: {v}"));
        drop(revived);
        assert_eq!(
            fs::metadata(last).unwrap().len() as usize,
            kept,
            "cut to the frame boundary"
        );
    }
    fs::remove_dir_all(&live).unwrap();
}

/// A final segment with a damaged header holds acknowledged commits: it
/// is refused and left as it lies, not dropped (only a crashed rotation
/// leaves one without a header, no longer than a header).
#[test]
fn a_final_segment_with_a_damaged_header_is_refused_not_dropped() {
    let live = temp_dir("damaged-header");
    small_segment_journal(&live, 12);
    let segments = wsrep_journal::segment::list_segments(&live.join("group-000")).unwrap();
    let (_, last) = segments.last().unwrap();
    let mut bytes = fs::read(last).unwrap();
    assert!(frame_ends(&bytes).len() > 1, "acknowledged commits in it");
    bytes[0] ^= 0x01;
    fs::write(last, &bytes).unwrap();
    let before = tree(&live);
    let opened = GroupSet::open(&live, 1, JournalConfig::default(), 0).map(drop);
    let built = ReputationService::builder().recover_from(&live).try_build();
    for err in [opened.unwrap_err(), built.map(drop).unwrap_err()] {
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }
    assert_eq!(tree(&live), before);
    fs::remove_dir_all(&live).unwrap();
}

/// A two-group journal of 60 000 reports, several recovery chunks' worth
/// however large a chunk is, in segments of 32 KiB: commits of 250
/// reports alternate between the groups, and every 3 000 reports a
/// publish and a deregister go in between. Returns the records in LSN
/// order.
fn many_chunk_journal(dir: &Path) -> Vec<JournalRecord> {
    let config = JournalConfig {
        max_segment_bytes: 32 << 10,
    };
    let set = GroupSet::open(dir, 2, config, 0).unwrap();
    let mut log = Vec::new();
    let mut append = |commit: usize, records: Vec<JournalRecord>| {
        set.append_batch(commit % 2, &records).unwrap();
        log.extend(records);
    };
    for s in 0..8 {
        append(
            s as usize,
            vec![JournalRecord::Publish(listing(s, s as u32 % 3))],
        );
    }
    for commit in 0..240u64 {
        if commit % 12 == 11 {
            let round = commit / 12;
            let churn = vec![
                JournalRecord::Publish(listing(8 + round, round as u32 % 3)),
                JournalRecord::Deregister(ServiceId::new(round % 8)),
            ];
            append(commit as usize, churn);
        }
        let reports = (commit * 250..(commit + 1) * 250)
            .map(|i| feedback(i % 97, i % 29, (i % 11) as f64 / 10.0, i))
            .map(JournalRecord::Feedback)
            .collect();
        append(commit as usize, reports);
    }
    log
}

/// Recovery folds on a second thread, a chunk at a time: many chunks over
/// two writer groups, listings churned between them, recover to their
/// twin. Then damage in a non-final segment of the same journal is
/// refused while chunks are folding, and the build returns, so the fold
/// thread was joined.
#[test]
fn many_chunks_over_two_groups_recover_to_the_twin_and_damage_is_refused() {
    let live = temp_dir("many-chunks");
    let log = many_chunk_journal(&live);
    let acked = Twin::replay(log);
    assert_eq!(acked.feedback().count(), 60_000);
    let revived = ReputationService::builder()
        .shards(4)
        .recover_from(&live)
        .build();
    twin_equal(&revived, &acked).unwrap();
    let health = revived.stats().journal.expect("journal attached");
    assert_eq!(health.records_recovered, acked.records);
    assert_eq!(health.writer_groups, 2);
    drop(revived);

    let segments = wsrep_journal::segment::list_segments(&live.join("group-000")).unwrap();
    assert!(segments.len() >= 5, "{} segments", segments.len());
    let (_, middle) = &segments[segments.len() / 2];
    let mut bytes = fs::read(middle).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x40;
    fs::write(middle, &bytes).unwrap();
    let before = tree(&live);
    let err = ReputationService::builder()
        .recover_from(&live)
        .try_build()
        .map(drop)
        .expect_err("acknowledged history is damaged");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!(tree(&live), before, "a refused journal is left as it lies");
    fs::remove_dir_all(&live).unwrap();
}

/// A journal over `groups` writer groups whose final commit, five reports
/// in the last group's final segment, checks but stops decoding at its
/// third report: recovery keeps none of that commit, the two reports
/// before the damage included, recovers the twin of every commit before
/// it and cuts the segment back to them. The log before it is several
/// recovery chunks long, so the damage is met while chunks are folding.
fn assert_a_final_frame_that_stops_decoding_keeps_none_of_it(tag: &str, groups: usize) {
    use wsrep_journal::codec::{CodecError, CompactRules, Cursor};
    use wsrep_journal::record::decode_payload;
    use wsrep_journal::segment::{group_dir_name, list_segments, LSN_MARKER};

    let live = temp_dir(tag);
    let set = GroupSet::open(&live, groups, JournalConfig::default(), 0).unwrap();
    let mut log: Vec<JournalRecord> = (0..6)
        .map(|s| JournalRecord::Publish(listing(s, 0)))
        .collect();
    set.append_batch(0, &log).unwrap();
    for commit in 0..100u64 {
        let reports: Vec<JournalRecord> = (commit * 100..(commit + 1) * 100)
            .map(|i| JournalRecord::Feedback(feedback(i % 13, i % 6, (i % 7) as f64 / 7.0, i / 50)))
            .collect();
        set.append_batch(commit as usize % groups, &reports)
            .unwrap();
        log.extend(reports);
    }
    let last: Vec<JournalRecord> = (0..5)
        .map(|i| JournalRecord::Feedback(feedback(20 + i, i % 6, 1.0, 999)))
        .collect();
    set.append_batch(groups - 1, &last).unwrap();
    drop(set);

    let dir = live.join(group_dir_name(groups - 1));
    let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
    let mut bytes = fs::read(&path).unwrap();
    let ends = frame_ends(&bytes);
    let [.., start, end] = ends[..] else {
        panic!("no frame in {}", path.display());
    };
    assert_eq!(end, bytes.len());
    // The third report's head gains its reserved bit, and the frame a
    // checksum over the damage.
    let mut payload = bytes[start + 8..end].to_vec();
    let records_at = if payload[0] == LSN_MARKER { 9 } else { 0 };
    let third = |payload: &[u8]| {
        let mut cur = Cursor::new(&payload[records_at..]);
        let mut seen = 0;
        let decoded = decode_payload(&mut cur, CompactRules::Format6(None), |_| {
            seen += 1;
            if seen == 2 {
                return Err(CodecError::BadCount);
            }
            Ok(())
        });
        (decoded, seen, payload.len() - cur.remaining())
    };
    let (_, _, head) = third(&payload);
    payload[head] |= 0x40;
    let (decoded, seen, _) = third(&payload);
    assert_eq!(
        (decoded, seen),
        (Err(CodecError::BadCount), 2),
        "two reports decode"
    );
    bytes.truncate(start);
    wsrep_journal::frame::write_frame(&mut bytes, &payload);
    fs::write(&path, &bytes).unwrap();

    let revived = ReputationService::builder()
        .shards(4)
        .writer_groups(groups)
        .recover_from(&live)
        .build();
    twin_equal(&revived, &Twin::replay(log)).unwrap();
    drop(revived);
    assert_eq!(
        fs::metadata(&path).unwrap().len() as usize,
        start,
        "cut to the commits before it"
    );
    fs::remove_dir_all(&live).unwrap();
}

#[test]
fn a_final_frame_that_checks_and_stops_decoding_partway_keeps_none_of_its_reports() {
    assert_a_final_frame_that_stops_decoding_keeps_none_of_it("partway-one-group", 1);
}

#[test]
fn the_same_frame_in_the_second_of_two_groups_keeps_none_of_its_reports() {
    assert_a_final_frame_that_stops_decoding_keeps_none_of_it("partway-second-group", 2);
}
