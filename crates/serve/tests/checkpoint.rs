//! Journal-sourced checkpoints: a snapshot at LSN `L` is built from the
//! log on disk, so it must be exactly what the first `L` WAL records
//! rebuild — under concurrent ingest, for one writer group and several,
//! on top of an earlier snapshot or none, and after a journal failure.

use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId};
use wsrep_core::time::Time;
use wsrep_journal::{
    latest_snapshot, recover, Fault, FaultScript, IoOp, IoPolicy, JournalRecord, ShipCursor,
    Snapshot,
};
use wsrep_qos::metric::Metric;
use wsrep_qos::value::QosVector;
use wsrep_serve::check::{shipped, twin_equal, Twin};
use wsrep_serve::{CheckpointReport, DurabilityPolicy, ReputationService};
use wsrep_sim::registry::Listing;

const SERVICES: u64 = 6;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wsrep-serve-checkpoint-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn feedback(i: u64) -> Feedback {
    Feedback::scored(
        AgentId::new(i % 17),
        ServiceId::new(i % SERVICES),
        (i % 10) as f64 / 10.0,
        Time::new(i),
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

fn assert_snapshot_is_the_wal_prefix(
    report: &CheckpointReport,
    snapshot: &Snapshot,
    wal: &[(u64, JournalRecord)],
) {
    assert_eq!(snapshot.lsn, report.lsn);
    assert_eq!(snapshot.entries(), report.entries);
    let prefix = wal.iter().filter(|(at, _)| *at < report.lsn);
    let prefix = Twin::replay(prefix.map(|(_, record)| record.clone()));
    let held = Twin::published(&snapshot.listings, &snapshot.feedback);
    assert_eq!(
        (held.listings, held.reports),
        (prefix.listings, prefix.reports),
        "listings and per-subject feedback order at lsn {}",
        report.lsn
    );
}

/// Two checkpoints under a live ingester (the first with no snapshot to
/// build on, the second on top of the first), with segments large enough
/// that compaction deletes none: the whole WAL stays readable, so each
/// snapshot can be held against the twin of its prefix, and the whole
/// WAL's twin is the never-checkpointed history.
#[test]
fn snapshot_under_concurrent_ingest_equals_a_replay_of_its_wal_prefix() {
    const BODY: u64 = 3000;
    const TAIL: u64 = 200;
    for groups in [1usize, 2] {
        let live = temp_dir(&format!("concurrent-{groups}"));
        let svc = Arc::new(
            ReputationService::builder()
                .shards(4)
                .writer_groups(groups)
                .journal(&live)
                .build(),
        );
        let (reached, at_mark) = mpsc::channel();
        let (resume, resumed) = mpsc::channel::<()>();
        let mut taken: Vec<(CheckpointReport, Snapshot)> = Vec::new();
        std::thread::scope(|scope| {
            let ingester = Arc::clone(&svc);
            scope.spawn(move || {
                for i in 0..BODY {
                    if i == BODY / 2 {
                        // The first checkpoint has returned: report
                        // BODY / 2 is certainly past it, so the second
                        // snapshot is strictly newer.
                        resumed.recv().unwrap();
                    }
                    if i % 100 == 0 {
                        let service = (i / 100) % SERVICES;
                        ingester
                            .publish(listing(service, (i / 600) as u32))
                            .unwrap();
                    }
                    if i % 700 == 699 {
                        ingester.deregister(ServiceId::new(i % SERVICES)).unwrap();
                    }
                    ingester.ingest(feedback(i)).unwrap();
                    if i == BODY / 4 || i == BODY / 2 {
                        reached.send(()).unwrap();
                    }
                }
                // Reports that are certainly past both snapshots: the
                // recovery below always has a WAL tail to replay.
                resumed.recv().unwrap();
                for i in BODY..BODY + TAIL {
                    ingester.ingest(feedback(i)).unwrap();
                }
            });
            for _ in 0..2 {
                // The ingester is mid-stream and keeps going while the
                // checkpoint runs.
                at_mark.recv().unwrap();
                let report = svc.checkpoint().unwrap().expect("journal attached");
                let snapshot = latest_snapshot(&live).unwrap().expect("just written");
                taken.push((report, snapshot));
                resume.send(()).unwrap();
            }
        });
        svc.flush();

        let wal = shipped(&live).unwrap();
        assert_eq!(
            wal.len() as u64,
            wal.last().unwrap().0 + 1,
            "nothing compacted, no gaps: the WAL is the whole history"
        );
        for (report, snapshot) in &taken {
            assert_snapshot_is_the_wal_prefix(report, snapshot, &wal);
        }
        let (first, second) = (&taken[0].0, &taken[1].0);
        assert!(first.lsn > BODY / 4, "flushed before the LSN was read");
        assert!(second.lsn > first.lsn);
        assert_eq!(second.snapshots_removed, 1, "built on, then superseded");

        // The live node, and its recovery from snapshot + tail, equal the
        // twin of the whole WAL: the never-checkpointed history.
        let never = Twin::replay(wal.into_iter().map(|(_, record)| record));
        assert_eq!(never.feedback().count() as u64, BODY + TAIL);
        twin_equal(&svc, &never).unwrap();
        drop(svc);
        assert_eq!(recover(&live).unwrap().snapshot_lsn, Some(second.lsn));
        let revived = ReputationService::builder()
            .shards(4)
            .recover_from(&live)
            .build();
        twin_equal(&revived, &never).unwrap();
        assert_eq!(revived.durable_lsn(), Some(never.lsn));
        drop(revived);
        fs::remove_dir_all(&live).unwrap();
    }
}

/// With segments small enough that the checkpoint reclaims some, a ship
/// cursor must still refuse history below the new snapshot, and serve
/// from it on.
#[test]
fn ship_cursor_refuses_history_below_a_journal_sourced_snapshot() {
    for groups in [1usize, 2] {
        let live = temp_dir(&format!("refuse-{groups}"));
        let svc = ReputationService::builder()
            .shards(4)
            .writer_groups(groups)
            .journal(&live)
            .max_segment_bytes(512)
            .build();
        svc.publish(listing(0, 0)).unwrap();
        for i in 0..300 {
            svc.ingest(feedback(i)).unwrap();
        }
        let report = svc.checkpoint().unwrap().expect("journal attached");
        assert_eq!(report.lsn, 301);
        assert!(report.segments_removed > 0, "{report:?}");
        let refused = ShipCursor::open(&live, 0).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::NotFound, "{groups} groups");

        for i in 300..340 {
            svc.ingest(feedback(i)).unwrap();
        }
        svc.flush();
        let mut cursor = ShipCursor::open(&live, report.lsn).unwrap();
        let batch = cursor.next_batch(1000).unwrap();
        assert_eq!(batch.first_lsn, report.lsn);
        assert_eq!(batch.records.len(), 40);
        drop(svc);
        assert_eq!(recover(&live).unwrap().feedback.len(), 340);
        fs::remove_dir_all(&live).unwrap();
    }
}

/// After a journal failure under `Degrade` the service keeps applying
/// writes it no longer journals. A checkpoint must cover the journal's
/// clean prefix — not persist that un-journaled state under a journal LSN.
#[test]
fn checkpoint_after_a_degrade_trip_covers_exactly_the_clean_prefix() {
    let live = temp_dir("degrade");
    let script = Arc::new(FaultScript::new());
    // One append per publish and — flushing after each ingest — per
    // report: let the publish and ten reports through, fail the twelfth
    // append.
    script.push_after(IoOp::Append, 11, Fault::enospc());
    let svc = ReputationService::builder()
        .shards(2)
        .journal(&live)
        .durability_policy(DurabilityPolicy::Degrade)
        .io_policy(Arc::clone(&script) as Arc<dyn IoPolicy>)
        .build();
    svc.publish(listing(0, 0)).unwrap();
    let reports: Vec<Feedback> = (0..15).map(feedback).collect();
    for report in &reports[..10] {
        svc.ingest(report.clone()).unwrap();
        svc.flush();
    }
    assert!(!svc.stats().journal.unwrap().degraded);
    for report in &reports[10..] {
        svc.ingest(report.clone()).unwrap();
        svc.flush();
    }
    svc.publish(listing(1, 0)).unwrap();
    let health = svc.stats().journal.unwrap();
    assert!(health.degraded, "the scripted fault must have fired");
    assert_eq!(script.injected(), 1);

    let report = svc.checkpoint().unwrap().expect("journal attached");
    assert_eq!(report.lsn, 11, "one publish + ten reports were journaled");
    assert_eq!(report.entries, 11);
    let snapshot = latest_snapshot(&live).unwrap().expect("just written");
    assert_eq!(snapshot.listings, vec![listing(0, 0)]);
    assert_eq!(snapshot.feedback, reports[..10].to_vec());
    // The service itself still serves everything it accepted.
    assert_eq!(svc.stats().feedback, 15);
    assert_eq!(svc.stats().listings, 2);
    drop(svc);

    let recovered = recover(&live).unwrap();
    assert_eq!(recovered.feedback, reports[..10].to_vec());
    assert_eq!(recovered.listings, vec![listing(0, 0)]);
    assert_eq!(recovered.next_lsn, 11);
    fs::remove_dir_all(&live).unwrap();
}

/// Recovery falls back past a snapshot that no longer validates; a
/// checkpoint must not build on that fallback — the segments the damaged
/// snapshot covered are gone, and a new snapshot would seal the loss in
/// and delete the damaged file that is its only trace.
#[test]
fn checkpoint_refuses_to_build_on_a_damaged_newest_snapshot() {
    let live = temp_dir("damaged");
    let svc = ReputationService::builder()
        .shards(2)
        .journal(&live)
        .max_segment_bytes(512)
        .build();
    for i in 0..200 {
        svc.ingest(feedback(i)).unwrap();
    }
    let first = svc.checkpoint().unwrap().expect("journal attached");
    assert!(first.segments_removed > 0, "{first:?}");
    let path = live.join(format!("snap-{:016x}.snap", first.lsn));
    let mut bytes = fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    fs::write(&path, &bytes).unwrap();

    for i in 200..260 {
        svc.ingest(feedback(i)).unwrap();
    }
    let refused = svc.checkpoint().unwrap_err();
    assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
    assert!(
        path.exists(),
        "the damaged snapshot is left for the operator"
    );
    assert_eq!(svc.stats().feedback, 260, "and the service keeps serving");
    drop(svc);
    fs::remove_dir_all(&live).unwrap();
}
