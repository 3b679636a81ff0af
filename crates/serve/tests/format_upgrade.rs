//! Upgrade across a segment format bump: a journal an earlier build left
//! in format 3 (fixed-width tag-1 feedback records) or format 4 (compact
//! ones), a frame a record in both, is recovered by this build to the
//! estimates it held, stays untouched on disk when this build appends
//! beside it in format 5, and recovers to the same estimates again from
//! the two formats together.

use std::fs;
use std::path::{Path, PathBuf};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId, SubjectId};
use wsrep_core::mechanism::score_from_log;
use wsrep_core::mechanisms::beta::BetaMechanism;
use wsrep_core::store::FeedbackStore;
use wsrep_core::time::Time;
use wsrep_core::trust::TrustEstimate;
use wsrep_journal::codec::put_feedback;
use wsrep_journal::frame::write_frame;
use wsrep_journal::segment::{
    list_segments, scan_segment_entries, segment_file_name, segment_header_versioned,
};
use wsrep_journal::{group_dir_name, JournalRecord};
use wsrep_qos::metric::Metric;
use wsrep_qos::value::QosVector;
use wsrep_serve::ReputationService;
use wsrep_sim::registry::Listing;

const SERVICES: u64 = 5;

fn subject(service: u64) -> SubjectId {
    ServiceId::new(service).into()
}

fn report(i: u64) -> Feedback {
    let plain = Feedback::scored(
        AgentId::new(i % 23),
        ServiceId::new(i % SERVICES),
        (i % 10) as f64 / 10.0,
        Time::new(i),
    );
    if i.is_multiple_of(7) {
        plain
            .with_observed(QosVector::from_pairs([(
                Metric::ResponseTime,
                80.0 + i as f64,
            )]))
            .with_facet(Metric::Accuracy, 0.25)
    } else {
        plain
    }
}

/// Write `root/group-000/wal-0.log` the way a build of format `version`
/// (3 or 4) did: its header, a listing per service, then `reports` as
/// tag-1 records (3) or compact ones (4), every record in a frame of its
/// own.
fn write_old_log(root: &Path, version: u8, reports: &[Feedback]) -> PathBuf {
    let group = root.join(group_dir_name(0));
    fs::create_dir_all(&group).unwrap();
    let mut bytes = segment_header_versioned(0, version).to_vec();
    for service in 0..SERVICES {
        let listing = JournalRecord::Publish(Listing {
            service: ServiceId::new(service),
            provider: ProviderId::new(service),
            category: 0,
            advertised: QosVector::from_pairs([(Metric::Price, 1.0 + service as f64)]),
        });
        write_frame(&mut bytes, &listing.to_bytes());
    }
    for feedback in reports {
        let record = if version == 3 {
            let mut record = vec![1];
            put_feedback(&mut record, feedback);
            record
        } else {
            JournalRecord::Feedback(feedback.clone()).to_bytes()
        };
        write_frame(&mut bytes, &record);
    }
    let path = group.join(segment_file_name(0));
    fs::write(&path, &bytes).unwrap();
    path
}

fn estimates(service: &ReputationService) -> Vec<Option<TrustEstimate>> {
    (0..SERVICES).map(|s| service.score(subject(s))).collect()
}

#[test]
fn a_format_3_journal_recovers_the_same_before_and_after_a_format_5_append() {
    recovers_the_same_before_and_after_an_append(3);
}

#[test]
fn a_format_4_journal_recovers_the_same_before_and_after_a_format_5_append() {
    recovers_the_same_before_and_after_an_append(4);
}

fn recovers_the_same_before_and_after_an_append(version: u8) {
    let root = std::env::temp_dir().join(format!(
        "wsrep-serve-upgrade-v{version}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&root);
    let reports: Vec<Feedback> = (0..240).map(report).collect();
    let old_path = write_old_log(&root, version, &reports);
    let old_bytes = fs::read(&old_path).unwrap();
    let history = SERVICES + reports.len() as u64;

    let newcomer = ServiceId::new(SERVICES + 4);
    let before = {
        let service = ReputationService::builder()
            .shards(4)
            .recover_from(&root)
            .build();
        let health = service.stats().journal.expect("journal attached");
        assert_eq!(health.records_recovered, history);
        let before = estimates(&service);
        let mut store = FeedbackStore::new();
        reports.iter().for_each(|r| store.push(r.clone()));
        for (s, estimate) in before.iter().enumerate() {
            let subject = subject(s as u64);
            let replayed = score_from_log(&mut BetaMechanism::new(), store.about(subject), subject);
            assert_eq!(
                *estimate, replayed,
                "service {s} against a sequential replay"
            );
            assert!(estimate.is_some());
        }
        // This build's first append: a report about a subject the old log
        // never mentions, so every old estimate must come back unchanged.
        service
            .ingest(Feedback::scored(
                AgentId::new(1),
                newcomer,
                0.9,
                Time::new(999),
            ))
            .unwrap();
        service.flush();
        assert_eq!(estimates(&service), before);
        before
    };

    assert_eq!(
        fs::read(&old_path).unwrap(),
        old_bytes,
        "the format-{version} segment is sealed as it lies"
    );
    let segments = list_segments(&root.join(group_dir_name(0))).unwrap();
    assert_eq!(segments.len(), 2, "the append opened a segment of its own");
    let appended = scan_segment_entries(&segments[1].1).unwrap().unwrap();
    assert_eq!((appended.version, appended.start_lsn), (5, history));
    assert_eq!(appended.entries.len(), 1);

    let revived = ReputationService::builder()
        .shards(4)
        .recover_from(&root)
        .build();
    let health = revived.stats().journal.expect("journal attached");
    assert_eq!(health.records_recovered, history + 1);
    assert_eq!(estimates(&revived), before);
    assert!(revived.score(newcomer.into()).is_some());
    drop(revived);
    fs::remove_dir_all(&root).unwrap();
}
