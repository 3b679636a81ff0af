//! Upgrade across a segment format bump: a journal an earlier build left
//! in format 3 (fixed-width tag-1 feedback records, a frame a record),
//! format 4 (compact ones, a frame a record) or format 5 (compact ones, a
//! frame a commit) is recovered by this build to the estimates it held,
//! stays untouched on disk when this build appends beside it in the
//! format it writes, and recovers to the same estimates again from the
//! two formats together.
//!
//! The old logs are written in their own bytes, by encoders local to this
//! file, not by this build's writer: a report's score always in eight
//! bytes, its round always stored.

use std::fs;
use std::path::{Path, PathBuf};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId, SubjectId};
use wsrep_core::time::Time;
use wsrep_journal::codec::{put_f64, put_feedback, put_metric, put_varint};
use wsrep_journal::frame::write_frame;
use wsrep_journal::segment::{
    list_segments, scan_segment_entries, segment_file_name, segment_header_versioned,
    FORMAT_VERSION,
};
use wsrep_journal::{group_dir_name, JournalRecord};
use wsrep_qos::metric::Metric;
use wsrep_qos::value::QosVector;
use wsrep_serve::check::{twin_equal, Twin};
use wsrep_serve::ReputationService;
use wsrep_sim::registry::Listing;

const SERVICES: u64 = 5;

fn report(i: u64) -> Feedback {
    let plain = Feedback::scored(
        AgentId::new(i % 23),
        ServiceId::new(i % SERVICES),
        (i % 10) as f64 / 10.0,
        Time::new(i / 8),
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

fn put_pairs(out: &mut Vec<u8>, pairs: Vec<(Metric, f64)>) {
    put_varint(out, pairs.len() as u64);
    for (metric, value) in pairs {
        put_metric(out, metric);
        put_f64(out, value);
    }
}

/// A report as formats 4 and 5 wrote it: the compact head with bits 4–6
/// clear, varint ids, the score's eight bytes, the round, then the
/// observed and facet pairs under their head bits.
fn compact_v5_bytes(feedback: &Feedback) -> Vec<u8> {
    let (kind, subject) = match feedback.subject {
        SubjectId::Agent(a) => (0, a.raw()),
        SubjectId::Service(s) => (1, s.raw()),
        SubjectId::Provider(p) => (2, p.raw()),
    };
    let observed = !feedback.observed.is_empty();
    let facets = !feedback.facet_ratings.is_empty();
    let mut out = vec![0x80 | kind | u8::from(observed) << 2 | u8::from(facets) << 3];
    put_varint(&mut out, feedback.rater.raw());
    put_varint(&mut out, subject);
    put_f64(&mut out, feedback.score);
    put_varint(&mut out, feedback.at.round());
    if observed {
        put_pairs(&mut out, feedback.observed.iter().collect());
    }
    if facets {
        let ratings = feedback.facet_ratings.iter().map(|(&m, &r)| (m, r));
        put_pairs(&mut out, ratings.collect());
    }
    out
}

/// A listing per service, then `reports`: the history of every old log.
fn old_records(reports: &[Feedback]) -> impl Iterator<Item = JournalRecord> + '_ {
    let listings = (0..SERVICES).map(|service| {
        JournalRecord::Publish(Listing {
            service: ServiceId::new(service),
            provider: ProviderId::new(service),
            category: 0,
            advertised: QosVector::from_pairs([(Metric::Price, 1.0 + service as f64)]),
        })
    });
    listings.chain(reports.iter().cloned().map(JournalRecord::Feedback))
}

/// Write `root/group-000/wal-0.log` the way a build of format `version`
/// (3, 4 or 5) did: its header, then the [`old_records`] of `reports`, the
/// reports as tag-1 records (3) or compact ones (4 and 5), every record
/// in a frame of its own (3 and 4) or 40 records a frame (5).
fn write_old_log(root: &Path, version: u8, reports: &[Feedback]) -> PathBuf {
    let group = root.join(group_dir_name(0));
    fs::create_dir_all(&group).unwrap();
    let listings = old_records(&[]).map(|listing| listing.to_bytes());
    let reports = reports.iter().map(|feedback| {
        if version == 3 {
            let mut record = vec![1];
            put_feedback(&mut record, feedback);
            record
        } else {
            compact_v5_bytes(feedback)
        }
    });
    let records: Vec<Vec<u8>> = listings.chain(reports).collect();
    let mut bytes = segment_header_versioned(0, version).to_vec();
    for frame in records.chunks(if version == 5 { 40 } else { 1 }) {
        write_frame(&mut bytes, &frame.concat());
    }
    let path = group.join(segment_file_name(0));
    fs::write(&path, &bytes).unwrap();
    path
}

#[test]
fn a_format_3_journal_recovers_the_same_before_and_after_a_format_6_append() {
    recovers_the_same_before_and_after_an_append(3);
}

#[test]
fn a_format_4_journal_recovers_the_same_before_and_after_a_format_6_append() {
    recovers_the_same_before_and_after_an_append(4);
}

#[test]
fn a_format_5_journal_recovers_the_same_before_and_after_a_format_6_append() {
    recovers_the_same_before_and_after_an_append(5);
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

    // This build's first append: a report about a subject the old log
    // never mentions, so every old estimate must come back unchanged.
    let newcomer = Feedback::scored(AgentId::new(1), ServiceId::new(9), 0.9, Time::new(999));
    let appended = [JournalRecord::Feedback(newcomer.clone())];
    let after_append = Twin::replay(old_records(&reports).chain(appended));
    {
        let service = ReputationService::builder()
            .shards(4)
            .recover_from(&root)
            .build();
        let health = service.stats().journal.expect("journal attached");
        assert_eq!(health.records_recovered, history);
        twin_equal(&service, &Twin::replay(old_records(&reports))).unwrap();
        service.ingest(newcomer).unwrap();
        service.flush();
        twin_equal(&service, &after_append).unwrap();
    }

    assert_eq!(
        fs::read(&old_path).unwrap(),
        old_bytes,
        "the format-{version} segment is sealed as it lies"
    );
    let segments = list_segments(&root.join(group_dir_name(0))).unwrap();
    assert_eq!(segments.len(), 2, "the append opened a segment of its own");
    let appended = scan_segment_entries(&segments[1].1).unwrap().unwrap();
    assert_eq!(
        (appended.version, appended.start_lsn),
        (FORMAT_VERSION, history)
    );
    assert_eq!(appended.entries.len(), 1);

    let revived = ReputationService::builder()
        .shards(4)
        .recover_from(&root)
        .build();
    let health = revived.stats().journal.expect("journal attached");
    assert_eq!(health.records_recovered, history + 1);
    twin_equal(&revived, &after_append).unwrap();
    drop(revived);
    fs::remove_dir_all(&root).unwrap();
}
