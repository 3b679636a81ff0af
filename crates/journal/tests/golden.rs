//! Golden-file test pinning the on-disk layout.
//!
//! The journal must stay readable across releases, so the exact bytes of
//! the segment header and of framed records are part of the public
//! contract. If this test fails, the change broke compatibility with
//! every journal already on disk — either revert it, or bump
//! `FORMAT_VERSION` and add an upgrade path; **never** regenerate the
//! golden file to paper over an accidental layout change.
//!
//! Five formats are on disk somewhere. Version 1 (the first lines of
//! the file) is the version-3 format in which no frame states its LSN;
//! version 3 adds the header byte and the LSN-stating frame; version 2
//! (`LSN ‖ record` in every payload) was never golden and is assembled by
//! hand below. All three carry feedback as fixed-width tag-1 records.
//! Version 4 is version 3's frames over compact feedback records. Those
//! four hold one record a frame and are read, never written, so their
//! lines stay pinned as *readable*. Version 5, the one written, frames a
//! whole commit: the same records back to back behind one header (the
//! last lines of the file). Each is read back through recovery and a ship
//! cursor.
//!
//! The file is append-only: a format bump adds lines and edits none
//! (`HISTORY` holds the earlier ones against an inline copy).
//! (Deliberate, version-bumped regeneration:
//! `WSREP_UPDATE_GOLDEN=1 cargo test -p wsrep-journal --test golden`.)

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId};
use wsrep_core::time::Time;
use wsrep_journal::codec::{put_feedback, Cursor};
use wsrep_journal::frame::write_frame;
use wsrep_journal::segment::{
    group_dir_name, list_segments, scan_segment_entries, segment_file_name, segment_header,
    segment_header_versioned, FORMAT_VERSION, LSN_MARKER,
};
use wsrep_journal::{recover, Journal, JournalConfig, JournalRecord, ShipCursor};
use wsrep_qos::metric::Metric;
use wsrep_qos::value::QosVector;
use wsrep_sim::registry::Listing;

/// Start LSN of the golden headers.
const START: u64 = 0x1122334455667788;
/// The LSN the golden LSN-stating frame states.
const STATED: u64 = START + 8;

fn golden_records() -> Vec<JournalRecord> {
    vec![
        // A feedback report exercising every field: rater, service
        // subject, score, time, observed QoS, facet rating.
        JournalRecord::Feedback(
            Feedback::scored(
                AgentId::new(0x0102030405060708),
                ServiceId::new(42),
                0.75,
                Time::new(1000),
            )
            .with_observed(QosVector::from_pairs([
                (Metric::ResponseTime, 250.0),
                (Metric::AppSpecific(7), 3.5),
            ]))
            .with_facet(Metric::Accuracy, 0.5),
        ),
        // A provider-subject feedback (distinct subject tag).
        JournalRecord::Feedback(Feedback::scored(
            AgentId::new(1),
            ProviderId::new(2),
            1.0,
            Time::ZERO,
        )),
        JournalRecord::Publish(Listing {
            service: ServiceId::new(7),
            provider: ProviderId::new(3),
            category: 0xDEAD,
            advertised: QosVector::from_pairs([
                (Metric::Price, 9.99),
                (Metric::Availability, 0.999),
            ]),
        }),
        JournalRecord::Deregister(ServiceId::new(7)),
    ]
}

/// The two golden commits of format 5: a compact report, a listing and a
/// withdrawal in one frame at the LSN the log has reached, then two
/// records in a frame that states [`STATED`].
fn golden_commits() -> (Vec<JournalRecord>, Vec<JournalRecord>) {
    let records = golden_records();
    (
        records[1..].to_vec(),
        vec![records[0].clone(), records[3].clone()],
    )
}

/// A record as builds up to format 3 wrote it: feedback is tag 1 and the
/// fixed-width body, which this build reads and no longer writes.
fn v1_bytes(record: &JournalRecord) -> Vec<u8> {
    match record.as_feedback() {
        Some(feedback) => {
            let mut out = vec![1];
            put_feedback(&mut out, feedback);
            out
        }
        None => record.to_bytes(),
    }
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, payload);
    out
}

/// The golden file as format 4 left it. `WSREP_UPDATE_GOLDEN=1` rewrites
/// the whole file, so these lines are also held here: a regeneration that
/// edits history fails `the_golden_file_is_append_only`.
const HISTORY: &str = "\
# wsrep-journal on-disk format v1 — golden bytes, do not edit
segment_header 5753524a018877665544332211
record_0 4600000076d589a4010807060504030201012a00000000000000000000000000e83fe80300000000000002000000020000000000406f4016070000000000000c400100000006000000000000e03f
record_1 2a000000dcfa1260010100000000000000020200000000000000000000000000f03f00000000000000000000000000000000
record_2 2b0000008d9c885c0207000000000000000300000000000000adde000002000000042b8716d9cef7ef3f157b14ae47e1fa2340
record_3 09000000722141d5030700000000000000
# format v3: the records above, and a frame may state its LSN
segment_header_v3 5753524a038877665544332211
lsn_frame_2 34000000c7bfa6900090776655443322110207000000000000000300000000000000adde000002000000042b8716d9cef7ef3f157b14ae47e1fa2340
# format v4: v3's frames; a feedback record is compact
segment_header_v4 5753524a048877665544332211
feedback_compact_0 330000008806c30d8d888e98a8c0e08081012a000000000000e83fe80702020000000000406f4016070000000000000c400106000000000000e03f
feedback_compact_1 0c000000016148df820102000000000000f03f00
";

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        write!(out, "{b:02x}").unwrap();
    }
    out
}

fn render() -> String {
    let records = golden_records();
    let mut out = String::new();
    out.push_str("# wsrep-journal on-disk format v1 — golden bytes, do not edit\n");
    out.push_str(&format!(
        "segment_header {}\n",
        hex(&segment_header_versioned(START, 1))
    ));
    for (i, record) in records.iter().enumerate() {
        out.push_str(&format!("record_{i} {}\n", hex(&framed(&v1_bytes(record)))));
    }
    out.push_str("# format v3: the records above, and a frame may state its LSN\n");
    out.push_str(&format!(
        "segment_header_v3 {}\n",
        hex(&segment_header_versioned(START, 3))
    ));
    let mut payload = vec![LSN_MARKER];
    payload.extend_from_slice(&STATED.to_le_bytes());
    payload.extend_from_slice(&records[2].to_bytes());
    out.push_str(&format!("lsn_frame_2 {}\n", hex(&framed(&payload))));
    out.push_str("# format v4: v3's frames; a feedback record is compact\n");
    out.push_str(&format!(
        "segment_header_v4 {}\n",
        hex(&segment_header_versioned(START, 4))
    ));
    for (i, record) in records[..2].iter().enumerate() {
        let line = hex(&framed(&record.to_bytes()));
        out.push_str(&format!("feedback_compact_{i} {line}\n"));
    }
    out.push_str("# format v5: v4's records; a frame is one commit, and may state its LSN\n");
    out.push_str(&format!(
        "segment_header_v5 {}\n",
        hex(&segment_header(START))
    ));
    let (commit, stated) = golden_commits();
    let payload: Vec<u8> = commit.iter().flat_map(JournalRecord::to_bytes).collect();
    out.push_str(&format!("commit_3 {}\n", hex(&framed(&payload))));
    let mut payload = vec![LSN_MARKER];
    payload.extend_from_slice(&STATED.to_le_bytes());
    payload.extend(stated.iter().flat_map(JournalRecord::to_bytes));
    out.push_str(&format!("lsn_commit_2 {}\n", hex(&framed(&payload))));
    out
}

/// The golden file's lines, name → bytes.
fn golden_bytes() -> BTreeMap<&'static str, Vec<u8>> {
    include_str!("data/record_v1.hex")
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let (name, hex_bytes) = line.split_once(' ').expect("name and hex column");
            let bytes = (0..hex_bytes.len())
                .step_by(2)
                .map(|j| u8::from_str_radix(&hex_bytes[j..j + 2], 16).unwrap())
                .collect();
            (name, bytes)
        })
        .collect()
}

#[test]
fn on_disk_record_format_is_pinned() {
    let rendered = render();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/record_v1.hex");
    if std::env::var_os("WSREP_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).expect("write golden file");
        return;
    }
    let expected = include_str!("data/record_v1.hex");
    assert_eq!(
        rendered, expected,
        "on-disk layout drifted from the golden bytes; \
         this breaks every journal already on disk"
    );
}

#[test]
fn the_golden_file_is_append_only() {
    assert!(
        include_str!("data/record_v1.hex").starts_with(HISTORY),
        "a golden line an earlier format pinned was edited or dropped"
    );
}

#[test]
fn golden_bytes_still_decode_to_the_same_records() {
    // The reverse direction: the pinned hex must decode to the same
    // logical records, so old journals stay readable.
    let golden = golden_bytes();
    let records = golden_records();
    let compact = (0..2).map(|i| (format!("feedback_compact_{i}"), &records[i]));
    let fixed = (0..4).map(|i| (format!("record_{i}"), &records[i]));
    for (line, expected) in fixed.chain(compact) {
        // Skip the 8-byte frame header (len + crc) to reach the payload.
        let record =
            JournalRecord::decode(&golden[line.as_str()][8..]).expect("golden payload decodes");
        assert_eq!(record, *expected, "{line}");
    }
    // A commit's frame: records back to back to the payload's last byte.
    let (commit, stated) = golden_commits();
    for (line, skip, expected) in [("commit_3", 8, commit), ("lsn_commit_2", 8 + 9, stated)] {
        let mut cur = Cursor::new(&golden[line][skip..]);
        for record in expected {
            assert_eq!(JournalRecord::decode_from(&mut cur).unwrap(), record);
        }
        assert_eq!(cur.remaining(), 0, "{line}");
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("wsrep-journal-golden-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// `root` must read back as exactly `expected`, through recovery and
/// through a ship cursor opened at the first LSN.
fn assert_reads_back(root: &Path, expected: &[(u64, JournalRecord)]) {
    let recovered = recover(root).unwrap();
    let feedback: Vec<JournalRecord> = recovered
        .feedback
        .iter()
        .cloned()
        .map(JournalRecord::Feedback)
        .collect();
    let expected_feedback: Vec<JournalRecord> = expected
        .iter()
        .map(|(_, record)| record.clone())
        .filter(|record| matches!(record, JournalRecord::Feedback(_)))
        .collect();
    assert_eq!(feedback, expected_feedback);
    assert_eq!(recovered.records_recovered, expected.len() as u64);
    assert_eq!(recovered.next_lsn, expected.last().unwrap().0 + 1);
    assert!(!recovered.torn_tail);

    let mut cursor = ShipCursor::open(root, expected[0].0).unwrap();
    let mut shipped = Vec::new();
    loop {
        let batch = cursor.next_batch(16).unwrap();
        if batch.records.is_empty() {
            break;
        }
        let lsns = batch.first_lsn..;
        shipped.extend(lsns.zip(batch.records));
    }
    assert_eq!(shipped, expected);
}

/// A journal root whose group 0 holds one segment at [`START`]: the named
/// golden lines end to end. Returns the root and the segment's path.
fn golden_log(tag: &str, lines: &[&str]) -> (PathBuf, PathBuf) {
    let golden = golden_bytes();
    let root = temp_dir(tag);
    let group = root.join(group_dir_name(0));
    fs::create_dir_all(&group).unwrap();
    let bytes: Vec<u8> = lines.iter().flat_map(|line| golden[line].clone()).collect();
    let path = group.join(segment_file_name(START));
    fs::write(&path, bytes).unwrap();
    (root, path)
}

/// Formats 3 and 4 as their writers left the golden records: a header,
/// the two reports (fixed-width, then compact), the listing in a frame
/// that states its LSN, the withdrawal continuing from it.
const ONE_RECORD_FORMATS: [[&str; 5]; 2] = [
    [
        "segment_header_v3",
        "record_0",
        "record_1",
        "lsn_frame_2",
        "record_3",
    ],
    [
        "segment_header_v4",
        "feedback_compact_0",
        "feedback_compact_1",
        "lsn_frame_2",
        "record_3",
    ],
];

#[test]
fn every_format_on_disk_reads_back_through_recovery_and_the_cursor() {
    let golden = golden_bytes();
    let records = golden_records();
    let frames: Vec<&[u8]> = (0..4)
        .map(|i| golden[format!("record_{i}").as_str()].as_slice())
        .collect();

    // Version 1, where it lived: one log in the journal root.
    let root = temp_dir("v1");
    fs::create_dir_all(&root).unwrap();
    let bytes = [&golden["segment_header"][..], &frames.concat()].concat();
    fs::write(root.join(segment_file_name(START)), bytes).unwrap();
    let expected: Vec<_> = (START..).zip(records.clone()).collect();
    assert_reads_back(&root, &expected);
    fs::remove_dir_all(&root).unwrap();

    // Versions 3 and 4: the third record's frame states its LSN, the
    // fourth continues from it.
    let lsns = [START, START + 1, STATED, STATED + 1];
    let expected: Vec<_> = lsns.into_iter().zip(records.clone()).collect();
    for lines in ONE_RECORD_FORMATS {
        let (root, _) = golden_log(lines[0], &lines);
        assert_reads_back(&root, &expected);
        fs::remove_dir_all(&root).unwrap();
    }

    // Version 5: a commit of three, then a commit of two that states its
    // LSN.
    let (root, _) = golden_log("v5", &["segment_header_v5", "commit_3", "lsn_commit_2"]);
    let (commit, stated) = golden_commits();
    let lsns = (START..START + 3).chain(STATED..);
    let expected: Vec<_> = lsns.zip(commit.into_iter().chain(stated)).collect();
    assert_eq!(expected.len(), 5);
    assert_reads_back(&root, &expected);
    fs::remove_dir_all(&root).unwrap();

    // Version 2, assembled by hand: every payload is `LSN ‖ record`.
    let root = temp_dir("v2");
    let group = root.join(group_dir_name(0));
    fs::create_dir_all(&group).unwrap();
    let lsns = [START, START + 3, START + 4, START + 9];
    let mut bytes = segment_header_versioned(START, 2).to_vec();
    for (lsn, record) in lsns.iter().zip(&records) {
        let mut payload = lsn.to_le_bytes().to_vec();
        payload.extend_from_slice(&v1_bytes(record));
        write_frame(&mut bytes, &payload);
    }
    let path = group.join(segment_file_name(START));
    fs::write(&path, &bytes).unwrap();
    let mut expected: Vec<_> = lsns.into_iter().zip(records.clone()).collect();
    assert_reads_back(&root, &expected);

    // A writer never extends it: the first append seals it untouched and
    // opens a segment in the format written today.
    let mut journal = Journal::open(&group, JournalConfig::default()).unwrap();
    assert_eq!(journal.next_lsn(), START + 10);
    journal.append_batch(&records[..1]).unwrap();
    drop(journal);
    assert_eq!(fs::read(&path).unwrap(), bytes);
    let segments = list_segments(&group).unwrap();
    assert_eq!(segments.len(), 2);
    let scan = scan_segment_entries(&segments[1].1).unwrap().unwrap();
    assert_eq!((scan.start_lsn, scan.version), (START + 10, FORMAT_VERSION));
    expected.push((START + 10, records[0].clone()));
    assert_reads_back(&root, &expected);
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn the_writer_produces_the_golden_bytes() {
    let golden = golden_bytes();
    let (commit, stated) = golden_commits();
    let dir = temp_dir("writer");
    let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
    journal.append_batch(&commit).unwrap();
    journal.append_batch_at(STATED, &stated).unwrap();
    drop(journal);
    // The golden header with the writer's start LSN, 0, in place of START.
    let mut header = golden["segment_header_v5"].clone();
    header[5..].fill(0);
    let expected = [
        &header[..],
        &golden["commit_3"][..],
        &golden["lsn_commit_2"][..],
    ]
    .concat();
    assert_eq!(fs::read(dir.join(segment_file_name(0))).unwrap(), expected);
    fs::remove_dir_all(&dir).unwrap();
}

/// The upgrade: a log an earlier build left in format 3 (fixed-width
/// feedback) or format 4 (compact, a frame a record) is sealed as it
/// lies; what this build appends lands as one commit frame in a format-5
/// segment beside it, and the two read as one log.
#[test]
fn an_earlier_formats_log_is_sealed_and_continued_in_format_5() {
    let golden = golden_bytes();
    let records = golden_records();
    let (commit, _) = golden_commits();
    for lines in ONE_RECORD_FORMATS {
        let header = lines[0];
        let (root, old_path) = golden_log(&format!("upgrade-{header}"), &lines);
        let group = root.join(group_dir_name(0));
        let old = fs::read(&old_path).unwrap();

        let mut journal = Journal::open(&group, JournalConfig::default()).unwrap();
        assert_eq!(journal.next_lsn(), STATED + 2);
        journal.append_batch(&commit).unwrap();
        drop(journal);

        assert_eq!(
            fs::read(&old_path).unwrap(),
            old,
            "{header} is never rewritten"
        );
        let segments = list_segments(&group).unwrap();
        assert_eq!(segments.len(), 2);
        let new = [&segment_header(STATED + 2)[..], &golden["commit_3"][..]].concat();
        assert_eq!(fs::read(&segments[1].1).unwrap(), new);
        let scan = scan_segment_entries(&segments[1].1).unwrap().unwrap();
        assert_eq!(scan.version, 5);

        let lsns = [START, START + 1, STATED, STATED + 1].into_iter();
        let all = records.iter().chain(&commit).cloned();
        let expected: Vec<_> = lsns.chain(STATED + 2..).zip(all).collect();
        assert_eq!(expected.len(), 7);
        assert_reads_back(&root, &expected);
        fs::remove_dir_all(&root).unwrap();
    }
}

/// A log whose active segment an earlier build wrote: still empty, its
/// successor would take its name, so the header is rewritten where it
/// lies; holding records (the version-2 case is above), it is kept byte
/// for byte and the first append opens a segment.
#[test]
fn an_earlier_formats_active_segment_is_re_headed_or_sealed() {
    let record = &golden_records()[3];
    for version in 1..FORMAT_VERSION {
        let dir = temp_dir(&format!("stale-empty-v{version}"));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(segment_file_name(5));
        fs::write(&path, segment_header_versioned(5, version)).unwrap();
        let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert_eq!(journal.next_lsn(), 5);
        journal.append_batch(std::slice::from_ref(record)).unwrap();
        assert_eq!(journal.stats().segments, 1);
        let scan = scan_segment_entries(&path).unwrap().unwrap();
        assert_eq!(scan.version, FORMAT_VERSION);
        assert_eq!(scan.entries, vec![(5, record.clone())]);
        fs::remove_dir_all(&dir).unwrap();
    }

    let dir = temp_dir("stale-v1");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(segment_file_name(0));
    let mut bytes = segment_header_versioned(0, 1).to_vec();
    write_frame(&mut bytes, &record.to_bytes());
    fs::write(&path, &bytes).unwrap();
    let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
    journal.append_batch(std::slice::from_ref(record)).unwrap();
    assert_eq!(journal.active_segment_start(), 1);
    assert_eq!(fs::read(&path).unwrap(), bytes);
    drop(journal);
    assert_reads_back(&dir, &[(0, record.clone()), (1, record.clone())]);
    fs::remove_dir_all(&dir).unwrap();
}
