//! Recovery is one streaming pass: each log read a whole frame at a time,
//! the logs merged lazily by LSN, every record handed on as it decodes
//! (`replay_prefix`). This holds `recover_prefix` field for field to the
//! algorithm it replaced, kept here whole as the reference twin: scan
//! every segment of every log into one list, `sort_by_key`, replay.
//!
//! The random logs cover one to three writer groups; a group count grown
//! across a reopen, so one subject's reports are split across two logs; a
//! sealed flat root; an optional snapshot (compacted or not) at a random
//! LSN; arbitrary prefixes `upto`; and each log either left whole, cut at
//! an arbitrary byte of one of its segments, or given a frame whose
//! checksum holds and whose payload does not decode.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId};
use wsrep_core::time::Time;
use wsrep_journal::frame::{split_frame, write_frame, FrameSplit, FRAME_HEADER_LEN};
use wsrep_journal::record::put_payload;
use wsrep_journal::segment::{list_segments, LsnWalk, LSN_MARKER, SEGMENT_HEADER_LEN};
use wsrep_journal::{
    compact_dir, latest_snapshot, list_group_dirs, recover_prefix, write_snapshot, GroupSet,
    Journal, JournalConfig, JournalRecord, Recovered,
};
use wsrep_qos::metric::Metric;
use wsrep_qos::value::QosVector;
use wsrep_sim::registry::Listing;

/// A record of any of the three kinds, most of them reports about a
/// handful of subjects.
fn record() -> impl Strategy<Value = JournalRecord> {
    (0u8..8, 0u64..500, 0u64..6, 0u32..=100).prop_map(|(kind, rater, service, score)| match kind {
        0 => JournalRecord::Publish(Listing {
            service: ServiceId::new(service),
            provider: ProviderId::new(rater % 7),
            category: score % 3,
            advertised: QosVector::from_pairs([(Metric::Price, 1.0 + rater as f64)]),
        }),
        1 => JournalRecord::Deregister(ServiceId::new(service)),
        _ => JournalRecord::Feedback(Feedback::scored(
            AgentId::new(rater),
            ServiceId::new(service),
            f64::from(score) / 100.0,
            Time::new(rater),
        )),
    })
}

/// Commits as `(group selector, records)`.
fn commits(
    size: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<(usize, Vec<JournalRecord>)>> {
    collection::vec((0usize..5, collection::vec(record(), 1..=20)), size)
}

/// The records of a segment's whole frames, and whether damage ended it.
type Scan = (Vec<(u64, JournalRecord)>, bool);

/// The parent's segment scan; `None` for a missing header.
fn scan_whole(path: &Path) -> io::Result<Option<Scan>> {
    let bytes = fs::read(path)?;
    let Some(mut walk) = LsnWalk::from_header(&bytes, path)? else {
        return Ok(None);
    };
    let mut at = SEGMENT_HEADER_LEN;
    let mut entries = Vec::new();
    while let FrameSplit::Frame { frame_len } = split_frame(&bytes[at..]) {
        let payload = &bytes[at + FRAME_HEADER_LEN..at + frame_len];
        let whole_frames = entries.len();
        if walk
            .step(payload, |lsn, record| entries.push((lsn, record)))
            .is_err()
        {
            entries.truncate(whole_frames);
            return Ok(Some((entries, true)));
        }
        at += frame_len;
    }
    Ok(Some((entries, at != bytes.len())))
}

/// The parent's `recover_prefix`: every log scanned whole and stopped at
/// its first damage, the survivors concatenated, sorted by LSN (stably:
/// the root's first, then each group's in order) and replayed.
fn collect_sort_replay(dir: &Path, upto: u64) -> io::Result<Recovered> {
    let mut recovered = Recovered::default();
    if !dir.exists() {
        return Ok(recovered);
    }
    let mut listings = BTreeMap::new();
    let mut covered_lsn = 0;
    if let Some(snapshot) = latest_snapshot(dir)? {
        if snapshot.lsn > upto {
            return Err(io::ErrorKind::InvalidInput.into());
        }
        covered_lsn = snapshot.lsn;
        recovered.snapshot_lsn = Some(snapshot.lsn);
        recovered.records_recovered += snapshot.entries();
        recovered.next_lsn = snapshot.lsn;
        for listing in snapshot.listings {
            listings.insert(listing.service, listing);
        }
        recovered.feedback = snapshot.feedback;
    }
    let mut logs = vec![dir.to_path_buf()];
    logs.extend(list_group_dirs(dir)?.into_iter().map(|(_, path)| path));
    let mut entries = Vec::new();
    for log in logs {
        for (start, path) in list_segments(&log)? {
            if start >= upto {
                continue;
            }
            let Some((records, torn)) = scan_whole(&path)? else {
                recovered.torn_tail = true;
                break;
            };
            let kept = records.into_iter();
            entries.extend(kept.filter(|(lsn, _)| (covered_lsn..upto).contains(lsn)));
            if torn {
                recovered.torn_tail = true;
                break;
            }
        }
    }
    entries.sort_by_key(|(lsn, _)| *lsn);
    let mut frontier = covered_lsn;
    for (lsn, record) in entries {
        if lsn == frontier {
            frontier = lsn + 1;
        }
        match record {
            JournalRecord::Feedback(report) => recovered.feedback.push(report),
            JournalRecord::Publish(listing) => {
                listings.insert(listing.service, listing);
            }
            JournalRecord::Deregister(service) => {
                listings.remove(&service);
            }
        }
        recovered.records_recovered += 1;
        recovered.next_lsn = lsn + 1;
    }
    recovered.durable_lsn = frontier;
    recovered.listings = listings.into_values().collect();
    Ok(recovered)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("wsrep-journal-replay-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Write a journal: a flat root log (when `flat` holds commits), then
/// `groups` writer groups, then the same root reopened `grown` groups
/// wider. Returns one past the last LSN written.
fn write_journal(
    root: &Path,
    config: JournalConfig,
    flat: &[(usize, Vec<JournalRecord>)],
    groups: usize,
    first: &[(usize, Vec<JournalRecord>)],
    grown: usize,
    second: &[(usize, Vec<JournalRecord>)],
) -> u64 {
    if !flat.is_empty() {
        let mut journal = Journal::open(root, config).unwrap();
        for (_, records) in flat {
            journal.append_batch(records).unwrap();
        }
    }
    let mut end = 0;
    for (groups, commits) in [(groups, first), (groups + grown, second)] {
        let set = GroupSet::open(root, groups, config, 0).unwrap();
        for (group, records) in commits {
            set.append_batch(group % groups, records).unwrap();
        }
        end = set.allocator().next_lsn();
    }
    end
}

/// Damage one log as `mode` says: 0 leaves it whole, 1 cuts one of its
/// segments at byte `at`, 2 replaces one of its frames with a frame that
/// checks and holds the first `good` of that frame's records, then a byte
/// no record opens with.
fn damage(log: &Path, (mode, segment, at, good): (u8, usize, usize, usize)) {
    let segments = list_segments(log).unwrap();
    if mode == 0 || segments.is_empty() {
        return;
    }
    let path = &segments[segment % segments.len()].1;
    let bytes = fs::read(path).unwrap();
    if mode == 1 {
        fs::write(path, &bytes[..at % (bytes.len() + 1)]).unwrap();
        return;
    }
    let mut frames = Vec::new();
    let mut pos = SEGMENT_HEADER_LEN;
    while let FrameSplit::Frame { frame_len } = split_frame(&bytes[pos..]) {
        frames.push(pos..pos + frame_len);
        pos += frame_len;
    }
    if frames.is_empty() {
        return;
    }
    let hit = at % frames.len();
    let mut walk = LsnWalk::from_header(&bytes, path).unwrap().unwrap();
    let mut records = Vec::new();
    for frame in &frames[..=hit] {
        records.clear();
        let payload = &bytes[frame.start + FRAME_HEADER_LEN..frame.end];
        walk.step(payload, |_, record| records.push(record))
            .unwrap();
    }
    let frame = frames[hit].clone();
    let original = &bytes[frame.start + FRAME_HEADER_LEN..frame.end];
    let mut payload = Vec::new();
    if original[0] == LSN_MARKER {
        payload.extend_from_slice(&original[..9]);
    }
    let kept = &records[..good % (records.len() + 1)];
    put_payload(&mut payload, &mut kept.iter(), usize::MAX);
    payload.push(0x7F);
    let mut damaged = bytes[..frame.start].to_vec();
    write_frame(&mut damaged, &payload);
    damaged.extend_from_slice(&bytes[frame.end..]);
    fs::write(path, &damaged).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The streaming replay recovers exactly what the collect → sort →
    /// replay twin does, whatever the layout, the damage and the prefix.
    #[test]
    fn streaming_replay_equals_collect_sort_replay(
        flat in commits(0..4),
        groups in 1usize..=3,
        first in commits(1..8),
        grown in 0usize..=2,
        second in commits(0..8),
        rotating in 0usize..2,
        snapshot in (0u8..3, 0u64..1 << 20),
        damages in collection::vec((0u8..3, 0usize..8, 0usize..1 << 20, 0usize..21), 6),
        uptos in collection::vec(0u64..1 << 20, 3),
    ) {
        let root = temp_dir("prop");
        let config = JournalConfig {
            max_segment_bytes: if rotating == 1 { 400 } else { 8 << 20 },
        };
        let end = write_journal(&root, config, &flat, groups, &first, grown, &second);

        let (snapshot_mode, at) = snapshot;
        if snapshot_mode > 0 {
            let lsn = at % (end + 1);
            let state = collect_sort_replay(&root, lsn).unwrap();
            write_snapshot(&root, lsn, &state.listings, &state.feedback).unwrap();
            if snapshot_mode == 2 {
                compact_dir(&root, lsn).unwrap();
                for (_, group_dir) in list_group_dirs(&root).unwrap() {
                    compact_dir(&group_dir, lsn).unwrap();
                }
            }
        }

        let mut logs = vec![root.clone()];
        logs.extend(list_group_dirs(&root).unwrap().into_iter().map(|(_, path)| path));
        for (log, how) in logs.iter().zip(damages) {
            damage(log, how);
        }

        let prefixes = uptos.iter().map(|upto| upto % (end + 2)).chain([u64::MAX]);
        for upto in prefixes {
            match (recover_prefix(&root, upto), collect_sort_replay(&root, upto)) {
                (Ok(got), Ok(twin)) => {
                    prop_assert_eq!(&got.listings, &twin.listings, "listings, upto {}", upto);
                    prop_assert_eq!(&got.feedback, &twin.feedback, "feedback, upto {}", upto);
                    prop_assert_eq!(got.records_recovered, twin.records_recovered, "records, upto {}", upto);
                    prop_assert_eq!(got.next_lsn, twin.next_lsn, "next_lsn, upto {}", upto);
                    prop_assert_eq!(got.durable_lsn, twin.durable_lsn, "durable_lsn, upto {}", upto);
                    prop_assert_eq!(got.torn_tail, twin.torn_tail, "torn_tail, upto {}", upto);
                    prop_assert_eq!(got.snapshot_lsn, twin.snapshot_lsn, "snapshot_lsn, upto {}", upto);
                }
                (Err(got), Err(twin)) => prop_assert_eq!(got.kind(), twin.kind(), "upto {}", upto),
                (got, twin) => prop_assert!(
                    false,
                    "upto {}: replay {:?}, twin {:?}",
                    upto,
                    got.map(|r| r.records_recovered),
                    twin.map(|r| r.records_recovered)
                ),
            }
        }
        fs::remove_dir_all(&root).unwrap();
    }
}
