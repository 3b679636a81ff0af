//! Properties of segment format 5, where a frame is a whole commit.
//!
//! A commit of many records shares one header and one checksum, so the
//! frame is the unit of everything that can go wrong with it: a torn
//! append leaves none of the commit, damage costs the commit it hit and
//! what lies behind it, and a reader positioned inside one reaches its
//! place by dropping records, not by seeking. Each property below builds
//! a log of commits of 1–40 mixed records over one or two writer groups
//! and holds what the readers return against a sequential twin: the same
//! records applied in LSN order to a listing table and a report list.
//!
//! (d) is the frame walker's corpus of ROADMAP item 2's "every total
//! decoder fuzzed": arbitrary and nearly-valid payloads under every
//! format version.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId};
use wsrep_core::time::Time;
use wsrep_journal::frame::{split_frame, write_frame, FrameSplit, FRAME_HEADER_LEN};
use wsrep_journal::segment::{
    group_dir_name, list_segments, segment_header_versioned, LsnWalk, FORMAT_VERSION, LSN_MARKER,
    SEGMENT_HEADER_LEN,
};
use wsrep_journal::{recover, GroupSet, JournalConfig, JournalRecord, Recovered, ShipCursor};
use wsrep_qos::metric::Metric;
use wsrep_qos::value::QosVector;
use wsrep_sim::registry::Listing;

/// A record of any of the three kinds; reports are most of a log, and
/// one in four carries the optional fields.
fn record() -> impl Strategy<Value = JournalRecord> {
    (0u8..8, 0u64..3_000, 0u64..12, 0u32..=100, 0u64..300).prop_map(
        |(kind, rater, service, score, at)| match kind {
            0 => JournalRecord::Publish(Listing {
                service: ServiceId::new(service),
                provider: ProviderId::new(rater % 7),
                category: score % 5,
                advertised: QosVector::from_pairs([(Metric::Price, 1.0 + at as f64)]),
            }),
            1 => JournalRecord::Deregister(ServiceId::new(service)),
            _ => {
                let plain = Feedback::scored(
                    AgentId::new(rater),
                    ServiceId::new(service),
                    f64::from(score) / 100.0,
                    Time::new(at),
                );
                JournalRecord::Feedback(if kind < 4 {
                    plain
                        .with_observed(QosVector::from_pairs([(Metric::ResponseTime, at as f64)]))
                        .with_facet(Metric::Accuracy, 0.25)
                } else {
                    plain
                })
            }
        },
    )
}

/// Commits as `(group selector, records)`.
fn commits(max: usize) -> impl Strategy<Value = Vec<(usize, Vec<JournalRecord>)>> {
    collection::vec((0usize..2, collection::vec(record(), 1..=40)), 1..=max)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wsrep-journal-commits-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A log written commit by commit, and what was written where.
struct Log {
    root: PathBuf,
    groups: usize,
    /// Every commit in LSN order: its group, its first LSN, its records.
    commits: Vec<(usize, u64, Vec<JournalRecord>)>,
}

impl Log {
    fn write(
        tag: &str,
        groups: usize,
        max_segment_bytes: u64,
        commits: Vec<(usize, Vec<JournalRecord>)>,
    ) -> Log {
        let root = temp_dir(tag);
        let config = JournalConfig { max_segment_bytes };
        let set = GroupSet::open(&root, groups, config, 0).unwrap();
        let commits = commits
            .into_iter()
            .map(|(group, records)| {
                let group = group % groups;
                let receipt = set.append_batch(group, &records).unwrap();
                (group, receipt.first_lsn, records)
            })
            .collect();
        Log {
            root,
            groups,
            commits,
        }
    }

    fn group_dir(&self, group: usize) -> PathBuf {
        self.root.join(group_dir_name(group))
    }

    /// The records of the commits `keep` accepts, each with its LSN.
    fn entries(&self, keep: impl Fn(usize, usize) -> bool) -> Vec<(u64, JournalRecord)> {
        let mut nth_of_group = vec![0; self.groups];
        let mut out = Vec::new();
        for (group, first_lsn, records) in &self.commits {
            if keep(*group, nth_of_group[*group]) {
                out.extend((*first_lsn..).zip(records.iter().cloned()));
            }
            nth_of_group[*group] += 1;
        }
        out
    }

    fn all(&self) -> Vec<(u64, JournalRecord)> {
        self.entries(|_, _| true)
    }
}

/// The sequential twin: `entries` applied in order.
fn twin(entries: &[(u64, JournalRecord)]) -> (Vec<Listing>, Vec<Feedback>) {
    let mut listings = BTreeMap::new();
    let mut feedback = Vec::new();
    for (_, record) in entries {
        match record {
            JournalRecord::Feedback(report) => feedback.push(report.clone()),
            JournalRecord::Publish(listing) => {
                listings.insert(listing.service, listing.clone());
            }
            JournalRecord::Deregister(service) => {
                listings.remove(service);
            }
        }
    }
    (listings.into_values().collect(), feedback)
}

fn assert_is_twin_of(recovered: &Recovered, entries: &[(u64, JournalRecord)]) {
    let (listings, feedback) = twin(entries);
    assert_eq!(recovered.records_recovered, entries.len() as u64);
    assert_eq!(recovered.feedback, feedback);
    assert_eq!(recovered.listings, listings);
    assert_eq!(
        recovered.next_lsn,
        entries.last().map_or(0, |(lsn, _)| lsn + 1)
    );
}

/// File offsets at which the frames of a segment end, header first.
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = vec![SEGMENT_HEADER_LEN];
    let mut at = SEGMENT_HEADER_LEN;
    while let FrameSplit::Frame { frame_len } = split_frame(&bytes[at..]) {
        at += frame_len;
        ends.push(at);
    }
    assert_eq!(at, bytes.len(), "a healthy segment is whole frames");
    ends
}

/// Everything a cursor opened at `from` ships, in batches of `step`.
fn shipped_from(root: &Path, from: u64, step: usize) -> Vec<(u64, JournalRecord)> {
    let mut cursor = ShipCursor::open(root, from).unwrap();
    let mut out = Vec::new();
    loop {
        let batch = cursor.next_batch(step).unwrap();
        if batch.records.is_empty() {
            return out;
        }
        assert!(batch.records.len() <= step);
        out.extend((batch.first_lsn..).zip(batch.records));
    }
}

/// How many of `group`'s commits lie whole before byte `at` of the
/// `nth` segment of its log: a commit is a frame, in file order.
fn commits_before(log: &Log, group: usize, nth: usize, at: usize) -> usize {
    let segments = list_segments(&log.group_dir(group)).unwrap();
    let ends = |path: &PathBuf| frame_ends(&fs::read(path).unwrap());
    let earlier: usize = segments[..nth]
        .iter()
        .map(|(_, path)| ends(path).len() - 1)
        .sum();
    let here = ends(&segments[nth].1)
        .iter()
        .filter(|end| **end <= at)
        .count();
    earlier + here.saturating_sub(1)
}

/// (a) for one log and one cut: truncate `group`'s last segment to `cut`
/// bytes, and recovery holds exactly the commits of that group that lie
/// whole before the cut, beside every commit of the other group.
fn check_cut(log: &Log, group: usize, cut: usize) {
    let segments = list_segments(&log.group_dir(group)).unwrap();
    let (_, last) = segments.last().unwrap();
    let whole = commits_before(log, group, segments.len() - 1, cut);
    let bytes = fs::read(last).unwrap();
    let ends = frame_ends(&bytes);

    fs::write(last, &bytes[..cut]).unwrap();
    let recovered = recover(&log.root).unwrap();
    let survivors = log.entries(|g, nth| g != group || nth < whole);
    assert_is_twin_of(&recovered, &survivors);
    assert_eq!(recovered.torn_tail, !ends.contains(&cut), "cut at {cut}");
    fs::write(last, &bytes).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) A log cut anywhere in a last segment recovers to a commit
    /// boundary of that group, and a writer reopened on it carries on
    /// from there.
    #[test]
    fn a_cut_anywhere_recovers_whole_commits_only(
        groups in 1usize..=2,
        rotating in 0usize..2,
        commits in commits(12),
        cuts in collection::vec((0usize..2, 0usize..1 << 20), 6),
    ) {
        let max_segment_bytes = if rotating == 1 { 700 } else { 8 << 20 };
        let log = Log::write("cut", groups, max_segment_bytes, commits);
        for (group, at) in cuts {
            let group = group % groups;
            let (_, last) = list_segments(&log.group_dir(group)).unwrap().pop().unwrap();
            let len = fs::metadata(&last).unwrap().len() as usize;
            check_cut(&log, group, at % (len + 1));
        }

        // The writer's side of the same rule: reopened on a torn log, it
        // truncates to the commit boundary and appends behind it.
        let (_, last) = list_segments(&log.group_dir(0)).unwrap().pop().unwrap();
        let bytes = fs::read(&last).unwrap();
        let ends = frame_ends(&bytes);
        if let [.., kept, torn] = ends[..] {
            fs::write(&last, &bytes[..torn - 1]).unwrap();
            let floor = recover(&log.root).unwrap().next_lsn;
            let config = JournalConfig { max_segment_bytes };
            let set = GroupSet::open(&log.root, groups, config, floor).unwrap();
            prop_assert_eq!(fs::metadata(&last).unwrap().len() as usize, kept);
            let more = vec![JournalRecord::Deregister(ServiceId::new(3)); 2];
            let receipt = set.append_batch(0, &more).unwrap();
            prop_assert_eq!(receipt.first_lsn, floor);
            drop(set);
            let of_group_0 = log.commits.iter().filter(|(group, ..)| *group == 0).count();
            let mut survivors = log.entries(|g, nth| g != 0 || nth + 1 < of_group_0);
            survivors.extend((floor..).zip(more));
            assert_is_twin_of(&recover(&log.root).unwrap(), &survivors);
        }
        fs::remove_dir_all(&log.root).unwrap();
    }

    /// (a'), what a cut cannot show because the checksum refuses a cut
    /// frame before anyone decodes it: a frame that *checks* and holds
    /// `good` records of a commit and then a byte no record opens with is
    /// dropped whole, not kept up to the damage.
    #[test]
    fn a_frame_that_checks_and_does_not_decode_is_dropped_whole(
        commits in commits(6),
        hit in 0usize..6,
        good in 0usize..40,
    ) {
        let log = Log::write("undecodable", 1, 8 << 20, commits);
        let (_, path) = list_segments(&log.group_dir(0)).unwrap().pop().unwrap();
        let bytes = fs::read(&path).unwrap();
        let ends = frame_ends(&bytes);
        let hit = hit % log.commits.len();
        let (_, first_lsn, records) = &log.commits[hit];
        let mut payload = Vec::new();
        for record in &records[..good % records.len()] {
            record.encode(&mut payload);
        }
        payload.push(0x7F);
        let mut damaged = bytes[..ends[hit]].to_vec();
        write_frame(&mut damaged, &payload);
        damaged.extend_from_slice(&bytes[ends[hit + 1]..]);
        fs::write(&path, &damaged).unwrap();

        let recovered = recover(&log.root).unwrap();
        assert_is_twin_of(&recovered, &log.entries(|_, nth| nth < hit));
        prop_assert!(recovered.torn_tail);
        // The cursor ships what lies before the frame and refuses it.
        let mut shipped = Vec::new();
        if let Ok(mut cursor) = ShipCursor::open(&log.root, 0) {
            while let Ok(batch) = cursor.next_batch(16) {
                prop_assert!(!batch.records.is_empty(), "damage is not a live tail");
                shipped.extend((batch.first_lsn..).zip(batch.records));
            }
        }
        prop_assert!(shipped.len() as u64 <= *first_lsn);
        prop_assert_eq!(&shipped[..], &log.all()[..shipped.len()]);
        fs::remove_dir_all(&log.root).unwrap();
    }

    /// (b) One flipped byte anywhere behind a segment's header: no reader
    /// panics, none yields a record that was not written, and what is
    /// lost is the commit the byte lies in and what its log holds behind
    /// it, nothing before it and nothing of another group's. (The header
    /// carries no checksum; a byte flipped there must not panic either.)
    #[test]
    fn a_flipped_byte_costs_its_commit_and_what_follows_at_most(
        groups in 1usize..=2,
        rotating in 0usize..2,
        commits in commits(12),
        flips in collection::vec((0usize..2, 0usize..64, 0usize..1 << 20, 1u8..=255), 6),
    ) {
        let max_segment_bytes = if rotating == 1 { 700 } else { 8 << 20 };
        let log = Log::write("flip", groups, max_segment_bytes, commits);
        let all = log.all();
        for (group, segment, at, mask) in flips {
            let group = group % groups;
            let segments = list_segments(&log.group_dir(group)).unwrap();
            let segment = segment % segments.len();
            let path = &segments[segment].1;
            let bytes = fs::read(path).unwrap();
            let at = at % bytes.len();
            let safe = commits_before(&log, group, segment, at);
            let mut flipped = bytes.clone();
            flipped[at] ^= mask;
            fs::write(path, &flipped).unwrap();

            let recovered = recover(&log.root);
            let cursor = ShipCursor::open(&log.root, 0);
            if at >= SEGMENT_HEADER_LEN {
                let recovered = recovered.unwrap();
                assert_is_twin_of(&recovered, &log.entries(|g, nth| g != group || nth < safe));
                prop_assert!(recovered.torn_tail);
                // The cursor ships a prefix of the log and then refuses.
                let mut shipped = Vec::new();
                if let Ok(mut cursor) = cursor {
                    while let Ok(batch) = cursor.next_batch(32) {
                        prop_assert!(!batch.records.is_empty(), "damage is not a live tail");
                        shipped.extend((batch.first_lsn..).zip(batch.records));
                    }
                }
                prop_assert!(shipped.len() < all.len());
                prop_assert_eq!(&shipped[..], &all[..shipped.len()]);
            }
            fs::write(path, &bytes).unwrap();
        }
        fs::remove_dir_all(&log.root).unwrap();
    }

    /// (c) A cursor opened at any LSN, the first of a commit or not,
    /// starts at exactly that LSN, and what it ships is what recovery
    /// replays.
    #[test]
    fn a_cursor_opens_at_every_lsn_of_every_commit(
        groups in 1usize..=2,
        rotating in 0usize..2,
        commits in commits(8),
        step in 1usize..50,
    ) {
        let max_segment_bytes = if rotating == 1 { 700 } else { 8 << 20 };
        let log = Log::write("every-lsn", groups, max_segment_bytes, commits);
        let all = log.all();
        assert_is_twin_of(&recover(&log.root).unwrap(), &all);
        for from in 0..=all.len() {
            let shipped = shipped_from(&log.root, from as u64, step);
            prop_assert_eq!(&shipped[..], &all[from..], "opened at {}", from);
        }
        fs::remove_dir_all(&log.root).unwrap();
    }
}

/// (a) with nothing sampled: every byte of a small two-group log.
#[test]
fn every_cut_of_a_small_log_recovers_whole_commits_only() {
    let report = |i: u64| {
        JournalRecord::Feedback(Feedback::scored(
            AgentId::new(i),
            ServiceId::new(i % 3),
            0.5,
            Time::new(i),
        ))
    };
    let sizes = [3u64, 1, 7, 2, 5, 1, 4];
    let mut next = 0;
    let commits = sizes
        .iter()
        .enumerate()
        .map(|(i, size)| {
            let records = (next..next + size).map(report).collect();
            next += size;
            (i % 2, records)
        })
        .collect();
    let log = Log::write("every-cut", 2, 8 << 20, commits);
    for group in 0..2 {
        let (_, last) = list_segments(&log.group_dir(group)).unwrap().pop().unwrap();
        let len = fs::metadata(&last).unwrap().len() as usize;
        for cut in 0..=len {
            check_cut(&log, group, cut);
        }
    }
    fs::remove_dir_all(&log.root).unwrap();
}

/// A payload for the walker: arbitrary bytes, or a commit's own payload
/// (stating an LSN or not) cut short, extended or with one byte changed,
/// so the walk gets past the first record before it meets the damage.
fn payload() -> impl Strategy<Value = Vec<u8>> {
    (
        0u8..4,
        collection::vec(record(), 1..6),
        collection::vec(0u8..=255, 0..48),
        (0u64..1 << 40, 0usize..1 << 16, 0u8..=255),
    )
        .prop_map(|(shape, records, noise, (lsn, at, byte))| {
            if shape == 0 {
                return noise;
            }
            let mut payload = Vec::new();
            if lsn % 2 == 0 {
                payload.push(LSN_MARKER);
                payload.extend_from_slice(&lsn.to_le_bytes());
            }
            for record in &records {
                record.encode(&mut payload);
            }
            match shape {
                1 => payload.truncate(at % (payload.len() + 1)),
                2 => payload.extend_from_slice(&noise),
                _ => {
                    let at = at % payload.len();
                    payload[at] = byte;
                }
            }
            payload
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// (d) The frame walker is total: any payload under any version is a
    /// frame of consecutive LSNs at or above where the walk stood, or
    /// damage that moves nothing.
    #[test]
    fn the_walker_never_panics_and_never_advances_on_damage(
        version in 1u8..=FORMAT_VERSION,
        start in 0u64..1 << 41,
        payloads in collection::vec(payload(), 1..4),
        last in 0u64..3,
    ) {
        // One draw in three starts at the far end of the LSN space.
        let start = if last == 0 { u64::MAX - start % 3 } else { start };
        let header = segment_header_versioned(start, version);
        let mut walk = LsnWalk::from_header(&header, Path::new("fuzz")).unwrap().unwrap();
        for payload in &payloads {
            let before = walk.next_lsn();
            let mut lsns = Vec::new();
            match walk.step(payload, |lsn, _| lsns.push(lsn)) {
                Ok(()) => {
                    prop_assert!(lsns[0] >= before);
                    prop_assert!(lsns.windows(2).all(|pair| pair[1] == pair[0] + 1));
                    prop_assert_eq!(walk.next_lsn(), lsns[lsns.len() - 1] + 1);
                    prop_assert!(version == FORMAT_VERSION || lsns.len() == 1);
                }
                Err(_) => prop_assert_eq!(walk.next_lsn(), before),
            }
        }
    }
}

/// The frame header is not the walker's business, but the two meet in
/// the scanner: a frame of the largest payload a header can promise and
/// a file cannot hold is a torn tail, not an allocation.
#[test]
fn a_frame_header_promising_the_moon_is_a_torn_tail() {
    let log = Log::write(
        "moon",
        1,
        8 << 20,
        vec![(0, vec![JournalRecord::Deregister(ServiceId::new(1))])],
    );
    let (_, path) = list_segments(&log.group_dir(0)).unwrap().pop().unwrap();
    let mut bytes = fs::read(&path).unwrap();
    bytes.extend_from_slice(&(16u32 << 20).to_le_bytes());
    bytes.extend_from_slice(&[0; FRAME_HEADER_LEN - 4]);
    fs::write(&path, &bytes).unwrap();
    let recovered = recover(&log.root).unwrap();
    assert!(recovered.torn_tail);
    assert_is_twin_of(&recovered, &log.all());
    assert_eq!(shipped_from(&log.root, 0, 8), log.all());
    fs::remove_dir_all(&log.root).unwrap();
}
