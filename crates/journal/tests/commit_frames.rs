//! Properties of segment formats 5 and 6, where a frame is a whole commit.
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
//!
//! A format-6 report may leave out the round its frame's previous report
//! had, so a frame is also the unit of decoding: the last tests hold that
//! every frame reads without the one before it, and that each format's
//! frames are read by that format's rules alone.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId};
use wsrep_core::time::Time;
use wsrep_journal::frame::{split_frame, write_frame, FrameSplit, FRAME_HEADER_LEN};
use wsrep_journal::journal::{frame_commit, FRAME_SPLIT_BYTES};
use wsrep_journal::record::put_payload;
use wsrep_journal::segment::{
    group_dir_name, list_segments, segment_file_name, segment_header, segment_header_versioned,
    LsnWalk, FORMAT_VERSION, SEGMENT_HEADER_LEN,
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
        frame_commit(&mut payload, None, &records[..good % records.len()]);
        let mut payload = payload.split_off(FRAME_HEADER_LEN);
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
    /// The cursor refuses the damage, unless the flip lengthened its log's
    /// last frame past the end of the file: that is a write still landing.
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
            let ends = frame_ends(&bytes);
            let frame = ends.into_iter().filter(|end| *end <= at).max().unwrap_or(0);
            let landing = segment + 1 == segments.len()
                && split_frame(&flipped[frame..]) == FrameSplit::Incomplete;

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
                        if batch.records.is_empty() {
                            prop_assert!(landing, "damage is not a live tail");
                            break;
                        }
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
            frame_commit(&mut payload, (lsn % 2 == 0).then_some(lsn), &records);
            let mut payload = payload.split_off(FRAME_HEADER_LEN);
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
                    prop_assert!(version >= 5 || lsns.len() == 1);
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

/// `f`'s result, and what it read through `read(2)` and its kin on this
/// thread by the kernel's count (`rchar`); `None` where none is kept.
fn bytes_read_by<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    let rchar = || -> Option<(u64, u64)> {
        let io = fs::read_to_string("/proc/thread-self/io").ok()?;
        let count = io.lines().find_map(|line| line.strip_prefix("rchar: "))?;
        Some((count.parse().ok()?, io.len() as u64))
    };
    let before = rchar();
    let out = f();
    // The count after `f` holds the reading of the count before it.
    let read = before
        .zip(rchar())
        .map(|((at, own), (to, _))| to - at - own);
    (out, read)
}

/// Where a segment's bytes land, as `draws` pick for its header and each
/// frame: cut once inside (flagged), whole, or merged into the next.
fn landing(bytes: &[u8], draws: &[(u8, usize)]) -> Vec<(Range<usize>, bool)> {
    let (mut chunks, mut from, mut start) = (Vec::new(), 0, 0);
    for (i, end) in frame_ends(bytes).into_iter().enumerate() {
        let (cut, inside) = match draws[i % draws.len()] {
            (0, at) => (start + 1 + at % (end - start - 1), true),
            (1, _) => (end, false),
            _ => (from, false),
        };
        if cut > from {
            chunks.push((from..cut, inside));
            from = cut;
        }
        start = end;
    }
    if from < bytes.len() {
        chunks.push((from..bytes.len(), false));
    }
    chunks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// (e) A log copied into a live directory as its writers would land
    /// it, in chunks cut inside segment headers and inside frames, with a
    /// cursor called after every chunk: the cursor ships only records of
    /// whole frames, dense and in LSN order, with no error, and reads the
    /// log less than twice over, however a failed append was taken back.
    /// Opening the finished log, its recovery pass, reads it once.
    #[test]
    fn a_cursor_tailing_a_growing_log_ships_whole_frames_only(
        groups in 1usize..=2,
        rotating in 0usize..2,
        commits in commits(12),
        draws in collection::vec((0u8..3, 0usize..1 << 16), 1..16),
        turns in collection::vec(0usize..2, 1..32),
        step in 1usize..64,
    ) {
        let max_segment_bytes = if rotating == 1 { 700 } else { 8 << 20 };
        let log = Log::write("growing", groups, max_segment_bytes, commits);
        let live = temp_dir("growing-live");
        let mut log_bytes = 0;
        let mut chunks = vec![std::collections::VecDeque::new(); groups];
        for (group, queue) in chunks.iter_mut().enumerate() {
            let dir = live.join(group_dir_name(group));
            fs::create_dir_all(&dir).unwrap();
            for (_, path) in list_segments(&log.group_dir(group)).unwrap() {
                let bytes = fs::read(&path).unwrap();
                let target = dir.join(path.file_name().unwrap());
                for (range, inside) in landing(&bytes, &draws) {
                    queue.push_back((target.clone(), bytes[range].to_vec(), inside));
                }
                log_bytes += bytes.len() as u64;
            }
        }

        let all = log.all();
        let mut cursor = ShipCursor::open(&live, 0).unwrap();
        let (mut shipped, mut read) = (Vec::new(), 0);
        // A writer finishes the frame it is writing before another lands,
        // and a chunk cut inside a frame may first land as a failed append
        // would, a byte wrong, and be taken back.
        let (mut writing, mut failed) = (None, None);
        for turn in turns.iter().cycle() {
            let mut landing = (0..groups).map(|g| (turn + g) % groups);
            let group = writing.or_else(|| landing.find(|g| !chunks[*g].is_empty()));
            if let Some(group) = group {
                let (path, mut bytes, inside) = chunks[group].front().cloned().unwrap();
                let mut file = fs::OpenOptions::new().create(true).append(true).open(&path).unwrap();
                if let Some(len) = failed.take() {
                    file.set_len(len).unwrap();
                } else if inside && turn % 2 == 0 {
                    failed = Some(file.metadata().unwrap().len());
                    *bytes.last_mut().unwrap() ^= 1;
                }
                if failed.is_none() {
                    chunks[group].pop_front();
                }
                file.write_all(&bytes).unwrap();
                writing = inside.then_some(group);
            }
            let (batch, bytes) = bytes_read_by(|| cursor.next_batch(step).unwrap());
            read += bytes.filter(|_| failed.is_none()).unwrap_or(0);
            if group.is_none() && batch.records.is_empty() {
                break;
            }
            shipped.extend((batch.first_lsn..).zip(batch.records));
            prop_assert_eq!(&shipped[..], &all[..shipped.len()], "dense, in LSN order");
            let whole = recover(&live).unwrap().durable_lsn;
            prop_assert!(shipped.len() as u64 <= whole, "a record of a partial frame");
        }
        prop_assert_eq!(&shipped, &all);
        prop_assert!(read < 2 * log_bytes, "read {} bytes of a {}-byte log", read, log_bytes);
        let (opened, read) = bytes_read_by(|| GroupSet::open(&live, groups, Default::default(), 0));
        prop_assert_eq!(opened.unwrap().allocator().next_lsn(), all.len() as u64);
        prop_assert_eq!(read.unwrap_or(log_bytes), log_bytes, "a segment read twice");
        fs::remove_dir_all(&live).unwrap();
        fs::remove_dir_all(&log.root).unwrap();
    }
}

/// A report of round `round` scored 0.5, which a format-6 frame stores in
/// seven bytes.
fn report_of_round(i: u64, round: u64) -> JournalRecord {
    let at = Time::new(round);
    JournalRecord::Feedback(Feedback::scored(
        AgentId::new(i),
        ServiceId::new(i % 5),
        0.5,
        at,
    ))
}

/// `records` as one commit payload.
fn as_payload(records: &[JournalRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    put_payload(&mut out, &mut records.iter(), usize::MAX);
    out
}

/// A batch past `FRAME_SPLIT_BYTES` continues in a frame that holds its
/// own context: the second frame's first report stores the round the
/// first frame's reports all left out, as a report on its own does.
#[test]
fn a_split_batchs_second_frame_stores_its_first_round() {
    let reports: Vec<JournalRecord> = (0..100_000).map(|i| report_of_round(i, 9)).collect();
    let log = Log::write("split-round", 1, 8 << 20, vec![(0, reports.clone())]);
    let (_, path) = list_segments(&log.group_dir(0)).unwrap().pop().unwrap();
    let bytes = fs::read(&path).unwrap();
    let ends = frame_ends(&bytes);
    assert_eq!(ends.len(), 3, "two frames");
    assert!(ends[1] - ends[0] > FRAME_SPLIT_BYTES);

    let mut walk = LsnWalk::from_header(&bytes, &path).unwrap().unwrap();
    let payload = |k: usize| &bytes[ends[k] + FRAME_HEADER_LEN..ends[k + 1]];
    walk.step(payload(0), |_, _| ()).unwrap();
    let first = walk.next_lsn() as usize;
    let alone = as_payload(&reports[first..=first]);
    assert!(payload(1).starts_with(&alone));
    // Within a frame the round is left out: a report is 11 bytes here.
    let alone = alone.len();
    assert_eq!(
        payload(1).len(),
        alone + (reports.len() - first - 1) * (alone - 1)
    );
    assert_is_twin_of(&recover(&log.root).unwrap(), &log.all());
    fs::remove_dir_all(&log.root).unwrap();
}

/// Every frame decodes without the frames before it: the log cut to a
/// segment that begins at any frame, the split frame of a large batch
/// included, recovers and ships what the log holds from there on.
#[test]
fn a_log_read_from_any_frame_start_decodes() {
    let sizes = [3u64, 1, 7, 2, 5, 1, 100_000, 4];
    let mut next = 0;
    let commits = sizes
        .iter()
        .map(|size| {
            // Rounds run on across commits, as the benchmark's do.
            let records = (next..next + size)
                .map(|i| report_of_round(i, i / 4))
                .collect();
            next += size;
            (0, records)
        })
        .collect();
    let log = Log::write("frame-starts", 1, 8 << 20, commits);
    let all = log.all();
    let (_, path) = list_segments(&log.group_dir(0)).unwrap().pop().unwrap();
    let bytes = fs::read(&path).unwrap();
    let ends = frame_ends(&bytes);
    assert_eq!(ends.len(), sizes.len() + 2, "the large batch is two frames");

    let mut walk = LsnWalk::from_header(&bytes, &path).unwrap().unwrap();
    let cut = temp_dir("frame-starts-cut");
    let dir = cut.join(group_dir_name(0));
    for frame in ends.windows(2) {
        let from = walk.next_lsn();
        fs::create_dir_all(&dir).unwrap();
        let tail = [&segment_header(from)[..], &bytes[frame[0]..]].concat();
        fs::write(dir.join(segment_file_name(from)), tail).unwrap();
        let rest = &all[from as usize..];
        assert_is_twin_of(&recover(&cut).unwrap(), rest);
        assert_eq!(shipped_from(&cut, from, 4_096), rest, "from lsn {from}");
        fs::remove_dir_all(&cut).unwrap();
        walk.step(&bytes[frame[0] + FRAME_HEADER_LEN..frame[1]], |_, _| ())
            .unwrap();
    }
    fs::remove_dir_all(&log.root).unwrap();
}

/// Each format's frames are read by that format's rules alone. In a
/// format-6 frame a report has one spelling: a round the frame already
/// holds, or a score's `0x3F` top byte, is refused where it is stored. In
/// a format-5 frame neither may be left out.
#[test]
fn each_format_reads_its_frames_by_its_own_rules() {
    let walks = |version: u8, payload: &[u8]| {
        let header = segment_header_versioned(0, version);
        let mut walk = LsnWalk::from_header(&header, Path::new("rules"))
            .unwrap()
            .unwrap();
        walk.step(payload, |_, _| ()).is_ok()
    };
    let report = |score: f64, round: u64| {
        let at = Time::new(round);
        JournalRecord::Feedback(Feedback::scored(
            AgentId::new(1),
            ServiceId::new(2),
            score,
            at,
        ))
    };
    let in_a_frame = |records: &[JournalRecord]| {
        let mut frame = Vec::new();
        frame_commit(&mut frame, None, records);
        frame.split_off(FRAME_HEADER_LEN)
    };
    let each_alone =
        |records: &[JournalRecord]| -> Vec<u8> { records.chunks(1).flat_map(as_payload).collect() };

    // Two reports of one round scored 0, a score no format shortens: the
    // second leaves its round out (bit 5), or stores it.
    let same_round = [report(0.0, 3), report(0.0, 3)];
    assert!(walks(6, &in_a_frame(&same_round)));
    assert!(!walks(6, &each_alone(&same_round)), "a stored round held");
    assert!(!walks(5, &in_a_frame(&same_round)), "bit 5 in format 5");
    assert!(walks(5, &each_alone(&same_round)));

    // A score of 0.5 stores seven bytes (bit 4), or all eight.
    let short = [report(0.5, 3)];
    assert!(walks(6, &in_a_frame(&short)));
    assert!(!walks(5, &in_a_frame(&short)), "bit 4 in format 5");
    let mut eight = vec![0x81, 1, 2];
    eight.extend_from_slice(&0.5f64.to_le_bytes());
    eight.push(3);
    assert!(walks(5, &eight));
    assert!(!walks(6, &eight), "a 0x3F top byte stored");
    // Format 6 writes no fixed-width report: it would not re-encode to
    // its bytes.
    let mut fixed = vec![1];
    wsrep_journal::codec::put_feedback(&mut fixed, short[0].as_feedback().unwrap());
    assert!(walks(5, &fixed));
    assert!(!walks(6, &fixed), "a tag-1 report in format 6");
}
