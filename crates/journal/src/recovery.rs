//! Crash recovery: snapshot + WAL tail → registry state.
//!
//! Recovery is a pure function of the journal directory, and one read of
//! it:
//!
//! 1. load the newest snapshot that validates (a damaged snapshot falls
//!    back to its predecessor, or to nothing — the WAL still holds every
//!    record);
//! 2. read every log — each `group-NNN/` directory's segments, and the
//!    root's own if it holds a sealed single-directory log — a whole
//!    frame at a time, stopping that log at its first torn frame (a
//!    crashed append's tail was never acknowledged as durable, so dropping
//!    it cannot lose acknowledged data);
//! 3. merge the logs lazily as they are read, lowest pending LSN first
//!    and a run at a time (see `replay_logs`), skip what the snapshot
//!    already covers, and hand the records on in global order.
//!
//! With several writer groups, a crash can leave *interior gaps* in the
//! merged LSN sequence — one group's later batch hit the disk while
//! another group's earlier batch died in the page cache. Every record
//! past a gap is kept: acknowledgement (`flush`) only ever covered
//! prefixes all groups had fsynced, so the gap's records were never
//! acknowledged, while records above it may have been. [`Recovered`]
//! reports both views: `next_lsn` (past the highest survivor — where
//! allocation resumes) and `durable_lsn` (the contiguous frontier).
//!
//! [`replay_prefix`] is that pass, record by record to a visitor, holding
//! one read chunk and one decoded frame per log, and what the visitor
//! keeps. Opening the journal *is*
//! the pass ([`GroupSet::open`](crate::GroupSet::open)): each writer
//! resumes where it found its log's end, and `LogStream::finish` alone
//! decides what damage there means. [`recover`] and [`recover_prefix`]
//! collect the pass into a [`Recovered`].

use crate::record::JournalRecord;
use crate::segment::{list_group_dirs, list_segments, SegmentReader, SEGMENT_HEADER_LEN};
use crate::snapshot::latest_snapshot;
use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::ServiceId;
use wsrep_sim::registry::Listing;

/// The state rebuilt from a journal directory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recovered {
    /// Live listings after replaying every publish/deregister.
    pub listings: Vec<Listing>,
    /// Every durably acknowledged feedback report, oldest first.
    pub feedback: Vec<Feedback>,
    /// Entries restored: snapshot entries + WAL records replayed.
    pub records_recovered: u64,
    /// LSN of the snapshot used, if any.
    pub snapshot_lsn: Option<u64>,
    /// Whether a torn/truncated record was skipped at the tail.
    pub torn_tail: bool,
    /// LSN of the last record processed + 1 — where appends resume.
    pub next_lsn: u64,
    /// The contiguous durable frontier: every LSN below this was
    /// recovered (or snapshot-covered). Equals `next_lsn` unless a crash
    /// left cross-group gaps in the log.
    pub durable_lsn: u64,
}

/// Rebuild registry state from the journal at `dir`.
///
/// A missing or empty directory recovers to the empty state — a fresh
/// boot and a recovery are the same code path.
pub fn recover(dir: &Path) -> io::Result<Recovered> {
    recover_prefix(dir, u64::MAX)
}

/// What a replay found, beside the records it handed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Replayed {
    /// Entries restored: snapshot entries + WAL records replayed.
    pub records_recovered: u64,
    /// LSN of the snapshot used, if any.
    pub snapshot_lsn: Option<u64>,
    /// Whether a torn/truncated record was skipped at the tail.
    pub torn_tail: bool,
    /// LSN of the last record processed + 1 — where appends resume.
    pub next_lsn: u64,
    /// The contiguous durable frontier (see [`Recovered::durable_lsn`]).
    pub durable_lsn: u64,
}

/// [`recover`], but only the records `[0, upto)`: exactly what a
/// snapshot at LSN `upto` has to hold. This is how a checkpoint is built
/// — from the log itself, not from the serving state — so it may run
/// beside a live writer, provided every record below `upto` has been
/// written: appends in flight all lie at or above `upto`, where a frame
/// still half-written reads as a torn tail and is left out like any
/// other record the prefix does not cover.
///
/// Errors with [`io::ErrorKind::InvalidInput`] when the newest valid
/// snapshot already lies beyond `upto`.
pub fn recover_prefix(dir: &Path, upto: u64) -> io::Result<Recovered> {
    let mut listings: BTreeMap<ServiceId, Listing> = BTreeMap::new();
    let mut feedback = Vec::new();
    let replayed = replay_prefix(dir, upto, |record| match record {
        JournalRecord::Feedback(report) => feedback.push(report),
        JournalRecord::Publish(listing) => {
            listings.insert(listing.service, listing);
        }
        JournalRecord::Deregister(service) => {
            listings.remove(&service);
        }
    })?;
    Ok(Recovered {
        listings: listings.into_values().collect(),
        feedback,
        records_recovered: replayed.records_recovered,
        snapshot_lsn: replayed.snapshot_lsn,
        torn_tail: replayed.torn_tail,
        next_lsn: replayed.next_lsn,
        durable_lsn: replayed.durable_lsn,
    })
}

/// The one recovery pass behind [`recover_prefix`] and
/// [`GroupSet::open`](crate::GroupSet::open): hand every record of the
/// prefix `[0, upto)` to `visit` in LSN order — the snapshot's listings
/// (as publishes) and reports first, then the WAL records it does not
/// cover — as each log is read.
pub fn replay_prefix(
    dir: &Path,
    upto: u64,
    mut visit: impl FnMut(JournalRecord),
) -> io::Result<Replayed> {
    Ok(replay_logs(dir, upto, |run| run.drain(..).for_each(&mut visit))?.0)
}

/// [`replay_prefix`] a run of consecutive LSNs (a frame) to take out at a
/// time, handing back each log read to its end: the root's first.
pub(crate) fn replay_logs(
    dir: &Path,
    upto: u64,
    mut visit: impl FnMut(&mut Vec<JournalRecord>),
) -> io::Result<(Replayed, Vec<LogStream>)> {
    let mut replayed = Replayed::default();
    if !dir.exists() {
        return Ok((replayed, Vec::new()));
    }

    let mut covered_lsn = 0;
    if let Some(snapshot) = latest_snapshot(dir)? {
        if snapshot.lsn > upto {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "snapshot at lsn {} lies beyond the requested prefix [0, {upto})",
                    snapshot.lsn
                ),
            ));
        }
        covered_lsn = snapshot.lsn;
        replayed.snapshot_lsn = Some(snapshot.lsn);
        replayed.records_recovered += snapshot.entries();
        replayed.next_lsn = snapshot.lsn;
        let listings = snapshot.listings.into_iter().map(JournalRecord::Publish);
        let reports = snapshot.feedback.into_iter().map(JournalRecord::Feedback);
        // In runs of 4 096 at most: no second copy of the snapshot is made.
        let (mut records, mut run) = (listings.chain(reports).peekable(), Vec::new());
        while records.peek().is_some() {
            run.extend(records.by_ref().take(4_096));
            visit(&mut run);
            run.clear();
        }
    }

    // One stream per log: the root's own segments, then each group's. The
    // merge is the record-at-a-time one (lowest head first, the earlier
    // stream on a tie) taken a run at a time: while only the chosen stream
    // moves, that merge keeps choosing it exactly while its next record
    // lies below every earlier stream's head and at or below every later
    // one's. A frame is one LSN run (`LsnWalk`) that no other log's shares,
    // so a run is a whole frame or more, and heads are compared per run.
    let mut streams = vec![LogStream::open(dir, upto)?];
    for (_, group_dir) in list_group_dirs(dir)? {
        streams.push(LogStream::open(&group_dir, upto)?);
    }
    let mut frontier = covered_lsn;
    let mut heads = Vec::with_capacity(streams.len());
    loop {
        heads.clear();
        for stream in &mut streams {
            heads.push(stream.peek()?);
        }
        let live = (0..heads.len()).filter(|&i| heads[i].is_some());
        let Some(i) = live.min_by_key(|&i| heads[i]) else {
            break;
        };
        let below = heads[..i].iter().flatten().min().copied();
        let through = heads[i + 1..].iter().flatten().min().map(|t| t + 1);
        let end = below.unwrap_or(u64::MAX).min(through.unwrap_or(u64::MAX));
        let stream = &mut streams[i];
        while let Some(first) = stream.peek()?.filter(|&lsn| lsn < end) {
            let run = (stream.frame.len() as u64).min(end - first);
            // What `[covered_lsn, upto)` holds of the run goes on; the rest waits.
            let from = first.max(covered_lsn).min(first + run);
            let to = (first + run).min(upto).max(from);
            let rest = stream.frame.split_off(run as usize);
            stream.frame.truncate((to - first) as usize);
            stream.frame.drain(..(from - first) as usize);
            if from < to {
                visit(&mut stream.frame);
                if (from..to).contains(&frontier) {
                    frontier = to;
                }
                replayed.records_recovered += to - from;
                replayed.next_lsn = to;
            }
            stream.frame.clear();
            stream.frame.extend(rest);
            stream.first += run;
        }
    }
    replayed.durable_lsn = frontier;
    replayed.torn_tail = streams.iter().any(LogStream::damaged);
    Ok((replayed, streams))
}

/// One log, read on demand: its segments named below `upto`, a whole
/// frame at a time, up to its first damage.
#[derive(Debug)]
pub(crate) struct LogStream {
    pub dir: PathBuf,
    pub segments: Vec<(u64, PathBuf)>,
    /// How many of `segments` have been opened.
    opened: usize,
    /// The last segment opened whose header holds: the final one, at last.
    pub reader: Option<SegmentReader>,
    /// The last segment opened has no header.
    headerless: bool,
    /// What is left of the frame read last, an LSN run from `first`: the
    /// reader decodes into it, and the merge drains it.
    frame: Vec<JournalRecord>,
    first: u64,
    done: bool,
}

impl LogStream {
    pub(crate) fn open(dir: &Path, upto: u64) -> io::Result<LogStream> {
        // A segment's name is a lower bound on every LSN inside it, so
        // one named at or past `upto` holds nothing of the prefix.
        let mut segments = list_segments(dir)?;
        segments.retain(|(start, _)| *start < upto);
        Ok(LogStream {
            dir: dir.to_path_buf(),
            segments,
            opened: 0,
            reader: None,
            headerless: false,
            frame: Vec::new(),
            first: 0,
            done: false,
        })
    }

    /// Whether damage ended the log.
    fn damaged(&self) -> bool {
        self.headerless || self.reader.as_ref().is_some_and(SegmentReader::torn)
    }

    /// The LSN of the stream's next record, reading on as far as that
    /// takes; `None` once the log is done.
    fn peek(&mut self) -> io::Result<Option<u64>> {
        while self.frame.is_empty() && !self.done {
            if let Some(reader) = &mut self.reader {
                if let Some(first) = reader.next_frame(&mut self.frame)? {
                    self.first = first;
                    continue;
                }
            }
            // The segment is read to its end, or none is open yet.
            let next = self.segments.get(self.opened).filter(|_| !self.damaged());
            let Some((_, path)) = next else {
                self.done = true;
                continue;
            };
            self.opened += 1;
            match SegmentReader::open(path)? {
                Some(reader) => self.reader = Some(reader),
                None => (self.headerless, self.done) = (true, true),
            }
        }
        Ok((!self.frame.is_empty()).then_some(self.first))
    }

    /// Read the rest of the log, then decide what its damage means to a
    /// writer: a crashed append's torn final segment is cut to its last
    /// whole frame, and a crashed rotation's final segment, headerless and
    /// no longer than a header (`create_segment` syncs one before any
    /// append), is deleted. Anything else is `InvalidData`, files intact.
    pub(crate) fn finish(mut self) -> io::Result<LogStream> {
        while self.peek()?.is_some() {
            self.frame.clear();
        }
        let refuse = |what: &str, path: &Path| {
            let what = format!("segment {} {what}", path.display());
            io::Error::new(io::ErrorKind::InvalidData, what)
        };
        if self.damaged() && self.opened < self.segments.len() {
            let (_, path) = &self.segments[self.opened - 1];
            return Err(refuse("is damaged and not the last", path));
        }
        if self.headerless {
            let (_, path) = self.segments.pop().expect("a segment was opened");
            if fs::metadata(&path)?.len() > SEGMENT_HEADER_LEN as u64 {
                return Err(refuse("has a damaged header", &path));
            }
            fs::remove_file(&path)?;
        } else if let Some(reader) = self.reader.as_ref().filter(|reader| reader.torn()) {
            let (_, path) = &self.segments[self.opened - 1];
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(reader.valid_len)?;
            file.sync_data()?;
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Journal, JournalConfig};
    use crate::snapshot::write_snapshot;
    use std::collections::VecDeque;
    use std::fs;
    use std::path::PathBuf;
    use wsrep_core::id::{AgentId, ProviderId};
    use wsrep_core::time::Time;
    use wsrep_qos::metric::Metric;
    use wsrep_qos::value::QosVector;

    fn feedback(i: u64) -> Feedback {
        Feedback::scored(AgentId::new(i), ServiceId::new(i % 4), 0.6, Time::new(i))
    }

    fn listing(service: u64) -> Listing {
        Listing {
            service: ServiceId::new(service),
            provider: ProviderId::new(service),
            category: 2,
            advertised: QosVector::from_pairs([(Metric::Accuracy, 0.8)]),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wsrep-journal-recovery-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn missing_directory_recovers_empty() {
        let dir = temp_dir("missing");
        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered, Recovered::default());
    }

    #[test]
    fn wal_only_replay_restores_everything_in_order() {
        let dir = temp_dir("wal-only");
        let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        journal
            .append_batch(&[
                JournalRecord::Publish(listing(1)),
                JournalRecord::Publish(listing(2)),
            ])
            .unwrap();
        let reports: Vec<Feedback> = (0..20).map(feedback).collect();
        journal
            .append_batch(
                &reports
                    .iter()
                    .cloned()
                    .map(JournalRecord::Feedback)
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        journal
            .append_batch(&[JournalRecord::Deregister(ServiceId::new(2))])
            .unwrap();
        drop(journal);

        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.feedback, reports);
        assert_eq!(recovered.listings, vec![listing(1)]);
        assert_eq!(recovered.records_recovered, 23);
        assert_eq!(recovered.next_lsn, 23);
        assert!(!recovered.torn_tail);
        assert_eq!(recovered.snapshot_lsn, None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_plus_tail_equals_full_replay() {
        let dir = temp_dir("snapshot-tail");
        let config = JournalConfig {
            max_segment_bytes: 300,
        };
        let mut journal = Journal::open(&dir, config).unwrap();
        journal
            .append_batch(&[JournalRecord::Publish(listing(7))])
            .unwrap();
        let reports: Vec<Feedback> = (0..30).map(feedback).collect();
        for chunk in reports.chunks(5) {
            journal
                .append_batch(
                    &chunk
                        .iter()
                        .cloned()
                        .map(JournalRecord::Feedback)
                        .collect::<Vec<_>>(),
                )
                .unwrap();
        }
        // Snapshot covering the publish + first 15 reports (LSN 16).
        write_snapshot(&dir, 16, &[listing(7)], &reports[..15]).unwrap();
        journal.compact(16).unwrap();
        drop(journal);

        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.snapshot_lsn, Some(16));
        assert_eq!(recovered.feedback, reports, "snapshot + tail = full log");
        assert_eq!(recovered.listings, vec![listing(7)]);
        assert_eq!(recovered.next_lsn, 31);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_skipped_without_error() {
        let dir = temp_dir("torn");
        let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        let reports: Vec<Feedback> = (0..8).map(feedback).collect();
        for report in &reports {
            journal
                .append_batch(&[JournalRecord::Feedback(report.clone())])
                .unwrap();
        }
        drop(journal);
        // Tear the final record mid-frame.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();

        let recovered = recover(&dir).unwrap();
        assert!(recovered.torn_tail);
        assert_eq!(recovered.feedback, reports[..7].to_vec());
        assert_eq!(recovered.next_lsn, 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partitioned_log_merges_groups_by_lsn() {
        let dir = temp_dir("partitioned");
        let set = crate::group::GroupSet::open(&dir, 3, JournalConfig::default(), 0).unwrap();
        set.append_batch(0, &[JournalRecord::Publish(listing(1))])
            .unwrap(); // LSN 0
        let reports: Vec<Feedback> = (0..9).map(feedback).collect();
        // Interleave feedback across groups 1 and 2 out of group order.
        for (i, report) in reports.iter().enumerate() {
            let group = 1 + (i % 2);
            set.append_batch(group, &[JournalRecord::Feedback(report.clone())])
                .unwrap(); // LSNs 1..=9
        }
        drop(set);

        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.feedback, reports, "merged back into LSN order");
        assert_eq!(recovered.listings, vec![listing(1)]);
        assert_eq!(recovered.next_lsn, 10);
        assert_eq!(recovered.durable_lsn, 10);
        assert!(!recovered.torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn migrated_layout_replays_root_then_groups() {
        let dir = temp_dir("migrated");
        {
            // A single-log past life…
            let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
            journal
                .append_batch(&[
                    JournalRecord::Publish(listing(1)),
                    JournalRecord::Feedback(feedback(0)),
                ])
                .unwrap(); // LSNs 0-1
        }
        // …then the same directory reopened partitioned.
        let set = crate::group::GroupSet::open(&dir, 2, JournalConfig::default(), 0).unwrap();
        assert_eq!(set.allocator().next_lsn(), 2, "resumes past root segments");
        set.append_batch(1, &[JournalRecord::Feedback(feedback(1))])
            .unwrap(); // LSN 2
        drop(set);

        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.feedback, vec![feedback(0), feedback(1)]);
        assert_eq!(recovered.next_lsn, 3);
        assert_eq!(recovered.durable_lsn, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cross_group_gap_keeps_later_records_and_reports_the_frontier() {
        let dir = temp_dir("gap");
        let set = crate::group::GroupSet::open(&dir, 2, JournalConfig::default(), 0).unwrap();
        set.append_batch(0, &[JournalRecord::Feedback(feedback(0))])
            .unwrap(); // LSN 0, group 0
        set.append_batch(1, &[JournalRecord::Feedback(feedback(1))])
            .unwrap(); // LSN 1, group 1
        set.append_batch(0, &[JournalRecord::Feedback(feedback(2))])
            .unwrap(); // LSN 2, group 0
        drop(set);
        // Simulate group 1's batch dying in the page cache: its record
        // at LSN 1 is torn away, leaving a gap between groups.
        let group1 = dir.join(crate::segment::group_dir_name(1));
        let (_, path) = list_segments(&group1).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();

        let recovered = recover(&dir).unwrap();
        assert!(recovered.torn_tail);
        assert_eq!(
            recovered.feedback,
            vec![feedback(0), feedback(2)],
            "the survivor above the gap is kept"
        );
        assert_eq!(
            recovered.next_lsn, 3,
            "allocation resumes past the survivor"
        );
        assert_eq!(recovered.durable_lsn, 1, "frontier stops at the gap");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A log's frames, `(first_lsn, records)` apiece.
    type Frames = [(u64, u64)];

    /// A log written by hand into `dir`: one segment whose frames each
    /// state their first LSN, so two logs may hold the same LSN, which no
    /// writer does. Each report names its log (`rater`) and LSN (`at`);
    /// returns the log's records.
    fn hand_log(dir: &Path, log: u64, frames: &Frames) -> VecDeque<(u64, JournalRecord)> {
        fs::create_dir_all(dir).unwrap();
        let mut bytes = crate::segment::segment_header(frames[0].0).to_vec();
        let mut records = VecDeque::new();
        for &(first, count) in frames {
            let frame: Vec<(u64, JournalRecord)> = (first..first + count)
                .map(|lsn| {
                    let report = Feedback::scored(
                        AgentId::new(log),
                        ServiceId::new(lsn % 3),
                        0.5,
                        Time::new(lsn),
                    );
                    (lsn, JournalRecord::Feedback(report))
                })
                .collect();
            let frame_records = frame.iter().map(|(_, record)| record);
            crate::journal::frame_commit(&mut bytes, Some(first), frame_records);
            records.extend(frame);
        }
        fs::write(
            dir.join(crate::segment::segment_file_name(frames[0].0)),
            bytes,
        )
        .unwrap();
        records
    }

    /// The record-at-a-time merge: lowest head first, the earlier log on
    /// a tie.
    fn record_merge(mut logs: Vec<VecDeque<(u64, JournalRecord)>>) -> Vec<JournalRecord> {
        let mut merged = Vec::new();
        let lowest = |logs: &[VecDeque<(u64, JournalRecord)>]| {
            let heads = logs.iter().enumerate();
            let heads = heads.filter_map(|(i, log)| Some((i, log.front()?.0)));
            heads.min_by_key(|&(i, lsn)| (lsn, i)).map(|(i, _)| i)
        };
        while let Some(i) = lowest(&logs) {
            merged.push(logs[i].pop_front().unwrap().1);
        }
        merged
    }

    /// The root's own log, then `group-000`'s: the run merge hands their
    /// records on in exactly the record merge's order, and ends.
    fn assert_run_merge_is_record_merge(tag: &str, root: &Frames, group: &Frames) {
        let dir = temp_dir(tag);
        let logs = vec![
            hand_log(&dir, 0, root),
            hand_log(&dir.join(crate::segment::group_dir_name(0)), 1, group),
        ];
        let expected = record_merge(logs);
        let mut merged = Vec::new();
        let replayed = replay_prefix(&dir, u64::MAX, |record| merged.push(record)).unwrap();
        assert_eq!(merged, expected, "{root:?} beside {group:?}");
        assert_eq!(replayed.records_recovered, expected.len() as u64);
        assert!(!replayed.torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_tie_goes_to_the_earlier_log_and_the_merge_ends() {
        // Both logs hold LSN 3: the root's goes first, then the group's,
        // then the group's 4 and 5 past the root's end.
        let dir = temp_dir("tie-order");
        hand_log(&dir, 0, &[(0, 4)]);
        hand_log(&dir.join(crate::segment::group_dir_name(0)), 1, &[(3, 3)]);
        let mut order = Vec::new();
        replay_prefix(&dir, u64::MAX, |record| {
            let report = record.as_feedback().unwrap();
            order.push((report.rater.raw(), report.at.round()));
        })
        .unwrap();
        let expected = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (1, 5)];
        assert_eq!(order, expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_run_merge_is_the_record_merge_on_overlapping_logs() {
        // Frames that tie, interleave, overlap, tie on several LSNs at
        // once, or lie wholly inside the other log's frame.
        let cases: [(&Frames, &Frames); 6] = [
            (&[(0, 4)], &[(3, 3)]),
            (&[(0, 5), (10, 2)], &[(2, 4), (11, 3)]),
            (&[(4, 2)], &[(0, 10)]),
            (&[(0, 10)], &[(4, 2), (7, 1)]),
            (&[(0, 1), (2, 1), (4, 1)], &[(1, 1), (3, 1), (5, 1)]),
            (&[(5, 3), (8, 3)], &[(5, 3), (8, 3)]),
        ];
        for (n, (root, group)) in cases.into_iter().enumerate() {
            assert_run_merge_is_record_merge(&format!("overlap-{n}"), root, group);
        }
        // And seeded random frame layouts, runs of 1–4 records.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        for seed in 0..40 {
            let mut log = || {
                let mut at = next(4);
                let frames: Vec<(u64, u64)> = (0..1 + next(5))
                    .map(|_| {
                        let frame = (at, 1 + next(4));
                        at += frame.1 + next(3);
                        frame
                    })
                    .collect();
                frames
            };
            let (root, group) = (log(), log());
            assert_run_merge_is_record_merge(&format!("random-{seed}"), &root, &group);
        }
    }

    #[test]
    fn republish_updates_and_deregister_removes() {
        let dir = temp_dir("listings");
        let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        let mut updated = listing(1);
        updated.category = 9;
        journal
            .append_batch(&[
                JournalRecord::Publish(listing(1)),
                JournalRecord::Publish(listing(3)),
                JournalRecord::Publish(updated.clone()),
                JournalRecord::Deregister(ServiceId::new(3)),
                JournalRecord::Deregister(ServiceId::new(99)), // unknown: no-op
            ])
            .unwrap();
        drop(journal);
        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.listings, vec![updated]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
