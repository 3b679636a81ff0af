//! Log shipping: an incremental reader over a *live* journal directory.
//!
//! A [`ShipCursor`] walks the segment files of a journal that another
//! writer (in the same process or another one) is still appending to,
//! handing out decoded records in LSN order — the read side of primary →
//! replica replication. Each log is tailed through the segment reader
//! recovery uses, which keeps what it has read past the last whole frame:
//! each segment is read once however small the batches asked for, and a
//! caught-up [`ShipCursor::next_batch`] reads only what was appended
//! since. A frame still landing is the reader's *incomplete* end, read
//! anew next call. A frame holds a whole commit and is shipped or refused
//! whole; a position inside one is reached by dropping the records
//! before it.
//!
//! The cursor merges one sub-cursor per log under the journal root: each
//! `group-NNN/` writer group's (see [`crate::group`]), and the root's own
//! if the directory had a single-directory past life. The root's log is
//! *sealed*: no writer appends to it again, so its end means finished,
//! not "caught up". A walk ends or pauses at:
//!
//! - **the live tail**: a segment ends with no successor; `next_batch`
//!   returns what it has, call again later;
//! - **a rotation**: a successor exists, and one more read of the current
//!   segment, begun after the successor was seen, reached its end (a
//!   writer creates the successor only after its last write to the
//!   segment it seals, so that read misses nothing): the cursor moves on;
//! - **compaction**: the requested LSN lies below the oldest surviving
//!   history, and [`ShipCursor::open`] fails with
//!   [`io::ErrorKind::NotFound`]; the follower must bootstrap from a
//!   snapshot instead.
//!
//! The cursor reads bytes the writer has `write(2)`-ed but possibly not
//! yet fsynced. Shipping such records is safe for replication: a record
//! that reaches a follower before the primary's fsync was never
//! acknowledged to any client, so a follower that applied it is merely
//! *ahead* of the acknowledged prefix, never divergent from it.
//!
//! # Gaps in the merged stream
//!
//! While the journal is healthy the merged stream is dense — the
//! allocator hands out contiguous LSNs and every claimed run lands in
//! some group. A crash can leave permanent interior gaps (see
//! [`crate::recovery`]). The cursor never guesses: an LSN `k` may be
//! skipped only when *every* live stream's next visible record is above
//! `k` — within one group LSNs strictly increase and writes land in file
//! order, so a later visible record proves `k` will never appear there —
//! and a skip only happens at the *start* of a batch, so every returned
//! batch is dense (`first_lsn + i`). A follower that requires density
//! (the replica pull loop does) sees the skip as `first_lsn != requested`
//! and falls back to re-seeding. One edge is accepted: if a group stays
//! idle forever after a crash, a gap can never be proven permanent and
//! the cursor holds position rather than risk skipping an in-flight
//! write.

use crate::record::JournalRecord;
use crate::segment::{
    list_group_dirs, list_segments, segment_file_name, SegmentEnd, SegmentReader,
    SEGMENT_HEADER_LEN,
};
use crate::snapshot::list_snapshots;
use std::collections::VecDeque;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One `next_batch` result: records `first_lsn .. first_lsn + records.len()`.
#[derive(Debug)]
pub struct ShippedBatch {
    /// LSN of `records[0]` (meaningful only when records is non-empty).
    pub first_lsn: u64,
    /// Decoded records in dense LSN order. Empty means "caught up".
    pub records: Vec<JournalRecord>,
}

/// A stateful reader positioned at an LSN inside a live journal: the
/// merge of one sub-cursor per log under the journal root.
#[derive(Debug)]
pub struct ShipCursor {
    root: PathBuf,
    /// Empty until the journal's first segment appears under `root`.
    subs: Vec<SubCursor>,
    /// LSN of the next record the merged stream will return.
    next_lsn: u64,
}

/// One log of the journal: its segment sequence, tailed in name order.
#[derive(Debug)]
struct SubCursor {
    dir: PathBuf,
    /// Records below this are not emitted: they are before the position
    /// the cursor was opened at.
    from_lsn: u64,
    /// The segment being read, once one has been located.
    reader: Option<SegmentReader>,
    /// Entries read from this stream, not yet emitted by the merge.
    buffer: VecDeque<(u64, JournalRecord)>,
    /// The frame read last, an LSN run on its way into `buffer`.
    frame: Vec<JournalRecord>,
    /// A sealed stream never grows; exhausted means finished, not
    /// "caught up", so it stops vetoing gap skips.
    sealed: bool,
}

fn corrupt(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl ShipCursor {
    /// Position a cursor so its next record is `from_lsn`.
    ///
    /// Errors with [`io::ErrorKind::NotFound`] when `from_lsn` precedes
    /// the oldest surviving history (compacted away): below some log's
    /// oldest segment, or below the newest snapshot and no longer the
    /// next record the logs hold. Errors with
    /// [`io::ErrorKind::InvalidData`] when `from_lsn` lies beyond the
    /// tail — above the newest snapshot, and no log holds a record at or
    /// above it or ends exactly at it: a follower asking for history this
    /// journal never wrote has diverged. A directory that holds no log
    /// yet is waited on at LSN 0; open the cursor after the writer, which
    /// creates every group's log before it returns.
    pub fn open(dir: impl Into<PathBuf>, from_lsn: u64) -> io::Result<ShipCursor> {
        let mut cursor = ShipCursor {
            root: dir.into(),
            subs: Vec::new(),
            next_lsn: from_lsn,
        };
        cursor.attach()?;
        let (head, _) = cursor.lowest_head(64, &mut vec![false; cursor.subs.len()])?;
        let snapshot_lsn = list_snapshots(&cursor.root)?
            .last()
            .map_or(0, |(lsn, _)| *lsn);
        // Where each log ends, once a read has hit its live tail.
        let mut tails = (cursor.subs.iter())
            .filter_map(|sub| sub.reader.as_ref())
            .map(|reader| reader.walk.next_lsn());
        if from_lsn < snapshot_lsn {
            // Every record below a snapshot had been written when it was
            // taken, so one the logs cannot show now is gone for good
            // (a sealed root leaves no segment name behind to say so).
            if head.map(|(_, lsn)| lsn) != Some(from_lsn) {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!(
                        "lsn {from_lsn} precedes the snapshot at {snapshot_lsn} and no log \
                         holds it any more; history was compacted"
                    ),
                ));
            }
        } else if from_lsn > snapshot_lsn && !tails.any(|end| end >= from_lsn) {
            return Err(corrupt(format!(
                "lsn {from_lsn} is beyond the tail of every log in {}",
                cursor.root.display()
            )));
        }
        Ok(cursor)
    }

    /// Open a sub-cursor on every log under the root.
    fn attach(&mut self) -> io::Result<()> {
        let root = (!list_segments(&self.root)?.is_empty()).then(|| (self.root.clone(), true));
        let groups = list_group_dirs(&self.root)?.into_iter();
        self.subs = (root.into_iter())
            .chain(groups.map(|(_, dir)| (dir, false)))
            .map(|(dir, sealed)| {
                let mut sub = SubCursor {
                    dir,
                    from_lsn: self.next_lsn,
                    reader: None,
                    buffer: VecDeque::new(),
                    frame: Vec::new(),
                    sealed,
                };
                sub.locate()?;
                Ok(sub)
            })
            .collect::<io::Result<_>>()?;
        Ok(())
    }

    /// LSN of the next record `next_batch` will return.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Segment bytes read so far, over every log.
    #[cfg(test)]
    fn bytes_read(&self) -> u64 {
        let reader = |sub: &SubCursor| sub.reader.as_ref().map_or(0, |r| r.bytes_read);
        self.subs.iter().map(reader).sum()
    }

    /// Refill empty buffers (up to `want` entries each), but not one whose
    /// log ran `dry` before: the stream with the lowest buffered head, and
    /// whether a live stream shows nothing — any missing LSN may be its
    /// in-flight write.
    fn lowest_head(
        &mut self,
        want: usize,
        dry: &mut [bool],
    ) -> io::Result<(Option<(usize, u64)>, bool)> {
        let mut blocked = false;
        let mut best: Option<(usize, u64)> = None;
        for (i, sub) in self.subs.iter_mut().enumerate() {
            if sub.buffer.is_empty() && !dry[i] {
                dry[i] = sub.fill(want)?;
            }
            match sub.buffer.front() {
                Some(&(lsn, _)) => {
                    if best.is_none_or(|(_, b)| lsn < b) {
                        best = Some((i, lsn));
                    }
                }
                None => blocked |= !sub.sealed,
            }
        }
        Ok((best, blocked))
    }

    /// Read up to `max_records` records appended at or after the cursor
    /// position, following segment rotations. An empty batch means the
    /// cursor is caught up with the writers' tails.
    pub fn next_batch(&mut self, max_records: usize) -> io::Result<ShippedBatch> {
        if self.subs.is_empty() {
            self.attach()?;
        }
        let mut records = Vec::new();
        let mut first_lsn = self.next_lsn;
        // A log found at its tail is not read again within the call: a
        // frame still landing there would be read anew every time.
        let mut dry = vec![false; self.subs.len()];
        while records.len() < max_records {
            let (best, blocked) = self.lowest_head(max_records.max(64), &mut dry)?;
            let Some((best, head)) = best else { break };
            if head < self.next_lsn {
                return Err(corrupt(format!(
                    "lsn {head} appeared twice across writer groups in {}",
                    self.subs[best].dir.display()
                )));
            }
            if head > self.next_lsn {
                if !records.is_empty() || blocked {
                    // Keep batches dense; and never skip a gap that a
                    // live stream could still fill.
                    break;
                }
                // Every stream's next record is above the gap: it is
                // permanently empty. Skip it at the batch boundary.
                self.next_lsn = head;
                first_lsn = head;
            }
            // Emit this stream's contiguous run.
            let sub = &mut self.subs[best];
            while records.len() < max_records {
                match sub.buffer.front() {
                    Some(&(lsn, _)) if lsn == self.next_lsn => {
                        let (_, record) = sub.buffer.pop_front().expect("front checked");
                        records.push(record);
                        self.next_lsn += 1;
                    }
                    _ => break,
                }
            }
        }
        Ok(ShippedBatch { first_lsn, records })
    }
}

/// The reader of segment `start` in `dir`; `None` while its header is
/// still in flight (a rotation under way, or crashed).
fn open_segment(dir: &Path, start: u64) -> io::Result<Option<SegmentReader>> {
    let path = dir.join(segment_file_name(start));
    if fs::metadata(&path)?.len() < SEGMENT_HEADER_LEN as u64 {
        return Ok(None);
    }
    match SegmentReader::open(&path)? {
        Some(reader) if reader.start_lsn == start => Ok(Some(reader)),
        _ => Err(corrupt(format!(
            "segment {} does not open with a header starting at {start}",
            path.display()
        ))),
    }
}

impl SubCursor {
    /// Find the segment that would hold `from_lsn`; the cursor stays
    /// unlocated while the directory holds no whole segment.
    fn locate(&mut self) -> io::Result<()> {
        let segments = list_segments(&self.dir)?;
        let Some((oldest, _)) = segments.first() else {
            return Ok(());
        };
        let Some((start, _)) = segments.iter().rfind(|(start, _)| *start <= self.from_lsn) else {
            // A log's first segment starts at 0 and only compaction
            // removes one, whichever group the missing LSNs belonged to.
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "lsn {} precedes the oldest segment of {} (starts at {oldest}); \
                     history was compacted",
                    self.from_lsn,
                    self.dir.display()
                ),
            ));
        };
        self.reader = open_segment(&self.dir, *start)?;
        Ok(())
    }

    /// Buffer entries at or after `from_lsn`, following rotations, until
    /// `want` or more were added (whole frames: the last may overshoot) or
    /// the log shows no more for now; returns whether it did the latter.
    fn fill(&mut self, want: usize) -> io::Result<bool> {
        if self.reader.is_none() {
            self.locate()?;
        }
        let Some(reader) = &mut self.reader else {
            return Ok(true);
        };
        let full = self.buffer.len() + want;
        // The next segment by name, once seen: a read of the current
        // segment begun after that sees everything it will ever hold.
        let mut successor: Option<u64> = None;
        while self.buffer.len() < full {
            if let Some(first) = reader.next_frame(&mut self.frame)? {
                let from_lsn = self.from_lsn;
                let frame = (first..).zip(self.frame.drain(..));
                self.buffer
                    .extend(frame.filter(|(lsn, _)| *lsn >= from_lsn));
                continue;
            }
            let path = self.dir.join(segment_file_name(reader.start_lsn));
            let at = reader.walk.next_lsn();
            match (reader.end, successor) {
                (SegmentEnd::Damaged(damage), _) => {
                    let what = damage.map_or("fails its checksum".into(), |d| d.to_string());
                    let what = format!("frame after lsn {at} in {} {what}", path.display());
                    return Err(corrupt(what));
                }
                // End of what this segment holds right now. Only a read
                // begun with the successor already in view proves the
                // segment finished: a batch and the rotation after it may
                // both land between an earlier read and the listing.
                (_, None) => {
                    successor = list_segments(&self.dir)?
                        .into_iter()
                        .map(|(start, _)| start)
                        .find(|start| *start > reader.start_lsn);
                    if successor.is_none() {
                        return Ok(true); // Live tail.
                    }
                }
                // Rotation seals segments on frame boundaries.
                (SegmentEnd::Incomplete, Some(_)) => {
                    let what = format!("sealed segment {} ends inside a frame", path.display());
                    return Err(corrupt(what));
                }
                // A successor whose header is not whole yet: stay on the
                // sealed segment and retry next call.
                (SegmentEnd::Clean, Some(start)) => {
                    let Some(mut next) = open_segment(&self.dir, start)? else {
                        return Ok(true);
                    };
                    next.bytes_read += reader.bytes_read;
                    *reader = next;
                    successor = None;
                }
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{split_frame, FrameSplit};
    use crate::group::GroupSet;
    use crate::journal::{Journal, JournalConfig};
    use crate::segment::READ_CHUNK;
    use crate::snapshot::write_snapshot;
    use wsrep_core::feedback::Feedback;
    use wsrep_core::id::{AgentId, ServiceId};
    use wsrep_core::time::Time;

    fn record(i: u64) -> JournalRecord {
        JournalRecord::Feedback(Feedback::scored(
            AgentId::new(i),
            ServiceId::new(i % 5),
            0.5,
            Time::new(i),
        ))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wsrep-journal-ship-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cursor_follows_live_appends() {
        let dir = temp_dir("live");
        let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        let mut cursor = ShipCursor::open(&dir, 0).unwrap();
        assert!(cursor.next_batch(100).unwrap().records.is_empty());

        journal
            .append_batch(&(0..7).map(record).collect::<Vec<_>>())
            .unwrap();
        let batch = cursor.next_batch(100).unwrap();
        assert_eq!(batch.first_lsn, 0);
        assert_eq!(batch.records.len(), 7);
        assert_eq!(batch.records[3], record(3));
        assert_eq!(cursor.next_lsn(), 7);

        // Caught up: empty batch, position unchanged.
        assert!(cursor.next_batch(100).unwrap().records.is_empty());
        assert_eq!(cursor.next_lsn(), 7);

        journal.append_batch(&[record(7)]).unwrap();
        let batch = cursor.next_batch(100).unwrap();
        assert_eq!(batch.first_lsn, 7);
        assert_eq!(batch.records, vec![record(7)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cursor_follows_rotation_and_respects_max_records() {
        let dir = temp_dir("rotate");
        let config = JournalConfig {
            max_segment_bytes: 200,
        };
        let mut journal = Journal::open(&dir, config).unwrap();
        for i in 0..40 {
            journal.append_batch(&[record(i)]).unwrap();
        }
        assert!(journal.stats().segments > 2, "rotation must have happened");

        let mut cursor = ShipCursor::open(&dir, 0).unwrap();
        let mut got = Vec::new();
        loop {
            let batch = cursor.next_batch(6).unwrap();
            if batch.records.is_empty() {
                break;
            }
            assert!(batch.records.len() <= 6);
            assert_eq!(batch.first_lsn, got.len() as u64);
            got.extend(batch.records);
        }
        assert_eq!(got.len(), 40);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(*r, record(i as u64), "lsn {i}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A replica far behind pulls a long log in small batches: what one
    /// call read and did not hand out is kept for the next, not read
    /// again.
    #[test]
    fn a_catching_up_cursor_reads_each_segment_once() {
        let dir = temp_dir("read-once");
        let config = JournalConfig {
            max_segment_bytes: 3 * READ_CHUNK as u64,
        };
        let mut journal = Journal::open(&dir, config).unwrap();
        let mut lsn = 0;
        // Commits of 400 records, and one frame larger than a read.
        for commit in 0..320 {
            let len = if commit == 20 { 30_000 } else { 400 };
            let records: Vec<JournalRecord> = (lsn..lsn + len).map(record).collect();
            journal.append_batch(&records).unwrap();
            lsn += len;
        }
        assert!(journal.stats().segments >= 3, "several segments");
        let log_bytes = journal.stats().bytes_appended;
        assert!(log_bytes > 6 * READ_CHUNK as u64, "several reads a segment");

        let mut cursor = ShipCursor::open(&dir, 0).unwrap();
        let mut next = 0;
        loop {
            let batch = cursor.next_batch(100).unwrap();
            if batch.records.is_empty() {
                break;
            }
            assert_eq!(batch.first_lsn, next);
            for (i, got) in batch.records.iter().enumerate() {
                assert_eq!(*got, record(next + i as u64));
            }
            next += batch.records.len() as u64;
        }
        assert_eq!(next, lsn);
        let read = cursor.bytes_read();
        assert!(
            (log_bytes..2 * log_bytes).contains(&read),
            "read {read} bytes of a {log_bytes}-byte log"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_damaged_frame_ships_none_of_its_records() {
        use crate::frame::write_frame;
        let dir = temp_dir("damaged-frame");
        let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        journal.append_batch(&[record(0), record(1)]).unwrap();
        drop(journal);
        // A frame whose checksum holds and whose third record does not
        // decode, the way no writer leaves one.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mut payload = crate::record::tests::payload(&[record(2), record(3)]);
        payload.push(0x7F);
        write_frame(&mut bytes, &payload);
        fs::write(&path, &bytes).unwrap();

        let err = ShipCursor::open(&dir, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("undecodable record at lsn 4"));
        // Its records are never staged: segment.rs's
        // `a_damaged_frame_yields_none_of_its_records`, and (a') in
        // tests/commit_frames.rs through the cursor.
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cursor_opens_mid_log_and_mid_segment() {
        let config = JournalConfig {
            max_segment_bytes: 300,
        };
        // A log on its own, then one and three writer groups.
        for groups in [0usize, 1, 3] {
            let dir = temp_dir(&format!("mid-{groups}"));
            if groups == 0 {
                let mut journal = Journal::open(&dir, config).unwrap();
                for i in 0..30 {
                    journal.append_batch(&[record(i)]).unwrap();
                }
            } else {
                let set = GroupSet::open(&dir, groups, config, 0).unwrap();
                for i in 0..30 {
                    set.append_batch(i as usize % groups, &[record(i)]).unwrap();
                }
            }
            for from in [0u64, 1, 13, 29, 30] {
                let mut cursor = ShipCursor::open(&dir, from).unwrap();
                let batch = cursor.next_batch(1000).unwrap();
                assert_eq!(batch.records.len() as u64, 30 - from, "from {from}");
                if from < 30 {
                    assert_eq!(batch.first_lsn, from);
                    assert_eq!(batch.records[0], record(from));
                }
            }
            // Beyond the tail: divergence, whatever the layout.
            let err = ShipCursor::open(&dir, 31).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{groups} groups");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn compacted_history_refuses_to_open() {
        let dir = temp_dir("compacted");
        let config = JournalConfig {
            max_segment_bytes: 200,
        };
        let mut journal = Journal::open(&dir, config).unwrap();
        for i in 0..30 {
            journal.append_batch(&[record(i)]).unwrap();
        }
        write_snapshot(&dir, 20, &[], &[]).unwrap();
        let report = journal.compact(20).unwrap();
        assert!(report.segments_removed >= 1);
        let err = ShipCursor::open(&dir, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        // Everything at or after the oldest surviving segment still ships.
        let oldest = crate::segment::list_segments(&dir).unwrap()[0].0;
        let mut cursor = ShipCursor::open(&dir, oldest).unwrap();
        let batch = cursor.next_batch(1000).unwrap();
        assert_eq!(batch.first_lsn, oldest);
        assert_eq!(batch.records.len() as u64, 30 - oldest);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_directory_at_lsn_zero_waits_for_the_journal() {
        let dir = temp_dir("empty");
        fs::create_dir_all(&dir).unwrap();
        let mut cursor = ShipCursor::open(&dir, 0).unwrap();
        assert!(cursor.next_batch(10).unwrap().records.is_empty());
        let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        journal.append_batch(&[record(0)]).unwrap();
        assert_eq!(cursor.next_batch(10).unwrap().records, vec![record(0)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merged_cursor_interleaves_groups_into_one_dense_stream() {
        let dir = temp_dir("merged");
        let set = GroupSet::open(&dir, 3, JournalConfig::default(), 0).unwrap();
        // Spray 30 single-record batches across groups out of order.
        for i in 0..30u64 {
            set.append_batch((i % 3) as usize, &[record(i)]).unwrap();
        }
        let mut cursor = ShipCursor::open(&dir, 0).unwrap();
        let mut got = Vec::new();
        loop {
            let batch = cursor.next_batch(7).unwrap();
            if batch.records.is_empty() {
                break;
            }
            assert_eq!(batch.first_lsn, got.len() as u64, "batches stay dense");
            got.extend(batch.records);
        }
        assert_eq!(got.len(), 30);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(*r, record(i as u64), "lsn {i}");
        }
        assert_eq!(cursor.next_lsn(), 30);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merged_cursor_follows_live_appends_and_waits_for_stragglers() {
        let dir = temp_dir("merged-live");
        let set = GroupSet::open(&dir, 2, JournalConfig::default(), 0).unwrap();
        let mut cursor = ShipCursor::open(&dir, 0).unwrap();
        assert!(cursor.next_batch(100).unwrap().records.is_empty());

        // Group 1 claims LSN 0 but its write has not landed yet; group 0
        // writes LSN 1. The cursor must not skip LSN 0.
        let first = set.allocator().allocate(1, 1);
        assert_eq!(first, 0);
        set.append_batch(0, &[record(1)]).unwrap();
        let batch = cursor.next_batch(100).unwrap();
        assert!(
            batch.records.is_empty(),
            "must hold for the in-flight record at LSN 0"
        );

        // The straggler lands: both records ship in LSN order.
        set.lock(1).append_batch_at(0, &[record(0)]).unwrap();
        set.allocator().complete(1);
        let batch = cursor.next_batch(100).unwrap();
        assert_eq!(batch.first_lsn, 0);
        assert_eq!(batch.records, vec![record(0), record(1)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merged_cursor_reads_migrated_root_then_groups() {
        let dir = temp_dir("merged-migrated");
        {
            let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
            journal
                .append_batch(&(0..5).map(record).collect::<Vec<_>>())
                .unwrap();
        }
        let set = GroupSet::open(&dir, 2, JournalConfig::default(), 0).unwrap();
        for i in 5..12u64 {
            set.append_batch((i % 2) as usize, &[record(i)]).unwrap();
        }
        let mut cursor = ShipCursor::open(&dir, 0).unwrap();
        let mut got = Vec::new();
        loop {
            let batch = cursor.next_batch(4).unwrap();
            if batch.records.is_empty() {
                break;
            }
            got.extend(batch.records);
        }
        assert_eq!(got.len(), 12, "root records then group records");
        for (i, r) in got.iter().enumerate() {
            assert_eq!(*r, record(i as u64), "lsn {i}");
        }
        // Positioning mid-way through the sealed root also works.
        let mut cursor = ShipCursor::open(&dir, 3).unwrap();
        let batch = cursor.next_batch(100).unwrap();
        assert_eq!(batch.first_lsn, 3);
        assert_eq!(batch.records.len(), 9);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merged_cursor_rotates_within_groups() {
        let dir = temp_dir("merged-rotate");
        let config = JournalConfig {
            max_segment_bytes: 160,
        };
        let set = GroupSet::open(&dir, 2, config, 0).unwrap();
        for i in 0..40u64 {
            set.append_batch((i % 2) as usize, &[record(i)]).unwrap();
        }
        assert!(set.stats().segments > 4, "rotation must have happened");
        let mut cursor = ShipCursor::open(&dir, 0).unwrap();
        let batch = cursor.next_batch(1000).unwrap();
        assert_eq!(batch.records.len(), 40);
        for (i, r) in batch.records.iter().enumerate() {
            assert_eq!(*r, record(i as u64), "lsn {i}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merged_cursor_skips_a_proven_permanent_gap_at_batch_start() {
        let dir = temp_dir("merged-gap");
        let set = GroupSet::open(&dir, 2, JournalConfig::default(), 0).unwrap();
        set.append_batch(0, &[record(0)]).unwrap(); // LSN 0
        set.append_batch(1, &[record(1)]).unwrap(); // LSN 1 (will be torn)
        set.append_batch(0, &[record(2)]).unwrap(); // LSN 2
        set.append_batch(1, &[record(3)]).unwrap(); // LSN 3
        drop(set);
        // Tear group 1's record at LSN 1 out of its log, leaving a gap…
        let group1 = dir.join(crate::segment::group_dir_name(1));
        let (_, path) = list_segments(&group1).unwrap().pop().unwrap();
        let bytes = fs::read(&path).unwrap();
        let scan = crate::segment::scan_segment_entries(&path)
            .unwrap()
            .unwrap();
        assert_eq!(scan.entries.len(), 2);
        // Keep header + drop the first frame by rewriting the file with
        // only the second frame's bytes — a gap with a visible successor.
        let first_frame_end = {
            let mut offset = SEGMENT_HEADER_LEN;
            if let FrameSplit::Frame { frame_len } = split_frame(&bytes[offset..]) {
                offset += frame_len;
            }
            offset
        };
        let mut rewritten = bytes[..SEGMENT_HEADER_LEN].to_vec();
        rewritten.extend_from_slice(&bytes[first_frame_end..]);
        fs::write(&path, &rewritten).unwrap();

        let mut cursor = ShipCursor::open(&dir, 0).unwrap();
        let batch = cursor.next_batch(100).unwrap();
        assert_eq!(batch.first_lsn, 0);
        assert_eq!(batch.records, vec![record(0)], "stops before the gap");
        // Both streams now show records above LSN 1: the gap is provably
        // permanent and the next batch skips it — density broken only at
        // the batch boundary, where a replica detects and re-seeds.
        let batch = cursor.next_batch(100).unwrap();
        assert_eq!(batch.first_lsn, 2);
        assert_eq!(batch.records, vec![record(2), record(3)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merged_compacted_history_refuses_to_open() {
        let dir = temp_dir("merged-compacted");
        let config = JournalConfig {
            max_segment_bytes: 160,
        };
        let set = GroupSet::open(&dir, 2, config, 0).unwrap();
        for i in 0..40u64 {
            set.append_batch((i % 2) as usize, &[record(i)]).unwrap();
        }
        write_snapshot(&dir, 30, &[], &[]).unwrap();
        let report = set.compact(30).unwrap();
        assert!(report.segments_removed >= 1);
        let err = ShipCursor::open(&dir, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        // At/after the snapshot still ships.
        let mut cursor = ShipCursor::open(&dir, 30).unwrap();
        let batch = cursor.next_batch(1000).unwrap();
        assert_eq!(batch.first_lsn, 30);
        assert_eq!(batch.records.len(), 10);
        fs::remove_dir_all(&dir).unwrap();
    }
}
