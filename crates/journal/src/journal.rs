//! The append side: group-committed writes to the active segment.
//!
//! A [`Journal`] owns the active segment file. [`Journal::append_batch`]
//! encodes a whole batch of records into one frame, issues a single
//! `write` and a single `fdatasync` — **group commit** — so durability
//! costs one disk round-trip and one 8-byte frame header per batch, not
//! per record. When the batch returns, every record in it is on stable
//! storage.
//!
//! The frame is the unit of tearing as well: a crash mid-append leaves
//! none of the batch's records, never a prefix of them. Nothing
//! acknowledged is lost by that, since a batch is acknowledged only after
//! its `fdatasync` returned.
//!
//! A journal may share its LSN space with others: a writer group's
//! log takes each batch's first LSN from its partition's
//! [`LsnAllocator`](crate::group::LsnAllocator) through
//! [`Journal::append_batch_at`], and states it at the head of the batch's
//! frame exactly when it is not the LSN this log would have reached by
//! itself (the frame rule, [`crate::segment::LsnWalk`]). A log written
//! alone ([`Journal::append_batch`]) never states one.

use crate::faults::{Fault, IoOp, IoPolicy};
use crate::frame::{begin_frame, end_frame, FRAME_HEADER_LEN};
use crate::record::{put_payload, JournalRecord};
use crate::recovery::LogStream;
use crate::segment::{
    list_segments, segment_file_name, segment_header, FORMAT_VERSION, LSN_MARKER,
    SEGMENT_HEADER_LEN,
};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Journal tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Rotate to a fresh segment once the active one exceeds this size.
    pub max_segment_bytes: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            // Small enough that compaction has segments to reclaim under
            // sustained load, large enough that rotation is rare.
            max_segment_bytes: 8 * 1024 * 1024,
        }
    }
}

/// A batch's open frame is closed, and another begun, once its payload
/// has reached this size: far under [`crate::frame::MAX_PAYLOAD_LEN`]
/// whatever one more record adds, and a bound on what a reader must hold
/// to see one whole frame.
pub const FRAME_SPLIT_BYTES: usize = 1 << 20;

/// Frame one commit's `records` onto `out`, behind `LSN_MARKER ‖ lsn` when
/// `stated` is `Some(lsn)`, split past [`FRAME_SPLIT_BYTES`]: each frame's
/// payload is one [`put_payload`], so every frame decodes on its own.
pub fn frame_commit<'a>(
    out: &mut Vec<u8>,
    stated: Option<u64>,
    records: impl IntoIterator<Item = &'a JournalRecord>,
) {
    let mut records = records.into_iter().peekable();
    let mut frame_start = begin_frame(out);
    if let Some(lsn) = stated {
        out.push(LSN_MARKER);
        out.extend_from_slice(&lsn.to_le_bytes());
    }
    loop {
        let full = frame_start + FRAME_HEADER_LEN + FRAME_SPLIT_BYTES;
        put_payload(out, &mut records, full);
        end_frame(out, frame_start);
        if records.peek().is_none() {
            return;
        }
        frame_start = begin_frame(out);
    }
}

/// What one [`Journal::append_batch`] call made durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendReceipt {
    /// LSN of the batch's first record.
    pub first_lsn: u64,
    /// Records in the batch.
    pub count: u64,
    /// Wall time of the `fdatasync` for this batch.
    pub fsync_nanos: u64,
}

/// Operational counters of a journal writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalStats {
    /// Segment files currently on disk.
    pub segments: u64,
    /// Bytes appended by this writer since open.
    pub bytes_appended: u64,
    /// Wall time of the most recent fsync.
    pub last_fsync_nanos: u64,
    /// Group commits (fsyncs) issued since open.
    pub commits: u64,
}

/// An open, appendable write-ahead log.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    config: JournalConfig,
    file: File,
    segment_start: u64,
    segment_bytes: u64,
    next_lsn: u64,
    segments: u64,
    bytes_appended: u64,
    last_fsync_nanos: u64,
    commits: u64,
    /// The active segment was written by an earlier build's format: seal
    /// it and rotate before appending, so no segment mixes two formats.
    stale: bool,
    /// The batch being framed, kept between appends for its capacity.
    buf: Vec<u8>,
    policy: Option<Arc<dyn IoPolicy>>,
}

/// Make the files freshly created or renamed in `dir` durable; best
/// effort where a directory cannot be fsynced.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

fn create_segment(dir: &Path, start_lsn: u64) -> io::Result<File> {
    let path = dir.join(segment_file_name(start_lsn));
    let mut file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(&path)?;
    file.write_all(&segment_header(start_lsn))?;
    file.sync_data()?;
    sync_dir(dir);
    Ok(file)
}

impl Journal {
    /// Open (or create) a journal in `dir` and position the writer after
    /// the last durable record, in one read of the log. A crashed append's
    /// torn tail is truncated and a crashed rotation's headerless final
    /// segment deleted; any other damage is [`io::ErrorKind::InvalidData`]
    /// and leaves the files as they lie, since the log may hold
    /// acknowledged history.
    pub fn open(dir: impl Into<PathBuf>, config: JournalConfig) -> io::Result<Journal> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Journal::resume(LogStream::open(&dir, u64::MAX)?, config)
    }

    /// Position a writer at the end of a log the recovery pass has read,
    /// once [`LogStream::finish`] has repaired it. A final segment in an
    /// earlier build's format is sealed by the first append, or re-headed
    /// while it holds no frame (its successor would take its name).
    pub(crate) fn resume(log: LogStream, config: JournalConfig) -> io::Result<Journal> {
        let log = log.finish()?;
        let (file, stale) = match (log.segments.last(), &log.reader) {
            (Some((start, path)), Some(last)) => {
                let stale = last.walk.version() != FORMAT_VERSION;
                let framed = last.valid_len > SEGMENT_HEADER_LEN as u64;
                if stale && !framed {
                    let mut file = OpenOptions::new().write(true).open(path)?;
                    file.write_all(&segment_header(*start))?;
                    file.sync_data()?;
                }
                (OpenOptions::new().append(true).open(path)?, stale && framed)
            }
            _ => (create_segment(&log.dir, 0)?, false),
        };
        let last = log.reader.as_ref();
        Ok(Journal {
            segment_start: log.segments.last().map_or(0, |(start, _)| *start),
            segment_bytes: last.map_or(SEGMENT_HEADER_LEN as u64, |last| last.valid_len),
            next_lsn: last.map_or(0, |last| last.walk.next_lsn()),
            segments: log.segments.len().max(1) as u64,
            dir: log.dir,
            config,
            file,
            bytes_appended: 0,
            last_fsync_nanos: 0,
            commits: 0,
            stale,
            buf: Vec::new(),
            policy: None,
        })
    }

    /// Install a fault-injection policy, consulted before every append,
    /// fsync and rotation from now on. Testing and chaos harness only;
    /// without one the write path is untouched.
    pub fn set_io_policy(&mut self, policy: Arc<dyn IoPolicy>) {
        self.policy = Some(policy);
    }

    /// Consult the installed fault policy for `op`. Delays are served in
    /// place, errors are returned, and a torn-write fault surfaces as
    /// `Ok(Some(keep_bytes))` for the append path to honor.
    fn consult(&self, op: IoOp) -> io::Result<Option<usize>> {
        let Some(policy) = &self.policy else {
            return Ok(None);
        };
        match policy.inject(op) {
            None => Ok(None),
            Some(Fault::Delay(delay)) => {
                std::thread::sleep(delay);
                Ok(None)
            }
            Some(Fault::Torn { keep }) if op == IoOp::Append => Ok(Some(keep)),
            Some(fault) => Err(fault.into_error(op)),
        }
    }

    /// After a failed append: drop the unacknowledged bytes (best
    /// effort) so they cannot ride a later batch's fsync into the
    /// acknowledged log.
    fn restore_segment_len(&mut self) {
        let _ = self.file.set_len(self.segment_bytes);
        let _ = self.file.seek(io::SeekFrom::Start(self.segment_bytes));
    }

    /// LSN the next appended record will get.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Start LSN of the active segment.
    pub fn active_segment_start(&self) -> u64 {
        self.segment_start
    }

    /// Current operational counters.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            segments: self.segments,
            bytes_appended: self.bytes_appended,
            last_fsync_nanos: self.last_fsync_nanos,
            commits: self.commits,
        }
    }

    /// Group-commit a batch at the LSN this log has reached: one buffered
    /// write, one `fdatasync`.
    ///
    /// When this returns `Ok`, every record of the batch is durable. An
    /// empty batch is a no-op that costs nothing.
    pub fn append_batch(&mut self, records: &[JournalRecord]) -> io::Result<AppendReceipt> {
        self.append_batch_at(self.next_lsn, records)
    }

    /// Group-commit a batch whose first record has LSN `first_lsn` (the
    /// batch occupies `[first_lsn, first_lsn + n)`) — for a log whose
    /// LSNs are allocated outside it. `first_lsn` must not go backwards;
    /// where it skips ahead of this log, the batch's frame states it.
    ///
    /// The batch is one frame, so a crash leaves all of it or none; one
    /// that outgrows [`FRAME_SPLIT_BYTES`] continues in further frames of
    /// the same write, and a crash may then keep a prefix of those.
    pub fn append_batch_at(
        &mut self,
        first_lsn: u64,
        records: &[JournalRecord],
    ) -> io::Result<AppendReceipt> {
        self.append_parts_at(first_lsn, &[records])
    }

    /// [`Journal::append_batch_at`] for a batch held in parts, such as the
    /// submissions a writer took off its queue at once: their records, in
    /// order, are one commit, framed and synced as one, and never copied
    /// into one buffer first.
    pub(crate) fn append_parts_at<P: AsRef<[JournalRecord]>>(
        &mut self,
        first_lsn: u64,
        parts: &[P],
    ) -> io::Result<AppendReceipt> {
        assert!(
            first_lsn >= self.next_lsn,
            "LSN {first_lsn} would rewind a journal already at {}",
            self.next_lsn
        );
        let count = parts.iter().map(|part| part.as_ref().len() as u64).sum();
        if count == 0 {
            return Ok(AppendReceipt {
                first_lsn,
                count: 0,
                fsync_nanos: 0,
            });
        }
        // Never rotate an empty segment: there is nothing to seal, and
        // the successor would collide with the active segment's name.
        let full = self.segment_bytes >= self.config.max_segment_bytes
            && self.segment_bytes > SEGMENT_HEADER_LEN as u64;
        if full || self.stale {
            self.rotate_to(first_lsn)?;
        }
        let torn = self.consult(IoOp::Append)?;
        // Framed in place: no per-record scratch Vec, no second copy.
        self.buf.clear();
        let stated = (first_lsn != self.next_lsn).then_some(first_lsn);
        frame_commit(&mut self.buf, stated, parts.iter().flat_map(AsRef::as_ref));
        if let Some(keep) = torn {
            // Land the partial bytes the way a crash mid-`write` would,
            // then fail: the tail garbage stays for reopen to repair.
            let keep = keep.min(self.buf.len());
            let _ = self.file.write_all(&self.buf[..keep]);
            let _ = self.file.sync_data();
            return Err(Fault::Torn { keep }.into_error(IoOp::Append));
        }
        if let Err(err) = self.file.write_all(&self.buf) {
            self.restore_segment_len();
            return Err(err);
        }
        if let Err(err) = self.consult(IoOp::Fsync) {
            self.restore_segment_len();
            return Err(err);
        }
        let sync_started = Instant::now();
        if let Err(err) = self.file.sync_data() {
            self.restore_segment_len();
            return Err(err);
        }
        let fsync_nanos = sync_started.elapsed().as_nanos() as u64;

        self.segment_bytes += self.buf.len() as u64;
        self.bytes_appended += self.buf.len() as u64;
        self.next_lsn = first_lsn + count;
        self.last_fsync_nanos = fsync_nanos;
        self.commits += 1;
        Ok(AppendReceipt {
            first_lsn,
            count,
            fsync_nanos,
        })
    }

    /// Close the active segment and start a fresh one whose header says
    /// `start_lsn` — the LSN of the first record it will hold, which
    /// therefore never has to state it.
    fn rotate_to(&mut self, start_lsn: u64) -> io::Result<()> {
        self.consult(IoOp::Rotate)?;
        self.file.sync_data()?;
        self.file = create_segment(&self.dir, start_lsn)?;
        self.segment_start = start_lsn;
        self.segment_bytes = SEGMENT_HEADER_LEN as u64;
        self.next_lsn = start_lsn;
        self.stale = false;
        self.segments += 1;
        Ok(())
    }

    /// Drop segments and stale snapshots fully covered by a snapshot at
    /// `covered_lsn`, then refresh the segment counter.
    pub fn compact(&mut self, covered_lsn: u64) -> io::Result<crate::compact::CompactReport> {
        let report = crate::compact::compact_dir(&self.dir, covered_lsn)?;
        self.segments = list_segments(&self.dir)?.len() as u64;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::payload;
    use crate::segment::scan_segment_entries;
    use wsrep_core::feedback::Feedback;
    use wsrep_core::id::{AgentId, ServiceId};
    use wsrep_core::time::Time;

    fn record(i: u64) -> JournalRecord {
        JournalRecord::Feedback(Feedback::scored(
            AgentId::new(i),
            ServiceId::new(i % 3),
            0.5,
            Time::new(i),
        ))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wsrep-journal-writer-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn all_entries(dir: &Path) -> Vec<(u64, JournalRecord)> {
        let mut out = Vec::new();
        for (_, path) in list_segments(dir).unwrap() {
            out.extend(scan_segment_entries(&path).unwrap().unwrap().entries);
        }
        out
    }

    fn all_records(dir: &Path) -> Vec<JournalRecord> {
        all_entries(dir).into_iter().map(|(_, r)| r).collect()
    }

    #[test]
    fn append_then_reopen_resumes_the_lsn() {
        let dir = temp_dir("resume");
        {
            let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
            let receipt = journal
                .append_batch(&[record(0), record(1), record(2)])
                .unwrap();
            assert_eq!(receipt.first_lsn, 0);
            assert_eq!(receipt.count, 3);
            assert_eq!(journal.next_lsn(), 3);
        }
        {
            let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
            assert_eq!(journal.next_lsn(), 3);
            journal.append_batch(&[record(3)]).unwrap();
        }
        let records = all_records(&dir);
        assert_eq!(records.len(), 4);
        assert_eq!(records[3], record(3));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_spreads_records_over_segments() {
        let dir = temp_dir("rotate");
        let config = JournalConfig {
            max_segment_bytes: 256,
        };
        let mut journal = Journal::open(&dir, config).unwrap();
        for i in 0..40 {
            journal.append_batch(&[record(i)]).unwrap();
        }
        assert!(
            journal.stats().segments > 1,
            "256-byte cap must force rotation"
        );
        assert_eq!(all_records(&dir).len(), 40);
        // Dense LSNs: each segment starts where the previous ended.
        let mut expected_start = 0;
        for (start, path) in list_segments(&dir).unwrap() {
            assert_eq!(start, expected_start);
            expected_start += scan_segment_entries(&path).unwrap().unwrap().entries.len() as u64;
        }
        assert_eq!(expected_start, 40);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Cut `cut` bytes off the end of the log's last segment.
    fn tear_tail(dir: &Path, cut: u64) {
        let (_, path) = list_segments(dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - cut).unwrap();
    }

    #[test]
    fn torn_final_tail_is_truncated_on_open() {
        // A commit is one frame: torn, none of its five records is left.
        let dir = temp_dir("torn-tail");
        {
            let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
            journal.append_batch(&[record(0), record(1)]).unwrap();
            journal
                .append_batch(&(2..7).map(record).collect::<Vec<_>>())
                .unwrap();
        }
        tear_tail(&dir, 4);
        let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert_eq!(journal.next_lsn(), 2, "torn commit dropped whole");
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let whole_commit = 8 + 2 * payload(&[record(0)]).len();
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            (SEGMENT_HEADER_LEN + whole_commit) as u64,
            "truncated to the frame boundary"
        );
        journal.append_batch(&[record(2)]).unwrap();
        assert_eq!(all_records(&dir), (0..3).map(record).collect::<Vec<_>>());
        fs::remove_dir_all(&dir).unwrap();

        // One record a commit: the same tear costs the last record alone.
        let dir = temp_dir("torn-tail-single");
        {
            let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
            for i in 0..5 {
                journal.append_batch(&[record(i)]).unwrap();
            }
        }
        tear_tail(&dir, 4);
        let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert_eq!(journal.next_lsn(), 4, "torn record dropped");
        journal.append_batch(&[record(4)]).unwrap();
        assert_eq!(all_records(&dir), (0..5).map(record).collect::<Vec<_>>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_middle_segment_refuses_to_open() {
        let dir = temp_dir("torn-middle");
        let config = JournalConfig {
            max_segment_bytes: 128,
        };
        {
            let mut journal = Journal::open(&dir, config).unwrap();
            for i in 0..20 {
                journal.append_batch(&[record(i)]).unwrap();
            }
            assert!(journal.stats().segments >= 3);
        }
        let segments = list_segments(&dir).unwrap();
        let (_, middle) = &segments[segments.len() / 2];
        let len = fs::metadata(middle).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(middle)
            .unwrap()
            .set_len(len - 2)
            .unwrap();
        let err = Journal::open(&dir, config).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn headerless_final_segment_is_discarded() {
        let dir = temp_dir("headerless");
        {
            let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
            journal.append_batch(&[record(0)]).unwrap();
        }
        // Simulate a crash during rotation: the new segment file exists
        // but its header never made it to disk.
        fs::write(dir.join(segment_file_name(1)), b"WS").unwrap();
        let journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert_eq!(journal.next_lsn(), 1);
        assert_eq!(journal.stats().segments, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_batch_is_free() {
        let dir = temp_dir("empty");
        let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        let receipt = journal.append_batch(&[]).unwrap();
        assert_eq!(receipt.count, 0);
        assert_eq!(journal.stats().commits, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    fn tagged_lsns(dir: &Path) -> Vec<u64> {
        all_entries(dir).into_iter().map(|(lsn, _)| lsn).collect()
    }

    #[test]
    fn tagged_journal_persists_sparse_lsns_and_resumes() {
        let dir = temp_dir("tagged-resume");
        {
            let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
            journal.append_batch_at(2, &[record(2), record(3)]).unwrap();
            // LSNs 4..7 went to other groups.
            journal.append_batch_at(7, &[record(7)]).unwrap();
            assert_eq!(journal.next_lsn(), 8);
        }
        {
            let journal = Journal::open(&dir, JournalConfig::default()).unwrap();
            assert_eq!(journal.next_lsn(), 8, "resumes past the highest LSN");
        }
        assert_eq!(tagged_lsns(&dir), vec![2, 3, 7]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tagged_rotation_names_segments_by_incoming_lsn() {
        let dir = temp_dir("tagged-rotate");
        let config = JournalConfig {
            max_segment_bytes: 128,
        };
        let mut journal = Journal::open(&dir, config).unwrap();
        let mut lsn = 0;
        for _ in 0..20 {
            journal.append_batch_at(lsn, &[record(lsn)]).unwrap();
            lsn += 3; // sparse: two of every three LSNs live elsewhere
        }
        assert!(journal.stats().segments > 1);
        // Every segment's name is a lower bound on its records.
        for (start, path) in list_segments(&dir).unwrap() {
            let scan = scan_segment_entries(&path).unwrap().unwrap();
            for (lsn, _) in &scan.entries {
                assert!(*lsn >= start);
            }
        }
        assert_eq!(tagged_lsns(&dir).len(), 20);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tagged_torn_tail_is_truncated_on_open() {
        // A torn commit that stated its LSN is dropped whole, statement
        // and all: the log resumes where the commit before it ended.
        let dir = temp_dir("tagged-torn");
        {
            let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
            journal.append_batch_at(3, &[record(3)]).unwrap();
            journal
                .append_batch_at(10, &(10..15).map(record).collect::<Vec<_>>())
                .unwrap();
        }
        tear_tail(&dir, 4);
        let journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert_eq!(journal.next_lsn(), 4, "torn commit dropped whole");
        assert_eq!(tagged_lsns(&dir), vec![3]);
        drop(journal);
        fs::remove_dir_all(&dir).unwrap();

        // One record a commit, each stating its LSN: four of five stay.
        let dir = temp_dir("tagged-torn-single");
        {
            let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
            for lsn in [10, 12, 14, 16, 18] {
                journal.append_batch_at(lsn, &[record(lsn)]).unwrap();
            }
        }
        tear_tail(&dir, 4);
        let journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert_eq!(journal.next_lsn(), 17, "torn record dropped");
        assert_eq!(tagged_lsns(&dir), vec![10, 12, 14, 16]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_append_error_rejects_the_batch_and_leaves_the_log_clean() {
        use crate::faults::{Fault, FaultScript, IoOp};
        let dir = temp_dir("inject-enospc");
        let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        let script = std::sync::Arc::new(FaultScript::new());
        script.push_after(IoOp::Append, 1, Fault::enospc());
        journal.set_io_policy(script.clone());

        journal.append_batch(&[record(0)]).unwrap();
        let err = journal.append_batch(&[record(1)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(journal.next_lsn(), 1, "rejected batch claims no LSNs");
        assert_eq!(script.injected(), 1);

        // The log is untouched by the failure: a retry lands cleanly and
        // recovery sees exactly the acknowledged records.
        journal.append_batch(&[record(1)]).unwrap();
        drop(journal);
        assert_eq!(all_records(&dir), vec![record(0), record(1)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_torn_write_is_repaired_on_reopen() {
        use crate::faults::{Fault, FaultScript, IoOp};
        let dir = temp_dir("inject-torn");
        let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        let script = std::sync::Arc::new(FaultScript::new());
        script.push_after(IoOp::Append, 1, Fault::Torn { keep: 5 });
        journal.set_io_policy(script);

        journal.append_batch(&[record(0), record(1)]).unwrap();
        journal.append_batch(&[record(2)]).unwrap_err();
        drop(journal);

        // The partial frame is on disk; reopen truncates it away and the
        // acknowledged prefix survives untouched.
        let journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert_eq!(journal.next_lsn(), 2);
        drop(journal);
        assert_eq!(all_records(&dir), vec![record(0), record(1)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_fsync_failure_drops_the_unacknowledged_bytes() {
        use crate::faults::{Fault, FaultScript, IoOp};
        let dir = temp_dir("inject-fsync");
        let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        let script = std::sync::Arc::new(FaultScript::new());
        script.push(IoOp::Fsync, Fault::Error(io::ErrorKind::Other));
        journal.set_io_policy(script);

        journal.append_batch(&[record(0)]).unwrap_err();
        // The written-but-never-synced frame was truncated away, so the
        // next batch cannot smuggle it into the acknowledged log.
        journal.append_batch(&[record(7)]).unwrap();
        drop(journal);
        let records = all_records(&dir);
        assert_eq!(records, vec![record(7)], "rejected batch never surfaces");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_rotate_failure_surfaces_before_the_write() {
        use crate::faults::{Fault, FaultScript, IoOp};
        let dir = temp_dir("inject-rotate");
        // A 1-byte cap forces a rotation before every append.
        let config = JournalConfig {
            max_segment_bytes: 1,
        };
        let mut journal = Journal::open(&dir, config).unwrap();
        let script = std::sync::Arc::new(FaultScript::new());
        script.push(IoOp::Rotate, Fault::enospc());
        journal.set_io_policy(script);

        // The empty initial segment is never rotated, so the first
        // append proceeds; the second must rotate, which the script
        // fails before anything is written.
        journal.append_batch(&[record(0)]).unwrap();
        let err = journal.append_batch(&[record(1)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(journal.next_lsn(), 1, "nothing written by the failure");
        // The next attempt rotates cleanly and proceeds.
        journal.append_batch(&[record(1)]).unwrap();
        drop(journal);
        assert_eq!(all_records(&dir), vec![record(0), record(1)]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
