//! Segment garbage collection.
//!
//! Once a snapshot at LSN `L` is durably on disk, every WAL record with
//! `lsn < L` is redundant: recovery loads the snapshot and replays only
//! the tail. A segment's name is a lower bound on its records and a
//! log's LSNs only increase, so every record of a segment lies below its
//! successor's start: the compactor deletes each segment whose successor
//! starts at or below `L`. The active (last) segment has no successor and
//! is never deleted — unless the log is sealed and known to end at or
//! below `L` — and a segment straddling the snapshot boundary is kept
//! whole; recovery skips its covered prefix record by record.
//!
//! Snapshots older than the newest one are removed at the same time —
//! they can no longer win [`crate::snapshot::latest_snapshot`].

use crate::segment::list_segments;
use crate::snapshot::list_snapshots;
use std::fs;
use std::io;
use std::path::Path;

/// What one compaction pass reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactReport {
    /// WAL segments deleted.
    pub segments_removed: u64,
    /// Superseded snapshot files deleted.
    pub snapshots_removed: u64,
    /// Total bytes reclaimed.
    pub bytes_reclaimed: u64,
}

/// Delete segments fully covered by a snapshot at `covered_lsn`, plus
/// snapshots superseded by a newer one.
pub fn compact_dir(dir: &Path, covered_lsn: u64) -> io::Result<CompactReport> {
    compact_log(dir, covered_lsn, None)
}

/// [`compact_dir`] for a log that may be sealed: `sealed_end` is one past
/// its last record when no writer will append to it again.
pub(crate) fn compact_log(
    dir: &Path,
    covered_lsn: u64,
    sealed_end: Option<u64>,
) -> io::Result<CompactReport> {
    let mut report = CompactReport::default();
    let segments = list_segments(dir)?;
    // Pair each segment with a bound above its last LSN: its successor's
    // start, or for the last one the end of a sealed log.
    let ends = segments
        .iter()
        .skip(1)
        .map(|(start, _)| Some(*start))
        .chain([sealed_end]);
    for ((_, path), end) in segments.iter().zip(ends) {
        if end.is_some_and(|end| end <= covered_lsn) {
            report.bytes_reclaimed += fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            fs::remove_file(path)?;
            report.segments_removed += 1;
        }
    }
    let snapshots = list_snapshots(dir)?;
    if let Some(newest_lsn) = snapshots.last().map(|(lsn, _)| *lsn) {
        for (lsn, path) in snapshots {
            if lsn < newest_lsn {
                report.bytes_reclaimed += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                fs::remove_file(&path)?;
                report.snapshots_removed += 1;
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Journal, JournalConfig};
    use crate::record::JournalRecord;
    use crate::snapshot::{latest_snapshot, write_snapshot};
    use std::path::PathBuf;
    use wsrep_core::feedback::Feedback;
    use wsrep_core::id::{AgentId, ServiceId};
    use wsrep_core::time::Time;

    fn record(i: u64) -> JournalRecord {
        JournalRecord::Feedback(Feedback::scored(
            AgentId::new(i),
            ServiceId::new(0),
            0.5,
            Time::new(i),
        ))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wsrep-journal-compact-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn covered_segments_are_dropped_but_the_boundary_and_tail_stay() {
        let dir = temp_dir("covered");
        let config = JournalConfig {
            max_segment_bytes: 200,
        };
        let mut journal = Journal::open(&dir, config).unwrap();
        for i in 0..30 {
            journal.append_batch(&[record(i)]).unwrap();
        }
        let before = list_segments(&dir).unwrap();
        assert!(before.len() >= 3, "need several segments: {}", before.len());

        // Snapshot covering the first 10 records.
        let report = journal.compact(10).unwrap();
        let after = list_segments(&dir).unwrap();
        assert_eq!(
            before.len() as u64 - report.segments_removed,
            after.len() as u64
        );
        assert!(report.segments_removed >= 1);
        assert!(report.bytes_reclaimed > 0);
        // Every surviving record with lsn >= 10 is still recoverable.
        let mut remaining = Vec::new();
        for (_, path) in &after {
            let scan = crate::segment::scan_segment_entries(path).unwrap().unwrap();
            remaining.extend(scan.entries);
        }
        for lsn in 10..30 {
            assert!(
                remaining.iter().any(|(l, _)| *l == lsn),
                "record {lsn} must survive compaction"
            );
        }
        // The journal still appends after compaction.
        journal.append_batch(&[record(30)]).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn superseded_snapshots_are_pruned() {
        let dir = temp_dir("snapshots");
        fs::create_dir_all(&dir).unwrap();
        write_snapshot(&dir, 5, &[], &[]).unwrap();
        write_snapshot(&dir, 9, &[], &[]).unwrap();
        let report = compact_dir(&dir, 9).unwrap();
        assert_eq!(report.snapshots_removed, 1);
        assert_eq!(latest_snapshot(&dir).unwrap().unwrap().lsn, 9);
        assert_eq!(crate::snapshot::list_snapshots(&dir).unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_active_segment_is_never_deleted() {
        let dir = temp_dir("active");
        let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        journal.append_batch(&[record(0), record(1)]).unwrap();
        let report = journal.compact(u64::MAX).unwrap();
        assert_eq!(report.segments_removed, 0);
        assert_eq!(list_segments(&dir).unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
