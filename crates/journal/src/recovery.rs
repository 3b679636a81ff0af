//! Crash recovery: snapshot + WAL tail → registry state.
//!
//! Recovery is a pure function of the journal directory, and one read of
//! it:
//!
//! 1. load the newest snapshot that validates (a damaged snapshot falls
//!    back to its predecessor, or to nothing — the WAL still holds every
//!    record);
//! 2. read every log stream — each `group-NNN/` directory's segments,
//!    and the root's own if it holds a sealed single-directory log — a
//!    whole frame at a time (`SegmentReader`), stopping that stream at
//!    its first torn frame (a crashed append's tail was never
//!    acknowledged as durable, so dropping it cannot lose acknowledged
//!    data);
//! 3. merge the streams lazily as they are read, lowest pending LSN
//!    first, skip what the snapshot already covers, and hand publish /
//!    deregister / feedback events on in global order.
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
//! [`replay_prefix`] is that pass, record by record to a visitor: no more
//! of the log is in memory at once than one segment per stream and
//! whatever the visitor keeps. A serving registry folds each report into
//! its store as it arrives — per-subject order is all a fold needs, so
//! the pre-crash scores come back exactly. [`recover`] and
//! [`recover_prefix`] collect the same pass into a [`Recovered`]: live
//! listings, every report oldest first, and the LSN the journal writer
//! should continue from.

use crate::record::JournalRecord;
use crate::segment::{list_group_dirs, list_segments, SegmentReader};
use crate::snapshot::latest_snapshot;
use std::collections::{BTreeMap, VecDeque};
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

/// The one recovery pass behind [`recover_prefix`]: hand every record of
/// the prefix `[0, upto)` to `visit` in LSN order — the snapshot's
/// listings (as publishes) and reports first, then the WAL records it
/// does not cover — as each log is read.
pub fn replay_prefix(
    dir: &Path,
    upto: u64,
    mut visit: impl FnMut(JournalRecord),
) -> io::Result<Replayed> {
    let mut replayed = Replayed::default();
    if !dir.exists() {
        return Ok(replayed);
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
        listings.chain(reports).for_each(&mut visit);
    }

    // One stream per log: the root's own segments, then each group's; on
    // a tie the earlier stream goes first.
    let mut streams = vec![LogStream::open(dir, upto)?];
    for (_, group_dir) in list_group_dirs(dir)? {
        streams.push(LogStream::open(&group_dir, upto)?);
    }
    let mut frontier = covered_lsn;
    loop {
        let mut lowest: Option<(u64, usize)> = None;
        for (i, stream) in streams.iter_mut().enumerate() {
            if let Some(lsn) = stream.peek(&mut replayed.torn_tail)? {
                if lowest.is_none_or(|(least, _)| lsn < least) {
                    lowest = Some((lsn, i));
                }
            }
        }
        let Some((lsn, i)) = lowest else {
            break;
        };
        let (_, record) = streams[i].frame.pop_front().expect("peeked");
        if !(covered_lsn..upto).contains(&lsn) {
            continue;
        }
        if lsn == frontier {
            frontier = lsn + 1;
        }
        visit(record);
        replayed.records_recovered += 1;
        replayed.next_lsn = lsn + 1;
    }
    replayed.durable_lsn = frontier;
    Ok(replayed)
}

/// One log, read on demand: its segments named below `upto`, a whole
/// frame at a time, up to its first damage.
struct LogStream {
    /// Segments not yet opened, the next one last.
    segments: Vec<(u64, PathBuf)>,
    reader: Option<SegmentReader>,
    /// What is left of the frame read last.
    frame: VecDeque<(u64, JournalRecord)>,
}

impl LogStream {
    fn open(dir: &Path, upto: u64) -> io::Result<LogStream> {
        // A segment's name is a lower bound on every LSN inside it, so
        // one named at or past `upto` holds nothing of the prefix.
        let mut segments = list_segments(dir)?;
        segments.retain(|(start, _)| *start < upto);
        segments.reverse();
        Ok(LogStream {
            segments,
            reader: None,
            frame: VecDeque::new(),
        })
    }

    /// The LSN of the stream's next record, reading on as far as that
    /// takes; `None` once the log is done. Damage ends the log and sets
    /// `torn`.
    fn peek(&mut self, torn: &mut bool) -> io::Result<Option<u64>> {
        loop {
            if let Some((lsn, _)) = self.frame.front() {
                return Ok(Some(*lsn));
            }
            if let Some(reader) = &mut self.reader {
                if let Some(frame) = reader.next_frame() {
                    self.frame.extend(frame);
                    continue;
                }
                if reader.torn() {
                    *torn = true;
                    self.segments.clear();
                }
                self.reader = None;
            }
            let Some((_, path)) = self.segments.pop() else {
                return Ok(None);
            };
            self.reader = SegmentReader::open(&path)?;
            if self.reader.is_none() {
                // A header that never reached the disk: rotation crashed
                // before any record was acknowledged in this segment.
                *torn = true;
                self.segments.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Journal, JournalConfig};
    use crate::snapshot::write_snapshot;
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
