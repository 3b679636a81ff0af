//! The promotion proof: a sequential-replay twin.
//!
//! A promoted replica claims its state equals "replay the log one record
//! at a time, in order". This module checks that claim the blunt way: it
//! re-reads the node's own journal from LSN 0 with a
//! [`ShipCursor`], folds every record into a
//! **fresh, non-journaled, unsharded-pipeline** service using only the
//! public one-at-a-time API, and compares scores subject by subject.
//! Because the twin shares none of the replication machinery (no
//! batching, no `apply_replicated`, no shipping), agreement here is
//! evidence the whole pipeline preserved the paper's per-subject fold
//! order — not just that two copies of the same code agree.

use std::collections::BTreeSet;
use std::io;
use std::path::Path;
use wsrep_core::id::SubjectId;
use wsrep_journal::{JournalRecord, ShipCursor};
use wsrep_serve::ReputationService;

/// What the twin replay found.
#[derive(Debug, Clone, PartialEq)]
pub struct TwinReport {
    /// Records replayed from the journal.
    pub records: u64,
    /// One past the last replayed LSN.
    pub replayed_lsn: u64,
    /// Distinct feedback subjects compared.
    pub subjects: usize,
    /// Subjects whose scores differ beyond tolerance (empty = equal).
    pub mismatched: Vec<SubjectId>,
}

impl TwinReport {
    /// True when every compared subject agreed within tolerance.
    pub fn equal(&self) -> bool {
        self.mismatched.is_empty()
    }
}

/// Replay `journal_dir` sequentially into a fresh in-memory service and
/// compare every feedback subject's score against `service`. Scores must
/// agree within `1e-9` (the recovery tests' tolerance).
pub fn verify_against_sequential_replay(
    service: &ReputationService,
    journal_dir: &Path,
) -> io::Result<TwinReport> {
    let twin = ReputationService::builder().shards(1).build();
    let mut cursor = ShipCursor::open(journal_dir, 0)?;
    let mut records = 0u64;
    let mut subjects: BTreeSet<SubjectId> = BTreeSet::new();
    loop {
        let batch = cursor.next_batch(4096)?;
        if batch.records.is_empty() {
            break;
        }
        for record in batch.records {
            records += 1;
            match record {
                JournalRecord::Feedback(report) => {
                    subjects.insert(report.subject);
                    let _ = twin.ingest(report);
                }
                JournalRecord::Publish(listing) => {
                    // Barrier first, so the listing lands after every
                    // report already ingested — the journal's order.
                    twin.flush();
                    twin.publish(listing)
                        .expect("non-journaled twin cannot fence publishes");
                }
                JournalRecord::Deregister(id) => {
                    twin.flush();
                    let _ = twin.deregister(id);
                }
            }
        }
    }
    twin.flush();

    let mut mismatched = Vec::new();
    for &subject in &subjects {
        let ours = service.score(subject);
        let twins = twin.score(subject);
        let agree = match (ours, twins) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                (a.value.get() - b.value.get()).abs() < 1e-9
                    && (a.confidence - b.confidence).abs() < 1e-9
            }
            _ => false,
        };
        if !agree {
            mismatched.push(subject);
        }
    }
    Ok(TwinReport {
        records,
        replayed_lsn: cursor.next_lsn(),
        subjects: subjects.len(),
        mismatched,
    })
}
