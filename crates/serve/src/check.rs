//! One checker per invariant: each function here checks one promise
//! DESIGN.md §7 names, over what a run leaves behind — journal
//! directories, the ledger of what clients were told, a node's answers —
//! and answers `Err(`[`Violation`]`)` with its first counterexample. A
//! score has one tolerance: none.
//! [`fold_matches_replay`](wsrep_core::mechanism::fold_matches_replay)
//! needs only a mechanism, so it lives in wsrep-core beside
//! [`score_from_log`]. A [`Twin`] keeps a log's raw input beside the
//! results checked against it, as rs-eigentrust's archives do.

use crate::service::ReputationService;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{Debug, Display};
use std::io;
use std::path::Path;
use std::sync::Arc;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{ServiceId, SubjectId};
use wsrep_core::mechanism::score_from_log;
pub use wsrep_core::mechanism::Violation;
use wsrep_journal::{replay_prefix, JournalRecord, ShipCursor};
use wsrep_qos::preference::Preferences;
use wsrep_sim::registry::Listing;

/// The sequential-replay twin of a log: the state it defines, rebuilt the
/// blunt way. It shares nothing with the registry's machinery (no shards,
/// no batching, no ingest pipeline, no fold).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Twin {
    /// Records replayed (a snapshot's listings and reports count one each).
    pub records: u64,
    /// One past the last replayed LSN.
    pub lsn: u64,
    /// The listing table after every publish and deregister.
    pub listings: BTreeMap<ServiceId, Listing>,
    /// Each subject's reports, in log order.
    pub reports: BTreeMap<SubjectId, Vec<Feedback>>,
}

impl Twin {
    /// Replay `log`: a journal's records from LSN 0, in order.
    pub fn replay(log: impl IntoIterator<Item = JournalRecord>) -> Twin {
        let mut twin = Twin::default();
        log.into_iter().for_each(|record| twin.apply(record));
        twin.lsn = twin.records;
        twin
    }

    /// The twin of a log that publishes `listings`, then holds `reports`.
    pub fn published<'a>(
        listings: impl IntoIterator<Item = &'a Listing>,
        reports: impl IntoIterator<Item = &'a Feedback>,
    ) -> Twin {
        let listings = listings.into_iter().cloned().map(JournalRecord::Publish);
        let reports = reports.into_iter().cloned().map(JournalRecord::Feedback);
        Twin::replay(listings.chain(reports))
    }

    /// Replay the journal at `dir` as recovery reads it — the newest valid
    /// snapshot, then every WAL record past it — without changing a byte.
    pub fn read(dir: &Path) -> io::Result<Twin> {
        let mut twin = Twin::default();
        twin.lsn = replay_prefix(dir, u64::MAX, |record| twin.apply(record))?.next_lsn;
        Ok(twin)
    }

    fn apply(&mut self, record: JournalRecord) {
        self.records += 1;
        match record {
            JournalRecord::Feedback(report) => {
                self.reports.entry(report.subject).or_default().push(report)
            }
            JournalRecord::Publish(listing) => _ = self.listings.insert(listing.service, listing),
            JournalRecord::Deregister(service) => _ = self.listings.remove(&service),
        }
    }

    /// Every replayed report, subject by subject.
    pub fn feedback(&self) -> impl Iterator<Item = &Feedback> {
        self.reports.values().flatten()
    }
}

/// A violation of `invariant` with no log position.
fn violation(
    invariant: &'static str,
    subject: Option<String>,
    expected: String,
    got: String,
) -> Violation {
    Violation {
        invariant,
        lsn: None,
        subject,
        expected,
        got,
    }
}

/// An acked write survives any crash: every key of `acked`, as often as
/// it was acked, is in `recovered` — what a node holds after the crash.
/// A key names a write on both sides (a report's rater, a service); where
/// only counts can be observed, call [`exactly_once`]. Answers how many
/// acked writes were found.
pub fn acked_survive<K: Ord + Debug>(
    acked: impl IntoIterator<Item = K>,
    recovered: impl IntoIterator<Item = K>,
) -> Result<usize, Violation> {
    within("acked_survive", (acked, "acked"), (recovered, "recovered"))
}

/// Keyed ingest applies exactly once: no key is in `applied` more often
/// than in `sent` (a retry counts once). A lost write is
/// [`acked_survive`]'s; a run that must hold exactly what was sent calls
/// both. Answers how many applied writes were checked.
pub fn applied_once<K: Ord + Debug>(
    sent: impl IntoIterator<Item = K>,
    applied: impl IntoIterator<Item = K>,
) -> Result<usize, Violation> {
    within("applied_once", (applied, "applied"), (sent, "sent"))
}

/// Where only counts can be observed: nothing acked was lost
/// ([`acked_survive`]) and nothing was applied twice ([`applied_once`]),
/// over ledgers of `acked` and `applied` unit keys. Answers the count.
pub fn exactly_once(acked: usize, applied: usize) -> Result<usize, Violation> {
    let ledger = |n| std::iter::repeat_n((), n);
    acked_survive(ledger(acked), ledger(applied))?;
    applied_once(ledger(acked), ledger(applied))
}

/// `part ⊆ whole` as multisets, answering `part`'s size; or else the
/// first key `part` holds more often. The unit key of a count is unnamed.
fn within<K: Ord + Debug>(
    invariant: &'static str,
    (part, part_name): (impl IntoIterator<Item = K>, &str),
    (whole, whole_name): (impl IntoIterator<Item = K>, &str),
) -> Result<usize, Violation> {
    let tally = |keys: &mut dyn Iterator<Item = K>| {
        let mut counts: BTreeMap<K, usize> = BTreeMap::new();
        keys.for_each(|key| *counts.entry(key).or_default() += 1);
        counts
    };
    let (part, whole) = (tally(&mut part.into_iter()), tally(&mut whole.into_iter()));
    let held = |key| whole.get(key).copied().unwrap_or(0);
    let Some((key, times)) = part.iter().find(|&(key, &times)| times > held(key)) else {
        return Ok(part.values().sum());
    };
    let expected = format!("{part_name} <= {whole_name}");
    let got = format!("{part_name} {times}x, {whole_name} {}x", held(key));
    let key = format!("{key:?}");
    Err(violation(
        invariant,
        (key != "()").then_some(key),
        expected,
        got,
    ))
}

/// A replica's log is a prefix of its primary's: walked from LSN 0 with a
/// [`ShipCursor`] each, the two logs hold the same record at every LSN
/// the replica holds, and the replica holds none past the primary's end.
/// Answers how many records the replica holds. A log that cannot be read
/// is a violation too: the prefix cannot be shown.
pub fn log_prefix(primary_dir: &Path, replica_dir: &Path) -> Result<u64, Violation> {
    let unreadable = |dir: &Path| {
        let expected = format!("a readable log at {}", dir.display());
        move |err: io::Error| violation("log_prefix", None, expected, err.to_string())
    };
    let primary = shipped(primary_dir).map_err(unreadable(primary_dir))?;
    let replica = shipped(replica_dir).map_err(unreadable(replica_dir))?;
    let differs = primary
        .iter()
        .map(Some)
        .chain(std::iter::repeat(None))
        .zip(&replica)
        .find(|&(ours, theirs)| ours != Some(theirs));
    match differs {
        None => Ok(replica.len() as u64),
        Some((ours, theirs)) => Err(Violation {
            lsn: Some(ours.map_or(theirs.0, |ours| ours.0.min(theirs.0))),
            ..violation(
                "log_prefix",
                None,
                format!("{ours:?}"),
                format!("{:?}", Some(theirs)),
            )
        }),
    }
}

/// Every record the log at `dir` ships from LSN 0, with its LSN: what
/// [`log_prefix`] compares.
pub fn shipped(dir: &Path) -> io::Result<Vec<(u64, JournalRecord)>> {
    let mut cursor = ShipCursor::open(dir, 0)?;
    let mut records = Vec::new();
    loop {
        let batch = cursor.next_batch(4096)?;
        if batch.records.is_empty() {
            return Ok(records);
        }
        records.extend((batch.first_lsn..).zip(batch.records));
    }
}

/// A node equals its sequential-replay twin: `node` lists exactly the
/// twin's listings, scores every subject `==` [`score_from_log`] over the
/// twin's reports through a fresh instance of `node`'s mechanism, and has
/// applied exactly the twin's reports. Call it with no write in flight.
pub fn twin_equal(node: &ReputationService, twin: &Twin) -> Result<(), Violation> {
    let held = node.listings.table.read().clone();
    let services: BTreeSet<&ServiceId> = held.keys().chain(twin.listings.keys()).collect();
    let listings = services
        .into_iter()
        .map(|s| (s, twin.listings.get(s), held.get(s)));
    first_difference("twin_equal", listings)?;
    let mechanism = &node.store().mechanism;
    let scores = twin.reports.iter().map(|(&subject, reports)| {
        let replayed = score_from_log(mechanism().as_mut(), reports, subject);
        (subject, replayed, node.score(subject))
    });
    first_difference("twin_equal", scores)?;
    let applied = twin.feedback().count();
    first_difference(
        "twin_equal",
        [("reports applied", applied, node.store().len())],
    )
}

/// A read is never older than the last flush: at a flush point, every
/// score `node` serves is its twin's ([`twin_equal`]), and each category's
/// whole ranking under `prefs` equals the ranking of a service built fresh
/// from `twin` (the log `node` applied) that has never served a read, so
/// no cache of its can be stale. Call it with no write in flight.
pub fn never_stale(
    node: &ReputationService,
    twin: &Twin,
    prefs: &Preferences,
) -> Result<(), Violation> {
    twin_equal(node, twin).map_err(|v| Violation {
        invariant: "never_stale",
        ..v
    })?;
    let fresh = ReputationService::builder()
        .shards(node.store().num_shards())
        .reputation_weight(node.reputation_weight)
        .mechanism_factory(Arc::clone(&node.store().mechanism))
        .build();
    for listing in twin.listings.values() {
        fresh.publish(listing.clone()).expect("no journal to fence");
    }
    fresh
        .ingest_batch(twin.feedback().cloned())
        .expect("just built");
    fresh.flush();
    let categories: BTreeSet<u32> = twin.listings.values().map(|l| l.category).collect();
    let k = twin.listings.len();
    let rankings = categories.into_iter().map(|category| {
        let (expected, got) = (
            fresh.top_k(category, prefs, k),
            node.top_k(category, prefs, k),
        );
        (format!("top_k of category {category}"), expected, got)
    });
    first_difference("never_stale", rankings)
}

/// The first of `answers` — `(what, expected, got)` — whose two sides
/// differ, as a violation of `invariant`.
fn first_difference<K: Display, T: PartialEq + Debug>(
    invariant: &'static str,
    answers: impl IntoIterator<Item = (K, T, T)>,
) -> Result<(), Violation> {
    let Some((what, expected, got)) = answers.into_iter().find(|(_, e, g)| e != g) else {
        return Ok(());
    };
    let (expected, got) = (format!("{expected:?}"), format!("{got:?}"));
    Err(violation(invariant, Some(what.to_string()), expected, got))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrep_core::id::{AgentId, ProviderId};
    use wsrep_core::time::Time;
    use wsrep_qos::metric::Metric;
    use wsrep_qos::value::QosVector;

    fn listing(service: u64) -> Listing {
        Listing {
            service: ServiceId::new(service),
            provider: ProviderId::new(service),
            category: 0,
            advertised: QosVector::from_pairs([(Metric::Price, 1.0 + service as f64)]),
        }
    }

    fn report(i: u64) -> Feedback {
        let score = (i % 10) as f64 / 10.0;
        Feedback::scored(AgentId::new(i), ServiceId::new(i % 3), score, Time::new(i))
    }

    /// A node whose journal lost the append of one publish (`Degrade`
    /// keeps serving it) holds a listing its journal does not: the twin
    /// names that service, though every score agrees.
    #[test]
    fn a_listing_the_journal_does_not_hold_is_named() {
        use crate::DurabilityPolicy;
        use wsrep_journal::{Fault, FaultScript, IoOp, IoPolicy};
        let dir = std::env::temp_dir().join(format!("wsrep-check-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let script = Arc::new(FaultScript::new());
        script.push_after(IoOp::Append, 2, Fault::enospc());
        let node = ReputationService::builder()
            .journal(&dir)
            .durability_policy(DurabilityPolicy::Degrade)
            .io_policy(script as Arc<dyn IoPolicy>)
            .build();
        node.publish(listing(1)).unwrap();
        node.ingest(report(1)).unwrap();
        node.flush();
        node.publish(listing(7)).unwrap();
        let found = twin_equal(&node, &Twin::read(&dir).unwrap()).unwrap_err();
        assert_eq!(found.invariant, "twin_equal");
        assert_eq!(found.subject.as_deref(), Some("s7"), "{found}");
        assert_eq!(found.expected, "None");
        drop(node);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A replica behind its primary is a prefix; one holding a record
    /// past the primary's end is not, and the check names that LSN.
    #[test]
    fn a_replica_ahead_of_its_primary_is_no_prefix() {
        use wsrep_journal::{Journal, JournalConfig};
        let root = std::env::temp_dir().join(format!("wsrep-check-prefix-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let log: Vec<_> = (0..4).map(|i| JournalRecord::Feedback(report(i))).collect();
        let write = |name: &str, records: &[JournalRecord]| {
            let dir = root.join(name);
            let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
            journal.append_batch(records).unwrap();
            dir
        };
        let primary = write("primary", &log[..3]);
        assert_eq!(log_prefix(&primary, &write("behind", &log[..2])), Ok(2));
        let found = log_prefix(&primary, &write("ahead", &log)).unwrap_err();
        let at = (found.invariant, found.lsn, found.expected.as_str());
        assert_eq!(at, ("log_prefix", Some(3), "None"), "{found}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn ledgers_name_the_first_lost_or_doubled_key() {
        assert_eq!(acked_survive([1, 2, 3], [3, 2, 1, 4]), Ok(3));
        let lost = acked_survive([1, 2, 3], [1, 3]).unwrap_err().to_string();
        let expected = "for 2: expected acked <= recovered, got acked 1x, recovered 0x";
        assert_eq!(lost, format!("acked_survive violated {expected}"));
        assert_eq!(applied_once([1, 2], [2, 1]), Ok(2));
        assert_eq!(
            applied_once([1, 2], [2, 2]).unwrap_err().got,
            "applied 2x, sent 1x"
        );
        // A count is a ledger of unit keys, and names no key.
        assert_eq!(exactly_once(4, 4), Ok(4));
        let doubled = exactly_once(4, 5).unwrap_err();
        assert_eq!((doubled.invariant, doubled.subject), ("applied_once", None));
        assert_eq!(exactly_once(4, 3).unwrap_err().invariant, "acked_survive");
    }
}
