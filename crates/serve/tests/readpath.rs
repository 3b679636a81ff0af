//! Read-path correctness under the wait-free snapshot machinery.
//!
//! Two families of guarantees:
//!
//! 1. **Never stale** (`never_stale`) — after a flush, every score and
//!    ranking served through the snapshot-swapped caches equals what a
//!    service built fresh from exactly the same applied prefix answers.
//!    Invalidations (per-subject epochs, per-category score epochs) can
//!    only over-invalidate, never serve a value that silently ignores
//!    applied feedback.
//! 2. **Consistency under concurrency** — many readers hammering `score`
//!    and the pre-ranked `top_k` while one writer publishes, deregisters,
//!    and ingests must always observe internally consistent answers
//!    (sorted, deduplicated, drawn from the live candidate set at *some*
//!    point), and the final quiesced answers must be never stale too.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId, SubjectId};
use wsrep_core::time::Time;
use wsrep_journal::JournalRecord;
use wsrep_qos::metric::Metric;
use wsrep_qos::preference::Preferences;
use wsrep_qos::value::QosVector;
use wsrep_serve::check::{never_stale, Twin};
use wsrep_serve::ReputationService;
use wsrep_sim::registry::Listing;

const SERVICES: u64 = 6;

fn feedback(rater: u64, service: u64, score: f64, at: u64) -> Feedback {
    Feedback::scored(
        AgentId::new(rater),
        ServiceId::new(service),
        score,
        Time::new(at),
    )
}

fn listing(service: u64, category: u32) -> Listing {
    Listing {
        service: ServiceId::new(service),
        provider: ProviderId::new(service),
        category,
        advertised: QosVector::from_pairs([
            (Metric::Price, service as f64 + 1.0),
            (Metric::Accuracy, 1.0 / (service as f64 + 1.0)),
        ]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Never-stale, checked at every flush point: after each applied
    /// chunk, every subject's cached score and every category's
    /// pre-ranked `top_k` equal what a service fed exactly the same
    /// prefix computes from scratch. A stale snapshot surviving an epoch
    /// bump anywhere — subject epoch, score epoch, listings epoch —
    /// would diverge here.
    #[test]
    fn snapshot_reads_are_never_stale(
        raw in proptest::collection::vec(
            (0u64..7, 0u64..SERVICES, 0.0f64..=1.0, 0u64..50),
            1..100,
        ),
        chunk in 1usize..20,
    ) {
        let reports: Vec<Feedback> = raw
            .iter()
            .map(|&(rater, service, score, at)| feedback(rater, service, score, at))
            .collect();
        let cached = ReputationService::builder().shards(4).build();
        let mut log: Vec<JournalRecord> = (0..SERVICES)
            .map(|s| JournalRecord::Publish(listing(s, (s % 2) as u32)))
            .collect();
        cached.apply_replicated(log.clone()).unwrap();
        let prefs = Preferences::uniform([Metric::Price, Metric::Accuracy]);
        for prefix in reports.chunks(chunk) {
            for report in prefix {
                cached.ingest(report.clone()).unwrap();
                log.push(JournalRecord::Feedback(report.clone()));
            }
            cached.flush();
            never_stale(&cached, &Twin::replay(log.clone()), &prefs)
                .unwrap_or_else(|v| panic!("after {} applied reports: {v}", cached.store().len()));
        }
    }
}

/// One round of the writer below: churn a rotating guest listing in and
/// out of the category readers are ranking, and rate one service.
fn churn(round: u64) -> Vec<JournalRecord> {
    let guest = SERVICES + (round % 5);
    let mut records = vec![JournalRecord::Publish(listing(guest, 0))];
    records.extend(
        (0..3).map(|rater| JournalRecord::Feedback(feedback(rater, round % SERVICES, 0.5, round))),
    );
    if round % 2 == 1 {
        records.push(JournalRecord::Deregister(ServiceId::new(guest)));
    }
    records
}

/// Many readers hammer the pre-ranked `top_k` and `score` while one
/// writer churns listings (publish + deregister) and feedback. Readers
/// assert every answer is internally consistent; afterwards the quiesced
/// service must be never stale.
#[test]
fn preranked_top_k_stays_consistent_under_concurrent_writes() {
    const READERS: usize = 3;
    const WRITER_ROUNDS: u64 = 300;
    let svc = Arc::new(ReputationService::builder().shards(4).build());
    for s in 0..SERVICES {
        svc.publish(listing(s, 0)).unwrap();
    }
    let prefs = Preferences::uniform([Metric::Price, Metric::Accuracy]);
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let svc = Arc::clone(&svc);
            let done = Arc::clone(&done);
            let prefs = prefs.clone();
            scope.spawn(move || {
                let mut out = Vec::new();
                let mut rounds = 0u64;
                while !done.load(Ordering::Relaxed) || rounds < 1_000 {
                    rounds += 1;
                    let k = 1 + (rounds as usize + reader) % (SERVICES as usize + 2);
                    svc.top_k_into(0, &prefs, k, &mut out);
                    assert!(out.len() <= k, "answer longer than k");
                    for pair in out.windows(2) {
                        assert!(
                            pair[0].score >= pair[1].score,
                            "pre-ranked answer must be sorted best-first"
                        );
                    }
                    let mut services: Vec<_> = out.iter().map(|r| r.service).collect();
                    services.sort_unstable();
                    services.dedup();
                    assert_eq!(services.len(), out.len(), "no duplicate services");
                    for entry in &out {
                        assert!(
                            entry.service.raw() < SERVICES + 5,
                            "candidate from outside the published id space"
                        );
                        assert!((0.0..=1.0).contains(&entry.qos_score));
                        assert!((0.0..=1.0).contains(&entry.score));
                    }
                    // Scores stay well-formed under churn too.
                    let subject: SubjectId = ServiceId::new(rounds % SERVICES).into();
                    if let Some(estimate) = svc.score(subject) {
                        assert!((0.0..=1.0).contains(&estimate.value.get()));
                    }
                }
            });
        }
        let svc = Arc::clone(&svc);
        let done = Arc::clone(&done);
        scope.spawn(move || {
            // Each record goes out on its own, with no flush, so reports
            // are still being applied while the listing table changes.
            for record in (0..WRITER_ROUNDS).flat_map(churn) {
                match record {
                    JournalRecord::Publish(listing) => _ = svc.publish(listing).unwrap(),
                    JournalRecord::Feedback(report) => svc.ingest(report).unwrap(),
                    JournalRecord::Deregister(service) => _ = svc.deregister(service),
                }
            }
            svc.flush();
            done.store(true, Ordering::Relaxed);
        });
    });

    // Quiesced: the concurrent run must serve exactly the state its
    // writes define.
    svc.flush();
    let listings = (0..SERVICES).map(|s| JournalRecord::Publish(listing(s, 0)));
    let log = listings.chain((0..WRITER_ROUNDS).flat_map(churn));
    never_stale(&svc, &Twin::replay(log), &prefs).unwrap();
}

/// The wait-free accessors (`len`, `stats`) racing writers never see
/// torn or regressing values.
#[test]
fn stats_collection_races_writers_without_tearing() {
    let svc = Arc::new(ReputationService::builder().shards(4).build());
    let done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        {
            let svc = Arc::clone(&svc);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut last_feedback = 0;
                let mut last_swaps = 0;
                while !done.load(Ordering::Relaxed) {
                    let stats = svc.stats();
                    assert!(stats.feedback >= last_feedback, "feedback regressed");
                    assert!(stats.snapshot_swaps >= last_swaps, "swaps regressed");
                    assert!(stats.listings <= 64, "listings out of range");
                    last_feedback = stats.feedback;
                    last_swaps = stats.snapshot_swaps;
                }
            });
        }
        let svc = Arc::clone(&svc);
        let done = Arc::clone(&done);
        scope.spawn(move || {
            for round in 0..200u64 {
                svc.publish(listing(round % 8, 0)).unwrap();
                for rater in 0..4 {
                    svc.ingest(feedback(rater, round % 8, 0.7, round)).unwrap();
                }
                let subject: SubjectId = ServiceId::new(round % 8).into();
                let _ = svc.score(subject);
            }
            svc.flush();
            done.store(true, Ordering::Relaxed);
        });
    });
    let stats = svc.stats();
    assert_eq!(stats.feedback, 800);
    assert_eq!(stats.listings, 8);
}
