//! Service-level equivalence tests for the incremental scoring engine:
//! a service folding reports into shard-resident accumulators must equal
//! its sequential-replay twin (`twin_equal`), across every mechanism, in
//! `top_k` too (`never_stale`), and after recovery — incrementality is an
//! optimization, never a semantic.

use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId};
use wsrep_core::mechanism::{score_from_log, ReputationMechanism};
use wsrep_core::mechanisms::beta::BetaMechanism;
use wsrep_core::mechanisms::{all_figure4_mechanisms, build};
use wsrep_core::time::Time;
use wsrep_journal::JournalRecord;
use wsrep_qos::metric::Metric;
use wsrep_qos::preference::Preferences;
use wsrep_qos::value::QosVector;
use wsrep_serve::check::{never_stale, twin_equal, Twin};
use wsrep_serve::{MechanismFactory, ReputationService};
use wsrep_sim::registry::Listing;

const SERVICES: u64 = 8;

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

fn ingest_all(svc: &ReputationService, reports: &[Feedback]) {
    for report in reports {
        svc.ingest(report.clone()).unwrap();
    }
    svc.flush();
}

#[test]
fn every_figure4_mechanism_scores_identically_incremental_and_replay() {
    let reports: Vec<Feedback> = (0..200)
        .map(|i| feedback(i % 11, i % SERVICES, (i % 10) as f64 / 10.0, i / 3))
        .collect();
    for prototype in all_figure4_mechanisms() {
        let key = prototype.info().key;
        let has_fold = prototype.accumulator().is_some();
        let mechanism: MechanismFactory = Arc::new(move || build(key).expect("a Figure-4 key"));
        let svc = ReputationService::builder()
            .shards(4)
            .mechanism_factory(mechanism)
            .build();
        assert_eq!(svc.stats().incremental, has_fold, "{key}");
        let listings = (0..SERVICES).map(|s| JournalRecord::Publish(listing(s, (s % 2) as u32)));
        let log: Vec<JournalRecord> = listings
            .chain(reports.iter().cloned().map(JournalRecord::Feedback))
            .collect();
        svc.apply_replicated(log.clone()).unwrap();
        // Scores equal the replay's, and so does every ranking.
        let prefs = Preferences::uniform([Metric::Price, Metric::Accuracy]);
        never_stale(&svc, &Twin::replay(log), &prefs).unwrap_or_else(|v| panic!("{key}: {v}"));
    }
}

/// The two clocks of a Beta score. With nothing refreshed, a served score
/// equals in-process `global()`: both decay a subject's evidence to its
/// own newest report, out-of-order timestamps included. `refresh(now)`
/// moves the in-process clock to `now` and decays every subject there;
/// the registry runs no refresh, so its score stays at the subject's
/// newest applied report.
#[test]
fn a_served_beta_score_keeps_its_subjects_clock_while_refresh_moves_in_process() {
    let reports: Vec<Feedback> = (0..60)
        .map(|i| feedback(i % 5, i % 3, (i % 7) as f64 / 6.0, (i * 7) % 13))
        .collect();
    let svc = ReputationService::builder().shards(2).build();
    ingest_all(&svc, &reports);
    let mut in_process = BetaMechanism::new();
    reports.iter().for_each(|report| in_process.submit(report));
    for service in 0..3 {
        let subject = ServiceId::new(service).into();
        assert_eq!(svc.score(subject), in_process.global(subject), "{subject}");
    }

    in_process.refresh(Time::new(40));
    for service in 0..3 {
        let subject = ServiceId::new(service).into();
        let own: Vec<Feedback> = reports
            .iter()
            .filter(|report| report.subject == subject)
            .cloned()
            .collect();
        let served = svc.score(subject).expect("reports exist");
        let refreshed = in_process.global(subject).expect("reports exist");
        assert_eq!(
            Some(served),
            score_from_log(&mut BetaMechanism::new(), &own, subject),
            "{subject}: the served score is the replay to its newest report"
        );
        assert!(
            refreshed.confidence < served.confidence,
            "{subject}: refreshed {refreshed:?}, served {served:?}"
        );
    }
}

#[test]
fn preranked_list_serves_repeat_queries_and_invalidates_on_publish() {
    let svc = ReputationService::builder().build();
    for s in 0..4 {
        svc.publish(listing(s, 0)).unwrap();
    }
    let prefs = Preferences::uniform([Metric::Price, Metric::Accuracy]);
    let first = svc.top_k(0, &prefs, 4);
    assert_eq!(first.len(), 4);
    assert_eq!(svc.stats().preranked_misses, 1);
    assert_eq!(svc.stats().topk_plan_misses, 1);
    // Repeat queries never reach the plan cache: the fully pre-ranked
    // list answers them with a k-element copy.
    for _ in 0..10 {
        assert_eq!(svc.top_k(0, &prefs, 4), first);
    }
    assert_eq!(svc.stats().preranked_hits, 10);
    assert_eq!(
        svc.stats().preranked_misses,
        1,
        "no re-rank between queries"
    );
    assert_eq!(
        svc.stats().topk_plan_misses,
        1,
        "no rebuild between queries"
    );

    // A publish moves the listings epoch: the next query re-ranks (and
    // rebuilds the plan) and sees the new candidate.
    svc.publish(listing(9, 0)).unwrap();
    let widened = svc.top_k(0, &prefs, 10);
    assert_eq!(widened.len(), 5);
    assert_eq!(svc.stats().preranked_misses, 2);
    assert_eq!(svc.stats().topk_plan_misses, 2);

    // A deregister invalidates too.
    svc.deregister(ServiceId::new(9)).unwrap();
    assert_eq!(svc.top_k(0, &prefs, 10).len(), 4);
    assert_eq!(svc.stats().preranked_misses, 3);
    assert_eq!(svc.stats().topk_plan_misses, 3);
}

#[test]
fn preranked_lists_are_per_category_and_per_prefs() {
    let svc = ReputationService::builder().build();
    svc.publish(listing(1, 0)).unwrap();
    svc.publish(listing(2, 7)).unwrap();
    let prefs = Preferences::uniform([Metric::Price]);
    assert_eq!(svc.top_k(0, &prefs, 1).len(), 1);
    assert_eq!(svc.top_k(7, &prefs, 1).len(), 1);
    assert_eq!(svc.top_k(0, &prefs, 1).len(), 1);
    let stats = svc.stats();
    assert_eq!(stats.preranked_misses, 2, "one ranking per category");
    assert_eq!(stats.preranked_hits, 1);
    assert_eq!(stats.topk_plan_misses, 2, "one plan build per category");
    assert_eq!(stats.topk_plan_hits, 0, "rank hits shield the plan cache");

    // Different preferences rank separately over the same cached plan.
    let other = Preferences::uniform([Metric::Accuracy]);
    assert_eq!(svc.top_k(0, &other, 1).len(), 1);
    let stats = svc.stats();
    assert_eq!(stats.preranked_misses, 3, "new prefs miss the rank cache");
    assert_eq!(stats.topk_plan_hits, 1, "but reuse the category plan");
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wsrep-serve-incremental-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole invariant end to end: arbitrary interleavings of
    /// reports (out-of-order timestamps included) score identically
    /// whether folded incrementally or replayed from the log.
    #[test]
    fn an_incremental_service_equals_its_twin(
        raw in proptest::collection::vec(
            (0u64..9, 0u64..SERVICES, 0.0f64..=1.0, 0u64..40),
            1..120,
        ),
        shards in 1usize..6,
    ) {
        let reports: Vec<Feedback> = raw
            .iter()
            .map(|&(rater, service, score, at)| feedback(rater, service, score, at))
            .collect();
        let incremental = ReputationService::builder().shards(shards).build();
        ingest_all(&incremental, &reports);
        twin_equal(&incremental, &Twin::published(&[], &reports)).unwrap();
    }

    /// Recovery folds a WAL forced into many small segments back into the
    /// resident accumulators, in one pass that merges the segments by
    /// LSN; the recovered incremental service must equal the twin of the
    /// reports it acknowledged.
    #[test]
    fn a_recovered_incremental_service_equals_its_twin(
        raw in proptest::collection::vec(
            (0u64..9, 0u64..SERVICES, 0.0f64..=1.0, 0u64..40),
            1..80,
        ),
        segment_bytes in 128u64..1024,
    ) {
        let tag = format!("recover-{}-{}", raw.len(), segment_bytes);
        let live = temp_dir(&tag);
        let reports: Vec<Feedback> = raw
            .iter()
            .map(|&(rater, service, score, at)| feedback(rater, service, score, at))
            .collect();
        {
            let svc = ReputationService::builder()
                .shards(4)
                .journal(&live)
                .max_segment_bytes(segment_bytes)
                .build();
            ingest_all(&svc, &reports);
        }
        let revived = ReputationService::builder()
            .shards(4)
            .recover_from(&live)
            .build();
        prop_assert!(revived.stats().incremental);
        twin_equal(&revived, &Twin::published(&[], &reports))
            .unwrap_or_else(|v| panic!("after recovery over {segment_bytes} byte segments: {v}"));
        drop(revived);
        fs::remove_dir_all(&live).unwrap();
    }
}
