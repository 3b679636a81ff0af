//! Concurrency and equivalence guarantees of the served registry.
//!
//! Two claims are load-bearing: (1) no feedback is ever lost between a
//! successful `ingest` and the sharded store, whatever the thread
//! interleaving; (2) sharding + batching + caching are pure plumbing —
//! the service equals its sequential-replay twin (`twin_equal`).

use proptest::prelude::*;
use std::sync::Arc;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ServiceId, SubjectId};
use wsrep_core::mechanisms::beta::BetaMechanism;
use wsrep_core::time::Time;
use wsrep_journal::JournalRecord;
use wsrep_qos::metric::Metric;
use wsrep_qos::preference::Preferences;
use wsrep_qos::value::QosVector;
use wsrep_serve::check::{exactly_once, twin_equal, Twin};
use wsrep_serve::ReputationService;
use wsrep_sim::registry::Listing;

fn feedback(rater: u64, service: u64, score: f64, at: u64) -> Feedback {
    Feedback::scored(
        AgentId::new(rater),
        ServiceId::new(service),
        score,
        Time::new(at),
    )
}

fn listing(service: u64) -> Listing {
    Listing {
        service: ServiceId::new(service),
        provider: wsrep_core::id::ProviderId::new(service),
        category: 0,
        advertised: QosVector::from_pairs([(Metric::Price, service as f64 + 1.0)]),
    }
}

/// Many ingest threads race many query threads; afterwards every accepted
/// report is in exactly one shard and the shard totals add up.
#[test]
fn concurrent_ingest_and_query_loses_nothing() {
    const INGESTERS: u64 = 4;
    const QUERIERS: u64 = 4;
    const PER_THREAD: u64 = 500;
    const SERVICES: u64 = 16;

    let service = Arc::new(ReputationService::builder().shards(8).build());
    for s in 0..SERVICES {
        service.publish(listing(s)).unwrap();
    }

    let prefs = Preferences::uniform([Metric::Price]);
    std::thread::scope(|scope| {
        for t in 0..INGESTERS {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let sid = (t * PER_THREAD + i) % SERVICES;
                    let score = if sid.is_multiple_of(2) { 0.9 } else { 0.2 };
                    service
                        .ingest(feedback(t, sid, score, i))
                        .expect("pipeline is open");
                }
            });
        }
        for _ in 0..QUERIERS {
            let service = Arc::clone(&service);
            let prefs = prefs.clone();
            scope.spawn(move || {
                // Queries interleave with ingestion; they must never
                // panic, deadlock, or observe a phantom subject.
                for q in 0..400u64 {
                    let subject: SubjectId = ServiceId::new(q % SERVICES).into();
                    if let Some(estimate) = service.score(subject) {
                        let v = estimate.value.get();
                        assert!((0.0..=1.0).contains(&v), "score out of range: {v}");
                    }
                    if q % 50 == 0 {
                        let top = service.top_k(0, &prefs, 5);
                        assert!(top.len() <= 5);
                    }
                }
            });
        }
    });

    service.flush();
    let store = service.store();
    let in_shards = (0..store.num_shards()).map(|i| store.shard_len(i)).sum();
    exactly_once((INGESTERS * PER_THREAD) as usize, in_shards).unwrap();
    assert_eq!(service.stats().feedback as usize, in_shards);
}

/// After the dust settles, polarized feedback must separate good from bad
/// services in `top_k` even though all claims are distinct.
#[test]
fn ranking_after_concurrent_ingestion_reflects_feedback() {
    let service = Arc::new(ReputationService::builder().reputation_weight(1.0).build());
    service.publish(listing(0)).unwrap(); // rated 0.9 below
    service.publish(listing(1)).unwrap(); // rated 0.2 below
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                for i in 0..100 {
                    service.ingest(feedback(t, 0, 0.9, i)).unwrap();
                    service.ingest(feedback(t, 1, 0.2, i)).unwrap();
                }
            });
        }
    });
    service.flush();
    let prefs = Preferences::uniform([Metric::Price]);
    let top = service.top_k(0, &prefs, 2);
    assert_eq!(top[0].service, ServiceId::new(0));
    assert!(top[0].score > top[1].score);
}

proptest! {
    /// The served scores equal a single-threaded replay of the same log
    /// through the same mechanism.
    #[test]
    fn sharded_score_matches_sequential_store(
        reports in proptest::collection::vec(
            (0u64..12, 0u64..6, 0.0f64..1.0, 0u64..50),
            1..60,
        ),
        shards in 1usize..9,
    ) {
        let service = ReputationService::builder()
            .shards(shards)
            .mechanism(BetaMechanism::new)
            .build();
        let mut log = Vec::new();
        for &(rater, svc, score, at) in &reports {
            let f = feedback(rater, svc, score, at);
            service.ingest(f.clone()).unwrap();
            log.push(JournalRecord::Feedback(f));
        }
        service.flush();
        twin_equal(&service, &Twin::replay(log)).unwrap();
    }
}
