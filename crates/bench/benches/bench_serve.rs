//! Benchmarks for the served registry: what a written-through score
//! saves a reader over replaying the subject's log, what batching buys
//! on ingestion, and the cost of a preference-aware `top_k`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId, SubjectId};
use wsrep_core::mechanism::score_from_log;
use wsrep_core::mechanisms::beta::BetaMechanism;
use wsrep_core::time::Time;
use wsrep_qos::metric::Metric;
use wsrep_qos::preference::Preferences;
use wsrep_qos::value::QosVector;
use wsrep_serve::{ReputationService, ServiceBuilder};
use wsrep_sim::registry::Listing;

fn feedback(rater: u64, service: u64, score: f64, at: u64) -> Feedback {
    Feedback::scored(
        AgentId::new(rater),
        ServiceId::new(service),
        score,
        Time::new(at),
    )
}

fn loaded_service(reports_per_subject: u64, services: u64) -> ReputationService {
    load(
        ReputationService::builder().shards(8),
        reports_per_subject,
        services,
    )
}

fn load(builder: ServiceBuilder, reports_per_subject: u64, services: u64) -> ReputationService {
    let service = builder.build();
    for s in 0..services {
        service
            .publish(Listing {
                service: ServiceId::new(s),
                provider: ProviderId::new(s),
                category: 0,
                advertised: QosVector::from_pairs([
                    (Metric::Price, 1.0 + s as f64),
                    (Metric::Accuracy, 0.5 + 0.4 * (s as f64 / services as f64)),
                ]),
            })
            .expect("publish");
    }
    for i in 0..reports_per_subject {
        for s in 0..services {
            service
                .ingest(feedback(i, s, 0.1 + 0.8 * ((i + s) % 10) as f64 / 10.0, i))
                .unwrap();
        }
    }
    service.flush();
    service
}

/// The acceptance claim: reading a subject's published score must be
/// much cheaper than the replay of its log that produced it.
fn bench_score_published_vs_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_score");
    for &log_len in &[1_000u64, 10_000] {
        let service = loaded_service(log_len, 4);
        let subject: SubjectId = ServiceId::new(1).into();
        let expected = service.score(subject).expect("evidence exists");
        group.bench_with_input(BenchmarkId::new("published", log_len), &log_len, |b, _| {
            b.iter(|| {
                let estimate = service.score(black_box(subject)).unwrap();
                assert_eq!(estimate, expected);
                estimate
            })
        });
        // What a log-mode writer performs per touched subject: replay of
        // the subject's log — which only a replay-scoring service keeps
        // — through a fresh mechanism.
        let log = load(
            ReputationService::builder().shards(8).replay_scoring(),
            log_len,
            4,
        )
        .store()
        .about(subject)
        .expect("replay scoring keeps the log");
        group.bench_with_input(BenchmarkId::new("replay", log_len), &log_len, |b, _| {
            b.iter(|| {
                let mut mechanism = BetaMechanism::new();
                score_from_log(&mut mechanism, black_box(&log), subject)
            })
        });
    }
    group.finish();
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_ingest");
    group.bench_function("submit_and_flush_1k", |b| {
        let service = ReputationService::builder()
            .shards(8)
            .batch_size(128)
            .build();
        let mut round = 0u64;
        b.iter(|| {
            for i in 0..1_000u64 {
                service.ingest(feedback(i, i % 16, 0.5, round)).unwrap();
            }
            service.flush();
            round += 1;
        })
    });
    group.finish();
}

fn bench_top_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_top_k");
    let service = loaded_service(200, 64);
    let prefs = Preferences::uniform([Metric::Price, Metric::Accuracy]);
    // First call ranks the category; every iteration then hits the list.
    let top = service.top_k(0, &prefs, 10);
    assert_eq!(top.len(), 10);
    group.bench_function("64_candidates_k10_hot", |b| {
        b.iter(|| service.top_k(black_box(0), &prefs, 10))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_score_published_vs_replay,
    bench_ingest,
    bench_top_k
);
criterion_main!(benches);
