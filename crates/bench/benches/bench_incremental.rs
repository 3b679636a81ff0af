//! The incremental-scoring acceptance benchmark: the score of a subject
//! with a long feedback history. Replay walks the subject's whole log
//! through a fresh mechanism (O(n) in history) — what a log-mode writer
//! pays per touched subject per applied group; the served read is one
//! probe of the estimate the writer published (O(1)). The acceptance bar
//! for this engine is ≥50× on a 10 000-report subject.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ServiceId, SubjectId};
use wsrep_core::mechanism::score_from_log;
use wsrep_core::mechanisms::beta::BetaMechanism;
use wsrep_core::time::Time;
use wsrep_serve::ReputationService;

fn loaded_service(reports: u64, incremental: bool) -> ReputationService {
    let mut builder = ReputationService::builder().shards(4);
    if !incremental {
        builder = builder.replay_scoring();
    }
    let service = builder.build();
    for i in 0..reports {
        service
            .ingest(Feedback::scored(
                AgentId::new(i % 97),
                ServiceId::new(1),
                0.1 + 0.8 * ((i % 10) as f64 / 10.0),
                Time::new(i / 5),
            ))
            .unwrap();
    }
    service.flush();
    service
}

/// The published read against the replay it stands for, at growing log
/// lengths.
fn bench_cold_score(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_cold_score");
    for &log_len in &[1_000u64, 10_000, 100_000] {
        let service = loaded_service(log_len, true);
        let subject: SubjectId = ServiceId::new(1).into();
        let store = service.store().clone();
        let expected = service.score(subject).expect("evidence exists");
        group.bench_with_input(
            BenchmarkId::new("incremental", log_len),
            &log_len,
            |b, _| {
                b.iter(|| {
                    let estimate = store.score(black_box(subject)).expect("evidence exists");
                    assert_eq!(estimate, expected);
                    estimate
                })
            },
        );
        // Only a replay-scoring service keeps a log to replay.
        let log = loaded_service(log_len, false)
            .store()
            .about(subject)
            .expect("replay scoring keeps the log");
        group.bench_with_input(BenchmarkId::new("replay", log_len), &log_len, |b, _| {
            b.iter(|| {
                let mut mechanism = BetaMechanism::new();
                let estimate = score_from_log(&mut mechanism, black_box(&log), subject)
                    .expect("evidence exists");
                assert_eq!(estimate, expected);
                estimate
            })
        });
    }
    group.finish();
}

/// Recovery-shaped ingestion: the full history arrives as one batch, and
/// the parallel apply should beat the sequential one on multi-core.
fn bench_batch_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_batch_apply");
    group.sample_size(20);
    let batch: Vec<Feedback> = (0..100_000u64)
        .map(|i| {
            Feedback::scored(
                AgentId::new(i % 97),
                ServiceId::new(i % 64),
                0.5,
                Time::new(i / 50),
            )
        })
        .collect();
    for parallel in [false, true] {
        let name = if parallel { "parallel" } else { "sequential" };
        group.bench_function(BenchmarkId::new("100k_reports", name), |b| {
            b.iter(|| {
                let service = ReputationService::builder().shards(16).build();
                let store = service.store();
                if parallel {
                    store.insert_batch_parallel(batch.clone());
                } else {
                    store.insert_batch(batch.clone());
                }
                assert_eq!(store.len(), batch.len());
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cold_score, bench_batch_apply);
criterion_main!(benches);
