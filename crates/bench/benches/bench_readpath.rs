//! Read-path microbenchmarks: what one query costs on the wait-free
//! fast paths and on each miss tier.
//!
//! - `readpath_score`: a `score` (one probe of the published map)
//!   against the same read with readers and a writer racing — publishing
//!   in place must keep the hot read flat under write pressure.
//! - `readpath_top_k`: the pre-ranked hit (probe + k-element copy into a
//!   reused buffer) against the re-rank miss (score + sort over the
//!   cached plan) and the full plan rebuild.
//! - `readpath_primitives`: the underlying `SnapshotCell` read and the
//!   store's published-score read built on it.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId, SubjectId};
use wsrep_core::time::Time;
use wsrep_qos::metric::Metric;
use wsrep_qos::preference::Preferences;
use wsrep_qos::value::QosVector;
use wsrep_serve::{ReputationService, SnapshotCell};
use wsrep_sim::registry::Listing;

const SERVICES: u64 = 64;
const CATEGORIES: u32 = 4;

fn loaded_service(reports: u64) -> ReputationService {
    let service = ReputationService::builder().shards(8).build();
    for s in 0..SERVICES {
        service
            .publish(Listing {
                service: ServiceId::new(s),
                provider: ProviderId::new(s / 4),
                category: (s % CATEGORIES as u64) as u32,
                advertised: QosVector::from_pairs([
                    (Metric::Price, 1.0 + s as f64),
                    (Metric::Accuracy, 1.0 / (1.0 + s as f64)),
                ]),
            })
            .expect("publish");
    }
    for i in 0..reports {
        service
            .ingest(Feedback::scored(
                AgentId::new(i % 97),
                ServiceId::new(i % SERVICES),
                0.1 + 0.8 * ((i % 10) as f64 / 10.0),
                Time::new(i / 5),
            ))
            .unwrap();
    }
    service.flush();
    service
}

/// The score read, quiet and under concurrent load. Lock-free means the
/// contended number should track the quiet one.
fn bench_score(c: &mut Criterion) {
    let mut group = c.benchmark_group("readpath_score");
    let service = Arc::new(loaded_service(100_000));
    let subject: SubjectId = ServiceId::new(7).into();
    let expected = service.score(subject).expect("evidence exists");

    group.bench_function("published_quiet", |b| {
        b.iter(|| {
            let estimate = service.score(black_box(subject)).unwrap();
            assert_eq!(estimate, expected);
            estimate
        })
    });

    // Same read while a writer keeps ingesting (publishing other
    // subjects' scores) and two readers sweep the whole id space.
    let stop = Arc::new(AtomicBool::new(false));
    let mut background = Vec::new();
    for reader in 0..2u64 {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        background.push(std::thread::spawn(move || {
            let mut i = reader;
            while !stop.load(Ordering::Relaxed) {
                let s: SubjectId = ServiceId::new(i % SERVICES).into();
                black_box(service.score(s));
                i += 1;
            }
        }));
    }
    {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        background.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Skip the measured subject so its entry is never mid-publish.
                let target = 8 + (i % (SERVICES - 8));
                service
                    .ingest(Feedback::scored(
                        AgentId::new(900),
                        ServiceId::new(target),
                        0.5,
                        Time::new(i),
                    ))
                    .unwrap();
                i += 1;
            }
        }));
    }
    group.bench_function("published_contended", |b| {
        b.iter(|| black_box(service.score(black_box(subject))))
    });
    stop.store(true, Ordering::Relaxed);
    for handle in background {
        handle.join().unwrap();
    }
    group.finish();
}

/// The three `top_k` tiers: pre-ranked hit, re-rank over a cached plan,
/// and the full plan rebuild.
fn bench_top_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("readpath_top_k");
    let service = loaded_service(50_000);
    let prefs = Preferences::uniform([Metric::Price, Metric::Accuracy]);
    let mut out = Vec::new();
    service.top_k_into(0, &prefs, 10, &mut out);
    let expected = out.clone();

    group.bench_function("preranked_hit", |b| {
        b.iter(|| {
            service.top_k_into(black_box(0), &prefs, 10, &mut out);
            assert_eq!(out.len(), expected.len());
        })
    });

    let other = Preferences::uniform([Metric::Accuracy]);
    let mut flip = false;
    group.bench_function("rerank_after_feedback", |b| {
        b.iter(|| {
            // One applied report on a category member moves the score
            // epoch: the next top_k must re-score and re-sort.
            service
                .ingest(Feedback::scored(
                    AgentId::new(901),
                    ServiceId::new(0),
                    if flip { 0.4 } else { 0.6 },
                    Time::ZERO,
                ))
                .unwrap();
            service.flush();
            flip = !flip;
            service.top_k_into(black_box(0), &other, 10, &mut out);
            out.len()
        })
    });

    let mut epoch_nudge = 1_000u64;
    group.bench_function("plan_rebuild_after_publish", |b| {
        b.iter(|| {
            epoch_nudge += 1;
            service
                .publish(Listing {
                    service: ServiceId::new(3),
                    provider: ProviderId::new(0),
                    category: 0,
                    advertised: QosVector::from_pairs([
                        (Metric::Price, 4.0 + (epoch_nudge % 7) as f64),
                        (Metric::Accuracy, 0.25),
                    ]),
                })
                .expect("publish");
            service.top_k_into(black_box(0), &prefs, 10, &mut out);
            out.len()
        })
    });
    group.finish();
}

/// The primitives under every query: one `SnapshotCell` read, and the
/// store's published-score read (pin, probe, sequence-checked load).
fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("readpath_primitives");
    let cell = SnapshotCell::new(Arc::new(vec![1u64; 64]));
    group.bench_function("snapshot_cell_read", |b| {
        b.iter(|| cell.read(|v| black_box(v[63])))
    });

    let service = loaded_service(10_000);
    let subject: SubjectId = ServiceId::new(5).into();
    let store = service.store().clone();
    group.bench_function(BenchmarkId::new("store_score", "published"), |b| {
        b.iter(|| black_box(store.score(black_box(subject))))
    });
    group.finish();
}

criterion_group!(benches, bench_score, bench_top_k, bench_primitives);
criterion_main!(benches);
