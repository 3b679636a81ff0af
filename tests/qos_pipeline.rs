//! Integration across the QoS substrate: taxonomy → latent profiles →
//! sampled observations → normalization matrix → preference-weighted
//! choice → SLA settlement. The pipeline a real registry would run.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wsrep::qos::metric::{Category, Metric};
use wsrep::qos::normalize::NormalizationMatrix;
use wsrep::qos::preference::Preferences;
use wsrep::qos::profile::QualityProfile;
use wsrep::qos::sla::Sla;
use wsrep::qos::taxonomy::Taxonomy;
use wsrep::qos::value::QosVector;

fn profiles() -> Vec<QualityProfile> {
    vec![
        // The sprinter: fast, flaky.
        QualityProfile::from_triples([
            (Metric::ResponseTime, 40.0, 4.0),
            (Metric::Availability, 0.85, 0.02),
            (Metric::Price, 8.0, 0.2),
        ]),
        // The rock: slow, dependable.
        QualityProfile::from_triples([
            (Metric::ResponseTime, 400.0, 20.0),
            (Metric::Availability, 0.999, 0.001),
            (Metric::Price, 12.0, 0.2),
        ]),
        // The bargain: slow, flaky, cheap.
        QualityProfile::from_triples([
            (Metric::ResponseTime, 500.0, 30.0),
            (Metric::Availability, 0.8, 0.03),
            (Metric::Price, 1.5, 0.1),
        ]),
    ]
}

/// Average many sampled observations into a measured QoS vector, as a
/// monitoring registry would.
fn measure(rng: &mut StdRng, q: &QualityProfile, samples: usize) -> QosVector {
    let mut acc = QosVector::new();
    for _ in 0..samples {
        acc.ema_update(&q.sample(rng), 2.0 / (samples as f64));
    }
    acc
}

#[test]
fn measured_matrix_ranks_by_consumer_priorities() {
    let mut rng = StdRng::seed_from_u64(9);
    let measured: Vec<QosVector> = profiles()
        .iter()
        .map(|q| measure(&mut rng, q, 200))
        .collect();
    let metrics = [Metric::ResponseTime, Metric::Availability, Metric::Price];
    let matrix = NormalizationMatrix::new(&measured, &metrics);

    let speed = Preferences::from_weights([(Metric::ResponseTime, 1.0)]);
    let uptime = Preferences::from_weights([(Metric::Availability, 1.0)]);
    let thrift = Preferences::from_weights([(Metric::Price, 1.0)]);
    assert_eq!(matrix.best(&speed), Some(0), "sprinter wins on speed");
    assert_eq!(matrix.best(&uptime), Some(1), "rock wins on uptime");
    assert_eq!(matrix.best(&thrift), Some(2), "bargain wins on price");
}

#[test]
fn sampling_noise_does_not_flip_clear_rankings() {
    // Across independent measurement campaigns the per-metric winners are
    // stable because the latent gaps dwarf the jitter.
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let measured: Vec<QosVector> = profiles()
            .iter()
            .map(|q| measure(&mut rng, q, 100))
            .collect();
        let metrics = [Metric::ResponseTime];
        let matrix = NormalizationMatrix::new(&measured, &metrics);
        assert_eq!(
            matrix.best(&Preferences::uniform(metrics)),
            Some(0),
            "seed {seed}"
        );
    }
}

#[test]
fn sla_derived_from_honest_measurement_is_mostly_compliant() {
    let mut rng = StdRng::seed_from_u64(11);
    let q = &profiles()[0];
    let advertised = q.means();
    let sla = Sla::from_advertised(&advertised, 0.3, 1.0);
    let mut violations = 0;
    let trials = 500;
    for _ in 0..trials {
        if !sla.check(&q.sample(&mut rng)).compliant() {
            violations += 1;
        }
    }
    // 30% slack over ~10% relative jitter: violations are rare.
    assert!(
        violations < trials / 10,
        "honest SLA violated {violations}/{trials}"
    );
}

#[test]
fn sla_derived_from_a_lie_is_mostly_violated() {
    let mut rng = StdRng::seed_from_u64(12);
    let q = &profiles()[2]; // the slow bargain
                            // Advertised as the sprinter's figures.
    let lie = profiles()[0].means();
    let sla = Sla::from_advertised(&lie, 0.3, 1.0);
    let mut violations = 0;
    let trials = 200;
    for _ in 0..trials {
        if !sla.check(&q.sample(&mut rng)).compliant() {
            violations += 1;
        }
    }
    assert!(
        violations > trials * 9 / 10,
        "lying SLA only violated {violations}/{trials}"
    );
}

#[test]
fn taxonomy_covers_every_metric_the_pipeline_uses() {
    let tax = Taxonomy::standard();
    for m in [Metric::ResponseTime, Metric::Availability, Metric::Price] {
        assert!(tax.metrics().any(|x| x == m));
    }
    assert_eq!(Metric::Price.category(), Category::Economic);
    assert_eq!(Metric::ResponseTime.category(), Category::Performance);
}
