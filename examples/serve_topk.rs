//! End-to-end tour of the served registry: publish listings, stream
//! feedback through the batched ingest pipeline, then ask for the best
//! services under two different consumer preference profiles.
//!
//! ```sh
//! cargo run --example serve_topk
//! ```

use wsrep::core::feedback::Feedback;
use wsrep::core::id::{AgentId, ProviderId, ServiceId};
use wsrep::core::time::Time;
use wsrep::qos::metric::Metric;
use wsrep::qos::preference::Preferences;
use wsrep::qos::value::QosVector;
use wsrep::serve::ReputationService;
use wsrep::sim::registry::Listing;

fn main() {
    let service = ReputationService::builder()
        .shards(4)
        .reputation_weight(0.5)
        .build();

    // Providers publish their claims into the registry. Service 2 makes
    // the boldest promises.
    let claims: [(u64, f64, f64); 3] = [
        // (service id, price, accuracy claim)
        (1, 3.0, 0.85),
        (2, 2.0, 0.99),
        (3, 6.0, 0.80),
    ];
    for (id, price, accuracy) in claims {
        service
            .publish(Listing {
                service: ServiceId::new(id),
                provider: ProviderId::new(id),
                category: 0,
                advertised: QosVector::from_pairs([
                    (Metric::Price, price),
                    (Metric::Accuracy, accuracy),
                ]),
            })
            .expect("publish");
    }

    // Consumers report what they actually experienced: service 2
    // over-promised, service 1 delivers.
    for round in 0..200u64 {
        for (subject, score) in [(1u64, 0.9), (2, 0.25), (3, 0.7)] {
            service
                .ingest(Feedback::scored(
                    AgentId::new(round % 10),
                    ServiceId::new(subject),
                    score,
                    Time::new(round),
                ))
                .expect("pipeline open");
        }
    }
    service.flush(); // consistency point: all 600 reports applied

    let bargain_hunter = Preferences::from_weights([(Metric::Price, 0.8), (Metric::Accuracy, 0.2)]);
    let precision_buyer =
        Preferences::from_weights([(Metric::Price, 0.1), (Metric::Accuracy, 0.9)]);

    for (label, prefs) in [
        ("bargain hunter", &bargain_hunter),
        ("precision buyer", &precision_buyer),
    ] {
        println!("top services for the {label}:");
        for ranked in service.top_k(0, prefs, 3) {
            println!(
                "  service {:>2}  score {:.3}  (claims {:.3}, reputation {})",
                ranked.service,
                ranked.score,
                ranked.qos_score,
                ranked
                    .reputation
                    .map(|e| format!("{:.3}", e.value.get()))
                    .unwrap_or_else(|| "unknown".into()),
            );
        }
    }

    let stats = service.stats();
    println!(
        "service stats: {} listings, {} reports in {} shards, top-k {} pre-ranked hits / {} re-ranks",
        stats.listings, stats.feedback, stats.shards, stats.preranked_hits, stats.preranked_misses
    );
}
