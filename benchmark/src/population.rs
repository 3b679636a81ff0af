//! The generated world every workload runs on: services in categories,
//! raters, preference vectors, and the seeded report and query streams.
//!
//! Everything here is a pure function of the seed. The programs under test
//! see only what these generators emit.

use crate::rng::{Rng, Zipf};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId, SubjectId};
use wsrep_core::time::Time;
use wsrep_qos::metric::Metric;
use wsrep_qos::preference::Preferences;
use wsrep_qos::value::QosVector;
use wsrep_sim::registry::Listing;

/// Services in the registry. With 100 candidates per category this is 40
/// categories; per-subject state (epochs, accumulators, cached scores,
/// logs) is several hundred KiB and does not sit in L1.
pub const SERVICES: u32 = 4_000;
pub const CANDIDATES_PER_CATEGORY: u32 = 100;
pub const CATEGORIES: u32 = SERVICES / CANDIDATES_PER_CATEGORY;
pub const RATERS: u64 = 2_000;
/// `k` of every `TopK` query.
pub const TOP_K: u32 = 10;
/// One query in this many is a `TopK`; the rest are `Score` (80/20).
const TOPK_ONE_IN: u64 = 5;
/// Reports per unit of [`Time`]: the Beta mechanism forgets by elapsed
/// time, so the clock advances slowly enough that evidence accumulates.
const REPORTS_PER_TICK: u64 = 4_096;

const METRICS: [Metric; 4] = [
    Metric::Price,
    Metric::ResponseTime,
    Metric::Availability,
    Metric::Accuracy,
];

/// The category a service is listed under.
pub fn category_of(service: u64) -> u32 {
    (service % CATEGORIES as u64) as u32
}

/// The listings to publish, in publish order.
pub fn listings(seed: u64) -> Vec<Listing> {
    let mut rng = Rng::fork(seed, 0x11);
    (0..SERVICES as u64)
        .map(|s| Listing {
            service: ServiceId::new(s),
            provider: ProviderId::new(s / 4),
            category: category_of(s),
            advertised: QosVector::from_pairs([
                (Metric::Price, rng.range(1.0, 10.0)),
                (Metric::ResponseTime, rng.range(20.0, 500.0)),
                (Metric::Availability, rng.range(0.9, 1.0)),
                (Metric::Accuracy, rng.range(0.3, 1.0)),
            ]),
        })
        .collect()
}

/// The four distinct preference vectors consumers query with.
pub fn preference_vectors() -> Vec<Preferences> {
    vec![
        Preferences::uniform(METRICS),
        Preferences::from_weights([(Metric::Price, 3.0), (Metric::ResponseTime, 1.0)]),
        Preferences::from_weights([
            (Metric::ResponseTime, 2.0),
            (Metric::Availability, 2.0),
            (Metric::Accuracy, 1.0),
        ]),
        Preferences::from_weights([(Metric::Accuracy, 4.0), (Metric::Price, 1.0)]),
    ]
}

/// A seeded stream of feedback reports. Two streams built from the same
/// arguments emit the same reports in the same order — that is how the
/// in-process reference sees exactly what the program under test was sent.
#[derive(Clone)]
pub struct ReportStream {
    rng: Rng,
    zipf: Zipf,
    emitted: u64,
}

impl ReportStream {
    pub fn new(seed: u64, zipf_s: f64) -> ReportStream {
        ReportStream {
            rng: Rng::fork(seed, 0x22),
            zipf: Zipf::new(SERVICES, zipf_s, seed),
            emitted: 0,
        }
    }

    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    fn next_report(&mut self) -> Feedback {
        let subject = ServiceId::new(self.zipf.sample(&mut self.rng) as u64);
        let rater = AgentId::new(self.rng.below(RATERS));
        let score = self.rng.unit();
        let at = Time::new(self.emitted / REPORTS_PER_TICK);
        self.emitted += 1;
        Feedback::scored(rater, subject, score, at)
    }

    pub fn batch(&mut self, size: usize) -> Vec<Feedback> {
        (0..size).map(|_| self.next_report()).collect()
    }
}

/// One read request, in the shape both the wire and the library take.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    Score(SubjectId),
    TopK { category: u32, prefs: usize },
}

/// A seeded stream of queries: 80% `Score`, 20% `TopK`, subjects and
/// categories Zipf-distributed over the same ranking the reports use, so
/// reads land on the subjects writes land on.
#[derive(Clone)]
pub struct QueryStream {
    rng: Rng,
    subjects: Zipf,
    categories: Zipf,
}

impl QueryStream {
    pub fn new(seed: u64, lane: u64, zipf_s: f64) -> QueryStream {
        QueryStream {
            rng: Rng::fork(seed, 0x3300 + lane),
            subjects: Zipf::new(SERVICES, zipf_s, seed),
            categories: Zipf::new(CATEGORIES, zipf_s, seed),
        }
    }

    pub fn next_query(&mut self) -> Query {
        if self.rng.below(TOPK_ONE_IN) == 0 {
            Query::TopK {
                category: self.categories.sample(&mut self.rng),
                prefs: self.rng.below(4) as usize,
            }
        } else {
            Query::Score(ServiceId::new(self.subjects.sample(&mut self.rng) as u64).into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_is_identical_for_equal_seeds() {
        assert_eq!(listings(9), listings(9));
        assert_ne!(listings(9), listings(10));
        let mut a = ReportStream::new(9, 0.9);
        let mut b = ReportStream::new(9, 0.9);
        assert_eq!(a.batch(500), b.batch(500));
        assert_eq!(a.emitted(), 500);
        let mut qa = QueryStream::new(9, 1, 0.9);
        let mut qb = QueryStream::new(9, 1, 0.9);
        for _ in 0..500 {
            assert_eq!(qa.next_query(), qb.next_query());
        }
    }

    #[test]
    fn population_has_the_stated_shape() {
        let all = listings(1);
        assert_eq!(all.len(), SERVICES as usize);
        for category in 0..CATEGORIES {
            let members = all.iter().filter(|l| l.category == category).count();
            assert_eq!(members, CANDIDATES_PER_CATEGORY as usize);
        }
        let prefs = preference_vectors();
        assert_eq!(prefs.len(), 4);
        for (i, a) in prefs.iter().enumerate() {
            for b in &prefs[i + 1..] {
                assert_ne!(a, b);
            }
        }
        let mut queries = QueryStream::new(1, 0, 0.9);
        let topk = (0..10_000)
            .filter(|_| matches!(queries.next_query(), Query::TopK { .. }))
            .count();
        assert!((1_700..2_300).contains(&topk), "TopK share off: {topk}");
    }
}
