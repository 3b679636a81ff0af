//! The market twin: the served registry answers the paper's market
//! question the way the in-process mechanism does.
//!
//! On exp_fig4_grid's world, seeds and rounds, every Figure-4 key and
//! `beta` drive two markets through the one choice rule,
//! `ReputationSelect`:
//! - the in-process mechanism, read through `global()` alone;
//! - a `ReputationService` built from the same mechanism, read through
//!   `score()` after `flush`.
//!
//! Both sources sit in a [`Recording`] wrapper that logs every estimate
//! the rule looks up. A key is a *twin* when the `MarketReport`s are `==`
//! and the estimate traces are `==` bit for bit, on every seed. A whole
//! market is the input and `==` is the oracle.
//!
//! Run it in release (`cargo test --release -p wsrep-bench --test
//! market_twin`): the dev profile takes minutes, most of them vu's
//! in-process half.

use std::cell::RefCell;
use std::sync::Arc;
use wsrep_bench::base_config;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::SubjectId;
use wsrep_core::mechanisms::{all_figure4_mechanisms, build};
use wsrep_core::time::Time;
use wsrep_core::trust::TrustEstimate;
use wsrep_core::typology::Centralization;
use wsrep_select::eval::{Market, MarketConfig, MarketReport};
use wsrep_select::strategy::{EstimateSource, RandomSelect, ReputationSelect};
use wsrep_serve::ReputationService;
use wsrep_sim::world::World;

const ROUNDS: u64 = 60;
const SEEDS: [u64; 3] = [3, 17, 31];

/// Keys whose served market differs from the in-process one. Each is a
/// cross-subject mechanism, and the registry replays it subject by
/// subject.
const NOT_YET_SERVABLE: [&str; 5] = ["pagerank", "lnz", "social", "eigentrust", "vu"];

/// Keys whose market is equal but whose trace is not. In-process
/// `refresh(now)` decays every subject, while a served score decays only
/// to its own newest report.
const TRACE_DIFFERS: [&str; 1] = ["beta"];

/// One estimate lookup: the subject and the estimate's value and
/// confidence bits.
type Lookup = (SubjectId, Option<(u64, u64)>);

/// A source that logs every estimate the rule reads. Its `personalized`
/// is the trait's default, so the rule reads `global()` alone.
#[derive(Debug)]
struct Recording<S> {
    inner: S,
    trace: RefCell<Vec<Lookup>>,
}

impl<S: EstimateSource> EstimateSource for Recording<S> {
    fn key(&self) -> &'static str {
        self.inner.key()
    }

    fn centralization(&self) -> Centralization {
        self.inner.centralization()
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        let estimate = self.inner.global(subject);
        let bits = estimate.map(|e| (e.value.get().to_bits(), e.confidence.to_bits()));
        self.trace.borrow_mut().push((subject, bits));
        estimate
    }

    fn file(&mut self, feedback: &Feedback) {
        self.inner.file(feedback);
    }

    fn refresh(&mut self, now: Time) {
        self.inner.refresh(now);
    }
}

fn world(seed: u64) -> World {
    let mut cfg = base_config(seed);
    cfg.preference_heterogeneity = 0.0;
    World::generate(cfg)
}

fn market<S: EstimateSource>(seed: u64, source: S) -> (MarketReport, Vec<Lookup>) {
    let mut strategy = ReputationSelect::new(Recording {
        inner: source,
        trace: RefCell::default(),
    });
    let report = Market::new(world(seed), MarketConfig::new(ROUNDS, seed)).run(&mut strategy);
    (report, strategy.source().trace.take())
}

/// One seed of one key: whether the markets and the traces are equal,
/// where the traces first part, and the served run's report.
struct SeedRun {
    market_equal: bool,
    first_difference: Option<usize>,
    served: MarketReport,
}

fn run_seed(key: &'static str, seed: u64) -> SeedRun {
    let (in_process, in_process_trace) = market(seed, build(key).expect("a Figure-4 key or beta"));
    let service = Arc::new(
        ReputationService::builder()
            .shards(4)
            .mechanism_factory(Arc::new(move || {
                build(key).expect("a Figure-4 key or beta")
            }))
            .build(),
    );
    let (served, served_trace) = market(seed, Arc::clone(&service));
    service.flush();
    assert_eq!(
        service.stats().feedback,
        served.selections,
        "{key} seed {seed}: every selection files one report"
    );
    let first_difference = (0..in_process_trace.len().max(served_trace.len()))
        .find(|&i| in_process_trace.get(i) != served_trace.get(i));
    SeedRun {
        market_equal: in_process == served,
        first_difference,
        served,
    }
}

#[derive(Debug, PartialEq)]
enum Outcome {
    Twin,
    MarketOnly,
    Diverges,
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes in the dev profile; run with --release"
)]
fn the_served_market_is_the_in_process_markets_twin() {
    let mut keys: Vec<&'static str> = all_figure4_mechanisms()
        .iter()
        .map(|m| m.info().key)
        .collect();
    keys.push("beta");

    let mut mismatches = Vec::new();
    let mut twins = 0;
    let mut served_beta = 0.0;
    for &key in &keys {
        let runs: Vec<SeedRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = SEEDS
                .iter()
                .map(|&seed| scope.spawn(move || run_seed(key, seed)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let outcome = if runs.iter().any(|r| !r.market_equal) {
            Outcome::Diverges
        } else if runs.iter().any(|r| r.first_difference.is_some()) {
            Outcome::MarketOnly
        } else {
            Outcome::Twin
        };
        let expected = if NOT_YET_SERVABLE.contains(&key) {
            Outcome::Diverges
        } else if TRACE_DIFFERS.contains(&key) {
            Outcome::MarketOnly
        } else {
            Outcome::Twin
        };
        if outcome == Outcome::Twin {
            twins += 1;
        }
        if key == "beta" {
            served_beta = runs.iter().map(|r| r.served.settled_utility).sum();
        }
        if outcome != expected {
            let markets = runs.iter().filter(|r| r.market_equal).count();
            let firsts: Vec<_> = runs.iter().map(|r| r.first_difference).collect();
            mismatches.push(format!(
                "{key}: expected {expected:?}, got {outcome:?} \
                 (market equal on {markets} of {} seeds; first trace difference per seed {firsts:?})",
                SEEDS.len()
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} keys left their list (move them, then rerun):\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
    assert_eq!(
        twins,
        keys.len() - NOT_YET_SERVABLE.len() - TRACE_DIFFERS.len()
    );

    let blind: f64 = SEEDS
        .iter()
        .map(|&seed| {
            Market::new(world(seed), MarketConfig::new(ROUNDS, seed))
                .run(&mut RandomSelect)
                .settled_utility
        })
        .sum();
    assert!(
        served_beta > blind,
        "served beta {served_beta} must beat blind choice {blind} over {} seeds",
        SEEDS.len()
    );
}
