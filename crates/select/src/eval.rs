//! The market evaluation loop.
//!
//! Each round: every consumer searches the registry, the strategy chooses
//! a service, the consumer invokes it, experiences the latent quality,
//! and files (possibly dishonest) feedback, which flows to the central
//! QoS store and to the strategy. The report carries the survey's
//! comparison currencies: achieved utility, regret against the oracle,
//! top-choice hit rate, and information-source costs.

use crate::strategy::{Candidate, SelectionContext, SelectionStrategy, SlaSelect};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wsrep_core::id::AgentId;
use wsrep_sim::world::World;

/// Knobs of a market run.
#[derive(Debug, Clone)]
pub struct MarketConfig {
    /// Rounds to simulate.
    pub rounds: u64,
    /// RNG seed for the strategy/selection randomness.
    pub seed: u64,
    /// Round at which the central registry fails, if any.
    pub registry_fails_at: Option<u64>,
    /// Round at which it recovers, if it failed.
    pub registry_recovers_at: Option<u64>,
}

impl MarketConfig {
    /// `rounds` rounds with a fixed seed and a healthy registry.
    pub fn new(rounds: u64, seed: u64) -> Self {
        MarketConfig {
            rounds,
            seed,
            registry_fails_at: None,
            registry_recovers_at: None,
        }
    }
}

/// Aggregated outcome of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MarketReport {
    /// Mean expected utility of the chosen services (ground truth).
    pub mean_utility: f64,
    /// Mean regret: oracle-best expected utility minus achieved.
    pub mean_regret: f64,
    /// Fraction of choices that were the oracle-best service.
    pub hit_rate: f64,
    /// Selections made.
    pub selections: u64,
    /// Selections that found no candidates (registry down, no cache).
    pub starved: u64,
    /// SLA accounting if the strategy used SLAs.
    pub negotiation_paid: f64,
    /// Penalties collected from violating providers.
    pub penalties_collected: f64,
    /// Mean utility over the *last quarter* of the run (post-learning).
    pub settled_utility: f64,
}

/// The market driver binding a [`World`] to a strategy.
#[derive(Debug)]
pub struct Market {
    world: World,
    config: MarketConfig,
}

impl Market {
    /// Build a market over a generated world.
    pub fn new(world: World, config: MarketConfig) -> Self {
        Market { world, config }
    }

    /// Access the underlying world (e.g. for oracle statistics).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Run the loop with the given strategy, consuming the market.
    pub fn run(mut self, strategy: &mut dyn SelectionStrategy) -> MarketReport {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut report = MarketReport::default();
        let mut utility_sum = 0.0;
        let mut regret_sum = 0.0;
        let mut hits = 0u64;
        let mut tail_utility = 0.0;
        let mut tail_n = 0u64;
        let tail_start = self.config.rounds - self.config.rounds / 4;

        // Candidate cache survives registry failures (consumers remember).
        let mut cached: Vec<Candidate> = Vec::new();

        for round in 0..self.config.rounds {
            if Some(round) == self.config.registry_fails_at {
                self.world.registry.fail();
            }
            if Some(round) == self.config.registry_recovers_at {
                self.world.registry.recover();
            }
            let registry_up = self.world.registry.is_up();
            let candidates: Vec<Candidate> = match self.world.registry.search(0) {
                Some(listings) => {
                    let fresh: Vec<Candidate> = listings
                        .into_iter()
                        .map(|l| Candidate {
                            service: l.service,
                            provider: l.provider,
                            advertised: l.advertised.clone(),
                        })
                        .collect();
                    cached = fresh.clone();
                    fresh
                }
                None => cached.clone(),
            };

            for idx in 0..self.world.consumers.len() {
                let consumer = self.world.consumers[idx].clone();
                let ctx = SelectionContext {
                    consumer: &consumer,
                    candidates: &candidates,
                    now: self.world.now(),
                    registry_up,
                };
                let Some(choice) = strategy.choose(&ctx, &mut rng) else {
                    report.starved += 1;
                    continue;
                };
                let candidate = candidates[choice].clone();
                let Some((observed, feedback)) =
                    self.world.invoke_and_report(idx, candidate.service)
                else {
                    report.starved += 1;
                    continue;
                };
                // Ground-truth accounting.
                let achieved = self.world.expected_utility(&consumer, candidate.service);
                let oracle = self
                    .world
                    .oracle_best(&consumer)
                    .map(|s| self.world.expected_utility(&consumer, s))
                    .unwrap_or(achieved);
                utility_sum += achieved;
                regret_sum += (oracle - achieved).max(0.0);
                if (oracle - achieved).abs() < 1e-12 {
                    hits += 1;
                }
                if round >= tail_start {
                    tail_utility += achieved;
                    tail_n += 1;
                }
                report.selections += 1;

                // Feedback flows to the central store (when up) and the
                // strategy.
                if registry_up {
                    self.world
                        .registry
                        .accept_feedback(feedback.clone())
                        .expect("registry state is fixed within a round");
                    strategy.observe(&feedback);
                } else if strategy.centralization()
                    == wsrep_core::typology::Centralization::Decentralized
                {
                    // Decentralized knowledge doesn't need the registry.
                    strategy.observe(&feedback);
                }
                let _ = observed;
            }
            self.world.step();
            strategy.refresh(self.world.now());
        }
        if report.selections > 0 {
            report.mean_utility = utility_sum / report.selections as f64;
            report.mean_regret = regret_sum / report.selections as f64;
            report.hit_rate = hits as f64 / report.selections as f64;
        }
        if tail_n > 0 {
            report.settled_utility = tail_utility / tail_n as f64;
        }
        report
    }

    /// Run with an [`SlaSelect`] strategy, wiring SLA settlement into each
    /// invocation (the generic loop cannot see observations, so SLAs get
    /// their own runner).
    pub fn run_sla(mut self, strategy: &mut SlaSelect) -> MarketReport {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut report = MarketReport::default();
        let mut utility_sum = 0.0;
        let mut regret_sum = 0.0;
        let mut hits = 0u64;
        let mut tail_utility = 0.0;
        let mut tail_n = 0u64;
        let tail_start = self.config.rounds - self.config.rounds / 4;

        for _round in 0..self.config.rounds {
            let candidates: Vec<Candidate> = self
                .world
                .registry
                .search(0)
                .map(|ls| {
                    ls.into_iter()
                        .map(|l| Candidate {
                            service: l.service,
                            provider: l.provider,
                            advertised: l.advertised.clone(),
                        })
                        .collect()
                })
                .unwrap_or_default();
            for idx in 0..self.world.consumers.len() {
                let consumer = self.world.consumers[idx].clone();
                let ctx = SelectionContext {
                    consumer: &consumer,
                    candidates: &candidates,
                    now: self.world.now(),
                    registry_up: true,
                };
                let Some(choice) = strategy.choose(&ctx, &mut rng) else {
                    report.starved += 1;
                    continue;
                };
                let candidate = candidates[choice].clone();
                let Some((observed, _feedback)) =
                    self.world.invoke_and_report(idx, candidate.service)
                else {
                    continue;
                };
                strategy.settle(consumer.id, &candidate, &observed);
                let achieved = self.world.expected_utility(&consumer, candidate.service);
                let oracle = self
                    .world
                    .oracle_best(&consumer)
                    .map(|s| self.world.expected_utility(&consumer, s))
                    .unwrap_or(achieved);
                utility_sum += achieved;
                regret_sum += (oracle - achieved).max(0.0);
                if (oracle - achieved).abs() < 1e-12 {
                    hits += 1;
                }
                if _round >= tail_start {
                    tail_utility += achieved;
                    tail_n += 1;
                }
                report.selections += 1;
            }
            self.world.step();
        }
        if report.selections > 0 {
            report.mean_utility = utility_sum / report.selections as f64;
            report.mean_regret = regret_sum / report.selections as f64;
            report.hit_rate = hits as f64 / report.selections as f64;
        }
        if tail_n > 0 {
            report.settled_utility = tail_utility / tail_n as f64;
        }
        report.negotiation_paid = strategy.negotiation_paid;
        report.penalties_collected = strategy.penalties_collected;
        report
    }
}

/// Convenience used by many tests and experiments: an `AgentId` for the
/// virtual "market analyst" observer.
pub fn analyst() -> AgentId {
    AgentId::new(u64::MAX)
}

/// Run one market per seed on scoped worker threads (so the closures may
/// borrow), returning the reports in seed order. The
/// experiment binaries average over seeds; markets are independent, so
/// this is embarrassingly parallel.
///
/// `build` receives the seed and returns the `(world, config, strategy)`
/// triple for that run.
pub fn run_seeds_parallel<F>(seeds: &[u64], build: F) -> Vec<MarketReport>
where
    F: Fn(u64) -> (World, MarketConfig, Box<dyn SelectionStrategy + Send>) + Sync,
{
    let mut out: Vec<Option<MarketReport>> = seeds.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        for (slot, &seed) in out.iter_mut().zip(seeds) {
            let build = &build;
            scope.spawn(move || {
                let (world, config, mut strategy) = build(seed);
                *slot = Some(Market::new(world, config).run(strategy.as_mut()));
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("worker filled slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{AdvertisedQos, RandomSelect, ReputationSelect};
    use wsrep_core::mechanisms::beta::BetaMechanism;
    use wsrep_sim::world::WorldConfig;

    fn run_with(strategy: &mut dyn SelectionStrategy, seed: u64, rounds: u64) -> MarketReport {
        let world = World::generate(WorldConfig::small(seed));
        Market::new(world, MarketConfig::new(rounds, seed)).run(strategy)
    }

    #[test]
    fn reputation_beats_random_in_an_honest_market() {
        let mut random = RandomSelect;
        let mut rep = ReputationSelect::new(Box::new(BetaMechanism::new()));
        let base = run_with(&mut random, 11, 40);
        let smart = run_with(&mut rep, 11, 40);
        assert!(
            smart.settled_utility > base.settled_utility + 0.05,
            "reputation {} vs random {}",
            smart.settled_utility,
            base.settled_utility
        );
        assert!(smart.mean_regret < base.mean_regret);
    }

    #[test]
    fn honest_advertisements_are_informative() {
        let mut random = RandomSelect;
        let mut adv = AdvertisedQos;
        let base = run_with(&mut random, 13, 20);
        let informed = run_with(&mut adv, 13, 20);
        assert!(informed.mean_utility > base.mean_utility);
    }

    #[test]
    fn exaggerated_advertisements_mislead_the_advertised_strategy() {
        // With saturated claims every exaggerator advertises the same
        // perfect vector, so the advertised strategy locks onto an
        // arbitrary exaggerator whose true quality is a lottery draw.
        // A single seed therefore proves nothing either way — compare the
        // strategies on their *average* settled utility over several
        // worlds. Homogeneous preferences isolate the gameability
        // question from personalization (beta reputation is global).
        let seeds = [17u64, 18, 19, 23, 29];
        let mut lied_to = 0.0;
        let mut informed = 0.0;
        for &seed in &seeds {
            let mut cfg = WorldConfig::small(seed);
            cfg.preference_heterogeneity = 0.0;
            cfg.exaggerating_fraction = 0.5;
            cfg.exaggeration_amount = 1.0; // claims saturate: zero information
            let world = World::generate(cfg.clone());
            let mut adv = AdvertisedQos;
            lied_to += Market::new(world, MarketConfig::new(60, seed))
                .run(&mut adv)
                .settled_utility;

            let mut rep = ReputationSelect::new(Box::new(BetaMechanism::new()));
            let world2 = World::generate(cfg);
            informed += Market::new(world2, MarketConfig::new(60, seed))
                .run(&mut rep)
                .settled_utility;
        }
        assert!(
            informed >= lied_to,
            "feedback-based {} vs gameable {} (mean over {} seeds)",
            informed / seeds.len() as f64,
            lied_to / seeds.len() as f64,
            seeds.len()
        );
    }

    #[test]
    fn registry_failure_starves_nobody_but_blinds_centralized() {
        let world = World::generate(WorldConfig::small(19));
        let mut rep = ReputationSelect::new(Box::new(BetaMechanism::new()));
        let mut config = MarketConfig::new(30, 19);
        config.registry_fails_at = Some(15);
        let report = Market::new(world, config).run(&mut rep);
        // The cache keeps candidates flowing.
        assert_eq!(report.starved, 0);
        assert!(report.selections > 0);
    }

    #[test]
    fn sla_runner_accounts_costs() {
        let mut cfg = WorldConfig::small(23);
        cfg.exaggerating_fraction = 0.5;
        cfg.exaggeration_amount = 0.6;
        let world = World::generate(cfg);
        let mut strat = SlaSelect::new();
        let report = Market::new(world, MarketConfig::new(15, 23)).run_sla(&mut strat);
        assert!(report.negotiation_paid > 0.0);
        assert!(
            report.penalties_collected > 0.0,
            "exaggerators must violate their SLAs"
        );
    }

    #[test]
    fn reports_are_deterministic_for_a_seed() {
        let mut a = RandomSelect;
        let mut b = RandomSelect;
        assert_eq!(run_with(&mut a, 29, 10), run_with(&mut b, 29, 10));
    }

    #[test]
    fn parallel_seed_runs_match_serial_ones() {
        use crate::strategy::ReputationSelect;
        let seeds = [7u64, 11, 13];
        let parallel = run_seeds_parallel(&seeds, |seed| {
            let mut cfg = WorldConfig::small(seed);
            cfg.preference_heterogeneity = 0.0;
            (
                World::generate(cfg),
                MarketConfig::new(15, seed),
                Box::new(ReputationSelect::new(Box::new(BetaMechanism::new())))
                    as Box<dyn SelectionStrategy + Send>,
            )
        });
        for (i, &seed) in seeds.iter().enumerate() {
            let mut cfg = WorldConfig::small(seed);
            cfg.preference_heterogeneity = 0.0;
            let mut strat = ReputationSelect::new(Box::new(BetaMechanism::new()));
            let serial =
                Market::new(World::generate(cfg), MarketConfig::new(15, seed)).run(&mut strat);
            assert_eq!(parallel[i], serial, "seed {seed}");
        }
    }
}
