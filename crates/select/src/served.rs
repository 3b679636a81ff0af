//! Selection through the served registry.
//!
//! [`ServedSelect`] adapts a [`ReputationService`] to the
//! [`SelectionStrategy`] interface, which lets the market loop race the
//! concurrent service against the in-process strategies. The strategy
//! mirrors the round's candidates into the service's listing table
//! (republishing is an idempotent upsert), files every observed feedback
//! through the batched ingest pipeline, and picks via the service's cached
//! `top_k` — so a market run doubles as an integration test of the whole
//! shards → published scores → selection path.

use crate::strategy::{SelectionContext, SelectionStrategy};
use rand::rngs::StdRng;
use std::sync::Arc;
use wsrep_core::feedback::Feedback;
use wsrep_core::time::Time;
use wsrep_core::typology::Centralization;
use wsrep_serve::ReputationService;
use wsrep_sim::registry::Listing;

/// A strategy that delegates ranking to a shared [`ReputationService`].
#[derive(Debug)]
pub struct ServedSelect {
    service: Arc<ReputationService>,
    category: u32,
}

impl ServedSelect {
    /// Select through `service`, searching category 0 (the simulator's
    /// single function category).
    pub fn new(service: Arc<ReputationService>) -> Self {
        ServedSelect {
            service,
            category: 0,
        }
    }

    /// Search a different function category.
    pub fn with_category(mut self, category: u32) -> Self {
        self.category = category;
        self
    }

    /// The backing service (e.g. to inspect its stats after a run).
    pub fn service(&self) -> &Arc<ReputationService> {
        &self.service
    }
}

impl SelectionStrategy for ServedSelect {
    fn name(&self) -> String {
        "served".into()
    }

    fn centralization(&self) -> Centralization {
        // The service is a central registry; when the simulated world's
        // registry is down the feedback relay dries up exactly like for
        // any other centralized mechanism.
        Centralization::Centralized
    }

    fn choose(&mut self, ctx: &SelectionContext<'_>, _rng: &mut StdRng) -> Option<usize> {
        if ctx.candidates.is_empty() {
            return None;
        }
        // Mirror the candidate set into the service so its listing table
        // tracks the (possibly stale) view the consumer received.
        for candidate in ctx.candidates {
            self.service
                .publish(Listing {
                    service: candidate.service,
                    provider: candidate.provider,
                    category: self.category,
                    advertised: candidate.advertised.clone(),
                })
                .expect("non-journaled mirror cannot fence publishes");
        }
        // Read-your-own-writes: rank only after everything this strategy
        // has filed is applied, so a selection never depends on how far
        // the writer thread happened to get.
        self.service.flush();
        let ranked = self
            .service
            .top_k(self.category, &ctx.consumer.prefs, ctx.candidates.len());
        ranked
            .iter()
            .find_map(|r| ctx.candidates.iter().position(|c| c.service == r.service))
    }

    fn observe(&mut self, feedback: &Feedback) {
        // A closed pipeline only happens during shutdown; dropping the
        // report then is fine.
        let _ = self.service.ingest(feedback.clone());
    }

    fn refresh(&mut self, _now: Time) {
        // Round boundary = consistency point: scores next round see
        // everything filed this round.
        self.service.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Market, MarketConfig};
    use crate::strategy::RandomSelect;
    use wsrep_sim::world::{World, WorldConfig};

    fn run_served(seed: u64, rounds: u64) -> (crate::eval::MarketReport, Arc<ReputationService>) {
        let world = World::generate(WorldConfig::small(seed));
        let service = Arc::new(ReputationService::builder().shards(4).build());
        let mut strategy = ServedSelect::new(Arc::clone(&service));
        let report = Market::new(world, MarketConfig::new(rounds, seed)).run(&mut strategy);
        (report, service)
    }

    #[test]
    fn served_market_runs_and_accumulates_state() {
        let (report, service) = run_served(31, 20);
        assert!(report.selections > 0);
        assert_eq!(report.starved, 0);
        let stats = service.stats();
        assert!(stats.listings > 0, "candidates must be mirrored: {stats:?}");
        assert!(
            stats.feedback > 0,
            "feedback must reach the store: {stats:?}"
        );
    }

    #[test]
    fn served_selection_is_deterministic_per_seed() {
        let (a, _) = run_served(37, 12);
        let (b, _) = run_served(37, 12);
        assert_eq!(a, b);
    }

    #[test]
    fn served_selection_beats_blind_choice() {
        let seeds = [41u64, 43, 47];
        let mut served = 0.0;
        let mut blind = 0.0;
        for &seed in &seeds {
            let (report, _) = run_served(seed, 40);
            served += report.settled_utility;
            let world = World::generate(WorldConfig::small(seed));
            let mut random = RandomSelect;
            blind += Market::new(world, MarketConfig::new(40, seed))
                .run(&mut random)
                .settled_utility;
        }
        assert!(
            served > blind,
            "served {served} must beat blind {blind} over {} seeds",
            seeds.len()
        );
    }
}
