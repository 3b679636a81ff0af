//! Churn: nodes leaving and (re)joining — the dynamism that, per the
//! paper, makes the server-centric UDDI framework stale and motivates
//! peer-to-peer web services.

use rand::Rng;
use std::collections::BTreeSet;
use wsrep_core::id::AgentId;

/// A memoryless churn process over a fixed node population.
#[derive(Debug, Clone)]
pub struct ChurnModel {
    /// Per-round probability an online node goes offline.
    leave_prob: f64,
    /// Per-round probability an offline node comes back.
    rejoin_prob: f64,
    offline: BTreeSet<AgentId>,
}

impl ChurnModel {
    /// New model with given leave/rejoin probabilities.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `\[0, 1\]`.
    pub fn new(leave_prob: f64, rejoin_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&leave_prob), "leave_prob in [0,1]");
        assert!((0.0..=1.0).contains(&rejoin_prob), "rejoin_prob in [0,1]");
        ChurnModel {
            leave_prob,
            rejoin_prob,
            offline: BTreeSet::new(),
        }
    }

    /// No churn at all.
    pub fn none() -> Self {
        Self::new(0.0, 0.0)
    }

    /// Currently offline nodes.
    pub fn offline(&self) -> impl Iterator<Item = AgentId> + '_ {
        self.offline.iter().copied()
    }

    /// Advance one round over `population`; returns `(left, rejoined)`.
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        population: &[AgentId],
    ) -> (Vec<AgentId>, Vec<AgentId>) {
        let mut left = Vec::new();
        let mut rejoined = Vec::new();
        for &node in population {
            if self.offline.contains(&node) {
                if rng.gen::<f64>() < self.rejoin_prob {
                    self.offline.remove(&node);
                    rejoined.push(node);
                }
            } else if rng.gen::<f64>() < self.leave_prob {
                self.offline.insert(node);
                left.push(node);
            }
        }
        (left, rejoined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn population(n: u64) -> Vec<AgentId> {
        (0..n).map(AgentId::new).collect()
    }

    #[test]
    fn no_churn_never_changes_anything() {
        let mut c = ChurnModel::none();
        let mut rng = StdRng::seed_from_u64(1);
        let pop = population(20);
        for _ in 0..10 {
            let (left, rejoined) = c.step(&mut rng, &pop);
            assert!(left.is_empty() && rejoined.is_empty());
        }
    }

    #[test]
    fn heavy_churn_takes_nodes_offline() {
        let mut c = ChurnModel::new(0.5, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let pop = population(100);
        c.step(&mut rng, &pop);
        let off = c.offline().count();
        assert!(off > 20 && off < 80, "off={off}");
    }

    #[test]
    fn rejoining_brings_nodes_back() {
        let mut c = ChurnModel::new(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let pop = population(10);
        let (left, _) = c.step(&mut rng, &pop);
        assert_eq!(left.len(), 10);
        let (_, rejoined) = c.step(&mut rng, &pop);
        assert_eq!(rejoined.len(), 10);
        assert_eq!(c.offline().count(), 0);
    }

    #[test]
    fn equilibrium_fraction_matches_rates() {
        // leave 0.1, rejoin 0.1 → expected offline fraction 0.5.
        let mut c = ChurnModel::new(0.1, 0.1);
        let mut rng = StdRng::seed_from_u64(4);
        let pop = population(500);
        for _ in 0..200 {
            c.step(&mut rng, &pop);
        }
        let frac = c.offline().count() as f64 / 500.0;
        assert!((frac - 0.5).abs() < 0.12, "frac={frac}");
    }

    #[test]
    #[should_panic(expected = "leave_prob in [0,1]")]
    fn invalid_probability_panics() {
        ChurnModel::new(1.2, 0.0);
    }
}
