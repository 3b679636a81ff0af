//! Service-level agreements.
//!
//! Section 2 of the paper: to get guaranteed quality "a consumer can
//! negotiate with a provider to make an agreement, called a Service Level
//! Agreement (SLA) which specifies the quality that a service should meet
//! … A provider may have to pay a penalty when the service is not
//! delivered according to SLA. However, making a SLA comes with a cost."
//! This module models exactly those three pieces: per-metric obligations,
//! violation detection against observed QoS, and the penalty/negotiation
//! cost accounting used by the `exp_fig2` information-source experiment.

use crate::metric::{Metric, Monotonicity};
use crate::value::QosVector;
use std::collections::BTreeMap;

/// One obligation: the delivered value must be at least as good as `bound`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obligation {
    /// The guaranteed bound in the metric's raw unit.
    pub bound: f64,
    /// Penalty the provider pays per violation of this obligation.
    pub penalty: f64,
}

/// A negotiated service-level agreement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sla {
    obligations: BTreeMap<Metric, Obligation>,
    /// One-off cost of negotiating this agreement (time, legal expenses),
    /// charged to the consumer side in experiments.
    negotiation_cost: f64,
}

/// The outcome of checking one invocation against an SLA.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SlaOutcome {
    /// Metrics whose obligation was violated by the observation.
    pub violations: Vec<Metric>,
    /// Total penalty owed by the provider for this invocation.
    pub penalty: f64,
}

impl SlaOutcome {
    /// Whether the invocation met every obligation.
    pub fn compliant(&self) -> bool {
        self.violations.is_empty()
    }
}

impl Sla {
    /// Empty SLA with the given negotiation cost.
    pub fn new(negotiation_cost: f64) -> Self {
        Sla {
            obligations: BTreeMap::new(),
            negotiation_cost,
        }
    }

    /// Add an obligation; later calls replace earlier ones for the metric.
    pub fn require(&mut self, metric: Metric, bound: f64, penalty: f64) -> &mut Self {
        self.obligations
            .insert(metric, Obligation { bound, penalty });
        self
    }

    /// Derive an SLA from an advertised QoS vector with a tolerance slack:
    /// each advertised value becomes an obligation loosened by
    /// `slack` (e.g. `slack = 0.1` allows delivered response time 10% above
    /// the advertised one before a violation fires).
    pub fn from_advertised(
        advertised: &QosVector,
        slack: f64,
        penalty_per_metric: f64,
        negotiation_cost: f64,
    ) -> Self {
        let mut sla = Sla::new(negotiation_cost);
        for (m, v) in advertised.iter() {
            let bound = match m.monotonicity() {
                Monotonicity::HigherBetter => v * (1.0 - slack),
                Monotonicity::LowerBetter => v * (1.0 + slack),
            };
            sla.require(m, bound, penalty_per_metric);
        }
        sla
    }

    /// The negotiation cost of this agreement.
    pub fn negotiation_cost(&self) -> f64 {
        self.negotiation_cost
    }

    /// The obligation on one metric, if any.
    pub fn obligation(&self, metric: Metric) -> Option<Obligation> {
        self.obligations.get(&metric).copied()
    }

    /// Metrics under obligation.
    pub fn metrics(&self) -> impl Iterator<Item = Metric> + '_ {
        self.obligations.keys().copied()
    }

    /// Number of obligations.
    pub fn len(&self) -> usize {
        self.obligations.len()
    }

    /// Whether the SLA carries no obligations.
    pub fn is_empty(&self) -> bool {
        self.obligations.is_empty()
    }

    /// Check one observed invocation. A metric missing from the observation
    /// counts as a violation (the obligation could not be demonstrated) —
    /// the third-party supervisor of Figure 2 treats silence as breach.
    pub fn check(&self, observed: &QosVector) -> SlaOutcome {
        let mut outcome = SlaOutcome::default();
        for (&m, ob) in &self.obligations {
            let violated = match observed.get(m) {
                None => true,
                Some(v) => match m.monotonicity() {
                    Monotonicity::HigherBetter => v < ob.bound,
                    Monotonicity::LowerBetter => v > ob.bound,
                },
            };
            if violated {
                outcome.violations.push(m);
                outcome.penalty += ob.penalty;
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sla() -> Sla {
        let mut s = Sla::new(5.0);
        s.require(Metric::ResponseTime, 150.0, 2.0)
            .require(Metric::Availability, 0.9, 3.0);
        s
    }

    #[test]
    fn compliant_invocation_pays_nothing() {
        let obs =
            QosVector::from_pairs([(Metric::ResponseTime, 120.0), (Metric::Availability, 0.95)]);
        let out = sla().check(&obs);
        assert!(out.compliant());
        assert_eq!(out.penalty, 0.0);
    }

    #[test]
    fn violations_accumulate_penalties() {
        let obs = QosVector::from_pairs([
            (Metric::ResponseTime, 400.0), // too slow
            (Metric::Availability, 0.5),   // too flaky
        ]);
        let out = sla().check(&obs);
        assert_eq!(out.violations.len(), 2);
        assert_eq!(out.penalty, 5.0);
    }

    #[test]
    fn boundary_values_are_compliant() {
        let obs =
            QosVector::from_pairs([(Metric::ResponseTime, 150.0), (Metric::Availability, 0.9)]);
        assert!(sla().check(&obs).compliant());
    }

    #[test]
    fn missing_metric_is_a_violation() {
        let obs = QosVector::from_pairs([(Metric::ResponseTime, 100.0)]);
        let out = sla().check(&obs);
        assert_eq!(out.violations, vec![Metric::Availability]);
    }

    #[test]
    fn from_advertised_applies_slack_by_orientation() {
        let adv =
            QosVector::from_pairs([(Metric::ResponseTime, 100.0), (Metric::Availability, 0.9)]);
        let sla = Sla::from_advertised(&adv, 0.1, 1.0, 2.0);
        let rt = sla.obligation(Metric::ResponseTime).unwrap();
        assert!((rt.bound - 110.0).abs() < 1e-9); // 10% slower allowed
        let av = sla.obligation(Metric::Availability).unwrap();
        assert!((av.bound - 0.81).abs() < 1e-9); // 10% lower allowed
        assert_eq!(sla.negotiation_cost(), 2.0);
    }

    #[test]
    fn empty_sla_is_always_compliant() {
        let sla = Sla::new(0.0);
        assert!(sla.is_empty());
        assert!(sla.check(&QosVector::new()).compliant());
    }

    proptest! {
        /// Penalty is exactly the sum of per-violation penalties, never
        /// negative, and bounded by the total penalty mass of the SLA.
        #[test]
        fn penalty_is_conserved(
            rt in 0.0f64..400.0,
            av in 0.0f64..=1.0,
        ) {
            let s = sla();
            let obs = QosVector::from_pairs([
                (Metric::ResponseTime, rt),
                (Metric::Availability, av),
            ]);
            let out = s.check(&obs);
            prop_assert!(out.penalty >= 0.0);
            prop_assert!(out.penalty <= 5.0 + 1e-9);
            let expected: f64 = out.violations.iter()
                .map(|&m| s.obligation(m).unwrap().penalty)
                .sum();
            prop_assert!((out.penalty - expected).abs() < 1e-9);
        }
    }
}
