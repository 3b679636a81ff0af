//! Sporas — Zacharia, Moukas & Maes (HICSS-32), reference \[37\].
//!
//! A *centralized, person/agent, global* mechanism designed to fix two eBay
//! weaknesses: unbounded accumulation and equal weighting of all raters.
//! Reputation lives in `(0, D]`; each new rating `W ∈ [0.1, 1]` updates
//!
//! ```text
//! R ← R + (1/θ) · Φ(R) · R_rater · (W − R/D)
//! Φ(R) = 1 − 1 / (1 + e^{−(R − D)/σ})
//! ```
//!
//! so high reputations change slowly (`Φ` damping), ratings from reputable
//! raters count more, and users can never fall below a newcomer — making
//! identity-switching unprofitable.

use crate::feedback::Feedback;
use crate::id::SubjectId;
use crate::mechanism::{ReputationMechanism, SubjectAccumulator};
use crate::trust::{evidence_confidence, TrustEstimate, TrustValue};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};
use std::collections::BTreeMap;

/// Sporas's constants and its update rule, shared by the mechanism and
/// its fold.
#[derive(Debug, Clone, Copy)]
struct Constants {
    /// Maximum reputation `D` (original paper uses 3000).
    max_reputation: f64,
    /// Effective number of ratings `θ` controlling adaptation speed.
    theta: f64,
    /// Damping width `σ`.
    sigma: f64,
}

impl Constants {
    /// `Φ(R)`.
    fn damping(&self, r: f64) -> f64 {
        1.0 - 1.0 / (1.0 + (-(r - self.max_reputation) / self.sigma).exp())
    }

    /// One rating's update of reputation `r` by a rater of reputation
    /// `rater_rep`: `R + (1/θ)·Φ(R)·R_rater·(W − R/D)` clamped to
    /// `[0, D]`, where the score maps onto Sporas's `W ∈ [0.1, 1]`.
    fn step(&self, r: f64, rater_rep: f64, score: f64) -> f64 {
        let w = 0.1 + 0.9 * score;
        let r =
            r + (1.0 / self.theta) * self.damping(r) * rater_rep * (w - r / self.max_reputation);
        r.clamp(0.0, self.max_reputation)
    }

    /// A rater's reputation before anyone rated it: mid-range, which is
    /// how Sporas treats newcomers acting as raters.
    fn newcomer(&self) -> f64 {
        self.max_reputation / 2.0
    }

    /// The estimate of `standing`.
    fn estimate(&self, standing: Standing) -> TrustEstimate {
        TrustEstimate::new(
            TrustValue::new(standing.reputation / self.max_reputation),
            evidence_confidence(standing.count, 5.0),
        )
    }
}

/// One rated subject: its running reputation `R` and the ratings that
/// moved it.
#[derive(Debug, Clone, Copy, Default)]
struct Standing {
    reputation: f64,
    count: usize,
}

/// Sporas with the original paper's constants as defaults.
#[derive(Debug, Clone)]
pub struct SporasMechanism {
    constants: Constants,
    standings: BTreeMap<SubjectId, Standing>,
    submitted: usize,
}

impl Default for SporasMechanism {
    fn default() -> Self {
        Self::new()
    }
}

impl SporasMechanism {
    /// Sporas with `D = 3000`, `θ = 10`, `σ = D/12`.
    pub fn new() -> Self {
        Self::with_params(3000.0, 10.0, 250.0)
    }

    /// Sporas with explicit constants.
    ///
    /// # Panics
    ///
    /// Panics if any constant is not strictly positive.
    pub(crate) fn with_params(max_reputation: f64, theta: f64, sigma: f64) -> Self {
        assert!(max_reputation > 0.0 && theta > 0.0 && sigma > 0.0);
        SporasMechanism {
            constants: Constants {
                max_reputation,
                theta,
                sigma,
            },
            standings: BTreeMap::new(),
            submitted: 0,
        }
    }
}

impl ReputationMechanism for SporasMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            key: "sporas",
            display: "Sporas",
            centralization: Centralization::Centralized,
            subject: Subject::PersonAgent,
            scope: Scope::Global,
            citation: "37",
            proposed_for_web_services: false,
        }
    }

    fn submit(&mut self, feedback: &Feedback) {
        let rater_rep = self
            .standings
            .get(&SubjectId::Agent(feedback.rater))
            .map_or(self.constants.newcomer(), |rater| rater.reputation);
        let s = self.standings.entry(feedback.subject).or_default();
        s.reputation = self.constants.step(s.reputation, rater_rep, feedback.score);
        s.count += 1;
        self.submitted += 1;
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        let standing = self.standings.get(&subject)?;
        Some(self.constants.estimate(*standing))
    }

    fn feedback_count(&self) -> usize {
        self.submitted
    }

    fn accumulator(&self) -> Option<Box<dyn SubjectAccumulator>> {
        Some(Box::new(SporasAccumulator {
            constants: self.constants,
            standing: Standing::default(),
        }))
    }
}

/// The Sporas fold: the running reputation `R` *is* the sufficient
/// statistic — each rating updates it in place. In a per-subject log a
/// rater only ever has resident reputation when it rates itself (the
/// subject appearing as its own rater); everyone else counts at the
/// newcomer mid-range, exactly as a replay through a fresh mechanism
/// would weigh them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SporasAccumulator {
    constants: Constants,
    standing: Standing,
}

impl SubjectAccumulator for SporasAccumulator {
    fn absorb(&mut self, feedback: &Feedback) {
        // A self-rating on the very first report still sees the newcomer
        // mid-range: `submit` reads the rater's reputation before the
        // subject's entry is created.
        let s = &mut self.standing;
        let rater_rep = if SubjectId::from(feedback.rater) == feedback.subject && s.count > 0 {
            s.reputation
        } else {
            self.constants.newcomer()
        };
        s.reputation = self.constants.step(s.reputation, rater_rep, feedback.score);
        s.count += 1;
    }

    fn estimate(&self) -> Option<TrustEstimate> {
        (self.standing.count > 0).then(|| self.constants.estimate(self.standing))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{AgentId, ServiceId};
    use crate::time::Time;
    use proptest::prelude::*;

    fn fb(score: f64) -> Feedback {
        Feedback::scored(AgentId::new(0), ServiceId::new(1), score, Time::ZERO)
    }

    /// Raw Sporas reputation in `[0, D]`, if the subject has been rated.
    fn raw(m: &SporasMechanism, subject: impl Into<SubjectId>) -> Option<f64> {
        m.standings.get(&subject.into()).map(|s| s.reputation)
    }

    #[test]
    fn newcomers_start_at_zero_and_climb() {
        let mut m = SporasMechanism::new();
        m.submit(&fb(1.0));
        let r1 = raw(&m, ServiceId::new(1)).unwrap();
        assert!(r1 > 0.0);
        for _ in 0..50 {
            m.submit(&fb(1.0));
        }
        let r2 = raw(&m, ServiceId::new(1)).unwrap();
        assert!(r2 > r1);
    }

    #[test]
    fn reputation_is_bounded_by_d() {
        let mut m = SporasMechanism::new();
        for _ in 0..5000 {
            m.submit(&fb(1.0));
        }
        let r = raw(&m, ServiceId::new(1)).unwrap();
        assert!(r <= 3000.0);
        let t = m.global(ServiceId::new(1).into()).unwrap();
        assert!(t.value.get() <= 1.0);
    }

    #[test]
    fn damping_slows_highly_reputed_users() {
        let m = SporasMechanism::new();
        assert!(m.constants.damping(0.0) > 0.99);
        assert!(m.constants.damping(3000.0) < 0.51);
        assert!(m.constants.damping(0.0) > m.constants.damping(1500.0));
    }

    #[test]
    fn bad_ratings_lower_reputation() {
        let mut m = SporasMechanism::new();
        for _ in 0..100 {
            m.submit(&fb(1.0));
        }
        let high = raw(&m, ServiceId::new(1)).unwrap();
        for _ in 0..100 {
            m.submit(&fb(0.0));
        }
        let low = raw(&m, ServiceId::new(1)).unwrap();
        assert!(low < high);
        assert!(low >= 0.0, "never below a newcomer");
    }

    #[test]
    fn reputable_raters_move_scores_more() {
        // Rate the rater up first, then compare the impact of its rating
        // against an unknown rater's on two fresh subjects.
        let mut m = SporasMechanism::new();
        let reputable = AgentId::new(7);
        for _ in 0..200 {
            m.submit(&Feedback::scored(
                AgentId::new(1),
                reputable,
                1.0,
                Time::ZERO,
            ));
        }
        let rater_rep = raw(&m, reputable).unwrap();
        assert!(rater_rep > 1500.0);

        m.submit(&Feedback::scored(
            reputable,
            ServiceId::new(10),
            1.0,
            Time::ZERO,
        ));
        let by_reputable = raw(&m, ServiceId::new(10)).unwrap();

        m.submit(&Feedback::scored(
            AgentId::new(99), // unknown rater: mid reputation
            ServiceId::new(11),
            1.0,
            Time::ZERO,
        ));
        let by_unknown = raw(&m, ServiceId::new(11)).unwrap();
        assert!(by_reputable > by_unknown);
    }

    #[test]
    #[should_panic]
    fn non_positive_params_panic() {
        SporasMechanism::with_params(0.0, 10.0, 10.0);
    }

    proptest! {
        #[test]
        fn reputation_stays_in_unit_interval_after_any_history(
            scores in proptest::collection::vec(0.0f64..=1.0, 1..200)
        ) {
            let mut m = SporasMechanism::new();
            for s in scores {
                m.submit(&fb(s));
            }
            let t = m.global(ServiceId::new(1).into()).unwrap();
            prop_assert!((0.0..=1.0).contains(&t.value.get()));
        }
    }
}
