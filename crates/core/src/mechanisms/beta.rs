//! The beta reputation system — Jøsang & Ismail; surveyed in reference \[11\].
//!
//! Not a leaf of Figure 4, but the probabilistic workhorse several leaves
//! build on (and the basis of the Whitby–Jøsang deviation filter in
//! `wsrep-robust`). Positive and negative evidence `(r, s)` accumulate with
//! a forgetting factor; the reputation is the expected value of the
//! Beta(r+1, s+1) posterior.

use crate::feedback::Feedback;
use crate::mechanism::{PerSubject, SubjectAccumulator};
use crate::time::Time;
use crate::trust::{evidence_confidence, TrustEstimate, TrustValue};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};

/// Accumulated beta evidence for one subject.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct BetaEvidence {
    /// Positive evidence mass `r`.
    pub r: f64,
    /// Negative evidence mass `s`.
    pub s: f64,
}

impl BetaEvidence {
    /// Expected value of the Beta(r+1, s+1) posterior.
    pub(crate) fn expectation(&self) -> f64 {
        (self.r + 1.0) / (self.r + self.s + 2.0)
    }

    /// Total evidence mass.
    pub(crate) fn total(&self) -> f64 {
        self.r + self.s
    }
}

/// Beta reputation with exponential forgetting: one [`BetaAccumulator`]
/// per subject.
pub type BetaMechanism = PerSubject<BetaAccumulator>;

impl Default for BetaMechanism {
    fn default() -> Self {
        Self::new()
    }
}

impl BetaMechanism {
    /// Beta reputation with forgetting factor `λ = 0.98`.
    pub fn new() -> Self {
        Self::with_forgetting(0.98)
    }

    /// Beta reputation with an explicit forgetting factor `λ ∈ \[0, 1\]`,
    /// applied per elapsed round: older evidence decays as `λ^age`. `1.0`
    /// disables forgetting.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is outside `\[0, 1\]`.
    pub fn with_forgetting(lambda: f64) -> Self {
        assert!((0.0..=1.0).contains(&lambda), "lambda must be in [0,1]");
        let info = MechanismInfo {
            key: "beta",
            display: "Jøsang–Ismail beta reputation",
            centralization: Centralization::Centralized,
            subject: Subject::PersonAgent,
            scope: Scope::Global,
            citation: "11",
            proposed_for_web_services: false,
        };
        PerSubject::over(info, BetaAccumulator::fresh(lambda))
    }
}

/// One subject's beta evidence: the `(r, s)` mass and the two timestamps
/// its decay depends on. A report first ages the mass from the last
/// report's time to its own, then adds its score; the estimate reads the
/// mass aged on to the newest report seen; `refresh(now)` ages it to
/// `now`. Mass ages only forward, so after a report older than the one
/// before it, the next step forward ages everything absorbed so far
/// again from that older time: the log-order rule.
#[derive(Debug, Clone, Copy)]
pub struct BetaAccumulator {
    lambda: f64,
    evidence: BetaEvidence,
    /// Timestamp the evidence mass is aged to: the last absorbed report's
    /// time, which moves *backwards* on an out-of-order report, or the
    /// last `refresh`.
    aged_to: Time,
    /// The clock `estimate` decays forward to: the newest timestamp
    /// absorbed, or the last `refresh`.
    latest: Time,
    absorbed: bool,
}

impl BetaAccumulator {
    /// A row with no evidence yet, forgetting by `lambda`.
    fn fresh(lambda: f64) -> Self {
        BetaAccumulator {
            lambda,
            evidence: BetaEvidence::default(),
            aged_to: Time::ZERO,
            latest: Time::ZERO,
            absorbed: false,
        }
    }

    /// The evidence mass aged from `aged_to` to `now` by `λ^(now −
    /// aged_to)`; unchanged when `now` is not later.
    fn aged(&self, now: Time) -> BetaEvidence {
        let mut e = self.evidence;
        let age = now.since(self.aged_to);
        if age > 0 {
            let f = self.lambda.powi(age as i32);
            e.r *= f;
            e.s *= f;
        }
        e
    }
}

impl SubjectAccumulator for BetaAccumulator {
    fn absorb(&mut self, feedback: &Feedback) {
        if self.absorbed {
            self.evidence = self.aged(feedback.at);
        }
        self.aged_to = feedback.at;
        self.latest = self.latest.max(feedback.at);
        // A score of 0.8 contributes 0.8 positive and 0.2 negative mass:
        // the continuous-rating extension of the beta system.
        self.evidence.r += feedback.score;
        self.evidence.s += 1.0 - feedback.score;
        self.absorbed = true;
    }

    fn estimate(&self) -> Option<TrustEstimate> {
        if !self.absorbed {
            return None;
        }
        let e = self.aged(self.latest);
        Some(TrustEstimate::new(
            TrustValue::new(e.expectation()),
            evidence_confidence(e.total().round() as usize, 5.0),
        ))
    }

    fn refresh(&mut self, now: Time) {
        self.evidence = self.aged(now);
        self.aged_to = now;
        self.latest = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{AgentId, ServiceId};
    use crate::mechanism::{score_from_log, ReputationMechanism};
    use proptest::prelude::*;

    fn fb(score: f64, t: u64) -> Feedback {
        Feedback::scored(AgentId::new(0), ServiceId::new(1), score, Time::new(t))
    }

    #[test]
    fn prior_is_one_half() {
        assert!((BetaEvidence::default().expectation() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn positive_history_raises_expectation() {
        let mut m = BetaMechanism::with_forgetting(1.0);
        for t in 0..10 {
            m.submit(&fb(1.0, t));
        }
        let est = m.global(ServiceId::new(1).into()).unwrap();
        assert!((est.value.get() - 11.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn forgetting_rehabilitates_reformed_subjects() {
        let mut fast = BetaMechanism::with_forgetting(0.8);
        let mut never = BetaMechanism::with_forgetting(1.0);
        for t in 0..20 {
            let f = fb(0.0, t);
            fast.submit(&f);
            never.submit(&f);
        }
        for t in 50..70 {
            let f = fb(1.0, t);
            fast.submit(&f);
            never.submit(&f);
        }
        let fast_est = fast.global(ServiceId::new(1).into()).unwrap().value.get();
        let never_est = never.global(ServiceId::new(1).into()).unwrap().value.get();
        assert!(fast_est > 0.85, "old sins forgotten: {fast_est}");
        assert!(never_est < 0.6, "unforgetting stays sour: {never_est}");
    }

    #[test]
    fn refresh_decays_between_interactions() {
        let mut acc = BetaAccumulator::fresh(0.5);
        acc.absorb(&fb(1.0, 0));
        let before = acc.evidence.total();
        acc.refresh(Time::new(4));
        let after = acc.evidence.total();
        assert!((after - before * 0.5f64.powi(4)).abs() < 1e-12);

        let mut m = BetaMechanism::with_forgetting(0.5);
        m.submit(&fb(1.0, 0));
        m.refresh(Time::new(4));
        let decayed = m.global(ServiceId::new(1).into()).unwrap();
        let mass = BetaEvidence {
            r: 0.5f64.powi(4),
            s: 0.0,
        };
        assert_eq!(decayed.value.get(), mass.expectation());
    }

    #[test]
    fn continuous_scores_split_mass() {
        let mut acc = BetaAccumulator::fresh(1.0);
        acc.absorb(&fb(0.75, 0));
        assert!((acc.evidence.r - 0.75).abs() < 1e-12);
        assert!((acc.evidence.s - 0.25).abs() < 1e-12);
    }

    /// `Rows` keep their rows inline in blocks, so a Beta row's size is
    /// the main term of the registry's resident bytes a report: 8 more
    /// bytes a row is about +0.16 B a report at 4 000 subjects and
    /// 200 000 reports.
    #[test]
    fn a_row_is_48_bytes() {
        assert_eq!(std::mem::size_of::<BetaAccumulator>(), 48);
    }

    #[test]
    #[should_panic(expected = "lambda must be in [0,1]")]
    fn bad_lambda_panics() {
        BetaMechanism::with_forgetting(1.2);
    }

    #[test]
    fn accumulator_matches_replay_with_out_of_order_timestamps() {
        let log = vec![fb(0.9, 5), fb(0.2, 2), fb(0.7, 9), fb(0.4, 9)];
        let mut acc = BetaMechanism::new().accumulator().unwrap();
        for f in &log {
            acc.absorb(f);
        }
        let replayed = score_from_log(&mut BetaMechanism::new(), &log, ServiceId::new(1).into());
        assert_eq!(acc.estimate(), replayed);
        assert_eq!(BetaMechanism::new().accumulator().unwrap().estimate(), None);
    }

    proptest! {
        #[test]
        fn expectation_always_in_unit_interval(
            scores in proptest::collection::vec((0.0f64..=1.0, 0u64..100), 1..50)
        ) {
            let mut m = BetaMechanism::new();
            let mut ts: Vec<_> = scores.clone();
            ts.sort_by_key(|&(_, t)| t);
            for (s, t) in ts {
                m.submit(&fb(s, t));
            }
            let est = m.global(ServiceId::new(1).into()).unwrap();
            prop_assert!((0.0..=1.0).contains(&est.value.get()));
        }
    }
}
