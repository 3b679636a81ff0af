//! Zhang & Cohen's personalized approach — reference \[38\] of the survey
//! ("Trusting Advice from Other Buyers in E-Marketplaces: The Problem of
//! Unfair Ratings", ICEC 2006).
//!
//! A buyer combines a **private reputation** (beta estimate from its own
//! experiences with the seller) with a **public reputation** (all
//! advisors' ratings, each weighted by the advisor's trustworthiness —
//! learned from how well the advisor's past ratings matched the buyer's
//! own subsequent experiences). The blend weight follows the buyer's
//! private-evidence confidence: experienced buyers trust themselves,
//! newcomers lean on the (advisor-weighted) crowd. The survey singles the
//! approach out as directly applicable to web-service selection.

use crate::defense::UnfairRatingDefense;
use std::collections::BTreeMap;
use wsrep_core::id::{AgentId, SubjectId};
use wsrep_core::store::FeedbackStore;
use wsrep_core::trust::{evidence_confidence, TrustEstimate, TrustValue};

/// The Zhang–Cohen private/public blend.
#[derive(Debug, Clone, Copy)]
pub struct ZhangCohen {
    /// Own experiences needed for ~50% self-reliance.
    pub private_saturation: f64,
    /// Tolerance when judging whether an advisor's rating "agrees" with
    /// the buyer's own experience of the same subject.
    pub agreement_tolerance: f64,
}

impl Default for ZhangCohen {
    fn default() -> Self {
        ZhangCohen {
            private_saturation: 4.0,
            agreement_tolerance: 0.25,
        }
    }
}

impl ZhangCohen {
    /// The buyer's private (beta) reputation of the subject:
    /// `(value, evidence count)`, or `None` without own experience.
    pub(crate) fn private_reputation(
        &self,
        store: &FeedbackStore,
        observer: AgentId,
        subject: SubjectId,
    ) -> Option<(f64, usize)> {
        let own: Vec<f64> = store
            .by(observer)
            .filter(|f| f.subject == subject)
            .map(|f| f.score)
            .collect();
        if own.is_empty() {
            return None;
        }
        // Beta expectation with continuous evidence: r = Σ scores.
        let r: f64 = own.iter().sum();
        let value = (r + 1.0) / (own.len() as f64 + 2.0);
        Some((value.clamp(0.0, 1.0), own.len()))
    }

    /// The buyer's trust in an advisor: Laplace-smoothed agreement rate
    /// between the advisor's ratings and the buyer's own experience over
    /// commonly rated subjects. Unknown advisors get 0.5.
    pub(crate) fn advisor_trust(
        &self,
        store: &FeedbackStore,
        observer: AgentId,
        advisor: AgentId,
    ) -> f64 {
        if observer == advisor {
            return 1.0;
        }
        // Buyer's own mean per subject.
        let mut own: BTreeMap<SubjectId, (f64, usize)> = BTreeMap::new();
        for f in store.by(observer) {
            let e = own.entry(f.subject).or_insert((0.0, 0));
            e.0 += f.score;
            e.1 += 1;
        }
        let mut agreed = 0.0;
        let mut total = 0.0;
        for f in store.by(advisor) {
            let Some(&(sum, n)) = own.get(&f.subject) else {
                continue;
            };
            let own_mean = sum / n as f64;
            total += 1.0;
            if (f.score - own_mean).abs() <= self.agreement_tolerance {
                agreed += 1.0;
            }
        }
        (agreed + 1.0) / (total + 2.0)
    }

    /// The public reputation: advisor-trust-weighted mean of all ratings
    /// about the subject, excluding the buyer's own.
    pub(crate) fn public_reputation(
        &self,
        store: &FeedbackStore,
        observer: AgentId,
        subject: SubjectId,
    ) -> Option<f64> {
        let mut num = 0.0;
        let mut den = 0.0;
        for f in store.about(subject) {
            if f.rater == observer {
                continue;
            }
            let w = self.advisor_trust(store, observer, f.rater);
            num += w * f.score;
            den += w;
        }
        if den > 0.0 {
            Some(num / den)
        } else {
            None
        }
    }
}

impl UnfairRatingDefense for ZhangCohen {
    fn name(&self) -> &'static str {
        "zhang-cohen"
    }

    fn estimate(
        &self,
        store: &FeedbackStore,
        observer: AgentId,
        subject: SubjectId,
    ) -> Option<TrustEstimate> {
        let private = self.private_reputation(store, observer, subject);
        let public = self.public_reputation(store, observer, subject);
        match (private, public) {
            (Some((pv, n)), Some(pub_v)) => {
                let w = evidence_confidence(n, self.private_saturation);
                Some(TrustEstimate::new(
                    TrustValue::new(w * pv + (1.0 - w) * pub_v),
                    0.5 + 0.5 * w,
                ))
            }
            (Some((pv, n)), None) => Some(TrustEstimate::new(
                TrustValue::new(pv),
                evidence_confidence(n, self.private_saturation),
            )),
            (None, Some(pub_v)) => Some(TrustEstimate::new(TrustValue::new(pub_v), 0.4)),
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrep_core::feedback::Feedback;
    use wsrep_core::id::ServiceId;
    use wsrep_core::time::Time;

    fn fb(rater: u64, subject: u64, score: f64) -> Feedback {
        Feedback::scored(
            AgentId::new(rater),
            ServiceId::new(subject),
            score,
            Time::ZERO,
        )
    }

    fn s(i: u64) -> SubjectId {
        ServiceId::new(i).into()
    }

    #[test]
    fn advisors_that_agree_with_the_buyer_gain_trust() {
        let mut store = FeedbackStore::new();
        // Buyer 0 knows subjects 1, 2 well.
        store.push(fb(0, 1, 0.9));
        store.push(fb(0, 2, 0.2));
        // Advisor 1 agrees on both; advisor 2 contradicts both.
        store.push(fb(1, 1, 0.85));
        store.push(fb(1, 2, 0.25));
        store.push(fb(2, 1, 0.1));
        store.push(fb(2, 2, 0.95));
        let zc = ZhangCohen::default();
        assert!(
            zc.advisor_trust(&store, AgentId::new(0), AgentId::new(1))
                > zc.advisor_trust(&store, AgentId::new(0), AgentId::new(2))
        );
    }

    #[test]
    fn public_reputation_discounts_distrusted_advisors() {
        let mut store = FeedbackStore::new();
        // Calibration subjects: buyer and advisor 1 agree, advisor 2 lies.
        for subj in 1..5 {
            store.push(fb(0, subj, 0.8));
            store.push(fb(1, subj, 0.8));
            store.push(fb(2, subj, 0.1));
        }
        // New subject 9: advisor 1 praises, advisor 2 trashes.
        store.push(fb(1, 9, 0.9));
        store.push(fb(2, 9, 0.0));
        let zc = ZhangCohen::default();
        let est = zc.estimate(&store, AgentId::new(0), s(9)).unwrap();
        assert!(est.value.get() > 0.6, "got {}", est.value);
    }

    #[test]
    fn experienced_buyers_trust_themselves() {
        let mut store = FeedbackStore::new();
        for _ in 0..10 {
            store.push(fb(0, 1, 0.9)); // abundant own experience: good
        }
        for i in 1..20 {
            store.push(fb(i, 1, 0.05)); // hostile crowd
        }
        let est = ZhangCohen::default()
            .estimate(&store, AgentId::new(0), s(1))
            .unwrap();
        assert!(est.value.get() > 0.6, "got {}", est.value);
    }

    #[test]
    fn newcomers_lean_on_the_crowd() {
        let mut store = FeedbackStore::new();
        for i in 1..10 {
            store.push(fb(i, 1, 0.85));
        }
        let est = ZhangCohen::default()
            .estimate(&store, AgentId::new(0), s(1))
            .unwrap();
        assert!((est.value.get() - 0.85).abs() < 0.05);
    }

    #[test]
    fn private_only_when_no_advisors() {
        let mut store = FeedbackStore::new();
        store.push(fb(0, 1, 0.9));
        let est = ZhangCohen::default()
            .estimate(&store, AgentId::new(0), s(1))
            .unwrap();
        // Beta with r=0.9,s=0.1: (1.9)/(3) ≈ 0.633.
        assert!((est.value.get() - 1.9 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn nothing_known_is_none() {
        let store = FeedbackStore::new();
        assert!(ZhangCohen::default()
            .estimate(&store, AgentId::new(0), s(1))
            .is_none());
    }

    #[test]
    fn self_trust_is_full() {
        let store = FeedbackStore::new();
        assert_eq!(
            ZhangCohen::default().advisor_trust(&store, AgentId::new(0), AgentId::new(0)),
            1.0
        );
    }
}
