//! The eBay feedback profile — reference \[7\] of the survey.
//!
//! The archetypal *centralized, person/agent, global* system: buyers leave
//! `+1 / 0 / -1` feedback; a member's profile shows the running sum and the
//! positive-feedback percentage. The paper calls it "simple and effective"
//! for settings where personalization does not matter.

use crate::feedback::Feedback;
use crate::mechanism::{PerSubject, SubjectAccumulator};
use crate::trust::{evidence_confidence, TrustEstimate, TrustValue};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};

/// Running positive/neutral/negative tallies for one subject.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EbayProfile {
    /// Count of `+1` feedback.
    pub positive: u64,
    /// Count of `0` feedback.
    pub neutral: u64,
    /// Count of `-1` feedback.
    pub negative: u64,
}

impl EbayProfile {
    /// eBay's positive-feedback percentage over non-neutral feedback, or
    /// `None` with no such feedback.
    pub(crate) fn positive_fraction(&self) -> Option<f64> {
        let judged = self.positive + self.negative;
        if judged == 0 {
            None
        } else {
            Some(self.positive as f64 / judged as f64)
        }
    }

    /// Total feedback received.
    pub(crate) fn total(&self) -> u64 {
        self.positive + self.neutral + self.negative
    }
}

/// The eBay mechanism: ternary feedback, global tallies, one
/// [`EbayAccumulator`] per subject.
pub type EbayMechanism = PerSubject<EbayAccumulator>;

impl Default for EbayMechanism {
    fn default() -> Self {
        Self::new()
    }
}

impl EbayMechanism {
    /// Empty mechanism.
    pub fn new() -> Self {
        let info = MechanismInfo {
            key: "ebay",
            display: "eBay",
            centralization: Centralization::Centralized,
            subject: Subject::PersonAgent,
            scope: Scope::Global,
            citation: "7",
            proposed_for_web_services: false,
        };
        PerSubject::over(info, EbayAccumulator::default())
    }
}

/// One subject's eBay profile: the tallies *are* the sufficient
/// statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct EbayAccumulator {
    profile: EbayProfile,
}

impl SubjectAccumulator for EbayAccumulator {
    fn absorb(&mut self, feedback: &Feedback) {
        match feedback.ebay_sign() {
            1 => self.profile.positive += 1,
            -1 => self.profile.negative += 1,
            _ => self.profile.neutral += 1,
        }
    }

    fn estimate(&self) -> Option<TrustEstimate> {
        let p = &self.profile;
        if p.total() == 0 {
            return None;
        }
        Some(TrustEstimate::new(
            TrustValue::new(p.positive_fraction().unwrap_or(0.5)),
            evidence_confidence((p.positive + p.negative) as usize, 5.0),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{AgentId, ServiceId};
    use crate::mechanism::ReputationMechanism;
    use crate::time::Time;

    fn fb(rater: u64, score: f64) -> Feedback {
        Feedback::scored(AgentId::new(rater), ServiceId::new(1), score, Time::ZERO)
    }

    #[test]
    fn tallies_follow_ternary_buckets() {
        let mut row = EbayAccumulator::default();
        row.absorb(&fb(0, 0.9));
        row.absorb(&fb(1, 0.9));
        row.absorb(&fb(2, 0.5));
        row.absorb(&fb(3, 0.1));
        let p = row.profile;
        assert_eq!((p.positive, p.neutral, p.negative), (2, 1, 1));
        assert_eq!(p.total(), 4);
    }

    #[test]
    fn positive_fraction_ignores_neutrals() {
        let mut m = EbayMechanism::new();
        m.submit(&fb(0, 0.9));
        m.submit(&fb(1, 0.5));
        let est = m.global(ServiceId::new(1).into()).unwrap();
        assert_eq!(est.value, TrustValue::new(1.0));
    }

    #[test]
    fn all_neutral_profile_reports_neutral_trust() {
        let mut m = EbayMechanism::new();
        m.submit(&fb(0, 0.5));
        let est = m.global(ServiceId::new(1).into()).unwrap();
        assert_eq!(est.value, TrustValue::NEUTRAL);
        assert_eq!(est.confidence, 0.0);
    }

    #[test]
    fn confidence_grows_with_judged_feedback() {
        let mut m = EbayMechanism::new();
        for i in 0..20 {
            m.submit(&fb(i, 0.9));
        }
        let est = m.global(ServiceId::new(1).into()).unwrap();
        assert_eq!(est.value, TrustValue::new(1.0));
        assert!(est.confidence > 0.7);
    }

    #[test]
    fn unknown_subject_has_no_reputation() {
        let m = EbayMechanism::new();
        assert_eq!(m.global(ServiceId::new(9).into()), None);
    }

    #[test]
    fn classification_matches_figure4() {
        let info = EbayMechanism::new().info();
        assert_eq!(info.centralization, Centralization::Centralized);
        assert_eq!(info.subject, Subject::PersonAgent);
        assert_eq!(info.scope, Scope::Global);
    }
}
