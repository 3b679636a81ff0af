//! Aberer & Despotovic — "Managing trust in a peer-2-peer information
//! system" (CIKM 2001), reference \[1\].
//!
//! *Decentralized, person/agent, global.* The earliest P-Grid-based trust
//! system works purely with **complaints**: after a bad interaction, a peer
//! files a complaint about the other. A peer's complaint index combines the
//! complaints it *received* with the complaints it *filed* (filing many
//! complaints is itself suspicious — a cheap way to badmouth):
//!
//! ```text
//! T(q) = cr(q) = |complaints about q| × |complaints filed by q|
//! ```
//!
//! Low index = trustworthy. A peer is distrusted when its index exceeds a
//! multiple of the population median. The storage/routing embodiment over
//! a P-Grid lives in `wsrep-net`.

use crate::feedback::Feedback;
use crate::id::SubjectId;
use crate::mechanism::{ReputationMechanism, SubjectAccumulator};
use crate::trust::{evidence_confidence, TrustEstimate, TrustValue};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};
use std::collections::BTreeMap;

/// Complaint-based trust.
#[derive(Debug, Clone)]
pub struct ComplaintsMechanism {
    /// Score below which an interaction produces a complaint.
    complaint_threshold: f64,
    /// Every peer seen, as a subject or as a rater.
    tallies: BTreeMap<SubjectId, Tally>,
    submitted: usize,
}

impl Default for ComplaintsMechanism {
    fn default() -> Self {
        Self::new()
    }
}

impl ComplaintsMechanism {
    /// Complaints fire below a satisfaction of 0.5.
    pub fn new() -> Self {
        Self::with_threshold(0.5)
    }

    /// Explicit complaint threshold in `\[0, 1\]`.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is outside `\[0, 1\]`.
    pub(crate) fn with_threshold(complaint_threshold: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&complaint_threshold),
            "threshold must be in [0,1]"
        );
        ComplaintsMechanism {
            complaint_threshold,
            tallies: BTreeMap::new(),
            submitted: 0,
        }
    }

    /// The complaint index `cr(q)`; uses `(filed + 1)` so pure receivers
    /// are still distinguishable.
    pub fn complaint_index(&self, subject: SubjectId) -> f64 {
        let t = self.tallies.get(&subject).copied().unwrap_or_default();
        t.received as f64 * (t.filed as f64 + 1.0)
    }

    /// Median complaint index over all known subjects (the decision
    /// baseline of the original algorithm).
    pub fn median_index(&self) -> f64 {
        let mut idx: Vec<f64> = self
            .tallies
            .keys()
            .map(|&s| self.complaint_index(s))
            .collect();
        if idx.is_empty() {
            return 0.0;
        }
        idx.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        idx[idx.len() / 2]
    }

    /// The binary decision of the original paper: distrust a subject whose
    /// index exceeds `factor ×` the median (they suggest small factors).
    pub fn is_distrusted(&self, subject: SubjectId, factor: f64) -> bool {
        self.complaint_index(subject) > factor * self.median_index().max(1.0)
    }
}

impl ReputationMechanism for ComplaintsMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            key: "complaints",
            display: "K. Aberer & Z. Despotovic",
            centralization: Centralization::Decentralized,
            subject: Subject::PersonAgent,
            scope: Scope::Global,
            citation: "1",
            proposed_for_web_services: false,
        }
    }

    fn submit(&mut self, feedback: &Feedback) {
        let complaint = u64::from(feedback.is_complaint(self.complaint_threshold));
        let subject = self.tallies.entry(feedback.subject).or_default();
        subject.interactions += 1;
        subject.received += complaint;
        self.tallies.entry(feedback.rater.into()).or_default().filed += complaint;
        self.submitted += 1;
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        self.tallies.get(&subject).map(Tally::trust)
    }

    fn feedback_count(&self) -> usize {
        self.submitted
    }

    fn accumulator(&self) -> Option<Box<dyn SubjectAccumulator>> {
        Some(Box::new(ComplaintsAccumulator {
            complaint_threshold: self.complaint_threshold,
            tally: Tally::default(),
        }))
    }
}

/// The complaints fold. A subject's estimate depends on complaints it
/// *received* (reports about it) and complaints it *filed* — and in a
/// per-subject log the subject only appears as a filer when it complains
/// about itself, which the fold tracks via the self-rating check. The
/// population-median decision baseline ([`ComplaintsMechanism::median_index`])
/// is inherently cross-subject and stays on the full mechanism.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ComplaintsAccumulator {
    complaint_threshold: f64,
    tally: Tally,
}

impl SubjectAccumulator for ComplaintsAccumulator {
    fn absorb(&mut self, feedback: &Feedback) {
        self.tally.interactions += 1;
        if feedback.is_complaint(self.complaint_threshold) {
            self.tally.received += 1;
            if SubjectId::from(feedback.rater) == feedback.subject {
                self.tally.filed += 1;
            }
        }
    }

    fn estimate(&self) -> Option<TrustEstimate> {
        (self.tally.interactions > 0).then(|| self.tally.trust())
    }
}

/// One peer's counts: interactions it was the subject of (complaints and
/// satisfactory ones), complaints it received and complaints it filed.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    interactions: u64,
    received: u64,
    filed: u64,
}

impl Tally {
    /// Trust falls with the complaint *rate*, `received / interactions`
    /// (0 with no interaction), discounted toward neutral by the suspicion
    /// factor `1 / (1 + filed / 10)` of the complaints the peer filed.
    fn trust(&self) -> TrustEstimate {
        let rate = if self.interactions > 0 {
            self.received as f64 / self.interactions as f64
        } else {
            0.0
        };
        let suspicion = 1.0 / (1.0 + self.filed as f64 / 10.0);
        let base = 1.0 - rate;
        TrustEstimate::new(
            TrustValue::new(0.5 + (base - 0.5) * suspicion),
            evidence_confidence(self.interactions as usize, 4.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::AgentId;
    use crate::time::Time;

    fn fb(rater: u64, subject: u64, score: f64) -> Feedback {
        Feedback::scored(
            AgentId::new(rater),
            AgentId::new(subject),
            score,
            Time::ZERO,
        )
    }

    fn s(i: u64) -> SubjectId {
        AgentId::new(i).into()
    }

    #[test]
    fn cheaters_accumulate_complaints() {
        let mut m = ComplaintsMechanism::new();
        for r in 0..10 {
            m.submit(&fb(r, 100, 0.1)); // cheater
            m.submit(&fb(r, 101, 0.9)); // honest peer
        }
        assert!(m.complaint_index(s(100)) > m.complaint_index(s(101)));
        let cheater = m.global(s(100)).unwrap();
        let honest = m.global(s(101)).unwrap();
        assert!(cheater.value.get() < 0.3);
        assert!(honest.value.get() > 0.7);
    }

    #[test]
    fn filing_many_complaints_is_suspicious() {
        let mut m = ComplaintsMechanism::new();
        // Peers 1 and 2 both receive 3 complaints; peer 1 additionally
        // files complaints against everyone.
        for r in 10..13 {
            m.submit(&fb(r, 1, 0.1));
            m.submit(&fb(r, 2, 0.1));
        }
        for v in 20..60 {
            m.submit(&fb(1, v, 0.1));
        }
        assert!(m.complaint_index(s(1)) > m.complaint_index(s(2)));
    }

    #[test]
    fn median_decision_flags_outliers() {
        let mut m = ComplaintsMechanism::new();
        for peer in 0..8u64 {
            m.submit(&fb(100, peer, 0.9)); // population mostly clean
        }
        for r in 0..12 {
            m.submit(&fb(r, 7, 0.1)); // peer 7 misbehaves a lot
        }
        assert!(m.is_distrusted(s(7), 4.0));
        assert!(!m.is_distrusted(s(0), 4.0));
    }

    #[test]
    fn satisfactory_interactions_do_not_complain() {
        let mut m = ComplaintsMechanism::new();
        m.submit(&fb(0, 1, 0.9));
        assert_eq!(m.complaint_index(s(1)), 0.0);
        let est = m.global(s(1)).unwrap();
        assert!(est.value.get() > 0.5);
    }

    #[test]
    fn unknown_subject_is_none() {
        let m = ComplaintsMechanism::new();
        assert_eq!(m.global(s(5)), None);
        assert_eq!(m.median_index(), 0.0);
    }

    #[test]
    #[should_panic(expected = "threshold must be in [0,1]")]
    fn invalid_threshold_panics() {
        ComplaintsMechanism::with_threshold(2.0);
    }
}
