//! Context-specific trust (Section 3, "Context specific").
//!
//! "Trust and reputation both depend on some context. For example, Mike
//! trusts John as his doctor, but he does not trust John as a mechanic to
//! fix his car." In a web-service market the natural context is the
//! *function category* a service (or provider) operates in.
//! [`ContextualTrust`] keeps separate evidence per `(subject, context)`
//! and, when asked about an unseen context, falls back to a discounted
//! cross-context aggregate — related contexts say *something* about an
//! entity, just much less than in-context experience.

use crate::decay::DecayModel;
use crate::id::SubjectId;
use crate::time::Time;
use crate::trust::{evidence_confidence, TrustEstimate, TrustValue};
use std::collections::BTreeMap;
use std::fmt;

/// A trust context: the function category of the interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Context(pub u32);

impl fmt::Display for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx{}", self.0)
    }
}

/// Per-context trust series for a population of subjects.
#[derive(Debug, Clone)]
pub struct ContextualTrust {
    series: BTreeMap<(SubjectId, Context), Vec<(f64, Time)>>,
    decay: DecayModel,
    /// Weight of cross-context evidence when the asked context is unseen
    /// (the paper's point is that this must be well below 1).
    transfer_discount: f64,
}

impl Default for ContextualTrust {
    fn default() -> Self {
        Self::new()
    }
}

impl ContextualTrust {
    /// Default decay, cross-context transfer discounted to 0.3.
    pub fn new() -> Self {
        ContextualTrust {
            series: BTreeMap::new(),
            decay: DecayModel::default(),
            transfer_discount: 0.3,
        }
    }

    /// Explicit decay model and transfer discount.
    ///
    /// # Panics
    ///
    /// Panics if `transfer_discount` is outside `\[0, 1\]`.
    pub fn with_params(decay: DecayModel, transfer_discount: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&transfer_discount),
            "discount must be in [0,1]"
        );
        ContextualTrust {
            series: BTreeMap::new(),
            decay,
            transfer_discount,
        }
    }

    /// Record an in-context experience (`score` in `\[0, 1\]`).
    pub fn record(
        &mut self,
        subject: impl Into<SubjectId>,
        context: Context,
        score: f64,
        at: Time,
    ) {
        self.series
            .entry((subject.into(), context))
            .or_default()
            .push((score.clamp(0.0, 1.0), at));
    }

    /// In-context trust, `None` without in-context evidence.
    pub fn in_context(
        &self,
        subject: impl Into<SubjectId>,
        context: Context,
        now: Time,
    ) -> Option<TrustEstimate> {
        let samples = self.series.get(&(subject.into(), context))?;
        let mean = self.decay.weighted_mean(samples.iter().copied(), now)?;
        Some(TrustEstimate::new(
            TrustValue::new(mean),
            evidence_confidence(samples.len(), 3.0),
        ))
    }

    /// Trust in a context, falling back to a *discounted* cross-context
    /// aggregate when the subject was never seen in `context`:
    /// the value shrinks toward the neutral prior and the confidence is
    /// multiplied by the transfer discount.
    pub fn trust(
        &self,
        subject: impl Into<SubjectId>,
        context: Context,
        now: Time,
    ) -> Option<TrustEstimate> {
        let subject = subject.into();
        if let Some(est) = self.in_context(subject, context, now) {
            return Some(est);
        }
        // Cross-context aggregate.
        let mut estimates = Vec::new();
        for ((s, _), samples) in &self.series {
            if *s != subject {
                continue;
            }
            if let Some(mean) = self.decay.weighted_mean(samples.iter().copied(), now) {
                estimates.push(TrustEstimate::new(
                    TrustValue::new(mean),
                    evidence_confidence(samples.len(), 3.0),
                ));
            }
        }
        if estimates.is_empty() {
            return None;
        }
        let combined = TrustEstimate::combine(estimates);
        let shrunk = TrustValue::NEUTRAL.blend(combined.value, self.transfer_discount);
        Some(TrustEstimate::new(
            shrunk,
            combined.confidence * self.transfer_discount,
        ))
    }

    /// Contexts in which a subject has evidence.
    pub fn contexts_of(&self, subject: impl Into<SubjectId>) -> Vec<Context> {
        let subject = subject.into();
        self.series
            .keys()
            .filter(|&&(s, _)| s == subject)
            .map(|&(_, c)| c)
            .collect()
    }

    /// Total recorded samples.
    pub fn len(&self) -> usize {
        self.series.values().map(Vec::len).sum()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::AgentId;

    const DOCTOR: Context = Context(1);
    const MECHANIC: Context = Context(2);

    fn john() -> AgentId {
        AgentId::new(7)
    }

    /// The paper's own example: trusted as a doctor, not as a mechanic.
    fn mikes_view() -> ContextualTrust {
        let mut ct = ContextualTrust::new();
        for t in 0..6 {
            ct.record(john(), DOCTOR, 0.95, Time::new(t));
            ct.record(john(), MECHANIC, 0.1, Time::new(t));
        }
        ct
    }

    #[test]
    fn trust_separates_by_context() {
        let ct = mikes_view();
        let now = Time::new(6);
        let as_doctor = ct.in_context(john(), DOCTOR, now).unwrap();
        let as_mechanic = ct.in_context(john(), MECHANIC, now).unwrap();
        assert!(as_doctor.value.get() > 0.9);
        assert!(as_mechanic.value.get() < 0.2);
    }

    #[test]
    fn unseen_context_transfers_with_discount() {
        let mut ct = ContextualTrust::new();
        for t in 0..10 {
            ct.record(john(), DOCTOR, 0.95, Time::new(t));
        }
        let now = Time::new(10);
        let as_pharmacist = ct.trust(john(), Context(3), now).unwrap();
        let as_doctor = ct.trust(john(), DOCTOR, now).unwrap();
        // Transfer is positive but strictly weaker than in-context trust.
        assert!(as_pharmacist.value.get() > 0.5);
        assert!(as_pharmacist.value.get() < as_doctor.value.get());
        assert!(as_pharmacist.confidence < as_doctor.confidence);
    }

    #[test]
    fn zero_discount_means_no_transfer_signal() {
        let mut ct = ContextualTrust::with_params(DecayModel::None, 0.0);
        ct.record(john(), DOCTOR, 1.0, Time::ZERO);
        let est = ct.trust(john(), MECHANIC, Time::new(1)).unwrap();
        assert_eq!(est.value, TrustValue::NEUTRAL);
        assert_eq!(est.confidence, 0.0);
    }

    #[test]
    fn unknown_subject_is_none() {
        let ct = mikes_view();
        assert!(ct.trust(AgentId::new(99), DOCTOR, Time::new(6)).is_none());
    }

    #[test]
    fn contexts_of_lists_evidence_contexts() {
        let ct = mikes_view();
        let cs = ct.contexts_of(john());
        assert_eq!(cs, vec![DOCTOR, MECHANIC]);
        assert_eq!(ct.len(), 12);
    }

    #[test]
    fn decay_applies_within_contexts() {
        let mut ct = ContextualTrust::with_params(DecayModel::Exponential { half_life: 1 }, 0.3);
        ct.record(john(), DOCTOR, 0.0, Time::new(0));
        ct.record(john(), DOCTOR, 1.0, Time::new(10));
        let est = ct.in_context(john(), DOCTOR, Time::new(10)).unwrap();
        assert!(est.value.get() > 0.99);
    }

    #[test]
    #[should_panic(expected = "discount must be in [0,1]")]
    fn invalid_discount_panics() {
        ContextualTrust::with_params(DecayModel::None, 1.5);
    }
}
