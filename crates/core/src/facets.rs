//! Multi-faceted trust (Section 3, "Multi-faceted").
//!
//! "Even in the same context, there is a need to develop differentiated
//! trust in different aspects of a service … For each aspect, she develops
//! a kind of trust. The overall trust depends on the combination of the
//! trusts in each aspect." A [`FacetedTrust`] tracker keeps one decayed
//! trust series per QoS metric and combines them under a consumer's
//! preference weights — the machinery behind experiment `exp_fig3`.

use crate::decay::DecayModel;
use crate::time::Time;
use crate::trust::{evidence_confidence, TrustEstimate, TrustValue};
use std::collections::BTreeMap;
use wsrep_qos::metric::Metric;
use wsrep_qos::preference::Preferences;

/// Per-metric trust tracker for one subject.
#[derive(Debug, Clone, Default)]
pub struct FacetedTrust {
    /// Per metric: list of (normalized score in \[0,1\], timestamp).
    samples: BTreeMap<Metric, Vec<(f64, Time)>>,
    decay: DecayModel,
}

impl FacetedTrust {
    /// New tracker with the default decay model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a normalized per-metric experience (`score` in `\[0, 1\]`,
    /// higher better, already oriented).
    pub fn record(&mut self, metric: Metric, score: f64, at: Time) {
        self.samples
            .entry(metric)
            .or_default()
            .push((score.clamp(0.0, 1.0), at));
    }

    /// Trust in one facet at time `now`.
    pub(crate) fn facet(&self, metric: Metric, now: Time) -> Option<TrustEstimate> {
        let samples = self.samples.get(&metric)?;
        let mean = self.decay.weighted_mean(samples.iter().copied(), now)?;
        Some(TrustEstimate::new(
            TrustValue::new(mean),
            evidence_confidence(samples.len(), 3.0),
        ))
    }

    /// Overall trust as the preference-weighted combination of facet
    /// trusts. Facets without evidence contribute the neutral prior with
    /// zero confidence, so missing facets lower overall confidence but do
    /// not bias the value.
    pub fn overall(&self, prefs: &Preferences, now: Time) -> TrustEstimate {
        let mut value = 0.0;
        let mut conf = 0.0;
        let mut weight_seen = 0.0;
        for (m, w) in prefs.iter() {
            let est = self.facet(m, now).unwrap_or_else(TrustEstimate::ignorance);
            value += w * est.value.get();
            conf += w * est.confidence;
            weight_seen += w;
        }
        if weight_seen == 0.0 {
            return TrustEstimate::ignorance();
        }
        TrustEstimate::new(TrustValue::new(value / weight_seen), conf / weight_seen)
    }

    /// A single-scalar tracker's view: the unweighted mean across *all*
    /// recorded facets, losing the per-aspect structure. This is the
    /// baseline `exp_fig3` compares against.
    pub fn scalar(&self, now: Time) -> Option<TrustEstimate> {
        let all: Vec<(f64, Time)> = self.samples.values().flatten().copied().collect();
        if all.is_empty() {
            return None;
        }
        let n = all.len();
        let mean = self.decay.weighted_mean(all, now)?;
        Some(TrustEstimate::new(
            TrustValue::new(mean),
            evidence_confidence(n, 3.0),
        ))
    }

    /// Whether nothing has been recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(decay: DecayModel) -> FacetedTrust {
        FacetedTrust {
            decay,
            ..FacetedTrust::new()
        }
    }

    #[test]
    fn facets_are_tracked_independently() {
        let mut ft = tracker(DecayModel::None);
        ft.record(Metric::ResponseTime, 1.0, Time::ZERO);
        ft.record(Metric::Accuracy, 0.0, Time::ZERO);
        let now = Time::new(1);
        assert!(ft.facet(Metric::ResponseTime, now).unwrap().value.get() > 0.9);
        assert!(ft.facet(Metric::Accuracy, now).unwrap().value.get() < 0.1);
        assert_eq!(ft.facet(Metric::Price, now), None);
    }

    #[test]
    fn overall_follows_preferences() {
        let mut ft = tracker(DecayModel::None);
        // Great speed, terrible accuracy.
        for t in 0..5 {
            ft.record(Metric::ResponseTime, 1.0, Time::new(t));
            ft.record(Metric::Accuracy, 0.0, Time::new(t));
        }
        let now = Time::new(5);
        let speed_prefs =
            Preferences::from_weights([(Metric::ResponseTime, 0.9), (Metric::Accuracy, 0.1)]);
        let accuracy_prefs =
            Preferences::from_weights([(Metric::ResponseTime, 0.1), (Metric::Accuracy, 0.9)]);
        let speed_view = ft.overall(&speed_prefs, now);
        let accuracy_view = ft.overall(&accuracy_prefs, now);
        assert!(speed_view.value.get() > 0.8);
        assert!(accuracy_view.value.get() < 0.2);
        // The scalar view cannot distinguish the two consumers.
        let scalar = ft.scalar(now).unwrap();
        assert!((scalar.value.get() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn missing_facet_lowers_confidence_not_value() {
        let mut ft = tracker(DecayModel::None);
        for t in 0..10 {
            ft.record(Metric::ResponseTime, 0.9, Time::new(t));
        }
        let now = Time::new(10);
        let prefs =
            Preferences::from_weights([(Metric::ResponseTime, 0.5), (Metric::Accuracy, 0.5)]);
        let overall = ft.overall(&prefs, now);
        // Accuracy facet contributes 0.5 neutral: value = (0.9 + 0.5)/2.
        assert!((overall.value.get() - 0.7).abs() < 1e-9);
        assert!(overall.confidence < 0.5);
    }

    #[test]
    fn empty_preferences_yield_ignorance() {
        let ft = FacetedTrust::new();
        assert_eq!(
            ft.overall(&Preferences::default(), Time::ZERO),
            TrustEstimate::ignorance()
        );
        assert!(ft.is_empty());
        assert_eq!(ft.scalar(Time::ZERO), None);
    }

    #[test]
    fn decay_applies_per_facet() {
        let mut ft = tracker(DecayModel::Exponential { half_life: 1 });
        ft.record(Metric::Accuracy, 0.0, Time::new(0));
        ft.record(Metric::Accuracy, 1.0, Time::new(10));
        let est = ft.facet(Metric::Accuracy, Time::new(10)).unwrap();
        assert!(est.value.get() > 0.99, "old bad sample should be forgotten");
    }
}
