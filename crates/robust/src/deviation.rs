//! The Whitby–Jøsang beta deviation filter.
//!
//! Not named in the survey's Q3 list but the standard companion baseline
//! to it: iteratively exclude raters whose ratings of a subject deviate
//! from the current consensus by more than a threshold, then recompute.
//! Converges because each pass only removes raters.

use crate::defense::UnfairRatingDefense;
use std::collections::BTreeMap;
use wsrep_core::id::{AgentId, SubjectId};
use wsrep_core::store::FeedbackStore;
use wsrep_core::trust::{evidence_confidence, TrustEstimate, TrustValue};

/// The iterative deviation filter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeviationFilter {
    /// Maximum allowed absolute deviation of a rater's mean score from the
    /// consensus mean.
    pub max_deviation: f64,
    /// Maximum filtering passes.
    pub max_iter: usize,
}

impl Default for DeviationFilter {
    fn default() -> Self {
        DeviationFilter {
            max_deviation: 0.3,
            max_iter: 10,
        }
    }
}

impl DeviationFilter {
    /// Run the filter: returns `(surviving rater means, consensus)` or
    /// `None` without evidence. Never removes the last rater.
    pub(crate) fn filter(
        &self,
        per_rater: &BTreeMap<AgentId, f64>,
    ) -> Option<(BTreeMap<AgentId, f64>, f64)> {
        if per_rater.is_empty() {
            return None;
        }
        let mut kept = per_rater.clone();
        for _ in 0..self.max_iter {
            let consensus = kept.values().sum::<f64>() / kept.len() as f64;
            let outliers: Vec<AgentId> = kept
                .iter()
                .filter(|&(_, &m)| (m - consensus).abs() > self.max_deviation)
                .map(|(&a, _)| a)
                .collect();
            if outliers.is_empty() || outliers.len() == kept.len() {
                return Some((kept, consensus));
            }
            for a in outliers {
                if kept.len() > 1 {
                    kept.remove(&a);
                }
            }
        }
        let consensus = kept.values().sum::<f64>() / kept.len() as f64;
        Some((kept, consensus))
    }
}

impl UnfairRatingDefense for DeviationFilter {
    fn name(&self) -> &'static str {
        "deviation"
    }

    fn estimate(
        &self,
        store: &FeedbackStore,
        _observer: AgentId,
        subject: SubjectId,
    ) -> Option<TrustEstimate> {
        // Mean score per rater about this subject.
        let mut sums: BTreeMap<AgentId, (f64, usize)> = BTreeMap::new();
        for f in store.about(subject) {
            let e = sums.entry(f.rater).or_insert((0.0, 0));
            e.0 += f.score;
            e.1 += 1;
        }
        let per_rater: BTreeMap<AgentId, f64> = sums
            .into_iter()
            .map(|(a, (s, n))| (a, s / n as f64))
            .collect();
        let (kept, consensus) = self.filter(&per_rater)?;
        Some(TrustEstimate::new(
            TrustValue::new(consensus),
            evidence_confidence(kept.len(), 4.0),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrep_core::feedback::Feedback;
    use wsrep_core::id::ServiceId;
    use wsrep_core::time::Time;

    fn store(scores: &[f64]) -> FeedbackStore {
        scores
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                Feedback::scored(AgentId::new(i as u64), ServiceId::new(1), s, Time::ZERO)
            })
            .collect()
    }

    #[test]
    fn outliers_are_removed_iteratively() {
        // Honest crowd around 0.75, two badmouthers at 0.
        let scores = [0.75, 0.72, 0.78, 0.74, 0.76, 0.0, 0.0];
        let est = DeviationFilter::default()
            .estimate(&store(&scores), AgentId::new(99), ServiceId::new(1).into())
            .unwrap();
        assert!(est.value.get() > 0.7, "got {}", est.value);
    }

    #[test]
    fn tight_crowds_are_untouched() {
        let scores = [0.5, 0.55, 0.6];
        let est = DeviationFilter::default()
            .estimate(&store(&scores), AgentId::new(99), ServiceId::new(1).into())
            .unwrap();
        assert!((est.value.get() - 0.55).abs() < 1e-9);
    }

    #[test]
    fn last_rater_is_never_removed() {
        let mut per = BTreeMap::new();
        per.insert(AgentId::new(0), 0.9);
        let (kept, consensus) = DeviationFilter::default().filter(&per).unwrap();
        assert_eq!(kept.len(), 1);
        assert!((consensus - 0.9).abs() < 1e-12);
    }

    #[test]
    fn total_disagreement_keeps_everyone() {
        // Two raters maximally apart: removing "outliers" would remove all.
        let mut per = BTreeMap::new();
        per.insert(AgentId::new(0), 0.0);
        per.insert(AgentId::new(1), 1.0);
        let (kept, _) = DeviationFilter::default().filter(&per).unwrap();
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn repeat_ratings_average_per_rater_first() {
        // One rater spams ten zeros; five honest raters say 0.8. Per-rater
        // averaging makes the spammer one voice, not ten.
        let mut st = FeedbackStore::new();
        for _ in 0..10 {
            st.push(Feedback::scored(
                AgentId::new(0),
                ServiceId::new(1),
                0.0,
                Time::ZERO,
            ));
        }
        for i in 1..6 {
            st.push(Feedback::scored(
                AgentId::new(i),
                ServiceId::new(1),
                0.8,
                Time::ZERO,
            ));
        }
        let est = DeviationFilter::default()
            .estimate(&st, AgentId::new(99), ServiceId::new(1).into())
            .unwrap();
        assert!(est.value.get() > 0.7, "got {}", est.value);
    }

    #[test]
    fn empty_store_is_none() {
        assert!(DeviationFilter::default()
            .estimate(
                &FeedbackStore::new(),
                AgentId::new(0),
                ServiceId::new(1).into()
            )
            .is_none());
    }
}
