//! Dellarocas's cluster filtering — reference \[5\] of the survey
//! ("Immunizing online reputation reporting systems against unfair ratings
//! and discriminatory behavior", EC 2000).
//!
//! The insight: unfairly *high* ratings (ballot stuffing) separate from
//! fair ratings when the ratings of a subject are clustered; using the
//! **lower cluster's mean** as the reputation estimate immunizes against
//! inflation at a bounded cost in precision. We run 1-D 2-means on the
//! scores; when the clusters are too close (no attack signature) the plain
//! mean is kept.

use crate::defense::UnfairRatingDefense;
use wsrep_core::id::{AgentId, SubjectId};
use wsrep_core::store::FeedbackStore;
use wsrep_core::trust::{evidence_confidence, TrustEstimate, TrustValue};

/// Which cluster survives the filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterMode {
    /// Use the lower cluster's mean (immunizes against ballot stuffing,
    /// Dellarocas's original choice).
    Conservative,
    /// Keep the larger cluster and drop the minority (works against both
    /// directions when attackers are a minority).
    MajorityCluster,
}

/// The cluster-filtering defense.
#[derive(Debug, Clone, Copy)]
pub struct ClusterFiltering {
    /// Filtering mode.
    pub mode: ClusterMode,
    /// Minimum distance between cluster means for the filter to engage;
    /// below it, ratings are considered unimodal and all are kept.
    pub separation: f64,
}

impl Default for ClusterFiltering {
    fn default() -> Self {
        ClusterFiltering {
            mode: ClusterMode::MajorityCluster,
            separation: 0.25,
        }
    }
}

/// Result of clustering scores into two groups.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Clusters {
    /// Lower-mean cluster values.
    pub low: Vec<f64>,
    /// Higher-mean cluster values.
    pub high: Vec<f64>,
}

impl Clusters {
    fn mean(values: &[f64]) -> f64 {
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }

    /// Mean of the lower cluster.
    pub(crate) fn low_mean(&self) -> f64 {
        Self::mean(&self.low)
    }

    /// Mean of the higher cluster.
    pub(crate) fn high_mean(&self) -> f64 {
        Self::mean(&self.high)
    }

    /// Distance between the cluster means.
    pub(crate) fn separation(&self) -> f64 {
        if self.low.is_empty() || self.high.is_empty() {
            0.0
        } else {
            self.high_mean() - self.low_mean()
        }
    }
}

/// 1-D 2-means clustering with deterministic initialization (min and max
/// as seeds), iterated to fixpoint.
pub(crate) fn two_means(scores: &[f64]) -> Clusters {
    if scores.is_empty() {
        return Clusters {
            low: Vec::new(),
            high: Vec::new(),
        };
    }
    let mut c_low = scores.iter().copied().fold(f64::INFINITY, f64::min);
    let mut c_high = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut low = Vec::new();
    let mut high = Vec::new();
    for _ in 0..50 {
        low.clear();
        high.clear();
        for &s in scores {
            if (s - c_low).abs() <= (s - c_high).abs() {
                low.push(s);
            } else {
                high.push(s);
            }
        }
        let new_low = if low.is_empty() {
            c_low
        } else {
            Clusters::mean(&low)
        };
        let new_high = if high.is_empty() {
            c_high
        } else {
            Clusters::mean(&high)
        };
        if (new_low - c_low).abs() < 1e-12 && (new_high - c_high).abs() < 1e-12 {
            break;
        }
        c_low = new_low;
        c_high = new_high;
    }
    Clusters { low, high }
}

impl UnfairRatingDefense for ClusterFiltering {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn estimate(
        &self,
        store: &FeedbackStore,
        _observer: AgentId,
        subject: SubjectId,
    ) -> Option<TrustEstimate> {
        let scores: Vec<f64> = store.about(subject).map(|f| f.score).collect();
        if scores.is_empty() {
            return None;
        }
        let clusters = two_means(&scores);
        let (value, kept) = if clusters.separation() < self.separation {
            (
                scores.iter().sum::<f64>() / scores.len() as f64,
                scores.len(),
            )
        } else {
            match self.mode {
                ClusterMode::Conservative => (clusters.low_mean(), clusters.low.len()),
                ClusterMode::MajorityCluster => {
                    if clusters.low.len() >= clusters.high.len() {
                        (clusters.low_mean(), clusters.low.len())
                    } else {
                        (clusters.high_mean(), clusters.high.len())
                    }
                }
            }
        };
        Some(TrustEstimate::new(
            TrustValue::new(value),
            evidence_confidence(kept, 4.0),
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

    fn subject() -> SubjectId {
        ServiceId::new(1).into()
    }

    #[test]
    fn two_means_separates_bimodal_scores() {
        let c = two_means(&[0.1, 0.15, 0.2, 0.85, 0.9, 0.95]);
        assert_eq!(c.low.len(), 3);
        assert_eq!(c.high.len(), 3);
        assert!(c.separation() > 0.6);
    }

    #[test]
    fn unimodal_scores_pass_through() {
        let scores = [0.6, 0.62, 0.64, 0.66];
        let est = ClusterFiltering::default()
            .estimate(&store(&scores), AgentId::new(99), subject())
            .unwrap();
        let mean = scores.iter().sum::<f64>() / 4.0;
        assert!((est.value.get() - mean).abs() < 1e-9);
    }

    #[test]
    fn majority_mode_drops_the_stuffing_minority() {
        // 7 honest ~0.3, 3 ballot stuffers at 1.0.
        let scores = [0.3, 0.32, 0.28, 0.31, 0.29, 0.33, 0.3, 1.0, 1.0, 1.0];
        let est = ClusterFiltering::default()
            .estimate(&store(&scores), AgentId::new(99), subject())
            .unwrap();
        assert!(est.value.get() < 0.4, "stuffers filtered: {}", est.value);
    }

    #[test]
    fn majority_mode_drops_badmouthing_minority_too() {
        let scores = [0.8, 0.82, 0.78, 0.81, 0.79, 0.0, 0.0];
        let est = ClusterFiltering::default()
            .estimate(&store(&scores), AgentId::new(99), subject())
            .unwrap();
        assert!(est.value.get() > 0.7, "badmouthers filtered: {}", est.value);
    }

    #[test]
    fn conservative_mode_always_takes_the_lower_cluster() {
        let filter = ClusterFiltering {
            mode: ClusterMode::Conservative,
            separation: 0.25,
        };
        // Majority are stuffers: majority mode would be fooled, the
        // conservative mode is not.
        let scores = [0.3, 0.31, 1.0, 1.0, 1.0, 1.0, 1.0];
        let est = filter
            .estimate(&store(&scores), AgentId::new(99), subject())
            .unwrap();
        assert!(est.value.get() < 0.4, "got {}", est.value);
    }

    #[test]
    fn empty_store_is_none() {
        assert!(ClusterFiltering::default()
            .estimate(&FeedbackStore::new(), AgentId::new(0), subject())
            .is_none());
    }

    #[test]
    fn single_score_survives() {
        let est = ClusterFiltering::default()
            .estimate(&store(&[0.7]), AgentId::new(0), subject())
            .unwrap();
        assert!((est.value.get() - 0.7).abs() < 1e-9);
    }
}
