//! The Liu–Ngu–Zeng QoS computation: normalization matrix + weighted score.
//!
//! Liu, Ngu and Zeng ("QoS computation and policing in dynamic web service
//! selection", WWW 2004) — reference \[16\] of the survey — compute a *fair
//! overall rating* for each candidate service by (1) arranging candidates ×
//! metrics into a matrix, (2) min–max normalizing each metric column so
//! every entry lands in `\[0, 1\]` with "higher is better" orientation, and
//! (3) taking a weighted sum with the consumer's preference weights. This is
//! the calculation the central QoS registry of the paper's Figure 2 runs.

use crate::metric::{Metric, Monotonicity};
use crate::preference::Preferences;
use crate::value::QosVector;

/// The overall rating of one candidate produced by the normalization
/// pipeline, paired with the candidate's index in the input slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverallScore {
    /// Index of the candidate in the slice passed to [`NormalizationMatrix::new`].
    pub candidate: usize,
    /// Weighted normalized score in `\[0, 1\]` (higher is better).
    pub score: f64,
}

/// A candidates × metrics matrix with per-column min–max normalization.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizationMatrix {
    metrics: Vec<Metric>,
    /// Row-major normalized entries; `rows[i][j]` is candidate `i` on
    /// metric `metrics[j]`, already oriented so 1.0 is best.
    rows: Vec<Vec<f64>>,
}

impl NormalizationMatrix {
    /// Build the matrix from raw candidate QoS vectors over `metrics`.
    ///
    /// Candidates missing a metric receive the *worst* observed value for
    /// that column (normalized 0) — an unreported quality earns no credit,
    /// which keeps providers from gaming the registry by omission.
    ///
    /// Columns where every candidate has the same raw value normalize to
    /// `1.0` for all candidates (the metric cannot discriminate, so it
    /// should neither reward nor punish anyone) — this mirrors the
    /// `q_max = q_min` special case in the original paper.
    ///
    /// Accepts owned vectors (`&[QosVector]`) or borrowed ones
    /// (`&[&QosVector]`), so callers ranking a listing table can build
    /// the matrix without cloning a single vector.
    pub fn new<V: std::borrow::Borrow<QosVector>>(candidates: &[V], metrics: &[Metric]) -> Self {
        let mut rows = vec![vec![0.0; metrics.len()]; candidates.len()];
        for (j, &metric) in metrics.iter().enumerate() {
            let observed: Vec<f64> = candidates
                .iter()
                .filter_map(|c| c.borrow().get(metric))
                .collect();
            let (min, max) = bounds(&observed);
            for (i, cand) in candidates.iter().enumerate() {
                rows[i][j] = match cand.borrow().get(metric) {
                    Some(v) => normalize_one(v, min, max, metric.monotonicity()),
                    None => 0.0,
                };
            }
        }
        NormalizationMatrix {
            metrics: metrics.to_vec(),
            rows,
        }
    }

    /// Weighted overall scores under `prefs`, sorted best-first.
    ///
    /// Metrics in the matrix that the consumer assigns no weight contribute
    /// nothing; weights over metrics absent from the matrix are ignored
    /// (the preference mass is renormalized over present metrics).
    pub fn scores(&self, prefs: &Preferences) -> Vec<OverallScore> {
        let mut weights = Vec::new();
        let mut out = Vec::new();
        self.scores_unsorted_into(prefs, &mut weights, &mut out);
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }

    /// Like [`NormalizationMatrix::scores`] but allocation-free and
    /// unsorted: scores land in `out` in candidate order (`out[i]` is
    /// candidate `i`), using `weights` as scratch. Both buffers are
    /// cleared and refilled, so a caller ranking in a loop reuses their
    /// capacity — the served registry's hot path.
    pub fn scores_unsorted_into(
        &self,
        prefs: &Preferences,
        weights: &mut Vec<f64>,
        out: &mut Vec<OverallScore>,
    ) {
        weights.clear();
        weights.extend(self.metrics.iter().map(|&m| prefs.weight(m)));
        let total: f64 = weights.iter().sum();
        out.clear();
        out.extend(self.rows.iter().enumerate().map(|(i, row)| {
            let score = if total > 0.0 {
                row.iter()
                    .zip(weights.iter())
                    .map(|(v, w)| v * w)
                    .sum::<f64>()
                    / total
            } else {
                0.0
            };
            OverallScore {
                candidate: i,
                score,
            }
        }));
    }

    /// Index of the best candidate under `prefs`, or `None` for an empty
    /// matrix.
    pub fn best(&self, prefs: &Preferences) -> Option<usize> {
        self.scores(prefs).first().map(|s| s.candidate)
    }

    /// Candidate indexes ordered best-first under `prefs`.
    ///
    /// The ranking the served registry's `top_k` walks before blending in
    /// reputation; equal scores keep their input order (stable sort).
    pub fn rank(&self, prefs: &Preferences) -> Vec<usize> {
        self.scores(prefs)
            .into_iter()
            .map(|s| s.candidate)
            .collect()
    }
}

fn bounds(values: &[f64]) -> (f64, f64) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in values {
        if v < min {
            min = v;
        }
        if v > max {
            max = v;
        }
    }
    (min, max)
}

/// Normalize a single raw value into `\[0, 1\]`, 1.0 best, following the two
/// normalization rows of Liu–Ngu–Zeng (one for "negative" metrics where
/// smaller is better, one for "positive" metrics).
pub fn normalize_one(value: f64, min: f64, max: f64, mono: Monotonicity) -> f64 {
    if !min.is_finite() || !max.is_finite() {
        return 0.0;
    }
    if (max - min).abs() < f64::EPSILON {
        return 1.0;
    }
    let x = match mono {
        Monotonicity::HigherBetter => (value - min) / (max - min),
        Monotonicity::LowerBetter => (max - value) / (max - min),
    };
    x.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn candidates() -> Vec<QosVector> {
        vec![
            // fast but pricey
            QosVector::from_pairs([(Metric::ResponseTime, 50.0), (Metric::Price, 10.0)]),
            // slow but cheap
            QosVector::from_pairs([(Metric::ResponseTime, 200.0), (Metric::Price, 1.0)]),
            // middling
            QosVector::from_pairs([(Metric::ResponseTime, 125.0), (Metric::Price, 5.5)]),
        ]
    }

    #[test]
    fn lower_better_metric_is_flipped() {
        let m = NormalizationMatrix::new(&candidates(), &[Metric::ResponseTime]);
        assert_eq!(m.rows[0][0], 1.0); // fastest
        assert_eq!(m.rows[1][0], 0.0); // slowest
        assert!((m.rows[2][0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn preferences_pick_the_matching_candidate() {
        let cands = candidates();
        let matrix = NormalizationMatrix::new(&cands, &[Metric::ResponseTime, Metric::Price]);
        let speed_lover =
            Preferences::from_weights([(Metric::ResponseTime, 0.9), (Metric::Price, 0.1)]);
        let bargain_hunter =
            Preferences::from_weights([(Metric::ResponseTime, 0.1), (Metric::Price, 0.9)]);
        assert_eq!(matrix.best(&speed_lover), Some(0));
        assert_eq!(matrix.best(&bargain_hunter), Some(1));
    }

    #[test]
    fn missing_metric_scores_zero() {
        let cands = vec![
            QosVector::from_pairs([(Metric::Accuracy, 0.9)]),
            QosVector::new(), // reports nothing
        ];
        let m = NormalizationMatrix::new(&cands, &[Metric::Accuracy]);
        assert_eq!(m.rows[1][0], 0.0);
    }

    #[test]
    fn constant_column_normalizes_to_one() {
        let cands = vec![
            QosVector::from_pairs([(Metric::Price, 4.0)]),
            QosVector::from_pairs([(Metric::Price, 4.0)]),
        ];
        let m = NormalizationMatrix::new(&cands, &[Metric::Price]);
        assert_eq!(m.rows[0][0], 1.0);
        assert_eq!(m.rows[1][0], 1.0);
    }

    #[test]
    fn scores_are_sorted_best_first() {
        let cands = candidates();
        let m = NormalizationMatrix::new(&cands, &[Metric::ResponseTime, Metric::Price]);
        let prefs = Preferences::uniform([Metric::ResponseTime, Metric::Price]);
        let scores = m.scores(&prefs);
        for pair in scores.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn unsorted_into_matches_scores_and_reuses_buffers() {
        let cands = candidates();
        let m = NormalizationMatrix::new(&cands, &[Metric::ResponseTime, Metric::Price]);
        let prefs = Preferences::from_weights([(Metric::ResponseTime, 0.7), (Metric::Price, 0.3)]);
        let mut weights = Vec::new();
        let mut unsorted = Vec::new();
        for _ in 0..3 {
            m.scores_unsorted_into(&prefs, &mut weights, &mut unsorted);
            assert_eq!(unsorted.len(), cands.len());
            for (i, s) in unsorted.iter().enumerate() {
                assert_eq!(s.candidate, i, "out[i] must be candidate i");
            }
            let mut resorted = unsorted.clone();
            resorted.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());
            assert_eq!(resorted, m.scores(&prefs));
        }
    }

    #[test]
    fn empty_matrix_has_no_best() {
        let m = NormalizationMatrix::new::<QosVector>(&[], &[Metric::Price]);
        assert_eq!(m.best(&Preferences::uniform([Metric::Price])), None);
    }

    #[test]
    fn rank_is_a_permutation_led_by_best() {
        let cands = candidates();
        let m = NormalizationMatrix::new(&cands, &[Metric::ResponseTime, Metric::Price]);
        let prefs = Preferences::from_weights([(Metric::ResponseTime, 0.9), (Metric::Price, 0.1)]);
        let ranked = m.rank(&prefs);
        assert_eq!(ranked.len(), cands.len());
        assert_eq!(ranked[0], m.best(&prefs).unwrap());
        let mut sorted = ranked.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn zero_weight_preferences_score_zero() {
        let cands = candidates();
        let m = NormalizationMatrix::new(&cands, &[Metric::ResponseTime]);
        // Preferences over a metric not in the matrix.
        let prefs = Preferences::uniform([Metric::Accuracy]);
        for s in m.scores(&prefs) {
            assert_eq!(s.score, 0.0);
        }
    }

    proptest! {
        /// Scale-invariance: multiplying every raw value of a column by a
        /// positive constant must not change the normalized matrix.
        #[test]
        fn normalization_is_scale_invariant(
            vals in proptest::collection::vec(1.0f64..1000.0, 2..8),
            scale in 0.1f64..100.0,
        ) {
            let raw: Vec<QosVector> = vals.iter()
                .map(|&v| QosVector::from_pairs([(Metric::Throughput, v)]))
                .collect();
            let scaled: Vec<QosVector> = vals.iter()
                .map(|&v| QosVector::from_pairs([(Metric::Throughput, v * scale)]))
                .collect();
            let a = NormalizationMatrix::new(&raw, &[Metric::Throughput]);
            let b = NormalizationMatrix::new(&scaled, &[Metric::Throughput]);
            for i in 0..vals.len() {
                prop_assert!((a.rows[i][0] - b.rows[i][0]).abs() < 1e-9);
            }
        }

        /// Every normalized entry lands in \[0, 1\] and every score too.
        #[test]
        fn entries_and_scores_are_bounded(
            vals in proptest::collection::vec(-1000.0f64..1000.0, 1..10),
        ) {
            let raw: Vec<QosVector> = vals.iter()
                .map(|&v| QosVector::from_pairs([(Metric::Latency, v)]))
                .collect();
            let m = NormalizationMatrix::new(&raw, &[Metric::Latency]);
            let prefs = Preferences::uniform([Metric::Latency]);
            for i in 0..vals.len() {
                prop_assert!((0.0..=1.0).contains(&m.rows[i][0]));
            }
            for s in m.scores(&prefs) {
                prop_assert!((0.0..=1.0).contains(&s.score));
            }
        }
    }
}
