//! Collaborative filtering — Breese, Heckerman & Kadie \[3\]; Karta \[13\].
//!
//! The *centralized, resource, personalized* workhorse: predict how much
//! *this* consumer would like a service from the ratings of similar
//! consumers. Karta's technical report asks exactly which similarity
//! measure to use for web-service selection — Pearson correlation versus
//! vector (cosine) similarity — so both are implemented and selectable;
//! `exp_fig4_pers` reports them side by side.

use crate::feedback::Feedback;
use crate::id::{AgentId, SubjectId};
use crate::mechanism::ReputationMechanism;
use crate::trust::{evidence_confidence, TrustEstimate, TrustValue};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};
use std::collections::BTreeMap;

/// The user–user similarity measure, Karta's design question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Similarity {
    /// Pearson correlation over co-rated items (mean-centered).
    Pearson,
    /// Vector (cosine) similarity over co-rated items.
    Cosine,
}

/// Memory-based user–user collaborative filtering.
#[derive(Debug, Clone)]
pub struct CfMechanism {
    similarity: Similarity,
    /// Neighborhood size: only the top-k most similar users vote.
    top_k: usize,
    /// Identify as Karta's system in the typology (same algorithm family;
    /// the registry instantiates both leaves).
    karta_variant: bool,
    /// ratings[user][item] = latest score.
    ratings: BTreeMap<AgentId, BTreeMap<SubjectId, f64>>,
    submitted: usize,
}

impl CfMechanism {
    /// CF with the given similarity measure and a top-20 neighborhood.
    pub fn new(similarity: Similarity) -> Self {
        CfMechanism {
            similarity,
            top_k: 20,
            karta_variant: false,
            ratings: BTreeMap::new(),
            submitted: 0,
        }
    }

    /// The instantiation Karta \[13\] evaluated for web-service selection.
    pub fn karta() -> Self {
        CfMechanism {
            karta_variant: true,
            ..Self::new(Similarity::Pearson)
        }
    }

    /// Change the neighborhood size (builder style).
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k.max(1);
        self
    }

    /// Mean rating of a user over everything they rated.
    fn user_mean(&self, user: AgentId) -> Option<f64> {
        let r = self.ratings.get(&user)?;
        if r.is_empty() {
            return None;
        }
        Some(r.values().sum::<f64>() / r.len() as f64)
    }

    /// Similarity between two users over co-rated items, `None` if they
    /// share fewer than 2 items (1 for cosine).
    pub fn user_similarity(&self, a: AgentId, b: AgentId) -> Option<f64> {
        let ra = self.ratings.get(&a)?;
        let rb = self.ratings.get(&b)?;
        let common: Vec<(f64, f64)> = ra
            .iter()
            .filter_map(|(item, &va)| rb.get(item).map(|&vb| (va, vb)))
            .collect();
        match self.similarity {
            Similarity::Pearson => {
                if common.len() < 2 {
                    return None;
                }
                let ma = common.iter().map(|&(x, _)| x).sum::<f64>() / common.len() as f64;
                let mb = common.iter().map(|&(_, y)| y).sum::<f64>() / common.len() as f64;
                let mut num = 0.0;
                let mut da = 0.0;
                let mut db = 0.0;
                for &(x, y) in &common {
                    num += (x - ma) * (y - mb);
                    da += (x - ma) * (x - ma);
                    db += (y - mb) * (y - mb);
                }
                if da == 0.0 || db == 0.0 {
                    // Flat co-ratings: correlation undefined; agreeing flat
                    // raters are weakly similar.
                    return Some(0.0);
                }
                Some(num / (da.sqrt() * db.sqrt()))
            }
            Similarity::Cosine => {
                if common.is_empty() {
                    return None;
                }
                let num: f64 = common.iter().map(|&(x, y)| x * y).sum();
                let na: f64 = common.iter().map(|&(x, _)| x * x).sum::<f64>().sqrt();
                let nb: f64 = common.iter().map(|&(_, y)| y * y).sum::<f64>().sqrt();
                if na == 0.0 || nb == 0.0 {
                    return Some(0.0);
                }
                Some(num / (na * nb))
            }
        }
    }

    /// Predict `observer`'s rating for `item` by the standard
    /// deviation-from-mean weighted formula over the top-k neighbors.
    pub fn predict(&self, observer: AgentId, item: SubjectId) -> Option<f64> {
        // A user's own rating is the best prediction.
        if let Some(&own) = self.ratings.get(&observer).and_then(|r| r.get(&item)) {
            return Some(own);
        }
        let observer_mean = self.user_mean(observer).unwrap_or(0.5);
        let mut neighbors: Vec<(f64, f64, f64)> = Vec::new(); // (|sim|, sim, dev)
        for (&other, other_ratings) in &self.ratings {
            if other == observer {
                continue;
            }
            let Some(&rating) = other_ratings.get(&item) else {
                continue;
            };
            let Some(sim) = self.user_similarity(observer, other) else {
                continue;
            };
            if sim.abs() < 1e-9 {
                continue;
            }
            let other_mean = self.user_mean(other).unwrap_or(0.5);
            neighbors.push((sim.abs(), sim, rating - other_mean));
        }
        if neighbors.is_empty() {
            return None;
        }
        neighbors.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        neighbors.truncate(self.top_k);
        let num: f64 = neighbors.iter().map(|&(_, s, d)| s * d).sum();
        let den: f64 = neighbors.iter().map(|&(w, _, _)| w).sum();
        Some((observer_mean + num / den).clamp(0.0, 1.0))
    }
}

impl ReputationMechanism for CfMechanism {
    fn info(&self) -> MechanismInfo {
        if self.karta_variant {
            MechanismInfo {
                key: "karta",
                display: "K. Karta",
                centralization: Centralization::Centralized,
                subject: Subject::Resource,
                scope: Scope::Personalized,
                citation: "13",
                proposed_for_web_services: true,
            }
        } else {
            MechanismInfo {
                key: "cf",
                display: "Collaborative filtering",
                centralization: Centralization::Centralized,
                subject: Subject::Resource,
                scope: Scope::Personalized,
                citation: "3",
                proposed_for_web_services: false,
            }
        }
    }

    fn submit(&mut self, feedback: &Feedback) {
        self.ratings
            .entry(feedback.rater)
            .or_default()
            .insert(feedback.subject, feedback.score);
        self.submitted += 1;
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        // Population view: mean of all users' latest ratings of the item.
        let ratings: Vec<f64> = self
            .ratings
            .values()
            .filter_map(|r| r.get(&subject).copied())
            .collect();
        if ratings.is_empty() {
            return None;
        }
        Some(TrustEstimate::new(
            TrustValue::new(ratings.iter().sum::<f64>() / ratings.len() as f64),
            evidence_confidence(ratings.len(), 3.0),
        ))
    }

    fn personalized(&self, observer: AgentId, subject: SubjectId) -> Option<TrustEstimate> {
        match self.predict(observer, subject) {
            Some(p) => Some(TrustEstimate::new(TrustValue::new(p), 0.8)),
            // Cold-start fallback: the population mean with its confidence.
            None => self.global(subject),
        }
    }

    fn feedback_count(&self) -> usize {
        self.submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ServiceId;
    use crate::time::Time;

    fn fb(rater: u64, item: u64, score: f64) -> Feedback {
        Feedback::scored(AgentId::new(rater), ServiceId::new(item), score, Time::ZERO)
    }

    /// Two taste camps: evens love items 0/1 and hate 2/3; odds opposite.
    fn two_camps(m: &mut CfMechanism) {
        for u in 0..8 {
            let loves_low = u % 2 == 0;
            for item in 0..4u64 {
                let good = (item < 2) == loves_low;
                m.submit(&fb(u, item, if good { 0.9 } else { 0.1 }));
            }
        }
    }

    #[test]
    fn pearson_detects_aligned_and_opposed_tastes() {
        let mut m = CfMechanism::new(Similarity::Pearson);
        two_camps(&mut m);
        let same = m.user_similarity(AgentId::new(0), AgentId::new(2)).unwrap();
        let opposite = m.user_similarity(AgentId::new(0), AgentId::new(1)).unwrap();
        assert!(same > 0.9);
        assert!(opposite < -0.9);
    }

    #[test]
    fn cosine_is_positive_for_nonnegative_ratings() {
        let mut m = CfMechanism::new(Similarity::Cosine);
        two_camps(&mut m);
        let sim = m.user_similarity(AgentId::new(0), AgentId::new(1)).unwrap();
        assert!(sim > 0.0, "cosine on non-negative data is non-negative");
    }

    #[test]
    fn prediction_follows_the_observers_camp() {
        let mut m = CfMechanism::new(Similarity::Pearson);
        two_camps(&mut m);
        // A new even-camp user who has rated only items 0 and 2.
        m.submit(&fb(100, 0, 0.9));
        m.submit(&fb(100, 2, 0.1));
        let p1 = m
            .predict(AgentId::new(100), ServiceId::new(1).into())
            .unwrap();
        let p3 = m
            .predict(AgentId::new(100), ServiceId::new(3).into())
            .unwrap();
        assert!(p1 > 0.7, "camp item predicted high, got {p1}");
        assert!(p3 < 0.3, "anti-camp item predicted low, got {p3}");
    }

    #[test]
    fn personalized_beats_global_for_polarized_items() {
        let mut m = CfMechanism::new(Similarity::Pearson);
        two_camps(&mut m);
        m.submit(&fb(100, 0, 0.9));
        m.submit(&fb(100, 2, 0.1));
        // Globally item 1 is a 50/50 split…
        let g = m.global(ServiceId::new(1).into()).unwrap();
        assert!((g.value.get() - 0.5).abs() < 0.05);
        // …but user 100's camp loves it.
        let p = m
            .personalized(AgentId::new(100), ServiceId::new(1).into())
            .unwrap();
        assert!(p.value.get() > 0.7);
    }

    #[test]
    fn own_rating_short_circuits_prediction() {
        let mut m = CfMechanism::new(Similarity::Pearson);
        two_camps(&mut m);
        m.submit(&fb(0, 0, 0.42));
        assert_eq!(
            m.predict(AgentId::new(0), ServiceId::new(0).into()),
            Some(0.42)
        );
    }

    #[test]
    fn cold_start_falls_back_to_population_mean() {
        let mut m = CfMechanism::new(Similarity::Pearson);
        m.submit(&fb(0, 0, 0.8));
        m.submit(&fb(1, 0, 0.6));
        // Observer 99 has no ratings at all.
        let est = m
            .personalized(AgentId::new(99), ServiceId::new(0).into())
            .unwrap();
        assert!((est.value.get() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn no_data_yields_none() {
        let m = CfMechanism::new(Similarity::Cosine);
        assert_eq!(m.predict(AgentId::new(0), ServiceId::new(0).into()), None);
        assert_eq!(m.global(ServiceId::new(0).into()), None);
    }

    #[test]
    fn flat_corated_profile_gets_zero_similarity() {
        let mut m = CfMechanism::new(Similarity::Pearson);
        m.submit(&fb(0, 0, 0.5));
        m.submit(&fb(0, 1, 0.5));
        m.submit(&fb(1, 0, 0.5));
        m.submit(&fb(1, 1, 0.5));
        assert_eq!(
            m.user_similarity(AgentId::new(0), AgentId::new(1)),
            Some(0.0)
        );
    }

    #[test]
    fn too_few_corated_items_is_none_for_pearson() {
        let mut m = CfMechanism::new(Similarity::Pearson);
        m.submit(&fb(0, 0, 0.9));
        m.submit(&fb(1, 0, 0.9));
        assert_eq!(m.user_similarity(AgentId::new(0), AgentId::new(1)), None);
    }

    #[test]
    fn karta_variant_reports_its_own_identity() {
        assert_eq!(CfMechanism::karta().info().key, "karta");
        assert_eq!(CfMechanism::new(Similarity::Pearson).info().key, "cf");
    }

    #[test]
    fn predictions_are_clamped() {
        let mut m = CfMechanism::new(Similarity::Pearson).with_top_k(5);
        two_camps(&mut m);
        m.submit(&fb(100, 0, 1.0));
        m.submit(&fb(100, 2, 0.0));
        for item in 0..4u64 {
            if let Some(p) = m.predict(AgentId::new(100), ServiceId::new(item).into()) {
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }
}
