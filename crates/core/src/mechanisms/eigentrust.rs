//! EigenTrust — Kamvar, Schlosser & Garcia-Molina (WWW 2003), ref. \[12\].
//!
//! *Decentralized, person/agent, global.* Each peer `i` holds normalized
//! local trust `c_ij = max(sat_ij, 0) / Σ_j max(sat_ij, 0)` derived from its
//! satisfaction with `j`; global trust is the stationary vector of
//!
//! ```text
//! t ← (1 − a) · Cᵀ t + a · p
//! ```
//!
//! where `p` puts mass on *pre-trusted* peers and `a` blends them in. This
//! module is the computation; `wsrep-net` runs the same iteration as a
//! message-passing protocol over a DHT, as the original system does.

use crate::feedback::Feedback;
use crate::id::SubjectId;
use crate::mechanism::ReputationMechanism;
use crate::time::Time;
use crate::trust::{TrustEstimate, TrustValue};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// The EigenTrust computation.
#[derive(Debug, Clone)]
pub struct EigenTrustMechanism {
    /// Pre-trust mass `a` (the paper's recommendation is small, e.g. 0.1–0.2).
    alpha: f64,
    epsilon: f64,
    max_iter: usize,
    /// Satisfaction sums s_ij = Σ ratings (positive − negative mass).
    sat: BTreeMap<SubjectId, BTreeMap<SubjectId, f64>>,
    nodes: BTreeSet<SubjectId>,
    pre_trusted: BTreeSet<SubjectId>,
    cache: OnceLock<BTreeMap<SubjectId, f64>>,
    submitted: usize,
}

impl Default for EigenTrustMechanism {
    fn default() -> Self {
        Self::new()
    }
}

impl EigenTrustMechanism {
    /// EigenTrust with `a = 0.15`, `ε = 1e-9`, 200 iterations max.
    pub fn new() -> Self {
        Self::with_params(0.15, 1e-9, 200)
    }

    /// EigenTrust with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `\[0, 1\]`.
    pub fn with_params(alpha: f64, epsilon: f64, max_iter: usize) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        EigenTrustMechanism {
            alpha,
            epsilon,
            max_iter,
            sat: BTreeMap::new(),
            nodes: BTreeSet::new(),
            pre_trusted: BTreeSet::new(),
            cache: OnceLock::new(),
            submitted: 0,
        }
    }

    /// Mark a subject as pre-trusted (a founding peer in the paper).
    pub fn pre_trust(&mut self, subject: impl Into<SubjectId>) {
        let s = subject.into();
        self.nodes.insert(s);
        self.pre_trusted.insert(s);
        self.cache.take();
    }

    /// Normalized local trust row of `i`: `c_ij` over all `j`.
    pub fn local_trust(&self, i: SubjectId) -> BTreeMap<SubjectId, f64> {
        let Some(row) = self.sat.get(&i) else {
            return BTreeMap::new();
        };
        let positives: BTreeMap<SubjectId, f64> = row
            .iter()
            .filter(|&(_, &v)| v > 0.0)
            .map(|(&j, &v)| (j, v))
            .collect();
        let total: f64 = positives.values().sum();
        if total <= 0.0 {
            return BTreeMap::new();
        }
        positives.into_iter().map(|(j, v)| (j, v / total)).collect()
    }

    /// Run (or reuse) the power iteration; the result sums to 1.
    pub fn global_trust(&self) -> &BTreeMap<SubjectId, f64> {
        self.cache.get_or_init(|| self.run_iteration().0)
    }

    /// Number of iterations the last computation would need (for the
    /// convergence benches): runs the iteration and returns the count.
    pub fn iterations_to_converge(&self) -> usize {
        self.run_iteration().1
    }

    fn run_iteration(&self) -> (BTreeMap<SubjectId, f64>, usize) {
        let nodes: Vec<SubjectId> = self.nodes.iter().copied().collect();
        let n = nodes.len();
        if n == 0 {
            return (BTreeMap::new(), 0);
        }
        let index: BTreeMap<SubjectId, usize> =
            nodes.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        // Pre-trust distribution p: uniform over pre-trusted peers, else
        // uniform over everyone (the paper's fallback).
        let p: Vec<f64> = if self.pre_trusted.is_empty() {
            vec![1.0 / n as f64; n]
        } else {
            let k = self.pre_trusted.len() as f64;
            nodes
                .iter()
                .map(|s| {
                    if self.pre_trusted.contains(s) {
                        1.0 / k
                    } else {
                        0.0
                    }
                })
                .collect()
        };
        // Normalized rows.
        let rows: Vec<BTreeMap<usize, f64>> = nodes
            .iter()
            .map(|&i| {
                self.local_trust(i)
                    .into_iter()
                    .map(|(j, v)| (index[&j], v))
                    .collect()
            })
            .collect();
        let mut t = p.clone();
        let mut iters = 0;
        for _ in 0..self.max_iter {
            iters += 1;
            let mut next = vec![0.0; n];
            let mut dangling = 0.0;
            for (i, row) in rows.iter().enumerate() {
                if row.is_empty() {
                    // Peers with no positive local trust defer to the
                    // pre-trusted distribution (the paper's c_ij = p_j rule).
                    dangling += t[i];
                } else {
                    for (&j, &c) in row {
                        next[j] += c * t[i];
                    }
                }
            }
            for (j, v) in next.iter_mut().enumerate() {
                *v = (1.0 - self.alpha) * (*v + dangling * p[j]) + self.alpha * p[j];
            }
            let delta: f64 = t.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            t = next;
            if delta < self.epsilon {
                break;
            }
        }
        (nodes.into_iter().zip(t).collect(), iters)
    }
}

impl ReputationMechanism for EigenTrustMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            key: "eigentrust",
            display: "Kamvar, Schlosser & Garcia-Molina (EigenTrust)",
            centralization: Centralization::Decentralized,
            subject: Subject::PersonAgent,
            scope: Scope::Global,
            citation: "11",
            proposed_for_web_services: false,
        }
    }

    fn submit(&mut self, feedback: &Feedback) {
        let rater: SubjectId = feedback.rater.into();
        self.nodes.insert(rater);
        self.nodes.insert(feedback.subject);
        // sat_ij accumulates +1/−1 per the original's tr(i,j) definition.
        let delta = feedback.ebay_sign() as f64;
        *self
            .sat
            .entry(rater)
            .or_default()
            .entry(feedback.subject)
            .or_insert(0.0) += delta;
        self.cache.take();
        self.submitted += 1;
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        if !self.nodes.contains(&subject) {
            return None;
        }
        let trust = self.global_trust();
        let max = trust.values().fold(f64::MIN, |a, &b| a.max(b));
        let v = trust.get(&subject).copied()?;
        let value = if max > 0.0 { v / max } else { 0.0 };
        Some(TrustEstimate::new(TrustValue::new(value), 1.0))
    }

    fn refresh(&mut self, _now: Time) {
        self.global_trust();
    }

    fn feedback_count(&self) -> usize {
        self.submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::AgentId;

    fn fb(rater: u64, subject: u64, score: f64) -> Feedback {
        Feedback::scored(
            AgentId::new(rater),
            AgentId::new(subject),
            score,
            Time::ZERO,
        )
    }

    fn a(i: u64) -> SubjectId {
        AgentId::new(i).into()
    }

    /// 5 good peers rate each other up; 1 bad peer gets rated down.
    fn small_network() -> EigenTrustMechanism {
        let mut m = EigenTrustMechanism::new();
        m.pre_trust(AgentId::new(0));
        for i in 0..5u64 {
            for j in 0..5u64 {
                if i != j {
                    m.submit(&fb(i, j, 0.9));
                }
            }
            m.submit(&fb(i, 5, 0.1));
        }
        m
    }

    #[test]
    fn global_trust_sums_to_one() {
        let m = small_network();
        let t = m.global_trust();
        let total: f64 = t.values().sum();
        assert!((total - 1.0).abs() < 1e-6, "total={total}");
    }

    #[test]
    fn malicious_peer_gets_no_trust() {
        let m = small_network();
        let t = m.global_trust();
        let bad = t[&a(5)];
        for i in 0..5 {
            assert!(t[&a(i)] > bad, "peer {i} should outrank the bad peer");
        }
        let est = m.global(a(5)).unwrap();
        assert!(est.value.get() < 0.2);
    }

    #[test]
    fn pre_trusted_peers_anchor_the_computation() {
        // Nobody has rated anyone positively: all trust flows to p.
        let mut m = EigenTrustMechanism::new();
        m.pre_trust(AgentId::new(0));
        m.submit(&fb(1, 2, 0.1)); // a negative rating only
        let t = m.global_trust();
        let best = t
            .iter()
            .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
            .unwrap();
        assert_eq!(*best.0, a(0));
    }

    #[test]
    fn local_trust_rows_are_normalized() {
        let m = small_network();
        let row = m.local_trust(a(0));
        let total: f64 = row.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(!row.contains_key(&a(5)), "negative sat never normalizes in");
    }

    #[test]
    fn collusion_without_honest_inlinks_stays_low() {
        let mut m = EigenTrustMechanism::with_params(0.2, 1e-9, 200);
        // Honest cluster 0..3 with pre-trust.
        m.pre_trust(AgentId::new(0));
        for i in 0..3u64 {
            for j in 0..3u64 {
                if i != j {
                    m.submit(&fb(i, j, 0.9));
                }
            }
        }
        // Colluders 10, 11 praise each other madly but get no honest praise.
        for _ in 0..50 {
            m.submit(&fb(10, 11, 1.0));
            m.submit(&fb(11, 10, 1.0));
        }
        let t = m.global_trust();
        assert!(
            t[&a(10)] + t[&a(11)] < t[&a(0)],
            "collusion ring must not outrank the honest cluster"
        );
    }

    #[test]
    fn no_pre_trust_falls_back_to_uniform_prior() {
        let mut m = EigenTrustMechanism::new();
        m.submit(&fb(0, 1, 0.9));
        let t = m.global_trust();
        assert_eq!(t.len(), 2);
        assert!((t.values().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(t[&a(1)] > t[&a(0)], "rated-up peer gains");
    }

    #[test]
    fn empty_network_is_empty() {
        let m = EigenTrustMechanism::new();
        assert!(m.global_trust().is_empty());
        assert_eq!(m.global(a(0)), None);
    }

    #[test]
    fn iteration_count_is_reported() {
        let m = small_network();
        let iters = m.iterations_to_converge();
        assert!(iters > 0 && iters <= 200);
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0,1]")]
    fn invalid_alpha_panics() {
        EigenTrustMechanism::with_params(1.5, 1e-9, 10);
    }
}
