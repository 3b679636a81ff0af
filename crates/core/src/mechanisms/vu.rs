//! Vu, Hauswirth & Aberer — "QoS-based service selection and ranking with
//! trust and reputation management" (OTM/CoopIS 2005), references \[28, 29\].
//!
//! The survey's only *decentralized* web-service mechanism
//! (*person-agent/resource, personalized*): dedicated QoS registries on a
//! P-Grid collect consumer QoS reports; a small number of **trusted
//! monitoring agents** also probe services, and reporter credibility is
//! derived by comparing each reporter's claims with the trusted
//! measurements — reporters who deviate lose weight, neutralizing
//! dishonest feedback. Service ranking is the credibility-weighted
//! predicted QoS against the requester's requirements.
//!
//! The P-Grid storage/routing embodiment is in `wsrep-net`; this module is
//! the credibility and ranking computation.

use crate::feedback::Feedback;
use crate::id::{AgentId, SubjectId};
use crate::mechanism::ReputationMechanism;
use crate::trust::{evidence_confidence, TrustEstimate, TrustValue};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use wsrep_qos::metric::Metric;
use wsrep_qos::normalize::NormalizationMatrix;
use wsrep_qos::preference::Preferences;
use wsrep_qos::value::QosVector;

/// One stored QoS report.
#[derive(Debug, Clone)]
struct Report {
    reporter: AgentId,
    observed: QosVector,
    score: f64,
}

/// The Vu et al. QoS-with-trust mechanism.
#[derive(Debug, Clone)]
pub struct VuMechanism {
    /// Reporters whose credibility falls below this are treated as
    /// *detected dishonest* and their reports are discarded wholesale —
    /// the paper's algorithm filters dishonest feedback out rather than
    /// merely down-weighting it. Honest reporters sit near 1; neutral
    /// (never cross-checked) reporters sit at exactly 0.5 and are kept.
    dishonesty_threshold: f64,
    reports: BTreeMap<SubjectId, Vec<Report>>,
    /// Trusted monitor probes per subject (ground-truth-ish samples).
    trusted: BTreeMap<SubjectId, Vec<QosVector>>,
    /// Per-consumer preference profiles for personalized ranking.
    profiles: BTreeMap<AgentId, Preferences>,
    /// Every cross-checked reporter's credibility, computed at most once
    /// per change to `reports` or `trusted`.
    credibility: OnceLock<BTreeMap<AgentId, f64>>,
    submitted: usize,
}

impl Default for VuMechanism {
    fn default() -> Self {
        Self::new()
    }
}

impl VuMechanism {
    /// Empty mechanism with the dishonesty threshold at 0.5.
    pub fn new() -> Self {
        VuMechanism {
            dishonesty_threshold: 0.5,
            reports: BTreeMap::new(),
            trusted: BTreeMap::new(),
            profiles: BTreeMap::new(),
            credibility: OnceLock::new(),
            submitted: 0,
        }
    }

    /// Register a consumer's QoS requirements/preferences.
    pub fn set_profile(&mut self, consumer: AgentId, prefs: Preferences) {
        self.profiles.insert(consumer, prefs);
    }

    /// Ingest a probe from a trusted monitoring agent.
    pub fn submit_trusted(&mut self, subject: impl Into<SubjectId>, observed: QosVector) {
        self.trusted
            .entry(subject.into())
            .or_default()
            .push(observed);
        self.credibility.take();
    }

    /// Mean trusted observation per metric for a subject, if probed.
    fn trusted_mean(&self, subject: SubjectId) -> Option<QosVector> {
        let probes = self.trusted.get(&subject)?;
        if probes.is_empty() {
            return None;
        }
        let mut sums: BTreeMap<Metric, (f64, usize)> = BTreeMap::new();
        for p in probes {
            for (m, v) in p.iter() {
                let e = sums.entry(m).or_insert((0.0, 0));
                e.0 += v;
                e.1 += 1;
            }
        }
        Some(
            sums.into_iter()
                .map(|(m, (s, n))| (m, s / n as f64))
                .collect(),
        )
    }

    /// A reporter's credibility in `\[0, 1\]`: 1 minus its mean relative
    /// deviation from trusted measurements over all subjects it reported
    /// on that were also probed. Reporters never cross-checked keep a
    /// neutral 0.5.
    pub fn reporter_credibility(&self, reporter: AgentId) -> f64 {
        let all = self.credibility.get_or_init(|| self.credibilities());
        all.get(&reporter).copied().unwrap_or(0.5)
    }

    /// One pass over every report of every probed subject, summing each
    /// reporter's deviations in (subject, report, metric) order.
    fn credibilities(&self) -> BTreeMap<AgentId, f64> {
        let mut sums: BTreeMap<AgentId, (f64, usize)> = BTreeMap::new();
        for (subject, reports) in &self.reports {
            let Some(truth) = self.trusted_mean(*subject) else {
                continue;
            };
            for r in reports {
                for (m, claimed) in r.observed.iter() {
                    let Some(actual) = truth.get(m) else {
                        continue;
                    };
                    let scale = actual.abs().max(1e-9);
                    let e = sums.entry(r.reporter).or_insert((0.0, 0));
                    e.0 += ((claimed - actual).abs() / scale).min(1.0);
                    e.1 += 1;
                }
            }
        }
        sums.into_iter()
            .map(|(reporter, (dev, n))| (reporter, (1.0 - dev / n as f64).clamp(0.0, 1.0)))
            .collect()
    }

    /// Credibility-weighted per-metric estimate of a subject's delivered
    /// QoS, blending trusted probes (full weight) with reports.
    pub fn estimated_qos(&self, subject: SubjectId) -> Option<QosVector> {
        let mut acc: BTreeMap<Metric, (f64, f64)> = BTreeMap::new();
        if let Some(truth) = self.trusted_mean(subject) {
            for (m, v) in truth.iter() {
                let e = acc.entry(m).or_insert((0.0, 0.0));
                // Trusted probes carry the weight of several reports.
                e.0 += 3.0 * v;
                e.1 += 3.0;
            }
        }
        for r in self.reports.get(&subject).into_iter().flatten() {
            let w = self.reporter_credibility(r.reporter);
            if w < self.dishonesty_threshold {
                continue; // detected dishonest: report discarded
            }
            for (m, v) in r.observed.iter() {
                let e = acc.entry(m).or_insert((0.0, 0.0));
                e.0 += w * v;
                e.1 += w;
            }
        }
        if acc.is_empty() {
            return None;
        }
        Some(acc.into_iter().map(|(m, (s, w))| (m, s / w)).collect())
    }

    /// Rank all reported subjects under `prefs` via the normalization
    /// matrix over credibility-weighted QoS estimates.
    pub fn rank(&self, prefs: &Preferences) -> Vec<(SubjectId, f64)> {
        let mut subjects: Vec<SubjectId> = self.reports.keys().copied().collect();
        for s in self.trusted.keys() {
            if !subjects.contains(s) {
                subjects.push(*s);
            }
        }
        let vectors: Vec<QosVector> = subjects
            .iter()
            .map(|&s| self.estimated_qos(s).unwrap_or_default())
            .collect();
        let mut metrics: Vec<Metric> = vectors.iter().flat_map(|v| v.metrics()).collect();
        metrics.sort();
        metrics.dedup();
        let matrix = NormalizationMatrix::new(&vectors, &metrics);
        matrix
            .scores(prefs)
            .into_iter()
            .map(|sc| (subjects[sc.candidate], sc.score))
            .collect()
    }

    /// Credibility-weighted mean satisfaction score for a subject.
    fn weighted_score(&self, subject: SubjectId) -> Option<f64> {
        let reports = self.reports.get(&subject)?;
        let mut num = 0.0;
        let mut den = 0.0;
        for r in reports {
            let w = self.reporter_credibility(r.reporter);
            if w < self.dishonesty_threshold {
                continue;
            }
            num += w * r.score;
            den += w;
        }
        if den > 0.0 {
            Some(num / den)
        } else {
            None
        }
    }

    fn estimate_with(&self, prefs: &Preferences, subject: SubjectId) -> Option<TrustEstimate> {
        let known = self.reports.contains_key(&subject) || self.trusted.contains_key(&subject);
        if !known {
            return None;
        }
        let n = self.reports.get(&subject).map(Vec::len).unwrap_or(0)
            + self.trusted.get(&subject).map(Vec::len).unwrap_or(0);
        let subjects_known = self
            .reports
            .keys()
            .chain(self.trusted.keys())
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        // A lone subject cannot be normalized against anything — the
        // comparative rank is vacuous, so use the credibility-weighted
        // satisfaction the reports carry instead.
        if subjects_known < 2 {
            // Trusted probes alone carry QoS but no satisfaction scale;
            // without any consumer report the estimate stays neutral.
            let score = self.weighted_score(subject).unwrap_or(0.5);
            return Some(TrustEstimate::new(
                TrustValue::new(score),
                evidence_confidence(n, 3.0),
            ));
        }
        let ranked = self.rank(prefs);
        let score = ranked.iter().find(|&&(s, _)| s == subject)?.1;
        Some(TrustEstimate::new(
            TrustValue::new(score),
            evidence_confidence(n, 3.0),
        ))
    }
}

impl ReputationMechanism for VuMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            key: "vu",
            display: "L.-H. Vu, M. Hauswirth & K. Aberer",
            centralization: Centralization::Decentralized,
            subject: Subject::Both,
            scope: Scope::Personalized,
            citation: "28, 29",
            proposed_for_web_services: true,
        }
    }

    fn submit(&mut self, feedback: &Feedback) {
        self.reports
            .entry(feedback.subject)
            .or_default()
            .push(Report {
                reporter: feedback.rater,
                observed: feedback.observed.clone(),
                score: feedback.score,
            });
        self.credibility.take();
        self.submitted += 1;
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        let metrics: Vec<Metric> = self
            .estimated_qos(subject)
            .map(|v| v.metrics().collect())
            .unwrap_or_default();
        if metrics.is_empty() {
            // Fall back to score-based mean when reports carry no QoS.
            let reports = self.reports.get(&subject)?;
            if reports.is_empty() {
                return None;
            }
            let mean = reports.iter().map(|r| r.score).sum::<f64>() / reports.len() as f64;
            return Some(TrustEstimate::new(
                TrustValue::new(mean),
                evidence_confidence(reports.len(), 3.0),
            ));
        }
        self.estimate_with(&Preferences::uniform(metrics), subject)
    }

    fn personalized(&self, observer: AgentId, subject: SubjectId) -> Option<TrustEstimate> {
        match self.profiles.get(&observer) {
            Some(prefs) => self.estimate_with(prefs, subject),
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

    fn report(rater: u64, item: u64, rt: f64) -> Feedback {
        Feedback::scored(AgentId::new(rater), ServiceId::new(item), 0.5, Time::ZERO)
            .with_observed(QosVector::from_pairs([(Metric::ResponseTime, rt)]))
    }

    fn s(i: u64) -> SubjectId {
        ServiceId::new(i).into()
    }

    #[test]
    fn truthful_reporters_keep_high_credibility() {
        let mut m = VuMechanism::new();
        m.submit_trusted(
            ServiceId::new(1),
            QosVector::from_pairs([(Metric::ResponseTime, 100.0)]),
        );
        m.submit(&report(0, 1, 102.0)); // close to truth
        m.submit(&report(1, 1, 500.0)); // wild exaggeration
        assert!(m.reporter_credibility(AgentId::new(0)) > 0.9);
        assert!(m.reporter_credibility(AgentId::new(1)) < 0.3);
    }

    #[test]
    fn uncrosschecked_reporters_stay_neutral() {
        let mut m = VuMechanism::new();
        m.submit(&report(0, 1, 100.0));
        assert_eq!(m.reporter_credibility(AgentId::new(0)), 0.5);
    }

    #[test]
    fn liar_reports_are_dropped_from_estimates() {
        let mut m = VuMechanism::new();
        m.submit_trusted(
            ServiceId::new(1),
            QosVector::from_pairs([(Metric::ResponseTime, 100.0)]),
        );
        // Honest reports around 100; one liar claims 5.
        for r in 0..3 {
            m.submit(&report(r, 1, 100.0 + r as f64));
        }
        m.submit(&report(9, 1, 2000.0)); // blatantly wrong on the probed value
        let est = m.estimated_qos(s(1)).unwrap();
        let rt = est.get(Metric::ResponseTime).unwrap();
        assert!((rt - 100.0).abs() < 10.0, "got {rt}");
    }

    #[test]
    fn ranking_follows_requirements() {
        let mut m = VuMechanism::new();
        m.submit(&report(0, 1, 50.0)); // fast service
        m.submit(&report(0, 2, 500.0)); // slow service
        let prefs = Preferences::uniform([Metric::ResponseTime]);
        let ranked = m.rank(&prefs);
        assert_eq!(ranked[0].0, s(1));
    }

    #[test]
    fn personalized_profile_changes_ranking() {
        let mut m = VuMechanism::new();
        let fast = QosVector::from_pairs([(Metric::ResponseTime, 50.0), (Metric::Price, 10.0)]);
        let cheap = QosVector::from_pairs([(Metric::ResponseTime, 500.0), (Metric::Price, 1.0)]);
        m.submit(
            &Feedback::scored(AgentId::new(0), ServiceId::new(1), 0.5, Time::ZERO)
                .with_observed(fast),
        );
        m.submit(
            &Feedback::scored(AgentId::new(0), ServiceId::new(2), 0.5, Time::ZERO)
                .with_observed(cheap),
        );
        m.set_profile(AgentId::new(5), Preferences::uniform([Metric::Price]));
        let view_fast = m.personalized(AgentId::new(5), s(1)).unwrap();
        let view_cheap = m.personalized(AgentId::new(5), s(2)).unwrap();
        assert!(view_cheap.value > view_fast.value);
    }

    #[test]
    fn score_only_reports_still_give_reputation() {
        let mut m = VuMechanism::new();
        m.submit(&Feedback::scored(
            AgentId::new(0),
            ServiceId::new(1),
            0.8,
            Time::ZERO,
        ));
        let est = m.global(s(1)).unwrap();
        assert!((est.value.get() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn trusted_probes_alone_support_estimates() {
        let mut m = VuMechanism::new();
        m.submit_trusted(
            ServiceId::new(1),
            QosVector::from_pairs([(Metric::ResponseTime, 100.0)]),
        );
        assert!(m.estimated_qos(s(1)).is_some());
    }

    #[test]
    fn unknown_subject_is_none() {
        let m = VuMechanism::new();
        assert_eq!(m.global(s(7)), None);
        assert_eq!(m.estimated_qos(s(7)), None);
    }
}
