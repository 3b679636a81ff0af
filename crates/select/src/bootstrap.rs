//! Provider-level reputation — the survey's Section 5 direction 2.
//!
//! "For the service for which the trust and reputation has not been
//! established, e.g. a new service …, the trust and reputation of the
//! service provider, accumulated by the provider from providing other
//! services, can be used for the selection." [`ProviderBootstrap`] wraps
//! any service-level mechanism and answers cold-start queries with the
//! provider's aggregate instead of the ignorance prior.

use std::collections::BTreeMap;
use std::fmt;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId, SubjectId};
use wsrep_core::mechanism::ReputationMechanism;
use wsrep_core::time::Time;
use wsrep_core::trust::TrustEstimate;
use wsrep_core::typology::MechanismInfo;

/// A service-level mechanism extended with provider-level aggregation.
pub struct ProviderBootstrap {
    inner: Box<dyn ReputationMechanism>,
    /// service → provider mapping, learned from registration.
    ownership: BTreeMap<ServiceId, ProviderId>,
    /// Evidence below which a service falls back to its provider.
    min_confidence: f64,
    /// Whether bootstrapping is active (off = plain inner mechanism, the
    /// ablation baseline).
    enabled: bool,
}

impl fmt::Debug for ProviderBootstrap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProviderBootstrap")
            .field("inner", &self.inner.info().key)
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl ProviderBootstrap {
    /// Wrap a mechanism; bootstrapping on.
    pub fn new(inner: Box<dyn ReputationMechanism>) -> Self {
        ProviderBootstrap {
            inner,
            ownership: BTreeMap::new(),
            min_confidence: 0.3,
            enabled: true,
        }
    }

    /// Disable bootstrapping (ablation baseline).
    pub fn disabled(inner: Box<dyn ReputationMechanism>) -> Self {
        ProviderBootstrap {
            enabled: false,
            ..Self::new(inner)
        }
    }

    /// Register which provider owns a service.
    pub fn register(&mut self, service: ServiceId, provider: ProviderId) {
        self.ownership.insert(service, provider);
    }

    /// The provider-level reputation: evidence-weighted combination of the
    /// inner mechanism's estimates over all the provider's known services.
    pub(crate) fn provider_reputation(&self, provider: ProviderId) -> Option<TrustEstimate> {
        let estimates: Vec<TrustEstimate> = self
            .ownership
            .iter()
            .filter(|&(_, &p)| p == provider)
            .filter_map(|(&s, _)| self.inner.global(s.into()))
            .collect();
        if estimates.is_empty() {
            None
        } else {
            Some(TrustEstimate::combine(estimates))
        }
    }
}

impl ReputationMechanism for ProviderBootstrap {
    fn info(&self) -> MechanismInfo {
        self.inner.info()
    }

    fn submit(&mut self, feedback: &Feedback) {
        self.inner.submit(feedback);
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        match subject {
            SubjectId::Provider(p) => self.provider_reputation(p),
            _ => {
                let own = self.inner.global(subject);
                if !self.enabled {
                    return own;
                }
                match own {
                    Some(est) if est.confidence >= self.min_confidence => Some(est),
                    thin => {
                        // Cold start: seed from the provider's track record.
                        let provider = subject
                            .as_service()
                            .and_then(|s| self.ownership.get(&s).copied());
                        match (thin, provider.and_then(|p| self.provider_reputation(p))) {
                            (Some(own), Some(prov)) => {
                                // Blend by own confidence.
                                let w = own.confidence / self.min_confidence;
                                Some(TrustEstimate::new(
                                    prov.value.blend(own.value, w.min(1.0)),
                                    own.confidence.max(prov.confidence * 0.8),
                                ))
                            }
                            (None, Some(prov)) => {
                                Some(TrustEstimate::new(prov.value, prov.confidence * 0.8))
                            }
                            (own, None) => own,
                        }
                    }
                }
            }
        }
    }

    fn personalized(&self, observer: AgentId, subject: SubjectId) -> Option<TrustEstimate> {
        if !self.enabled {
            return self.inner.personalized(observer, subject);
        }
        let own = self.inner.personalized(observer, subject);
        match own {
            Some(est) if est.confidence >= self.min_confidence => Some(est),
            _ => self.global(subject),
        }
    }

    fn refresh(&mut self, now: Time) {
        self.inner.refresh(now);
    }

    fn feedback_count(&self) -> usize {
        self.inner.feedback_count()
    }
}

/// A selection strategy around [`ProviderBootstrap`] that keeps the
/// service→provider ownership map current from the candidate listings it
/// sees — so reputations follow providers even across service identity
/// changes (whitewashing).
#[derive(Debug)]
pub struct BootstrapSelect {
    mechanism: ProviderBootstrap,
    epsilon: f64,
}

impl BootstrapSelect {
    /// ε-greedy (10%) over a provider-bootstrapped mechanism.
    pub fn new(inner: Box<dyn ReputationMechanism>) -> Self {
        BootstrapSelect {
            mechanism: ProviderBootstrap::new(inner),
            epsilon: 0.1,
        }
    }
}

impl crate::strategy::SelectionStrategy for BootstrapSelect {
    fn name(&self) -> String {
        "rep:bootstrap".into()
    }

    fn choose(
        &mut self,
        ctx: &crate::strategy::SelectionContext<'_>,
        rng: &mut rand::rngs::StdRng,
    ) -> Option<usize> {
        use rand::Rng;
        if ctx.candidates.is_empty() {
            return None;
        }
        // Ownership is public registry metadata: keep the map current.
        for c in ctx.candidates {
            self.mechanism.register(c.service, c.provider);
        }
        if !ctx.registry_up {
            return Some(rng.gen_range(0..ctx.candidates.len()));
        }
        if rng.gen::<f64>() < self.epsilon {
            return Some(rng.gen_range(0..ctx.candidates.len()));
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in ctx.candidates.iter().enumerate() {
            let est = self
                .mechanism
                .personalized(ctx.consumer.id, c.service.into())
                .map(|e| e.value.get())
                .unwrap_or(0.5);
            if best.map(|(_, b)| est > b).unwrap_or(true) {
                best = Some((i, est));
            }
        }
        best.map(|(i, _)| i)
    }

    fn observe(&mut self, feedback: &Feedback) {
        self.mechanism.submit(feedback);
    }

    fn refresh(&mut self, now: Time) {
        self.mechanism.refresh(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrep_core::mechanisms::beta::BetaMechanism;

    fn seeded(enabled: bool) -> ProviderBootstrap {
        let mut b = if enabled {
            ProviderBootstrap::new(Box::new(BetaMechanism::new()))
        } else {
            ProviderBootstrap::disabled(Box::new(BetaMechanism::new()))
        };
        // Provider 0 has two established, excellent services and one new.
        b.register(ServiceId::new(0), ProviderId::new(0));
        b.register(ServiceId::new(1), ProviderId::new(0));
        b.register(ServiceId::new(2), ProviderId::new(0)); // new service
                                                           // Provider 1 has an established terrible service and one new.
        b.register(ServiceId::new(10), ProviderId::new(1));
        b.register(ServiceId::new(11), ProviderId::new(1)); // new service
        for t in 0..20 {
            for s in [0u64, 1] {
                b.submit(&Feedback::scored(
                    AgentId::new(t),
                    ServiceId::new(s),
                    0.95,
                    Time::new(t),
                ));
            }
            b.submit(&Feedback::scored(
                AgentId::new(t),
                ServiceId::new(10),
                0.05,
                Time::new(t),
            ));
        }
        b
    }

    #[test]
    fn new_service_inherits_provider_standing() {
        let b = seeded(true);
        let new_good = b.global(ServiceId::new(2).into()).unwrap();
        let new_bad = b.global(ServiceId::new(11).into()).unwrap();
        assert!(new_good.value.get() > 0.8, "got {}", new_good.value);
        assert!(new_bad.value.get() < 0.2, "got {}", new_bad.value);
    }

    #[test]
    fn disabled_bootstrap_returns_nothing_for_new_services() {
        let b = seeded(false);
        assert_eq!(b.global(ServiceId::new(2).into()), None);
    }

    #[test]
    fn established_services_keep_their_own_reputation() {
        let b = seeded(true);
        let est = b.global(ServiceId::new(10).into()).unwrap();
        assert!(est.value.get() < 0.2, "own bad record not masked");
    }

    #[test]
    fn provider_reputation_aggregates_services() {
        let b = seeded(true);
        let good = b.provider_reputation(ProviderId::new(0)).unwrap();
        let bad = b.provider_reputation(ProviderId::new(1)).unwrap();
        assert!(good.value.get() > bad.value.get());
        // Queryable through the SubjectId::Provider path too.
        let via_subject = b.global(ProviderId::new(0).into()).unwrap();
        assert_eq!(via_subject, good);
    }

    #[test]
    fn unknown_provider_is_none() {
        let b = seeded(true);
        assert_eq!(b.provider_reputation(ProviderId::new(9)), None);
        assert_eq!(b.global(ServiceId::new(99).into()), None);
    }

    #[test]
    fn bootstrap_select_tracks_ownership_across_identity_changes() {
        use crate::strategy::{Candidate, SelectionContext, SelectionStrategy};
        use rand::SeedableRng;
        use wsrep_qos::metric::Metric;
        use wsrep_qos::preference::Preferences;
        use wsrep_qos::value::QosVector;
        use wsrep_sim::consumer::{Consumer, RaterBehavior};

        let mut strat = BootstrapSelect {
            epsilon: 0.0,
            ..BootstrapSelect::new(Box::new(BetaMechanism::new()))
        };
        let consumer = Consumer {
            id: AgentId::new(0),
            prefs: Preferences::uniform([Metric::Price]),
            behavior: RaterBehavior::Honest,
        };
        let mk = |service: u64, provider: u64| Candidate {
            service: ServiceId::new(service),
            provider: ProviderId::new(provider),
            advertised: QosVector::new(),
        };
        // Provider 1's service earns a terrible record; provider 2's a
        // good one.
        let cands = vec![mk(10, 1), mk(20, 2)];
        let ctx = SelectionContext {
            consumer: &consumer,
            candidates: &cands,
            now: Time::ZERO,
            registry_up: true,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        strat.choose(&ctx, &mut rng); // registers ownership
        for t in 0..10 {
            strat.observe(&Feedback::scored(
                AgentId::new(5),
                ServiceId::new(10),
                0.05,
                Time::new(t),
            ));
            strat.observe(&Feedback::scored(
                AgentId::new(5),
                ServiceId::new(20),
                0.9,
                Time::new(t),
            ));
        }
        // Provider 1 whitewashes: service 10 becomes 11.
        let washed = vec![mk(11, 1), mk(20, 2)];
        let ctx = SelectionContext {
            consumer: &consumer,
            candidates: &washed,
            now: Time::new(10),
            registry_up: true,
        };
        let idx = strat.choose(&ctx, &mut rng).unwrap();
        assert_eq!(
            washed[idx].service,
            ServiceId::new(20),
            "the fresh identity inherits provider 1's bad record"
        );
    }

    #[test]
    fn own_evidence_overrides_bootstrap_as_it_accumulates() {
        let mut b = seeded(true);
        // The new service of the good provider turns out to be terrible.
        for t in 0..20 {
            b.submit(&Feedback::scored(
                AgentId::new(t),
                ServiceId::new(2),
                0.05,
                Time::new(t),
            ));
        }
        let est = b.global(ServiceId::new(2).into()).unwrap();
        assert!(
            est.value.get() < 0.3,
            "evidence beats pedigree: {}",
            est.value
        );
    }
}
