//! Selection strategies.
//!
//! Section 2 of the paper enumerates how consumers cope today: random
//! ("blind") choice, trusting provider-advertised QoS, negotiating SLAs,
//! third-party monitoring, and feedback-based trust & reputation. Each is
//! a [`SelectionStrategy`] here so the experiments can race them.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId, SubjectId};
use wsrep_core::mechanism::ReputationMechanism;
use wsrep_core::time::Time;
use wsrep_core::trust::TrustEstimate;
use wsrep_core::typology::Centralization;
use wsrep_qos::normalize::NormalizationMatrix;
use wsrep_qos::sla::Sla;
use wsrep_qos::value::QosVector;
use wsrep_serve::ReputationService;
use wsrep_sim::consumer::Consumer;

/// A candidate offer in a selection round.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The service offered.
    pub service: ServiceId,
    /// Its provider.
    pub provider: ProviderId,
    /// The provider's QoS claim.
    pub advertised: QosVector,
}

/// Everything a strategy sees when asked to choose.
#[derive(Debug)]
pub struct SelectionContext<'a> {
    /// The consumer choosing.
    pub consumer: &'a Consumer,
    /// Candidate services (empty when the registry is down and no cache
    /// exists).
    pub candidates: &'a [Candidate],
    /// Current round.
    pub now: Time,
    /// Whether the central registry (and any centralized reputation
    /// store) is reachable this round.
    pub registry_up: bool,
}

/// A web-service selection strategy.
pub trait SelectionStrategy: fmt::Debug {
    /// Name for experiment tables.
    fn name(&self) -> String;

    /// Where this strategy's knowledge lives — centralized strategies go
    /// blind when the registry fails (Figure 4's single-point-of-failure
    /// claim), decentralized ones keep answering.
    fn centralization(&self) -> Centralization {
        Centralization::Centralized
    }

    /// Pick a candidate (index into `ctx.candidates`).
    fn choose(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Option<usize>;

    /// Learn from a filed feedback report (the central collection path:
    /// every report reaches the strategy unless the registry is down).
    fn observe(&mut self, feedback: &Feedback) {
        let _ = feedback;
    }

    /// Advance internal clocks / fixed points once per round.
    fn refresh(&mut self, now: Time) {
        let _ = now;
    }
}

/// The paper's "blind choice": uniform random.
#[derive(Debug, Default)]
pub struct RandomSelect;

impl SelectionStrategy for RandomSelect {
    fn name(&self) -> String {
        "random".into()
    }

    fn centralization(&self) -> Centralization {
        // Random needs nothing; treat as decentralized (never blinded).
        Centralization::Decentralized
    }

    fn choose(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Option<usize> {
        if ctx.candidates.is_empty() {
            None
        } else {
            Some(rng.gen_range(0..ctx.candidates.len()))
        }
    }
}

/// Trust the providers' advertisements: normalize the advertised vectors
/// and take the best under the consumer's preferences. Exactly as gameable
/// as the paper says.
#[derive(Debug, Default)]
pub struct AdvertisedQos;

impl SelectionStrategy for AdvertisedQos {
    fn name(&self) -> String {
        "advertised".into()
    }

    fn choose(&mut self, ctx: &SelectionContext<'_>, _rng: &mut StdRng) -> Option<usize> {
        if ctx.candidates.is_empty() {
            return None;
        }
        let vectors: Vec<QosVector> = ctx
            .candidates
            .iter()
            .map(|c| c.advertised.clone())
            .collect();
        let mut metrics: Vec<_> = vectors.iter().flat_map(|v| v.metrics()).collect();
        metrics.sort();
        metrics.dedup();
        let matrix = NormalizationMatrix::new(&vectors, &metrics);
        matrix.best(&ctx.consumer.prefs)
    }
}

/// Advertised QoS hardened with SLAs: providers whose services violate
/// their (advertisement-derived) SLA too often are blacklisted, and the
/// violation penalties / negotiation costs are accounted.
#[derive(Debug)]
pub struct SlaSelect {
    /// Violation *rate* above which a provider is avoided. Jittery but
    /// honest deliveries violate occasionally; exaggerators violate almost
    /// every time, so a rate threshold separates them.
    max_violation_rate: f64,
    /// Settlements required before the rate is trusted.
    min_settlements: u32,
    /// SLA slack against the advertisement.
    slack: f64,
    /// Negotiation cost charged per new agreement.
    negotiation_cost: f64,
    /// Penalty per violated obligation.
    penalty: f64,
    /// Per provider: (violations, settlements).
    violations: BTreeMap<ProviderId, (u32, u32)>,
    agreements: BTreeMap<(AgentId, ServiceId), Sla>,
    /// Accounting: total negotiation cost paid and penalties collected.
    pub negotiation_paid: f64,
    /// Penalties collected from providers.
    pub penalties_collected: f64,
    inner: AdvertisedQos,
}

impl SlaSelect {
    /// Defaults: blacklist above 50% violation rate after 6 settlements,
    /// 30% slack, cost 1, penalty 1.
    pub fn new() -> Self {
        SlaSelect {
            max_violation_rate: 0.5,
            min_settlements: 6,
            slack: 0.3,
            negotiation_cost: 1.0,
            penalty: 1.0,
            violations: BTreeMap::new(),
            agreements: BTreeMap::new(),
            negotiation_paid: 0.0,
            penalties_collected: 0.0,
            inner: AdvertisedQos,
        }
    }

    /// Check an observation against the consumer's agreement for the
    /// service, updating violation and penalty accounting.
    pub(crate) fn settle(
        &mut self,
        consumer: AgentId,
        candidate: &Candidate,
        observed: &QosVector,
    ) {
        let sla = self
            .agreements
            .entry((consumer, candidate.service))
            .or_insert_with(|| {
                self.negotiation_paid += self.negotiation_cost;
                Sla::from_advertised(&candidate.advertised, self.slack, self.penalty)
            });
        let outcome = sla.check(observed);
        let e = self.violations.entry(candidate.provider).or_insert((0, 0));
        e.1 += 1;
        if !outcome.compliant() {
            self.penalties_collected += outcome.penalty;
            e.0 += 1;
        }
    }

    /// Whether a provider is currently blacklisted.
    pub(crate) fn blacklisted(&self, provider: ProviderId) -> bool {
        self.violations
            .get(&provider)
            .map(|&(v, n)| {
                n >= self.min_settlements && v as f64 / n as f64 > self.max_violation_rate
            })
            .unwrap_or(false)
    }
}

impl Default for SlaSelect {
    fn default() -> Self {
        Self::new()
    }
}

impl SelectionStrategy for SlaSelect {
    fn name(&self) -> String {
        "sla".into()
    }

    fn choose(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Option<usize> {
        let allowed: Vec<usize> = ctx
            .candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| !self.blacklisted(c.provider))
            .map(|(i, _)| i)
            .collect();
        if allowed.is_empty() {
            // Everyone blacklisted: fall back to the full set.
            return self.inner.choose(ctx, rng);
        }
        let subset: Vec<Candidate> = allowed.iter().map(|&i| ctx.candidates[i].clone()).collect();
        let sub_ctx = SelectionContext {
            consumer: ctx.consumer,
            candidates: &subset,
            now: ctx.now,
            registry_up: ctx.registry_up,
        };
        self.inner.choose(&sub_ctx, rng).map(|j| allowed[j])
    }
}

/// Where [`ReputationSelect`]'s choice rule reads its estimates and files
/// its reports: an in-process [`ReputationMechanism`] or the served
/// [`ReputationService`] registry.
pub trait EstimateSource: fmt::Debug {
    /// Short stable key for experiment tables.
    fn key(&self) -> &'static str;

    /// Where the estimates live: a centralized source is unreachable while
    /// the registry is down.
    fn centralization(&self) -> Centralization;

    /// The subject's reputation as the community sees it.
    fn global(&self, subject: SubjectId) -> Option<TrustEstimate>;

    /// The subject's reputation from `observer`'s point of view.
    fn personalized(&self, observer: AgentId, subject: SubjectId) -> Option<TrustEstimate> {
        let _ = observer;
        self.global(subject)
    }

    /// File one feedback report.
    fn file(&mut self, feedback: &Feedback);

    /// Round boundary: advance clocks and fixed points.
    fn refresh(&mut self, now: Time);
}

impl<M: ReputationMechanism + ?Sized> EstimateSource for Box<M> {
    fn key(&self) -> &'static str {
        self.info().key
    }

    fn centralization(&self) -> Centralization {
        self.info().centralization
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        (**self).global(subject)
    }

    fn personalized(&self, observer: AgentId, subject: SubjectId) -> Option<TrustEstimate> {
        (**self).personalized(observer, subject)
    }

    fn file(&mut self, feedback: &Feedback) {
        (**self).submit(feedback);
    }

    fn refresh(&mut self, now: Time) {
        (**self).refresh(now);
    }
}

/// The served registry. Its `personalized` is `global`: it serves no
/// observer-relative scores.
impl EstimateSource for Arc<ReputationService> {
    fn key(&self) -> &'static str {
        "served"
    }

    fn centralization(&self) -> Centralization {
        Centralization::Centralized
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        // Read-your-own-writes: every filed report is applied first, so a
        // choice never depends on how far the writer thread happened to get.
        self.flush();
        self.score(subject)
    }

    fn file(&mut self, feedback: &Feedback) {
        self.ingest(feedback.clone())
            .expect("the ingest pipeline closes only when the service drops");
    }

    fn refresh(&mut self, _now: Time) {
        // A served score is as of its subject's newest report: the
        // registry keeps no round clock.
    }
}

/// A reputation-backed strategy over any [`EstimateSource`]: ε-greedy over
/// the source's personalized estimates, learning from all filed feedback.
#[derive(Debug)]
pub struct ReputationSelect<S> {
    source: S,
    /// Exploration rate.
    epsilon: f64,
    /// Prior trust assigned to candidates the source knows nothing
    /// about. The neutral 0.5 is newcomer-friendly but makes identity
    /// switching (whitewashing) profitable; a skeptical prior below the
    /// market's typical reputation removes that profit at the price of
    /// slower discovery of genuinely new services.
    default_trust: f64,
}

impl<S: EstimateSource> ReputationSelect<S> {
    /// Choose over `source` with 10% exploration.
    pub fn new(source: S) -> Self {
        ReputationSelect {
            source,
            epsilon: 0.1,
            default_trust: 0.5,
        }
    }

    /// Change the exploration rate (builder style).
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon.clamp(0.0, 1.0);
        self
    }

    /// Change the prior for unknown candidates (builder style). See the
    /// field docs: low values are whitewash-resistant but slow to adopt
    /// genuine newcomers.
    pub fn with_default_trust(mut self, prior: f64) -> Self {
        self.default_trust = prior.clamp(0.0, 1.0);
        self
    }

    /// The estimate source the rule reads.
    pub fn source(&self) -> &S {
        &self.source
    }
}

impl<S: EstimateSource> SelectionStrategy for ReputationSelect<S> {
    fn name(&self) -> String {
        format!("rep:{}", self.source.key())
    }

    fn centralization(&self) -> Centralization {
        self.source.centralization()
    }

    fn choose(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Option<usize> {
        if ctx.candidates.is_empty() {
            return None;
        }
        // A centralized source is unreachable while the registry is
        // down: blind choice (the single point of failure).
        if !ctx.registry_up && self.centralization() == Centralization::Centralized {
            return Some(rng.gen_range(0..ctx.candidates.len()));
        }
        if rng.gen::<f64>() < self.epsilon {
            return Some(rng.gen_range(0..ctx.candidates.len()));
        }
        let mut best: Option<(usize, f64)> = None;
        let mut order: Vec<usize> = (0..ctx.candidates.len()).collect();
        order.shuffle(rng); // random tie-breaking among unknowns
        for i in order {
            let c = &ctx.candidates[i];
            let est = self
                .source
                .personalized(ctx.consumer.id, c.service.into())
                .map(|e| e.value.get())
                .unwrap_or(self.default_trust);
            if best.map(|(_, b)| est > b).unwrap_or(true) {
                best = Some((i, est));
            }
        }
        best.map(|(i, _)| i)
    }

    fn observe(&mut self, feedback: &Feedback) {
        self.source.file(feedback);
    }

    fn refresh(&mut self, now: Time) {
        self.source.refresh(now);
    }
}

/// Design-time selection — Section 3.1, question 1.
///
/// "The major way currently used is selecting a service manually at
/// design time by software developers … The alternative way is to do the
/// selection automatically at run time." This wrapper freezes whatever
/// the inner strategy picks the *first* time each consumer chooses; the
/// choice is only revisited when the frozen service disappears from the
/// candidate list. Racing it against its own inner strategy quantifies
/// what run-time (re-)selection buys in a dynamic market.
#[derive(Debug)]
pub struct DesignTimeSelect<S> {
    inner: S,
    frozen: BTreeMap<AgentId, ServiceId>,
}

impl<S: SelectionStrategy> DesignTimeSelect<S> {
    /// Freeze around an inner strategy.
    pub fn new(inner: S) -> Self {
        DesignTimeSelect {
            inner,
            frozen: BTreeMap::new(),
        }
    }
}

impl<S: SelectionStrategy> SelectionStrategy for DesignTimeSelect<S> {
    fn name(&self) -> String {
        format!("design-time({})", self.inner.name())
    }

    fn centralization(&self) -> Centralization {
        self.inner.centralization()
    }

    fn choose(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Option<usize> {
        if let Some(&frozen) = self.frozen.get(&ctx.consumer.id) {
            if let Some(idx) = ctx.candidates.iter().position(|c| c.service == frozen) {
                return Some(idx);
            }
            // The chosen service vanished: the developer must redo the
            // (design-time) selection.
            self.frozen.remove(&ctx.consumer.id);
        }
        let idx = self.inner.choose(ctx, rng)?;
        self.frozen
            .insert(ctx.consumer.id, ctx.candidates[idx].service);
        Some(idx)
    }

    fn observe(&mut self, feedback: &Feedback) {
        self.inner.observe(feedback);
    }

    fn refresh(&mut self, now: Time) {
        self.inner.refresh(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wsrep_core::mechanisms::beta::BetaMechanism;
    use wsrep_qos::metric::Metric;
    use wsrep_qos::preference::Preferences;
    use wsrep_sim::consumer::RaterBehavior;

    fn consumer() -> Consumer {
        Consumer {
            id: AgentId::new(0),
            prefs: Preferences::uniform([Metric::ResponseTime]),
            behavior: RaterBehavior::Honest,
        }
    }

    fn candidates() -> Vec<Candidate> {
        vec![
            Candidate {
                service: ServiceId::new(0),
                provider: ProviderId::new(0),
                advertised: QosVector::from_pairs([(Metric::ResponseTime, 50.0)]),
            },
            Candidate {
                service: ServiceId::new(1),
                provider: ProviderId::new(1),
                advertised: QosVector::from_pairs([(Metric::ResponseTime, 300.0)]),
            },
        ]
    }

    fn ctx<'a>(c: &'a Consumer, cands: &'a [Candidate], up: bool) -> SelectionContext<'a> {
        SelectionContext {
            consumer: c,
            candidates: cands,
            now: Time::ZERO,
            registry_up: up,
        }
    }

    #[test]
    fn advertised_strategy_picks_the_best_claim() {
        let c = consumer();
        let cands = candidates();
        let mut rng = StdRng::seed_from_u64(1);
        let idx = AdvertisedQos
            .choose(&ctx(&c, &cands, true), &mut rng)
            .unwrap();
        assert_eq!(idx, 0);
    }

    #[test]
    fn random_strategy_covers_all_candidates() {
        let c = consumer();
        let cands = candidates();
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false, false];
        let mut strat = RandomSelect;
        for _ in 0..50 {
            seen[strat.choose(&ctx(&c, &cands, true), &mut rng).unwrap()] = true;
        }
        assert!(seen[0] && seen[1]);
    }

    #[test]
    fn empty_candidates_yield_none() {
        let c = consumer();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(RandomSelect.choose(&ctx(&c, &[], true), &mut rng), None);
        assert_eq!(AdvertisedQos.choose(&ctx(&c, &[], true), &mut rng), None);
    }

    #[test]
    fn sla_blacklists_repeat_violators() {
        let mut strat = SlaSelect::new();
        let cands = candidates();
        // Candidate 0 claims 50ms but delivers 400ms: violations.
        let terrible = QosVector::from_pairs([(Metric::ResponseTime, 400.0)]);
        for _ in 0..6 {
            strat.settle(AgentId::new(0), &cands[0], &terrible);
        }
        assert!(strat.blacklisted(ProviderId::new(0)));
        assert!(strat.penalties_collected > 0.0);
        assert!(strat.negotiation_paid > 0.0);
        let c = consumer();
        let mut rng = StdRng::seed_from_u64(4);
        let idx = strat.choose(&ctx(&c, &cands, true), &mut rng).unwrap();
        assert_eq!(idx, 1, "blacklisted provider avoided");
    }

    #[test]
    fn sla_compliant_delivery_costs_nothing_extra() {
        let mut strat = SlaSelect::new();
        let cands = candidates();
        let fine = QosVector::from_pairs([(Metric::ResponseTime, 55.0)]);
        strat.settle(AgentId::new(0), &cands[0], &fine);
        assert_eq!(strat.penalties_collected, 0.0);
        assert_eq!(strat.negotiation_paid, 1.0); // one agreement
        strat.settle(AgentId::new(0), &cands[0], &fine);
        assert_eq!(strat.negotiation_paid, 1.0, "agreement reused");
    }

    /// One choice rule over both estimate sources, each one row of a test:
    /// an in-process Beta and the served registry (whose default mechanism
    /// is Beta).
    fn both_sources(epsilon: f64, prior: f64) -> [Box<dyn SelectionStrategy>; 2] {
        let served = Arc::new(ReputationService::builder().shards(4).build());
        [
            Box::new(
                ReputationSelect::new(Box::new(BetaMechanism::new()))
                    .with_epsilon(epsilon)
                    .with_default_trust(prior),
            ),
            Box::new(
                ReputationSelect::new(served)
                    .with_epsilon(epsilon)
                    .with_default_trust(prior),
            ),
        ]
    }

    #[test]
    fn reputation_strategy_learns_and_exploits() {
        let c = consumer();
        let cands = candidates();
        let mut names = Vec::new();
        for mut strat in both_sources(0.0, 0.5) {
            // Service 1 earns good feedback, service 0 bad.
            for t in 0..10 {
                strat.observe(&Feedback::scored(
                    AgentId::new(5),
                    ServiceId::new(1),
                    0.95,
                    Time::new(t),
                ));
                strat.observe(&Feedback::scored(
                    AgentId::new(5),
                    ServiceId::new(0),
                    0.05,
                    Time::new(t),
                ));
            }
            let mut rng = StdRng::seed_from_u64(5);
            let idx = strat.choose(&ctx(&c, &cands, true), &mut rng).unwrap();
            assert_eq!(idx, 1, "{}", strat.name());
            names.push(strat.name());
        }
        assert_eq!(names, ["rep:beta", "rep:served"]);
    }

    #[test]
    fn served_personalized_is_global() {
        let mut served = Arc::new(ReputationService::builder().shards(4).build());
        for t in 0..5 {
            served.file(&Feedback::scored(
                AgentId::new(5),
                ServiceId::new(1),
                0.8,
                Time::new(t),
            ));
        }
        assert!(served.global(ServiceId::new(1).into()).is_some());
        for service in [ServiceId::new(0), ServiceId::new(1)] {
            assert_eq!(
                served.personalized(AgentId::new(5), service.into()),
                served.global(service.into())
            );
        }
    }

    #[test]
    fn design_time_wrapper_freezes_the_first_choice() {
        let c = consumer();
        let cands = candidates();
        let mut strat = DesignTimeSelect::new(AdvertisedQos);
        let mut rng = StdRng::seed_from_u64(8);
        let first = strat.choose(&ctx(&c, &cands, true), &mut rng).unwrap();
        assert_eq!(strat.frozen.len(), 1);
        // Even if the advertisement landscape changes, the choice holds.
        let mut flipped = cands.clone();
        flipped[0].advertised = QosVector::from_pairs([(Metric::ResponseTime, 900.0)]);
        flipped[1].advertised = QosVector::from_pairs([(Metric::ResponseTime, 10.0)]);
        let again = strat.choose(&ctx(&c, &flipped, true), &mut rng).unwrap();
        assert_eq!(flipped[again].service, cands[first].service);
    }

    #[test]
    fn design_time_wrapper_rechooses_when_service_vanishes() {
        let c = consumer();
        let cands = candidates();
        let mut strat = DesignTimeSelect::new(AdvertisedQos);
        let mut rng = StdRng::seed_from_u64(9);
        let first = strat.choose(&ctx(&c, &cands, true), &mut rng).unwrap();
        let survivors: Vec<Candidate> = cands
            .iter()
            .filter(|cand| cand.service != cands[first].service)
            .cloned()
            .collect();
        let next = strat.choose(&ctx(&c, &survivors, true), &mut rng).unwrap();
        assert_ne!(survivors[next].service, cands[first].service);
        assert_eq!(strat.frozen.len(), 1, "re-frozen on the survivor");
    }

    #[test]
    fn skeptical_prior_ignores_unknown_candidates() {
        let c = consumer();
        let cands = candidates();
        for mut strat in both_sources(0.0, 0.1) {
            // Service 1 has a known, mediocre record; service 0 is unknown.
            for t in 0..5 {
                strat.observe(&Feedback::scored(
                    AgentId::new(5),
                    ServiceId::new(1),
                    0.4,
                    Time::new(t),
                ));
            }
            let mut rng = StdRng::seed_from_u64(10);
            let idx = strat.choose(&ctx(&c, &cands, true), &mut rng).unwrap();
            assert_eq!(
                idx,
                1,
                "{}: known 0.4 beats unknown 0.1 prior",
                strat.name()
            );
        }
    }

    #[test]
    fn centralized_reputation_goes_blind_when_registry_fails() {
        let c = consumer();
        let cands = candidates();
        for mut strat in both_sources(0.0, 0.5) {
            for t in 0..20 {
                strat.observe(&Feedback::scored(
                    AgentId::new(5),
                    ServiceId::new(1),
                    0.95,
                    Time::new(t),
                ));
            }
            let mut rng = StdRng::seed_from_u64(6);
            // Registry down: choices become uniform, so service 0 gets
            // picked sometimes despite service 1's great reputation.
            let mut picked0 = 0;
            for _ in 0..100 {
                if strat.choose(&ctx(&c, &cands, false), &mut rng) == Some(0) {
                    picked0 += 1;
                }
            }
            assert!(
                picked0 > 20,
                "{}: blind choice is roughly uniform: {picked0}",
                strat.name()
            );
        }
    }
}
