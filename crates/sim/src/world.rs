//! The generated market: providers, services, consumers, registry.
//!
//! A [`World`] is a reproducible (seeded) instance of the ecosystem all
//! experiments run against. It owns the ground truth — latent qualities,
//! behaviour dynamics, honest/dishonest populations — and exposes the
//! operations a selection loop needs: search, invoke, report, step.

use crate::consumer::{Consumer, RaterBehavior};
use crate::provider::{metric_range, Behavior, Provider, Service};
use crate::registry::{Listing, UddiRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId};
use wsrep_core::time::Time;
use wsrep_qos::metric::Metric;
use wsrep_qos::preference::Preferences;
use wsrep_qos::profile::QualityProfile;
use wsrep_qos::value::QosVector;

/// Generation parameters for a market.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of providers.
    pub providers: usize,
    /// Services published per provider (all in category 0).
    pub services_per_provider: usize,
    /// Number of consumers.
    pub consumers: usize,
    /// QoS metrics in play.
    pub metrics: Vec<Metric>,
    /// Consumer preference heterogeneity in `\[0, 1\]` (0 = identical).
    pub preference_heterogeneity: f64,
    /// Fraction of providers that exaggerate their advertisements.
    pub exaggerating_fraction: f64,
    /// How much exaggerators inflate (0.4 = claims 40% better).
    pub exaggeration_amount: f64,
    /// Fraction of providers with non-stable quality dynamics.
    pub dynamic_fraction: f64,
    /// Width of the quality distribution: 1 = levels span the full
    /// `\[0, 1\]` range, 0.25 = a market of near-substitutes clustered
    /// around the middle. Narrow markets are where newcomer priors and
    /// whitewashing bite.
    pub quality_spread: f64,
    /// How strongly a provider's services share a common quality level
    /// (`0` = independent per service/metric, `1` = fully determined by
    /// the provider's skill). Section 5's provider-bootstrap argument
    /// only has teeth when this is positive.
    pub provider_quality_correlation: f64,
    /// Fraction of consumers with a dishonest rater behaviour.
    pub dishonest_fraction: f64,
    /// The dishonest behaviour to install (targets filled in generation).
    pub dishonest_behavior: DishonestKind,
    /// RNG seed.
    pub seed: u64,
}

/// Which unfair-rating population to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DishonestKind {
    /// Ballot-stuff the worst-quality provider (promotion attack).
    BallotStuffWorst,
    /// Badmouth the best-quality provider (demotion attack).
    BadmouthBest,
    /// Collude for the worst provider, trash everyone else.
    ColludeWorst,
    /// Pure noise.
    Random,
}

impl WorldConfig {
    /// A small, honest, stable market — the default experiment base.
    pub fn small(seed: u64) -> Self {
        WorldConfig {
            providers: 10,
            services_per_provider: 2,
            consumers: 30,
            metrics: vec![
                Metric::ResponseTime,
                Metric::Availability,
                Metric::Accuracy,
                Metric::Price,
            ],
            preference_heterogeneity: 0.3,
            exaggerating_fraction: 0.0,
            exaggeration_amount: 0.0,
            dynamic_fraction: 0.0,
            quality_spread: 1.0,
            provider_quality_correlation: 0.0,
            dishonest_fraction: 0.0,
            dishonest_behavior: DishonestKind::Random,
            seed,
        }
    }
}

/// The generated market.
#[derive(Debug)]
pub struct World {
    /// Providers by id.
    pub providers: BTreeMap<ProviderId, Provider>,
    services: BTreeMap<ServiceId, Service>,
    /// Consumers in id order.
    pub consumers: Vec<Consumer>,
    /// The UDDI registry + central QoS store.
    pub registry: UddiRegistry,
    rng: StdRng,
    now: Time,
    metrics: Vec<Metric>,
}

impl World {
    /// Generate a market from a config.
    pub fn generate(config: WorldConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut providers = BTreeMap::new();
        let mut services = BTreeMap::new();
        let mut registry = UddiRegistry::new();
        let mut service_seq = 0u64;

        let n_exaggerating = (config.providers as f64 * config.exaggerating_fraction) as usize;
        let n_dynamic = (config.providers as f64 * config.dynamic_fraction) as usize;

        for p in 0..config.providers {
            let pid = ProviderId::new(p as u64);
            let skill: f64 = rng.gen();
            let exaggeration = if p < n_exaggerating {
                config.exaggeration_amount
            } else {
                0.0
            };
            let behavior = if p < n_dynamic {
                match p % 3 {
                    0 => Behavior::Degrading { rate: 0.005 },
                    1 => Behavior::Improving { rate: 0.005 },
                    _ => Behavior::Oscillating {
                        period: 40,
                        amplitude: 0.02,
                    },
                }
            } else {
                Behavior::Stable
            };
            let mut provider = Provider {
                id: pid,
                services: Vec::new(),
                behavior,
                exaggeration,
            };
            for _ in 0..config.services_per_provider {
                let sid = ServiceId::new(service_seq);
                service_seq += 1;
                let quality = random_quality(
                    &mut rng,
                    &config.metrics,
                    skill,
                    config.provider_quality_correlation,
                    config.quality_spread,
                );
                let advertised = provider.advertise(&quality);
                provider.services.push(sid);
                services.insert(
                    sid,
                    Service {
                        id: sid,
                        provider: pid,
                        category: 0,
                        quality,
                        advertised: advertised.clone(),
                    },
                );
                registry
                    .publish(Listing {
                        service: sid,
                        provider: pid,
                        category: 0,
                        advertised,
                    })
                    .expect("fresh registry is up during generation");
            }
            providers.insert(pid, provider);
        }

        // Attack targets depend on generated quality.
        let mut world = World {
            providers,
            services,
            consumers: Vec::new(),
            registry,
            rng,
            now: Time::ZERO,
            metrics: config.metrics.clone(),
        };
        let uniform = Preferences::uniform(config.metrics.clone());
        let best_provider = world.best_provider_by(&uniform);
        let worst_provider = world.worst_provider_by(&uniform);

        let n_dishonest = (config.consumers as f64 * config.dishonest_fraction) as usize;
        for c in 0..config.consumers {
            let id = AgentId::new(1000 + c as u64);
            let prefs = Preferences::sample(
                &mut world.rng,
                config.metrics.clone(),
                config.preference_heterogeneity,
            );
            let behavior = if c < n_dishonest {
                match config.dishonest_behavior {
                    DishonestKind::BallotStuffWorst => RaterBehavior::BallotStuffer {
                        targets: BTreeSet::from([worst_provider]),
                    },
                    DishonestKind::BadmouthBest => RaterBehavior::BadMouther {
                        targets: BTreeSet::from([best_provider]),
                    },
                    DishonestKind::ColludeWorst => RaterBehavior::Collusive {
                        ring: BTreeSet::from([worst_provider]),
                    },
                    DishonestKind::Random => RaterBehavior::Random,
                }
            } else {
                RaterBehavior::Honest
            };
            world.consumers.push(Consumer {
                id,
                prefs,
                behavior,
            });
        }
        world
    }

    /// The global normalization bounds (canonical metric ranges).
    pub fn bounds(&self) -> impl Fn(Metric) -> (f64, f64) + Copy {
        metric_range
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// All services.
    pub fn services(&self) -> impl Iterator<Item = &Service> {
        self.services.values()
    }

    /// One service.
    pub fn service(&self, id: ServiceId) -> Option<&Service> {
        self.services.get(&id)
    }

    /// The provider of a service.
    pub(crate) fn provider_of(&self, id: ServiceId) -> Option<ProviderId> {
        self.services.get(&id).map(|s| s.provider)
    }

    /// The QoS metrics this market uses.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Expected (ground-truth) utility of a service for a consumer: the
    /// consumer's preference-weighted normalized latent means.
    pub fn expected_utility(&self, consumer: &Consumer, service: ServiceId) -> f64 {
        let Some(svc) = self.services.get(&service) else {
            return 0.0;
        };
        consumer
            .prefs
            .utility_raw(&svc.quality.means(), metric_range)
    }

    /// The oracle-best service for a consumer (maximal expected utility).
    pub fn oracle_best(&self, consumer: &Consumer) -> Option<ServiceId> {
        self.services.keys().copied().max_by(|&a, &b| {
            self.expected_utility(consumer, a)
                .partial_cmp(&self.expected_utility(consumer, b))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// Provider whose mean service utility under `prefs` is highest.
    pub fn best_provider_by(&self, prefs: &Preferences) -> ProviderId {
        self.rank_providers(prefs)
            .first()
            .map(|&(p, _)| p)
            .unwrap_or(ProviderId::new(0))
    }

    /// Provider whose mean service utility under `prefs` is lowest.
    pub fn worst_provider_by(&self, prefs: &Preferences) -> ProviderId {
        self.rank_providers(prefs)
            .last()
            .map(|&(p, _)| p)
            .unwrap_or(ProviderId::new(0))
    }

    fn rank_providers(&self, prefs: &Preferences) -> Vec<(ProviderId, f64)> {
        let mut scores: Vec<(ProviderId, f64)> = self
            .providers
            .values()
            .map(|p| {
                let mean = if p.services.is_empty() {
                    0.0
                } else {
                    p.services
                        .iter()
                        .filter_map(|s| self.services.get(s))
                        .map(|s| prefs.utility_raw(&s.quality.means(), metric_range))
                        .sum::<f64>()
                        / p.services.len() as f64
                };
                (p.id, mean)
            })
            .collect();
        scores.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scores
    }

    /// Invoke a service: draw one observation from its latent quality.
    pub fn invoke(&mut self, service: ServiceId) -> Option<QosVector> {
        let svc = self.services.get(&service)?;
        Some(svc.quality.sample(&mut self.rng))
    }

    /// Invoke and have the consumer file its (possibly dishonest) report.
    /// Returns `(observed, feedback)`.
    pub fn invoke_and_report(
        &mut self,
        consumer_idx: usize,
        service: ServiceId,
    ) -> Option<(QosVector, Feedback)> {
        let provider = self.provider_of(service)?;
        let observed = self.invoke(service)?;
        let consumer = self.consumers.get(consumer_idx)?.clone();
        let fb = consumer.report(
            &mut self.rng,
            service,
            provider,
            &observed,
            metric_range,
            self.now,
        );
        Some((observed, fb))
    }

    /// Advance one round: provider dynamics update every service quality.
    pub fn step(&mut self) {
        self.now = self.now.next();
        let ids: Vec<ServiceId> = self.services.keys().copied().collect();
        for sid in ids {
            let provider = {
                let svc = &self.services[&sid];
                self.providers[&svc.provider].clone()
            };
            let svc = self.services.get_mut(&sid).expect("known id");
            provider.step_quality(&mut svc.quality, self.now);
        }
    }

    /// Direct RNG access for experiment drivers that need extra draws
    /// without carrying a second generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Replace a service's latent quality in place (fault/repair
    /// injection: break a service, silently fix it later). The identity
    /// and advertisement are untouched — consumers only find out by
    /// invoking. Returns `false` for unknown services.
    pub fn set_service_quality(&mut self, service: ServiceId, quality: QualityProfile) -> bool {
        match self.services.get_mut(&service) {
            Some(svc) => {
                svc.quality = quality;
                true
            }
            None => false,
        }
    }

    /// Launch a genuinely new service for `provider`: a "v2" of the
    /// provider's best current service, `improvement` better (normalized
    /// drift), published under a fresh id. Returns the new id, or `None`
    /// when the provider is unknown, has no services, or the registry is
    /// down. This is what makes optimistic newcomer priors valuable —
    /// and what whitewashers mimic.
    pub fn launch_improved(&mut self, provider: ProviderId, improvement: f64) -> Option<ServiceId> {
        if !self.registry.is_up() {
            return None;
        }
        let prefs = Preferences::uniform(self.metrics.clone());
        let best = self
            .providers
            .get(&provider)?
            .services
            .iter()
            .copied()
            .max_by(|&a, &b| {
                let ua = self
                    .services
                    .get(&a)
                    .map(|s| prefs.utility_raw(&s.quality.means(), metric_range))
                    .unwrap_or(0.0);
                let ub = self
                    .services
                    .get(&b)
                    .map(|s| prefs.utility_raw(&s.quality.means(), metric_range))
                    .unwrap_or(0.0);
                ua.partial_cmp(&ub).unwrap_or(std::cmp::Ordering::Equal)
            })?;
        let template = self.services.get(&best)?.clone();
        let mut quality = template.quality.clone();
        quality.drift(improvement);
        let new_id = ServiceId::new(
            self.services
                .keys()
                .map(|s| s.raw())
                .max()
                .map(|m| m + 1)
                .unwrap_or(0),
        );
        let advertised = self.providers[&provider].advertise(&quality);
        self.services.insert(
            new_id,
            Service {
                id: new_id,
                provider,
                category: template.category,
                quality,
                advertised: advertised.clone(),
            },
        );
        self.providers
            .get_mut(&provider)
            .expect("checked above")
            .services
            .push(new_id);
        self.registry
            .publish(crate::registry::Listing {
                service: new_id,
                provider,
                category: template.category,
                advertised,
            })
            .expect("registry verified up above");
        Some(new_id)
    }

    /// **Whitewash** a service: the provider withdraws it and republishes
    /// the *same* latent quality under a fresh identity, shedding its
    /// accumulated reputation. Returns the new id, or `None` when the
    /// service does not exist or the registry is down (re-listing needs
    /// the registry). This is the identity-switching attack Sporas was
    /// designed to make unprofitable.
    pub fn whitewash(&mut self, service: ServiceId) -> Option<ServiceId> {
        if !self.registry.is_up() {
            return None;
        }
        let old = self.services.get(&service)?.clone();
        let new_id = ServiceId::new(
            self.services
                .keys()
                .map(|s| s.raw())
                .max()
                .map(|m| m + 1)
                .unwrap_or(0),
        );
        // A whitewashed service may already be unlisted (withdrawn during
        // an earlier outage); only a down registry would abort the attack,
        // and that was ruled out above.
        match self.registry.withdraw(service) {
            Ok(()) | Err(crate::registry::RegistryError::NotFound) => {}
            Err(e) => unreachable!("registry verified up above: {e}"),
        }
        self.services.remove(&service);
        if let Some(p) = self.providers.get_mut(&old.provider) {
            p.services.retain(|&s| s != service);
            p.services.push(new_id);
        }
        let advertised = old.advertised.clone();
        self.services.insert(
            new_id,
            Service {
                id: new_id,
                provider: old.provider,
                category: old.category,
                quality: old.quality,
                advertised: advertised.clone(),
            },
        );
        self.registry
            .publish(crate::registry::Listing {
                service: new_id,
                provider: old.provider,
                category: old.category,
                advertised,
            })
            .expect("registry verified up above");
        Some(new_id)
    }
}

/// Draw a latent quality. Each metric's *level* in `\[0, 1\]` (1 = best in
/// the metric's oriented range) blends the provider's skill with
/// independent per-metric noise according to `correlation`.
fn random_quality<R: Rng + ?Sized>(
    rng: &mut R,
    metrics: &[Metric],
    skill: f64,
    correlation: f64,
    spread: f64,
) -> QualityProfile {
    use wsrep_qos::metric::Monotonicity;
    let corr = correlation.clamp(0.0, 1.0);
    let spread = spread.clamp(0.0, 1.0);
    let mut q = QualityProfile::new();
    for &m in metrics {
        let (lo, hi) = metric_range(m);
        let noise: f64 = rng.gen();
        let raw = (0.5 + corr * (skill - 0.5) + (1.0 - corr) * (noise - 0.5)).clamp(0.0, 1.0);
        let level = 0.5 + spread * (raw - 0.5);
        let (worst, best) = match m.monotonicity() {
            Monotonicity::HigherBetter => (lo, hi),
            Monotonicity::LowerBetter => (hi, lo),
        };
        let mean = worst + level * (best - worst);
        let jitter = (hi - lo) * 0.03;
        q.set(m, mean, jitter);
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_reproducible() {
        let a = World::generate(WorldConfig::small(7));
        let b = World::generate(WorldConfig::small(7));
        for (sa, sb) in a.services().zip(b.services()) {
            assert_eq!(sa.quality, sb.quality);
        }
        for (ca, cb) in a.consumers.iter().zip(&b.consumers) {
            assert_eq!(ca.prefs, cb.prefs);
        }
    }

    #[test]
    fn population_counts_match_config() {
        let w = World::generate(WorldConfig::small(1));
        assert_eq!(w.providers.len(), 10);
        assert_eq!(w.services().count(), 20);
        assert_eq!(w.consumers.len(), 30);
        assert_eq!(w.registry.listings.len(), 20);
    }

    #[test]
    fn oracle_best_maximizes_expected_utility() {
        let w = World::generate(WorldConfig::small(2));
        let c = &w.consumers[0];
        let best = w.oracle_best(c).unwrap();
        let best_u = w.expected_utility(c, best);
        for s in w.services() {
            assert!(w.expected_utility(c, s.id) <= best_u + 1e-12);
        }
    }

    #[test]
    fn exaggerators_advertise_better_than_truth() {
        let mut cfg = WorldConfig::small(3);
        cfg.exaggerating_fraction = 0.5;
        cfg.exaggeration_amount = 0.4;
        let w = World::generate(cfg);
        let mut found_gap = false;
        for s in w.services() {
            let truth = s.quality.means().get(Metric::ResponseTime).unwrap();
            let claim = s.advertised.get(Metric::ResponseTime).unwrap();
            if (claim - truth).abs() > 1.0 {
                assert!(claim < truth, "claims are better (lower RT)");
                found_gap = true;
            }
        }
        assert!(found_gap, "some provider must exaggerate");
    }

    #[test]
    fn dishonest_fraction_creates_attackers() {
        let mut cfg = WorldConfig::small(4);
        cfg.dishonest_fraction = 0.4;
        cfg.dishonest_behavior = DishonestKind::BadmouthBest;
        let w = World::generate(cfg);
        let dishonest = w.consumers.iter().filter(|c| !c.is_honest()).count();
        assert_eq!(dishonest, 12);
    }

    #[test]
    fn invoke_and_report_round_trips() {
        let mut w = World::generate(WorldConfig::small(5));
        let sid = w.services().next().unwrap().id;
        let (observed, fb) = w.invoke_and_report(0, sid).unwrap();
        assert_eq!(fb.subject, sid.into());
        assert!(!observed.is_empty());
        assert!((0.0..=1.0).contains(&fb.score));
    }

    #[test]
    fn dynamics_change_quality_over_time() {
        let mut cfg = WorldConfig::small(6);
        cfg.dynamic_fraction = 1.0;
        let mut w = World::generate(cfg);
        let sid = w.services().next().unwrap().id;
        let before = w.service(sid).unwrap().quality.clone();
        for _ in 0..30 {
            w.step();
        }
        let after = w.service(sid).unwrap().quality.clone();
        assert_ne!(before, after);
        assert_eq!(w.now(), Time::new(30));
    }

    #[test]
    fn stable_world_quality_is_constant() {
        let mut w = World::generate(WorldConfig::small(8));
        let sid = w.services().next().unwrap().id;
        let before = w.service(sid).unwrap().quality.clone();
        for _ in 0..10 {
            w.step();
        }
        assert_eq!(before, w.service(sid).unwrap().quality.clone());
    }

    #[test]
    fn whitewashing_reissues_identity_with_same_quality() {
        let mut w = World::generate(WorldConfig::small(21));
        let old = w.services().next().unwrap().id;
        let provider = w.provider_of(old).unwrap();
        let quality = w.service(old).unwrap().quality.clone();
        let new = w.whitewash(old).unwrap();
        assert_ne!(old, new);
        assert!(w.service(old).is_none());
        assert_eq!(w.service(new).unwrap().quality, quality);
        assert_eq!(w.provider_of(new), Some(provider));
        assert!(w.providers[&provider].services.contains(&new));
        assert!(!w.providers[&provider].services.contains(&old));
        // Registry reflects the swap.
        assert!(!w.registry.listings.contains_key(&old));
        assert!(w.registry.listings.contains_key(&new));
        // Service count preserved.
        assert_eq!(w.services().count(), 20);
    }

    #[test]
    fn narrow_spread_clusters_quality_levels() {
        let mut wide_cfg = WorldConfig::small(25);
        wide_cfg.quality_spread = 1.0;
        let mut narrow_cfg = WorldConfig::small(25);
        narrow_cfg.quality_spread = 0.2;
        let prefs = Preferences::uniform(wide_cfg.metrics.clone());
        let utilities = |w: &World| -> Vec<f64> {
            w.services()
                .map(|s| prefs.utility_raw(&s.quality.means(), metric_range))
                .collect()
        };
        let spread = |us: &[f64]| {
            us.iter().cloned().fold(f64::MIN, f64::max)
                - us.iter().cloned().fold(f64::MAX, f64::min)
        };
        let wide = spread(&utilities(&World::generate(wide_cfg)));
        let narrow = spread(&utilities(&World::generate(narrow_cfg)));
        assert!(narrow < wide / 2.0, "narrow {narrow} vs wide {wide}");
    }

    #[test]
    fn launching_creates_an_improved_v2() {
        let mut w = World::generate(WorldConfig::small(23));
        let provider = *w.providers.keys().next().unwrap();
        let prefs = Preferences::uniform(w.metrics().to_vec());
        let before_best: f64 = w.providers[&provider]
            .services
            .iter()
            .map(|&s| prefs.utility_raw(&w.service(s).unwrap().quality.means(), metric_range))
            .fold(f64::MIN, f64::max);
        let v2 = w.launch_improved(provider, 0.1).unwrap();
        let v2_utility = prefs.utility_raw(&w.service(v2).unwrap().quality.means(), metric_range);
        assert!(v2_utility >= before_best, "{v2_utility} >= {before_best}");
        assert_eq!(w.provider_of(v2), Some(provider));
        assert!(w.registry.listings.contains_key(&v2));
        assert_eq!(w.services().count(), 21);
    }

    #[test]
    fn launching_needs_a_known_provider_and_live_registry() {
        let mut w = World::generate(WorldConfig::small(24));
        assert_eq!(w.launch_improved(ProviderId::new(999), 0.1), None);
        w.registry.fail();
        let p = *w.providers.keys().next().unwrap();
        assert_eq!(w.launch_improved(p, 0.1), None);
    }

    #[test]
    fn whitewashing_needs_a_live_registry() {
        let mut w = World::generate(WorldConfig::small(22));
        let old = w.services().next().unwrap().id;
        w.registry.fail();
        assert_eq!(w.whitewash(old), None);
        w.registry.recover();
        assert!(w.whitewash(old).is_some());
    }

    #[test]
    fn best_and_worst_provider_differ_in_utility() {
        let w = World::generate(WorldConfig::small(9));
        let prefs = Preferences::uniform(w.metrics().to_vec());
        let best = w.best_provider_by(&prefs);
        let worst = w.worst_provider_by(&prefs);
        assert_ne!(best, worst);
    }
}
