//! The Vu–Hauswirth–Aberer decentralized QoS registry over P-Grid.
//!
//! "They use some dedicated QoS registries to collect QoS feedbacks from
//! consumers. Although these QoS registries are organized in a P2P way,
//! they are based on a specially designed P-Grid structure. Each registry
//! is responsible for managing reputation for a part of service
//! providers." (Section 3.2 of the survey.) Reports about a service are
//! routed to the registry peer responsible for the service's key; queries
//! route the same way; each registry runs the Vu credibility computation
//! ([`wsrep_core::mechanisms::vu`]) over the reports it stores.

use crate::overlay::chord::hash_key;
use crate::overlay::pgrid::PGrid;
use std::collections::BTreeMap;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ServiceId, SubjectId};
use wsrep_core::mechanisms::vu::VuMechanism;
use wsrep_core::trust::TrustEstimate;
use wsrep_core::ReputationMechanism;
use wsrep_qos::preference::Preferences;
use wsrep_qos::value::QosVector;

/// The decentralized QoS registry federation.
#[derive(Debug)]
pub struct PGridQosRegistry {
    grid: PGrid,
    registries: BTreeMap<AgentId, VuMechanism>,
    messages: u64,
}

impl PGridQosRegistry {
    /// Build over the given registry peers.
    pub fn new(registry_peers: &[AgentId]) -> Self {
        let grid = PGrid::new(registry_peers);
        let registries = registry_peers
            .iter()
            .map(|&p| (p, VuMechanism::new()))
            .collect();
        PGridQosRegistry {
            grid,
            registries,
            messages: 0,
        }
    }

    /// Total routing messages spent so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Reports stored per registry peer — the "share the responsibilities"
    /// claim made measurable: a balanced trie spreads the load.
    pub fn load(&self) -> Vec<(AgentId, usize)> {
        self.registries
            .iter()
            .map(|(&p, m)| (p, m.feedback_count()))
            .collect()
    }

    /// Number of registry peers.
    pub fn len(&self) -> usize {
        self.grid.len()
    }

    /// Whether there are no registries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn service_key(service: ServiceId) -> u64 {
        hash_key(service.raw() ^ 0xDEAD_BEEF_CAFE_F00D)
    }

    /// The entry registry a consumer first contacts (by hash of its id).
    fn entry_peer(&self, who: AgentId) -> Option<AgentId> {
        let peers: Vec<AgentId> = self.grid.peers().collect();
        if peers.is_empty() {
            return None;
        }
        Some(peers[(hash_key(who.raw()) % peers.len() as u64) as usize])
    }

    /// The registry responsible for a service.
    pub fn responsible(&self, service: ServiceId) -> Option<AgentId> {
        self.grid.responsible(Self::service_key(service))
    }

    /// Route a consumer's QoS report to the responsible registry. Returns
    /// the number of routing hops, or `None` with no registries.
    pub fn submit_report(&mut self, report: &Feedback) -> Option<usize> {
        let service = report.subject.as_service()?;
        let entry = self.entry_peer(report.rater)?;
        let path = self.grid.route_from(entry, Self::service_key(service))?;
        let hops = path.len().saturating_sub(1) + 1; // + consumer → entry
        self.messages += hops as u64;
        let owner = *path.last()?;
        self.registries.get_mut(&owner)?.submit(report);
        Some(hops)
    }

    /// Feed a trusted monitoring agent's probe to the responsible registry
    /// (monitors know the grid and route directly).
    pub fn submit_trusted_probe(&mut self, service: ServiceId, observed: QosVector) -> Option<()> {
        let owner = self.responsible(service)?;
        self.messages += 1;
        self.registries
            .get_mut(&owner)?
            .submit_trusted(service, observed);
        Some(())
    }

    /// Query the reputation of a service on behalf of `observer` with the
    /// given preferences. Returns the estimate and the hops spent.
    pub fn query(
        &mut self,
        observer: AgentId,
        service: ServiceId,
        prefs: Option<&Preferences>,
    ) -> (Option<TrustEstimate>, usize) {
        let Some(entry) = self.entry_peer(observer) else {
            return (None, 0);
        };
        let Some(path) = self.grid.route_from(entry, Self::service_key(service)) else {
            return (None, 0);
        };
        let hops = path.len().saturating_sub(1) + 2; // there + answer back
        self.messages += hops as u64;
        let Some(owner) = path.last() else {
            return (None, hops);
        };
        let Some(registry) = self.registries.get_mut(owner) else {
            return (None, hops);
        };
        if let Some(p) = prefs {
            registry.set_profile(observer, p.clone());
            (
                registry.personalized(observer, SubjectId::Service(service)),
                hops,
            )
        } else {
            (registry.global(SubjectId::Service(service)), hops)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrep_core::time::Time;
    use wsrep_qos::metric::Metric;

    fn a(i: u64) -> AgentId {
        AgentId::new(i)
    }

    fn registry(n: u64) -> PGridQosRegistry {
        let peers: Vec<AgentId> = (100..100 + n).map(a).collect();
        PGridQosRegistry::new(&peers)
    }

    fn report(rater: u64, service: u64, rt: f64) -> Feedback {
        Feedback::scored(a(rater), ServiceId::new(service), 0.5, Time::ZERO)
            .with_observed(QosVector::from_pairs([(Metric::ResponseTime, rt)]))
    }

    #[test]
    fn reports_land_at_the_responsible_registry_and_answer_queries() {
        let mut reg = registry(8);
        for r in 0..5 {
            reg.submit_report(&report(r, 1, 100.0)).unwrap();
            reg.submit_report(&report(r, 2, 500.0)).unwrap();
        }
        let prefs = Preferences::uniform([Metric::ResponseTime]);
        let (fast, _) = reg.query(a(50), ServiceId::new(1), Some(&prefs));
        let (slow, _) = reg.query(a(50), ServiceId::new(2), Some(&prefs));
        // Each registry only sees its own services; both answer, and the
        // fast one is at least as good in its own frame.
        assert!(fast.is_some());
        assert!(slow.is_some());
    }

    #[test]
    fn same_service_always_routes_to_same_registry() {
        let mut reg = registry(8);
        let owner = reg.responsible(ServiceId::new(7)).unwrap();
        for r in 0..10 {
            reg.submit_report(&report(r, 7, 100.0));
        }
        assert_eq!(reg.responsible(ServiceId::new(7)), Some(owner));
        // All 10 reports are in that registry.
        let m = &reg.registries[&owner];
        assert_eq!(m.feedback_count(), 10);
    }

    #[test]
    fn hops_are_bounded_by_grid_depth() {
        let mut reg = registry(16);
        let hops = reg.submit_report(&report(0, 3, 100.0)).unwrap();
        assert!(hops <= 4 + 1 + 2, "hops={hops}");
    }

    #[test]
    fn trusted_probes_reach_the_registry() {
        let mut reg = registry(4);
        reg.submit_trusted_probe(
            ServiceId::new(1),
            QosVector::from_pairs([(Metric::ResponseTime, 100.0)]),
        )
        .unwrap();
        let (est, _) = reg.query(a(9), ServiceId::new(1), None);
        assert!(est.is_some());
    }

    #[test]
    fn load_reports_storage_per_registry() {
        let mut reg = registry(8);
        for svc in 0..40u64 {
            reg.submit_report(&report(0, svc, 100.0));
        }
        let load = reg.load();
        assert_eq!(load.len(), 8);
        let total: usize = load.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 40);
        // Hashing spreads the 40 services over the 8 registries: nobody
        // holds everything.
        let max = load.iter().map(|&(_, n)| n).max().unwrap();
        assert!(max < 40, "one registry hoards all reports");
    }

    #[test]
    fn message_accounting_accumulates() {
        let mut reg = registry(8);
        let before = reg.messages();
        reg.submit_report(&report(0, 1, 100.0));
        reg.query(a(2), ServiceId::new(1), None);
        assert!(reg.messages() > before);
    }

    #[test]
    fn empty_federation_answers_nothing() {
        let mut reg = PGridQosRegistry::new(&[]);
        assert!(reg.is_empty());
        assert_eq!(reg.submit_report(&report(0, 1, 1.0)), None);
        let (est, hops) = reg.query(a(0), ServiceId::new(1), None);
        assert_eq!(est, None);
        assert_eq!(hops, 0);
    }

    #[test]
    fn unreported_service_has_no_estimate() {
        let mut reg = registry(4);
        let (est, _) = reg.query(a(0), ServiceId::new(42), None);
        assert!(est.is_none());
    }
}
