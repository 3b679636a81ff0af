//! The UDDI-style registry and central QoS store of Figure 2.
//!
//! "It is based on a classical web service framework where a central UDDI
//! server is used to publish and search services … It is inevitable that
//! this server-centric framework will suffer a single point of failure."
//! The registry therefore has an explicit up/down switch, and search
//! results go stale (services deregistered while it was down are still
//! returned) — the staleness the paper attributes to dynamic environments.

use std::collections::BTreeMap;
use std::fmt;
use wsrep_core::id::{ProviderId, ServiceId};
use wsrep_core::store::FeedbackStore;
use wsrep_qos::value::QosVector;

/// Why a registry operation was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistryError {
    /// The central server is unreachable — Figure 2's single point of
    /// failure in action.
    Down,
    /// No listing exists for the given service.
    NotFound,
    /// The registry cannot make the mutation durable and its policy
    /// forbids lying about it (the served registry's fenced state after
    /// a journal failure under a read-only / fail-stop policy).
    NotDurable,
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Down => write!(f, "registry is down"),
            RegistryError::NotFound => write!(f, "service is not listed"),
            RegistryError::NotDurable => {
                write!(f, "registry cannot make the write durable")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// What a successful publish did to the listing table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishStatus {
    /// A new listing was created.
    Created,
    /// An existing listing was replaced in place.
    Updated,
}

/// Category search over any listing collection.
///
/// Both [`UddiRegistry::search`] and the served registry
/// (`wsrep-serve`) answer lookups through this one function, so the
/// simulated and served paths cannot drift apart.
pub fn search_category<'a, I>(listings: I, category: u32) -> Vec<&'a Listing>
where
    I: IntoIterator<Item = &'a Listing>,
{
    listings
        .into_iter()
        .filter(|l| l.category == category)
        .collect()
}

/// A published service entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Listing {
    /// The service.
    pub service: ServiceId,
    /// Its provider.
    pub provider: ProviderId,
    /// Function category consumers search by.
    pub category: u32,
    /// The advertised QoS claim.
    pub advertised: QosVector,
}

/// UDDI-like registry + central QoS feedback store.
#[derive(Debug, Default)]
pub struct UddiRegistry {
    pub(crate) listings: BTreeMap<ServiceId, Listing>,
    /// The central QoS registry of Figure 2.
    pub qos_store: FeedbackStore,
    down: bool,
}

impl UddiRegistry {
    /// Empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Publish (or update) a service listing. Rejected while the registry
    /// is down — providers cannot reach it.
    pub(crate) fn publish(&mut self, listing: Listing) -> Result<PublishStatus, RegistryError> {
        if self.down {
            return Err(RegistryError::Down);
        }
        match self.listings.insert(listing.service, listing) {
            Some(_) => Ok(PublishStatus::Updated),
            None => Ok(PublishStatus::Created),
        }
    }

    /// Remove a listing (provider withdrawal). Rejected while down, which
    /// is exactly how stale entries accumulate.
    pub(crate) fn withdraw(&mut self, service: ServiceId) -> Result<(), RegistryError> {
        if self.down {
            return Err(RegistryError::Down);
        }
        if self.listings.remove(&service).is_some() {
            Ok(())
        } else {
            Err(RegistryError::NotFound)
        }
    }

    /// Search by function category. Returns `None` while the registry is
    /// down — the single point of failure in action.
    pub fn search(&self, category: u32) -> Option<Vec<&Listing>> {
        if self.down {
            return None;
        }
        Some(search_category(self.listings.values(), category))
    }

    /// Take the registry down (failure injection).
    pub fn fail(&mut self) {
        self.down = true;
    }

    /// Bring it back.
    pub fn recover(&mut self) {
        self.down = false;
    }

    /// Whether the registry is up.
    pub fn is_up(&self) -> bool {
        !self.down
    }

    /// Accept a consumer feedback report into the central QoS store.
    /// Rejected while down.
    pub fn accept_feedback(
        &mut self,
        feedback: wsrep_core::feedback::Feedback,
    ) -> Result<(), RegistryError> {
        if self.down {
            return Err(RegistryError::Down);
        }
        self.qos_store.push(feedback);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrep_core::feedback::Feedback;
    use wsrep_core::id::AgentId;
    use wsrep_core::time::Time;

    fn listing(service: u64, category: u32) -> Listing {
        Listing {
            service: ServiceId::new(service),
            provider: ProviderId::new(service / 2),
            category,
            advertised: QosVector::new(),
        }
    }

    #[test]
    fn publish_and_search_by_category() {
        let mut r = UddiRegistry::new();
        assert_eq!(r.publish(listing(1, 10)), Ok(PublishStatus::Created));
        assert_eq!(r.publish(listing(2, 10)), Ok(PublishStatus::Created));
        assert_eq!(r.publish(listing(3, 20)), Ok(PublishStatus::Created));
        assert_eq!(r.search(10).unwrap().len(), 2);
        assert_eq!(r.search(20).unwrap().len(), 1);
        assert_eq!(r.search(99).unwrap().len(), 0);
    }

    #[test]
    fn down_registry_serves_nothing_and_accepts_nothing() {
        let mut r = UddiRegistry::new();
        r.publish(listing(1, 10)).unwrap();
        r.fail();
        assert!(!r.is_up());
        assert_eq!(r.search(10), None);
        assert_eq!(r.publish(listing(2, 10)), Err(RegistryError::Down));
        assert_eq!(
            r.accept_feedback(Feedback::scored(
                AgentId::new(0),
                ServiceId::new(1),
                0.5,
                Time::ZERO
            )),
            Err(RegistryError::Down)
        );
        r.recover();
        assert_eq!(r.search(10).unwrap().len(), 1);
    }

    #[test]
    fn withdrawal_fails_while_down_leaving_stale_entries() {
        let mut r = UddiRegistry::new();
        r.publish(listing(1, 10)).unwrap();
        r.fail();
        assert_eq!(r.withdraw(ServiceId::new(1)), Err(RegistryError::Down));
        r.recover();
        // The stale entry is still served.
        assert_eq!(r.search(10).unwrap().len(), 1);
        assert_eq!(r.withdraw(ServiceId::new(1)), Ok(()));
        assert!(r.listings.is_empty());
        // A second withdrawal reports the missing listing.
        assert_eq!(r.withdraw(ServiceId::new(1)), Err(RegistryError::NotFound));
    }

    #[test]
    fn feedback_lands_in_the_qos_store() {
        let mut r = UddiRegistry::new();
        r.accept_feedback(Feedback::scored(
            AgentId::new(0),
            ServiceId::new(1),
            0.9,
            Time::ZERO,
        ))
        .unwrap();
        assert_eq!(r.qos_store.len(), 1);
    }

    #[test]
    fn republish_updates_in_place() {
        let mut r = UddiRegistry::new();
        assert_eq!(r.publish(listing(1, 10)), Ok(PublishStatus::Created));
        let mut updated = listing(1, 10);
        updated.category = 30;
        assert_eq!(r.publish(updated), Ok(PublishStatus::Updated));
        assert_eq!(r.listings.len(), 1);
        assert_eq!(r.listings[&ServiceId::new(1)].category, 30);
    }

    #[test]
    fn search_category_filters_any_listing_collection() {
        let ls = [listing(1, 10), listing(2, 20), listing(3, 10)];
        let hits = search_category(ls.iter(), 10);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|l| l.category == 10));
    }
}
