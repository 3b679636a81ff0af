//! Identity newtypes for the entities of a web-service market.
//!
//! The paper's typology distinguishes *person/agent* systems from
//! *resource* systems; we therefore keep agents (consumers, raters, peers),
//! services (the resources selected) and providers (the businesses behind
//! them) statically distinct, and unify them only at the
//! [`SubjectId`] level where a mechanism scores "an entity".

use std::fmt;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(u64);

        impl $name {
            /// Wrap a raw index.
            pub const fn new(raw: u64) -> Self {
                $name(raw)
            }

            /// The raw index.
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// The raw index as `usize`, for dense-array addressing.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                $name(raw)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_newtype!(
    /// A person or software agent: consumers, raters, peers in an overlay.
    AgentId,
    "a"
);
id_newtype!(
    /// A web service (or a general service in the mediated scenario).
    ServiceId,
    "s"
);
id_newtype!(
    /// A service provider — the business publishing one or more services.
    ProviderId,
    "p"
);

/// Anything a trust/reputation mechanism can score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SubjectId {
    /// A person or agent (eBay sellers, P2P peers, raters).
    Agent(AgentId),
    /// A service — the *resource* branch of the typology.
    Service(ServiceId),
    /// A provider — the paper's Section 5 argues reputation should also be
    /// built for providers, not just their services.
    Provider(ProviderId),
}

impl SubjectId {
    /// The agent inside, if this subject is an agent.
    pub fn as_agent(self) -> Option<AgentId> {
        match self {
            SubjectId::Agent(a) => Some(a),
            _ => None,
        }
    }

    /// The service inside, if this subject is a service.
    pub fn as_service(self) -> Option<ServiceId> {
        match self {
            SubjectId::Service(s) => Some(s),
            _ => None,
        }
    }
}

impl From<AgentId> for SubjectId {
    fn from(a: AgentId) -> Self {
        SubjectId::Agent(a)
    }
}

impl From<ServiceId> for SubjectId {
    fn from(s: ServiceId) -> Self {
        SubjectId::Service(s)
    }
}

impl From<ProviderId> for SubjectId {
    fn from(p: ProviderId) -> Self {
        SubjectId::Provider(p)
    }
}

impl fmt::Display for SubjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubjectId::Agent(a) => write!(f, "{a}"),
            SubjectId::Service(s) => write!(f, "{s}"),
            SubjectId::Provider(p) => write!(f, "{p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_raw_values() {
        assert_eq!(AgentId::new(7).raw(), 7);
        assert_eq!(ServiceId::from(9u64).index(), 9);
        assert_eq!(ProviderId::new(0).to_string(), "p0");
    }

    #[test]
    fn subject_conversions_and_projections() {
        let s: SubjectId = ServiceId::new(3).into();
        assert_eq!(s.as_service(), Some(ServiceId::new(3)));
        assert_eq!(s.as_agent(), None);
        assert_eq!(s.to_string(), "s3");
    }

    #[test]
    fn distinct_kinds_never_compare_equal() {
        let a: SubjectId = AgentId::new(1).into();
        let s: SubjectId = ServiceId::new(1).into();
        assert_ne!(a, s);
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(AgentId::new(1) < AgentId::new(2));
        let mut v = [ServiceId::new(5), ServiceId::new(1)];
        v.sort();
        assert_eq!(v[0], ServiceId::new(1));
    }
}
