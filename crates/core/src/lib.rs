//! # wsrep-core — trust and reputation mechanisms for web service selection
//!
//! The subject matter of Wang & Vassileva's 2007 survey, as a library:
//!
//! * the **vocabulary** of trust and reputation — identities ([`id`]),
//!   timestamped feedback ([`feedback`]), trust values ([`trust`]), time
//!   decay ([`decay`]), subjective-logic / Dempster–Shafer calculi
//!   ([`opinion`]), transitive trust networks ([`transitive`]),
//!   multi-faceted per-QoS-metric trust ([`facets`]), and
//!   context-specific trust ([`context`]);
//! * the **typology** of the paper's Figure 4 ([`typology`]);
//! * a common [`mechanism::ReputationMechanism`] interface, and
//! * an implementation of **every system the survey classifies**, in
//!   [`mechanisms`].
//!
//! ## Quick example
//!
//! ```
//! use wsrep_core::feedback::Feedback;
//! use wsrep_core::id::{AgentId, ServiceId};
//! use wsrep_core::mechanism::ReputationMechanism;
//! use wsrep_core::mechanisms::ebay::EbayMechanism;
//! use wsrep_core::time::Time;
//!
//! let mut ebay = EbayMechanism::new();
//! let service = ServiceId::new(1);
//! ebay.submit(&Feedback::scored(AgentId::new(0), service, 0.9, Time::ZERO));
//! ebay.submit(&Feedback::scored(AgentId::new(1), service, 0.8, Time::ZERO));
//! let rep = ebay.global(service.into()).unwrap();
//! assert!(rep.value.get() > 0.5);
//! ```

pub mod context;
pub mod decay;
pub mod facets;
pub mod feedback;
pub mod id;
pub mod mechanism;
pub mod mechanisms;
pub mod opinion;
pub mod store;
pub mod time;
pub mod transitive;
pub mod trust;
pub mod typology;

pub use feedback::Feedback;
pub use id::{AgentId, ProviderId, ServiceId};
pub use mechanism::ReputationMechanism;
