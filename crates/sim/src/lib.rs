//! # wsrep-sim — a round-driven web-service ecosystem
//!
//! The substrate the survey assumes: providers publishing services with
//! (possibly exaggerated) QoS advertisements, consumers invoking them and
//! experiencing the latent quality, a UDDI-like registry with a central
//! QoS store, SLAs, monitoring sensors and explorer agents, and the
//! mediated general-service scenario of Figure 1 B.
//!
//! Time advances in rounds: [`world::World::step`] moves every provider's
//! dynamics one round, and the caller (the market loop in `wsrep-select`)
//! decides what happens within a round. Nothing schedules events.
//!
//! * [`provider`] — providers with behaviour dynamics (stable, improving,
//!   degrading, oscillating, whitewashing) and advertisement honesty;
//! * [`consumer`] — consumers with preference profiles and rater
//!   behaviours (honest, ballot-stuffing, badmouthing, collusive, random);
//! * [`registry`] — the UDDI-style registry + central QoS store, with
//!   failure injection for the single-point-of-failure experiment;
//! * [`monitor`] — probing sensors and Maximilien–Singh explorer agents;
//! * [`scenario`] — the mediated (general-service) selection scenario;
//! * [`world`] — ties it together into a reproducible generated market.
//!
//! ```
//! use wsrep_sim::world::{World, WorldConfig};
//!
//! let world = World::generate(WorldConfig::small(42));
//! assert!(world.services().count() > 0);
//! ```

#![forbid(unsafe_code)]

pub mod consumer;
pub mod monitor;
pub mod provider;
pub mod registry;
pub mod scenario;
pub mod world;

pub use world::WorldConfig;
