//! # wsrep-net — simulated P2P overlays and decentralized protocols
//!
//! Section 4 of the paper contrasts centralized and decentralized trust
//! systems: decentralized ones must "cooperate and share the
//! responsibilities to manage reputation" and pay for it in messages and
//! complexity, while centralized registries are simpler but a single point
//! of failure. This crate is the substrate that makes those claims
//! measurable:
//!
//! * `network` — an in-process message-passing network with latency,
//!   loss, node failure and full message/byte accounting;
//! * [`overlay`] — topologies and routing: random graphs with
//!   [`overlay::flood`]ing and [`overlay::gossip`], a Chord-like DHT
//!   ([`overlay::chord`]) and the P-Grid binary trie
//!   ([`overlay::pgrid`]) that Vu et al. and Aberer–Despotovic build on;
//! * [`churn`] — join/leave dynamics;
//! * [`protocols`] — decentralized embodiments of the mechanisms whose
//!   *math* lives in `wsrep-core`: distributed EigenTrust, XRep-style
//!   polling, Yu–Singh referral search, and the Vu et al. decentralized
//!   QoS registry over P-Grid.
//!
//! ```
//! use wsrep_core::AgentId;
//! use wsrep_net::overlay::chord::{hash_key, ChordRing};
//!
//! // Node 3's own ring key routes to node 3.
//! let ring = ChordRing::new((0..16).map(AgentId::new));
//! let path = ring.route_from(AgentId::new(0), hash_key(3)).unwrap();
//! assert_eq!(path.last(), Some(&AgentId::new(3)));
//! ```

pub mod churn;
mod network;
pub mod overlay;
pub mod protocols;

pub use network::SimNetwork;
