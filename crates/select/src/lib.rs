//! # wsrep-select — web-service selection strategies and evaluation
//!
//! The selection problem the whole survey is about: "a service consumer
//! faces a dilemma in having to make a choice from a bunch of services
//! offering the same function". This crate provides:
//!
//! * [`strategy`] — interchangeable selection strategies: random (the
//!   paper's "blind choice"), advertised-QoS (gameable), SLA-backed, and
//!   one reputation-backed choice rule over an
//!   [`EstimateSource`](strategy::EstimateSource): any in-process
//!   [`wsrep_core::ReputationMechanism`] or the served
//!   [`wsrep_serve::ReputationService`] registry, so the same market runs
//!   on either;
//! * [`bootstrap`] — Section 5's provider-level reputation: new services
//!   seeded from their provider's track record;
//! * [`eval`] — the market loop: consumers select, invoke, experience,
//!   report; outputs utility / regret / hit-rate / cost metrics;
//! * [`report`] — markdown table rendering for the experiment binaries.

pub mod bootstrap;
pub mod eval;
pub mod report;
pub mod strategy;

pub use eval::{Market, MarketConfig, MarketReport};
pub use strategy::SelectionStrategy;
