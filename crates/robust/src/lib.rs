//! # wsrep-robust — dishonest-feedback detection and defenses
//!
//! Section 3.1-Q3 of the survey: *"How can dishonest feedbacks or unfair
//! ratings be detected?"* It names three answers, all implemented here
//! behind the common [`defense::UnfairRatingDefense`] interface:
//!
//! * [`cluster`] — Dellarocas's cluster-filtering approach \[5\];
//! * [`majority`] — Sen & Sajja's majority-opinion selection with its
//!   witness-count guarantee \[26\];
//! * [`zhang_cohen`] — Zhang & Cohen's personalized private/public blend
//!   \[38\];
//! * `deviation` — the Whitby–Jøsang beta deviation filter, included as
//!   the standard extra baseline.
//!
//! The attacker populations the defenses are evaluated against live in
//! `wsrep-sim` ([`wsrep_sim::consumer::RaterBehavior`]); the experiment
//! `exp_unfair` sweeps attacker fractions and reports each defense's
//! selection accuracy.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod defense;
mod deviation;
pub mod majority;
pub mod zhang_cohen;

pub use defense::UnfairRatingDefense;
