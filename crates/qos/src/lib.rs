//! # wsrep-qos — QoS substrate for web service selection
//!
//! This crate implements the quality-of-service model that the survey
//! *"A Review on Trust and Reputation for Web Service Selection"*
//! (Wang & Vassileva, 2007) builds on:
//!
//! * the **W3C QoS taxonomy** of the paper's Figure 3 ([`metric`], [`taxonomy`]),
//! * **QoS vectors and observations** ([`value`]),
//! * the **Liu–Ngu–Zeng normalization matrix** and weighted overall score
//!   used by centralized QoS registries ([`normalize`]),
//! * **consumer preference profiles** over metrics ([`preference`]),
//! * **service-level agreements** with per-metric obligations and penalties
//!   ([`sla`]), and
//! * latent **quality profiles** from which observed QoS samples are drawn
//!   ([`profile`]).
//!
//! Everything downstream — trust mechanisms, the market simulator, the
//! selection strategies — consumes these types.
//!
//! ## Example
//!
//! ```
//! use wsrep_qos::metric::Metric;
//! use wsrep_qos::value::QosVector;
//! use wsrep_qos::preference::Preferences;
//!
//! let mut observed = QosVector::new();
//! observed.set(Metric::ResponseTime, 120.0); // ms, lower is better
//! observed.set(Metric::Availability, 0.99);  // fraction, higher is better
//!
//! let prefs = Preferences::uniform([Metric::ResponseTime, Metric::Availability]);
//! assert_eq!(prefs.metrics().count(), 2);
//! ```

pub mod metric;
pub mod normalize;
pub mod preference;
pub mod profile;
pub mod sla;
pub mod taxonomy;
pub mod value;

pub use normalize::OverallScore;
pub use sla::SlaOutcome;
