//! QoS metrics from the W3C taxonomy reproduced in Figure 3 of the paper.
//!
//! The paper follows the W3C working-group note *"QoS for Web Services:
//! Requirements and Possible Approaches"* (Lee et al., 2003), which groups
//! web-service quality aspects into performance, dependability, integrity,
//! security and application-specific metrics. Each metric here carries its
//! [`Monotonicity`] (is a larger raw value better or worse?) and its
//! [`Category`] in the taxonomy.

use std::fmt;

/// Direction in which a raw metric value improves.
///
/// Response time improves as it *decreases*; availability improves as it
/// *increases*. Normalization (see [`crate::normalize`]) uses this to map
/// every metric onto a common "higher is better" `\[0, 1\]` scale, exactly as
/// the Liu–Ngu–Zeng QoS computation does with its two normalization rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Monotonicity {
    /// Larger raw values are better (e.g. throughput, availability).
    HigherBetter,
    /// Smaller raw values are better (e.g. latency, price).
    LowerBetter,
}

/// Top-level category of the Figure 3 taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Speed-of-service metrics: processing time, throughput, latency, …
    Performance,
    /// Can the service be relied on: availability, accuracy, stability, …
    Dependability,
    /// Data and transactional integrity.
    Integrity,
    /// Security and accountability aspects.
    Security,
    /// Economic aspects (the paper lists cost alongside QoS as selection input).
    Economic,
    /// Domain-specific metrics of a *general service* in the mediated
    /// scenario (Figure 1 B) — e.g. seat comfort for a flight service.
    ApplicationSpecific,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Category::Performance => "performance",
            Category::Dependability => "dependability",
            Category::Integrity => "integrity",
            Category::Security => "security",
            Category::Economic => "economic",
            Category::ApplicationSpecific => "application-specific",
        };
        f.write_str(name)
    }
}

/// A quality-of-service metric for a web service (or a general service).
///
/// The variants reproduce the leaves of Figure 3. `AppSpecific(k)` models
/// the "application-specific metrics" branch: the mediated-selection
/// scenario needs per-domain qualities that cannot be enumerated in advance,
/// which is exactly the point the paper makes about general services.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Metric {
    // -- performance -------------------------------------------------------
    /// Time the service spends processing a request (excludes queueing).
    ProcessingTime,
    /// Requests served per unit time.
    Throughput,
    /// Time between sending a request and receiving the complete response.
    ResponseTime,
    /// Network delay contribution to response time.
    Latency,
    // -- dependability ------------------------------------------------------
    /// Probability the service is up when invoked.
    Availability,
    /// Probability the service can accept a request while up.
    Accessibility,
    /// Correctness of results (error rate complement).
    Accuracy,
    /// Ability to keep working correctly over a time interval.
    Reliability,
    /// Maximum concurrent requests sustained.
    Capacity,
    /// Quality retention as load grows.
    Scalability,
    /// Graceful handling of exceptions / interface change rate.
    Stability,
    /// Tolerance of malformed or unexpected input.
    Robustness,
    // -- integrity -----------------------------------------------------------
    /// Data is not corrupted in transit or storage.
    DataIntegrity,
    /// Transactions complete atomically or roll back.
    TransactionalIntegrity,
    // -- security -------------------------------------------------------------
    /// Strength of identity verification.
    Authentication,
    /// Correctness of access-control decisions.
    Authorization,
    /// Auditability of actions.
    Traceability,
    /// Actions cannot be denied after the fact.
    NonRepudiation,
    /// Confidentiality of exchanged data.
    Confidentiality,
    /// Strength of encryption applied.
    Encryption,
    /// Accountability of the provider for its actions.
    Accountability,
    // -- economic -------------------------------------------------------------
    /// Price charged per invocation; the paper lists cost as an extra
    /// selection input beside QoS.
    Price,
    // -- application-specific --------------------------------------------------
    /// The k-th domain-specific quality of a general service.
    AppSpecific(u8),
}

impl Metric {
    /// All non-application-specific metrics of the Figure 3 taxonomy.
    pub const ALL_STANDARD: [Metric; 22] = [
        Metric::ProcessingTime,
        Metric::Throughput,
        Metric::ResponseTime,
        Metric::Latency,
        Metric::Availability,
        Metric::Accessibility,
        Metric::Accuracy,
        Metric::Reliability,
        Metric::Capacity,
        Metric::Scalability,
        Metric::Stability,
        Metric::Robustness,
        Metric::DataIntegrity,
        Metric::TransactionalIntegrity,
        Metric::Authentication,
        Metric::Authorization,
        Metric::Traceability,
        Metric::NonRepudiation,
        Metric::Confidentiality,
        Metric::Encryption,
        Metric::Accountability,
        Metric::Price,
    ];

    /// The taxonomy category this metric belongs to.
    pub fn category(self) -> Category {
        use Metric::*;
        match self {
            ProcessingTime | Throughput | ResponseTime | Latency => Category::Performance,
            Availability | Accessibility | Accuracy | Reliability | Capacity | Scalability
            | Stability | Robustness => Category::Dependability,
            DataIntegrity | TransactionalIntegrity => Category::Integrity,
            Authentication | Authorization | Traceability | NonRepudiation | Confidentiality
            | Encryption | Accountability => Category::Security,
            Price => Category::Economic,
            AppSpecific(_) => Category::ApplicationSpecific,
        }
    }

    /// Whether larger raw values of this metric are better.
    pub fn monotonicity(self) -> Monotonicity {
        use Metric::*;
        match self {
            ProcessingTime | ResponseTime | Latency | Price => Monotonicity::LowerBetter,
            _ => Monotonicity::HigherBetter,
        }
    }

    /// Whether the metric can be measured automatically by execution
    /// monitoring (response time, availability, …) or needs a human/agent
    /// *rating* (accuracy as perceived, security assurances).
    ///
    /// The paper distinguishes exactly these two kinds of consumer feedback
    /// in Section 2: "quality information collected from actual execution
    /// monitoring" versus "ratings about the quality of the service,
    /// especially the QoS aspects like accuracy that can not be acquired
    /// through execution monitoring".
    pub fn observable_by_monitoring(self) -> bool {
        use Metric::*;
        matches!(
            self,
            ProcessingTime
                | Throughput
                | ResponseTime
                | Latency
                | Availability
                | Accessibility
                | Capacity
                | Price
        )
    }

    /// Short stable name used in reports and tables.
    pub fn name(self) -> String {
        use Metric::*;
        match self {
            ProcessingTime => "processing_time".into(),
            Throughput => "throughput".into(),
            ResponseTime => "response_time".into(),
            Latency => "latency".into(),
            Availability => "availability".into(),
            Accessibility => "accessibility".into(),
            Accuracy => "accuracy".into(),
            Reliability => "reliability".into(),
            Capacity => "capacity".into(),
            Scalability => "scalability".into(),
            Stability => "stability".into(),
            Robustness => "robustness".into(),
            DataIntegrity => "data_integrity".into(),
            TransactionalIntegrity => "transactional_integrity".into(),
            Authentication => "authentication".into(),
            Authorization => "authorization".into(),
            Traceability => "traceability".into(),
            NonRepudiation => "non_repudiation".into(),
            Confidentiality => "confidentiality".into(),
            Encryption => "encryption".into(),
            Accountability => "accountability".into(),
            Price => "price".into(),
            AppSpecific(k) => format!("app_specific_{k}"),
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_standard_metric_has_a_category() {
        for m in Metric::ALL_STANDARD {
            // Just exercising the exhaustive match; no panic means pass.
            let _ = m.category();
        }
    }

    #[test]
    fn latency_like_metrics_are_lower_better() {
        for m in [
            Metric::ProcessingTime,
            Metric::ResponseTime,
            Metric::Latency,
            Metric::Price,
        ] {
            assert_eq!(m.monotonicity(), Monotonicity::LowerBetter, "{m}");
        }
    }

    #[test]
    fn dependability_metrics_are_higher_better() {
        for m in [
            Metric::Availability,
            Metric::Accuracy,
            Metric::Reliability,
            Metric::Throughput,
        ] {
            assert_eq!(m.monotonicity(), Monotonicity::HigherBetter, "{m}");
        }
    }

    #[test]
    fn accuracy_needs_a_rating_not_a_probe() {
        assert!(!Metric::Accuracy.observable_by_monitoring());
        assert!(Metric::ResponseTime.observable_by_monitoring());
    }

    #[test]
    fn app_specific_metrics_are_distinct() {
        assert_ne!(Metric::AppSpecific(0), Metric::AppSpecific(1));
        assert_eq!(
            Metric::AppSpecific(3).category(),
            Category::ApplicationSpecific
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = Metric::ALL_STANDARD.iter().map(|m| m.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Metric::ALL_STANDARD.len());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Metric::ResponseTime.to_string(), "response_time");
        assert_eq!(Category::Performance.to_string(), "performance");
    }
}
