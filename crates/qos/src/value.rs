//! QoS vectors: raw per-metric values attached to advertisements,
//! observations and feedback.

use crate::metric::Metric;
use std::collections::BTreeMap;

/// A sparse vector of raw metric values.
///
/// Raw values live in each metric's natural unit (milliseconds, fraction,
/// requests/s, currency). Mapping onto a comparable `\[0, 1\]` scale is the
/// job of [`crate::normalize`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QosVector {
    values: BTreeMap<Metric, f64>,
}

impl QosVector {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from `(metric, value)` pairs.
    ///
    /// ```
    /// use wsrep_qos::{value::QosVector, metric::Metric};
    /// let v = QosVector::from_pairs([(Metric::ResponseTime, 80.0)]);
    /// assert_eq!(v.get(Metric::ResponseTime), Some(80.0));
    /// ```
    pub fn from_pairs<I: IntoIterator<Item = (Metric, f64)>>(pairs: I) -> Self {
        QosVector {
            values: pairs.into_iter().collect(),
        }
    }

    /// Set the raw value for a metric, replacing any previous value.
    pub fn set(&mut self, metric: Metric, value: f64) -> &mut Self {
        self.values.insert(metric, value);
        self
    }

    /// Raw value for a metric, if present.
    pub fn get(&self, metric: Metric) -> Option<f64> {
        self.values.get(&metric).copied()
    }

    /// Whether the vector carries a value for `metric`.
    pub fn contains(&self, metric: Metric) -> bool {
        self.values.contains_key(&metric)
    }

    /// Iterate `(metric, value)` pairs in stable metric order.
    pub fn iter(&self) -> impl Iterator<Item = (Metric, f64)> + '_ {
        self.values.iter().map(|(m, v)| (*m, *v))
    }

    /// The metrics present in this vector.
    pub fn metrics(&self) -> impl Iterator<Item = Metric> + '_ {
        self.values.keys().copied()
    }

    /// Number of metrics present.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no metrics are present.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Exponential moving average update toward `sample` with weight
    /// `alpha` in `\[0, 1\]`: `new = (1 - alpha) * old + alpha * sample`.
    /// Metrics absent from `self` adopt the sample value directly.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `\[0, 1\]`.
    pub fn ema_update(&mut self, sample: &QosVector, alpha: f64) {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        for (m, v) in sample.iter() {
            let updated = match self.get(m) {
                Some(old) => (1.0 - alpha) * old + alpha * v,
                None => v,
            };
            self.set(m, updated);
        }
    }
}

impl FromIterator<(Metric, f64)> for QosVector {
    fn from_iter<T: IntoIterator<Item = (Metric, f64)>>(iter: T) -> Self {
        Self::from_pairs(iter)
    }
}

impl Extend<(Metric, f64)> for QosVector {
    fn extend<T: IntoIterator<Item = (Metric, f64)>>(&mut self, iter: T) {
        self.values.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_and_get_round_trip() {
        let mut v = QosVector::new();
        v.set(Metric::Latency, 42.0);
        assert_eq!(v.get(Metric::Latency), Some(42.0));
        assert_eq!(v.get(Metric::Price), None);
        assert!(v.contains(Metric::Latency));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn ema_update_moves_toward_sample() {
        let mut v = QosVector::from_pairs([(Metric::ResponseTime, 100.0)]);
        let sample = QosVector::from_pairs([(Metric::ResponseTime, 200.0)]);
        v.ema_update(&sample, 0.25);
        assert!((v.get(Metric::ResponseTime).unwrap() - 125.0).abs() < 1e-12);
    }

    #[test]
    fn ema_adopts_new_metrics() {
        let mut v = QosVector::new();
        let sample = QosVector::from_pairs([(Metric::Accuracy, 0.8)]);
        v.ema_update(&sample, 0.1);
        assert_eq!(v.get(Metric::Accuracy), Some(0.8));
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0,1]")]
    fn ema_rejects_bad_alpha() {
        let mut v = QosVector::new();
        v.ema_update(&QosVector::new(), 1.5);
    }

    #[test]
    fn collects_from_iterator() {
        let v: QosVector = [(Metric::Price, 1.0), (Metric::Accuracy, 0.5)]
            .into_iter()
            .collect();
        assert_eq!(v.len(), 2);
    }

    proptest! {
        #[test]
        fn ema_is_bounded_by_endpoints(old in 0.0f64..1000.0, new in 0.0f64..1000.0, alpha in 0.0f64..=1.0) {
            let mut v = QosVector::from_pairs([(Metric::Latency, old)]);
            v.ema_update(&QosVector::from_pairs([(Metric::Latency, new)]), alpha);
            let got = v.get(Metric::Latency).unwrap();
            let (lo, hi) = if old <= new { (old, new) } else { (new, old) };
            prop_assert!(got >= lo - 1e-9 && got <= hi + 1e-9);
        }
    }
}
