//! Trust values and estimates.
//!
//! Section 3 of the paper: *trust* is "personalized and subjective
//! reflecting an individual's opinion" while *reputation* is "objective and
//! represents a collective evaluation". Both are evaluations of
//! trustworthiness and both are reported here as a [`TrustValue`] in
//! `\[0, 1\]`, optionally paired with a confidence, as a [`TrustEstimate`].

use std::fmt;

/// A trustworthiness score normalized to `\[0, 1\]`.
///
/// `0.5` is the conventional neutral prior (total ignorance in the beta
/// model); `1` is full trust, `0` full distrust. Construction clamps, so a
/// `TrustValue` is always in range.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct TrustValue(f64);

impl TrustValue {
    /// Complete distrust.
    pub const MIN: TrustValue = TrustValue(0.0);
    /// The ignorance prior.
    pub const NEUTRAL: TrustValue = TrustValue(0.5);
    /// Complete trust.
    pub const MAX: TrustValue = TrustValue(1.0);

    /// Build from a raw score, clamping into `\[0, 1\]`. NaN maps to 0.
    pub fn new(raw: f64) -> Self {
        if raw.is_nan() {
            TrustValue(0.0)
        } else {
            TrustValue(raw.clamp(0.0, 1.0))
        }
    }

    /// The score as `f64` in `\[0, 1\]`.
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Weighted blend: `(1 - w) * self + w * other`, `w` clamped to `\[0,1\]`.
    pub fn blend(self, other: TrustValue, w: f64) -> TrustValue {
        let w = w.clamp(0.0, 1.0);
        TrustValue::new((1.0 - w) * self.0 + w * other.0)
    }
}

impl From<f64> for TrustValue {
    fn from(raw: f64) -> Self {
        TrustValue::new(raw)
    }
}

impl fmt::Display for TrustValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

/// A trust value together with how much evidence backs it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrustEstimate {
    /// The trustworthiness score.
    pub value: TrustValue,
    /// Confidence in `\[0, 1\]`: 0 = pure prior, 1 = abundant evidence.
    pub confidence: f64,
}

impl TrustEstimate {
    /// An estimate with explicit confidence.
    pub fn new(value: impl Into<TrustValue>, confidence: f64) -> Self {
        TrustEstimate {
            value: value.into(),
            confidence: confidence.clamp(0.0, 1.0),
        }
    }

    /// A fully confident estimate.
    pub fn certain(value: impl Into<TrustValue>) -> Self {
        Self::new(value, 1.0)
    }

    /// The ignorance prior: neutral value, zero confidence.
    pub fn ignorance() -> Self {
        Self::new(TrustValue::NEUTRAL, 0.0)
    }

    /// Confidence-weighted average of several estimates. Returns
    /// [`Self::ignorance`] when the iterator is empty or all weights are 0.
    pub fn combine<I: IntoIterator<Item = TrustEstimate>>(estimates: I) -> Self {
        let mut num = 0.0;
        let mut den = 0.0;
        let mut max_conf: f64 = 0.0;
        for e in estimates {
            num += e.confidence * e.value.get();
            den += e.confidence;
            max_conf = max_conf.max(e.confidence);
        }
        if den == 0.0 {
            Self::ignorance()
        } else {
            Self::new(num / den, max_conf)
        }
    }
}

/// Confidence from an evidence count: `n / (n + k)` where `k` sets how many
/// observations count as "half certain". The standard saturating form used
/// throughout the mechanisms.
pub fn evidence_confidence(n: usize, k: f64) -> f64 {
    let n = n as f64;
    if k <= 0.0 {
        if n > 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        n / (n + k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_clamps() {
        assert_eq!(TrustValue::new(1.5), TrustValue::MAX);
        assert_eq!(TrustValue::new(-0.2), TrustValue::MIN);
        assert_eq!(TrustValue::new(f64::NAN).get(), 0.0);
    }

    #[test]
    fn blend_interpolates() {
        let t = TrustValue::new(0.0).blend(TrustValue::new(1.0), 0.25);
        assert!((t.get() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn combine_weights_by_confidence() {
        let e =
            TrustEstimate::combine([TrustEstimate::new(1.0, 0.9), TrustEstimate::new(0.0, 0.1)]);
        assert!((e.value.get() - 0.9).abs() < 1e-12);
        assert_eq!(e.confidence, 0.9);
    }

    #[test]
    fn combine_of_nothing_is_ignorance() {
        assert_eq!(TrustEstimate::combine([]), TrustEstimate::ignorance());
        let zeros = [TrustEstimate::new(1.0, 0.0)];
        assert_eq!(TrustEstimate::combine(zeros), TrustEstimate::ignorance());
    }

    #[test]
    fn evidence_confidence_saturates() {
        assert_eq!(evidence_confidence(0, 5.0), 0.0);
        assert!((evidence_confidence(5, 5.0) - 0.5).abs() < 1e-12);
        assert!(evidence_confidence(1000, 5.0) > 0.99);
        assert_eq!(evidence_confidence(3, 0.0), 1.0);
        assert_eq!(evidence_confidence(0, 0.0), 0.0);
    }

    proptest! {
        #[test]
        fn trust_values_always_in_unit_interval(raw in -10.0f64..10.0) {
            let t = TrustValue::new(raw);
            prop_assert!((0.0..=1.0).contains(&t.get()));
        }

        #[test]
        fn blend_stays_between_endpoints(a in 0.0f64..=1.0, b in 0.0f64..=1.0, w in 0.0f64..=1.0) {
            let t = TrustValue::new(a).blend(TrustValue::new(b), w);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(t.get() >= lo - 1e-12 && t.get() <= hi + 1e-12);
        }
    }
}
