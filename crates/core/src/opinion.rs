//! Subjective-logic opinions and Dempster–Shafer belief functions.
//!
//! Two of the survey's classified systems are belief-theoretic: Jøsang's
//! work on transitive trust (reference \[10\]) uses subjective-logic
//! opinions, and Yu & Singh's distributed reputation management
//! (references \[35, 36\]) rates witnesses with Dempster–Shafer belief
//! functions over `{trustworthy, untrustworthy}`. Both calculi live here.

/// A binomial subjective-logic opinion `(belief, disbelief, uncertainty)`
/// with `b + d + u = 1`, plus a base rate `a` used for the probability
/// expectation `E = b + a·u`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Opinion {
    /// Belief mass.
    pub b: f64,
    /// Disbelief mass.
    pub d: f64,
    /// Uncertainty mass.
    pub u: f64,
    /// Base rate (prior expectation under total uncertainty).
    pub a: f64,
}

impl Opinion {
    /// Build from positive/negative evidence counts via the beta mapping:
    /// `b = r/(r+s+2)`, `d = s/(r+s+2)`, `u = 2/(r+s+2)`.
    pub fn from_evidence(r: f64, s: f64, base_rate: f64) -> Self {
        let r = r.max(0.0);
        let s = s.max(0.0);
        let k = r + s + 2.0;
        Opinion {
            b: r / k,
            d: s / k,
            u: 2.0 / k,
            a: base_rate.clamp(0.0, 1.0),
        }
    }

    /// Probability expectation `E = b + a·u`.
    pub fn expectation(&self) -> f64 {
        self.b + self.a * self.u
    }

    /// Jøsang's *discounting* operator `⊗`: how much of `other`'s opinion
    /// about a subject survives when filtered through `self`'s opinion
    /// about `other` as a recommender. This is the algebra behind "Alice
    /// trusts her doctor and her doctor trusts an eye specialist, then
    /// Alice can trust the eye specialist" from Section 3.
    pub(crate) fn discount(&self, other: &Opinion) -> Opinion {
        Opinion {
            b: self.b * other.b,
            d: self.b * other.d,
            u: self.d + self.u + self.b * other.u,
            a: other.a,
        }
    }

    /// Jøsang's *consensus* (cumulative fusion) operator `⊕`: combine two
    /// independent opinions about the same subject.
    pub(crate) fn consensus(&self, other: &Opinion) -> Opinion {
        let k = self.u + other.u - self.u * other.u;
        if k <= f64::EPSILON {
            // Both opinions are (almost) dogmatic; average them.
            return Opinion {
                b: (self.b + other.b) / 2.0,
                d: (self.d + other.d) / 2.0,
                u: 0.0,
                a: (self.a + other.a) / 2.0,
            };
        }
        Opinion {
            b: (self.b * other.u + other.b * self.u) / k,
            d: (self.d * other.u + other.d * self.u) / k,
            u: (self.u * other.u) / k,
            a: (self.a + other.a) / 2.0,
        }
    }
}

/// A Dempster–Shafer mass assignment over the frame
/// `{T}` (trustworthy), `{¬T}` (not trustworthy), `{T, ¬T}` (either).
///
/// Yu & Singh assign `m({T})` from the fraction of recent interactions
/// above an upper satisfaction threshold, `m({¬T})` from those below a
/// lower threshold, and put the rest on the whole frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BeliefMass {
    /// Mass on "trustworthy".
    pub trust: f64,
    /// Mass on "not trustworthy".
    pub distrust: f64,
    /// Mass on the whole frame (uncommitted).
    pub unknown: f64,
}

impl BeliefMass {
    /// Total ignorance.
    pub(crate) fn vacuous() -> Self {
        BeliefMass {
            trust: 0.0,
            distrust: 0.0,
            unknown: 1.0,
        }
    }

    /// Build and renormalize from non-negative masses.
    ///
    /// # Panics
    ///
    /// Panics if all masses are zero or any is negative.
    pub(crate) fn new(trust: f64, distrust: f64, unknown: f64) -> Self {
        assert!(
            trust >= 0.0 && distrust >= 0.0 && unknown >= 0.0,
            "masses must be non-negative"
        );
        let total = trust + distrust + unknown;
        assert!(total > 0.0, "at least one mass must be positive");
        BeliefMass {
            trust: trust / total,
            distrust: distrust / total,
            unknown: unknown / total,
        }
    }

    /// Yu–Singh style construction from interaction history: the fraction
    /// of `scores` at or above `upper` becomes trust mass, the fraction at
    /// or below `lower` becomes distrust mass, the remainder stays unknown.
    /// Empty history yields [`Self::vacuous`].
    pub(crate) fn from_scores(scores: &[f64], lower: f64, upper: f64) -> Self {
        if scores.is_empty() {
            return Self::vacuous();
        }
        let n = scores.len() as f64;
        let pos = scores.iter().filter(|&&s| s >= upper).count() as f64;
        let neg = scores.iter().filter(|&&s| s <= lower).count() as f64;
        BeliefMass::new(pos / n, neg / n, (n - pos - neg) / n)
    }

    /// Dempster's rule of combination. Returns `None` on total conflict
    /// (the normalization constant is zero).
    pub(crate) fn combine(&self, other: &BeliefMass) -> Option<BeliefMass> {
        let conflict = self.trust * other.distrust + self.distrust * other.trust;
        let k = 1.0 - conflict;
        if k <= f64::EPSILON {
            return None;
        }
        let trust =
            (self.trust * other.trust + self.trust * other.unknown + self.unknown * other.trust)
                / k;
        let distrust = (self.distrust * other.distrust
            + self.distrust * other.unknown
            + self.unknown * other.distrust)
            / k;
        let unknown = (self.unknown * other.unknown) / k;
        Some(BeliefMass {
            trust,
            distrust,
            unknown,
        })
    }

    /// Belief minus disbelief mapped onto `\[0, 1\]` — the scalar Yu & Singh
    /// compare against their trust threshold (they use `m(T) - m(¬T)` on
    /// `[-1, 1]`; we shift to the unit interval for the common API).
    pub(crate) fn trust_score(&self) -> f64 {
        ((self.trust - self.distrust) + 1.0) / 2.0
    }
}

/// `(b, d, u)` is a point of the simplex: each ≥ 0, summing to 1.
#[cfg(test)]
pub(crate) fn on_simplex(b: f64, d: f64, u: f64) -> bool {
    b >= -1e-9 && d >= -1e-9 && u >= -1e-9 && (b + d + u - 1.0).abs() < 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn valid(o: &Opinion) -> bool {
        on_simplex(o.b, o.d, o.u)
    }

    fn valid_mass(m: &BeliefMass) -> bool {
        on_simplex(m.trust, m.distrust, m.unknown)
    }

    #[test]
    fn evidence_mapping_is_valid_and_sensible() {
        let o = Opinion::from_evidence(8.0, 2.0, 0.5);
        assert!(valid(&o));
        assert!(o.b > o.d);
        assert!((o.expectation() - (8.0 / 12.0 + 0.5 * (2.0 / 12.0))).abs() < 1e-12);
    }

    #[test]
    fn discounting_never_increases_belief() {
        let recommender = Opinion::from_evidence(5.0, 5.0, 0.5);
        let target = Opinion::from_evidence(20.0, 0.0, 0.5);
        let d = recommender.discount(&target);
        assert!(valid(&d));
        assert!(d.b <= target.b + 1e-12);
        assert!(d.u >= target.u - 1e-12);
    }

    #[test]
    fn discount_through_full_distrust_is_vacuous_belief() {
        let distruster = Opinion {
            b: 0.0,
            d: 1.0,
            u: 0.0,
            a: 0.5,
        };
        let target = Opinion::from_evidence(100.0, 0.0, 0.5);
        let d = distruster.discount(&target);
        assert_eq!(d.b, 0.0);
        assert_eq!(d.u, 1.0);
    }

    #[test]
    fn consensus_reduces_uncertainty() {
        let a = Opinion::from_evidence(3.0, 1.0, 0.5);
        let b = Opinion::from_evidence(4.0, 0.0, 0.5);
        let c = a.consensus(&b);
        assert!(valid(&c));
        assert!(c.u < a.u.min(b.u));
    }

    #[test]
    fn consensus_of_dogmatic_opinions_averages() {
        let a = Opinion {
            b: 1.0,
            d: 0.0,
            u: 0.0,
            a: 0.5,
        };
        let b = Opinion {
            b: 0.0,
            d: 1.0,
            u: 0.0,
            a: 0.5,
        };
        let c = a.consensus(&b);
        assert!((c.b - 0.5).abs() < 1e-12);
        assert!((c.d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn belief_from_scores_buckets_correctly() {
        let m = BeliefMass::from_scores(&[0.9, 0.95, 0.1, 0.5], 0.3, 0.8);
        assert!((m.trust - 0.5).abs() < 1e-12);
        assert!((m.distrust - 0.25).abs() < 1e-12);
        assert!((m.unknown - 0.25).abs() < 1e-12);
        assert!(valid_mass(&m));
    }

    #[test]
    fn empty_scores_are_vacuous() {
        assert_eq!(
            BeliefMass::from_scores(&[], 0.3, 0.8),
            BeliefMass::vacuous()
        );
        assert_eq!(BeliefMass::vacuous().trust_score(), 0.5);
    }

    #[test]
    fn dempster_combination_reinforces_agreement() {
        let a = BeliefMass::new(0.6, 0.0, 0.4);
        let b = BeliefMass::new(0.7, 0.0, 0.3);
        let c = a.combine(&b).unwrap();
        assert!(c.trust > 0.7);
        assert!(valid_mass(&c));
    }

    #[test]
    fn total_conflict_yields_none() {
        let a = BeliefMass::new(1.0, 0.0, 0.0);
        let b = BeliefMass::new(0.0, 1.0, 0.0);
        assert_eq!(a.combine(&b), None);
    }

    #[test]
    #[should_panic(expected = "at least one mass")]
    fn zero_masses_panic() {
        BeliefMass::new(0.0, 0.0, 0.0);
    }

    proptest! {
        #[test]
        fn opinion_operators_preserve_simplex(
            r1 in 0.0f64..50.0, s1 in 0.0f64..50.0,
            r2 in 0.0f64..50.0, s2 in 0.0f64..50.0,
        ) {
            let a = Opinion::from_evidence(r1, s1, 0.5);
            let b = Opinion::from_evidence(r2, s2, 0.5);
            prop_assert!(valid(&a.discount(&b)));
            prop_assert!(valid(&a.consensus(&b)));
        }

        #[test]
        fn dempster_preserves_mass(
            t1 in 0.0f64..1.0, d1 in 0.0f64..1.0,
            t2 in 0.0f64..1.0, d2 in 0.0f64..1.0,
        ) {
            // Leave at least some unknown mass so conflict is never total.
            let a = BeliefMass::new(t1, d1, 0.5);
            let b = BeliefMass::new(t2, d2, 0.5);
            let c = a.combine(&b).expect("unknown mass prevents total conflict");
            prop_assert!(valid_mass(&c));
        }

        #[test]
        fn trust_score_in_unit_interval(t in 0.0f64..1.0, d in 0.0f64..1.0) {
            let m = BeliefMass::new(t, d, 0.1);
            prop_assert!((0.0..=1.0).contains(&m.trust_score()));
        }
    }
}
