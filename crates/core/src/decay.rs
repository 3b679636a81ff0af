//! Time decay of experiences.
//!
//! "New experiences are more important than old ones since old experiences
//! may become obsolete or irrelevant with time passing by" (Section 3).
//! Every mechanism that aggregates timestamped feedback can plug in a
//! [`DecayModel`]; the `exp_dynamic` experiment compares the models on
//! oscillating and degrading providers.

use crate::time::Time;

/// How the weight of an experience falls off with age.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecayModel {
    /// All experiences weigh the same forever (the degenerate baseline).
    None,
    /// Exponential forgetting with the given half-life in rounds: an
    /// experience `h` rounds old weighs `0.5^(age / h)`.
    Exponential {
        /// Rounds after which an experience's weight halves.
        half_life: u64,
    },
    /// Hard sliding window: experiences younger than `window` rounds weigh
    /// 1, older ones weigh 0.
    Window {
        /// Number of rounds an experience stays relevant.
        window: u64,
    },
}

impl DecayModel {
    /// Weight in `\[0, 1\]` of an experience stamped `at`, evaluated `now`.
    ///
    /// # Panics
    ///
    /// Panics if an `Exponential` model was built with `half_life == 0`
    /// (checked here because the weight would be ill-defined).
    pub(crate) fn weight(&self, at: Time, now: Time) -> f64 {
        let age = now.since(at) as f64;
        match *self {
            DecayModel::None => 1.0,
            DecayModel::Exponential { half_life } => {
                assert!(half_life > 0, "half_life must be positive");
                0.5f64.powf(age / half_life as f64)
            }
            DecayModel::Window { window } => {
                if now.since(at) < window {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Weighted mean of `(value, timestamp)` samples at `now`. `None` when
    /// no sample carries positive weight.
    pub fn weighted_mean<I>(&self, samples: I, now: Time) -> Option<f64>
    where
        I: IntoIterator<Item = (f64, Time)>,
    {
        let mut num = 0.0;
        let mut den = 0.0;
        for (v, t) in samples {
            let w = self.weight(t, now);
            num += w * v;
            den += w;
        }
        if den > 0.0 {
            Some(num / den)
        } else {
            None
        }
    }
}

impl Default for DecayModel {
    /// Exponential with a 50-round half-life: a reasonable default that
    /// keeps mechanisms responsive without thrashing.
    fn default() -> Self {
        DecayModel::Exponential { half_life: 50 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn none_never_decays() {
        let d = DecayModel::None;
        assert_eq!(d.weight(Time::ZERO, Time::new(1_000_000)), 1.0);
    }

    #[test]
    fn exponential_halves_at_half_life() {
        let d = DecayModel::Exponential { half_life: 10 };
        assert!((d.weight(Time::ZERO, Time::new(10)) - 0.5).abs() < 1e-12);
        assert!((d.weight(Time::ZERO, Time::new(20)) - 0.25).abs() < 1e-12);
        assert_eq!(d.weight(Time::new(5), Time::new(5)), 1.0);
    }

    #[test]
    fn window_cuts_off_sharply() {
        let d = DecayModel::Window { window: 3 };
        assert_eq!(d.weight(Time::new(7), Time::new(9)), 1.0);
        assert_eq!(d.weight(Time::new(7), Time::new(10)), 0.0);
    }

    #[test]
    fn weighted_mean_tracks_recent_values() {
        let d = DecayModel::Exponential { half_life: 2 };
        // Old bad experiences, recent good ones.
        let samples = [
            (0.0, Time::new(0)),
            (0.0, Time::new(1)),
            (1.0, Time::new(19)),
            (1.0, Time::new(20)),
        ];
        let m = d.weighted_mean(samples, Time::new(20)).unwrap();
        assert!(m > 0.95, "m={m}");
        // Without decay the mean would be 0.5.
        let flat = DecayModel::None
            .weighted_mean(samples, Time::new(20))
            .unwrap();
        assert!((flat - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_mean_of_expired_window_is_none() {
        let d = DecayModel::Window { window: 1 };
        let samples = [(1.0, Time::new(0))];
        assert_eq!(d.weighted_mean(samples, Time::new(5)), None);
        assert_eq!(d.weighted_mean([], Time::new(5)), None);
    }

    #[test]
    #[should_panic(expected = "half_life must be positive")]
    fn zero_half_life_panics() {
        DecayModel::Exponential { half_life: 0 }.weight(Time::ZERO, Time::new(1));
    }

    proptest! {
        /// Decay weights are monotone non-increasing in age for all models.
        #[test]
        fn weight_monotone_in_age(age1 in 0u64..500, delta in 0u64..500, hl in 1u64..100, win in 1u64..100) {
            let age2 = age1 + delta;
            for d in [
                DecayModel::None,
                DecayModel::Exponential { half_life: hl },
                DecayModel::Window { window: win },
            ] {
                let w1 = d.weight(Time::ZERO, Time::new(age1));
                let w2 = d.weight(Time::ZERO, Time::new(age2));
                prop_assert!(w2 <= w1 + 1e-12);
                prop_assert!((0.0..=1.0).contains(&w1));
            }
        }

        /// The weighted mean always lies within the sample value range.
        #[test]
        fn weighted_mean_is_bounded(
            vals in proptest::collection::vec((0.0f64..=1.0, 0u64..100), 1..20),
            hl in 1u64..50,
        ) {
            let d = DecayModel::Exponential { half_life: hl };
            let samples: Vec<(f64, Time)> = vals.iter().map(|&(v, t)| (v, Time::new(t))).collect();
            let lo = vals.iter().map(|&(v, _)| v).fold(f64::INFINITY, f64::min);
            let hi = vals.iter().map(|&(v, _)| v).fold(f64::NEG_INFINITY, f64::max);
            let m = d.weighted_mean(samples, Time::new(100)).unwrap();
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }
    }
}
