//! Logical time.
//!
//! The paper lists *dynamic* as a defining property of trust: "trust and
//! reputation can increase or decrease with further experiences. They also
//! decay with time." All mechanisms therefore timestamp feedback with a
//! logical [`Time`] in simulation rounds; decay models (see
//! [`crate::decay`]) interpret the distance between timestamps.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A logical instant, counted in simulation rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Time(u64);

impl Time {
    /// The epoch (round zero).
    pub const ZERO: Time = Time(0);

    /// Wrap a round counter.
    pub const fn new(round: u64) -> Self {
        Time(round)
    }

    /// The raw round counter.
    pub const fn round(self) -> u64 {
        self.0
    }

    /// Rounds elapsed since `earlier`; zero if `earlier` is in the future.
    pub fn since(self, earlier: Time) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// The next round.
    pub fn next(self) -> Time {
        Time(self.0 + 1)
    }
}

impl Add<u64> for Time {
    type Output = Time;
    fn add(self, rhs: u64) -> Time {
        Time(self.0 + rhs)
    }
}

impl AddAssign<u64> for Time {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Time> for Time {
    type Output = u64;
    fn sub(self, rhs: Time) -> u64 {
        self.since(rhs)
    }
}

impl From<u64> for Time {
    fn from(round: u64) -> Self {
        Time(round)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves() {
        let t = Time::new(5);
        assert_eq!((t + 3).round(), 8);
        assert_eq!(t.next(), Time::new(6));
        assert_eq!(Time::new(9) - t, 4);
    }

    #[test]
    fn since_saturates_for_future_times() {
        assert_eq!(Time::new(3).since(Time::new(10)), 0);
    }

    #[test]
    fn default_is_epoch() {
        assert_eq!(Time::default(), Time::ZERO);
        assert_eq!(Time::ZERO.to_string(), "t0");
    }
}
