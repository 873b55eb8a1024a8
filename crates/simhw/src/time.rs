//! Virtual time.
//!
//! Simulated time is a non-negative `f64` of seconds wrapped in a newtype
//! with a total order (NaN is rejected at construction), so it can key
//! event queues and be compared safely.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in seconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time value.
    ///
    /// # Panics
    /// Panics on NaN or negative input — virtual time is monotone and total.
    pub fn new(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "SimTime must be finite and non-negative, got {seconds}"
        );
        SimTime(seconds)
    }

    /// Seconds since simulation start.
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// The later of two times.
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Constructor guarantees no NaN.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, d: Duration) -> SimTime {
        SimTime::new(self.0 + d.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, d: Duration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, other: SimTime) -> Duration {
        Duration::new((self.0 - other.0).max(0.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_seconds(self.0, f)
    }
}

/// A span of virtual time, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Duration(f64);

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0.0);

    /// Creates a duration.
    ///
    /// # Panics
    /// Panics on NaN or negative input.
    pub fn new(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "Duration must be finite and non-negative, got {seconds}"
        );
        Duration(seconds)
    }

    /// Seconds.
    pub fn seconds(self) -> f64 {
        self.0
    }
}

impl Eq for Duration {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Duration {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("Duration is never NaN")
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, other: Duration) -> Duration {
        Duration::new(self.0 + other.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_seconds(self.0, f)
    }
}

fn format_seconds(s: f64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if s >= 1.0 {
        write!(f, "{s:.3}s")
    } else if s >= 1e-3 {
        write!(f, "{:.3}ms", s * 1e3)
    } else if s >= 1e-6 {
        write!(f, "{:.3}us", s * 1e6)
    } else {
        write!(f, "{:.0}ns", s * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::new(1.0) + Duration::new(0.5);
        assert_eq!(t.seconds(), 1.5);
        let d = SimTime::new(2.0) - SimTime::new(0.5);
        assert_eq!(d.seconds(), 1.5);
        // Saturating subtraction (no negative durations).
        let d = SimTime::new(0.5) - SimTime::new(2.0);
        assert_eq!(d.seconds(), 0.0);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::new(1.0) < SimTime::new(2.0));
        assert_eq!(SimTime::new(3.0).max(SimTime::new(1.0)).seconds(), 3.0);
        assert_eq!(SimTime::new(3.0).min(SimTime::new(1.0)).seconds(), 1.0);
        let mut v = [SimTime::new(3.0), SimTime::ZERO, SimTime::new(1.0)];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_rejected() {
        SimTime::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        SimTime::new(f64::NAN);
    }

    #[test]
    fn display_scales() {
        assert_eq!(SimTime::new(2.5).to_string(), "2.500s");
        assert_eq!(SimTime::new(0.0025).to_string(), "2.500ms");
        assert_eq!(SimTime::new(2.5e-6).to_string(), "2.500us");
        assert_eq!(SimTime::new(2.5e-9).to_string(), "2ns"); // rounded ns
    }

    #[test]
    fn duration_addition() {
        assert_eq!((Duration::new(1.0) + Duration::new(2.0)).seconds(), 3.0);
    }
}
