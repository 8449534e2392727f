//! Integer-nanosecond simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, stored as whole nanoseconds.
///
/// `SimTime` doubles as an instant and a duration, exactly like the scalar
/// timestamps of classic discrete-event simulators. Arithmetic is saturating
/// on overflow is *not* provided — overflowing a 64-bit nanosecond counter
/// means ~584 years of simulated time, which indicates a bug, so additions
/// panic in debug builds like ordinary integer arithmetic.
///
/// # Examples
///
/// ```
/// use proteus_sim::SimTime;
///
/// let t = SimTime::from_millis(1500);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// assert_eq!(t + SimTime::from_millis(500), SimTime::from_secs(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time (~584 simulated years).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates a time from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, non-finite, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime requires a finite non-negative number of seconds, got {secs}"
        );
        let nanos = secs * 1e9;
        assert!(nanos <= u64::MAX as f64, "SimTime overflow: {secs} s");
        SimTime(nanos.round() as u64)
    }

    /// Like [`SimTime::from_secs_f64`], but returns `None` instead of
    /// panicking when `secs` is negative, non-finite, or too large to
    /// represent. Parsers of user-supplied times use this.
    ///
    /// # Examples
    ///
    /// ```
    /// use proteus_sim::SimTime;
    ///
    /// assert_eq!(SimTime::checked_from_secs_f64(1.5), Some(SimTime::from_millis(1500)));
    /// assert_eq!(SimTime::checked_from_secs_f64(2e10), None);
    /// assert_eq!(SimTime::checked_from_secs_f64(-1.0), None);
    /// assert_eq!(SimTime::checked_from_secs_f64(f64::NAN), None);
    /// ```
    pub fn checked_from_secs_f64(secs: f64) -> Option<Self> {
        let nanos = secs * 1e9;
        (secs.is_finite() && secs >= 0.0 && nanos <= u64::MAX as f64)
            .then(|| SimTime(nanos.round() as u64))
    }

    /// Creates a time from fractional milliseconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SimTime::from_secs_f64`].
    pub fn from_millis_f64(millis: f64) -> Self {
        Self::from_secs_f64(millis / 1e3)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the time as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns `self + other`, or [`SimTime::MAX`] if the sum is past it.
    pub fn saturating_add(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(other.0))
    }

    /// Returns the difference `self - other`, or [`SimTime::ZERO`] if `other`
    /// is later (no negative spans).
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Returns the later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime::from_millis(1500));
        assert_eq!(SimTime::from_millis_f64(2.5), SimTime::from_micros(2500));
        assert!((SimTime::from_nanos(1_234_567).as_millis_f64() - 1.234567).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = SimTime::from_secs(3);
        let b = SimTime::from_secs(1);
        assert_eq!(a + b, SimTime::from_secs(4));
        assert_eq!(a - b, SimTime::from_secs(2));
        assert_eq!(b * 5, SimTime::from_secs(5));
        assert_eq!(a / 3, SimTime::from_secs(1));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.saturating_add(b), SimTime::from_secs(4));
        assert_eq!(a.saturating_add(SimTime::MAX), SimTime::MAX);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_secs(4));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn sum_of_spans() {
        let total: SimTime = (1..=4).map(SimTime::from_secs).sum();
        assert_eq!(total, SimTime::from_secs(10));
    }

    #[test]
    fn display_is_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_panic() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "SimTime overflow")]
    fn out_of_range_seconds_panic() {
        let _ = SimTime::from_secs_f64(2e10);
    }

    #[test]
    fn checked_conversion_rejects_what_the_panicking_one_would() {
        for secs in [0.0, 1.5, 1_440.999_999_999, 1.8e10] {
            assert_eq!(
                SimTime::checked_from_secs_f64(secs),
                Some(SimTime::from_secs_f64(secs))
            );
        }
        for secs in [-1.0, -0.0001, 1.9e10, 2e10, 1e300, f64::INFINITY, f64::NAN] {
            assert_eq!(SimTime::checked_from_secs_f64(secs), None, "{secs}");
        }
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            SimTime::from_secs(3),
            SimTime::ZERO,
            SimTime::from_millis(1),
            SimTime::MAX,
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(1),
                SimTime::from_secs(3),
                SimTime::MAX
            ]
        );
    }
}
