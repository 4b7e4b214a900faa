//! Integer nanosecond quantities and the two time axes of the model.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A signed duration or offset in whole nanoseconds.
///
/// `Nanos` is the base quantity for everything measured in time units:
/// message delays, delay bounds, start offsets and clock readings all reduce
/// to it. The representation is a signed 64-bit count of nanoseconds, which
/// covers roughly ±292 years — far more than any execution this workspace
/// simulates.
///
/// Arithmetic panics on overflow (debug and release): overflowing a
/// ±292-year range indicates corrupted input, and silently wrapping would
/// destroy the exactness guarantees the rest of the workspace relies on.
///
/// # Examples
///
/// ```
/// use clocksync_time::Nanos;
///
/// let d = Nanos::from_millis(3) - Nanos::from_micros(500);
/// assert_eq!(d, Nanos::from_micros(2_500));
/// assert_eq!(d.as_nanos(), 2_500_000);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Nanos(i64);

impl Nanos {
    /// The zero duration.
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable duration.
    pub const MAX: Nanos = Nanos(i64::MAX);
    /// The smallest (most negative) representable duration.
    pub const MIN: Nanos = Nanos(i64::MIN);

    /// Creates a duration from a raw nanosecond count.
    ///
    /// ```
    /// use clocksync_time::Nanos;
    /// assert_eq!(Nanos::new(1_000).as_micros_f64(), 1.0);
    /// ```
    pub const fn new(nanos: i64) -> Self {
        Nanos(nanos)
    }

    /// `count` units of `unit` nanoseconds, or `None` past `i64`
    /// nanoseconds. The checked multiply behind every unit constructor:
    /// each panics on `None` with a message naming itself, in release
    /// builds too.
    const fn scaled(count: i64, unit: i64) -> Option<Nanos> {
        match count.checked_mul(unit) {
            Some(nanos) => Some(Nanos(nanos)),
            None => None,
        }
    }

    /// Creates a duration of `micros` microseconds.
    ///
    /// # Panics
    ///
    /// Panics if the result overflows `i64` nanoseconds.
    pub const fn from_micros(micros: i64) -> Self {
        match Nanos::scaled(micros, 1_000) {
            Some(d) => d,
            None => panic!("Nanos::from_micros overflow"),
        }
    }

    /// Creates a duration of `millis` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the result overflows `i64` nanoseconds.
    pub const fn from_millis(millis: i64) -> Self {
        match Nanos::scaled(millis, 1_000_000) {
            Some(d) => d,
            None => panic!("Nanos::from_millis overflow"),
        }
    }

    /// Creates a duration of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if the result overflows `i64` nanoseconds.
    pub const fn from_secs(secs: i64) -> Self {
        match Nanos::scaled(secs, 1_000_000_000) {
            Some(d) => d,
            None => panic!("Nanos::from_secs overflow"),
        }
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> i64 {
        self.0
    }

    /// Returns the value in microseconds as a float (for reporting only).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the value in milliseconds as a float (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the value in seconds as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Absolute value.
    ///
    /// # Panics
    ///
    /// Panics if `self` is [`Nanos::MIN`] (whose absolute value is not
    /// representable).
    pub fn abs(self) -> Nanos {
        Nanos(self.0.checked_abs().expect("Nanos::abs overflow"))
    }

    /// Checked addition, returning `None` on overflow.
    pub fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_add(rhs.0).map(Nanos)
    }

    /// Checked subtraction, returning `None` on overflow.
    pub fn checked_sub(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_sub(rhs.0).map(Nanos)
    }

    /// Checked negation, returning `None` for [`Nanos::MIN`] (whose
    /// negation is not representable).
    pub fn checked_neg(self) -> Option<Nanos> {
        self.0.checked_neg().map(Nanos)
    }

    /// Checked multiplication by an integer factor, returning `None` on
    /// overflow.
    pub fn checked_mul(self, factor: i64) -> Option<Nanos> {
        self.0.checked_mul(factor).map(Nanos)
    }

    /// Checked absolute value, returning `None` for [`Nanos::MIN`].
    pub fn checked_abs(self) -> Option<Nanos> {
        self.0.checked_abs().map(Nanos)
    }

    /// Returns `true` if the duration is negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Saturating multiplication by an integer factor.
    pub fn saturating_mul(self, factor: i64) -> Nanos {
        Nanos(self.0.saturating_mul(factor))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Nanos) -> Nanos {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Nanos) -> Nanos {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0;
        let abs = n.unsigned_abs();
        if abs >= 1_000_000_000 && abs.is_multiple_of(1_000_000) {
            write!(f, "{}.{:03}s", n / 1_000_000_000, (abs / 1_000_000) % 1_000)
        } else if abs >= 1_000_000 && abs.is_multiple_of(1_000) {
            write!(f, "{}.{:03}ms", n / 1_000_000, (abs / 1_000) % 1_000)
        } else if abs >= 1_000 && abs.is_multiple_of(1_000) {
            write!(f, "{}us", n / 1_000)
        } else {
            write!(f, "{n}ns")
        }
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.checked_add(rhs.0).expect("Nanos addition overflow"))
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        *self = *self + rhs;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(
            self.0
                .checked_sub(rhs.0)
                .expect("Nanos subtraction overflow"),
        )
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        *self = *self - rhs;
    }
}

impl Neg for Nanos {
    type Output = Nanos;
    fn neg(self) -> Nanos {
        Nanos(self.0.checked_neg().expect("Nanos negation overflow"))
    }
}

impl Mul<i64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: i64) -> Nanos {
        Nanos(
            self.0
                .checked_mul(rhs)
                .expect("Nanos multiplication overflow"),
        )
    }
}

impl Div<i64> for Nanos {
    type Output = Nanos;
    /// Integer division (truncating toward zero). For exact halves use
    /// [`crate::Ratio`] instead.
    fn div(self, rhs: i64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

/// A point on a processor's *local clock* axis.
///
/// In the paper's model a processor's clock starts at `0` when the processor
/// starts and advances at the rate of real time; the processor only ever
/// observes `ClockTime` values. Keeping this a distinct type from
/// [`RealTime`] makes it a compile error to conflate what a processor can
/// see with what only the outside observer can see.
///
/// ```
/// use clocksync_time::{ClockTime, Nanos};
/// let t = ClockTime::ZERO + Nanos::from_millis(5);
/// assert_eq!(t - ClockTime::ZERO, Nanos::from_millis(5));
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct ClockTime(Nanos);

/// A point on the *real time* axis (the outside observer's clock).
///
/// Real times appear only in the execution/simulation layers and in
/// evaluation code; the synchronization algorithm itself never reads one.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct RealTime(Nanos);

macro_rules! time_point {
    ($ty:ident) => {
        impl $ty {
            /// The origin of this time axis.
            pub const ZERO: $ty = $ty(Nanos::ZERO);

            /// Creates a time point from an offset from the axis origin.
            pub const fn from_offset(offset: Nanos) -> Self {
                $ty(offset)
            }

            /// Creates a time point `nanos` nanoseconds after the origin.
            pub const fn from_nanos(nanos: i64) -> Self {
                $ty(Nanos::new(nanos))
            }

            /// Creates a time point `micros` microseconds after the origin.
            ///
            /// # Panics
            ///
            /// Panics if the offset overflows `i64` nanoseconds.
            pub const fn from_micros(micros: i64) -> Self {
                match Nanos::scaled(micros, 1_000) {
                    Some(d) => $ty(d),
                    None => panic!(concat!(stringify!($ty), "::from_micros overflow")),
                }
            }

            /// Creates a time point `millis` milliseconds after the origin.
            ///
            /// # Panics
            ///
            /// Panics if the offset overflows `i64` nanoseconds.
            pub const fn from_millis(millis: i64) -> Self {
                match Nanos::scaled(millis, 1_000_000) {
                    Some(d) => $ty(d),
                    None => panic!(concat!(stringify!($ty), "::from_millis overflow")),
                }
            }

            /// Creates a time point `secs` seconds after the origin.
            ///
            /// # Panics
            ///
            /// Panics if the offset overflows `i64` nanoseconds.
            pub const fn from_secs(secs: i64) -> Self {
                match Nanos::scaled(secs, 1_000_000_000) {
                    Some(d) => $ty(d),
                    None => panic!(concat!(stringify!($ty), "::from_secs overflow")),
                }
            }

            /// Returns the offset of this point from the axis origin.
            pub const fn offset(self) -> Nanos {
                self.0
            }

            /// Returns the raw nanosecond offset from the axis origin.
            pub const fn as_nanos(self) -> i64 {
                self.0.as_nanos()
            }

            /// Returns the earlier of two time points.
            pub fn min(self, other: $ty) -> $ty {
                if self <= other {
                    self
                } else {
                    other
                }
            }

            /// Returns the later of two time points.
            pub fn max(self, other: $ty) -> $ty {
                if self >= other {
                    self
                } else {
                    other
                }
            }

            /// Checked difference between two points on this axis,
            /// returning `None` when `self - rhs` overflows. Ingestion
            /// paths fed untrusted clock readings use this instead of the
            /// panicking `Sub` operator.
            pub fn checked_sub(self, rhs: $ty) -> Option<Nanos> {
                self.0.checked_sub(rhs.0)
            }
        }

        impl Add<Nanos> for $ty {
            type Output = $ty;
            fn add(self, rhs: Nanos) -> $ty {
                $ty(self.0 + rhs)
            }
        }

        impl AddAssign<Nanos> for $ty {
            fn add_assign(&mut self, rhs: Nanos) {
                self.0 += rhs;
            }
        }

        impl Sub<Nanos> for $ty {
            type Output = $ty;
            fn sub(self, rhs: Nanos) -> $ty {
                $ty(self.0 - rhs)
            }
        }

        impl Sub for $ty {
            type Output = Nanos;
            fn sub(self, rhs: $ty) -> Nanos {
                self.0 - rhs.0
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

time_point!(ClockTime);
time_point!(RealTime);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(Nanos::from_micros(1).as_nanos(), 1_000);
        assert_eq!(Nanos::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(Nanos::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Nanos::from_secs(-2).as_nanos(), -2_000_000_000);
        // The largest counts that fit, in either direction.
        assert_eq!(
            Nanos::from_micros(i64::MAX / 1_000).as_nanos(),
            i64::MAX / 1_000 * 1_000
        );
        assert_eq!(
            RealTime::from_secs(i64::MIN / 1_000_000_000).as_nanos(),
            -9_223_372_036_000_000_000
        );
        assert_eq!(ClockTime::from_millis(-3).as_nanos(), -3_000_000);
    }

    // Each unit constructor names itself when the count passes i64
    // nanoseconds, in release builds as in debug ones.

    #[test]
    #[should_panic(expected = "Nanos::from_micros overflow")]
    fn nanos_from_micros_overflow_panics() {
        let _ = Nanos::from_micros(i64::MAX / 1_000 + 1);
    }

    #[test]
    #[should_panic(expected = "Nanos::from_millis overflow")]
    fn nanos_from_millis_overflow_panics() {
        let _ = Nanos::from_millis(i64::MIN / 1_000_000 - 1);
    }

    #[test]
    #[should_panic(expected = "Nanos::from_secs overflow")]
    fn nanos_from_secs_overflow_panics() {
        let _ = Nanos::from_secs(i64::MAX / 1_000_000_000 + 1);
    }

    #[test]
    #[should_panic(expected = "RealTime::from_micros overflow")]
    fn real_time_from_micros_overflow_panics() {
        let _ = RealTime::from_micros(i64::MIN / 1_000 - 1);
    }

    #[test]
    #[should_panic(expected = "RealTime::from_millis overflow")]
    fn real_time_from_millis_overflow_panics() {
        let _ = RealTime::from_millis(i64::MAX / 1_000_000 + 1);
    }

    #[test]
    #[should_panic(expected = "RealTime::from_secs overflow")]
    fn real_time_from_secs_overflow_panics() {
        let _ = RealTime::from_secs(i64::MIN / 1_000_000_000 - 1);
    }

    #[test]
    #[should_panic(expected = "ClockTime::from_micros overflow")]
    fn clock_time_from_micros_overflow_panics() {
        let _ = ClockTime::from_micros(i64::MAX / 1_000 + 1);
    }

    #[test]
    #[should_panic(expected = "ClockTime::from_millis overflow")]
    fn clock_time_from_millis_overflow_panics() {
        let _ = ClockTime::from_millis(i64::MIN / 1_000_000 - 1);
    }

    #[test]
    #[should_panic(expected = "ClockTime::from_secs overflow")]
    fn clock_time_from_secs_overflow_panics() {
        let _ = ClockTime::from_secs(i64::MAX / 1_000_000_000 + 1);
    }

    #[test]
    fn arithmetic_basics() {
        let a = Nanos::from_millis(5);
        let b = Nanos::from_millis(2);
        assert_eq!(a + b, Nanos::from_millis(7));
        assert_eq!(a - b, Nanos::from_millis(3));
        assert_eq!(-a, Nanos::from_millis(-5));
        assert_eq!(a * 3, Nanos::from_millis(15));
        assert_eq!(a / 5, Nanos::from_millis(1));
    }

    #[test]
    fn min_max_abs() {
        let a = Nanos::new(-7);
        let b = Nanos::new(3);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.abs(), Nanos::new(7));
        assert!(a.is_negative());
        assert!(!b.is_negative());
    }

    #[test]
    fn checked_ops_detect_overflow() {
        assert_eq!(Nanos::MAX.checked_add(Nanos::new(1)), None);
        assert_eq!(Nanos::MIN.checked_sub(Nanos::new(1)), None);
        assert_eq!(
            Nanos::new(1).checked_add(Nanos::new(2)),
            Some(Nanos::new(3))
        );
        assert_eq!(Nanos::MIN.checked_neg(), None);
        assert_eq!(Nanos::new(-3).checked_neg(), Some(Nanos::new(3)));
        assert_eq!(Nanos::MAX.checked_mul(2), None);
        assert_eq!(Nanos::new(4).checked_mul(3), Some(Nanos::new(12)));
        assert_eq!(Nanos::MIN.checked_abs(), None);
        assert_eq!(Nanos::new(-5).checked_abs(), Some(Nanos::new(5)));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn add_overflow_panics() {
        let _ = Nanos::MAX + Nanos::new(1);
    }

    #[test]
    fn sum_of_iterator() {
        let total: Nanos = (1..=4).map(Nanos::new).sum();
        assert_eq!(total, Nanos::new(10));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Nanos::new(5).to_string(), "5ns");
        assert_eq!(Nanos::from_micros(7).to_string(), "7us");
        assert_eq!(Nanos::from_millis(1).to_string(), "1.000ms");
        assert_eq!(Nanos::from_secs(2).to_string(), "2.000s");
        assert_eq!(Nanos::from_millis(1500).to_string(), "1.500s");
        assert_eq!(Nanos::new(-5).to_string(), "-5ns");
    }

    #[test]
    fn clock_and_real_time_are_distinct_axes() {
        let c = ClockTime::from_nanos(100);
        let r = RealTime::from_nanos(100);
        assert_eq!(c + Nanos::new(50) - c, Nanos::new(50));
        assert_eq!(r - RealTime::ZERO, Nanos::new(100));
        assert_eq!(c.offset(), Nanos::new(100));
        assert_eq!(r.max(RealTime::ZERO), r);
        assert_eq!(r.min(RealTime::ZERO), RealTime::ZERO);
    }

    #[test]
    fn time_point_ordering() {
        assert!(RealTime::from_nanos(1) < RealTime::from_nanos(2));
        assert!(ClockTime::from_nanos(-1) < ClockTime::ZERO);
    }

    #[test]
    fn time_point_checked_sub() {
        let far = ClockTime::from_nanos(i64::MAX);
        let deep = ClockTime::from_nanos(i64::MIN);
        assert_eq!(far.checked_sub(deep), None);
        assert_eq!(
            ClockTime::from_nanos(10).checked_sub(ClockTime::from_nanos(3)),
            Some(Nanos::new(7))
        );
        assert_eq!(
            RealTime::from_nanos(1).checked_sub(RealTime::from_nanos(2)),
            Some(Nanos::new(-1))
        );
    }
}
