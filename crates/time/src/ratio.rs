//! An exact `i128` rational number.
//!
//! The workspace avoids external big-number crates; delay observations are
//! `i64` nanoseconds and the only divisions performed by the algorithms are
//! by cycle lengths (`≤ n`) and by `2` (the round-trip bias estimator), so
//! an `i128` numerator/denominator pair normalized by gcd has enormous
//! headroom. All operations are checked and panic on (practically
//! unreachable) overflow rather than silently losing exactness.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::Nanos;

/// An exact rational number with `i128` numerator and denominator.
///
/// Invariants: the denominator is strictly positive and
/// `gcd(|num|, den) == 1`. These are established by every constructor and
/// preserved by every operation, so [`PartialEq`]/[`Hash`] agree with
/// mathematical equality.
///
/// # Examples
///
/// ```
/// use clocksync_time::Ratio;
///
/// let third = Ratio::new(1, 3);
/// assert_eq!(third + third + third, Ratio::from_int(1));
/// assert_eq!(Ratio::new(2, 6), third);
/// assert!(Ratio::new(-1, 2) < Ratio::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ratio {
    num: i128,
    den: i128,
}

const fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    if a < 0 {
        -a
    } else {
        a
    }
}

impl Ratio {
    /// The rational zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Creates the rational `num / den` in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    #[inline]
    pub fn new(num: i128, den: i128) -> Ratio {
        // Estimates are integer or half nanoseconds: denominators 1 and 2
        // reduce without a gcd or an i128 division. Inlined so that loops
        // in other crates, such as the closure cache's conversion, take
        // this path without a call.
        match den {
            1 => Ratio { num, den: 1 },
            2 if num % 2 == 0 => Ratio {
                num: num >> 1,
                den: 1,
            },
            2 => Ratio { num, den: 2 },
            _ => Ratio::reduced(num, den),
        }
    }

    /// [`Ratio::new`] through the gcd, for any denominator.
    fn reduced(num: i128, den: i128) -> Ratio {
        assert!(den != 0, "Ratio denominator must be nonzero");
        let g = gcd(num, den);
        let (mut num, mut den) = if g == 0 { (0, 1) } else { (num / g, den / g) };
        if den < 0 {
            num = -num;
            den = -den;
        }
        Ratio { num, den }
    }

    /// Creates the integer rational `n / 1`.
    pub const fn from_int(n: i128) -> Ratio {
        Ratio { num: n, den: 1 }
    }

    /// Returns the numerator (in lowest terms, sign-carrying).
    pub const fn numerator(self) -> i128 {
        self.num
    }

    /// Returns the denominator (in lowest terms, strictly positive).
    pub const fn denominator(self) -> i128 {
        self.den
    }

    /// Returns `true` if the value is an integer.
    pub const fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Returns `true` if the value is zero.
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Returns `true` if the value is strictly negative.
    pub const fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Returns `true` if the value is strictly positive.
    pub const fn is_positive(self) -> bool {
        self.num > 0
    }

    /// Absolute value.
    pub fn abs(self) -> Ratio {
        Ratio {
            num: self.num.checked_abs().expect("Ratio::abs overflow"),
            den: self.den,
        }
    }

    /// The smaller of two rationals.
    pub fn min(self, other: Ratio) -> Ratio {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two rationals.
    pub fn max(self, other: Ratio) -> Ratio {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Converts to `f64` (for reporting only; may round).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Rounds to the nearest whole [`Nanos`] (ties away from zero).
    ///
    /// # Panics
    ///
    /// Panics if the result does not fit in `i64` nanoseconds.
    pub fn round_nanos(self) -> Nanos {
        let q = self.num / self.den;
        let r = self.num % self.den;
        let rounded = if 2 * r.abs() >= self.den {
            q + r.signum()
        } else {
            q
        };
        Nanos::new(i64::try_from(rounded).expect("Ratio does not fit in Nanos"))
    }

    /// Floor to whole nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if the result does not fit in `i64` nanoseconds.
    pub fn floor_nanos(self) -> Nanos {
        let mut q = self.num / self.den;
        if self.num % self.den != 0 && self.num < 0 {
            q -= 1;
        }
        Nanos::new(i64::try_from(q).expect("Ratio does not fit in Nanos"))
    }

    /// Ceiling to whole nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if the result does not fit in `i64` nanoseconds.
    pub fn ceil_nanos(self) -> Nanos {
        let mut q = self.num / self.den;
        if self.num % self.den != 0 && self.num > 0 {
            q += 1;
        }
        Nanos::new(i64::try_from(q).expect("Ratio does not fit in Nanos"))
    }

    /// Checked addition, `None` on `i128` overflow.
    pub fn checked_add(self, rhs: Ratio) -> Option<Ratio> {
        let g = gcd(self.den, rhs.den);
        let lcm_factor = rhs.den / g;
        let den = self.den.checked_mul(lcm_factor)?;
        let a = self.num.checked_mul(lcm_factor)?;
        let b = rhs.num.checked_mul(self.den / g)?;
        Some(Ratio::new(a.checked_add(b)?, den))
    }

    /// Checked multiplication, `None` on `i128` overflow.
    pub fn checked_mul(self, rhs: Ratio) -> Option<Ratio> {
        // Cross-reduce before multiplying to keep intermediates small.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let num = (self.num / g1).checked_mul(rhs.num / g2)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1)?;
        Some(Ratio::new(num, den))
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::ZERO
    }
}

impl From<Nanos> for Ratio {
    fn from(n: Nanos) -> Ratio {
        Ratio::from_int(n.as_nanos() as i128)
    }
}

impl From<i64> for Ratio {
    fn from(n: i64) -> Ratio {
        Ratio::from_int(n as i128)
    }
}

impl Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        self.checked_add(rhs).expect("Ratio addition overflow")
    }
}

impl AddAssign for Ratio {
    fn add_assign(&mut self, rhs: Ratio) {
        *self = *self + rhs;
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: Ratio) -> Ratio {
        self + (-rhs)
    }
}

impl SubAssign for Ratio {
    fn sub_assign(&mut self, rhs: Ratio) {
        *self = *self - rhs;
    }
}

impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        Ratio {
            num: self.num.checked_neg().expect("Ratio negation overflow"),
            den: self.den,
        }
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        self.checked_mul(rhs)
            .expect("Ratio multiplication overflow")
    }
}

impl Div for Ratio {
    type Output = Ratio;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: Ratio) -> Ratio {
        assert!(!rhs.is_zero(), "Ratio division by zero");
        self * Ratio::new(rhs.den, rhs.num)
    }
}

impl Sum for Ratio {
    fn sum<I: Iterator<Item = Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::ZERO, Add::add)
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Ratio) -> Ordering {
        // Compare a/b vs c/d via a·(d/g) vs c·(b/g); the gcd-reduced i128
        // cross products almost always fit. When they do not (adversarial
        // denominators from long exact-arithmetic chains), fall back to a
        // full 256-bit magnitude comparison — comparison can always be
        // answered exactly even when the products cannot be represented.
        let g = gcd(self.den, other.den);
        let ld = other.den / g;
        let rd = self.den / g;
        match (self.num.checked_mul(ld), other.num.checked_mul(rd)) {
            (Some(lhs), Some(rhs)) => lhs.cmp(&rhs),
            _ => {
                // Denominators are strictly positive, so each product's sign
                // is its numerator's sign; only equal-sign pairs need the
                // wide magnitude comparison.
                let (sa, sc) = (self.num.signum(), other.num.signum());
                if sa != sc {
                    return sa.cmp(&sc);
                }
                let lhs = wide_mul(self.num.unsigned_abs(), ld as u128);
                let rhs = wide_mul(other.num.unsigned_abs(), rd as u128);
                if sa >= 0 {
                    lhs.cmp(&rhs)
                } else {
                    rhs.cmp(&lhs)
                }
            }
        }
    }
}

/// Full 256-bit product of two unsigned 128-bit values as `(hi, lo)` limbs;
/// the tuple order makes lexicographic `Ord` a magnitude comparison.
fn wide_mul(a: u128, b: u128) -> (u128, u128) {
    const MASK: u128 = (1 << 64) - 1;
    let (ah, al) = (a >> 64, a & MASK);
    let (bh, bl) = (b >> 64, b & MASK);
    let ll = al * bl;
    let lh = al * bh;
    let hl = ah * bl;
    let mid = (ll >> 64) + (lh & MASK) + (hl & MASK);
    let lo = (mid << 64) | (ll & MASK);
    let hi = ah * bh + (lh >> 64) + (hl >> 64) + (mid >> 64);
    (hi, lo)
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalization() {
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(-2, -4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(2, -4), Ratio::new(-1, 2));
        assert_eq!(Ratio::new(0, -7), Ratio::ZERO);
        assert_eq!(Ratio::new(6, 3).denominator(), 1);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Ratio::new(1, 6);
        let b = Ratio::new(1, 3);
        assert_eq!(a + b, Ratio::new(1, 2));
        assert_eq!(b - a, a);
        assert_eq!(a * b, Ratio::new(1, 18));
        assert_eq!(b / a, Ratio::from_int(2));
        assert_eq!(-a, Ratio::new(-1, 6));
    }

    #[test]
    fn ordering() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(-1, 2) < Ratio::new(-1, 3));
        assert!(Ratio::new(7, 7) == Ratio::ONE);
        assert_eq!(Ratio::new(3, 4).max(Ratio::new(2, 3)), Ratio::new(3, 4));
        assert_eq!(Ratio::new(3, 4).min(Ratio::new(2, 3)), Ratio::new(2, 3));
    }

    #[test]
    fn rounding() {
        assert_eq!(Ratio::new(5, 2).round_nanos(), Nanos::new(3));
        assert_eq!(Ratio::new(-5, 2).round_nanos(), Nanos::new(-3));
        assert_eq!(Ratio::new(7, 3).round_nanos(), Nanos::new(2));
        assert_eq!(Ratio::new(7, 3).floor_nanos(), Nanos::new(2));
        assert_eq!(Ratio::new(7, 3).ceil_nanos(), Nanos::new(3));
        assert_eq!(Ratio::new(-7, 3).floor_nanos(), Nanos::new(-3));
        assert_eq!(Ratio::new(-7, 3).ceil_nanos(), Nanos::new(-2));
        assert_eq!(Ratio::from_int(4).round_nanos(), Nanos::new(4));
    }

    #[test]
    fn predicates() {
        assert!(Ratio::ZERO.is_zero());
        assert!(Ratio::new(-1, 5).is_negative());
        assert!(Ratio::new(1, 5).is_positive());
        assert!(Ratio::from_int(3).is_integer());
        assert!(!Ratio::new(1, 3).is_integer());
        assert_eq!(Ratio::new(-3, 4).abs(), Ratio::new(3, 4));
    }

    #[test]
    fn conversions() {
        assert_eq!(Ratio::from(Nanos::new(42)), Ratio::from_int(42));
        assert_eq!(Ratio::from(7i64), Ratio::from_int(7));
        assert_eq!(Ratio::new(1, 2).to_f64(), 0.5);
    }

    #[test]
    fn display() {
        assert_eq!(Ratio::from_int(5).to_string(), "5");
        assert_eq!(Ratio::new(-1, 2).to_string(), "-1/2");
    }

    #[test]
    fn sum_of_iterator() {
        let s: Ratio = (1..=3).map(|k| Ratio::new(1, k)).sum();
        assert_eq!(s, Ratio::new(11, 6));
    }

    #[test]
    fn comparison_survives_cross_multiplication_overflow() {
        // Adversarial denominators: the gcd of 2^100 and 2^100 + 2 is only
        // 2, so the reduced cross products are ≈ 2^199 and overflow i128.
        // x = 1 + 1/2^100 and y = 1 + 1/(2^100 + 2); x is larger.
        let big = 1i128 << 100;
        let x = Ratio::new(big + 1, big);
        let y = Ratio::new(big + 3, big + 2);
        assert!(x > y);
        assert!(y < x);
        assert_eq!(x.cmp(&x), Ordering::Equal);
        assert_eq!(y.cmp(&y), Ordering::Equal);
        // Negative mirror images reverse the order.
        assert!(-x < -y);
        assert_eq!((-x).cmp(&(-y)), Ordering::Less);
        // min/max route through cmp.
        assert_eq!(x.max(y), x);
        assert_eq!((-x).min(-y), -x);
    }

    #[test]
    fn comparison_overflow_on_one_side_only() {
        // Only the right-hand cross product overflows: 3·2^100 fits but
        // (2^100 − 1)·(2^100 + 1) = 2^200 − 1 does not.
        let big = 1i128 << 100;
        let small = Ratio::new(3, big + 1);
        let near_one = Ratio::new(big - 1, big);
        assert!(small < near_one);
        assert!(near_one > small);
        // Opposite signs with unrepresentable magnitudes decide by sign.
        assert!(-near_one < small);
        assert!(Ratio::new(-(big + 1), big) < Ratio::new(big + 3, big + 2));
    }

    #[test]
    fn wide_mul_matches_known_products() {
        assert_eq!(wide_mul(0, u128::MAX), (0, 0));
        assert_eq!(wide_mul(1, u128::MAX), (0, u128::MAX));
        assert_eq!(wide_mul(1 << 64, 1 << 64), (1, 0));
        assert_eq!(wide_mul(u128::MAX, u128::MAX), (u128::MAX - 1, 1));
        assert_eq!(wide_mul(u128::MAX, 2), (1, u128::MAX - 1));
    }

    proptest! {
        /// The denominator-1 and -2 fast path of `Ratio::new` equals the
        /// gcd path, zero and negative numerators included.
        #[test]
        fn new_fast_path_matches_gcd_path(
            num in prop_oneof![-4i128..=4, -(1i128 << 100)..=(1i128 << 100)],
        ) {
            for den in [1, 2] {
                let fast = Ratio::new(num, den);
                prop_assert_eq!(fast, Ratio::reduced(num, den));
                prop_assert!(fast.den > 0 && gcd(fast.num, fast.den) == 1);
            }
        }
    }

    #[test]
    fn checked_ops_catch_overflow() {
        let big = Ratio::from_int(i128::MAX);
        assert!(big.checked_add(Ratio::ONE).is_none());
        assert!(big.checked_mul(Ratio::from_int(2)).is_none());
        assert_eq!(
            Ratio::new(1, 2).checked_add(Ratio::new(1, 2)),
            Some(Ratio::ONE)
        );
    }
}
