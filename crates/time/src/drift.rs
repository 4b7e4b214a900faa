//! Drift-aware decay arithmetic: estimates that widen as clocks drift.
//!
//! The paper's estimates are *instantaneous*: an `m̃ls`/`m̃s` bound is
//! exact at the moment the views were recorded and silently assumes the
//! clocks never move again. Real oscillators drift by parts-per-million,
//! so a bound certified at time `t₀` is only sound at a later time `t`
//! if it is widened by the drift the clocks may have accumulated over
//! `Δt = t − t₀`. This module provides the two primitives that make
//! those decayed queries exact:
//!
//! * [`DriftBound`] — a declared worst-case drift rate `ρ̄` in ppm, with
//!   the exact decay product `ρ̄·Δt/10⁶` as a [`Ratio`];
//! * [`DriftingEstimate`] — an upper estimate carrying its validity
//!   timestamp and decay rate, queryable at any later (or earlier) real
//!   time; the answer is the estimate plus the accumulated decay and is
//!   therefore still a sound upper bound.
//!
//! A zero rate degenerates bit-exactly to the drift-free value: the
//! decay term is the exact rational `0`, and adding it is the identity
//! on normalized [`Ratio`]s.

use crate::{Ext, ExtRatio, Nanos, Ratio, RealTime};

/// A worst-case clock drift rate `ρ̄`, in parts per million.
///
/// `DriftBound` is a *declared bound*, not a measurement: a processor
/// whose clock runs at rate `1 + ρ/10⁶` with `|ρ| ≤ ρ̄` satisfies the
/// bound. Rates are nonnegative by construction (a bound on a
/// magnitude).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DriftBound {
    ppm: i64,
}

impl DriftBound {
    /// The drift-free bound: decays are exactly zero.
    pub const ZERO: DriftBound = DriftBound { ppm: 0 };

    /// A bound of `ppm` parts per million.
    ///
    /// # Panics
    ///
    /// Panics if `ppm` is negative — a drift *bound* is a magnitude.
    pub fn from_ppm(ppm: i64) -> DriftBound {
        assert!(ppm >= 0, "a drift bound is a magnitude, got {ppm} ppm");
        DriftBound { ppm }
    }

    /// The bound in parts per million.
    pub fn ppm(self) -> i64 {
        self.ppm
    }

    /// Whether this is the drift-free bound.
    pub fn is_zero(self) -> bool {
        self.ppm == 0
    }

    /// The larger of two bounds.
    #[must_use]
    pub fn max(self, other: DriftBound) -> DriftBound {
        if self.ppm >= other.ppm {
            self
        } else {
            other
        }
    }

    /// The combined bound of two independently drifting clocks: their
    /// mutual divergence rate is at most the sum of the individual
    /// rates.
    #[must_use]
    pub fn combined(self, other: DriftBound) -> DriftBound {
        DriftBound {
            ppm: self.ppm + other.ppm,
        }
    }

    /// The exact worst-case reading drift over an elapsed interval:
    /// `ρ̄·|Δt|/10⁶` as a rational, with no rounding. The magnitude is
    /// used so querying *before* the validity instant also widens —
    /// sound in both directions.
    pub fn decay_over(self, dt: Nanos) -> Ratio {
        Ratio::new(
            i128::from(dt.abs().as_nanos()) * i128::from(self.ppm),
            1_000_000,
        )
    }
}

/// An upper estimate with a validity timestamp and a decay rate.
///
/// `value` is sound at `valid_at`; at any other real time `t` the sound
/// bound is `value + rate·|t − valid_at|/10⁶` ([`DriftingEstimate::value_at`]).
/// The query is O(1): one multiplication and one rational addition,
/// independent of how the estimate was derived.
///
/// # Examples
///
/// ```
/// use clocksync_time::{DriftBound, DriftingEstimate, Ext, Nanos, Ratio, RealTime};
///
/// let est = DriftingEstimate::new(
///     Ext::Finite(Ratio::from_int(1_000)),
///     RealTime::ZERO,
///     DriftBound::from_ppm(100),
/// );
/// // One second later the bound has decayed by 100ppm × 1s = 100µs.
/// let later = est.value_at(RealTime::ZERO + Nanos::from_secs(1));
/// assert_eq!(later, Ext::Finite(Ratio::from_int(1_000 + 100_000)));
/// // A zero-rate estimate never decays, bit-exactly.
/// let frozen = est.with_rate(DriftBound::ZERO);
/// assert_eq!(frozen.value_at(RealTime::ZERO + Nanos::from_secs(3600)), est.value());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriftingEstimate {
    value: ExtRatio,
    valid_at: RealTime,
    rate: DriftBound,
}

impl DriftingEstimate {
    /// An estimate `value`, exact at `valid_at`, decaying at `rate`.
    pub fn new(value: ExtRatio, valid_at: RealTime, rate: DriftBound) -> DriftingEstimate {
        DriftingEstimate {
            value,
            valid_at,
            rate,
        }
    }

    /// A drift-free estimate (rate zero): `value_at` is constant.
    pub fn pinned(value: ExtRatio, valid_at: RealTime) -> DriftingEstimate {
        DriftingEstimate::new(value, valid_at, DriftBound::ZERO)
    }

    /// The undecayed value (exact at [`DriftingEstimate::valid_at`]).
    pub fn value(&self) -> ExtRatio {
        self.value
    }

    /// The instant at which [`DriftingEstimate::value`] is exact.
    pub fn valid_at(&self) -> RealTime {
        self.valid_at
    }

    /// The decay rate.
    pub fn rate(&self) -> DriftBound {
        self.rate
    }

    /// The same estimate with a different decay rate.
    #[must_use]
    pub fn with_rate(&self, rate: DriftBound) -> DriftingEstimate {
        DriftingEstimate { rate, ..*self }
    }

    /// The sound bound at real time `t`: the value widened by the drift
    /// accumulated since (or until) the validity instant. Infinite
    /// values stay infinite — `+∞` cannot decay further.
    pub fn value_at(&self, t: RealTime) -> ExtRatio {
        match self.value {
            Ext::Finite(v) => Ext::Finite(v + self.rate.decay_over(t - self.valid_at)),
            inf => inf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_is_exact_rational_arithmetic() {
        let rate = DriftBound::from_ppm(3);
        // 3ppm over 1ns is 3/10⁶ — not representable in integer nanos,
        // exact as a rational.
        assert_eq!(rate.decay_over(Nanos::new(1)), Ratio::new(3, 1_000_000));
        assert_eq!(rate.decay_over(Nanos::from_secs(2)), Ratio::from_int(6_000));
        // Magnitude: querying before the validity instant widens too.
        assert_eq!(rate.decay_over(Nanos::new(-1_000_000)), Ratio::from_int(3));
    }

    #[test]
    fn zero_rate_is_bit_exact_identity() {
        let v = Ext::Finite(Ratio::new(7, 3));
        let est = DriftingEstimate::pinned(v, RealTime::from_nanos(5));
        for dt in [0i64, 1, 1_000_000_000, -273] {
            assert_eq!(est.value_at(RealTime::from_nanos(5 + dt)), v);
        }
    }

    #[test]
    fn infinite_estimates_stay_infinite() {
        let est = DriftingEstimate::new(Ext::PosInf, RealTime::ZERO, DriftBound::from_ppm(1_000));
        assert_eq!(
            est.value_at(RealTime::from_nanos(i64::MAX / 2)),
            Ext::PosInf
        );
    }

    #[test]
    fn combined_and_max_compose_rates() {
        let a = DriftBound::from_ppm(30);
        let b = DriftBound::from_ppm(50);
        assert_eq!(a.combined(b).ppm(), 80);
        assert_eq!(a.max(b), b);
        assert!(DriftBound::ZERO.is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    #[should_panic(expected = "magnitude")]
    fn negative_rates_are_rejected() {
        let _ = DriftBound::from_ppm(-1);
    }
}
