//! Drift-aware decay arithmetic: the bound a drifting clock's readings
//! can wander by.
//!
//! The paper's estimates are *instantaneous*: an `m̃ls`/`m̃s` bound is
//! exact at the moment the views were recorded and silently assumes the
//! clocks never move again. Real oscillators drift by parts-per-million,
//! so a bound certified at time `t₀` is only sound at a later time `t`
//! if it is widened by the drift the clocks may have accumulated over
//! `Δt = t − t₀`. [`DriftBound`] is that declared worst-case rate `ρ̄` in
//! ppm, with the exact decay product `ρ̄·Δt/10⁶` as a [`Ratio`];
//! `clocksync::DriftingOutcome` widens a whole certificate by it.
//!
//! A zero rate degenerates bit-exactly to the drift-free value: the
//! decay term is the exact rational `0`, and adding it is the identity
//! on normalized [`Ratio`]s.

use crate::{Nanos, Ratio};

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
    fn combined_rates_add() {
        let a = DriftBound::from_ppm(30);
        let b = DriftBound::from_ppm(50);
        assert_eq!(a.combined(b).ppm(), 80);
        assert!(DriftBound::ZERO.is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    #[should_panic(expected = "magnitude")]
    fn negative_rates_are_rejected() {
        let _ = DriftBound::from_ppm(-1);
    }
}
