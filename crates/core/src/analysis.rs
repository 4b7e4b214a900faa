//! Per-instance optimality analysis (paper §3).
//!
//! The paper measures a correction vector `x̄` on execution `α` by
//! `ρ̄_α(x̄) = sup { ρ(α', x̄) : α' ≡ α admissible }` — the worst
//! discrepancy over all executions the processors cannot distinguish from
//! `α`. Claim 4.2 plus the attainability of maximal shifts give the closed
//! form implemented here:
//!
//! `ρ̄_α(x̄) = max_{p,q} ( m̃s_α(p,q) − x_p + x_q )`,
//!
//! which is computable from the views alone. This makes optimality a
//! *checkable* property: the test suites verify both that the SHIFTS
//! corrections achieve `ρ̄ = A_max` and that no alternative vector does
//! better.

use clocksync_graph::SquareMatrix;
use clocksync_model::ProcessorId;
use clocksync_time::{Ext, ExtRatio, Ratio};

/// Evaluates `ρ̄(x̄)` for an arbitrary correction vector against a closure
/// of global shift estimates.
///
/// Returns `+∞` iff some pair is unboundable (`m̃s = +∞`), `0` for systems
/// with fewer than two processors.
///
/// # Panics
///
/// Panics if `corrections.len() != closure.n()`.
pub fn rho_bar(closure: &SquareMatrix<ExtRatio>, corrections: &[Ratio]) -> ExtRatio {
    assert_eq!(
        corrections.len(),
        closure.n(),
        "correction vector has wrong length"
    );
    rho_bar_by(|p, q| closure[(p, q)], corrections)
}

/// [`rho_bar`] over a closure read one entry at a time, `m̃s(p, q) =
/// entry(p, q)`, with one correction per processor.
pub(crate) fn rho_bar_by(
    entry: impl Fn(usize, usize) -> ExtRatio,
    corrections: &[Ratio],
) -> ExtRatio {
    let zero = Ext::Finite(Ratio::ZERO);
    worst_bound(entry, corrections).map_or(zero, |(bound, _)| bound.max(zero))
}

/// The largest pair bound `m̃s(p, q) − x_p + x_q` over ordered pairs
/// `p ≠ q`, with the first pair in row-major order that attains it; `None`
/// for fewer than two processors. `m̃s(p, q) = entry(p, q)`.
pub(crate) fn worst_bound(
    entry: impl Fn(usize, usize) -> ExtRatio,
    corrections: &[Ratio],
) -> Option<(ExtRatio, (ProcessorId, ProcessorId))> {
    let n = corrections.len();
    let mut best: Option<(ExtRatio, (usize, usize))> = None;
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            let bound = entry(i, j) + Ext::Finite(corrections[j] - corrections[i]);
            match best {
                Some((b, _)) if b >= bound => {}
                _ => best = Some((bound, (i, j))),
            }
        }
    }
    best.map(|(bound, (i, j))| (bound, (ProcessorId(i), ProcessorId(j))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksync_graph::Weight;

    fn fin(x: i128) -> ExtRatio {
        Ext::Finite(Ratio::from_int(x))
    }

    fn two_node(a: i128, b: i128) -> SquareMatrix<ExtRatio> {
        let mut m = SquareMatrix::filled(2, <ExtRatio as Weight>::zero());
        m[(0, 1)] = fin(a);
        m[(1, 0)] = fin(b);
        m
    }

    #[test]
    fn rho_bar_of_zero_corrections_is_max_estimate() {
        let c = two_node(6, 2);
        assert_eq!(rho_bar(&c, &[Ratio::ZERO, Ratio::ZERO]), fin(6));
    }

    #[test]
    fn rho_bar_sees_corrections() {
        let c = two_node(6, 2);
        // x = (0, −2): bounds are 6−0−2 = 4 and 2−(−2)+0 = 4.
        assert_eq!(rho_bar(&c, &[Ratio::ZERO, Ratio::from_int(-2)]), fin(4));
        // Over-correcting makes the other direction worse.
        assert_eq!(rho_bar(&c, &[Ratio::ZERO, Ratio::from_int(-6)]), fin(8));
    }

    #[test]
    fn rho_bar_is_infinite_when_a_pair_is_unboundable() {
        let mut c = two_node(6, 2);
        c[(0, 1)] = Ext::PosInf;
        assert_eq!(rho_bar(&c, &[Ratio::ZERO, Ratio::ZERO]), Ext::PosInf);
    }

    #[test]
    fn rho_bar_never_negative() {
        // m̃s(0,1) = −5, m̃s(1,0) = 5: a tight one-sided constraint. The
        // pairwise sum is 0 so some direction is always ≥ 0.
        let c = two_node(-5, 5);
        let x = [Ratio::ZERO, Ratio::from_int(5)];
        assert_eq!(rho_bar(&c, &x), fin(0));
    }

    #[test]
    fn single_node_has_zero_rho_bar() {
        let c = SquareMatrix::filled(1, <ExtRatio as Weight>::zero());
        assert_eq!(rho_bar(&c, &[Ratio::ZERO]), fin(0));
        assert_eq!(worst_bound(|p, q| c[(p, q)], &[Ratio::ZERO]), None);
    }

    #[test]
    fn worst_pair_identifies_bottleneck() {
        let c = two_node(6, 2);
        let worst_pair = |x: [i128; 2]| {
            worst_bound(|p, q| c[(p, q)], &x.map(Ratio::from_int)).map(|(_, pair)| pair)
        };
        let (p0, p1) = (ProcessorId(0), ProcessorId(1));
        assert_eq!(worst_pair([0, 0]), Some((p0, p1)));
        assert_eq!(worst_pair([0, -6]), Some((p1, p0)));
        // Both orders bound 4 here: the first pair in row-major order wins.
        assert_eq!(worst_pair([0, -2]), Some((p0, p1)));
    }
}
