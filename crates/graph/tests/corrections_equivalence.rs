//! Property equivalence of the scaled corrections kernel against the
//! rational Bellman–Ford — the correctness contract of the SHIFTS
//! corrections pass (DESIGN.md §4c):
//!
//! * [`shifted_distances`] (Bellman–Ford over `i64` rows) must return
//!   exactly the distances of the rational [`bellman_ford`] under
//!   `w(p,q) = λ − m(p,q)`, whether the integer route applies or bails,
//!   and fail exactly when it fails (a shift below some cycle's mean);
//! * on a matrix of whole and half nanoseconds, [`ScaledMatrix`] — the
//!   integer SHIFTS — must return exact Karp's
//!   [`CycleMean`](clocksync_graph::CycleMean) from integer Howard and
//!   those distances under its mean, and entries off that grid or past
//!   the integer kernels' bound must take the rational route;
//! * an infinite off-diagonal entry panics, as in the rational kernel.

use clocksync_graph::{
    bellman_ford, fast_closure, fast_max_cycle_mean, karp_max_cycle_mean, shifted_distances,
    try_scaled_karp, try_scaled_shifted_distances, CycleMean, DiGraph, NegativeCycleError,
    ScaledMatrix, SquareMatrix,
};
use clocksync_time::{Ext, Ratio};
use proptest::prelude::*;

type W = Ext<Ratio>;

/// The oracle: the rational Bellman–Ford over the off-diagonal weights
/// `shift − m(p,q)`.
fn rational(m: &SquareMatrix<W>, shift: Ratio, source: usize) -> Result<Vec<Ratio>, ()> {
    let mut g = DiGraph::new(m.n());
    for (i, j, &w) in m.iter_off_diagonal() {
        g.add_edge(i, j, Ext::Finite(shift - w.finite().unwrap()));
    }
    bellman_ford(&g, source)
        .map(|d| d.into_iter().map(|x| x.finite().unwrap()).collect())
        .map_err(|_| ())
}

/// Forgets the witness, which the two kernels may pick differently.
fn outcome(r: Result<Vec<Ratio>, NegativeCycleError>) -> Result<Vec<Ratio>, ()> {
    r.map_err(|_| ())
}

/// The largest weight magnitude, in nanoseconds, an `n`-node matrix may
/// hold.
fn limit(n: usize) -> i128 {
    ((i64::MAX / 4) / (n as i64 + 1)) as i128
}

/// Whether every entry is a whole or half nanosecond — exactly the
/// matrices the integer route takes.
fn on_grid(m: &SquareMatrix<W>) -> bool {
    m.as_slice()
        .iter()
        .all(|w| w.as_finite().is_none_or(|r| r.denominator() <= 2))
}

/// `m` times 30: every denominator the generators use, 1 to 6, divides
/// 60, so the result is on the half-nanosecond grid.
fn onto_grid(m: &SquareMatrix<W>) -> SquareMatrix<W> {
    SquareMatrix::from_fn(m.n(), |i, j| m[(i, j)].map(|r| r * Ratio::from_int(30)))
}

/// A closure-shaped matrix: all entries finite, zero diagonal, entries of
/// mixed sign with denominators 1 to 6, so `λ*` rarely is an integer.
/// With `close`, nonnegative entries are first closed under shortest
/// paths, as GLOBAL ESTIMATES does.
fn closure_shaped(
    sizes: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = SquareMatrix<W>> {
    (sizes, any::<bool>()).prop_flat_map(|(n, close)| {
        let lo = if close { 0 } else { -40 };
        proptest::collection::vec((lo..=60i128, 1..=6i128), n * n).prop_map(move |cells| {
            let m = SquareMatrix::from_fn(n, |i, j| {
                let (num, den) = cells[i * n + j];
                Ext::Finite(if i == j {
                    Ratio::ZERO
                } else {
                    Ratio::new(num, den)
                })
            });
            if close {
                fast_closure(&m).expect("nonnegative weights")
            } else {
                m
            }
        })
    })
}

/// An `n × n` matrix with zero diagonal and the positive integers
/// `cells[i·n + j] + 1` elsewhere.
fn integer_matrix(n: usize, cells: &[i128]) -> SquareMatrix<W> {
    SquareMatrix::from_fn(n, |i, j| {
        Ext::Finite(Ratio::from_int(if i == j {
            0
        } else {
            cells[i * n + j] + 1
        }))
    })
}

/// Checks both public entry points against the oracle on `m` and `source`,
/// taking `λ*` from `karp`; `scalable` says whether the integer route must
/// apply.
fn check(
    m: &SquareMatrix<W>,
    source: usize,
    karp: impl Fn(&SquareMatrix<W>) -> Option<CycleMean>,
    scalable: bool,
) -> Result<(), TestCaseError> {
    let cm = karp(m).expect("a zero diagonal is a cycle");
    let reference = rational(m, cm.mean, source);
    prop_assert!(reference.is_ok(), "no cycle is negative under λ*");
    let scaled = try_scaled_shifted_distances(m, cm.mean, source);
    prop_assert_eq!(scaled.is_some(), scalable, "scaling took the wrong route");
    prop_assert_eq!(
        outcome(shifted_distances(m, cm.mean, source)),
        reference.clone()
    );
    // The integer SHIFTS, on `m`'s counts: Howard's `A_max` and the
    // corrections under it.
    if let Some(scaled) = ScaledMatrix::from_ratio(m) {
        prop_assert_eq!(scaled.max_cycle_mean(None).cycle_mean, cm.clone());
        prop_assert_eq!(
            outcome(scaled.shifted_distances(cm.mean, source)),
            reference
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn scaled_corrections_equal_rational_bellman_ford(
        m in closure_shaped(1..=10),
        source in 0..1000usize,
        above in (0..=5i128, 1..=7i128),
        below in 1..=7i128,
    ) {
        let source = source % m.n();
        check(&m, source, karp_max_cycle_mean, on_grid(&m))?;
        check(&onto_grid(&m), source, karp_max_cycle_mean, true)?;
        // Shifts other than λ*: above it every distance still exists,
        // below it some cycle of two or more nodes may turn negative, and
        // both kernels must then fail alike.
        let lambda = karp_max_cycle_mean(&m).unwrap().mean;
        for shift in [lambda + Ratio::new(above.0, above.1), lambda - Ratio::new(1, below)] {
            prop_assert_eq!(
                outcome(shifted_distances(&m, shift, source)),
                rational(&m, shift, source)
            );
        }
    }

    #[test]
    fn denominators_past_2_40_fall_back_exactly(
        m in closure_shaped(2..=8),
        source in 0..1000usize,
        k in 1..=100i128,
    ) {
        // An entry with denominator 2^40 + 1 is off the half-ns grid.
        let mut m = m;
        m[(0, 1)] = Ext::Finite(Ratio::new(k, (1 << 40) + 1));
        check(&m, source % m.n(), karp_max_cycle_mean, false)?;
    }

    #[test]
    fn shift_denominators_past_2_40_fall_back_exactly(
        n in 2..=8usize,
        cells in proptest::collection::vec(0..=60i128, 64),
        source in 0..1000usize,
        k in 0..=100i128,
    ) {
        // Integer entries: the matrix has counts, and a shift's denominator
        // only scales its weights. Every entry is below 62, so the shifts
        // 62 + 1/3 and 62 + 1/(2^61 + 2k + 1) are above every cycle mean.
        // The first takes the integer route; the second's weights pass
        // the bound, and it falls back.
        let m = integer_matrix(n, &cells);
        prop_assert!(try_scaled_karp(&m).is_some());
        let source = source % n;
        let huge = (1 << 61) + 2 * k + 1;
        for (shift, integer) in [(Ratio::new(187, 3), true), (Ratio::new(62 * huge + 1, huge), false)] {
            prop_assert_eq!(try_scaled_shifted_distances(&m, shift, source).is_some(), integer);
            let reference = rational(&m, shift, source);
            prop_assert!(reference.is_ok());
            prop_assert_eq!(outcome(shifted_distances(&m, shift, source)), reference);
        }
    }

    #[test]
    fn weights_past_the_magnitude_limit_fall_back_exactly(
        n in 3..=8usize,
        cells in proptest::collection::vec(0..=60i128, 64),
        source in 0..1000usize,
    ) {
        // Integer entries, one of them −limit: the matrix scales, but that
        // entry's shifted weight λ* + limit does not, since the positive
        // cycle 1 → 2 → 1 makes λ* > 0.
        let mut m = integer_matrix(n, &cells);
        m[(0, 1)] = Ext::Finite(Ratio::from_int(-limit(n)));
        prop_assert!(try_scaled_karp(&m).is_some());
        check(&m, source % n, karp_max_cycle_mean, false)?;
        // An entry of exactly the limit still takes integer Howard; one past
        // it takes the rational route. Both answer as exact Karp.
        for (x, integer) in [(limit(n), true), (limit(n) + 1, false)] {
            let mut m = m.clone();
            m[(1, 0)] = Ext::Finite(Ratio::from_int(x));
            let howard = ScaledMatrix::from_ratio(&m).map(|s| s.max_cycle_mean(None));
            prop_assert_eq!(howard.is_some(), integer);
            if let Some(sol) = howard {
                prop_assert_eq!(Some(sol.cycle_mean), karp_max_cycle_mean(&m));
            }
            check(&m, source % n, karp_max_cycle_mean, false)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn large_closures_take_the_scaled_path(
        m in closure_shaped(120..=140),
        source in 0..1000usize,
    ) {
        // Exact Karp is too slow here; integer Karp is bit-identical to it
        // (cycle_mean_equivalence.rs). The route is exact on the grid.
        prop_assert_eq!(ScaledMatrix::from_ratio(&m).is_some(), on_grid(&m), "route");
        check(&onto_grid(&m), source % m.n(), fast_max_cycle_mean, true)?;
    }
}

/// A 3-node zero matrix with one infinite off-diagonal entry.
fn with_infinite(inf: W) -> SquareMatrix<W> {
    let mut m = SquareMatrix::filled(3, Ext::Finite(Ratio::ZERO));
    m[(2, 0)] = inf;
    m
}

#[test]
#[should_panic(expected = "need a finite matrix: value is +inf")]
fn pos_inf_entry_panics_on_the_rational_path() {
    // `+∞` has no count; the rational fallback rejects it.
    let _ = shifted_distances(&with_infinite(Ext::PosInf), Ratio::ONE, 0);
}

#[test]
#[should_panic(expected = "need a finite matrix: value is -inf")]
fn neg_inf_entry_panics_on_the_scaled_path() {
    // `−∞` has no count in a SHIFTS matrix; the rational pass rejects
    // it.
    let _ = shifted_distances(&with_infinite(Ext::NegInf), Ratio::ONE, 0);
}
