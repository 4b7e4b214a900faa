//! Property equivalence of the scaled corrections kernel against the
//! rational Bellman–Ford — the correctness contract of the SHIFTS
//! corrections pass (DESIGN.md §4c):
//!
//! * [`shifted_distances`] (Bellman–Ford over scaled `i64` rows) must
//!   return exactly the distances of the rational [`bellman_ford`] under
//!   `w(p,q) = λ − m(p,q)`, whether scaling applies or bails, and fail
//!   exactly when it fails (a shift below some cycle's mean);
//! * on a matrix that scales, [`ScaledMatrix`] — the integer SHIFTS —
//!   must return exact Karp's [`CycleMean`](clocksync_graph::CycleMean)
//!   from integer Howard and those distances under its mean, and entries
//!   past the integer kernels' bound must take the rational route;
//! * an infinite off-diagonal entry panics, as in the rational kernel.

use clocksync_graph::{
    bellman_ford, fast_closure, fast_max_cycle_mean, karp_max_cycle_mean, shifted_distances,
    try_scaled_howard, try_scaled_karp, try_scaled_shifted_distances, CycleMean, DiGraph,
    NegativeCycleError, ScaledMatrix, SquareMatrix,
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

/// The largest scaled weight magnitude an `n`-node matrix may hold.
fn limit(n: usize) -> i128 {
    ((i64::MAX / 4) / (n as i64 + 1)) as i128
}

/// A closure-shaped matrix: all entries finite, zero diagonal, entries of
/// mixed sign with denominators 1 to 6, so `λ*` and the common
/// denominator rarely are 1. With `close`, nonnegative entries are
/// first closed under shortest paths, as GLOBAL ESTIMATES does.
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
                fast_closure(&m).expect("nonnegative weights").0
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
/// taking `λ*` from `karp`; `scalable` says whether scaling must apply.
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
    // The integer SHIFTS, on one scaling of `m`: Howard's `A_max` and the
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
        check(&m, source, karp_max_cycle_mean, true)?;
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
        // An entry with denominator 2^40 + 1 takes the common denominator
        // of the matrix past the cap.
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
        // Integer entries but one with denominator 2^40: the matrix
        // scales, and a shift with denominator 3 extends the common
        // denominator past the cap. Every entry is below 62, so the
        // shift 62 + 1/3 is above every cycle mean.
        let mut m = integer_matrix(n, &cells);
        m[(0, 1)] = Ext::Finite(Ratio::new(2 * k + 1, 1 << 40));
        prop_assert!(try_scaled_karp(&m).is_some());
        let (shift, source) = (Ratio::new(187, 3), source % n);
        prop_assert!(try_scaled_shifted_distances(&m, shift, source).is_none());
        let reference = rational(&m, shift, source);
        prop_assert!(reference.is_ok());
        prop_assert_eq!(outcome(shifted_distances(&m, shift, source)), reference);
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
            let howard = try_scaled_howard(&m, None);
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
        // Exact Karp is too slow here; scaled Karp is bit-identical to it
        // (cycle_mean_equivalence.rs).
        check(&m, source % m.n(), fast_max_cycle_mean, true)?;
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
    // `+∞` makes scaling bail; the rational fallback rejects it.
    let _ = shifted_distances(&with_infinite(Ext::PosInf), Ratio::ONE, 0);
}

#[test]
#[should_panic(expected = "need a finite matrix: value is -inf")]
fn neg_inf_entry_panics_on_the_scaled_path() {
    // `−∞` scales to Karp's no-edge sentinel, past the integer kernels'
    // bound; the rational pass rejects it.
    let _ = shifted_distances(&with_infinite(Ext::NegInf), Ratio::ONE, 0);
}
