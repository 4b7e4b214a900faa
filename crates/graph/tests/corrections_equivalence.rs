//! Property equivalence of the scaled corrections kernels against the
//! rational Bellman–Ford — the correctness contract of the SHIFTS
//! corrections pass (DESIGN.md §4c):
//!
//! * [`ScaledMatrix::shifted_distances`] (Bellman–Ford over `i64` rows)
//!   must return exactly the distances of the rational [`bellman_ford`]
//!   under `w(p,q) = λ − m(p,q)`, and fail exactly when it fails (a shift
//!   below some cycle's mean);
//! * [`ScaledMatrix::corrections`] (one Dijkstra pass keyed by Howard's
//!   [`Bias`]) must return those distances at `A_max` from every root, in
//!   no gauge and in a gauge `10^17·p` ns deep, and still with the old
//!   bias after entrywise tightenings that keep the critical cycle's mean
//!   — the online engine's revalidation case, checked from every root
//!   against the rational reference too, in no gauge and with clocks
//!   `10^18·p` ns apart;
//! * on a matrix of whole and half nanoseconds, [`ScaledMatrix`] — the
//!   integer SHIFTS — must return exact Karp's
//!   [`CycleMean`](clocksync_graph::CycleMean) from integer Howard and
//!   those distances under its mean, in no gauge and in the gauge a
//!   [`Closure`] of the matrix keeps, up to the entry bound; entries off
//!   that grid or past the bound have no integer encoding, and their
//!   domain takes the residual rational route.

use clocksync_graph::{
    bellman_ford, fast_max_cycle_mean, floyd_warshall, karp_max_cycle_mean, try_scaled_karp, Bias,
    Closure, CycleMean, DiGraph, NegativeCycleError, ScaledMatrix, SquareMatrix,
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

/// The largest count an `n`-node SHIFTS matrix may hold in magnitude.
fn limit(n: usize) -> i128 {
    let shifts = 2 * ((i64::MAX / 4) / (n as i64 + 1));
    i128::from(shifts / (4 * n as i64))
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
                floyd_warshall(&m).expect("nonnegative weights")
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

/// Checks the integer SHIFTS against the oracle on `m` and `source`,
/// taking `λ*` from `karp`; `scalable` says whether the integer route must
/// apply. It runs on `m`'s counts as they are and, when they have one, in
/// the gauge of a [`Closure`] holding `m` with node `p`'s clock started
/// `10^17·p` ns late.
fn check(
    m: &SquareMatrix<W>,
    source: usize,
    karp: impl Fn(&SquareMatrix<W>) -> Option<CycleMean>,
    scalable: bool,
) -> Result<(), TestCaseError> {
    let cm = karp(m).expect("a zero diagonal is a cycle");
    prop_assert!(
        rational(m, cm.mean, source).is_ok(),
        "no cycle is negative under λ*"
    );
    let start = |p: usize| Ratio::from_int(100_000_000_000_000_000 * p as i128);
    let far = SquareMatrix::from_fn(m.n(), |i, j| m[(i, j)].map(|r| r + start(i) - start(j)));
    let held = Closure::from_closed(&far);
    // The gauge is a star from node 0, so a gauged entry weighs at most
    // three entries: well within the bound it always has a count, and off
    // the grid it never has one.
    let largest = m
        .as_slice()
        .iter()
        .map(|w| (w.finite().unwrap() * Ratio::from_int(2)).abs());
    if largest.max().unwrap() * Ratio::from_int(3) <= Ratio::from_int(limit(m.n())) {
        prop_assert_eq!(held.is_ok(), on_grid(m), "the gauge took the wrong route");
    }
    prop_assert_eq!(
        ScaledMatrix::from_ratio(m).is_some(),
        scalable,
        "wrong route"
    );
    let members: Vec<usize> = (0..m.n()).collect();
    let gauged = held.as_ref().map(|c| c.component(&members));
    let routes = ScaledMatrix::from_ratio(m).map(|s| (s, m));
    let far_routes = gauged.map(|s| (s, &far));
    for (scaled, values) in routes.into_iter().chain(far_routes) {
        // The integer SHIFTS: Howard's `A_max`, which shifting every clock
        // leaves alone, and the corrections under it, by both passes.
        let (sol, bias) = scaled.solve(None);
        prop_assert_eq!(&sol.cycle_mean, &cm);
        prop_assert_eq!(
            outcome(scaled.shifted_distances(cm.mean, source)),
            rational(values, cm.mean, source)
        );
        let bias = bias.expect("Howard converges within its cap here");
        check_corrections(&scaled, cm.mean, &bias, values, &[source])?;
    }
    Ok(())
}

/// [`ScaledMatrix::corrections`] keyed by `bias` equals the Bellman–Ford
/// from every root, and the rational reference over the values `m` from
/// each of `rational_roots`.
fn check_corrections(
    scaled: &ScaledMatrix<'_>,
    a_max: Ratio,
    bias: &Bias,
    m: &SquareMatrix<W>,
    rational_roots: &[usize],
) -> Result<(), TestCaseError> {
    for root in 0..m.n() {
        let dijkstra = scaled.corrections(a_max, bias, root);
        prop_assert_eq!(
            Ok(dijkstra.clone()),
            outcome(scaled.shifted_distances(a_max, root))
        );
        if rational_roots.contains(&root) {
            prop_assert_eq!(Ok(dijkstra), rational(m, a_max, root));
        }
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
        let m = onto_grid(&m);
        check(&m, source, karp_max_cycle_mean, true)?;
        // Shifts other than λ*: above it every distance still exists,
        // below it some cycle of two or more nodes may turn negative, and
        // both kernels must then fail alike.
        let scaled = ScaledMatrix::from_ratio(&m).expect("on the grid");
        let lambda = karp_max_cycle_mean(&m).unwrap().mean;
        for shift in [lambda + Ratio::new(above.0, above.1), lambda - Ratio::new(1, below)] {
            prop_assert_eq!(
                outcome(scaled.shifted_distances(shift, source)),
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
        // An entry with denominator 2^40 + 1 is off the half-ns grid: no
        // integer encoding holds it, in any gauge.
        let mut m = m;
        m[(0, 1)] = Ext::Finite(Ratio::new(k, (1 << 40) + 1));
        check(&m, source % m.n(), karp_max_cycle_mean, false)?;
    }

    #[test]
    fn weights_past_the_magnitude_limit_fall_back_exactly(
        n in 3..=8usize,
        cells in proptest::collection::vec(0..=60i128, 64),
        source in 0..1000usize,
    ) {
        // Integer entries, one of them at minus the bound: its corrections
        // weight λ* + limit is the largest any cycle mean forms, since the
        // positive cycle 1 → 2 → 1 makes λ* > 0, and the integer pass must
        // still form it. An entry of exactly the bound takes integer
        // Howard; one half nanosecond past it has no integer encoding.
        let mut m = integer_matrix(n, &cells);
        m[(0, 1)] = Ext::Finite(Ratio::new(-limit(n), 2));
        prop_assert!(try_scaled_karp(&m).is_some());
        check(&m, source % n, karp_max_cycle_mean, true)?;
        for (x, integer) in [(limit(n), true), (limit(n) + 1, false)] {
            let mut m = m.clone();
            m[(1, 0)] = Ext::Finite(Ratio::new(x, 2));
            let howard = ScaledMatrix::from_ratio(&m).map(|s| s.max_cycle_mean(None));
            prop_assert_eq!(howard.is_some(), integer);
            if let Some(sol) = howard {
                prop_assert_eq!(Some(sol.cycle_mean), karp_max_cycle_mean(&m));
            }
            check(&m, source % n, karp_max_cycle_mean, integer)?;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn a_bias_survives_tightenings_that_keep_the_critical_cycle(
        m in closure_shaped(2..=10),
        cuts in proptest::collection::vec((0..100usize, 0..100usize, 1..=90i128), 0..=24),
    ) {
        // Howard's bias on a matrix keys the corrections pass on every
        // tightening of it that leaves the critical cycle's edges alone:
        // their mean, A_max, stays, and every other cycle only falls. So
        // it does with clocks 10^18·p ns apart, where the tightened values
        // are held in a gauge of their own, as after the online engine's
        // rebuild.
        let m = onto_grid(&m);
        let n = m.n();
        let start = |p: usize| Ratio::from_int(1_000_000_000_000_000_000 * p as i128);
        let far = |m: &SquareMatrix<W>| {
            SquareMatrix::from_fn(n, |i, j| m[(i, j)].map(|r| r + start(i) - start(j)))
        };
        let members: Vec<usize> = (0..n).collect();
        let held = Closure::from_closed(&far(&m)).expect("a gauge holds it");
        let scaled = ScaledMatrix::from_ratio(&m).expect("on the grid");
        let (sol, bias) = scaled.solve(None);
        let bias = bias.expect("Howard converges within its cap here");
        let (far_sol, far_bias) = held.component(&members).solve(None);
        prop_assert_eq!(&far_sol.cycle_mean, &sol.cycle_mean);
        let far_bias = far_bias.expect("Howard converges within its cap here");
        let cycle = &sol.cycle_mean.cycle;
        let on_cycle = |i: usize, j: usize| {
            (0..cycle.len()).any(|k| (cycle[k], cycle[(k + 1) % cycle.len()]) == (i, j))
        };
        let mut tight = m.clone();
        for (i, j, cut) in cuts {
            let (i, j) = (i % n, j % n);
            if i != j && !on_cycle(i, j) {
                tight[(i, j)] = tight[(i, j)].map(|r| r - Ratio::new(cut, 2));
            }
        }
        let a_max = sol.cycle_mean.mean;
        let tightened = ScaledMatrix::from_ratio(&tight).expect("still on the grid");
        prop_assert_eq!(tightened.cycle_mean(cycle), a_max, "the cycle revalidates");
        prop_assert_eq!(tightened.max_cycle_mean(None).cycle_mean.mean, a_max);
        check_corrections(&tightened, a_max, &bias, &tight, &members)?;
        let far_tight = far(&tight);
        let rebuilt = Closure::from_closed(&far_tight).expect("a gauge holds it");
        check_corrections(&rebuilt.component(&members), a_max, &far_bias, &far_tight, &members)?;
    }
}
