//! Property equivalence of the `A_max` fast paths against the exact
//! reference kernels — the correctness contract of the SHIFTS perf layer
//! (DESIGN.md §4c):
//!
//! * [`fast_max_cycle_mean`] (Karp over `i64` half-nanosecond counts) must
//!   be **bit-identical** to [`karp_max_cycle_mean`] — the same `λ*` *and*
//!   the same witness cycle — whenever every entry is a whole or half
//!   nanosecond, and must fall back to it (hence stay identical trivially)
//!   otherwise. Doubling, or multiplying by six, puts every generated
//!   matrix on that grid, so the integer path sees every shape.
//! * [`howard_solve`] must find the same `λ*` and the same canonical
//!   witness cycle, whose mean equals it exactly, from a cold start and
//!   from any warm-start policy.
//! * [`ScaledMatrix::max_cycle_mean`] (Howard over half-nanosecond
//!   counts, the kernel SHIFTS runs) must return exact Karp's whole
//!   `CycleMean` on complete matrices, cold and from any warm-start
//!   policy, and converge to the very policy [`howard_solve`] reaches from
//!   the same seed.
//! * On small graphs, all of them must agree with the exhaustive
//!   [`brute::max_cycle_mean_brute`] oracle over simple cycles.
//!
//! Each suite runs 1000 random cases.

use clocksync_graph::{
    brute, fast_max_cycle_mean, howard_solve, karp_max_cycle_mean, try_scaled_karp, ScaledMatrix,
    SquareMatrix, Weight,
};
use clocksync_time::{Ext, Ratio};
use proptest::prelude::*;

type W = Ext<Ratio>;

/// A random rational digraph: `n ≤ 7`, each edge absent (`−∞` in the
/// max-plus convention of the cycle-mean kernels) or a fraction with
/// denominator in `{1, 2, 4}` — small enough for the brute oracle, on the
/// half-ns grid once doubled, cycles not guaranteed (acyclic cases must
/// agree too).
fn small_graph() -> impl Strategy<Value = SquareMatrix<W>> {
    (1usize..=7).prop_flat_map(|n| {
        proptest::collection::vec(
            prop_oneof![
                2 => Just(Ext::NegInf),
                5 => (-40i128..=40, 0usize..=2).prop_map(|(num, d)| {
                    Ext::Finite(Ratio::new(num, 1 << d))
                }),
            ],
            n * n,
        )
        .prop_map(move |cells| {
            let mut k = 0;
            SquareMatrix::from_fn(n, |_, _| {
                let v = cells[k];
                k += 1;
                v
            })
        })
    })
}

/// A closure-shaped matrix: all entries finite, zero diagonal — the shape
/// SHIFTS feeds the kernels, with denominators in `{1, 2, 4}`.
fn closure_shaped() -> impl Strategy<Value = SquareMatrix<W>> {
    (2usize..=7).prop_flat_map(|n| {
        proptest::collection::vec(
            (0i128..=60, 0usize..=2).prop_map(|(num, d)| Ext::Finite(Ratio::new(num, 1 << d))),
            n * n,
        )
        .prop_map(move |cells| {
            let mut k = 0;
            SquareMatrix::from_fn(n, |i, j| {
                let v = cells[k];
                k += 1;
                if i == j {
                    <W as Weight>::zero()
                } else {
                    v
                }
            })
        })
    })
}

/// A complete matrix — every entry an edge, self-loops included — of
/// mixed-sign fractions with denominators 1 to 4: the integer Howard
/// kernel's input domain, `n ≤ 9`.
fn complete_graph() -> impl Strategy<Value = SquareMatrix<W>> {
    (1usize..=9).prop_flat_map(|n| {
        proptest::collection::vec((-60i128..=60, 1i128..=4), n * n).prop_map(move |cells| {
            SquareMatrix::from_fn(n, |i, j| {
                let (num, den) = cells[i * n + j];
                Ext::Finite(Ratio::new(num, den))
            })
        })
    })
}

/// A random policy vector for warm-start fuzzing: arbitrary successors,
/// deliberately not required to be valid edges (the solver must sanitize).
fn garbage_policy(max_n: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..max_n * 2 + 1, 0..=max_n)
}

/// Whether every finite entry is a whole or half nanosecond — exactly the
/// matrices the integer kernels take.
fn on_grid(m: &SquareMatrix<W>) -> bool {
    m.as_slice()
        .iter()
        .all(|w| w.as_finite().is_none_or(|r| r.denominator() <= 2))
}

/// `m` times `k`: the same cycles, every mean times `k`.
fn times(m: &SquareMatrix<W>, k: i128) -> SquareMatrix<W> {
    SquareMatrix::from_fn(m.n(), |i, j| m[(i, j)].map(|r| r * Ratio::from_int(k)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn scaled_karp_is_bit_identical_to_exact_karp(m in small_graph()) {
        let exact = karp_max_cycle_mean(&m);
        let fast = fast_max_cycle_mean(&m);
        // Full equality: mean AND witness cycle, not just the number.
        prop_assert_eq!(&fast, &exact);
        let inner = try_scaled_karp(&m);
        prop_assert_eq!(inner.is_some(), on_grid(&m), "route");
        if let Some(inner) = inner {
            // When the encoding applied, the i64 path itself (no fallback
            // involved) already matched.
            prop_assert_eq!(&inner, &exact);
        }
        let doubled = times(&m, 2);
        prop_assert_eq!(try_scaled_karp(&doubled), Some(karp_max_cycle_mean(&doubled)));
    }

    #[test]
    fn all_kernels_agree_with_the_brute_oracle(m in small_graph()) {
        let oracle = brute::max_cycle_mean_brute(&m);
        let exact = karp_max_cycle_mean(&m);
        prop_assert_eq!(exact.as_ref().map(|cm| cm.mean), oracle);
        prop_assert_eq!(fast_max_cycle_mean(&m).map(|cm| cm.mean), oracle);
        prop_assert_eq!(
            howard_solve(&m, None).map(|s| s.cycle_mean.mean),
            oracle
        );
        // Every kernel names the same canonical witness.
        prop_assert_eq!(howard_solve(&m, None).map(|s| s.cycle_mean), exact.clone());
        // Every reported witness achieves the reported mean exactly.
        if let Some(cm) = &exact {
            prop_assert_eq!(brute::cycle_mean(&m, &cm.cycle), cm.mean);
        }
        if let Some(sol) = howard_solve(&m, None) {
            prop_assert_eq!(
                brute::cycle_mean(&m, &sol.cycle_mean.cycle),
                sol.cycle_mean.mean
            );
        }
    }

    #[test]
    fn howard_warm_start_is_answer_invariant(
        m in small_graph(),
        seed in garbage_policy(7),
    ) {
        let cold = howard_solve(&m, None);
        let warm = howard_solve(&m, Some(&seed));
        prop_assert_eq!(
            cold.as_ref().map(|s| &s.cycle_mean),
            warm.as_ref().map(|s| &s.cycle_mean)
        );
        if let Some(w) = &warm {
            prop_assert_eq!(brute::cycle_mean(&m, &w.cycle_mean.cycle), w.cycle_mean.mean);
            // The converged policy is a valid live policy: re-seeding with
            // it converges immediately to the same mean.
            let reseeded = howard_solve(&m, Some(&w.policy)).expect("cycle exists");
            prop_assert_eq!(reseeded.cycle_mean.mean, w.cycle_mean.mean);
        }
    }

    #[test]
    fn closure_shaped_matrices_always_take_the_scaled_path(m in closure_shaped()) {
        // The SHIFTS input shape: finite, zero diagonal, denominators
        // powers of two. The integer path runs exactly on the half-ns
        // grid; doubled, every such matrix is on it, the integer path must
        // apply, and every kernel must agree bit-for-bit on λ* (the
        // self-loop-free complete graph always has a cycle, so all of them
        // return Some).
        prop_assert_eq!(try_scaled_karp(&m).is_some(), on_grid(&m), "route");
        let m = times(&m, 2);
        let inner = try_scaled_karp(&m);
        prop_assert!(inner.is_some(), "scaling unexpectedly fell back");
        let exact = karp_max_cycle_mean(&m).expect("complete graph has cycles");
        prop_assert_eq!(inner.unwrap().as_ref().map(|cm| cm.mean), Some(exact.mean));
        let howard = howard_solve(&m, None).expect("complete graph has cycles");
        prop_assert_eq!(brute::cycle_mean(&m, &howard.cycle_mean.cycle), exact.mean);
        prop_assert_eq!(howard.cycle_mean, exact);
    }

    #[test]
    fn integer_howard_matches_exact_karp_and_rational_howard(
        m in prop_oneof![closure_shaped(), complete_graph()],
        seed in garbage_policy(9),
    ) {
        // The integer kernel runs exactly on the half-ns grid; six times
        // any generated matrix is on it.
        prop_assert_eq!(ScaledMatrix::from_ratio(&m).is_some(), on_grid(&m), "route");
        let m = times(&m, 6);
        let scaled = ScaledMatrix::from_ratio(&m).expect("on the grid");
        let exact = karp_max_cycle_mean(&m).expect("complete graph has cycles");
        for warm in [None, Some(seed.as_slice())] {
            let fast = scaled.max_cycle_mean(warm);
            prop_assert_eq!(&fast.cycle_mean, &exact);
            // Trajectory parity: the same decisions reach the same policy.
            prop_assert_eq!(Some(fast), howard_solve(&m, warm));
        }
    }
}
