//! Property equivalence of the closure fast paths against the generic
//! reference kernel — the correctness contract of the perf layer:
//!
//! * [`blocked_floyd_warshall_i64`] must be **bit-identical** to
//!   [`floyd_warshall`] on every graph without a negative cycle, and must
//!   name the same witness on graphs with one; the one successor rule
//!   ([`shortest_path_successors`]) fed either kernel's distances then
//!   yields the same chains, each a genuine shortest path.
//! * [`Closure::new`]'s gauged half-nanosecond front end must preserve
//!   that identity through rational weights of mixed denominators, taking
//!   the integer route exactly when every entry is a whole or half
//!   nanosecond, and through start-time differences of `10^17` ns per
//!   node, which the gauge removes.
//! * [`Closure::relax_edge`] must leave the scaled cache equal (in
//!   distance) to the reference closure after any sequence of edge
//!   decreases, so the successor rule fed its distances still
//!   reconstructs genuine shortest paths. On a sparse domain past
//!   `SPARSE_MIN_N`, where the rebuild runs Johnson, every entry and every
//!   verdict of a long stream of link tightenings must equal a rebuild
//!   with [`Closure::of_links`]: the pruned product skips no pair that
//!   improves.
//!
//! Each suite runs 1000 random cases.

use std::sync::Arc;

use clocksync_graph::{
    blocked_floyd_warshall_i64, floyd_warshall, reconstruct_path, shortest_path_successors,
    Closure, ClosureKernel, LinkTable, LinkWeights, RelaxOutcome, SquareMatrix, Weight,
    SPARSE_MIN_N, UNREACHABLE,
};
use clocksync_time::{Ext, Ratio};
use proptest::prelude::*;

type W = Ext<Ratio>;

/// A random sentinel-`i64` digraph: `n ≤ 12`, each off-diagonal pair
/// absent or weighted in `[-20, 20]` (negative cycles included on
/// purpose), diagonal occasionally positive to exercise normalization.
fn sentinel_graph() -> impl Strategy<Value = SquareMatrix<i64>> {
    (1usize..=12).prop_flat_map(|n| {
        proptest::collection::vec(
            prop_oneof![
                2 => Just(UNREACHABLE),
                5 => -20i64..=20,
            ],
            n * n,
        )
        .prop_map(move |cells| {
            let mut k = 0;
            SquareMatrix::from_fn(n, |i, j| {
                let v = cells[k];
                k += 1;
                if i == j && v != UNREACHABLE {
                    // Mostly zero diagonals, sometimes positive (the kernel
                    // must normalize), never negative (that is just a
                    // trivial negative cycle, covered by off-diagonal ones).
                    v.rem_euclid(3)
                } else {
                    v
                }
            })
        })
    })
}

/// A random rational digraph with denominators in `{1, 2, 4}`: on the
/// half-nanosecond grid unless a quarter appears, and always once doubled.
fn rational_graph() -> impl Strategy<Value = SquareMatrix<W>> {
    (1usize..=10).prop_flat_map(|n| {
        proptest::collection::vec(
            prop_oneof![
                2 => Just(Ext::PosInf),
                5 => (-40i128..=40, 0usize..=2).prop_map(|(num, d)| {
                    Ext::Finite(Ratio::new(num, 1 << d))
                }),
            ],
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

/// A rational digraph guaranteed free of negative cycles (nonnegative
/// weights), plus a sequence of candidate edge updates to relax in.
fn closure_with_updates() -> impl Strategy<Value = (SquareMatrix<W>, Vec<(usize, usize, i128)>)> {
    (2usize..=8).prop_flat_map(|n| {
        let matrix = proptest::collection::vec(
            prop_oneof![
                2 => Just(Ext::PosInf),
                5 => (0i128..=40).prop_map(|w| Ext::Finite(Ratio::from_int(w))),
            ],
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
        });
        // Raw endpoints are reduced mod n; weights may go negative, so some
        // sequences close negative cycles — both kernels must agree then.
        let updates = proptest::collection::vec((0usize..1000, 0usize..1000, -10i128..=40), 1..=5);
        (matrix, updates)
    })
}

/// Whether every finite entry is a whole or half nanosecond — exactly the
/// matrices the integer route takes.
fn on_grid(m: &SquareMatrix<W>) -> bool {
    m.as_slice()
        .iter()
        .all(|w| w.as_finite().is_none_or(|r| r.denominator() <= 2))
}

fn ext_of(m: &SquareMatrix<i64>) -> SquareMatrix<Ext<i64>> {
    SquareMatrix::from_fn(m.n(), |i, j| {
        let v = m[(i, j)];
        if v == UNREACHABLE {
            Ext::PosInf
        } else {
            Ext::Finite(v)
        }
    })
}

/// Asserts that `next` reconstructs, for every pair, a real path in `m`
/// whose total weight is exactly `dist[(i, j)]` — or that the pair is
/// genuinely unreachable.
fn assert_successors_valid<V: Weight>(
    m: &SquareMatrix<V>,
    dist: &SquareMatrix<V>,
    next: &SquareMatrix<usize>,
) -> Result<(), TestCaseError> {
    let n = m.n();
    for i in 0..n {
        for j in 0..n {
            match reconstruct_path(next, i, j) {
                Some(path) => {
                    prop_assert_eq!(path[0], i);
                    prop_assert_eq!(*path.last().unwrap(), j);
                    let mut total = V::zero();
                    for pair in path.windows(2) {
                        let w = m[(pair[0], pair[1])];
                        prop_assert!(w.is_reachable(), "path uses absent edge");
                        total = total + w;
                    }
                    prop_assert_eq!(total, dist[(i, j)], "path weight != dist at ({},{})", i, j);
                }
                None => prop_assert!(
                    !dist[(i, j)].is_reachable(),
                    "no path reconstructed for reachable pair ({},{})",
                    i,
                    j
                ),
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// The `i64` kernel is bit-identical to the generic kernel: same
    /// distances, hence the same valid successor matrix, and the same
    /// negative-cycle witness.
    #[test]
    fn blocked_kernel_matches_generic(m in sentinel_graph()) {
        let blocked = blocked_floyd_warshall_i64(&m);
        let generic = floyd_warshall(&ext_of(&m));
        match (blocked, generic) {
            (Ok(bd), Ok(gd)) => {
                for (i, j, &v) in bd.iter() {
                    let g = match gd[(i, j)] {
                        Ext::Finite(x) => x,
                        Ext::PosInf => UNREACHABLE,
                        Ext::NegInf => unreachable!("generic never yields -inf here"),
                    };
                    prop_assert_eq!(v, g, "dist mismatch at ({},{})", i, j);
                }
                let edges = ext_of(&m);
                let bnext = shortest_path_successors(&LinkWeights::from_matrix(&edges), &ext_of(&bd));
                let gnext = shortest_path_successors(&LinkWeights::from_matrix(&edges), &gd);
                assert_successors_valid(&edges, &gd, &bnext)?;
                prop_assert_eq!(bnext, gnext, "successor matrices differ");
            }
            (Err(b), Err(g)) => prop_assert_eq!(b, g, "witnesses differ"),
            (b, g) => prop_assert!(false, "outcome mismatch: {:?} vs {:?}", b, g),
        }
    }

    /// The gauged half-ns front end preserves the identity through mixed
    /// denominators: the integer closure equals the generic kernel
    /// exactly, the integer route runs exactly on the grid, and doubling
    /// puts every input on it, so the integer path really is exercised.
    /// Starting node `p`'s clock `10^17·p` ns late moves every entry by
    /// up to `10^18` ns; the gauge removes that, and the closure still
    /// equals the generic kernel's, negative-cycle witness included.
    #[test]
    fn fast_closure_matches_generic(m in rational_graph()) {
        prop_assert_eq!(Closure::new(&m).is_ok(), on_grid(&m), "route");
        let doubled = SquareMatrix::from_fn(m.n(), |i, j| m[(i, j)].map(|r| r * Ratio::from_int(2)));
        let start = |p: usize| Ratio::from_int(100_000_000_000_000_000 * p as i128);
        let far = SquareMatrix::from_fn(m.n(), |i, j| doubled[(i, j)].map(|r| r + start(i) - start(j)));
        for m in [&doubled, &far] {
            let integer = Closure::new(m).expect("on the grid, in its gauge");
            match (integer.map(|c| c.ratio_dist()), floyd_warshall(m)) {
                (Ok(fd), Ok(gd)) => {
                    let fnext = shortest_path_successors(&LinkWeights::from_matrix(m), &fd);
                    let gnext = shortest_path_successors(&LinkWeights::from_matrix(m), &gd);
                    prop_assert_eq!(fd, gd, "distances differ");
                    prop_assert_eq!(fnext, gnext, "successors differ");
                }
                (Err(f), Err(g)) => prop_assert_eq!(f, g, "witnesses differ"),
                (f, g) => prop_assert!(false, "outcome mismatch: {:?} vs {:?}", f, g),
            }
        }
    }

    /// Incremental `relax_edge` on the scaled cache equals the reference
    /// closure after every edge decrease: identical distances, valid
    /// successors, and agreement on negative-cycle detection.
    #[test]
    fn relax_edge_matches_full_recompute((mut m, updates) in closure_with_updates()) {
        let n = m.n();
        let mut cache = Closure::new(&m)
            .expect("integer weights scale")
            .expect("nonnegative start has no negative cycle");
        for (ur, vr, wi) in updates {
            let (u, v) = (ur % n, vr % n);
            let w = Ext::Finite(Ratio::from_int(wi));
            // The graph relax_edge models: the edge lowered to min(old, w).
            let merged = if w < m[(u, v)] { w } else { m[(u, v)] };
            match cache.relax_edge(u, v, w) {
                Ok(_) => {
                    m[(u, v)] = merged;
                    let fresh = floyd_warshall(&m)
                        .expect("relax_edge accepted, so no negative cycle exists");
                    let dist = cache.ratio_dist();
                    prop_assert_eq!(&dist, &fresh, "dist diverged at ({},{})", u, v);
                    assert_successors_valid(&m, &dist, &shortest_path_successors(&LinkWeights::from_matrix(&m), &dist))?;
                }
                Err(_) => {
                    m[(u, v)] = merged;
                    // The cache is poisoned; the full kernel must confirm
                    // the negative cycle, and the protocol is to rebuild.
                    prop_assert!(
                        floyd_warshall(&m).is_err(),
                        "relax_edge reported a cycle the full kernel does not see"
                    );
                    return Ok(());
                }
            }
        }
    }
}

/// A ring of `n` nodes with chords to the node `stride` ahead, both
/// directions of every link weighted in half nanoseconds drawn from
/// `weights` (cycled).
fn ring_with_chords(n: usize, stride: usize, weights: &[i128]) -> LinkWeights<W> {
    let links = (0..n).flat_map(|p| [(p, (p + 1) % n), (p, (p + stride) % n)]);
    let table = LinkTable::new(n, links.map(|(p, q)| (p.min(q), p.max(q))));
    let mut local = LinkWeights::filled(Arc::new(table), Ext::PosInf);
    for (s, w) in (0..local.table().len()).zip(weights.iter().cycle()) {
        local[s] = Ext::Finite(Ratio::new(*w, 2));
    }
    local
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn relax_on_a_sparse_domain_equals_a_johnson_rebuild(
        weights in proptest::collection::vec(200i128..=2_000, 64),
        stream in proptest::collection::vec((0usize..10_000, 1i128..=400), 120),
    ) {
        let n = SPARSE_MIN_N + 8;
        let mut local = ring_with_chords(n, 13, &weights);
        let (kernel, cache) = Closure::of_links(&local).expect("half nanoseconds");
        prop_assert_eq!(kernel, ClosureKernel::SparseJohnson);
        let mut cache = cache.expect("positive weights close no cycle");
        let slots = local.table().len();
        for (k, &(pick, cut)) in stream.iter().enumerate() {
            // Tighten one link direction by `cut` half nanoseconds; the
            // last steps cut deep enough that a negative cycle may close.
            let s = pick % slots;
            let table = Arc::clone(local.table());
            let (u, v) = (table.source(s), table.target(s));
            let depth = if k + 10 >= stream.len() { 2_000 } else { 0 };
            let Ext::Finite(old) = local[s] else { unreachable!("every slot is finite") };
            let w = Ext::Finite(old - Ratio::new(cut + depth, 2));
            local[s] = w;
            let before = cache.clone();
            let verdict = cache.relax_edge(u, v, w);
            let rebuilt = Closure::of_links(&local).expect("half nanoseconds").1;
            match (verdict, rebuilt) {
                (Ok(verdict), Ok(rebuilt)) => {
                    for p in 0..n {
                        for q in 0..n {
                            prop_assert_eq!(
                                cache.ratio_at(p, q),
                                rebuilt.ratio_at(p, q),
                                "entry ({}, {}) after step {}", p, q, k
                            );
                        }
                    }
                    let moved = (0..n).any(|p| (0..n).any(|q| before.ratio_at(p, q) != rebuilt.ratio_at(p, q)));
                    let expected = if moved {
                        RelaxOutcome::Tightened
                    } else if before.ratio_at(u, v) < w {
                        RelaxOutcome::StaleLoosening
                    } else {
                        RelaxOutcome::Unchanged
                    };
                    prop_assert_eq!(verdict, expected, "step {}", k);
                }
                (Err(_), Err(_)) => return Ok(()),
                (verdict, rebuilt) => {
                    prop_assert!(false, "step {}: relax {:?}, rebuild {:?}", k, verdict, rebuilt.map(|_| ()));
                }
            }
        }
    }
}
