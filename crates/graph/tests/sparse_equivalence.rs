//! Property equivalence of the sparse closure backend against the dense
//! blocked kernel — the correctness contract of the large-`n` perf layer:
//!
//! * [`sparse_closure_i64`] (Johnson) must produce **bit-identical
//!   distances** to [`blocked_floyd_warshall_i64`] on every graph without
//!   a negative cycle — including disconnected components, sink rows (no
//!   out-edges), and sentinel `+∞` — and must agree error-for-error on
//!   graphs with one.
//! * The successor rule ([`shortest_path_successors`], minimum hops then
//!   smallest index) fed Johnson's distances must reconstruct genuine
//!   shortest paths of exactly the closure weight.
//!
//! The suite runs 1000 random cases.

use clocksync_graph::{
    blocked_floyd_warshall_i64, reconstruct_path, shortest_path_successors, sparse_closure_i64,
    LinkWeights, SquareMatrix, UNREACHABLE,
};
use clocksync_time::Ext;
use proptest::prelude::*;

/// A random *sparse* sentinel-`i64` digraph: `n ≤ 16` with an edge list of
/// roughly `O(n)` edges, so disconnected components and sink rows arise
/// constantly; weights in `[-20, 20]` (negative cycles included on
/// purpose); some nodes additionally forced into pure sinks (every
/// out-edge removed — a whole `+∞` row).
fn sparse_sentinel_graph() -> impl Strategy<Value = SquareMatrix<i64>> {
    (1usize..=16).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, -20i64..=20), 0..=2 * n);
        let sinks = proptest::collection::vec(0..n, 0..=n / 4);
        (edges, sinks).prop_map(move |(edges, sinks)| {
            let mut m = SquareMatrix::filled(n, UNREACHABLE);
            for i in 0..n {
                m[(i, i)] = 0;
            }
            for (u, v, w) in edges {
                if u != v && w < m[(u, v)] {
                    m[(u, v)] = w;
                }
            }
            for s in sinks {
                for j in 0..n {
                    if s != j {
                        m[(s, j)] = UNREACHABLE;
                    }
                }
            }
            m
        })
    })
}

/// Asserts that `next` reconstructs, for every pair, a real path in `m`
/// whose total weight is exactly `dist[(i, j)]` — or that the pair is
/// genuinely unreachable.
fn assert_successors_valid(
    m: &SquareMatrix<i64>,
    dist: &SquareMatrix<i64>,
    next: &SquareMatrix<usize>,
) -> Result<(), TestCaseError> {
    let n = m.n();
    for i in 0..n {
        for j in 0..n {
            match reconstruct_path(next, i, j) {
                Some(path) => {
                    prop_assert_eq!(path[0], i);
                    prop_assert_eq!(*path.last().unwrap(), j);
                    let mut total = 0i64;
                    for pair in path.windows(2) {
                        let w = m[(pair[0], pair[1])];
                        prop_assert!(w != UNREACHABLE, "path uses absent edge");
                        total += w;
                    }
                    prop_assert_eq!(total, dist[(i, j)], "path weight != dist at ({},{})", i, j);
                }
                None => prop_assert!(
                    dist[(i, j)] == UNREACHABLE,
                    "no path reconstructed for reachable pair ({},{})",
                    i,
                    j
                ),
            }
        }
    }
    Ok(())
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Johnson's algorithm equals the dense kernel exactly on sparse
    /// topologies, including disconnected components and sink rows:
    /// distances bit-identical, successors valid, errors agree.
    #[test]
    fn sparse_johnson_matches_dense(m in sparse_sentinel_graph()) {
        match (sparse_closure_i64(&m), blocked_floyd_warshall_i64(&m)) {
            (Ok(sd), Ok(dd)) => {
                prop_assert_eq!(&sd, &dd, "sparse distances differ from dense");
                let snext = shortest_path_successors(&LinkWeights::from_matrix(&ext_of(&m)), &ext_of(&sd));
                assert_successors_valid(&m, &sd, &snext)?;
            }
            (Err(_), Err(_)) => {}
            (s, d) => prop_assert!(false, "sparse outcome mismatch: {:?} vs dense {:?}", s, d),
        }
    }
}
