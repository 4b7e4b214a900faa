//! Property equivalence of the sparse closure backends against the dense
//! blocked kernel — the correctness contract of the large-`n` perf layer:
//!
//! * [`sparse_closure_i64`] (Johnson) and [`hierarchical_closure_i64`]
//!   (per-component closures composed through boundary nodes) must produce
//!   **bit-identical distances** to [`blocked_floyd_warshall_i64`] on every
//!   graph without a negative cycle — including disconnected components,
//!   sink rows (no out-edges), and sentinel `+∞` — and must agree
//!   error-for-error on graphs with one.
//! * The hierarchical composition must hold for **arbitrary** partitions,
//!   not just the weak-component one.
//! * Successor matrices (canonical minimum-hop rule, which may break
//!   equal-weight ties differently than Floyd–Warshall) must still
//!   reconstruct genuine shortest paths of exactly the closure weight.
//!
//! Each suite runs 1000 random cases.

use clocksync_graph::{
    blocked_floyd_warshall_i64, hierarchical_closure_i64, hierarchical_closure_i64_with_partition,
    reconstruct_path, sparse_closure_i64, weak_components_i64, SquareMatrix, UNREACHABLE,
};
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

/// A sparse graph plus a random partition of its nodes (cluster count and
/// assignment both arbitrary — deliberately *not* the weak components).
fn graph_with_partition() -> impl Strategy<Value = (SquareMatrix<i64>, Vec<Vec<usize>>)> {
    sparse_sentinel_graph().prop_flat_map(|m| {
        let n = m.n();
        proptest::collection::vec(0..n, n).prop_map(move |assign| {
            let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (node, &c) in assign.iter().enumerate() {
                clusters[c].push(node);
            }
            clusters.retain(|c| !c.is_empty());
            (m.clone(), clusters)
        })
    })
}

/// Asserts that `next` reconstructs, for every pair, a real path in `m`
/// whose total weight is exactly `dist[(i, j)]` — or that the pair is
/// genuinely unreachable. (The sparse backends' minimum-hop successors
/// need not *equal* the Floyd–Warshall ones, only be valid.)
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

/// Runs one sparse backend against the dense reference on `m`: distances
/// bit-identical, successors valid, errors agree.
fn assert_backend_matches_dense(
    m: &SquareMatrix<i64>,
    backend: impl Fn(
        &SquareMatrix<i64>,
    ) -> Result<
        (SquareMatrix<i64>, SquareMatrix<usize>),
        clocksync_graph::NegativeCycleError,
    >,
    label: &str,
) -> Result<(), TestCaseError> {
    match (backend(m), blocked_floyd_warshall_i64(m)) {
        (Ok((sd, snext)), Ok((dd, _))) => {
            prop_assert_eq!(&sd, &dd, "{} distances differ from dense", label);
            assert_successors_valid(m, &sd, &snext)?;
        }
        (Err(_), Err(_)) => {}
        (s, d) => prop_assert!(
            false,
            "{} outcome mismatch: {:?} vs dense {:?}",
            label,
            s.map(|(dist, _)| dist),
            d.map(|(dist, _)| dist)
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Johnson's algorithm equals the dense kernel exactly on sparse
    /// topologies, including disconnected components and sink rows.
    #[test]
    fn sparse_johnson_matches_dense(m in sparse_sentinel_graph()) {
        assert_backend_matches_dense(&m, sparse_closure_i64, "sparse")?;
    }

    /// The hierarchical closure over the default weak-component partition
    /// equals the dense kernel exactly; the partition really is one.
    #[test]
    fn hierarchical_matches_dense(m in sparse_sentinel_graph()) {
        let components = weak_components_i64(&m);
        let covered: usize = components.iter().map(|c| c.len()).sum();
        prop_assert_eq!(covered, m.n(), "components are not a partition");
        assert_backend_matches_dense(&m, hierarchical_closure_i64, "hierarchical")?;
    }

    /// The boundary-node composition is exact for *arbitrary* partitions,
    /// not just weak components — clusters may split real components and
    /// glue unrelated nodes together.
    #[test]
    fn hierarchical_arbitrary_partition_matches_dense(
        (m, clusters) in graph_with_partition()
    ) {
        assert_backend_matches_dense(
            &m,
            |w| hierarchical_closure_i64_with_partition(w, &clusters),
            "partitioned",
        )?;
    }
}
