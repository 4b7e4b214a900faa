//! All-pairs shortest paths (Floyd–Warshall) producing the metric closure.

use crate::{NegativeCycleError, SquareMatrix, Weight};

/// Computes the all-pairs shortest-path closure of a dense weight matrix.
///
/// Input conventions (as produced by [`crate::DiGraph::to_matrix`]): the
/// diagonal holds `W::zero()` and absent edges hold `W::infinity()`. The
/// output `d[(i,j)]` is the weight of the shortest `i → j` path (`zero` on
/// the diagonal, `infinity` when unreachable). Runs in `O(n³)`.
///
/// This is the paper's **GLOBAL ESTIMATES** step (§5.3): maximal global
/// shift estimates are the shortest-path closure of the per-link local
/// estimates, and the closure satisfies the triangle inequality by
/// construction.
///
/// [`crate::shortest_path_successors`] recovers the paths themselves — the
/// chains of link constraints that limit how far each pair's clocks can
/// drift apart.
///
/// # Errors
///
/// Returns [`NegativeCycleError`] if the graph contains a negative-weight
/// cycle. The kernel stops at the first `k`-level that leaves a negative
/// diagonal entry and names the smallest such node: up to that level every
/// entry is a simple-path length, so no sum can overflow however negative
/// the cycle.
///
/// # Examples
///
/// ```
/// use clocksync_graph::{DiGraph, floyd_warshall};
/// use clocksync_time::Ext;
///
/// let mut g = DiGraph::new(3);
/// g.add_edge(0, 1, Ext::Finite(1i64));
/// g.add_edge(1, 2, Ext::Finite(2));
/// let d = floyd_warshall(&g.to_matrix())?;
/// assert_eq!(d[(0, 2)], Ext::Finite(3));
/// assert_eq!(d[(2, 0)], Ext::PosInf);
/// # Ok::<(), clocksync_graph::NegativeCycleError>(())
/// ```
pub fn floyd_warshall<W: Weight>(
    m: &SquareMatrix<W>,
) -> Result<SquareMatrix<W>, NegativeCycleError> {
    let n = m.n();
    let mut d = m.clone();
    // Normalize the diagonal: a path of length zero always exists.
    for i in 0..n {
        if W::zero() < d[(i, i)] {
            d[(i, i)] = W::zero();
        }
    }
    let negative = |d: &SquareMatrix<W>| (0..n).find(|&i| d[(i, i)] < W::zero());
    for k in 0..n {
        if let Some(witness) = negative(&d) {
            return Err(NegativeCycleError { witness });
        }
        for i in 0..n {
            if !d[(i, k)].is_reachable() {
                continue;
            }
            for j in 0..n {
                if !d[(k, j)].is_reachable() {
                    continue;
                }
                let via = d[(i, k)] + d[(k, j)];
                if via < d[(i, j)] {
                    d[(i, j)] = via;
                }
            }
        }
    }
    match negative(&d) {
        Some(witness) => Err(NegativeCycleError { witness }),
        None => Ok(d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reconstruct_path, shortest_path_successors, DiGraph, LinkWeights};
    use clocksync_time::Ext;

    fn w(x: i64) -> Ext<i64> {
        Ext::Finite(x)
    }

    fn graph(n: usize, edges: &[(usize, usize, i64)]) -> SquareMatrix<Ext<i64>> {
        let mut g = DiGraph::new(n);
        for &(a, b, c) in edges {
            g.add_edge(a, b, w(c));
        }
        g.to_matrix()
    }

    #[test]
    fn closure_of_a_path() {
        let d = floyd_warshall(&graph(3, &[(0, 1, 1), (1, 2, 2)])).unwrap();
        assert_eq!(d[(0, 2)], w(3));
        assert_eq!(d[(0, 1)], w(1));
        assert_eq!(d[(1, 0)], Ext::PosInf);
        assert_eq!(d[(0, 0)], w(0));
    }

    #[test]
    fn picks_cheaper_indirect_route() {
        let d = floyd_warshall(&graph(3, &[(0, 2, 10), (0, 1, 2), (1, 2, 3)])).unwrap();
        assert_eq!(d[(0, 2)], w(5));
    }

    #[test]
    fn handles_negative_edges() {
        let d = floyd_warshall(&graph(3, &[(0, 1, 5), (1, 2, -4), (0, 2, 2)])).unwrap();
        assert_eq!(d[(0, 2)], w(1));
    }

    #[test]
    fn detects_negative_cycle() {
        let err = floyd_warshall(&graph(2, &[(0, 1, 1), (1, 0, -2)])).unwrap_err();
        let _ = err.witness;
    }

    #[test]
    fn zero_cycle_is_not_negative() {
        let d = floyd_warshall(&graph(2, &[(0, 1, 3), (1, 0, -3)])).unwrap();
        assert_eq!(d[(0, 0)], w(0));
        assert_eq!(d[(0, 1)], w(3));
    }

    #[test]
    fn triangle_inequality_holds_on_closure() {
        let d = floyd_warshall(&graph(
            4,
            &[(0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 0, 2), (0, 2, 7)],
        ))
        .unwrap();
        let n = d.n();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    if d[(i, k)].is_reachable() && d[(k, j)].is_reachable() {
                        assert!(d[(i, j)] <= d[(i, k)] + d[(k, j)]);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_matrix() {
        let m: SquareMatrix<Ext<i64>> = SquareMatrix::filled(0, Ext::PosInf);
        assert!(floyd_warshall(&m).is_ok());
    }

    #[test]
    fn path_reconstruction_follows_shortest_routes() {
        let m = graph(4, &[(0, 1, 2), (1, 2, 2), (0, 2, 10), (2, 3, 1)]);
        let d = floyd_warshall(&m).unwrap();
        let next = shortest_path_successors(&LinkWeights::from_matrix(&m), &d);
        assert_eq!(d[(0, 3)], w(5));
        assert_eq!(reconstruct_path(&next, 0, 3), Some(vec![0, 1, 2, 3]));
        assert_eq!(reconstruct_path(&next, 0, 0), Some(vec![0]));
        assert_eq!(reconstruct_path(&next, 3, 0), None);
        // Direct edge wins when it is cheapest.
        let m2 = graph(3, &[(0, 1, 1), (1, 2, 5), (0, 2, 2)]);
        let next2 = shortest_path_successors(
            &LinkWeights::from_matrix(&m2),
            &floyd_warshall(&m2).unwrap(),
        );
        assert_eq!(reconstruct_path(&next2, 0, 2), Some(vec![0, 2]));
    }

    #[test]
    fn reconstructed_path_weight_matches_distance() {
        let m = graph(
            5,
            &[
                (0, 1, 3),
                (1, 2, 4),
                (2, 3, 1),
                (3, 4, 2),
                (0, 2, 9),
                (1, 4, 20),
            ],
        );
        let d = floyd_warshall(&m).unwrap();
        let next = shortest_path_successors(&LinkWeights::from_matrix(&m), &d);
        for i in 0..5 {
            for j in 0..5 {
                if let Some(path) = reconstruct_path(&next, i, j) {
                    let mut total = w(0);
                    for pair in path.windows(2) {
                        total = total + m[(pair[0], pair[1])];
                    }
                    assert_eq!(total, d[(i, j)], "path {path:?}");
                } else {
                    assert_eq!(d[(i, j)], Ext::PosInf);
                }
            }
        }
    }
}
