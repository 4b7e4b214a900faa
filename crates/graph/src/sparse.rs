//! Johnson's closure backend, for large sparse or multi-component domains.
//!
//! The dense kernel ([`crate::blocked_floyd_warshall_i64`]) pays `O(n³)`
//! regardless of how many links actually exist. WAN- and toroid-like
//! topologies have `m = O(n)` directed links, and a domain of several weak
//! components has no path between them, so for both this module provides
//! [`sparse_closure_i64`]: Johnson's algorithm over a
//! compressed-sparse-row copy of the same sentinel-encoded `i64` weights.
//! One Bellman–Ford pass from a virtual source computes potentials that
//! reweight every edge non-negative, then a binary-heap Dijkstra per
//! source yields all pairs in `O(n·(m + n log n))`; a Dijkstra run never
//! leaves its source's component.
//!
//! Distances and reachability agree **exactly** with the dense kernels
//! (the property suite in `tests/sparse_equivalence.rs` checks this on
//! thousands of random graphs).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rayon::prelude::*;

use crate::{NegativeCycleError, SquareMatrix, UNREACHABLE};

/// Below this dimension the per-source Dijkstra runs stay on the calling
/// thread: the vendored rayon spawns OS threads on every call, which a
/// small closure does not repay.
const PAR_THRESHOLD: usize = 192;

/// A compressed-sparse-row digraph over sentinel-encoded `i64` weights:
/// the adjacency representation behind the Johnson closure.
struct CsrGraph {
    n: usize,
    row_ptr: Vec<usize>,
    col: Vec<usize>,
    weight: Vec<i64>,
}

impl CsrGraph {
    /// Builds the CSR form of a sentinel-encoded matrix, keeping every
    /// finite off-diagonal entry. Diagonal entries are kept only when
    /// negative (a 1-cycle the closure kernels must detect); non-negative
    /// self-loops can never shorten a path.
    fn from_matrix(m: &SquareMatrix<i64>) -> CsrGraph {
        let n = m.n();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col = Vec::new();
        let mut weight = Vec::new();
        row_ptr.push(0);
        for i in 0..n {
            for (j, &w) in m.row(i).iter().enumerate() {
                if w == UNREACHABLE || (i == j && w >= 0) {
                    continue;
                }
                col.push(j);
                weight.push(w);
            }
            row_ptr.push(col.len());
        }
        CsrGraph {
            n,
            row_ptr,
            col,
            weight,
        }
    }

    /// The out-edges of `u` as `(target, weight)` pairs.
    fn out_edges(&self, u: usize) -> impl Iterator<Item = (usize, i64)> + '_ {
        let range = self.row_ptr[u]..self.row_ptr[u + 1];
        self.col[range.clone()]
            .iter()
            .copied()
            .zip(self.weight[range].iter().copied())
    }
}

/// Bellman–Ford from a virtual source connected to every node by a
/// zero-weight edge: the Johnson potentials. `h[v] ≤ 0` and for every
/// edge `u → v`: `w + h[u] − h[v] ≥ 0`.
///
/// No simple path weighs less than `−(n−1)·L`, `L` the largest edge
/// magnitude, so an `h` below that floor lies past a negative cycle. The
/// pass stops there after each round, as the corrections pass does: a
/// round extends a walk by at most `n − 1` edges, so every sum stays within
/// `±(2n−1)·L` — far from overflow on any closure input, however deep
/// the cycle.
fn potentials(g: &CsrGraph) -> Result<Vec<i64>, NegativeCycleError> {
    let n = g.n;
    let limit = g.weight.iter().fold(0, |l, w| l.max(w.saturating_abs()));
    let floor = limit.saturating_mul(n as i64 - 1).saturating_neg();
    let mut h = vec![0i64; n];
    for round in 0..n {
        let mut changed = false;
        for u in 0..n {
            let hu = h[u];
            for (v, w) in g.out_edges(u) {
                if hu + w < h[v] {
                    if round + 1 == n {
                        // Still relaxing on the n-th round: negative cycle.
                        return Err(NegativeCycleError { witness: v });
                    }
                    h[v] = hu + w;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
        let deepest = (0..n).min_by_key(|&v| h[v]).expect("a relaxed node");
        if h[deepest] < floor {
            return Err(NegativeCycleError { witness: deepest });
        }
    }
    Ok(h)
}

/// Binary-heap Dijkstra from `s` over the reweighted graph
/// (`w'(u, v) = w + h[u] − h[v] ≥ 0`), returning *reweighted* distances
/// with `i64::MAX` for unreachable.
fn dijkstra_reweighted(g: &CsrGraph, h: &[i64], s: usize) -> Vec<i64> {
    let n = g.n;
    let mut dist = vec![i64::MAX; n];
    let mut heap: BinaryHeap<Reverse<(i64, usize)>> = BinaryHeap::new();
    dist[s] = 0;
    heap.push(Reverse((0, s)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for (v, w) in g.out_edges(u) {
            let nd = d + w + h[u] - h[v];
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// All-pairs shortest-path distances over sentinel-encoded `i64` weights
/// via Johnson's algorithm — the sparse counterpart of
/// [`crate::blocked_floyd_warshall_i64`], with identical conventions
/// ([`UNREACHABLE`] sentinel, diagonal normalized to `min(0, input)`) and
/// bit-identical distances.
///
/// # Errors
///
/// Returns [`NegativeCycleError`] when the graph contains a negative
/// cycle (including a negative diagonal entry), detected by the
/// Bellman–Ford potential pass.
///
/// # Examples
///
/// ```
/// use clocksync_graph::{sparse_closure_i64, SquareMatrix, UNREACHABLE};
///
/// let mut w = SquareMatrix::filled(3, UNREACHABLE);
/// for i in 0..3 { w[(i, i)] = 0; }
/// w[(0, 1)] = 4;
/// w[(1, 2)] = -1;
/// let dist = sparse_closure_i64(&w)?;
/// assert_eq!(dist[(0, 2)], 3);
/// assert_eq!(dist[(2, 0)], UNREACHABLE);
/// # Ok::<(), clocksync_graph::NegativeCycleError>(())
/// ```
pub fn sparse_closure_i64(
    weights: &SquareMatrix<i64>,
) -> Result<SquareMatrix<i64>, NegativeCycleError> {
    let g = CsrGraph::from_matrix(weights);
    let n = g.n;
    let h = potentials(&g)?;
    let row = |s: usize| -> Vec<i64> {
        let mut d = dijkstra_reweighted(&g, &h, s);
        for (t, entry) in d.iter_mut().enumerate() {
            *entry = if *entry == i64::MAX {
                UNREACHABLE
            } else {
                // Undo the reweighting: d(s,t) = d'(s,t) − h[s] + h[t].
                *entry - h[s] + h[t]
            };
        }
        d
    };
    let rows: Vec<Vec<i64>> = if n >= PAR_THRESHOLD && rayon::current_num_threads() > 1 {
        (0..n).into_par_iter().map(row).collect()
    } else {
        (0..n).map(row).collect()
    };
    let mut flat = Vec::with_capacity(n * n);
    for r in rows {
        flat.extend_from_slice(&r);
    }
    Ok(SquareMatrix::from_vec(n, flat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocked_floyd_warshall_i64;
    use crate::half_ns::closure_limit;

    #[test]
    fn a_deep_negative_ring_stops_at_the_potential_floor() {
        // A 192-node ring whose every edge weighs −10^15 ns (−2·10^15
        // counts, inside the closure bound), so every 2-cycle is negative.
        // Each in-place round sinks the potentials by about n edges' worth:
        // without the floor they passed i64::MIN within 25 of the 192
        // rounds.
        let n = 192;
        let w = -2_000_000_000_000_000;
        assert!(-w <= closure_limit(n));
        let ring = SquareMatrix::from_fn(n, |i, j| {
            if i == j {
                0
            } else if (i + 1) % n == j || (j + 1) % n == i {
                w
            } else {
                UNREACHABLE
            }
        });
        assert!(sparse_closure_i64(&ring).is_err());
        assert!(blocked_floyd_warshall_i64(&ring).is_err());
    }
}
