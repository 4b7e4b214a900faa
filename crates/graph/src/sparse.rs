//! Johnson's closure backend, for large sparse or multi-component domains.
//!
//! The dense kernel ([`crate::blocked_floyd_warshall_i64`]) pays `O(n³)`
//! regardless of how many links actually exist. WAN- and toroid-like
//! topologies have `m = O(n)` directed links, and a domain of several weak
//! components has no path between them, so for both this module runs
//! Johnson's algorithm straight over the link table and its per-slot
//! `i64` counts. One Bellman–Ford pass from a virtual source computes
//! potentials that reweight every edge non-negative, then a binary-heap
//! Dijkstra per source yields all pairs in `O(n·(m + n log n))`; a
//! Dijkstra run never leaves its source's component. Each source's run
//! uses its own row of the closure buffer as its distance array, and each
//! thread keeps one heap for all its sources, so the kernel allocates the
//! `n × n` result and little else. [`sparse_closure_i64`] is the same
//! kernel on a dense sentinel-encoded matrix.
//!
//! Distances and reachability agree **exactly** with the dense kernels
//! (the property suite in `tests/sparse_equivalence.rs` checks this on
//! thousands of random graphs).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rayon::prelude::*;

use crate::{link_counts, LinkTable, NegativeCycleError, SquareMatrix, UNREACHABLE};

/// Below this dimension the per-source Dijkstra runs stay on the calling
/// thread: the vendored rayon spawns OS threads on every call, which a
/// small closure does not repay.
const PAR_THRESHOLD: usize = 192;

/// The finite out-edges of `u` as `(target, count)` pairs.
fn out_edges<'a>(
    table: &'a LinkTable,
    counts: &'a [i64],
    u: usize,
) -> impl Iterator<Item = (usize, i64)> + 'a {
    table
        .row(u)
        .filter(move |&s| counts[s] != UNREACHABLE)
        .map(move |s| (table.target(s), counts[s]))
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
fn potentials(table: &LinkTable, counts: &[i64]) -> Result<Vec<i64>, NegativeCycleError> {
    let n = table.n();
    let finite = counts.iter().filter(|&&w| w != UNREACHABLE);
    let limit = finite.fold(0, |l, w| l.max(w.saturating_abs()));
    let floor = limit.saturating_mul(n as i64 - 1).saturating_neg();
    let mut h = vec![0i64; n];
    for round in 0..n {
        let mut changed = false;
        for u in 0..n {
            let hu = h[u];
            for (v, w) in out_edges(table, counts, u) {
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
/// (`w'(u, v) = w + h[u] − h[v] ≥ 0`), in `dist`, which then holds the
/// distances from `s` with the reweighting undone and [`UNREACHABLE`] for
/// no path.
fn dijkstra_row(
    table: &LinkTable,
    counts: &[i64],
    h: &[i64],
    s: usize,
    dist: &mut [i64],
    heap: &mut BinaryHeap<Reverse<(i64, usize)>>,
) {
    dist.fill(i64::MAX);
    dist[s] = 0;
    heap.clear();
    heap.push(Reverse((0, s)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for (v, w) in out_edges(table, counts, u) {
            let nd = d + w + h[u] - h[v];
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    for (t, entry) in dist.iter_mut().enumerate() {
        *entry = if *entry == i64::MAX {
            UNREACHABLE
        } else {
            // Undo the reweighting: d(s,t) = d'(s,t) − h[s] + h[t].
            *entry - h[s] + h[t]
        };
    }
}

/// All-pairs distances over the per-slot counts of `table` (sentinel
/// [`UNREACHABLE`] for a direction without a finite count), by Johnson's
/// algorithm; the diagonal is `0`.
pub(crate) fn johnson(
    table: &LinkTable,
    counts: &[i64],
) -> Result<SquareMatrix<i64>, NegativeCycleError> {
    let n = table.n();
    let h = potentials(table, counts)?;
    let mut flat = vec![0i64; n * n];
    let threads = rayon::current_num_threads();
    let rows = |first: usize, block: &mut [i64]| {
        let mut heap = BinaryHeap::new();
        for (k, dist) in block.chunks_exact_mut(n).enumerate() {
            dijkstra_row(table, counts, &h, first + k, dist, &mut heap);
        }
    };
    if n >= PAR_THRESHOLD && threads > 1 {
        // One contiguous block of rows per thread.
        let per = n.div_ceil(threads);
        flat.par_chunks_mut(per * n)
            .enumerate()
            .for_each(|(b, block)| rows(b * per, block));
    } else if n > 0 {
        rows(0, &mut flat);
    }
    Ok(SquareMatrix::from_vec(n, flat))
}

/// All-pairs shortest-path distances over sentinel-encoded `i64` weights
/// via Johnson's algorithm — the sparse counterpart of
/// [`crate::blocked_floyd_warshall_i64`], with identical conventions
/// ([`UNREACHABLE`] sentinel, diagonal normalized to `min(0, input)`) and
/// bit-identical distances. It runs the closure's Johnson kernel on the
/// matrix's [`link_counts`].
///
/// # Errors
///
/// Returns [`NegativeCycleError`] when the graph contains a negative
/// cycle: a negative diagonal entry names its node, any other cycle is
/// detected by the Bellman–Ford potential pass.
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
    if let Some(witness) = (0..weights.n()).find(|&i| weights[(i, i)] < 0) {
        return Err(NegativeCycleError { witness });
    }
    let (table, counts) = link_counts(weights);
    johnson(&table, &counts)
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
