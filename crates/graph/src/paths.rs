//! Constraint chains: shortest paths recovered from a closure.
//!
//! The closure kernels return distances only. A caller that wants to know
//! *which* path attains a closure entry — the chain of link constraints
//! behind a pair bound — asks [`shortest_path_successors`] for a successor
//! matrix once and expands pairs with [`reconstruct_path`].

use std::collections::VecDeque;

use crate::{LinkWeights, SquareMatrix, Weight};

/// Derives a successor matrix from per-link weights and their
/// shortest-path closure: `next[(i, j)]` is the node after `i` on a
/// shortest `i → j` path, `usize::MAX` when `j` is unreachable from `i` or
/// `i == j`.
///
/// `edges` holds the weight of each link direction (`W::infinity()` for
/// none), and `dist` must be the closure of its dense view
/// ([`LinkWeights::to_matrix`]), as [`crate::floyd_warshall`] or an
/// integer closure kernel returns it.
///
/// One rule picks every successor, the **minimum-hop tie-break**. An
/// out-edge `i → v` is *tight* for a target `j` when `edges(i, v) +
/// dist[(v, j)] = dist[(i, j)]`; among the tight out-edges of `i`, the
/// successor is the smallest-indexed `v` whose tight hop count to `j` is
/// exactly one less than `i`'s. Hop counts come from a breadth-first search
/// over reversed tight edges per target, so following `next` strictly
/// decreases the hop count: a chain never loops, even through zero-weight
/// cycles, and it depends only on `edges` and `dist`, never on the route
/// that computed the closure. Both scans read the link table's rows, in
/// ascending far-end order. The cost is `O(n·(n + m))` for `m` finite link
/// directions.
///
/// # Panics
///
/// Panics if the two differ in dimension. Debug builds also
/// panic when `dist` is not the closure of `edges` (a finite entry that
/// no tight path attains); release builds then leave that pair's
/// successor at `usize::MAX`.
///
/// # Examples
///
/// ```
/// use clocksync_graph::{
///     floyd_warshall, reconstruct_path, shortest_path_successors, DiGraph, LinkWeights,
/// };
/// use clocksync_time::Ext;
///
/// // Two shortest 0 → 3 paths of weight 2: via 1 and via 2.
/// let mut g = DiGraph::new(4);
/// for (a, b) in [(0, 2), (2, 3), (0, 1), (1, 3)] {
///     g.add_edge(a, b, Ext::Finite(1i64));
/// }
/// let edges = g.to_matrix();
/// let dist = floyd_warshall(&edges)?;
/// let next = shortest_path_successors(&LinkWeights::from_matrix(&edges), &dist);
/// assert_eq!(reconstruct_path(&next, 0, 3), Some(vec![0, 1, 3]));
/// assert_eq!(reconstruct_path(&next, 3, 0), None);
/// # Ok::<(), clocksync_graph::NegativeCycleError>(())
/// ```
pub fn shortest_path_successors<W: Weight>(
    edges: &LinkWeights<W>,
    dist: &SquareMatrix<W>,
) -> SquareMatrix<usize> {
    let (table, w) = (edges.table(), edges.weights());
    let n = table.n();
    assert_eq!(dist.n(), n, "edges and dist disagree on dimension");
    let mut next = SquareMatrix::filled(n, usize::MAX);
    let mut hops = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    for j in 0..n {
        hops.fill(usize::MAX);
        hops[j] = 0;
        queue.push_back(j);
        while let Some(x) = queue.pop_front() {
            // The in-edges u → x of x, by ascending u: each slot x → u
            // of x's row, read in reverse.
            for s in table.row(x) {
                let (u, wu) = (table.target(s), w[table.reverse(s)]);
                if wu.is_reachable() && hops[u] == usize::MAX && wu + dist[(x, j)] == dist[(u, j)] {
                    hops[u] = hops[x] + 1;
                    queue.push_back(u);
                }
            }
        }
        for u in 0..n {
            if u == j || !dist[(u, j)].is_reachable() {
                continue;
            }
            let hu = hops[u];
            debug_assert_ne!(hu, usize::MAX, "finite-distance node missed by tight BFS");
            // A node one hop closer was reached, so its distance is finite.
            let tight = table.row(u).find(|&s| {
                let v = table.target(s);
                w[s].is_reachable() && hops[v] == hu - 1 && w[s] + dist[(v, j)] == dist[(u, j)]
            });
            debug_assert!(tight.is_some(), "no tight successor found");
            if let Some(s) = tight {
                next[(u, j)] = table.target(s);
            }
        }
    }
    next
}

/// Expands a successor matrix (from [`shortest_path_successors`]) into the
/// node sequence of a shortest `from → to` path, inclusive of both
/// endpoints. Returns `None` when `to` is unreachable from `from`;
/// `Some(vec![from])` when `from == to`.
///
/// # Panics
///
/// Panics if following `next` revisits a node (a routing loop, which
/// [`shortest_path_successors`] never produces).
pub fn reconstruct_path(next: &SquareMatrix<usize>, from: usize, to: usize) -> Option<Vec<usize>> {
    if from == to {
        return Some(vec![from]);
    }
    if next[(from, to)] == usize::MAX {
        return None;
    }
    let mut path = vec![from];
    let mut cur = from;
    while cur != to {
        cur = next[(cur, to)];
        path.push(cur);
        assert!(
            path.len() <= next.n(),
            "successor matrix contains a routing loop"
        );
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{floyd_warshall, DiGraph};
    use clocksync_time::Ext;

    #[test]
    fn zero_weight_ties_take_the_fewest_hops_then_the_smallest_index() {
        // A zero-weight 6-cycle in both directions plus a chord 0 → 3:
        // every path is a shortest one, so only the rule decides.
        let mut g = DiGraph::new(6);
        for i in 0..6 {
            g.add_edge(i, (i + 1) % 6, Ext::Finite(0i64));
            g.add_edge((i + 1) % 6, i, Ext::Finite(0i64));
        }
        g.add_edge(0, 3, Ext::Finite(0i64));
        let edges = g.to_matrix();
        let next = shortest_path_successors(
            &LinkWeights::from_matrix(&edges),
            &floyd_warshall(&edges).unwrap(),
        );
        assert_eq!(reconstruct_path(&next, 0, 3), Some(vec![0, 3]));
        // 0 → 4: 0 → 3 → 4 and 0 → 5 → 4 both take two hops; 3 < 5.
        assert_eq!(reconstruct_path(&next, 0, 4), Some(vec![0, 3, 4]));
        // 3 → 0 has no chord: 3 → 2 → 1 → 0 and 3 → 4 → 5 → 0 tie.
        assert_eq!(reconstruct_path(&next, 3, 0), Some(vec![3, 2, 1, 0]));
        assert_eq!(reconstruct_path(&next, 2, 2), Some(vec![2]));
    }

    #[test]
    fn unreachable_pairs_have_no_successor() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, Ext::Finite(5i64));
        let edges = g.to_matrix();
        let next = shortest_path_successors(
            &LinkWeights::from_matrix(&edges),
            &floyd_warshall(&edges).unwrap(),
        );
        assert_eq!(next[(0, 1)], 1);
        for (i, j) in [(1, 0), (0, 2), (2, 1), (1, 1)] {
            assert_eq!(next[(i, j)], usize::MAX);
        }
    }
}
