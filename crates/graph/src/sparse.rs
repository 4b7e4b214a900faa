//! Sparse and hierarchical closure backends for large, sparse domains.
//!
//! The dense blocked kernel ([`crate::blocked_floyd_warshall_i64`]) pays
//! `O(n³)` regardless of how many links actually exist. WAN- and
//! toroid-like topologies have `m = O(n)` directed links, so for them this
//! module provides:
//!
//! * [`CsrGraph`] — a compressed-sparse-row digraph over the same
//!   sentinel-encoded `i64` weights the dense kernel uses;
//! * [`sparse_closure_i64`] — Johnson's algorithm: one Bellman–Ford pass
//!   from a virtual source computes potentials that reweight every edge
//!   non-negative, then a binary-heap Dijkstra per source yields all
//!   pairs in `O(n·(m + n log n))`;
//! * [`hierarchical_closure_i64`] — per-weak-component closures composed
//!   through boundary nodes, so a domain of many small components pays
//!   only the sum of its component costs (and the boundary graph's).
//!
//! All backends agree **exactly** with the dense kernels on distances and
//! reachability (the property suite in `tests/sparse_equivalence.rs`
//! checks this on thousands of random graphs). Successor matrices are
//! derived post-hoc by [`derive_successors_i64`]'s canonical minimum-hop
//! rule, which is deterministic and heap-order-independent but may break
//! equal-weight ties differently than Floyd–Warshall does.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rayon::prelude::*;

use crate::blocked::PAR_THRESHOLD;
use crate::{
    blocked_floyd_warshall_i64, NegativeCycleError, SquareMatrix, SPARSE_MAX_DENSITY, SPARSE_MIN_N,
    UNREACHABLE,
};

/// A compressed-sparse-row digraph over sentinel-encoded `i64` weights:
/// the adjacency representation behind the Johnson and hierarchical
/// closures. Within each row the out-edges are sorted by target index,
/// which is what makes the canonical successor derivation deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
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
    pub fn from_matrix(m: &SquareMatrix<i64>) -> CsrGraph {
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

    /// Builds a CSR graph from an explicit edge list (parallel edges are
    /// merged to their minimum weight; non-negative self-loops dropped).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(usize, usize, i64)]) -> CsrGraph {
        let mut weight: Vec<i64> = Vec::new();
        let mut sorted: Vec<(usize, usize, i64)> = edges
            .iter()
            .copied()
            .filter(|&(u, v, w)| {
                assert!(u < n && v < n, "edge endpoint out of range");
                u != v || w < 0
            })
            .collect();
        sorted.sort_unstable();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col = Vec::new();
        row_ptr.push(0);
        let mut at = 0usize;
        for i in 0..n {
            while at < sorted.len() && sorted[at].0 == i {
                let (_, v, w) = sorted[at];
                if col.len() > row_ptr[i] && *col.last().expect("nonempty") == v {
                    let last = weight.last_mut().expect("nonempty");
                    *last = (*last).min(w);
                } else {
                    col.push(v);
                    weight.push(w);
                }
                at += 1;
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

    /// The number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The number of stored directed edges.
    pub fn edge_count(&self) -> usize {
        self.col.len()
    }

    /// Stored edges as a fraction of `n²`.
    pub fn density(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.edge_count() as f64 / (self.n as f64 * self.n as f64)
        }
    }

    /// The out-edges of `u` as `(target, weight)` pairs, sorted by target.
    pub fn out_edges(&self, u: usize) -> impl Iterator<Item = (usize, i64)> + '_ {
        let range = self.row_ptr[u]..self.row_ptr[u + 1];
        self.col[range.clone()]
            .iter()
            .copied()
            .zip(self.weight[range].iter().copied())
    }

    /// The reversed graph (every edge `u → v` becomes `v → u`).
    pub fn transpose(&self) -> CsrGraph {
        let mut degree = vec![0usize; self.n];
        for &v in &self.col {
            degree[v] += 1;
        }
        let mut row_ptr = Vec::with_capacity(self.n + 1);
        row_ptr.push(0);
        for d in &degree {
            row_ptr.push(row_ptr.last().expect("nonempty") + d);
        }
        let mut cursor = row_ptr[..self.n].to_vec();
        let mut col = vec![0usize; self.col.len()];
        let mut weight = vec![0i64; self.col.len()];
        for u in 0..self.n {
            for (v, w) in self.out_edges(u) {
                col[cursor[v]] = u;
                weight[cursor[v]] = w;
                cursor[v] += 1;
            }
        }
        // Rows come out sorted automatically: u ascends in the outer loop.
        CsrGraph {
            n: self.n,
            row_ptr,
            col,
            weight,
        }
    }
}

/// Bellman–Ford from a virtual source connected to every node by a
/// zero-weight edge: the Johnson potentials. `h[v] ≤ 0` and for every
/// edge `u → v`: `w + h[u] − h[v] ≥ 0`.
fn potentials(g: &CsrGraph) -> Result<Vec<i64>, NegativeCycleError> {
    let n = g.n();
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
    }
    Ok(h)
}

/// Binary-heap Dijkstra from `s` over the reweighted graph
/// (`w'(u, v) = w + h[u] − h[v] ≥ 0`), returning *reweighted* distances
/// with `i64::MAX` for unreachable.
fn dijkstra_reweighted(g: &CsrGraph, h: &[i64], s: usize) -> Vec<i64> {
    let n = g.n();
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

/// All-pairs distances of a CSR graph via Johnson's algorithm. Errors on
/// negative cycles (detected by the Bellman–Ford potential pass).
fn sparse_distances(g: &CsrGraph) -> Result<SquareMatrix<i64>, NegativeCycleError> {
    let n = g.n();
    let h = potentials(g)?;
    let row = |s: usize| -> Vec<i64> {
        let mut d = dijkstra_reweighted(g, &h, s);
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

/// Derives a canonical successor matrix from a graph and its exact
/// all-pairs distance closure, matching the conventions of
/// [`crate::floyd_warshall_with_paths`]: `next[(i, j)]` is the node after
/// `i` on a shortest `i → j` path, `usize::MAX` iff unreachable or
/// `i == j`.
///
/// The rule is the **minimum-hop tie-break**: among the out-edges of `i`
/// that lie on some shortest `i → j` path ("tight" edges, `w(i, v) +
/// dist(v, j) = dist(i, j)`), pick the smallest-indexed `v` whose tight
/// hop count to `j` is exactly one less than `i`'s. Hop counts come from a
/// BFS over reversed tight edges per target, so following `next` strictly
/// decreases the hop count — the successor matrix can never loop, even
/// through zero-weight cycles, and the result is independent of any heap
/// or thread ordering.
pub fn derive_successors_i64(g: &CsrGraph, dist: &SquareMatrix<i64>) -> SquareMatrix<usize> {
    let n = g.n();
    let rev = g.transpose();
    // Column j of `dist`, contiguous: dist_t.row(j)[u] = dist[(u, j)].
    let dist_t = SquareMatrix::from_fn(n, |a, b| dist[(b, a)]);
    let column = |j: usize| -> Vec<usize> {
        let dcol = dist_t.row(j);
        let mut hops = vec![usize::MAX; n];
        let mut queue = VecDeque::new();
        hops[j] = 0;
        queue.push_back(j);
        while let Some(x) = queue.pop_front() {
            let hx = hops[x];
            let dxj = dcol[x];
            for (u, w) in rev.out_edges(x) {
                if hops[u] != usize::MAX || dcol[u] == UNREACHABLE {
                    continue;
                }
                if w + dxj == dcol[u] {
                    hops[u] = hx + 1;
                    queue.push_back(u);
                }
            }
        }
        let mut col = vec![usize::MAX; n];
        for u in 0..n {
            if u == j || dcol[u] == UNREACHABLE {
                continue;
            }
            let hu = hops[u];
            debug_assert_ne!(hu, usize::MAX, "finite-distance node missed by tight BFS");
            for (v, w) in g.out_edges(u) {
                let dvj = dcol[v];
                if dvj != UNREACHABLE && w + dvj == dcol[u] && hops[v] == hu - 1 {
                    col[u] = v;
                    break;
                }
            }
            debug_assert_ne!(col[u], usize::MAX, "no tight successor found");
        }
        col
    };
    let columns: Vec<Vec<usize>> = if n >= PAR_THRESHOLD && rayon::current_num_threads() > 1 {
        (0..n).into_par_iter().map(column).collect()
    } else {
        (0..n).map(column).collect()
    };
    SquareMatrix::from_fn(n, |i, j| columns[j][i])
}

/// All-pairs shortest paths over sentinel-encoded `i64` weights via
/// Johnson's algorithm — the sparse counterpart of
/// [`crate::blocked_floyd_warshall_i64`], with identical conventions
/// ([`UNREACHABLE`] sentinel, diagonal normalized to `min(0, input)`,
/// `usize::MAX` successors) and bit-identical distances. Successors are
/// canonical minimum-hop ones (see [`derive_successors_i64`]), valid but
/// not necessarily the Floyd–Warshall tie-break.
///
/// # Errors
///
/// Returns [`NegativeCycleError`] when the graph contains a negative
/// cycle (including a negative diagonal entry).
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
/// let (dist, next) = sparse_closure_i64(&w)?;
/// assert_eq!(dist[(0, 2)], 3);
/// assert_eq!(next[(0, 2)], 1);
/// assert_eq!(dist[(2, 0)], UNREACHABLE);
/// # Ok::<(), clocksync_graph::NegativeCycleError>(())
/// ```
pub fn sparse_closure_i64(
    weights: &SquareMatrix<i64>,
) -> Result<(SquareMatrix<i64>, SquareMatrix<usize>), NegativeCycleError> {
    let g = CsrGraph::from_matrix(weights);
    let dist = sparse_distances(&g)?;
    let next = derive_successors_i64(&g, &dist);
    Ok((dist, next))
}

/// The weakly-connected components (over finite off-diagonal entries) of
/// a sentinel-encoded matrix, each sorted, in order of smallest member.
pub fn weak_components_i64(weights: &SquareMatrix<i64>) -> Vec<Vec<usize>> {
    let n = weights.n();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (i, j, &w) in weights.iter_off_diagonal() {
        if w == UNREACHABLE {
            continue;
        }
        let (a, b) = (find(&mut parent, i), find(&mut parent, j));
        if a != b {
            parent[a] = b;
        }
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of = vec![usize::MAX; n];
    for i in 0..n {
        let r = find(&mut parent, i);
        if group_of[r] == usize::MAX {
            group_of[r] = groups.len();
            groups.push(Vec::new());
        }
        groups[group_of[r]].push(i);
    }
    groups
}

/// Distances of one cluster's induced sub-matrix, density-dispatched:
/// Johnson for large sparse clusters, the dense blocked kernel otherwise.
fn cluster_distances(sub: &SquareMatrix<i64>) -> Result<SquareMatrix<i64>, NegativeCycleError> {
    let k = sub.n();
    if k >= SPARSE_MIN_N {
        let g = CsrGraph::from_matrix(sub);
        if g.density() <= SPARSE_MAX_DENSITY {
            return sparse_distances(&g);
        }
    }
    blocked_floyd_warshall_i64(sub).map(|(d, _)| d)
}

/// All-pairs shortest paths composed hierarchically from per-component
/// closures: the default partition is the graph's weak components (see
/// [`weak_components_i64`]), so a multi-component domain pays only the sum
/// of its per-component closure costs instead of one monolithic `O(n³)`.
/// Same conventions and distance guarantees as [`sparse_closure_i64`].
///
/// # Errors
///
/// Returns [`NegativeCycleError`] when the graph contains a negative
/// cycle.
pub fn hierarchical_closure_i64(
    weights: &SquareMatrix<i64>,
) -> Result<(SquareMatrix<i64>, SquareMatrix<usize>), NegativeCycleError> {
    let clusters = weak_components_i64(weights);
    hierarchical_closure_i64_with_partition(weights, &clusters)
}

/// All-pairs shortest paths composed through the boundary nodes of an
/// **arbitrary** node partition.
///
/// Any shortest path decomposes into maximal intra-cluster segments
/// separated by inter-cluster edges. So: close each cluster over its
/// intra-cluster edges; build the *boundary graph* whose nodes are the
/// endpoints of inter-cluster edges, with those edges plus the
/// intra-cluster closure distances between same-cluster boundary nodes as
/// super-edges; close it; then every pair composes as
///
/// `d(i, j) = min(d_intra(i, j),  min over boundary b₁ ∈ C(i), b₂ ∈ C(j)
/// of  d_intra(i, b₁) + d_B(b₁, b₂) + d_intra(b₂, j))`
///
/// (the boundary closure's zero diagonal makes the second term subsume
/// single-crossing routes). A negative cycle always surfaces in a cluster
/// closure or the boundary closure — never silently.
///
/// # Errors
///
/// Returns [`NegativeCycleError`] when the graph contains a negative
/// cycle.
///
/// # Panics
///
/// Panics unless `clusters` is a partition of `0..n` (every node exactly
/// once, all in range).
pub fn hierarchical_closure_i64_with_partition(
    weights: &SquareMatrix<i64>,
    clusters: &[Vec<usize>],
) -> Result<(SquareMatrix<i64>, SquareMatrix<usize>), NegativeCycleError> {
    let n = weights.n();
    let mut cluster_of = vec![usize::MAX; n];
    let mut local_of = vec![0usize; n];
    for (ci, members) in clusters.iter().enumerate() {
        for (li, &x) in members.iter().enumerate() {
            assert!(x < n, "cluster member out of range");
            assert_eq!(cluster_of[x], usize::MAX, "node repeated across clusters");
            cluster_of[x] = ci;
            local_of[x] = li;
        }
    }
    assert!(
        cluster_of.iter().all(|&c| c != usize::MAX),
        "clusters must cover every node"
    );
    for i in 0..n {
        if weights[(i, i)] < 0 {
            return Err(NegativeCycleError { witness: i });
        }
    }

    // Per-cluster closures over intra-cluster edges only.
    let close_one = |members: &Vec<usize>| -> Result<SquareMatrix<i64>, NegativeCycleError> {
        let k = members.len();
        let sub = SquareMatrix::from_fn(k, |a, b| {
            if a == b {
                0
            } else {
                weights[(members[a], members[b])]
            }
        });
        cluster_distances(&sub).map_err(|e| NegativeCycleError {
            witness: members[e.witness],
        })
    };
    let results: Vec<Result<SquareMatrix<i64>, NegativeCycleError>> =
        if n >= PAR_THRESHOLD && rayon::current_num_threads() > 1 {
            clusters.par_iter().map(close_one).collect()
        } else {
            clusters.iter().map(close_one).collect()
        };
    let intra: Vec<SquareMatrix<i64>> = results.into_iter().collect::<Result<_, _>>()?;

    // Boundary nodes: endpoints of inter-cluster edges.
    let mut b_of = vec![usize::MAX; n];
    let mut inter_edges: Vec<(usize, usize, i64)> = Vec::new();
    for (i, j, &w) in weights.iter_off_diagonal() {
        if w != UNREACHABLE && cluster_of[i] != cluster_of[j] {
            inter_edges.push((i, j, w));
        }
    }
    let mut boundary: Vec<usize> = Vec::new();
    for &(u, v, _) in &inter_edges {
        for x in [u, v] {
            if b_of[x] == usize::MAX {
                b_of[x] = usize::MAX - 1; // mark; numbered after the scan
                boundary.push(x);
            }
        }
    }
    boundary.sort_unstable();
    for (bi, &x) in boundary.iter().enumerate() {
        b_of[x] = bi;
    }

    // Splice the intra closures into the full matrix.
    let mut dist = SquareMatrix::filled(n, UNREACHABLE);
    for (ci, members) in clusters.iter().enumerate() {
        for (a, &x) in members.iter().enumerate() {
            for (b, &y) in members.iter().enumerate() {
                dist[(x, y)] = intra[ci][(a, b)];
            }
        }
    }

    if !boundary.is_empty() {
        let nb = boundary.len();
        let mut bg = SquareMatrix::filled(nb, UNREACHABLE);
        for b in 0..nb {
            bg[(b, b)] = 0;
        }
        for &(u, v, w) in &inter_edges {
            let (a, b) = (b_of[u], b_of[v]);
            if w < bg[(a, b)] {
                bg[(a, b)] = w;
            }
        }
        for (a, &x) in boundary.iter().enumerate() {
            for (b, &y) in boundary.iter().enumerate() {
                if a != b && cluster_of[x] == cluster_of[y] {
                    let d = intra[cluster_of[x]][(local_of[x], local_of[y])];
                    if d < bg[(a, b)] {
                        bg[(a, b)] = d;
                    }
                }
            }
        }
        let b_dist = cluster_distances(&bg).map_err(|e| NegativeCycleError {
            witness: boundary[e.witness],
        })?;

        // Boundary indices grouped per cluster, for the composition scans.
        let mut bic: Vec<Vec<usize>> = vec![Vec::new(); clusters.len()];
        for (bi, &x) in boundary.iter().enumerate() {
            bic[cluster_of[x]].push(bi);
        }

        // d(i, j) ← min over b₂ ∈ B(C(j)) of D1(i, b₂) + d_intra(b₂, j),
        // where D1(i, b₂) = min over b₁ ∈ B(C(i)) of d_intra(i, b₁) +
        // d_B(b₁, b₂). Zero boundary diagonal subsumes the single-crossing
        // and same-cluster-return routes.
        let rows: Vec<usize> = (0..n).collect();
        let compose_row = |&i: &usize| -> Vec<i64> {
            let ci = cluster_of[i];
            let li = local_of[i];
            let mut d1 = vec![UNREACHABLE; nb];
            for &b1 in &bic[ci] {
                let to_b1 = intra[ci][(li, local_of[boundary[b1]])];
                if to_b1 == UNREACHABLE {
                    continue;
                }
                for b2 in 0..nb {
                    let via = b_dist[(b1, b2)];
                    if via != UNREACHABLE && to_b1 + via < d1[b2] {
                        d1[b2] = to_b1 + via;
                    }
                }
            }
            let mut out: Vec<i64> = dist.row(i).to_vec();
            for (cj, members) in clusters.iter().enumerate() {
                for &b2 in &bic[cj] {
                    let head = d1[b2];
                    if head == UNREACHABLE {
                        continue;
                    }
                    let lb2 = local_of[boundary[b2]];
                    for (b, &y) in members.iter().enumerate() {
                        let tail = intra[cj][(lb2, b)];
                        if tail != UNREACHABLE && head + tail < out[y] {
                            out[y] = head + tail;
                        }
                    }
                }
            }
            out
        };
        let composed: Vec<Vec<i64>> = if n >= PAR_THRESHOLD && rayon::current_num_threads() > 1 {
            rows.par_iter().map(compose_row).collect()
        } else {
            rows.iter().map(compose_row).collect()
        };
        let mut flat = Vec::with_capacity(n * n);
        for r in composed {
            flat.extend_from_slice(&r);
        }
        dist = SquareMatrix::from_vec(n, flat);
        // The boundary closure succeeded, so no negative cycle exists and
        // composition cannot drive the diagonal negative (any such route
        // would be a boundary-graph negative cycle). Keep the guard anyway.
        for i in 0..n {
            debug_assert!(dist[(i, i)] >= 0, "composed diagonal went negative");
            if dist[(i, i)] < 0 {
                return Err(NegativeCycleError { witness: i });
            }
        }
    }

    let g = CsrGraph::from_matrix(weights);
    let next = derive_successors_i64(&g, &dist);
    Ok((dist, next))
}
