//! A weighted directed graph over contiguous node indices.

use serde::{Deserialize, Serialize};

use crate::{SquareMatrix, Weight};

/// A directed edge with weight `W`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge<W> {
    /// Source node index.
    pub from: usize,
    /// Target node index.
    pub to: usize,
    /// Edge weight.
    pub weight: W,
}

/// A weighted directed graph with nodes `0..n`.
///
/// Parallel edges are allowed and preserved (the synchronizer never creates
/// them, but protocols may legitimately probe a link several times and some
/// tests rely on keeping every observation). Algorithms that need a single
/// weight per pair use [`DiGraph::to_matrix`], which keeps the *minimum*
/// parallel weight — the only sensible reduction for shortest-path
/// semantics.
///
/// # Examples
///
/// ```
/// use clocksync_graph::DiGraph;
/// use clocksync_time::Ext;
///
/// let mut g: DiGraph<Ext<i64>> = DiGraph::new(2);
/// g.add_edge(0, 1, Ext::Finite(3));
/// assert_eq!(g.edge_count(), 1);
/// assert_eq!(g.out_edges(0).count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiGraph<W> {
    n: usize,
    edges: Vec<Edge<W>>,
}

impl<W: Weight> DiGraph<W> {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            n,
            edges: Vec::new(),
        }
    }

    /// The number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a directed edge.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is not a node of the graph.
    pub fn add_edge(&mut self, from: usize, to: usize, weight: W) {
        assert!(from < self.n && to < self.n, "edge endpoint out of range");
        self.edges.push(Edge { from, to, weight });
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl Iterator<Item = &Edge<W>> {
        self.edges.iter()
    }

    /// Iterates over the edges leaving `node`.
    pub fn out_edges(&self, node: usize) -> impl Iterator<Item = &Edge<W>> {
        self.edges.iter().filter(move |e| e.from == node)
    }

    /// Converts to a dense weight matrix: `m[(i,j)]` is the minimum weight
    /// among parallel `i→j` edges, `W::infinity()` if there is none, and
    /// `W::zero()` on the diagonal.
    pub fn to_matrix(&self) -> SquareMatrix<W> {
        let mut m = SquareMatrix::from_fn(
            self.n,
            |i, j| {
                if i == j {
                    W::zero()
                } else {
                    W::infinity()
                }
            },
        );
        for e in &self.edges {
            if e.weight < m[(e.from, e.to)] {
                m[(e.from, e.to)] = e.weight;
            }
        }
        m
    }

    /// Builds a graph from a dense matrix, adding one edge per reachable
    /// off-diagonal entry.
    pub fn from_matrix(m: &SquareMatrix<W>) -> Self {
        let mut g = DiGraph::new(m.n());
        for (i, j, &w) in m.iter_off_diagonal() {
            if w.is_reachable() {
                g.add_edge(i, j, w);
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksync_time::Ext;

    fn w(x: i64) -> Ext<i64> {
        Ext::Finite(x)
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, w(1));
        g.add_edge(0, 2, w(2));
        g.add_edge(1, 2, w(3));
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_edges(0).count(), 2);
        assert_eq!(g.out_edges(2).count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_endpoint_panics() {
        let mut g: DiGraph<Ext<i64>> = DiGraph::new(1);
        g.add_edge(0, 1, w(0));
    }

    #[test]
    fn matrix_roundtrip_keeps_min_parallel_weight() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, w(5));
        g.add_edge(0, 1, w(3));
        let m = g.to_matrix();
        assert_eq!(m[(0, 1)], w(3));
        assert_eq!(m[(1, 0)], Ext::PosInf);
        assert_eq!(m[(0, 0)], w(0));
        let g2 = DiGraph::from_matrix(&m);
        assert_eq!(g2.edge_count(), 1);
    }
}
