//! Network topologies: generators for the undirected link sets the
//! experiments run on.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A family of communication graphs.
///
/// Generators return undirected edges `(a, b)` with `a < b`, and every
/// generated graph is connected (random graphs are augmented with a random
/// spanning tree).
///
/// # Examples
///
/// ```
/// use clocksync_sim::Topology;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let edges = Topology::Ring(5).edges(&mut rng);
/// assert_eq!(edges.len(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// A simple path `0 — 1 — … — n−1`.
    Path(usize),
    /// A cycle through all `n` nodes.
    Ring(usize),
    /// Node 0 connected to every other node.
    Star(usize),
    /// Every pair connected.
    Complete(usize),
    /// An `r × c` grid with 4-neighbour links.
    Grid {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// A random spanning tree plus each remaining pair independently with
    /// probability `extra_per_mille / 1000`.
    RandomConnected {
        /// Number of nodes.
        n: usize,
        /// Probability (in 1/1000ths) of each non-tree edge.
        extra_per_mille: u32,
    },
}

impl Topology {
    /// The number of nodes.
    pub fn n(&self) -> usize {
        match *self {
            Topology::Path(n) | Topology::Ring(n) | Topology::Star(n) | Topology::Complete(n) => n,
            Topology::Grid { rows, cols } => rows * cols,
            Topology::RandomConnected { n, .. } => n,
        }
    }

    /// Generates the undirected edge list (pairs `(a, b)` with `a < b`).
    ///
    /// # Panics
    ///
    /// Panics if the topology has fewer than the nodes it needs (rings need
    /// `n ≥ 3`; others need `n ≥ 1`).
    pub fn edges<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<(usize, usize)> {
        match *self {
            Topology::Path(n) => {
                assert!(n >= 1, "path needs at least one node");
                (1..n).map(|i| (i - 1, i)).collect()
            }
            Topology::Ring(n) => {
                assert!(n >= 3, "ring needs at least three nodes");
                let mut e: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
                e.push((0, n - 1));
                e
            }
            Topology::Star(n) => {
                assert!(n >= 1, "star needs at least one node");
                (1..n).map(|i| (0, i)).collect()
            }
            Topology::Complete(n) => {
                assert!(n >= 1, "complete graph needs at least one node");
                let mut e = Vec::with_capacity(n * (n - 1) / 2);
                for a in 0..n {
                    for b in (a + 1)..n {
                        e.push((a, b));
                    }
                }
                e
            }
            Topology::Grid { rows, cols } => {
                assert!(rows >= 1 && cols >= 1, "grid needs positive dimensions");
                let id = |r: usize, c: usize| r * cols + c;
                let mut e = Vec::new();
                for r in 0..rows {
                    for c in 0..cols {
                        if c + 1 < cols {
                            e.push((id(r, c), id(r, c + 1)));
                        }
                        if r + 1 < rows {
                            e.push((id(r, c), id(r + 1, c)));
                        }
                    }
                }
                e
            }
            Topology::RandomConnected { n, extra_per_mille } => {
                assert!(n >= 1, "graph needs at least one node");
                // Random spanning tree: random permutation, attach each new
                // node to a random earlier one.
                let mut order: Vec<usize> = (0..n).collect();
                order.shuffle(rng);
                let mut edges: Vec<(usize, usize)> = Vec::new();
                for i in 1..n {
                    let parent = order[rng.gen_range(0..i)];
                    let child = order[i];
                    edges.push((parent.min(child), parent.max(child)));
                }
                // Each pair is visited once, so only a tree edge can already
                // be present: a set of those answers in O(1) what a scan of
                // the growing edge list answered in O(edges).
                let tree: std::collections::HashSet<(usize, usize)> =
                    edges.iter().copied().collect();
                for a in 0..n {
                    for b in (a + 1)..n {
                        if !tree.contains(&(a, b)) && rng.gen_range(0..1000u32) < extra_per_mille {
                            edges.push((a, b));
                        }
                    }
                }
                edges.sort_unstable();
                edges
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    fn is_connected(n: usize, edges: &[(usize, usize)]) -> bool {
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for &(a, b) in edges {
                let other = if a == v {
                    Some(b)
                } else if b == v {
                    Some(a)
                } else {
                    None
                };
                if let Some(o) = other {
                    if !seen[o] {
                        seen[o] = true;
                        stack.push(o);
                    }
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    #[test]
    fn edge_counts() {
        let mut r = rng();
        assert_eq!(Topology::Path(5).edges(&mut r).len(), 4);
        assert_eq!(Topology::Ring(5).edges(&mut r).len(), 5);
        assert_eq!(Topology::Star(5).edges(&mut r).len(), 4);
        assert_eq!(Topology::Complete(5).edges(&mut r).len(), 10);
        assert_eq!(Topology::Grid { rows: 2, cols: 3 }.edges(&mut r).len(), 7);
    }

    #[test]
    fn all_topologies_are_connected_and_canonical() {
        let mut r = rng();
        let topos = [
            Topology::Path(6),
            Topology::Ring(6),
            Topology::Star(6),
            Topology::Complete(6),
            Topology::Grid { rows: 3, cols: 4 },
            Topology::RandomConnected {
                n: 12,
                extra_per_mille: 100,
            },
        ];
        for t in topos {
            let edges = t.edges(&mut r);
            assert!(is_connected(t.n(), &edges), "{t:?} disconnected");
            for &(a, b) in &edges {
                assert!(a < b, "{t:?} produced non-canonical edge ({a},{b})");
                assert!(b < t.n());
            }
        }
    }

    #[test]
    fn random_graphs_have_no_duplicate_edges() {
        let mut r = rng();
        for seed in 0..20 {
            let _ = seed;
            let t = Topology::RandomConnected {
                n: 10,
                extra_per_mille: 300,
            };
            let edges = t.edges(&mut r);
            let mut dedup = edges.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(edges.len(), dedup.len());
        }
    }

    #[test]
    fn single_node_topologies() {
        let mut r = rng();
        assert!(Topology::Path(1).edges(&mut r).is_empty());
        assert!(Topology::Complete(1).edges(&mut r).is_empty());
    }

    #[test]
    #[should_panic(expected = "three nodes")]
    fn tiny_ring_panics() {
        let _ = Topology::Ring(2).edges(&mut rng());
    }
}
