//! The link table: a network's declared links as a compressed sparse row
//! index, and weights stored per slot of it.
//!
//! Lemmas 6.2 and 6.5 make each local estimate `m̃ls(p,q)` a function of
//! one declared link's evidence, and every other pair is locally
//! unconstrained (`+∞`). So the estimates, and the evidence behind them,
//! live on the `2m` directed slots of a [`LinkTable`] instead of in an
//! `n × n` matrix: [`LinkWeights`] holds one weight per slot. The closure
//! front end (gauge, encoder, kernel planner, Johnson) and the successor
//! rule read the table directly; only the dense kernel and the callers that
//! want every entry expand it ([`LinkWeights::to_matrix`]).

use std::ops::{Index, IndexMut, Range};
use std::sync::Arc;

use crate::{SquareMatrix, Weight};

/// Both directions of every declared link of an `n`-node network, as a
/// compressed sparse row index: row `p` holds one *slot* per neighbour `q`
/// of `p`, in ascending order of `q`, and slot order is row-major. Each
/// slot knows the slot of its opposite direction.
///
/// Building one is `O(n + m log m)` for `m` links; a lookup by endpoints
/// is a binary search in one row.
///
/// # Examples
///
/// ```
/// use clocksync_graph::LinkTable;
///
/// let table = LinkTable::new(3, [(1, 2), (0, 1)]);
/// assert_eq!(table.len(), 4);
/// let row: Vec<usize> = table.row(1).map(|s| table.target(s)).collect();
/// assert_eq!(row, [0, 2]);
/// let s = table.slot(1, 2).unwrap();
/// assert_eq!(table.target(s), 2);
/// assert_eq!(table.slot(2, 1), Some(table.reverse(s)));
/// assert_eq!(table.slot(0, 2), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkTable {
    offsets: Vec<usize>,
    sources: Vec<usize>,
    targets: Vec<usize>,
    reverse: Vec<usize>,
}

impl LinkTable {
    /// The table of `n` nodes and the given undirected links, each named
    /// once in either orientation.
    ///
    /// # Panics
    ///
    /// Panics if a link has equal endpoints, an endpoint `≥ n`, or is named
    /// twice.
    pub fn new(n: usize, links: impl IntoIterator<Item = (usize, usize)>) -> LinkTable {
        let links: Vec<(usize, usize)> = links.into_iter().collect();
        let mut offsets = vec![0usize; n + 1];
        for &(a, b) in &links {
            assert!(a != b, "a link needs two distinct endpoints");
            assert!(a < n && b < n, "link endpoint out of range");
            offsets[a + 1] += 1;
            offsets[b + 1] += 1;
        }
        for p in 0..n {
            offsets[p + 1] += offsets[p];
        }
        let mut fill = offsets[..n].to_vec();
        let mut targets = vec![0usize; 2 * links.len()];
        for &(a, b) in &links {
            targets[fill[a]] = b;
            fill[a] += 1;
            targets[fill[b]] = a;
            fill[b] += 1;
        }
        for p in 0..n {
            let row = &mut targets[offsets[p]..offsets[p + 1]];
            row.sort_unstable();
            assert!(row.windows(2).all(|w| w[0] < w[1]), "link declared twice");
        }
        let sources = (0..n)
            .flat_map(|p| std::iter::repeat_n(p, offsets[p + 1] - offsets[p]))
            .collect();
        let mut table = LinkTable {
            offsets,
            sources,
            targets,
            reverse: Vec::new(),
        };
        table.reverse = (0..table.len())
            .map(|s| {
                let (p, q) = (table.sources[s], table.targets[s]);
                table.slot(q, p).expect("both directions")
            })
            .collect();
        table
    }

    /// The number of nodes.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The number of slots: twice the number of links.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the table holds no link.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// The slots of node `p`'s out-directions.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn row(&self, p: usize) -> Range<usize> {
        self.offsets[p]..self.offsets[p + 1]
    }

    /// The far end of a slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn target(&self, slot: usize) -> usize {
        self.targets[slot]
    }

    /// The slot of the opposite direction: `q → p` for the slot `p → q`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn reverse(&self, slot: usize) -> usize {
        self.reverse[slot]
    }

    /// The slot of the direction `p → q`, if `{p, q}` is a link: a binary
    /// search in `p`'s row, or, when the row holds every other node, its
    /// position by arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn slot(&self, p: usize, q: usize) -> Option<usize> {
        let row = self.row(p);
        if row.len() + 1 == self.n() {
            return (q != p && q < self.n()).then(|| row.start + q - usize::from(q > p));
        }
        let start = row.start;
        self.targets[row].binary_search(&q).ok().map(|i| start + i)
    }

    /// The near end of a slot: the node whose row holds it.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn source(&self, slot: usize) -> usize {
        self.sources[slot]
    }

    /// Every slot as `(p, q, slot)` for the direction `p → q`, in slot
    /// (row-major) order.
    pub fn slots(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        (self.sources.iter().zip(&self.targets).enumerate()).map(|(s, (&p, &q))| (p, q, s))
    }

    /// Every link once as `(p, q, slot)` with `p < q` and the slot of
    /// `p → q`, in ascending `(p, q)` order.
    pub fn links(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.slots().filter(|&(p, q, _)| p < q)
    }
}

/// One weight per slot of a shared [`LinkTable`]: a weight matrix that is
/// `+∞` off the table's links and `0` on its diagonal, held in `O(n + m)`.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use clocksync_graph::{LinkTable, LinkWeights};
/// use clocksync_time::Ext;
///
/// let table = Arc::new(LinkTable::new(3, [(0, 1)]));
/// let s = table.slot(0, 1).unwrap();
/// let mut w = LinkWeights::filled(table, Ext::PosInf);
/// w[s] = Ext::Finite(5i64);
/// assert_eq!(w.get(0, 1), Ext::Finite(5));
/// assert_eq!(w.get(1, 0), Ext::PosInf);
/// assert_eq!(w.get(2, 2), Ext::Finite(0));
/// assert_eq!(w.to_matrix()[(0, 1)], Ext::Finite(5));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkWeights<W> {
    table: Arc<LinkTable>,
    weights: Vec<W>,
}

impl<W: Weight> LinkWeights<W> {
    /// `w` on every slot of `table`.
    pub fn filled(table: Arc<LinkTable>, w: W) -> LinkWeights<W> {
        let weights = vec![w; table.len()];
        LinkWeights { table, weights }
    }

    /// The link form of a weight matrix: a link wherever either direction
    /// of an off-diagonal pair is below `W::infinity()`. The diagonal plays
    /// no part.
    pub fn from_matrix(m: &SquareMatrix<W>) -> LinkWeights<W> {
        let n = m.n();
        let links = (0..n).flat_map(|p| (p + 1..n).map(move |q| (p, q)));
        let links = links.filter(|&(p, q)| m[(p, q)].is_reachable() || m[(q, p)].is_reachable());
        let table = LinkTable::new(n, links);
        let weights = table.slots().map(|(p, q, _)| m[(p, q)]).collect();
        LinkWeights {
            table: Arc::new(table),
            weights,
        }
    }

    /// The dense view: `0` on the diagonal, the slot's weight on each link
    /// direction and `W::infinity()` everywhere else — `n²` entries, for
    /// callers that want every one.
    pub fn to_matrix(&self) -> SquareMatrix<W> {
        let n = self.n();
        let mut m = SquareMatrix::filled(n, W::infinity());
        for p in 0..n {
            m[(p, p)] = W::zero();
        }
        for (p, q, s) in self.table.slots() {
            m[(p, q)] = self.weights[s];
        }
        m
    }

    /// The weight of the pair `(p, q)`: `0` on the diagonal, `W::infinity()`
    /// off the links.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn get(&self, p: usize, q: usize) -> W {
        if p == q {
            return W::zero();
        }
        match self.table.slot(p, q) {
            Some(s) => self.weights[s],
            None => W::infinity(),
        }
    }
}

impl<W> LinkWeights<W> {
    /// The table the weights sit on.
    pub fn table(&self) -> &Arc<LinkTable> {
        &self.table
    }

    /// The number of nodes.
    pub fn n(&self) -> usize {
        self.table.n()
    }

    /// The weights in slot order.
    pub fn weights(&self) -> &[W] {
        &self.weights
    }
}

impl<W> Index<usize> for LinkWeights<W> {
    type Output = W;
    fn index(&self, slot: usize) -> &W {
        &self.weights[slot]
    }
}

impl<W> IndexMut<usize> for LinkWeights<W> {
    fn index_mut(&mut self, slot: usize) -> &mut W {
        &mut self.weights[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksync_time::Ext;

    #[test]
    fn rows_ascend_and_slots_pair_up() {
        let table = LinkTable::new(5, [(3, 0), (0, 1), (4, 1), (1, 2)]);
        assert_eq!(table.n(), 5);
        assert_eq!(table.len(), 8);
        let row = |p| table.row(p).map(|s| table.target(s)).collect::<Vec<_>>();
        assert_eq!((row(0), row(1)), (vec![1, 3], vec![0, 2, 4]));
        for (p, q, s) in table.slots() {
            assert_eq!((table.source(s), table.slot(p, q)), (p, Some(s)));
            assert_eq!(table.target(table.reverse(s)), p);
            assert_eq!(table.reverse(table.reverse(s)), s);
        }
        let links: Vec<(usize, usize)> = table.links().map(|(p, q, _)| (p, q)).collect();
        assert_eq!(links, [(0, 1), (0, 3), (1, 2), (1, 4)]);
        assert_eq!(table.slot(2, 4), None);
        assert!(LinkTable::new(2, []).is_empty());
        // Full rows index by arithmetic.
        let full = LinkTable::new(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]);
        for (p, q, s) in full.slots() {
            assert_eq!(full.slot(p, q), Some(s));
        }
        assert_eq!(
            (full.slot(0, 0), full.slot(0, 4), full.slot(1, 3)),
            (None, None, None)
        );
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn a_link_named_twice_panics() {
        let _ = LinkTable::new(3, [(0, 1), (1, 0)]);
    }

    #[test]
    fn the_dense_view_round_trips() {
        let mut m = SquareMatrix::filled(4, Ext::PosInf);
        for p in 0..4 {
            m[(p, p)] = Ext::Finite(0i64);
        }
        m[(0, 2)] = Ext::Finite(-3);
        m[(3, 1)] = Ext::Finite(7);
        m[(1, 3)] = Ext::Finite(2);
        let links = LinkWeights::from_matrix(&m);
        assert_eq!(links.table().len(), 4);
        assert_eq!(links.get(2, 0), Ext::PosInf);
        assert_eq!(links.to_matrix(), m);
    }
}
