//! The network specification: which links exist and what each assumes.

use std::collections::BTreeMap;
use std::sync::Arc;

use clocksync_graph::LinkTable;
use clocksync_model::{Execution, LinkObservations, ProcessorId, ViewSet};
use serde::{Deserialize, Serialize};

use crate::LinkAssumption;

/// A system specification: `n` processors and a delay assumption per
/// declared bidirectional link.
///
/// Links are unordered pairs; each stores its assumption oriented from the
/// lower-indexed endpoint. Declaring the same link twice *conjoins* the
/// assumptions (Theorem 5.6), which is exactly how the paper composes
/// multiple delay restrictions on one link.
///
/// Building a network also builds its [`LinkTable`]: both directions of
/// every declared link as one slot each, row by row in ascending
/// neighbour order. Evidence ([`Network::link_observations`]) and local
/// estimates ([`crate::estimated_local_shifts`]) are stored per slot, so
/// nothing before the closure is `n × n`. It also builds the list of
/// declared edges every outcome carries. Both are derived from the links
/// and shared by every clone and every outcome; neither is serialized.
///
/// # Examples
///
/// ```
/// use clocksync::{Network, LinkAssumption, DelayRange};
/// use clocksync_model::ProcessorId;
/// use clocksync_time::Nanos;
///
/// let net = Network::builder(3)
///     .link(ProcessorId(0), ProcessorId(1),
///           LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::new(1), Nanos::new(9))))
///     .link(ProcessorId(1), ProcessorId(2), LinkAssumption::no_bounds())
///     .build();
/// assert_eq!(net.n(), 3);
/// assert_eq!(net.link_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Network {
    n: usize,
    links: BTreeMap<(usize, usize), LinkAssumption>,
    #[serde(skip)]
    table: Arc<LinkTable>,
    #[serde(skip)]
    edges: Arc<[(ProcessorId, ProcessorId)]>,
}

impl Network {
    /// Starts building a network over `n` processors.
    pub fn builder(n: usize) -> NetworkBuilder {
        NetworkBuilder {
            n,
            links: BTreeMap::new(),
        }
    }

    /// The number of processors.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The number of declared links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterates over declared links as `(low, high, assumption)` with the
    /// assumption oriented `low → high`.
    pub fn links(&self) -> impl Iterator<Item = (ProcessorId, ProcessorId, &LinkAssumption)> {
        self.links
            .iter()
            .map(|(&(a, b), asm)| (ProcessorId(a), ProcessorId(b), asm))
    }

    /// The link table: one slot per direction of every declared link.
    pub fn link_table(&self) -> &Arc<LinkTable> {
        &self.table
    }

    /// The declared links as `(low, high)`, in the order of
    /// [`Network::links`]: the edge list an outcome shares
    /// ([`crate::SyncOutcome::edges`]).
    pub(crate) fn edges(&self) -> &Arc<[(ProcessorId, ProcessorId)]> {
        &self.edges
    }

    /// The slot of the direction `p → q` in the [link
    /// table](Network::link_table), if `{p, q}` was declared.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn slot(&self, p: ProcessorId, q: ProcessorId) -> Option<usize> {
        self.table.slot(p.index(), q.index())
    }

    /// Declared links as `(low, high, assumption, slot)`, in the order of
    /// [`Network::links`], with the slot of `low → high`; the slot of the
    /// other direction is `link_table().reverse(slot)`.
    pub(crate) fn slotted_links(
        &self,
    ) -> impl Iterator<Item = (ProcessorId, ProcessorId, &LinkAssumption, usize)> {
        // Both run in ascending (low, high) order.
        self.links()
            .zip(self.table.links())
            .map(|((p, q, asm), (a, b, s))| {
                debug_assert_eq!((p.index(), q.index()), (a, b));
                (p, q, asm, s)
            })
    }

    /// The evidence `views` holds on the declared links, per slot of the
    /// link table: one pass over the views' message table, which drops
    /// every message between processors without a declared link.
    pub fn link_observations(&self, views: &ViewSet) -> LinkObservations {
        views.link_observations(self.table.len(), |p, q| self.slot(p, q))
    }

    /// The assumption on the link `{p, q}` oriented `p → q`, if the link
    /// was declared.
    pub fn assumption(&self, p: ProcessorId, q: ProcessorId) -> Option<LinkAssumption> {
        let key = (p.index().min(q.index()), p.index().max(q.index()));
        self.links.get(&key).map(|a| {
            if p.index() <= q.index() {
                a.clone()
            } else {
                a.reversed()
            }
        })
    }

    /// Whether the true delays of `exec` satisfy every declared link
    /// assumption. Traffic between undeclared pairs is unconstrained.
    ///
    /// This is the global admissibility predicate of a *local* system
    /// (paper §5.1): admissible iff locally admissible on every pair.
    pub fn admits(&self, exec: &Execution) -> bool {
        self.links().all(|(p, q, asm)| {
            let fwd = exec.link_messages(p, q);
            let bwd = exec.link_messages(q, p);
            asm.admits(&fwd, &bwd)
        })
    }
}

/// Builder for [`Network`].
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    n: usize,
    links: BTreeMap<(usize, usize), LinkAssumption>,
}

impl NetworkBuilder {
    /// Declares (or refines) the link `{p, q}` with `assumption` oriented
    /// `p → q`. Declaring an existing link conjoins the new assumption
    /// with the previous ones.
    ///
    /// # Panics
    ///
    /// Panics if `p == q` or either endpoint is out of range.
    pub fn link(mut self, p: ProcessorId, q: ProcessorId, assumption: LinkAssumption) -> Self {
        assert!(p != q, "a link needs two distinct endpoints");
        assert!(
            p.index() < self.n && q.index() < self.n,
            "link endpoint out of range"
        );
        let key = (p.index().min(q.index()), p.index().max(q.index()));
        let oriented = if p.index() <= q.index() {
            assumption
        } else {
            assumption.reversed()
        };
        self.links
            .entry(key)
            .and_modify(|existing| {
                let prev = existing.clone();
                *existing = match prev {
                    LinkAssumption::All(mut parts) => {
                        parts.push(oriented.clone());
                        LinkAssumption::All(parts)
                    }
                    other => LinkAssumption::All(vec![other, oriented.clone()]),
                };
            })
            .or_insert(oriented);
        self
    }

    /// Finishes building, and builds the link table and the edge list.
    pub fn build(self) -> Network {
        let table = LinkTable::new(self.n, self.links.keys().copied());
        let edges = self
            .links
            .keys()
            .map(|&(a, b)| (ProcessorId(a), ProcessorId(b)))
            .collect();
        Network {
            n: self.n,
            links: self.links,
            table: Arc::new(table),
            edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DelayRange;
    use clocksync_model::ExecutionBuilder;
    use clocksync_time::{Nanos, RealTime};

    const P: ProcessorId = ProcessorId(0);
    const Q: ProcessorId = ProcessorId(1);
    const R: ProcessorId = ProcessorId(2);

    fn bounds(lo: i64, hi: i64) -> LinkAssumption {
        LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::new(lo), Nanos::new(hi)))
    }

    #[test]
    fn links_are_unordered_pairs() {
        let net = Network::builder(2).link(Q, P, bounds(0, 5)).build();
        assert_eq!(net.link_count(), 1);
        assert!(net.assumption(P, Q).is_some());
        assert!(net.assumption(Q, P).is_some());
        assert_eq!(net.assumption(P, R), None);
    }

    #[test]
    fn asymmetric_assumptions_orient_correctly() {
        let asym = LinkAssumption::bounds(
            DelayRange::new(Nanos::new(1), Nanos::new(2)),
            DelayRange::new(Nanos::new(3), Nanos::new(4)),
        );
        // Declare oriented q → p: forward [1,2] applies to q → p traffic.
        let net = Network::builder(2).link(Q, P, asym).build();
        let from_p = net.assumption(P, Q).unwrap();
        match from_p {
            LinkAssumption::Bounds { forward, backward } => {
                assert_eq!(forward.lower(), Nanos::new(3));
                assert_eq!(backward.lower(), Nanos::new(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn redeclaring_a_link_conjoins() {
        let net = Network::builder(2)
            .link(P, Q, bounds(0, 100))
            .link(P, Q, LinkAssumption::rtt_bias(Nanos::new(5)))
            .build();
        assert_eq!(net.link_count(), 1);
        match net.assumption(P, Q).unwrap() {
            LinkAssumption::All(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected conjunction, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "distinct endpoints")]
    fn self_link_panics() {
        let _ = Network::builder(2).link(P, P, bounds(0, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_link_panics() {
        let _ = Network::builder(2).link(P, R, bounds(0, 1));
    }

    #[test]
    fn admits_checks_every_declared_link() {
        let net = Network::builder(3)
            .link(P, Q, bounds(0, 10))
            .link(Q, R, bounds(0, 10))
            .build();
        let ok = ExecutionBuilder::new(3)
            .message(P, Q, RealTime::from_nanos(100), Nanos::new(5))
            .message(Q, R, RealTime::from_nanos(200), Nanos::new(10))
            .build()
            .unwrap();
        assert!(net.admits(&ok));
        let bad = ExecutionBuilder::new(3)
            .message(P, Q, RealTime::from_nanos(100), Nanos::new(11))
            .build()
            .unwrap();
        assert!(!net.admits(&bad));
    }

    #[test]
    fn undeclared_traffic_is_unconstrained() {
        let net = Network::builder(3).link(P, Q, bounds(0, 10)).build();
        let exec = ExecutionBuilder::new(3)
            .message(P, R, RealTime::from_nanos(100), Nanos::from_secs(10))
            .build()
            .unwrap();
        assert!(net.admits(&exec));
    }
}
