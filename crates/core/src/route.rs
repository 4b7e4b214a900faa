//! The one route decision (DESIGN.md §4b–4c). A domain runs on the
//! integer kernels whenever a [`Closure`] holds its estimates as gauged
//! half-nanosecond counts. The residual — entries off the grid or `−∞`,
//! which only hand-built matrices reach, and gauged counts past the bound,
//! which clock offsets never cause — runs whole on the rational
//! oracle kernels: the generic Floyd–Warshall, then exact Karp and the
//! rational Bellman–Ford on each component. This module is the one place
//! production calls them, and no domain mixes routes across components.
//!
//! A domain's closure stays on its route: [`RoutedClosure`] holds the
//! integer route's gauged counts or the residual route's rationals, and
//! the outcome keeps it as is. Readers decode one entry at a time
//! ([`RoutedClosure::at`]); only a caller that asks for the whole matrix
//! pays the `n × n` decode ([`RoutedClosure::ratio_dist`]).

use clocksync_graph::{
    bellman_ford, floyd_warshall, karp_max_cycle_mean, Closure, DiGraph, LinkWeights,
    NegativeCycleError, ScaledMatrix, SquareMatrix,
};
use clocksync_model::ProcessorId;
use clocksync_obs::{FieldValue, Recorder};
use clocksync_time::{Ext, ExtRatio};

use crate::shifts::{components_by, ShiftsResult};
use crate::SyncError;

/// A domain's closure `m̃s` on the route that computed it: gauged
/// half-nanosecond counts on the integer route, rationals on the residual
/// one. Equality compares values, not representations: the same closure
/// under two gauges, or as counts and as rationals, is equal.
#[derive(Debug, Clone)]
pub(crate) enum RoutedClosure {
    /// The integer route: every entry a gauged count ([`Closure`]).
    Integer(Closure),
    /// The residual route: the generic Floyd–Warshall's rationals.
    Residual(SquareMatrix<ExtRatio>),
}

impl RoutedClosure {
    /// Holds a matrix that already is a closure — such as the estimates a
    /// distributed leader receives — on the integer route when
    /// [`Closure::from_closed`] holds it, else on the residual route.
    pub(crate) fn from_closed(m: SquareMatrix<ExtRatio>) -> RoutedClosure {
        match Closure::from_closed(&m) {
            Ok(counts) => RoutedClosure::Integer(counts),
            Err(_) => RoutedClosure::Residual(m),
        }
    }

    /// The dimension.
    pub(crate) fn n(&self) -> usize {
        match self {
            RoutedClosure::Integer(c) => c.n(),
            RoutedClosure::Residual(m) => m.n(),
        }
    }

    /// The integer route's counts, if the domain is on it.
    pub(crate) fn counts(&self) -> Option<&Closure> {
        match self {
            RoutedClosure::Integer(c) => Some(c),
            RoutedClosure::Residual(_) => None,
        }
    }

    /// The entry `m̃s(p, q)`, decoded on its own.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `q` is out of range.
    pub(crate) fn at(&self, p: usize, q: usize) -> ExtRatio {
        match self {
            RoutedClosure::Integer(c) => c.ratio_at(p, q),
            RoutedClosure::Residual(m) => m[(p, q)],
        }
    }

    /// The whole closure as extended rationals: the `n × n` decode.
    pub(crate) fn ratio_dist(&self) -> SquareMatrix<ExtRatio> {
        match self {
            RoutedClosure::Integer(c) => c.ratio_dist(),
            RoutedClosure::Residual(m) => m.clone(),
        }
    }

    /// The synchronizable components
    /// ([`crate::synchronizable_components`]), read off the entries'
    /// finiteness: on the integer route straight off the counts, with no
    /// decode.
    pub(crate) fn components(&self) -> Vec<Vec<ProcessorId>> {
        match self {
            RoutedClosure::Integer(c) => components_by(c.n(), |p, q| c.reaches(p, q)),
            RoutedClosure::Residual(m) => components_by(m.n(), |p, q| m[(p, q)].is_finite()),
        }
    }

    /// SHIFTS on the component of the ascending `members`: `run_shifts` on
    /// its counts ([`Closure::component`]) on the integer route, exact
    /// Karp and the rational Bellman–Ford on the residual one.
    pub(crate) fn shifts(
        &self,
        members: &[ProcessorId],
        run_shifts: impl FnOnce(ScaledMatrix<'_>) -> ShiftsResult,
    ) -> ShiftsResult {
        let indices: Vec<usize> = members.iter().map(|p| p.index()).collect();
        match self {
            RoutedClosure::Integer(c) => run_shifts(c.component(&indices)),
            RoutedClosure::Residual(m) => residual_shifts(&m.restrict(&indices), 0),
        }
    }
}

impl PartialEq for RoutedClosure {
    fn eq(&self, other: &RoutedClosure) -> bool {
        let n = self.n();
        n == other.n() && (0..n).all(|p| (0..n).all(|q| self.at(p, q) == other.at(p, q)))
    }
}

impl Eq for RoutedClosure {}

/// Closes the per-link `local` on its route: on the integer kernels, read
/// off the link table, when a [`Closure`] holds it, and with the generic
/// Floyd–Warshall over its dense view otherwise. Records a
/// `sync.global_estimates` span naming the kernel, and for a residual
/// domain the `fallback_reason` field and a `sync.closure_fallback`
/// event.
///
/// # Errors
///
/// [`SyncError::InconsistentObservations`] when `local` has a negative
/// cycle.
pub(crate) fn close(
    local: &LinkWeights<ExtRatio>,
    recorder: &Recorder,
) -> Result<RoutedClosure, SyncError> {
    let mut span = recorder.span("sync.global_estimates");
    span.field("n", local.n());
    match Closure::of_links(local) {
        Ok((kernel, closure)) => {
            span.field("kernel", kernel.name());
            closure.map(RoutedClosure::Integer).map_err(inconsistent)
        }
        Err(reason) => {
            span.field("kernel", "rational-generic");
            span.field("fallback_reason", reason.name());
            recorder.event(
                "sync.closure_fallback",
                [
                    ("kernel", FieldValue::from("rational-generic")),
                    ("reason", FieldValue::from(reason.name())),
                    ("n", FieldValue::from(local.n())),
                ],
            );
            floyd_warshall(&local.to_matrix())
                .map(RoutedClosure::Residual)
                .map_err(inconsistent)
        }
    }
}

/// SHIFTS on one component of a residual domain: exact Karp, then the
/// rational Bellman–Ford from `root` under `A_max − m̃s`.
///
/// # Panics
///
/// Panics if `root` is out of range or an entry of `closure` is infinite.
pub(crate) fn residual_shifts(closure: &SquareMatrix<ExtRatio>, root: usize) -> ShiftsResult {
    // All entries are finite and the diagonal is 0, so a cycle always
    // exists and A_max ≥ 0.
    let cm = karp_max_cycle_mean(closure).expect("closure always contains cycles");
    let mut g = DiGraph::new(closure.n());
    for (i, j, &w) in closure.iter_off_diagonal() {
        let w = w.expect_finite("a component's closure is finite");
        g.add_edge(i, j, Ext::Finite(cm.mean - w));
    }
    let dist = bellman_ford(&g, root)
        .expect("A_max-shifted closure has no negative cycles by Theorem 4.4");
    ShiftsResult {
        corrections: dist
            .into_iter()
            .map(|d| d.expect_finite("complete graph distances are finite"))
            .collect(),
        precision: cm.mean,
        critical_cycle: cm.cycle,
    }
}

/// The typed report of a negative cycle in `m̃ls`.
pub(crate) fn inconsistent(e: NegativeCycleError) -> SyncError {
    SyncError::InconsistentObservations {
        witness: ProcessorId(e.witness),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shifts::shifts_warm;
    use crate::SyncOutcome;
    use clocksync_graph::Weight;
    use clocksync_time::Ratio;

    /// `m̃ls` of five clocks 10^18 ns apart: a path 0–1–2–3 with a loose
    /// chord 0–2, and node 4 alone. The chord is a tree edge of `m̃ls`'s
    /// gauge forest, and the closure's own forest takes the shorter path
    /// in its place, so the two gauges differ at nodes 2 and 3.
    fn far_local() -> SquareMatrix<ExtRatio> {
        let start = |p: usize| Ratio::from_int(1_000_000_000_000_000_000 * p as i128);
        let mut m = SquareMatrix::filled(5, Ext::PosInf);
        for p in 0..5 {
            m[(p, p)] = <ExtRatio as Weight>::zero();
        }
        for (p, q, slack, back) in [
            (0, 1, Ratio::new(3, 2), Ratio::from_int(5)),
            (1, 2, Ratio::from_int(2), Ratio::new(7, 2)),
            (2, 3, Ratio::from_int(1), Ratio::from_int(4)),
            (0, 2, Ratio::from_int(10), Ratio::from_int(20)),
        ] {
            m[(p, q)] = Ext::Finite(start(p) - start(q) + slack);
            m[(q, p)] = Ext::Finite(start(q) - start(p) + back);
        }
        m
    }

    #[test]
    fn equality_reads_values_across_gauges_and_routes() {
        let local = far_local();
        let cold = Closure::new(&local).expect("counts").expect("consistent");
        let closed = cold.ratio_dist();
        assert_eq!(closed, floyd_warshall(&local).unwrap());
        let held = Closure::from_closed(&closed).expect("counts");
        assert_ne!(cold, held, "the two gauges give different counts");
        let routes = [
            RoutedClosure::Integer(cold),
            RoutedClosure::Integer(held),
            RoutedClosure::Residual(closed.clone()),
        ];
        for a in &routes {
            for b in &routes {
                assert_eq!(a, b);
            }
            for p in 0..5 {
                for q in 0..5 {
                    assert_eq!(a.at(p, q), closed[(p, q)]);
                }
            }
            assert_eq!(a.ratio_dist(), closed);
        }
        // Half a nanosecond apart in one entry is unequal on every route.
        let mut other = closed.clone();
        other[(2, 0)] = other[(2, 0)] + Ext::Finite(Ratio::new(1, 2));
        let other = RoutedClosure::from_closed(other);
        assert!(other.counts().is_some());
        assert!(routes.iter().all(|r| *r != other));
        // Outcomes built on each give the same components, corrections and
        // critical cycles, and compare equal as a whole.
        let outcomes: Vec<SyncOutcome> = routes
            .into_iter()
            .map(|r| SyncOutcome::from_components_with(r, |_, m| shifts_warm(m, 0, None).0))
            .collect();
        assert_eq!(outcomes[0].components().len(), 2);
        for o in &outcomes {
            assert_eq!(o.components(), outcomes[0].components());
            assert_eq!(o.corrections(), outcomes[0].corrections());
            assert_eq!(o, &outcomes[0]);
        }
    }
}
