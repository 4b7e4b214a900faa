//! The one route decision (DESIGN.md §4b–4c). A domain runs on the
//! integer kernels whenever a [`Closure`] holds its estimates as gauged
//! half-nanosecond counts. The residual — entries off the grid or `−∞`,
//! which only hand-built matrices reach, and gauged counts past the bound,
//! which clock offsets never cause — runs whole on the rational
//! oracle kernels: the generic Floyd–Warshall, then exact Karp and the
//! rational Bellman–Ford on each component. This module is the one place
//! production calls them, and no domain mixes routes across components.

use clocksync_graph::{
    bellman_ford, floyd_warshall, karp_max_cycle_mean, Closure, DiGraph, NegativeCycleError,
    SquareMatrix,
};
use clocksync_model::ProcessorId;
use clocksync_obs::{FieldValue, Recorder};
use clocksync_time::{Ext, ExtRatio};

use crate::shifts::ShiftsResult;
use crate::SyncError;

/// Closes `local` on its route: on the integer kernels when a [`Closure`]
/// holds it, returned with the decoded distances, and with the generic
/// Floyd–Warshall otherwise. Records a `sync.global_estimates` span
/// naming the kernel, and for a residual domain the `fallback_reason`
/// field and a `sync.closure_fallback` event.
///
/// # Errors
///
/// [`SyncError::InconsistentObservations`] when `local` has a negative
/// cycle.
pub(crate) fn close(
    local: &SquareMatrix<ExtRatio>,
    recorder: &Recorder,
) -> Result<(SquareMatrix<ExtRatio>, Option<Closure>), SyncError> {
    let mut span = recorder.span("sync.global_estimates");
    span.field("n", local.n());
    match Closure::new_explained(local) {
        Ok((kernel, closure)) => {
            span.field("kernel", kernel.name());
            let closure = closure.map_err(inconsistent)?;
            Ok((closure.ratio_dist(), Some(closure)))
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
            let dist = floyd_warshall(local).map_err(inconsistent)?;
            Ok((dist, None))
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
