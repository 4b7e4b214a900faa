//! Local shift estimates and the GLOBAL ESTIMATES step (paper §5).
//!
//! The closure is distances only. The chain of links behind a global
//! bound is worked out on demand from `m̃ls` and the closure by
//! [`crate::shortest_path_successors`].

use clocksync_graph::{SquareMatrix, Weight};
use clocksync_model::LinkObservations;
use clocksync_time::ExtRatio;

use crate::route::close;
use crate::{Network, SyncError};

/// Computes the matrix of estimated maximal *local* shifts `m̃ls(p, q)` for
/// every ordered pair, from the declared link assumptions and the observed
/// estimated-delay extrema (paper §6).
///
/// Pairs without a declared link are locally unconstrained (`+∞`); the
/// diagonal is `0`. Note that `m̃ls` values, unlike true `mls` values, may
/// be negative: they absorb the unknown start-time difference
/// `S_p − S_q`.
///
/// # Panics
///
/// Panics if `network.n() != observations.n()`.
pub fn estimated_local_shifts(
    network: &Network,
    observations: &LinkObservations,
) -> SquareMatrix<ExtRatio> {
    assert_eq!(
        network.n(),
        observations.n(),
        "network and observations disagree on processor count"
    );
    let mut m = SquareMatrix::from_fn(network.n(), |i, j| {
        if i == j {
            <ExtRatio as Weight>::zero()
        } else {
            <ExtRatio as Weight>::infinity()
        }
    });
    for (p, q, assumption) in network.links() {
        let evidence = observations.evidence(p, q);
        m[(p.index(), q.index())] = assumption.estimated_mls(&evidence);
        m[(q.index(), p.index())] = assumption.reversed().estimated_mls(&evidence.reversed());
    }
    m
}

/// The GLOBAL ESTIMATES function (paper §5.3, Theorem 5.5): turns local
/// shift estimates into global ones by an all-pairs shortest-path
/// computation. `m̃s(p,q)` is then the estimate of how far `q` can be
/// shifted from `p` while *every* link stays admissible (Lemma 5.3).
///
/// Computed on the integer kernels over gauged half-nanosecond counts
/// ([`clocksync_graph::Closure`]): every estimate is a whole or half
/// nanosecond, and the gauge takes the clocks' start-time differences out
/// of every entry, so clocks that count from different epochs stay there
/// too. Inputs without gauged counts (off that grid, `−∞`, or past the
/// magnitude bound in every gauge) take the residual route, the generic
/// rational-arithmetic kernel, with identical results.
/// [`crate::shortest_path_successors`] recovers *which* sequence of links
/// produces each global bound from `local` and the closure.
///
/// # Errors
///
/// Returns [`SyncError::InconsistentObservations`] if the estimates contain
/// a negative-weight cycle. For views produced by an execution that truly
/// satisfies the declared assumptions this cannot happen (cycle weights of
/// `m̃ls` equal cycle weights of `mls ≥ 0`, the start terms telescoping
/// away); it indicates delays outside the promised bounds.
pub fn global_estimates(
    local: &SquareMatrix<ExtRatio>,
) -> Result<SquareMatrix<ExtRatio>, SyncError> {
    global_estimates_traced(local, &clocksync_obs::Recorder::disabled())
}

/// Like [`global_estimates`], recording a
/// `sync.global_estimates` span whose `kernel` field names the closure
/// kernel that actually ran (`scaled-i64`, `sparse-johnson` or
/// `rational-generic`) — so a BENCH regression on this stage is
/// attributable to a kernel change rather than guessed at.
/// When the domain takes the residual route onto the `O(n³)` generic
/// kernel, a `sync.closure_fallback` event records the
/// [`clocksync_graph::ScaleBailout`] reason, making the perf cliff
/// visible instead of silent.
///
/// # Errors
///
/// Same conditions as [`global_estimates`].
pub fn global_estimates_traced(
    local: &SquareMatrix<ExtRatio>,
    recorder: &clocksync_obs::Recorder,
) -> Result<SquareMatrix<ExtRatio>, SyncError> {
    close(local, recorder).map(|closure| closure.ratio_dist())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayRange, LinkAssumption};
    use clocksync_model::ProcessorId;
    use clocksync_time::{Ext, Nanos, Ratio};

    const P: ProcessorId = ProcessorId(0);
    const Q: ProcessorId = ProcessorId(1);
    const R: ProcessorId = ProcessorId(2);

    fn fin(x: i128) -> ExtRatio {
        Ext::Finite(Ratio::from_int(x))
    }

    fn chain_network() -> Network {
        Network::builder(3)
            .link(
                P,
                Q,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::new(0), Nanos::new(10))),
            )
            .link(
                Q,
                R,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::new(0), Nanos::new(10))),
            )
            .build()
    }

    fn observations() -> LinkObservations {
        let mut obs = LinkObservations::empty(3);
        obs.record(P, Q, Nanos::new(4));
        obs.record(Q, P, Nanos::new(6));
        obs.record(Q, R, Nanos::new(2));
        obs.record(R, Q, Nanos::new(8));
        obs
    }

    #[test]
    fn local_estimates_follow_lemma_6_2() {
        let m = estimated_local_shifts(&chain_network(), &observations());
        // m̃ls(P,Q) = min(ub − d̃max(Q,P), d̃min(P,Q) − lb) = min(10−6, 4−0) = 4.
        assert_eq!(m[(0, 1)], fin(4));
        // m̃ls(Q,P) = min(10−4, 6−0) = 6.
        assert_eq!(m[(1, 0)], fin(6));
        // m̃ls(Q,R) = min(10−8, 2−0) = 2; m̃ls(R,Q) = min(10−2, 8−0) = 8.
        assert_eq!(m[(1, 2)], fin(2));
        assert_eq!(m[(2, 1)], fin(8));
        // No direct P–R link.
        assert_eq!(m[(0, 2)], Ext::PosInf);
        assert_eq!(m[(0, 0)], fin(0));
    }

    #[test]
    fn global_estimates_compose_along_paths() {
        let local = estimated_local_shifts(&chain_network(), &observations());
        let global = global_estimates(&local).unwrap();
        // m̃s(P,R) = m̃ls(P,Q) + m̃ls(Q,R) = 4 + 2 = 6 (the only path).
        assert_eq!(global[(0, 2)], fin(6));
        assert_eq!(global[(2, 0)], fin(8 + 6));
        // Direct entries are unchanged when no shortcut exists.
        assert_eq!(global[(0, 1)], fin(4));
    }

    #[test]
    fn inconsistent_observations_are_detected() {
        // Observed round trip shorter than the sum of lower bounds ⇒
        // m̃ls(P,Q) + m̃ls(Q,P) < 0 ⇒ negative cycle.
        let net = Network::builder(2)
            .link(
                P,
                Q,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::new(100), Nanos::new(200))),
            )
            .build();
        let mut obs = LinkObservations::empty(2);
        // d̃(P→Q) + d̃(Q→P) = RTT = 50 < 2·lb = 200: impossible.
        obs.record(P, Q, Nanos::new(30));
        obs.record(Q, P, Nanos::new(20));
        let local = estimated_local_shifts(&net, &obs);
        let err = global_estimates(&local).unwrap_err();
        assert!(matches!(err, SyncError::InconsistentObservations { .. }));
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn size_mismatch_panics() {
        let _ = estimated_local_shifts(&chain_network(), &LinkObservations::empty(2));
    }
}
