//! Local shift estimates and the GLOBAL ESTIMATES step (paper §5).
//!
//! The closure is distances only. The chain of links behind a global
//! bound is worked out on demand from `m̃ls` and the closure by
//! [`crate::shortest_path_successors`].

use clocksync_graph::{LinkWeights, SquareMatrix};
use clocksync_model::LinkObservations;
use clocksync_time::{Ext, ExtRatio};

use crate::route::close;
use crate::{Network, SyncError};

/// Computes the estimated maximal *local* shifts `m̃ls(p, q)` of every
/// declared link direction, from the declared link assumptions and the
/// observed evidence (paper §6), one per slot of the network's link table.
///
/// Each entry reads one link's evidence (Lemmas 6.2 and 6.5). Pairs
/// without a declared link are locally unconstrained (`+∞`) and the
/// diagonal is `0`; [`LinkWeights::get`] answers them, and
/// [`LinkWeights::to_matrix`] expands the `n × n` view. Note that `m̃ls`
/// values, unlike true `mls` values, may be negative: they absorb the
/// unknown start-time difference `S_p − S_q`.
///
/// # Panics
///
/// Panics if `observations` is not over `network`'s link table.
pub fn estimated_local_shifts(
    network: &Network,
    observations: &LinkObservations,
) -> LinkWeights<ExtRatio> {
    let table = network.link_table();
    assert_eq!(
        table.len(),
        observations.slots(),
        "network and observations disagree on the link table"
    );
    let mut local = LinkWeights::filled(table.clone(), Ext::PosInf);
    for (_, _, assumption, s) in network.slotted_links() {
        let r = table.reverse(s);
        let evidence = observations.evidence(s, r);
        local[s] = assumption.estimated_mls(&evidence);
        local[r] = assumption.reversed().estimated_mls(&evidence.reversed());
    }
    local
}

/// The GLOBAL ESTIMATES function (paper §5.3, Theorem 5.5): turns local
/// shift estimates into global ones by an all-pairs shortest-path
/// computation. `m̃s(p,q)` is then the estimate of how far `q` can be
/// shifted from `p` while *every* link stays admissible (Lemma 5.3).
/// A dense `m̃ls` matrix takes [`LinkWeights::from_matrix`] first.
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
    local: &LinkWeights<ExtRatio>,
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
    local: &LinkWeights<ExtRatio>,
    recorder: &clocksync_obs::Recorder,
) -> Result<SquareMatrix<ExtRatio>, SyncError> {
    close(local, recorder).map(|closure| closure.ratio_dist())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{DelayRange, LinkAssumption};
    use clocksync_model::MsgSample;
    use clocksync_model::ProcessorId;
    use clocksync_time::{ClockTime, Nanos, Ratio};

    const P: ProcessorId = ProcessorId(0);
    const Q: ProcessorId = ProcessorId(1);
    const R: ProcessorId = ProcessorId(2);

    fn fin(x: i128) -> ExtRatio {
        Ext::Finite(Ratio::from_int(x))
    }

    /// Evidence of one message per `(src, dst, d̃)`, read at clocks `0` and
    /// `d̃`.
    pub(crate) fn estimated_delays(
        net: &Network,
        delays: &[(ProcessorId, ProcessorId, i64)],
    ) -> LinkObservations {
        let mut obs = LinkObservations::empty(net.link_table().len());
        for &(src, dst, d) in delays {
            let sample = MsgSample {
                send_clock: ClockTime::ZERO,
                recv_clock: ClockTime::ZERO + Nanos::new(d),
            };
            obs.record_sample(net.slot(src, dst).expect("a declared link"), sample);
        }
        obs
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
        estimated_delays(
            &chain_network(),
            &[(P, Q, 4), (Q, P, 6), (Q, R, 2), (R, Q, 8)],
        )
    }

    #[test]
    fn local_estimates_follow_lemma_6_2() {
        let m = estimated_local_shifts(&chain_network(), &observations()).to_matrix();
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
        // d̃(P→Q) + d̃(Q→P) = RTT = 50 < 2·lb = 200: impossible.
        let obs = estimated_delays(&net, &[(P, Q, 30), (Q, P, 20)]);
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
