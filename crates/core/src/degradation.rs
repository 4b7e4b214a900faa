//! Structured degradation reports: which declared links failed to produce
//! the bounds their assumptions promised, and why.
//!
//! The estimators of §6 never *fail*: an assumption evaluated over missing
//! or one-sided evidence simply yields `m̃ls = +∞` — "no constraint" — and
//! the rest of the pipeline (GLOBAL ESTIMATES, SHIFTS) degrades to
//! per-component corrections instead of aborting. What a caller loses in
//! that degradation is *information about the guarantee*, so
//! [`crate::SyncOutcome`] carries a [`LinkDegradation`] for every declared
//! link whose evidence fell short, each tagged with a machine-readable
//! [`DegradationReason`]. The degradation lattice itself (bounds →
//! no-bounds → link dropped → component split) is documented in
//! `DESIGN.md` §5.

use std::fmt;

use clocksync_graph::LinkWeights;
use clocksync_model::{LinkObservations, ProcessorId};
use clocksync_time::ExtRatio;
use serde::{Deserialize, Serialize};

use crate::Network;

/// Why a declared link contributes less constraint than its assumption
/// could have produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradationReason {
    /// No message was observed in either direction. The link constrains
    /// nothing and is effectively undeclared — Corollary 6.4 over an empty
    /// evidence set (`m̃ls = d̃min = +∞`).
    Silent,
    /// Traffic was observed, but the assumption and the evidence together
    /// leave one direction unconstrained: `to` may lag `from` by an
    /// arbitrary amount (`m̃ls(from, to) = +∞`). Typical causes are a
    /// declared upper bound of `+∞` with traffic in only one direction, or
    /// a windowed-bias assumption whose pairing window matched nothing.
    Unbounded {
        /// The reference endpoint of the missing bound.
        from: ProcessorId,
        /// The endpoint whose lag behind `from` is unconstrained.
        to: ProcessorId,
    },
    /// The link's estimate report never reached the computing processor
    /// before its deadline (distributed runtime only): crash-stop of the
    /// initiating subtree, message loss, or link churn. The evidence may
    /// exist somewhere, but the correction was computed without it.
    Unreported,
}

impl fmt::Display for DegradationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationReason::Silent => write!(f, "no traffic observed"),
            DegradationReason::Unbounded { from, to } => {
                write!(f, "no bound on how far {to} may lag {from}")
            }
            DegradationReason::Unreported => write!(f, "estimate report never arrived"),
        }
    }
}

/// One declared link that degraded, with the canonical endpoints
/// (`a < b`) and the reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkDegradation {
    /// Lower-indexed endpoint of the link.
    pub a: ProcessorId,
    /// Higher-indexed endpoint of the link.
    pub b: ProcessorId,
    /// What went missing.
    pub reason: DegradationReason,
}

impl fmt::Display for LinkDegradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link {}–{}: {}", self.a, self.b, self.reason)
    }
}

/// Classifies every declared link of `network` against the local-shift
/// estimates actually obtained from `observations` (`local` must be
/// [`crate::estimated_local_shifts`] of the same inputs), reading each
/// link's two slots.
///
/// Healthy links — both directed estimates finite — are omitted; the
/// result lists only degradations, in the network's canonical link order.
/// [`crate::Synchronizer::synchronize`] and
/// [`crate::OnlineSynchronizer::outcome`](crate::OnlineSynchronizer::outcome)
/// both attach exactly this classification to their outcomes, so batch and
/// streaming runs over the same evidence report identical degradations.
pub fn classify_degradations(
    network: &Network,
    observations: &LinkObservations,
    local: &LinkWeights<ExtRatio>,
) -> Vec<LinkDegradation> {
    let mut out = Vec::new();
    for (p, q, _, s) in network.slotted_links() {
        let r = network.link_table().reverse(s);
        let (fwd, bwd) = (local[s], local[r]);
        if fwd.is_finite() && bwd.is_finite() {
            continue;
        }
        let traffic = observations.stats(s).count + observations.stats(r).count;
        if traffic == 0 {
            out.push(LinkDegradation {
                a: p,
                b: q,
                reason: DegradationReason::Silent,
            });
            continue;
        }
        if !fwd.is_finite() {
            out.push(LinkDegradation {
                a: p,
                b: q,
                reason: DegradationReason::Unbounded { from: p, to: q },
            });
        }
        if !bwd.is_finite() {
            out.push(LinkDegradation {
                a: p,
                b: q,
                reason: DegradationReason::Unbounded { from: q, to: p },
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimates::tests::estimated_delays;
    use crate::{estimated_local_shifts, DelayRange, LinkAssumption};
    use clocksync_time::Nanos;

    const P: ProcessorId = ProcessorId(0);
    const Q: ProcessorId = ProcessorId(1);
    const R: ProcessorId = ProcessorId(2);

    fn net() -> Network {
        Network::builder(3)
            .link(
                P,
                Q,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(100))),
            )
            .link(Q, R, LinkAssumption::no_bounds())
            .build()
    }

    #[test]
    fn silent_links_are_reported_as_silent() {
        let obs = LinkObservations::empty(net().link_table().len());
        let local = estimated_local_shifts(&net(), &obs);
        let degs = classify_degradations(&net(), &obs, &local);
        assert_eq!(degs.len(), 2);
        assert!(
            degs.iter().all(|d| d.reason == DegradationReason::Silent),
            "{degs:?}"
        );
    }

    #[test]
    fn one_way_traffic_on_a_no_bounds_link_is_half_unbounded() {
        // P–Q gets a full round trip: healthy (finite both ways). Q–R
        // carries traffic only Q → R: under no-bounds, m̃ls(R, Q) = +∞.
        let obs = estimated_delays(&net(), &[(P, Q, 40), (Q, P, 60), (Q, R, 30)]);
        let local = estimated_local_shifts(&net(), &obs);
        let degs = classify_degradations(&net(), &obs, &local);
        assert_eq!(
            degs,
            vec![LinkDegradation {
                a: Q,
                b: R,
                reason: DegradationReason::Unbounded { from: R, to: Q },
            }]
        );
        assert!(degs[0].to_string().contains("link p1–p2"));
    }

    #[test]
    fn healthy_network_reports_nothing() {
        let obs = estimated_delays(&net(), &[(P, Q, 40), (Q, P, 60), (Q, R, 30), (R, Q, 35)]);
        let local = estimated_local_shifts(&net(), &obs);
        assert!(classify_degradations(&net(), &obs, &local).is_empty());
    }
}
