//! Per-link optimal corrections composed along a spanning tree.

use clocksync::{estimated_local_shifts, Network};
#[cfg(test)]
use clocksync_model::ProcessorId;
use clocksync_model::ViewSet;
use clocksync_time::{Ext, Ratio};

use crate::{spanning_tree, Baseline, BaselineError};

/// The "locally optimal, globally naive" baseline.
///
/// Each spanning-tree link is solved *exactly* as a two-processor instance
/// of the paper — the optimal per-link correction difference is the
/// midpoint of the local feasibility window,
///
/// `x_child − x_parent = ( m̃ls(child, parent) − m̃ls(parent, child) ) / 2`
///
/// (for a single exchange under known bounds this is precisely the
/// Halpern–Megiddo–Munshi rule) — and the per-link answers are composed
/// along the tree with no global adjustment.
///
/// On a tree this coincides with the optimal algorithm. On graphs with
/// cycles it discards the cross-path information the global SHIFTS
/// computation exploits, and experiment E3 measures the resulting gap.
/// Unlike [`crate::NtpMinFilter`], it *does* use the declared assumptions,
/// so it stays unbiased on links that are asymmetric by declaration.
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeMidpoint;

impl TreeMidpoint {
    /// Creates the estimator.
    pub fn new() -> TreeMidpoint {
        TreeMidpoint
    }
}

impl Baseline for TreeMidpoint {
    fn name(&self) -> &'static str {
        "tree-midpoint"
    }

    fn corrections(&self, network: &Network, views: &ViewSet) -> Result<Vec<Ratio>, BaselineError> {
        if views.len() != network.n() {
            return Err(BaselineError::WrongProcessorCount {
                expected: network.n(),
                actual: views.len(),
            });
        }
        let local = estimated_local_shifts(network, &network.link_observations(views));
        let tree = spanning_tree(network)?;
        let mut x = vec![Ratio::ZERO; network.n()];
        for (parent, child) in tree {
            let fwd = local.get(parent.index(), child.index());
            let bwd = local.get(child.index(), parent.index());
            let (Ext::Finite(fwd), Ext::Finite(bwd)) = (fwd, bwd) else {
                let (a, b) = if parent < child {
                    (parent, child)
                } else {
                    (child, parent)
                };
                return Err(BaselineError::MissingTraffic { a, b });
            };
            x[child.index()] = x[parent.index()] + (bwd - fwd) * Ratio::new(1, 2);
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksync::{DelayRange, LinkAssumption, Synchronizer};
    use clocksync_model::ExecutionBuilder;
    use clocksync_time::{Nanos, RealTime};

    const P: ProcessorId = ProcessorId(0);
    const Q: ProcessorId = ProcessorId(1);
    const R: ProcessorId = ProcessorId(2);

    fn bounded(n: usize, edges: &[(usize, usize)], lo: i64, hi: i64) -> Network {
        let mut b = Network::builder(n);
        for &(x, y) in edges {
            b = b.link(
                ProcessorId(x),
                ProcessorId(y),
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::new(lo), Nanos::new(hi))),
            );
        }
        b.build()
    }

    #[test]
    fn matches_optimal_on_a_tree() {
        let net = bounded(3, &[(0, 1), (1, 2)], 0, 1_000);
        let exec = ExecutionBuilder::new(3)
            .start(Q, RealTime::from_nanos(123))
            .start(R, RealTime::from_nanos(-77))
            .round_trips(
                P,
                Q,
                1,
                RealTime::from_nanos(5_000),
                Nanos::new(10),
                Nanos::new(400),
                Nanos::new(300),
            )
            .round_trips(
                Q,
                R,
                1,
                RealTime::from_nanos(6_000),
                Nanos::new(10),
                Nanos::new(200),
                Nanos::new(800),
            )
            .build()
            .unwrap();
        let ours = TreeMidpoint::new().corrections(&net, exec.views()).unwrap();
        let optimal = Synchronizer::new(net.clone())
            .synchronize(exec.views())
            .unwrap();
        // On a tree the two are equally good (same ρ̄ = optimum).
        assert_eq!(
            optimal.rho_bar(&ours),
            optimal.rho_bar(optimal.corrections())
        );
    }

    #[test]
    fn handles_asymmetric_declared_bounds_exactly() {
        // Link declared asymmetric: forward [100,100], backward [900,900].
        // Unlike NTP, the midpoint of the *feasibility window* is exact.
        let net = Network::builder(2)
            .link(
                P,
                Q,
                LinkAssumption::bounds(
                    DelayRange::new(Nanos::new(100), Nanos::new(100)),
                    DelayRange::new(Nanos::new(900), Nanos::new(900)),
                ),
            )
            .build();
        let exec = ExecutionBuilder::new(2)
            .start(Q, RealTime::from_nanos(50))
            .round_trips(
                P,
                Q,
                1,
                RealTime::from_nanos(1_000),
                Nanos::new(10),
                Nanos::new(100),
                Nanos::new(900),
            )
            .build()
            .unwrap();
        let x = TreeMidpoint::new().corrections(&net, exec.views()).unwrap();
        assert_eq!(exec.discrepancy(&x), Ratio::ZERO);
    }

    #[test]
    fn suboptimal_on_cycles() {
        // Triangle where the 0–2 link is much tighter than the 0–1–2 path;
        // the tree baseline (rooted BFS) may ignore it, the optimal cannot.
        let net = bounded(3, &[(0, 1), (1, 2), (0, 2)], 0, 10_000);
        let exec = ExecutionBuilder::new(3)
            .round_trips(
                P,
                Q,
                1,
                RealTime::from_nanos(5_000),
                Nanos::new(10),
                Nanos::new(4_000),
                Nanos::new(4_100),
            )
            .round_trips(
                Q,
                R,
                1,
                RealTime::from_nanos(6_000),
                Nanos::new(10),
                Nanos::new(3_900),
                Nanos::new(4_000),
            )
            .round_trips(
                P,
                R,
                1,
                RealTime::from_nanos(7_000),
                Nanos::new(10),
                Nanos::new(100),
                Nanos::new(80),
            )
            .build()
            .unwrap();
        let base = TreeMidpoint::new().corrections(&net, exec.views()).unwrap();
        let optimal = Synchronizer::new(net).synchronize(exec.views()).unwrap();
        let rb_base = optimal.rho_bar(&base);
        let rb_opt = optimal.rho_bar(optimal.corrections());
        assert!(rb_opt <= rb_base);
        assert!(
            rb_opt < rb_base,
            "expected a strict gap: base={rb_base} opt={rb_opt}"
        );
    }

    #[test]
    fn silent_link_is_an_error() {
        let net = bounded(2, &[(0, 1)], 0, 10);
        let exec = ExecutionBuilder::new(2).build().unwrap();
        let err = TreeMidpoint::new()
            .corrections(&net, exec.views())
            .unwrap_err();
        assert_eq!(err, BaselineError::MissingTraffic { a: P, b: Q });
    }
}
