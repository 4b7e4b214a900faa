//! The NTP-style minimum-filter offset estimator.

use clocksync::Network;
#[cfg(test)]
use clocksync_model::ProcessorId;
use clocksync_model::ViewSet;
use clocksync_time::{Ext, Ratio};

use crate::{spanning_tree, Baseline, BaselineError};

/// NTP's peer-offset estimator composed over a spanning tree.
///
/// Per link `{p, q}` NTP computes, from the minimum-delay samples in each
/// direction, the offset estimate
///
/// `θ(q vs p) = ( d̃min(q,p) − d̃min(p,q) ) / 2`,
///
/// which is exact when the two directions' minimal delays happen to be
/// equal — the *symmetric delay* assumption. On asymmetric links the
/// estimate is silently biased by half the asymmetry, which is precisely
/// the failure mode the paper's round-trip-bias model quantifies and the
/// experiments measure.
///
/// # Examples
///
/// See the `baselines_vs_optimal` integration suite and experiment E4.
#[derive(Debug, Clone, Copy, Default)]
pub struct NtpMinFilter;

impl NtpMinFilter {
    /// Creates the estimator.
    pub fn new() -> NtpMinFilter {
        NtpMinFilter
    }
}

impl Baseline for NtpMinFilter {
    fn name(&self) -> &'static str {
        "ntp-min-filter"
    }

    fn corrections(&self, network: &Network, views: &ViewSet) -> Result<Vec<Ratio>, BaselineError> {
        if views.len() != network.n() {
            return Err(BaselineError::WrongProcessorCount {
                expected: network.n(),
                actual: views.len(),
            });
        }
        let obs = network.link_observations(views);
        let tree = spanning_tree(network)?;
        let mut x = vec![Ratio::ZERO; network.n()];
        for (parent, child) in tree {
            let d_min = |p, q| {
                let slot = network.slot(p, q).expect("tree edges are declared links");
                obs.stats(slot).est_min
            };
            let (fwd, bwd) = (d_min(parent, child), d_min(child, parent));
            let (Ext::Finite(fwd), Ext::Finite(bwd)) = (fwd, bwd) else {
                let (a, b) = if parent < child {
                    (parent, child)
                } else {
                    (child, parent)
                };
                return Err(BaselineError::MissingTraffic { a, b });
            };
            // θ = estimate of (S_child − S_parent); corrections must keep
            // S − x aligned, so x_child = x_parent + θ.
            let theta = (Ratio::from(bwd) - Ratio::from(fwd)) * Ratio::new(1, 2);
            x[child.index()] = x[parent.index()] + theta;
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksync::LinkAssumption;
    use clocksync_model::ExecutionBuilder;
    use clocksync_time::{Nanos, RealTime};

    const P: ProcessorId = ProcessorId(0);
    const Q: ProcessorId = ProcessorId(1);

    fn net(n: usize, edges: &[(usize, usize)]) -> Network {
        let mut b = Network::builder(n);
        for &(x, y) in edges {
            b = b.link(ProcessorId(x), ProcessorId(y), LinkAssumption::no_bounds());
        }
        b.build()
    }

    #[test]
    fn symmetric_delays_recover_the_true_offset() {
        // σ = 300, equal delays each way ⇒ NTP is exact.
        let exec = ExecutionBuilder::new(2)
            .start(Q, RealTime::from_nanos(300))
            .round_trips(
                P,
                Q,
                2,
                RealTime::from_nanos(1_000),
                Nanos::from_micros(10),
                Nanos::new(500),
                Nanos::new(500),
            )
            .build()
            .unwrap();
        let x = NtpMinFilter::new()
            .corrections(&net(2, &[(0, 1)]), exec.views())
            .unwrap();
        assert_eq!(exec.discrepancy(&x), Ratio::ZERO);
    }

    #[test]
    fn asymmetric_delays_bias_by_half_the_asymmetry() {
        // Forward 100, backward 900 ⇒ error = |100 − 900|/2 = 400.
        let exec = ExecutionBuilder::new(2)
            .round_trips(
                P,
                Q,
                1,
                RealTime::from_nanos(1_000),
                Nanos::from_micros(10),
                Nanos::new(100),
                Nanos::new(900),
            )
            .build()
            .unwrap();
        let x = NtpMinFilter::new()
            .corrections(&net(2, &[(0, 1)]), exec.views())
            .unwrap();
        assert_eq!(exec.discrepancy(&x), Ratio::from_int(400));
    }

    #[test]
    fn min_filter_uses_best_samples_per_direction() {
        // Two noisy round trips; the minimum of each direction is clean.
        let exec = ExecutionBuilder::new(2)
            .start(Q, RealTime::from_nanos(1_000))
            .message(P, Q, RealTime::from_nanos(10_000), Nanos::new(500))
            .message(Q, P, RealTime::from_nanos(11_000), Nanos::new(2_500))
            .message(P, Q, RealTime::from_nanos(20_000), Nanos::new(1_700))
            .message(Q, P, RealTime::from_nanos(21_000), Nanos::new(500))
            .build()
            .unwrap();
        let x = NtpMinFilter::new()
            .corrections(&net(2, &[(0, 1)]), exec.views())
            .unwrap();
        // Minimum delays are 500 both ways ⇒ exact recovery.
        assert_eq!(exec.discrepancy(&x), Ratio::ZERO);
    }

    #[test]
    fn propagates_over_a_tree() {
        let exec = ExecutionBuilder::new(3)
            .start(Q, RealTime::from_nanos(100))
            .start(ProcessorId(2), RealTime::from_nanos(-250))
            .round_trips(
                P,
                Q,
                1,
                RealTime::from_nanos(1_000),
                Nanos::new(10),
                Nanos::new(40),
                Nanos::new(40),
            )
            .round_trips(
                Q,
                ProcessorId(2),
                1,
                RealTime::from_nanos(2_000),
                Nanos::new(10),
                Nanos::new(70),
                Nanos::new(70),
            )
            .build()
            .unwrap();
        let x = NtpMinFilter::new()
            .corrections(&net(3, &[(0, 1), (1, 2)]), exec.views())
            .unwrap();
        assert_eq!(exec.discrepancy(&x), Ratio::ZERO);
    }

    #[test]
    fn silent_tree_link_is_an_error() {
        let exec = ExecutionBuilder::new(2).build().unwrap();
        let err = NtpMinFilter::new()
            .corrections(&net(2, &[(0, 1)]), exec.views())
            .unwrap_err();
        assert_eq!(err, BaselineError::MissingTraffic { a: P, b: Q });
    }

    #[test]
    fn size_mismatch_is_an_error() {
        let exec = ExecutionBuilder::new(2).build().unwrap();
        let err = NtpMinFilter::new()
            .corrections(&net(3, &[(0, 1)]), exec.views())
            .unwrap_err();
        assert!(matches!(err, BaselineError::WrongProcessorCount { .. }));
    }
}
