//! Drift-aware outcomes: certificates that stay sound after sync time.
//!
//! A [`SyncOutcome`] is exact at the instant the views were recorded. On
//! drifting hardware every bound then decays: two clocks whose rates are
//! bounded by `ρ̄` ppm diverge by at most `2ρ̄·Δt/10⁶` over an interval
//! `Δt`, so the Lemma 6.2/6.5 estimates, the `m̃s` closure entries and
//! every pair bound widen by exactly that term. [`DriftingOutcome`]
//! packages an outcome with its validity timestamp and the declared drift
//! bound, answering queries at any later real time with bounds that
//! remain sound — the decayed certificate the simulator's drift workload
//! and the `drift-soundness` vopr oracle check against ground truth.
//!
//! Every query is O(1) per pair: one rational multiply-add on top of the
//! already-O(1) [`SyncOutcome::pair_bound`]. With a zero rate the decay
//! term is exactly `0` and every answer is bit-identical to the
//! underlying drift-free outcome.

use clocksync_model::ProcessorId;
use clocksync_time::{DriftBound, Ext, ExtRatio, RealTime};

use crate::synchronizer::LocalSkew;
use crate::SyncOutcome;

/// A synchronization certificate with a validity timestamp and the drift
/// bound every processor's clock satisfies, queryable at any later real
/// time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftingOutcome {
    outcome: SyncOutcome,
    valid_at: RealTime,
    rate: DriftBound,
}

impl DriftingOutcome {
    /// Wraps `outcome`, exact at `valid_at`, for clocks whose rates are
    /// all within `rate`.
    pub fn new(outcome: SyncOutcome, valid_at: RealTime, rate: DriftBound) -> DriftingOutcome {
        DriftingOutcome {
            outcome,
            valid_at,
            rate,
        }
    }

    /// The underlying (undecayed) outcome.
    pub fn outcome(&self) -> &SyncOutcome {
        &self.outcome
    }

    /// The instant at which the underlying outcome is exact.
    pub fn valid_at(&self) -> RealTime {
        self.valid_at
    }

    /// The drift bound of every processor's clock.
    pub fn rate(&self) -> DriftBound {
        self.rate
    }

    /// `bound` widened by the divergence two clocks can accumulate between
    /// [`DriftingOutcome::valid_at`] and `t`, `2ρ̄·|t − valid_at|/10⁶`.
    /// `+∞` stays `+∞`.
    fn decayed(&self, bound: ExtRatio, t: RealTime) -> ExtRatio {
        match bound {
            Ext::Finite(b) => {
                Ext::Finite(b + self.rate.combined(self.rate).decay_over(t - self.valid_at))
            }
            inf => inf,
        }
    }

    /// The sound worst-case corrected-clock difference of `(p, q)` at
    /// real time `t`: the sync-time pair bound widened by the pair's
    /// accumulated drift. O(1).
    ///
    /// # Panics
    ///
    /// Panics if `p` or `q` is out of range.
    pub fn pair_bound_at(&self, p: ProcessorId, q: ProcessorId, t: RealTime) -> ExtRatio {
        self.decayed(self.outcome.pair_bound(p, q), t)
    }

    /// The per-edge local skew at real time `t` — identical to
    /// [`DriftingOutcome::pair_bound_at`]; see
    /// [`SyncOutcome::local_skew`] for the definition.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `q` is out of range.
    pub fn local_skew_at(&self, p: ProcessorId, q: ProcessorId, t: RealTime) -> ExtRatio {
        self.pair_bound_at(p, q, t)
    }

    /// The global precision at real time `t`: the sync-time precision
    /// widened by any pair's accumulated drift.
    pub fn precision_at(&self, t: RealTime) -> ExtRatio {
        self.decayed(self.outcome.precision(), t)
    }

    /// Per-declared-edge local skews at real time `t`, in edge order —
    /// the decayed counterpart of [`SyncOutcome::local_skews`].
    pub fn local_skews_at(&self, t: RealTime) -> Vec<LocalSkew> {
        self.outcome
            .edges()
            .iter()
            .map(|&(a, b)| LocalSkew {
                a,
                b,
                skew: self.pair_bound_at(a, b, t),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayRange, LinkAssumption, Network, Synchronizer};
    use clocksync_model::ExecutionBuilder;
    use clocksync_time::{Nanos, Ratio};

    const P: ProcessorId = ProcessorId(0);
    const Q: ProcessorId = ProcessorId(1);

    fn outcome() -> SyncOutcome {
        let net = Network::builder(2)
            .link(
                P,
                Q,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(100))),
            )
            .build();
        let exec = ExecutionBuilder::new(2)
            .message(P, Q, RealTime::from_nanos(1_000), Nanos::new(40))
            .message(Q, P, RealTime::from_nanos(2_000), Nanos::new(40))
            .build()
            .unwrap();
        Synchronizer::new(net).synchronize(exec.views()).unwrap()
    }

    #[test]
    fn zero_rates_degenerate_bit_exactly() {
        let base = outcome();
        let d = DriftingOutcome::new(base.clone(), RealTime::from_nanos(2_040), DriftBound::ZERO);
        let much_later = RealTime::from_nanos(2_040) + Nanos::from_secs(3_600);
        assert_eq!(d.pair_bound_at(P, Q, much_later), base.pair_bound(P, Q));
        assert_eq!(d.precision_at(much_later), base.precision());
        assert_eq!(d.local_skews_at(much_later), base.local_skews());
    }

    #[test]
    fn zero_rate_is_bit_exact_identity() {
        // Before the validity instant as well as after it.
        let t0 = RealTime::from_nanos(2_040);
        let d = DriftingOutcome::new(outcome(), t0, DriftBound::ZERO);
        for dt in [0i64, 1, 1_000_000_000, -273] {
            let t = RealTime::from_nanos(2_040 + dt);
            assert_eq!(d.pair_bound_at(P, Q, t), d.pair_bound_at(P, Q, t0));
        }
    }

    #[test]
    fn infinite_estimates_stay_infinite() {
        // No link: the pair is unconstrained and the precision unbounded.
        let exec = ExecutionBuilder::new(2).build().unwrap();
        let base = Synchronizer::new(Network::builder(2).build())
            .synchronize(exec.views())
            .unwrap();
        let d = DriftingOutcome::new(base, RealTime::ZERO, DriftBound::from_ppm(1_000));
        let t = RealTime::from_nanos(i64::MAX / 2);
        assert_eq!(d.pair_bound_at(P, Q, t), Ext::PosInf);
        assert_eq!(d.precision_at(t), Ext::PosInf);
    }

    #[test]
    fn decay_grows_linearly_and_respects_pair_rates() {
        let base = outcome();
        let t0 = RealTime::from_nanos(2_040);
        let d = DriftingOutcome::new(base.clone(), t0, DriftBound::from_ppm(40));
        let at = |secs: i64| d.pair_bound_at(P, Q, t0 + Nanos::from_secs(secs));
        // A pair diverges at 2 × 40 ppm: over 1s that is 80µs, exactly,
        // and ten times as much over 10s.
        let decay = |us: i128| Ext::Finite(Ratio::from_int(us * 1_000));
        assert_eq!(at(1), base.pair_bound(P, Q) + decay(80));
        assert_eq!(at(10), base.pair_bound(P, Q) + decay(800));
        // Precision decays at the same pair rate.
        assert_eq!(
            d.precision_at(t0 + Nanos::from_secs(1)),
            base.precision() + decay(80)
        );
    }
}
