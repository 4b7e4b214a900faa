//! Drift-aware outcomes: certificates that stay sound after sync time.
//!
//! A [`SyncOutcome`] is exact at the instant the views were recorded. On
//! drifting hardware every bound then decays: two clocks whose rates are
//! bounded by `ρ̄_p` and `ρ̄_q` ppm diverge by at most
//! `(ρ̄_p + ρ̄_q)·Δt/10⁶` over an interval `Δt`, so the Lemma 6.2/6.5
//! estimates, the `m̃s` closure entries and every pair bound widen by
//! exactly that term. [`DriftingOutcome`] packages an outcome with its
//! validity timestamp and per-processor drift bounds, answering queries
//! at any later real time with bounds that remain sound — the decayed
//! certificate the simulator's drift workload and the `drift-soundness`
//! vopr oracle check against ground truth.
//!
//! Every query is O(1) per pair: one rational multiply-add on top of the
//! already-O(1) [`SyncOutcome::pair_bound`]. With all rates zero the
//! decay terms are exactly `0` and every answer is bit-identical to the
//! underlying drift-free outcome.

use clocksync_model::ProcessorId;
use clocksync_time::{DriftBound, DriftingEstimate, Ext, ExtRatio, RealTime};

use crate::synchronizer::LocalSkew;
use crate::SyncOutcome;

/// A synchronization certificate with a validity timestamp and
/// per-processor drift bounds, queryable at any later real time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftingOutcome {
    outcome: SyncOutcome,
    valid_at: RealTime,
    rates: Vec<DriftBound>,
}

impl DriftingOutcome {
    /// Wraps `outcome`, exact at `valid_at`, with one drift bound per
    /// processor.
    ///
    /// # Panics
    ///
    /// Panics if `rates.len()` differs from the outcome's processor
    /// count.
    pub fn new(
        outcome: SyncOutcome,
        valid_at: RealTime,
        rates: Vec<DriftBound>,
    ) -> DriftingOutcome {
        assert_eq!(
            rates.len(),
            outcome.corrections().len(),
            "one drift bound per processor"
        );
        DriftingOutcome {
            outcome,
            valid_at,
            rates,
        }
    }

    /// Wraps `outcome` with the same drift bound for every processor.
    pub fn uniform(outcome: SyncOutcome, valid_at: RealTime, rate: DriftBound) -> DriftingOutcome {
        let n = outcome.corrections().len();
        DriftingOutcome::new(outcome, valid_at, vec![rate; n])
    }

    /// The underlying (undecayed) outcome.
    pub fn outcome(&self) -> &SyncOutcome {
        &self.outcome
    }

    /// The instant at which the underlying outcome is exact.
    pub fn valid_at(&self) -> RealTime {
        self.valid_at
    }

    /// The per-processor drift bounds.
    pub fn rates(&self) -> &[DriftBound] {
        &self.rates
    }

    /// The combined divergence rate of a pair: `ρ̄_p + ρ̄_q`.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `q` is out of range.
    pub fn pair_rate(&self, p: ProcessorId, q: ProcessorId) -> DriftBound {
        self.rates[p.index()].combined(self.rates[q.index()])
    }

    /// The pair bound of `(p, q)` as a decaying estimate: its value is
    /// [`SyncOutcome::pair_bound`], valid at [`DriftingOutcome::valid_at`],
    /// decaying at the pair's combined rate.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `q` is out of range.
    pub fn drifting_pair_bound(&self, p: ProcessorId, q: ProcessorId) -> DriftingEstimate {
        DriftingEstimate::new(
            self.outcome.pair_bound(p, q),
            self.valid_at,
            self.pair_rate(p, q),
        )
    }

    /// The sound worst-case corrected-clock difference of `(p, q)` at
    /// real time `t`: the sync-time pair bound widened by the pair's
    /// accumulated drift. O(1).
    ///
    /// # Panics
    ///
    /// Panics if `p` or `q` is out of range.
    pub fn pair_bound_at(&self, p: ProcessorId, q: ProcessorId, t: RealTime) -> ExtRatio {
        self.drifting_pair_bound(p, q).value_at(t)
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
    /// widened by the worst pair's accumulated drift (twice the largest
    /// per-processor bound).
    pub fn precision_at(&self, t: RealTime) -> ExtRatio {
        let worst = self
            .rates
            .iter()
            .fold(DriftBound::ZERO, |acc, &r| acc.max(r));
        match self.outcome.precision() {
            Ext::Finite(p) => Ext::Finite(p + worst.combined(worst).decay_over(t - self.valid_at)),
            inf => inf,
        }
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
        let d =
            DriftingOutcome::uniform(base.clone(), RealTime::from_nanos(2_040), DriftBound::ZERO);
        let much_later = RealTime::from_nanos(2_040) + Nanos::from_secs(3_600);
        assert_eq!(d.pair_bound_at(P, Q, much_later), base.pair_bound(P, Q));
        assert_eq!(d.precision_at(much_later), base.precision());
        assert_eq!(d.local_skews_at(much_later), base.local_skews());
    }

    #[test]
    fn decay_grows_linearly_and_respects_pair_rates() {
        let base = outcome();
        let t0 = RealTime::from_nanos(2_040);
        let d = DriftingOutcome::new(
            base.clone(),
            t0,
            vec![DriftBound::from_ppm(30), DriftBound::from_ppm(50)],
        );
        assert_eq!(d.pair_rate(P, Q).ppm(), 80);
        let at = |secs: i64| d.pair_bound_at(P, Q, t0 + Nanos::from_secs(secs));
        // 80 ppm over 1s = 80µs of decay, exactly.
        assert_eq!(
            at(1),
            base.pair_bound(P, Q) + Ext::Finite(Ratio::from_int(80_000))
        );
        assert!(at(10) > at(1));
        // Precision decays at twice the worst single rate (2 × 50 ppm).
        assert_eq!(
            d.precision_at(t0 + Nanos::from_secs(1)),
            base.precision() + Ext::Finite(Ratio::from_int(100_000))
        );
    }

    #[test]
    #[should_panic(expected = "one drift bound per processor")]
    fn mismatched_rate_count_is_rejected() {
        let _ = DriftingOutcome::new(outcome(), RealTime::ZERO, vec![DriftBound::ZERO]);
    }
}
