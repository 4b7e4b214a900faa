//! Delay assumptions and their local-shift estimators (paper §6).
//!
//! Each [`LinkAssumption`] attaches to one bidirectional link `{p, q}` and
//! knows how to turn the link's observed evidence into the *estimated
//! maximal local shift* `m̃ls` of each endpoint with respect to the other.
//! The estimators are the closed forms of Lemmas 6.2 and 6.5 (plus the
//! windowed generalization the paper sketches at the end of §6.2), and
//! conjunction ([`LinkAssumption::all`]) is the decomposition theorem
//! (Theorem 5.6): the `m̃ls` of an intersection of assumption sets is the
//! minimum of the individual `m̃ls` values.

use clocksync_model::{LinkEvidence, MessageRecord, MsgSample};
use clocksync_time::{Ext, ExtNanos, ExtRatio, Nanos, Ratio};
use serde::{Deserialize, Serialize};

/// An interval of admissible delays for one direction of a link.
///
/// `lower ≤ upper ≤ +∞` (paper §6.1). `upper = +∞` models a link with no
/// upper bound; `lower = 0, upper = +∞` is a fully asynchronous
/// direction. *True* delays are nonnegative (the paper's standing
/// assumption), but a declared range may carry a **negative lower
/// bound**: a drift-widened declaration must admit *estimated* delays up
/// to the reading-error margin below the true minimum, and clamping the
/// declared lower bound at zero would silently tighten the §6 estimate
/// `d̃min − lower` past what drifted evidence supports. A negative lower
/// bound only ever loosens estimates, so it is always sound to declare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DelayRange {
    lower: Nanos,
    upper: ExtNanos,
}

impl DelayRange {
    /// Creates a bounded range `[lower, upper]`. A negative `lower` is a
    /// virtual declaration (see the type docs): vacuous about true
    /// delays, but honest about how low a drifted *estimated* delay may
    /// appear.
    ///
    /// # Panics
    ///
    /// Panics unless `lower ≤ upper`.
    pub fn new(lower: Nanos, upper: Nanos) -> DelayRange {
        assert!(lower <= upper, "delay range requires lower <= upper");
        DelayRange {
            lower,
            upper: Ext::Finite(upper),
        }
    }

    /// A range with a lower bound only: `[lower, +∞)`. As with
    /// [`DelayRange::new`], `lower` may be negative.
    pub fn at_least(lower: Nanos) -> DelayRange {
        DelayRange {
            lower,
            upper: Ext::PosInf,
        }
    }

    /// The fully unconstrained range `[0, +∞)` (delays are still
    /// nonnegative, the paper's standing assumption).
    pub fn unbounded() -> DelayRange {
        DelayRange {
            lower: Nanos::ZERO,
            upper: Ext::PosInf,
        }
    }

    /// The lower bound.
    pub fn lower(&self) -> Nanos {
        self.lower
    }

    /// The upper bound (possibly `+∞`).
    pub fn upper(&self) -> ExtNanos {
        self.upper
    }

    /// Whether `delay` lies in the range.
    pub fn contains(&self, delay: Nanos) -> bool {
        delay >= self.lower && Ext::Finite(delay) <= self.upper
    }
}

impl Default for DelayRange {
    /// The default range is [`DelayRange::unbounded`].
    fn default() -> Self {
        DelayRange::unbounded()
    }
}

/// Whether a forward message and a backward message count as "sent around
/// the same time" for the windowed bias model: their clock readings at a
/// *common endpoint* are within `window`. Both criteria are phrased in one
/// processor's own clock, so the pairing is invariant under shifting (and
/// thus well-defined on equivalence classes of executions).
fn within_window(
    fwd_send: clocksync_time::ClockTime,
    fwd_recv: clocksync_time::ClockTime,
    bwd_send: clocksync_time::ClockTime,
    bwd_recv: clocksync_time::ClockTime,
    window: Nanos,
) -> bool {
    // At the forward sender (= backward receiver): send vs receive clocks.
    (fwd_send - bwd_recv).abs() <= window
        // At the forward receiver (= backward sender).
        || (fwd_recv - bwd_send).abs() <= window
}

fn records_paired(mf: &MessageRecord, mb: &MessageRecord, window: Nanos) -> bool {
    within_window(
        mf.send_clock,
        mf.recv_clock,
        mb.send_clock,
        mb.recv_clock,
        window,
    )
}

/// The minimum of `d̃(m_f) − d̃(m_b)` over all in-window pairs (the
/// [`within_window`] pairing), or `None` when no pair is in-window.
///
/// The pairing predicate is a union of two window joins — forward-*send*
/// vs backward-*receive* clocks, and forward-*receive* vs backward-*send*
/// clocks — and each join is evaluated by sorting both sides on its key
/// and sliding the `±window` interval over the backward samples with a
/// monotonic deque tracking the maximal backward delay estimate. That
/// makes the scan `O(F log F + B log B)` where the naive all-pairs product
/// is `O(F·B)`; a pair matching both joins is simply seen twice, which
/// cannot change a minimum.
fn min_paired_gap(fwd: &[MsgSample], bwd: &[MsgSample], window: Nanos) -> Option<i128> {
    let w = window.as_nanos() as i128;
    let join = |fkey: fn(&MsgSample) -> i64, bkey: fn(&MsgSample) -> i64| -> Option<i128> {
        let mut fs: Vec<(i128, i64)> = fwd
            .iter()
            .map(|m| (fkey(m) as i128, m.estimated_delay().as_nanos()))
            .collect();
        let mut bs: Vec<(i128, i64)> = bwd
            .iter()
            .map(|m| (bkey(m) as i128, m.estimated_delay().as_nanos()))
            .collect();
        fs.sort_unstable();
        bs.sort_unstable();
        let mut best: Option<i128> = None;
        let (mut lo, mut hi) = (0usize, 0usize);
        // Indices into `bs` with strictly decreasing delay estimates; the
        // front is the window maximum.
        let mut deque: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &(fk, fe) in &fs {
            while hi < bs.len() && bs[hi].0 <= fk + w {
                while deque.back().is_some_and(|&b| bs[b].1 <= bs[hi].1) {
                    deque.pop_back();
                }
                deque.push_back(hi);
                hi += 1;
            }
            while lo < hi && bs[lo].0 < fk - w {
                if deque.front() == Some(&lo) {
                    deque.pop_front();
                }
                lo += 1;
            }
            if let Some(&front) = deque.front() {
                let gap = fe as i128 - bs[front].1 as i128;
                best = Some(best.map_or(gap, |b| b.min(gap)));
            }
        }
        best
    };
    let a = join(|m| m.send_clock.as_nanos(), |m| m.recv_clock.as_nanos());
    let b = join(|m| m.recv_clock.as_nanos(), |m| m.send_clock.as_nanos());
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}

/// The per-sample uncertainty intervals a Marzullo link contributes, in
/// `Δ = o_q − o_p` space (the far clock's offset relative to the near
/// one). An honest forward sample with estimated delay `d̃ = d + Δ` and
/// true delay `d ∈ [lo_f, hi_f]` pins `Δ ∈ [d̃ − hi_f, d̃ − lo_f]`; an
/// honest backward sample with `d̃ = d − Δ` pins
/// `Δ ∈ [lo_b − d̃, hi_b − d̃]`. Unbounded range uppers make the matching
/// interval edge infinite.
fn offset_intervals(
    forward: &DelayRange,
    backward: &DelayRange,
    evidence: &LinkEvidence<'_>,
) -> Vec<(Ext<i128>, Ext<i128>)> {
    let mut out =
        Vec::with_capacity(evidence.forward_samples.len() + evidence.backward_samples.len());
    let f_lo = forward.lower().as_nanos() as i128;
    for mf in evidence.forward_samples {
        let d = mf.estimated_delay().as_nanos() as i128;
        let lo = match forward.upper() {
            Ext::Finite(hi) => Ext::Finite(d - hi.as_nanos() as i128),
            _ => Ext::NegInf,
        };
        out.push((lo, Ext::Finite(d - f_lo)));
    }
    let b_lo = backward.lower().as_nanos() as i128;
    for mb in evidence.backward_samples {
        let d = mb.estimated_delay().as_nanos() as i128;
        let hi = match backward.upper() {
            Ext::Finite(hi) => Ext::Finite(hi.as_nanos() as i128 - d),
            _ => Ext::PosInf,
        };
        out.push((Ext::Finite(b_lo - d), hi));
    }
    out
}

fn ext_i128_to_ratio(x: Ext<i128>) -> ExtRatio {
    match x {
        Ext::NegInf => Ext::NegInf,
        Ext::Finite(v) => Ext::Finite(Ratio::from_int(v)),
        Ext::PosInf => Ext::PosInf,
    }
}

/// A delay assumption for one bidirectional link `{p, q}`.
///
/// The *forward* direction is `p → q` in the orientation the link was
/// declared with (see [`crate::NetworkBuilder::link`]); `backward` is
/// `q → p`.
///
/// # Examples
///
/// ```
/// use clocksync::{LinkAssumption, DelayRange};
/// use clocksync_time::Nanos;
///
/// // A link with known bounds forward and only a lower bound backward,
/// // additionally promising the round-trip bias is at most 2ms:
/// let a = LinkAssumption::all(vec![
///     LinkAssumption::bounds(
///         DelayRange::new(Nanos::from_micros(100), Nanos::from_micros(900)),
///         DelayRange::at_least(Nanos::from_micros(100)),
///     ),
///     LinkAssumption::rtt_bias(Nanos::from_millis(2)),
/// ]);
/// assert!(format!("{a:?}").contains("RttBias"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkAssumption {
    /// Per-direction delay bounds (paper §6.1, Lemma 6.2), covering the
    /// paper's models 1–3: both bounds known, lower bounds only, or no
    /// bounds at all.
    Bounds {
        /// Admissible delays `p → q`.
        forward: DelayRange,
        /// Admissible delays `q → p`.
        backward: DelayRange,
    },
    /// A bound on the *bias* between delays in opposite directions (paper
    /// §6.2, Lemma 6.5): for every forward message `m_f` and backward
    /// message `m_b`, `|d(m_f) − d(m_b)| ≤ bound`; delays are nonnegative.
    RttBias {
        /// The bias bound `b(p,q) = b(q,p) > 0`.
        bound: Nanos,
    },
    /// The windowed generalization the paper sketches at the end of §6.2:
    /// the bias bound applies only to messages sent *around the same
    /// time* — here, pairs whose clock readings at a common endpoint are
    /// within `window`. Delays are nonnegative. With `window = ∞` this is
    /// exactly [`LinkAssumption::RttBias`].
    PairedRttBias {
        /// The bias bound for messages within the window.
        bound: Nanos,
        /// The pairing window, measured on a common endpoint's clock.
        window: Nanos,
    },
    /// Fault-tolerant multi-source fusion: per-direction delay bounds as
    /// in [`LinkAssumption::Bounds`], but up to `max_faulty` of the link's
    /// retained samples may come from faulty sources whose delays violate
    /// the declared ranges arbitrarily. Each retained sample contributes
    /// an uncertainty interval for the far clock's offset; Marzullo's
    /// sweep over the `2·k` interval endpoints ([`marzullo_fuse`]) keeps
    /// exactly the offsets consistent with at least `k − max_faulty`
    /// sources, and the fused interval's edges become the `m̃ls`
    /// contributions. With `max_faulty = 0` on jointly-consistent evidence
    /// this degenerates to the Lemma 6.2 closed form; with contradictory
    /// evidence it degrades to "no constraint" (`+∞`) instead of the
    /// negative-cycle error the strict `Bounds` estimator produces.
    MarzulloQuorum {
        /// Admissible delays `p → q` for honest sources.
        forward: DelayRange,
        /// Admissible delays `q → p` for honest sources.
        backward: DelayRange,
        /// How many of the link's samples may be faulty.
        max_faulty: usize,
    },
    /// Conjunction of several assumptions on the same link (Theorem 5.6).
    All(Vec<LinkAssumption>),
}

/// One endpoint's view of a Marzullo fusion, for observability: how many
/// sources voted, what quorum was required, and how many sources the fused
/// interval discarded as outvoted. Produced by
/// [`LinkAssumption::fusion_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarzulloFusion {
    /// Total sample intervals that voted (both directions).
    pub sources: usize,
    /// Required agreement, `sources − max_faulty` (0 when `sources` is no
    /// larger than `max_faulty`, i.e. no quorum is possible).
    pub quorum: usize,
    /// Whether any offset was consistent with a full quorum.
    pub quorum_reached: bool,
    /// Sources whose interval is disjoint from the fused interval — the
    /// outvoted (presumed faulty) ones. `0` when no quorum was reached.
    pub discarded: usize,
    /// Lower edge of the fused offset interval (`−∞` when unconstrained).
    pub fused_lo: Ext<i128>,
    /// Upper edge of the fused offset interval (`+∞` when unconstrained).
    pub fused_hi: Ext<i128>,
}

/// Marzullo's endpoint sweep: the hull of all points covered by at least
/// `quorum` of the given closed intervals, or `None` when no point reaches
/// the quorum.
///
/// Endpoints are swept in sorted order with starts before ends at equal
/// values, so closed intervals touching in a single point count as
/// overlapping there; the tie-break is deterministic and the arithmetic is
/// exact (`i128` endpoints, no rationals needed). Taking the *hull* of the
/// quorum-consistent region — rather than the smallest maximal-overlap
/// segment of the classic formulation — is what makes the result sound
/// against every honest subset: any `quorum`-sized subset of honest sources
/// has its intersection inside the hull, so an edge of the hull is never
/// tighter than the tightest bound some honest quorum allows.
///
/// # Panics
///
/// Panics if `quorum` is zero (a zero quorum constrains nothing; callers
/// map that case to "unconstrained" before the sweep) or if an interval is
/// empty (`lo > hi`).
pub fn marzullo_fuse(
    intervals: &[(Ext<i128>, Ext<i128>)],
    quorum: usize,
) -> Option<(Ext<i128>, Ext<i128>)> {
    assert!(quorum > 0, "marzullo quorum must be positive");
    if intervals.len() < quorum {
        return None;
    }
    // Intervals with a `−∞` lower edge are active before any event.
    let mut count = 0usize;
    let mut starts: Vec<i128> = Vec::with_capacity(intervals.len());
    let mut ends: Vec<i128> = Vec::with_capacity(intervals.len());
    for (lo, hi) in intervals {
        assert!(lo <= hi, "empty interval in marzullo_fuse");
        match lo {
            Ext::NegInf => count += 1,
            Ext::Finite(v) => starts.push(*v),
            Ext::PosInf => unreachable!("lo <= hi rules out lo = +inf"),
        }
        match hi {
            // Uppers at +∞ never produce an end event, so they keep the
            // count raised past the last finite end.
            Ext::PosInf => {}
            Ext::Finite(v) => ends.push(*v),
            Ext::NegInf => unreachable!("lo <= hi rules out hi = -inf"),
        }
    }
    starts.sort_unstable();
    ends.sort_unstable();

    let mut lo_edge: Option<Ext<i128>> = (count >= quorum).then_some(Ext::NegInf);
    let mut hi_edge: Option<Ext<i128>> = None;
    let (mut si, mut ei) = (0usize, 0usize);
    while si < starts.len() || ei < ends.len() {
        // Starts before ends at equal values: `[a, b]` and `[b, c]` overlap
        // at `b`.
        let take_start = si < starts.len() && (ei >= ends.len() || starts[si] <= ends[ei]);
        if take_start {
            count += 1;
            if count == quorum && lo_edge.is_none() {
                lo_edge = Some(Ext::Finite(starts[si]));
            }
            si += 1;
        } else {
            if count == quorum {
                // Dropping below quorum: the point we leave is the last
                // quorum-consistent one seen so far (later events may
                // re-reach the quorum and overwrite this).
                hi_edge = Some(Ext::Finite(ends[ei]));
            }
            count = count
                .checked_sub(1)
                .expect("end event without matching start");
            ei += 1;
        }
    }
    let lo = lo_edge?;
    // If the count still meets the quorum after all finite ends, at least
    // `quorum` intervals extend to `+∞` (count = open_ended here).
    let hi = if count >= quorum {
        Ext::PosInf
    } else {
        hi_edge.expect("quorum was reached, so it was also left")
    };
    Some((lo, hi))
}

impl LinkAssumption {
    /// Per-direction delay bounds.
    pub fn bounds(forward: DelayRange, backward: DelayRange) -> LinkAssumption {
        LinkAssumption::Bounds { forward, backward }
    }

    /// The same delay bounds in both directions.
    pub fn symmetric_bounds(range: DelayRange) -> LinkAssumption {
        LinkAssumption::Bounds {
            forward: range,
            backward: range,
        }
    }

    /// No bounds at all (model 3): only nonnegativity of delays.
    pub fn no_bounds() -> LinkAssumption {
        LinkAssumption::symmetric_bounds(DelayRange::unbounded())
    }

    /// A round-trip bias bound (model 4).
    ///
    /// # Panics
    ///
    /// Panics unless `bound > 0` (the paper requires a positive bias
    /// bound).
    pub fn rtt_bias(bound: Nanos) -> LinkAssumption {
        assert!(bound > Nanos::ZERO, "rtt bias bound must be positive");
        LinkAssumption::RttBias { bound }
    }

    /// A windowed round-trip bias bound (the §6.2 generalization).
    ///
    /// # Panics
    ///
    /// Panics unless `bound > 0` and `window > 0`.
    pub fn paired_rtt_bias(bound: Nanos, window: Nanos) -> LinkAssumption {
        assert!(bound > Nanos::ZERO, "rtt bias bound must be positive");
        assert!(window > Nanos::ZERO, "pairing window must be positive");
        LinkAssumption::PairedRttBias { bound, window }
    }

    /// Fault-tolerant per-direction delay bounds: up to `max_faulty` of
    /// the link's retained samples may violate them arbitrarily, and the
    /// estimator fuses the rest with Marzullo's sweep
    /// ([`LinkAssumption::MarzulloQuorum`]).
    pub fn marzullo_quorum(
        forward: DelayRange,
        backward: DelayRange,
        max_faulty: usize,
    ) -> LinkAssumption {
        LinkAssumption::MarzulloQuorum {
            forward,
            backward,
            max_faulty,
        }
    }

    /// The conjunction of `parts` (each must hold).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn all(parts: Vec<LinkAssumption>) -> LinkAssumption {
        assert!(!parts.is_empty(), "conjunction of zero assumptions");
        LinkAssumption::All(parts)
    }

    /// The assumption for the same link with the orientation reversed.
    pub fn reversed(&self) -> LinkAssumption {
        match self {
            LinkAssumption::Bounds { forward, backward } => LinkAssumption::Bounds {
                forward: *backward,
                backward: *forward,
            },
            LinkAssumption::RttBias { bound } => LinkAssumption::RttBias { bound: *bound },
            LinkAssumption::PairedRttBias { bound, window } => LinkAssumption::PairedRttBias {
                bound: *bound,
                window: *window,
            },
            LinkAssumption::MarzulloQuorum {
                forward,
                backward,
                max_faulty,
            } => LinkAssumption::MarzulloQuorum {
                forward: *backward,
                backward: *forward,
                max_faulty: *max_faulty,
            },
            LinkAssumption::All(parts) => {
                LinkAssumption::All(parts.iter().map(|a| a.reversed()).collect())
            }
        }
    }

    /// Returns `true` when [`LinkAssumption::estimated_mls`] depends on
    /// the evidence only through the per-direction extrema `d̃min`/`d̃max`
    /// (Lemmas 6.2 and 6.5). Extrema-only links tolerate sample GC: the
    /// extrema are maintained incrementally and never recomputed from the
    /// retained samples, so dropping dominated samples cannot change any
    /// `m̃ls`. [`LinkAssumption::PairedRttBias`] scans the full sample
    /// lists for in-window pairs and must keep its history, and
    /// [`LinkAssumption::MarzulloQuorum`] needs every sample's interval as
    /// a vote — dropping a dominated sample would change the quorum
    /// arithmetic, so both must keep their per-source witnesses.
    ///
    /// Orientation-invariant: `a.extrema_only() == a.reversed().extrema_only()`.
    pub fn extrema_only(&self) -> bool {
        match self {
            LinkAssumption::Bounds { .. } | LinkAssumption::RttBias { .. } => true,
            LinkAssumption::PairedRttBias { .. } | LinkAssumption::MarzulloQuorum { .. } => false,
            LinkAssumption::All(parts) => parts.iter().all(LinkAssumption::extrema_only),
        }
    }

    /// The estimated maximal local shift `m̃ls(p, q)` of the link's far
    /// endpoint `q` with respect to `p`, computed from the link's observed
    /// evidence (`evidence.forward` = `p → q` direction).
    ///
    /// Implements Lemma 6.2 / Corollary 6.3 for [`LinkAssumption::Bounds`]:
    ///
    /// `m̃ls(p,q) = min( ub(q,p) − d̃max(q,p), d̃min(p,q) − lb(p,q) )`
    ///
    /// Lemma 6.5 / Corollary 6.6 for [`LinkAssumption::RttBias`]:
    ///
    /// `m̃ls(p,q) = min( d̃min(p,q), (b + d̃min(p,q) − d̃max(q,p)) / 2 )`
    ///
    /// the same with the pair minimum restricted to in-window pairs for
    /// [`LinkAssumption::PairedRttBias`], the fused-interval upper edge of
    /// [`marzullo_fuse`] for [`LinkAssumption::MarzulloQuorum`], and the
    /// Theorem 5.6 minimum for [`LinkAssumption::All`]. The result is `+∞`
    /// exactly when the observations place no constraint on how far `q`
    /// may be shifted away from `p`.
    pub fn estimated_mls(&self, evidence: &LinkEvidence<'_>) -> ExtRatio {
        match self {
            LinkAssumption::Bounds {
                forward: f_range,
                backward: b_range,
            } => {
                // How much later can q's history slide before a backward
                // (q → p) message would exceed its upper bound…
                let slack_up: ExtRatio = (b_range.upper() - evidence.backward.est_max).into();
                // …or a forward (p → q) message would dip below its lower
                // bound.
                let slack_down: ExtRatio =
                    (evidence.forward.est_min - Ext::Finite(f_range.lower())).into();
                slack_up.min(slack_down)
            }
            LinkAssumption::RttBias { bound } => {
                let nonneg: ExtRatio = evidence.forward.est_min.into();
                let bias_term: ExtRatio = (Ext::Finite(*bound) + evidence.forward.est_min
                    - evidence.backward.est_max)
                    .into();
                let halved = bias_term.map(|r| r * Ratio::new(1, 2));
                nonneg.min(halved)
            }
            LinkAssumption::PairedRttBias { bound, window } => {
                let nonneg: ExtRatio = evidence.forward.est_min.into();
                let tightest = match min_paired_gap(
                    evidence.forward_samples,
                    evidence.backward_samples,
                    *window,
                ) {
                    Some(gap) => Ext::Finite(Ratio::new(bound.as_nanos() as i128 + gap, 2)),
                    None => Ext::PosInf,
                };
                nonneg.min(tightest)
            }
            LinkAssumption::MarzulloQuorum {
                forward,
                backward,
                max_faulty,
            } => {
                let intervals = offset_intervals(forward, backward, evidence);
                let quorum = intervals.len().saturating_sub(*max_faulty);
                if quorum == 0 {
                    // Fewer votes than tolerated faults: every sample may
                    // be lying, so the evidence constrains nothing.
                    return Ext::PosInf;
                }
                match marzullo_fuse(&intervals, quorum) {
                    Some((_, hi)) => ext_i128_to_ratio(hi),
                    None => Ext::PosInf,
                }
            }
            LinkAssumption::All(parts) => parts
                .iter()
                .map(|a| a.estimated_mls(evidence))
                .min()
                .expect("All() is never empty"),
        }
    }

    /// Observability hook for the Marzullo estimator: the fusion's quorum
    /// arithmetic and fused interval on the given evidence, or `None` when
    /// this assumption (recursively, for [`LinkAssumption::All`]) contains
    /// no [`LinkAssumption::MarzulloQuorum`] part. The fused interval is
    /// over `Δ = o_q − o_p`, the far clock's offset relative to the near
    /// one; its upper edge is the Marzullo part's `m̃ls(p,q)` contribution
    /// and its negated lower edge the `m̃ls(q,p)` one.
    pub fn fusion_stats(&self, evidence: &LinkEvidence<'_>) -> Option<MarzulloFusion> {
        match self {
            LinkAssumption::MarzulloQuorum {
                forward,
                backward,
                max_faulty,
            } => {
                let intervals = offset_intervals(forward, backward, evidence);
                let sources = intervals.len();
                let quorum = sources.saturating_sub(*max_faulty);
                let fused = if quorum == 0 {
                    None
                } else {
                    marzullo_fuse(&intervals, quorum)
                };
                let (quorum_reached, fused_lo, fused_hi) = match fused {
                    Some((lo, hi)) => (true, lo, hi),
                    None => (false, Ext::NegInf, Ext::PosInf),
                };
                let discarded = if quorum_reached {
                    intervals
                        .iter()
                        .filter(|(lo, hi)| *hi < fused_lo || fused_hi < *lo)
                        .count()
                } else {
                    0
                };
                Some(MarzulloFusion {
                    sources,
                    quorum,
                    quorum_reached,
                    discarded,
                    fused_lo,
                    fused_hi,
                })
            }
            LinkAssumption::All(parts) => parts.iter().find_map(|a| a.fusion_stats(evidence)),
            _ => None,
        }
    }

    /// Whether the given true message records satisfy this assumption
    /// (`forward` = `p → q` messages, `backward` = `q → p` messages).
    ///
    /// This is the link-local admissibility predicate `A_{p,q}` of the
    /// paper (§5.1); the shift-based lower-bound experiments use it to
    /// check that shifted executions remain admissible.
    pub fn admits(&self, forward: &[MessageRecord], backward: &[MessageRecord]) -> bool {
        match self {
            LinkAssumption::Bounds {
                forward: f_range,
                backward: b_range,
            } => {
                forward.iter().all(|m| f_range.contains(m.delay))
                    && backward.iter().all(|m| b_range.contains(m.delay))
            }
            LinkAssumption::RttBias { bound } => {
                let nonneg = forward
                    .iter()
                    .chain(backward)
                    .all(|m| m.delay >= Nanos::ZERO);
                let within_bias = forward.iter().all(|mf| {
                    backward
                        .iter()
                        .all(|mb| (mf.delay - mb.delay).abs() <= *bound)
                });
                nonneg && within_bias
            }
            LinkAssumption::PairedRttBias { bound, window } => {
                let nonneg = forward
                    .iter()
                    .chain(backward)
                    .all(|m| m.delay >= Nanos::ZERO);
                let within_bias = forward.iter().all(|mf| {
                    backward.iter().all(|mb| {
                        !records_paired(mf, mb, *window) || (mf.delay - mb.delay).abs() <= *bound
                    })
                });
                nonneg && within_bias
            }
            LinkAssumption::MarzulloQuorum {
                forward: f_range,
                backward: b_range,
                max_faulty,
            } => {
                // Admissible iff the bounds hold for all but at most
                // `max_faulty` messages (the tolerated faulty sources).
                let violations = forward
                    .iter()
                    .filter(|m| !f_range.contains(m.delay))
                    .count()
                    + backward
                        .iter()
                        .filter(|m| !b_range.contains(m.delay))
                        .count();
                violations <= *max_faulty
            }
            LinkAssumption::All(parts) => parts.iter().all(|a| a.admits(forward, backward)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksync_model::ProcessorId;
    use clocksync_time::{ClockTime, RealTime};

    fn ct(ns: i64) -> ClockTime {
        ClockTime::from_nanos(ns)
    }

    /// Samples whose estimated delays are exactly `ests`, spread out in
    /// clock time (1ms apart, far outside any test window).
    fn far_samples(ests: &[i64]) -> Vec<MsgSample> {
        ests.iter()
            .enumerate()
            .map(|(i, &e)| MsgSample {
                send_clock: ct(i as i64 * 1_000_000),
                recv_clock: ct(i as i64 * 1_000_000 + e),
            })
            .collect()
    }

    fn rec(delay: i64, send_clock: i64, recv_clock: i64) -> MessageRecord {
        MessageRecord {
            src: ProcessorId(0),
            dst: ProcessorId(1),
            send_clock: ct(send_clock),
            recv_clock: ct(recv_clock),
            sent_at: RealTime::ZERO,
            received_at: RealTime::ZERO + Nanos::new(delay),
            delay: Nanos::new(delay),
            estimated_delay: Nanos::new(recv_clock - send_clock),
        }
    }

    fn fin(x: i128) -> ExtRatio {
        Ext::Finite(Ratio::from_int(x))
    }

    fn half(x: i128) -> ExtRatio {
        Ext::Finite(Ratio::new(x, 2))
    }

    #[test]
    fn delay_range_validation() {
        let r = DelayRange::new(Nanos::new(5), Nanos::new(10));
        assert!(r.contains(Nanos::new(5)));
        assert!(r.contains(Nanos::new(10)));
        assert!(!r.contains(Nanos::new(11)));
        assert!(!r.contains(Nanos::new(4)));
        assert!(DelayRange::at_least(Nanos::new(3)).contains(Nanos::new(1_000_000)));
        assert!(DelayRange::unbounded().contains(Nanos::ZERO));
        assert!(!DelayRange::unbounded().contains(Nanos::new(-1)));
    }

    #[test]
    #[should_panic(expected = "lower <= upper")]
    fn inverted_range_panics() {
        let _ = DelayRange::new(Nanos::new(10), Nanos::new(5));
    }

    #[test]
    fn a_negative_lower_bound_only_loosens_the_estimate() {
        // Drift-widened declarations push the lower bound below zero; the
        // §6 slack `d̃min − lower` must grow accordingly, never clamp.
        let fwd = far_samples(&[6]);
        let ev = LinkEvidence::from_samples(&fwd, &[]);
        let tight = LinkAssumption::symmetric_bounds(DelayRange::at_least(Nanos::new(2)));
        let virt = LinkAssumption::symmetric_bounds(DelayRange::at_least(Nanos::new(-3)));
        assert_eq!(tight.estimated_mls(&ev), fin(4));
        assert_eq!(virt.estimated_mls(&ev), fin(9));
        assert!(DelayRange::at_least(Nanos::new(-3)).contains(Nanos::ZERO));
    }

    #[test]
    fn bounds_mls_closed_form() {
        // lb = 2, ub = 10 both ways; forward d̃min = 6, backward d̃max = 7.
        let a = LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::new(2), Nanos::new(10)));
        let fwd = far_samples(&[6, 9, 8]);
        let bwd = far_samples(&[4, 7, 5]);
        let ev = LinkEvidence::from_samples(&fwd, &bwd);
        // min(ub − d̃max(q,p), d̃min(p,q) − lb) = min(10−7, 6−2) = 3.
        assert_eq!(a.estimated_mls(&ev), fin(3));
        // Reversed direction: min(10−9, 4−2) = 1.
        assert_eq!(a.estimated_mls(&ev.reversed()), fin(1));
    }

    #[test]
    fn bounds_mls_with_no_upper_bound_uses_only_lower_slack() {
        let a = LinkAssumption::symmetric_bounds(DelayRange::at_least(Nanos::new(2)));
        let fwd = far_samples(&[6, 9]);
        let bwd = far_samples(&[4, 7]);
        let ev = LinkEvidence::from_samples(&fwd, &bwd);
        // ub = ∞ makes the first term +∞; result is d̃min − lb = 4.
        assert_eq!(a.estimated_mls(&ev), fin(4));
    }

    #[test]
    fn no_bounds_mls_is_estimated_min_delay() {
        // Corollary 6.4: with lb = 0, ub = ∞, m̃ls = d̃min(p,q).
        let a = LinkAssumption::no_bounds();
        let fwd = far_samples(&[6, 9]);
        let bwd = far_samples(&[4, 7]);
        assert_eq!(
            a.estimated_mls(&LinkEvidence::from_samples(&fwd, &bwd)),
            fin(6)
        );
    }

    #[test]
    fn silent_link_is_unconstrained() {
        let empty = LinkEvidence::from_samples(&[], &[]);
        assert_eq!(
            LinkAssumption::no_bounds().estimated_mls(&empty),
            Ext::PosInf
        );
        // Even with a finite upper bound: no traffic, no constraint.
        let bounded =
            LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(10)));
        assert_eq!(bounded.estimated_mls(&empty), Ext::PosInf);
    }

    #[test]
    fn one_way_traffic_with_bounds_constrains_one_side() {
        let a = LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::new(2), Nanos::new(10)));
        let fwd = far_samples(&[6, 9]);
        let ev = LinkEvidence::from_samples(&fwd, &[]);
        // Forward only: m̃ls(p,q) = min(+∞, 6−2) = 4.
        assert_eq!(a.estimated_mls(&ev), fin(4));
        // Reverse: m̃ls(q,p) = min(10−9, +∞) = 1.
        assert_eq!(a.estimated_mls(&ev.reversed()), fin(1));
    }

    #[test]
    fn rtt_bias_mls_closed_form() {
        // b = 4, d̃min(p,q) = 6, d̃max(q,p) = 7:
        // min(6, (4 + 6 − 7)/2) = min(6, 3/2) = 3/2.
        let a = LinkAssumption::rtt_bias(Nanos::new(4));
        let fwd = far_samples(&[6, 9]);
        let bwd = far_samples(&[4, 7]);
        assert_eq!(
            a.estimated_mls(&LinkEvidence::from_samples(&fwd, &bwd)),
            half(3)
        );
    }

    #[test]
    fn rtt_bias_mls_can_be_negative() {
        // Asymmetric clock estimates can make the bias term negative; the
        // estimator must pass that through (estimates, unlike true mls,
        // may be negative because they absorb S_p − S_q).
        let a = LinkAssumption::rtt_bias(Nanos::new(1));
        let fwd = far_samples(&[-10]);
        let bwd = far_samples(&[5]);
        // min(−10, (1 − 10 − 5)/2) = min(−10, −7) = −10.
        assert_eq!(
            a.estimated_mls(&LinkEvidence::from_samples(&fwd, &bwd)),
            fin(-10)
        );
    }

    #[test]
    fn rtt_bias_without_reverse_traffic_degenerates_to_no_bounds() {
        let a = LinkAssumption::rtt_bias(Nanos::new(4));
        let fwd = far_samples(&[6, 9]);
        assert_eq!(
            a.estimated_mls(&LinkEvidence::from_samples(&fwd, &[])),
            fin(6)
        );
    }

    #[test]
    fn paired_bias_ignores_out_of_window_pairs() {
        // Two round trips 1ms apart; window 10ns pairs each probe only
        // with its own echo.
        let fwd = vec![
            MsgSample {
                send_clock: ct(0),
                recv_clock: ct(100),
            },
            MsgSample {
                send_clock: ct(1_000_000),
                recv_clock: ct(1_000_900),
            },
        ];
        let bwd = vec![
            MsgSample {
                send_clock: ct(105),
                recv_clock: ct(210),
            },
            MsgSample {
                send_clock: ct(1_000_905),
                recv_clock: ct(1_001_000),
            },
        ];
        let ev = LinkEvidence::from_samples(&fwd, &bwd);
        let b = Nanos::new(50);
        // Estimated delays: fwd 100, 900; bwd 105, 95.
        // Windowed pairs: (fwd0, bwd0) via q clocks |100−105|≤10 and
        // (fwd1, bwd1) via q clocks |1_000_900−1_000_905|≤10.
        // Terms: (50+100−105)/2 = 45/2; (50+900−95)/2 = 855/2.
        // m̃ls = min(d̃min=100, 45/2) = 45/2.
        let windowed = LinkAssumption::paired_rtt_bias(b, Nanos::new(10));
        assert_eq!(windowed.estimated_mls(&ev), half(45));
        // The unwindowed model also sees (fwd0, bwd1): (50+100−95)/2 and
        // (fwd1, bwd0): (50+900−105)/2 — tightest is still 45/2 here, but
        // with a *large* window pairing everything the result matches the
        // plain RttBias closed form: min(100, (50+100−105)/2) = 45/2.
        let plain = LinkAssumption::rtt_bias(b);
        assert_eq!(plain.estimated_mls(&ev), windowed.estimated_mls(&ev));
        // A window pairing nothing leaves only nonnegativity: d̃min = 100.
        // (Use disjoint clock ranges: shift bwd far away.)
        let bwd_far = vec![MsgSample {
            send_clock: ct(50_000_000),
            recv_clock: ct(50_000_095),
        }];
        let ev_far = LinkEvidence::from_samples(&fwd, &bwd_far);
        assert_eq!(
            LinkAssumption::paired_rtt_bias(b, Nanos::new(10)).estimated_mls(&ev_far),
            fin(100)
        );
    }

    #[test]
    fn paired_bias_with_huge_window_equals_plain_bias() {
        let fwd = far_samples(&[6, 9]);
        let bwd = far_samples(&[4, 7]);
        let ev = LinkEvidence::from_samples(&fwd, &bwd);
        let plain = LinkAssumption::rtt_bias(Nanos::new(4));
        let windowed = LinkAssumption::paired_rtt_bias(Nanos::new(4), Nanos::from_secs(1));
        assert_eq!(plain.estimated_mls(&ev), windowed.estimated_mls(&ev));
    }

    #[test]
    fn conjunction_takes_the_minimum() {
        // Theorem 5.6: mls under A' ∩ A'' is min(mls', mls'').
        let bounds =
            LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::new(2), Nanos::new(10)));
        let bias = LinkAssumption::rtt_bias(Nanos::new(4));
        let both = LinkAssumption::all(vec![bounds.clone(), bias.clone()]);
        let fwd = far_samples(&[6, 9]);
        let bwd = far_samples(&[4, 7]);
        let ev = LinkEvidence::from_samples(&fwd, &bwd);
        let expected = bounds.estimated_mls(&ev).min(bias.estimated_mls(&ev));
        assert_eq!(both.estimated_mls(&ev), expected);
        assert_eq!(both.estimated_mls(&ev), half(3));
    }

    #[test]
    fn reversed_swaps_directions() {
        let a = LinkAssumption::bounds(
            DelayRange::new(Nanos::new(1), Nanos::new(5)),
            DelayRange::new(Nanos::new(2), Nanos::new(9)),
        );
        let r = a.reversed();
        let fwd = far_samples(&[6, 9]);
        let bwd = far_samples(&[4, 7]);
        let ev = LinkEvidence::from_samples(&fwd, &bwd);
        // m̃ls(q,p) under `a` == m̃ls(forward) under the reversed assumption
        // with the evidence reversed: min(ub(p→q) − d̃max(p→q), d̃min(q→p)
        // − lb(q→p)) = min(5 − 9, 4 − 2) = −4.
        assert_eq!(r.estimated_mls(&ev.reversed()), fin(-4));
        // Double reversal is the identity.
        assert_eq!(r.reversed(), a);
    }

    #[test]
    fn admits_bounds() {
        let a = LinkAssumption::bounds(
            DelayRange::new(Nanos::new(1), Nanos::new(5)),
            DelayRange::at_least(Nanos::new(2)),
        );
        assert!(a.admits(&[rec(3, 0, 3)], &[rec(100, 10, 110)]));
        assert!(!a.admits(&[rec(6, 0, 6)], &[rec(100, 10, 110)]));
        assert!(!a.admits(&[rec(3, 0, 3)], &[rec(1, 10, 11)]));
        assert!(a.admits(&[], &[]));
    }

    #[test]
    fn admits_rtt_bias() {
        let a = LinkAssumption::rtt_bias(Nanos::new(4));
        assert!(a.admits(&[rec(10, 0, 10)], &[rec(7, 20, 27)]));
        assert!(!a.admits(&[rec(10, 0, 10)], &[rec(3, 20, 23)]));
        assert!(!a.admits(&[rec(-1, 0, -1)], &[]));
        // Same-direction spread is unconstrained by the bias model.
        assert!(a.admits(&[rec(0, 0, 0), rec(100, 5, 105)], &[]));
    }

    #[test]
    fn admits_paired_bias_only_checks_in_window_pairs() {
        let a = LinkAssumption::paired_rtt_bias(Nanos::new(4), Nanos::new(50));
        // In-window pair violating the bias (clocks at the common endpoint
        // within 50ns): rejected.
        assert!(!a.admits(&[rec(10, 0, 10)], &[rec(3, 20, 23)]));
        // The same delays far apart in time: accepted.
        assert!(a.admits(&[rec(10, 0, 10)], &[rec(3, 9_000_000, 9_000_003)]));
        // Negative delays rejected regardless of pairing.
        assert!(!a.admits(&[rec(-1, 0, -1)], &[]));
    }

    #[test]
    fn admits_conjunction() {
        let a = LinkAssumption::all(vec![
            LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(10))),
            LinkAssumption::rtt_bias(Nanos::new(2)),
        ]);
        assert!(a.admits(&[rec(5, 0, 5)], &[rec(6, 10, 16)]));
        assert!(!a.admits(&[rec(5, 0, 5)], &[rec(9, 10, 19)])); // bias violated
        assert!(!a.admits(&[rec(11, 0, 11)], &[rec(10, 10, 20)])); // bound violated
    }

    fn fi(lo: i128, hi: i128) -> (Ext<i128>, Ext<i128>) {
        (Ext::Finite(lo), Ext::Finite(hi))
    }

    #[test]
    fn marzullo_sweep_counts_touching_intervals_as_overlapping() {
        // [0,10] and [10,20] share exactly the point 10; with quorum 2 the
        // consistent region is {10} ∪ [15,20], whose hull is [10,20].
        let fused = marzullo_fuse(&[fi(0, 10), fi(10, 20), fi(15, 30)], 2).unwrap();
        assert_eq!(fused, fi(10, 20));
    }

    #[test]
    fn marzullo_sweep_all_disjoint_has_no_quorum() {
        assert_eq!(marzullo_fuse(&[fi(0, 1), fi(10, 11), fi(20, 21)], 2), None);
        // Quorum 1 is just the hull of the union.
        assert_eq!(marzullo_fuse(&[fi(0, 1), fi(10, 11)], 1), Some(fi(0, 11)));
    }

    #[test]
    fn marzullo_sweep_handles_infinite_edges() {
        // Two lowers-only intervals keep the count up forever.
        let fused = marzullo_fuse(
            &[
                (Ext::Finite(0), Ext::PosInf),
                (Ext::Finite(5), Ext::PosInf),
                fi(10, 20),
            ],
            2,
        )
        .unwrap();
        assert_eq!(fused, (Ext::Finite(5), Ext::PosInf));
        // Two uppers-only intervals are active before any start event.
        let fused = marzullo_fuse(
            &[
                (Ext::NegInf, Ext::Finite(5)),
                (Ext::NegInf, Ext::Finite(3)),
                fi(0, 10),
            ],
            2,
        )
        .unwrap();
        assert_eq!(fused, (Ext::NegInf, Ext::Finite(5)));
    }

    #[test]
    #[should_panic(expected = "quorum must be positive")]
    fn marzullo_zero_quorum_panics() {
        let _ = marzullo_fuse(&[fi(0, 1)], 0);
    }

    #[test]
    fn marzullo_with_zero_faults_degenerates_to_bounds() {
        // On jointly-consistent evidence the f = 0 fusion is the
        // intersection of all sample intervals, which is exactly the
        // Lemma 6.2 closed form in both orientations.
        let range = DelayRange::new(Nanos::new(2), Nanos::new(10));
        let bounds = LinkAssumption::symmetric_bounds(range);
        let fused = LinkAssumption::marzullo_quorum(range, range, 0);
        let fwd = far_samples(&[6, 9, 8]);
        let bwd = far_samples(&[4, 7, 5]);
        let ev = LinkEvidence::from_samples(&fwd, &bwd);
        assert_eq!(fused.estimated_mls(&ev), bounds.estimated_mls(&ev));
        assert_eq!(fused.estimated_mls(&ev), fin(3));
        assert_eq!(
            fused.reversed().estimated_mls(&ev.reversed()),
            bounds.reversed().estimated_mls(&ev.reversed())
        );
        assert_eq!(fused.reversed().estimated_mls(&ev.reversed()), fin(1));
    }

    #[test]
    fn marzullo_outvotes_a_faulty_sample() {
        // Symmetric bounds [0,10]; honest samples estimate the offset in
        // [−5,5], one wild forward sample (est 1000) claims [990,1000].
        let range = DelayRange::new(Nanos::ZERO, Nanos::new(10));
        let fused = LinkAssumption::marzullo_quorum(range, range, 1);
        let strict = LinkAssumption::symmetric_bounds(range);
        let fwd = far_samples(&[5, 1000]);
        let bwd = far_samples(&[5]);
        let ev = LinkEvidence::from_samples(&fwd, &bwd);
        // Reversed orientation: the wild sample drives the strict Bounds
        // estimate to 10 − 1000 = −990, while the quorum fusion discards
        // it and keeps the honest −(−5) = 5.
        assert_eq!(strict.reversed().estimated_mls(&ev.reversed()), fin(-990));
        assert_eq!(fused.reversed().estimated_mls(&ev.reversed()), fin(5));
        assert_eq!(fused.estimated_mls(&ev), fin(5));

        let stats = fused.fusion_stats(&ev).unwrap();
        assert_eq!(stats.sources, 3);
        assert_eq!(stats.quorum, 2);
        assert!(stats.quorum_reached);
        assert_eq!(stats.discarded, 1);
        assert_eq!(stats.fused_lo, Ext::Finite(-5));
        assert_eq!(stats.fused_hi, Ext::Finite(5));
        // Conjunctions surface the stats of their Marzullo part.
        let both = LinkAssumption::all(vec![strict.clone(), fused.clone()]);
        assert_eq!(both.fusion_stats(&ev), Some(stats));
        assert_eq!(strict.fusion_stats(&ev), None);
    }

    #[test]
    fn marzullo_contradictory_evidence_is_unconstrained_not_an_error() {
        // Three mutually disjoint claims with quorum 2: no offset is
        // consistent with any two sources, so the estimator reports +∞
        // (where strict Bounds would later surface a negative cycle).
        let range = DelayRange::new(Nanos::ZERO, Nanos::new(1));
        let fused = LinkAssumption::marzullo_quorum(range, range, 1);
        let fwd = far_samples(&[0, 100, 200]);
        let ev = LinkEvidence::from_samples(&fwd, &[]);
        assert_eq!(fused.estimated_mls(&ev), Ext::PosInf);
        let stats = fused.fusion_stats(&ev).unwrap();
        assert!(!stats.quorum_reached);
        assert_eq!(stats.discarded, 0);
        assert_eq!((stats.fused_lo, stats.fused_hi), (Ext::NegInf, Ext::PosInf));
    }

    #[test]
    fn marzullo_with_too_few_samples_is_unconstrained() {
        let range = DelayRange::new(Nanos::ZERO, Nanos::new(10));
        let fused = LinkAssumption::marzullo_quorum(range, range, 2);
        let empty = LinkEvidence::from_samples(&[], &[]);
        assert_eq!(fused.estimated_mls(&empty), Ext::PosInf);
        // Two samples, two tolerated faults: still no quorum possible.
        let fwd = far_samples(&[5, 6]);
        let ev = LinkEvidence::from_samples(&fwd, &[]);
        assert_eq!(fused.estimated_mls(&ev), Ext::PosInf);
    }

    #[test]
    fn marzullo_extrema_only_is_false_and_reversal_roundtrips() {
        let a = LinkAssumption::marzullo_quorum(
            DelayRange::new(Nanos::new(1), Nanos::new(5)),
            DelayRange::at_least(Nanos::new(2)),
            1,
        );
        assert!(!a.extrema_only());
        assert!(!LinkAssumption::all(vec![LinkAssumption::no_bounds(), a.clone()]).extrema_only());
        assert_eq!(a.reversed().reversed(), a);
    }

    #[test]
    fn admits_marzullo_tolerates_up_to_f_violations() {
        let a = LinkAssumption::marzullo_quorum(
            DelayRange::new(Nanos::ZERO, Nanos::new(10)),
            DelayRange::new(Nanos::ZERO, Nanos::new(10)),
            1,
        );
        assert!(a.admits(&[rec(5, 0, 5)], &[rec(6, 10, 16)]));
        // One out-of-range message in either direction is tolerated…
        assert!(a.admits(&[rec(50, 0, 50)], &[rec(6, 10, 16)]));
        assert!(a.admits(&[rec(5, 0, 5)], &[rec(60, 10, 70)]));
        // …two are not.
        assert!(!a.admits(&[rec(50, 0, 50)], &[rec(60, 10, 70)]));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nonpositive_bias_panics() {
        let _ = LinkAssumption::rtt_bias(Nanos::ZERO);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn nonpositive_window_panics() {
        let _ = LinkAssumption::paired_rtt_bias(Nanos::new(1), Nanos::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero assumptions")]
    fn empty_conjunction_panics() {
        let _ = LinkAssumption::all(vec![]);
    }
}
