//! The end-to-end synchronizer: views in, optimal corrections out.
//!
//! The [`SyncOutcome`] keeps the closure `m̃s` as the route of `route.rs`
//! computed it — on the integer route, the gauged half-nanosecond counts
//! the closure kernel or the online cache built — and decodes an entry
//! when an accessor reads it. Building an outcome converts nothing to
//! rationals; [`SyncOutcome::global_shift_estimates`] is the one call that
//! decodes the whole matrix.

use std::sync::Arc;

use clocksync_graph::{LinkWeights, ScaledMatrix, SquareMatrix};
use clocksync_model::{ProcessorId, ViewSet};
use clocksync_time::{ClockTime, Ext, ExtRatio, Ratio};
use serde::{Deserialize, Serialize};

use clocksync_obs::{FieldValue, Recorder};

use crate::analysis::{rho_bar_by, worst_bound};
use crate::degradation::{classify_degradations, LinkDegradation};
use crate::route::{close, RoutedClosure};
use crate::shifts::{shifts_warm, ShiftsResult};
use crate::{estimated_local_shifts, Network, SyncError};

/// The optimal clock synchronization algorithm of the paper, specialized
/// to a [`Network`] of delay assumptions.
///
/// `synchronize` composes the paper's pipeline: §6 local estimators →
/// GLOBAL ESTIMATES (§5.3) → SHIFTS (§4.4). By Theorems 4.4/4.6 the result
/// is optimal *per instance*: no correction function computed from the same
/// views can guarantee a smaller worst-case discrepancy over the executions
/// indistinguishable from the observed one.
///
/// # Examples
///
/// ```
/// use clocksync::{Network, LinkAssumption, DelayRange, Synchronizer};
/// use clocksync_model::{ExecutionBuilder, ProcessorId};
/// use clocksync_time::{Nanos, RealTime};
///
/// let p = ProcessorId(0);
/// let q = ProcessorId(1);
/// let net = Network::builder(2)
///     .link(p, q, LinkAssumption::symmetric_bounds(
///         DelayRange::new(Nanos::new(0), Nanos::new(100))))
///     .build();
/// // q actually started 30ns after p; one message each way, delay 40ns.
/// let exec = ExecutionBuilder::new(2)
///     .start(q, RealTime::from_nanos(30))
///     .message(p, q, RealTime::from_nanos(1_000), Nanos::new(40))
///     .message(q, p, RealTime::from_nanos(2_000), Nanos::new(40))
///     .build()?;
/// let outcome = Synchronizer::new(net).synchronize(exec.views())?;
/// // The corrected clocks agree to within the guaranteed precision.
/// let err = exec.discrepancy(outcome.corrections());
/// assert!(clocksync_time::Ext::Finite(err) <= outcome.precision());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Synchronizer {
    network: Network,
    recorder: Recorder,
}

impl Synchronizer {
    /// Creates a synchronizer for the given network specification.
    pub fn new(network: Network) -> Synchronizer {
        Synchronizer {
            network,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches an observability recorder; each [`synchronize`] call then
    /// emits per-stage spans (`sync.local_estimates`,
    /// `sync.global_estimates` with the closure-kernel choice,
    /// `sync.shifts`, `sync.degradations` — taxonomy in DESIGN.md §6),
    /// a `sync.marzullo_fusion` event per interval-fusing link recording
    /// the quorum size and how many sources the fusion discarded, and a
    /// `sync.local_skew` event per declared edge with the edge's local
    /// skew bound, and a `sync.corrections_fallback` event per component
    /// whose corrections pass fell back to the Bellman–Ford.
    /// Recording never changes the result: the outcome is a pure function
    /// of the views, bit-for-bit (see `tests/observability.rs`).
    ///
    /// [`synchronize`]: Synchronizer::synchronize
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Synchronizer {
        self.recorder = recorder;
        self
    }

    /// The network specification.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Computes optimal corrections for the given views.
    ///
    /// When some pair of processors has no two-sided bound at all (e.g. a
    /// one-directional or silent unbounded link), the instance's optimal
    /// precision is `+∞`; the outcome then reports `precision() == +∞`
    /// but still carries per-[component](SyncOutcome::components)
    /// corrections that are optimal *within* each synchronizable component
    /// — a strictly stronger answer than the paper requires (with
    /// `A_max = ∞` every vector is vacuously optimal).
    ///
    /// # Errors
    ///
    /// * [`SyncError::WrongProcessorCount`] if `views` does not match the
    ///   network size;
    /// * [`SyncError::InconsistentObservations`] if the observed delays
    ///   contradict the declared assumptions.
    pub fn synchronize(&self, views: &ViewSet) -> Result<SyncOutcome, SyncError> {
        if views.len() != self.network.n() {
            return Err(SyncError::WrongProcessorCount {
                expected: self.network.n(),
                actual: views.len(),
            });
        }
        let (observations, local) = {
            let mut span = self.recorder.span("sync.local_estimates");
            span.field("n", views.len());
            let observations = self.network.link_observations(views);
            let local = estimated_local_shifts(&self.network, &observations);
            self.record_fusions(&observations);
            (observations, local)
        };
        let closure = close(&local, &self.recorder)?;
        let mut outcome = {
            let mut span = self.recorder.span("sync.shifts");
            span.field("n", views.len());
            let outcome = SyncOutcome::from_closure(closure, &self.recorder);
            span.field("components", outcome.components().len());
            outcome
        };
        {
            let mut span = self.recorder.span("sync.degradations");
            outcome.set_degradations(classify_degradations(&self.network, &observations, &local));
            span.field("degraded_links", outcome.degradations().len());
        }
        outcome.share_edges(self.network.edges());
        self.record_local_skews(&outcome);
        Ok(outcome)
    }

    /// Emits one `sync.marzullo_fusion` event per link whose assumption
    /// fuses per-source intervals, recording the quorum arithmetic (how
    /// many sources voted, how many the quorum required, whether it was
    /// reached) and how many sources the fused interval discarded as
    /// outliers — the operator-visible trace of fault masking.
    /// Emits one `sync.local_skew` event per declared edge with the
    /// edge's local skew (the gradient-style per-neighbor guarantee;
    /// see [`SyncOutcome::local_skew`]): fields `p`, `q`, `finite`, and
    /// `skew_ns` (omitted for unbounded edges).
    fn record_local_skews(&self, outcome: &SyncOutcome) {
        if !self.recorder.is_enabled() {
            return;
        }
        for skew in outcome.local_skews() {
            let mut fields = vec![
                ("p", FieldValue::from(skew.a.index())),
                ("q", FieldValue::from(skew.b.index())),
                ("finite", FieldValue::from(skew.skew.is_finite())),
            ];
            if let Ext::Finite(v) = skew.skew {
                fields.push(("skew_ns", FieldValue::from(v.to_f64())));
            }
            self.recorder.event("sync.local_skew", fields);
        }
    }

    fn record_fusions(&self, observations: &clocksync_model::LinkObservations) {
        if !self.recorder.is_enabled() {
            return;
        }
        for (p, q, assumption, s) in self.network.slotted_links() {
            let evidence = observations.evidence(s, self.network.link_table().reverse(s));
            if let Some(stats) = assumption.fusion_stats(&evidence) {
                self.recorder.event(
                    "sync.marzullo_fusion",
                    [
                        ("p", FieldValue::from(p.index())),
                        ("q", FieldValue::from(q.index())),
                        ("sources", FieldValue::from(stats.sources)),
                        ("quorum", FieldValue::from(stats.quorum)),
                        ("quorum_reached", FieldValue::from(stats.quorum_reached)),
                        ("discarded", FieldValue::from(stats.discarded)),
                    ],
                );
            }
        }
    }
}

/// Everything known about one synchronizable component.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentReport {
    /// Members in ascending order.
    pub members: Vec<ProcessorId>,
    /// The component's optimal precision (its `A_max`).
    pub precision: Ratio,
    /// A cyclic processor sequence whose average maximal shift *forces*
    /// `precision` — the bottleneck certified by the lower bound
    /// (Theorem 4.4).
    pub critical_cycle: Vec<ProcessorId>,
}

/// One declared edge's local skew: the tight worst-case corrected-clock
/// difference between its two (adjacent) endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalSkew {
    /// Lower endpoint.
    pub a: ProcessorId,
    /// Higher endpoint.
    pub b: ProcessorId,
    /// The edge's skew bound ([`SyncOutcome::local_skew`]).
    pub skew: ExtRatio,
}

/// The result of a synchronization: corrections, guaranteed precision, and
/// the analysis data needed to audit optimality.
///
/// The outcome keeps the closure `m̃s` as its route computed it — gauged
/// half-nanosecond counts on the integer route — and decodes an entry
/// when an accessor reads it, so building an outcome converts nothing.
/// Two outcomes are equal when they hold the same values, whatever the
/// gauge or route behind them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncOutcome {
    corrections: Vec<Ratio>,
    closure: RoutedClosure,
    components: Vec<ComponentReport>,
    degradations: Vec<LinkDegradation>,
    edges: Arc<[(ProcessorId, ProcessorId)]>,
}

impl SyncOutcome {
    /// Builds an outcome directly from a closure of estimated maximal
    /// global shifts (as produced by [`crate::global_estimates`]). This is
    /// the entry point for callers that obtained the estimates by some
    /// other route than complete views — e.g. the distributed protocol's
    /// leader, which receives per-link estimates in messages. The closure
    /// is held as gauged half-nanosecond counts once, here
    /// ([`clocksync_graph::Closure::from_closed`]), and the outcome keeps
    /// those counts; a closure no gauge holds takes the residual route.
    pub fn from_global_estimates(closure: SquareMatrix<ExtRatio>) -> SyncOutcome {
        SyncOutcome::from_closure(RoutedClosure::from_closed(closure), &Recorder::disabled())
    }

    /// Builds an outcome from per-link estimated maximal *local* shifts
    /// `m̃ls` — such as the reports a distributed leader receives in
    /// messages, `+∞` on a link whose report never came. It closes them on
    /// their route, as [`crate::global_estimates`] does, and keeps the
    /// closure as that route computed it: on the integer route, the
    /// kernel's gauged counts, with no `n × n` decode and re-encode on the
    /// way.
    ///
    /// # Errors
    ///
    /// [`SyncError::InconsistentObservations`] when `local` has a negative
    /// cycle.
    pub fn from_local_estimates(local: &LinkWeights<ExtRatio>) -> Result<SyncOutcome, SyncError> {
        let recorder = Recorder::disabled();
        close(local, &recorder).map(|closure| SyncOutcome::from_closure(closure, &recorder))
    }

    /// The cold component loop: SHIFTS from scratch on every component.
    /// A component whose corrections took the Bellman–Ford — Howard
    /// stopped at its cap, so there was no bias to key the Dijkstra pass —
    /// records a `sync.corrections_fallback` event with its size `n`.
    pub(crate) fn from_closure(closure: RoutedClosure, recorder: &Recorder) -> SyncOutcome {
        SyncOutcome::from_components_with(closure, |members, m| {
            let (result, state) = shifts_warm(m, 0, None);
            if state.bias.is_none() {
                recorder.event(
                    "sync.corrections_fallback",
                    [("n", FieldValue::from(members.len()))],
                );
            }
            result
        })
    }

    /// The component loop shared by the cold batch paths and the online
    /// synchronizer's incremental one, over the synchronizable components
    /// of `closure`, which the outcome then keeps. On the integer route
    /// `run_shifts` is called once per component (in order, with its
    /// ascending members and its counts,
    /// [`clocksync_graph::Closure::component`]) so the caller can
    /// substitute a warm-started SHIFTS; on the residual route every
    /// component takes exact Karp instead.
    pub(crate) fn from_components_with(
        closure: RoutedClosure,
        mut run_shifts: impl FnMut(&[ProcessorId], ScaledMatrix<'_>) -> ShiftsResult,
    ) -> SyncOutcome {
        let n = closure.n();
        let components = closure.components();
        let mut corrections = vec![Ratio::ZERO; n];
        let mut reports = Vec::with_capacity(components.len());
        for members in components {
            let result = closure.shifts(&members, |m| run_shifts(&members, m));
            for (local_idx, p) in members.iter().enumerate() {
                corrections[p.index()] = result.corrections[local_idx];
            }
            reports.push(ComponentReport {
                critical_cycle: result
                    .critical_cycle
                    .iter()
                    .map(|&local| members[local])
                    .collect(),
                members,
                precision: result.precision,
            });
        }
        SyncOutcome {
            corrections,
            closure,
            components: reports,
            degradations: Vec::new(),
            edges: Arc::default(),
        }
    }

    /// Attaches the structured degradation report (see
    /// [`crate::classify_degradations`]). Callers that assemble outcomes
    /// from partial data — e.g. a distributed leader whose report deadline
    /// fired — use this to record *why* entries of the closure are `+∞`.
    pub fn set_degradations(&mut self, degradations: Vec<LinkDegradation>) {
        self.degradations = degradations;
    }

    /// Every declared link whose evidence fell short of its assumption,
    /// with the reason. Empty for a fully healthy run; also empty (not
    /// *diagnosed*) when the outcome was built via
    /// [`SyncOutcome::from_global_estimates`] and no caller attached a
    /// report. The exact guarantee held in each degraded state is spelled
    /// out in `DESIGN.md` §5.
    pub fn degradations(&self) -> &[LinkDegradation] {
        &self.degradations
    }

    /// `true` when every pair of processors has a finite mutual bound —
    /// i.e. a single synchronizable component and a finite
    /// [`precision`](SyncOutcome::precision).
    pub fn is_fully_synchronized(&self) -> bool {
        self.components.len() <= 1
    }

    /// The index into [`components`](SyncOutcome::components) of the
    /// component containing `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn component_of(&self, p: ProcessorId) -> usize {
        assert!(p.index() < self.corrections.len(), "{p} out of range");
        self.components
            .iter()
            .position(|c| c.members.contains(&p))
            .expect("every processor belongs to exactly one component")
    }

    /// The optimal correction `offset_p` for each processor. Adding
    /// `offset_p` to `p`'s clock yields the synchronized logical clock.
    pub fn corrections(&self) -> &[Ratio] {
        &self.corrections
    }

    /// The correction of one processor.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn correction(&self, p: ProcessorId) -> Ratio {
        self.corrections[p.index()]
    }

    /// The synchronized logical clock value corresponding to a raw clock
    /// `reading` at processor `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn corrected_clock(&self, p: ProcessorId, reading: ClockTime) -> Ratio {
        Ratio::from(reading.offset()) + self.correction(p)
    }

    /// Corrections re-based so that processor `anchor`'s correction equals
    /// `anchor_offset` — e.g. when `anchor` has access to a perfect real
    /// time source, pass its known offset from real time and every logical
    /// clock tracks real time within the same (still optimal) precision.
    /// Corrections are translation-invariant, so this changes no guarantee
    /// (the paper's §1 remark that synchronization *to real time* follows
    /// immediately when one perfect clock is available).
    ///
    /// # Panics
    ///
    /// Panics if `anchor` is out of range.
    pub fn anchored_corrections(&self, anchor: ProcessorId, anchor_offset: Ratio) -> Vec<Ratio> {
        let delta = anchor_offset - self.correction(anchor);
        self.corrections.iter().map(|&x| x + delta).collect()
    }

    /// The guaranteed (and optimal) precision `ε(α)`: for *every* admissible
    /// execution indistinguishable from the observed one, all pairs of
    /// corrected clocks agree to within this bound. `+∞` when some pair
    /// has no two-sided bound.
    pub fn precision(&self) -> ExtRatio {
        if self.components.len() > 1 {
            return Ext::PosInf;
        }
        match self.components.first() {
            Some(c) => Ext::Finite(c.precision),
            None => Ext::Finite(Ratio::ZERO),
        }
    }

    /// Per-component reports (one component = maximal set of processors
    /// with pairwise two-sided bounds).
    pub fn components(&self) -> &[ComponentReport] {
        &self.components
    }

    /// The matrix of estimated maximal global shifts `m̃s(p,q)` the outcome
    /// was computed from, decoded whole: `n²` rationals, built on each
    /// call. With the `m̃ls` matrix it closes, it is all
    /// [`crate::shortest_path_successors`] needs to name the chain of
    /// links behind each pair bound. Point reads take
    /// [`SyncOutcome::global_shift_estimate`], which decodes one entry.
    pub fn global_shift_estimates(&self) -> SquareMatrix<ExtRatio> {
        self.closure.ratio_dist()
    }

    /// One estimated maximal global shift `m̃s(p, q)`: how far `q` can lag
    /// `p`, `global_shift_estimates()[(p, q)]` without the whole matrix.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `q` is out of range.
    pub fn global_shift_estimate(&self, p: ProcessorId, q: ProcessorId) -> ExtRatio {
        self.closure.at(p.index(), q.index())
    }

    /// The tight worst-case bound on the corrected clock difference of the
    /// specific ordered pair `(p, q)`:
    /// `sup (S'_p − x_p) − (S'_q − x_q) = m̃s(p,q) − x_p + x_q` over
    /// indistinguishable admissible executions.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `q` is out of range.
    pub fn pair_bound(&self, p: ProcessorId, q: ProcessorId) -> ExtRatio {
        let one = self.global_shift_estimate(p, q)
            + Ext::Finite(self.corrections[q.index()] - self.corrections[p.index()]);
        let other = self.global_shift_estimate(q, p)
            + Ext::Finite(self.corrections[p.index()] - self.corrections[q.index()]);
        one.max(other)
    }

    /// Attaches the declared network edges so per-edge local skews can
    /// be reported ([`SyncOutcome::local_skews`]). Attached by
    /// [`Synchronizer::synchronize`] and the online synchronizer's
    /// outcome; callers assembling outcomes from bare closures (e.g. the
    /// distributed leader) may attach their own edge list.
    pub fn set_edges(&mut self, edges: Vec<(ProcessorId, ProcessorId)>) {
        self.edges = edges.into();
    }

    /// [`SyncOutcome::set_edges`] with a shared list: the network's own
    /// ([`Network::edges`]), which every outcome of it holds without a
    /// copy.
    pub(crate) fn share_edges(&mut self, edges: &Arc<[(ProcessorId, ProcessorId)]>) {
        self.edges = Arc::clone(edges);
    }

    /// The declared network edges attached to this outcome (empty when
    /// no caller attached them — *unreported*, not edgeless).
    pub fn edges(&self) -> &[(ProcessorId, ProcessorId)] {
        &self.edges
    }

    /// The **local skew** of the pair `(p, q)`: the tight worst-case
    /// corrected-clock difference between the two processors, in either
    /// order — the quantity gradient clock synchronization bounds per
    /// *edge* rather than globally (Kuhn–Lenzen–Locher–Oshman; Lenzen's
    /// practically-constant local skew). Numerically identical to
    /// [`SyncOutcome::pair_bound`]; reported per declared edge by
    /// [`SyncOutcome::local_skews`] next to the global
    /// [`precision`](SyncOutcome::precision), because a sparse network
    /// routinely guarantees neighbors far tighter agreement than the
    /// global bound.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `q` is out of range.
    pub fn local_skew(&self, p: ProcessorId, q: ProcessorId) -> ExtRatio {
        self.pair_bound(p, q)
    }

    /// Per-declared-edge local skews, in edge order (empty when no edge
    /// list was [attached](SyncOutcome::set_edges)).
    pub fn local_skews(&self) -> Vec<LocalSkew> {
        self.edges
            .iter()
            .map(|&(a, b)| LocalSkew {
                a,
                b,
                skew: self.local_skew(a, b),
            })
            .collect()
    }

    /// The declared edge with the largest local skew — the worst
    /// neighbor-to-neighbor guarantee, the summary number gradient-style
    /// monitoring alarms on. `None` when no edge list was attached.
    pub fn worst_edge(&self) -> Option<LocalSkew> {
        self.local_skews().into_iter().max_by(|x, y| {
            x.skew
                .partial_cmp(&y.skew)
                .expect("ExtRatio is totally ordered")
        })
    }

    /// Evaluates `ρ̄(x̄)` — the worst discrepancy over indistinguishable
    /// admissible executions — for an *arbitrary* correction vector. By
    /// optimality, `rho_bar(x̄) ≥ precision()` for every `x̄`, with
    /// equality for [`SyncOutcome::corrections`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the processor count.
    pub fn rho_bar(&self, x: &[Ratio]) -> ExtRatio {
        assert_eq!(
            x.len(),
            self.corrections.len(),
            "correction vector has wrong length"
        );
        rho_bar_by(|p, q| self.closure.at(p, q), x)
    }

    /// The ordered pair whose bound is tightest against the precision
    /// under our corrections (the synchronization bottleneck), or `None`
    /// for single-processor systems.
    pub fn bottleneck_pair(&self) -> Option<(ProcessorId, ProcessorId)> {
        worst_bound(|p, q| self.closure.at(p, q), &self.corrections).map(|(_, pair)| pair)
    }
}

impl std::fmt::Display for SyncOutcome {
    /// A one-paragraph human summary: precision, corrections, components.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "precision {} | corrections [", self.precision())?;
        for (i, x) in self.corrections.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "p{i}: {x}")?;
        }
        write!(f, "]")?;
        if self.components.len() > 1 {
            write!(f, " | {} components", self.components.len())?;
        }
        if !self.degradations.is_empty() {
            write!(f, " | {} degraded links", self.degradations.len())?;
        }
        if let Some(worst) = self.worst_edge() {
            write!(f, " | worst edge {}-{}: {}", worst.a, worst.b, worst.skew)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayRange, LinkAssumption};
    use clocksync_model::ExecutionBuilder;
    use clocksync_time::{Nanos, RealTime};

    const P: ProcessorId = ProcessorId(0);
    const Q: ProcessorId = ProcessorId(1);
    const R: ProcessorId = ProcessorId(2);

    fn fin(x: i128) -> ExtRatio {
        Ext::Finite(Ratio::from_int(x))
    }

    /// The classic two-processor instance: bounds [0, U], one message each
    /// way with equal true delay d, true offset σ.
    fn two_node_outcome(u: i64, d: i64, sigma: i64) -> (SyncOutcome, clocksync_model::Execution) {
        let net = Network::builder(2)
            .link(
                P,
                Q,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(u))),
            )
            .build();
        let exec = ExecutionBuilder::new(2)
            .start(Q, RealTime::from_nanos(sigma))
            .message(
                P,
                Q,
                RealTime::from_nanos(1_000 + sigma.abs()),
                Nanos::new(d),
            )
            .message(
                Q,
                P,
                RealTime::from_nanos(2_000 + sigma.abs()),
                Nanos::new(d),
            )
            .build()
            .unwrap();
        let outcome = Synchronizer::new(net).synchronize(exec.views()).unwrap();
        (outcome, exec)
    }

    #[test]
    fn two_node_bounds_model_matches_hand_computation() {
        // U = 100, d = 40 both ways, σ = 30.
        // d̃(P→Q) = 40 − 30 = 10; d̃(Q→P) = 40 + 30 = 70.
        // m̃ls(P,Q) = min(100 − 70, 10 − 0) = 10.
        // m̃ls(Q,P) = min(100 − 10, 70 − 0) = 70.
        // A_max = (10 + 70)/2 = 40.
        let (outcome, exec) = two_node_outcome(100, 40, 30);
        assert_eq!(outcome.precision(), fin(40));
        // Achieved true discrepancy is within the guarantee.
        let achieved = exec.discrepancy(outcome.corrections());
        assert!(Ext::Finite(achieved) <= outcome.precision());
        // ρ̄ of our corrections equals the precision (tightness).
        assert_eq!(outcome.rho_bar(outcome.corrections()), fin(40));
    }

    #[test]
    fn tighter_bounds_give_better_precision() {
        let (loose, _) = two_node_outcome(1_000, 400, 0);
        let (tight, _) = two_node_outcome(500, 400, 0);
        assert!(tight.precision() < loose.precision());
    }

    #[test]
    fn alternative_corrections_never_beat_ours() {
        let (outcome, _) = two_node_outcome(100, 40, 30);
        let ours = outcome.rho_bar(outcome.corrections());
        for delta in [-50i128, -10, -1, 1, 10, 50] {
            let alt = vec![Ratio::ZERO, outcome.correction(Q) + Ratio::from_int(delta)];
            assert!(outcome.rho_bar(&alt) >= ours, "beaten by delta={delta}");
        }
    }

    #[test]
    fn unlinked_processor_makes_precision_infinite_but_components_fine() {
        let net = Network::builder(3)
            .link(
                P,
                Q,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(10))),
            )
            .build();
        let exec = ExecutionBuilder::new(3)
            .message(P, Q, RealTime::from_nanos(100), Nanos::new(5))
            .message(Q, P, RealTime::from_nanos(200), Nanos::new(5))
            .build()
            .unwrap();
        let outcome = Synchronizer::new(net).synchronize(exec.views()).unwrap();
        assert_eq!(outcome.precision(), Ext::PosInf);
        assert_eq!(outcome.components().len(), 2);
        let comp = &outcome.components()[0];
        assert_eq!(comp.members, vec![P, Q]);
        assert_eq!(comp.precision, Ratio::from_int(5));
        // R alone is a perfect singleton component.
        assert_eq!(outcome.components()[1].precision, Ratio::ZERO);
    }

    #[test]
    fn silent_link_shows_up_in_degradations_and_components() {
        use crate::DegradationReason;
        // P–Q healthy, Q–R declared but never carried a message.
        let net = Network::builder(3)
            .link(
                P,
                Q,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(10))),
            )
            .link(
                Q,
                R,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(10))),
            )
            .build();
        let exec = ExecutionBuilder::new(3)
            .message(P, Q, RealTime::from_nanos(100), Nanos::new(5))
            .message(Q, P, RealTime::from_nanos(200), Nanos::new(5))
            .build()
            .unwrap();
        let outcome = Synchronizer::new(net).synchronize(exec.views()).unwrap();
        assert!(!outcome.is_fully_synchronized());
        assert_eq!(
            outcome.degradations(),
            &[crate::LinkDegradation {
                a: Q,
                b: R,
                reason: DegradationReason::Silent,
            }]
        );
        assert_eq!(outcome.component_of(P), outcome.component_of(Q));
        assert_ne!(outcome.component_of(P), outcome.component_of(R));
        assert!(outcome.to_string().contains("1 degraded links"));
    }

    #[test]
    fn wrong_view_count_is_rejected() {
        let net = Network::builder(3).build();
        let exec = ExecutionBuilder::new(2).build().unwrap();
        let err = Synchronizer::new(net)
            .synchronize(exec.views())
            .unwrap_err();
        assert!(matches!(err, SyncError::WrongProcessorCount { .. }));
    }

    #[test]
    fn corrected_clock_applies_offset() {
        let (outcome, _) = two_node_outcome(100, 40, 30);
        let base = outcome.corrected_clock(P, ClockTime::from_nanos(1_000));
        assert_eq!(base, Ratio::from_int(1_000) + outcome.correction(P));
    }

    #[test]
    fn pair_bound_is_symmetric_and_ge_precision_for_bottleneck() {
        let net = Network::builder(3)
            .link(
                P,
                Q,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(10))),
            )
            .link(
                Q,
                R,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(50))),
            )
            .build();
        let exec = ExecutionBuilder::new(3)
            .round_trips(
                P,
                Q,
                1,
                RealTime::from_nanos(0),
                Nanos::ZERO,
                Nanos::new(5),
                Nanos::new(5),
            )
            .round_trips(
                Q,
                R,
                1,
                RealTime::from_nanos(1_000),
                Nanos::ZERO,
                Nanos::new(25),
                Nanos::new(25),
            )
            .build()
            .unwrap();
        let outcome = Synchronizer::new(net).synchronize(exec.views()).unwrap();
        assert_eq!(outcome.pair_bound(P, Q), outcome.pair_bound(Q, P));
        // The nearby pair is better synchronized than the far pair.
        assert!(outcome.pair_bound(P, Q) < outcome.pair_bound(Q, R));
        let (bp, bq) = outcome.bottleneck_pair().unwrap();
        assert!(outcome.pair_bound(bp, bq) >= outcome.pair_bound(P, Q));
    }

    #[test]
    fn local_skews_report_every_declared_edge_and_the_worst_one() {
        // Path P—Q—R with a tight and a loose link: the per-edge skews
        // differ, the worst edge is the loose one, and non-adjacent
        // pairs are not reported (though local_skew still answers).
        let net = Network::builder(3)
            .link(
                P,
                Q,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(10))),
            )
            .link(
                Q,
                R,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(50))),
            )
            .build();
        let exec = ExecutionBuilder::new(3)
            .round_trips(
                P,
                Q,
                1,
                RealTime::from_nanos(0),
                Nanos::ZERO,
                Nanos::new(5),
                Nanos::new(5),
            )
            .round_trips(
                Q,
                R,
                1,
                RealTime::from_nanos(1_000),
                Nanos::ZERO,
                Nanos::new(25),
                Nanos::new(25),
            )
            .build()
            .unwrap();
        let outcome = Synchronizer::new(net).synchronize(exec.views()).unwrap();
        assert_eq!(outcome.edges(), &[(P, Q), (Q, R)]);
        let skews = outcome.local_skews();
        assert_eq!(skews.len(), 2);
        assert_eq!(skews[0].skew, outcome.pair_bound(P, Q));
        assert_eq!(skews[1].skew, outcome.pair_bound(Q, R));
        assert!(skews[0].skew < skews[1].skew);
        let worst = outcome.worst_edge().unwrap();
        assert_eq!((worst.a, worst.b), (Q, R));
        assert_eq!(worst.skew, outcome.pair_bound(Q, R));
        // local_skew is pair_bound under another (gradient) name.
        assert_eq!(outcome.local_skew(P, R), outcome.pair_bound(P, R));
        assert!(outcome.to_string().contains("worst edge"));
    }

    #[test]
    fn every_declared_edge_emits_a_local_skew_event() {
        use clocksync_obs::{FieldValue, Recorder};
        let net = Network::builder(3)
            .link(
                P,
                Q,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(10))),
            )
            .link(
                Q,
                R,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(10))),
            )
            .build();
        // Q–R stays silent: its skew is unbounded, so its event carries
        // `finite: false` and no `skew_ns` field.
        let exec = ExecutionBuilder::new(3)
            .message(P, Q, RealTime::from_nanos(100), Nanos::new(5))
            .message(Q, P, RealTime::from_nanos(200), Nanos::new(5))
            .build()
            .unwrap();
        let recorder = Recorder::enabled();
        Synchronizer::new(net)
            .with_recorder(recorder.clone())
            .synchronize(exec.views())
            .unwrap();
        let trace = recorder.snapshot();
        let events: Vec<_> = trace.events_named("sync.local_skew").collect();
        assert_eq!(events.len(), 2, "one event per declared edge");
        let finite_flags: Vec<bool> = events
            .iter()
            .map(|fields| {
                matches!(
                    fields.iter().find(|(k, _)| k == "finite").unwrap(),
                    (_, FieldValue::Bool(true))
                )
            })
            .collect();
        assert_eq!(finite_flags, vec![true, false]);
        assert!(events[0].iter().any(|(k, _)| k == "skew_ns"));
        assert!(!events[1].iter().any(|(k, _)| k == "skew_ns"));
    }

    #[test]
    fn constraint_chains_explain_pair_bounds() {
        // Path P—Q—R: the P–R bound composes through Q.
        let net = Network::builder(3)
            .link(
                P,
                Q,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(10))),
            )
            .link(
                Q,
                R,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(10))),
            )
            .build();
        let exec = ExecutionBuilder::new(3)
            .round_trips(
                P,
                Q,
                1,
                RealTime::from_nanos(100),
                Nanos::new(10),
                Nanos::new(5),
                Nanos::new(5),
            )
            .round_trips(
                Q,
                R,
                1,
                RealTime::from_nanos(1_000),
                Nanos::new(10),
                Nanos::new(5),
                Nanos::new(5),
            )
            .build()
            .unwrap();
        let local = estimated_local_shifts(&net, &net.link_observations(exec.views()));
        let outcome = Synchronizer::new(net).synchronize(exec.views()).unwrap();
        let closure = outcome.global_shift_estimates();
        let next = crate::shortest_path_successors(&local, &closure);
        let chain = |p: ProcessorId, q: ProcessorId| {
            crate::reconstruct_path(&next, p.index(), q.index())
                .map(|path| path.into_iter().map(ProcessorId).collect::<Vec<_>>())
        };
        assert_eq!(chain(P, R), Some(vec![P, Q, R]));
        assert_eq!(chain(P, Q), Some(vec![P, Q]));
        assert_eq!(chain(P, P), Some(vec![P]));
        // The chain's link weights sum to the closure entry.
        assert_eq!(chain(R, P), Some(vec![R, Q, P]));
        let total = closure[(2, 1)] + closure[(1, 0)];
        assert_eq!(closure[(2, 0)], total);
        assert_eq!(closure[(2, 0)], local.get(2, 1) + local.get(1, 0));
    }

    #[test]
    fn anchoring_preserves_guarantees_and_pins_the_anchor() {
        let (outcome, exec) = two_node_outcome(100, 40, 30);
        let known = Ratio::from_int(12_345);
        let anchored = outcome.anchored_corrections(P, known);
        assert_eq!(anchored[P.index()], known);
        // Translation-invariance: same ρ̄, same true discrepancy.
        assert_eq!(outcome.rho_bar(&anchored), outcome.precision());
        assert_eq!(
            exec.discrepancy(&anchored),
            exec.discrepancy(outcome.corrections())
        );
    }

    #[test]
    fn display_summarizes_the_outcome() {
        let (outcome, _) = two_node_outcome(100, 40, 30);
        let text = outcome.to_string();
        assert!(text.starts_with("precision 40"));
        assert!(text.contains("p0: 0"));
        assert!(!text.contains("components"), "single component omitted");
    }

    #[test]
    fn empty_system_synchronizes_trivially() {
        let net = Network::builder(0).build();
        let views = ViewSet::new(vec![]).unwrap();
        let outcome = Synchronizer::new(net).synchronize(&views).unwrap();
        assert_eq!(outcome.precision(), fin(0));
        assert!(outcome.corrections().is_empty());
    }

    #[test]
    fn marzullo_links_emit_a_fusion_event_with_quorum_arithmetic() {
        use clocksync_obs::{FieldValue, Recorder};
        let range = DelayRange::new(Nanos::ZERO, Nanos::new(100));
        let net = Network::builder(2)
            .link(P, Q, LinkAssumption::marzullo_quorum(range, range, 1))
            .build();
        let exec = ExecutionBuilder::new(2)
            .message(P, Q, RealTime::from_nanos(1_000), Nanos::new(40))
            .message(P, Q, RealTime::from_nanos(2_000), Nanos::new(50))
            .message(Q, P, RealTime::from_nanos(3_000), Nanos::new(40))
            .build()
            .unwrap();
        let recorder = Recorder::enabled();
        Synchronizer::new(net)
            .with_recorder(recorder.clone())
            .synchronize(exec.views())
            .unwrap();
        let trace = recorder.snapshot();
        let events: Vec<_> = trace.events_named("sync.marzullo_fusion").collect();
        assert_eq!(events.len(), 1, "one fusing link, one event");
        let field = |key: &str| {
            events[0]
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert!(matches!(field("sources"), FieldValue::Int(3)));
        assert!(matches!(field("quorum"), FieldValue::Int(2)));
        assert!(matches!(field("quorum_reached"), FieldValue::Bool(true)));
        assert!(matches!(field("discarded"), FieldValue::Int(0)));
    }

    #[test]
    fn non_fusing_links_emit_no_fusion_event() {
        let recorder = clocksync_obs::Recorder::enabled();
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
        Synchronizer::new(net)
            .with_recorder(recorder.clone())
            .synchronize(exec.views())
            .unwrap();
        let trace = recorder.snapshot();
        assert_eq!(trace.events_named("sync.marzullo_fusion").count(), 0);
    }
}
