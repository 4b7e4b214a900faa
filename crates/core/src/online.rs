//! Incremental synchronization from a stream of observations.
//!
//! Practical deployments (the Kopetz–Ochsenreiter style periodic
//! resynchronization the paper cites) do not hand over complete views in
//! one batch: timestamped messages trickle in and the corrections are
//! recomputed on demand. [`OnlineSynchronizer`] maintains the per-link
//! evidence incrementally and keeps the GLOBAL ESTIMATES closure *cached*
//! as a [`clocksync_graph::Closure`]: `i64` counts of half nanoseconds,
//! the grid every estimate lies on, in a gauge that takes the clocks'
//! start-time differences out. Each new observation re-estimates only the
//! link it travelled on and folds the (monotonically tighter) edge into the
//! cache with [`clocksync_graph::Closure::relax_edge`] — `O(n²)` integer
//! operations over the finite entries of one column and one row — so
//! steady-state resynchronization never pays the `O(n³)` full recompute.
//! SHIFTS reads the cache's integers directly, and each
//! [`OnlineSynchronizer::outcome`] hands the outcome a plain copy of the
//! cache (`8n²` bytes, 0.3 MB at `n = 192`): the outcome keeps the counts
//! and decodes an entry when an accessor reads it. Only
//! [`OnlineSynchronizer::global_estimates`] converts the whole cache to
//! [`ExtRatio`], `n²` rationals of 48 bytes each.
//!
//! Because the estimators depend on the views only through per-link
//! evidence (Lemmas 6.2/6.5), feeding observations incrementally is
//! *exactly* as good as batch synchronization over the same messages — a
//! property the test below checks — and each additional observation can
//! only tighten the certificate. That monotonicity is precisely what makes
//! the incremental closure update exact: a tightened link is an edge-weight
//! decrease, the one operation `relax_edge` absorbs without error. An
//! estimate loosens only when [`OnlineSynchronizer::forget_link`] retracts
//! evidence; that drops every cache, and the next outcome rebuilds them.
//! A whole- or half-nanosecond estimate relaxes in place whenever its
//! count in the cache's gauge stays within the bound. One that does not —
//! typically the first estimate of a link between two clocks an epoch
//! apart, whose trees the gauge had not joined — drops the cache, and the
//! next outcome rebuilds it under a fresh gauge. Only a domain that no
//! gauge holds (an entry off the half-ns grid, which no built-in estimator
//! produces, or gauged counts past the bound) keeps no cache; every
//! outcome then runs the residual route of `route.rs` whole.
//!
//! The `A_max` stage is cached the same way: alongside the closure the
//! synchronizer keeps each component's *warm state* — its certified
//! `A_max`, critical cycle and Howard policy. A component without one (the
//! first outcome, or after an eviction) runs integer Howard cold, exactly
//! as batch does, and keeps its converged policy. Because a `relax_edge`
//! tightening only ever *decreases* closure entries, every cycle mean can
//! only drop — so when the cached critical cycle's mean is unchanged it is
//! still the maximum and `A_max` is reused after an `O(n)` revalidation;
//! when it dropped, integer Howard restarts from the cached policy instead
//! of from scratch. Cycle means and the canonical cycle do not depend on
//! the gauge, so the warm states survive a rebuild under a fresh one. A
//! residual domain takes the rational route (exact Karp) and keeps no warm
//! state. Either way the outcome is bit-identical to a cold computation
//! (the equivalence tests and the fuzzer's `warm-equals-cold` oracle
//! compare whole outcomes), only faster.
//!
//! Neither the cache nor an outcome holds the shortest paths themselves.
//! A caller that wants the constraint chain behind a bound derives it from
//! [`OnlineSynchronizer::local_estimates`] and the outcome's closure with
//! [`crate::shortest_path_successors`], whose one rule depends on nothing
//! else, so the chain is the same on every route.
//!
//! Messages enter through one check and one record step.
//! [`OnlineSynchronizer::observe_message`] and
//! [`OnlineSynchronizer::ingest_batch`] check endpoints in range, then a
//! representable delay (the first panics where the second reports), and
//! every entry point keeps only declared links' samples.
//! [`OnlineSynchronizer::ingest_views`] stays a bulk path: a view set
//! touches most links at once, so it re-estimates every link and leaves
//! the closure for the next outcome to rebuild once.

use std::collections::{BTreeSet, HashMap};

use clocksync_graph::{Closure, RelaxOutcome, SquareMatrix};
use clocksync_model::{LinkObservations, ModelError, MsgSample, ProcessorId, ViewSet};
use clocksync_obs::Recorder;
use clocksync_time::{ClockTime, ExtRatio, Nanos};

use crate::degradation::classify_degradations;
use crate::route::{close, RoutedClosure};
use crate::shifts::{shifts_warm, ShiftsState};
use crate::{estimated_local_shifts, Network, SyncError, SyncOutcome};

/// One message observation of an ingestion batch: the two endpoint clock
/// readings of a delivered message, exactly as an untrusted reporter would
/// hand them over. Validated (endpoint range, delay representability) by
/// [`OnlineSynchronizer::ingest_batch`] before anything is recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchObservation {
    /// The sender.
    pub src: ProcessorId,
    /// The receiver.
    pub dst: ProcessorId,
    /// The sender's clock reading at the send step.
    pub send_clock: ClockTime,
    /// The receiver's clock reading at the receive step.
    pub recv_clock: ClockTime,
}

/// An incrementally-fed synchronizer with a cached closure.
///
/// # Examples
///
/// ```
/// use clocksync::{Network, LinkAssumption, DelayRange, OnlineSynchronizer};
/// use clocksync_model::ProcessorId;
/// use clocksync_time::{ClockTime, Nanos};
///
/// let p = ProcessorId(0);
/// let q = ProcessorId(1);
/// let net = Network::builder(2)
///     .link(p, q, LinkAssumption::symmetric_bounds(
///         DelayRange::new(Nanos::new(0), Nanos::new(100))))
///     .build();
/// let mut online = OnlineSynchronizer::new(net);
///
/// // A probe and its echo, reported as (sender clock, receiver clock).
/// online.observe_message(p, q, ClockTime::from_nanos(1_000), ClockTime::from_nanos(1_010));
/// online.observe_message(q, p, ClockTime::from_nanos(1_020), ClockTime::from_nanos(1_090));
/// let outcome = online.outcome()?;
/// assert!(outcome.precision().is_finite());
/// # Ok::<(), clocksync::SyncError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OnlineSynchronizer {
    network: Network,
    observations: LinkObservations,
    /// The current `m̃ls` matrix, maintained per-link as observations
    /// arrive; always equal to
    /// `estimated_local_shifts(&network, &observations)`.
    local: clocksync_graph::SquareMatrix<ExtRatio>,
    /// The closure of `local` as gauged half-nanosecond counts, when
    /// valid. Tightenings are folded in by `relax_edge`. `None` after a
    /// bulk view merge, a loosening, an inconsistency or a tightening
    /// without a count in the cache's gauge, until the next
    /// [`OnlineSynchronizer::outcome`] rebuilds it under a fresh gauge —
    /// and for as long as no gauge holds `local`. Invariant: while
    /// present, every finite `local` entry has a count within the cache's
    /// magnitude limit in the cache's gauge.
    cached: Option<Closure>,
    /// Per-component warm states (`A_max`, critical cycle, Howard policy)
    /// from the last [`OnlineSynchronizer::outcome`], keyed by the
    /// component's sorted member list; a residual domain's components
    /// have none. Invariant: an entry exists only if, since it was
    /// written, the closure entries among its members changed solely by
    /// tightenings (a loosening clears the map; see `refresh_link`).
    shifts_states: HashMap<Vec<ProcessorId>, ShiftsState>,
}

impl OnlineSynchronizer {
    /// Creates an online synchronizer with no observations yet.
    pub fn new(network: Network) -> OnlineSynchronizer {
        let n = network.n();
        let observations = LinkObservations::empty(n);
        let local = estimated_local_shifts(&network, &observations);
        OnlineSynchronizer {
            network,
            observations,
            local,
            cached: None,
            shifts_states: HashMap::new(),
        }
    }

    /// The network specification.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The accumulated observations.
    pub fn observations(&self) -> &LinkObservations {
        &self.observations
    }

    /// The current `m̃ls` matrix of estimated maximal *local* shifts —
    /// entry `(p, q)` is the Lemma 6.2/6.5 single-link bound on how far
    /// `q` can lag `p`, before the GLOBAL ESTIMATES closure composes
    /// bounds along paths. Maintained incrementally as observations
    /// arrive; invariantly equal to
    /// `estimated_local_shifts(network, observations)`. Exposed so
    /// invariant oracles (the scenario fuzzer's estimate-soundness check)
    /// can audit the pre-closure estimates directly.
    pub fn local_estimates(&self) -> &clocksync_graph::SquareMatrix<ExtRatio> {
        &self.local
    }

    /// Message samples currently retained across all links (the evidence
    /// footprint [`OnlineSynchronizer::compact_evidence`] bounds).
    pub fn retained_samples(&self) -> usize {
        self.observations.retained_samples()
    }

    /// Records one delivered message by its two endpoint clock readings.
    /// A message off the declared links is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range, or if the estimated delay
    /// `recv_clock − send_clock` overflows — the errors
    /// [`OnlineSynchronizer::ingest_batch`] reports.
    pub fn observe_message(
        &mut self,
        src: ProcessorId,
        dst: ProcessorId,
        send_clock: ClockTime,
        recv_clock: ClockTime,
    ) {
        let obs = BatchObservation {
            src,
            dst,
            send_clock,
            recv_clock,
        };
        self.check(&obs).unwrap_or_else(|e| panic!("{e}"));
        if self.record(src, dst, send_clock, recv_clock) {
            self.refresh_link(src, dst);
        }
    }

    /// Records one delivered message by its estimated delay only: the
    /// [`OnlineSynchronizer::observe_message`] of readings `0` and `0 + d̃`.
    /// That suffices for every assumption except the windowed bias model,
    /// which needs real clock readings.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn observe_estimated_delay(
        &mut self,
        src: ProcessorId,
        dst: ProcessorId,
        estimated_delay: Nanos,
    ) {
        self.observe_message(src, dst, ClockTime::ZERO, ClockTime::ZERO + estimated_delay);
    }

    /// Ingests a batch of message observations in one relaxation pass:
    /// [`OnlineSynchronizer::observe_message`] for each element, with the
    /// same outcome bit for bit (the estimators read the evidence only
    /// through per-link aggregates), except that each touched link is
    /// re-estimated and folded into the cached closure *once* — the batch
    /// discount the sharded ingestion service is built on — and bad input
    /// is an error, not a panic. The batch is atomic: every observation is
    /// checked first, and on error none is recorded. Returns the number of
    /// observations applied, counting those off the declared links, which
    /// are checked and then dropped.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::Model`] ([`ModelError::UnknownProcessor`]) for
    /// an out-of-range endpoint and [`SyncError::Overflow`] when an
    /// estimated delay `recv_clock − send_clock` overflows.
    pub fn ingest_batch(&mut self, batch: &[BatchObservation]) -> Result<usize, SyncError> {
        for obs in batch {
            self.check(obs)?;
        }
        let mut touched: BTreeSet<(usize, usize)> = BTreeSet::new();
        for obs in batch {
            if self.record(obs.src, obs.dst, obs.send_clock, obs.recv_clock) {
                let (a, b) = (obs.src.index(), obs.dst.index());
                touched.insert((a.min(b), a.max(b)));
            }
        }
        for (a, b) in touched {
            self.refresh_link(ProcessorId(a), ProcessorId(b));
        }
        Ok(batch.len())
    }

    /// The one check an observation passes before anything is recorded:
    /// both endpoints in range, then a representable estimated delay.
    fn check(&self, obs: &BatchObservation) -> Result<(), SyncError> {
        let (src, dst, n) = (obs.src, obs.dst, self.network.n());
        if let Some(processor) = [src, dst].into_iter().find(|p| p.index() >= n) {
            return Err(SyncError::Model(ModelError::UnknownProcessor { processor }));
        }
        match obs.recv_clock.checked_sub(obs.send_clock) {
            Some(_) => Ok(()),
            None => Err(SyncError::Overflow { src, dst }),
        }
    }

    /// The one record step: keeps a message's sample if it travelled a
    /// declared link, and says whether it did. Only declared links'
    /// evidence reaches an estimator, so a message between two processors
    /// without a declared link, or from a processor to itself, is dropped.
    fn record(
        &mut self,
        src: ProcessorId,
        dst: ProcessorId,
        send_clock: ClockTime,
        recv_clock: ClockTime,
    ) -> bool {
        let declared = self.network.has_link(src, dst);
        if declared {
            self.observations.record_sample(
                src,
                dst,
                MsgSample {
                    send_clock,
                    recv_clock,
                },
            );
        }
        declared
    }

    /// Drops dominated evidence: on every link whose assumption is
    /// [extrema-only](crate::LinkAssumption::extrema_only), retains per
    /// direction the `d̃min`/`d̃max` witness samples plus the `window` most
    /// recent ones, and drops the rest. Returns the number of samples
    /// dropped.
    ///
    /// Never changes any estimate: the per-link extrema are maintained
    /// incrementally and never recomputed from the retained samples, and
    /// links whose estimator scans the full sample lists — windowed-bias
    /// pairing and Marzullo quorum fusion, where every retained sample is
    /// a *vote* and dropping one could flip the quorum — are left
    /// untouched — so every `m̃ls`, the cached closure, the cached
    /// `A_max` certificates and all future outcomes are bit-identical to
    /// the uncompacted run. `tests/service.rs` proptests exactly that.
    pub fn compact_evidence(&mut self, window: usize) -> usize {
        let mut dropped = 0;
        for (p, q, assumption) in self.network.links() {
            if !assumption.extrema_only() {
                continue;
            }
            dropped += self.observations.compact_samples(p, q, window);
            dropped += self.observations.compact_samples(q, p, window);
        }
        dropped
    }

    /// Retracts every observation of the undirected link `{p, q}` — the
    /// operator action for a replaced or re-cabled link whose historical
    /// evidence no longer describes the hardware. Both directions'
    /// estimates loosen back to their assumption-only values; this is the
    /// one place estimates loosen in practice. A loosened estimate drops
    /// the cached closure and every cached `A_max` state
    /// ([`OnlineSynchronizer::invalidate_caches`]), so the next outcome
    /// rebuilds them. Returns the number of samples dropped.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `q` is out of range.
    pub fn forget_link(&mut self, p: ProcessorId, q: ProcessorId) -> usize {
        let dropped = self.observations.clear_link(p, q);
        self.refresh_link(p, q);
        dropped
    }

    /// Drops the cached closure and every cached `A_max` certificate, so
    /// the next [`OnlineSynchronizer::outcome`] recomputes everything from
    /// the `m̃ls` matrix, as it does after a loosened estimate.
    ///
    /// No part of an outcome depends on the caches, which makes a clone
    /// that calls this the reference for differential tests of the warm
    /// engine: its outcome must equal the warm one as a whole.
    pub fn invalidate_caches(&mut self) {
        self.cached = None;
        self.shifts_states.clear();
    }

    /// Merges every message of a complete view set on a declared link into
    /// the stream.
    ///
    /// A bulk merge touches many links at once, so instead of folding each
    /// message into the cached closure it re-derives every link estimate
    /// and lets the next [`OnlineSynchronizer::outcome`] rebuild the
    /// closure once.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::WrongProcessorCount`] on size mismatch.
    pub fn ingest_views(&mut self, views: &ViewSet) -> Result<(), SyncError> {
        if views.len() != self.network.n() {
            return Err(SyncError::WrongProcessorCount {
                expected: self.network.n(),
                actual: views.len(),
            });
        }
        for m in views.message_observations() {
            self.record(m.src, m.dst, m.send_clock, m.recv_clock);
        }
        self.local = estimated_local_shifts(&self.network, &self.observations);
        self.cached = None;
        // The A_max states stay: adding observations only tightens the
        // estimates, and the warm-start contract tolerates tightenings.
        Ok(())
    }

    /// Re-estimates the one link a fresh observation travelled on and
    /// folds any change into the cached closure.
    ///
    /// A round-trip sample on link `{a, b}` moves the evidence both ways
    /// (a slow message raises `d̃max`, which tightens the *opposite*
    /// direction's upper-bound slack), so both directed entries are
    /// recomputed. Tightenings relax the cache in `O(n²)`; one without a
    /// count drops the closure, and a loosening or an inconsistency
    /// (negative cycle) drops every cache, leaving the rebuild — and the
    /// canonical error report — to [`OnlineSynchronizer::outcome`].
    fn refresh_link(&mut self, a: ProcessorId, b: ProcessorId) {
        for (p, q) in [(a, b), (b, a)] {
            let Some(assumption) = self.network.assumption(p, q) else {
                continue;
            };
            let evidence = self.observations.evidence(p, q);
            let w = assumption.estimated_mls(&evidence);
            let (u, v) = (p.index(), q.index());
            let old = self.local[(u, v)];
            if w == old {
                continue;
            }
            self.local[(u, v)] = w;
            if w > old {
                // An estimate loosened (evidence was retracted via
                // forget_link, or a custom assumption did it), which
                // relax_edge cannot absorb: drop the caches.
                self.invalidate_caches();
                continue;
            }
            let Some(cache) = self.cached.as_mut() else {
                continue;
            };
            match cache.relax_edge(u, v, w) {
                Ok(RelaxOutcome::Tightened | RelaxOutcome::Unchanged) => {}
                Ok(RelaxOutcome::StaleLoosening) => {
                    // Reachable and harmless: w < old guarantees the
                    // underlying edge tightened; the cached path metric is
                    // simply already below w, so per the RelaxOutcome
                    // contract there is nothing to patch.
                }
                Ok(RelaxOutcome::Unrepresentable) => {
                    // w has no count in the cache's gauge (a first link
                    // between clocks an epoch apart, or off the half-ns
                    // grid): the next outcome() rebuilds under a fresh
                    // gauge. The closure only tightened, and cycle means
                    // do not see the gauge, so the warm A_max states stay.
                    self.cached = None;
                }
                Err(_) => {
                    // Inconsistent observations: the relaxation poisoned
                    // the cache. Estimates only tighten, so the
                    // inconsistency is permanent; outcome() will recompute
                    // and report the canonical witness.
                    self.invalidate_caches();
                }
            }
        }
    }

    /// The current GLOBAL ESTIMATES matrix `m̃s` — each entry bounds how
    /// far its column processor can lag its row processor — decoded whole
    /// from the incrementally-maintained cache. The cache is rebuilt under
    /// a fresh gauge if an invalidation (or nothing yet) left it empty;
    /// while no gauge holds `m̃ls`, the residual route's closure answers
    /// and no cache is kept.
    ///
    /// In steady state this costs the `O(n²)` relaxation the last
    /// observation already paid plus the `n × n` conversion to
    /// [`ExtRatio`]: at `n = 192`, about half a warm
    /// [`OnlineSynchronizer::outcome`], which converts nothing. Call it when
    /// the whole matrix is needed without corrections; a caller that holds
    /// an outcome reads single entries from it
    /// ([`SyncOutcome::global_shift_estimate`], [`SyncOutcome::pair_bound`])
    /// without converting the rest.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::InconsistentObservations`] if the accumulated
    /// observations contradict the declared assumptions.
    pub fn global_estimates(&mut self) -> Result<SquareMatrix<ExtRatio>, SyncError> {
        match &self.cached {
            Some(cache) => Ok(cache.ratio_dist()),
            None => self.closure().map(|closure| closure.ratio_dist()),
        }
    }

    /// The closure of `m̃ls` on its route: a copy of the cache, which is
    /// first rebuilt under a fresh gauge if empty, or, while no gauge
    /// holds `m̃ls`, the residual route's closure.
    fn closure(&mut self) -> Result<RoutedClosure, SyncError> {
        if let Some(cache) = &self.cached {
            return Ok(RoutedClosure::Integer(cache.clone()));
        }
        let closure = close(&self.local, &Recorder::disabled())?;
        self.cached = closure.counts().cloned();
        Ok(closure)
    }

    /// Computes the optimal corrections for everything observed so far.
    ///
    /// The GLOBAL ESTIMATES closure comes from the incremental cache (kept
    /// current by the `observe_*` methods and rebuilt with the integer
    /// kernels, under a fresh gauge, only after an invalidation). SHIFTS
    /// reads each component straight from the cache's counts — a
    /// component spanning the whole domain without a copy — and `A_max` is
    /// maintained incrementally: each component first revalidates the
    /// critical cycle cached by the previous call (summed in `i128` over
    /// the counts) — still certifying under pure tightenings means
    /// `A_max` is unchanged — and only on a miss runs integer Howard,
    /// warm-started from the cached policy. A component with no cached
    /// state runs integer Howard cold, as batch does, and caches its
    /// converged policy. The corrections pass, the cheap SHIFTS step, is
    /// always recomputed, on the same counts. The outcome keeps a copy of
    /// the cache's counts, so nothing is converted to rationals here.
    ///
    /// While no gauge holds `m̃ls`, the domain takes the residual route
    /// whole: the generic closure, then exact Karp on every component,
    /// with no warm state. Whichever route ran, the components —
    /// precision, corrections and the canonical critical cycle — are
    /// bit-identical to the batch [`SyncOutcome::from_global_estimates`]
    /// on the same closure.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::InconsistentObservations`] if the accumulated
    /// observations contradict the declared assumptions.
    pub fn outcome(&mut self) -> Result<SyncOutcome, SyncError> {
        let closure = self.closure()?;
        // Warm states are keyed by member list: a component that merged or
        // split since its state was written gets a different key (its
        // sub-matrix indices remapped wholesale) and misses to a cold
        // Howard run; a component whose membership is unchanged has only
        // seen tightenings — or nothing — since, which the warm-start
        // contract tolerates. Rebuilding the map from scratch keeps only
        // the current partition's keys, so stale keys never accumulate.
        let prev = std::mem::take(&mut self.shifts_states);
        let mut fresh = HashMap::new();
        let mut outcome = SyncOutcome::from_components_with(closure, |members, m| {
            let (result, state) = shifts_warm(m, 0, prev.get(members));
            fresh.insert(members.to_vec(), state);
            result
        });
        self.shifts_states = fresh;
        outcome.set_degradations(classify_degradations(
            &self.network,
            &self.observations,
            &self.local,
        ));
        outcome.set_edges(self.network.links().map(|(p, q, _)| (p, q)).collect());
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayRange, LinkAssumption, Synchronizer};
    use clocksync_model::ExecutionBuilder;
    use clocksync_time::{Ext, Ratio, RealTime};

    const P: ProcessorId = ProcessorId(0);
    const Q: ProcessorId = ProcessorId(1);

    fn net() -> Network {
        Network::builder(2)
            .link(
                P,
                Q,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(1_000))),
            )
            .build()
    }

    #[test]
    fn streaming_equals_batch() {
        let exec = ExecutionBuilder::new(2)
            .start(Q, RealTime::from_nanos(123))
            .round_trips(
                P,
                Q,
                3,
                RealTime::from_nanos(5_000),
                Nanos::new(997),
                Nanos::new(400),
                Nanos::new(350),
            )
            .build()
            .unwrap();
        let batch = Synchronizer::new(net()).synchronize(exec.views()).unwrap();
        let mut online = OnlineSynchronizer::new(net());
        online.ingest_views(exec.views()).unwrap();
        let streamed = online.outcome().unwrap();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn message_stream_equals_batch() {
        // Same as above, but fed message by message so every observation
        // exercises the incremental relax_edge path (ingest_views rebuilds
        // wholesale instead).
        let exec = ExecutionBuilder::new(2)
            .start(Q, RealTime::from_nanos(123))
            .round_trips(
                P,
                Q,
                3,
                RealTime::from_nanos(5_000),
                Nanos::new(997),
                Nanos::new(400),
                Nanos::new(350),
            )
            .build()
            .unwrap();
        let batch = Synchronizer::new(net()).synchronize(exec.views()).unwrap();
        let mut online = OnlineSynchronizer::new(net());
        // Build the cache up front so the relaxations really are folded in
        // one at a time rather than deferred to a single rebuild.
        let _ = online.outcome().unwrap();
        for m in exec.views().message_observations() {
            online.observe_message(m.src, m.dst, m.send_clock, m.recv_clock);
        }
        let streamed = online.outcome().unwrap();
        assert_eq!(batch.precision(), streamed.precision());
        assert_eq!(batch.corrections(), streamed.corrections());
        assert_eq!(
            batch.global_shift_estimates(),
            streamed.global_shift_estimates()
        );
        // The lightweight accessor serves the same matrix.
        assert_eq!(
            online.global_estimates().unwrap(),
            batch.global_shift_estimates()
        );
    }

    #[test]
    fn observations_monotonically_tighten() {
        let mut online = OnlineSynchronizer::new(net());
        online.observe_estimated_delay(P, Q, Nanos::new(600));
        online.observe_estimated_delay(Q, P, Nanos::new(500));
        let first = online.outcome().unwrap().precision();
        assert_eq!(first, Ext::Finite(Ratio::from_int(450)));
        // A tighter round trip arrives.
        online.observe_estimated_delay(P, Q, Nanos::new(520));
        online.observe_estimated_delay(Q, P, Nanos::new(480));
        let second = online.outcome().unwrap().precision();
        assert!(second <= first);
        // Even a SLOW extra message informs in the bounds model: it raises
        // d̃max, shrinking the other direction's upper-bound slack.
        online.observe_estimated_delay(P, Q, Nanos::new(900));
        let third = online.outcome().unwrap().precision();
        assert!(third <= second);
        assert_eq!(third, Ext::Finite(Ratio::from_int(300)));
    }

    #[test]
    fn starts_unbounded_and_becomes_finite() {
        let mut online = OnlineSynchronizer::new(net());
        assert_eq!(online.outcome().unwrap().precision(), Ext::PosInf);
        // One message already bounds BOTH directions when ub is finite:
        // m̃ls(P,Q) = d̃min = 100, m̃ls(Q,P) = ub − d̃max = 900.
        online.observe_estimated_delay(P, Q, Nanos::new(100));
        assert_eq!(
            online.outcome().unwrap().precision(),
            Ext::Finite(Ratio::from_int(500))
        );
        // The echo tightens it to min-RTT/2 territory.
        online.observe_estimated_delay(Q, P, Nanos::new(100));
        assert_eq!(
            online.outcome().unwrap().precision(),
            Ext::Finite(Ratio::from_int(100))
        );
    }

    #[test]
    fn inconsistent_stream_is_reported() {
        let net = Network::builder(2)
            .link(
                P,
                Q,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::new(400), Nanos::new(500))),
            )
            .build();
        let mut online = OnlineSynchronizer::new(net);
        // Round trip estimate sums to 100 < 2·lb = 800: impossible.
        online.observe_estimated_delay(P, Q, Nanos::new(60));
        online.observe_estimated_delay(Q, P, Nanos::new(40));
        assert!(matches!(
            online.outcome(),
            Err(SyncError::InconsistentObservations { .. })
        ));
        // The inconsistency is permanent: asking again still reports it.
        assert!(online.outcome().is_err());
    }

    #[test]
    fn inconsistency_found_incrementally_matches_rebuild() {
        // Same stream, but with a warm cache so the negative cycle is first
        // noticed inside relax_edge rather than by the full kernel.
        let net = Network::builder(2)
            .link(
                P,
                Q,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::new(400), Nanos::new(500))),
            )
            .build();
        let mut online = OnlineSynchronizer::new(net);
        let _ = online.outcome().unwrap();
        online.observe_estimated_delay(P, Q, Nanos::new(60));
        online.observe_estimated_delay(Q, P, Nanos::new(40));
        assert!(matches!(
            online.outcome(),
            Err(SyncError::InconsistentObservations { .. })
        ));
    }

    #[test]
    fn incremental_a_max_matches_batch_at_every_step() {
        // A three-node chain fed message by message: each outcome() call
        // after the first takes the warm path (cached critical cycle or
        // warm-started Howard) and must still agree with a cold batch
        // computation on the same closure, step by step.
        let r = ProcessorId(2);
        let net = Network::builder(3)
            .link(
                P,
                Q,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(1_000))),
            )
            .link(
                Q,
                r,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(1_000))),
            )
            .build();
        let mut online = OnlineSynchronizer::new(net);
        let stream = [
            (P, Q, 600),
            (Q, P, 500),
            (Q, r, 700),
            (r, Q, 650),
            (P, Q, 520), // tightens the critical P–Q cycle: A_max drops
            (Q, P, 480),
            (Q, r, 900), // slow echo still tightens the opposite slack
            (P, Q, 519), // tiny tightening off the new critical cycle
        ];
        let mut last = Ext::PosInf;
        for (src, dst, d) in stream {
            online.observe_estimated_delay(src, dst, Nanos::new(d));
            let incremental = online.outcome().unwrap();
            let cold = SyncOutcome::from_global_estimates(incremental.global_shift_estimates());
            assert_eq!(incremental.precision(), cold.precision());
            assert_eq!(incremental.corrections(), cold.corrections());
            for (a, b) in incremental.components().iter().zip(cold.components()) {
                assert_eq!(a.members, b.members);
                assert_eq!(a.precision, b.precision);
            }
            assert!(incremental.precision() <= last);
            last = incremental.precision();
        }
        assert!(last.is_finite());
    }

    #[test]
    fn warm_cache_is_dropped_when_components_merge() {
        // P–Q synchronize first; r joins later, merging the partition from
        // {{P,Q},{r}} to one component. The stale two-component cache must
        // not be consulted for the merged sub-matrix.
        let r = ProcessorId(2);
        let net = Network::builder(3)
            .link(
                P,
                Q,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(1_000))),
            )
            .link(
                Q,
                r,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(1_000))),
            )
            .build();
        let mut online = OnlineSynchronizer::new(net);
        online.observe_estimated_delay(P, Q, Nanos::new(600));
        online.observe_estimated_delay(Q, P, Nanos::new(500));
        let split = online.outcome().unwrap();
        assert_eq!(split.components().len(), 2);
        online.observe_estimated_delay(Q, r, Nanos::new(700));
        let merged = online.outcome().unwrap();
        assert_eq!(merged.components().len(), 1);
        let cold = SyncOutcome::from_global_estimates(merged.global_shift_estimates());
        assert_eq!(merged.precision(), cold.precision());
        assert_eq!(merged.corrections(), cold.corrections());
    }

    #[test]
    fn size_mismatch_on_ingest() {
        let mut online = OnlineSynchronizer::new(net());
        let exec = ExecutionBuilder::new(3).build().unwrap();
        assert!(matches!(
            online.ingest_views(exec.views()),
            Err(SyncError::WrongProcessorCount { .. })
        ));
    }

    fn obs(src: ProcessorId, dst: ProcessorId, send: i64, recv: i64) -> BatchObservation {
        BatchObservation {
            src,
            dst,
            send_clock: ClockTime::from_nanos(send),
            recv_clock: ClockTime::from_nanos(recv),
        }
    }

    #[test]
    fn batch_ingest_equals_per_message() {
        let stream = [
            obs(P, Q, 1_000, 1_600),
            obs(Q, P, 1_700, 2_200),
            obs(P, Q, 3_000, 3_520),
            obs(Q, P, 3_600, 4_080),
        ];
        let mut per_message = OnlineSynchronizer::new(net());
        let _ = per_message.outcome().unwrap();
        for o in stream {
            per_message.observe_message(o.src, o.dst, o.send_clock, o.recv_clock);
        }
        let mut batched = OnlineSynchronizer::new(net());
        let _ = batched.outcome().unwrap();
        assert_eq!(batched.ingest_batch(&stream).unwrap(), 4);
        assert_eq!(per_message.outcome().unwrap(), batched.outcome().unwrap());
        assert_eq!(batched.retained_samples(), 4);
    }

    #[test]
    fn evidence_off_the_declared_links_is_not_kept() {
        // Only P–Q is declared: messages P → r and r → r inform no
        // estimator, so no entry point may keep them.
        let r = ProcessorId(2);
        let net = Network::builder(3)
            .link(
                P,
                Q,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(1_000))),
            )
            .build();
        let declared = [obs(P, Q, 1_000, 1_600), obs(Q, P, 1_700, 2_200)];
        let mut reference = OnlineSynchronizer::new(net.clone());
        reference.ingest_batch(&declared).unwrap();

        let mut online = OnlineSynchronizer::new(net);
        online.observe_message(P, r, ClockTime::from_nanos(0), ClockTime::from_nanos(50));
        online.observe_estimated_delay(r, r, Nanos::new(10));
        assert_eq!(
            online.ingest_batch(&[obs(P, r, 0, 70), obs(r, r, 5, 9)]),
            Ok(2)
        );
        let exec = ExecutionBuilder::new(3)
            .message(P, r, RealTime::from_nanos(100), Nanos::new(30))
            .build()
            .unwrap();
        online.ingest_views(exec.views()).unwrap();
        assert_eq!(online.retained_samples(), 0);
        online.ingest_batch(&declared).unwrap();
        assert_eq!(online.retained_samples(), 2);
        assert_eq!(online.outcome().unwrap(), reference.outcome().unwrap());
    }

    #[test]
    fn batch_ingest_is_atomic_on_bad_input() {
        let mut online = OnlineSynchronizer::new(net());
        let overflow = [
            obs(P, Q, 1_000, 1_600),
            obs(P, Q, i64::MIN, i64::MAX), // delay not representable
        ];
        assert_eq!(
            online.ingest_batch(&overflow),
            Err(SyncError::Overflow { src: P, dst: Q })
        );
        let unknown = [obs(P, ProcessorId(9), 0, 1)];
        assert!(matches!(
            online.ingest_batch(&unknown),
            Err(SyncError::Model(ModelError::UnknownProcessor { .. }))
        ));
        // Nothing from the failed batches was recorded.
        assert_eq!(online.retained_samples(), 0);
        assert_eq!(online.outcome().unwrap().precision(), Ext::PosInf);
    }

    #[test]
    #[should_panic(expected = "overflow the representable delay range")]
    fn observe_message_panics_on_what_ingest_batch_reports() {
        // Off the declared links too: the check precedes the record step.
        OnlineSynchronizer::new(net()).observe_message(
            Q,
            Q,
            ClockTime::from_nanos(i64::MAX),
            ClockTime::from_nanos(i64::MIN),
        );
    }

    #[test]
    fn compaction_preserves_outcome_bit_for_bit() {
        let mut online = OnlineSynchronizer::new(net());
        for i in 0..40i64 {
            online.observe_message(
                P,
                Q,
                ClockTime::from_nanos(100 * i),
                ClockTime::from_nanos(100 * i + 500 + i),
            );
            online.observe_message(
                Q,
                P,
                ClockTime::from_nanos(100 * i + 50),
                ClockTime::from_nanos(100 * i + 550 - i),
            );
        }
        let before = online.outcome().unwrap();
        let retained_before = online.retained_samples();
        let dropped = online.compact_evidence(4);
        assert!(dropped > 0);
        assert_eq!(online.retained_samples(), retained_before - dropped);
        let after = online.outcome().unwrap();
        assert_eq!(before, after);
        // Later observations land on identical estimates too.
        online.observe_estimated_delay(P, Q, Nanos::new(400));
        assert!(online.outcome().unwrap().precision() <= before.precision());
    }

    #[test]
    fn compaction_never_touches_interval_fusing_links() {
        // Every retained sample on a Marzullo link is a quorum vote;
        // dropping any could flip the fused interval, so compaction must
        // skip the link entirely (the `extrema_only` gate).
        let range = DelayRange::new(Nanos::ZERO, Nanos::new(1_000));
        let net = Network::builder(2)
            .link(P, Q, LinkAssumption::marzullo_quorum(range, range, 1))
            .build();
        let mut online = OnlineSynchronizer::new(net);
        for i in 0..40i64 {
            online.observe_message(
                P,
                Q,
                ClockTime::from_nanos(100 * i),
                ClockTime::from_nanos(100 * i + 500 + i),
            );
            online.observe_message(
                Q,
                P,
                ClockTime::from_nanos(100 * i + 50),
                ClockTime::from_nanos(100 * i + 550 - i),
            );
        }
        let before = online.outcome().unwrap();
        let retained = online.retained_samples();
        assert_eq!(online.compact_evidence(4), 0);
        assert_eq!(online.retained_samples(), retained);
        assert_eq!(online.outcome().unwrap(), before);
    }

    #[test]
    fn forget_link_loosens_and_scoped_invalidation_matches_full() {
        // Two independent pairs: P–Q and r–s. Forgetting P–Q must loosen
        // that component back to unbounded while leaving r–s tight, and
        // the engine must agree with a clone that drops its caches.
        let (r, s) = (ProcessorId(2), ProcessorId(3));
        let range = DelayRange::new(Nanos::ZERO, Nanos::new(1_000));
        let net = Network::builder(4)
            .link(P, Q, LinkAssumption::symmetric_bounds(range))
            .link(r, s, LinkAssumption::symmetric_bounds(range))
            .build();
        let mut online = OnlineSynchronizer::new(net);
        online.observe_estimated_delay(P, Q, Nanos::new(600));
        online.observe_estimated_delay(Q, P, Nanos::new(500));
        online.observe_estimated_delay(r, s, Nanos::new(300));
        online.observe_estimated_delay(s, r, Nanos::new(200));
        let tight = online.outcome().unwrap();
        let pq = |o: &SyncOutcome| {
            o.components()
                .iter()
                .find(|c| c.members.contains(&P))
                .map(|c| (c.members.clone(), c.precision))
                .unwrap()
        };
        assert_eq!(pq(&tight), (vec![P, Q], Ratio::from_int(450)));
        let dropped = online.forget_link(P, Q);
        assert_eq!(dropped, 2);
        let mut reference = online.clone();
        reference.invalidate_caches();
        let scoped = online.outcome().unwrap();
        let full = reference.outcome().unwrap();
        assert_eq!(scoped, full);
        // P–Q is back to assumption-only knowledge (no observations means
        // no finite m̃ls): the pair split into singleton components, while
        // the untouched r–s component stays synchronized and tight.
        assert_eq!(pq(&scoped), (vec![P], Ratio::ZERO));
        let rs = scoped
            .components()
            .iter()
            .find(|c| c.members.contains(&r))
            .unwrap();
        assert_eq!(rs.precision, Ratio::from_int(250));
        // Fresh evidence re-tightens the engine exactly as it does the
        // reference.
        online.observe_estimated_delay(P, Q, Nanos::new(100));
        reference.observe_estimated_delay(P, Q, Nanos::new(100));
        online.observe_estimated_delay(Q, P, Nanos::new(100));
        reference.observe_estimated_delay(Q, P, Nanos::new(100));
        assert_eq!(online.outcome().unwrap(), reference.outcome().unwrap());
    }

    #[test]
    fn forget_link_at_n_200_equals_the_cache_dropping_reference() {
        // A 24-node ring with chords whose every estimate is 0 ns, so paths
        // of different lengths tie, next to a 176-node ring. At n = 200 the
        // closure runs Johnson. Forgetting a link of the small component
        // must give the outcome of a clone that drops its caches.
        let (n, small) = (200, 24);
        let range = DelayRange::new(Nanos::ZERO, Nanos::new(1_000));
        let mut links = Vec::new();
        for i in 0..small {
            links.push((i, (i + 1) % small, 0));
            links.push((i, (i + 5) % small, 0));
        }
        for i in small..n {
            let j = if i + 1 == n { small } else { i + 1 };
            links.push((i, j, 300 + 10 * (i % 7) as i64));
        }
        let mut net = Network::builder(n);
        for &(p, q, _) in &links {
            let bounds = LinkAssumption::symmetric_bounds(range);
            net = net.link(ProcessorId(p), ProcessorId(q), bounds);
        }
        let mut online = OnlineSynchronizer::new(net.build());
        let _ = online.outcome().unwrap();
        for &(p, q, d) in &links {
            let (p, q) = (ProcessorId(p), ProcessorId(q));
            online.observe_estimated_delay(p, q, Nanos::new(d));
            online.observe_estimated_delay(q, p, Nanos::new(d / 2));
        }
        assert_eq!(online.outcome().unwrap().components().len(), 2);
        assert_eq!(online.forget_link(P, Q), 2);
        let mut reference = online.clone();
        reference.invalidate_caches();
        assert_eq!(online.outcome().unwrap(), reference.outcome().unwrap());
    }

    /// Batch `synchronize`, a warm engine fed message by message and a
    /// clone of it that drops its caches must yield the same constraint
    /// chains on an `n`-node ring with chords whose every estimate is 0 ns,
    /// where paths of different lengths tie. Each chain must take the
    /// fewest hops, and its `m̃ls` entries must sum to the closure entry.
    fn assert_chains_agree_across_routes(n: usize, kernel: clocksync_graph::ClosureKernel) {
        let mut links = Vec::new();
        for i in 0..n {
            links.push((i, (i + 1) % n));
            links.push((i, (i + 7) % n));
        }
        let range = DelayRange::new(Nanos::ZERO, Nanos::new(1_000));
        let mut net = Network::builder(n);
        let mut exec = ExecutionBuilder::new(n);
        for (k, &(p, q)) in links.iter().enumerate() {
            let (p, q) = (ProcessorId(p), ProcessorId(q));
            net = net.link(p, q, LinkAssumption::symmetric_bounds(range));
            // One zero-delay round trip between clocks that start together.
            let at = RealTime::from_nanos(1_000 * k as i64);
            exec = exec.round_trips(p, q, 1, at, Nanos::ZERO, Nanos::ZERO, Nanos::ZERO);
        }
        let (net, exec) = (net.build(), exec.build().unwrap());
        let batch = Synchronizer::new(net.clone())
            .synchronize(exec.views())
            .unwrap();
        let mut online = OnlineSynchronizer::new(net);
        let _ = online.outcome().unwrap();
        for (k, m) in exec.views().message_observations().iter().enumerate() {
            online.observe_message(m.src, m.dst, m.send_clock, m.recv_clock);
            if k % n == 0 {
                let _ = online.outcome().unwrap();
            }
        }
        let warm = online.outcome().unwrap();
        let mut cold = online.clone();
        cold.invalidate_caches();
        let cold = cold.outcome().unwrap();
        assert_eq!(warm, cold);

        let local = online.local_estimates();
        let scaled = clocksync_graph::scaled_weights(local).unwrap();
        assert_eq!(clocksync_graph::plan_closure_kernel(&scaled), kernel);
        let zero = Ext::Finite(Ratio::ZERO);
        for &(p, q) in &links {
            assert_eq!((local[(p, q)], local[(q, p)]), (zero, zero));
        }
        let closure = batch.global_shift_estimates();
        let next = crate::shortest_path_successors(local, &closure);
        for outcome in [&warm, &cold] {
            assert_eq!(outcome.global_shift_estimates(), closure);
            let chains = crate::shortest_path_successors(local, &outcome.global_shift_estimates());
            assert_eq!(chains, next);
        }
        for j in 0..n {
            // Every link weighs 0, so every path ties and the fewest hops
            // are a breadth-first search away.
            let mut hops = vec![usize::MAX; n];
            let mut queue = std::collections::VecDeque::from([j]);
            hops[j] = 0;
            while let Some(x) = queue.pop_front() {
                for u in 0..n {
                    if u != x && local[(u, x)] == zero && hops[u] == usize::MAX {
                        hops[u] = hops[x] + 1;
                        queue.push_back(u);
                    }
                }
            }
            for i in 0..n {
                let chain = crate::reconstruct_path(&next, i, j).unwrap();
                assert_eq!(chain.len() - 1, hops[i], "chain {chain:?}");
                let total = chain.windows(2).fold(zero, |t, e| t + local[(e[0], e[1])]);
                assert_eq!(total, closure[(i, j)], "chain {chain:?}");
            }
        }
    }

    #[test]
    fn constraint_chains_agree_across_routes_on_johnson() {
        assert_chains_agree_across_routes(200, clocksync_graph::ClosureKernel::SparseJohnson);
    }

    #[test]
    fn constraint_chains_agree_across_routes_on_the_dense_kernel() {
        assert_chains_agree_across_routes(64, clocksync_graph::ClosureKernel::DenseBlocked);
    }

    #[test]
    fn forget_link_after_bulk_ingest_patches_without_cache() {
        // Loosening with no cached closure (ingest_views dropped it) must
        // still drop the A_max states and produce the same outcome as the
        // reference.
        let exec = ExecutionBuilder::new(2)
            .start(Q, RealTime::from_nanos(123))
            .round_trips(
                P,
                Q,
                2,
                RealTime::from_nanos(5_000),
                Nanos::new(997),
                Nanos::new(400),
                Nanos::new(350),
            )
            .build()
            .unwrap();
        let mut online = OnlineSynchronizer::new(net());
        let _ = online.outcome().unwrap();
        online.ingest_views(exec.views()).unwrap();
        online.forget_link(P, Q);
        let mut reference = online.clone();
        reference.invalidate_caches();
        assert_eq!(online.outcome().unwrap(), reference.outcome().unwrap());
        assert_eq!(online.outcome().unwrap().precision(), Ext::PosInf);
    }

    #[test]
    fn a_half_ns_estimate_relaxes_an_integer_cache_in_place() {
        // Every estimate starts whole, so the warm cache holds only even
        // counts. Then P → Q speeds up to 9 ns: the RTT-bias term
        // (4 + 9 − 6)/2 = 7/2 tightens m̃ls(P, Q) to a half nanosecond,
        // which relaxes in place instead of dropping the cache.
        let r = ProcessorId(2);
        let bias = LinkAssumption::rtt_bias(Nanos::new(4));
        let net = Network::builder(3)
            .link(P, Q, bias.clone())
            .link(Q, r, bias)
            .build();
        let stream = [
            (P, Q, 100, 10),
            (Q, P, 200, 6),
            (Q, r, 300, 8),
            (r, Q, 400, 8),
        ];
        let last = (P, Q, 500, 9);
        let mut online = OnlineSynchronizer::new(net.clone());
        let mut exec = ExecutionBuilder::new(3);
        for (src, dst, at, delay) in stream {
            online.observe_message(
                src,
                dst,
                ClockTime::from_nanos(at),
                ClockTime::from_nanos(at + delay),
            );
            exec = exec.message(src, dst, RealTime::from_nanos(at), Nanos::new(delay));
        }
        let before = online.outcome().unwrap();
        assert!(before
            .global_shift_estimates()
            .as_slice()
            .iter()
            .all(|w| match w {
                Ext::Finite(x) => x.is_integer(),
                _ => true,
            }));
        let (src, dst, at, delay) = last;
        online.observe_message(
            src,
            dst,
            ClockTime::from_nanos(at),
            ClockTime::from_nanos(at + delay),
        );
        exec = exec.message(src, dst, RealTime::from_nanos(at), Nanos::new(delay));
        assert_eq!(
            online.local_estimates()[(0, 1)],
            Ext::Finite(Ratio::new(7, 2))
        );
        assert!(
            online.cached.is_some(),
            "the cache survives the half-ns estimate"
        );
        let mut reference = online.clone();
        reference.invalidate_caches();
        let outcome = online.outcome().unwrap();
        assert_eq!(outcome, reference.outcome().unwrap());
        let batch = Synchronizer::new(net)
            .synchronize(exec.build().unwrap().views())
            .unwrap();
        assert_eq!(outcome, batch);
        assert!(outcome.precision() < before.precision());
    }

    #[test]
    fn inconsistent_evidence_far_past_the_integer_bound_is_reported() {
        // Every delay is 9 ns against bounds of [10, 1000] ns, so every
        // m̃ls entry is −1 and the negative cycles start at the first
        // Floyd–Warshall level. One 0 → 1 message from a clock 10^18 ns
        // ahead sends the closure to the rational kernel; it must stop at
        // that level instead of doubling entries until Ratio overflows.
        let n = 100;
        let bounds =
            LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::new(10), Nanos::new(1_000)));
        let mut net = Network::builder(n);
        for p in 0..n {
            for q in p + 1..n {
                net = net.link(ProcessorId(p), ProcessorId(q), bounds.clone());
            }
        }
        let mut online = OnlineSynchronizer::new(net.build());
        for p in 0..n {
            for q in 0..n {
                if p != q {
                    online.observe_estimated_delay(ProcessorId(p), ProcessorId(q), Nanos::new(9));
                }
            }
        }
        online.observe_estimated_delay(P, Q, Nanos::new(9 - 1_000_000_000_000_000_000));
        let expected = SyncError::InconsistentObservations { witness: Q };
        assert_eq!(online.outcome(), Err(expected.clone()));
        assert_eq!(
            crate::global_estimates(online.local_estimates()),
            Err(expected)
        );
    }

    #[test]
    fn a_deep_negative_cycle_on_a_sparse_ring_is_reported() {
        // A 192-node ring of [0, 1000] ns links, every message read at an
        // estimated delay of −10^15 ns both ways: each m̃ls entry is
        // −10^15 ns, inside the closure bound, and every 2-cycle is
        // negative. The ring is sparse, so the closure runs Johnson, whose
        // potential pass must stop at its floor instead of overflowing.
        let n = 192;
        let bounds =
            LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(1_000)));
        let mut net = Network::builder(n);
        let mut batch = Vec::new();
        for p in 0..n {
            let (p, q) = (ProcessorId(p), ProcessorId((p + 1) % n));
            net = net.link(p, q, bounds.clone());
            batch.push(obs(p, q, 1_000_000_000_000_000, 0));
            batch.push(obs(q, p, 1_000_000_000_000_000, 0));
        }
        let mut online = OnlineSynchronizer::new(net.build());
        assert_eq!(online.ingest_batch(&batch), Ok(2 * n));
        let err = online.outcome().unwrap_err();
        assert!(matches!(err, SyncError::InconsistentObservations { .. }));
        assert_eq!(online.global_estimates(), Err(err.clone()));
        assert_eq!(crate::global_estimates(online.local_estimates()), Err(err));
    }

    #[test]
    fn components_an_epoch_apart_stay_on_the_integer_route() {
        // Six clocks 8·10^16 ns apart on a chain: every m̃ls entry carries
        // its clocks' start-time difference, and the closure sums five of
        // them between the chain's ends, past the integer SHIFTS kernels'
        // bound for six nodes. The gauge takes the differences out, so the
        // domain stays on the integer route, online and in batch alike,
        // and streaming rebuilds the cache under a fresh gauge whenever a
        // first estimate joins two clocks the old gauge kept apart.
        let (n, gap) = (6, 80_000_000_000_000_000i64);
        let bounds =
            LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(1_000)));
        let mut net = Network::builder(n);
        let mut exec = ExecutionBuilder::new(n);
        for i in 0..n {
            exec = exec.start(ProcessorId(i), RealTime::from_nanos(gap * i as i64));
        }
        for i in 0..n - 1 {
            let (p, q) = (ProcessorId(i), ProcessorId(i + 1));
            net = net.link(p, q, bounds.clone());
            let base = RealTime::from_nanos(gap * n as i64 + 10_000 * i as i64);
            let forward = Nanos::new(300 + 50 * i as i64);
            exec = exec.round_trips(p, q, 2, base, Nanos::new(5_000), forward, Nanos::new(400));
        }
        let (net, exec) = (net.build(), exec.build().unwrap());
        let batch = Synchronizer::new(net.clone())
            .synchronize(exec.views())
            .unwrap();
        assert!(batch.precision().is_finite());
        let mut online = OnlineSynchronizer::new(net.clone());
        online.ingest_views(exec.views()).unwrap();
        assert_eq!(online.outcome().unwrap(), batch);
        let cache = online.cached.as_ref().expect("a gauge holds m̃ls");
        let members: Vec<usize> = (0..n).collect();
        let a_max = cache.component(&members).max_cycle_mean(None).cycle_mean;
        assert_eq!(Ext::Finite(a_max.mean), batch.precision());
        // Streamed into a warm cache, message by message.
        let mut streamed = OnlineSynchronizer::new(net);
        let _ = streamed.outcome().unwrap();
        for m in exec.views().message_observations() {
            streamed.observe_message(m.src, m.dst, m.send_clock, m.recv_clock);
            streamed.outcome().unwrap();
        }
        let streamed = streamed.outcome().unwrap();
        assert_eq!(streamed.corrections(), batch.corrections());
        assert_eq!(streamed.components(), batch.components());
    }
}
