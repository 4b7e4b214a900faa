//! The sharded multi-domain synchronization service.
//!
//! A [`SyncService`] owns `K` shards; each registered domain is pinned to
//! one shard by the consistent-hash [`ShardMap`], and every batch for a
//! domain is applied by that shard alone — batches for different shards
//! apply in parallel ([`SyncService::ingest_many`]) with no locking,
//! because shards share nothing. It applies batches on the caller's
//! thread; each worker of the [`crate::ConcurrentService`] owns a
//! one-shard `SyncService`, and the multi-shard one is the sequential
//! reference the worker engine is tested against.
//!
//! Per batch the shard (1) validates and applies the observations to the
//! domain's [`OnlineSynchronizer`] in one closure/`A_max` maintenance pass,
//! (2) mirrors them into the domain's bounded [`ViewWindow`], and (3) runs
//! the retention policy: dominated messages leave the window and dominated
//! samples leave the evidence store, while every `d̃min`/`d̃max` witness is
//! kept. The compaction **never loosens** any `m̃ls` — the §6 estimators
//! depend on the views only through the per-link extrema, which are
//! maintained incrementally and never recomputed from the retained
//! samples — so precision, corrections and certificates are bit-identical
//! to a full-history run (proptested in `tests/service.rs`), and memory
//! stays bounded by the window size regardless of how many messages flow
//! through.

use std::collections::{HashMap, VecDeque};

use clocksync::{Network, OnlineSynchronizer, SyncError, SyncOutcome};
use clocksync_model::{MessageId, MessageObservation, ModelError, ViewWindow};
use clocksync_obs::Recorder;
use clocksync_time::{ClockTime, Nanos};
use rayon::prelude::*;

use crate::{DomainId, ObservationBatch, ServiceError, ShardMap};

/// Per-domain state owned by exactly one shard.
#[derive(Debug)]
struct DomainState {
    online: OnlineSynchronizer,
    window: ViewWindow,
    next_msg_id: u64,
    ingested: u64,
}

/// One shard: the domains it owns, keyed by name.
#[derive(Debug, Default)]
struct Shard {
    domains: HashMap<DomainId, DomainState>,
}

/// What one batch application did (returned by [`SyncService::ingest`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReceipt {
    /// The domain the batch was applied to.
    pub domain: DomainId,
    /// The shard that applied it.
    pub shard: usize,
    /// Observations applied.
    pub applied: usize,
    /// Messages the window's dominated-evidence GC dropped afterwards.
    pub gc_dropped: usize,
    /// Evidence samples the synchronizer's compaction dropped afterwards.
    pub samples_compacted: usize,
    /// Messages the domain's window retains after GC.
    pub retained_messages: usize,
}

/// What one evidence retraction dropped
/// (returned by [`SyncService::forget_link`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForgetReceipt {
    /// Evidence samples dropped from the domain's synchronizer.
    pub samples_dropped: usize,
    /// Messages dropped from the domain's view window.
    pub messages_dropped: usize,
}

/// Point-in-time retention statistics for one domain
/// (see [`SyncService::domain_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainStats {
    /// The shard owning the domain.
    pub shard: usize,
    /// Observations ever ingested.
    pub ingested: u64,
    /// Messages currently retained in the view window.
    pub retained_messages: usize,
    /// Evidence samples currently retained by the synchronizer.
    pub retained_samples: usize,
    /// Approximate bytes held by the view window.
    pub approx_window_bytes: usize,
}

/// The sharded multi-domain ingestion service.
///
/// # Examples
///
/// ```
/// use clocksync::{BatchObservation, DelayRange, LinkAssumption, Network};
/// use clocksync_model::ProcessorId;
/// use clocksync_service::{ObservationBatch, SyncService};
/// use clocksync_time::{ClockTime, Nanos};
///
/// let (p, q) = (ProcessorId(0), ProcessorId(1));
/// let net = Network::builder(2)
///     .link(p, q, LinkAssumption::symmetric_bounds(
///         DelayRange::new(Nanos::ZERO, Nanos::new(1_000))))
///     .build();
/// let mut svc = SyncService::new(4, 64);
/// svc.register_domain("tenant-a", net)?;
/// let receipt = svc.ingest(&ObservationBatch::new("tenant-a", vec![
///     BatchObservation { src: p, dst: q,
///         send_clock: ClockTime::from_nanos(1_000),
///         recv_clock: ClockTime::from_nanos(1_400) },
///     BatchObservation { src: q, dst: p,
///         send_clock: ClockTime::from_nanos(1_500),
///         recv_clock: ClockTime::from_nanos(2_100) },
/// ]))?;
/// assert_eq!(receipt.applied, 2);
/// let outcome = svc.outcome("tenant-a")?;
/// assert!(outcome.precision().is_finite());
/// # Ok::<(), clocksync_service::ServiceError>(())
/// ```
#[derive(Debug)]
pub struct SyncService {
    map: ShardMap,
    shards: Vec<Shard>,
    /// Per-directed-link retention window (messages and samples).
    window: usize,
    recorder: Recorder,
}

impl SyncService {
    /// A service with `shards` shards and a per-directed-link retention
    /// window of `window` messages (plus the extremal witnesses).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, window: usize) -> SyncService {
        let map = ShardMap::new(shards);
        SyncService {
            map,
            shards: (0..shards).map(|_| Shard::default()).collect(),
            window,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a recorder: `svc.ingest` spans per batch plus `svc.*`
    /// gauges (shard/domain counts, retained messages and samples,
    /// approximate retained bytes, last batch depth). Instrumentation
    /// never changes what the service computes.
    pub fn with_recorder(mut self, recorder: Recorder) -> SyncService {
        self.recorder = recorder;
        self
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The number of registered domains.
    pub fn domains(&self) -> usize {
        self.shards.iter().map(|s| s.domains.len()).sum()
    }

    /// The shard a domain is (or would be) pinned to.
    pub fn shard_of(&self, domain: &str) -> usize {
        self.map.route(domain)
    }

    /// Registers a domain with its network specification, pinning it to
    /// its consistent-hash shard.
    ///
    /// # Errors
    ///
    /// [`ServiceError::DuplicateDomain`] if the name is already taken.
    pub fn register_domain(
        &mut self,
        domain: impl Into<DomainId>,
        network: Network,
    ) -> Result<(), ServiceError> {
        let domain = domain.into();
        // Resolve the consistent-hash ring once, here; every batch for
        // this domain afterwards routes via the cached placement.
        let shard = self.map.assign(domain.as_str());
        let n = network.n();
        let slot = &mut self.shards[shard].domains;
        if slot.contains_key(&domain) {
            return Err(ServiceError::DuplicateDomain { domain });
        }
        slot.insert(
            domain,
            DomainState {
                online: OnlineSynchronizer::new(network),
                window: ViewWindow::new(n),
                next_msg_id: 0,
                ingested: 0,
            },
        );
        self.update_gauges();
        Ok(())
    }

    /// Applies one batch to its domain: one validation pass, one
    /// closure/`A_max` maintenance pass, then the bounded-retention GC.
    /// Atomic per batch — on error nothing is recorded.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownDomain`] for an unregistered domain;
    /// [`ServiceError::Sync`] / [`ServiceError::Model`] when the batch
    /// fails validation (out-of-range endpoint, delay overflow, negative
    /// clock reading).
    pub fn ingest(&mut self, batch: &ObservationBatch) -> Result<IngestReceipt, ServiceError> {
        let shard = self.map.route(batch.domain.as_str());
        let recorder = self.recorder.clone();
        let receipt = self.ingest_as_shard(batch, shard, &recorder)?;
        self.update_gauges();
        if self.recorder.is_enabled() {
            self.recorder
                .gauge("svc.batch_depth", batch.observations.len() as f64);
        }
        Ok(receipt)
    }

    /// Applies a batch as [`SyncService::ingest`] does, for a worker that
    /// runs this one-shard service as shard `shard` of a larger engine: the
    /// `svc.ingest` span goes to `recorder` and, like the receipt, names
    /// `shard`. No gauge is published, since this service's shard and
    /// domain counts are not the engine's.
    pub(crate) fn ingest_as_shard(
        &mut self,
        batch: &ObservationBatch,
        shard: usize,
        recorder: &Recorder,
    ) -> Result<IngestReceipt, ServiceError> {
        let window = self.window;
        let state = self.domain_mut(batch.domain.as_str())?;
        apply_batch(state, batch, shard, window, recorder)
    }

    /// Applies many batches, parallelized across shards: each shard's
    /// batches apply sequentially in input order (a domain's evidence is
    /// single-writer), different shards apply concurrently. Results are
    /// returned in input order; batches are independent, so one failing
    /// validation does not stop the others.
    pub fn ingest_many(
        &mut self,
        batches: &[ObservationBatch],
    ) -> Vec<Result<IngestReceipt, ServiceError>> {
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, b) in batches.iter().enumerate() {
            per_shard[self.map.route(b.domain.as_str())].push(i);
        }
        let window = self.window;
        let recorder = self.recorder.clone();
        let per_shard = &per_shard;
        let shard_results: Vec<Vec<(usize, Result<IngestReceipt, ServiceError>)>> = self
            .shards
            .par_iter_mut()
            .enumerate()
            .map(|(shard, owned)| {
                per_shard[shard]
                    .iter()
                    .map(|&i| {
                        let batch = &batches[i];
                        let result = match owned.domains.get_mut(&batch.domain) {
                            Some(state) => apply_batch(state, batch, shard, window, &recorder),
                            None => Err(ServiceError::UnknownDomain {
                                domain: batch.domain.clone(),
                            }),
                        };
                        (i, result)
                    })
                    .collect()
            })
            .collect();
        let mut results: Vec<Option<Result<IngestReceipt, ServiceError>>> =
            (0..batches.len()).map(|_| None).collect();
        for (i, result) in shard_results.into_iter().flatten() {
            results[i] = Some(result);
        }
        self.update_gauges();
        if self.recorder.is_enabled() {
            if let Some(last) = batches.last() {
                self.recorder
                    .gauge("svc.batch_depth", last.observations.len() as f64);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every input index was dispatched to exactly one shard"))
            .collect()
    }

    /// Retracts every observation of the undirected link `{p, q}` in one
    /// domain — the operator action for a replaced or re-cabled link —
    /// from both the synchronizer's evidence store *and* the domain's
    /// bounded view window, so no retained message still carries the
    /// retracted evidence. Both directions' estimates loosen back to
    /// their assumption-only values (the one loosening operation of the
    /// pipeline; it drops the domain's cached closure and `A_max` states,
    /// which the next outcome rebuilds). Returns what was dropped.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownDomain`] for an unregistered domain;
    /// [`ServiceError::Model`] ([`ModelError::UnknownProcessor`]) when an
    /// endpoint is out of range for the domain's network.
    pub fn forget_link(
        &mut self,
        domain: &str,
        p: clocksync_model::ProcessorId,
        q: clocksync_model::ProcessorId,
    ) -> Result<ForgetReceipt, ServiceError> {
        let state = self.domain_mut(domain)?;
        let n = state.online.network().n();
        for endpoint in [p, q] {
            if endpoint.index() >= n {
                return Err(ServiceError::Model(ModelError::UnknownProcessor {
                    processor: endpoint,
                }));
            }
        }
        let samples_dropped = state.online.forget_link(p, q);
        let messages_dropped = state.window.drop_link(p, q);
        self.update_gauges();
        Ok(ForgetReceipt {
            samples_dropped,
            messages_dropped,
        })
    }

    /// The current optimal outcome for one domain.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownDomain`], or [`ServiceError::Sync`] when the
    /// domain's evidence contradicts its declared assumptions.
    pub fn outcome(&mut self, domain: &str) -> Result<SyncOutcome, ServiceError> {
        self.domain_mut(domain)?
            .online
            .outcome()
            .map_err(ServiceError::Sync)
    }

    /// Retention statistics for one domain, `None` if unregistered.
    pub fn domain_stats(&self, domain: &str) -> Option<DomainStats> {
        let shard = self.map.route(domain);
        let state = self.shards[shard].domains.get(&DomainId::from(domain))?;
        Some(DomainStats {
            shard,
            ingested: state.ingested,
            retained_messages: state.window.live(),
            retained_samples: state.online.retained_samples(),
            approx_window_bytes: state.window.approx_bytes(),
        })
    }

    /// Messages retained across every domain's view window.
    pub fn total_retained_messages(&self) -> usize {
        self.for_each_domain(|s| s.window.live())
    }

    /// Evidence samples retained across every domain's synchronizer.
    pub fn total_retained_samples(&self) -> usize {
        self.for_each_domain(|s| s.online.retained_samples())
    }

    /// Approximate bytes held by every domain's view window.
    pub fn approx_retained_bytes(&self) -> usize {
        self.for_each_domain(|s| s.window.approx_bytes())
    }

    fn for_each_domain(&self, f: impl Fn(&DomainState) -> usize) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.domains.values())
            .map(f)
            .sum()
    }

    fn domain_mut(&mut self, domain: &str) -> Result<&mut DomainState, ServiceError> {
        let shard = self.map.route(domain);
        self.shards[shard]
            .domains
            .get_mut(&DomainId::from(domain))
            .ok_or_else(|| ServiceError::UnknownDomain {
                domain: DomainId::from(domain),
            })
    }

    fn update_gauges(&self) {
        if !self.recorder.is_enabled() {
            return;
        }
        self.recorder.gauge("svc.shards", self.shards() as f64);
        self.recorder.gauge("svc.domains", self.domains() as f64);
        self.recorder.gauge(
            "svc.retained_messages",
            self.total_retained_messages() as f64,
        );
        self.recorder
            .gauge("svc.retained_samples", self.total_retained_samples() as f64);
        self.recorder.gauge(
            "svc.approx_retained_bytes",
            self.approx_retained_bytes() as f64,
        );
    }
}

/// Batches at least this large take the pre-compaction fast path in
/// [`apply_batch`]. The threshold sits well above any interactive batch
/// size so the per-batch path keeps its exact per-message accounting;
/// only group-commit runs merged from queued-up batches cross it.
const PRECOMPACT_MIN: usize = 512;

/// Computes, for one large observation run, which entries could survive
/// the post-ingest [`ViewWindow::gc_dominated`] pass: per directed
/// pair, the last `window` arrivals plus the delay-extremal witnesses,
/// using the same tie-breaks as the GC (earliest position wins the
/// minimum, latest wins the maximum). Returns the keep-mask and the
/// number of entries masked out.
///
/// Pushing only the kept entries and GC-ing once leaves the window
/// bit-identical to pushing everything and GC-ing once: the global
/// recency tail of (prior ∪ run) is a subset of the run's own tail
/// whenever the run has ≥ `window` entries for a pair (and the whole
/// run is kept otherwise), and each global extremal witness is either a
/// prior entry (untouched) or the run's own witness under the matching
/// tie-break.
fn precompact_run(
    observations: &[crate::BatchObservation],
    n: usize,
    window: usize,
) -> (Vec<bool>, usize) {
    struct PairState {
        min: (Nanos, usize),
        max: (Nanos, usize),
        tail: VecDeque<usize>,
    }
    // Flat pair table (`src * n + dst`): the hot loop runs once per
    // coalesced message, so even hashing a pair key would show up.
    let mut pairs: Vec<Option<PairState>> = Vec::new();
    pairs.resize_with(n * n, || None);
    for (i, obs) in observations.iter().enumerate() {
        // Validated by the caller; the GC conservatively keeps an
        // overflowing entry, so refuse to compact a run holding one.
        let Some(delay) = obs.recv_clock.checked_sub(obs.send_clock) else {
            return (vec![true; observations.len()], 0);
        };
        let entry = pairs[obs.src.index() * n + obs.dst.index()].get_or_insert_with(|| PairState {
            min: (delay, i),
            max: (delay, i),
            tail: VecDeque::with_capacity(window + 1),
        });
        if delay < entry.min.0 {
            entry.min = (delay, i);
        }
        if delay >= entry.max.0 {
            entry.max = (delay, i);
        }
        entry.tail.push_back(i);
        if entry.tail.len() > window {
            entry.tail.pop_front();
        }
    }
    let mut keep = vec![false; observations.len()];
    for state in pairs.iter().flatten() {
        keep[state.min.1] = true;
        keep[state.max.1] = true;
        for &i in &state.tail {
            keep[i] = true;
        }
    }
    let dropped = keep.iter().filter(|&&k| !k).count();
    (keep, dropped)
}

/// Applies one batch to one domain's state. Free function so the
/// shard-parallel path can call it without borrowing the whole service.
fn apply_batch(
    state: &mut DomainState,
    batch: &ObservationBatch,
    shard: usize,
    window: usize,
    recorder: &Recorder,
) -> Result<IngestReceipt, ServiceError> {
    let mut span = recorder.span("svc.ingest");
    span.field("domain", batch.domain.as_str());
    span.field("shard", shard);
    span.field("batch", batch.observations.len());
    // Validate the whole batch up front, in the same order the view
    // window checks (endpoint range, then clock overflow, then readings
    // before the start event), so the synchronizer and the window cannot
    // diverge: once this passes, both apply the batch in full.
    let n = state.online.network().n();
    for obs in &batch.observations {
        if obs.src.index() >= n || obs.dst.index() >= n {
            let processor = if obs.src.index() >= n {
                obs.src
            } else {
                obs.dst
            };
            return Err(ServiceError::Model(ModelError::UnknownProcessor {
                processor,
            }));
        }
        if obs.recv_clock.checked_sub(obs.send_clock).is_none() {
            return Err(ServiceError::Sync(SyncError::Overflow {
                src: obs.src,
                dst: obs.dst,
            }));
        }
        if obs.send_clock < ClockTime::ZERO || obs.recv_clock < ClockTime::ZERO {
            let processor = if obs.send_clock < ClockTime::ZERO {
                obs.src
            } else {
                obs.dst
            };
            return Err(ServiceError::Model(ModelError::UnorderedView { processor }));
        }
    }
    let applied = state
        .online
        .ingest_batch(&batch.observations)
        .map_err(ServiceError::Sync)?;
    // Large batches (the group-commit path coalesces thousands of
    // messages into one run) are pre-compacted before touching the
    // window: dominated evidence never pays the per-message window
    // bookkeeping, which profiling puts at ~80% of ingestion cost. The
    // retained set is bit-identical to pushing everything and GC-ing
    // once. The synchronizer above has already absorbed every
    // observation, so no estimate ever sees the difference.
    let (keep, pre_dropped) = if batch.observations.len() >= PRECOMPACT_MIN {
        let (keep, dropped) = precompact_run(&batch.observations, n, window);
        (Some(keep), dropped)
    } else {
        (None, 0)
    };
    for (i, obs) in batch.observations.iter().enumerate() {
        if keep.as_ref().is_some_and(|keep| !keep[i]) {
            continue;
        }
        let id = MessageId(state.next_msg_id);
        state.next_msg_id += 1;
        state
            .window
            .push(MessageObservation {
                src: obs.src,
                dst: obs.dst,
                id,
                send_clock: obs.send_clock,
                recv_clock: obs.recv_clock,
            })
            .map_err(ServiceError::Model)?;
    }
    state.ingested += applied as u64;
    let gc_dropped = pre_dropped + state.window.gc_dominated(window);
    let samples_compacted = state.online.compact_evidence(window);
    span.field("gc_dropped", gc_dropped);
    span.field("samples_compacted", samples_compacted);
    span.finish();
    Ok(IngestReceipt {
        domain: batch.domain.clone(),
        shard,
        applied,
        gc_dropped,
        samples_compacted,
        retained_messages: state.window.live(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksync::{BatchObservation, DelayRange, LinkAssumption, SyncError};
    use clocksync_model::ProcessorId;
    use clocksync_time::Nanos;

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

    fn obs(src: ProcessorId, dst: ProcessorId, send: i64, recv: i64) -> BatchObservation {
        BatchObservation {
            src,
            dst,
            send_clock: ClockTime::from_nanos(send),
            recv_clock: ClockTime::from_nanos(recv),
        }
    }

    #[test]
    fn unknown_and_duplicate_domains_are_reported() {
        let mut svc = SyncService::new(2, 8);
        svc.register_domain("a", net()).unwrap();
        assert!(matches!(
            svc.register_domain("a", net()),
            Err(ServiceError::DuplicateDomain { .. })
        ));
        assert!(matches!(
            svc.ingest(&ObservationBatch::new("ghost", vec![])),
            Err(ServiceError::UnknownDomain { .. })
        ));
        assert!(svc.outcome("ghost").is_err());
        assert!(svc.domain_stats("ghost").is_none());
    }

    #[test]
    fn windowed_ingestion_stays_bounded_and_exact() {
        let mut svc = SyncService::new(2, 4);
        svc.register_domain("a", net()).unwrap();
        // A full-history reference synchronizer fed the same stream.
        let mut reference = OnlineSynchronizer::new(net());
        for round in 0..50i64 {
            let t = 1_000 * round;
            let batch = ObservationBatch::new(
                "a",
                vec![
                    obs(P, Q, t, t + 400 + round % 7),
                    obs(Q, P, t + 500, t + 900 - round % 5),
                ],
            );
            reference.ingest_batch(&batch.observations).unwrap();
            svc.ingest(&batch).unwrap();
        }
        // Bounded: both directions hold at most window + 2 witnesses.
        let stats = svc.domain_stats("a").unwrap();
        assert_eq!(stats.ingested, 100);
        assert!(stats.retained_messages <= 2 * (4 + 2));
        assert!(stats.retained_samples <= 2 * (4 + 2));
        // Exact: the windowed outcome equals the full-history outcome.
        assert_eq!(svc.outcome("a").unwrap(), reference.outcome().unwrap());
    }

    #[test]
    fn retention_stays_bounded_with_traffic_off_the_declared_links() {
        // Three processors and one declared link 0–1: the wire accepts
        // 0 → 2 and 2 → 2, whose samples no estimator reads, so keeping
        // them would grow memory without bound.
        let r = ProcessorId(2);
        let window = 8;
        let net = Network::builder(3)
            .link(
                P,
                Q,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(1_000))),
            )
            .build();
        let mut svc = SyncService::new(1, window);
        svc.register_domain("a", net).unwrap();
        for round in 0..1_000i64 {
            let observations = (0..64i64)
                .flat_map(|i| {
                    let t = 100_000 * round + 1_000 * i;
                    [
                        obs(P, Q, t, t + 400),
                        obs(P, r, t, t + 300),
                        obs(r, r, t, t + 7),
                    ]
                })
                .collect();
            let receipt = svc
                .ingest(&ObservationBatch::new("a", observations))
                .unwrap();
            assert_eq!(receipt.applied, 192);
            let stats = svc.domain_stats("a").unwrap();
            assert!(
                stats.retained_samples <= 2 * (window + 2),
                "round {round}: {} samples retained",
                stats.retained_samples
            );
        }
    }

    #[test]
    fn precompaction_matches_the_full_push_and_gc() {
        use clocksync_model::ViewWindow;
        let window = 3;
        // A run big enough for the group-commit fast path, spread over
        // both directions with repeated (tied) extremal delays.
        let run: Vec<BatchObservation> = (0..PRECOMPACT_MIN as i64 + 137)
            .map(|i| {
                let (src, dst) = if i % 3 == 0 { (P, Q) } else { (Q, P) };
                let delay = 200 + (i * 37) % 600;
                obs(src, dst, 1_000 * i, 1_000 * i + delay)
            })
            .collect();
        let (keep, dropped) = precompact_run(&run, 2, window);
        assert_eq!(dropped, keep.iter().filter(|&&k| !k).count());
        assert!(dropped > run.len() / 2, "the mask should bite");

        // Prior evidence already sitting in the window exercises the
        // prior ∪ run half of the identity argument (its delays tie the
        // run's extremes, so the witness tie-breaks are load-bearing).
        let prior = [obs(P, Q, 10, 210), obs(Q, P, 20, 819)];
        let retained = |kept_only: bool| {
            let mut w = ViewWindow::new(2);
            for (next, o) in prior
                .iter()
                .chain(
                    run.iter()
                        .zip(&keep)
                        .filter(|&(_, &k)| k || !kept_only)
                        .map(|(o, _)| o),
                )
                .enumerate()
            {
                w.push(MessageObservation {
                    src: o.src,
                    dst: o.dst,
                    id: MessageId(next as u64),
                    send_clock: o.send_clock,
                    recv_clock: o.recv_clock,
                })
                .unwrap();
            }
            w.gc_dominated(window);
            w.live_messages()
                .map(|m| (m.src, m.dst, m.send_clock, m.recv_clock))
                .collect::<Vec<_>>()
        };
        // The retained evidence (ignoring message ids, which number the
        // pushes) is bit-identical with and without the mask.
        assert_eq!(retained(true), retained(false));

        // And end-to-end: one big batch through the service agrees with
        // the same stream chunked below the threshold, on the outcome
        // and on the extremal evidence.
        let mut big = SyncService::new(1, window);
        let mut small = SyncService::new(1, window);
        big.register_domain("a", net()).unwrap();
        small.register_domain("a", net()).unwrap();
        let receipt = big
            .ingest(&ObservationBatch::new("a", run.clone()))
            .unwrap();
        assert_eq!(receipt.applied, run.len());
        let mut chunk_dropped = 0;
        for chunk in run.chunks(64) {
            chunk_dropped += small
                .ingest(&ObservationBatch::new("a", chunk.to_vec()))
                .unwrap()
                .gc_dropped;
        }
        assert_eq!(big.outcome("a").unwrap(), small.outcome("a").unwrap());
        let (b, s) = (
            big.domain_stats("a").unwrap(),
            small.domain_stats("a").unwrap(),
        );
        assert_eq!(b.ingested, s.ingested);
        assert!(b.retained_messages <= 2 * (window + 2));
        // Every message not retained is accounted as dropped, on both
        // paths.
        assert_eq!(receipt.gc_dropped, run.len() - b.retained_messages);
        assert_eq!(chunk_dropped, run.len() - s.retained_messages);
    }

    #[test]
    fn forget_link_drops_evidence_and_window_together() {
        let mut svc = SyncService::new(1, 8);
        svc.register_domain("a", net()).unwrap();
        svc.ingest(&ObservationBatch::new(
            "a",
            vec![obs(P, Q, 0, 400), obs(Q, P, 500, 900)],
        ))
        .unwrap();
        assert!(svc.outcome("a").unwrap().precision().is_finite());
        let receipt = svc.forget_link("a", Q, P).unwrap();
        assert_eq!(receipt.samples_dropped, 2);
        assert_eq!(receipt.messages_dropped, 2);
        // Estimates loosened back to assumption-only knowledge, and the
        // window no longer holds the retracted messages.
        assert!(!svc.outcome("a").unwrap().precision().is_finite());
        let stats = svc.domain_stats("a").unwrap();
        assert_eq!(stats.retained_messages, 0);
        assert_eq!(stats.retained_samples, 0);
        // Typed errors for bad targets; nothing is dropped on error.
        assert!(matches!(
            svc.forget_link("ghost", P, Q),
            Err(ServiceError::UnknownDomain { .. })
        ));
        assert!(matches!(
            svc.forget_link("a", P, ProcessorId(9)),
            Err(ServiceError::Model(ModelError::UnknownProcessor { .. }))
        ));
    }

    #[test]
    fn bad_batches_leave_no_trace() {
        let mut svc = SyncService::new(1, 8);
        svc.register_domain("a", net()).unwrap();
        let overflow = ObservationBatch::new("a", vec![obs(P, Q, i64::MIN, i64::MAX)]);
        assert!(matches!(
            svc.ingest(&overflow),
            Err(ServiceError::Sync(SyncError::Overflow { .. }))
        ));
        let negative = ObservationBatch::new("a", vec![obs(P, Q, -10, 50)]);
        assert!(matches!(
            svc.ingest(&negative),
            Err(ServiceError::Model(ModelError::UnorderedView { .. }))
        ));
        let stats = svc.domain_stats("a").unwrap();
        assert_eq!(stats.ingested, 0);
        assert_eq!(stats.retained_messages, 0);
        assert_eq!(stats.retained_samples, 0);
    }

    #[test]
    fn ingest_many_matches_sequential_ingest() {
        let domains = ["a", "b", "c", "d", "e"];
        let mut parallel = SyncService::new(4, 8);
        let mut sequential = SyncService::new(4, 8);
        for d in domains {
            parallel.register_domain(d, net()).unwrap();
            sequential.register_domain(d, net()).unwrap();
        }
        let batches: Vec<ObservationBatch> = (0..20)
            .map(|i| {
                let t = 1_000 * i as i64;
                ObservationBatch::new(
                    domains[i % domains.len()],
                    vec![obs(P, Q, t, t + 300), obs(Q, P, t + 400, t + 800)],
                )
            })
            .collect();
        let receipts = parallel.ingest_many(&batches);
        assert_eq!(receipts.len(), 20);
        for (batch, receipt) in batches.iter().zip(&receipts) {
            let expected = sequential.ingest(batch).unwrap();
            assert_eq!(receipt.as_ref().unwrap(), &expected);
        }
        for d in domains {
            assert_eq!(parallel.outcome(d).unwrap(), sequential.outcome(d).unwrap());
        }
    }

    #[test]
    fn gauges_and_spans_are_recorded() {
        let recorder = Recorder::enabled();
        let mut svc = SyncService::new(2, 8).with_recorder(recorder.clone());
        svc.register_domain("a", net()).unwrap();
        svc.ingest(&ObservationBatch::new(
            "a",
            vec![obs(P, Q, 0, 400), obs(Q, P, 500, 900)],
        ))
        .unwrap();
        let trace = recorder.snapshot();
        assert!(trace.span_names().contains(&"svc.ingest"));
        assert_eq!(trace.gauge("svc.shards"), Some(2.0));
        assert_eq!(trace.gauge("svc.domains"), Some(1.0));
        assert_eq!(trace.gauge("svc.retained_messages"), Some(2.0));
        assert_eq!(trace.gauge("svc.batch_depth"), Some(2.0));
        assert!(trace.gauge("svc.approx_retained_bytes").unwrap() > 0.0);
    }
}
