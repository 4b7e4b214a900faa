//! The concurrent ingestion engine: one dedicated worker thread per
//! shard, fed by a bounded FIFO queue.
//!
//! [`SyncService`] applies batches on the caller's thread; this module
//! moves each shard onto its own worker so ingestion scales with cores.
//! The moving parts:
//!
//! * **Ownership** — every worker owns its shard's domain state outright
//!   (a single-shard [`SyncService`]); nothing is shared, nothing is
//!   locked on the apply path. The front-end routes by the placement the
//!   [`ShardMap`](crate::ShardMap) cached at registration time.
//! * **One request path** — a shard's queue carries two kinds of job: a
//!   batch to ingest, and a call that runs on the worker.
//!   Registration, outcomes, retractions and statistics are calls; each
//!   waits for its answer, and a worker that is gone answers
//!   [`ServiceError::Stopped`].
//! * **Bounded queues** — each shard's queue is a bounded
//!   [`std::sync::mpsc::sync_channel`], and [`ConcurrentService::ingest`]
//!   blocks while it is full, so backpressure propagates to the producer.
//!   The `svc.queue_depth` gauge and the `svc.ingest_wait` histogram
//!   show it.
//! * **Group commit** — a worker drains every batch already queued (up to
//!   [`ServiceConfig::max_coalesce`]) and applies the batches of each
//!   domain as **one** merged pass: one closure/`A_max` maintenance pass
//!   and one retention GC for the whole group instead of one per batch.
//!   Outcomes are bit-identical to sequential per-batch application —
//!   the estimators depend on the evidence only through per-link
//!   aggregates, which are order- and chunking-independent (proptested in
//!   `tests/concurrent.rs`) — so coalescing is pure amortization: it
//!   raises saturated throughput even on a single core, and stacks with
//!   thread parallelism on many.
//! * **Receipts** — `ingest` returns a [`PendingReceipt`] immediately
//!   (the pipeline stays full); the receipt arrives on a reply channel
//!   when the worker applies the batch. Within a coalesced group the GC
//!   accounting (`gc_dropped`, `samples_compacted`) is attributed to the
//!   group's last batch per domain; `applied` is always exact per batch.
//! * **Ordering** — each domain's batches apply in enqueue order (one
//!   FIFO queue per shard, one shard per domain). Calls ride the same
//!   queue, and a call found while a group is forming runs once that
//!   group is applied, so an outcome observes every batch enqueued
//!   before it — no stale reads.
//! * **Drain & shutdown** — dropping the senders ends the stream;
//!   workers drain everything still queued before exiting, so no receipt
//!   is lost and no batch is dropped. [`ConcurrentService::shutdown`]
//!   joins the workers and returns their final [`PoolStats`];
//!   [`ConcurrentService::stats`] snapshots them without stopping them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use clocksync::{Network, SyncOutcome};
use clocksync_model::ProcessorId;
use clocksync_obs::Recorder;

use crate::{
    DomainId, DomainStats, ForgetReceipt, IngestReceipt, ObservationBatch, ServiceError, ShardMap,
    SyncService,
};

/// Parameters of a [`ConcurrentService`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Shards, each with its own worker thread and queue.
    pub shards: usize,
    /// Per-directed-link retention window (messages and samples).
    pub window: usize,
    /// Bounded depth of each shard's ingestion queue, in batches. When a
    /// queue is full, `ingest` blocks.
    pub queue_depth: usize,
    /// Most batches a worker merges into one apply pass (group commit).
    /// Larger groups amortize the per-batch closure/GC maintenance
    /// further but delay receipts; the default keeps worst-case receipt
    /// latency at one group.
    pub max_coalesce: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            shards: 4,
            window: 64,
            queue_depth: 256,
            max_coalesce: 32,
        }
    }
}

/// What one worker did, snapshotted by [`ConcurrentService::stats`] or at
/// shutdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// The worker's shard.
    pub shard: usize,
    /// Domains the worker owns.
    pub domains: usize,
    /// Ingest jobs processed (including rejected batches).
    pub batches: u64,
    /// Observations applied.
    pub messages: u64,
    /// Batches rejected with a typed error.
    pub errors: u64,
    /// Coalesced apply groups flushed.
    pub groups: u64,
    /// Largest group flushed, in batches.
    pub max_group: usize,
    /// Messages retained in the worker's view windows right now.
    pub retained_messages: usize,
    /// Evidence samples retained by the worker's synchronizers right now.
    pub retained_samples: usize,
    /// Approximate bytes held by the worker's view windows right now.
    pub approx_retained_bytes: usize,
    /// Highest `retained_messages` this worker observed after any flush.
    pub peak_retained_messages: usize,
}

/// Aggregated worker statistics (from [`ConcurrentService::stats`] or
/// [`ConcurrentService::shutdown`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Per-worker statistics, indexed by shard.
    pub workers: Vec<WorkerStats>,
}

impl PoolStats {
    /// Observations applied across all workers.
    pub fn messages(&self) -> u64 {
        self.workers.iter().map(|w| w.messages).sum()
    }

    /// Ingest jobs processed across all workers.
    pub fn batches(&self) -> u64 {
        self.workers.iter().map(|w| w.batches).sum()
    }

    /// Batches rejected with typed errors across all workers.
    pub fn errors(&self) -> u64 {
        self.workers.iter().map(|w| w.errors).sum()
    }

    /// Messages retained across every worker's view windows.
    pub fn total_retained_messages(&self) -> usize {
        self.workers.iter().map(|w| w.retained_messages).sum()
    }

    /// Evidence samples retained across every worker's synchronizers.
    pub fn total_retained_samples(&self) -> usize {
        self.workers.iter().map(|w| w.retained_samples).sum()
    }

    /// Approximate bytes held across every worker's view windows.
    pub fn approx_retained_bytes(&self) -> usize {
        self.workers.iter().map(|w| w.approx_retained_bytes).sum()
    }

    /// Sum of each worker's peak retention. The workers hit their peaks
    /// at different moments, so this bounds (from above) the true global
    /// peak — the right side to compare against the analytic cap.
    pub fn peak_retained_messages(&self) -> usize {
        self.workers.iter().map(|w| w.peak_retained_messages).sum()
    }
}

/// One queued batch: its reply slot, and its enqueue time for the
/// `svc.batch_latency` histogram.
struct IngestJob {
    batch: ObservationBatch,
    enqueued: Instant,
    reply: mpsc::Sender<Result<IngestReceipt, ServiceError>>,
}

/// What a shard's queue carries: a batch, which the worker may commit in
/// a group with the batches queued behind it, or a call, which runs on
/// the worker in queue order.
enum Job {
    Ingest(IngestJob),
    Call(Box<dyn FnOnce(&mut Worker) + Send>),
}

/// A receipt that has been enqueued but not yet applied. Obtained from
/// [`ConcurrentService::ingest`]; redeem it with [`PendingReceipt::wait`].
#[derive(Debug)]
pub struct PendingReceipt {
    shard: usize,
    rx: mpsc::Receiver<Result<IngestReceipt, ServiceError>>,
}

impl PendingReceipt {
    /// Blocks until the worker applied (or rejected) the batch.
    ///
    /// # Errors
    ///
    /// The batch's own typed error, or [`ServiceError::Stopped`] if the
    /// worker died before replying.
    pub fn wait(self) -> Result<IngestReceipt, ServiceError> {
        self.rx
            .recv()
            .unwrap_or(Err(ServiceError::Stopped { shard: self.shard }))
    }
}

/// The sharded ingestion engine with one worker thread per shard.
///
/// All methods take `&self`: the front-end is safe to share across
/// producer threads (a TCP acceptor's connection handlers, parallel load
/// drivers), and the per-shard FIFO queues serialize each domain's
/// batches regardless of which producer enqueued them.
///
/// # Examples
///
/// ```
/// use clocksync::{BatchObservation, DelayRange, LinkAssumption, Network};
/// use clocksync_model::ProcessorId;
/// use clocksync_service::{ConcurrentService, ObservationBatch, ServiceConfig};
/// use clocksync_time::{ClockTime, Nanos};
///
/// let (p, q) = (ProcessorId(0), ProcessorId(1));
/// let net = Network::builder(2)
///     .link(p, q, LinkAssumption::symmetric_bounds(
///         DelayRange::new(Nanos::ZERO, Nanos::new(1_000))))
///     .build();
/// let svc = ConcurrentService::start(ServiceConfig {
///     shards: 2,
///     ..ServiceConfig::default()
/// });
/// svc.register_domain("tenant-a", net)?;
/// let pending = svc.ingest(ObservationBatch::new("tenant-a", vec![
///     BatchObservation { src: p, dst: q,
///         send_clock: ClockTime::from_nanos(1_000),
///         recv_clock: ClockTime::from_nanos(1_400) },
///     BatchObservation { src: q, dst: p,
///         send_clock: ClockTime::from_nanos(1_500),
///         recv_clock: ClockTime::from_nanos(2_100) },
/// ]))?;
/// assert_eq!(pending.wait()?.applied, 2);
/// let outcome = svc.outcome("tenant-a")?; // observes the batch above
/// assert!(outcome.precision().is_finite());
/// let stats = svc.shutdown();
/// assert_eq!(stats.messages(), 2);
/// # Ok::<(), clocksync_service::ServiceError>(())
/// ```
#[derive(Debug)]
pub struct ConcurrentService {
    map: RwLock<ShardMap>,
    senders: Vec<SyncSender<Job>>,
    depths: Vec<Arc<AtomicUsize>>,
    handles: Vec<JoinHandle<WorkerStats>>,
    recorder: Recorder,
}

impl ConcurrentService {
    /// Spawns one worker thread per shard and returns the front-end.
    ///
    /// # Panics
    ///
    /// Panics if `shards`, `queue_depth` or `max_coalesce` is zero.
    pub fn start(config: ServiceConfig) -> ConcurrentService {
        ConcurrentService::start_with_recorder(config, Recorder::disabled())
    }

    /// Like [`ConcurrentService::start`], with queue metrics
    /// (`svc.queue_depth` gauge, `svc.ingest_wait` / `svc.batch_latency`
    /// histograms) reported to `recorder`. Instrumentation never changes
    /// what the service computes.
    ///
    /// # Panics
    ///
    /// Panics if `shards`, `queue_depth` or `max_coalesce` is zero.
    pub fn start_with_recorder(config: ServiceConfig, recorder: Recorder) -> ConcurrentService {
        assert!(config.shards > 0, "the service needs at least one shard");
        assert!(config.queue_depth > 0, "queues need a positive depth");
        assert!(config.max_coalesce > 0, "groups need a positive size");
        let mut senders = Vec::with_capacity(config.shards);
        let mut depths = Vec::with_capacity(config.shards);
        let mut handles = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth);
            let depth = Arc::new(AtomicUsize::new(0));
            let worker = Worker {
                shard,
                service: SyncService::new(1, config.window),
                depth: Arc::clone(&depth),
                recorder: recorder.clone(),
                max_coalesce: config.max_coalesce,
                stats: WorkerStats {
                    shard,
                    ..WorkerStats::default()
                },
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("clocksync-shard-{shard}"))
                    .spawn(move || worker.run(rx))
                    .expect("spawning a shard worker thread"),
            );
            senders.push(tx);
            depths.push(depth);
        }
        ConcurrentService {
            map: RwLock::new(ShardMap::new(config.shards)),
            senders,
            depths,
            handles,
            recorder,
        }
    }

    /// The shard a domain is (or would be) pinned to.
    pub fn shard_of(&self, domain: &str) -> usize {
        self.map.read().expect("shard map poisoned").route(domain)
    }

    /// Registers a domain on its consistent-hash shard (a blocking
    /// round-trip to the owning worker) and caches the placement so every
    /// later batch routes without re-hashing the ring.
    ///
    /// # Errors
    ///
    /// [`ServiceError::DuplicateDomain`] if the name is taken,
    /// [`ServiceError::Stopped`] if the worker is gone.
    pub fn register_domain(
        &self,
        domain: impl Into<DomainId>,
        network: Network,
    ) -> Result<(), ServiceError> {
        let domain = domain.into();
        let shard = self
            .map
            .write()
            .expect("shard map poisoned")
            .assign(domain.as_str());
        self.call(shard, move |worker| {
            let registered = worker.service.register_domain(domain, network);
            if registered.is_ok() {
                worker.stats.domains += 1;
            }
            registered
        })?
    }

    /// Enqueues a batch on its domain's shard, **blocking while the
    /// queue is full** (backpressure propagates to the producer). Returns
    /// as soon as the batch is queued; redeem the [`PendingReceipt`] for
    /// the application result.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Stopped`] if the shard's worker is gone. Batch
    /// validation errors are *not* reported here — they arrive typed on
    /// the receipt, in enqueue order, exactly as sequential ingestion
    /// would report them.
    pub fn ingest(&self, batch: ObservationBatch) -> Result<PendingReceipt, ServiceError> {
        let shard = self.shard_of(batch.domain.as_str());
        let (reply, rx) = mpsc::channel();
        let job = Job::Ingest(IngestJob {
            batch,
            enqueued: Instant::now(),
            reply,
        });
        let depth = self.depths[shard].fetch_add(1, Ordering::Relaxed) + 1;
        let started = self.recorder.is_enabled().then(|| {
            self.recorder.gauge("svc.queue_depth", depth as f64);
            Instant::now()
        });
        let sent = self.senders[shard].send(job);
        if let Some(started) = started {
            self.recorder.observe_ns(
                "svc.ingest_wait",
                u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        if sent.is_err() {
            self.depths[shard].fetch_sub(1, Ordering::Relaxed);
            return Err(ServiceError::Stopped { shard });
        }
        Ok(PendingReceipt { shard, rx })
    }

    /// The current optimal outcome for one domain. The query rides the
    /// shard's FIFO queue, so it observes every batch enqueued before it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownDomain`], [`ServiceError::Sync`] when the
    /// domain's evidence contradicts its declared assumptions, or
    /// [`ServiceError::Stopped`] if the worker is gone.
    pub fn outcome(&self, domain: &str) -> Result<SyncOutcome, ServiceError> {
        let domain = DomainId::from(domain);
        self.call(self.shard_of(domain.as_str()), move |worker| {
            worker.service.outcome(domain.as_str())
        })?
    }

    /// Retracts every observation of the undirected link `{p, q}` in one
    /// domain (see [`SyncService::forget_link`]). The retraction rides
    /// the shard's FIFO queue, so it applies after every batch enqueued
    /// before it and before every batch enqueued after — exactly the
    /// sequential interleaving.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownDomain`], [`ServiceError::Model`] for an
    /// out-of-range endpoint, or [`ServiceError::Stopped`] if the worker
    /// is gone.
    pub fn forget_link(
        &self,
        domain: &str,
        p: ProcessorId,
        q: ProcessorId,
    ) -> Result<ForgetReceipt, ServiceError> {
        let domain = DomainId::from(domain);
        self.call(self.shard_of(domain.as_str()), move |worker| {
            worker.service.forget_link(domain.as_str(), p, q)
        })?
    }

    /// Retention statistics for one domain (`None` if unregistered or the
    /// worker is gone), observing every batch enqueued before the call.
    pub fn domain_stats(&self, domain: &str) -> Option<DomainStats> {
        let domain = DomainId::from(domain);
        self.call(self.shard_of(domain.as_str()), move |worker| {
            let stats = worker.service.domain_stats(domain.as_str())?;
            Some(DomainStats {
                shard: worker.shard,
                ..stats
            })
        })
        .ok()?
    }

    /// A statistics snapshot of every worker, each taken after the worker
    /// applied everything enqueued on its shard before this call. The
    /// service keeps running; a worker that is gone is left out.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: (0..self.senders.len())
                .filter_map(|shard| self.call(shard, Worker::snapshot).ok())
                .collect(),
        }
    }

    /// Drains and stops the service: closes every queue, waits for the
    /// workers to apply everything still enqueued (no receipt is lost, no
    /// batch is dropped), joins them, and returns their final statistics.
    pub fn shutdown(self) -> PoolStats {
        let ConcurrentService {
            senders, handles, ..
        } = self;
        drop(senders); // closes the queues; workers drain and exit
        PoolStats {
            workers: handles
                .into_iter()
                .map(|h| h.join().expect("a shard worker panicked"))
                .collect(),
        }
    }

    /// Runs `f` on `shard`'s worker after every job enqueued there before
    /// it, and waits for its answer.
    fn call<T: Send + 'static>(
        &self,
        shard: usize,
        f: impl FnOnce(&mut Worker) -> T + Send + 'static,
    ) -> Result<T, ServiceError> {
        let (tx, rx) = mpsc::channel();
        let job = Job::Call(Box::new(move |worker| {
            let _ = tx.send(f(worker));
        }));
        self.senders[shard]
            .send(job)
            .map_err(|_| ServiceError::Stopped { shard })?;
        rx.recv().map_err(|_| ServiceError::Stopped { shard })
    }
}

/// A shard worker: owns its domains' state, applies queued batches in
/// coalesced groups, runs calls in queue order.
struct Worker {
    shard: usize,
    service: SyncService,
    depth: Arc<AtomicUsize>,
    recorder: Recorder,
    max_coalesce: usize,
    stats: WorkerStats,
}

impl Worker {
    fn run(mut self, rx: Receiver<Job>) -> WorkerStats {
        // A call found while a group was forming; it runs once the group
        // is applied, so queue order holds.
        let mut held: Option<Job> = None;
        // The loop ends when every sender is dropped and the queue is
        // drained: everything enqueued before shutdown was applied.
        while let Some(job) = held.take().or_else(|| rx.recv().ok()) {
            match job {
                Job::Ingest(first) => {
                    let mut group = vec![first];
                    while group.len() < self.max_coalesce {
                        match rx.try_recv() {
                            Ok(Job::Ingest(job)) => group.push(job),
                            Ok(call) => {
                                held = Some(call);
                                break;
                            }
                            Err(_) => break,
                        }
                    }
                    self.flush(group);
                }
                Job::Call(f) => f(&mut self),
            }
        }
        self.snapshot()
    }

    /// The worker's statistics, with its retention read now.
    fn snapshot(&mut self) -> WorkerStats {
        self.refresh_retention();
        self.stats.clone()
    }

    /// Applies one coalesced group: the batches of each domain merge into
    /// a single apply pass (one closure/`A_max` maintenance pass, one
    /// retention GC), receipts go out per batch in enqueue order.
    fn flush(&mut self, group: Vec<IngestJob>) {
        self.depth.fetch_sub(group.len(), Ordering::Relaxed);
        self.stats.batches += group.len() as u64;
        self.stats.groups += 1;
        self.stats.max_group = self.stats.max_group.max(group.len());

        // Partition into per-domain runs, preserving enqueue order within
        // each domain (cross-domain order is immaterial: domains are
        // independent).
        let mut runs: Vec<(DomainId, Vec<IngestJob>)> = Vec::new();
        let mut index: HashMap<DomainId, usize> = HashMap::new();
        for job in group {
            match index.get(&job.batch.domain) {
                Some(&at) => runs[at].1.push(job),
                None => {
                    index.insert(job.batch.domain.clone(), runs.len());
                    runs.push((job.batch.domain.clone(), Vec::from([job])));
                }
            }
        }
        drop(index);

        let traced = self.recorder.is_enabled();
        for (domain, jobs) in runs {
            let results = self.apply_run(&domain, &jobs);
            debug_assert_eq!(results.len(), jobs.len());
            for (job, result) in jobs.into_iter().zip(results) {
                if result.is_err() {
                    self.stats.errors += 1;
                }
                if traced {
                    self.recorder.observe_ns(
                        "svc.batch_latency",
                        u64::try_from(job.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    );
                }
                let _ = job.reply.send(result);
            }
        }
        self.refresh_retention();
    }

    /// Applies one domain's run of batches, returning one result per
    /// batch in order. The fast path merges the run into a single batch;
    /// if the merged apply rejects (some batch carries invalid
    /// observations), it falls back to sequential per-batch application,
    /// which yields exactly the receipts and typed errors a sequential
    /// ingestion would — rejected batches never touch state, so the two
    /// paths leave identical evidence behind.
    fn apply_run(
        &mut self,
        domain: &DomainId,
        jobs: &[IngestJob],
    ) -> Vec<Result<IngestReceipt, ServiceError>> {
        if jobs.len() > 1 {
            let total = jobs.iter().map(|j| j.batch.observations.len()).sum();
            let mut observations = Vec::with_capacity(total);
            for job in jobs {
                observations.extend_from_slice(&job.batch.observations);
            }
            let merged = ObservationBatch::new(domain.clone(), observations);
            if let Ok(receipt) = self
                .service
                .ingest_as_shard(&merged, self.shard, &self.recorder)
            {
                self.stats.messages += receipt.applied as u64;
                let last = jobs.len() - 1;
                return jobs
                    .iter()
                    .enumerate()
                    .map(|(i, job)| {
                        Ok(IngestReceipt {
                            domain: domain.clone(),
                            shard: self.shard,
                            applied: job.batch.observations.len(),
                            // Group totals land on the run's last batch;
                            // earlier receipts report zero (the GC ran
                            // once, after the merged apply).
                            gc_dropped: if i == last { receipt.gc_dropped } else { 0 },
                            samples_compacted: if i == last {
                                receipt.samples_compacted
                            } else {
                                0
                            },
                            retained_messages: receipt.retained_messages,
                        })
                    })
                    .collect();
            }
            // Fall through: some batch in the run is invalid; replay
            // sequentially for exact per-batch errors. The failed merged
            // apply recorded nothing (batches apply atomically).
        }
        jobs.iter()
            .map(|job| {
                let result = self
                    .service
                    .ingest_as_shard(&job.batch, self.shard, &self.recorder);
                if let Ok(receipt) = &result {
                    self.stats.messages += receipt.applied as u64;
                }
                result
            })
            .collect()
    }

    fn refresh_retention(&mut self) {
        self.stats.retained_messages = self.service.total_retained_messages();
        self.stats.retained_samples = self.service.total_retained_samples();
        self.stats.approx_retained_bytes = self.service.approx_retained_bytes();
        self.stats.peak_retained_messages = self
            .stats
            .peak_retained_messages
            .max(self.stats.retained_messages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksync::{BatchObservation, DelayRange, LinkAssumption};
    use clocksync_model::ProcessorId;
    use clocksync_time::{ClockTime, Nanos};

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

    fn config(shards: usize) -> ServiceConfig {
        ServiceConfig {
            shards,
            window: 8,
            queue_depth: 16,
            max_coalesce: 8,
        }
    }

    #[test]
    fn concurrent_outcome_matches_synchronous_service() {
        let svc = ConcurrentService::start(config(2));
        let mut reference = SyncService::new(2, 8);
        svc.register_domain("a", net()).unwrap();
        reference.register_domain("a", net()).unwrap();
        let mut pending = Vec::new();
        for round in 0..20i64 {
            let t = 1_000 * round;
            let batch = ObservationBatch::new(
                "a",
                vec![
                    obs(P, Q, t, t + 400 + round % 7),
                    obs(Q, P, t + 500, t + 900 - round % 5),
                ],
            );
            reference.ingest(&batch).unwrap();
            pending.push(svc.ingest(batch).unwrap());
        }
        let mut applied = 0;
        for p in pending {
            applied += p.wait().unwrap().applied;
        }
        assert_eq!(applied, 40);
        assert_eq!(svc.outcome("a").unwrap(), reference.outcome("a").unwrap());
        let stats = svc.shutdown();
        assert_eq!(stats.messages(), 40);
        assert_eq!(stats.batches(), 20);
        assert_eq!(stats.errors(), 0);
        assert_eq!(
            stats.total_retained_messages(),
            reference.total_retained_messages()
        );
    }

    #[test]
    fn unknown_and_duplicate_domains_are_typed_errors() {
        let svc = ConcurrentService::start(config(2));
        svc.register_domain("a", net()).unwrap();
        assert!(matches!(
            svc.register_domain("a", net()),
            Err(ServiceError::DuplicateDomain { .. })
        ));
        let pending = svc.ingest(ObservationBatch::new("ghost", vec![])).unwrap();
        assert!(matches!(
            pending.wait(),
            Err(ServiceError::UnknownDomain { .. })
        ));
        assert!(matches!(
            svc.outcome("ghost"),
            Err(ServiceError::UnknownDomain { .. })
        ));
        assert!(svc.domain_stats("ghost").is_none());
        assert!(svc.domain_stats("a").is_some());
        svc.shutdown();
    }

    #[test]
    fn invalid_batches_error_in_order_and_leave_no_trace() {
        let svc = ConcurrentService::start(ServiceConfig {
            shards: 1,
            ..config(1)
        });
        svc.register_domain("a", net()).unwrap();
        // Saturate the queue with a mix of valid and invalid batches so
        // the worker coalesces them into one group, then check each
        // receipt carries exactly the sequential result.
        let batches = vec![
            ObservationBatch::new("a", vec![obs(P, Q, 0, 400)]),
            ObservationBatch::new("a", vec![obs(P, Q, i64::MIN, i64::MAX)]),
            ObservationBatch::new("a", vec![obs(Q, P, 500, 900)]),
            ObservationBatch::new("a", vec![obs(P, Q, -10, 50)]),
            ObservationBatch::new("a", vec![obs(P, Q, 1_000, 1_399)]),
        ];
        let pending: Vec<PendingReceipt> = batches
            .iter()
            .map(|batch| svc.ingest(batch.clone()).unwrap())
            .collect();
        let results: Vec<_> = pending.into_iter().map(PendingReceipt::wait).collect();
        assert!(results[0].is_ok() && results[2].is_ok() && results[4].is_ok());
        assert!(matches!(
            results[1],
            Err(ServiceError::Sync(clocksync::SyncError::Overflow { .. }))
        ));
        assert!(matches!(
            results[3],
            Err(ServiceError::Model(
                clocksync_model::ModelError::UnorderedView { .. }
            ))
        ));
        // Identical to a sequential service fed the same stream.
        let mut reference = SyncService::new(1, 8);
        reference.register_domain("a", net()).unwrap();
        for batch in &batches {
            let _ = reference.ingest(batch);
        }
        assert_eq!(svc.outcome("a").unwrap(), reference.outcome("a").unwrap());
        let stats = svc.shutdown();
        assert_eq!(stats.errors(), 2);
        assert_eq!(stats.messages(), 3);
    }

    #[test]
    fn forget_link_rides_the_queue_and_matches_sequential() {
        let svc = ConcurrentService::start(config(2));
        let mut reference = SyncService::new(2, 8);
        svc.register_domain("a", net()).unwrap();
        reference.register_domain("a", net()).unwrap();
        let batch = ObservationBatch::new("a", vec![obs(P, Q, 0, 400), obs(Q, P, 500, 900)]);
        reference.ingest(&batch).unwrap();
        // Enqueue the batch and the retraction back to back without
        // waiting: FIFO order guarantees the forget observes the batch.
        let pending = svc.ingest(batch).unwrap();
        let receipt = svc.forget_link("a", P, Q).unwrap();
        pending.wait().unwrap();
        assert_eq!(receipt, reference.forget_link("a", P, Q).unwrap());
        assert_eq!(receipt.samples_dropped, 2);
        assert_eq!(svc.outcome("a").unwrap(), reference.outcome("a").unwrap());
        assert!(matches!(
            svc.forget_link("ghost", P, Q),
            Err(ServiceError::UnknownDomain { .. })
        ));
        svc.shutdown();
    }

    #[test]
    fn stats_is_a_barrier() {
        let svc = ConcurrentService::start(config(2));
        svc.register_domain("a", net()).unwrap();
        svc.register_domain("b", net()).unwrap();
        let mut pending = Vec::new();
        for round in 0..50i64 {
            let t = 1_000 * round;
            for d in ["a", "b"] {
                pending.push(
                    svc.ingest(ObservationBatch::new(d, vec![obs(P, Q, t, t + 400)]))
                        .unwrap(),
                );
            }
        }
        // Without waiting any receipt: the barrier must observe all 100.
        let stats = svc.stats();
        assert_eq!(stats.batches(), 100);
        assert_eq!(stats.messages(), 100);
        assert_eq!(stats.workers.len(), 2);
        for p in pending {
            p.wait().unwrap();
        }
        svc.shutdown();
    }

    #[test]
    fn workers_trace_one_ingest_span_per_batch_on_its_shard() {
        use clocksync_obs::{FieldValue, TraceRecord};
        let recorder = Recorder::enabled();
        let svc = ConcurrentService::start_with_recorder(
            ServiceConfig {
                max_coalesce: 1,
                ..config(3)
            },
            recorder.clone(),
        );
        let domains = ["a", "b", "c", "d", "e", "f"];
        for d in domains {
            svc.register_domain(d, net()).unwrap();
        }
        let routes: HashMap<&str, usize> = domains.iter().map(|&d| (d, svc.shard_of(d))).collect();
        assert!(routes.values().any(|&shard| shard != 0), "{routes:?}");
        let pending: Vec<PendingReceipt> = (0..24i64)
            .map(|i| {
                let t = 1_000 * i;
                let batch =
                    ObservationBatch::new(domains[i as usize % 6], vec![obs(P, Q, t, t + 400)]);
                svc.ingest(batch).unwrap()
            })
            .collect();
        for receipt in pending {
            receipt.wait().unwrap();
        }
        svc.shutdown();
        let trace = recorder.snapshot();
        let mut spans = 0;
        for record in &trace.records {
            let TraceRecord::Span { name, fields, .. } = record else {
                continue;
            };
            if name != "svc.ingest" {
                continue;
            }
            spans += 1;
            let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            let Some(FieldValue::Str(domain)) = field("domain") else {
                panic!("svc.ingest span without a domain: {fields:?}");
            };
            assert_eq!(
                field("shard"),
                Some(&FieldValue::from(routes[domain.as_str()])),
                "{domain}"
            );
        }
        assert_eq!(spans, 24);
        // The one-shard service inside each worker is not the service: it
        // publishes no service-wide gauges.
        assert_eq!(trace.gauge("svc.shards"), None);
        assert_eq!(trace.gauge("svc.domains"), None);
    }

    #[test]
    fn ingest_after_shutdown_is_stopped() {
        let svc = ConcurrentService::start(config(1));
        svc.register_domain("a", net()).unwrap();
        let stats = svc.stats();
        assert_eq!(stats.workers[0].domains, 1);
        // Shutdown consumes the service, so `Stopped` is only reachable
        // through a racing clone of a sender — simulate by dropping the
        // service and checking a pre-issued pending receipt still works.
        let pending = svc
            .ingest(ObservationBatch::new("a", vec![obs(P, Q, 0, 400)]))
            .unwrap();
        let final_stats = svc.shutdown();
        assert_eq!(pending.wait().unwrap().applied, 1);
        assert_eq!(final_stats.messages(), 1);
    }
}
