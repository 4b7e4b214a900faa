//! Sustained-ingestion soak driver: the simulator feeds the service.
//!
//! [`run_soak`] builds one simulated execution per domain (ring topology,
//! truthful uniform delay bounds — the existing `clocksync-sim` runtime),
//! then replays its message observations through the service in batches,
//! cycling the pool with a per-cycle clock shift so the stream looks like
//! periodic resynchronization traffic of unbounded length. Two engines:
//!
//! * `threads <= 1` — the in-place [`SyncService`], batches applied on
//!   the driver thread via [`SyncService::ingest_many`];
//! * `threads > 1` — the [`ConcurrentService`] worker pool (one worker
//!   thread per shard, so `threads` must equal `shards`), driven through
//!   the bounded queues with a sliding window of pending receipts.
//!
//! The interesting outputs are throughput (batched messages per second)
//! and the *steady-state* retention numbers: with the dominated-evidence
//! GC on, retained messages must stay under the analytic
//! [`SoakReport::retained_cap`] no matter how many messages flow through.
//! For the worker engine the retention stats are **summed across the
//! workers' own counters** (each worker tracks its peak after every
//! flush), not read from the driver's side — the driver never sees the
//! workers' state directly. The CI soak smokes and `tables
//! --bench-ingest` are both thin wrappers around this.

use std::collections::VecDeque;
use std::time::Instant;

use clocksync::BatchObservation;
use clocksync_obs::Recorder;
use clocksync_sim::{Simulation, Topology};
use clocksync_time::Nanos;

use crate::{ConcurrentService, ObservationBatch, ServiceConfig, SyncService};

/// Parameters of one soak run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoakConfig {
    /// Shards in the service.
    pub shards: usize,
    /// Worker threads: `<= 1` runs the in-place engine on the driver
    /// thread; `> 1` runs the [`ConcurrentService`] worker pool and must
    /// equal `shards` (one worker owns each shard).
    pub threads: usize,
    /// Bounded per-shard queue depth, in batches (worker engine only).
    pub queue_depth: usize,
    /// Independent sync domains.
    pub domains: usize,
    /// Processors per domain (ring topology; at least 3).
    pub n: usize,
    /// Total messages to ingest across all domains.
    pub messages: u64,
    /// Observations per batch.
    pub batch_size: usize,
    /// Per-directed-link retention window.
    pub window: usize,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            shards: 4,
            threads: 1,
            queue_depth: 256,
            domains: 8,
            n: 4,
            messages: 100_000,
            batch_size: 64,
            window: 32,
            seed: 7,
        }
    }
}

/// What a soak run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// The configuration that ran.
    pub config: SoakConfig,
    /// Threads that actually applied batches, measured rather than
    /// copied from the config: the spawned worker count for the worker
    /// engine, the effective shard-parallelism of the rayon pool for the
    /// in-place engine (on a single-core box the rayon pool has one
    /// thread, so the inline engine honestly reports 1).
    pub threads: usize,
    /// Which engine ran: `"inline"` or `"workers"`.
    pub engine: &'static str,
    /// Messages actually ingested (first multiple of the batching layout
    /// at or above `config.messages`).
    pub messages: u64,
    /// Wall-clock time of the ingestion loop, nanoseconds.
    pub elapsed_ns: u64,
    /// Highest retention observed. In-place engine: the highest
    /// `total_retained_messages` after any ingest round. Worker engine:
    /// the sum of each worker's own post-flush peak — an upper bound on
    /// the true global peak, the right side to hold under the cap.
    pub peak_retained_messages: usize,
    /// Messages retained when the run ended (worker engine: summed from
    /// the workers' final statistics at shutdown).
    pub retained_messages_end: usize,
    /// Evidence samples retained when the run ended.
    pub retained_samples_end: usize,
    /// Approximate bytes held by the view windows when the run ended.
    pub approx_retained_bytes_end: usize,
    /// Analytic retention ceiling: per directed link the window plus the
    /// two extremal witnesses, summed over every link of every domain.
    /// Bounded-memory means `peak_retained_messages <= retained_cap`.
    pub retained_cap: usize,
    /// Resident set size at the end of the run, if the platform exposes
    /// it (`/proc/self/statm` on Linux).
    pub rss_end_bytes: Option<u64>,
}

impl SoakReport {
    /// Sustained ingestion rate, messages per second.
    pub fn msgs_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.messages as f64 * 1e9 / self.elapsed_ns as f64
    }
}

/// This process's resident set size in bytes, read from
/// `/proc/self/statm` (resident pages × 4096). `None` where the proc
/// filesystem is unavailable.
#[cfg(target_os = "linux")]
pub fn current_rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident * 4096)
}

/// This process's resident set size in bytes (`None` off Linux).
#[cfg(not(target_os = "linux"))]
pub fn current_rss_bytes() -> Option<u64> {
    None
}

/// A cyclic reader over one domain's simulated observation pool; each
/// full cycle shifts all clock readings forward by the pool's span, so
/// replayed messages look like the next resynchronization period.
struct PoolCursor {
    pool: Vec<BatchObservation>,
    pos: usize,
    cycle: i64,
    span: Nanos,
}

impl PoolCursor {
    fn new(pool: Vec<BatchObservation>) -> PoolCursor {
        let span = pool
            .iter()
            .map(|m| m.send_clock.as_nanos().max(m.recv_clock.as_nanos()))
            .max()
            .unwrap_or(0)
            + 1_000_000;
        PoolCursor {
            pool,
            pos: 0,
            cycle: 0,
            span: Nanos::new(span),
        }
    }

    fn next_batch(&mut self, size: usize) -> Vec<BatchObservation> {
        let mut out = Vec::with_capacity(size);
        for _ in 0..size {
            let base = self.pool[self.pos];
            let shift = self.span * self.cycle;
            out.push(BatchObservation {
                src: base.src,
                dst: base.dst,
                send_clock: base.send_clock + shift,
                recv_clock: base.recv_clock + shift,
            });
            self.pos += 1;
            if self.pos == self.pool.len() {
                self.pos = 0;
                self.cycle += 1;
            }
        }
        out
    }
}

/// One simulated domain ready to replay: its network, its observation
/// pool, and its contribution to the analytic retention ceiling.
struct SimDomain {
    name: String,
    network: clocksync::Network,
    cursor: PoolCursor,
}

fn build_domains(config: &SoakConfig) -> (Vec<SimDomain>, usize) {
    let mut domains = Vec::with_capacity(config.domains);
    let mut retained_cap = 0usize;
    for d in 0..config.domains {
        let sim = Simulation::builder(config.n)
            .uniform_links(
                Topology::Ring(config.n),
                Nanos::from_micros(50),
                Nanos::from_micros(250),
                config.seed ^ d as u64,
            )
            .probes(8)
            .build();
        let run = sim.run(config.seed.wrapping_add(d as u64).wrapping_mul(0x9e37));
        retained_cap += run.network.links().count() * 2 * (config.window + 2);
        let pool: Vec<BatchObservation> = run
            .execution
            .views()
            .message_observations()
            .iter()
            .map(|m| BatchObservation {
                src: m.src,
                dst: m.dst,
                send_clock: m.send_clock,
                recv_clock: m.recv_clock,
            })
            .collect();
        assert!(!pool.is_empty(), "simulated domain produced no messages");
        domains.push(SimDomain {
            name: format!("domain-{d}"),
            network: run.network.clone(),
            cursor: PoolCursor::new(pool),
        });
    }
    (domains, retained_cap)
}

/// Runs one soak: simulate each domain once, then replay the observation
/// pools through the service until `config.messages` messages have been
/// ingested. `config.threads` selects the engine (see [`SoakConfig`]).
///
/// # Panics
///
/// Panics if `config` is degenerate (`n < 3`, zero domains, zero batch
/// size, `threads > 1` but `threads != shards`) — soak parameters are
/// operator input, not untrusted data.
pub fn run_soak(config: &SoakConfig) -> SoakReport {
    run_soak_with_recorder(config, Recorder::disabled())
}

/// [`run_soak`] with queue metrics reported to `recorder` (the worker
/// engine's `svc.queue_depth` / `svc.ingest_wait` / `svc.batch_latency`,
/// or the in-place engine's `svc.ingest` spans). Instrumentation never
/// changes what the soak computes.
pub fn run_soak_with_recorder(config: &SoakConfig, recorder: Recorder) -> SoakReport {
    assert!(config.n >= 3, "soak domains need at least 3 processors");
    assert!(config.domains > 0, "soak needs at least one domain");
    assert!(config.batch_size > 0, "soak needs a positive batch size");
    if config.threads > 1 {
        assert!(
            config.threads == config.shards,
            "the worker engine pins one worker per shard: threads ({}) must equal shards ({})",
            config.threads,
            config.shards
        );
        run_soak_workers(config, recorder)
    } else {
        run_soak_inline(config, recorder)
    }
}

/// The in-place engine: batches applied on the driver thread (shards in
/// parallel through rayon inside [`SyncService::ingest_many`]).
fn run_soak_inline(config: &SoakConfig, recorder: Recorder) -> SoakReport {
    let (domains, retained_cap) = build_domains(config);
    let mut svc = SyncService::new(config.shards, config.window).with_recorder(recorder);
    let mut cursors = Vec::with_capacity(domains.len());
    for domain in domains {
        svc.register_domain(domain.name, domain.network)
            .expect("fresh domain names cannot collide");
        cursors.push(domain.cursor);
    }

    let mut ingested = 0u64;
    let mut peak_retained = 0usize;
    let started = Instant::now();
    while ingested < config.messages {
        let batches: Vec<ObservationBatch> = cursors
            .iter_mut()
            .enumerate()
            .map(|(d, cursor)| {
                ObservationBatch::new(format!("domain-{d}"), cursor.next_batch(config.batch_size))
            })
            .collect();
        for result in svc.ingest_many(&batches) {
            let receipt = result.expect("simulated observations always validate");
            ingested += receipt.applied as u64;
        }
        peak_retained = peak_retained.max(svc.total_retained_messages());
    }
    let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);

    SoakReport {
        config: config.clone(),
        threads: rayon::current_num_threads().min(config.shards),
        engine: "inline",
        messages: ingested,
        elapsed_ns,
        peak_retained_messages: peak_retained,
        retained_messages_end: svc.total_retained_messages(),
        retained_samples_end: svc.total_retained_samples(),
        approx_retained_bytes_end: svc.approx_retained_bytes(),
        retained_cap,
        rss_end_bytes: current_rss_bytes(),
    }
}

/// The worker-pool engine: the driver enqueues batches onto the bounded
/// shard queues and keeps a sliding window of pending receipts, so the
/// queues stay full (pipelining) while receipt memory stays bounded.
fn run_soak_workers(config: &SoakConfig, recorder: Recorder) -> SoakReport {
    let (domains, retained_cap) = build_domains(config);
    let svc = ConcurrentService::start_with_recorder(
        ServiceConfig {
            shards: config.shards,
            window: config.window,
            queue_depth: config.queue_depth.max(1),
            // Deep coalescing: merged runs past the service's
            // pre-compaction threshold skip the per-message window
            // bookkeeping for dominated evidence, so the soak wants the
            // largest groups the queues can supply.
            max_coalesce: 512,
        },
        recorder,
    );
    let mut cursors = Vec::with_capacity(domains.len());
    let mut names = Vec::with_capacity(domains.len());
    for domain in domains {
        svc.register_domain(domain.name.clone(), domain.network)
            .expect("fresh domain names cannot collide");
        names.push(domain.name);
        cursors.push(domain.cursor);
    }

    // Bound the receipts in flight; beyond it, wait for the oldest. The
    // queues themselves bound the unapplied batches, this only bounds the
    // driver's bookkeeping.
    let max_pending = (config.shards * config.queue_depth.max(1)).max(64);
    let mut pending = VecDeque::with_capacity(max_pending);
    let mut ingested = 0u64;
    // Enqueued observations; rounds mirror the in-place engine's batching
    // layout exactly (full rounds over all domains), so both engines feed
    // every domain the identical stream.
    let mut planned = 0u64;
    let started = Instant::now();
    while planned < config.messages {
        for (d, cursor) in cursors.iter_mut().enumerate() {
            let batch =
                ObservationBatch::new(names[d].as_str(), cursor.next_batch(config.batch_size));
            planned += batch.observations.len() as u64;
            pending.push_back(
                svc.ingest(batch)
                    .expect("workers outlive the ingestion loop"),
            );
            if pending.len() >= max_pending {
                let receipt = pending
                    .pop_front()
                    .expect("pending is non-empty at its cap")
                    .wait()
                    .expect("simulated observations always validate");
                ingested += receipt.applied as u64;
            }
        }
    }
    for receipt in pending {
        ingested += receipt
            .wait()
            .expect("simulated observations always validate")
            .applied as u64;
    }
    // Shutdown drains the queues; with every receipt redeemed above the
    // queues are already empty, so this is the workers' final snapshot.
    let stats = svc.shutdown();
    let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    debug_assert_eq!(stats.messages(), ingested);

    SoakReport {
        config: config.clone(),
        threads: stats.workers.len(),
        engine: "workers",
        messages: ingested,
        elapsed_ns,
        peak_retained_messages: stats.peak_retained_messages(),
        retained_messages_end: stats.total_retained_messages(),
        retained_samples_end: stats.total_retained_samples(),
        approx_retained_bytes_end: stats.approx_retained_bytes(),
        retained_cap,
        rss_end_bytes: current_rss_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config() -> SoakConfig {
        SoakConfig {
            shards: 2,
            threads: 1,
            queue_depth: 32,
            domains: 3,
            n: 3,
            messages: 2_000,
            batch_size: 32,
            window: 8,
            seed: 42,
        }
    }

    #[test]
    fn small_soak_is_bounded_and_reports_throughput() {
        let report = run_soak(&base_config());
        assert_eq!(report.engine, "inline");
        assert!(report.threads >= 1);
        assert!(report.messages >= 2_000);
        assert!(report.msgs_per_sec() > 0.0);
        assert!(
            report.peak_retained_messages <= report.retained_cap,
            "peak {} exceeded cap {}",
            report.peak_retained_messages,
            report.retained_cap
        );
        assert!(report.retained_messages_end <= report.peak_retained_messages);
        // Far more flowed through than is retained: memory is bounded.
        assert!((report.retained_messages_end as u64) < report.messages / 4);
    }

    #[test]
    fn soak_is_deterministic_in_retention() {
        let config = SoakConfig {
            shards: 2,
            domains: 2,
            messages: 500,
            batch_size: 16,
            window: 4,
            seed: 9,
            ..base_config()
        };
        let a = run_soak(&config);
        let b = run_soak(&config);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.retained_messages_end, b.retained_messages_end);
        assert_eq!(a.retained_samples_end, b.retained_samples_end);
        assert_eq!(a.retained_cap, b.retained_cap);
    }

    #[test]
    fn worker_soak_matches_inline_retention_and_stays_bounded() {
        let inline_config = base_config();
        let worker_config = SoakConfig {
            threads: 2,
            ..inline_config.clone()
        };
        let inline = run_soak(&inline_config);
        let workers = run_soak(&worker_config);
        assert_eq!(workers.engine, "workers");
        assert_eq!(workers.threads, 2);
        assert_eq!(workers.messages, inline.messages);
        // Same streams, same retention policy → identical steady state,
        // even though the worker engine coalesced batches.
        assert_eq!(workers.retained_messages_end, inline.retained_messages_end);
        assert_eq!(workers.retained_samples_end, inline.retained_samples_end);
        assert!(
            workers.peak_retained_messages <= workers.retained_cap,
            "worker peak {} exceeded cap {}",
            workers.peak_retained_messages,
            workers.retained_cap
        );
    }

    #[test]
    #[should_panic(expected = "threads (3) must equal shards (2)")]
    fn mismatched_worker_count_is_rejected() {
        let config = SoakConfig {
            threads: 3,
            ..base_config()
        };
        let _ = run_soak(&config);
    }
}
