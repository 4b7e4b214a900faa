//! Sharded multi-domain ingestion service for clocksync.
//!
//! This crate turns the single-network [`clocksync::OnlineSynchronizer`]
//! into a service that owns many independent *sync domains* at once:
//!
//! * a consistent-hash [`ShardMap`] pins every domain to one shard, so
//!   each domain's batches are applied by a single owner and shards can
//!   run in parallel with no cross-shard locking ([`SyncService::ingest_many`]);
//! * observations arrive as [`ObservationBatch`]es and are applied
//!   atomically in one closure/`A_max` maintenance pass per batch instead
//!   of one relaxation per message;
//! * memory is bounded: each domain keeps a windowed
//!   [`clocksync_model::ViewWindow`] and GCs messages whose evidence is
//!   dominated — the extremal d̃min/d̃max witnesses of every directed link
//!   are always retained, so compaction never loosens any estimate (the
//!   paper's Lemma 6.2 estimators depend only on extremal observations);
//! * [`ConcurrentService`] runs each shard on its own worker thread
//!   behind a bounded queue. The queue carries batches, which the worker
//!   commits in groups, and calls (registration, outcome, retraction,
//!   statistics), which run on the worker in queue order, so a domain
//!   observes its batches and calls in the order they were enqueued.
//!
//! [`run_soak`] drives sustained batched ingestion from simulated
//! executions and reports throughput plus steady-state retention against
//! the analytic ceiling.
//!
//! # Examples
//!
//! The concurrent engine end to end: start workers, register a domain,
//! ingest one batch, read the optimal outcome, shut down cleanly.
//!
//! ```
//! use clocksync::{BatchObservation, DelayRange, LinkAssumption, Network};
//! use clocksync_model::ProcessorId;
//! use clocksync_service::{ConcurrentService, ObservationBatch, ServiceConfig};
//! use clocksync_time::{ClockTime, Nanos};
//!
//! let (p, q) = (ProcessorId(0), ProcessorId(1));
//! let network = Network::builder(2)
//!     .link(p, q, LinkAssumption::symmetric_bounds(
//!         DelayRange::new(Nanos::new(0), Nanos::new(100))))
//!     .build();
//!
//! let svc = ConcurrentService::start(ServiceConfig {
//!     shards: 2,
//!     window: 64,
//!     queue_depth: 16,
//!     max_coalesce: 4,
//! });
//! svc.register_domain("cell-a", network)?;
//!
//! // One message each way; `ingest` hands back a receipt to wait on.
//! let batch = ObservationBatch::new("cell-a", vec![
//!     BatchObservation {
//!         src: p, dst: q,
//!         send_clock: ClockTime::from_nanos(1_000),
//!         recv_clock: ClockTime::from_nanos(1_040),
//!     },
//!     BatchObservation {
//!         src: q, dst: p,
//!         send_clock: ClockTime::from_nanos(2_000),
//!         recv_clock: ClockTime::from_nanos(2_040),
//!     },
//! ]);
//! let receipt = svc.ingest(batch)?.wait()?;
//! assert_eq!(receipt.applied, 2);
//!
//! let outcome = svc.outcome("cell-a")?;
//! println!("precision: {}", outcome.precision());
//!
//! let stats = svc.shutdown(); // drains queues, joins workers
//! assert_eq!(stats.workers.len(), 2);
//! # Ok::<(), clocksync_service::ServiceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod concurrent;
mod error;
mod service;
mod shard;
mod soak;

pub use batch::{BatchObservation, DomainId, ObservationBatch};
pub use concurrent::{ConcurrentService, PendingReceipt, PoolStats, ServiceConfig, WorkerStats};
pub use error::ServiceError;
pub use service::{DomainStats, ForgetReceipt, IngestReceipt, SyncService};
pub use shard::ShardMap;
pub use soak::{current_rss_bytes, run_soak, run_soak_with_recorder, SoakConfig, SoakReport};
