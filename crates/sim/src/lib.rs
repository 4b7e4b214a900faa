//! A network simulator for clock-synchronization experiments, with a
//! discrete-event executor and a threaded one.
//!
//! The PODC'93 paper evaluates nothing empirically — it is pure theory over
//! mathematical executions. This crate is the reproduction's substitute
//! for those executions: it *generates* them, at nanosecond granularity
//! in virtual time or on real threads, with full ground truth retained so
//! experiments can compare the synchronizer's guaranteed precision against
//! the true (observer-side) error.
//!
//! * [`Topology`] — path/ring/star/complete/grid/random-connected link
//!   sets;
//! * [`DelayDistribution`] / [`LinkModel`] — constant, uniform,
//!   heavy-tailed (Pareto) and correlated-symmetric links (the workload
//!   motivating the paper's round-trip-bias model);
//! * [`Engine`] / [`Process`] — a deterministic discrete-event core that
//!   runs reactive processes and records paper-accurate
//!   [`clocksync_model::Execution`]s;
//! * [`ProbeProcess`] — the round-trip probe protocol used by all
//!   experiments, with an optional retry rule, and the per-link
//!   [`LinkHealth`] its rounds earn;
//! * [`Simulation`] — the one-stop scenario API: topology + delay models +
//!   (optionally truthful) assumptions + fault plan, seeded and
//!   reproducible, run on the engine ([`Simulation::run`]) or on OS
//!   threads ([`Simulation::run_threaded`]).
//!
//! # Examples
//!
//! ```
//! use clocksync_sim::{Simulation, Topology};
//! use clocksync_time::Nanos;
//!
//! let sim = Simulation::builder(6)
//!     .uniform_links(Topology::Complete(6),
//!                    Nanos::from_micros(20), Nanos::from_micros(120), 1)
//!     .probes(2)
//!     .build();
//! let outcome = sim.run(1).synchronize()?;
//! assert!(outcome.precision().is_finite());
//! # Ok::<(), clocksync::SyncError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod delay;
mod distributed;
mod drift;
mod engine;
mod faults;
mod protocol;
mod scenario;
mod topology;

pub use cluster::{ThreadedRun, Threads};
pub use delay::{DelayDistribution, LinkModel, ResolvedLink, HEAVY_TAIL_CAP};
pub use distributed::{DistMsg, DistRun, DistributedSync, FaultyDistRun};
pub use drift::{
    run_continuous_resync, run_with_drift, widen_assumption, ContinuousDriftRun, DriftError,
    DriftRun, ResyncConfig,
};
pub use engine::{Engine, IdleProcess, Process, ProcessCtx, MAX_EVENTS};
pub use faults::{FaultLog, FaultPlan, LinkFaults};
pub use protocol::{LinkHealth, LinkState, ProbeProcess};
pub use scenario::{truthful_assumption, LinkSpec, SimRun, Simulation, SimulationBuilder};
pub use topology::Topology;
