//! Optimal clock synchronization under different delay assumptions.
//!
//! This crate implements the algorithm of Hagit Attiya, Amir Herzberg and
//! Sergio Rajsbaum, *"Optimal Clock Synchronization under Different Delay
//! Assumptions"* (PODC 1993): given the **views** (local message histories)
//! of `n` drift-free processors and a per-link **delay assumption**, it
//! computes clock corrections whose precision is optimal *on every
//! instance* — no correction function computed from the same views can
//! guarantee a smaller worst-case clock disagreement over the executions
//! the processors cannot distinguish from the observed one.
//!
//! # Supported delay assumptions
//!
//! * [`LinkAssumption::bounds`] — known lower/upper delay bounds per
//!   direction, upper bounds optionally infinite (paper models 1–2);
//! * [`LinkAssumption::no_bounds`] — fully asynchronous links (model 3;
//!   worst-case precision is unbounded, yet each instance gets a finite
//!   optimal guarantee);
//! * [`LinkAssumption::rtt_bias`] — a bound on the difference between
//!   delays in opposite directions (model 4, the assumption NTP-like
//!   protocols implicitly make);
//! * [`LinkAssumption::all`] — any conjunction of the above on the same
//!   link (the paper's decomposition theorem), and different links may use
//!   different assumptions freely.
//!
//! # Pipeline
//!
//! [`Synchronizer::synchronize`] composes the paper's four stages:
//!
//! 1. extract each declared link's estimated-delay evidence from the views
//!    (Lemma 6.1), in one pass over their message table, into the slots
//!    of the network's [`LinkTable`] ([`Network::link_observations`]);
//! 2. evaluate each link's local shift estimator
//!    ([`LinkAssumption::estimated_mls`], §6), one `m̃ls` per slot
//!    ([`estimated_local_shifts`]) — nothing before the closure is
//!    `n × n`;
//! 3. [`global_estimates`] — all-pairs shortest paths (§5.3) over
//!    half-nanosecond counts, gauged so that clock offsets drop out;
//! 4. SHIFTS (§4.4) — the maximum cycle mean gives the optimal
//!    precision `A_max` (Howard's policy iteration over the same counts),
//!    and shortest-path distances under `A_max − m̃s` give the
//!    corrections.
//!
//! # Examples
//!
//! ```
//! use clocksync::{Network, LinkAssumption, DelayRange, Synchronizer};
//! use clocksync_model::{ExecutionBuilder, ProcessorId};
//! use clocksync_time::{Nanos, RealTime};
//!
//! let (p, q, r) = (ProcessorId(0), ProcessorId(1), ProcessorId(2));
//! // A mixed network: p–q has delay bounds, q–r only a round-trip bias
//! // bound — something no prior algorithm handled.
//! let net = Network::builder(3)
//!     .link(p, q, LinkAssumption::symmetric_bounds(
//!         DelayRange::new(Nanos::from_micros(100), Nanos::from_micros(500))))
//!     .link(q, r, LinkAssumption::rtt_bias(Nanos::from_micros(200)))
//!     .build();
//!
//! let exec = ExecutionBuilder::new(3)
//!     .start(q, RealTime::from_micros(40))
//!     .start(r, RealTime::from_micros(-25))
//!     .round_trips(p, q, 1, RealTime::from_micros(1000), Nanos::ZERO,
//!                  Nanos::from_micros(180), Nanos::from_micros(320))
//!     .round_trips(q, r, 1, RealTime::from_micros(2000), Nanos::ZERO,
//!                  Nanos::from_micros(700), Nanos::from_micros(750))
//!     .build()?;
//!
//! let outcome = Synchronizer::new(net).synchronize(exec.views())?;
//! // The guarantee is finite, optimal, and honored by the true offsets.
//! let achieved = exec.discrepancy(outcome.corrections());
//! assert!(clocksync_time::Ext::Finite(achieved) <= outcome.precision());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod assumption;
mod degradation;
mod drift;
mod error;
mod estimates;
mod network;
mod online;
mod route;
mod shifts;
mod synchronizer;

pub use assumption::{marzullo_fuse, DelayRange, LinkAssumption, MarzulloFusion};
/// Constraint chains: the one rule that recovers the shortest paths behind
/// a closure ([`shortest_path_successors`], fed `m̃ls` and `m̃s`) and their
/// expansion into processor sequences ([`reconstruct_path`]).
pub use clocksync_graph::{reconstruct_path, shortest_path_successors};
/// The link table and per-slot weights: the form of `m̃ls`
/// ([`estimated_local_shifts`]) and of the evidence behind it.
pub use clocksync_graph::{LinkTable, LinkWeights};
pub use degradation::{classify_degradations, DegradationReason, LinkDegradation};
pub use drift::DriftingOutcome;
pub use error::SyncError;
pub use estimates::{estimated_local_shifts, global_estimates, global_estimates_traced};
pub use network::{Network, NetworkBuilder};
pub use online::{BatchObservation, OnlineSynchronizer};
pub use shifts::{shifts, synchronizable_components, ShiftsResult};
pub use synchronizer::{ComponentReport, LocalSkew, SyncOutcome, Synchronizer};
