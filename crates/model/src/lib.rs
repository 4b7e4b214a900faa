//! The formal execution model of Attiya–Herzberg–Rajsbaum (PODC 1993, §2).
//!
//! This crate implements the paper's model of computation precisely enough
//! to *mechanically exercise* its proofs:
//!
//! * [`View`] — what a processor can observe: its sequence of steps with
//!   local **clock times** only (§2.1). Views are the *only* input the
//!   synchronization algorithm receives.
//! * [`ViewSet`] — one view per processor with a validated one-to-one
//!   message correspondence (the execution axioms: no loss, no duplication,
//!   no spontaneous messages), and the id-ordered message table that
//!   validation joins from the views.
//! * [`Execution`] — a `ViewSet` plus the hidden real start time `S_p` of
//!   each processor. Real times of steps, true message delays, the
//!   [`Execution::shift`] operation (§4.1, after Lundelius–Lynch), and
//!   execution [equivalence](Execution::is_equivalent_to) all live here.
//! * [`LinkObservations`] — the estimated-delay evidence of each declared
//!   link direction (extrema `d̃min`/`d̃max`, count and samples), stored
//!   per slot of the network's link table and filled from views in one
//!   pass over their message table ([`ViewSet::link_observations`]). The
//!   paper's Lemma 6.1 becomes an identity in this formulation: for a
//!   message `m` from `p` to `q`,
//!   `d̃(m) = d(m) + S_p − S_q = recv-clock(m) − send-clock(m)`,
//!   so estimated delays are computable by pure clock arithmetic.
//!
//! The crate is deliberately assumption-agnostic: specific delay models
//! (bounds, round-trip bias, …) live in the `clocksync` core crate, which
//! interrogates executions through [`Execution::link_delays`].
//!
//! # Examples
//!
//! ```
//! use clocksync_model::{ExecutionBuilder, ProcessorId};
//! use clocksync_time::{Nanos, RealTime};
//!
//! let p = ProcessorId(0);
//! let q = ProcessorId(1);
//! let exec = ExecutionBuilder::new(2)
//!     .start(p, RealTime::from_nanos(0))
//!     .start(q, RealTime::from_nanos(500))
//!     .message(p, q, RealTime::from_nanos(1_000), Nanos::new(200))
//!     .build()?;
//! // The estimated delay is d + S_p − S_q = 200 + 0 − 500 = −300. One
//! // slot holds the p → q direction.
//! let obs = exec.views().link_observations(1, |src, dst| (src, dst).eq(&(p, q)).then_some(0));
//! assert_eq!(obs.stats(0).est_min.finite().unwrap().as_nanos(), -300);
//! # Ok::<(), clocksync_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod event;
mod execution;
mod observations;
mod view;
mod window;

pub use builder::ExecutionBuilder;
pub use error::ModelError;
pub use event::{MessageId, ProcessorId, ViewEvent};
pub use execution::{discrepancy, Execution, MessageRecord};
pub use observations::{DirectedStats, LinkEvidence, LinkObservations, MsgSample};
pub use view::{MessageObservation, View, ViewSet};
pub use window::ViewWindow;
