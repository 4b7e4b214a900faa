//! Exact time arithmetic for the `clocksync` workspace.
//!
//! The clock-synchronization algorithms of Attiya, Herzberg and Rajsbaum
//! (PODC 1993) are *exact*: the achievable precision equals a maximum cycle
//! mean, and the computed corrections achieve it with equality. Reproducing
//! those equalities with floating point would force every test to reason
//! about rounding. Instead this crate provides:
//!
//! * [`Nanos`] — a signed integer nanosecond quantity (durations, offsets),
//! * [`ClockTime`] / [`RealTime`] — newtypes distinguishing the two time
//!   axes of the paper's model (a processor's local clock vs. the outside
//!   observer's real time),
//! * [`Ratio`] — an exact `i128` rational (cycle means and the round-trip
//!   bias estimator divide by small integers),
//! * [`Ext`] — the extension of an ordered quantity with `±∞` (missing
//!   observations yield `d̃max = −∞`; absent bounds yield `ub = +∞`;
//!   unsynchronizable instances have precision `+∞`).
//!
//! # Examples
//!
//! ```
//! use clocksync_time::{Nanos, Ratio, Ext};
//!
//! let rtt = Nanos::from_micros(150) + Nanos::from_micros(250);
//! let mean = Ratio::from(rtt) / Ratio::from_int(2);
//! assert_eq!(mean, Ratio::from(Nanos::from_micros(200)));
//!
//! let ub: Ext<Nanos> = Ext::PosInf;
//! assert!(ub > Ext::Finite(Nanos::from_secs(3600)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod drift;
mod ext;
mod nanos;
mod ratio;

pub use drift::DriftBound;
pub use ext::Ext;
pub use nanos::{ClockTime, Nanos, RealTime};
pub use ratio::Ratio;

/// Extended rational: the weight domain used by the graph substrate and the
/// synchronizer (`m̃ls`, `m̃s`, `A_max`, corrections).
pub type ExtRatio = Ext<Ratio>;

/// Extended nanoseconds: the domain of delay observations and delay bounds.
pub type ExtNanos = Ext<Nanos>;
