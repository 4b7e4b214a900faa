//! Observability for the clocksync pipeline: spans, counters, duration
//! histograms and a JSONL trace format — with zero external dependencies.
//!
//! PR 2 gave the runtimes a failure-semantics contract; this crate makes
//! a run *visible* while it is in flight. The [`Recorder`] handle is
//! accepted by every pipeline stage (`Engine`, every `Simulation` runner,
//! `Synchronizer`); the default handle is a no-op
//! whose cost is one branch per call site, so instrumentation stays in
//! release builds (a Criterion guard bench, `obs_overhead`, keeps it
//! honest).
//!
//! The three layers:
//!
//! * [`recorder`] — the collection API ([`Recorder`], [`Span`],
//!   [`FieldValue`]);
//! * [`trace`] — the finished-trace schema ([`Trace`], [`TraceRecord`]),
//!   its JSONL codec and a summarizer;
//! * [`json`] — the schema-agnostic JSON value type/parser/printer the
//!   trace codec (and the CLI's run-file codec) are built on;
//! * [`journal`] — a deterministic, timestamp-free JSONL journal for
//!   byte-reproducible run records (the scenario fuzzer's replay format),
//!   deliberately separate from the wall-clock-bearing trace.
//!
//! The span/counter taxonomy emitted by the runtimes is documented in
//! DESIGN.md §6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod json;
pub mod recorder;
pub mod trace;

pub use journal::Journal;
pub use json::{Json, JsonError};
pub use recorder::{FieldValue, Recorder, Span};
pub use trace::{Hist, Trace, TraceError, TraceRecord, HIST_BUCKETS};
