//! Graph algorithms for the `clocksync` workspace.
//!
//! The synchronization pipeline of Attiya–Herzberg–Rajsbaum (PODC 1993) is,
//! computationally, three graph problems:
//!
//! 1. **GLOBAL ESTIMATES** (paper §5.3): all-pairs shortest paths over the
//!    per-link local-shift estimates — the generic [`floyd_warshall`].
//! 2. **`A_max`** (paper §4.3–4.4): the maximum cycle mean of the resulting
//!    metric closure — [`karp_max_cycle_mean`] (Karp 1978, `O(n·m)`).
//! 3. **SHIFTS** (paper §4.4): single-source shortest paths under weights
//!    `w(p,q) = A_max − m̃s(p,q)`, which may be negative but contain no
//!    negative cycle — the generic [`bellman_ford`].
//!
//! Weights are generic over the [`Weight`] trait; the workspace instantiates
//! it with [`clocksync_time::ExtRatio`] so every computation is exact.
//! These rational kernels are the oracles every integer kernel is tested
//! against, and the residual route a domain takes when its estimates have
//! no integer encoding. Brute-force oracles used by the test suites and
//! benches live in [`brute`].
//!
//! The pipeline runs on an integer layer. Every estimate is a whole or
//! half nanosecond, so the integer kernels hold it as an `i64` count of
//! half nanoseconds; one module (`half_ns.rs`) owns that encoding, its
//! magnitude bounds and the gauge — one count per node that takes the
//! clocks' start-time differences out of every entry, so clocks that
//! count from different epochs keep small counts.
//!
//! The estimates arrive per declared link. A [`LinkTable`] is a CSR over
//! a network's links, one slot per direction, each row in ascending
//! neighbour order, and [`LinkWeights`] holds one weight per slot: the
//! `n × n` matrix that is `+∞` off the links, in `O(n + m)`.
//! [`Closure::of_links`] reads the table to build the gauge, encode each
//! slot and plan the kernel, then runs the dense
//! [`blocked_floyd_warshall_i64`] kernel over the expanded counts or, for
//! large sparse domains, Johnson over the table ([`sparse_closure_i64`]
//! is the same kernel on a dense matrix); it refuses, with a
//! [`ScaleBailout`] reason, estimates with a slot off the half-ns grid,
//! `−∞`, or past the bound in its gauge. The [`Closure`] caches the
//! result as counts, so
//! single-edge tightenings are absorbed via [`Closure::relax_edge`] — one
//! integer step per pair the tightening can improve, `O(n²)` at most —
//! instead of a full `O(n³)` recompute, and
//! rationals reappear only when a distance is read, the gauge removed:
//! one entry by [`Closure::ratio_at`], the matrix by
//! [`Closure::ratio_dist`]. SHIFTS reads that same integer
//! closure: [`Closure::component`] gives a [`ScaledMatrix`] of one
//! component's counts, and runs both SHIFTS steps on it — `A_max` by
//! Howard's policy iteration over `i64` weights, warm-startable from any
//! policy and capped with an integer Karp fallback
//! ([`ScaledMatrix::solve`]), and the corrections pass, one Dijkstra
//! pass keyed by Howard's [`Bias`] ([`ScaledMatrix::corrections`]) or,
//! where the cap left none, a Bellman–Ford
//! ([`ScaledMatrix::shifted_distances`]). [`fast_max_cycle_mean`] is
//! integer Karp on rational input, for the kernel benchmarks.
//!
//! Every closure route returns distances only. The shortest paths behind
//! them — the constraint chains that explain a pair bound — are worked out
//! on demand by one rule, [`shortest_path_successors`], which reads the
//! per-link weights and the closure, and expanded with
//! [`reconstruct_path`].
//!
//! # Examples
//!
//! ```
//! use clocksync_graph::{DiGraph, bellman_ford};
//! use clocksync_time::{Ext, Ratio};
//!
//! let mut g = DiGraph::new(3);
//! g.add_edge(0, 1, Ext::Finite(Ratio::from_int(2)));
//! g.add_edge(1, 2, Ext::Finite(Ratio::from_int(-1)));
//! let dist = bellman_ford(&g, 0).expect("no negative cycle");
//! assert_eq!(dist[2], Ext::Finite(Ratio::from_int(1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bellman_ford;
mod blocked;
pub mod brute;
mod closure;
mod digraph;
mod floyd_warshall;
mod half_ns;
mod howard;
mod karp;
mod links;
mod matrix;
mod paths;
mod scaled_howard;
mod scaled_karp;
mod shifted;
mod sparse;
mod weight;

pub use bellman_ford::{bellman_ford, NegativeCycleError};
pub use blocked::{blocked_floyd_warshall_i64, UNREACHABLE};
pub use closure::{
    dispatch_closure_i64, link_counts, plan_closure_kernel, scaled_weights, Closure, ClosureKernel,
    RelaxOutcome, SPARSE_MAX_DENSITY, SPARSE_MIN_N,
};
pub use digraph::{DiGraph, Edge};
pub use floyd_warshall::floyd_warshall;
pub use half_ns::ScaleBailout;
pub use howard::{howard_max_cycle_mean, howard_solve, HowardSolution};
pub use karp::{karp_max_cycle_mean, CycleMean};
pub use links::{LinkTable, LinkWeights};
pub use matrix::SquareMatrix;
pub use paths::{reconstruct_path, shortest_path_successors};
pub use scaled_karp::{fast_max_cycle_mean, try_scaled_karp};
pub use shifted::{Bias, ScaledMatrix};
pub use sparse::sparse_closure_i64;
pub use weight::Weight;
