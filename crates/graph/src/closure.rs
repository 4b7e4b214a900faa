//! The closure subsystem: a scaled fast path for one-shot closures and an
//! incrementally-maintained [`Closure`] cache for online resynchronization.
//!
//! Two complementary optimizations of the GLOBAL ESTIMATES step live here:
//!
//! * [`fast_closure`] — the drop-in replacement for
//!   [`crate::floyd_warshall_with_paths`] over [`ExtRatio`] matrices. It
//!   rescales the matrix to plain `i64` (exact, via the least common
//!   denominator) and dispatches on density: the parallel
//!   [`crate::blocked_floyd_warshall_i64`] kernel for dense inputs, the
//!   Johnson-style [`crate::sparse_closure_i64`] for large sparse ones and
//!   the per-component [`crate::hierarchical_closure_i64`] when the domain
//!   splits into several weak components (see [`plan_closure_kernel`]). It
//!   falls back to the generic reference kernel whenever exact scaling is
//!   impossible or could overflow, reporting why via [`ScaleBailout`].
//!   Distances are bit-identical to the reference on every input the fast
//!   path accepts; successor matrices are bit-identical on the dense
//!   kernel and canonically tie-broken (but still valid) on the sparse
//!   ones.
//! * [`Closure`] — a cached `(dist, next)` pair supporting
//!   [`Closure::relax_edge`]: applying a single-edge weight *decrease* in
//!   `O(n²)` instead of recomputing the full `O(n³)` closure. Online
//!   synchronizers observe one message at a time, and each observation can
//!   only tighten the estimate of the link it travelled on, so steady-state
//!   resynchronization becomes a sequence of `relax_edge` calls.

use std::fmt;

use clocksync_time::{Ext, ExtRatio, Ratio};

use crate::{
    blocked_floyd_warshall_i64, floyd_warshall_with_paths, hierarchical_closure_i64,
    sparse_closure_i64, NegativeCycleError, SquareMatrix, Weight, UNREACHABLE,
};

/// Largest common denominator the scaling pass will build. Estimate
/// matrices produced from integer-nanosecond observations have
/// denominators 1 or 2 (the round-trip estimator halves an RTT), so this
/// is generous; it exists to bail out before `lcm` or the scaled
/// magnitudes overflow. Every scaling front end in the crate shares it.
pub(crate) const MAX_SCALE: i128 = 1 << 40;

fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.abs()
}

/// The least common multiple of a running common denominator (at most
/// [`MAX_SCALE`]) and one more denominator, or `None` once it passes
/// [`MAX_SCALE`] — the LCM step of every scaling front end in the crate.
pub(crate) fn lcm_scale(scale: i128, den: i128) -> Option<i128> {
    // Estimate matrices have denominators 1 or 2: skip the i128 divisions.
    if den == 1 || den == scale {
        return Some(scale);
    }
    scale
        .checked_mul(den / gcd(scale, den))
        .filter(|&s| s <= MAX_SCALE)
}

/// `r · scale` as an integer, for a `scale` that `r`'s denominator
/// divides; `None` on `i128` overflow.
pub(crate) fn scaled_numerator(r: Ratio, scale: i128) -> Option<i128> {
    let factor = match r.denominator() {
        1 => scale,
        den if den == scale => 1,
        den => scale / den,
    };
    r.numerator().checked_mul(factor)
}

/// Why [`scaled_weights`] refused to rescale a matrix to `i64` — the
/// reasons the GLOBAL ESTIMATES step falls off the scaled kernels onto the
/// `O(n³)` generic rational one. Surfaced through
/// [`try_scaled_closure_explained`] so callers can make the perf cliff
/// observable instead of silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleBailout {
    /// The matrix contains a `NegInf` entry, which the sentinel encoding
    /// cannot represent.
    NegInfWeight,
    /// The least common denominator of the finite entries exceeds
    /// `MAX_SCALE` (or overflows `i128`).
    ScaleOverflow,
    /// A scaled entry's magnitude exceeds `UNREACHABLE / (4n)`, close
    /// enough to the sentinel that `n` additions could overflow into it.
    MagnitudeOverflow,
}

impl ScaleBailout {
    /// A short stable label for obs fields and log lines.
    pub fn name(self) -> &'static str {
        match self {
            ScaleBailout::NegInfWeight => "neg-inf-weight",
            ScaleBailout::ScaleOverflow => "scale-overflow",
            ScaleBailout::MagnitudeOverflow => "magnitude-overflow",
        }
    }
}

impl fmt::Display for ScaleBailout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Exactly rescales an extended-rational matrix to sentinel-encoded `i64`,
/// returning the scaled matrix and the common denominator, or the
/// [`ScaleBailout`] reason when the matrix cannot be represented safely
/// (`NegInf` entries, an oversized common denominator, or magnitudes big
/// enough that `n` additions could approach [`UNREACHABLE`]).
///
/// # Errors
///
/// Returns the [`ScaleBailout`] reason when exact scaling is impossible.
pub fn scaled_weights(
    m: &SquareMatrix<ExtRatio>,
) -> Result<(SquareMatrix<i64>, i128), ScaleBailout> {
    let n = m.n();
    let mut scale: i128 = 1;
    for &w in m.as_slice() {
        match w {
            Ext::Finite(r) => {
                scale = lcm_scale(scale, r.denominator()).ok_or(ScaleBailout::ScaleOverflow)?;
            }
            Ext::PosInf => {}
            Ext::NegInf => return Err(ScaleBailout::NegInfWeight),
        }
    }
    // Any shortest path has at most n−1 edges, so the kernel's sums stay
    // within n·limit, far from the sentinel.
    let limit = UNREACHABLE / (4 * (n as i64).max(1));
    let mut out = Vec::with_capacity(n * n);
    for &w in m.as_slice() {
        out.push(match w {
            Ext::Finite(r) => scaled_numerator(r, scale)
                .and_then(|v| i64::try_from(v).ok())
                .filter(|v| (-limit..=limit).contains(v))
                .ok_or(ScaleBailout::MagnitudeOverflow)?,
            _ => UNREACHABLE,
        });
    }
    Ok((SquareMatrix::from_vec(n, out), scale))
}

/// The result type of the closure functions: `(dist, next)` on success,
/// the negative-cycle witness otherwise.
pub type ClosureResult = Result<(SquareMatrix<ExtRatio>, SquareMatrix<usize>), NegativeCycleError>;

/// Below this dimension the scaled fast path always uses the dense
/// blocked kernel: a sub-millisecond `n³` leaves nothing for the sparse
/// backends to win, and the dense kernel's successor matrix is
/// bit-identical to the generic reference (which the small-n equivalence
/// suites assert).
pub const SPARSE_MIN_N: usize = 192;

/// Finite off-diagonal density at or below which the Johnson backend is
/// dispatched (for `n ≥ SPARSE_MIN_N`), expressed as a fraction. Tuned
/// with `tables --bench-closure` on the WAN-ring and toroid arms: at 5%
/// density and `n = 512` the sparse kernel already wins ~4x over the
/// dense one, and the gap widens with `n`; above ~8% the dense kernel's
/// streaming row relaxations win back.
pub const SPARSE_MAX_DENSITY: f64 = 0.05;

/// Which scaled-`i64` kernel [`fast_closure`] dispatched to, reported on
/// the `sync.global_estimates` obs span (via
/// [`try_scaled_closure_explained`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosureKernel {
    /// The parallel blocked Floyd–Warshall ([`blocked_floyd_warshall_i64`]).
    DenseBlocked,
    /// Johnson-style reweighted SSSP per source
    /// ([`crate::sparse_closure_i64`]).
    SparseJohnson,
    /// Per-weak-component closures composed through boundary nodes
    /// ([`crate::hierarchical_closure_i64`]).
    Hierarchical,
}

impl ClosureKernel {
    /// The stable obs label (the `kernel` field of the
    /// `sync.global_estimates` span). `DenseBlocked` keeps the historical
    /// `scaled-i64` label.
    pub fn name(self) -> &'static str {
        match self {
            ClosureKernel::DenseBlocked => "scaled-i64",
            ClosureKernel::SparseJohnson => "sparse-johnson",
            ClosureKernel::Hierarchical => "hier-components",
        }
    }
}

impl fmt::Display for ClosureKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Chooses the scaled kernel for a sentinel-encoded matrix — the density
/// dispatch heuristic behind [`fast_closure`]:
///
/// * `n < SPARSE_MIN_N` → [`ClosureKernel::DenseBlocked`] (bit-identical
///   to the generic reference, and fastest at small `n` anyway);
/// * more than one weak component → [`ClosureKernel::Hierarchical`]
///   (each component pays only its own closure);
/// * finite off-diagonal density `≤ SPARSE_MAX_DENSITY` →
///   [`ClosureKernel::SparseJohnson`];
/// * otherwise the dense blocked kernel.
pub fn plan_closure_kernel(scaled: &SquareMatrix<i64>) -> ClosureKernel {
    let n = scaled.n();
    if n < SPARSE_MIN_N {
        return ClosureKernel::DenseBlocked;
    }
    // One pass: count finite off-diagonal edges and union the endpoints.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut edges = 0usize;
    for (i, j, &w) in scaled.iter_off_diagonal() {
        if w == UNREACHABLE {
            continue;
        }
        edges += 1;
        let (a, b) = (find(&mut parent, i), find(&mut parent, j));
        if a != b {
            parent[a] = b;
        }
    }
    let roots = (0..n).filter(|&i| find(&mut parent, i) == i).count();
    if roots > 1 {
        return ClosureKernel::Hierarchical;
    }
    let density = edges as f64 / (n as f64 * n as f64);
    if density <= SPARSE_MAX_DENSITY {
        ClosureKernel::SparseJohnson
    } else {
        ClosureKernel::DenseBlocked
    }
}

/// Runs the [`plan_closure_kernel`]-selected kernel over a
/// sentinel-encoded matrix. All three kernels agree exactly on distances;
/// the sparse kernels' successor matrices are canonically tie-broken
/// rather than Floyd–Warshall-identical.
///
/// # Errors
///
/// Returns [`NegativeCycleError`] when the graph has a negative cycle.
pub fn dispatch_closure_i64(
    scaled: &SquareMatrix<i64>,
) -> Result<(SquareMatrix<i64>, SquareMatrix<usize>), NegativeCycleError> {
    match plan_closure_kernel(scaled) {
        ClosureKernel::DenseBlocked => blocked_floyd_warshall_i64(scaled),
        ClosureKernel::SparseJohnson => sparse_closure_i64(scaled),
        ClosureKernel::Hierarchical => hierarchical_closure_i64(scaled),
    }
}

/// Runs a scaled `i64` kernel if the matrix admits exact scaling,
/// reporting which kernel the density dispatch chose, or the
/// [`ScaleBailout`] reason when it does not (the caller should use the
/// generic kernel, and knows why the fast path was lost).
///
/// # Errors
///
/// Returns the [`ScaleBailout`] reason when exact scaling is impossible.
pub fn try_scaled_closure_explained(
    m: &SquareMatrix<ExtRatio>,
) -> Result<(ClosureKernel, ClosureResult), ScaleBailout> {
    let (scaled, scale) = scaled_weights(m)?;
    let kernel = plan_closure_kernel(&scaled);
    let result = match kernel {
        ClosureKernel::DenseBlocked => blocked_floyd_warshall_i64(&scaled),
        ClosureKernel::SparseJohnson => sparse_closure_i64(&scaled),
        ClosureKernel::Hierarchical => hierarchical_closure_i64(&scaled),
    };
    let result = result.map(|(dist, next)| {
        let dist = SquareMatrix::from_fn(m.n(), |i, j| {
            let v = dist[(i, j)];
            if v == UNREACHABLE {
                Ext::PosInf
            } else {
                Ext::Finite(Ratio::new(v as i128, scale))
            }
        });
        (dist, next)
    });
    Ok((kernel, result))
}

/// Runs a scaled `i64` kernel if the matrix admits exact scaling.
/// Returns `None` when it does not (the caller should use the generic
/// kernel). Exposed so the equivalence test suite can tell "fast path
/// taken" apart from "silently fell back"; use
/// [`try_scaled_closure_explained`] to also learn the kernel choice or
/// the bailout reason.
pub fn try_scaled_closure(m: &SquareMatrix<ExtRatio>) -> Option<ClosureResult> {
    try_scaled_closure_explained(m)
        .ok()
        .map(|(_, result)| result)
}

/// The all-pairs shortest-path closure with path successors — same
/// contract as [`crate::floyd_warshall_with_paths`], computed via a
/// scaled-`i64` kernel whenever the input can be exactly rescaled (the
/// common case for estimate matrices), and via the generic exact kernel
/// otherwise. The scaled path density-dispatches between the dense
/// blocked kernel and the sparse/hierarchical backends (see
/// [`plan_closure_kernel`]). On every input all routes produce identical
/// distance matrices; on dense-kernel inputs the successor matrix is
/// identical to the generic reference too, while the sparse kernels
/// produce canonically tie-broken (still valid) successors.
///
/// # Errors
///
/// Returns [`NegativeCycleError`] when the graph contains a negative
/// cycle.
///
/// # Examples
///
/// ```
/// use clocksync_graph::{fast_closure, SquareMatrix, Weight};
/// use clocksync_time::{Ext, ExtRatio, Ratio};
///
/// let mut m = SquareMatrix::from_fn(3, |i, j| {
///     if i == j { <ExtRatio as Weight>::zero() } else { Ext::PosInf }
/// });
/// m[(0, 1)] = Ext::Finite(Ratio::new(1, 2));
/// m[(1, 2)] = Ext::Finite(Ratio::from_int(2));
/// let (dist, _next) = fast_closure(&m)?;
/// assert_eq!(dist[(0, 2)], Ext::Finite(Ratio::new(5, 2)));
/// # Ok::<(), clocksync_graph::NegativeCycleError>(())
/// ```
pub fn fast_closure(m: &SquareMatrix<ExtRatio>) -> ClosureResult {
    match try_scaled_closure_explained(m) {
        Ok((_, result)) => result,
        Err(_) => floyd_warshall_with_paths(m),
    }
}

/// What a [`Closure::relax_edge`] call did — and, crucially, whether the
/// cache may now be stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelaxOutcome {
    /// At least one closure entry tightened; the cache is exact for the
    /// updated graph.
    Tightened,
    /// Nothing changed and nothing can be stale: `w` equals the cached
    /// `dist[(u, v)]`, is `+∞` over an already-unreachable pair, or is a
    /// non-negative self-loop. The cache remains exact.
    Unchanged,
    /// `w` is strictly looser than the cached `dist[(u, v)]`, so the
    /// relaxation **was not applied**. The cache cannot tell two callers
    /// apart: one probing a redundant heavier edge (a new chord whose
    /// weight exceeds an existing path — harmless, the closure is
    /// unchanged and still exact), and one whose underlying edge weight
    /// *increased* from a value the cached entries may depend on — in
    /// which case the cache is stale and too tight. Callers that cannot
    /// rule out a genuine loosening (e.g. after evidence retraction) MUST
    /// discard the cache or patch the affected component before the next
    /// query; callers that only ever tighten may safely ignore this
    /// outcome.
    StaleLoosening,
}

impl RelaxOutcome {
    /// Whether the relaxation changed any cached entry.
    pub fn changed(self) -> bool {
        matches!(self, RelaxOutcome::Tightened)
    }
}

/// A cached metric closure that can absorb single-edge weight decreases in
/// `O(n²)` — the incremental engine behind online resynchronization.
///
/// The invariant: `dist` is the exact all-pairs shortest-path closure of
/// some weighted digraph, and `next` is a valid successor matrix for it
/// (`next[(i, j)]` begins a shortest `i → j` path; `usize::MAX` iff
/// unreachable or `i == j`). [`Closure::relax_edge`] preserves the
/// invariant under edge insertions/decreases; any other change requires a
/// rebuild with [`Closure::new`].
///
/// # Examples
///
/// ```
/// use clocksync_graph::{Closure, SquareMatrix};
/// use clocksync_time::Ext;
///
/// let mut m = SquareMatrix::filled(3, Ext::PosInf);
/// for i in 0..3 { m[(i, i)] = Ext::Finite(0i64); }
/// m[(0, 1)] = Ext::Finite(3);
/// m[(1, 2)] = Ext::Finite(3);
/// let mut c = Closure::new(&m)?;
/// assert_eq!(c.dist()[(0, 2)], Ext::Finite(6));
/// // A tighter 0 → 1 estimate arrives: every pair through it improves.
/// assert!(c.relax_edge(0, 1, Ext::Finite(1))?.changed());
/// assert_eq!(c.dist()[(0, 2)], Ext::Finite(4));
/// # Ok::<(), clocksync_graph::NegativeCycleError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Closure<W> {
    dist: SquareMatrix<W>,
    next: SquareMatrix<usize>,
}

impl<W: Weight> Closure<W> {
    /// Builds the closure of a weight matrix with the generic exact kernel
    /// (conventions of [`crate::floyd_warshall_with_paths`]).
    ///
    /// # Errors
    ///
    /// Returns [`NegativeCycleError`] when the graph has a negative cycle.
    pub fn new(m: &SquareMatrix<W>) -> Result<Closure<W>, NegativeCycleError> {
        floyd_warshall_with_paths(m).map(|(dist, next)| Closure { dist, next })
    }

    /// Wraps an already-computed `(dist, next)` pair — e.g. the output of
    /// [`fast_closure`]. The pair must satisfy the closure invariant.
    ///
    /// # Panics
    ///
    /// Panics if the two matrices disagree on dimension.
    pub fn from_parts(dist: SquareMatrix<W>, next: SquareMatrix<usize>) -> Closure<W> {
        assert_eq!(
            dist.n(),
            next.n(),
            "dist and next must have equal dimension"
        );
        Closure { dist, next }
    }

    /// The dimension.
    pub fn n(&self) -> usize {
        self.dist.n()
    }

    /// The closure distances.
    pub fn dist(&self) -> &SquareMatrix<W> {
        &self.dist
    }

    /// The successor matrix (see [`crate::reconstruct_path`]).
    pub fn next(&self) -> &SquareMatrix<usize> {
        &self.next
    }

    /// Consumes the cache, returning `(dist, next)`.
    pub fn into_parts(self) -> (SquareMatrix<W>, SquareMatrix<usize>) {
        (self.dist, self.next)
    }

    /// Incorporates a new edge `u → v` of weight `w` (equivalently: lowers
    /// the existing edge to `w`), updating the cached closure in `O(n²)`:
    ///
    /// `dist[i][j] ← min(dist[i][j], dist[i][u] + w + dist[v][j])`.
    ///
    /// This is exact because a weight *decrease* cannot lengthen any
    /// shortest path, and any path improved by the change uses the new
    /// edge, splitting into an old shortest `i → u` prefix and `v → j`
    /// suffix — both of which the cached closure already knows.
    ///
    /// The [`RelaxOutcome`] makes the staleness contract explicit:
    /// [`RelaxOutcome::Tightened`] when entries changed,
    /// [`RelaxOutcome::Unchanged`] when `w` equals the cached `dist[(u,
    /// v)]` (or is a harmless non-negative self-loop / `+∞` over an
    /// already-unreachable pair — cases that can never hide a stale
    /// cache), and [`RelaxOutcome::StaleLoosening`] when `w` is *strictly
    /// looser* than the cached entry. A `StaleLoosening` relaxation is
    /// **not applied**; see that variant's documentation for the caller's
    /// obligation. All three no-op verdicts are detected in `O(1)`.
    ///
    /// # Errors
    ///
    /// Returns [`NegativeCycleError`] when the new edge closes a negative
    /// cycle (`w + dist[(v, u)] < 0`). The cache is left in an unspecified
    /// partially-updated state and must be discarded or rebuilt; this
    /// mirrors the full kernels, which also reject such graphs.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn relax_edge(
        &mut self,
        u: usize,
        v: usize,
        w: W,
    ) -> Result<RelaxOutcome, NegativeCycleError> {
        self.relax_edge_impl(u, v, w, None)
    }

    /// Like [`Closure::relax_edge`], but restricts the `O(n²)` update loop
    /// to `members` — exact whenever `members` contains every node `x`
    /// with finite `dist[(x, u)]` and every node `y` with finite
    /// `dist[(v, y)]` (a superset of the weak component of `{u, v}` in the
    /// closure's underlying graph always qualifies: finiteness demands an
    /// undirected finite path). Steady-state resynchronization on a
    /// multi-component domain then costs `O(k²)` per tightening, `k` the
    /// component size, instead of `O(n²)`.
    ///
    /// # Errors
    ///
    /// Same as [`Closure::relax_edge`].
    ///
    /// # Panics
    ///
    /// Panics if `u`, `v` or any member is out of range.
    pub fn relax_edge_within(
        &mut self,
        u: usize,
        v: usize,
        w: W,
        members: &[usize],
    ) -> Result<RelaxOutcome, NegativeCycleError> {
        self.relax_edge_impl(u, v, w, Some(members))
    }

    fn relax_edge_impl(
        &mut self,
        u: usize,
        v: usize,
        w: W,
        members: Option<&[usize]>,
    ) -> Result<RelaxOutcome, NegativeCycleError> {
        let n = self.dist.n();
        assert!(u < n && v < n, "edge endpoint out of range");
        if u == v {
            // A self-loop only matters when negative (a 1-cycle); the
            // closure diagonal is pinned at zero, so a non-negative one can
            // never have been baked into any entry — not a staleness risk.
            return if w < W::zero() {
                Err(NegativeCycleError { witness: u })
            } else {
                Ok(RelaxOutcome::Unchanged)
            };
        }
        let cached = self.dist[(u, v)];
        if w == cached || (!w.is_reachable() && !cached.is_reachable()) {
            return Ok(RelaxOutcome::Unchanged);
        }
        if !w.is_reachable() || w > cached {
            return Ok(RelaxOutcome::StaleLoosening);
        }
        // Snapshots: the new edge cannot change column u or row v unless it
        // closes a negative cycle (w + dist[(v, u)] ≥ 0 ⇒ no i → u path
        // improves by detouring through u → v → … → u), so reading the old
        // values below is exact; a closed negative cycle instead surfaces
        // as a negative diagonal entry, reported as the error.
        let mut changed = false;
        let mut negative = None;
        match members {
            None => {
                let col_u: Vec<W> = (0..n).map(|i| self.dist[(i, u)]).collect();
                let row_v: Vec<W> = (0..n).map(|j| self.dist[(v, j)]).collect();
                let next_u: Vec<usize> = (0..n).map(|i| self.next[(i, u)]).collect();
                for i in 0..n {
                    let diu = col_u[i];
                    if !diu.is_reachable() {
                        continue;
                    }
                    let base = diu + w;
                    let first_hop = if i == u { v } else { next_u[i] };
                    for (j, &dvj) in row_v.iter().enumerate() {
                        if !dvj.is_reachable() {
                            continue;
                        }
                        let cand = base + dvj;
                        if cand < self.dist[(i, j)] {
                            self.dist[(i, j)] = cand;
                            self.next[(i, j)] = first_hop;
                            changed = true;
                            if i == j && negative.is_none() {
                                negative = Some(i);
                            }
                        }
                    }
                }
            }
            Some(indices) => {
                let col_u: Vec<W> = indices.iter().map(|&i| self.dist[(i, u)]).collect();
                let row_v: Vec<W> = indices.iter().map(|&j| self.dist[(v, j)]).collect();
                let next_u: Vec<usize> = indices.iter().map(|&i| self.next[(i, u)]).collect();
                for (ii, &i) in indices.iter().enumerate() {
                    let diu = col_u[ii];
                    if !diu.is_reachable() {
                        continue;
                    }
                    let base = diu + w;
                    let first_hop = if i == u { v } else { next_u[ii] };
                    for (jj, &dvj) in row_v.iter().enumerate() {
                        if !dvj.is_reachable() {
                            continue;
                        }
                        let j = indices[jj];
                        let cand = base + dvj;
                        if cand < self.dist[(i, j)] {
                            self.dist[(i, j)] = cand;
                            self.next[(i, j)] = first_hop;
                            changed = true;
                            if i == j && negative.is_none() {
                                negative = Some(i);
                            }
                        }
                    }
                }
            }
        }
        match negative {
            Some(witness) => Err(NegativeCycleError { witness }),
            None if changed => Ok(RelaxOutcome::Tightened),
            None => Ok(RelaxOutcome::Unchanged),
        }
    }
}

impl Closure<ExtRatio> {
    /// Builds the closure via [`fast_closure`] (the parallel scaled-`i64`
    /// kernel with generic fallback).
    ///
    /// # Errors
    ///
    /// Returns [`NegativeCycleError`] when the graph has a negative cycle.
    pub fn fast(m: &SquareMatrix<ExtRatio>) -> Result<Closure<ExtRatio>, NegativeCycleError> {
        fast_closure(m).map(|(dist, next)| Closure { dist, next })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconstruct_path;

    fn ratio_matrix(n: usize, edges: &[(usize, usize, i128, i128)]) -> SquareMatrix<ExtRatio> {
        let mut m = SquareMatrix::from_fn(n, |i, j| {
            if i == j {
                <ExtRatio as Weight>::zero()
            } else {
                Ext::PosInf
            }
        });
        for &(a, b, num, den) in edges {
            m[(a, b)] = Ext::Finite(Ratio::new(num, den));
        }
        m
    }

    #[test]
    fn fast_closure_matches_generic_on_rationals() {
        let m = ratio_matrix(
            4,
            &[
                (0, 1, 1, 2),
                (1, 2, 3, 2),
                (2, 3, -1, 2),
                (0, 3, 10, 1),
                (3, 0, 5, 1),
            ],
        );
        assert!(
            try_scaled_closure(&m).is_some(),
            "should take the fast path"
        );
        let (fd, fnext) = fast_closure(&m).unwrap();
        let (gd, gnext) = floyd_warshall_with_paths(&m).unwrap();
        assert_eq!(fd, gd);
        assert_eq!(fnext, gnext);
    }

    #[test]
    fn scaling_rejects_neg_inf_and_huge_denominators() {
        let mut m = ratio_matrix(2, &[(0, 1, 1, 1)]);
        m[(1, 0)] = Ext::NegInf;
        assert!(try_scaled_closure(&m).is_none());
        let mut m = ratio_matrix(2, &[(0, 1, 1, 1)]);
        m[(1, 0)] = Ext::Finite(Ratio::new(1, MAX_SCALE * 2 + 1));
        assert!(try_scaled_closure(&m).is_none());
    }

    #[test]
    fn fast_closure_falls_back_when_unscalable() {
        let mut m = ratio_matrix(2, &[(0, 1, 3, 1)]);
        m[(1, 0)] = Ext::Finite(Ratio::new(1, MAX_SCALE * 2 + 1));
        let (d, _) = fast_closure(&m).unwrap();
        assert_eq!(d[(0, 1)], Ext::Finite(Ratio::from_int(3)));
    }

    #[test]
    fn fast_closure_reports_negative_cycles() {
        let m = ratio_matrix(2, &[(0, 1, 1, 1), (1, 0, -2, 1)]);
        assert!(fast_closure(&m).is_err());
    }

    #[test]
    fn relax_edge_matches_full_recompute() {
        let mut m = ratio_matrix(4, &[(0, 1, 4, 1), (1, 2, 4, 1), (2, 3, 4, 1), (3, 0, 4, 1)]);
        let mut c = Closure::new(&m).unwrap();
        // Tighten 1 → 2, then add a brand-new chord 0 → 2.
        for (u, v, w) in [
            (1usize, 2usize, Ratio::from_int(1)),
            (0, 2, Ratio::from_int(2)),
        ] {
            m[(u, v)] = Ext::Finite(w);
            c.relax_edge(u, v, Ext::Finite(w)).unwrap();
            let fresh = Closure::new(&m).unwrap();
            assert_eq!(c.dist(), fresh.dist());
        }
    }

    #[test]
    fn relax_edge_no_op_cases() {
        let m = ratio_matrix(3, &[(0, 1, 2, 1), (1, 2, 2, 1)]);
        let mut c = Closure::new(&m).unwrap();
        let before = c.clone();
        // Worse than the existing estimate: not applied, and flagged so a
        // caller that cannot rule out a genuine loosening knows to rebuild.
        assert_eq!(
            c.relax_edge(0, 1, Ext::Finite(Ratio::from_int(7))).unwrap(),
            RelaxOutcome::StaleLoosening
        );
        // Equal to it, unreachable-over-unreachable, and a nonnegative
        // self-loop: provably harmless no-ops.
        assert_eq!(
            c.relax_edge(0, 1, Ext::Finite(Ratio::from_int(2))).unwrap(),
            RelaxOutcome::Unchanged
        );
        assert_eq!(
            c.relax_edge(2, 0, Ext::PosInf).unwrap(),
            RelaxOutcome::Unchanged
        );
        assert_eq!(
            c.relax_edge(1, 1, Ext::Finite(Ratio::ZERO)).unwrap(),
            RelaxOutcome::Unchanged
        );
        assert_eq!(c, before);
    }

    #[test]
    fn relax_edge_flags_stale_loosenings() {
        // dist(0, 2) = 4 rides on the direct edge 0 → 1 of weight 2. An
        // operator retracts the evidence: the edge loosens to 9. The cache
        // cannot absorb that; it must say so, leave itself untouched (still
        // claiming the now-too-tight 4), and the caller's mandated rebuild
        // must agree with a fresh recompute.
        let mut m = ratio_matrix(3, &[(0, 1, 2, 1), (1, 2, 2, 1)]);
        let mut c = Closure::new(&m).unwrap();
        m[(0, 1)] = Ext::Finite(Ratio::from_int(9));
        assert_eq!(
            c.relax_edge(0, 1, Ext::Finite(Ratio::from_int(9))).unwrap(),
            RelaxOutcome::StaleLoosening
        );
        // The stale cache still serves the outdated bound — which is
        // exactly why the contract demands a rebuild now.
        assert_eq!(c.dist()[(0, 2)], Ext::Finite(Ratio::from_int(4)));
        let rebuilt = Closure::fast(&m).unwrap();
        let fresh = Closure::new(&m).unwrap();
        assert_eq!(rebuilt.dist(), fresh.dist());
        assert_eq!(rebuilt.dist()[(0, 2)], Ext::Finite(Ratio::from_int(11)));
        // A loosening to +∞ (forgotten link) over a finite entry is flagged
        // the same way.
        let mut c2 = fresh.clone();
        assert_eq!(
            c2.relax_edge(1, 2, Ext::PosInf).unwrap(),
            RelaxOutcome::StaleLoosening
        );
    }

    #[test]
    fn relax_edge_within_matches_unscoped() {
        // Two weak components {0, 1, 2} and {3, 4}; tighten 0 → 1 scoped to
        // its component and compare against the unscoped relaxation.
        let edges = [
            (0, 1, 4, 1),
            (1, 2, 4, 1),
            (2, 0, 1, 1),
            (3, 4, 2, 1),
            (4, 3, 5, 1),
        ];
        let m = ratio_matrix(5, &edges);
        let mut scoped = Closure::new(&m).unwrap();
        let mut full = scoped.clone();
        let w = Ext::Finite(Ratio::from_int(1));
        let a = scoped.relax_edge_within(0, 1, w, &[0, 1, 2]).unwrap();
        let b = full.relax_edge(0, 1, w).unwrap();
        assert_eq!(a, b);
        assert_eq!(scoped, full);
        // And a scoped negative-cycle detection agrees too.
        let bad = Ext::Finite(Ratio::from_int(-9));
        assert!(scoped.relax_edge_within(1, 0, bad, &[0, 1, 2]).is_err());
        assert!(full.relax_edge(1, 0, bad).is_err());
    }

    #[test]
    fn relax_edge_detects_negative_cycles() {
        let m = ratio_matrix(3, &[(0, 1, 2, 1), (1, 2, 2, 1), (2, 0, 2, 1)]);
        let mut c = Closure::new(&m).unwrap();
        // dist(1, 0) = 4; an edge 0 → 1 of weight −5 closes a −1 cycle.
        let err = c
            .relax_edge(0, 1, Ext::Finite(Ratio::from_int(-5)))
            .unwrap_err();
        let _ = err.witness;
        // Negative self-loops are 1-cycles.
        let mut c2 = Closure::new(&m).unwrap();
        assert!(c2
            .relax_edge(1, 1, Ext::Finite(Ratio::from_int(-1)))
            .is_err());
    }

    #[test]
    fn relax_edge_keeps_successors_valid() {
        let m = ratio_matrix(4, &[(0, 1, 4, 1), (1, 2, 4, 1), (2, 3, 4, 1)]);
        let mut c = Closure::new(&m).unwrap();
        c.relax_edge(0, 2, Ext::Finite(Ratio::from_int(3))).unwrap();
        c.relax_edge(1, 3, Ext::Finite(Ratio::from_int(5))).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                match reconstruct_path(c.next(), i, j) {
                    Some(path) => {
                        assert_eq!(path.first(), Some(&i));
                        assert_eq!(path.last(), Some(&j));
                        assert!(c.dist()[(i, j)].is_reachable());
                    }
                    None => assert!(!c.dist()[(i, j)].is_reachable()),
                }
            }
        }
    }

    #[test]
    fn scaling_bailout_reasons_are_reported() {
        let mut m = ratio_matrix(2, &[(0, 1, 1, 1)]);
        m[(1, 0)] = Ext::NegInf;
        assert_eq!(
            try_scaled_closure_explained(&m).unwrap_err(),
            ScaleBailout::NegInfWeight
        );
        let mut m = ratio_matrix(2, &[(0, 1, 1, 1)]);
        m[(1, 0)] = Ext::Finite(Ratio::new(1, MAX_SCALE * 2 + 1));
        assert_eq!(
            try_scaled_closure_explained(&m).unwrap_err(),
            ScaleBailout::ScaleOverflow
        );
        assert_eq!(ScaleBailout::MagnitudeOverflow.name(), "magnitude-overflow");
    }

    #[test]
    fn scaling_boundary_at_max_scale() {
        // A common denominator of exactly MAX_SCALE is the last one the
        // scaling pass accepts; one step beyond bails with ScaleOverflow.
        let mut m = ratio_matrix(2, &[(0, 1, 1, 1)]);
        m[(1, 0)] = Ext::Finite(Ratio::new(1, MAX_SCALE));
        let (_, result) = try_scaled_closure_explained(&m).expect("MAX_SCALE itself is admissible");
        let (d, _) = result.unwrap();
        assert_eq!(d[(1, 0)], Ext::Finite(Ratio::new(1, MAX_SCALE)));
        // MAX_SCALE * 2 stays a power of two times two — still a single
        // denominator, but past the cap.
        let mut m = ratio_matrix(2, &[(0, 1, 1, 1)]);
        m[(1, 0)] = Ext::Finite(Ratio::new(1, MAX_SCALE * 2));
        assert_eq!(
            try_scaled_closure_explained(&m).unwrap_err(),
            ScaleBailout::ScaleOverflow
        );
    }

    #[test]
    fn scaling_boundary_at_magnitude_limit() {
        // The per-entry magnitude bound is UNREACHABLE / (4n): exactly at
        // the limit scales fine, one past it bails with MagnitudeOverflow
        // (and fast_closure still answers, via the generic kernel).
        let limit = (UNREACHABLE / (4 * 2)) as i128;
        let mut m = ratio_matrix(2, &[]);
        m[(0, 1)] = Ext::Finite(Ratio::from_int(limit));
        let (_, result) = try_scaled_closure_explained(&m).expect("limit itself is admissible");
        let (d, _) = result.unwrap();
        assert_eq!(d[(0, 1)], Ext::Finite(Ratio::from_int(limit)));
        m[(0, 1)] = Ext::Finite(Ratio::from_int(limit + 1));
        assert_eq!(
            try_scaled_closure_explained(&m).unwrap_err(),
            ScaleBailout::MagnitudeOverflow
        );
        let (d, _) = fast_closure(&m).unwrap();
        assert_eq!(d[(0, 1)], Ext::Finite(Ratio::from_int(limit + 1)));
    }

    #[test]
    fn kernel_dispatch_boundaries() {
        let ring = |n: usize| {
            let mut m = SquareMatrix::filled(n, UNREACHABLE);
            for i in 0..n {
                m[(i, i)] = 0;
                m[(i, (i + 1) % n)] = 1;
                m[((i + 1) % n, i)] = 1;
            }
            m
        };
        // Below SPARSE_MIN_N the dense kernel is chosen however sparse the
        // input (keeping small-n successor matrices bit-identical to the
        // generic reference).
        assert_eq!(
            plan_closure_kernel(&ring(SPARSE_MIN_N - 1)),
            ClosureKernel::DenseBlocked
        );
        // At SPARSE_MIN_N a ring is far below the density threshold.
        assert_eq!(
            plan_closure_kernel(&ring(SPARSE_MIN_N)),
            ClosureKernel::SparseJohnson
        );
        // A fully dense matrix of the same size stays on the dense kernel.
        let mut dense = SquareMatrix::filled(SPARSE_MIN_N, 1);
        for i in 0..SPARSE_MIN_N {
            dense[(i, i)] = 0;
        }
        assert_eq!(plan_closure_kernel(&dense), ClosureKernel::DenseBlocked);
        // Two disjoint rings dispatch to the hierarchical backend.
        let half = SPARSE_MIN_N / 2;
        let mut split = SquareMatrix::filled(SPARSE_MIN_N, UNREACHABLE);
        for i in 0..SPARSE_MIN_N {
            split[(i, i)] = 0;
        }
        for c in 0..2 {
            let base = c * half;
            for i in 0..half {
                split[(base + i, base + (i + 1) % half)] = 1;
            }
        }
        assert_eq!(plan_closure_kernel(&split), ClosureKernel::Hierarchical);
        assert_eq!(ClosureKernel::DenseBlocked.name(), "scaled-i64");
        assert_eq!(ClosureKernel::SparseJohnson.name(), "sparse-johnson");
        assert_eq!(ClosureKernel::Hierarchical.name(), "hier-components");
    }

    #[test]
    fn from_parts_round_trips() {
        let m = ratio_matrix(3, &[(0, 1, 1, 1), (1, 2, 1, 1)]);
        let c = Closure::fast(&m).unwrap();
        assert_eq!(c.n(), 3);
        let (d, next) = c.clone().into_parts();
        assert_eq!(Closure::from_parts(d, next), c);
    }
}
