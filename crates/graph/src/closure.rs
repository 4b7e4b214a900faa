//! The closure subsystem: the integer [`Closure`] of a domain's
//! estimates, one-shot and as the cache behind online resynchronization.
//!
//! [`Closure::of_links`] is the GLOBAL ESTIMATES step over integers. It
//! reads the per-link estimates off the link table: the gauge's forest
//! (`half_ns.rs`), the encoding of each slot as a gauged half-nanosecond
//! count and the kernel plan ([`plan_closure_kernel`]) all run in
//! `O(n + m)`. Then it runs one of two kernels: the dense
//! [`crate::blocked_floyd_warshall_i64`] over the counts' expansion, or,
//! for large inputs that are sparse or split into several weak
//! components, Johnson over the table itself. The gauge takes the clocks'
//! start-time differences out of every entry, so clocks that count from
//! different epochs stay on these kernels. Estimates with a slot without a
//! gauged count — off the half-nanosecond grid, `−∞`, or past the
//! magnitude bound — are refused with the [`ScaleBailout`] reason, and
//! their domain takes the caller's residual rational route.
//! [`Closure::new`] takes a dense matrix by way of its link form.
//!
//! The [`Closure`] is also the online engine's cache.
//! [`Closure::relax_edge`] applies a single-edge weight *decrease* in one
//! pass over a column and a row plus one integer step per pair the
//! decrease can improve — `O(n²)` at most — instead of recomputing the
//! full `O(n³)` closure. Online synchronizers observe one message at a
//! time, and each observation can only tighten the estimate of the link
//! it travelled on, so steady-state resynchronization becomes a sequence
//! of `relax_edge` calls. SHIFTS reads each component's counts with
//! [`Closure::component`]. Rationals appear only at the edges: weights
//! arrive as [`ExtRatio`], and a distance leaves as one, the gauge
//! removed, when a caller reads it — one entry with [`Closure::ratio_at`],
//! or the whole matrix with [`Closure::ratio_dist`].
//!
//! Every route returns distances only. The paths behind them — the
//! constraint chains — come from [`crate::shortest_path_successors`], on
//! demand, by one rule that does not depend on the route.

use std::borrow::Cow;

use clocksync_time::{Ext, ExtRatio, Ratio};

use crate::blocked::close_in_place;
use crate::half_ns::{closure_limit, gauged, matrix_limit, Gauge, ScaleBailout};
use crate::sparse::johnson;
use crate::{
    blocked_floyd_warshall_i64, LinkTable, LinkWeights, NegativeCycleError, ScaledMatrix,
    SquareMatrix, Weight, UNREACHABLE,
};

/// `local`'s slots as gauged counts within [`closure_limit`], with the
/// gauge.
fn gauged_links(local: &LinkWeights<ExtRatio>) -> Result<(Vec<i64>, Gauge), ScaleBailout> {
    let gauge = Gauge::of(local)?;
    let counts = gauge.encode_links(local, closure_limit(local.n()))?;
    Ok((counts, gauge))
}

/// The dense sentinel-encoded matrix of per-slot counts: `0` on the
/// diagonal, [`UNREACHABLE`] off the links.
fn expand(table: &LinkTable, counts: &[i64]) -> SquareMatrix<i64> {
    let n = table.n();
    let mut m = SquareMatrix::filled(n, UNREACHABLE);
    for p in 0..n {
        m[(p, p)] = 0;
    }
    for (p, q, s) in table.slots() {
        m[(p, q)] = counts[s];
    }
    m
}

/// The link form of a sentinel-encoded matrix: a link wherever either
/// direction of an off-diagonal pair is finite, and each slot's count. The
/// diagonal plays no part.
pub fn link_counts(m: &SquareMatrix<i64>) -> (LinkTable, Vec<i64>) {
    let n = m.n();
    let links = (0..n).flat_map(|p| (p + 1..n).map(move |q| (p, q)));
    let table = LinkTable::new(
        n,
        links.filter(|&(p, q)| m[(p, q)] != UNREACHABLE || m[(q, p)] != UNREACHABLE),
    );
    let counts = table.slots().map(|(p, q, _)| m[(p, q)]).collect();
    (table, counts)
}

/// Encodes the per-link estimates as gauged half-nanosecond counts in the
/// sentinel encoding ([`UNREACHABLE`] for `+∞`), the input of every
/// integer closure kernel, expanded to the dense matrix the blocked kernel
/// reads — or names the [`ScaleBailout`] reason of the first slot without
/// a count: `−∞`, a value off the half-nanosecond grid, or a gauged
/// magnitude big enough that the kernels' sums could approach the sentinel
/// (DESIGN.md §4b). The kernels' distances are the gauged image of the
/// closure; [`Closure::of_links`] keeps the gauge to remove it again.
///
/// # Errors
///
/// Returns the [`ScaleBailout`] reason when a slot has no count.
pub fn scaled_weights(local: &LinkWeights<ExtRatio>) -> Result<SquareMatrix<i64>, ScaleBailout> {
    gauged_links(local).map(|(counts, _)| expand(local.table(), &counts))
}

/// Below this dimension the integer fast path always uses the dense
/// kernel: a sub-millisecond `n³` leaves nothing for Johnson's backend to
/// win.
pub const SPARSE_MIN_N: usize = 192;

/// Finite off-diagonal density at or below which a one-component domain
/// with `n ≥ SPARSE_MIN_N` goes to the Johnson backend (one with several
/// weak components always does), expressed as a fraction. Tuned
/// with `tables --bench-closure` on the WAN-ring and toroid arms: at 5%
/// density and `n = 512` the sparse kernel already wins ~4x over the
/// dense one, and the gap widens with `n`; above ~8% the dense kernel's
/// streaming row relaxations win back.
pub const SPARSE_MAX_DENSITY: f64 = 0.05;

/// Which integer kernel [`Closure::of_links`] dispatched to, reported on
/// the `sync.global_estimates` obs span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosureKernel {
    /// The dense Floyd–Warshall ([`blocked_floyd_warshall_i64`]).
    DenseBlocked,
    /// Johnson-style reweighted SSSP per source
    /// ([`crate::sparse_closure_i64`]).
    SparseJohnson,
}

impl ClosureKernel {
    /// The stable obs label (the `kernel` field of the
    /// `sync.global_estimates` span). `DenseBlocked` keeps the historical
    /// `scaled-i64` label.
    pub fn name(self) -> &'static str {
        match self {
            ClosureKernel::DenseBlocked => "scaled-i64",
            ClosureKernel::SparseJohnson => "sparse-johnson",
        }
    }

    /// Runs the kernel over per-slot counts: the dense one on their
    /// expansion, in place, Johnson on the table itself.
    fn run(
        self,
        table: &LinkTable,
        counts: &[i64],
    ) -> Result<SquareMatrix<i64>, NegativeCycleError> {
        match self {
            ClosureKernel::DenseBlocked => {
                let mut d = expand(table, counts);
                close_in_place(&mut d)?;
                Ok(d)
            }
            ClosureKernel::SparseJohnson => johnson(table, counts),
        }
    }
}

/// Chooses the integer kernel for per-slot counts in the sentinel
/// encoding — the dispatch heuristic behind [`Closure::of_links`]:
///
/// * `n < SPARSE_MIN_N` → [`ClosureKernel::DenseBlocked`] (fastest at
///   small `n`);
/// * more than one weak component, or finite off-diagonal density
///   `≤ SPARSE_MAX_DENSITY` → [`ClosureKernel::SparseJohnson`] (each
///   Dijkstra run stays inside its source's component);
/// * otherwise the dense blocked kernel.
///
/// # Panics
///
/// Panics if `counts` does not hold one count per slot of `table`.
pub fn plan_closure_kernel(table: &LinkTable, counts: &[i64]) -> ClosureKernel {
    assert_eq!(counts.len(), table.len(), "one count per slot");
    let n = table.n();
    if n < SPARSE_MIN_N {
        return ClosureKernel::DenseBlocked;
    }
    // One pass: count finite slots and union their endpoints.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut edges = 0usize;
    for (i, j, s) in table.slots() {
        if counts[s] == UNREACHABLE {
            continue;
        }
        edges += 1;
        let (a, b) = (find(&mut parent, i), find(&mut parent, j));
        if a != b {
            parent[a] = b;
        }
    }
    let roots = (0..n).filter(|&i| find(&mut parent, i) == i).count();
    let density = edges as f64 / (n as f64 * n as f64);
    if roots > 1 || density <= SPARSE_MAX_DENSITY {
        ClosureKernel::SparseJohnson
    } else {
        ClosureKernel::DenseBlocked
    }
}

/// Runs the [`plan_closure_kernel`]-selected kernel over a
/// sentinel-encoded matrix, by way of its [`link_counts`]. Both kernels
/// agree exactly on distances.
///
/// # Errors
///
/// Returns [`NegativeCycleError`] when the graph has a negative cycle.
pub fn dispatch_closure_i64(
    scaled: &SquareMatrix<i64>,
) -> Result<SquareMatrix<i64>, NegativeCycleError> {
    let (table, counts) = link_counts(scaled);
    match plan_closure_kernel(&table, &counts) {
        ClosureKernel::DenseBlocked => blocked_floyd_warshall_i64(scaled),
        ClosureKernel::SparseJohnson => crate::sparse_closure_i64(scaled),
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
    /// discard the cache before the next query; callers that only ever
    /// tighten may safely ignore this outcome.
    StaleLoosening,
    /// `w` has no gauged half-nanosecond count within the cache's bound —
    /// it is `−∞`, off the half-nanosecond grid, or past the magnitude
    /// bound of DESIGN.md §4b in the cache's gauge, as a link first joining
    /// two clocks an epoch apart is — or the relaxation could carry an
    /// entry past the bound. The relaxation **was not applied** and the
    /// cache is unchanged. The cache is still exact for the graph without
    /// the edge, but cannot represent the graph with it: a caller that
    /// keeps `w` MUST discard the cache and rebuild it with
    /// [`Closure::of_links`], which chooses a fresh gauge and refuses the graph
    /// only when no gauge holds it.
    Unrepresentable,
}

/// A metric closure on gauged half-nanosecond counts that can absorb
/// single-edge weight decreases in `O(n²)` — the integer GLOBAL ESTIMATES
/// result and the incremental engine behind online resynchronization.
///
/// The invariant: `dist` holds, in the [`scaled_weights`] encoding under
/// the closure's own gauge, the exact all-pairs shortest-path closure of
/// some weighted digraph, and every finite entry lies within the SHIFTS
/// matrix bound of DESIGN.md §4b, so any component is a SHIFTS input as
/// is ([`Closure::component`]). [`Closure::relax_edge`] preserves the
/// invariant under edge insertions and decreases; any other change
/// requires a rebuild with [`Closure::of_links`].
///
/// # Examples
///
/// ```
/// use clocksync_graph::{Closure, RelaxOutcome, SquareMatrix, Weight};
/// use clocksync_time::{Ext, ExtRatio, Ratio};
///
/// let mut m = SquareMatrix::filled(3, Ext::PosInf);
/// for i in 0..3 { m[(i, i)] = <ExtRatio as Weight>::zero(); }
/// // Clock 1 counts from an epoch 10^18 ns before clock 0's.
/// m[(0, 1)] = Ext::Finite(Ratio::from_int(-1_000_000_000_000_000_000) + Ratio::new(3, 2));
/// m[(1, 2)] = Ext::Finite(Ratio::from_int(1_000_000_000_000_000_000) + Ratio::from_int(3));
/// let mut c = Closure::new(&m).expect("whole and half nanoseconds")?;
/// // 3/2 + 3 = 9/2 ns: the epochs cancel along the path.
/// assert_eq!(c.ratio_dist()[(0, 2)], Ext::Finite(Ratio::new(9, 2)));
/// // A tighter 0 → 1 estimate arrives: every pair through it improves.
/// let tighter = Ext::Finite(Ratio::from_int(-1_000_000_000_000_000_000) + Ratio::new(1, 2));
/// assert_eq!(c.relax_edge(0, 1, tighter)?, RelaxOutcome::Tightened);
/// assert_eq!(c.ratio_dist()[(0, 2)], Ext::Finite(Ratio::new(7, 2)));
/// # Ok::<(), clocksync_graph::NegativeCycleError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Closure {
    dist: SquareMatrix<i64>,
    gauge: Gauge,
}

impl Closure {
    /// Builds the closure of per-link estimates on gauged half-nanosecond
    /// counts, reading the link table: the gauge, the encoder and the
    /// [`plan_closure_kernel`] choice, then the dense kernel over the
    /// counts' expansion or Johnson over the table. Returns the kernel
    /// with the closure.
    ///
    /// # Errors
    ///
    /// The outer error is the [`ScaleBailout`] reason when a slot of
    /// `local` has no gauged count, or a closure entry passes the SHIFTS
    /// matrix bound (the caller's residual route answers); the inner one is
    /// [`NegativeCycleError`] when the graph has a negative cycle.
    pub fn of_links(
        local: &LinkWeights<ExtRatio>,
    ) -> Result<(ClosureKernel, Result<Closure, NegativeCycleError>), ScaleBailout> {
        let (counts, gauge) = gauged_links(local)?;
        let kernel = plan_closure_kernel(local.table(), &counts);
        let closure = match kernel.run(local.table(), &counts) {
            Ok(dist) => Ok(Closure::bounded(dist, gauge)?),
            Err(e) => Err(e),
        };
        Ok((kernel, closure))
    }

    /// [`Closure::of_links`] of a dense weight matrix, by way of its link
    /// form ([`LinkWeights::from_matrix`]). A negative diagonal entry is a
    /// 1-cycle: like the Floyd–Warshall kernels, this reports it at the
    /// smallest such node.
    ///
    /// # Errors
    ///
    /// As [`Closure::of_links`].
    pub fn new(
        m: &SquareMatrix<ExtRatio>,
    ) -> Result<Result<Closure, NegativeCycleError>, ScaleBailout> {
        let (_, closure) = Closure::of_links(&LinkWeights::from_matrix(m))?;
        match (0..m.n()).find(|&p| m[(p, p)] < <ExtRatio as Weight>::zero()) {
            Some(witness) => Ok(Err(NegativeCycleError { witness })),
            None => Ok(closure),
        }
    }

    /// Holds a matrix that already is a closure — such as the estimates a
    /// distributed leader receives — as gauged counts, without running a
    /// kernel. The caller vouches that `m` is closed.
    ///
    /// # Errors
    ///
    /// As the outer error of [`Closure::of_links`].
    pub fn from_closed(m: &SquareMatrix<ExtRatio>) -> Result<Closure, ScaleBailout> {
        let gauge = Gauge::of_matrix(m)?;
        let dist = gauge.encode_matrix(m, closure_limit(m.n()), (Some(UNREACHABLE), None))?;
        Closure::bounded(dist, gauge)
    }

    /// The closure, when every finite entry lies within the SHIFTS matrix
    /// bound.
    fn bounded(dist: SquareMatrix<i64>, gauge: Gauge) -> Result<Closure, ScaleBailout> {
        let limit = matrix_limit(dist.n());
        let within = |&x: &i64| x == UNREACHABLE || (-limit..=limit).contains(&x);
        if dist.as_slice().iter().all(within) {
            Ok(Closure { dist, gauge })
        } else {
            Err(ScaleBailout::MagnitudeOverflow)
        }
    }

    /// The dimension.
    pub fn n(&self) -> usize {
        self.dist.n()
    }

    /// The closure distances as extended rationals, the gauge removed: the
    /// whole-matrix decode, `O(n²)` rationals, for callers that want every
    /// entry at once. Point reads take [`Closure::ratio_at`].
    pub fn ratio_dist(&self) -> SquareMatrix<ExtRatio> {
        self.gauge.decode_matrix(&self.dist)
    }

    /// Whether the closure distance `(p, q)` is finite — `q` is reachable
    /// from `p` — read off the count, with no decode.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `q` is out of range.
    pub fn reaches(&self, p: usize, q: usize) -> bool {
        self.dist[(p, q)] != UNREACHABLE
    }

    /// One closure distance, `ratio_dist()[(p, q)]`, decoded on its own.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `q` is out of range.
    pub fn ratio_at(&self, p: usize, q: usize) -> ExtRatio {
        self.gauge.decode(p, q, self.dist[(p, q)])
    }

    /// The SHIFTS input of one synchronizable component: the counts among
    /// the ascending `members`, in the closure's gauge — borrowed when the
    /// component is the whole domain, copied otherwise.
    ///
    /// # Panics
    ///
    /// Panics if a member is out of range or two members have no finite
    /// distance between them.
    pub fn component(&self, members: &[usize]) -> ScaledMatrix<'_> {
        let (dist, gauge) = if members.len() == self.n() {
            (Cow::Borrowed(&self.dist), Cow::Borrowed(&self.gauge))
        } else {
            let gauge = Gauge(members.iter().map(|&v| self.gauge.0[v]).collect());
            (Cow::Owned(self.dist.restrict(members)), Cow::Owned(gauge))
        };
        ScaledMatrix::new(dist, gauge).expect("members of one synchronizable component")
    }

    /// Incorporates a new edge `u → v` of weight `w` (equivalently: lowers
    /// the existing edge to `w`), updating the cached closure in `O(n)`
    /// plus one step per pair that passes the two tests below, `O(n²)` at
    /// most:
    ///
    /// `dist[i][j] ← min(dist[i][j], dist[i][u] + w + dist[v][j])`.
    ///
    /// This is exact because a weight *decrease* cannot lengthen any
    /// shortest path, and any path improved by the change uses the new
    /// edge, splitting into an old shortest `i → u` prefix and `v → j`
    /// suffix — both of which the cached closure already knows. Only
    /// pairs with a finite prefix and a finite suffix can improve, and by
    /// the closure's triangle inequality only those whose prefix beats the
    /// old `dist[(i, v)]` (`dist[(i, u)] + w < dist[(i, v)]`) and whose
    /// suffix beats the old `dist[(u, j)]` (`w + dist[(v, j)] < dist[(u,
    /// j)]`); an unreachable entry counts as beaten. So the loop runs over
    /// the sources of column `u` and the targets of row `v` that pass
    /// those tests, found in one pass over each: on a warm stream, where a
    /// tightening moves few entries, a small corner of the edge's own
    /// component. The sum telescopes in any gauge, so `w` enters in the
    /// cache's.
    ///
    /// The [`RelaxOutcome`] makes the staleness contract explicit:
    /// [`RelaxOutcome::Tightened`] when entries changed,
    /// [`RelaxOutcome::Unchanged`] when `w` equals the cached `dist[(u,
    /// v)]` (or is a harmless non-negative self-loop / `+∞` over an
    /// already-unreachable pair — cases that can never hide a stale
    /// cache), [`RelaxOutcome::StaleLoosening`] when `w` is *strictly
    /// looser* than the cached entry, and [`RelaxOutcome::Unrepresentable`]
    /// when `w` has no gauged count within the bound or a candidate sum
    /// could leave the cache's bound. The last two are **not applied**;
    /// see their documentation for the caller's obligation. Every verdict
    /// but a real tightening is reached in `O(1)` or one pass over a row
    /// and a column.
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
        w: ExtRatio,
    ) -> Result<RelaxOutcome, NegativeCycleError> {
        let n = self.n();
        assert!(u < n && v < n, "edge endpoint out of range");
        if u == v {
            // A self-loop only matters when negative (a 1-cycle); the
            // closure diagonal is pinned at zero, so a non-negative one can
            // never have been baked into any entry — not a staleness risk.
            return if w < Ext::Finite(Ratio::ZERO) {
                Err(NegativeCycleError { witness: u })
            } else {
                Ok(RelaxOutcome::Unchanged)
            };
        }
        let w = match w {
            Ext::PosInf => UNREACHABLE,
            w => match gauged(w, self.gauge.0[u] - self.gauge.0[v], closure_limit(n)) {
                Ok(count) => count,
                Err(_) => return Ok(RelaxOutcome::Unrepresentable),
            },
        };
        let cached = self.dist[(u, v)];
        if w == cached {
            return Ok(RelaxOutcome::Unchanged);
        }
        if w > cached {
            return Ok(RelaxOutcome::StaleLoosening);
        }
        // Snapshots: the new edge cannot change column u or row v unless it
        // closes a negative cycle (w + dist[(v, u)] ≥ 0 ⇒ no i → u path
        // improves by detouring through u → v → … → u), so reading the old
        // values below is exact; a closed negative cycle instead surfaces
        // as a negative diagonal entry, reported as the error. Each source
        // carries dist[(i, u)] + w, each target dist[(v, j)].
        //
        // Every candidate lies between the sums of the extreme source and
        // target terms (u's and v's, w and 0, are among them); keeping
        // those within the bound keeps the invariant, so the extremes run
        // over every finite term. A pair improves only if its prefix beats
        // the old dist[(i, v)] and its suffix the old dist[(u, j)], by the
        // triangle inequalities dist[(i, j)] ≤ dist[(i, v)] + dist[(v, j)]
        // and ≤ dist[(i, u)] + dist[(u, j)]; the sentinel is beaten by
        // every term, which lies within the closure bound. Only those terms
        // are kept. A negative diagonal candidate passes both tests (the
        // old closure has no negative cycle), so the error still surfaces,
        // at the same node.
        let dist = self.dist.as_slice();
        let (mut lo, mut hi) = ((w, 0), (w, 0));
        let mut sources = Vec::with_capacity(n);
        for i in 0..n {
            let diu = dist[i * n + u];
            if diu == UNREACHABLE {
                continue;
            }
            let base = diu + w;
            (lo.0, hi.0) = (lo.0.min(base), hi.0.max(base));
            if base < dist[i * n + v] {
                sources.push((i, base));
            }
        }
        let mut targets = Vec::with_capacity(n);
        for (j, (&duj, &dvj)) in self.dist.row(u).iter().zip(self.dist.row(v)).enumerate() {
            if dvj == UNREACHABLE {
                continue;
            }
            (lo.1, hi.1) = (lo.1.min(dvj), hi.1.max(dvj));
            if w + dvj < duj {
                targets.push((j, dvj));
            }
        }
        let limit = matrix_limit(n);
        if lo.0 + lo.1 < -limit || hi.0 + hi.1 > limit {
            return Ok(RelaxOutcome::Unrepresentable);
        }
        let mut changed = false;
        let mut negative = None;
        let dist = self.dist.as_mut_slice();
        for &(i, base) in &sources {
            let dist_i = &mut dist[i * n..(i + 1) * n];
            for &(j, dvj) in &targets {
                let cand = base + dvj;
                if cand < dist_i[j] {
                    dist_i[j] = cand;
                    changed = true;
                    if i == j && negative.is_none() {
                        negative = Some(i);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::half_ns::matrix_limit;
    use crate::{floyd_warshall, reconstruct_path, shortest_path_successors, Weight};

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

    fn closure(m: &SquareMatrix<ExtRatio>) -> Closure {
        Closure::new(m)
            .expect("test matrices scale")
            .expect("no negative cycle")
    }

    /// The generic rational reference closure's distances.
    fn reference(m: &SquareMatrix<ExtRatio>) -> SquareMatrix<ExtRatio> {
        floyd_warshall(m).expect("no negative cycle")
    }

    fn int(v: i128) -> ExtRatio {
        Ext::Finite(Ratio::from_int(v))
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
        let fd = closure(&m).ratio_dist();
        let gd = floyd_warshall(&m).unwrap();
        assert_eq!(fd, gd);
        assert_eq!(
            shortest_path_successors(&LinkWeights::from_matrix(&m), &fd),
            shortest_path_successors(&LinkWeights::from_matrix(&m), &gd)
        );
    }

    #[test]
    fn scaling_rejects_neg_inf_and_huge_denominators() {
        let mut m = ratio_matrix(2, &[(0, 1, 1, 1)]);
        m[(1, 0)] = Ext::NegInf;
        assert!(Closure::new(&m).is_err());
        let mut m = ratio_matrix(2, &[(0, 1, 1, 1)]);
        m[(1, 0)] = Ext::Finite(Ratio::new(1, (1 << 41) + 1));
        assert!(Closure::new(&m).is_err());
    }

    #[test]
    fn fast_closure_falls_back_when_unscalable() {
        // No integer closure holds an entry off the grid: the caller's
        // residual route, the generic kernel, answers instead.
        let mut m = ratio_matrix(2, &[(0, 1, 3, 1)]);
        m[(1, 0)] = Ext::Finite(Ratio::new(1, (1 << 41) + 1));
        assert_eq!(Closure::new(&m), Err(ScaleBailout::OffGrid));
        assert_eq!(reference(&m)[(0, 1)], int(3));
    }

    #[test]
    fn fast_closure_reports_negative_cycles() {
        let m = ratio_matrix(2, &[(0, 1, 1, 1), (1, 0, -2, 1)]);
        let err = Closure::new(&m).expect("on the grid").unwrap_err();
        assert_eq!(Err(err), floyd_warshall(&m));
    }

    #[test]
    fn relax_edge_matches_full_recompute() {
        let mut m = ratio_matrix(4, &[(0, 1, 4, 1), (1, 2, 4, 1), (2, 3, 4, 1), (3, 0, 4, 1)]);
        let mut c = closure(&m);
        // Tighten 1 → 2, then add a brand-new chord 0 → 2.
        for (u, v, w) in [(1usize, 2usize, int(1)), (0, 2, int(2))] {
            m[(u, v)] = w;
            assert_eq!(c.relax_edge(u, v, w).unwrap(), RelaxOutcome::Tightened);
            assert_eq!(c.ratio_dist(), reference(&m));
        }
    }

    #[test]
    fn relax_edge_no_op_cases() {
        let m = ratio_matrix(3, &[(0, 1, 2, 1), (1, 2, 2, 1)]);
        let mut c = closure(&m);
        let before = c.clone();
        // Worse than the existing estimate: not applied, and flagged so a
        // caller that cannot rule out a genuine loosening knows to rebuild.
        assert_eq!(
            c.relax_edge(0, 1, int(7)).unwrap(),
            RelaxOutcome::StaleLoosening
        );
        // Equal to it, unreachable-over-unreachable, and a nonnegative
        // self-loop: provably harmless no-ops.
        assert_eq!(c.relax_edge(0, 1, int(2)).unwrap(), RelaxOutcome::Unchanged);
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
        let mut c = closure(&m);
        m[(0, 1)] = int(9);
        assert_eq!(
            c.relax_edge(0, 1, int(9)).unwrap(),
            RelaxOutcome::StaleLoosening
        );
        // The stale cache still serves the outdated bound — which is
        // exactly why the contract demands a rebuild now.
        assert_eq!(c.ratio_dist()[(0, 2)], int(4));
        let rebuilt = closure(&m);
        assert_eq!(rebuilt.ratio_dist(), reference(&m));
        assert_eq!(rebuilt.ratio_dist()[(0, 2)], int(11));
        // A loosening to +∞ (forgotten link) over a finite entry is flagged
        // the same way.
        let mut c2 = rebuilt.clone();
        assert_eq!(
            c2.relax_edge(1, 2, Ext::PosInf).unwrap(),
            RelaxOutcome::StaleLoosening
        );
    }

    #[test]
    fn relax_edge_in_one_of_two_components_matches_recompute() {
        // Two weak components {0, 1, 2} and {3, 4}: tightening 0 → 1 only
        // loops over its own component (the finite entries of column 0 and
        // row 1), yet must equal the full recompute, leave {3, 4} as it
        // was, and still detect a negative cycle closed inside it.
        let edges = [
            (0, 1, 4, 1),
            (1, 2, 4, 1),
            (2, 0, 1, 1),
            (3, 4, 2, 1),
            (4, 3, 5, 1),
        ];
        let mut m = ratio_matrix(5, &edges);
        let mut c = closure(&m);
        let before = c.clone();
        let next_before =
            shortest_path_successors(&LinkWeights::from_matrix(&m), &before.ratio_dist());
        m[(0, 1)] = int(1);
        assert_eq!(c.relax_edge(0, 1, int(1)).unwrap(), RelaxOutcome::Tightened);
        assert_eq!(c.ratio_dist(), reference(&m));
        let next = shortest_path_successors(&LinkWeights::from_matrix(&m), &c.ratio_dist());
        for i in 3..5 {
            for j in 0..5 {
                assert_eq!(c.dist[(i, j)], before.dist[(i, j)]);
                assert_eq!(next[(i, j)], next_before[(i, j)]);
            }
        }
        // dist(0, 1) = 1 now; an edge 1 → 0 of weight −9 closes a −8 cycle.
        let err = c.relax_edge(1, 0, int(-9)).unwrap_err();
        assert!(
            err.witness < 3,
            "witness {} outside the cycle's component",
            err.witness
        );
    }

    #[test]
    fn relax_edge_detects_negative_cycles() {
        let m = ratio_matrix(3, &[(0, 1, 2, 1), (1, 2, 2, 1), (2, 0, 2, 1)]);
        let mut c = closure(&m);
        // dist(1, 0) = 4; an edge 0 → 1 of weight −5 closes a −1 cycle.
        let err = c.relax_edge(0, 1, int(-5)).unwrap_err();
        let _ = err.witness;
        // Negative self-loops are 1-cycles.
        let mut c2 = closure(&m);
        assert!(c2.relax_edge(1, 1, int(-1)).is_err());
    }

    #[test]
    fn relax_edge_keeps_successors_valid() {
        let mut m = ratio_matrix(4, &[(0, 1, 4, 1), (1, 2, 4, 1), (2, 3, 4, 1)]);
        let mut c = closure(&m);
        for (u, v, w) in [(0, 2, int(3)), (1, 3, int(5))] {
            m[(u, v)] = w;
            c.relax_edge(u, v, w).unwrap();
        }
        let dist = c.ratio_dist();
        let next = shortest_path_successors(&LinkWeights::from_matrix(&m), &dist);
        for i in 0..4 {
            for j in 0..4 {
                match reconstruct_path(&next, i, j) {
                    Some(path) => {
                        assert_eq!(path.first(), Some(&i));
                        assert_eq!(path.last(), Some(&j));
                        assert_ne!(c.dist[(i, j)], UNREACHABLE);
                        let total = path
                            .windows(2)
                            .fold(<ExtRatio as Weight>::zero(), |t, e| t + m[(e[0], e[1])]);
                        assert_eq!(total, dist[(i, j)], "path {path:?}");
                    }
                    None => assert_eq!(c.dist[(i, j)], UNREACHABLE),
                }
            }
        }
    }

    #[test]
    fn relax_edge_takes_half_ns_weights_in_place() {
        // A cache built on whole nanoseconds absorbs a half-ns estimate in
        // place: it equals a rebuild, and whole nanoseconds still relax.
        let mut m = ratio_matrix(3, &[(0, 1, 4, 1), (1, 2, 4, 1)]);
        let mut c = closure(&m);
        let half = Ext::Finite(Ratio::new(3, 2));
        m[(0, 1)] = half;
        assert_eq!(c.relax_edge(0, 1, half).unwrap(), RelaxOutcome::Tightened);
        assert_eq!(c.ratio_dist(), closure(&m).ratio_dist());
        assert_eq!(c.ratio_dist(), reference(&m));
        m[(1, 2)] = int(1);
        assert_eq!(c.relax_edge(1, 2, int(1)).unwrap(), RelaxOutcome::Tightened);
        assert_eq!(c.ratio_dist(), reference(&m));
        // −∞ and values off the half-ns grid have no count: refused, and
        // the cache is untouched.
        let before = c.clone();
        for w in [Ext::NegInf, Ext::Finite(Ratio::new(1, 4))] {
            assert_eq!(
                c.relax_edge(0, 2, w).unwrap(),
                RelaxOutcome::Unrepresentable
            );
            assert_eq!(c, before);
        }
    }

    #[test]
    fn relax_edge_refuses_weights_past_the_magnitude_limit() {
        // The cache's entries stay within the SHIFTS matrix bound: a
        // tightening whose candidates stay within it relaxes, one past it
        // is refused and leaves the cache as it was.
        let n = 3;
        let limit = i128::from(matrix_limit(n));
        let m = ratio_matrix(n, &[(1, 2, 0, 1)]);
        let mut c = closure(&m);
        let before = c.clone();
        for w in [limit + 1, -(limit + 1)] {
            let w = Ext::Finite(Ratio::new(w, 2));
            assert_eq!(
                c.relax_edge(0, 1, w).unwrap(),
                RelaxOutcome::Unrepresentable
            );
            assert_eq!(c, before);
        }
        let mut m = m;
        m[(0, 1)] = Ext::Finite(Ratio::new(-limit, 2));
        assert_eq!(
            c.relax_edge(0, 1, m[(0, 1)]).unwrap(),
            RelaxOutcome::Tightened
        );
        assert_eq!(c.ratio_dist(), reference(&m));
        // Clocks an epoch apart tighten in place in the cache's gauge, but
        // a first link between two of them is past the bound until a
        // rebuild picks a gauge with that link in its forest.
        let epoch = 1_000_000_000_000_000_000i128;
        let mut m = ratio_matrix(3, &[(0, 1, epoch + 5, 1), (1, 0, 3 - epoch, 1)]);
        let mut c = closure(&m);
        m[(0, 1)] = int(epoch + 4);
        assert_eq!(
            c.relax_edge(0, 1, m[(0, 1)]).unwrap(),
            RelaxOutcome::Tightened
        );
        assert_eq!(c.ratio_dist(), reference(&m));
        m[(2, 1)] = int(2 * epoch);
        assert_eq!(
            c.relax_edge(2, 1, m[(2, 1)]).unwrap(),
            RelaxOutcome::Unrepresentable
        );
        assert_eq!(closure(&m).ratio_dist(), reference(&m));
    }

    #[test]
    fn scaling_bailout_reasons_are_reported() {
        let mut m = ratio_matrix(2, &[(0, 1, 1, 1)]);
        m[(1, 0)] = Ext::NegInf;
        assert_eq!(Closure::new(&m).unwrap_err(), ScaleBailout::NegInfWeight);
        let mut m = ratio_matrix(2, &[(0, 1, 1, 1)]);
        m[(1, 0)] = Ext::Finite(Ratio::new(1, (1 << 41) + 1));
        assert_eq!(Closure::new(&m).unwrap_err(), ScaleBailout::OffGrid);
        assert_eq!(Closure::new(&m).unwrap_err(), ScaleBailout::OffGrid);
        assert_eq!(ScaleBailout::MagnitudeOverflow.name(), "magnitude-overflow");
    }

    #[test]
    fn scaling_boundary_at_the_half_ns_grid() {
        // Half nanoseconds are the finest values the encoding holds; a
        // quarter bails with OffGrid.
        let mut m = ratio_matrix(2, &[(0, 1, 1, 1)]);
        m[(1, 0)] = Ext::Finite(Ratio::new(1, 2));
        let c = closure(&m);
        // In the gauge, 1 → 0 carries the 2-cycle: 3/2 ns, 3 counts.
        assert_eq!(c.dist[(1, 0)], 3);
        assert_eq!(c.ratio_dist(), reference(&m));
        m[(1, 0)] = Ext::Finite(Ratio::new(1, 4));
        assert_eq!(Closure::new(&m).unwrap_err(), ScaleBailout::OffGrid);
    }

    #[test]
    fn scaling_boundary_at_magnitude_limit() {
        // The gauge takes an epoch out of 0 → 1, so only the 2-cycle's
        // weight counts: exactly at the closure's entry bound it scales,
        // one half nanosecond past it bails with MagnitudeOverflow.
        let limit = i128::from(matrix_limit(2));
        let epoch = 1_000_000_000_000_000_000i128;
        let mut m = ratio_matrix(2, &[(0, 1, epoch, 1), (1, 0, limit - 2 * epoch, 2)]);
        let c = Closure::new(&m)
            .expect("limit itself is admissible")
            .unwrap();
        assert_eq!(c.dist[(1, 0)], limit as i64);
        assert_eq!(c.ratio_dist(), reference(&m));
        m[(1, 0)] = Ext::Finite(Ratio::new(limit + 1 - 2 * epoch, 2));
        assert_eq!(
            Closure::new(&m).unwrap_err(),
            ScaleBailout::MagnitudeOverflow
        );
        assert_eq!(
            Closure::from_closed(&m),
            Err(ScaleBailout::MagnitudeOverflow)
        );
    }

    #[test]
    fn kernel_dispatch_boundaries() {
        let plan = |m: &SquareMatrix<i64>| {
            let (table, counts) = link_counts(m);
            plan_closure_kernel(&table, &counts)
        };
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
        // input.
        assert_eq!(plan(&ring(SPARSE_MIN_N - 1)), ClosureKernel::DenseBlocked);
        // At SPARSE_MIN_N a ring is far below the density threshold.
        assert_eq!(plan(&ring(SPARSE_MIN_N)), ClosureKernel::SparseJohnson);
        // A fully dense matrix of the same size stays on the dense kernel.
        let mut dense = SquareMatrix::filled(SPARSE_MIN_N, 1);
        for i in 0..SPARSE_MIN_N {
            dense[(i, i)] = 0;
        }
        assert_eq!(plan(&dense), ClosureKernel::DenseBlocked);
        // Two disjoint rings dispatch to Johnson.
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
        assert_eq!(plan(&split), ClosureKernel::SparseJohnson);
        // So do two dense components, far above the density threshold, and
        // Johnson's distances equal the dense kernel's. The weights
        // `c + φ(i) − φ(j)` with `c ≥ 0` are partly negative, with many
        // equal-weight paths, and close no negative cycle.
        let phi = |i: usize| (i * 37 % 101) as i64;
        let two_dense = SquareMatrix::from_fn(SPARSE_MIN_N, |i, j| {
            if i == j {
                0
            } else if i / half != j / half || (i + 2 * j) % 3 == 0 {
                UNREACHABLE
            } else {
                ((i * j) % 4) as i64 + phi(i) - phi(j)
            }
        });
        let edges = two_dense.as_slice().iter().filter(|&&w| w != UNREACHABLE);
        assert!(edges.count() as f64 > SPARSE_MAX_DENSITY * (SPARSE_MIN_N * SPARSE_MIN_N) as f64);
        assert_eq!(plan(&two_dense), ClosureKernel::SparseJohnson);
        assert_eq!(
            dispatch_closure_i64(&two_dense).unwrap(),
            blocked_floyd_warshall_i64(&two_dense).unwrap()
        );
        assert_eq!(ClosureKernel::DenseBlocked.name(), "scaled-i64");
        assert_eq!(ClosureKernel::SparseJohnson.name(), "sparse-johnson");
    }

    #[test]
    fn ratio_dist_round_trips_fast_closure() {
        // The cache holds the reference closure in its gauge, where the
        // forest's edges weigh 0 — 0 → 1, and 2 → 0, which the forest takes
        // in reverse: converting it back gives the reference distances,
        // hence the same successors.
        let m = ratio_matrix(3, &[(0, 1, 1, 2), (1, 2, 1, 1), (2, 0, -1, 2)]);
        let c = closure(&m);
        assert_eq!(c.n(), 3);
        assert_eq!((c.dist[(0, 1)], c.dist[(2, 0)]), (0, 0));
        let d = reference(&m);
        assert_eq!(c.ratio_dist(), d);
        for (p, q, &v) in d.iter() {
            assert_eq!(c.ratio_at(p, q), v, "entry ({p}, {q})");
        }
        assert_eq!(
            shortest_path_successors(&LinkWeights::from_matrix(&m), &c.ratio_dist()),
            shortest_path_successors(&LinkWeights::from_matrix(&m), &d)
        );
        // A closure that arrives closed is held as is.
        let held = Closure::from_closed(&d).unwrap();
        assert_eq!(held.ratio_dist(), d);
        let members: Vec<usize> = (0..3).collect();
        assert_eq!(held.component(&members).n(), 3);
    }
}
