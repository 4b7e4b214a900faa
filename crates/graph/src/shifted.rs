//! The SHIFTS stage over half-nanosecond counts (paper §4.3–4.4, Theorem 4.6):
//! the maximum cycle mean `A_max` of a closure component, and the
//! corrections — shortest-path distances under shifted weights.
//!
//! For a dense matrix `m` and a shift `λ`, the corrections weights are
//! `w(p,q) = λ − m(p,q)` on every off-diagonal pair; the diagonal plays no
//! part. When `λ` is at least the maximum cycle mean of `m`, no cycle is
//! negative and the distances from a root are the optimal corrections.
//!
//! [`ScaledMatrix`] holds a component as the closure stage computed it:
//! `i64` counts of half nanoseconds in the closure's gauge (`half_ns.rs`),
//! every entry within the SHIFTS matrix bound. Cycle weights do not see
//! the gauge, so its `A_max` is integer Howard's (`scaled_howard.rs`) on
//! the counts as they are, warm-startable from any policy and capped with
//! an integer Karp fallback. For `λ = num/den` both corrections passes
//! measure in `1/(2·den)` ns, where each weight is the integer
//! `2·num − den·m(p,q)`; the matrix bound keeps every such weight within
//! the SHIFTS bound for every cycle mean of the matrix, so a pass always
//! runs. A gauged distance `x′(q)` from the root `s` is the distance
//! `x(q)` moved by `h(q) − h(s)`, and each output removes that.
//!
//! The corrections pass is one dense Dijkstra pass
//! ([`ScaledMatrix::corrections`]) keyed by Howard's converged [`Bias`],
//! which makes every reduced weight non-negative at `A_max`. It forms each
//! weight in its inner loop, so no `n × n` weight matrix is built. Only
//! where no bias exists — Howard stopped at its iteration cap and Karp
//! answered — does SHIFTS run [`ScaledMatrix::shifted_distances`], an
//! early-exit Bellman–Ford over a flat `i64` weight matrix, which also
//! serves shifts other than `A_max`. Both build a [`Ratio`] only for each
//! output.

use std::borrow::Cow;

use clocksync_time::{Ext, Ratio};

use crate::half_ns::{self, matrix_limit, shifts_limit, Gauge};
use crate::scaled_howard::{iteration_cap, scaled_howard};
use crate::{HowardSolution, NegativeCycleError, SquareMatrix};

/// Integer Howard's converged bias on a [`ScaledMatrix`]: per node `q·h`,
/// taken without the gauge, where `p/q` is `A_max` in half-nanosecond
/// counts. It is a feasible potential of the corrections weights at
/// `A_max`: `q·h(u) ≥ q·w(u,v) − p + q·h(v)` on every edge. So it stays
/// one after any entrywise tightening that keeps `A_max` (every `w` only
/// fell), and a change of gauge leaves it as it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bias(Vec<i128>);

/// A complete matrix of half-nanosecond counts in a gauge — a SHIFTS
/// component as the closure stage holds it — whose every entry, the
/// diagonal included, lies within `±⌊shifts_limit(n)/(4n)⌋`: the bound
/// under which the integer `A_max` kernels cannot overflow and the
/// corrections pass can form every weight (DESIGN.md §4c).
///
/// # Examples
///
/// ```
/// use clocksync_graph::{ScaledMatrix, SquareMatrix};
/// use clocksync_time::{Ext, Ratio};
///
/// let mut m = SquareMatrix::filled(2, Ext::Finite(Ratio::ZERO));
/// m[(0, 1)] = Ext::Finite(Ratio::from_int(3));
/// m[(1, 0)] = Ext::Finite(Ratio::new(1, 2));
/// let m = ScaledMatrix::from_ratio(&m).expect("half nanoseconds within the bound");
/// let (solution, bias) = m.solve(None);
/// let a_max = solution.cycle_mean.mean;
/// assert_eq!(a_max, Ratio::new(7, 4));
/// let corrections = m.corrections(a_max, &bias.expect("Howard converged"), 0);
/// assert_eq!(corrections, [Ratio::ZERO, Ratio::new(-5, 4)]);
/// // The Bellman–Ford, the pass where Howard's cap leaves no bias, agrees.
/// assert_eq!(m.shifted_distances(a_max, 0)?, corrections);
/// # Ok::<(), clocksync_graph::NegativeCycleError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScaledMatrix<'a> {
    m: Cow<'a, SquareMatrix<i64>>,
    gauge: Cow<'a, Gauge>,
}

impl<'a> ScaledMatrix<'a> {
    /// The matrix of values the counts `m` encode in `gauge`, or `None`
    /// when `m` is empty or an entry lies outside the bound — which also
    /// rejects the closure's [`UNREACHABLE`](crate::UNREACHABLE) sentinel.
    pub(crate) fn new(
        m: Cow<'a, SquareMatrix<i64>>,
        gauge: Cow<'a, Gauge>,
    ) -> Option<ScaledMatrix<'a>> {
        let limit = matrix_limit(m.n());
        let within = m.as_slice().iter().all(|x| (-limit..=limit).contains(x));
        (m.n() > 0 && within).then_some(ScaledMatrix { m, gauge })
    }

    /// Encodes a rational matrix as half-nanosecond counts in no gauge:
    /// `None` when it is empty or an entry is infinite, off the half-ns
    /// grid or past the bound.
    pub fn from_ratio(m: &SquareMatrix<Ext<Ratio>>) -> Option<ScaledMatrix<'static>> {
        let gauge = Gauge(vec![0; m.n()]);
        let counts = gauge
            .encode_matrix(m, matrix_limit(m.n()), (None, None))
            .ok()?;
        ScaledMatrix::new(Cow::Owned(counts), Cow::Owned(gauge))
    }

    /// The dimension.
    pub fn n(&self) -> usize {
        self.m.n()
    }

    /// The exact mean weight of a cyclic node sequence.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is empty or names a node out of range.
    pub fn cycle_mean(&self, cycle: &[usize]) -> Ratio {
        let next = cycle.iter().skip(1).chain(cycle.first());
        let sum: i128 = cycle
            .iter()
            .zip(next)
            .map(|(&u, &v)| i128::from(self.m[(u, v)]))
            .sum();
        half_ns::decode_mean(sum, cycle.len() as i128)
    }

    /// The maximum cycle mean with its canonical witness — the one every
    /// `A_max` kernel reports — by Howard's policy iteration over the
    /// counts, started from `warm` (any slice: entries that are not nodes
    /// take the cold choice). Returns the converged policy, a warm start
    /// for the next call. Past `10n + 10` policy evaluations it answers
    /// with integer Karp instead and returns the policy it reached.
    pub fn max_cycle_mean(&self, warm: Option<&[usize]>) -> HowardSolution {
        self.solve(warm).0
    }

    /// [`ScaledMatrix::max_cycle_mean`] with Howard's converged [`Bias`],
    /// the potential [`ScaledMatrix::corrections`] runs on: `None` when the
    /// iteration cap cut Howard short and integer Karp answered.
    pub fn solve(&self, warm: Option<&[usize]>) -> (HowardSolution, Option<Bias>) {
        let (solution, bias) = scaled_howard(&self.m, &self.gauge.0, warm, iteration_cap(self.n()));
        (solution, bias.map(Bias))
    }

    /// The corrections at `a_max`, [`ScaledMatrix::shifted_distances`]
    /// from `source` under `w(p,q) = a_max − m(p,q)`, in one dense
    /// Dijkstra pass keyed by `bias`.
    ///
    /// The caller vouches that `a_max` is the maximum cycle mean and that
    /// `bias` is [`ScaledMatrix::solve`]'s at it on this matrix, or on one
    /// whose every entry was at least this one's, in any gauge. The pass
    /// measures in `1/(2·den)` ns for `a_max = num/den`, so `A_max` is
    /// `p/q` counts with `q = den/2` for an even `den` and `q = den`
    /// otherwise, and the potential is `π(v) = (den/q)·bias(v) + den·g(v)`
    /// in the matrix's gauge `g`: every gauged weight `w′(u,v)` then has
    /// `w′(u,v) + π(u) − π(v) ≥ 0`, so the keys `dist(v) − π(v)` settle in
    /// order and each node's first settled distance is its shortest. Every
    /// sum is an exact integer, so the distances are the Bellman–Ford's.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range, `bias` has another length, or
    /// `a_max` lies outside the range of the matrix's cycle means.
    pub fn corrections(&self, a_max: Ratio, bias: &Bias, source: usize) -> Vec<Ratio> {
        let n = self.n();
        assert!(source < n, "source out of range");
        assert_eq!(bias.0.len(), n, "one bias per node");
        let weights = Shifted::of(&self.m, a_max).expect("A_max within the range of cycle means");
        let den = a_max.denominator();
        let scale = if den % 2 == 0 { 2 } else { 1 };
        let potential: Vec<i128> = bias
            .0
            .iter()
            .zip(&self.gauge.0)
            .map(|(&b, &g)| scale * b + den * g)
            .collect();
        let dist = dense_dijkstra(&self.m, weights, &potential, source);
        self.ungauged(dist, den, source)
    }

    /// Shortest-path distances from `source` under
    /// `w(p,q) = shift − m(p,q)` over every off-diagonal pair, in no gauge.
    ///
    /// # Errors
    ///
    /// Returns [`NegativeCycleError`] if some cycle is negative under the
    /// shifted weights, i.e. `shift` is below the mean of some cycle of at
    /// least two nodes.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range, or if `shift` lies outside the
    /// range of the matrix's cycle means: a denominator above `2n`, or a
    /// magnitude past half the entry bound.
    pub fn shifted_distances(
        &self,
        shift: Ratio,
        source: usize,
    ) -> Result<Vec<Ratio>, NegativeCycleError> {
        assert!(source < self.n(), "source out of range");
        let n = self.n();
        let w = shifted_weights(&self.m, shift).expect("shift within the range of cycle means");
        let dist = dense_bellman_ford(&w, n, source, shifts_limit(n))?;
        Ok(self.ungauged(dist, shift.denominator(), source))
    }

    /// Distances from `source` in units of `1/(2·den)` ns, gauged, as
    /// rationals in no gauge: `x` units are `x/den` counts of ½ ns, and
    /// removing the gauge adds `h(s) − h(q)` counts.
    fn ungauged(&self, dist: Vec<i64>, den: i128, source: usize) -> Vec<Ratio> {
        let h = &self.gauge.0;
        dist.into_iter()
            .zip(h)
            .map(|(x, &hq)| half_ns::decode_mean(i128::from(x) + den * (h[source] - hq), den))
            .collect()
    }
}

/// The corrections weights `shift − m(p,q)` in units of `1/(2·den)` ns,
/// for `shift = num/den` and `m` in half-nanosecond counts: each weight
/// is `2·num − den·m(p,q)`, formed as `top − den·(m(p,q) − lo)`.
#[derive(Debug, Clone, Copy)]
struct Shifted {
    top: i64,
    den: i64,
    lo: i64,
}

impl Shifted {
    /// The weights of `shift` over the off-diagonal `counts`, or `None`
    /// when a weight's magnitude passes the SHIFTS bound, which no cycle
    /// mean of a [`ScaledMatrix`] makes happen.
    ///
    /// The shift is checked once, not per entry. The weights fall as the
    /// entry rises, so they all lie within the bound exactly when the two
    /// extreme ones do. A cycle mean has `den ≤ 2n` and `|2·num| ≤ den·L`,
    /// `L` the matrix bound, and then the bound's own extremes `±L`
    /// suffice: `4n·L ≤ shifts_limit(n)`. Any other shift reads the
    /// extremes off the entries. Past the check each weight is
    /// `w(lo) − den·(x − lo)`, with `0 ≤ den·(x − lo) ≤ w(lo) − w(hi)`, so
    /// every weight is formed in `i64` without overflow.
    fn of(counts: &SquareMatrix<i64>, shift: Ratio) -> Option<Shifted> {
        let n = counts.n();
        let den = shift.denominator();
        i64::try_from(den).ok()?;
        let a = shift.numerator().checked_mul(2)?;
        let bound = i128::from(matrix_limit(n));
        let off_diagonal = || counts.iter_off_diagonal().map(|(_, _, &x)| i128::from(x));
        let (lo, hi) = if den <= 2 * n as i128 && a.unsigned_abs() <= (den * bound).unsigned_abs() {
            (-bound, bound)
        } else {
            match (off_diagonal().min(), off_diagonal().max()) {
                (Some(lo), Some(hi)) => (lo, hi),
                // No off-diagonal entry: there is no weight to form.
                _ => {
                    return Some(Shifted {
                        top: 0,
                        den: 0,
                        lo: 0,
                    })
                }
            }
        };
        let limit = i128::from(shifts_limit(n));
        let top = a.checked_sub(den.checked_mul(lo)?)?;
        let bottom = a.checked_sub(den.checked_mul(hi)?)?;
        if top > limit || bottom < -limit {
            return None;
        }
        Some(Shifted {
            top: top as i64,
            den: den as i64,
            lo: lo as i64,
        })
    }

    /// The weight of an edge whose entry is `x`.
    fn weight(self, x: i64) -> i64 {
        self.top - self.den * (x - self.lo)
    }
}

/// The [`Shifted`] weights as flat `i64` rows, the diagonal zero, which
/// never shortens a path: the Bellman–Ford's input.
fn shifted_weights(counts: &SquareMatrix<i64>, shift: Ratio) -> Option<Vec<i64>> {
    let shifted = Shifted::of(counts, shift)?;
    let n = counts.n();
    let mut w = Vec::with_capacity(n * n);
    for (p, row) in counts.as_slice().chunks_exact(n).enumerate() {
        w.extend(row.iter().map(|&x| shifted.weight(x)));
        w[p * n + p] = 0;
    }
    Some(w)
}

/// Dijkstra from `source` over the complete graph of `weights` on the
/// off-diagonal `counts`, keyed by `dist(v) − potential(v)`, which never
/// falls along an edge. The source's row seeds every distance; then each
/// step settles the open node of least key and relaxes its row into the
/// others still open: `O(n²)`, forming each weight as it goes.
fn dense_dijkstra(
    counts: &SquareMatrix<i64>,
    weights: Shifted,
    potential: &[i128],
    source: usize,
) -> Vec<i64> {
    let n = counts.n();
    let mut dist: Vec<i64> = counts
        .row(source)
        .iter()
        .map(|&x| weights.weight(x))
        .collect();
    dist[source] = 0;
    let mut key: Vec<i128> = dist
        .iter()
        .zip(potential)
        .map(|(&d, &p)| i128::from(d) - p)
        .collect();
    let mut open: Vec<usize> = (0..n).filter(|&v| v != source).collect();
    while let Some(at) = (0..open.len()).min_by_key(|&k| key[open[k]]) {
        let u = open.swap_remove(at);
        let (du, row) = (dist[u], counts.row(u));
        for &v in &open {
            let cand = du + weights.weight(row[v]);
            if cand < dist[v] {
                dist[v] = cand;
                key[v] = i128::from(cand) - potential[v];
                debug_assert!(key[v] >= key[u], "the potential is not feasible");
            }
        }
    }
    dist
}

/// Bellman–Ford from `source` over the complete graph with row-major
/// weights `w`, every one within `±limit`.
///
/// The first round is the source's own row. Each later round relaxes every
/// row in place and the pass stops at the first round that changes
/// nothing; `n − 1` rounds settle every simple path, so a change in round
/// `n − 1` proves a negative cycle. So does a distance below
/// `−(n−1)·limit`, the lightest a simple path can be; checking that after
/// each round keeps every sum within `±2n·limit`, far from overflow,
/// however negative the cycle. The error's witness is the node of least
/// tentative distance — in a complete graph every node is reachable from
/// the cycle.
fn dense_bellman_ford(
    w: &[i64],
    n: usize,
    source: usize,
    limit: i64,
) -> Result<Vec<i64>, NegativeCycleError> {
    let mut dist = w[source * n..(source + 1) * n].to_vec();
    dist[source] = 0;
    let floor = -(n as i64 - 1) * limit;
    for round in 1..n {
        let mut changed = false;
        for (u, row) in w.chunks_exact(n).enumerate() {
            let du = dist[u];
            for (d, &x) in dist.iter_mut().zip(row) {
                let c = du + x;
                changed |= c < *d;
                *d = (*d).min(c);
            }
        }
        if !changed {
            break;
        }
        if round == n - 1 || dist.iter().any(|&d| d < floor) {
            let witness = (0..n).min_by_key(|&v| dist[v]).expect("n ≥ 2 here");
            return Err(NegativeCycleError { witness });
        }
    }
    Ok(dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bellman_ford, DiGraph};

    /// The counts `m` in no gauge.
    fn plain(m: SquareMatrix<i64>) -> Option<ScaledMatrix<'static>> {
        let gauge = Gauge(vec![0; m.n()]);
        ScaledMatrix::new(Cow::Owned(m), Cow::Owned(gauge))
    }

    /// The rational reference: the generic Bellman–Ford over the shifted
    /// weights of the values `m` encodes in `gauge`.
    fn rational(
        m: &SquareMatrix<i64>,
        gauge: &Gauge,
        shift: Ratio,
        source: usize,
    ) -> Result<Vec<Ratio>, NegativeCycleError> {
        let mut g = DiGraph::new(m.n());
        for (i, j, &w) in gauge.decode_matrix(m).iter_off_diagonal() {
            g.add_edge(i, j, Ext::Finite(shift - w.finite().unwrap()));
        }
        let dist = bellman_ford(&g, source)?;
        Ok(dist.into_iter().map(|d| d.finite().unwrap()).collect())
    }

    #[test]
    fn a_hugely_negative_cycle_trips_the_floor() {
        // Every entry is the bound and the shift just above its negative
        // half, over 2n: every weight is about −shifts_limit(n), and in-place
        // rounds plunge distances far past the floor, which must stop the
        // pass before any sum overflows.
        let n = 8;
        let limit = matrix_limit(n);
        let m = SquareMatrix::from_fn(n, |i, j| if i == j { 0 } else { limit });
        let scaled = plain(m.clone()).expect("at the bound");
        let k = n as i128;
        let shift = Ratio::new(1 - k * i128::from(limit), 2 * k);
        assert!(scaled.shifted_distances(shift, 0).is_err());
        assert!(rational(&m, &Gauge(vec![0; n]), shift, 0).is_err());
    }

    #[test]
    fn past_howards_cap_the_bellman_ford_answers() {
        // The matrix of `past_the_cap_scaled_karp_answers`: one policy
        // evaluation cannot converge, so Howard leaves no bias and integer
        // Karp names A_max. The Bellman–Ford's corrections at it equal the
        // rational reference and the Dijkstra pass over a converged run's
        // bias, from every root.
        let m = SquareMatrix::from_vec(4, vec![0, 9, 1, 1, 1, 0, 1, 1, 1, 1, 0, 7, 1, 1, 5, 0]);
        let scaled = plain(m.clone()).unwrap();
        let (capped, no_bias) = scaled_howard(&m, &[0; 4], None, 1);
        assert!(no_bias.is_none());
        let (converged, bias) = scaled.solve(None);
        assert_eq!(capped.cycle_mean, converged.cycle_mean);
        let (a_max, bias) = (capped.cycle_mean.mean, bias.unwrap());
        for root in 0..4 {
            let reference = rational(&m, &Gauge(vec![0; 4]), a_max, root);
            assert_eq!(scaled.shifted_distances(a_max, root), reference);
            assert_eq!(Ok(scaled.corrections(a_max, &bias, root)), reference);
        }
    }

    #[test]
    fn scaling_boundaries() {
        // Half nanoseconds under any cycle mean's denominator, in a gauge
        // 10^18 ns deep: the integer pass equals the rational reference.
        let m = SquareMatrix::from_vec(3, vec![0, 3, 8, 1, 0, 5, -2, 7, 0]);
        let far = Gauge::of_matrix(&SquareMatrix::from_fn(3, |i, j| {
            Ext::Finite(Ratio::from_int(
                1_000_000_000_000_000_000 * (i as i128 - j as i128),
            ))
        }))
        .unwrap();
        let scaled = ScaledMatrix::new(Cow::Borrowed(&m), Cow::Borrowed(&far)).unwrap();
        let a_max = scaled.max_cycle_mean(None).cycle_mean.mean;
        for shift in [a_max, a_max + Ratio::new(4, 3)] {
            for source in 0..3 {
                let reference = rational(&m, &far, shift, source);
                assert_eq!(scaled.shifted_distances(shift, source), reference);
            }
        }
        // Below A_max both fail, whatever witness each names.
        let below = a_max - Ratio::new(1, 3);
        assert!(scaled.shifted_distances(below, 0).is_err());
        assert!(rational(&m, &far, below, 0).is_err());
        // A value off the half-ns grid has no count.
        let off = SquareMatrix::from_fn(2, |i, j| {
            Ext::Finite(if i == j {
                Ratio::ZERO
            } else {
                Ratio::new(1, 3)
            })
        });
        assert!(ScaledMatrix::from_ratio(&off).is_none());
    }

    #[test]
    fn scaled_matrices_hold_entries_within_the_limit() {
        let limit = matrix_limit(3);
        let with = |x: i64| SquareMatrix::from_fn(3, |i, j| if (i, j) == (2, 0) { x } else { 0 });
        for x in [-limit, limit] {
            assert!(plain(with(x)).is_some());
        }
        for x in [-limit - 1, limit + 1, crate::UNREACHABLE] {
            assert!(plain(with(x)).is_none());
        }
        assert!(plain(SquareMatrix::filled(0, 0)).is_none());
        // At the bound, every cycle mean's corrections weights still form.
        let m = SquareMatrix::from_fn(3, |i, j| match (i, j) {
            _ if i == j => 0,
            (0, 1) | (1, 2) => limit,
            _ => -limit,
        });
        let scaled = plain(m.clone()).unwrap();
        let a_max = scaled.max_cycle_mean(None).cycle_mean.mean;
        assert_eq!(
            scaled.shifted_distances(a_max, 1),
            rational(&m, &Gauge(vec![0; 3]), a_max, 1)
        );
    }
}
