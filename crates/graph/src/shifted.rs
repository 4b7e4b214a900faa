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
//! `i64` counts of half nanoseconds (`half_ns.rs`), every entry within the
//! SHIFTS bound. Its `A_max` is integer Howard's (`scaled_howard.rs`),
//! warm-startable from any policy and capped with an integer Karp
//! fallback; its corrections pass is an early-exit Bellman–Ford over flat
//! `i64` rows, building a [`Ratio`] only for each output. For
//! `λ = num/den` the pass measures in `1/(2·den)` ns, where each weight is
//! the integer `2·num − den·m(p,q)`; when one passes the SHIFTS bound, it
//! runs the rational [`bellman_ford`] instead, with the same answers.
//! [`shifted_distances`] is the corrections pass of rational input: it
//! encodes `m` once at that boundary, and runs the rational
//! [`bellman_ford`] when an entry has no count.

use std::borrow::Cow;

use clocksync_time::{Ext, Ratio};

use crate::half_ns::{self, shifts_limit, ScaleBailout};
use crate::scaled_howard::{iteration_cap, scaled_howard};
use crate::{bellman_ford, DiGraph, HowardSolution, NegativeCycleError, SquareMatrix};

/// The panic message for an infinite off-diagonal entry.
const NOT_FINITE: &str = "shifted distances need a finite matrix";

/// A complete matrix of half-nanosecond counts — a SHIFTS component as the
/// closure stage holds it — whose every entry, the diagonal included, lies
/// within `±2·⌊(i64::MAX/4)/(n+1)⌋`: the bound under which the integer
/// `A_max` kernels cannot overflow (DESIGN.md §4c).
///
/// # Examples
///
/// ```
/// use std::borrow::Cow;
/// use clocksync_graph::{ScaledMatrix, SquareMatrix};
/// use clocksync_time::Ratio;
///
/// // Half nanoseconds: m(0,1) = 3 and m(1,0) = 1/2.
/// let mut m = SquareMatrix::filled(2, 0i64);
/// m[(0, 1)] = 6;
/// m[(1, 0)] = 1;
/// let m = ScaledMatrix::new(Cow::Owned(m)).expect("within the bound");
/// let a_max = m.max_cycle_mean(None).cycle_mean.mean;
/// assert_eq!(a_max, Ratio::new(7, 4));
/// assert_eq!(m.shifted_distances(a_max, 0)?, [Ratio::ZERO, Ratio::new(-5, 4)]);
/// # Ok::<(), clocksync_graph::NegativeCycleError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScaledMatrix<'a> {
    m: Cow<'a, SquareMatrix<i64>>,
}

impl<'a> ScaledMatrix<'a> {
    /// The matrix of values the counts `m` encode, or `None` when `m` is
    /// empty or an entry lies outside the bound — which also rejects the
    /// closure's [`UNREACHABLE`](crate::UNREACHABLE) sentinel.
    pub fn new(m: Cow<'a, SquareMatrix<i64>>) -> Option<ScaledMatrix<'a>> {
        let limit = shifts_limit(m.n());
        let within = m.as_slice().iter().all(|x| (-limit..=limit).contains(x));
        (m.n() > 0 && within).then_some(ScaledMatrix { m })
    }

    /// Encodes a rational matrix as half-nanosecond counts: `None` when it
    /// is empty or an entry is infinite, off the half-ns grid or past the
    /// bound.
    pub fn from_ratio(m: &SquareMatrix<Ext<Ratio>>) -> Option<ScaledMatrix<'static>> {
        let no_count = |_| Err(ScaleBailout::MagnitudeOverflow);
        let counts = half_ns::encode_matrix(m, shifts_limit(m.n()), no_count).ok()?;
        ScaledMatrix::new(Cow::Owned(counts))
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
        scaled_howard(&self.m, warm, iteration_cap(self.n()))
    }

    /// Shortest-path distances from `source` under
    /// `w(p,q) = shift − m(p,q)` over every off-diagonal pair.
    ///
    /// # Errors
    ///
    /// Returns [`NegativeCycleError`] if some cycle is negative under the
    /// shifted weights, i.e. `shift` is below the mean of some cycle of at
    /// least two nodes.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn shifted_distances(
        &self,
        shift: Ratio,
        source: usize,
    ) -> Result<Vec<Ratio>, NegativeCycleError> {
        self.try_shifted_distances(shift, source)
            .unwrap_or_else(|| {
                let m = SquareMatrix::from_fn(self.n(), |i, j| {
                    Ext::Finite(half_ns::decode(self.m[(i, j)]))
                });
                rational_shifted_distances(&m, shift, source)
            })
    }

    /// The integer corrections pass: `None` when a shifted weight has no
    /// integer image within the bound.
    fn try_shifted_distances(
        &self,
        shift: Ratio,
        source: usize,
    ) -> Option<Result<Vec<Ratio>, NegativeCycleError>> {
        assert!(source < self.n(), "source out of range");
        let n = self.n();
        let w = shifted_weights(&self.m, shift)?;
        let dist = dense_bellman_ford(&w, n, source, shifts_limit(n));
        // A distance of x units of 1/(2·den) ns is x/den counts of ½ ns.
        let den = shift.denominator();
        Some(dist.map(|d| {
            d.into_iter()
                .map(|x| half_ns::decode_mean(x.into(), den))
                .collect()
        }))
    }
}

/// Shortest-path distances from `source` under `w(p,q) = shift − m(p,q)`
/// over every off-diagonal pair of `m`.
///
/// Runs [`ScaledMatrix::shifted_distances`] when `m` has counts
/// ([`ScaledMatrix::from_ratio`]) and the rational [`bellman_ford`]
/// otherwise; both return the same distances.
///
/// # Errors
///
/// Returns [`NegativeCycleError`] if some cycle is negative under the
/// shifted weights, i.e. `shift` is below the mean of some cycle of at
/// least two nodes.
///
/// # Panics
///
/// Panics if `source` is out of range or an off-diagonal entry is
/// infinite.
///
/// # Examples
///
/// ```
/// use clocksync_graph::{shifted_distances, SquareMatrix};
/// use clocksync_time::{Ext, Ratio};
///
/// let mut m = SquareMatrix::filled(2, Ext::Finite(Ratio::ZERO));
/// m[(0, 1)] = Ext::Finite(Ratio::from_int(6));
/// m[(1, 0)] = Ext::Finite(Ratio::from_int(2));
/// // λ* = 4: the node 1 is corrected by 4 − 6.
/// let d = shifted_distances(&m, Ratio::from_int(4), 0)?;
/// assert_eq!(d, [Ratio::ZERO, Ratio::from_int(-2)]);
/// # Ok::<(), clocksync_graph::NegativeCycleError>(())
/// ```
pub fn shifted_distances(
    m: &SquareMatrix<Ext<Ratio>>,
    shift: Ratio,
    source: usize,
) -> Result<Vec<Ratio>, NegativeCycleError> {
    assert!(source < m.n(), "source out of range");
    match ScaledMatrix::from_ratio(m) {
        Some(scaled) => scaled.shifted_distances(shift, source),
        None => rational_shifted_distances(m, shift, source),
    }
}

/// Runs the integer kernel of [`shifted_distances`] if `m` has counts and
/// every shifted weight an integer image within the bound; `None` when
/// not (the caller should use the rational kernel). Exposed so the
/// equivalence test suite can tell "fast path taken" apart from "silently
/// fell back".
///
/// # Panics
///
/// As [`shifted_distances`], except that an infinite entry makes the
/// encoding bail instead.
pub fn try_scaled_shifted_distances(
    m: &SquareMatrix<Ext<Ratio>>,
    shift: Ratio,
    source: usize,
) -> Option<Result<Vec<Ratio>, NegativeCycleError>> {
    assert!(source < m.n(), "source out of range");
    ScaledMatrix::from_ratio(m)?.try_shifted_distances(shift, source)
}

/// The rational corrections pass: the generic [`bellman_ford`] over a
/// [`DiGraph`] of the off-diagonal shifted weights.
fn rational_shifted_distances(
    m: &SquareMatrix<Ext<Ratio>>,
    shift: Ratio,
    source: usize,
) -> Result<Vec<Ratio>, NegativeCycleError> {
    let mut g = DiGraph::new(m.n());
    for (i, j, &w) in m.iter_off_diagonal() {
        g.add_edge(i, j, Ext::Finite(shift - w.expect_finite(NOT_FINITE)));
    }
    let dist = bellman_ford(&g, source)?;
    Ok(dist
        .into_iter()
        .map(|d| d.expect_finite("complete graph distances are finite"))
        .collect())
}

/// The weights `shift − m(p,q)` as flat `i64` rows in units of
/// `1/(2·den)` ns, for `shift = num/den` and `m` in half-nanosecond
/// counts: each is `2·num − den·m(p,q)`. The diagonal is zero, which never
/// shortens a path. `None` when a weight's magnitude passes the SHIFTS
/// bound.
fn shifted_weights(counts: &SquareMatrix<i64>, shift: Ratio) -> Option<Vec<i64>> {
    let n = counts.n();
    // An i64 factor keeps every product inside i128 without a check.
    let factor = i128::from(i64::try_from(shift.denominator()).ok()?);
    let a = shift.numerator().checked_mul(2)?;
    let limit = i128::from(shifts_limit(n));
    let mut w = vec![0; n * n];
    for (p, (row, out)) in counts
        .as_slice()
        .chunks_exact(n)
        .zip(w.chunks_exact_mut(n))
        .enumerate()
    {
        for (q, (&x, y)) in row.iter().zip(out).enumerate() {
            if p == q {
                continue;
            }
            let v = a.checked_sub(i128::from(x) * factor)?;
            if !(-limit..=limit).contains(&v) {
                return None;
            }
            *y = v as i64;
        }
    }
    Some(w)
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

    fn matrix(rows: &[&[(i128, i128)]]) -> SquareMatrix<Ext<Ratio>> {
        SquareMatrix::from_fn(rows.len(), |i, j| {
            Ext::Finite(Ratio::new(rows[i][j].0, rows[i][j].1))
        })
    }

    #[test]
    fn a_hugely_negative_cycle_trips_the_floor() {
        // Every 2-cycle weighs −2·limit: distances plunge far past the
        // floor, which must stop the pass before any sum overflows. The
        // limit is in nanoseconds, half the bound on counts.
        let limit = i128::from(shifts_limit(4) / 2);
        let m = SquareMatrix::from_fn(4, |i, j| {
            Ext::Finite(Ratio::from_int(if i == j { 0 } else { limit / 2 }))
        });
        let shift = Ratio::from_int(-limit / 2);
        let err = try_scaled_shifted_distances(&m, shift, 0).expect("scalable");
        assert!(err.is_err());
        assert!(rational_shifted_distances(&m, shift, 0).is_err());
    }

    #[test]
    fn scaling_boundaries() {
        // Half nanoseconds have counts, whatever λ's denominator; a value
        // off the half-ns grid has none.
        let m = matrix(&[&[(0, 1), (1, 2)], &[(1, 1), (0, 1)]]);
        for shift in [Ratio::ONE, Ratio::new(4, 3)] {
            let fast = try_scaled_shifted_distances(&m, shift, 0).expect("on the grid");
            assert_eq!(fast, rational_shifted_distances(&m, shift, 0));
        }
        let m = matrix(&[&[(0, 1), (1, 1 << 40)], &[(1, 1), (0, 1)]]);
        assert!(try_scaled_shifted_distances(&m, Ratio::ONE, 0).is_none());
        // A shifted weight of exactly the limit scales; one past it bails.
        let limit = i128::from(shifts_limit(2) / 2);
        let m = matrix(&[&[(0, 1), (-limit, 1)], &[(limit, 1), (0, 1)]]);
        assert!(try_scaled_shifted_distances(&m, Ratio::ZERO, 0).is_some());
        assert!(try_scaled_shifted_distances(&m, Ratio::ONE, 0).is_none());
        assert_eq!(
            shifted_distances(&m, Ratio::ONE, 0),
            Ok(vec![Ratio::ZERO, Ratio::from_int(limit + 1)])
        );
    }

    #[test]
    fn scaled_matrices_hold_entries_within_the_limit() {
        let limit = shifts_limit(3);
        let with = |x: i64| SquareMatrix::from_fn(3, |i, j| if (i, j) == (2, 0) { x } else { 0 });
        for x in [-limit, limit] {
            assert!(ScaledMatrix::new(Cow::Owned(with(x))).is_some());
        }
        for x in [-limit - 1, limit + 1, crate::UNREACHABLE] {
            assert!(ScaledMatrix::new(Cow::Owned(with(x))).is_none());
        }
        assert!(ScaledMatrix::new(Cow::Owned(SquareMatrix::filled(0, 0))).is_none());
    }
}
