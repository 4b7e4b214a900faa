//! Exact shortest paths under shifted weights — the corrections pass of
//! SHIFTS (paper §4.4, Theorem 4.6).
//!
//! For a dense matrix `m` and a shift `λ`, the weights are
//! `w(p,q) = λ − m(p,q)` on every off-diagonal pair; the diagonal plays no
//! part. When `λ` is at least the maximum cycle mean of `m`, no cycle is
//! negative and the distances from a root are the optimal corrections.
//!
//! [`shifted_distances`] rescales `m` through the scaled Karp front end,
//! extends the common denominator by `λ`'s, and runs an early-exit
//! Bellman–Ford over flat `i64` rows, building a [`Ratio`] only for each
//! output. A positive rescaling multiplies every path weight by the same
//! constant, so the distances divided by the scale are exact. When scaling
//! bails — the common denominator passes `2^40` or a scaled weight passes
//! `(i64::MAX/4)/(n+1)` — it runs the rational [`bellman_ford`] instead,
//! with the same answers and the same errors and panics.
//! [`max_cycle_mean_with_distances`] computes `λ*` and the distances under
//! it from one scaling of `m`.

use clocksync_time::{Ext, Ratio};

use crate::closure::{lcm_scale, scaled_numerator};
use crate::scaled_karp::{magnitude_limit, scaled_cycle_weights, scaled_karp, NO_EDGE};
use crate::{
    bellman_ford, karp_max_cycle_mean, CycleMean, DiGraph, NegativeCycleError, SquareMatrix,
};

/// The panic message for an infinite off-diagonal entry.
const NOT_FINITE: &str = "shifted distances need a finite matrix";

/// Shortest-path distances from `source` under `w(p,q) = shift − m(p,q)`
/// over every off-diagonal pair of `m`.
///
/// Runs the scaled-`i64` kernel when `m` and `shift` admit exact scaling
/// and the rational [`bellman_ford`] otherwise; both return the same
/// distances.
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
    match try_scaled_shifted_distances(m, shift, source) {
        Some(result) => result,
        None => rational_shifted_distances(m, shift, source),
    }
}

/// Runs the scaled-`i64` kernel of [`shifted_distances`] if `m` and
/// `shift` admit exact scaling; `None` when they do not (the caller should
/// use the rational kernel). Exposed so the equivalence test suite can
/// tell "fast path taken" apart from "silently fell back".
///
/// # Panics
///
/// As [`shifted_distances`], except that a `+∞` entry makes scaling bail
/// instead.
pub fn try_scaled_shifted_distances(
    m: &SquareMatrix<Ext<Ratio>>,
    shift: Ratio,
    source: usize,
) -> Option<Result<Vec<Ratio>, NegativeCycleError>> {
    assert!(source < m.n(), "source out of range");
    let (scaled, scale) = scaled_cycle_weights(m)?;
    scaled_shifted_distances(&scaled, scale, shift, source)
}

/// The maximum cycle mean `λ*` of `m` (as
/// [`fast_max_cycle_mean`](crate::fast_max_cycle_mean)) together with the
/// [`shifted_distances`] from `source` under `λ*`, scaling `m` once for
/// both. `None` when `m` has no cycle.
///
/// # Panics
///
/// Panics if `source` is out of range or any entry is `+∞`, or if an
/// off-diagonal entry is `−∞`.
pub fn max_cycle_mean_with_distances(
    m: &SquareMatrix<Ext<Ratio>>,
    source: usize,
) -> Option<(CycleMean, Vec<Ratio>)> {
    assert!(source < m.n(), "source out of range");
    let (cm, dist) = match scaled_cycle_weights(m) {
        Some((scaled, scale)) => {
            let cm = scaled_karp(&scaled, scale)?;
            let dist = scaled_shifted_distances(&scaled, scale, cm.mean, source)
                .unwrap_or_else(|| rational_shifted_distances(m, cm.mean, source));
            (cm, dist)
        }
        None => {
            let cm = karp_max_cycle_mean(m)?;
            let dist = rational_shifted_distances(m, cm.mean, source);
            (cm, dist)
        }
    };
    // Every cycle's mean is at most λ*, so none is negative under λ* − m.
    Some((
        cm,
        dist.expect("no cycle is negative under the maximum cycle mean"),
    ))
}

/// The rational fallback: the generic [`bellman_ford`] over a [`DiGraph`]
/// of the off-diagonal shifted weights.
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

/// The scaled kernel on a matrix already scaled by Karp's front end:
/// `None` when the shifted weights do not scale.
fn scaled_shifted_distances(
    scaled: &SquareMatrix<i64>,
    scale: i128,
    shift: Ratio,
    source: usize,
) -> Option<Result<Vec<Ratio>, NegativeCycleError>> {
    let n = scaled.n();
    let (w, scale) = shifted_weights(scaled, scale, shift)?;
    let dist = dense_bellman_ford(&w, n, source, magnitude_limit(n));
    Some(dist.map(|d| {
        d.into_iter()
            .map(|x| Ratio::new(x as i128, scale))
            .collect()
    }))
}

/// The weights `shift − m(p,q)` as flat `i64` rows over the least common
/// multiple of `scale` and `shift`'s denominator, returned with it; the
/// diagonal is zero, which never shortens a path. `None` when that
/// multiple passes `MAX_SCALE` or a weight's magnitude passes
/// [`magnitude_limit`].
fn shifted_weights(
    scaled: &SquareMatrix<i64>,
    scale: i128,
    shift: Ratio,
) -> Option<(Vec<i64>, i128)> {
    let n = scaled.n();
    let common = lcm_scale(scale, shift.denominator())?;
    let factor = common / scale;
    let a = scaled_numerator(shift, common)?;
    let limit = magnitude_limit(n) as i128;
    let mut w = vec![0; n * n];
    for (p, (row, out)) in scaled
        .as_slice()
        .chunks_exact(n)
        .zip(w.chunks_exact_mut(n))
        .enumerate()
    {
        for (q, (&x, y)) in row.iter().zip(out).enumerate() {
            if p == q {
                continue;
            }
            assert!(x != NO_EDGE, "{NOT_FINITE}: value is -inf");
            let v = a.checked_sub(x as i128 * factor)?;
            if !(-limit..=limit).contains(&v) {
                return None;
            }
            *y = v as i64;
        }
    }
    Some((w, common))
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
    use crate::closure::MAX_SCALE;

    fn matrix(rows: &[&[(i128, i128)]]) -> SquareMatrix<Ext<Ratio>> {
        SquareMatrix::from_fn(rows.len(), |i, j| {
            Ext::Finite(Ratio::new(rows[i][j].0, rows[i][j].1))
        })
    }

    #[test]
    fn a_hugely_negative_cycle_trips_the_floor() {
        // Every 2-cycle weighs −2·limit: distances plunge far past the
        // floor, which must stop the pass before any sum overflows.
        let limit = magnitude_limit(4) as i128;
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
        // A common denominator of exactly MAX_SCALE scales; λ's
        // denominator 3 takes it past.
        let m = matrix(&[&[(0, 1), (1, MAX_SCALE)], &[(1, 1), (0, 1)]]);
        assert!(try_scaled_shifted_distances(&m, Ratio::ONE, 0).is_some());
        assert!(try_scaled_shifted_distances(&m, Ratio::new(1, 3), 0).is_none());
        // A shifted weight of exactly the limit scales; one past it bails.
        let limit = magnitude_limit(2) as i128;
        let m = matrix(&[&[(0, 1), (-limit, 1)], &[(limit, 1), (0, 1)]]);
        assert!(try_scaled_shifted_distances(&m, Ratio::ZERO, 0).is_some());
        assert!(try_scaled_shifted_distances(&m, Ratio::ONE, 0).is_none());
        assert_eq!(
            shifted_distances(&m, Ratio::ONE, 0),
            Ok(vec![Ratio::ZERO, Ratio::from_int(limit + 1)])
        );
    }
}
