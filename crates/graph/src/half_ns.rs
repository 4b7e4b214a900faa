//! The integer encoding of an estimate: a count of half nanoseconds, in a
//! gauge.
//!
//! Every §6 estimator subtracts integer-nanosecond delay extrema and halves
//! at most once, so every `m̃ls` entry is a whole or half nanosecond, and so
//! is every closure entry, a sum of them. The integer kernels hold such a
//! value `r` as a count derived from `2r`: [`gauged`] is the one map from
//! a [`Ratio`] to a count and [`Gauge::decode`] the one map back, entry by
//! entry ([`Gauge::decode_matrix`] applies it to a whole matrix).
//! Infinities have no count. Each kernel front end maps them to its own
//! sentinel: the
//! closure's [`UNREACHABLE`](crate::UNREACHABLE) for `+∞`, Karp's
//! `NO_EDGE` for a missing edge.
//!
//! # The gauge
//!
//! An `m̃ls` entry absorbs its clocks' start-time difference, `10^18` ns
//! and more for clocks that count from different epochs. Shifting node `p`
//! by `h(p)` moves `m(p,q)` by `h(p) − h(q)` and no cycle weight, so the
//! closure moves by the same potential, cycle means and critical cycles
//! stay put, and corrections from a root `s` move by `h(s) − h(q)`. A
//! [`Gauge`] holds one count `h(v)` per node from a breadth-first forest
//! over the finite entries, taken in either direction: each tree starts
//! at the smallest unvisited node, visits neighbours in index order and
//! sets `h(q) = h(p) + count(m(p,q))` (`h(p) − count(m(q,p))` when only
//! the reverse entry is finite), so tree edges weigh 0 and every gauged
//! count `count(m(p,q)) + h(p) − h(q)` is offset-free. Encoding applies
//! the gauge; every decode removes it. The arithmetic is checked `i128`;
//! a gauge value past `±2^100` counts, far beyond any sum of estimates
//! between `i64` clocks, is a [`ScaleBailout::MagnitudeOverflow`], which
//! keeps every decode sum inside `i128`.
//!
//! A value off the grid, `−∞`, or a gauged count past a bound has no
//! count, and its domain takes the residual rational route.
//!
//! # Bounds
//!
//! Each bound is twice a bound in nanoseconds, so a whole-nanosecond
//! value has a count exactly when it lies within that many nanoseconds.
//!
//! * [`closure_limit`]`(n) = 2·⌊UNREACHABLE/(4n)⌋`, at most
//!   `UNREACHABLE/(2n)`, bounds a gauged closure input. A simple path has
//!   at most `n − 1` edges, so its length stays within `±UNREACHABLE/2`.
//!   Every sum a closure kernel forms over shortest paths is at most three
//!   such lengths' worth (Johnson's reweighted sums included), so it stays
//!   within `±3/2·UNREACHABLE`, far from overflow, and every finite entry
//!   it keeps is a path length below the sentinel. On a negative cycle,
//!   both Floyd–Warshall kernels stop at the first level that leaves a
//!   negative diagonal entry, so until then every entry is still a
//!   simple-path length, and Johnson's potential pass stops once a
//!   potential falls below `−(n−1)` times the largest edge magnitude, so
//!   its sums stay within `±(2n−1)` times it.
//! * [`shifts_limit`]`(n) = 2·⌊(i64::MAX/4)/(n+1)⌋`, at most
//!   `(i64::MAX/2)/(n+1)`. Karp's walks have at most `n` edges and its
//!   witness adds one more, so every walk weight stays within
//!   `±i64::MAX/2` and every difference of two within `±i64::MAX`. That
//!   is what limits the bound. Karp's `NO_EDGE` is `i64::MIN`: it is only
//!   ever compared, never summed, and lies below every walk weight. Howard
//!   keeps its biases in `i128`. The corrections pass keeps its shifted
//!   weights within the same bound and stops once a distance falls below
//!   `−(n−1)` times it, so its sums stay within `±2n·shifts_limit(n)`.
//! * [`matrix_limit`]`(n) = ⌊shifts_limit(n)/(4n)⌋` bounds every entry of
//!   a SHIFTS matrix, and so every finite entry of a cached closure. A
//!   cycle mean `num/den` of such a matrix has `den ≤ 2n` and
//!   `|num|/den ≤ matrix_limit(n)/2` ns, so every corrections weight
//!   `2·num − den·m(p,q)` lies within `±4n·matrix_limit(n)`, inside
//!   `shifts_limit(n)`: the integer pass can always form it.

use std::collections::VecDeque;

use clocksync_time::{Ext, Ratio};

use crate::{LinkWeights, SquareMatrix, UNREACHABLE};

/// The largest count an `n`-node closure input may hold in magnitude.
pub(crate) fn closure_limit(n: usize) -> i64 {
    2 * (UNREACHABLE / (4 * (n as i64).max(1)))
}

/// The largest walk weight an `n`-node SHIFTS kernel may sum over, per
/// edge.
pub(crate) fn shifts_limit(n: usize) -> i64 {
    2 * ((i64::MAX / 4) / (n as i64 + 1))
}

/// The largest count an `n`-node SHIFTS matrix, or a cached closure over
/// `n` nodes, may hold in magnitude.
pub(crate) fn matrix_limit(n: usize) -> i64 {
    shifts_limit(n) / (4 * (n as i64).max(1))
}

/// The largest gauge value in magnitude.
const GAUGE_LIMIT: i128 = 1 << 100;

/// Why a value, or a matrix, has no half-nanosecond encoding — the reasons
/// a domain falls off the integer kernels onto the residual rational
/// route. Surfaced through
/// [`Closure::of_links`](crate::Closure::of_links) so callers can
/// make the perf cliff observable instead of silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleBailout {
    /// The matrix contains a `NegInf` entry, which the sentinel encoding
    /// cannot represent.
    NegInfWeight,
    /// A finite entry is not a whole or half nanosecond.
    OffGrid,
    /// A gauged count exceeds its magnitude bound, close enough to the
    /// sentinel that the kernels' sums could overflow into it.
    MagnitudeOverflow,
}

impl ScaleBailout {
    /// A short stable label for obs fields and log lines.
    pub fn name(self) -> &'static str {
        match self {
            ScaleBailout::NegInfWeight => "neg-inf-weight",
            ScaleBailout::OffGrid => "off-grid",
            ScaleBailout::MagnitudeOverflow => "magnitude-overflow",
        }
    }
}

/// `2r` for a whole or half nanosecond `r`: its count in no gauge.
fn raw_count(w: Ext<Ratio>) -> Result<i128, ScaleBailout> {
    let Ext::Finite(r) = w else {
        return Err(ScaleBailout::NegInfWeight);
    };
    let num = r.numerator();
    match r.denominator() {
        1 => num.checked_mul(2).ok_or(ScaleBailout::MagnitudeOverflow),
        2 => Ok(num),
        _ => Err(ScaleBailout::OffGrid),
    }
}

/// The count of `w` moved by `shift`, within `±limit`: the `(p, q)` entry
/// in a gauge `h` for `shift = h(p) − h(q)`.
pub(crate) fn gauged(w: Ext<Ratio>, shift: i128, limit: i64) -> Result<i64, ScaleBailout> {
    (raw_count(w)?.checked_add(shift))
        .and_then(|c| i64::try_from(c).ok())
        .filter(|c| (-limit..=limit).contains(c))
        .ok_or(ScaleBailout::MagnitudeOverflow)
}

/// The mean of `len` values whose counts sum to `sum`: `sum/(2·len)`.
/// Halving an even sum first keeps `Ratio::new` on its fast path for the
/// common lengths 1 and 2.
pub(crate) fn decode_mean(sum: i128, len: i128) -> Ratio {
    if sum % 2 == 0 {
        Ratio::new(sum / 2, len)
    } else {
        Ratio::new(sum, 2 * len)
    }
}

/// One count `h(v)` per node: the gauged count of `m(p,q)` is
/// `count(m(p,q)) + h(p) − h(q)` (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Gauge(pub(crate) Vec<i128>);

impl Gauge {
    /// The gauge of `local`'s finite entries, from the breadth-first forest
    /// the module docs describe, read off the link table: each row lists
    /// its neighbours in index order.
    ///
    /// # Errors
    ///
    /// The [`ScaleBailout`] of a tree edge without a count, or
    /// [`ScaleBailout::MagnitudeOverflow`] for a gauge value past `2^100`.
    pub(crate) fn of(local: &LinkWeights<Ext<Ratio>>) -> Result<Gauge, ScaleBailout> {
        let (table, w) = (local.table(), local.weights());
        Gauge::forest(table.n(), |p| {
            table
                .row(p)
                .map(|s| (table.target(s), w[s], w[table.reverse(s)]))
        })
    }

    /// [`Gauge::of`] for a dense matrix, such as a closure: every node is
    /// a candidate neighbour, in index order.
    ///
    /// # Errors
    ///
    /// As [`Gauge::of`].
    pub(crate) fn of_matrix(m: &SquareMatrix<Ext<Ratio>>) -> Result<Gauge, ScaleBailout> {
        Gauge::forest(m.n(), |p| {
            (0..m.n()).map(move |q| (q, m[(p, q)], m[(q, p)]))
        })
    }

    /// The forest itself, over `entries(p)`: each neighbour `q` of `p` in
    /// index order, with the entries `(p,q)` and `(q,p)`.
    fn forest<I>(n: usize, entries: impl Fn(usize) -> I) -> Result<Gauge, ScaleBailout>
    where
        I: Iterator<Item = (usize, Ext<Ratio>, Ext<Ratio>)>,
    {
        let mut h = vec![0i128; n];
        let mut seen = vec![false; n];
        let mut unseen = n;
        let mut queue = VecDeque::new();
        for root in 0..n {
            if seen[root] {
                continue;
            }
            (seen[root], unseen) = (true, unseen - 1);
            queue.clear();
            queue.push_back(root);
            while let Some(p) = queue.pop_front().filter(|_| unseen > 0) {
                for (q, forward, back) in entries(p) {
                    let step = match (seen[q], forward, back) {
                        (true, _, _) | (_, Ext::PosInf, Ext::PosInf) => continue,
                        (_, Ext::PosInf, back) => raw_count(back)?.checked_neg(),
                        (_, forward, _) => Some(raw_count(forward)?),
                    };
                    h[q] = step
                        .and_then(|step| h[p].checked_add(step))
                        .filter(|x| x.abs() <= GAUGE_LIMIT)
                        .ok_or(ScaleBailout::MagnitudeOverflow)?;
                    (seen[q], unseen) = (true, unseen - 1);
                    queue.push_back(q);
                }
            }
        }
        Ok(Gauge(h))
    }

    /// `local`'s slots as gauged counts within `±limit` ([`gauged`]), with
    /// [`UNREACHABLE`] for `+∞`: the first slot without a count names the
    /// reason.
    pub(crate) fn encode_links(
        &self,
        local: &LinkWeights<Ext<Ratio>>,
        limit: i64,
    ) -> Result<Vec<i64>, ScaleBailout> {
        let w = local.weights();
        let mut counts = Vec::with_capacity(w.len());
        for (p, q, s) in local.table().slots() {
            counts.push(match w[s] {
                Ext::PosInf => UNREACHABLE,
                w => gauged(w, self.0[p] - self.0[q], limit)?,
            });
        }
        Ok(counts)
    }

    /// `m` as gauged counts within `±limit` ([`gauged`]), with the given
    /// images of `±∞`, if any: the first entry, in row-major order, without
    /// an image names the reason.
    pub(crate) fn encode_matrix(
        &self,
        m: &SquareMatrix<Ext<Ratio>>,
        limit: i64,
        (pos_inf, neg_inf): (Option<i64>, Option<i64>),
    ) -> Result<SquareMatrix<i64>, ScaleBailout> {
        let n = m.n();
        let mut data = Vec::with_capacity(n * n);
        for (row, &hp) in m.as_slice().chunks_exact(n.max(1)).zip(&self.0) {
            for (&w, &hq) in row.iter().zip(&self.0) {
                data.push(match w {
                    Ext::PosInf => pos_inf.ok_or(ScaleBailout::MagnitudeOverflow)?,
                    Ext::NegInf => neg_inf.ok_or(ScaleBailout::NegInfWeight)?,
                    w => gauged(w, hp - hq, limit)?,
                });
            }
        }
        Ok(SquareMatrix::from_vec(n, data))
    }

    /// The value of the gauged count `v` at `(p, q)`: `(v − h(p) + h(q))/2`,
    /// `+∞` for [`UNREACHABLE`].
    pub(crate) fn decode(&self, p: usize, q: usize, v: i64) -> Ext<Ratio> {
        decode_count(v, self.0[p], self.0[q])
    }

    /// The values of a matrix of gauged counts, entry by entry as
    /// [`Gauge::decode`].
    pub(crate) fn decode_matrix(&self, m: &SquareMatrix<i64>) -> SquareMatrix<Ext<Ratio>> {
        let mut data = Vec::with_capacity(m.as_slice().len());
        for (row, &hp) in m.as_slice().chunks_exact(m.n().max(1)).zip(&self.0) {
            data.extend(
                row.iter()
                    .zip(&self.0)
                    .map(|(&v, &hq)| decode_count(v, hp, hq)),
            );
        }
        SquareMatrix::from_vec(m.n(), data)
    }
}

/// The one map back from a count: `(v − hp + hq)/2` for the gauge values
/// `hp`, `hq` of its row and column, `+∞` for [`UNREACHABLE`].
#[inline]
fn decode_count(v: i64, hp: i128, hq: i128) -> Ext<Ratio> {
    if v == UNREACHABLE {
        Ext::PosInf
    } else {
        Ext::Finite(Ratio::new(i128::from(v) - hp + hq, 2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(r: Ratio, limit: i64) -> Result<i64, ScaleBailout> {
        gauged(Ext::Finite(r), 0, limit)
    }

    #[test]
    fn whole_and_half_nanoseconds_round_trip() {
        for r in [
            Ratio::from_int(-7),
            Ratio::ZERO,
            Ratio::new(3, 2),
            Ratio::new(-1, 2),
        ] {
            let count = encode(r, 100).unwrap();
            assert_eq!(count, (r * Ratio::from_int(2)).numerator() as i64);
            let one = SquareMatrix::filled(1, count);
            assert_eq!(
                Gauge(vec![0; 1]).decode_matrix(&one)[(0, 0)],
                Ext::Finite(r)
            );
        }
        assert_eq!(decode_mean(3, 2), Ratio::new(3, 4));
        assert_eq!(decode_mean(-6, 2), Ratio::new(-3, 2));
    }

    #[test]
    fn off_grid_and_oversized_values_have_no_count() {
        assert_eq!(encode(Ratio::new(1, 3), 100), Err(ScaleBailout::OffGrid));
        assert_eq!(encode(Ratio::new(1, 4), 100), Err(ScaleBailout::OffGrid));
        // The bound is on the count: 50 ns is 100 half nanoseconds.
        assert_eq!(encode(Ratio::from_int(50), 100), Ok(100));
        assert_eq!(
            encode(Ratio::new(101, 2), 100),
            Err(ScaleBailout::MagnitudeOverflow)
        );
        assert_eq!(
            encode(Ratio::from_int(i128::MAX / 2), i64::MAX),
            Err(ScaleBailout::MagnitudeOverflow)
        );
        assert_eq!(gauged(Ext::NegInf, 0, 100), Err(ScaleBailout::NegInfWeight));
        assert_eq!(ScaleBailout::OffGrid.name(), "off-grid");
    }

    fn ns(x: i128) -> Ext<Ratio> {
        Ext::Finite(Ratio::from_int(x))
    }

    #[test]
    fn the_gauge_zeroes_tree_edges_and_keeps_cycle_weights() {
        // A 4-ring of clocks 10^18 ns apart: m(p,q) = S_p − S_q + slack.
        // The forest from 0 takes 0 → 1 and 0 → 3 forward, then 1 → 2.
        let start = |p: usize| 1_000_000_000_000_000_000 * p as i128;
        let mut m = SquareMatrix::filled(4, Ext::PosInf);
        for p in 0..4 {
            m[(p, p)] = ns(0);
            let q = (p + 1) % 4;
            m[(p, q)] = ns(start(p) - start(q) + 7);
            m[(q, p)] = ns(start(q) - start(p) + 5);
        }
        let gauge = Gauge::of_matrix(&m).unwrap();
        assert_eq!(Gauge::of(&LinkWeights::from_matrix(&m)), Ok(gauge.clone()));
        let counts = gauge
            .encode_matrix(&m, 1_000, (Some(UNREACHABLE), None))
            .unwrap();
        for (p, q) in [(0, 1), (0, 3), (1, 2)] {
            assert_eq!(counts[(p, q)], 0, "tree edge {p} → {q}");
        }
        // Each reverse tree edge carries its 2-cycle, 12 ns; the 4-cycle
        // keeps its 28 ns.
        assert_eq!(counts[(1, 0)], 24);
        assert_eq!(
            counts[(2, 3)] + counts[(3, 0)] + counts[(0, 1)] + counts[(1, 2)],
            56
        );
        assert_eq!(gauge.decode_matrix(&counts), m);
        // Far from its neighbours, node 2 reaches the forest only through
        // the entry into it, taken in reverse.
        let mut one_way = SquareMatrix::filled(3, Ext::PosInf);
        one_way[(2, 0)] = ns(start(3));
        one_way[(0, 1)] = ns(-start(3));
        let gauge = Gauge::of_matrix(&one_way).unwrap();
        assert_eq!(
            Gauge::of(&LinkWeights::from_matrix(&one_way)),
            Ok(gauge.clone())
        );
        assert_eq!(gauge.0, [0, -2 * start(3), -2 * start(3)]);
        assert_eq!(gauged(one_way[(2, 0)], gauge.0[2] - gauge.0[0], 0), Ok(0));
    }

    #[test]
    fn gauges_past_the_bound_and_tree_edges_without_counts_bail() {
        let mut m = SquareMatrix::filled(3, Ext::PosInf);
        m[(0, 1)] = ns(1 << 99);
        m[(1, 2)] = ns(1 << 99);
        assert_eq!(Gauge::of_matrix(&m), Err(ScaleBailout::MagnitudeOverflow));
        m[(1, 2)] = Ext::Finite(Ratio::new(1, 3));
        assert_eq!(Gauge::of_matrix(&m), Err(ScaleBailout::OffGrid));
        m[(1, 2)] = Ext::NegInf;
        assert_eq!(Gauge::of_matrix(&m), Err(ScaleBailout::NegInfWeight));
        // Without an entry between them, nodes root trees of their own.
        assert_eq!(
            Gauge::of_matrix(&SquareMatrix::filled(2, Ext::PosInf)),
            Ok(Gauge(vec![0; 2]))
        );
    }

    #[test]
    fn the_kernels_sums_stay_representable_at_the_bounds() {
        let max = i128::from(i64::MAX);
        for n in [1, 2, 3, 64, 1000] {
            let k = n as i128;
            // Three simple paths of n − 1 closure edges stay below
            // 3/2·UNREACHABLE.
            let closure_sum = 3 * (k - 1).max(1) * i128::from(closure_limit(n));
            assert!(2 * closure_sum <= 3 * i128::from(UNREACHABLE));
            // 2n + 1 SHIFTS weights fit an i64, and no walk of n + 1 edges
            // reaches Karp's NO_EDGE.
            assert!((2 * k + 1) * i128::from(shifts_limit(n)) < max);
            assert!((k + 1) * i128::from(shifts_limit(n)) <= max / 2);
            // Corrections weights over a SHIFTS matrix stay within the
            // SHIFTS bound, and a cached closure's entries within the
            // closure bound.
            assert!(4 * k * i128::from(matrix_limit(n)) <= i128::from(shifts_limit(n)));
            assert!(matrix_limit(n) <= closure_limit(n));
            // Decode sums stay inside i128 for den ≤ 2n.
            assert!(2 * k * 2 * GAUGE_LIMIT + max < i128::MAX);
        }
    }
}
