//! The integer encoding of an estimate: a count of half nanoseconds.
//!
//! Every §6 estimator subtracts integer-nanosecond delay extrema and halves
//! at most once, so every `m̃ls` entry is a whole or half nanosecond, and so
//! is every closure entry, a sum of them. The integer kernels hold such a
//! value `r` as the `i64` count `2r`: [`encode`] is the one map from a
//! [`Ratio`] to a count and [`decode`] the one map back. Infinities have no
//! count. Each kernel front end maps them to its own sentinel: the
//! closure's [`UNREACHABLE`](crate::UNREACHABLE) for `+∞`, Karp's
//! `NO_EDGE` for a missing edge.
//!
//! A value off the grid (any other denominator) or past a magnitude bound
//! has no count, and its matrix takes the rational route.
//!
//! # Bounds
//!
//! Each bound is twice a bound in nanoseconds, `⌊UNREACHABLE/(4n)⌋` and
//! `⌊(i64::MAX/4)/(n+1)⌋`, so a whole-nanosecond value has a count exactly
//! when it lies within that many nanoseconds.
//!
//! * [`closure_limit`]`(n) = 2·⌊UNREACHABLE/(4n)⌋`, at most
//!   `UNREACHABLE/(2n)`. A simple path has at most `n − 1` edges, so its
//!   length stays within `±UNREACHABLE/2`. Every sum a closure kernel or
//!   `Closure::relax_edge` forms over shortest paths is at most three such
//!   lengths' worth (Johnson's reweighted sums included), so it stays
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
//!   keeps its biases in `i128`. The corrections pass checks its shifted
//!   weights against the same bound and stops once a distance falls below
//!   `−(n−1)` times it, so its sums stay within `±2n·shifts_limit(n)`.

use std::fmt;

use clocksync_time::{Ext, Ratio};

use crate::{SquareMatrix, UNREACHABLE};

/// The largest count an `n`-node closure input may hold in magnitude.
pub(crate) fn closure_limit(n: usize) -> i64 {
    2 * (UNREACHABLE / (4 * (n as i64).max(1)))
}

/// The largest count an `n`-node SHIFTS matrix may hold in magnitude.
pub(crate) fn shifts_limit(n: usize) -> i64 {
    2 * ((i64::MAX / 4) / (n as i64 + 1))
}

/// Why a value, or a matrix, has no half-nanosecond encoding — the reasons
/// the GLOBAL ESTIMATES step falls off the integer kernels onto the
/// `O(n³)` rational one. Surfaced through
/// [`Closure::new_explained`](crate::Closure::new_explained) so callers can
/// make the perf cliff observable instead of silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleBailout {
    /// The matrix contains a `NegInf` entry, which the sentinel encoding
    /// cannot represent.
    NegInfWeight,
    /// A finite entry is not a whole or half nanosecond.
    OffGrid,
    /// An entry's count exceeds the magnitude bound, close enough to the
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

impl fmt::Display for ScaleBailout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// `r` as a count of half nanoseconds within `±limit`.
pub(crate) fn encode(r: Ratio, limit: i64) -> Result<i64, ScaleBailout> {
    let count = match r.denominator() {
        1 => r.numerator().checked_add(r.numerator()),
        2 => Some(r.numerator()),
        _ => return Err(ScaleBailout::OffGrid),
    };
    count
        .and_then(|c| i64::try_from(c).ok())
        .filter(|c| (-limit..=limit).contains(c))
        .ok_or(ScaleBailout::MagnitudeOverflow)
}

/// [`encode`] for an extended value, with `infinite` giving the image of
/// `±∞` (or the reason it has none).
pub(crate) fn encode_ext(
    w: Ext<Ratio>,
    limit: i64,
    infinite: impl Fn(Ext<Ratio>) -> Result<i64, ScaleBailout>,
) -> Result<i64, ScaleBailout> {
    match w {
        Ext::Finite(r) => encode(r, limit),
        inf => infinite(inf),
    }
}

/// [`encode_ext`] entrywise: the first entry without an image names the
/// reason.
pub(crate) fn encode_matrix(
    m: &SquareMatrix<Ext<Ratio>>,
    limit: i64,
    infinite: impl Fn(Ext<Ratio>) -> Result<i64, ScaleBailout>,
) -> Result<SquareMatrix<i64>, ScaleBailout> {
    let data = m
        .as_slice()
        .iter()
        .map(|&w| encode_ext(w, limit, &infinite))
        .collect::<Result<_, _>>()?;
    Ok(SquareMatrix::from_vec(m.n(), data))
}

/// The value of a count.
pub(crate) fn decode(count: i64) -> Ratio {
    Ratio::new(count.into(), 2)
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

#[cfg(test)]
mod tests {
    use super::*;

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
            assert_eq!(decode(count), r);
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
        let neg_inf = |_| Err(ScaleBailout::NegInfWeight);
        assert_eq!(
            encode_ext(Ext::NegInf, 100, neg_inf),
            Err(ScaleBailout::NegInfWeight)
        );
        assert_eq!(ScaleBailout::OffGrid.name(), "off-grid");
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
        }
    }
}
