//! The integer fast path for Karp's maximum cycle mean.
//!
//! Mirrors the closure subsystem's architecture (see `closure.rs`): encode
//! the rational weight matrix as `i64` counts of half nanoseconds
//! (`half_ns.rs`), run a cache-friendly integer kernel on the calling
//! thread, and map the answer back. Doubling multiplies every walk weight
//! by two, so every comparison Karp's recurrence makes is preserved
//! *exactly*: the integer kernel's `D_k` tables and witness potentials are
//! the doubled images of the exact kernel's, so both pick the same
//! canonical witness cycle, and halving the resulting `λ*` recovers the
//! exact rational answer bit-for-bit ([`Ratio`] is canonical). When an
//! entry has no count — off the half-ns grid, `+∞`, or past the SHIFTS
//! bound — [`fast_max_cycle_mean`] falls back to the exact
//! [`karp_max_cycle_mean`](crate::karp_max_cycle_mean). SHIFTS runs the
//! integer kernel only when integer Howard passes its iteration cap
//! (`scaled_howard.rs`).

use clocksync_time::{Ext, Ratio};

use crate::half_ns::{self, shifts_limit, Gauge};
use crate::karp::canonical_cycle;
use crate::{karp_max_cycle_mean, CycleMean, SquareMatrix};

/// Sentinel for "no edge" / "no walk" in the `i64` Karp kernel. The kernel
/// only ever compares it, never adds it, and it lies below every walk
/// weight the SHIFTS bound admits (`half_ns.rs`).
pub(crate) const NO_EDGE: i64 = i64::MIN;

/// The result of the integer maximum-cycle-mean kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CycleMeanI64 {
    /// Numerator of `λ*` (a difference of walk weights; not reduced).
    num: i64,
    /// Denominator of `λ*` (a cycle-length difference, `1..=n`).
    den: i64,
    /// A witness cycle achieving the mean, conventions as [`CycleMean`].
    cycle: Vec<usize>,
}

/// Compares the fractions `a1/b1` and `a2/b2` (positive denominators) by
/// `i128` cross-multiplication — exact, and far from overflow for the
/// kernels' walk-weight differences and cycle sums.
pub(crate) fn cmp_frac(a1: i64, b1: i64, a2: i64, b2: i64) -> std::cmp::Ordering {
    (a1 as i128 * b2 as i128).cmp(&(a2 as i128 * b1 as i128))
}

/// Karp's maximum cycle mean over a dense `i64` weight matrix; entries
/// equal to [`NO_EDGE`] mark absent edges, everything else is an edge
/// weight (callers must keep weights small enough that `n`-term sums
/// cannot overflow — the rational front end [`try_scaled_karp`] enforces
/// the SHIFTS bound before delegating here). Returns `None` when the graph
/// has no cycle.
///
/// The recurrence and its witness mirror
/// [`karp_max_cycle_mean`](crate::karp_max_cycle_mean) on the scaled
/// values, so on a scaled matrix the two kernels produce the *same* mean
/// and canonical witness cycle. Rounds run on the calling thread: the
/// vendored rayon spawns OS threads on every call, which costs more than a
/// round's `n²` additions at the sizes SHIFTS sees.
fn karp_max_cycle_mean_i64(m: &SquareMatrix<i64>) -> Option<CycleMeanI64> {
    let n = m.n();
    if n == 0 {
        return None;
    }
    // Transposed weights: row v holds the in-edge weights of v, making each
    // destination's relaxation a contiguous scan.
    let mut wt = vec![NO_EDGE; n * n];
    let mut has_edge = false;
    for (u, v, &w) in m.iter() {
        if w != NO_EDGE {
            wt[v * n + u] = w;
            has_edge = true;
        }
    }
    if !has_edge {
        return None;
    }

    // d[k][v] = max weight of a k-edge walk ending at v (NO_EDGE = none).
    let relax = |v: usize, prev: &[i64]| -> i64 {
        let mut best = NO_EDGE;
        for (&w, &du) in wt[v * n..(v + 1) * n].iter().zip(prev) {
            if w != NO_EDGE && du != NO_EDGE {
                best = best.max(du + w);
            }
        }
        best
    };
    let mut d: Vec<Vec<i64>> = Vec::with_capacity(n + 1);
    d.push(vec![0; n]);
    for k in 1..=n {
        let row: Vec<i64> = (0..n).map(|v| relax(v, &d[k - 1])).collect();
        d.push(row);
    }

    // λ* = max_v min_k (D_n(v) − D_k(v)) / (n − k), exactly as the rational
    // kernel computes it (fraction comparisons by cross-multiplication).
    let mut best: Option<(i64, i64)> = None;
    for v in 0..n {
        let dn = d[n][v];
        if dn == NO_EDGE {
            continue;
        }
        let mut v_min: Option<(i64, i64)> = None;
        for (k, dk_row) in d.iter().enumerate().take(n) {
            let dk = dk_row[v];
            if dk == NO_EDGE {
                continue;
            }
            let (num, den) = (dn - dk, (n - k) as i64);
            v_min = Some(match v_min {
                Some((cn, cd)) if cmp_frac(cn, cd, num, den).is_le() => (cn, cd),
                _ => (num, den),
            });
        }
        if let Some((vn, vd)) = v_min {
            match best {
                Some((bn, bd)) if cmp_frac(bn, bd, vn, vd).is_ge() => {}
                _ => best = Some((vn, vd)),
            }
        }
    }
    let (lambda_num, lambda_den) = best?;

    // Witness: the exact kernel's potential π(v) = max_{k<n} D_k(v) − k·λ*,
    // times `lambda_den` so it stays integral; the tight edges, and so the
    // canonical cycle, are the scaled image of the exact kernel's.
    let (num, den) = (lambda_num as i128, lambda_den as i128);
    let pi: Vec<i128> = (0..n)
        .map(|v| {
            (0..n)
                .filter(|&k| d[k][v] != NO_EDGE)
                .map(|k| d[k][v] as i128 * den - k as i128 * num)
                .max()
                .expect("D_0 is finite")
        })
        .collect();
    let cycle = canonical_cycle(n, |u, v| {
        let w = m[(u, v)];
        w != NO_EDGE && pi[u] + w as i128 * den - num == pi[v]
    });
    Some(CycleMeanI64 {
        num: lambda_num,
        den: lambda_den,
        cycle,
    })
}

/// Runs the integer Karp kernel if every entry has a half-nanosecond
/// count within the SHIFTS bound (`−∞` standing for a missing edge).
/// Returns `None` when one does not (the caller should use the exact
/// rational kernel); `Some(None)` means the graph has no cycle. Exposed so
/// the equivalence test suite can tell "fast path taken" apart from
/// "silently fell back".
pub fn try_scaled_karp(m: &SquareMatrix<Ext<Ratio>>) -> Option<Option<CycleMean>> {
    let gauge = Gauge(vec![0; m.n()]);
    let counts = gauge
        .encode_matrix(m, shifts_limit(m.n()), (None, Some(NO_EDGE)))
        .ok()?;
    Some(scaled_karp(&counts))
}

/// Karp on a matrix of half-nanosecond counts, mapped back to the exact
/// [`CycleMean`] of the values they encode.
pub(crate) fn scaled_karp(counts: &SquareMatrix<i64>) -> Option<CycleMean> {
    karp_max_cycle_mean_i64(counts).map(|r| CycleMean {
        mean: half_ns::decode_mean(r.num.into(), r.den.into()),
        cycle: r.cycle,
    })
}

/// The maximum cycle mean via the integer kernel whenever every entry has
/// a half-nanosecond count (always, for estimate matrices), and via the
/// exact rational [`karp_max_cycle_mean`](crate::karp_max_cycle_mean)
/// otherwise. Both routes produce the identical [`CycleMean`] — mean *and*
/// witness cycle — on every input the fast path accepts.
///
/// # Panics
///
/// Panics if any entry is `Ext::PosInf` (the contract of the exact kernel;
/// the integer path rejects such matrices and falls back).
///
/// # Examples
///
/// ```
/// use clocksync_graph::{SquareMatrix, fast_max_cycle_mean};
/// use clocksync_time::{Ext, Ratio};
///
/// let mut m = SquareMatrix::filled(2, Ext::<Ratio>::NegInf);
/// m[(0, 1)] = Ext::Finite(Ratio::new(3, 2));
/// m[(1, 0)] = Ext::Finite(Ratio::new(1, 2));
/// let r = fast_max_cycle_mean(&m).expect("graph has a cycle");
/// assert_eq!(r.mean, Ratio::from_int(1));
/// ```
pub fn fast_max_cycle_mean(m: &SquareMatrix<Ext<Ratio>>) -> Option<CycleMean> {
    match try_scaled_karp(m) {
        Some(result) => result,
        None => karp_max_cycle_mean(m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratio_matrix(n: usize, edges: &[(usize, usize, i128, i128)]) -> SquareMatrix<Ext<Ratio>> {
        let mut m = SquareMatrix::filled(n, Ext::<Ratio>::NegInf);
        for &(a, b, num, den) in edges {
            m[(a, b)] = Ext::Finite(Ratio::new(num, den));
        }
        m
    }

    #[test]
    fn scaled_path_matches_exact_karp_exactly() {
        // The integer path runs exactly on the half-ns grid: 2/3 is off it.
        let cases = [
            (ratio_matrix(2, &[(0, 1, 3, 1), (1, 0, 1, 1)]), true),
            (
                ratio_matrix(3, &[(0, 1, 1, 2), (1, 2, 2, 3), (2, 0, 4, 1)]),
                false,
            ),
            (
                ratio_matrix(4, &[(0, 1, 2, 1), (1, 0, 2, 1), (2, 3, 4, 1), (3, 2, 6, 1)]),
                true,
            ),
            (ratio_matrix(2, &[(0, 0, 7, 2), (0, 1, 100, 1)]), true),
            (ratio_matrix(2, &[(0, 1, -3, 1), (1, 0, -1, 1)]), true),
            (
                ratio_matrix(5, &[(0, 1, 9, 1), (2, 3, 1, 1), (3, 4, 1, 1), (4, 2, 4, 1)]),
                true,
            ),
        ];
        for (m, on_grid) in cases {
            let exact = karp_max_cycle_mean(&m);
            let fast = try_scaled_karp(&m);
            assert_eq!(fast.is_some(), on_grid, "route on {m:?}");
            if let Some(fast) = fast {
                assert_eq!(fast, exact, "mismatch on {m:?}");
            }
            assert_eq!(fast_max_cycle_mean(&m), exact);
        }
    }

    #[test]
    fn walks_at_the_bound_stay_clear_of_no_edge() {
        // Every entry −limit ns on a complete 2-node graph: every walk is
        // as light as the bound allows, and Karp must still see it.
        let limit = i128::from(shifts_limit(2) / 2);
        let m = SquareMatrix::filled(2, Ext::Finite(Ratio::from_int(-limit)));
        let fast = try_scaled_karp(&m).expect("within the bound");
        assert_eq!(fast, karp_max_cycle_mean(&m));
        assert_eq!(fast.unwrap().mean, Ratio::from_int(-limit));
    }

    #[test]
    fn acyclic_and_empty_graphs() {
        let m = ratio_matrix(3, &[(0, 1, 5, 1), (1, 2, 5, 1)]);
        assert_eq!(try_scaled_karp(&m), Some(None));
        assert_eq!(fast_max_cycle_mean(&m), None);
        assert_eq!(try_scaled_karp(&ratio_matrix(0, &[])), Some(None));
        assert_eq!(try_scaled_karp(&ratio_matrix(3, &[])), Some(None));
    }

    #[test]
    fn scaling_rejects_posinf_and_huge_denominators() {
        let mut m = ratio_matrix(2, &[(0, 1, 1, 1), (1, 0, 1, 1)]);
        m[(0, 1)] = Ext::PosInf;
        assert!(try_scaled_karp(&m).is_none());
        let m = ratio_matrix(2, &[(0, 1, 1, 1), (1, 0, 1, (1 << 41) + 1)]);
        assert!(try_scaled_karp(&m).is_none());
        // The public front end falls back to the exact kernel.
        assert_eq!(
            fast_max_cycle_mean(&m),
            karp_max_cycle_mean(&m),
            "fallback must agree with the exact kernel"
        );
    }

    #[test]
    fn scaling_rejects_oversized_magnitudes() {
        let big = (i64::MAX as i128) / 2;
        let m = ratio_matrix(2, &[(0, 1, big, 1), (1, 0, big, 1)]);
        assert!(try_scaled_karp(&m).is_none());
        assert_eq!(fast_max_cycle_mean(&m).unwrap().mean, Ratio::from_int(big));
    }

    #[test]
    fn i64_kernel_direct_conventions() {
        // 0 → 1 → 0 with weights 3, 1; plus an absent-edge row.
        let mut m = SquareMatrix::filled(3, NO_EDGE);
        m[(0, 1)] = 3;
        m[(1, 0)] = 1;
        let r = karp_max_cycle_mean_i64(&m).unwrap();
        assert_eq!((r.num, r.den), (4, 2));
        assert_eq!(r.cycle.len(), 2);
        assert!(karp_max_cycle_mean_i64(&SquareMatrix::filled(2, NO_EDGE)).is_none());
        assert!(karp_max_cycle_mean_i64(&SquareMatrix::<i64>::filled(0, NO_EDGE)).is_none());
    }

    #[test]
    fn random_128_node_matrix_matches_exact_karp() {
        // A sparse random matrix of whole and half nanoseconds: the integer
        // path must agree with the exact rational kernel bit-for-bit,
        // witness included.
        let n = 128;
        let mut m = SquareMatrix::filled(n, Ext::<Ratio>::NegInf);
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..n {
            for j in 0..n {
                if next() % 4 != 0 {
                    let num = (next() % 41) as i128 - 20;
                    let den = 1 + (next() % 2) as i128;
                    m[(i, j)] = Ext::Finite(Ratio::new(num, den));
                }
            }
        }
        let fast = try_scaled_karp(&m).expect("scalable");
        assert_eq!(fast, karp_max_cycle_mean(&m));
    }
}
