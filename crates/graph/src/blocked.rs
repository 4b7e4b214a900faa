//! A parallel, flat-`i64` Floyd–Warshall kernel for the GLOBAL ESTIMATES
//! hot path.
//!
//! The generic [`crate::floyd_warshall_with_paths`] kernel pays for exact
//! arithmetic on every relaxation: an [`clocksync_time::Ratio`] addition
//! costs a gcd plus several checked `i128` multiplications, and the
//! `Ext<…>` wrapper adds a branch per operation. This module is the fast
//! path behind [`crate::fast_closure`]: weights are pre-encoded as `i64`
//! counts of half nanoseconds (always possible for estimate matrices
//! derived from integer-nanosecond observations), "unreachable" is the
//! sentinel [`UNREACHABLE`], and each `k`-round relaxes the `(i, j)` plane
//! as independent row blocks in parallel via rayon.
//!
//! # Scheduling and exact equivalence
//!
//! The schedule is deliberately **level-synchronous**: `k` advances one
//! level at a time, with row `k` snapshotted before the row blocks run.
//! Classic three-phase tiled Floyd–Warshall also blocks the `k` dimension,
//! which changes *when* (at which `k`-level) a given improvement is first
//! seen; distances come out the same, but the successor matrix can then
//! differ from the reference kernel's on equal-weight ties. Keeping `k`
//! level-synchronous makes every relaxation here fire at exactly the same
//! `(k, i, j)` as in [`crate::floyd_warshall_with_paths`], so on inputs
//! without a negative cycle the kernel is **bit-identical** to the generic
//! reference in both the distance and the successor matrix (the property
//! suite in `tests/closure_equivalence.rs` checks this on thousands of
//! random graphs). Both kernels stop at the first level that leaves a
//! negative diagonal entry. Until then row `k` does not change during
//! level `k`, so the snapshot and the in-place reference agree there too,
//! and both report the same witness vertex.
//!
//! Within a level, rows are independent: relaxing row `i` reads only row
//! `i` itself and the row-`k` snapshot (`d[i][k]` lives in row `i`), so
//! the row blocks can run on separate threads without locks or `unsafe`
//! (this crate is `#![forbid(unsafe_code)]`).

use rayon::prelude::*;

use crate::{NegativeCycleError, SquareMatrix};

/// The sentinel distance meaning "no path". Chosen so that
/// `UNREACHABLE + |any admissible finite value|` cannot overflow and any
/// partially-poisoned sum still compares above every finite distance;
/// [`crate::fast_closure`] rejects inputs whose counts could get anywhere
/// near it.
pub const UNREACHABLE: i64 = i64::MAX / 4;

/// Below this dimension the kernels stay on the calling thread: an
/// `n³` of ~2M relaxations runs in about a millisecond, which per-level
/// fork/join overhead would only dilute. Shared with the sparse backends,
/// whose per-source fan-out has the same overhead profile.
pub(crate) const PAR_THRESHOLD: usize = 192;

/// One working row: distances and successors, both contiguous.
struct Row {
    dist: Vec<i64>,
    next: Vec<usize>,
}

/// Applies one `k`-level of relaxations to a single row.
///
/// `row_k` is the snapshot of distance row `k` taken at the start of the
/// level. Mirrors the generic kernel exactly: skip when `d[i][k]` is
/// unreachable, skip unreachable `d[k][j]`, strict `<` improvement,
/// successor inherited from `next[i][k]`.
fn relax_row(row: &mut Row, k: usize, row_k: &[i64]) {
    let n = row_k.len();
    let dist = &mut row.dist[..n];
    let next = &mut row.next[..n];
    let dik = dist[k];
    if dik == UNREACHABLE {
        return;
    }
    let nik = next[k];
    for j in 0..n {
        let dkj = row_k[j];
        if dkj == UNREACHABLE {
            continue;
        }
        let via = dik + dkj;
        if via < dist[j] {
            dist[j] = via;
            next[j] = nik;
        }
    }
}

/// All-pairs shortest paths over sentinel-encoded `i64` weights, with the
/// same conventions as [`crate::floyd_warshall_with_paths`]: the output is
/// `(dist, next)` where `next[(i, j)]` is the node after `i` on a shortest
/// `i → j` path and `usize::MAX` means unreachable (or `i == j`). The
/// diagonal is normalized to `min(0, input)` before the main loop.
///
/// Callers must keep finite weight magnitudes far below [`UNREACHABLE`]
/// (specifically `|w| · n` must not approach it); [`crate::fast_closure`]
/// enforces this when it encodes rational matrices for this kernel.
///
/// # Errors
///
/// Returns [`NegativeCycleError`] when the graph contains a negative
/// cycle: the run stops at the first level that leaves a negative diagonal
/// entry and names the smallest such node. Up to that level every entry is
/// a simple-path length, so no sum can overflow however negative the
/// cycle.
///
/// # Examples
///
/// ```
/// use clocksync_graph::{blocked_floyd_warshall_i64, SquareMatrix, UNREACHABLE};
///
/// let mut w = SquareMatrix::filled(3, UNREACHABLE);
/// for i in 0..3 { w[(i, i)] = 0; }
/// w[(0, 1)] = 4;
/// w[(1, 2)] = -1;
/// let (dist, next) = blocked_floyd_warshall_i64(&w)?;
/// assert_eq!(dist[(0, 2)], 3);
/// assert_eq!(next[(0, 2)], 1);
/// assert_eq!(dist[(2, 0)], UNREACHABLE);
/// # Ok::<(), clocksync_graph::NegativeCycleError>(())
/// ```
pub fn blocked_floyd_warshall_i64(
    weights: &SquareMatrix<i64>,
) -> Result<(SquareMatrix<i64>, SquareMatrix<usize>), NegativeCycleError> {
    let n = weights.n();
    let mut rows: Vec<Row> = (0..n)
        .map(|i| {
            let dist = weights.row(i).to_vec();
            let next = (0..n)
                .map(|j| {
                    if i != j && dist[j] != UNREACHABLE {
                        j
                    } else {
                        usize::MAX
                    }
                })
                .collect();
            Row { dist, next }
        })
        .collect();
    // A zero-length path always exists.
    for (i, row) in rows.iter_mut().enumerate() {
        if row.dist[i] > 0 {
            row.dist[i] = 0;
        }
    }

    let threads = rayon::current_num_threads();
    let parallel = n >= PAR_THRESHOLD && threads > 1;
    let block = if parallel { n.div_ceil(threads) } else { n };
    let negative = |rows: &[Row]| (0..n).find(|&i| rows[i].dist[i] < 0);
    let mut row_k = vec![0i64; n];
    for k in 0..n {
        if let Some(witness) = negative(&rows) {
            return Err(NegativeCycleError { witness });
        }
        row_k.copy_from_slice(&rows[k].dist);
        if parallel {
            let snapshot = &row_k;
            rows.par_chunks_mut(block)
                .for_each(|rows_block: &mut [Row]| {
                    for row in rows_block {
                        relax_row(row, k, snapshot);
                    }
                });
        } else {
            for row in rows.iter_mut() {
                relax_row(row, k, &row_k);
            }
        }
    }

    if let Some(witness) = negative(&rows) {
        return Err(NegativeCycleError { witness });
    }

    let mut dist = Vec::with_capacity(n * n);
    let mut next = Vec::with_capacity(n * n);
    for row in rows {
        dist.extend_from_slice(&row.dist);
        next.extend_from_slice(&row.next);
    }
    Ok((
        SquareMatrix::from_vec(n, dist),
        SquareMatrix::from_vec(n, next),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{floyd_warshall_with_paths, reconstruct_path};
    use clocksync_time::Ext;

    fn sentinel_matrix(n: usize, edges: &[(usize, usize, i64)]) -> SquareMatrix<i64> {
        let mut m = SquareMatrix::filled(n, UNREACHABLE);
        for i in 0..n {
            m[(i, i)] = 0;
        }
        for &(a, b, w) in edges {
            m[(a, b)] = w;
        }
        m
    }

    fn ext_matrix(m: &SquareMatrix<i64>) -> SquareMatrix<Ext<i64>> {
        SquareMatrix::from_fn(m.n(), |i, j| {
            let v = m[(i, j)];
            if v == UNREACHABLE {
                Ext::PosInf
            } else {
                Ext::Finite(v)
            }
        })
    }

    fn assert_matches_generic(m: &SquareMatrix<i64>) {
        let blocked = blocked_floyd_warshall_i64(m);
        let generic = floyd_warshall_with_paths(&ext_matrix(m));
        match (blocked, generic) {
            (Ok((d, next)), Ok((gd, gnext))) => {
                for (i, j, &v) in d.iter() {
                    let expected = match gd[(i, j)] {
                        Ext::Finite(x) => x,
                        Ext::PosInf => UNREACHABLE,
                        Ext::NegInf => panic!("generic produced -inf"),
                    };
                    assert_eq!(v, expected, "dist mismatch at ({i},{j})");
                }
                assert_eq!(next, gnext, "successor mismatch");
            }
            (Err(_), Err(_)) => {}
            (b, g) => panic!("outcome mismatch: blocked {b:?} vs generic {g:?}"),
        }
    }

    #[test]
    fn matches_generic_on_small_graphs() {
        assert_matches_generic(&sentinel_matrix(3, &[(0, 1, 1), (1, 2, 2)]));
        assert_matches_generic(&sentinel_matrix(3, &[(0, 2, 10), (0, 1, 2), (1, 2, 3)]));
        assert_matches_generic(&sentinel_matrix(3, &[(0, 1, 5), (1, 2, -4), (0, 2, 2)]));
        assert_matches_generic(&sentinel_matrix(2, &[(0, 1, 3), (1, 0, -3)]));
        assert_matches_generic(&sentinel_matrix(0, &[]));
        assert_matches_generic(&sentinel_matrix(1, &[]));
    }

    #[test]
    fn detects_negative_cycles() {
        let m = sentinel_matrix(2, &[(0, 1, 1), (1, 0, -2)]);
        assert!(blocked_floyd_warshall_i64(&m).is_err());
    }

    #[test]
    fn a_dense_negative_matrix_stops_before_overflowing() {
        // Every off-diagonal entry −1: once a diagonal entry is negative,
        // entries would double at every later level and pass i64 within 64
        // levels. Level 0 already closes 1 → 0 → 1.
        let m = SquareMatrix::from_fn(64, |i, j| if i == j { 0 } else { -1i64 });
        let err = blocked_floyd_warshall_i64(&m).unwrap_err();
        assert_eq!(err.witness, 1);
        assert_eq!(floyd_warshall_with_paths(&ext_matrix(&m)), Err(err));
    }

    #[test]
    fn successors_reconstruct_shortest_paths() {
        let m = sentinel_matrix(
            5,
            &[
                (0, 1, 3),
                (1, 2, 4),
                (2, 3, 1),
                (3, 4, 2),
                (0, 2, 9),
                (1, 4, 20),
            ],
        );
        let (d, next) = blocked_floyd_warshall_i64(&m).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                if let Some(path) = reconstruct_path(&next, i, j) {
                    let mut total = 0i64;
                    for pair in path.windows(2) {
                        total += m[(pair[0], pair[1])];
                    }
                    assert_eq!(total, d[(i, j)], "path {path:?}");
                } else {
                    assert_eq!(d[(i, j)], UNREACHABLE);
                }
            }
        }
    }

    #[test]
    fn parallel_path_agrees_with_sequential() {
        // Big enough to cross PAR_THRESHOLD; ring plus deterministic chords.
        let n = PAR_THRESHOLD + 8;
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, (i + 1) % n, 1 + (i as i64 % 7)));
        }
        for i in (0..n).step_by(3) {
            edges.push((i, (i * 5 + 2) % n, 2 + (i as i64 % 11)));
        }
        let m = sentinel_matrix(n, &edges);
        assert_matches_generic(&m);
    }

    #[test]
    fn positive_diagonal_is_normalized() {
        let mut m = sentinel_matrix(2, &[(0, 1, 5)]);
        m[(1, 1)] = 17;
        let (d, _) = blocked_floyd_warshall_i64(&m).unwrap();
        assert_eq!(d[(1, 1)], 0);
    }
}
