//! A flat-`i64` Floyd–Warshall kernel for the GLOBAL ESTIMATES hot path.
//!
//! The generic [`crate::floyd_warshall`] kernel pays for exact arithmetic
//! on every relaxation: an [`clocksync_time::Ratio`] addition costs a gcd
//! plus several checked `i128` multiplications, and the `Ext<…>` wrapper
//! adds a branch per operation. This module is the dense route behind
//! [`crate::Closure::of_links`]: weights are pre-encoded as gauged `i64` counts
//! of half nanoseconds (always possible for estimate matrices derived from
//! integer-nanosecond observations), "unreachable" is the sentinel
//! [`UNREACHABLE`], and the classic three loops run in place over the
//! matrix's flat rows.
//!
//! The kernel is serial. The vendored rayon spawns OS threads on every
//! call, so fanning each `k`-level out over row blocks made a 70%-dense
//! matrix slower on two threads than on one at every size measured
//! (n = 192, 512 and 768).
//!
//! Its distances equal the generic kernel's, and both stop at the first
//! level that leaves a negative diagonal entry, naming the same witness
//! (the property suite in `tests/closure_equivalence.rs` checks both on
//! thousands of random graphs).

use crate::{NegativeCycleError, SquareMatrix};

/// The sentinel distance meaning "no path". Chosen so that
/// `UNREACHABLE + |any admissible finite value|` cannot overflow and any
/// partially-poisoned sum still compares above every finite distance;
/// [`crate::Closure::of_links`] rejects inputs whose counts could get anywhere
/// near it.
pub const UNREACHABLE: i64 = i64::MAX / 4;

/// All-pairs shortest-path distances over sentinel-encoded `i64` weights,
/// with the same conventions as [`crate::floyd_warshall`]: [`UNREACHABLE`]
/// means no path, and the diagonal is normalized to `min(0, input)` before
/// the main loop.
///
/// Callers must keep finite weight magnitudes far below [`UNREACHABLE`]
/// (specifically `|w| · n` must not approach it); [`crate::Closure::of_links`]
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
/// let dist = blocked_floyd_warshall_i64(&w)?;
/// assert_eq!(dist[(0, 2)], 3);
/// assert_eq!(dist[(2, 0)], UNREACHABLE);
/// # Ok::<(), clocksync_graph::NegativeCycleError>(())
/// ```
pub fn blocked_floyd_warshall_i64(
    weights: &SquareMatrix<i64>,
) -> Result<SquareMatrix<i64>, NegativeCycleError> {
    let mut d = weights.clone();
    close_in_place(&mut d)?;
    Ok(d)
}

/// [`blocked_floyd_warshall_i64`] in place: `d` holds the weights on entry
/// and, on success, the distances.
///
/// # Errors
///
/// As [`blocked_floyd_warshall_i64`]; `d` is then partly closed.
pub(crate) fn close_in_place(d: &mut SquareMatrix<i64>) -> Result<(), NegativeCycleError> {
    let n = d.n();
    // A zero-length path always exists.
    for i in 0..n {
        if d[(i, i)] > 0 {
            d[(i, i)] = 0;
        }
    }
    let negative = |d: &SquareMatrix<i64>| (0..n).find(|&i| d[(i, i)] < 0);
    // Row k cannot change during level k while d[k][k] = 0, so a copy of
    // it reads the same values the generic kernel does.
    let mut row_k = vec![0i64; n];
    for k in 0..n {
        if let Some(witness) = negative(d) {
            return Err(NegativeCycleError { witness });
        }
        row_k.copy_from_slice(d.row(k));
        for row in d.as_mut_slice().chunks_exact_mut(n) {
            let dik = row[k];
            if dik == UNREACHABLE {
                continue;
            }
            for (dij, &dkj) in row.iter_mut().zip(&row_k) {
                if dkj == UNREACHABLE {
                    continue;
                }
                let via = dik + dkj;
                if via < *dij {
                    *dij = via;
                }
            }
        }
    }
    match negative(d) {
        Some(witness) => Err(NegativeCycleError { witness }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{floyd_warshall, reconstruct_path, shortest_path_successors, LinkWeights};
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
        let generic = floyd_warshall(&ext_matrix(m));
        match (blocked, generic) {
            (Ok(d), Ok(gd)) => assert_eq!(ext_matrix(&d), gd, "distances differ"),
            (Err(b), Err(g)) => assert_eq!(b, g, "witnesses differ"),
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
        assert_eq!(floyd_warshall(&ext_matrix(&m)), Err(err));
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
        let d = blocked_floyd_warshall_i64(&m).unwrap();
        let next =
            shortest_path_successors(&LinkWeights::from_matrix(&ext_matrix(&m)), &ext_matrix(&d));
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
        // A 200-node ring with deterministic chords: past the size at which
        // the closure dispatch considers Johnson, the kernel still equals
        // the generic reference.
        let n = 200;
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
        let d = blocked_floyd_warshall_i64(&m).unwrap();
        assert_eq!(d[(1, 1)], 0);
    }
}
