//! Karp's maximum cycle mean algorithm.
//!
//! The optimal precision of the PODC'93 synchronizer is
//! `A_max = max_θ m̃s(θ)/|θ|` over cyclic sequences of processors (paper
//! §4.3). The paper points to Karp's characterization of the minimum cycle
//! mean (Karp, *Discrete Math.* 23, 1978); we implement the maximization
//! variant directly:
//!
//! `λ* = max_v min_{0≤k<n} ( D_n(v) − D_k(v) ) / (n − k)`
//!
//! where `D_k(v)` is the maximum weight of any walk of exactly `k` edges
//! ending at `v` (starting anywhere; this is the usual super-source
//! formulation). All arithmetic is exact [`Ratio`] arithmetic.

use std::collections::VecDeque;

use clocksync_time::{Ext, Ratio};

use crate::SquareMatrix;

/// The result of a maximum-cycle-mean computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleMean {
    /// The maximum mean weight over all directed cycles.
    pub mean: Ratio,
    /// A witness cycle achieving the mean, as a node sequence
    /// `c_0, c_1, …, c_{k-1}` (the closing edge `c_{k-1} → c_0` is
    /// implicit). Never empty. Every kernel reports the same canonical
    /// one: a shortest cycle through the smallest node on any cycle of
    /// this mean, lexicographically first among those.
    pub cycle: Vec<usize>,
}

impl CycleMean {
    /// The number of edges on the witness cycle.
    pub fn len(&self) -> usize {
        self.cycle.len()
    }

    /// Whether the witness cycle is empty. Every `CycleMean` the algorithms
    /// construct carries a non-empty witness, so this is `false` for them;
    /// it reports on the actual data rather than hard-coding that invariant.
    pub fn is_empty(&self) -> bool {
        self.cycle.is_empty()
    }
}

/// Computes the maximum cycle mean of a dense weighted digraph.
///
/// Matrix conventions: `m[(i,j)]` is the weight of edge `i → j`;
/// `Ext::NegInf` means the edge is absent. Diagonal entries are honored as
/// self-loops (a self-loop of weight `w` is a length-1 cycle of mean `w`).
/// Returns `None` when the graph has no cycle at all.
///
/// Runs in `O(n·m)` time and `O(n²)` space (the full `D_k` table is kept to
/// extract a witness cycle).
///
/// # Panics
///
/// Panics if any entry is `Ext::PosInf`; callers must resolve infinities
/// before asking for a cycle mean (an infinite entry means the answer is
/// `+∞` and no finite witness exists).
///
/// # Examples
///
/// ```
/// use clocksync_graph::{SquareMatrix, karp_max_cycle_mean};
/// use clocksync_time::{Ext, Ratio};
///
/// // Two-node cycle with weights 3 and 1: mean (3+1)/2 = 2.
/// let mut m = SquareMatrix::filled(2, Ext::<Ratio>::NegInf);
/// m[(0, 1)] = Ext::Finite(Ratio::from_int(3));
/// m[(1, 0)] = Ext::Finite(Ratio::from_int(1));
/// let result = karp_max_cycle_mean(&m).expect("graph has a cycle");
/// assert_eq!(result.mean, Ratio::from_int(2));
/// assert_eq!(result.len(), 2);
/// ```
pub fn karp_max_cycle_mean(m: &SquareMatrix<Ext<Ratio>>) -> Option<CycleMean> {
    let n = m.n();
    if n == 0 {
        return None;
    }
    for (i, j, &w) in m.iter() {
        assert!(
            w != Ext::PosInf,
            "karp_max_cycle_mean: infinite edge {i}->{j}; resolve infinities first"
        );
    }

    // Dense edge list (absent edges skipped once, not per round).
    let edges: Vec<(usize, usize, Ratio)> = m
        .iter()
        .filter_map(|(i, j, &w)| w.finite().map(|w| (i, j, w)))
        .collect();
    if edges.is_empty() {
        return None;
    }

    // d[k][v] = max weight of a k-edge walk ending at v.
    let mut d: Vec<Vec<Ext<Ratio>>> = Vec::with_capacity(n + 1);
    d.push(vec![Ext::Finite(Ratio::ZERO); n]);
    for k in 1..=n {
        let mut row = vec![Ext::<Ratio>::NegInf; n];
        for &(u, v, w) in &edges {
            if let Ext::Finite(du) = d[k - 1][u] {
                row[v] = row[v].max(Ext::Finite(du + w));
            }
        }
        d.push(row);
    }

    // λ* = max_v min_k (D_n(v) − D_k(v)) / (n − k).
    let mut best: Option<Ratio> = None;
    for v in 0..n {
        let dn = match d[n][v] {
            Ext::Finite(x) => x,
            _ => continue,
        };
        let mut v_min: Option<Ratio> = None;
        for (k, dk_row) in d.iter().enumerate().take(n) {
            if let Ext::Finite(dk) = dk_row[v] {
                let mean = (dn - dk) * Ratio::new(1, (n - k) as i128);
                v_min = Some(match v_min {
                    Some(cur) => cur.min(mean),
                    None => mean,
                });
            }
        }
        if let Some(vm) = v_min {
            best = Some(best.map_or(vm, |b| b.max(vm)));
        }
    }
    let lambda = best?;

    // Witness: π(v) = max_{k<n} D_k(v) − k·λ* is a potential with
    // π(u) + w(u,v) − λ* ≤ π(v) on every edge (Karp's theorem bounds the
    // k = n term), so the critical cycles are the cycles of its tight edges.
    let pi: Vec<Ratio> = (0..n)
        .map(|v| {
            (0..n)
                .filter_map(|k| {
                    d[k][v]
                        .finite()
                        .map(|dk| dk - lambda * Ratio::from_int(k as i128))
                })
                .max()
                .expect("D_0 is finite")
        })
        .collect();
    let cycle = canonical_cycle(n, |u, v| match m[(u, v)] {
        Ext::Finite(w) => pi[u] + w - lambda == pi[v],
        _ => false,
    });
    Some(CycleMean {
        mean: lambda,
        cycle,
    })
}

/// The canonical critical cycle, shared by every maximum-cycle-mean kernel
/// so they all report the same witness: among the cycles of mean `λ*`, a
/// shortest one through the smallest node on any of them,
/// lexicographically first among those.
///
/// `tight(u, v)` must say whether edge `u → v` has zero reduced cost
/// under some potential `π` with `π(u) + w(u,v) − λ* ≤ π(v)` on every
/// edge. A cycle has mean `λ*` exactly when all its edges are tight, so
/// the critical cycles are the cycles of the tight graph whatever
/// potential the kernel used, and so is the choice. It is also stable
/// under edge-weight decreases that keep `λ*`: they only remove critical
/// cycles, and while the chosen one survives, its start stays the
/// smallest critical node and every step stays the first shortest way
/// back.
///
/// # Panics
///
/// Panics if the tight graph has no cycle (`λ*` was not the maximum).
pub(crate) fn canonical_cycle(n: usize, tight: impl Fn(usize, usize) -> bool) -> Vec<usize> {
    let succ: Vec<Vec<usize>> = (0..n)
        .map(|u| (0..n).filter(|&v| tight(u, v)).collect())
        .collect();
    let mut pred = vec![Vec::new(); n];
    for (u, out) in succ.iter().enumerate() {
        for &v in out {
            pred[v].push(u);
        }
    }
    for s in 0..n {
        // Tight-edge hop distances to `s`.
        let mut hops = vec![usize::MAX; n];
        hops[s] = 0;
        let mut queue = VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            for &u in &pred[v] {
                if hops[u] == usize::MAX {
                    hops[u] = hops[v] + 1;
                    queue.push_back(u);
                }
            }
        }
        let step = |v: usize| {
            succ[v]
                .iter()
                .copied()
                .filter(|&q| hops[q] != usize::MAX)
                .min_by_key(|&q| (hops[q], q))
        };
        let Some(mut v) = step(s) else {
            continue; // `s` is on no critical cycle
        };
        let mut cycle = vec![s];
        while v != s {
            cycle.push(v);
            v = step(v).expect("a node at finite distance steps closer");
        }
        return cycle;
    }
    panic!("no cycle of tight edges: λ* is not the maximum cycle mean")
}

/// Whether `a − b == c`, by cross-multiplying (no gcd, so cheap enough for
/// a tightness test on every edge); exact `Ratio` arithmetic if a product
/// overflows.
pub(crate) fn is_difference(a: Ratio, b: Ratio, c: Ratio) -> bool {
    let (an, ad) = (a.numerator(), a.denominator());
    let (bn, bd) = (b.numerator(), b.denominator());
    let (cn, cd) = (c.numerator(), c.denominator());
    // a − b = (an·bd − bn·ad) / (ad·bd), and denominators are positive.
    let cross = || {
        let lhs = an
            .checked_mul(bd)?
            .checked_sub(bn.checked_mul(ad)?)?
            .checked_mul(cd)?;
        Some(lhs == cn.checked_mul(ad)?.checked_mul(bd)?)
    };
    cross().unwrap_or_else(|| a - b == c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(n: usize, edges: &[(usize, usize, i128)]) -> SquareMatrix<Ext<Ratio>> {
        let mut m = SquareMatrix::filled(n, Ext::NegInf);
        for &(a, b, w) in edges {
            m[(a, b)] = Ext::Finite(Ratio::from_int(w));
        }
        m
    }

    fn cycle_mean_of(m: &SquareMatrix<Ext<Ratio>>, cycle: &[usize]) -> Ratio {
        let mut total = Ratio::ZERO;
        for t in 0..cycle.len() {
            let from = cycle[t];
            let to = cycle[(t + 1) % cycle.len()];
            total += m[(from, to)].finite().unwrap();
        }
        total * Ratio::new(1, cycle.len() as i128)
    }

    #[test]
    fn is_difference_survives_overflowing_cross_products() {
        let (half, third) = (Ratio::new(1, 2), Ratio::new(1, 3));
        assert!(is_difference(half, third, Ratio::new(1, 6)));
        assert!(!is_difference(half, third, Ratio::new(1, 5)));
        // an·bd overflows i128 here; the exact fallback still answers.
        let (a, b) = (Ratio::new(1 << 120, 1025), Ratio::new(1 << 119, 1025));
        assert!(is_difference(a, b, a - b));
        assert!(!is_difference(a, b, a));
    }

    #[test]
    fn two_cycle() {
        let m = matrix(2, &[(0, 1, 3), (1, 0, 1)]);
        let r = karp_max_cycle_mean(&m).unwrap();
        assert_eq!(r.mean, Ratio::from_int(2));
        assert_eq!(cycle_mean_of(&m, &r.cycle), r.mean);
    }

    #[test]
    fn picks_heavier_of_two_cycles() {
        // Cycle A: 0-1 mean 2; cycle B: 2-3 mean 5.
        let m = matrix(4, &[(0, 1, 2), (1, 0, 2), (2, 3, 4), (3, 2, 6)]);
        let r = karp_max_cycle_mean(&m).unwrap();
        assert_eq!(r.mean, Ratio::from_int(5));
        assert_eq!(cycle_mean_of(&m, &r.cycle), r.mean);
    }

    #[test]
    fn fractional_mean() {
        // Triangle with weights 1, 2, 4: mean 7/3.
        let m = matrix(3, &[(0, 1, 1), (1, 2, 2), (2, 0, 4)]);
        let r = karp_max_cycle_mean(&m).unwrap();
        assert_eq!(r.mean, Ratio::new(7, 3));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn short_heavy_cycle_beats_long_light_one() {
        // Triangle mean 1; embedded 2-cycle mean 3.
        let m = matrix(3, &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (1, 0, 5)]);
        let r = karp_max_cycle_mean(&m).unwrap();
        assert_eq!(r.mean, Ratio::from_int(3));
        assert_eq!(cycle_mean_of(&m, &r.cycle), r.mean);
    }

    #[test]
    fn self_loop_counts_as_cycle() {
        let m = matrix(2, &[(0, 0, 7), (0, 1, 100)]);
        let r = karp_max_cycle_mean(&m).unwrap();
        assert_eq!(r.mean, Ratio::from_int(7));
        assert_eq!(r.cycle, vec![0]);
    }

    #[test]
    fn acyclic_graph_has_no_cycle_mean() {
        let m = matrix(3, &[(0, 1, 5), (1, 2, 5), (0, 2, 9)]);
        assert!(karp_max_cycle_mean(&m).is_none());
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        assert!(karp_max_cycle_mean(&matrix(0, &[])).is_none());
        assert!(karp_max_cycle_mean(&matrix(3, &[])).is_none());
    }

    #[test]
    fn negative_cycle_means_are_found() {
        let m = matrix(2, &[(0, 1, -3), (1, 0, -1)]);
        let r = karp_max_cycle_mean(&m).unwrap();
        assert_eq!(r.mean, Ratio::from_int(-2));
    }

    #[test]
    #[should_panic(expected = "infinite edge")]
    fn infinite_edge_panics() {
        let mut m = matrix(2, &[(0, 1, 1), (1, 0, 1)]);
        m[(0, 1)] = Ext::PosInf;
        let _ = karp_max_cycle_mean(&m);
    }

    #[test]
    fn disconnected_components() {
        // One component acyclic, the other with a cycle.
        let m = matrix(5, &[(0, 1, 9), (2, 3, 1), (3, 4, 1), (4, 2, 4)]);
        let r = karp_max_cycle_mean(&m).unwrap();
        assert_eq!(r.mean, Ratio::from_int(2));
        assert_eq!(r.len(), 3);
    }
}
