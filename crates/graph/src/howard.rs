//! Howard's policy-iteration algorithm for the maximum cycle mean, in
//! exact rational arithmetic — a test oracle.
//!
//! [`karp_max_cycle_mean`](crate::karp_max_cycle_mean) is the paper's
//! reference algorithm with a clean `O(n·m)` bound; Howard's algorithm
//! (policy iteration over successor choices) has a weaker worst-case story
//! but is famously fast in practice — Dasdan's experimental studies place
//! it first on most instance families — and it can restart from any
//! policy. Production SHIFTS run it over `i64` half-nanosecond counts
//! ([`ScaledMatrix::max_cycle_mean`](crate::ScaledMatrix::max_cycle_mean),
//! DESIGN.md §4c), which makes this kernel's decisions on the doubled image
//! of its input. This rational version has no production caller: the
//! equivalence suites hold the integer kernel to it policy for policy, and
//! it is itself property-tested against exact Karp and brute force.
//!
//! All arithmetic is exact [`Ratio`] arithmetic, which also guarantees
//! termination: each iteration strictly improves the policy's value
//! lexicographically `(λ, h)` and there are finitely many policies. That
//! argument does not depend on the starting policy, which is what makes
//! [`howard_solve`]'s warm start sound: resuming from the converged policy
//! of a slightly perturbed matrix is just policy iteration with a
//! different (usually near-optimal) initial point.

use clocksync_time::{Ext, Ratio};

use crate::karp::{canonical_cycle, is_difference};
use crate::{CycleMean, SquareMatrix};

/// The converged output of Howard's policy iteration: the answer plus the
/// final policy, reusable as a warm start on a perturbed matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HowardSolution {
    /// The maximum cycle mean and a witness cycle achieving it.
    pub cycle_mean: CycleMean,
    /// The converged successor policy: `policy[v]` is the chosen successor
    /// of `v`, or `usize::MAX` for nodes that cannot reach any cycle.
    pub policy: Vec<usize>,
}

/// Computes the maximum cycle mean of a dense weighted digraph by policy
/// iteration.
///
/// Matrix conventions match [`crate::karp_max_cycle_mean`]: `m[(i,j)]` is
/// the weight of edge `i → j`, `Ext::NegInf` means the edge is absent,
/// self-loops are honored, and `None` is returned when the graph has no
/// cycle.
///
/// # Panics
///
/// Panics if any entry is `Ext::PosInf`.
///
/// # Examples
///
/// ```
/// use clocksync_graph::{SquareMatrix, howard_max_cycle_mean};
/// use clocksync_time::{Ext, Ratio};
///
/// let mut m = SquareMatrix::filled(2, Ext::<Ratio>::NegInf);
/// m[(0, 1)] = Ext::Finite(Ratio::from_int(3));
/// m[(1, 0)] = Ext::Finite(Ratio::from_int(1));
/// assert_eq!(howard_max_cycle_mean(&m), Some(Ratio::from_int(2)));
/// ```
pub fn howard_max_cycle_mean(m: &SquareMatrix<Ext<Ratio>>) -> Option<Ratio> {
    howard_solve(m, None).map(|s| s.cycle_mean.mean)
}

/// Runs Howard's policy iteration, returning the maximum cycle mean with a
/// witness cycle and the converged policy.
///
/// `warm` optionally seeds the iteration with a previous solution's policy
/// (e.g. from the same system before a single estimate tightened). Stale
/// entries — out-of-range successors, missing edges, dead nodes — are
/// repaired to the heaviest live successor, so any slice is safe to pass;
/// the result is always the exact maximum regardless of the seed, only the
/// number of iterations changes. Conventions otherwise match
/// [`howard_max_cycle_mean`].
///
/// # Panics
///
/// Panics if any entry is `Ext::PosInf`.
pub fn howard_solve(
    m: &SquareMatrix<Ext<Ratio>>,
    warm: Option<&[usize]>,
) -> Option<HowardSolution> {
    let n = m.n();
    for (i, j, &w) in m.iter() {
        assert!(
            w != Ext::PosInf,
            "howard_max_cycle_mean: infinite edge {i}->{j}; resolve infinities first"
        );
    }

    let live = live_nodes(m);
    let nodes: Vec<usize> = (0..n).filter(|&v| live[v]).collect();
    if nodes.is_empty() {
        return None;
    }

    // Initial policy: the warm-start successor when still usable, otherwise
    // the heaviest live successor.
    let mut policy: Vec<usize> = vec![usize::MAX; n];
    for &v in &nodes {
        if let Some(seed) = warm {
            let u = seed.get(v).copied().unwrap_or(usize::MAX);
            if u < n && live[u] && m[(v, u)] != Ext::NegInf {
                policy[v] = u;
                continue;
            }
        }
        let mut best: Option<(Ratio, usize)> = None;
        for u in 0..n {
            if !live[u] {
                continue;
            }
            if let Ext::Finite(w) = m[(v, u)] {
                if best.is_none_or(|(bw, _)| w > bw) {
                    best = Some((w, u));
                }
            }
        }
        policy[v] = best.expect("live nodes have live successors").1;
    }

    let mut lambda: Vec<Ratio> = vec![Ratio::ZERO; n];
    let mut h: Vec<Ratio> = vec![Ratio::ZERO; n];

    loop {
        evaluate_policy(m, &nodes, &policy, &mut lambda, &mut h);

        // Improvement phase 1: strictly better cycle value reachable.
        let mut improved = false;
        for &v in &nodes {
            let mut best = lambda[v];
            let mut arg = policy[v];
            for u in 0..n {
                if live[u] && m[(v, u)] != Ext::NegInf && lambda[u] > best {
                    best = lambda[u];
                    arg = u;
                }
            }
            if arg != policy[v] {
                policy[v] = arg;
                improved = true;
            }
        }
        if improved {
            continue;
        }
        // Improvement phase 2: same cycle value, better bias.
        for &v in &nodes {
            let mut best_gain = h[policy[v]]
                + m[(v, policy[v])].finite().expect("policy follows edges")
                - lambda[v];
            let mut arg = policy[v];
            for u in 0..n {
                if !live[u] || lambda[u] != lambda[v] {
                    continue;
                }
                if let Ext::Finite(w) = m[(v, u)] {
                    let gain = h[u] + w - lambda[v];
                    if gain > best_gain {
                        best_gain = gain;
                        arg = u;
                    }
                }
            }
            if arg != policy[v] {
                policy[v] = arg;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }

    // Witness: among the nodes of value λ*, the converged bias is a
    // potential — h(u) ≥ w(u,v) + h(v) − λ* on every edge between them,
    // with equality exactly on tight edges — and every critical cycle lies
    // there, so the canonical cycle is Karp's.
    let lambda_star = nodes
        .iter()
        .map(|&v| lambda[v])
        .max()
        .expect("nodes is non-empty");
    let top: Vec<bool> = (0..n)
        .map(|v| live[v] && lambda[v] == lambda_star)
        .collect();
    let shifted: Vec<Ratio> = h.iter().map(|&hv| hv - lambda_star).collect();
    let cycle = canonical_cycle(n, |u, v| match m[(u, v)] {
        Ext::Finite(w) => top[u] && top[v] && is_difference(h[u], shifted[v], w),
        _ => false,
    });

    Some(HowardSolution {
        cycle_mean: CycleMean {
            mean: lambda_star,
            cycle,
        },
        policy,
    })
}

/// Restricts to "live" nodes — nodes that can reach a cycle — by
/// iteratively stripping nodes whose out-edges all lead out of the live
/// set. Out-degree counters plus a worklist make this `O(n²)` total (each
/// stripped node scans its in-column once) where the old full-rescan loop
/// was `O(n³)` worst case on long dead chains.
fn live_nodes(m: &SquareMatrix<Ext<Ratio>>) -> Vec<bool> {
    let n = m.n();
    let mut outdeg: Vec<usize> = (0..n)
        .map(|v| (0..n).filter(|&u| m[(v, u)] != Ext::NegInf).count())
        .collect();
    let mut live = vec![true; n];
    let mut worklist: Vec<usize> = (0..n).filter(|&v| outdeg[v] == 0).collect();
    for &v in &worklist {
        live[v] = false;
    }
    while let Some(v) = worklist.pop() {
        for u in 0..n {
            if live[u] && m[(u, v)] != Ext::NegInf {
                outdeg[u] -= 1;
                if outdeg[u] == 0 {
                    live[u] = false;
                    worklist.push(u);
                }
            }
        }
    }
    live
}

/// Policy evaluation: each node's policy path leads to exactly one cycle
/// of the functional graph; set `λ(v)` to that cycle's mean and `h(v)` to
/// the relative value `h(v) = w(v,π(v)) + h(π(v)) − λ(v)` with `h = 0` at
/// the cycle's anchor node.
fn evaluate_policy(
    m: &SquareMatrix<Ext<Ratio>>,
    nodes: &[usize],
    policy: &[usize],
    lambda: &mut [Ratio],
    h: &mut [Ratio],
) {
    let n = m.n();
    // state: 0 = unvisited, 1 = on current path, 2 = done.
    let mut state = vec![0u8; n];
    for &start in nodes {
        if state[start] == 2 {
            continue;
        }
        // Walk the policy path until hitting a done node or a node on the
        // current path (a fresh cycle).
        let mut path = Vec::new();
        let mut v = start;
        while state[v] == 0 {
            state[v] = 1;
            path.push(v);
            v = policy[v];
        }
        if state[v] == 1 {
            // Fresh cycle: v is its entry point within `path`.
            let cycle_start = path.iter().position(|&x| x == v).expect("on path");
            let cycle = &path[cycle_start..];
            let mut total = Ratio::ZERO;
            for &c in cycle {
                total += m[(c, policy[c])].finite().expect("policy follows edges");
            }
            let mean = total * Ratio::new(1, cycle.len() as i128);
            // Anchor: h(v) = 0, then assign around the cycle backwards.
            lambda[v] = mean;
            h[v] = Ratio::ZERO;
            state[v] = 2;
            // Walk the cycle in reverse order so each node's successor is
            // already evaluated.
            for &c in cycle.iter().rev() {
                if state[c] == 2 {
                    continue;
                }
                lambda[c] = mean;
                h[c] = m[(c, policy[c])].finite().expect("edge") + h[policy[c]] - mean;
                state[c] = 2;
            }
        }
        // Tail nodes (path before the cycle / before the done node), in
        // reverse so successors are evaluated first.
        for &t in path.iter().rev() {
            if state[t] == 2 {
                continue;
            }
            let succ = policy[t];
            lambda[t] = lambda[succ];
            h[t] = m[(t, succ)].finite().expect("edge") + h[succ] - lambda[t];
            state[t] = 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::karp_max_cycle_mean;

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

    /// The stripping loop this module replaced, kept as the behavioral
    /// oracle for [`live_nodes`].
    fn live_nodes_rescan(m: &SquareMatrix<Ext<Ratio>>) -> Vec<bool> {
        let n = m.n();
        let mut live = vec![true; n];
        loop {
            let mut changed = false;
            for v in 0..n {
                if !live[v] {
                    continue;
                }
                let has_out = (0..n).any(|u| live[u] && m[(v, u)] != Ext::NegInf);
                if !has_out {
                    live[v] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        live
    }

    #[test]
    fn agrees_with_karp_on_basic_cases() {
        let cases = [
            matrix(2, &[(0, 1, 3), (1, 0, 1)]),
            matrix(3, &[(0, 1, 1), (1, 2, 2), (2, 0, 4)]),
            matrix(3, &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (1, 0, 5)]),
            matrix(4, &[(0, 1, 2), (1, 0, 2), (2, 3, 4), (3, 2, 6)]),
            matrix(2, &[(0, 0, 7), (0, 1, 100)]),
            matrix(2, &[(0, 1, -3), (1, 0, -1)]),
            matrix(5, &[(0, 1, 9), (2, 3, 1), (3, 4, 1), (4, 2, 4)]),
        ];
        for m in cases {
            assert_eq!(
                howard_max_cycle_mean(&m),
                karp_max_cycle_mean(&m).map(|r| r.mean),
                "disagreement on {m:?}"
            );
        }
    }

    #[test]
    fn witness_cycle_achieves_the_mean() {
        let cases = [
            matrix(2, &[(0, 1, 3), (1, 0, 1)]),
            matrix(3, &[(0, 1, 1), (1, 2, 2), (2, 0, 4)]),
            matrix(3, &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (1, 0, 5)]),
            matrix(4, &[(0, 1, 2), (1, 0, 2), (2, 3, 4), (3, 2, 6)]),
            matrix(2, &[(0, 0, 7), (0, 1, 100)]),
            matrix(5, &[(0, 1, 9), (2, 3, 1), (3, 4, 1), (4, 2, 4)]),
        ];
        for m in cases {
            let s = howard_solve(&m, None).unwrap();
            assert!(!s.cycle_mean.is_empty());
            assert_eq!(
                cycle_mean_of(&m, &s.cycle_mean.cycle),
                s.cycle_mean.mean,
                "witness does not certify on {m:?}"
            );
        }
    }

    #[test]
    fn warm_start_returns_the_same_answer() {
        let m = matrix(4, &[(0, 1, 2), (1, 0, 2), (2, 3, 4), (3, 2, 6)]);
        let cold = howard_solve(&m, None).unwrap();
        // Its own converged policy, a garbage policy, and a short slice all
        // converge to the same mean.
        for seed in [
            cold.policy.clone(),
            vec![usize::MAX; 4],
            vec![3, 2, 1, 0],
            vec![0],
        ] {
            let warm = howard_solve(&m, Some(&seed)).unwrap();
            assert_eq!(warm.cycle_mean.mean, cold.cycle_mean.mean);
            assert_eq!(
                cycle_mean_of(&m, &warm.cycle_mean.cycle),
                warm.cycle_mean.mean
            );
        }
    }

    #[test]
    fn warm_start_after_tightening_stays_exact() {
        // Converge, tighten one edge so the optimum moves to the other
        // cycle, and re-solve from the stale policy.
        let mut m = matrix(4, &[(0, 1, 2), (1, 0, 2), (2, 3, 4), (3, 2, 6)]);
        let first = howard_solve(&m, None).unwrap();
        assert_eq!(first.cycle_mean.mean, Ratio::from_int(5));
        m[(3, 2)] = Ext::Finite(Ratio::from_int(0));
        let second = howard_solve(&m, Some(&first.policy)).unwrap();
        assert_eq!(second.cycle_mean.mean, Ratio::from_int(2));
        assert_eq!(
            cycle_mean_of(&m, &second.cycle_mean.cycle),
            second.cycle_mean.mean
        );
    }

    #[test]
    fn live_node_stripping_matches_old_rescan_loop() {
        // Deterministic LCG over random digraphs, including edge densities
        // low enough to produce long dead chains.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [0usize, 1, 2, 5, 9, 16] {
            for density in [0u64, 1, 2, 5, 9] {
                let mut m = SquareMatrix::filled(n, Ext::<Ratio>::NegInf);
                for i in 0..n {
                    for j in 0..n {
                        if next() % 10 < density {
                            m[(i, j)] = Ext::Finite(Ratio::from_int((next() % 21) as i128 - 10));
                        }
                    }
                }
                assert_eq!(
                    live_nodes(&m),
                    live_nodes_rescan(&m),
                    "live set mismatch at n={n} density={density}"
                );
            }
        }
    }

    #[test]
    fn acyclic_graphs_have_no_cycle_mean() {
        assert_eq!(
            howard_max_cycle_mean(&matrix(3, &[(0, 1, 5), (1, 2, 5)])),
            None
        );
        assert_eq!(howard_max_cycle_mean(&matrix(0, &[])), None);
        assert_eq!(howard_max_cycle_mean(&matrix(4, &[])), None);
    }

    #[test]
    fn dead_tails_are_ignored() {
        // A cycle plus a long dead-end tail hanging off it.
        let m = matrix(
            5,
            &[(0, 1, 2), (1, 0, 4), (1, 2, 100), (2, 3, 100), (3, 4, 100)],
        );
        assert_eq!(howard_max_cycle_mean(&m), Some(Ratio::from_int(3)));
    }

    #[test]
    #[should_panic(expected = "infinite edge")]
    fn infinite_edge_panics() {
        let mut m = matrix(2, &[(0, 1, 1), (1, 0, 1)]);
        m[(0, 1)] = Ext::PosInf;
        let _ = howard_max_cycle_mean(&m);
    }
}
