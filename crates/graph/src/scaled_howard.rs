//! Howard's policy iteration over `i64` half-nanosecond counts — the
//! `A_max` kernel of every SHIFTS whose closure has counts (DESIGN.md §4c).
//!
//! It makes the rational [`howard_solve`](crate::howard_solve)'s decisions
//! on the doubled image of its input: the same initial policy, the same
//! warm-seed repair, the same phase 1 and phase 2. So it converges to the
//! same policy, and it reads the same canonical witness off its bias
//! through the shared `canonical_cycle`. Its input is complete — every
//! entry is an edge, as in a SHIFTS component — so no node is dead and
//! nothing is stripped.
//!
//! A node's cycle value is the reduced pair `(p, q)` of its policy cycle's
//! weight sum and length, compared by `i128` cross-multiplication. Its
//! bias `h` is kept as `q·h`, an integer: each step along a policy path
//! adds `q·w − p`, and with every `|w|` within the SHIFTS bound
//! (`half_ns.rs`) that is at most `2q·limit`, so every `|q·h|` stays below
//! `2n²·limit`, far inside `i128`. Phase 2 compares biases of nodes that share one value, hence
//! one `q`, so comparing `q·h` is comparing `h`.
//!
//! Howard's algorithm has no known polynomial bound on its iterations for
//! cycle means, so the kernel gives up after [`iteration_cap`] policy
//! evaluations and runs integer Karp on the same matrix. Each iteration
//! costs `O(n²)`, so the cap keeps the `O(n³)` worst case of Karp's
//! recurrence.

use crate::half_ns;
use crate::karp::canonical_cycle;
use crate::scaled_karp::{cmp_frac, scaled_karp};
use crate::{CycleMean, HowardSolution, SquareMatrix};

/// Policy evaluations allowed per node (plus this many) before the kernel
/// falls back to integer Karp.
const ITERATIONS_PER_NODE: usize = 10;

/// The iteration cap for an `n`-node matrix: `10n + 10` policy
/// evaluations, counting the one that confirms convergence.
pub(crate) fn iteration_cap(n: usize) -> usize {
    ITERATIONS_PER_NODE * (n + 1)
}

fn gcd(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.abs()
}

/// A cycle value `p/q` in lowest terms with `q > 0`, so equal values have
/// equal pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Value {
    p: i64,
    q: i64,
}

impl Value {
    /// The mean of a cycle of `len` edges weighing `sum` in total.
    fn mean(sum: i64, len: i64) -> Value {
        let g = gcd(sum, len);
        Value {
            p: sum / g,
            q: len / g,
        }
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> std::cmp::Ordering {
        cmp_frac(self.p, self.q, other.p, other.q)
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The maximum cycle mean of the complete matrix `m` (half-nanosecond
/// counts in `gauge`, every entry an edge within the SHIFTS bound) by
/// policy iteration from `warm`, with the canonical witness, the last
/// policy and the converged bias `q·h` (taken without the gauge, `p/q` the
/// mean in counts). Past `cap` policy evaluations it returns integer
/// Karp's answer, which is the same, with the policy it had reached and no
/// bias.
///
/// # Panics
///
/// Panics if `m` is empty.
pub(crate) fn scaled_howard(
    m: &SquareMatrix<i64>,
    gauge: &[i128],
    warm: Option<&[usize]>,
    cap: usize,
) -> (HowardSolution, Option<Vec<i128>>) {
    let n = m.n();
    assert!(n > 0, "a cycle mean needs a node");
    let w = m.as_slice();
    // The warm-start successor when it is a node, otherwise the heaviest
    // successor, the first on ties. Every weight and bias below is taken
    // without the gauge — a row's weights `w(v,u) − g(v) + g(u)` differ
    // from the counts by `g(u)` up to a term shared along the row — so the
    // kernel makes the rational one's decisions whatever the gauge.
    let heaviest = |row: &[i64]| {
        let weight = |u: usize| i128::from(row[u]) + gauge[u];
        (0..n).fold(0, |best, u| if weight(u) > weight(best) { u } else { best })
    };
    let mut policy: Vec<usize> = w
        .chunks_exact(n)
        .enumerate()
        .map(|(v, row)| match warm.and_then(|seed| seed.get(v)) {
            Some(&u) if u < n => u,
            _ => heaviest(row),
        })
        .collect();
    let mut value = vec![Value { p: 0, q: 1 }; n];
    let mut bias = vec![0i128; n];
    for _ in 0..cap {
        evaluate(w, gauge, &policy, &mut value, &mut bias);
        if improve_value(&mut policy, &value) {
            continue;
        }
        // Phase 1 left no node below the best value, so every node has
        // value λ* and every edge joins two of them.
        let Value { p, q } = value[0];
        if improve_bias(w, gauge, &mut policy, q, &bias) {
            continue;
        }
        // The converged bias is a potential: q·h(u) ≥ q·w(u,v) − p + q·h(v)
        // on every edge, with equality exactly on tight edges.
        let (p, q) = (i128::from(p), i128::from(q));
        let cycle = canonical_cycle(n, |u, v| {
            bias[u] - bias[v] + p == q * (i128::from(w[u * n + v]) - gauge[u] + gauge[v])
        });
        let cycle_mean = CycleMean {
            mean: half_ns::decode_mean(p, q),
            cycle,
        };
        return (HowardSolution { cycle_mean, policy }, Some(bias));
    }
    let cycle_mean = scaled_karp(m).expect("a nonempty complete matrix has a cycle");
    (HowardSolution { cycle_mean, policy }, None)
}

/// Policy evaluation: each node's policy path ends in one cycle of the
/// functional graph. Set the node's value to that cycle's mean and its
/// bias to `q·h(v) = q·w(v,π(v)) − p + q·h(π(v))`, with `h = 0` at the
/// node where the walk first entered the cycle and `w` the weight without
/// the gauge. A cycle's sum is the same in any gauge.
fn evaluate(w: &[i64], gauge: &[i128], policy: &[usize], value: &mut [Value], bias: &mut [i128]) {
    let n = policy.len();
    // 0 = unvisited, 1 = on the current path, 2 = done.
    let mut state = vec![0u8; n];
    let mut path = Vec::with_capacity(n);
    let settle = |v: usize, value: &[Value], bias: &mut [i128], state: &mut [u8]| {
        let (s, Value { p, q }) = (policy[v], value[v]);
        let weight = i128::from(w[v * n + s]) - gauge[v] + gauge[s];
        bias[v] = i128::from(q) * weight - i128::from(p) + bias[s];
        state[v] = 2;
    };
    for start in 0..n {
        if state[start] == 2 {
            continue;
        }
        path.clear();
        let mut v = start;
        while state[v] == 0 {
            state[v] = 1;
            path.push(v);
            v = policy[v];
        }
        if state[v] == 1 {
            // A fresh cycle, entered at `v`: anchor it there, then settle
            // it backwards so each successor is done first.
            let at = path.iter().position(|&x| x == v).expect("on the path");
            let cycle = &path[at..];
            let sum = cycle.iter().map(|&c| w[c * n + policy[c]]).sum();
            let mean = Value::mean(sum, cycle.len() as i64);
            for &c in cycle {
                value[c] = mean;
            }
            bias[v] = 0;
            state[v] = 2;
            for &c in cycle.iter().rev().filter(|&&c| c != v) {
                settle(c, value, bias, &mut state);
            }
        }
        for &t in path.iter().rev() {
            if state[t] != 2 {
                value[t] = value[policy[t]];
                settle(t, value, bias, &mut state);
            }
        }
    }
}

/// Phase 1: every node whose value is below the best points at the first
/// node of the best value — the successor the rational kernel's scan
/// picks when every node is a successor. Returns whether the policy
/// changed.
fn improve_value(policy: &mut [usize], value: &[Value]) -> bool {
    let best = (0..value.len()).fold(0, |b, u| if value[u] > value[b] { u } else { b });
    let mut improved = false;
    for (v, succ) in policy.iter_mut().enumerate() {
        if value[v] < value[best] && *succ != best {
            *succ = best;
            improved = true;
        }
    }
    improved
}

/// Phase 2, with every node at one value of denominator `q`: each node
/// moves to the first successor of strictly larger `q·w(v,u) + q·h(u)`,
/// `w` without the gauge: up to a term shared along the row, the count
/// plus `g(u)`. Returns whether the policy changed.
fn improve_bias(w: &[i64], gauge: &[i128], policy: &mut [usize], q: i64, bias: &[i128]) -> bool {
    let q = i128::from(q);
    let lifted: Vec<i128> = bias.iter().zip(gauge).map(|(&b, &g)| b + q * g).collect();
    let mut improved = false;
    for (row, succ) in w.chunks_exact(policy.len()).zip(policy.iter_mut()) {
        let gain = |u: usize| q * i128::from(row[u]) + lifted[u];
        let mut arg = *succ;
        let mut best = gain(arg);
        for u in 0..row.len() {
            let g = gain(u);
            if g > best {
                best = g;
                arg = u;
            }
        }
        if arg != *succ {
            *succ = arg;
            improved = true;
        }
    }
    improved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::half_ns::shifts_limit;
    use crate::karp_max_cycle_mean;
    use clocksync_time::{Ext, Ratio};

    /// A closure-shaped matrix of counts: zero diagonal, the given
    /// off-diagonal rows.
    fn matrix(rows: &[&[i64]]) -> SquareMatrix<i64> {
        SquareMatrix::from_fn(rows.len(), |i, j| if i == j { 0 } else { rows[i][j] })
    }

    /// The values the counts of `m` encode, as rationals.
    fn rational(m: &SquareMatrix<i64>) -> SquareMatrix<Ext<Ratio>> {
        half_ns::Gauge(vec![0; m.n()]).decode_matrix(m)
    }

    #[test]
    fn past_the_cap_scaled_karp_answers() {
        // Heaviest successors first: 0 → 1 → 0 at mean 5 and 2 → 3 → 2 at
        // mean 6, so the first evaluation cannot be the last.
        let m = matrix(&[&[0, 9, 1, 1], &[1, 0, 1, 1], &[1, 1, 0, 7], &[1, 1, 5, 0]]);
        let (capped, no_bias) = scaled_howard(&m, &[0; 4], None, 1);
        let (converged, bias) = scaled_howard(&m, &[0; 4], None, iteration_cap(4));
        assert_ne!(capped.policy, converged.policy, "the cap must cut the run");
        // Only a converged run has a bias to hand the corrections pass.
        assert!(no_bias.is_none() && bias.is_some());
        assert_eq!(capped.cycle_mean, converged.cycle_mean);
        let exact = karp_max_cycle_mean(&rational(&m));
        assert_eq!(Some(capped.cycle_mean), exact);
    }

    #[test]
    fn a_gauge_changes_no_decision() {
        // The same values in a gauge an epoch deep: every policy Howard
        // passes through, and so the answer, the final policy and the bias
        // (taken without the gauge), match.
        let m = matrix(&[&[0, 9, 1, 4], &[1, 0, 6, 1], &[3, 1, 0, 7], &[1, 8, 5, 0]]);
        let g = [0, 2_000_000_000_000_000_000, -7, 1_000_000_000_000_000_003];
        let gauged = SquareMatrix::from_fn(4, |v, u| (i128::from(m[(v, u)]) + g[v] - g[u]) as i64);
        for cap in 1..=iteration_cap(4) {
            assert_eq!(
                scaled_howard(&gauged, &g, None, cap),
                scaled_howard(&m, &[0; 4], None, cap),
                "cap {cap}"
            );
        }
    }

    #[test]
    fn biases_stay_exact_at_the_magnitude_limit() {
        // Entries of ±limit: scaled biases can pass i64, and the answer
        // must still be exact Karp's.
        let limit = shifts_limit(5);
        let m = SquareMatrix::from_fn(5, |i, j| match (i + 2 * j) % 3 {
            _ if i == j => 0,
            0 => limit,
            1 => -limit,
            _ => limit - 1,
        });
        let (fast, _) = scaled_howard(&m, &[0; 5], None, iteration_cap(5));
        assert_eq!(Some(fast.cycle_mean), karp_max_cycle_mean(&rational(&m)));
    }
}
