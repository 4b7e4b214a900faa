//! An `f64` re-implementation of the correction pipeline, used ONLY as an
//! ablation target.
//!
//! `DESIGN.md` commits the workspace to exact rational arithmetic because
//! the paper's optimality statements are equalities. This module is the
//! counterfactual: the same closure → cycle-mean → distances pipeline on
//! floats. The `ablation` bench compares their speed; the tests here
//! document that floats agree only approximately (and the equality-based
//! test suite of the core crate would be unwritable on top of them).

use clocksync_graph::SquareMatrix;
use clocksync_time::{Ext, ExtRatio};

/// Converts an extended-rational matrix into `f64` (`+∞` → `INFINITY`).
pub fn to_f64_matrix(m: &SquareMatrix<ExtRatio>) -> Vec<Vec<f64>> {
    let n = m.n();
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| match m[(i, j)] {
                    Ext::Finite(r) => r.to_f64(),
                    Ext::PosInf => f64::INFINITY,
                    Ext::NegInf => f64::NEG_INFINITY,
                })
                .collect()
        })
        .collect()
}

/// Floyd–Warshall on floats.
pub fn closure_f64(m: &mut [Vec<f64>]) {
    let n = m.len();
    for k in 0..n {
        for i in 0..n {
            if m[i][k].is_infinite() && m[i][k] > 0.0 {
                continue;
            }
            for j in 0..n {
                let via = m[i][k] + m[k][j];
                if via < m[i][j] {
                    m[i][j] = via;
                }
            }
        }
    }
}

/// Karp's maximum cycle mean on floats (`NEG_INFINITY` = absent edge).
pub fn karp_f64(m: &[Vec<f64>]) -> Option<f64> {
    let n = m.len();
    if n == 0 {
        return None;
    }
    let mut d = vec![vec![f64::NEG_INFINITY; n]; n + 1];
    d[0] = vec![0.0; n];
    for k in 1..=n {
        for u in 0..n {
            if d[k - 1][u] == f64::NEG_INFINITY {
                continue;
            }
            for v in 0..n {
                if m[u][v] == f64::NEG_INFINITY {
                    continue;
                }
                let cand = d[k - 1][u] + m[u][v];
                if cand > d[k][v] {
                    d[k][v] = cand;
                }
            }
        }
    }
    let mut best: Option<f64> = None;
    for v in 0..n {
        if d[n][v] == f64::NEG_INFINITY {
            continue;
        }
        let mut v_min: Option<f64> = None;
        for (k, row) in d.iter().enumerate().take(n) {
            if row[v] == f64::NEG_INFINITY {
                continue;
            }
            let mean = (d[n][v] - row[v]) / (n - k) as f64;
            v_min = Some(v_min.map_or(mean, |m: f64| m.min(mean)));
        }
        if let Some(vm) = v_min {
            best = Some(best.map_or(vm, |b: f64| b.max(vm)));
        }
    }
    best
}

/// Bellman–Ford distances from node 0 on floats.
pub fn distances_f64(m: &[Vec<f64>]) -> Vec<f64> {
    let n = m.len();
    let mut dist = vec![f64::INFINITY; n];
    dist[0] = 0.0;
    for _ in 0..n {
        for u in 0..n {
            if dist[u].is_infinite() {
                continue;
            }
            for v in 0..n {
                if m[u][v].is_finite() && dist[u] + m[u][v] < dist[v] {
                    dist[v] = dist[u] + m[u][v];
                }
            }
        }
    }
    dist
}

/// The whole float pipeline: closure, `A_max`, corrections.
pub fn pipeline_f64(local: &SquareMatrix<ExtRatio>) -> (f64, Vec<f64>) {
    let mut m = to_f64_matrix(local);
    closure_f64(&mut m);
    // Karp convention: absent = −∞ (everything is present post-closure
    // except unreachable +∞ entries, which we drop to −∞).
    let karp_input: Vec<Vec<f64>> = m
        .iter()
        .map(|row| {
            row.iter()
                .map(|&x| {
                    if x.is_infinite() {
                        f64::NEG_INFINITY
                    } else {
                        x
                    }
                })
                .collect()
        })
        .collect();
    let a_max = karp_f64(&karp_input).unwrap_or(0.0);
    let weights: Vec<Vec<f64>> = m
        .iter()
        .map(|row| row.iter().map(|&x| a_max - x).collect())
        .collect();
    (a_max, distances_f64(&weights))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksync::{estimated_local_shifts, global_estimates, shifts};
    use clocksync_sim::{Simulation, Topology};
    use clocksync_time::Nanos;

    #[test]
    fn float_pipeline_tracks_the_exact_one_approximately() {
        let sim = Simulation::builder(8)
            .uniform_links(
                Topology::Complete(8),
                Nanos::from_micros(20),
                Nanos::from_micros(400),
                1,
            )
            .probes(2)
            .build();
        let run = sim.run(5);
        let local = estimated_local_shifts(
            &run.network,
            &run.network.link_observations(run.execution.views()),
        );
        let closure = global_estimates(&local).unwrap();
        let exact = shifts(&closure, 0);

        let (a_max_f, corrections_f) = pipeline_f64(&local.to_matrix());
        let rel = (a_max_f - exact.precision.to_f64()).abs() / exact.precision.to_f64().max(1.0);
        assert!(rel < 1e-9, "float A_max drifted by {rel}");
        for (x, xf) in exact.corrections.iter().zip(&corrections_f) {
            assert!((x.to_f64() - xf).abs() < 1e-3, "correction drift");
        }
    }

    #[test]
    fn floats_cannot_certify_equalities() {
        // The defining reason for exact arithmetic: cycle means like 1/3
        // are not representable, so 'precision == A_max' tests would be
        // tolerance games. Demonstrate the representation gap directly.
        use clocksync_time::Ratio;
        #[allow(clippy::float_cmp, clippy::assertions_on_constants)]
        {
            let (a, b, c) = (0.1f64, 0.2f64, 0.3f64);
            assert!(a + b != c, "IEEE 754 would certify a false inequality");
        }
        assert_eq!(Ratio::new(1, 10) + Ratio::new(2, 10), Ratio::new(3, 10));
    }
}
