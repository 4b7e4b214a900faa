//! Wall-clock measurements of the closure fast path, behind
//! `tables --bench-closure` and the committed `BENCH_closure.json`
//! artifact.
//!
//! Three comparisons, matching the three optimizations:
//!
//! * **closure**: one-shot GLOBAL ESTIMATES — the generic rational
//!   Floyd–Warshall versus [`clocksync_graph::Closure::new`] (gauged
//!   `i64` counts) plus [`clocksync_graph::Closure::ratio_dist`], on the
//!   same sparse estimate matrices.
//! * **resync**: online steady state — one new observation followed by a
//!   fresh GLOBAL ESTIMATES matrix via
//!   [`OnlineSynchronizer::global_estimates`]. The baseline expands the
//!   local estimates and recomputes the full closure per resync (the
//!   behavior before the incremental cache); the incremental path folds
//!   the tightened link into the scaled-`i64` cache with `relax_edge` in
//!   `O(n²)` and converts the cache to rationals once. Both arms cover
//!   exactly the GLOBAL ESTIMATES step — corrections derivation (Karp's
//!   cycle mean) is identical on both strategies and excluded.
//! * **sparse**: the large-`n` closure backend — the dense blocked
//!   `O(n³)` kernel versus Johnson's algorithm, as
//!   [`clocksync_graph::dispatch_closure_i64`] picks it, on WAN-like
//!   ring-plus-chords and 3-dimensional toroid topologies at
//!   `n = 1024…4096`, where edge density is far below 1%.
//!
//! Timings are minima over several repetitions — the stable estimator for
//! a throughput-bound kernel — and the emitted JSON is hand-rolled (flat
//! numbers and strings only, nothing the vendored serde stub would need).

use std::fmt::Write as _;
use std::time::Instant;

use clocksync::{DelayRange, LinkAssumption, Network, OnlineSynchronizer};
use clocksync_graph::{
    blocked_floyd_warshall_i64, dispatch_closure_i64, floyd_warshall, link_counts,
    plan_closure_kernel, Closure, SquareMatrix, Weight, UNREACHABLE,
};
use clocksync_model::ProcessorId;
use clocksync_time::{Ext, Nanos, Ratio};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A sparse ring-plus-chords estimate matrix (absent pairs are +inf, as
/// the estimators produce for undeclared links). Shared by the Criterion
/// benches and the JSON emitter so both measure the same workload.
pub fn sparse_estimates(n: usize, seed: u64) -> SquareMatrix<Ext<Ratio>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = SquareMatrix::from_fn(n, |i, j| {
        if i == j {
            <Ext<Ratio> as Weight>::zero()
        } else {
            <Ext<Ratio> as Weight>::infinity()
        }
    });
    let mut link = |a: usize, b: usize, rng: &mut StdRng| {
        let base: i128 = rng.gen_range(1_000..500_000);
        let skew: i128 = rng.gen_range(0..base);
        m[(a, b)] = Ext::Finite(Ratio::from_int(base + skew));
        m[(b, a)] = Ext::Finite(Ratio::from_int(base - skew));
    };
    for i in 0..n {
        link(i, (i + 1) % n, &mut rng);
    }
    for _ in 0..n / 2 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            link(a.min(b), a.max(b), &mut rng);
        }
    }
    m
}

/// Minimum elapsed nanoseconds of `f` over `reps` runs.
fn min_ns(mut f: impl FnMut(), reps: usize) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos());
    }
    best
}

/// A ring network over `n` processors with identical symmetric bounds.
fn ring_network(n: usize) -> Network {
    let mut b = Network::builder(n);
    for i in 0..n {
        b = b.link(
            ProcessorId(i),
            ProcessorId((i + 1) % n),
            LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::from_millis(1))),
        );
    }
    b.build()
}

/// Feeds one initial probe pair per ring link, so every estimate is finite
/// and the cache has real work to absorb later.
fn warm_up(online: &mut OnlineSynchronizer, n: usize) {
    for i in 0..n {
        let j = (i + 1) % n;
        online.observe_estimated_delay(ProcessorId(i), ProcessorId(j), Nanos::from_micros(500));
        online.observe_estimated_delay(ProcessorId(j), ProcessorId(i), Nanos::from_micros(500));
    }
}

/// A WAN-like ring-plus-chords topology directly over sentinel-encoded
/// `i64` weights (the dense and sparse `i64` kernels' shared input form):
/// a bidirectional ring plus `n/2` random bidirectional chords, so
/// `m ≈ 3n` directed edges and density `≈ 3/n`.
pub fn wan_weights_i64(n: usize, seed: u64) -> SquareMatrix<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = SquareMatrix::filled(n, UNREACHABLE);
    for i in 0..n {
        m[(i, i)] = 0;
    }
    let mut link = |a: usize, b: usize, rng: &mut StdRng| {
        let base: i64 = rng.gen_range(1_000..500_000);
        let skew: i64 = rng.gen_range(0..base);
        m[(a, b)] = base + skew;
        m[(b, a)] = base - skew;
    };
    for i in 0..n {
        link(i, (i + 1) % n, &mut rng);
    }
    for _ in 0..n / 2 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            link(a.min(b), a.max(b), &mut rng);
        }
    }
    m
}

/// A 3-dimensional toroid (wrap-around grid) of `dx × dy × dz` nodes over
/// sentinel-encoded `i64` weights: each node links to its 6 axis
/// neighbors, so `m = 6n` directed edges — the classic
/// supercomputer-interconnect shape, density `6/n`.
pub fn toroid_weights_i64(dx: usize, dy: usize, dz: usize, seed: u64) -> SquareMatrix<i64> {
    let n = dx * dy * dz;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = SquareMatrix::filled(n, UNREACHABLE);
    for i in 0..n {
        m[(i, i)] = 0;
    }
    let id = |x: usize, y: usize, z: usize| (x * dy + y) * dz + z;
    for x in 0..dx {
        for y in 0..dy {
            for z in 0..dz {
                let a = id(x, y, z);
                for b in [
                    id((x + 1) % dx, y, z),
                    id(x, (y + 1) % dy, z),
                    id(x, y, (z + 1) % dz),
                ] {
                    if a == b {
                        continue; // degenerate wrap on a length-1 axis
                    }
                    let base: i64 = rng.gen_range(1_000..500_000);
                    let skew: i64 = rng.gen_range(0..base);
                    m[(a, b)] = base + skew;
                    m[(b, a)] = base - skew;
                }
            }
        }
    }
    m
}

/// One row of the dense-versus-sparse backend comparison.
pub struct SparseRow {
    /// Topology label (`wan` or `toroid-DXxDYxDZ`).
    pub topology: String,
    /// Matrix dimension.
    pub n: usize,
    /// Stored directed edges.
    pub edges: usize,
    /// `edges / n²`.
    pub density: f64,
    /// The kernel the density dispatch selected.
    pub kernel: String,
    /// Dense blocked `O(n³)` kernel, nanoseconds.
    pub dense_ns: u128,
    /// Density-dispatched sparse backend, nanoseconds.
    pub sparse_ns: u128,
}

/// Times the dense blocked kernel against the density-dispatched sparse
/// backend on one topology.
fn measure_sparse_one(topology: String, m: SquareMatrix<i64>) -> SparseRow {
    let n = m.n();
    let edges = m
        .iter()
        .filter(|&(i, j, &w)| i != j && w != UNREACHABLE)
        .count();
    let (table, counts) = link_counts(&m);
    let kernel = plan_closure_kernel(&table, &counts);
    // The dense kernel is O(n³) — a minute of single-threaded work at
    // n = 4096 — so repetitions taper off with size.
    let dense_reps = (2048 / n).clamp(1, 3);
    let dense_ns = min_ns(
        || {
            blocked_floyd_warshall_i64(std::hint::black_box(&m)).expect("no negative cycles");
        },
        dense_reps,
    );
    let sparse_ns = min_ns(
        || {
            dispatch_closure_i64(std::hint::black_box(&m)).expect("no negative cycles");
        },
        3,
    );
    SparseRow {
        topology,
        n,
        edges,
        density: edges as f64 / (n as f64 * n as f64),
        kernel: kernel.name().to_string(),
        dense_ns,
        sparse_ns,
    }
}

/// Times the sparse backends against the dense kernel on the WAN and
/// toroid topologies at each dimension. `sizes` entries must be multiples
/// of 256 (the toroid is laid out as `16 × 16 × n/256`).
pub fn measure_sparse(sizes: &[usize]) -> Vec<SparseRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        rows.push(measure_sparse_one("wan".into(), wan_weights_i64(n, 11)));
        let dz = n / 256;
        rows.push(measure_sparse_one(
            format!("toroid-16x16x{dz}"),
            toroid_weights_i64(16, 16, dz, 13),
        ));
    }
    rows
}

/// One row of the one-shot closure comparison.
pub struct ClosureRow {
    /// Matrix dimension.
    pub n: usize,
    /// Generic rational kernel, nanoseconds.
    pub generic_ns: u128,
    /// Integer kernel via `Closure::new` plus `ratio_dist`, nanoseconds.
    pub fast_ns: u128,
}

/// One row of the steady-state resync comparison.
pub struct ResyncRow {
    /// Processor count.
    pub n: usize,
    /// Full recompute per resync (pre-cache behavior), nanoseconds.
    pub full_ns: u128,
    /// Incremental `relax_edge` on the scaled cache plus the conversion
    /// `global_estimates()` returns, nanoseconds.
    pub incremental_ns: u128,
}

/// The closure on the integer kernels, decoded: what a batch sync pays
/// for GLOBAL ESTIMATES.
pub fn integer_closure(m: &SquareMatrix<Ext<Ratio>>) -> SquareMatrix<Ext<Ratio>> {
    let closure = Closure::new(m).expect("estimates have gauged counts");
    closure.expect("no negative cycles").ratio_dist()
}

/// Times the one-shot closure at each dimension.
pub fn measure_closure(sizes: &[usize]) -> Vec<ClosureRow> {
    sizes
        .iter()
        .map(|&n| {
            let m = sparse_estimates(n, 3);
            // The generic kernel is O(n³) rational operations — seconds at
            // n = 512 — so repetitions taper off with size.
            let reps = (512 / n).clamp(1, 5);
            let generic_ns = min_ns(
                || {
                    floyd_warshall(std::hint::black_box(&m)).expect("no negative cycles");
                },
                reps,
            );
            let fast_ns = min_ns(
                || {
                    integer_closure(std::hint::black_box(&m));
                },
                5,
            );
            ClosureRow {
                n,
                generic_ns,
                fast_ns,
            }
        })
        .collect()
}

/// Times one steady-state resynchronization step — a strictly-tightening
/// observation on a rotating link followed by a fresh GLOBAL ESTIMATES
/// matrix — under both strategies, averaged over `iters` steps.
pub fn measure_resync(n: usize, iters: usize) -> ResyncRow {
    let network = ring_network(n);

    // Incremental: warm cache, each observation relaxes it in O(n²) and
    // each query converts it to rationals once.
    let mut online = OnlineSynchronizer::new(network.clone());
    warm_up(&mut online, n);
    online.outcome().expect("consistent warm-up");
    let mut delay = 400_000i64;
    let start = Instant::now();
    for k in 0..iters {
        let i = k % n;
        online.observe_estimated_delay(ProcessorId(i), ProcessorId((i + 1) % n), Nanos::new(delay));
        delay -= 1_000;
        let estimates = online.global_estimates().expect("consistent stream");
        std::hint::black_box(estimates[(0, 1)]);
    }
    let incremental_ns = start.elapsed().as_nanos() / iters as u128;

    // Baseline: identical stream, but every resync recomputes the closure
    // of the local estimates' dense view with the generic kernel — what
    // the synchronizer did before the cache existed.
    let mut baseline = OnlineSynchronizer::new(network.clone());
    warm_up(&mut baseline, n);
    let mut delay = 400_000i64;
    let start = Instant::now();
    for k in 0..iters {
        let i = k % n;
        baseline.observe_estimated_delay(
            ProcessorId(i),
            ProcessorId((i + 1) % n),
            Nanos::new(delay),
        );
        delay -= 1_000;
        let local = baseline.local_estimates().to_matrix();
        let closure = floyd_warshall(&local).expect("consistent stream");
        std::hint::black_box(closure);
    }
    let full_ns = start.elapsed().as_nanos() / iters as u128;

    ResyncRow {
        n,
        full_ns,
        incremental_ns,
    }
}

fn speedup(slow: u128, fast: u128) -> f64 {
    if fast == 0 {
        f64::INFINITY
    } else {
        slow as f64 / fast as f64
    }
}

/// Runs all three suites and renders the `BENCH_closure.json` document.
pub fn bench_closure_json() -> String {
    let closure = measure_closure(&[64, 128, 256, 512]);
    let resync = measure_resync(128, 32);
    let sparse = measure_sparse(&[1024, 2048, 4096]);

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"global_estimates_closure\",");
    let _ = writeln!(
        out,
        "  \"generated_by\": \"cargo run --release -p clocksync-bench --bin tables -- --bench-closure\","
    );
    let _ = writeln!(out, "  \"threads\": {},", rayon::current_num_threads());
    out.push_str("  \"closure\": [\n");
    for (idx, row) in closure.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"n\": {}, \"generic_ns\": {}, \"fast_ns\": {}, \"speedup\": {:.2} }}{}",
            row.n,
            row.generic_ns,
            row.fast_ns,
            speedup(row.generic_ns, row.fast_ns),
            if idx + 1 < closure.len() { "," } else { "" },
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"resync\": [\n");
    let _ = writeln!(
        out,
        "    {{ \"n\": {}, \"full_ns\": {}, \"incremental_ns\": {}, \"speedup\": {:.2} }}",
        resync.n,
        resync.full_ns,
        resync.incremental_ns,
        speedup(resync.full_ns, resync.incremental_ns),
    );
    out.push_str("  ],\n");
    out.push_str("  \"sparse\": [\n");
    for (idx, row) in sparse.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"topology\": \"{}\", \"n\": {}, \"edges\": {}, \"density\": {:.6}, \"kernel\": \"{}\", \"dense_ns\": {}, \"sparse_ns\": {}, \"speedup\": {:.2} }}{}",
            row.topology,
            row.n,
            row.edges,
            row.density,
            row.kernel,
            row.dense_ns,
            row.sparse_ns,
            speedup(row.dense_ns, row.sparse_ns),
            if idx + 1 < sparse.len() { "," } else { "" },
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Validates a `BENCH_closure.json` document: schema, non-empty
/// `closure`/`resync`/`sparse` sections, and the
/// acceptance floor on the sparse-backend speedup — at least one `sparse`
/// row must have `n ≥ 4096`, edge density `≤ 1%`, and a dense-over-sparse
/// speedup of at least `min_speedup`. Density and speedups are recomputed
/// from the integer `edges`/`n`/timing fields, so a hand-edited
/// `density`/`speedup` field cannot mask a regression.
///
/// # Errors
///
/// A human-readable description of the first violated expectation.
pub fn check_bench_closure_json(doc: &str, min_speedup: f64) -> Result<(), String> {
    let json = clocksync_obs::json::parse(doc).map_err(|e| format!("invalid JSON: {e}"))?;
    let bench = json
        .field("bench", "document")
        .and_then(|b| b.as_str("bench").map(str::to_owned))
        .map_err(|e| e.to_string())?;
    if bench != "global_estimates_closure" {
        return Err(format!("unexpected bench id `{bench}`"));
    }
    for section in ["closure", "resync"] {
        let rows = json
            .field(section, "document")
            .and_then(|k| k.as_array(section).map(<[_]>::to_vec))
            .map_err(|e| e.to_string())?;
        if rows.is_empty() {
            return Err(format!("{section} section is empty"));
        }
    }
    let sparse = json
        .field("sparse", "document")
        .and_then(|k| k.as_array("sparse").map(<[_]>::to_vec))
        .map_err(|e| e.to_string())?;
    if sparse.is_empty() {
        return Err("sparse section is empty".to_string());
    }
    let mut best_qualifying: Option<f64> = None;
    for row in &sparse {
        let n = row
            .field("n", "sparse row")
            .and_then(|v| v.as_u64("n"))
            .map_err(|e| e.to_string())?;
        let edges = row
            .field("edges", "sparse row")
            .and_then(|v| v.as_u64("edges"))
            .map_err(|e| e.to_string())?;
        let mut ns = [0u128; 2];
        for (slot, key) in ns.iter_mut().zip(["dense_ns", "sparse_ns"]) {
            let v = row
                .field(key, "sparse row")
                .and_then(|v| v.as_i128(key))
                .map_err(|e| e.to_string())?;
            if v <= 0 {
                return Err(format!("{key} must be positive at n={n}"));
            }
            *slot = v as u128;
        }
        let density = edges as f64 / (n as f64 * n as f64);
        if n >= 4096 && density <= 0.01 {
            let s = speedup(ns[0], ns[1]);
            if best_qualifying.is_none_or(|b| s > b) {
                best_qualifying = Some(s);
            }
        }
    }
    let best =
        best_qualifying.ok_or("sparse section has no row with n >= 4096 and density <= 1%")?;
    if best < min_speedup {
        return Err(format!(
            "sparse-backend speedup at n>=4096, density<=1% is {best:.2}x, below the {min_speedup}x floor"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_estimates_take_the_fast_path() {
        let m = sparse_estimates(32, 7);
        let fd = integer_closure(&m);
        let gd = floyd_warshall(&m).unwrap();
        assert_eq!(fd, gd);
    }

    #[test]
    fn resync_measurement_streams_stay_consistent() {
        // Tiny sizes: this checks the harness logic, not performance.
        let row = measure_resync(8, 4);
        assert_eq!(row.n, 8);
        assert!(row.incremental_ns > 0 && row.full_ns > 0);
    }

    #[test]
    fn sparse_measurement_dispatches_off_the_dense_kernel() {
        // Tiny but above nothing: harness logic only. A 256-node WAN ring
        // has density ~3/256 > the real arms', but still ≤ 5%.
        let rows = measure_sparse(&[256]);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.n, 256);
            assert!(row.edges > 0);
            assert!(row.density <= 0.05, "topology unexpectedly dense");
            assert_ne!(row.kernel, "scaled-i64", "dispatch fell back to dense");
            assert!(row.dense_ns > 0 && row.sparse_ns > 0);
        }
    }

    #[test]
    fn sparse_topologies_agree_with_dense_kernel() {
        for m in [wan_weights_i64(64, 5), toroid_weights_i64(4, 4, 4, 5)] {
            let dd = blocked_floyd_warshall_i64(&m).unwrap();
            let sd = clocksync_graph::sparse_closure_i64(&m).unwrap();
            assert_eq!(dd, sd);
        }
    }

    fn sample_doc(n: u64, edges: u64, dense: u128, sparse: u128) -> String {
        format!(
            "{{ \"bench\": \"global_estimates_closure\", \
             \"closure\": [ {{ \"n\": 64, \"generic_ns\": 10, \"fast_ns\": 1 }} ], \
             \"resync\": [ {{ \"n\": 128, \"full_ns\": 10, \"incremental_ns\": 1 }} ], \
             \"sparse\": [ {{ \"topology\": \"wan\", \"n\": {n}, \"edges\": {edges}, \
             \"density\": 0.0, \"kernel\": \"sparse-johnson\", \
             \"dense_ns\": {dense}, \"sparse_ns\": {sparse}, \"speedup\": 99.0 }} ] }}"
        )
    }

    #[test]
    fn closure_check_accepts_fast_sparse_rows() {
        check_bench_closure_json(&sample_doc(4096, 12288, 1_000_000, 10_000), 10.0).unwrap();
    }

    #[test]
    fn closure_check_recomputes_speedup_from_timings() {
        // The embedded "speedup": 99.0 field must not mask a slow run.
        let err =
            check_bench_closure_json(&sample_doc(4096, 12288, 50_000, 10_000), 10.0).unwrap_err();
        assert!(err.contains("below the 10x floor"), "{err}");
    }

    #[test]
    fn closure_check_requires_a_large_low_density_row() {
        // n too small.
        let err =
            check_bench_closure_json(&sample_doc(2048, 6144, 1_000_000, 10_000), 10.0).unwrap_err();
        assert!(err.contains("no row with n >= 4096"), "{err}");
        // Density above 1%: 4096² × 1% ≈ 168k edges.
        let err = check_bench_closure_json(&sample_doc(4096, 500_000, 1_000_000, 10_000), 10.0)
            .unwrap_err();
        assert!(err.contains("no row with n >= 4096"), "{err}");
    }

    #[test]
    fn closure_check_rejects_malformed_documents() {
        assert!(check_bench_closure_json("not json", 10.0).is_err());
        let wrong_id = sample_doc(4096, 12288, 100, 1).replace("global_estimates_closure", "x");
        assert!(check_bench_closure_json(&wrong_id, 10.0)
            .unwrap_err()
            .contains("unexpected bench id"));
        let no_sparse = sample_doc(4096, 12288, 100, 1).replace("\"sparse\":", "\"sparsex\":");
        assert!(check_bench_closure_json(&no_sparse, 10.0).is_err());
        let bad_ns =
            sample_doc(4096, 12288, 100, 1).replace("\"dense_ns\": 100", "\"dense_ns\": 0");
        assert!(check_bench_closure_json(&bad_ns, 10.0)
            .unwrap_err()
            .contains("must be positive"));
    }

    #[test]
    fn closure_measurement_rows_cover_requested_sizes() {
        // Tiny size: this checks the harness logic, not performance.
        let rows = measure_closure(&[8]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].n, 8);
        assert!(rows[0].generic_ns > 0 && rows[0].fast_ns > 0);
    }
}
