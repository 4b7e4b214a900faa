//! Criterion bench: maximum cycle mean on complete graphs — the core of
//! the SHIFTS step (E7) — racing all four `A_max` kernels.
//!
//! The exact rational Karp recurrence is `O(n³)` rational operations, so
//! it stops at n = 96; the integer Karp and Howard's policy iteration,
//! rational and over `i64` half-nanosecond counts, continue to n = 256, pinning
//! the speedups `BENCH_karp.json` records.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use clocksync_bench::karp_bench::closure_like;
use clocksync_graph::{fast_max_cycle_mean, howard_solve, karp_max_cycle_mean, ScaledMatrix};

fn bench_karp(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_cycle_mean");
    for n in [8usize, 16, 32, 64, 96, 128, 256] {
        let m = closure_like(n, 7);
        if n <= 96 {
            group.bench_with_input(BenchmarkId::new("karp", n), &m, |b, m| {
                b.iter(|| karp_max_cycle_mean(black_box(m)))
            });
        }
        group.bench_with_input(BenchmarkId::new("karp-scaled", n), &m, |b, m| {
            b.iter(|| fast_max_cycle_mean(black_box(m)))
        });
        group.bench_with_input(BenchmarkId::new("howard", n), &m, |b, m| {
            b.iter(|| howard_solve(black_box(m), None))
        });
        group.bench_with_input(BenchmarkId::new("howard-scaled", n), &m, |b, m| {
            b.iter(|| ScaledMatrix::from_ratio(black_box(m)).map(|s| s.max_cycle_mean(None)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_karp);
criterion_main!(benches);
