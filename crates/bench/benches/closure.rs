//! Criterion bench: the GLOBAL ESTIMATES step (Floyd–Warshall closure of
//! local shift estimates), `O(n³)` (E7) — the generic rational kernel
//! versus the integer closure (`Closure::new` plus `ratio_dist`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use clocksync_bench::closure_bench::{integer_closure, sparse_estimates};
use clocksync_graph::floyd_warshall;

fn bench_closure(c: &mut Criterion) {
    let mut group = c.benchmark_group("global_estimates_closure");
    for n in [8usize, 16, 32, 64, 128] {
        let m = sparse_estimates(n, 3);
        group.bench_with_input(BenchmarkId::new("generic", n), &m, |b, m| {
            b.iter(|| floyd_warshall(black_box(m)).expect("no negative cycles"))
        });
    }
    // The fast path stays affordable well past the generic kernel's range.
    for n in [8usize, 16, 32, 64, 128, 256] {
        let m = sparse_estimates(n, 3);
        group.bench_with_input(BenchmarkId::new("fast", n), &m, |b, m| {
            b.iter(|| integer_closure(black_box(m)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_closure);
criterion_main!(benches);
