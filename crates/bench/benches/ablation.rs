//! Criterion ablation: exact rational pipeline vs an `f64` pipeline on the
//! same instances — the cost of the workspace's exactness guarantee.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use clocksync::{estimated_local_shifts, global_estimates, shifts};
use clocksync_bench::float_ablation::pipeline_f64;
use clocksync_sim::{Simulation, Topology};
use clocksync_time::Nanos;

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_vs_float_pipeline");
    for n in [8usize, 16, 32] {
        let sim = Simulation::builder(n)
            .uniform_links(
                Topology::Complete(n),
                Nanos::from_micros(20),
                Nanos::from_micros(400),
                1,
            )
            .probes(1)
            .build();
        let run = sim.run(7);
        let local = estimated_local_shifts(
            &run.network,
            &run.network.link_observations(run.execution.views()),
        );

        group.bench_with_input(BenchmarkId::new("exact", n), &local, |b, local| {
            b.iter(|| {
                let closure = global_estimates(black_box(local)).expect("consistent");
                shifts(&closure, 0)
            })
        });
        let dense = local.to_matrix();
        group.bench_with_input(BenchmarkId::new("f64", n), &dense, |b, dense| {
            b.iter(|| pipeline_f64(black_box(dense)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
