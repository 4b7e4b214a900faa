//! Criterion bench: online steady-state resynchronization — one more
//! observation plus a fresh GLOBAL ESTIMATES matrix. The cached
//! incremental path (`O(n²)`) against the full per-resync recompute it
//! replaced (`O(n³)`). Corrections derivation is identical under either
//! strategy and excluded from both arms.
//!
//! Observations repeat the current extremes, so the evidence is idempotent
//! and the benchmark can run any number of iterations without drifting the
//! estimates; this measures exactly the steady state, where most samples
//! confirm rather than improve the bounds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use clocksync::{DelayRange, LinkAssumption, Network, OnlineSynchronizer};
use clocksync_graph::floyd_warshall;
use clocksync_model::ProcessorId;
use clocksync_time::Nanos;

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

fn warmed(network: &Network, n: usize) -> OnlineSynchronizer {
    let mut online = OnlineSynchronizer::new(network.clone());
    for i in 0..n {
        let j = (i + 1) % n;
        online.observe_estimated_delay(ProcessorId(i), ProcessorId(j), Nanos::from_micros(500));
        online.observe_estimated_delay(ProcessorId(j), ProcessorId(i), Nanos::from_micros(500));
    }
    online.outcome().expect("consistent warm-up");
    online
}

fn bench_resync(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_steady_state_resync");
    for n in [32usize, 64, 128] {
        let network = ring_network(n);

        let mut online = warmed(&network, n);
        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter(|| {
                online.observe_estimated_delay(
                    ProcessorId(0),
                    ProcessorId(1),
                    Nanos::from_micros(500),
                );
                black_box(online.global_estimates().expect("consistent stream")[(0, 1)])
            })
        });

        let mut full = warmed(&network, n);
        group.bench_with_input(BenchmarkId::new("full-recompute", n), &n, |b, _| {
            b.iter(|| {
                full.observe_estimated_delay(
                    ProcessorId(0),
                    ProcessorId(1),
                    Nanos::from_micros(500),
                );
                let local = full.local_estimates().to_matrix();
                black_box(floyd_warshall(&local).expect("consistent stream"))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_resync);
criterion_main!(benches);
