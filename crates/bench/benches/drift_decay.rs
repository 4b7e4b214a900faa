//! Criterion bench: querying a decaying drift certificate. A
//! [`DriftingOutcome`] wraps a synchronized outcome once; afterwards
//! every per-edge query (`pair_bound_at`, `local_skew_at`) must be
//! `O(1)` — a couple of exact `Ratio` additions — independent of how
//! far past the sync point the query time lies and of the network size
//! (the closure matrix is already materialized). The guard here is that
//! per-edge query cost stays flat from `n = 64` to `n = 256` and from
//! `+0 s` to `+1 h` horizons; a regression to anything that re-walks
//! evidence or re-runs closure shows up as an `n`- or horizon-dependent
//! blow-up.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use clocksync::{DelayRange, DriftingOutcome, LinkAssumption, Network, OnlineSynchronizer};
use clocksync_model::ProcessorId;
use clocksync_time::{DriftBound, Nanos, RealTime};

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

fn certificate(n: usize) -> DriftingOutcome {
    let mut online = OnlineSynchronizer::new(ring_network(n));
    for i in 0..n {
        let j = (i + 1) % n;
        online.observe_estimated_delay(ProcessorId(i), ProcessorId(j), Nanos::from_micros(500));
        online.observe_estimated_delay(ProcessorId(j), ProcessorId(i), Nanos::from_micros(500));
    }
    let outcome = online.outcome().expect("consistent ring evidence");
    DriftingOutcome::new(outcome, RealTime::ZERO, DriftBound::from_ppm(100))
}

fn bench_drift_decay(c: &mut Criterion) {
    let mut group = c.benchmark_group("drift_decay_query");
    for n in [64usize, 256] {
        let cert = certificate(n);
        let (p, q) = (ProcessorId(0), ProcessorId(1));
        for (label, dt) in [("+0s", 0i64), ("+1h", 3_600)] {
            let t = cert.valid_at() + Nanos::from_secs(dt);
            group.bench_with_input(
                BenchmarkId::new(format!("pair_bound_at{label}"), n),
                &n,
                |b, _| b.iter(|| black_box(cert.pair_bound_at(black_box(p), black_box(q), t))),
            );
        }
        let t = cert.valid_at() + Nanos::from_secs(60);
        group.bench_with_input(BenchmarkId::new("local_skew_at+60s", n), &n, |b, _| {
            b.iter(|| black_box(cert.local_skew_at(black_box(p), black_box(q), t)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_drift_decay);
criterion_main!(benches);
