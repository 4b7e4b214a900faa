//! Cross-crate integration tests of the sharded ingestion service:
//! bounded-memory retention never changes any synchronization result
//! (the Lemma 6.2 estimators depend only on extremal observations), a
//! loosened estimate is indistinguishable from a full cache flush, the
//! scaled closure cache matches a rebuild and batch synchronization across
//! scale changes and unscalable estimates, and adversarial clock readings
//! surface as typed errors, never panics.

use clocksync::{
    BatchObservation, DelayRange, LinkAssumption, Network, OnlineSynchronizer, SyncError,
    Synchronizer,
};
use clocksync_model::{MessageId, MessageObservation, ProcessorId, ViewWindow};
use clocksync_service::{run_soak, ObservationBatch, SoakConfig, SyncService};
use clocksync_sim::{Simulation, Topology};
use clocksync_time::{ClockTime, Nanos};
use proptest::prelude::*;

fn obs(src: usize, dst: usize, send: i64, recv: i64) -> BatchObservation {
    BatchObservation {
        src: ProcessorId(src),
        dst: ProcessorId(dst),
        send_clock: ClockTime::from_nanos(send),
        recv_clock: ClockTime::from_nanos(recv),
    }
}

/// A random bounds-only network over `n` processors plus a random
/// observation stream on it, pre-chunked into batches.
#[derive(Debug, Clone)]
struct StreamInput {
    n: usize,
    links: Vec<(usize, usize, i64, i64)>,
    batches: Vec<Vec<BatchObservation>>,
}

impl StreamInput {
    fn network(&self) -> Network {
        let mut b = Network::builder(self.n);
        for &(p, q, lo, width) in &self.links {
            b = b.link(
                ProcessorId(p),
                ProcessorId(q),
                LinkAssumption::symmetric_bounds(DelayRange::new(
                    Nanos::new(lo),
                    Nanos::new(lo + width),
                )),
            );
        }
        b.build()
    }
}

fn stream_input() -> impl Strategy<Value = StreamInput> {
    (2usize..5).prop_flat_map(|n| {
        let links = proptest::collection::vec((0..n, 0..n, 0i64..500_000, 1i64..1_000_000), 1..5);
        let messages =
            proptest::collection::vec((0..n, 0..n, 0i64..10_000_000, 0i64..2_000_000), 1..40);
        (links, messages, 1usize..6).prop_map(move |(links, messages, batch)| {
            let mut seen = std::collections::HashSet::new();
            let links: Vec<_> = links
                .into_iter()
                .filter(|&(a, b, _, _)| a != b && seen.insert((a.min(b), a.max(b))))
                .collect();
            let batches = messages
                .iter()
                .filter(|&&(src, dst, _, _)| src != dst)
                .map(|&(src, dst, send, delay)| obs(src, dst, send, send + delay))
                .collect::<Vec<_>>()
                .chunks(batch)
                .map(<[_]>::to_vec)
                .collect();
            StreamInput { n, links, batches }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// The tentpole invariant: windowed compaction never loosens any
    /// estimate. A synchronizer that compacts its evidence down to the
    /// retention window after every batch produces the bit-identical
    /// `SyncOutcome` (or the identical typed error) as one that keeps
    /// full history, because the dominated-evidence GC always retains
    /// each directed link's extremal witnesses.
    #[test]
    fn compaction_never_loosens(input in stream_input(), window in 0usize..5) {
        prop_assume!(!input.links.is_empty());
        let mut full = OnlineSynchronizer::new(input.network());
        let mut compacted = OnlineSynchronizer::new(input.network());
        for batch in &input.batches {
            let a = full.ingest_batch(batch);
            let b = compacted.ingest_batch(batch);
            prop_assert_eq!(&a, &b);
            compacted.compact_evidence(window);
            if a.is_err() {
                continue;
            }
            prop_assert_eq!(full.outcome(), compacted.outcome());
        }
        prop_assert!(compacted.retained_samples() <= full.retained_samples());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A loosened estimate leaves the engine observationally equivalent
    /// to a full flush: interleaving evidence retraction (`forget_link`,
    /// the loosening path, which drops the caches) with batched ingestion
    /// gives the same outcomes as a reference that drops every cache after
    /// every operation.
    #[test]
    fn scoped_invalidation_matches_full_flush(
        input in stream_input(),
        forget_at in proptest::collection::vec(0usize..1_000, 0..3),
    ) {
        prop_assume!(!input.links.is_empty());
        let mut scoped = OnlineSynchronizer::new(input.network());
        let mut reference = OnlineSynchronizer::new(input.network());
        let forget: Vec<usize> = forget_at
            .iter()
            .map(|ix| ix % input.links.len())
            .collect();
        for (step, batch) in input.batches.iter().enumerate() {
            let a = scoped.ingest_batch(batch);
            let b = reference.ingest_batch(batch);
            prop_assert_eq!(&a, &b);
            reference.invalidate_caches();
            if a.is_err() {
                continue;
            }
            prop_assert_eq!(scoped.outcome(), reference.outcome());
            for &l in forget.iter().filter(|&&l| l % input.batches.len() == step) {
                let (p, q, _, _) = input.links[l];
                let dropped = scoped.forget_link(ProcessorId(p), ProcessorId(q));
                let dropped_ref = reference.forget_link(ProcessorId(p), ProcessorId(q));
                prop_assert_eq!(dropped, dropped_ref);
                reference.invalidate_caches();
                prop_assert_eq!(scoped.outcome(), reference.outcome());
            }
        }
    }
}

/// A domain of `symmetric_bounds` and `rtt_bias` links, optionally split
/// into two halves with no link between them, plus a message stream over
/// it, pre-chunked into batches. `links` holds `(p, q, rtt_bias, lo,
/// width)`: bounds `[lo, lo + width]`, or a bias bound of `width`.
#[derive(Debug, Clone)]
struct MixedInput {
    n: usize,
    links: Vec<(usize, usize, bool, i64, i64)>,
    batches: Vec<Vec<BatchObservation>>,
}

impl MixedInput {
    fn network(&self) -> Network {
        let mut b = Network::builder(self.n);
        for &(p, q, rtt_bias, lo, width) in &self.links {
            let assumption = if rtt_bias {
                LinkAssumption::rtt_bias(Nanos::new(width))
            } else {
                LinkAssumption::symmetric_bounds(DelayRange::new(
                    Nanos::new(lo),
                    Nanos::new(lo + width),
                ))
            };
            b = b.link(ProcessorId(p), ProcessorId(q), assumption);
        }
        b.build()
    }
}

/// Each processor's clock runs a hidden offset ahead of real time. One
/// link endpoint sits about 10^18 ns ahead in a quarter of the streams, so
/// its estimates carry a start-time difference far past the integer
/// kernels' per-entry bound, which the gauge removes. Delays mostly stay in
/// `[lo, lo + width]`, which every link kind admits; one message in 32
/// takes an arbitrary delay and may make the stream inconsistent.
fn mixed_input() -> impl Strategy<Value = MixedInput> {
    (3usize..7).prop_flat_map(|n| {
        let links = proptest::collection::vec(
            (0..n, 0..n, any::<bool>(), 0i64..500_000, 1i64..1_000_000),
            1..8,
        );
        let offsets = proptest::collection::vec(0i64..1_000_000, n);
        let far = prop_oneof![
            3 => Just(0i64),
            1 => 999_000_000_000_000_000i64..=1_000_000_000_000_000_000,
        ];
        let messages = proptest::collection::vec(
            (
                0usize..64,
                any::<bool>(),
                0i64..10_000_000,
                prop_oneof![31 => Just(None), 1 => (0i64..2_000_000).prop_map(Some)],
                0i64..1_000_000,
            ),
            1..48,
        );
        (links, any::<bool>(), offsets, far, messages, 1usize..6).prop_map(
            move |(links, split, mut offsets, far, messages, batch)| {
                let half = |p: usize| p < n / 2;
                let mut seen = std::collections::HashSet::new();
                let links: Vec<_> = links
                    .into_iter()
                    .filter(|&(a, b, ..)| a != b && (!split || half(a) == half(b)))
                    .filter(|&(a, b, ..)| seen.insert((a.min(b), a.max(b))))
                    .collect();
                if let Some(&(_, q, ..)) = links.first() {
                    offsets[q] += far;
                }
                let observations: Vec<BatchObservation> = if links.is_empty() {
                    Vec::new()
                } else {
                    messages
                        .iter()
                        .map(|&(ix, forward, sent, wild, spread)| {
                            let (p, q, _, lo, width) = links[ix % links.len()];
                            let (src, dst) = if forward { (p, q) } else { (q, p) };
                            let delay = wild.unwrap_or(lo + spread % (width + 1));
                            obs(src, dst, sent + offsets[src], sent + delay + offsets[dst])
                        })
                        .collect()
                };
                let batches = observations.chunks(batch).map(<[_]>::to_vec).collect();
                MixedInput { n, links, batches }
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The scaled closure cache never changes an answer. Half-ns
    /// round-trip-bias estimates relax a cache of whole nanoseconds in
    /// place; a clock ~10^18 ns ahead joins the gauge's forest on its first
    /// estimate, which rebuilds the cache under a fresh gauge, and keeps
    /// the domain on the integer route: the traced batch synchronizer never
    /// records a `sync.closure_fallback`. After every batch the warm
    /// engine's outcome (or typed error) is bit-identical to a reference
    /// that drops every cache and to batch synchronization over the same
    /// messages.
    #[test]
    fn scaled_cache_matches_rebuild_and_batch(input in mixed_input()) {
        prop_assume!(!input.links.is_empty());
        let mut online = OnlineSynchronizer::new(input.network());
        let mut reference = OnlineSynchronizer::new(input.network());
        let recorder = clocksync_obs::Recorder::enabled();
        let batch = Synchronizer::new(input.network()).with_recorder(recorder.clone());
        let mut window = ViewWindow::new(input.n);
        for chunk in &input.batches {
            prop_assert_eq!(online.ingest_batch(chunk), Ok(chunk.len()));
            prop_assert_eq!(reference.ingest_batch(chunk), Ok(chunk.len()));
            reference.invalidate_caches();
            for o in chunk {
                let id = MessageId(window.pushed());
                window
                    .push(MessageObservation {
                        src: o.src,
                        dst: o.dst,
                        id,
                        send_clock: o.send_clock,
                        recv_clock: o.recv_clock,
                    })
                    .expect("generated clocks are valid");
            }
            let views = window.to_view_set().expect("generated views are valid");
            let warm = online.outcome();
            prop_assert_eq!(&warm, &reference.outcome());
            prop_assert_eq!(&warm, &batch.synchronize(&views));
        }
        let fallbacks = recorder.snapshot().events_named("sync.closure_fallback").count();
        prop_assert_eq!(fallbacks, 0, "a domain left the integer route");
    }
}

/// The windowed service agrees with a full-history synchronizer on real
/// simulated traffic, and its outcome is identical across window sizes
/// (the E5-style identity: the window never changes results, only
/// memory), while batch-over-batch precision only tightens.
#[test]
fn windowed_service_matches_full_history_across_window_sizes() {
    let sim = Simulation::builder(5)
        .uniform_links(
            Topology::Ring(5),
            Nanos::from_micros(20),
            Nanos::from_micros(400),
            11,
        )
        .probes(6)
        .build();
    let run = sim.run(23);
    let pool: Vec<BatchObservation> = run
        .execution
        .views()
        .message_observations()
        .iter()
        .map(|m| BatchObservation {
            src: m.src,
            dst: m.dst,
            send_clock: m.send_clock,
            recv_clock: m.recv_clock,
        })
        .collect();
    assert!(
        pool.len() > 40,
        "simulation produced {} messages",
        pool.len()
    );

    let mut reference = OnlineSynchronizer::new(run.network.clone());
    reference.ingest_batch(&pool).unwrap();
    let expected = reference.outcome().unwrap();

    for window in [1, 4, 64] {
        let mut svc = SyncService::new(3, window);
        svc.register_domain("d", run.network.clone()).unwrap();
        let mut last_precision = None;
        for chunk in pool.chunks(16) {
            svc.ingest(&ObservationBatch::new("d", chunk.to_vec()))
                .unwrap();
            let precision = svc.outcome("d").unwrap().precision();
            if let Some(prev) = last_precision {
                assert!(
                    precision <= prev,
                    "precision loosened within window {window}"
                );
            }
            last_precision = Some(precision);
        }
        assert_eq!(
            svc.outcome("d").unwrap(),
            expected,
            "window {window} changed the outcome"
        );
        let stats = svc.domain_stats("d").unwrap();
        // 5 ring links, both directions, window + 2 witnesses each.
        assert!(
            stats.retained_messages <= 10 * (window + 2),
            "window {window} retained {}",
            stats.retained_messages
        );
    }
}

/// The CI soak smoke, as a test: 10⁵ batched messages across 4 shards
/// stay under the analytic retention cap, and resident memory stays
/// bounded where the platform can measure it.
#[test]
fn soak_smoke_bounded_memory() {
    let config = SoakConfig {
        shards: 4,
        threads: 1,
        queue_depth: 256,
        domains: 8,
        n: 4,
        messages: 100_000,
        batch_size: 64,
        window: 32,
        seed: 7,
    };
    let report = run_soak(&config);
    assert!(report.messages >= 100_000);
    assert!(
        report.peak_retained_messages <= report.retained_cap,
        "peak {} exceeded cap {}",
        report.peak_retained_messages,
        report.retained_cap
    );
    if let Some(rss) = report.rss_end_bytes {
        assert!(
            rss < 512 * 1024 * 1024,
            "soak ended at {} bytes resident",
            rss
        );
    }
}

/// The adversarial-trace regression for the overflow sweep: clock
/// readings that are individually valid but whose difference overflows
/// `i64` nanoseconds used to panic inside `Nanos` subtraction; they must
/// surface as `SyncError::Overflow` and leave no partial state behind.
#[test]
fn adversarial_clock_readings_are_typed_errors() {
    let net = Network::builder(2)
        .link(
            ProcessorId(0),
            ProcessorId(1),
            LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(1_000))),
        )
        .build();
    let mut online = OnlineSynchronizer::new(net.clone());
    online
        .ingest_batch(&[obs(0, 1, 100, 400), obs(1, 0, 500, 900)])
        .unwrap();
    let before = online.outcome().unwrap();

    for bad in [
        obs(0, 1, i64::MIN, i64::MAX),
        obs(1, 0, i64::MIN + 5, i64::MAX - 3),
        obs(0, 1, -1, i64::MAX),
    ] {
        let err = online
            .ingest_batch(&[obs(0, 1, 1_000, 1_300), bad])
            .unwrap_err();
        assert!(
            matches!(err, SyncError::Overflow { .. }),
            "expected Overflow, got {err:?}"
        );
        // Atomic: the valid observation in the same batch was not applied.
        assert_eq!(online.outcome().unwrap(), before);
    }

    // The same trace through the sharded service is a typed error too.
    let mut svc = SyncService::new(2, 8);
    svc.register_domain("d", net).unwrap();
    let err = svc
        .ingest(&ObservationBatch::new(
            "d",
            vec![obs(0, 1, i64::MIN, i64::MAX)],
        ))
        .unwrap_err();
    assert!(err.to_string().contains("overflow"), "{err}");
    assert_eq!(svc.domain_stats("d").unwrap().ingested, 0);
}
