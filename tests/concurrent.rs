//! Cross-crate integration tests of the concurrent worker-per-shard
//! ingestion engine: under arbitrary interleavings, queue depths and
//! group-commit sizes, every domain observes exactly the receipts,
//! errors, retractions and outcomes that sequential processing of its
//! own request stream would produce — concurrency changes throughput,
//! never answers. Plus
//! the drain-on-shutdown contract: no enqueued batch is dropped and no
//! receipt is lost, even when shutdown races the producers.

use clocksync::{
    BatchObservation, DelayRange, LinkAssumption, Network, Network as Net, SyncOutcome,
};
use clocksync_model::ProcessorId;
use clocksync_service::{
    ConcurrentService, ObservationBatch, PendingReceipt, ServiceConfig, SyncService,
};
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

/// A random bounds-only network plus a pre-chunked observation stream,
/// optionally poisoned with one overflow batch (clock readings whose
/// difference exceeds `i64` nanoseconds) so typed-error batches are part
/// of every equivalence statement, not a separate case.
#[derive(Debug, Clone)]
struct StreamInput {
    n: usize,
    links: Vec<(usize, usize, i64, i64)>,
    batches: Vec<Vec<BatchObservation>>,
}

impl StreamInput {
    fn network(&self) -> Network {
        let mut b = Net::builder(self.n);
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
        // Vendored proptest has no `option` strategy: the upper half of
        // the range means "no poison batch".
        let poison = 0usize..80;
        (links, messages, 1usize..6, poison).prop_map(move |(links, messages, batch, poison)| {
            let poison = (poison < 40).then_some(poison);
            let mut seen = std::collections::HashSet::new();
            let links: Vec<_> = links
                .into_iter()
                .filter(|&(a, b, _, _)| a != b && seen.insert((a.min(b), a.max(b))))
                .collect();
            let mut batches: Vec<Vec<_>> = messages
                .iter()
                .filter(|&&(src, dst, _, _)| src != dst)
                .map(|&(src, dst, send, delay)| obs(src, dst, send, send + delay))
                .collect::<Vec<_>>()
                .chunks(batch)
                .map(<[_]>::to_vec)
                .collect();
            if let Some(at) = poison {
                if !batches.is_empty() {
                    let at = at % batches.len();
                    batches[at].push(obs(0, 1, i64::MIN, i64::MAX));
                }
            }
            StreamInput { n, links, batches }
        })
    })
}

/// One request of a producer's stream: a batch, or a call that rides the
/// same queue (a retraction or a query).
#[derive(Debug, Clone)]
enum Request {
    Ingest(Vec<BatchObservation>),
    Forget(ProcessorId, ProcessorId),
    Outcome,
    Stats,
}

/// What a request got back. A retraction's drop counts are left out:
/// group commit runs one GC per coalesced run, so how much a link still
/// retains may differ from the per-batch reference (see the retention
/// caps below), while what it leaves behind — every later outcome — may
/// not.
#[derive(Debug, PartialEq)]
enum Answer {
    Ingest(Result<usize, String>),
    Forget(Result<(), String>),
    Outcome(Result<SyncOutcome, String>),
    Stats(Option<(usize, u64)>),
}

/// The domain's batches in order, each followed by the calls drawn for
/// it: `(after batch, kind, p, q)`, where kind 0 retracts `{p, q}` (an
/// endpoint may be out of range), 1 asks for the outcome and 2 for the
/// domain's statistics.
fn requests(input: &StreamInput, calls: &[(usize, u8, usize, usize)]) -> Vec<Request> {
    let mut out = Vec::new();
    for (i, batch) in input.batches.iter().enumerate() {
        out.push(Request::Ingest(batch.clone()));
        for &(at, kind, p, q) in calls {
            if at % input.batches.len() == i {
                out.push(match kind {
                    0 => Request::Forget(
                        ProcessorId(p % (input.n + 1)),
                        ProcessorId(q % (input.n + 1)),
                    ),
                    1 => Request::Outcome,
                    _ => Request::Stats,
                });
            }
        }
    }
    out
}

/// The sequential reference: one domain's request stream through a
/// synchronous single-owner service.
fn sequential_answers(
    input: &StreamInput,
    requests: &[Request],
    shards: usize,
    window: usize,
    name: &str,
) -> (Vec<Answer>, SyncService) {
    let mut svc = SyncService::new(shards, window);
    svc.register_domain(name, input.network()).unwrap();
    let answers = requests
        .iter()
        .map(|request| match request {
            Request::Ingest(batch) => Answer::Ingest(
                svc.ingest(&ObservationBatch::new(name, batch.clone()))
                    .map(|r| r.applied)
                    .map_err(|e| e.to_string()),
            ),
            Request::Forget(p, q) => Answer::Forget(
                svc.forget_link(name, *p, *q)
                    .map(|_| ())
                    .map_err(|e| e.to_string()),
            ),
            Request::Outcome => Answer::Outcome(svc.outcome(name).map_err(|e| e.to_string())),
            Request::Stats => Answer::Stats(svc.domain_stats(name).map(|s| (s.shard, s.ingested))),
        })
        .collect();
    (answers, svc)
}

/// The same stream through the worker engine. Batches are enqueued
/// without waiting and their receipts redeemed at the end, so batches
/// pile up and coalesce; each call waits for its answer, after every
/// batch enqueued before it and possibly while a group is forming.
fn concurrent_answers(svc: &ConcurrentService, requests: &[Request], name: &str) -> Vec<Answer> {
    enum Slot {
        Pending(PendingReceipt),
        Done(Answer),
    }
    let slots: Vec<Slot> = requests
        .iter()
        .map(|request| match request {
            Request::Ingest(batch) => Slot::Pending(
                svc.ingest(ObservationBatch::new(name, batch.clone()))
                    .expect("enqueue failed"),
            ),
            Request::Forget(p, q) => Slot::Done(Answer::Forget(
                svc.forget_link(name, *p, *q)
                    .map(|_| ())
                    .map_err(|e| e.to_string()),
            )),
            Request::Outcome => Slot::Done(Answer::Outcome(
                svc.outcome(name).map_err(|e| e.to_string()),
            )),
            Request::Stats => Slot::Done(Answer::Stats(
                svc.domain_stats(name).map(|s| (s.shard, s.ingested)),
            )),
        })
        .collect();
    slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Pending(p) => {
                Answer::Ingest(p.wait().map(|r| r.applied).map_err(|e| e.to_string()))
            }
            Slot::Done(answer) => answer,
        })
        .collect()
}

/// The batch receipts alone, as `(applied | error-string)` per batch.
fn receipts(answers: &[Answer]) -> Vec<Result<usize, String>> {
    answers
        .iter()
        .filter_map(|a| match a {
            Answer::Ingest(r) => Some(r.clone()),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// The tentpole invariant of the concurrent engine: for every domain,
    /// the answer to each request — batch receipts (applied counts *and*
    /// typed errors, in enqueue order), retractions, and outcome and
    /// statistics queries issued between batches not yet waited on —
    /// plus the final outcome and the ingested totals are bit-identical
    /// to sequential processing of that domain's stream. Across shard
    /// counts, queue depths (including depth 1, where every enqueue
    /// blocks), and group-commit sizes (including 1, which disables
    /// merging, and sizes that force the merged-apply fallback when a
    /// poisoned batch lands mid-group or hold back a call found while a
    /// group is forming).
    #[test]
    fn concurrent_ingestion_is_observationally_sequential(
        input in stream_input(),
        calls in proptest::collection::vec((0usize..40, 0u8..3, 0usize..6, 0usize..6), 0..6),
        shards in 1usize..4,
        window in 0usize..5,
        domains in 1usize..4,
        queue_depth in 1usize..8,
        max_coalesce in 1usize..64,
    ) {
        prop_assume!(!input.links.is_empty());
        prop_assume!(!input.batches.is_empty());
        let names: Vec<String> = (0..domains).map(|d| format!("d{d}")).collect();
        let requests = requests(&input, &calls);

        let svc = ConcurrentService::start(ServiceConfig {
            shards,
            window,
            queue_depth,
            max_coalesce,
        });
        for name in &names {
            svc.register_domain(name.as_str(), input.network()).unwrap();
        }
        // One producer thread per domain, sending that domain's stream in
        // order.
        let got: Vec<Vec<Answer>> = std::thread::scope(|scope| {
            let handles: Vec<_> = names
                .iter()
                .map(|name| {
                    let (svc, requests) = (&svc, &requests);
                    scope.spawn(move || concurrent_answers(svc, requests, name))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for (name, got) in names.iter().zip(&got) {
            let (expected, mut reference) =
                sequential_answers(&input, &requests, shards, window, name);
            prop_assert_eq!(got, &expected, "answers diverged for {}", name);
            let concurrent_outcome = svc.outcome(name).map_err(|e| e.to_string());
            let sequential_outcome = reference.outcome(name).map_err(|e| e.to_string());
            prop_assert_eq!(concurrent_outcome, sequential_outcome,
                "outcome diverged for {}", name);
            let stats = svc.domain_stats(name).unwrap();
            let ref_stats = reference.domain_stats(name).unwrap();
            prop_assert_eq!(stats.ingested, ref_stats.ingested);
            // Group commit runs one GC per coalesced run instead of one
            // per batch, so the exact retained counts may differ from the
            // per-batch reference in either direction (the GC's
            // keep-the-recency-tail rule is not confluent). What is
            // invariant is the analytic retention cap, which retractions
            // only lower: window + 2 witnesses per observed directed pair
            // for the message window, and for samples the same on
            // declared links and none elsewhere (the synchronizer keeps
            // no evidence off its declared links), for both engines.
            let declared: std::collections::HashSet<(usize, usize)> = input
                .links
                .iter()
                .flat_map(|&(p, q, _, _)| [(p, q), (q, p)])
                .collect();
            let mut applied_per_pair: std::collections::HashMap<(usize, usize), usize> =
                std::collections::HashMap::new();
            for (batch, r) in input.batches.iter().zip(receipts(&expected)) {
                if r.is_ok() {
                    for o in batch {
                        *applied_per_pair
                            .entry((o.src.index(), o.dst.index()))
                            .or_insert(0) += 1;
                    }
                }
            }
            let msg_cap: usize = applied_per_pair
                .values()
                .map(|&c| c.min(window + 2))
                .sum();
            let sample_cap: usize = applied_per_pair
                .iter()
                .filter(|(pair, _)| declared.contains(pair))
                .map(|(_, &c)| c.min(window + 2))
                .sum();
            for (engine, s) in [("concurrent", &stats), ("sequential", &ref_stats)] {
                prop_assert!(s.retained_messages <= msg_cap,
                    "{} retained {} messages over cap {}", engine, s.retained_messages, msg_cap);
                prop_assert!(s.retained_samples <= sample_cap,
                    "{} retained {} samples over cap {}", engine, s.retained_samples, sample_cap);
            }
        }
        svc.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drain-on-shutdown: producers enqueue without redeeming receipts
    /// and shutdown races in immediately afterwards. Every receipt must
    /// still arrive (no batch dropped, none applied twice), and the
    /// worker statistics must account for exactly the applied batches.
    #[test]
    fn shutdown_drains_every_enqueued_batch(
        input in stream_input(),
        shards in 1usize..4,
        queue_depth in 1usize..4,
    ) {
        prop_assume!(!input.links.is_empty());
        prop_assume!(!input.batches.is_empty());
        let svc = ConcurrentService::start(ServiceConfig {
            shards,
            window: 4,
            queue_depth,
            max_coalesce: 8,
        });
        svc.register_domain("d", input.network()).unwrap();
        let pending: Vec<PendingReceipt> = input
            .batches
            .iter()
            .map(|b| svc.ingest(ObservationBatch::new("d", b.clone())).unwrap())
            .collect();
        // Shut down with receipts still unredeemed: the contract is that
        // the workers drain the queues before exiting.
        let stats = svc.shutdown();

        let (expected, _) = sequential_answers(&input, &requests(&input, &[]), shards, 4, "d");
        let expected = receipts(&expected);
        let got: Vec<Result<usize, String>> = pending
            .into_iter()
            .map(|p| p.wait().map(|r| r.applied).map_err(|e| e.to_string()))
            .collect();
        prop_assert_eq!(&got, &expected);
        let applied: u64 = expected
            .iter()
            .map(|r| *r.as_ref().unwrap_or(&0) as u64)
            .sum();
        let failed: u64 = expected.iter().filter(|r| r.is_err()).count() as u64;
        prop_assert_eq!(stats.messages(), applied);
        prop_assert_eq!(stats.errors(), failed);
        prop_assert_eq!(
            stats.batches(),
            expected.len() as u64,
            "every batch processed exactly once (errored ones included)"
        );
    }
}

/// The deterministic regression for the drain contract: a full queue at
/// shutdown time (queue depth 1, slow consumer) still yields every
/// receipt.
#[test]
fn shutdown_with_full_queues_loses_nothing() {
    let net = Net::builder(2)
        .link(
            ProcessorId(0),
            ProcessorId(1),
            LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(1_000))),
        )
        .build();
    let svc = ConcurrentService::start(ServiceConfig {
        shards: 2,
        window: 2,
        queue_depth: 1,
        max_coalesce: 1,
    });
    svc.register_domain("d", net).unwrap();
    let pending: Vec<PendingReceipt> = (0..200)
        .map(|i| {
            let batch = ObservationBatch::new("d", vec![obs(0, 1, i * 1_000, i * 1_000 + 400)]);
            svc.ingest(batch).unwrap()
        })
        .collect();
    let stats = svc.shutdown();
    assert_eq!(stats.messages(), 200);
    for p in pending {
        assert_eq!(p.wait().unwrap().applied, 1);
    }
}
