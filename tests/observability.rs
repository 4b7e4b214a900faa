//! Cross-crate guarantees of the observability layer (DESIGN.md §6):
//! recording is a pure *observer* — attaching a recorder never changes a
//! sync result — and every emitted trace round-trips through the strict
//! JSONL schema.

use clocksync_obs::{FieldValue, Recorder, Trace};
use clocksync_sim::{FaultPlan, Simulation, Topology};
use clocksync_time::Nanos;
use proptest::prelude::*;

fn ring_sim(n: usize, recorder: Recorder) -> Simulation {
    Simulation::builder(n)
        .uniform_links(
            Topology::Ring(n),
            Nanos::from_micros(50),
            Nanos::from_micros(400),
            11,
        )
        .probes(2)
        .recorder(recorder)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline determinism contract: for any seed and ring size, the
    /// outcome with an enabled recorder is bit-for-bit the outcome with a
    /// disabled one, which is bit-for-bit the recorder-free outcome.
    #[test]
    fn recorder_never_changes_the_outcome(seed in any::<u64>(), n in 3usize..7) {
        let plain = ring_sim(n, Recorder::disabled()).run(seed);
        let baseline = plain.synchronize().unwrap();

        let noop = Recorder::disabled();
        let with_noop = ring_sim(n, noop.clone()).run(seed);
        prop_assert_eq!(
            with_noop.synchronize_traced(&noop).unwrap(),
            baseline.clone()
        );

        let live = Recorder::enabled();
        let with_live = ring_sim(n, live.clone()).run(seed);
        prop_assert_eq!(
            with_live.synchronize_traced(&live).unwrap(),
            baseline
        );
        // ... and the live run actually recorded something.
        prop_assert!(!live.snapshot().records.is_empty());
    }

    /// Every trace a real run emits survives the strict JSONL decoder,
    /// and re-encoding the decoded trace is a fixpoint.
    #[test]
    fn emitted_traces_round_trip_through_jsonl(seed in any::<u64>()) {
        let recorder = Recorder::enabled();
        let run = ring_sim(4, recorder.clone()).run(seed);
        run.synchronize_traced(&recorder).unwrap();
        let jsonl = recorder.snapshot().to_jsonl();
        let decoded = Trace::from_jsonl(&jsonl).unwrap();
        let again = decoded.to_jsonl();
        prop_assert_eq!(Trace::from_jsonl(&again).unwrap(), decoded);
        prop_assert_eq!(again.clone(), Trace::from_jsonl(&again).unwrap().to_jsonl());
    }
}

#[test]
fn traced_pipeline_reports_stages_kernel_and_counters() {
    let recorder = Recorder::enabled();
    let run = ring_sim(5, recorder.clone()).run(7);
    run.synchronize_traced(&recorder).unwrap();
    let trace = recorder.snapshot();

    let spans = trace.span_names();
    for expected in [
        "sim.run",
        "sync.local_estimates",
        "sync.global_estimates",
        "sync.shifts",
        "sync.degradations",
    ] {
        assert!(spans.contains(&expected), "missing span {expected}");
    }
    // The closure-kernel choice is recorded on the global-estimates span.
    match trace.span_field("sync.global_estimates", "kernel") {
        Some(FieldValue::Str(kernel)) => {
            assert!(
                ["scaled-i64", "sparse-johnson", "rational-generic"].contains(&kernel.as_str()),
                "unexpected kernel {kernel}"
            );
        }
        other => panic!("kernel field missing or mistyped: {other:?}"),
    }
    // Engine counters are self-consistent: a ring of 5 with 2 probe
    // rounds delivers every message it sends, fault-free.
    let sent = trace.counter("sim.messages_sent").unwrap();
    let delivered = trace.counter("sim.messages_delivered").unwrap();
    assert_eq!(sent, delivered);
    assert!(trace.counter("sim.timers_fired").unwrap() > 0);
    assert!(trace.events_named("sim.probe_round").count() > 0);
}

#[test]
fn scaling_bailout_is_reported_not_silent() {
    use clocksync::global_estimates_traced;
    use clocksync_graph::{SquareMatrix, Weight};
    use clocksync_time::{Ext, Ratio};

    // An entry too large for the scaled-i64 kernels: the stage must fall
    // back to the generic kernel AND say so — span fields for the kernel
    // and reason, plus a `sync.closure_fallback` event — instead of
    // silently eating the O(n³) rational cost.
    let huge = Ext::Finite(Ratio::from_int(1i128 << 80));
    let m = SquareMatrix::from_fn(3, |i, j| {
        if i == j {
            <Ext<Ratio> as Weight>::zero()
        } else {
            huge
        }
    });
    let recorder = Recorder::enabled();
    global_estimates_traced(&m, &recorder).unwrap();
    let trace = recorder.snapshot();

    assert_eq!(
        trace.span_field("sync.global_estimates", "kernel"),
        Some(&FieldValue::Str("rational-generic".into()))
    );
    assert_eq!(
        trace.span_field("sync.global_estimates", "fallback_reason"),
        Some(&FieldValue::Str("magnitude-overflow".into()))
    );
    let events: Vec<_> = trace.events_named("sync.closure_fallback").collect();
    assert_eq!(events.len(), 1, "exactly one fallback event");
    let field = |key: &str| {
        events[0]
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    assert_eq!(
        field("kernel"),
        Some(FieldValue::Str("rational-generic".into()))
    );
    assert_eq!(
        field("reason"),
        Some(FieldValue::Str("magnitude-overflow".into()))
    );
    assert_eq!(field("n"), Some(FieldValue::Int(3)));

    // An entry off the half-nanosecond grid falls back the same way, and
    // says why.
    let third = SquareMatrix::from_fn(3, |i, j| match (i, j) {
        _ if i == j => <Ext<Ratio> as Weight>::zero(),
        (0, 1) => Ext::Finite(Ratio::new(1, 3)),
        _ => Ext::Finite(Ratio::from_int(5)),
    });
    let recorder = Recorder::enabled();
    global_estimates_traced(&third, &recorder).unwrap();
    let trace = recorder.snapshot();
    assert_eq!(
        trace.span_field("sync.global_estimates", "fallback_reason"),
        Some(&FieldValue::Str("off-grid".into()))
    );
    let events: Vec<_> = trace.events_named("sync.closure_fallback").collect();
    assert_eq!(events.len(), 1, "exactly one fallback event");
    assert!(events[0]
        .iter()
        .any(|(k, v)| k == "reason" && *v == FieldValue::Str("off-grid".into())));

    // A matrix of whole and half nanoseconds must NOT emit the fallback
    // event.
    let ok = SquareMatrix::from_fn(3, |i, j| {
        if i == j {
            <Ext<Ratio> as Weight>::zero()
        } else {
            Ext::Finite(Ratio::from_int(5))
        }
    });
    let recorder = Recorder::enabled();
    global_estimates_traced(&ok, &recorder).unwrap();
    let trace = recorder.snapshot();
    assert_eq!(trace.events_named("sync.closure_fallback").count(), 0);
    assert_eq!(
        trace.span_field("sync.global_estimates", "kernel"),
        Some(&FieldValue::Str("scaled-i64".into()))
    );
}

#[test]
fn faulty_run_counters_reflect_the_fault_log() {
    use clocksync_model::ProcessorId;
    let plan = FaultPlan::new().drop_messages(ProcessorId(0), ProcessorId(1), 0.5);
    let recorder = Recorder::enabled();
    let sim = Simulation::builder(4)
        .uniform_links(
            Topology::Ring(4),
            Nanos::from_micros(50),
            Nanos::from_micros(400),
            11,
        )
        .probes(4)
        .faults(plan)
        .recorder(recorder.clone())
        .build();
    let faulty = sim.run(3);
    let trace = recorder.snapshot();
    // The engine's dropped counter is exactly the fault log's count.
    assert_eq!(
        trace.counter("sim.messages_dropped").unwrap_or(0),
        faulty.faults.dropped.len() as u64
    );
}
