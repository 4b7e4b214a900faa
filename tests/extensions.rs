//! Integration tests for the beyond-the-paper extensions: the distributed
//! leader protocol, the online synchronizer, the windowed bias model and
//! anchoring — exercised together and against each other.

use clocksync::{DelayRange, LinkAssumption, Network, OnlineSynchronizer, Synchronizer};
use clocksync_model::{ExecutionBuilder, ProcessorId};
use clocksync_sim::{DistRun, Simulation, Topology};
use clocksync_time::{Ext, Nanos, Ratio, RealTime};

fn us(x: i64) -> Nanos {
    Nanos::from_micros(x)
}

/// A fault-free leader run's true error and certificate.
fn audit(run: &DistRun) -> (Ratio, Ext<Ratio>) {
    let corrections: Option<Vec<Ratio>> = run.corrections.iter().copied().collect();
    let err = run
        .execution
        .discrepancy(&corrections.expect("every processor corrected"));
    (
        err,
        run.outcome.as_ref().expect("leader computed").precision(),
    )
}

#[test]
fn distributed_protocol_on_every_topology() {
    for topo in [
        Topology::Path(4),
        Topology::Ring(5),
        Topology::Star(5),
        Topology::Complete(4),
        Topology::Grid { rows: 2, cols: 3 },
    ] {
        let sim = Simulation::builder(topo.n())
            .uniform_links(topo, us(40), us(350), 17)
            .probes(2)
            .build();
        let (err, precision) = audit(&sim.run_distributed(3));
        assert!(precision.is_finite(), "{topo:?}");
        assert!(Ext::Finite(err) <= precision, "{topo:?}");
    }
}

#[test]
fn distributed_and_online_agree_with_batch_on_shared_evidence() {
    // Feed the online synchronizer the exact probe-phase evidence the
    // distributed leader saw (all probe/echo messages of the run) — the
    // two must compute identical certificates when given the same links.
    let sim = Simulation::builder(4)
        .uniform_links(Topology::Ring(4), us(40), us(350), 2)
        .probes(2)
        .build();
    let batch_run = sim.run(8);
    let batch = batch_run.synchronize().unwrap();

    let mut online = OnlineSynchronizer::new(batch_run.network.clone());
    online.ingest_views(batch_run.execution.views()).unwrap();
    let streamed = online.outcome().unwrap();
    assert_eq!(batch, streamed);
}

#[test]
fn online_synchronizer_tracks_a_live_stream() {
    let p = ProcessorId(0);
    let q = ProcessorId(1);
    let r = ProcessorId(2);
    let net = Network::builder(3)
        .link(
            p,
            q,
            LinkAssumption::symmetric_bounds(DelayRange::new(us(0), us(500))),
        )
        .link(q, r, LinkAssumption::rtt_bias(us(50)))
        .build();
    let mut online = OnlineSynchronizer::new(net);

    // Nothing observed: both pairs unbounded.
    assert_eq!(online.outcome().unwrap().precision(), Ext::PosInf);

    // p–q exchange arrives.
    online.observe_estimated_delay(p, q, us(200));
    online.observe_estimated_delay(q, p, us(250));
    let mid = online.outcome().unwrap();
    assert_eq!(mid.components().len(), 2, "r still unbounded");

    // q–r bias exchange arrives: system fully bounded now.
    online.observe_estimated_delay(q, r, us(400));
    online.observe_estimated_delay(r, q, us(430));
    let full = online.outcome().unwrap();
    assert!(full.precision().is_finite());
    assert_eq!(full.components().len(), 1);
    // The underlying p–q *constraints* did not loosen by learning about r
    // (closure entries are monotone; the corrections may re-balance, so
    // the realized pair bound legitimately can shift).
    for (i, j) in [(0usize, 1usize), (1, 0)] {
        let (p, q) = (ProcessorId(i), ProcessorId(j));
        assert!(full.global_shift_estimate(p, q) <= mid.global_shift_estimate(p, q));
    }
}

#[test]
fn windowed_bias_composes_with_other_assumptions() {
    let p = ProcessorId(0);
    let q = ProcessorId(1);
    // A link that is both floor-bounded and windowed-bias-bounded.
    let assumption = LinkAssumption::all(vec![
        LinkAssumption::symmetric_bounds(DelayRange::at_least(us(100))),
        LinkAssumption::paired_rtt_bias(us(10), Nanos::from_millis(1)),
    ]);
    let exec = ExecutionBuilder::new(2)
        .start(q, RealTime::from_micros(77))
        .round_trips(p, q, 1, RealTime::from_millis(10), us(1), us(150), us(155))
        .round_trips(p, q, 1, RealTime::from_millis(60), us(1), us(400), us(395))
        .build()
        .unwrap();
    let net = Network::builder(2).link(p, q, assumption).build();
    assert!(net.admits(&exec));
    let outcome = Synchronizer::new(net).synchronize(exec.views()).unwrap();
    assert!(outcome.precision().is_finite());
    // The windowed bias pins each round trip to ±(10+5)/2-ish; far better
    // than the 50us the floor alone would leave.
    assert!(outcome.precision() < Ext::Finite(Ratio::from_int(50_000)));
    let err = exec.discrepancy(outcome.corrections());
    assert!(Ext::Finite(err) <= outcome.precision());
}

#[test]
fn anchoring_to_a_reference_clock() {
    // p0 holds a GPS-disciplined clock: its offset from real time is
    // exactly known. After anchoring, every corrected clock tracks real
    // time within the same optimal precision.
    let sim = Simulation::builder(3)
        .uniform_links(Topology::Path(3), us(10), us(90), 4)
        .probes(2)
        .build();
    let run = sim.run(6);
    let outcome = run.synchronize().unwrap();

    // The observer knows p0's true offset: S_0 (its clock reads t − S_0,
    // so adding S_0 makes it real time).
    let s0 = Ratio::from(run.execution.start(ProcessorId(0)) - RealTime::ZERO);
    let anchored = outcome.anchored_corrections(ProcessorId(0), s0);

    // Every corrected clock now approximates real time: |S_i − x_i| ≤ ε.
    for (i, &x) in anchored.iter().enumerate() {
        let si = Ratio::from(run.execution.start(ProcessorId(i)) - RealTime::ZERO);
        let abs_err = (si - x).abs();
        assert!(
            Ext::Finite(abs_err) <= outcome.precision(),
            "p{i} drifted from real time by {abs_err}"
        );
    }
}

#[test]
fn distributed_protocol_handles_mixed_assumptions() {
    let sim = Simulation::builder(4)
        .truthful_link(
            0,
            1,
            clocksync_sim::LinkModel::symmetric(clocksync_sim::DelayDistribution::uniform(
                us(50),
                us(200),
            )),
        )
        .truthful_link(
            1,
            2,
            clocksync_sim::LinkModel::Correlated {
                base: clocksync_sim::DelayDistribution::uniform(us(500), us(5_000)),
                spread: us(100),
            },
        )
        .truthful_link(
            2,
            3,
            clocksync_sim::LinkModel::symmetric(clocksync_sim::DelayDistribution::heavy_tail(
                us(300),
                us(100),
                1.5,
            )),
        )
        .probes(3)
        .build();
    let (err, precision) = audit(&sim.run_distributed(12));
    assert!(precision.is_finite());
    assert!(Ext::Finite(err) <= precision);
}
