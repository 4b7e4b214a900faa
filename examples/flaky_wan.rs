//! A WAN under fire: message loss, a link-down window and a crash-stopped
//! processor — and the guarantees that survive all of it.
//!
//! Run with: `cargo run --example flaky_wan`
//! (add `--trace out.jsonl` to record a full observability trace of both
//! the simulated run and the live threaded-cluster segment, then render
//! it with `clocksync trace summarize --in out.jsonl`)
//!
//! Topology (5 sites, a ring):
//!
//! ```text
//!   hub0 ── edge1 ── edge2 ── edge3 ── edge4 ── hub0
//! ```
//!
//! Faults injected (see `DESIGN.md` §5 for the degradation contract):
//!
//! * link 1–2 loses 30% of its messages;
//! * link 0–4 is **down** for a window in the middle of the probe phase;
//! * edge3 **crash-stops** mid-protocol.
//!
//! The synchronizer is a pure function of evidence, so none of this makes
//! the run fail — links slide down the degradation lattice (bounds →
//! no-bounds → dropped → component split) and the outcome reports where
//! each one landed, with per-component corrections that remain optimal
//! for whatever evidence survived.

use clocksync_apps::{fmt_ext_us, row, section, trace_flag};
use clocksync_model::ProcessorId;
use clocksync_obs::Recorder;
use clocksync_sim::{DelayDistribution, FaultPlan, LinkModel, Simulation, Threads, Topology};
use clocksync_time::{Nanos, RealTime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace_path = trace_flag();
    let recorder = if trace_path.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let us = RealTime::from_micros;
    let plan = FaultPlan::new()
        .drop_messages(ProcessorId(1), ProcessorId(2), 0.3)
        .link_down(ProcessorId(0), ProcessorId(4), us(100), us(4_000))
        .crash(ProcessorId(3), us(2_500));

    let sim = Simulation::builder(5)
        .uniform_links(
            Topology::Ring(5),
            Nanos::from_micros(20),
            Nanos::from_micros(200),
            1,
        )
        .probes(3)
        .faults(plan)
        .recorder(recorder.clone())
        .build();

    let run = sim.run(7);
    section("what actually went wrong (engine ground truth)");
    row("messages dropped", run.faults.dropped.len().to_string());
    row(
        "messages duplicated",
        run.faults.duplicated.len().to_string(),
    );
    for &(p, at) in &run.faults.crashed {
        row("crash-stop", format!("{p} at {at}"));
    }

    // The faulty execution is still a perfectly valid execution of the
    // model — the processors just saw less.
    assert!(run.is_admissible(), "faults never forge evidence");
    let outcome = run.synchronize_traced(&recorder)?;

    section("degradation report");
    if outcome.degradations().is_empty() {
        println!("  (every link delivered evidence both ways)");
    }
    for d in outcome.degradations() {
        println!("  {d}");
    }

    section("surviving guarantees, per component");
    for (k, c) in outcome.components().iter().enumerate() {
        let members: Vec<String> = c.members.iter().map(|p| p.to_string()).collect();
        row(
            &format!("component {k} = {{{}}}", members.join(", ")),
            format!(
                "precision {}",
                fmt_ext_us(clocksync_time::Ext::Finite(c.precision))
            ),
        );
    }
    if !outcome.is_fully_synchronized() {
        println!("\n  cross-component bounds are honestly infinite: no evidence");
        println!("  connects the components, so no algorithm could do better.");
    }

    section("pairwise bounds (hub0 against everyone)");
    for i in 1..5 {
        row(
            &format!("hub0 vs edge{i}"),
            fmt_ext_us(outcome.pair_bound(ProcessorId(0), ProcessorId(i))),
        );
    }

    println!("\nEvery surviving pair keeps the tightest bound its remaining");
    println!("evidence supports (optimal per instance); the crashed site and");
    println!("the starved links are reported, not papered over.");

    // The same story on real threads: a 3-site cluster whose middle link
    // loses 40% of its messages, so retries and backoff fire before the
    // probe rounds land. With `--trace`, this segment contributes the
    // per-link retry counters, RTT/backoff histograms and link-health
    // events to the trace.
    section("live threaded cluster with a lossy link");
    let link = LinkModel::symmetric(DelayDistribution::uniform(
        Nanos::from_micros(200),
        Nanos::from_millis(1),
    ));
    let net = Simulation::builder(3)
        .truthful_link(0, 1, link.clone())
        .truthful_link(1, 2, link)
        .probes(2)
        .spacing(Nanos::from_millis(2))
        .start_spread(Nanos::from_millis(2))
        .retry(Nanos::from_millis(8), 5)
        .faults(FaultPlan::new().drop_messages(ProcessorId(1), ProcessorId(2), 0.4))
        .recorder(recorder.clone())
        .build()
        .run_threaded(7, Threads::default());
    for h in &net.health {
        row(&format!("link {}–{}", h.a, h.b), h.state.to_string());
    }
    let live = net.synchronize()?;
    row("live precision", fmt_ext_us(live.precision()));

    if let Some(path) = trace_path {
        std::fs::write(&path, recorder.snapshot().to_jsonl())?;
        println!("\ntrace written to {path}");
        println!("render it with: clocksync trace summarize --in {path}");
    }
    Ok(())
}
