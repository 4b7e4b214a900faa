//! Live run: real OS threads, real channels, real (injected) delays.
//!
//! Run with: `cargo run --example live_channels`
//!
//! Three processor threads start at secret offsets, run the simulator's
//! probe protocol over channels whose messages are held for a sampled
//! delay, and record only what the model allows them to see. The
//! harvested views go through the same optimal synchronizer as the
//! simulator-driven examples; the harness compares against the measured
//! true start offsets.

use clocksync_apps::{fmt_ext_us, fmt_us, row, section};
use clocksync_model::ProcessorId;
use clocksync_sim::{DelayDistribution, LinkModel, Simulation, Threads};
use clocksync_time::{Ext, Nanos, RealTime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ms = Nanos::from_millis;
    let uniform = |lo, hi| LinkModel::symmetric(DelayDistribution::uniform(ms(lo), ms(hi)));
    let run = Simulation::builder(3)
        .truthful_link(0, 1, uniform(1, 3))
        .truthful_link(1, 2, uniform(2, 5))
        .truthful_link(0, 2, uniform(1, 6))
        .probes(3)
        .spacing(ms(2))
        .start_spread(ms(4))
        .build()
        .run_threaded(2026, Threads::default());

    assert!(run.network.admits(&run.execution));
    let outcome = run.synchronize()?;

    section("live channel cluster: 3 threads, injected delays");
    row(
        "messages exchanged",
        run.execution.messages().len().to_string(),
    );
    row("guaranteed precision", fmt_ext_us(outcome.precision()));
    let achieved = run.execution.discrepancy(outcome.corrections());
    row("true discrepancy (measured)", fmt_us(achieved));
    assert!(Ext::Finite(achieved) <= outcome.precision());

    section("measured thread starts vs corrections");
    for i in 0..3 {
        let p = ProcessorId(i);
        row(
            &format!("{p}"),
            format!(
                "started at {}  correction {}",
                run.execution.start(p) - RealTime::ZERO,
                fmt_us(outcome.correction(p)),
            ),
        );
    }

    println!("\nThe synchronizer never saw a real time or a true delay —");
    println!("only the threads' own clock readings — yet its certificate");
    println!("holds against the measured ground truth.");
    Ok(())
}
