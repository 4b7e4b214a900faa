//! The paper's §7 distributed protocol, running inside the simulator.
//!
//! Run with: `cargo run --example distributed_leader`
//!
//! No processor ever sees another's view: links are probed pairwise with
//! timestamped messages, per-link shift estimates travel up a spanning
//! tree to a leader, the leader runs GLOBAL ESTIMATES + SHIFTS, and each
//! correction is routed back to its owner. The outside observer then
//! audits the result against the hidden true start times.

use clocksync_apps::{fmt_ext_us, fmt_us, row, section};
use clocksync_model::ProcessorId;
use clocksync_sim::{Simulation, Topology};
use clocksync_time::{Ext, Nanos, Ratio, RealTime};

fn main() {
    let sim = Simulation::builder(6)
        .uniform_links(
            Topology::RandomConnected {
                n: 6,
                extra_per_mille: 350,
            },
            Nanos::from_micros(80),
            Nanos::from_micros(600),
            5,
        )
        .probes(3)
        .start_spread(Nanos::from_millis(8))
        .build();

    let run = sim.run_distributed(2026);
    let precision = run.outcome.expect("fault-free leader computes").precision();
    let corrections: Vec<Ratio> = (run.corrections.into_iter().collect::<Option<_>>())
        .expect("every processor received its correction");

    section("distributed leader protocol, 6 processors");
    row(
        "messages exchanged (total)",
        run.execution.messages().len().to_string(),
    );
    row("leader-certified precision", fmt_ext_us(precision));
    let err = run.execution.discrepancy(&corrections);
    row("true discrepancy (hidden)", fmt_us(err));
    assert!(Ext::Finite(err) <= precision);

    section("per-processor results");
    for (i, &correction) in corrections.iter().enumerate() {
        let p = ProcessorId(i);
        row(
            &format!("{p}"),
            format!(
                "started {:>12}   received correction {}",
                (run.execution.start(p) - RealTime::ZERO).to_string(),
                fmt_us(correction),
            ),
        );
    }

    // How much optimality did distribution cost? An omniscient centralized
    // run also exploits the report/correction traffic.
    let central = clocksync::Synchronizer::new(run.network)
        .synchronize(run.execution.views())
        .expect("consistent");
    section("cost of distribution (the paper's §7 caveat)");
    row("distributed certificate", fmt_ext_us(precision));
    row("omniscient certificate", fmt_ext_us(central.precision()));
    println!("\nThe distributed protocol is optimal for the probe-phase views;");
    println!("the report traffic itself carries timing information it cannot");
    println!("use — exactly the open problem the paper states in §7.");
}
