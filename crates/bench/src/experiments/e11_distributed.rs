//! E11 — the distributed leader protocol (paper §7): every processor ends
//! up with a sound correction, and the measured cost of distribution is
//! the gap between the leader's probe-phase certificate and an omniscient
//! centralized run over the full traffic.

use clocksync::Synchronizer;
use clocksync_sim::{Simulation, Topology};
use clocksync_time::{Ext, Nanos, Ratio};

use super::common::{ext_us, mark, us};
use crate::Table;

/// Runs the experiment.
pub fn run() -> Table {
    let mut table = Table::new(
        "E11  distributed leader protocol (ring n=6, 2 probes/link)",
        &[
            "seed",
            "distributed cert(us)",
            "omniscient cert(us)",
            "true err(us)",
            "sound",
            "messages",
        ],
    );
    let sim = Simulation::builder(6)
        .uniform_links(
            Topology::Ring(6),
            Nanos::from_micros(60),
            Nanos::from_micros(500),
            9,
        )
        .probes(2)
        .build();
    for seed in 0..6u64 {
        let run = sim.run_distributed(seed);
        let precision = run.outcome.expect("fault-free leader computes").precision();
        let corrections: Option<Vec<Ratio>> = run.corrections.into_iter().collect();
        let central = Synchronizer::new(run.network)
            .synchronize(run.execution.views())
            .expect("consistent");
        let err = run
            .execution
            .discrepancy(&corrections.expect("fault-free processors are corrected"));
        table.push_row(vec![
            seed.to_string(),
            ext_us(precision),
            ext_us(central.precision()),
            us(err),
            mark(Ext::Finite(err) <= precision && central.precision() <= precision),
            run.execution.messages().len().to_string(),
        ]);
    }
    table.note("the gap between the two certificates is §7's open problem, measured.");
    table.note(
        "'sound' = true error within the distributed certificate AND omniscient <= distributed.",
    );
    table
}

#[cfg(test)]
mod tests {
    #[test]
    fn e11_all_sound() {
        let t = super::run();
        assert!(t.rows.iter().all(|r| r[4] == "yes"), "{t}");
    }
}
