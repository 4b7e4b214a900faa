//! Stage-attributed benchmark of the clocksync pipeline.
//!
//! One run sets up, then measures three arms on the same seeded inputs,
//! each for a third of `--seconds`:
//!
//! * **batch sync** — `Synchronizer::synchronize` on complete views;
//! * **warm resync** — one tightening observation into a warm
//!   `OnlineSynchronizer`, then `outcome()`;
//! * **wire ingest** — batch frames and outcome queries from concurrent
//!   closed-loop producers into an in-process `serve --listen` acceptor
//!   over loopback TCP.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wan --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-stage metrics with `--trace 1` (see README.md).

mod batch;
mod inputs;
mod resync;
mod stats;
mod wire;

use std::time::{Duration, Instant};

use clocksync_sim::SimRun;

use inputs::{Domain, Rng, Shape};
use stats::{median, Stopwatch};

struct Workload {
    name: &'static str,
    shape: Shape,
    /// Simulated executions per run. The batch and resync arms cycle
    /// through them, so a run's figure averages over this many draws of
    /// delays and clock offsets: enough that seed-to-seed spread stays
    /// within a few percent.
    instances: usize,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "wan",
        shape: Shape::Wan(192),
        instances: 40,
    },
    Workload {
        name: "complete",
        shape: Shape::Complete(32),
        instances: 128,
    },
];

/// Draws each workload's graph and per-link delay bounds.
const NETWORK_SEED: u64 = 0x00C1_0C45_11C0;

/// Setup is repeated this many times and reported as the median.
const SETUP_ROUNDS: usize = 5;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| s > 0)
                        .ok_or(format!("bad --seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    // The network is part of the workload's definition; the seed draws
    // the traffic over it: delays, hidden clock offsets and streams.
    let domain = Domain::generate(w.shape, &mut Rng::new(NETWORK_SEED));
    let mut rng = Rng::new(args.seed);
    let instances: Vec<SimRun> = (0..w.instances)
        .map(|_| domain.simulate(rng.next_u64()))
        .collect();
    let ingest_seed = rng.next_u64();

    // Set-up: warm every instance's online engine and bring the acceptor
    // up with its domains registered, their retention windows full and
    // their engines warm.
    // Repeated; every round but the last is torn down again.
    let mut setup = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_ROUNDS {
        if let Some((_, server)) = state.take() {
            wire::Server::stop(server)?;
        }
        let mut clock = Stopwatch::new();
        let warm = resync::setup(&domain, &instances, args.seed, &mut clock)?;
        let server = wire::start(&domain, &instances, ingest_seed, args.trace, &mut clock)?;
        setup.push((clock.raw_ns, clock.norm_ns));
        state = Some((warm, server));
    }
    let (mut warm, server) = state.ok_or("no setup round ran")?;
    let setup = (
        median(&setup.iter().map(|s| s.0).collect::<Vec<_>>()),
        median(&setup.iter().map(|s| s.1).collect::<Vec<_>>()),
    );

    let share = Duration::from_secs(args.seconds) / 3;
    let cold: Vec<&_> = warm.iter().map(|w| &w.cold).collect();
    let b = batch::run(&instances, &cold, Instant::now() + share, args.trace);
    let r = resync::run(
        &domain,
        &instances,
        &mut warm,
        Instant::now() + share,
        args.trace,
    );
    let x = wire::run(&domain, &instances, server, Instant::now() + share);

    let errors: Vec<&String> = b.errors.iter().chain(&r.errors).chain(&x.errors).collect();
    for e in errors.iter().take(20) {
        eprintln!("check failed: {e}");
    }
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut m: Vec<(&str, f64, &str)> = batch::STAGES
            .iter()
            .zip(&b.stage_ns)
            .map(|((_, metric), ns)| (*metric, ns / 1e3, "us"))
            .collect();
        m.extend([
            ("sync.traced_call_us", b.call.1 / 1e3, "us"),
            ("online.observe_us", r.observe_ns / 1e3, "us"),
            ("online.outcome_us", r.outcome_ns / 1e3, "us"),
            ("wire.roundtrip_mean_us", x.mean_roundtrip_ns / 1e3, "us"),
            (
                "wire.frame_decode_reply_us",
                (x.mean_roundtrip_ns - x.batch_latency_ns) / 1e3,
                "us",
            ),
            ("svc.batch_latency_us", x.batch_latency_ns / 1e3, "us"),
            ("wire.outcome_us", x.outcome_ns / 1e3, "us"),
            ("svc.coalesced_batch_pct", x.coalesced_pct, "%"),
            ("svc.gc_dropped_per_batch", x.gc_dropped, "count"),
            (
                "svc.samples_compacted_per_batch",
                x.samples_compacted,
                "count",
            ),
        ]);
        m
    } else {
        vec![
            ("sync_ms", b.call.1 / 1e6, "ms"),
            ("resync_us", r.step.1 / 1e3, "us"),
            ("ingest_us", x.per_batch.1 / 1e3, "us"),
            ("setup_s", setup.1 / 1e9, "s"),
        ]
    };
    // Wall-clock figures before normalization, for the reader.
    println!(
        "# raw: sync_ms={:.4} resync_us={:.1} ingest_us={:.1} setup_s={:.4}",
        b.call.0 / 1e6,
        r.step.0 / 1e3,
        x.per_batch.0 / 1e3,
        setup.0 / 1e9,
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# workload={} seed={} seconds={} trace={} cores={cores} instances={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.instances,
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
        })
        .collect();
    let failed = b.failed + r.failed + x.failed;
    Ok(format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {failed}, "metrics": {{{}}}}}"#,
        errors.is_empty() && failed == 0,
        b.attempted + r.attempted + x.attempted,
        body.join(", ")
    ))
}
