//! Regenerates every experiment table of the reproduction.
//!
//! Usage:
//!   tables                        # run all experiments (in parallel)
//!   tables --exp e4               # run one experiment
//!   tables --list                 # list experiment ids
//!   tables --bench-closure \[path\] # measure the closure fast path and
//!                                 # write BENCH_closure.json (default
//!                                 # path: BENCH_closure.json)
//!   tables --check-bench-closure PATH \[min_speedup\]
//!                                 # validate a BENCH_closure.json document
//!                                 # (schema + sparse-backend speedup floor
//!                                 # at n>=4096, density<=1%; default
//!                                 # floor 10)
//!   tables --bench-karp \[path\]    # measure the SHIFTS A_max kernels and
//!                                 # write BENCH_karp.json (default path:
//!                                 # BENCH_karp.json)
//!   tables --check-bench-karp PATH \[min_speedup\]
//!                                 # validate a BENCH_karp.json document
//!                                 # (schema + fast-kernel and
//!                                 # integer-Howard speedup floors at
//!                                 # n=256; default floor 10)
//!   tables --bench-ingest \[path\]  # measure the sharded ingestion service
//!                                 # and write BENCH_ingest.json (default
//!                                 # path: BENCH_ingest.json)
//!   tables --check-bench-ingest PATH \[min_throughput \[min_scaling\]\]
//!                                 # validate a BENCH_ingest.json document
//!                                 # (schema, bounded retention, GC wins,
//!                                 # throughput floor — default 50000/s —
//!                                 # and a threads>1 worker arm at least
//!                                 # min_scaling x the single-thread
//!                                 # baseline; default 2x)

use std::process::ExitCode;

use clocksync_bench::{closure_bench, ingest_bench, karp_bench, registry};
use rayon::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiments = registry();

    match args.as_slice() {
        [] => {
            // The experiments are independent pure functions; render them
            // concurrently and print in registry order.
            let outputs: Vec<String> = experiments
                .par_iter()
                .map(|(id, desc, run)| {
                    eprintln!("running {id}: {desc}");
                    run().to_string()
                })
                .collect();
            for table in outputs {
                println!("{table}");
            }
            ExitCode::SUCCESS
        }
        [flag] if flag == "--list" => {
            for (id, desc, _) in &experiments {
                println!("{id:<5} {desc}");
            }
            ExitCode::SUCCESS
        }
        [flag, id] if flag == "--exp" => match experiments.iter().find(|(eid, _, _)| eid == id) {
            Some((_, desc, run)) => {
                eprintln!("running {id}: {desc}");
                println!("{}", run());
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown experiment `{id}`; try --list");
                ExitCode::FAILURE
            }
        },
        [flag, rest @ ..] if flag == "--bench-closure" && rest.len() <= 1 => {
            let path = rest
                .first()
                .map(String::as_str)
                .unwrap_or("BENCH_closure.json");
            eprintln!("measuring closure fast path (this runs the O(n^3) generic kernel at n=512; expect a few minutes)");
            let doc = closure_bench::bench_closure_json();
            print!("{doc}");
            match std::fs::write(path, &doc) {
                Ok(()) => {
                    eprintln!("wrote {path}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("failed to write {path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        [flag, path, rest @ ..] if flag == "--check-bench-closure" && rest.len() <= 1 => {
            let floor: f64 = match rest.first().map(|s| s.parse()) {
                None => 10.0,
                Some(Ok(f)) => f,
                Some(Err(_)) => {
                    eprintln!("min_speedup must be a number");
                    return ExitCode::FAILURE;
                }
            };
            let doc = match std::fs::read_to_string(path) {
                Ok(doc) => doc,
                Err(e) => {
                    eprintln!("failed to read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match closure_bench::check_bench_closure_json(&doc, floor) {
                Ok(()) => {
                    eprintln!("{path} ok (sparse-backend speedup floor {floor}x)");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        [flag, rest @ ..] if flag == "--bench-karp" && rest.len() <= 1 => {
            let path = rest
                .first()
                .map(String::as_str)
                .unwrap_or("BENCH_karp.json");
            eprintln!("measuring SHIFTS A_max kernels (the exact rational Karp runs at n=256; expect a few minutes)");
            let doc = karp_bench::bench_karp_json();
            print!("{doc}");
            match std::fs::write(path, &doc) {
                Ok(()) => {
                    eprintln!("wrote {path}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("failed to write {path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        [flag, path, rest @ ..] if flag == "--check-bench-karp" && rest.len() <= 1 => {
            let floor: f64 = match rest.first().map(|s| s.parse()) {
                None => 10.0,
                Some(Ok(f)) => f,
                Some(Err(_)) => {
                    eprintln!("min_speedup must be a number");
                    return ExitCode::FAILURE;
                }
            };
            let doc = match std::fs::read_to_string(path) {
                Ok(doc) => doc,
                Err(e) => {
                    eprintln!("failed to read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match karp_bench::check_bench_karp_json(&doc, floor) {
                Ok(()) => {
                    eprintln!("{path} ok (fast-kernel and integer-Howard speedup floors {floor}x)");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        [flag, rest @ ..] if flag == "--bench-ingest" && rest.len() <= 1 => {
            let path = rest
                .first()
                .map(String::as_str)
                .unwrap_or("BENCH_ingest.json");
            eprintln!(
                "measuring sharded batched ingestion (100k messages per arm: \
                 single-thread baseline, multi-shard inline, worker pool) \
                 and the retention GC"
            );
            let doc = ingest_bench::bench_ingest_json();
            print!("{doc}");
            match std::fs::write(path, &doc) {
                Ok(()) => {
                    eprintln!("wrote {path}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("failed to write {path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        [flag, path, rest @ ..] if flag == "--check-bench-ingest" && rest.len() <= 2 => {
            let floor: f64 = match rest.first().map(|s| s.parse()) {
                None => 50_000.0,
                Some(Ok(f)) => f,
                Some(Err(_)) => {
                    eprintln!("min_throughput must be a number");
                    return ExitCode::FAILURE;
                }
            };
            let scaling: f64 = match rest.get(1).map(|s| s.parse()) {
                None => 2.0,
                Some(Ok(f)) => f,
                Some(Err(_)) => {
                    eprintln!("min_scaling must be a number");
                    return ExitCode::FAILURE;
                }
            };
            let doc = match std::fs::read_to_string(path) {
                Ok(doc) => doc,
                Err(e) => {
                    eprintln!("failed to read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match ingest_bench::check_bench_ingest_json(&doc, floor, scaling) {
                Ok(()) => {
                    eprintln!(
                        "{path} ok (throughput floor {floor} msgs/sec, \
                         worker-arm scaling floor {scaling}x)"
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!(
                "usage: tables [--list | --exp <id> | --bench-closure [path] | \
                 --check-bench-closure <path> [min_speedup] | \
                 --bench-karp [path] | --check-bench-karp <path> [min_speedup] | \
                 --bench-ingest [path] | \
                 --check-bench-ingest <path> [min_throughput [min_scaling]]]"
            );
            ExitCode::FAILURE
        }
    }
}
