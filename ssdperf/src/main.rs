//! End-to-end benchmark of `ssd`.
//!
//! ```text
//! cargo run --release --manifest-path ssdperf/Cargo.toml -- \
//!     --workload cold-check|warm-serve|data-apps --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run builds its inputs from the seed, times whole rounds of the
//! workload's operations for at least `--seconds`, checks the outputs
//! against computations made apart from the engine, and prints one JSON
//! object as its last line of output: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! ones with `--trace 1`). See README.md.

mod checks;
mod cold;
mod corpus;
mod data;
mod harness;
mod trace;
mod warm;

use std::time::Instant;

use harness::{Args, Outcome, RunDir};

fn main() {
    let start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ssdperf: {e}\n{}", Args::USAGE);
            std::process::exit(2);
        }
    };
    let code = {
        // The run directory is removed when this guard drops, which
        // happens on unwinding too.
        let dir = match RunDir::create(&args) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("ssdperf: cannot create the run directory: {e}");
                std::process::exit(1);
            }
        };
        let result = std::panic::catch_unwind(|| run(&args, start, &dir));
        match result {
            Ok(Ok(out)) => {
                out.print(&args);
                0
            }
            Ok(Err(e)) => {
                eprintln!("ssdperf: {e}");
                1
            }
            Err(_) => 1,
        }
    };
    std::process::exit(code);
}

fn run(args: &Args, start: Instant, dir: &RunDir) -> Result<Outcome, String> {
    let tracer = trace::Tracer::new(args.trace);
    let out = match args.workload.as_str() {
        "cold-check" => cold::run(args, start, &tracer, dir),
        "warm-serve" => warm::run(args, start, &tracer, dir),
        "data-apps" => data::run(args, start, &tracer, dir),
        other => return Err(format!("unknown workload {other:?}")),
    }?;
    if args.trace {
        let path = std::path::Path::new(".bench_trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    Ok(out)
}
