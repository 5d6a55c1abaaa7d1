//! `gradbench`: the end-to-end and per-layer benchmark of the gradest
//! ingestion service and city batch job.
//!
//! ```text
//! cargo run --release --manifest-path gradbench/Cargo.toml -- \
//!     --workload serve_ingest --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `serve_ingest`, `serve_read_mix`, `batch_city` (see
//! `README.md` for what each runs and why). The run prints its
//! correctness checks and a table of metrics, then one JSON line:
//! every end-to-end metric with `--trace 0`, every per-layer metric
//! with `--trace 1`. It exits 1 when a correctness check fails, 2 on a
//! usage error, and 3 when the load generator fell behind its schedule
//! (no result is printed then).

mod batch;
mod ingest;
mod inputs;
mod readmix;
mod report;
mod serve;
mod stats;

use std::process::ExitCode;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// The run length used when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;
/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["serve_ingest", "serve_read_mix", "batch_city"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value.parse().map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("gradbench: {why}");
            eprintln!(
                "usage: gradbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "serve_ingest" => ingest::run(args.seed, args.seconds, args.traced),
        "serve_read_mix" => readmix::run(args.seed, args.seconds, args.traced),
        _ => batch::run(args.seed, args.seconds, args.traced),
    };
    print!("{}", report::table_text(&args.workload, args.seed, &report, args.traced));
    if let Some(why) = &report.invalid {
        eprintln!("gradbench: run invalid, no result reported: {why}");
        return ExitCode::from(3);
    }
    let metrics = report.metrics(args.traced);
    if args.traced {
        for m in &metrics {
            println!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
        }
        if let Some(spans) = &report.spans {
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
            let path = dir.join(format!("spans-{}-seed{}.csv", args.workload, args.seed));
            match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_csv()))
            {
                Ok(()) => println!("  {} spans written to {}", spans.spans().len(), path.display()),
                Err(e) => eprintln!("gradbench: cannot write {}: {e}", path.display()),
            }
        }
    }
    let correct = report.correct() && metrics.iter().all(|m| m.value.is_finite());
    println!("{}", report::result_json(correct, &report.outcomes, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
