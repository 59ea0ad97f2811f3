//! Command line of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scale-dcf|metro|dense-obss --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a provenance line, then the result line (the last line of
//! standard output). A traced run also writes its spans to
//! `.bench_out/spans-<workload>-<seed>.jsonl` under the repository root.

use std::process::exit;

use perfbench::workloads::{Params, Workload};

const USAGE: &str =
    "usage: perfbench --workload scale-dcf|metro|dense-obss --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = perfbench::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2)
    });
    let w = args.workload;
    let outcome = perfbench::run(w, &Params::bench(w), args.seed, args.seconds, args.trace);
    if args.trace {
        let dir = perfbench::host::repo_root().join(".bench_out");
        let path = dir.join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, &outcome.spans_jsonl));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            exit(2);
        }
    }
    println!("{}", outcome.provenance);
    println!("{}", outcome.result_line());
}
