//! Regenerates `EXPERIMENTS.md`: runs every registered experiment
//! through the `wn-core` campaign runner and writes the paper-vs-
//! measured record.
//!
//! Run with: `cargo run -p wn-bench --bin report > EXPERIMENTS.md`
//!
//! Flags:
//! - `--threads N` — worker count for the campaign pool (default: the
//!   `WN_THREADS` env var, else the machine's parallelism). Output is
//!   byte-identical for every N.
//! - `--only <id>` — run a single experiment (repeatable); sections
//!   come out in registry order, without the file preamble.
//! - `--trace-json PATH` — also write the typed trace events of every
//!   instrumented experiment as JSONL (registry order, byte-identical
//!   for any `--threads`).
//! - `--metrics-json PATH` — likewise for per-layer metric snapshots.
//!   Both files are created before any experiment runs, so an
//!   unwritable path exits 1 at once.
//! - `--list` — print the experiment registry and exit.

use std::fs::File;
use std::io::Write;
use wn_core::runner;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut only: Vec<String> = Vec::new();
    let mut threads: Option<usize> = None;
    let mut trace_json: Option<String> = None;
    let mut metrics_json: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--only" => {
                i += 1;
                let id = args.get(i).unwrap_or_else(|| {
                    eprintln!("--only needs an experiment id (see --list)");
                    std::process::exit(2);
                });
                only.push(id.clone());
            }
            "--threads" => {
                i += 1;
                let n = args
                    .get(i)
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--threads needs a count >= 1");
                        std::process::exit(2);
                    });
                threads = Some(n);
            }
            "--trace-json" => {
                i += 1;
                let path = args.get(i).unwrap_or_else(|| {
                    eprintln!("--trace-json needs an output path");
                    std::process::exit(2);
                });
                trace_json = Some(path.clone());
            }
            "--metrics-json" => {
                i += 1;
                let path = args.get(i).unwrap_or_else(|| {
                    eprintln!("--metrics-json needs an output path");
                    std::process::exit(2);
                });
                metrics_json = Some(path.clone());
            }
            "--list" => {
                for e in runner::experiments() {
                    println!("{:12} {}", e.id, e.title);
                }
                return;
            }
            other => {
                eprintln!(
                    "unknown flag '{other}' (supported: --only <id>, --threads N, \
                     --trace-json PATH, --metrics-json PATH, --list)"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let threads = threads.unwrap_or_else(wn_sim::worker_count);
    // Both exports are created before any experiment runs, so an
    // unwritable path fails at once rather than after the campaign.
    let trace_out = trace_json.map(|path| create_output(&path));
    let metrics_out = metrics_json.map(|path| create_output(&path));

    if only.is_empty() {
        print!("{}", runner::campaign_markdown(threads));
    } else {
        match runner::run_selected(threads, &only) {
            Ok(outputs) => {
                for o in outputs {
                    print!("{}", o.markdown);
                }
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    if trace_out.is_some() || metrics_out.is_some() {
        let outs = runner::run_observability(threads);
        if let Some(out) = trace_out {
            write_output(out, &runner::observability_trace_jsonl(&outs));
        }
        if let Some(out) = metrics_out {
            write_output(out, &runner::observability_metrics_jsonl(&outs));
        }
    }
}

/// Creates (truncates) the export file at `path`, or exits 1 naming it.
fn create_output(path: &str) -> (String, File) {
    match File::create(path) {
        Ok(file) => (path.to_string(), file),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Writes `body` through an export file opened by [`create_output`].
fn write_output((path, mut file): (String, File), body: &str) {
    if let Err(e) = file.write_all(body.as_bytes()) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}
