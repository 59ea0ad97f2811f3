//! perfsuite — profiles the full experiment campaign and records it to
//! `BENCH_campaign.json`.
//!
//! Run with: `cargo run --release -p wn-bench --bin perfsuite -- [--threads N] [--out PATH]`
//!
//! Three passes over the campaign:
//!
//! - **serial** runs every experiment of the registry one at a time on
//!   the calling thread and records a row per experiment: wall clock,
//!   simulated events (the kernel's global processed-event counter) and
//!   events per second — the per-experiment profile;
//! - **parallel** renders the campaign on `--threads N` workers
//!   (default: detected parallelism / `WN_THREADS`);
//! - **tracing-off** repeats the parallel pass with the observability
//!   kill switch off ([`wn_sim::set_observability`]).
//!
//! All three must render byte-identical markdown (the serial pass is the
//! header plus each experiment's section, in registry order), and the
//! serial and parallel passes must process the same events, so the
//! speedup is measured on equivalent work. Layer-by-layer timings
//! (scheduler replay, observability overhead, shard planning, …) live
//! in the repository benchmark, `perfbench/`.
//!
//! The file is stamped with the git revision (`-dirty` when the tree
//! has changes, `unavailable` outside a checkout), the repeat count and
//! the host's core count; regenerate it whole rather than editing it.
//! `--out` is created before the first pass, so an unwritable path
//! fails at once instead of after the campaign.

use std::fs::File;
use std::io::Write;
use std::process::{exit, Command};
use std::time::Instant;

use wn_core::runner;
use wn_sim::{global_events_processed, set_observability, worker_count};

/// Wall clock and simulated events of one timed unit of work.
struct Timing {
    wall_s: f64,
    events: u64,
}

impl Timing {
    fn of<T>(f: impl FnOnce() -> T) -> (T, Timing) {
        let ev0 = global_events_processed();
        let t0 = Instant::now();
        let out = f();
        let wall_s = t0.elapsed().as_secs_f64();
        let events = global_events_processed() - ev0;
        (out, Timing { wall_s, events })
    }

    /// `"wall_s": …, "events": …, "events_per_s": …` (no braces).
    fn fields(&self) -> String {
        format!(
            "\"wall_s\": {:.3}, \"events\": {}, \"events_per_s\": {:.0}",
            self.wall_s,
            self.events,
            self.events as f64 / self.wall_s.max(f64::MIN_POSITIVE)
        )
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("perfsuite: {msg}");
    exit(2)
}

/// `git rev-parse --short HEAD`, suffixed `-dirty` when the working
/// tree has changes; `"unavailable"` when git or the checkout is not.
fn git_rev() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match (
        git(&["rev-parse", "--short", "HEAD"]),
        git(&["status", "--porcelain"]),
    ) {
        (Some(rev), Some(status)) if status.is_empty() => rev,
        (Some(rev), Some(_)) => format!("{rev}-dirty"),
        _ => "unavailable".to_string(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threads: Option<usize> = None;
    let mut out_path = String::from("BENCH_campaign.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                i += 1;
                threads = args.get(i).and_then(|v| v.parse().ok()).filter(|&n| n >= 1);
                if threads.is_none() {
                    fail("--threads needs a count >= 1");
                }
            }
            "--out" => {
                i += 1;
                out_path = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| fail("--out needs a path"));
            }
            other => fail(&format!(
                "unknown flag '{other}' (supported: --threads N, --out PATH)"
            )),
        }
        i += 1;
    }
    let threads = threads.unwrap_or_else(worker_count).max(1);

    // Stamp the revision before the output file exists: a tracked
    // `BENCH_campaign.json` truncated by `File::create` would otherwise
    // mark every run dirty.
    let rev = git_rev();
    let mut out = File::create(&out_path)
        .unwrap_or_else(|e| fail(&format!("cannot write '{out_path}': {e}")));

    eprintln!("perfsuite: serial pass (1 thread, one experiment at a time)…");
    let mut serial_md = runner::header();
    let mut rows = Vec::new();
    let ((), serial) = Timing::of(|| {
        for e in runner::experiments() {
            let (section, t) = Timing::of(|| e.run().markdown);
            eprintln!(
                "perfsuite:   {:<12} {:>8.3} s {:>12} events",
                e.id, t.wall_s, t.events
            );
            serial_md.push_str(&section);
            rows.push(format!("    {{ \"id\": \"{}\", {} }}", e.id, t.fields()));
        }
    });
    eprintln!("perfsuite: serial {}", serial.fields());

    eprintln!("perfsuite: parallel pass ({threads} threads)…");
    let (parallel_md, parallel) = Timing::of(|| runner::campaign_markdown(threads));
    eprintln!("perfsuite: parallel {}", parallel.fields());
    assert_eq!(
        serial_md, parallel_md,
        "campaign output must be byte-identical across thread counts"
    );
    assert_eq!(
        serial.events, parallel.events,
        "both passes must process the same simulated events"
    );

    eprintln!("perfsuite: tracing-off pass ({threads} threads)…");
    set_observability(false);
    let (untraced_md, untraced) = Timing::of(|| runner::campaign_markdown(threads));
    set_observability(true);
    eprintln!("perfsuite: tracing-off {}", untraced.fields());
    assert_eq!(
        parallel_md, untraced_md,
        "figures must not depend on the trace (kill switch changed the output)"
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // A single-core host runs "parallel" on one worker by construction,
    // so serial/parallel wall clocks differ only by noise; a ratio there
    // would read as a regression, so the verdict says why it is absent.
    let speedup = if cores < 2 {
        "\"speedup\": null,\n  \"speedup_verdict\": \"skipped: single-core host, parallel pass degenerates to serial\"".to_string()
    } else {
        format!(
            "\"speedup\": {:.2},\n  \"speedup_verdict\": \"parallel over serial campaign on {cores} cores\"",
            serial.wall_s / parallel.wall_s
        )
    };
    let json = format!(
        "{{\n  \"campaign\": \"EXPERIMENTS.md full regeneration\",\n  \"rev\": \"{rev}\",\n  \"repeats\": 1,\n  \"host_cores\": {cores},\n  \"identical_output\": true,\n  \"serial\": {{ \"threads\": 1, {} }},\n  \"parallel\": {{ \"threads\": {threads}, {} }},\n  \"tracing_off\": {{ \"threads\": {threads}, {} }},\n  {speedup},\n  \"experiments\": [\n{}\n  ]\n}}\n",
        serial.fields(),
        parallel.fields(),
        untraced.fields(),
        rows.join(",\n"),
    );
    if let Err(e) = out.write_all(json.as_bytes()) {
        fail(&format!("cannot write '{out_path}': {e}"));
    }
    eprintln!(
        "perfsuite: {} experiments on {cores} core(s) -> {out_path}",
        rows.len()
    );
    print!("{json}");
}
