//! Shared helpers for the figure/table benches.
//!
//! Every bench target in this crate regenerates one figure or table of
//! the source text: it prints the series/report (the reproduction) and
//! then times the underlying simulation kernel with a std-only harness
//! (no external bench framework, so the workspace builds offline).

use std::time::{Duration, Instant};

use wn_core::experiment::ExperimentReport;
use wn_sim::stats::Figure;

/// Prints a regenerated figure as an aligned table.
pub fn print_figure(fig: &Figure) {
    println!("\n{}", fig.to_table());
}

/// Prints an experiment report and asserts it reproduced the paper.
pub fn print_report(report: &ExperimentReport) {
    println!("{}", report.to_markdown());
    assert!(
        report.passed(),
        "experiment {} did not reproduce",
        report.id
    );
}

/// Timing summary for one benched kernel.
#[derive(Debug, Clone, Copy)]
pub struct BenchStats {
    /// Number of timed iterations.
    pub iters: u32,
    /// Fastest observed iteration.
    pub min: Duration,
    /// Arithmetic mean over all timed iterations.
    pub mean: Duration,
}

/// Times `f` with one warm-up call plus enough timed iterations to fill
/// roughly `target` of wall clock (at least three), and prints a
/// one-line summary. Returns the stats so callers can post-process.
pub fn bench_kernel<R>(name: &str, target: Duration, mut f: impl FnMut() -> R) -> BenchStats {
    // Warm-up; also gives us a cost estimate to size the iteration count.
    let warm = Instant::now();
    std::hint::black_box(f());
    let per_iter = warm.elapsed().max(Duration::from_nanos(1));
    let iters = (target.as_nanos() / per_iter.as_nanos()).clamp(3, 1000) as u32;

    let mut min = Duration::MAX;
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(f());
        let dt = t.elapsed();
        min = min.min(dt);
        total += dt;
    }
    let stats = BenchStats {
        iters,
        min,
        mean: total / iters,
    };
    println!(
        "bench {:<40} iters {:>5}  min {:>12.3?}  mean {:>12.3?}",
        name, stats.iters, stats.min, stats.mean
    );
    stats
}

/// [`bench_kernel`] with the default 2-second measurement budget the old
/// criterion configuration used.
pub fn bench<R>(name: &str, f: impl FnMut() -> R) -> BenchStats {
    bench_kernel(name, Duration::from_secs(2), f)
}
