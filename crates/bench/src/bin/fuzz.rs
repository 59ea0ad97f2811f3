//! fuzz — the deterministic simulation fuzzer's command-line front end.
//!
//! Run with: `cargo run --release -p wn-bench --bin fuzz -- --seeds 500`
//!
//! Each seed maps to one generated scenario (`wn-check`'s
//! `ScenarioGen`), runs it through the engines single-threaded, and
//! checks the typed trace against every invariant oracle — including
//! `scheduler-order`, which replays the run's recorded scheduler op
//! stream through a reference binary heap and demands the timer
//! wheel's exact pop order. Seeds are independent, so ranges fan out
//! across workers with identical results for any worker count.
//!
//! Flags:
//! - `--seeds N` — fuzz seeds `start..start+N` (default 500).
//! - `--start S` — first seed of the range (default 0).
//! - `--seed N` — run exactly one seed (overrides `--seeds`/`--start`).
//! - `--shrink` — on violation, minimise the scenario (halve stations,
//!   traffic, duration while it still fails) and print the shrunk
//!   repro before exiting.
//! - `--threads T` — worker count for range runs (default: `WN_THREADS`
//!   env var, else detected parallelism).
//! - `--propagation-diff` — differential propagation mode: replay
//!   every seed on the cached path (grid-backed sparse rows under the
//!   static log-distance model) and on the direct path (the same loss
//!   declared time-varying, evaluated per transmission) and fail
//!   unless the trace and metrics fingerprints are byte-identical
//!   (DESIGN.md §13/§17, including under ESS mobility). Every run
//!   additionally plans a multi-cell CITY-DCF street grid through
//!   `shard_plan` and `wn-check`'s brute-force reference planner and
//!   demands identical partitions and coherent re-validation; then it
//!   moves one sender next to a co-channel cell and demands that both
//!   validators reject the stale plan with the same witness pair.
//! - `--shard-diff` — differential sharding mode: partition every
//!   seed's deployment into interference shards and replay the
//!   composition as a sliced serial reference and as independent jobs
//!   at 1, 2 and 4 workers, demanding byte-identical trace and metrics
//!   digests (DESIGN.md §15). Range runs additionally run a
//!   multi-shard CITY-DCF grid the generated scenarios cannot reach at
//!   1, 2 and 4 workers.
//!   Non-medium kinds (Bluetooth/ZigBee/WiMAX) are skipped.
//! - `--qos` — the EDCA/A-MPDU corpus (DESIGN.md §16): every seed maps
//!   to a QoS WLAN world (mixed-AC traffic, aggregation on/off, OBSS
//!   twin cells), each run oracle-checked (the scheduler-order oracle
//!   included) and replayed through the cached and direct propagation
//!   paths and the shard differential, demanding byte-identical
//!   fingerprints throughout. The leg then
//!   runs two gates: the AIFSN-swap fail-point self-test (the planted
//!   AC_VO/AC_BK parameter swap must be caught by the
//!   priority-inversion oracle and shrunk to a small repro) and the
//!   legacy-equivalence differential (the classic 200-seed digest must
//!   still hash to its recorded pre-QoS fingerprint, proving the QoS
//!   machinery is byte-invisible when off).
//!
//! On any violation the process prints one line per failing seed, the
//! one-line repro command, and exits 1.

use wn_check::{
    check_range, check_range_gen, check_seed, range_digest, reference_shard_plan,
    reference_shard_plan_incoherence, repro_command, run, shard_diff_range, shard_diff_range_gen,
    shard_diff_seed, shrink, station_count, Propagation, ScenarioGen, ShardDiffReport,
    SHARD_WORKER_COUNTS,
};
use wn_core::scenarios::{city_dcf_run, metro_dcf_planning_world, CITY_DCF_RANGE_M};
use wn_phy::geom::Point;
use wn_sim::stats::fnv1a;
use wn_sim::{worker_count, SimTime};

/// FNV-1a of `range_digest(0, 200, _)` over the classic corpus as
/// recorded *before* the QoS machinery landed. The `--qos` leg
/// recomputes the digest and demands this exact fingerprint: with EDCA
/// off, every scenario, trace and metrics snapshot must remain
/// byte-identical to the pre-QoS engine.
const LEGACY_DIGEST_SEEDS: u64 = 200;
const LEGACY_DIGEST_FNV: u64 = 0x4a49_300b_696f_7708;

struct Options {
    start: u64,
    count: u64,
    single: Option<u64>,
    shrink: bool,
    threads: usize,
    propagation_diff: bool,
    shard_diff: bool,
    qos: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        start: 0,
        count: 500,
        single: None,
        shrink: false,
        threads: worker_count(),
        propagation_diff: false,
        shard_diff: false,
        qos: false,
    };
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> Result<&String, String> {
            args.get(i)
                .ok_or_else(|| format!("{} needs a value", args[i - 1]))
        };
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                opts.count = need(i)?
                    .parse()
                    .map_err(|_| "--seeds needs a count".to_string())?;
            }
            "--start" => {
                i += 1;
                opts.start = need(i)?
                    .parse()
                    .map_err(|_| "--start needs a seed".to_string())?;
            }
            "--seed" => {
                i += 1;
                opts.single = Some(
                    need(i)?
                        .parse()
                        .map_err(|_| "--seed needs a seed".to_string())?,
                );
            }
            "--shrink" => opts.shrink = true,
            "--propagation-diff" => opts.propagation_diff = true,
            "--shard-diff" => opts.shard_diff = true,
            "--qos" => opts.qos = true,
            "--threads" => {
                i += 1;
                opts.threads = need(i)?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| "--threads needs a count >= 1".to_string())?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(opts)
}

/// Prints the violations for one failing seed; with `--shrink`, also
/// minimises the scenario and prints the shrunk repro.
fn report_failure(seed: u64, summary: &str, violations: &[wn_check::Violation], do_shrink: bool) {
    report_failure_gen(
        &ScenarioGen::default(),
        seed,
        summary,
        violations,
        do_shrink,
    );
}

/// [`report_failure`] under an explicit generator, so `--qos` failures
/// shrink the scenario the QoS corpus actually drew.
fn report_failure_gen(
    gen: &ScenarioGen,
    seed: u64,
    summary: &str,
    violations: &[wn_check::Violation],
    do_shrink: bool,
) {
    println!("seed {seed}: FAIL  {summary}");
    for v in violations {
        println!("  {v}");
    }
    println!("  repro: {}", repro_command(seed));
    if do_shrink {
        let sc = gen.scenario(seed);
        let still_fails = |c: &wn_check::Scenario| !run::check_scenario(c).is_empty();
        let min = shrink(&sc, still_fails);
        println!(
            "  shrunk to {} stations: {}",
            station_count(&min),
            min.summary()
        );
        for v in run::check_scenario(&min) {
            println!("    {v}");
        }
    }
}

/// Differential propagation mode: the same seed range on the cached
/// and direct paths, seed by seed, demanding identical fingerprints,
/// plus a fixed multi-cell CITY-DCF planning world compared
/// pair-for-pair through the grid planner and the brute-force
/// reference. Returns the number of failures.
fn run_propagation_diff(opts: &Options) -> u64 {
    let (start, count) = match opts.single {
        Some(seed) => (seed, 1),
        None => (opts.start, opts.count),
    };
    let t0 = std::time::Instant::now();
    let gen = ScenarioGen::default();
    let cached = check_range_gen(gen, start, count, opts.threads, Propagation::Cached);
    let direct = check_range_gen(gen, start, count, opts.threads, Propagation::Direct);
    let mut failures = 0u64;
    for (c, d) in cached.iter().zip(&direct) {
        let agree =
            c.events == d.events && c.trace_fnv == d.trace_fnv && c.metrics_fnv == d.metrics_fnv;
        if !agree {
            failures += 1;
            println!(
                "seed {}: PROPAGATION DIVERGENCE  {}\n  cached: events={} trace_fnv={:016x} metrics_fnv={:016x}\n  direct: events={} trace_fnv={:016x} metrics_fnv={:016x}",
                c.seed, c.summary, c.events, c.trace_fnv, c.metrics_fnv, d.events, d.trace_fnv, d.metrics_fnv
            );
            println!("  repro: {} --propagation-diff", repro_command(c.seed));
        }
        if !c.violations.is_empty() {
            failures += 1;
            report_failure(c.seed, &c.summary, &c.violations, opts.shrink);
        }
    }

    // The planning leg: a street grid the scenario generator cannot
    // produce, planned through the grid and the O(n²) reference. Both
    // partitions and re-validation verdicts must match exactly.
    let (cols, senders) = (4, 12);
    let mut world = metro_dcf_planning_world(3, cols, senders, 60, 42);
    let plan = world.shard_plan(SimTime::ZERO, Some(CITY_DCF_RANGE_M));
    let reference = reference_shard_plan(&world, SimTime::ZERO, Some(CITY_DCF_RANGE_M));
    if plan.shard_of != reference.shard_of {
        failures += 1;
        println!(
            "CITY-DCF planning: PLANNER DIVERGENCE  grid {} shards vs reference {} shards",
            plan.shards.len(),
            reference.shards.len(),
        );
    }
    let verdict = world.shard_plan_incoherence(&plan, SimTime::ZERO);
    let reference_verdict = reference_shard_plan_incoherence(&world, &plan, SimTime::ZERO);
    if verdict.is_some() || reference_verdict.is_some() {
        failures += 1;
        println!(
            "CITY-DCF planning: INCOHERENT PLAN  grid verdict {verdict:?}, reference verdict {reference_verdict:?}"
        );
    }
    // The same plan gone stale: a sender of cell (0, 0) walks to 10 m
    // beside the sink of cell (1, 1), which shares its channel 1. Both
    // validators must catch the straddling pair and name the same
    // witness.
    let sink = world.position((cols + 1) * (senders + 1));
    world.set_position(1, Point::new(sink.x + 10.0, sink.y), SimTime::ZERO);
    let verdict = world.shard_plan_incoherence(&plan, SimTime::ZERO);
    let reference_verdict = reference_shard_plan_incoherence(&world, &plan, SimTime::ZERO);
    if verdict != reference_verdict || reference_verdict.is_none() {
        failures += 1;
        println!(
            "CITY-DCF planning: STALE PLAN WITNESS DIVERGENCE  grid verdict {verdict:?}, reference verdict {reference_verdict:?}"
        );
    }

    println!(
        "propagation-diff fuzz: {} seeds ({}..{}) x {{cached, direct}} + a {}-station CITY-DCF planning and stale-plan check on {} workers in {:.2}s: {} failing",
        count,
        start,
        start + count,
        plan.shard_of.len(),
        opts.threads,
        t0.elapsed().as_secs_f64(),
        failures
    );
    failures
}

/// Prints one failing shard differential: the sliced
/// reference digests against every diverging job run, plus any
/// partition-soundness failure.
fn report_shard_divergence(r: &ShardDiffReport) {
    println!(
        "seed {}: SHARD DIVERGENCE  {} ({} shards)",
        r.seed, r.summary, r.shards
    );
    if let Some(why) = &r.incoherence {
        println!("  plan incoherent: {why}");
    }
    println!(
        "  sliced:     events={} trace_fnv={:016x} metrics_fnv={:016x}",
        r.sliced.events, r.sliced.trace_fnv, r.sliced.metrics_fnv
    );
    for (workers, w) in &r.runs {
        if *w != r.sliced {
            println!(
                "  {workers} worker(s): events={} trace_fnv={:016x} metrics_fnv={:016x}",
                w.events, w.trace_fnv, w.metrics_fnv
            );
        }
    }
    println!("  repro: {} --shard-diff", repro_command(r.seed));
}

/// Differential sharding mode: every seed's deployment partitioned and
/// replayed sliced vs as jobs; range runs add a fixed multi-shard
/// CITY-DCF grid (12 cells on channels 1/6/11 — deeper than any
/// generated scenario shards) at every worker count. Returns the
/// number of failing seeds.
fn run_shard_diff(opts: &Options) -> u64 {
    let t0 = std::time::Instant::now();
    let mut failures = 0u64;
    if let Some(seed) = opts.single {
        match shard_diff_seed(seed) {
            None => println!("seed {seed}: skip (no shared medium to partition)"),
            Some(r) if r.divergent() => {
                failures += 1;
                report_shard_divergence(&r);
            }
            Some(r) => println!(
                "seed {seed}: ok  {} ({} shards, {} events, trace_fnv={:016x})",
                r.summary, r.shards, r.sliced.events, r.sliced.trace_fnv
            ),
        }
        if failures > 0 {
            return failures;
        }
        println!("shard-diff: seed {seed} byte-identical across {{sliced, 1, 2, 4 workers}}");
        return 0;
    }

    let reports = shard_diff_range(opts.start, opts.count, opts.threads);
    let (mut skipped, mut ran, mut multi) = (0u64, 0u64, 0u64);
    for r in &reports {
        match r {
            None => skipped += 1,
            Some(r) => {
                ran += 1;
                if r.shards > 1 {
                    multi += 1;
                }
                if r.divergent() {
                    failures += 1;
                    report_shard_divergence(r);
                }
            }
        }
    }

    // The city leg: a grid the scenario generator cannot produce —
    // every cell its own shard, all worker counts, byte-identical.
    let (rows, cols) = (3, 4);
    let city: Vec<_> = SHARD_WORKER_COUNTS
        .iter()
        .map(|&w| (w, city_dcf_run(rows, cols, 12, 60, 42, Some(w))))
        .collect();
    let (_, first) = &city[0];
    if first.shards != rows * cols || city.iter().any(|(_, r)| r != first) {
        failures += 1;
        println!(
            "CITY-DCF grid: SHARD DIVERGENCE  {} cells -> {} shards",
            rows * cols,
            first.shards
        );
        for (workers, r) in &city {
            println!(
                "  {workers} worker(s): events={} trace_fnv={:016x} metrics_fnv={:016x}",
                r.events, r.trace_fnv, r.metrics_fnv
            );
        }
    }

    println!(
        "shard-diff fuzz: {} seeds ({}..{}) x {{sliced, 1, 2, 4 workers}} + a {}-cell CITY-DCF grid on {} workers in {:.2}s: {} failing ({} run, {} multi-shard, {} skipped)",
        opts.count,
        opts.start,
        opts.start + opts.count,
        rows * cols,
        opts.threads,
        t0.elapsed().as_secs_f64(),
        failures,
        ran,
        multi,
        skipped
    );
    failures
}

/// The QoS corpus leg: oracle-checked EDCA/A-MPDU worlds (the
/// scheduler-order oracle included), replayed through the cached and
/// direct propagation paths and the shard differential, then the
/// AIFSN-swap self-test and the legacy-equivalence differential.
/// Returns the number of failures.
fn run_qos(opts: &Options) -> u64 {
    let (start, count) = match opts.single {
        Some(seed) => (seed, 1),
        None => (opts.start, opts.count),
    };
    let t0 = std::time::Instant::now();
    let gen = ScenarioGen::with_qos();
    let mut failures = 0u64;

    // Leg 1: the oracle sweep, the scheduler-order oracle included.
    let cached = check_range_gen(gen, start, count, opts.threads, Propagation::Cached);
    for r in &cached {
        if !r.violations.is_empty() {
            failures += 1;
            report_failure_gen(&gen, r.seed, &r.summary, &r.violations, opts.shrink);
        }
    }

    // Leg 2: the cached propagation path against the direct one.
    let direct = check_range_gen(gen, start, count, opts.threads, Propagation::Direct);
    for (c, d) in cached.iter().zip(&direct) {
        if c.events != d.events || c.trace_fnv != d.trace_fnv || c.metrics_fnv != d.metrics_fnv {
            failures += 1;
            println!(
                "seed {}: PROPAGATION DIVERGENCE (qos)  {}\n  cached: events={} trace_fnv={:016x} metrics_fnv={:016x}\n  direct: events={} trace_fnv={:016x} metrics_fnv={:016x}",
                c.seed, c.summary, c.events, c.trace_fnv, c.metrics_fnv, d.events, d.trace_fnv, d.metrics_fnv
            );
        }
    }

    // Leg 3: the shard job runs against the sliced reference.
    let mut multi = 0u64;
    for r in shard_diff_range_gen(gen, start, count, opts.threads)
        .iter()
        .flatten()
    {
        if r.shards > 1 {
            multi += 1;
        }
        if r.divergent() {
            failures += 1;
            report_shard_divergence(r);
        }
    }

    // Self-test: the planted AC_VO/AC_BK parameter swap must be caught
    // by the priority-inversion oracle somewhere in the range — and the
    // catching scenario must shrink to a small repro that still fails.
    let swap = ScenarioGen::with_qos_aifsn_swap();
    let fires = |sc: &wn_check::Scenario| {
        run::check_scenario(sc)
            .iter()
            .any(|v| v.oracle == "edca-priority")
    };
    let mut caught = None;
    for seed in start..start + count {
        let sc = swap.scenario(seed);
        if fires(&sc) {
            caught = Some((seed, shrink(&sc, fires)));
            break;
        }
    }
    match caught {
        Some((seed, min)) => {
            if !fires(&min) {
                failures += 1;
                println!("aifsn-swap self-test: shrunk repro no longer fails");
            }
            println!(
                "aifsn-swap self-test: caught at seed {seed}, shrunk to {} stations: {}",
                station_count(&min),
                min.summary()
            );
        }
        None => {
            failures += 1;
            println!(
                "aifsn-swap self-test: planted priority inversion never caught in seeds {start}..{}",
                start + count
            );
        }
    }

    // The legacy-equivalence differential: with QoS off, the classic
    // corpus must still produce its recorded pre-QoS digest, byte for
    // byte.
    let legacy = fnv1a(range_digest(0, LEGACY_DIGEST_SEEDS, opts.threads).as_bytes());
    if legacy != LEGACY_DIGEST_FNV {
        failures += 1;
        println!(
            "legacy-equivalence: classic {LEGACY_DIGEST_SEEDS}-seed digest hashed to \
             {legacy:016x}, expected {LEGACY_DIGEST_FNV:016x} — the QoS machinery leaked \
             into the EDCA-off path"
        );
    }

    println!(
        "qos fuzz: {} seeds ({}..{}) x {{cached, direct, shard jobs}} + aifsn-swap self-test + {}-seed legacy digest on {} workers in {:.2}s: {} failing ({} multi-shard)",
        count,
        start,
        start + count,
        LEGACY_DIGEST_SEEDS,
        opts.threads,
        t0.elapsed().as_secs_f64(),
        failures,
        multi
    );
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fuzz: {e}");
            std::process::exit(2);
        }
    };

    if opts.propagation_diff {
        if run_propagation_diff(&opts) > 0 {
            std::process::exit(1);
        }
        return;
    }
    if opts.shard_diff {
        if run_shard_diff(&opts) > 0 {
            std::process::exit(1);
        }
        return;
    }
    if opts.qos {
        if run_qos(&opts) > 0 {
            std::process::exit(1);
        }
        return;
    }

    let t0 = std::time::Instant::now();
    let mut failures = 0u64;

    if let Some(seed) = opts.single {
        let r = check_seed(seed);
        if r.violations.is_empty() {
            println!("seed {seed}: ok  {} ({} events)", r.summary, r.events);
        } else {
            failures += 1;
            report_failure(seed, &r.summary, &r.violations, opts.shrink);
        }
    } else {
        let reports = check_range(opts.start, opts.count, opts.threads);
        let total = reports.len();
        for r in &reports {
            if !r.violations.is_empty() {
                failures += 1;
                report_failure(r.seed, &r.summary, &r.violations, opts.shrink);
            }
        }
        println!(
            "fuzzed {} seeds ({}..{}) on {} workers in {:.2}s: {} failing",
            total,
            opts.start,
            opts.start + opts.count,
            opts.threads,
            t0.elapsed().as_secs_f64(),
            failures
        );
    }

    if failures > 0 {
        std::process::exit(1);
    }
}
