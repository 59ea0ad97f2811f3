//! perfsuite — times the full experiment campaign serial vs parallel
//! and records throughput to `BENCH_campaign.json`.
//!
//! Run with: `cargo run --release -p wn-bench --bin perfsuite`
//!
//! The serial pass runs the campaign on one worker; the parallel pass
//! uses `--threads N` (default: detected parallelism / `WN_THREADS`).
//! Both passes produce byte-identical reports — the suite asserts this
//! — so the speedup is measured on genuinely equivalent work. Events
//! per second comes from the simulation kernel's global processed-event
//! counter, not wall-clock guesswork.
//!
//! A third pass re-runs the parallel campaign with the observability
//! kill switch off ([`wn_sim::set_observability`]); figures never read
//! the trace, so this pass must render byte-identically. What the
//! typed trace/metrics layer costs is measured separately, in the
//! `tracing_overhead` section: SCALE-DCF-1000 with the switch on and
//! off in alternated pairs, so a slow phase of the host lands on both
//! sides of a pair, reported as the median pair with min/max.
//!
//! A final pair of sections benchmarks the hot paths in isolation on
//! the SCALE-DCF saturation workload: `neighbors` times the cached
//! propagation path against the direct O(n) fan-out at 100 and 1000
//! stations — the direct side is the same log-distance loss declared
//! time-varying, and digests must match bit-for-bit — and `scheduler` races
//! the two queue back ends — the full simulation through each queue,
//! plus the recorded push/pop op stream of that run replayed
//! payload-free through each queue (the isolated queue-cost
//! comparison, since the full run is dominated by MAC/PHY compute).
//!
//! A `shards` section times the CITY-DCF flagship city (one
//! interference shard per BSS, each shard an independent job) at 1
//! and 2 workers and records the per-shard event spread. Digests must
//! be byte-identical at both worker counts; the speedup verdict is
//! recorded only on multi-core hosts (DESIGN.md §15).
//!
//! A `qos` section races A-MPDU aggregation on vs off on the saturated
//! DENSE-OBSS flagship block: the same offered backlog through the
//! EDCA queues with the aggregation cap at the default 16 MPDUs and
//! clamped to 1 (one MPDU per TXOP). The offered load must match
//! exactly and the aggregated run must deliver at least as much — the
//! deterministic form of "aggregation amortises contention overhead".
//!
//! A `grid` section measures the spatial hash grid on the CITY-DCF
//! flagship city (DESIGN.md §17): the sparse grid-backed neighbor-cache
//! build, and the grid shard plan and its validation against
//! `wn-check`'s brute-force O(n²) reference planner and validator live
//! in the same process, plus a plan-and-validate scaling row at the
//! METRO-DCF 100k+ flagship. The partitions must be identical and the
//! plan must re-validate coherent.
//!
//! `--section neighbors` (or `scheduler`, `arena`, `shards`, `qos`,
//! `grid`, `tracing_overhead`) runs just that section and prints its
//! JSON object — the CI smoke path, which wants the section's
//! equivalence assertions without the full campaign cost.

use std::time::Instant;

use wn_check::{reference_shard_plan, reference_shard_plan_incoherence, Propagation};
use wn_core::runner;
use wn_core::scenarios::{
    city_dcf_run, city_dcf_size, dense_obss_point_opts, metro_dcf_planning_world, metro_dcf_sweep,
    scale_dcf_op_log, scale_dcf_point, scale_dcf_sim, CITY_DCF_RANGE_M, DENSE_OBSS_MIX,
};
use wn_sim::stats::fnv1a;
use wn_sim::{
    global_events_processed, replay_ops, set_observability, worker_count, SchedulerKind, SimTime,
    OP_POP,
};

struct Pass {
    threads: usize,
    wall_s: f64,
    events: u64,
    markdown: String,
}

fn run_pass(threads: usize) -> Pass {
    let ev0 = global_events_processed();
    let t0 = Instant::now();
    let markdown = runner::campaign_markdown(threads);
    let wall_s = t0.elapsed().as_secs_f64();
    Pass {
        threads,
        wall_s,
        events: global_events_processed() - ev0,
        markdown,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut parallel_threads: Option<usize> = None;
    let mut out_path = String::from("BENCH_campaign.json");
    let mut section: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--section" => {
                i += 1;
                match args.get(i) {
                    Some(s) => section = Some(s.clone()),
                    None => {
                        eprintln!(
                            "--section needs a name (supported: neighbors, scheduler, arena, shards, qos, grid, tracing_overhead)"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--threads" => {
                i += 1;
                parallel_threads = args.get(i).and_then(|v| v.parse().ok()).filter(|&n| n >= 1);
                if parallel_threads.is_none() {
                    eprintln!("--threads needs a count >= 1");
                    std::process::exit(2);
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out_path = p.clone(),
                    None => {
                        eprintln!("--out needs a path");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!(
                    "unknown flag '{other}' (supported: --threads N, --out PATH, --section NAME)"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let parallel_threads = parallel_threads.unwrap_or_else(worker_count).max(1);

    // `--section NAME` runs one benchmark section in isolation — the CI
    // smoke path, which wants the section's equivalence assertions
    // without paying for the full campaign passes.
    if let Some(name) = section.as_deref() {
        let json = match name {
            "neighbors" => neighbors_section(),
            "scheduler" => scheduler_section(),
            "arena" => arena_section(),
            "shards" => shards_section(),
            "qos" => qos_section(),
            "grid" => grid_section(),
            "tracing_overhead" => tracing_overhead_section(),
            other => {
                eprintln!(
                    "unknown section '{other}' (supported: neighbors, scheduler, arena, shards, qos, grid, tracing_overhead)"
                );
                std::process::exit(2);
            }
        };
        print!("{{\n{json}}}\n");
        return;
    }

    eprintln!("perfsuite: serial pass (1 thread)…");
    let serial = run_pass(1);
    eprintln!(
        "perfsuite: serial {:.2} s, {} events ({:.0} ev/s)",
        serial.wall_s,
        serial.events,
        serial.events as f64 / serial.wall_s
    );
    eprintln!("perfsuite: parallel pass ({parallel_threads} threads)…");
    let parallel = run_pass(parallel_threads);
    eprintln!(
        "perfsuite: parallel {:.2} s, {} events ({:.0} ev/s)",
        parallel.wall_s,
        parallel.events,
        parallel.events as f64 / parallel.wall_s
    );

    assert_eq!(
        serial.markdown, parallel.markdown,
        "campaign output must be byte-identical across thread counts"
    );
    assert_eq!(
        serial.events, parallel.events,
        "both passes must process the same simulated events"
    );

    eprintln!("perfsuite: tracing-off pass ({parallel_threads} threads)…");
    set_observability(false);
    let untraced = run_pass(parallel_threads);
    set_observability(true);
    eprintln!(
        "perfsuite: tracing-off {:.2} s, {} events ({:.0} ev/s)",
        untraced.wall_s,
        untraced.events,
        untraced.events as f64 / untraced.wall_s
    );
    assert_eq!(
        parallel.markdown, untraced.markdown,
        "figures must not depend on the trace (kill switch changed the output)"
    );

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // A single-core host runs "parallel" on one worker by construction,
    // so serial/parallel wall clocks differ only by noise. Recording
    // that ratio as a speedup made healthy runs look like regressions
    // (speedup 0.95 on a 1-core box); skip the verdict instead.
    let (speedup_json, speedup_note) = if cores < 2 {
        (
            "\"speedup\": null,\n  \"speedup_verdict\": \"skipped: single-core host, parallel pass degenerates to serial\"".to_string(),
            "speedup n/a (1 core)".to_string(),
        )
    } else {
        let speedup = serial.wall_s / parallel.wall_s;
        (
            format!(
                "\"speedup\": {speedup:.2},\n  \"speedup_verdict\": \"parallel over serial campaign on {cores} cores\""
            ),
            format!("speedup {speedup:.2}x"),
        )
    };

    let tracing_overhead = tracing_overhead_section();
    let tracing_overhead = tracing_overhead.trim_end();
    let neighbors = neighbors_section();
    let neighbors = neighbors.trim_end();
    let scheduler = scheduler_section();
    let scheduler = scheduler.trim_end();
    let arena = arena_section();
    let arena = arena.trim_end();
    let shards = shards_section();
    let shards = shards.trim_end();
    let qos = qos_section();
    let qos = qos.trim_end();
    let grid = grid_section();

    let json = format!(
        "{{\n  \"campaign\": \"EXPERIMENTS.md full regeneration\",\n  \"host_cores\": {cores},\n  \"identical_output\": true,\n  \"serial\": {{\n    \"threads\": {},\n    \"wall_s\": {:.3},\n    \"events\": {},\n    \"events_per_s\": {:.0}\n  }},\n  \"parallel\": {{\n    \"threads\": {},\n    \"wall_s\": {:.3},\n    \"events\": {},\n    \"events_per_s\": {:.0}\n  }},\n  \"tracing_off\": {{\n    \"threads\": {},\n    \"wall_s\": {:.3},\n    \"events\": {},\n    \"events_per_s\": {:.0}\n  }},\n{tracing_overhead},\n  {speedup_json},\n{neighbors},\n{scheduler},\n{arena},\n{shards},\n{qos},\n{grid}}}\n",
        serial.threads,
        serial.wall_s,
        serial.events,
        serial.events as f64 / serial.wall_s,
        parallel.threads,
        parallel.wall_s,
        parallel.events,
        parallel.events as f64 / parallel.wall_s,
        untraced.threads,
        untraced.wall_s,
        untraced.events,
        untraced.events as f64 / untraced.wall_s,
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("perfsuite: cannot write '{out_path}': {e}");
        std::process::exit(2);
    }
    eprintln!("perfsuite: {speedup_note} on {cores} core(s) -> {out_path}");
    print!("{json}");
}

/// Measures what the trace/metrics layer costs on SCALE-DCF-1000 and
/// returns the `"tracing_overhead"` JSON object (indented two spaces,
/// trailing newline). An untimed run warms the process up; then each
/// pair runs the same point with observability on and off, the side
/// that goes first alternating between pairs. A pair's overhead is
/// on/off − 1, so > 0 means tracing costs time. Both sides must
/// simulate identically.
fn tracing_overhead_section() -> String {
    const STATIONS: usize = 1000;
    const DURATION_MS: u64 = 200;
    const SEED: u64 = 42;
    const PAIRS: usize = 3;
    let kind = SchedulerKind::TimerWheel;

    let timed = |on: bool| {
        set_observability(on);
        let t0 = Instant::now();
        let p = scale_dcf_point(STATIONS, DURATION_MS, SEED, kind);
        let wall = t0.elapsed().as_secs_f64();
        set_observability(true);
        (wall, p)
    };
    eprintln!("perfsuite: tracing overhead warm-up (SCALE-DCF n={STATIONS} dur={DURATION_MS}ms)…");
    timed(true);
    let mut pairs = Vec::new();
    for i in 0..PAIRS {
        eprintln!("perfsuite: tracing overhead pair {}/{PAIRS}…", i + 1);
        let ((on_s, on), (off_s, off)) = if i % 2 == 0 {
            (timed(true), timed(false))
        } else {
            let off = timed(false);
            (timed(true), off)
        };
        assert_eq!(
            (on.events, on.per_decisions),
            (off.events, off.per_decisions),
            "switching observability off changed the simulation"
        );
        eprintln!(
            "perfsuite: tracing on {on_s:.3} s, off {off_s:.3} s ({:+.3})",
            on_s / off_s - 1.0
        );
        pairs.push((on_s, off_s));
    }
    let mut overheads: Vec<f64> = pairs.iter().map(|&(on, off)| on / off - 1.0).collect();
    overheads.sort_by(f64::total_cmp);
    let list = |f: fn(&(f64, f64)) -> f64| {
        pairs
            .iter()
            .map(|p| format!("{:.3}", f(p)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "  \"tracing_overhead\": {{\n    \"workload\": \"SCALE-DCF stations={STATIONS} duration_ms={DURATION_MS} seed={SEED}, {} scheduler, observability on vs off in {PAIRS} pairs (alternating which goes first) after one warm-up run\",\n    \"on_wall_s\": [{}],\n    \"off_wall_s\": [{}],\n    \"median\": {:.3},\n    \"min\": {:.3},\n    \"max\": {:.3}\n  }}\n",
        kind.label(),
        list(|p| p.0),
        list(|p| p.1),
        overheads[PAIRS / 2],
        overheads[0],
        overheads[PAIRS - 1],
    )
}

/// Benchmarks both scheduler back ends on the SCALE-DCF 1000-station
/// workload and returns the `"scheduler"` JSON object (indented two
/// spaces, trailing newline). Panics on any digest disagreement.
fn scheduler_section() -> String {
    const STATIONS: usize = 1000;
    const DURATION_MS: u64 = 200;
    const SEED: u64 = 42;

    // Full simulation through each queue: same events, same metrics
    // digest, wall-clock mostly MAC/PHY compute.
    let mut full = Vec::new();
    for kind in SchedulerKind::ALL {
        eprintln!(
            "perfsuite: SCALE-DCF n={STATIONS} dur={DURATION_MS}ms full sim on {}…",
            kind.label()
        );
        let t0 = Instant::now();
        let p = scale_dcf_point(STATIONS, DURATION_MS, SEED, kind);
        full.push((kind, t0.elapsed().as_secs_f64(), p));
    }
    let (heap_full, wheel_full) = (&full[0], &full[1]);
    assert_eq!(
        (heap_full.2.events, heap_full.2.metrics_fnv),
        (wheel_full.2.events, wheel_full.2.metrics_fnv),
        "scheduler back ends diverged on the full SCALE-DCF run"
    );

    // The isolated queue comparison: record the exact push/pop stream
    // of the same run, then replay it payload-free through each queue.
    let ops = scale_dcf_op_log(STATIONS, DURATION_MS, SEED);
    let pushes = ops.iter().filter(|&&o| o != OP_POP).count();
    let mut replay = Vec::new();
    for kind in SchedulerKind::ALL {
        let t0 = Instant::now();
        let (pops, fnv) = replay_ops(kind, &ops);
        let wall = t0.elapsed().as_secs_f64();
        eprintln!(
            "perfsuite: op-stream replay on {}: {pops} pops in {wall:.3} s ({:.0} ev/s)",
            kind.label(),
            pops as f64 / wall
        );
        replay.push((kind, wall, pops, fnv));
    }
    assert_eq!(
        (replay[0].2, replay[0].3),
        (replay[1].2, replay[1].3),
        "scheduler back ends popped the op stream in different orders"
    );

    let full_rate =
        |p: &(SchedulerKind, f64, wn_core::scenarios::ScaleDcfPoint)| p.2.events as f64 / p.1;
    let replay_rate = |r: &(SchedulerKind, f64, u64, u64)| r.2 as f64 / r.1;
    let full_speedup = full_rate(wheel_full) / full_rate(heap_full);
    let replay_speedup = replay_rate(&replay[1]) / replay_rate(&replay[0]);
    eprintln!(
        "perfsuite: timer wheel vs heap: {full_speedup:.2}x full sim, {replay_speedup:.2}x queue ops"
    );

    format!(
        "  \"scheduler\": {{\n    \"workload\": \"SCALE-DCF stations={STATIONS} duration_ms={DURATION_MS} seed={SEED}\",\n    \"full_sim\": {{\n      \"heap\": {{ \"wall_s\": {:.3}, \"events\": {}, \"events_per_s\": {:.0} }},\n      \"wheel\": {{ \"wall_s\": {:.3}, \"events\": {}, \"events_per_s\": {:.0} }},\n      \"metrics_fnv\": \"{:016x}\",\n      \"identical_output\": true,\n      \"wheel_speedup\": {:.2}\n    }},\n    \"queue_op_replay\": {{\n      \"note\": \"recorded push/pop stream of the same run replayed payload-free through each queue\",\n      \"ops\": {},\n      \"pushes\": {pushes},\n      \"heap\": {{ \"wall_s\": {:.3}, \"pops\": {}, \"events_per_s\": {:.0} }},\n      \"wheel\": {{ \"wall_s\": {:.3}, \"pops\": {}, \"events_per_s\": {:.0} }},\n      \"pop_order_fnv\": \"{:016x}\",\n      \"identical_pop_order\": true,\n      \"wheel_speedup\": {:.2}\n    }}\n  }}\n",
        heap_full.1,
        heap_full.2.events,
        full_rate(heap_full),
        wheel_full.1,
        wheel_full.2.events,
        full_rate(wheel_full),
        heap_full.2.metrics_fnv,
        full_speedup,
        ops.len(),
        replay[0].1,
        replay[0].2,
        replay_rate(&replay[0]),
        replay[1].1,
        replay[1].2,
        replay_rate(&replay[1]),
        replay[0].3,
        replay_speedup,
    )
}

/// Benchmarks the frame-arena hot path: the SCALE-DCF full simulation
/// on both scheduler back ends, reported against the recorded
/// `Rc<Frame>` baseline (the representation the arena replaced). The
/// baseline figures are the `scheduler.full_sim` numbers captured in
/// `BENCH_campaign.json` on this workload immediately before the
/// arena/SoA refactor — kept verbatim so the before/after comparison
/// survives regeneration. Also records how the reception loop settled
/// its PER decisions. Panics if the back ends disagree on events,
/// metrics digest or decision counts, or if 10% or more of the
/// decisions fell through the SINR bound to the exact PER model — a
/// deterministic guard against a cutoff bug quietly sending every
/// reception down the slow path.
fn arena_section() -> String {
    const STATIONS: usize = 1000;
    const DURATION_MS: u64 = 200;
    const SEED: u64 = 42;
    // Pre-arena (Rc<Frame>, AoS station structs) events/s on this
    // machine class, from the PR5 BENCH_campaign.json.
    const BASELINE_HEAP_EV_S: f64 = 650_891.0;
    const BASELINE_WHEEL_EV_S: f64 = 801_143.0;

    let mut runs = Vec::new();
    for kind in SchedulerKind::ALL {
        eprintln!(
            "perfsuite: arena SCALE-DCF n={STATIONS} dur={DURATION_MS}ms on {}…",
            kind.label()
        );
        let t0 = Instant::now();
        let p = scale_dcf_point(STATIONS, DURATION_MS, SEED, kind);
        let wall = t0.elapsed().as_secs_f64();
        eprintln!(
            "perfsuite: arena on {}: {wall:.3} s ({:.0} ev/s)",
            kind.label(),
            p.events as f64 / wall
        );
        runs.push((kind, wall, p));
    }
    assert_eq!(
        (
            runs[0].2.events,
            runs[0].2.metrics_fnv,
            runs[0].2.per_decisions
        ),
        (
            runs[1].2.events,
            runs[1].2.metrics_fnv,
            runs[1].2.per_decisions
        ),
        "scheduler back ends diverged on the arena workload"
    );
    let per = runs[0].2.per_decisions;
    let decisions = per.settled + per.exact;
    eprintln!(
        "perfsuite: arena PER decisions: {} settled by the SINR bound, {} exact",
        per.settled, per.exact
    );
    assert!(
        per.exact * 10 < decisions,
        "{} of {decisions} PER decisions took the exact path (must be under 10%)",
        per.exact
    );
    let heap_rate = runs[0].2.events as f64 / runs[0].1;
    let wheel_rate = runs[1].2.events as f64 / runs[1].1;
    eprintln!(
        "perfsuite: arena vs Rc<Frame> baseline: {:.2}x heap, {:.2}x wheel",
        heap_rate / BASELINE_HEAP_EV_S,
        wheel_rate / BASELINE_WHEEL_EV_S
    );

    format!(
        "  \"arena\": {{\n    \"workload\": \"SCALE-DCF stations={STATIONS} duration_ms={DURATION_MS} seed={SEED}, frame arena + SoA DCF state\",\n    \"before\": {{\n      \"note\": \"Rc<Frame> + AoS station structs, recorded before the arena refactor\",\n      \"heap_events_per_s\": {BASELINE_HEAP_EV_S:.0},\n      \"wheel_events_per_s\": {BASELINE_WHEEL_EV_S:.0}\n    }},\n    \"after\": {{\n      \"heap\": {{ \"wall_s\": {:.3}, \"events\": {}, \"events_per_s\": {heap_rate:.0} }},\n      \"wheel\": {{ \"wall_s\": {:.3}, \"events\": {}, \"events_per_s\": {wheel_rate:.0} }},\n      \"metrics_fnv\": \"{:016x}\",\n      \"identical_output\": true\n    }},\n    \"per_decisions\": {{ \"settled\": {}, \"exact\": {} }},\n    \"speedup_vs_baseline\": {{ \"heap\": {:.2}, \"wheel\": {:.2} }}\n  }}\n",
        runs[0].1,
        runs[0].2.events,
        runs[1].1,
        runs[1].2.events,
        runs[0].2.metrics_fnv,
        per.settled,
        per.exact,
        heap_rate / BASELINE_HEAP_EV_S,
        wheel_rate / BASELINE_WHEEL_EV_S,
    )
}

/// Times the CITY-DCF flagship city at 1 and 2 workers and returns
/// the `"shards"` JSON object (indented two spaces, trailing newline),
/// with the per-shard event min/mean/max and the max/mean load
/// imbalance. Both runs must produce byte-identical trace and metrics
/// digests — that assertion always runs; the speedup number is
/// recorded only when the host has ≥2 cores (otherwise `null`, with a
/// verdict string saying why), mirroring the campaign-level speedup
/// gate.
fn shards_section() -> String {
    const SEED: u64 = 42;
    let (rows, cols, senders, duration_ms) = city_dcf_size();
    let cells = rows * cols;
    let stations = cells * (senders + 1);

    let mut runs = Vec::new();
    for w in [1usize, 2] {
        eprintln!(
            "perfsuite: CITY-DCF {cells} cells / {stations} stations, {duration_ms}ms on {w} worker(s)…"
        );
        let t0 = Instant::now();
        let r = city_dcf_run(rows, cols, senders, duration_ms, SEED, Some(w));
        let wall = t0.elapsed().as_secs_f64();
        eprintln!(
            "perfsuite: {w} worker(s): {wall:.3} s ({:.0} ev/s)",
            r.events as f64 / wall
        );
        runs.push((w, wall, r));
    }
    let (one, two) = (&runs[0], &runs[1]);
    assert_eq!(
        (two.2.events, two.2.trace_fnv, two.2.metrics_fnv),
        (one.2.events, one.2.trace_fnv, one.2.metrics_fnv),
        "the city diverged between 1 and 2 workers"
    );

    let loads = &one.2.per_shard_events;
    let min = loads.iter().copied().min().unwrap_or(0);
    let max = loads.iter().copied().max().unwrap_or(0);
    let mean = one.2.events as f64 / loads.len().max(1) as f64;
    let imbalance = max as f64 / mean.max(f64::MIN_POSITIVE);

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let speedup_json = if cores < 2 {
        "\"speedup\": null,\n    \"speedup_verdict\": \"skipped: single-core host, 2 workers degenerate to 1\"".to_string()
    } else {
        format!(
            "\"speedup\": {:.2},\n    \"speedup_verdict\": \"2 workers over 1 on {cores} cores\"",
            one.1 / two.1
        )
    };

    let mut out = format!(
        "  \"shards\": {{\n    \"workload\": \"CITY-DCF rows={rows} cols={cols} senders_per_cell={senders} duration_ms={duration_ms} seed={SEED} ({cells} cells, {stations} stations, one shard per cell)\",\n"
    );
    for (w, wall, r) in &runs {
        out.push_str(&format!(
            "    \"w{w}\": {{ \"wall_s\": {wall:.3}, \"events\": {}, \"events_per_s\": {:.0} }},\n",
            r.events,
            r.events as f64 / wall,
        ));
    }
    out.push_str(&format!(
        "    \"shard_events\": {{ \"min\": {min}, \"mean\": {mean:.1}, \"max\": {max} }},\n    \"imbalance\": {imbalance:.3},\n    \"trace_fnv\": \"{:016x}\",\n    \"metrics_fnv\": \"{:016x}\",\n    \"identical_output\": true,\n    {speedup_json}\n  }}\n",
        one.2.trace_fnv, one.2.metrics_fnv,
    ));
    out
}

/// Benchmarks A-MPDU aggregation on the saturated DENSE-OBSS flagship
/// block and returns the `"qos"` JSON object (indented two spaces,
/// trailing newline): the identical per-AC offered backlog pushed
/// through the EDCA queues with the aggregation cap at the default
/// (16 MPDUs per A-MPDU) and clamped to 1. Panics if the two runs
/// disagree on offered load or if turning aggregation on loses
/// goodput — both runs are fully deterministic, so the comparison is
/// stable across hosts.
fn qos_section() -> String {
    const ROWS: usize = 3;
    const COLS: usize = 3;
    const DURATION_MS: u64 = 120;
    const SEED: u64 = 42;
    const CAPS: [usize; 2] = [1, 16];

    let mut runs = Vec::new();
    for cap in CAPS {
        eprintln!("perfsuite: DENSE-OBSS {ROWS}x{COLS} dur={DURATION_MS}ms ampdu_max_mpdus={cap}…");
        let ev0 = global_events_processed();
        let t0 = Instant::now();
        let p = dense_obss_point_opts(ROWS, COLS, DURATION_MS, SEED, DENSE_OBSS_MIX, cap);
        let wall = t0.elapsed().as_secs_f64();
        let events = global_events_processed() - ev0;
        eprintln!(
            "perfsuite: ampdu={cap}: {wall:.3} s, {:.2} Mbps delivered ({:.0} ev/s)",
            p.aggregate_mbps,
            events as f64 / wall
        );
        runs.push((cap, wall, events, p));
    }
    let (no_agg, agg) = (&runs[0], &runs[1]);
    assert_eq!(
        no_agg.3.offered, agg.3.offered,
        "aggregation cap changed the offered backlog"
    );
    assert!(
        agg.3.completed >= no_agg.3.completed,
        "A-MPDU aggregation lost goodput on the saturated block: {} < {} MSDUs",
        agg.3.completed,
        no_agg.3.completed
    );
    let gain = agg.3.aggregate_mbps / no_agg.3.aggregate_mbps.max(f64::MIN_POSITIVE);
    eprintln!("perfsuite: A-MPDU aggregation: {gain:.2}x goodput vs one MPDU per TXOP");

    let mut out = format!(
        "  \"qos\": {{\n    \"workload\": \"DENSE-OBSS rows={ROWS} cols={COLS} duration_ms={DURATION_MS} seed={SEED}, EDCA queues, aggregation on vs off\",\n    \"offered_msdus\": {},\n",
        no_agg.3.offered,
    );
    for (cap, wall, events, p) in &runs {
        let label = if *cap == 1 { "no_aggregation" } else { "ampdu" };
        out.push_str(&format!(
            "    \"{label}\": {{ \"ampdu_max_mpdus\": {cap}, \"wall_s\": {wall:.3}, \"events\": {events}, \"completed_msdus\": {}, \"delivered_frac\": {:.3}, \"goodput_mbps\": {:.2}, \"vo_p50_us\": {}, \"be_p50_us\": {} }},\n",
            p.completed,
            p.delivered_frac(),
            p.aggregate_mbps,
            p.ac_p50_us[0],
            p.ac_p50_us[2],
        ));
    }
    out.push_str(&format!(
        "    \"identical_offered_load\": true,\n    \"aggregation_goodput_gain\": {gain:.2}\n  }}\n"
    ));
    out
}

/// Benchmarks the neighbor-cache hot path against the direct O(n)
/// propagation fan-out on SCALE-DCF at 100 and 1000 stations and
/// returns the `"neighbors"` JSON object (indented two spaces,
/// trailing newline). The direct side runs the same world with its
/// log-distance loss declared time-varying. Panics unless the cached
/// and direct runs deliver the same event count and metrics digest at
/// every size.
fn neighbors_section() -> String {
    const DURATION_MS: u64 = 200;
    const SEED: u64 = 42;
    const SIZES: [usize; 2] = [100, 1000];

    let mut rows = Vec::new();
    for stations in SIZES {
        let timed = |prop: Propagation| {
            let label = match prop {
                Propagation::Cached => "cached",
                Propagation::Direct => "direct",
            };
            eprintln!("perfsuite: SCALE-DCF n={stations} dur={DURATION_MS}ms {label} propagation…");
            let t0 = Instant::now();
            let end = SimTime::from_millis(DURATION_MS);
            let mut sim = scale_dcf_sim(stations, DURATION_MS, SEED, SchedulerKind::BinaryHeap);
            prop.install(sim.world_mut());
            sim.run_until(end);
            let snap = sim.world().metrics_snapshot(end);
            let events = sim.processed();
            let metrics_fnv = fnv1a(snap.to_jsonl("SCALE-DCF").as_bytes());
            let wall = t0.elapsed().as_secs_f64();
            eprintln!(
                "perfsuite: SCALE-DCF n={stations} {label}: {wall:.3} s ({:.0} ev/s)",
                events as f64 / wall
            );
            (wall, (events, metrics_fnv))
        };
        let (cached_s, cached) = timed(Propagation::Cached);
        let (direct_s, direct) = timed(Propagation::Direct);
        assert_eq!(
            cached, direct,
            "neighbor cache diverged from the direct path on SCALE-DCF n={stations}"
        );
        let speedup = direct_s / cached_s;
        eprintln!("perfsuite: neighbor cache at n={stations}: {speedup:.2}x vs direct");
        rows.push((stations, cached_s, direct_s, cached, speedup));
    }

    let mut out = format!(
        "  \"neighbors\": {{\n    \"workload\": \"SCALE-DCF duration_ms={DURATION_MS} seed={SEED}, binary-heap scheduler, cached vs direct propagation\",\n"
    );
    for (i, (stations, cached_s, direct_s, (events, metrics_fnv), speedup)) in
        rows.iter().enumerate()
    {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    \"n{stations}\": {{\n      \"cached\": {{ \"wall_s\": {cached_s:.3}, \"events_per_s\": {:.0} }},\n      \"direct\": {{ \"wall_s\": {direct_s:.3}, \"events_per_s\": {:.0} }},\n      \"events\": {},\n      \"metrics_fnv\": \"{:016x}\",\n      \"identical_output\": true,\n      \"cache_speedup\": {speedup:.2}\n    }}{sep}\n",
            *events as f64 / cached_s,
            *events as f64 / direct_s,
            events,
            metrics_fnv,
        ));
    }
    out.push_str("  }\n");
    out
}

/// Runs `f` once and returns its result with the wall time, seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Measures the spatial hash grid on the CITY-DCF flagship planning
/// world (DESIGN.md §17) and returns the `"grid"` JSON object
/// (indented two spaces, trailing newline): the sparse grid-backed
/// neighbor-cache build, and the grid shard plan and its validation
/// against `wn-check`'s brute-force O(n²) reference planner and
/// validator measured live in the same process, plus a plan and
/// validate row at the METRO-DCF flagship (100k+ stations in release,
/// where the reference is no longer feasible). Panics unless both
/// planners produce the identical partition and the plan re-validates
/// coherent under both validators; the speedup verdict is always
/// recorded (the section is single-threaded, so core count is
/// irrelevant).
fn grid_section() -> String {
    const SEED: u64 = 42;
    let (rows, cols, senders, duration_ms) = city_dcf_size();
    let stations = rows * cols * (senders + 1);

    // Sparse 27-cell-neighborhood cache build + grid plan.
    let mut world = metro_dcf_planning_world(rows, cols, senders, duration_ms, SEED);
    eprintln!("perfsuite: grid CITY-DCF n={stations}: sparse cache build…");
    let t0 = Instant::now();
    world.prime_neighbor_cache(SimTime::ZERO);
    let build_s = t0.elapsed().as_secs_f64();
    let (_, stored) = world
        .neighbor_cache_stats()
        .expect("planning world primes its neighbor cache");
    let incoherent = world.grid_incoherence(SimTime::ZERO);
    assert!(incoherent.is_empty(), "grid incoherent: {incoherent:?}");
    eprintln!("perfsuite: grid plan…");
    let (grid_plan, grid_plan_s) =
        timed(|| world.shard_plan(SimTime::ZERO, Some(CITY_DCF_RANGE_M)));
    let (verdict, grid_validate_s) =
        timed(|| world.shard_plan_incoherence(&grid_plan, SimTime::ZERO));
    assert!(verdict.is_none(), "grid plan failed re-validation");

    // The brute-force reference, live on the same world.
    eprintln!("perfsuite: reference plan…");
    let (reference, reference_plan_s) =
        timed(|| reference_shard_plan(&world, SimTime::ZERO, Some(CITY_DCF_RANGE_M)));
    assert_eq!(
        grid_plan.shard_of, reference.shard_of,
        "grid and reference planners disagree on the partition"
    );
    eprintln!("perfsuite: reference validation…");
    let (reference_verdict, reference_validate_s) =
        timed(|| reference_shard_plan_incoherence(&world, &grid_plan, SimTime::ZERO));
    assert!(
        reference_verdict.is_none(),
        "reference validator rejects the grid plan"
    );
    let full_matrix = stations * (stations - 1);
    let plan_speedup = reference_plan_s / grid_plan_s.max(f64::MIN_POSITIVE);
    eprintln!(
        "perfsuite: grid at n={stations}: {plan_speedup:.1}x plan vs reference, {stored}/{full_matrix} stored pairs"
    );

    // The scaling row: plan and validate at the METRO-DCF flagship,
    // where the O(n²) pair scan is no longer an option. The grid
    // planner is the only way to get a partition at this size; the row
    // records that it stays tractable.
    let (mrows, mcols, msenders, mduration) = *metro_dcf_sweep().last().expect("sweep non-empty");
    let metro_stations = mrows * mcols * (msenders + 1);
    eprintln!("perfsuite: METRO-DCF n={metro_stations}: grid plan-and-validate scaling row…");
    let metro_world = metro_dcf_planning_world(mrows, mcols, msenders, mduration, SEED);
    let (metro_plan, metro_plan_s) =
        timed(|| metro_world.shard_plan(SimTime::ZERO, Some(CITY_DCF_RANGE_M)));
    let (metro_verdict, metro_validate_s) =
        timed(|| metro_world.shard_plan_incoherence(&metro_plan, SimTime::ZERO));
    assert!(
        metro_verdict.is_none(),
        "metro grid plan failed re-validation"
    );
    eprintln!(
        "perfsuite: METRO-DCF n={metro_stations}: {} shards, plan {metro_plan_s:.3} s, validate {metro_validate_s:.3} s",
        metro_plan.shards.len()
    );

    format!(
        "  \"grid\": {{\n    \"workload\": \"CITY-DCF planning world rows={rows} cols={cols} senders_per_cell={senders} seed={SEED} ({stations} stations), grid vs brute-force reference, live in-process\",\n    \"cache_build\": {{\n      \"wall_s\": {build_s:.3},\n      \"stored_pairs\": {stored},\n      \"full_matrix_pairs\": {full_matrix}\n    }},\n    \"shard_plan\": {{\n      \"grid\": {{ \"wall_s\": {grid_plan_s:.3}, \"validate_s\": {grid_validate_s:.3} }},\n      \"reference\": {{ \"wall_s\": {reference_plan_s:.3}, \"validate_s\": {reference_validate_s:.3} }},\n      \"shards\": {},\n      \"identical_partition\": true,\n      \"speedup\": {plan_speedup:.2}\n    }},\n    \"metro_plan_only\": {{\n      \"note\": \"grid planner at the METRO-DCF flagship; the O(n^2) reference is infeasible at this size\",\n      \"stations\": {metro_stations},\n      \"shards\": {},\n      \"wall_s\": {metro_plan_s:.3},\n      \"validate_s\": {metro_validate_s:.3}\n    }},\n    \"speedup_verdict\": \"grid planner over the brute-force reference, single-threaded, measured live at n={stations}\"\n  }}\n",
        grid_plan.shards.len(),
        metro_plan.shards.len(),
    )
}
