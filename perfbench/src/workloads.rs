//! The three workloads, each a fixed sequence of calls into the
//! repository's stable top-level entry points. A pass is what the
//! untraced run times; the extras are the traced run's additional
//! probes (recording and replaying the scheduler op stream, the
//! observability-off pass, the serial composition, the no-aggregation
//! pass).

use std::time::Instant;

use wn_core::scenarios::{
    city_dcf_run, dense_obss_point, dense_obss_point_opts, metro_dcf_planning_world,
    scale_dcf_op_log, scale_dcf_sim, CITY_DCF_RANGE_M, DENSE_OBSS_MIX, SCALE_DCF_PAYLOAD,
};
use wn_mac80211::WlanWorld;
use wn_sim::stats::fnv1a;
use wn_sim::{global_events_processed, replay_ops, set_observability, SchedulerKind, SimTime};

use crate::ratio;
use crate::spans::Probe;

/// On/off pass pairs behind `observability.overhead`.
const OVERHEAD_PAIRS: usize = 3;

/// Observables that must repeat exactly: `(name, rendered value)`.
pub type Digest = Vec<(&'static str, String)>;

/// A workload the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One saturated 1000-sender collision domain, single thread.
    ScaleDcf,
    /// A planned and sharded street grid of BSSes on two workers.
    Metro,
    /// An EDCA/A-MPDU apartment block, single thread.
    DenseObss,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ScaleDcf, Workload::Metro, Workload::DenseObss];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScaleDcf => "scale-dcf",
            Workload::Metro => "metro",
            Workload::DenseObss => "dense-obss",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The size of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Params {
    /// `scale_dcf_sim(stations, horizon_ms, seed, TimerWheel)`, run to
    /// the horizon in `slices` equal `run_until` steps.
    ScaleDcf {
        stations: usize,
        horizon_ms: u64,
        slices: u64,
    },
    /// `city_dcf_run(rows, cols, senders, horizon_ms, seed, Some(workers))`
    /// after planning the same deployment from outside.
    Metro {
        rows: usize,
        cols: usize,
        senders: usize,
        horizon_ms: u64,
        workers: usize,
    },
    /// `dense_obss_point(rows, cols, horizon_ms, seed, DENSE_OBSS_MIX)`,
    /// preceded by `probes` construction probes at `probe_ms`.
    DenseObss {
        rows: usize,
        cols: usize,
        horizon_ms: u64,
        probe_ms: u64,
        probes: usize,
    },
}

impl Params {
    /// The benchmarked size (release builds).
    pub fn bench(w: Workload) -> Params {
        match w {
            Workload::ScaleDcf => Params::ScaleDcf {
                stations: 1000,
                horizon_ms: 300,
                slices: 8,
            },
            Workload::Metro => Params::Metro {
                rows: 9,
                cols: 12,
                senders: 96,
                horizon_ms: 15,
                workers: 2,
            },
            Workload::DenseObss => Params::DenseObss {
                rows: 6,
                cols: 6,
                horizon_ms: 5000,
                probe_ms: 1,
                probes: 5,
            },
        }
    }

    /// A same-shape miniature for the benchmark's own tests.
    pub fn debug(w: Workload) -> Params {
        match w {
            Workload::ScaleDcf => Params::ScaleDcf {
                stations: 20,
                horizon_ms: 20,
                slices: 4,
            },
            Workload::Metro => Params::Metro {
                rows: 2,
                cols: 2,
                senders: 3,
                horizon_ms: 20,
                workers: 2,
            },
            Workload::DenseObss => Params::DenseObss {
                rows: 2,
                cols: 2,
                horizon_ms: 40,
                probe_ms: 1,
                probes: 2,
            },
        }
    }
}

/// One timed pass.
pub struct Pass {
    /// Host seconds of the whole call sequence, digest included.
    pub wall_s: f64,
    /// Host seconds of each set-up measured in the pass.
    pub setup_s: Vec<f64>,
    /// Observables that must repeat exactly.
    pub digest: Digest,
    /// Failed scenario checks.
    pub problems: Vec<String>,
}

/// Runs one pass of the workload sized by `params`.
pub fn pass(params: &Params, seed: u64, probe: &mut Probe) -> Pass {
    match *params {
        Params::ScaleDcf {
            stations,
            horizon_ms,
            slices,
        } => scale_dcf_pass(stations, horizon_ms, slices, seed, probe),
        Params::Metro {
            rows,
            cols,
            senders,
            horizon_ms,
            workers,
        } => metro_pass(rows, cols, senders, horizon_ms, workers, seed, probe),
        Params::DenseObss {
            rows,
            cols,
            horizon_ms,
            probe_ms,
            probes,
        } => dense_obss_pass(rows, cols, horizon_ms, probe_ms, probes, seed, probe),
    }
}

/// The traced run's extra probes, run once after the passes; `passes`
/// are the traced passes, whose digests the extras must reproduce.
/// Returns failed checks.
pub fn extras(params: &Params, seed: u64, probe: &mut Probe, passes: &[Pass]) -> Vec<String> {
    let reference = &passes[0].digest;
    let mut problems = Vec::new();
    match *params {
        Params::ScaleDcf {
            stations,
            horizon_ms,
            ..
        } => {
            let events = digest_u64(reference, "events");
            let (ops, _) = probe.call("engine", "scale_dcf_op_log", || {
                scale_dcf_op_log(stations, horizon_ms, seed)
            });
            let ((pops, _), replay_s) = probe.call("scheduler", "replay_ops", || {
                replay_ops(SchedulerKind::TimerWheel, &ops)
            });
            if pops != events {
                problems.push(format!(
                    "op-stream replay popped {pops} events, the run delivered {events}"
                ));
            }
            probe.read("scheduler.replay_s", replay_s);
            probe.read("scheduler.ops", ops.len() as f64);
            drop(ops);

            // The cost of the program's trace/metrics recording: passes
            // with it on and off, alternated in pairs so that a slow
            // phase of the host lands on both sides of a pair.
            let mut overheads = Vec::new();
            for _ in 0..OVERHEAD_PAIRS {
                let (on, _) = probe.call("engine", "observability_on_pass", || {
                    pass(params, seed, &mut Probe::new(false))
                });
                set_observability(false);
                let (off, _) = probe.call("engine", "observability_off_pass", || {
                    pass(params, seed, &mut Probe::new(false))
                });
                set_observability(true);
                if digest_u64(&off.digest, "events") != events {
                    problems.push("switching observability off changed the event count".into());
                }
                overheads.push(ratio(on.wall_s, off.wall_s) - 1.0);
            }
            probe.read("observability.overhead", crate::median(&overheads));
        }
        Params::Metro {
            rows,
            cols,
            senders,
            horizon_ms,
            ..
        } => {
            // The build each component does on first use, observed on
            // the planning world where public calls can reach it.
            let (mut world, _) = probe.call("scenarios", "metro_dcf_planning_world", || {
                metro_dcf_planning_world(rows, cols, senders, horizon_ms, seed)
            });
            let (_, prime_s) = probe.call("neighbors", "prime_neighbor_cache", || {
                world.prime_neighbor_cache(SimTime::ZERO)
            });
            probe.read("neighbors.prime_s", prime_s);
            let stored = world.neighbor_cache_stats().map_or(0, |(_, n)| n);
            probe.read("neighbors.stored_pairs", stored as f64);
            observe_world(&world, SimTime::ZERO, "METRO-DCF", probe);
            drop(world);

            let (serial, serial_s) = probe.call("shard", "city_dcf_run(serial)", || {
                city_dcf_run(rows, cols, senders, horizon_ms, seed, None)
            });
            probe.read("shard.compose_serial_s", serial_s);
            if metro_digest(&serial) != *reference {
                problems.push("serial composition digest differs from the 2-worker run".into());
            }
        }
        Params::DenseObss {
            rows,
            cols,
            horizon_ms,
            ..
        } => {
            let e0 = global_events_processed();
            let (single, _) = probe.call("engine", "dense_obss_point_opts(ampdu=1)", || {
                dense_obss_point_opts(rows, cols, horizon_ms, seed, DENSE_OBSS_MIX, 1)
            });
            let single_events = global_events_processed() - e0;
            if single.offered != digest_u64(reference, "offered") {
                problems.push("the aggregation cap changed the offered load".into());
            }
            probe.read(
                "ampdu.goodput_gain",
                ratio(digest_f64(reference, "goodput_mbps"), single.aggregate_mbps),
            );
            probe.read(
                "ampdu.event_ratio",
                ratio(digest_u64(reference, "events") as f64, single_events as f64),
            );
        }
    }
    problems
}

fn scale_dcf_pass(
    stations: usize,
    horizon_ms: u64,
    slices: u64,
    seed: u64,
    probe: &mut Probe,
) -> Pass {
    let t0 = Instant::now();
    let (mut sim, setup_s) = probe.call("scenarios", "scale_dcf_sim", || {
        scale_dcf_sim(stations, horizon_ms, seed, SchedulerKind::TimerWheel)
    });
    probe.read("scenarios.build_s", setup_s);
    probe.read("engine.pending_at_start", sim.scheduler().pending() as f64);

    let horizon = SimTime::from_millis(horizon_ms);
    let mut run_s = 0.0;
    let mut rates = Vec::new();
    for k in 1..=slices {
        let deadline = SimTime::from_nanos(horizon.as_nanos() * k / slices);
        let (n, s) = probe.call("engine", "run_until", || sim.run_until(deadline));
        run_s += s;
        rates.push(ratio(n as f64, s));
    }
    let events = sim.processed();
    probe.read("engine.run_s", run_s);
    probe.read("engine.events", events as f64);
    probe.read("engine.scheduled", sim.scheduler().scheduled_total() as f64);
    probe.read("engine.events_per_s", ratio(events as f64, run_s));
    probe.read(
        "engine.slice_rate_min",
        rates.iter().copied().fold(f64::INFINITY, f64::min),
    );
    probe.read(
        "engine.slice_rate_max",
        rates.iter().copied().fold(0.0, f64::max),
    );

    let world = sim.world();
    let (trace_fnv, metrics_fnv) = observe_world(world, horizon, "SCALE-DCF", probe);

    // Senders are stations 1..=n; station 0 is the sink.
    let senders: Vec<_> = (1..=stations).map(|i| world.stats(i)).collect();
    let completions: Vec<f64> = senders.iter().map(|s| s.tx_completions as f64).collect();
    let delivered: f64 = completions.iter().sum();
    let goodput_mbps = delivered * (SCALE_DCF_PAYLOAD * 8) as f64 / (horizon_ms as f64 / 1e3) / 1e6;
    let jain = jain(&completions);
    let mut problems = Vec::new();
    if !senders
        .iter()
        .all(|s| s.queued > s.tx_completions + s.tx_failures + s.queue_drops)
    {
        problems.push("a SCALE-DCF sender drained its backlog before the horizon".into());
    }
    record_mac(probe, world, 0..=stations);

    let digest = vec![
        ("events", events.to_string()),
        ("trace_fnv", format!("{trace_fnv:016x}")),
        ("metrics_fnv", format!("{metrics_fnv:016x}")),
        ("goodput_mbps", goodput_mbps.to_string()),
        ("jain", jain.to_string()),
    ];
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        setup_s: vec![setup_s],
        digest,
        problems,
    }
}

fn metro_pass(
    rows: usize,
    cols: usize,
    senders: usize,
    horizon_ms: u64,
    workers: usize,
    seed: u64,
    probe: &mut Probe,
) -> Pass {
    let t0 = Instant::now();
    let (world, build_s) = probe.call("scenarios", "metro_dcf_planning_world", || {
        metro_dcf_planning_world(rows, cols, senders, horizon_ms, seed)
    });
    let (plan, plan_s) = probe.call("shard", "shard_plan", || {
        world.shard_plan(SimTime::ZERO, Some(CITY_DCF_RANGE_M))
    });
    let (incoherence, validate_s) = probe.call("shard", "shard_plan_incoherence", || {
        world
            .shard_plan_incoherence(&plan, SimTime::ZERO)
            .map(|i| i.to_string())
    });
    let setup_s = t0.elapsed().as_secs_f64();
    drop(world);
    probe.read("scenarios.build_s", build_s);
    probe.read("grid.world_build_s", build_s);
    probe.read("shard.plan_s", plan_s);
    probe.read("shard.validate_s", validate_s);
    probe.read("shard.count", plan.shard_count() as f64);

    let (report, compose_s) = probe.call("shard", "city_dcf_run", || {
        city_dcf_run(rows, cols, senders, horizon_ms, seed, Some(workers))
    });
    let digest = metro_digest(&report);
    let wall_s = t0.elapsed().as_secs_f64();

    probe.read("shard.compose_s", compose_s);
    probe.read("engine.events", report.events as f64);
    probe.read(
        "engine.events_per_s",
        ratio(report.events as f64, compose_s),
    );
    let loads: Vec<f64> = report.per_shard_events.iter().map(|&e| e as f64).collect();
    let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    probe.read(
        "shard.imbalance",
        ratio(loads.iter().copied().fold(0.0, f64::max), mean),
    );

    let mut problems = Vec::new();
    if let Some(why) = incoherence {
        problems.push(format!("shard plan failed validation: {why}"));
    }
    if plan.shard_count() != rows * cols || report.shards != plan.shard_count() {
        problems.push(format!(
            "expected one shard per cell ({}), planned {}, ran {}",
            rows * cols,
            plan.shard_count(),
            report.shards
        ));
    }
    Pass {
        wall_s,
        setup_s: vec![setup_s],
        digest,
        problems,
    }
}

fn metro_digest(r: &wn_mac80211::shard::ShardRunReport) -> Digest {
    vec![
        ("events", r.events.to_string()),
        ("shards", r.shards.to_string()),
        ("trace_fnv", format!("{:016x}", r.trace_fnv)),
        ("metrics_fnv", format!("{:016x}", r.metrics_fnv)),
    ]
}

fn dense_obss_pass(
    rows: usize,
    cols: usize,
    horizon_ms: u64,
    probe_ms: u64,
    probes: usize,
    seed: u64,
    probe: &mut Probe,
) -> Pass {
    // `dense_obss_point` builds and runs in one call, so set-up cannot
    // be split out; the same block on a `probe_ms` horizon stands in
    // for it (construction, boot, neighbor build, a few hundred events).
    let setup_s: Vec<f64> = (0..probes)
        .map(|_| {
            probe
                .call("scenarios", "dense_obss_point(probe)", || {
                    dense_obss_point(rows, cols, probe_ms, seed, DENSE_OBSS_MIX)
                })
                .1
        })
        .collect();
    probe.read("scenarios.build_s", crate::median(&setup_s));

    let t0 = Instant::now();
    let e0 = global_events_processed();
    let (p, run_s) = probe.call("engine", "dense_obss_point", || {
        dense_obss_point(rows, cols, horizon_ms, seed, DENSE_OBSS_MIX)
    });
    let events = global_events_processed() - e0;
    let mut digest = vec![
        ("events", events.to_string()),
        ("offered", p.offered.to_string()),
        ("completed", p.completed.to_string()),
        ("goodput_mbps", p.aggregate_mbps.to_string()),
        ("jain_within_class", p.jain_airtime_within_class.to_string()),
    ];
    // Per access category, indexed VO/VI/BE/BK like `ac_p50_us`.
    const P50: [&str; 4] = ["p50_us_vo", "p50_us_vi", "p50_us_be", "p50_us_bk"];
    const P99: [&str; 4] = ["p99_us_vo", "p99_us_vi", "p99_us_be", "p99_us_bk"];
    for i in 0..4 {
        digest.push((P50[i], p.ac_p50_us[i].to_string()));
        digest.push((P99[i], p.ac_p99_us[i].to_string()));
    }
    let wall_s = t0.elapsed().as_secs_f64();

    probe.read("engine.run_s", run_s);
    probe.read("engine.events", events as f64);
    probe.read("engine.events_per_s", ratio(events as f64, run_s));
    probe.read("mac.tx_completions", p.completed as f64);
    probe.read("edca.delivered_frac", p.delivered_frac());

    let mut problems = Vec::new();
    if p.completed == 0 || p.completed > p.offered {
        problems.push(format!(
            "delivered {} of {} offered MSDUs",
            p.completed, p.offered
        ));
    }
    if p.ac_p50_us[0] > p.ac_p50_us[2] {
        problems.push("AC_VO median access delay fell behind AC_BE".into());
    }
    Pass {
        wall_s,
        setup_s,
        digest,
        problems,
    }
}

/// Exports the world's trace and metrics snapshot (the digest inputs)
/// and reads the trace and arena counters; returns the two digests.
fn observe_world(world: &WlanWorld, now: SimTime, tag: &str, probe: &mut Probe) -> (u64, u64) {
    let (trace_fnv, export_s) = probe.call("trace", "to_jsonl", || {
        fnv1a(world.trace.to_jsonl(tag).as_bytes())
    });
    let (metrics_fnv, snapshot_s) = probe.call("metrics", "metrics_snapshot", || {
        fnv1a(world.metrics_snapshot(now).to_jsonl(tag).as_bytes())
    });
    probe.read("trace.export_s", export_s);
    probe.read("metrics.snapshot_s", snapshot_s);
    probe.read("trace.records", world.trace.len() as f64);
    probe.read("trace.dropped", world.trace.dropped() as f64);
    probe.read("arena.live_end", world.frame_arena().live() as f64);
    probe.read("arena.capacity", world.frame_arena().capacity() as f64);
    (trace_fnv, metrics_fnv)
}

/// Sums the MAC's per-station counters over `ids`.
fn record_mac(probe: &mut Probe, world: &WlanWorld, ids: std::ops::RangeInclusive<usize>) {
    let (mut frames, mut retries, mut failures, mut completions, mut rx_errors) = (0, 0, 0, 0, 0);
    for id in ids {
        let s = world.stats(id);
        frames += s.tx_frames;
        retries += s.retries;
        failures += s.tx_failures;
        completions += s.tx_completions;
        rx_errors += s.rx_errors;
    }
    probe.read("mac.tx_frames", frames as f64);
    probe.read("mac.retries", retries as f64);
    probe.read("mac.tx_failures", failures as f64);
    probe.read("mac.tx_completions", completions as f64);
    probe.read("mac.rx_errors", rx_errors as f64);
    probe.read(
        "mac.attempt_efficiency",
        ratio(completions as f64, frames as f64),
    );
}

fn jain(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    ratio(sum * sum, xs.len() as f64 * sum_sq)
}

fn digest_value<'a>(d: &'a Digest, key: &str) -> &'a str {
    d.iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.as_str())
        .expect("digest carries the key")
}

fn digest_u64(d: &Digest, key: &str) -> u64 {
    digest_value(d, key).parse().expect("integer digest entry")
}

fn digest_f64(d: &Digest, key: &str) -> f64 {
    digest_value(d, key).parse().expect("numeric digest entry")
}
