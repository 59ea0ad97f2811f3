//! perfbench — the repository's benchmark: three flagship workloads
//! timed end to end (untraced) and layer by layer (traced), through the
//! simulator's public top-level entry points only. See `NOTES.md` in
//! this directory for the workloads, the metrics and what each layer
//! metric is expected to move.

pub mod host;
pub mod spans;
pub mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use spans::{Probe, BENCH};
use workloads::{Digest, Params, Pass, Workload};

/// The seed whose digests are pinned in [`pinned`].
pub const DEFAULT_SEED: u64 = 42;

/// Passes every run makes at least, so a median always exists.
pub const MIN_PASSES: usize = 3;

/// End-to-end metrics `(name, unit)`, reported by untraced runs.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Span layers whose summed self time the traced run reports, with the
/// metric it is reported under.
const SPAN_LAYERS: [(&str, &str); 7] = [
    ("scenarios", "scenarios.self_s"),
    ("engine", "engine.self_s"),
    ("scheduler", "scheduler.self_s"),
    ("shard", "shard.self_s"),
    ("neighbors", "neighbors.self_s"),
    ("trace", "trace.self_s"),
    ("metrics", "metrics.self_s"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs. A
/// workload that does not reach a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("scenarios.build_s", "s"),
    ("engine.pending_at_start", "count"),
    ("engine.run_s", "s"),
    ("engine.events", "count"),
    ("engine.scheduled", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.slice_rate_min", "1/s"),
    ("engine.slice_rate_max", "1/s"),
    ("scheduler.replay_s", "s"),
    ("scheduler.ops", "count"),
    ("scheduler.share", "ratio"),
    ("mac.tx_frames", "count"),
    ("mac.retries", "count"),
    ("mac.tx_failures", "count"),
    ("mac.tx_completions", "count"),
    ("mac.rx_errors", "count"),
    ("mac.attempt_efficiency", "ratio"),
    ("trace.records", "count"),
    ("trace.dropped", "count"),
    ("trace.export_s", "s"),
    ("metrics.snapshot_s", "s"),
    ("arena.live_end", "count"),
    ("arena.capacity", "count"),
    ("observability.overhead", "ratio"),
    ("grid.world_build_s", "s"),
    ("shard.plan_s", "s"),
    ("shard.validate_s", "s"),
    ("shard.count", "count"),
    ("neighbors.prime_s", "s"),
    ("neighbors.stored_pairs", "count"),
    ("shard.compose_s", "s"),
    ("shard.compose_serial_s", "s"),
    ("par.speedup_w2", "ratio"),
    ("shard.imbalance", "ratio"),
    ("ampdu.goodput_gain", "ratio"),
    ("ampdu.event_ratio", "ratio"),
    ("edca.delivered_frac", "ratio"),
    ("scenarios.self_s", "s"),
    ("engine.self_s", "s"),
    ("scheduler.self_s", "s"),
    ("shard.self_s", "s"),
    ("neighbors.self_s", "s"),
    ("trace.self_s", "s"),
    ("metrics.self_s", "s"),
    ("untimed_s", "s"),
    ("traced.wall_s", "s"),
];

/// The digest a pass at the benchmarked size and [`DEFAULT_SEED`] must
/// reproduce exactly.
pub fn pinned(w: Workload) -> &'static [(&'static str, &'static str)] {
    match w {
        Workload::ScaleDcf => &[
            ("events", "2727537"),
            ("trace_fnv", "8bc63adc7e517262"),
            ("metrics_fnv", "af3fa629803ace2d"),
            ("goodput_mbps", "3.210666666666667"),
            ("jain", "0.18527811860940696"),
        ],
        Workload::Metro => &[
            ("events", "1637486"),
            ("shards", "108"),
            ("trace_fnv", "466d828160d1651f"),
            ("metrics_fnv", "32b1a90abb2d3d33"),
        ],
        Workload::DenseObss => &[
            ("events", "1817719"),
            ("offered", "360000"),
            ("completed", "113958"),
            ("goodput_mbps", "145.86624"),
            ("jain_within_class", "0.7927816617525287"),
            ("p50_us_vo", "720"),
            ("p99_us_vo", "5504"),
            ("p50_us_vi", "1760"),
            ("p99_us_vi", "15104"),
            ("p50_us_be", "606208"),
            ("p99_us_be", "1081344"),
            ("p50_us_bk", "3473408"),
            ("p99_us_bk", "4587520"),
        ],
    }
}

/// Median of a non-empty sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Everything one run produced.
pub struct Outcome {
    /// No operation failed.
    pub correct: bool,
    /// Operations run: passes, plus the traced run's extras.
    pub attempted: u64,
    /// Operations whose digest or scenario checks failed.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The provenance stamp, one JSON object.
    pub provenance: String,
    /// The traced run's spans as JSONL (empty when untraced).
    pub spans_jsonl: String,
}

/// Runs `w` at `params` for at least `seconds` (and [`MIN_PASSES`]
/// passes); a traced run then adds the workload's extra probes.
pub fn run(w: Workload, params: &Params, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut probe = Probe::new(trace);
    let root = probe.enter(BENCH, "run");
    let start = Instant::now();
    let pinned = (seed == DEFAULT_SEED && *params == Params::bench(w)).then(|| pinned(w));
    let mut passes: Vec<Pass> = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    let mut failed = 0u64;
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let id = probe.enter(BENCH, "pass");
        let p = workloads::pass(params, seed, &mut probe);
        probe.exit(id);
        let mut bad = p.problems.clone();
        if let Some(pins) = pinned {
            if !digest_matches(&p.digest, pins) {
                bad.push(format!(
                    "digest {} differs from the pinned one",
                    digest_json(&p.digest)
                ));
            }
        }
        if passes.first().is_some_and(|first| first.digest != p.digest) {
            bad.push(format!(
                "digest {} differs from the first pass",
                digest_json(&p.digest)
            ));
        }
        if !bad.is_empty() {
            failed += 1;
            problems.extend(
                bad.into_iter()
                    .map(|b| format!("pass {}: {b}", passes.len())),
            );
        }
        passes.push(p);
    }
    let mut attempted = passes.len() as u64;
    if trace {
        let id = probe.enter(BENCH, "extras");
        let bad = workloads::extras(params, seed, &mut probe, &passes);
        probe.exit(id);
        attempted += 1;
        if !bad.is_empty() {
            failed += 1;
            problems.extend(bad.into_iter().map(|b| format!("extras: {b}")));
        }
    }
    probe.exit(root);

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let setups: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.setup_s.iter().copied())
        .collect();
    let (metrics, exercised) = if trace {
        layer_metrics(&probe)
    } else {
        // Every pass does identical, deterministic work, and host
        // interference only ever adds time, so the fastest pass is the
        // steadiest estimate of the code's speed (NOTES.md, "Host
        // noise"); the median and slowest pass are in the provenance.
        let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
        let values = [fastest, median(&setups), host::peak_rss_mb()];
        let m = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
        (m, Vec::new())
    };
    let provenance = provenance(
        w, params, seed, seconds, trace, &passes, &walls, &setups, &exercised, &problems,
    );
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        provenance,
        spans_jsonl: probe.to_jsonl(),
    }
}

/// The per-layer metrics of a traced run, plus the names the workload
/// actually read (the rest report 0).
fn layer_metrics(probe: &Probe) -> (Vec<(&'static str, f64, &'static str)>, Vec<&'static str>) {
    let mut values = probe.reading_medians();
    let exercised: Vec<&'static str> = values.keys().copied().collect();
    let get = |v: &BTreeMap<&str, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
    let share = ratio(
        get(&values, "scheduler.replay_s"),
        get(&values, "engine.run_s"),
    );
    values.insert("scheduler.share", share);
    let speedup = ratio(
        get(&values, "shard.compose_serial_s"),
        get(&values, "shard.compose_s"),
    );
    values.insert("par.speedup_w2", speedup);

    let selfs = probe.self_times();
    let mut timed = 0.0;
    for (layer, metric) in SPAN_LAYERS {
        let s = get(&selfs, layer);
        timed += s;
        values.insert(metric, s);
    }
    // Everything else is the benchmark's own glue (`spans::BENCH`).
    let wall = probe.root_s();
    values.insert("untimed_s", wall - timed);
    values.insert("traced.wall_s", wall);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, get(&values, name), unit))
        .collect();
    (metrics, exercised)
}

fn digest_matches(d: &Digest, pins: &[(&str, &str)]) -> bool {
    d.len() == pins.len()
        && d.iter()
            .zip(pins)
            .all(|((k, v), (pk, pv))| k == pk && v == pv)
}

fn digest_json(d: &Digest) -> String {
    let fields: Vec<String> = d.iter().map(|(k, v)| format!("\"{k}\": \"{v}\"")).collect();
    format!("{{{}}}", fields.join(", "))
}

fn spread_json(xs: &[f64]) -> String {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "{{\"median\": {}, \"min\": {min}, \"max\": {max}, \"n\": {}}}",
        median(xs),
        xs.len()
    )
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[allow(clippy::too_many_arguments)]
fn provenance(
    w: Workload,
    params: &Params,
    seed: u64,
    seconds: f64,
    trace: bool,
    passes: &[Pass],
    walls: &[f64],
    setups: &[f64],
    exercised: &[&str],
    problems: &[String],
) -> String {
    let root = host::repo_root();
    let params_text = format!("{params:?}");
    let params_fnv = wn_sim::stats::fnv1a(params_text.as_bytes());
    let exercised: Vec<String> = exercised.iter().map(|m| json_string(m)).collect();
    let problems: Vec<String> = problems.iter().map(|p| json_string(p)).collect();
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"params\": {}, \"params_fnv\": \"{params_fnv:016x}\", \"seed\": {seed}, \"pinned_seed\": {DEFAULT_SEED}, \"git_rev\": {}, \"source_fnv\": \"{:016x}\", \"nproc\": {}, \"trace\": {trace}, \"run_seconds\": {seconds}, \"repeats\": {}}}, \"wall_s\": {}, \"setup_s\": {}, \"digest\": {}, \"exercised\": [{}], \"problems\": [{}]}}",
        w.name(),
        json_string(&params_text),
        json_string(&host::git_rev(&root)),
        host::source_fnv(&root),
        host::nproc(),
        passes.len(),
        spread_json(walls),
        spread_json(setups),
        digest_json(&passes[0].digest),
        exercised.join(", "),
        problems.join(", "),
    )
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
