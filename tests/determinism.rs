//! Determinism regression tests: the parallel campaign runner must be
//! a pure optimisation — same seeds, same bytes, any thread count.

use wireless_networks::check::{range_digest, ScenarioGen};
use wireless_networks::core::runner;
use wireless_networks::core::scenarios::wlan_saturation_full;
use wireless_networks::phy::modulation::PhyStandard;
use wireless_networks::sim::stats::fnv1a;

/// The full campaign renders byte-identically on one worker and on
/// eight. This is the guarantee EXPERIMENTS.md regeneration relies on:
/// `par_map_with` returns results in registry order and every scenario
/// is deterministic from its baked seed.
#[test]
fn campaign_markdown_is_byte_identical_across_thread_counts() {
    let serial = runner::campaign_markdown(1);
    let parallel = runner::campaign_markdown(8);
    assert!(
        serial == parallel,
        "campaign output diverged between 1 and 8 threads"
    );
    // Sanity: the campaign actually rendered every section.
    for e in runner::experiments() {
        assert!(
            serial.contains(&format!("### {}", e.id)),
            "missing section {}",
            e.id
        );
    }
}

/// FNV-1a of `runner::observability_trace_jsonl` over the campaign's
/// instrumented experiments (what `report --trace-json` writes).
const OBSERVABILITY_TRACE_FNV: u64 = 0x30b4_548d_7e81_55b8;
/// FNV-1a of `runner::observability_metrics_jsonl` (what `report
/// --metrics-json` writes).
const OBSERVABILITY_METRICS_FNV: u64 = 0x8982_758f_f5f8_61e6;

/// The observability exports (typed trace + metrics JSONL) are also
/// byte-identical for any worker count — the guarantee behind
/// `report --trace-json` / `--metrics-json` — and equal to the pinned
/// digests, so a refactor that moves any exported byte shows here.
#[test]
fn observability_jsonl_is_byte_identical_across_thread_counts() {
    let serial = runner::run_observability(1);
    let parallel = runner::run_observability(8);
    let trace = runner::observability_trace_jsonl(&serial);
    let metrics = runner::observability_metrics_jsonl(&serial);
    assert_eq!(
        trace,
        runner::observability_trace_jsonl(&parallel),
        "trace JSONL diverged between 1 and 8 threads"
    );
    assert_eq!(
        metrics,
        runner::observability_metrics_jsonl(&parallel),
        "metrics JSONL diverged between 1 and 8 threads"
    );
    assert!(!serial.is_empty(), "some experiments must be instrumented");
    assert_eq!(
        fnv1a(trace.as_bytes()),
        OBSERVABILITY_TRACE_FNV,
        "trace JSONL moved off its pinned digest"
    );
    assert_eq!(
        fnv1a(metrics.as_bytes()),
        OBSERVABILITY_METRICS_FNV,
        "metrics JSONL moved off its pinned digest"
    );
}

/// The simulation fuzzer is deterministic the same way: a seed range's
/// digest — per-seed event counts, violation counts and full-trace
/// fingerprints — is byte-identical at `--threads 1` and `--threads 8`,
/// and stable across repeat runs in one process.
#[test]
fn fuzzer_digest_is_byte_identical_across_thread_counts() {
    let serial = range_digest(ScenarioGen::default(), 0, 32, 1);
    let parallel = range_digest(ScenarioGen::default(), 0, 32, 8);
    assert!(
        serial == parallel,
        "fuzzer digest diverged between 1 and 8 threads"
    );
    assert_eq!(serial.lines().count(), 32);
    assert_eq!(
        serial,
        range_digest(ScenarioGen::default(), 0, 32, 8),
        "fuzzer digest not stable across repeat runs"
    );
}

/// The scheduler-order oracle over the fuzz corpus: every generated
/// scenario's recorded op stream pops in the same order through the
/// timer wheel as through `wn-check`'s reference binary heap. (CI runs
/// it over 500 seeds in the default `fuzz` leg; this in-tree slice
/// keeps the guarantee under plain `cargo test`.)
#[test]
fn fuzzer_digest_is_identical_across_scheduler_backends() {
    use wireless_networks::check::{oracle::SchedulerOrder, run, Invariant};
    let gen = ScenarioGen::default();
    for seed in 0..32 {
        let art = run::run_scenario(&gen.scenario(seed));
        assert!(!art.ops.is_empty(), "seed {seed}: no op stream recorded");
        let violations = SchedulerOrder.check(&art);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}

/// The SCALE-DCF saturation workload — the dense-timer stress case the
/// wheel exists for — pops in the same order through the reference
/// heap as through the wheel, and the replay pops exactly the events
/// the simulation processed. A small point runs in every profile; the
/// release build adds the 1000-station, 200 ms point (~66k pending
/// timers), the size the wheel is tuned for.
#[test]
fn scale_dcf_is_identical_across_scheduler_backends() {
    use wireless_networks::check::reference_replay_ops;
    use wireless_networks::core::scenarios::{scale_dcf_op_log, scale_dcf_point};
    use wireless_networks::sim::{replay_ops, SchedulerKind};
    let mut inputs = vec![(20, 150, 7)];
    if !cfg!(debug_assertions) {
        inputs.push((1000, 200, 42));
    }
    for (stations, duration_ms, seed) in inputs {
        let ops = scale_dcf_op_log(stations, duration_ms, seed);
        let (pops, fnv) = replay_ops(SchedulerKind::TimerWheel, &ops);
        assert_eq!(
            (pops, fnv),
            reference_replay_ops(&ops),
            "SCALE-DCF n={stations}: pop order diverged between the wheel and the reference heap"
        );
        assert_eq!(
            pops,
            scale_dcf_point(stations, duration_ms, seed).events,
            "SCALE-DCF n={stations}: the replay popped a different event count than the run"
        );
        assert!(pops > 10_000, "workload too small to mean anything");
    }
}

/// Two runs of the same seeded scenario give bit-equal results — the
/// saturation sim has no hidden global state.
#[test]
fn same_seed_same_throughput() {
    let a = wlan_saturation_full(PhyStandard::Dot11g, 4, false, 99, false, false);
    let b = wlan_saturation_full(PhyStandard::Dot11g, 4, false, 99, false, false);
    assert_eq!(a.to_bits(), b.to_bits());
}

/// Different seeds actually change the outcome (the seed is wired
/// through, not ignored).
#[test]
fn different_seed_different_schedule() {
    let a = wlan_saturation_full(PhyStandard::Dot11g, 4, false, 99, false, false);
    let b = wlan_saturation_full(PhyStandard::Dot11g, 4, false, 100, false, false);
    assert_ne!(a.to_bits(), b.to_bits());
}
