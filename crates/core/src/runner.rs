//! The campaign runner: a registry of every experiment in the
//! reproduction, executed through the `wn-sim` worker pool.
//!
//! Each [`Experiment`] couples a stable id (the figure/table of the
//! source text it reproduces) with a zero-argument function that runs
//! the scenario — seeds baked in, so a campaign is reproducible by
//! construction — and renders its Markdown section. [`run_campaign`]
//! fans the registry across threads with [`wn_sim::par_map_with`];
//! because results come back in registry order and every scenario is
//! seed-deterministic, the assembled report is byte-identical for any
//! worker count.

use std::fmt::Write as _;

use crate::experiment::ExperimentReport;
use crate::scenarios;

/// The rendered result of one experiment run.
#[derive(Clone, Debug)]
pub struct ExperimentOutput {
    /// The experiment id, e.g. `"FIG-1.6"`.
    pub id: &'static str,
    /// The Markdown section exactly as it appears in EXPERIMENTS.md.
    pub markdown: String,
    /// Whether every comparison and claim held.
    pub passed: bool,
}

/// An observability export: returns `(trace_jsonl, metrics_jsonl)`
/// from a compact instrumented run of the experiment's scenario.
pub type ObserveFn = fn() -> (String, String);

/// One registered experiment: id, summary, and how to run it.
pub struct Experiment {
    /// Stable id matching the section header ("FIG-1.13", "ABL-CW", …).
    pub id: &'static str,
    /// One-line summary (the report title).
    pub title: &'static str,
    run: fn() -> ExperimentOutput,
    /// Typed-trace/metrics export, where the scenario is instrumented.
    pub observe: Option<ObserveFn>,
}

impl Experiment {
    /// Runs the experiment, producing its rendered section.
    pub fn run(&self) -> ExperimentOutput {
        (self.run)()
    }
}

/// The trace and metrics JSONL of one instrumented experiment.
#[derive(Clone, Debug)]
pub struct ObservabilityOutput {
    /// The experiment id, e.g. `"FIG-1.6"`.
    pub id: &'static str,
    /// Typed trace events, one JSON object per line.
    pub trace_jsonl: String,
    /// Metrics snapshot rows, one JSON object per line.
    pub metrics_jsonl: String,
}

/// Renders the standard report section: `to_markdown()` plus the blank
/// line the report generator leaves between sections.
fn section(id: &'static str, report: ExperimentReport) -> ExperimentOutput {
    ExperimentOutput {
        id,
        passed: report.passed(),
        markdown: format!("{}\n", report.to_markdown()),
    }
}

fn run_fig_1_1() -> ExperimentOutput {
    let fig = scenarios::fig_1_1_classification();
    let mut md = String::new();
    let _ = writeln!(md, "### FIG-1.1 — classification scatter [PASS]\n");
    let _ = writeln!(md, "Measured (range, rate) per technology:\n");
    let _ = writeln!(md, "| technology | range [m] | peak rate [Mbps] |");
    let _ = writeln!(md, "|---|---|---|");
    for s in &fig.series {
        let (r, m) = s.points[0];
        let _ = writeln!(md, "| {} | {:.0} | {:.1} |", s.label, r, m);
    }
    let _ = writeln!(md);
    ExperimentOutput {
        id: "FIG-1.1",
        passed: true,
        markdown: md,
    }
}

fn run_fig_1_2() -> ExperimentOutput {
    section("FIG-1.2", scenarios::fig_1_2_bluetooth().1)
}

fn run_fig_2() -> ExperimentOutput {
    section("FIG-2", scenarios::fig_2_irda().1)
}

fn run_fig_1_4() -> ExperimentOutput {
    section("FIG-1.4", scenarios::fig_1_4_zigbee(42).1)
}

fn run_fig_1_5() -> ExperimentOutput {
    section("FIG-1.5", scenarios::fig_1_5_uwb().1)
}

fn run_fig_1_6() -> ExperimentOutput {
    section("FIG-1.6", scenarios::fig_1_6_wlan_home(42).1)
}

fn run_fig_1_7() -> ExperimentOutput {
    section("FIG-1.7", scenarios::fig_1_7_wimax().1)
}

fn run_fig_1_8() -> ExperimentOutput {
    section("FIG-1.8", scenarios::fig_1_8_wwan().1)
}

fn run_fig_1_9() -> ExperimentOutput {
    section("FIG-1.9", scenarios::fig_1_9_ibss_vs_bss(42).1)
}

fn run_fig_1_10() -> ExperimentOutput {
    let (outcome, r) = scenarios::fig_1_10_ess_roaming(5);
    let mut md = format!("{}\n", r.to_markdown());
    let _ = writeln!(
        md,
        "measured handoff gap: {:?} s; deliveries {}/{}\n",
        outcome.handoff_gap_s, outcome.delivered, outcome.offered
    );
    ExperimentOutput {
        id: "FIG-1.10",
        passed: r.passed(),
        markdown: md,
    }
}

fn run_fig_1_12() -> ExperimentOutput {
    section("FIG-1.12", scenarios::fig_1_12_frame_overhead().1)
}

fn run_fig_1_13() -> ExperimentOutput {
    section("FIG-1.13", scenarios::fig_1_13_phy_ladder().1)
}

fn run_sec_rank() -> ExperimentOutput {
    section("SEC-RANK", scenarios::sec_ranking().1)
}

fn run_adv_6() -> ExperimentOutput {
    section("ADV-6", scenarios::adv_tradeoffs(13).1)
}

fn run_abl_cw() -> ExperimentOutput {
    section("ABL-CW", scenarios::ablation_cw_sweep(17).1)
}

fn run_abl_capture() -> ExperimentOutput {
    section("ABL-CAPTURE", scenarios::ablation_capture(19).1)
}

fn run_abl_arf() -> ExperimentOutput {
    section("ABL-ARF", scenarios::ablation_arf(23).1)
}

fn run_abl_adj() -> ExperimentOutput {
    section("ABL-ADJ", scenarios::adjacent_channels(29).1)
}

fn run_abl_fading() -> ExperimentOutput {
    section("ABL-FADING", scenarios::fading_link(37).1)
}

fn run_energy() -> ExperimentOutput {
    section("ENERGY-2.1", scenarios::energy_budget().1)
}

fn run_tab_8_1() -> ExperimentOutput {
    section("TAB-8.1", scenarios::table_8_1())
}

fn run_scale_dcf() -> ExperimentOutput {
    let (points, r) = scenarios::scale_dcf(42);
    let mut md = format!("{}\n", r.to_markdown());
    let _ = writeln!(
        md,
        "| stations | horizon [ms] | per-station [kbps] | aggregate [Mbps] | Jain | p50 delay [ms] | p99 delay [ms] | events |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|---|---|");
    for p in &points {
        let _ = writeln!(
            md,
            "| {} | {} | {:.1} | {:.2} | {:.4} | {} | {} | {} |",
            p.stations,
            p.duration_ms,
            p.per_station_kbps,
            p.aggregate_mbps,
            p.jain_fairness,
            p.access_delay_p50_us / 1_000,
            p.access_delay_p99_us / 1_000,
            p.events,
        );
    }
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "Horizons scale with station count so the Jain index converges \
         (DCF is short-term unfair by design); the 500/1000-station tail \
         measures the collapse on a fixed horizon. Scheduler wall-clock \
         on this workload: perfbench scale-dcf `scheduler.replay_s`; \
         `tests/determinism.rs` holds the wheel's pop order to a \
         reference heap.\n"
    );
    ExperimentOutput {
        id: "SCALE-DCF",
        passed: r.passed(),
        markdown: md,
    }
}

fn run_city_dcf() -> ExperimentOutput {
    let (points, r) = scenarios::city_dcf(42);
    let mut md = format!("{}\n", r.to_markdown());
    let _ = writeln!(
        md,
        "| cells | stations | senders/cell | horizon [ms] | shards | per-sender [kbps] | aggregate [Mbps] | cross-BSS Jain |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|---|---|");
    for p in &points {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {:.1} | {:.2} | {:.4} |",
            p.cells,
            p.stations,
            p.senders_per_cell,
            p.duration_ms,
            p.shards,
            p.per_station_kbps,
            p.aggregate_mbps,
            p.jain_cross_bss,
        );
    }
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "Each cell is an independent interference shard (channels 1/6/11, \
         200 m street grid). Shard-executor speedup: perfbench metro \
         `par.speedup_w2`; `tests/city_dcf.rs` asserts equal digests on \
         1 and 2 workers.\n"
    );
    ExperimentOutput {
        id: "CITY-DCF",
        passed: r.passed(),
        markdown: md,
    }
}

fn run_metro_dcf() -> ExperimentOutput {
    let (points, r) = scenarios::metro_dcf(42);
    let mut md = format!("{}\n", r.to_markdown());
    // No wall-clock columns here: the report must render byte-identically
    // across passes and thread counts, so timings live only in perfbench
    // (`shard.plan_s`, `shard.validate_s`) and perfsuite's per-experiment
    // row in `BENCH_campaign.json`.
    let _ = writeln!(
        md,
        "| cells | stations | senders/cell | horizon [ms] | shards | sparse/dense pairs |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|");
    for p in &points {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {} |",
            p.cells,
            p.stations,
            p.senders_per_cell,
            p.duration_ms,
            p.shards,
            p.stored_entries
                .map(|s| format!("{s}/{}", p.dense_entries()))
                .unwrap_or_else(|| "-".into()),
        );
    }
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "The CITY-DCF street grid swept to 100k+ stations. Planning and \
         neighbor-cache construction run on the spatial hash grid \
         (O(n·k) 27-cell neighborhood scans instead of O(n²) pair \
         scans; DESIGN.md §17). Planning wall-clock: perfbench metro \
         `shard.plan_s` / `shard.validate_s`; `tests/metro_dcf.rs` holds \
         the grid plan to the brute-force reference.\n"
    );
    ExperimentOutput {
        id: "METRO-DCF",
        passed: r.passed(),
        markdown: md,
    }
}

fn run_dense_obss() -> ExperimentOutput {
    let (points, r) = scenarios::dense_obss(42);
    let mut md = format!("{}\n", r.to_markdown());
    let _ = writeln!(
        md,
        "| grid | APs | max co-channel | horizon [ms] | VO p50/p99 [µs] | VI p50/p99 [µs] | BE p50/p99 [µs] | BK p50/p99 [µs] | class Jain | delivered |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|---|---|---|---|");
    for p in &points {
        let _ = writeln!(
            md,
            "| {}x{} | {} | {} | {} | {}/{} | {}/{} | {}/{} | {}/{} | {:.4} | {:.0}% |",
            p.grid.0,
            p.grid.1,
            p.aps,
            p.cochannel_max,
            p.duration_ms,
            p.ac_p50_us[0],
            p.ac_p99_us[0],
            p.ac_p50_us[1],
            p.ac_p99_us[1],
            p.ac_p50_us[2],
            p.ac_p99_us[2],
            p.ac_p50_us[3],
            p.ac_p99_us[3],
            p.jain_airtime_within_class,
            p.delivered_frac() * 100.0,
        );
    }
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "Every AP offers the same fixed downlink rate through the four \
         EDCA queues (A-MPDU on), so densifying the block shrinks each \
         co-channel class's airtime share: latency climbs with density \
         while AC_VO keeps its priority margin over AC_BE and airtime \
         stays Jain-fair inside each class. The last row re-runs the \
         densest grid on a data-heavy traffic mix. Aggregation-on vs \
         -off goodput: perfbench dense-obss `ampdu.goodput_gain`; \
         `tests/dense_obss.rs` asserts aggregation never loses goodput.\n"
    );
    ExperimentOutput {
        id: "DENSE-OBSS",
        passed: r.passed(),
        markdown: md,
    }
}

/// The full registry, in the order sections appear in EXPERIMENTS.md.
pub fn experiments() -> Vec<Experiment> {
    macro_rules! exp {
        ($id:literal, $title:literal, $f:ident) => {
            Experiment {
                id: $id,
                title: $title,
                run: $f,
                observe: None,
            }
        };
        ($id:literal, $title:literal, $f:ident, $obs:expr) => {
            Experiment {
                id: $id,
                title: $title,
                run: $f,
                observe: Some($obs),
            }
        };
    }
    vec![
        exp!("FIG-1.1", "Classification scatter", run_fig_1_1),
        exp!(
            "FIG-1.2",
            "Bluetooth piconets and scatternet",
            run_fig_1_2,
            scenarios::observe_fig_1_2 as ObserveFn
        ),
        exp!("FIG-2", "IrDA point-to-point link", run_fig_2),
        exp!(
            "FIG-1.4",
            "ZigBee star/mesh/cluster-tree",
            run_fig_1_4,
            || { scenarios::observe_fig_1_4(42) }
        ),
        exp!("FIG-1.5", "UWB power/bandwidth usage", run_fig_1_5),
        exp!("FIG-1.6", "Home WLAN throughput", run_fig_1_6, || {
            scenarios::observe_fig_1_6(42)
        }),
        exp!(
            "FIG-1.7",
            "WiMAX point-to-multipoint",
            run_fig_1_7,
            scenarios::observe_fig_1_7 as ObserveFn
        ),
        exp!("FIG-1.8", "Satellite and cellular networks", run_fig_1_8),
        exp!("FIG-1.9", "Independent vs infrastructure BSS", run_fig_1_9),
        exp!(
            "FIG-1.10",
            "ESS roaming (seamless handoff)",
            run_fig_1_10,
            || { scenarios::observe_fig_1_10(5) }
        ),
        exp!("FIG-1.12", "802.11 MAC frame format", run_fig_1_12),
        exp!("FIG-1.13", "802.11 PHY standards ladder", run_fig_1_13),
        exp!(
            "SEC-RANK",
            "Wi-Fi security methods, best to worst",
            run_sec_rank
        ),
        exp!("ADV-6", "Interference and coverage black spots", run_adv_6),
        exp!("ABL-CW", "Binary exponential backoff ablation", run_abl_cw),
        exp!(
            "ABL-CAPTURE",
            "SINR capture effect ablation",
            run_abl_capture
        ),
        exp!("ABL-ARF", "ARF rate-fallback ablation", run_abl_arf),
        exp!("ABL-ADJ", "Adjacent-channel interference", run_abl_adj),
        exp!("ABL-FADING", "Rate adaptation under fading", run_abl_fading),
        exp!("ENERGY-2.1", "WPAN low-power positioning", run_energy),
        exp!(
            "TAB-8.1",
            "Comparison of wireless network types",
            run_tab_8_1
        ),
        exp!(
            "SCALE-DCF",
            "DCF saturation collapse, 10 → 1000 stations",
            run_scale_dcf
        ),
        exp!(
            "CITY-DCF",
            "Spatially-sharded city, 108 BSSes on channels 1/6/11",
            run_city_dcf
        ),
        exp!(
            "METRO-DCF",
            "Grid-indexed metro, 10k -> 100k+ stations",
            run_metro_dcf
        ),
        exp!(
            "DENSE-OBSS",
            "EDCA/A-MPDU apartment block, overlapping BSSes",
            run_dense_obss
        ),
    ]
}

/// The fixed preamble of EXPERIMENTS.md.
pub fn header() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# EXPERIMENTS — paper vs measured\n");
    let _ = writeln!(
        out,
        "Regenerated by `cargo run -p wn-bench --bin report`. Every"
    );
    let _ = writeln!(
        out,
        "experiment id maps to a figure/table of the source text and a"
    );
    let _ = writeln!(
        out,
        "bench target in `crates/bench/benches/` (see DESIGN.md §5).\n"
    );
    let _ = writeln!(
        out,
        "The reproduction criterion is *shape*, not absolute numbers:"
    );
    let _ = writeln!(
        out,
        "who wins, by roughly what factor, where the cutoffs fall.\n"
    );
    out
}

/// Runs every experiment on `threads` workers, in registry order.
pub fn run_campaign(threads: usize) -> Vec<ExperimentOutput> {
    wn_sim::par_map_with(threads, experiments(), |e| e.run())
}

/// Runs the whole campaign and assembles EXPERIMENTS.md.
///
/// The output is byte-identical for every `threads` value: scenarios
/// are seed-deterministic and [`wn_sim::par_map_with`] returns results
/// in input (registry) order.
pub fn campaign_markdown(threads: usize) -> String {
    let mut out = header();
    for s in run_campaign(threads) {
        out.push_str(&s.markdown);
    }
    out
}

/// Runs only the experiments whose ids appear in `ids` (matched
/// case-insensitively), preserving registry order.
///
/// Returns an error naming the first unknown id.
pub fn run_selected(threads: usize, ids: &[String]) -> Result<Vec<ExperimentOutput>, String> {
    let all = experiments();
    for want in ids {
        if !all.iter().any(|e| e.id.eq_ignore_ascii_case(want)) {
            return Err(format!(
                "unknown experiment id '{want}' (try --list for the registry)"
            ));
        }
    }
    let picked: Vec<Experiment> = all
        .into_iter()
        .filter(|e| ids.iter().any(|w| e.id.eq_ignore_ascii_case(w)))
        .collect();
    Ok(wn_sim::par_map_with(threads, picked, |e| e.run()))
}

/// Runs the observability export of every instrumented experiment on
/// `threads` workers, in registry order.
///
/// Like [`run_campaign`], the output is byte-identical for every
/// `threads` value: each export is seed-deterministic and results come
/// back in input order.
pub fn run_observability(threads: usize) -> Vec<ObservabilityOutput> {
    let jobs: Vec<(&'static str, ObserveFn)> = experiments()
        .into_iter()
        .filter_map(|e| e.observe.map(|f| (e.id, f)))
        .collect();
    wn_sim::par_map_with(threads, jobs, |(id, f)| {
        let (trace_jsonl, metrics_jsonl) = f();
        ObservabilityOutput {
            id,
            trace_jsonl,
            metrics_jsonl,
        }
    })
}

/// Concatenates per-experiment trace JSONL in registry order.
pub fn observability_trace_jsonl(outputs: &[ObservabilityOutput]) -> String {
    outputs.iter().map(|o| o.trace_jsonl.as_str()).collect()
}

/// Concatenates per-experiment metrics JSONL in registry order.
pub fn observability_metrics_jsonl(outputs: &[ObservabilityOutput]) -> String {
    outputs.iter().map(|o| o.metrics_jsonl.as_str()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_ordered_like_the_report() {
        let exps = experiments();
        assert_eq!(exps.len(), 25);
        let mut seen = std::collections::BTreeSet::new();
        for e in &exps {
            assert!(seen.insert(e.id), "duplicate id {}", e.id);
        }
        assert_eq!(exps[0].id, "FIG-1.1");
        assert_eq!(exps.last().unwrap().id, "DENSE-OBSS");
    }

    #[test]
    fn observability_covers_every_layer_and_is_nonempty() {
        let outs = run_observability(2);
        let ids: Vec<&str> = outs.iter().map(|o| o.id).collect();
        assert_eq!(
            ids,
            ["FIG-1.2", "FIG-1.4", "FIG-1.6", "FIG-1.7", "FIG-1.10"],
            "registry order, one per instrumented layer"
        );
        for o in &outs {
            assert!(
                !o.trace_jsonl.is_empty(),
                "{} exported no trace events",
                o.id
            );
            assert!(!o.metrics_jsonl.is_empty(), "{} exported no metrics", o.id);
            for line in o.trace_jsonl.lines().chain(o.metrics_jsonl.lines()) {
                assert!(
                    line.starts_with(&format!("{{\"exp\":\"{}\"", o.id)),
                    "line not tagged with {}: {line}",
                    o.id
                );
            }
        }
    }

    /// Every `report --metrics-json` export must snapshot at the
    /// scenario's end-of-run deadline, not at the last metric update —
    /// that deadline is what flushes a [`wn_sim::stats::TimeWeighted`]
    /// gauge's final interval (see
    /// `gauge_end_of_run_flush_accounts_tail_interval` in `wn-sim`).
    /// Pin it: each export stamps one single `at_ns`, and no trace
    /// event (i.e. no possible gauge update) comes after it.
    #[test]
    fn metrics_export_is_stamped_at_end_of_run() {
        fn field_u64(line: &str, key: &str) -> u64 {
            let pat = format!("\"{key}\":");
            let rest = &line[line.find(&pat).expect("field present") + pat.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().expect("numeric field")
        }
        let outs = run_observability(1);
        assert!(!outs.is_empty());
        for o in &outs {
            let stamps: std::collections::BTreeSet<u64> = o
                .metrics_jsonl
                .lines()
                .map(|l| field_u64(l, "at_ns"))
                .collect();
            assert_eq!(stamps.len(), 1, "{}: one capture time per export", o.id);
            let snap_at = *stamps.iter().next().unwrap();
            let last_event = o
                .trace_jsonl
                .lines()
                .map(|l| field_u64(l, "at_ns"))
                .max()
                .unwrap_or(0);
            assert!(
                snap_at >= last_event,
                "{}: metrics stamped at {snap_at} ns but events ran to {last_event} ns — \
                 the snapshot must capture the end-of-run tail",
                o.id
            );
        }
    }

    #[test]
    fn unknown_id_is_rejected() {
        let err = run_selected(1, &["FIG-9.9".to_string()]).unwrap_err();
        assert!(err.contains("FIG-9.9"));
    }

    #[test]
    fn selection_preserves_registry_order() {
        let out =
            run_selected(2, &["FIG-1.13".to_string(), "FIG-1.5".to_string()]).expect("known ids");
        let ids: Vec<&str> = out.iter().map(|o| o.id).collect();
        assert_eq!(ids, ["FIG-1.5", "FIG-1.13"]);
    }
}
