//! The shard differential harness (DESIGN.md §15).
//!
//! A fuzz scenario's deployment is partitioned into interference
//! shards ([`WlanWorld::shard_plan`]); each shard becomes its own
//! component world, built by the *same* construction code the classic
//! runner uses. The composition is then executed two ways:
//!
//! - **sliced** — the serial reference kept here for the fuzzer
//!   ([`run_components_sliced`]): each component advanced to the
//!   horizon in 8 equal `run_until` steps, one after another;
//! - **jobs** — each component one independent job with a single
//!   `run_until`, at 1, 2 and 4 workers
//!   ([`wn_mac80211::shard::run_components`]).
//!
//! Traces and metrics are digested in shard order in both modes, and
//! the digests must be byte-identical — covering worker-count and
//! slicing invariance at once, the same differential contract
//! `--propagation-diff` enforces across propagation paths. A single-component plan additionally bridges to
//! the classic engine: its composition is the very same construction
//! `run_scenario` executes, so the digests must equal the classic
//! fingerprints too (verified by a unit test here).
//!
//! Non-WLAN scenario kinds (Bluetooth, ZigBee, WiMAX) have no shared
//! medium to partition and are skipped ([`shard_diff_seed`] returns
//! `None`).

use crate::run::{
    build_ess_sim, data_frame, wlan_ac_of, wlan_config, wlan_sink_of, wlan_station_pos, CheckUpper,
    TRACE_CAPACITY,
};
use crate::scenario::{EssScenario, Scenario, ScenarioGen, ScenarioKind, WlanScenario};
use std::sync::{Arc, Mutex};
use wn_mac80211::addr::MacAddr;
use wn_mac80211::shard::{run_components, ShardRunReport};
use wn_mac80211::sim::{boot as wlan_boot, inject_at, qos_inject_at, WlanWorld};
use wn_sim::par::par_map_with;
use wn_sim::stats::{fnv1a_extend, FNV1A_OFFSET};
use wn_sim::trace::Trace;
use wn_sim::{SimTime, Simulation};

/// The worker counts every differential point runs the jobs under —
/// the "1, 2 and 4 shard configurations" of the contract.
pub const SHARD_WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Equal `run_until` steps the sliced reference advances each
/// component in.
const SLICES: u64 = 8;

pub use wn_mac80211::shard::component_seed;

/// The serial reference composition: builds component `k` with
/// `build(k)` for every `k` in order, advances it to `horizon` in 8
/// equal `run_until` steps and digests the trace and metrics JSONL in
/// shard order — what [`run_components`] must reproduce for any worker
/// count.
pub fn run_components_sliced<B>(
    count: usize,
    horizon: SimTime,
    tag: &str,
    build: B,
) -> ShardRunReport
where
    B: Fn(usize) -> Simulation<WlanWorld>,
{
    let mut per_shard_events = Vec::with_capacity(count);
    let (mut trace_fnv, mut metrics_fnv) = (FNV1A_OFFSET, FNV1A_OFFSET);
    for k in 0..count {
        let mut sim = build(k);
        let events = (1..=SLICES)
            .map(|s| sim.run_until(SimTime::from_nanos(horizon.as_nanos() * s / SLICES)))
            .sum();
        per_shard_events.push(events);
        let world = sim.world();
        trace_fnv = fnv1a_extend(trace_fnv, world.trace.to_jsonl(tag).as_bytes());
        metrics_fnv = fnv1a_extend(
            metrics_fnv,
            world.metrics_snapshot(horizon).to_jsonl(tag).as_bytes(),
        );
    }
    ShardRunReport {
        shards: count,
        events: per_shard_events.iter().sum(),
        per_shard_events,
        trace_fnv,
        metrics_fnv,
    }
}

/// One seed's shard differential outcome.
pub struct ShardDiffReport {
    /// The seed.
    pub seed: u64,
    /// Scenario one-liner.
    pub summary: String,
    /// Scenario kind tag.
    pub kind: &'static str,
    /// Number of shards the deployment partitioned into.
    pub shards: usize,
    /// The sliced serial reference.
    pub sliced: ShardRunReport,
    /// The job runs, one per entry of [`SHARD_WORKER_COUNTS`].
    pub runs: Vec<(usize, ShardRunReport)>,
    /// A partition-soundness failure on the planning world, if any
    /// (`None` = the plan validates).
    pub incoherence: Option<String>,
}

impl ShardDiffReport {
    /// Whether any job run diverged from the sliced reference, or the
    /// plan failed validation.
    pub fn divergent(&self) -> bool {
        self.incoherence.is_some() || self.runs.iter().any(|(_, r)| *r != self.sliced)
    }
}

/// Runs `count` components sliced and as jobs at every
/// [`SHARD_WORKER_COUNTS`] entry.
fn sliced_and_runs<B>(
    count: usize,
    horizon: SimTime,
    build: B,
) -> (ShardRunReport, Vec<(usize, ShardRunReport)>)
where
    B: Fn(usize) -> Simulation<WlanWorld> + Sync,
{
    let sliced = run_components_sliced(count, horizon, "fuzz", &build);
    let runs = SHARD_WORKER_COUNTS
        .iter()
        .map(|&workers| {
            (
                workers,
                run_components(count, horizon, workers, "fuzz", &build),
            )
        })
        .collect();
    (sliced, runs)
}

/// Builds component `k` of a flat-WLAN scenario: the stations in
/// `members` (global ids, ascending), at their scenario positions,
/// with the scenario's traffic — exactly the classic construction
/// restricted to one shard. Injection targets keep their global
/// addresses; a sink outside this shard is simply a MAC address that
/// never answers, which is indistinguishable from the deaf-sink fault
/// the generator already exercises.
fn build_wlan_component(
    seed: u64,
    w: &WlanScenario,
    members: &[usize],
    k: usize,
) -> Simulation<WlanWorld> {
    let mut cfg = wlan_config(seed, w);
    cfg.seed = component_seed(seed, k);
    let delivered = Arc::new(Mutex::new(Vec::new()));
    let mut world = WlanWorld::new(cfg);
    world.trace = Trace::new(TRACE_CAPACITY);
    for &g in members {
        world.add_station(
            MacAddr::station(g as u32),
            wlan_station_pos(w, g),
            Box::new(CheckUpper {
                delivered: delivered.clone(),
            }),
        );
    }
    if w.deaf_sink {
        if let Some(local) = members.iter().position(|&g| g == 0) {
            world.set_channel(local, 11);
        }
    }
    let mut sim = Simulation::new(world);
    wlan_boot(&mut sim);
    for (local, &g) in members.iter().enumerate() {
        let Some(sink) = wlan_sink_of(w, g) else {
            continue;
        };
        for f in 0..u64::from(w.frames_per_sender) {
            let at = SimTime::from_micros(f * w.interval_us);
            let frame = data_frame(g as u32, sink as u32, w.payload);
            if w.edca {
                qos_inject_at(&mut sim, at, local, frame, wlan_ac_of(g, f));
            } else {
                inject_at(&mut sim, at, local, frame);
            }
        }
    }
    sim
}

fn shard_diff_wlan(sc: &Scenario, w: &WlanScenario) -> ShardDiffReport {
    // Planning world: the same deployment, no traffic. `None` for the
    // interference range couples every overlapping-channel pair, so
    // the only splits are exact channel-orthogonality splits — zero
    // spectral overlap means exactly zero leaked power, never a small
    // number (the cross-shard silence argument, DESIGN.md §15).
    let mut planning = WlanWorld::new(wlan_config(sc.seed, w));
    let log = Arc::new(Mutex::new(Vec::new()));
    for i in 0..w.total_stations() {
        planning.add_station(
            MacAddr::station(i as u32),
            wlan_station_pos(w, i),
            Box::new(CheckUpper {
                delivered: log.clone(),
            }),
        );
    }
    if w.deaf_sink {
        planning.set_channel(0, 11);
    }
    let plan = planning.shard_plan(SimTime::ZERO, None);
    let incoherence = planning
        .shard_plan_incoherence(&plan, SimTime::ZERO)
        .map(|i| i.to_string());

    let (sliced, runs) = sliced_and_runs(
        plan.shard_count(),
        SimTime::from_millis(w.duration_ms),
        |k| build_wlan_component(sc.seed, w, &plan.shards[k], k),
    );
    ShardDiffReport {
        seed: sc.seed,
        summary: sc.summary(),
        kind: sc.kind_tag(),
        shards: plan.shard_count(),
        sliced,
        runs,
        incoherence,
    }
}

fn shard_diff_ess(sc: &Scenario, e: &EssScenario) -> ShardDiffReport {
    // An ESS is one shard (see `build_ess_sim`), so the differential
    // degenerates to sliced vs single-run_until over the identical
    // world — the slicing-invariance leg of the contract.
    let (sliced, runs) = sliced_and_runs(1, SimTime::from_secs(e.duration_s), |_k| {
        build_ess_sim(sc.seed, e)
    });
    ShardDiffReport {
        seed: sc.seed,
        summary: sc.summary(),
        kind: sc.kind_tag(),
        shards: 1,
        sliced,
        runs,
        incoherence: None,
    }
}

/// Runs the shard differential for one explicit scenario;
/// `None` for kinds without a shared medium to partition.
pub fn shard_diff_scenario(sc: &Scenario) -> Option<ShardDiffReport> {
    match &sc.kind {
        ScenarioKind::Wlan(w) => Some(shard_diff_wlan(sc, w)),
        ScenarioKind::Ess(e) => Some(shard_diff_ess(sc, e)),
        ScenarioKind::Bluetooth(_) | ScenarioKind::Zigbee(_) | ScenarioKind::Wman(_) => None,
    }
}

/// Generates the scenario for `seed` and runs the shard differential
/// on it.
pub fn shard_diff_seed(seed: u64) -> Option<ShardDiffReport> {
    shard_diff_scenario(&ScenarioGen::default().scenario(seed))
}

/// [`shard_diff_seed`] over a seed range, fanned out over `threads`
/// workers (each seed's differential is self-contained, so reports
/// are identical for any worker count). `None` entries are skipped
/// kinds.
pub fn shard_diff_range(start: u64, count: u64, threads: usize) -> Vec<Option<ShardDiffReport>> {
    let seeds: Vec<u64> = (start..start + count).collect();
    par_map_with(threads, seeds, shard_diff_seed)
}

/// [`shard_diff_range`] under an explicit scenario generator — the
/// shard leg of the `--qos` corpus.
pub fn shard_diff_range_gen(
    gen: ScenarioGen,
    start: u64,
    count: u64,
    threads: usize,
) -> Vec<Option<ShardDiffReport>> {
    let seeds: Vec<u64> = (start..start + count).collect();
    par_map_with(threads, seeds, move |seed| {
        shard_diff_scenario(&gen.scenario(seed))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::check_seed;

    fn first_seed_of_kind(kind: &str, pred: impl Fn(&Scenario) -> bool) -> (u64, Scenario) {
        for seed in 0..500 {
            let sc = ScenarioGen::default().scenario(seed);
            if sc.kind_tag() == kind && pred(&sc) {
                return (seed, sc);
            }
        }
        panic!("no {kind} scenario in the first 500 seeds");
    }

    /// The bridge to the classic engine: a flat WLAN without the
    /// deaf-sink fault is one conflict component, so its "sharded"
    /// composition is the identical construction `run_scenario`
    /// executes — fingerprints must match exactly.
    #[test]
    fn single_shard_composition_equals_classic_run() {
        let (seed, sc) = first_seed_of_kind("wlan", |sc| match &sc.kind {
            ScenarioKind::Wlan(w) => !w.deaf_sink,
            _ => false,
        });
        let diff = shard_diff_scenario(&sc).expect("wlan shards");
        assert_eq!(diff.shards, 1, "non-deaf flat WLAN must be one shard");
        let classic = check_seed(seed);
        assert_eq!(diff.sliced.trace_fnv, classic.trace_fnv);
        assert_eq!(diff.sliced.metrics_fnv, classic.metrics_fnv);
        assert!(!diff.divergent());
    }

    /// The deaf-sink fault parks the sink on an orthogonal channel,
    /// which must split it into its own shard — and the job runs must
    /// still be byte-identical to the sliced reference.
    #[test]
    fn deaf_sink_splits_and_stays_identical() {
        let (_seed, sc) = first_seed_of_kind("wlan", |sc| match &sc.kind {
            ScenarioKind::Wlan(w) => w.deaf_sink,
            _ => false,
        });
        let diff = shard_diff_scenario(&sc).expect("wlan shards");
        assert_eq!(diff.shards, 2, "deaf sink must shard off: {}", diff.summary);
        assert!(!diff.divergent());
        // The digests are over non-empty content in every mode.
        assert!(diff.sliced.events > 0);
        assert_ne!(diff.sliced.trace_fnv, FNV1A_OFFSET);
    }

    /// ESS scenarios pin to a single shard but still exercise the
    /// sliced reference against the single-`run_until` job.
    #[test]
    fn ess_sliced_matches_jobs() {
        let (_seed, sc) = first_seed_of_kind("ess", |_| true);
        let diff = shard_diff_scenario(&sc).expect("ess shards");
        assert_eq!(diff.shards, 1);
        assert!(!diff.divergent());
    }

    /// Non-medium kinds are skipped, not zero-filled.
    #[test]
    fn non_wlan_kinds_are_skipped() {
        let (_seed, sc) = first_seed_of_kind("bt", |_| true);
        assert!(shard_diff_scenario(&sc).is_none());
    }

    #[test]
    fn component_seed_zero_is_base() {
        assert_eq!(component_seed(0xDEAD_BEEF, 0), 0xDEAD_BEEF);
        assert_ne!(component_seed(0xDEAD_BEEF, 1), 0xDEAD_BEEF);
        assert_ne!(
            component_seed(0xDEAD_BEEF, 1),
            component_seed(0xDEAD_BEEF, 2)
        );
    }
}
