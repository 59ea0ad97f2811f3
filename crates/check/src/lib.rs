//! `wn-check` — a FoundationDB-style deterministic simulation fuzzer
//! for the wireless-networks workspace.
//!
//! The pieces:
//!
//! - [`scenario::ScenarioGen`] maps a seed to a concrete [`Scenario`]:
//!   a random topology, PHY rates, traffic load, queue capacities,
//!   fragmentation thresholds, mobility schedule and fault toggles
//!   across the WLAN, WPAN (Bluetooth / ZigBee) and WMAN worlds.
//! - [`run::run_scenario`] executes it through the existing engines
//!   and collects [`run::Artifacts`]: the typed trace plus end-state
//!   counters and config bounds.
//! - [`oracle::oracles`] is the pluggable invariant set checked
//!   against those artifacts — NAV respected, retry limits honoured,
//!   frame conservation, no duplicate delivery, legal state-machine
//!   transitions, DCF fairness, per-world conservation ledgers, and
//!   the scheduler's pop order against a reference heap.
//! - [`shrink::shrink`] minimises a failing scenario (halve stations,
//!   traffic and duration while the violation reproduces).
//!
//! Because every engine is seeded and single-threaded per run, a
//! failing seed replays byte-for-byte: the `fuzz` binary in `wn-bench`
//! prints `fuzz --seed N --shrink` as the one-line repro command.
//!
//! Every run records its scheduler op stream, and the
//! `scheduler-order` oracle replays it through [`queue`]'s reference
//! binary heap: the timer wheel that drives every run must pop it in
//! exactly the heap's order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oracle;
pub mod plan;
pub mod queue;
pub mod run;
pub mod scenario;
pub mod shard;
pub mod shrink;

pub use oracle::{oracles, Invariant, Violation};
pub use plan::{reference_shard_plan, reference_shard_plan_incoherence};
pub use queue::reference_replay_ops;
pub use run::{
    check_range, check_range_gen, check_seed, check_seed_gen, range_digest, run_oracles,
    run_scenario, run_scenario_sourced, Propagation, SeedReport,
};
pub use scenario::{Scenario, ScenarioGen, ScenarioKind};
pub use shard::{
    component_seed, run_components_sliced, shard_diff_range, shard_diff_range_gen,
    shard_diff_scenario, shard_diff_seed, ShardDiffReport, SHARD_WORKER_COUNTS,
};
pub use shrink::{shrink, station_count};

/// The one-line command that replays and minimises a failing seed.
pub fn repro_command(seed: u64) -> String {
    format!("cargo run --release -p wn-bench --bin fuzz -- --seed {seed} --shrink")
}
