//! `wn-sim` — deterministic discrete-event simulation kernel.
//!
//! This crate is the substrate every other crate in the workspace builds
//! on. It provides:
//!
//! - [`SimTime`] / [`SimDuration`] — virtual time with nanosecond
//!   resolution, wide enough (u64 ns ≈ 584 years) for any scenario here.
//! - [`Scheduler`] / [`Simulation`] — a classic event-queue engine on a
//!   hierarchical timer wheel ([`wheel`]), with deterministic FIFO
//!   tie-breaking for simultaneous events.
//! - [`rng`] — a from-scratch SplitMix64/xoshiro256** PRNG so that every
//!   simulation is reproducible from a single seed, independent of
//!   platform or external crate versions.
//! - [`stats`] — counters, histograms, time-weighted gauges and series
//!   used by the experiment harness to regenerate the paper's figures.
//! - [`metrics`] — a registry that names those instruments per layer and
//!   per station and snapshots them into deterministic JSONL.
//! - [`trace`] — a bounded ring of trace records, each exactly one typed
//!   [`trace::TraceEvent`], for ordering assertions in tests, the
//!   invariant oracles and fixed-field JSONL export.
//! - [`par`] — a std-only scoped-thread pool ([`par_map`]) that fans the
//!   independent sweep points of a campaign across cores while keeping
//!   results in input order, so parallel runs stay byte-identical.
//!
//! # Example
//!
//! ```
//! use wn_sim::{SimTime, SimDuration, Simulation, World, Scheduler};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! enum Ev {
//!     Tick,
//! }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, now: SimTime, _ev: Ev, sched: &mut Scheduler<Ev>) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             sched.schedule_in(SimDuration::from_millis(1), Ev::Tick);
//!         }
//!         let _ = now;
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { fired: 0 });
//! sim.scheduler_mut().schedule_at(SimTime::ZERO, Ev::Tick);
//! sim.run();
//! assert_eq!(sim.world().fired, 3);
//! assert_eq!(sim.now(), SimTime::from_millis(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
mod json;
pub mod metrics;
pub mod par;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod wheel;

pub use engine::{
    event_key, global_events_processed, key_time, pop_order_fnv, replay_ops, Scheduler,
    SchedulerKind, Simulation, World, OP_POP,
};
pub use metrics::{MetricKey, MetricRow, MetricsRegistry, MetricsSnapshot};
pub use par::{par_for_each_ordered, par_map, par_map_with, worker_count};
pub use rng::Rng;
pub use time::{SimDuration, SimTime};
pub use trace::{
    observability_enabled, set_observability, DropReason, FrameKind, Level, Trace, TraceEvent,
};
