//! Spatial interference shards: partitioning a deployment into
//! independent worlds (DESIGN.md §15).
//!
//! The conflict graph couples two stations when their channels
//! spectrally overlap **and** they are mutually relevant at RF level —
//! audible in either direction per the propagation model, or within
//! the caller's maximum interference range. Its connected components
//! are the *shards*: no MAC-level interaction can ever cross a shard
//! boundary, because cross-channel leakage with zero spectral overlap
//! is exactly zero (`leaked_power` returns `None`, not a small
//! number) and beyond-range co-channel stations never enter each
//! other's candidate lists.
//!
//! [`WlanWorld::shard_plan`](crate::sim::WlanWorld::shard_plan)
//! computes the partition; this module holds the plan type, the
//! coherence checks behind the `shard-coherence` oracle, and
//! [`run_components`], which runs one simulation per shard as an
//! independent [`par_for_each_ordered`] job and folds each shard's
//! trace and metrics JSONL into running digests in shard order as the
//! job finishes, so the digest is the same for any worker count and a
//! shard's JSONL lives only until every earlier shard has been folded.

use crate::sim::WlanWorld;
use wn_sim::par::par_for_each_ordered;
use wn_sim::stats::{fnv1a_extend, FNV1A_OFFSET};
use wn_sim::{SimTime, Simulation};

/// Station index within a world (mirrors `sim::StationId`).
pub type StationId = usize;

/// A partition of a deployment's stations into interference shards.
///
/// Produced by [`WlanWorld::shard_plan`]; consumed by the component
/// builders in `wn-check`/`wn-core` (which construct one world per
/// shard) and re-validated by the `shard-coherence` oracle after
/// mobility patches.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Station → shard index.
    pub shard_of: Vec<usize>,
    /// Shard → member stations, ascending; shards are ordered by
    /// their smallest member id, so the partition (and everything
    /// merged in shard order) is deterministic.
    pub shards: Vec<Vec<StationId>>,
    /// The co-channel coupling radius the plan was computed with
    /// (infinite when the caller passed `None`).
    pub max_interference_range_m: f64,
}

impl ShardPlan {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Stations covered by the plan.
    pub fn station_count(&self) -> usize {
        self.shard_of.len()
    }
}

/// A way the world can contradict a [`ShardPlan`]; `None` from the
/// checks below means coherent. Reported by the `shard-coherence`
/// oracle.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardIncoherence {
    /// Two coupled stations (overlapping channels, audible or within
    /// range) are assigned to different shards.
    CoupledAcrossShards {
        /// First station of the offending pair.
        a: StationId,
        /// Second station of the offending pair.
        b: StationId,
        /// Their distance, metres.
        dist_m: f64,
    },
    /// The world gained or lost stations since the plan was computed.
    StationCountChanged {
        /// Stations the plan covers.
        planned: usize,
        /// Stations the world holds now.
        actual: usize,
    },
}

impl std::fmt::Display for ShardIncoherence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardIncoherence::CoupledAcrossShards { a, b, dist_m } => write!(
                f,
                "coupled stations {a} and {b} ({dist_m:.1} m apart) straddle shards"
            ),
            ShardIncoherence::StationCountChanged { planned, actual } => write!(
                f,
                "plan covers {planned} stations but the world holds {actual}"
            ),
        }
    }
}

/// The digested output of a component run: everything the
/// worker-count differential contract compares.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardRunReport {
    /// Number of component worlds executed.
    pub shards: usize,
    /// Total events across all components.
    pub events: u64,
    /// Per-component event totals, in shard order.
    pub per_shard_events: Vec<u64>,
    /// FNV-1a over the per-shard trace JSONL, concatenated in shard
    /// order.
    pub trace_fnv: u64,
    /// FNV-1a over the per-shard metrics-snapshot JSONL, concatenated
    /// in shard order.
    pub metrics_fnv: u64,
}

/// Mixer for per-component RNG streams: component `k` of a plan seeds
/// its world with `base ^ (k · φ64)`, so component 0 keeps the base
/// seed (the bridge to the classic single-world engine) and every
/// further component gets an independent, reproducible stream.
pub fn component_seed(base: u64, k: usize) -> u64 {
    base ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs `count` component worlds as independent jobs on up to
/// `workers` threads. Job `k` builds component `k` with `build(k)`,
/// advances it to `horizon` with one `run_until`, renders its trace
/// and metrics JSONL under `tag` and drops the world. The calling
/// thread folds the pieces into the digests in shard order while later
/// jobs run, so the report is identical for any worker count: shards
/// never exchange state (DESIGN.md §15).
pub fn run_components<B>(
    count: usize,
    horizon: SimTime,
    workers: usize,
    tag: &str,
    build: B,
) -> ShardRunReport
where
    B: Fn(usize) -> Simulation<WlanWorld> + Sync,
{
    run_components_observed(count, horizon, workers, tag, build, |_, _| ()).0
}

/// [`run_components`] that also maps each finished component world
/// through `observe(k, world)` inside its job, before the world is
/// dropped. The observations come back in shard order.
pub fn run_components_observed<B, O, T>(
    count: usize,
    horizon: SimTime,
    workers: usize,
    tag: &str,
    build: B,
    observe: O,
) -> (ShardRunReport, Vec<T>)
where
    B: Fn(usize) -> Simulation<WlanWorld> + Sync,
    O: Fn(usize, &WlanWorld) -> T + Sync,
    T: Send,
{
    let mut per_shard_events = Vec::with_capacity(count);
    let (mut trace_fnv, mut metrics_fnv) = (FNV1A_OFFSET, FNV1A_OFFSET);
    let mut observed = Vec::with_capacity(count);
    let job = |k| {
        let mut sim = build(k);
        let events = sim.run_until(horizon);
        let world = sim.world();
        (
            events,
            world.trace.to_jsonl(tag),
            world.metrics_snapshot(horizon).to_jsonl(tag),
            observe(k, world),
        )
    };
    // Each piece folds into the running digests in shard order as soon
    // as every earlier shard has, and is dropped, so the fold overlaps
    // the jobs still running and the merged JSONL never exists.
    par_for_each_ordered(
        workers,
        (0..count).collect(),
        job,
        |(events, trace, metrics, o)| {
            per_shard_events.push(events);
            trace_fnv = fnv1a_extend(trace_fnv, trace.as_bytes());
            metrics_fnv = fnv1a_extend(metrics_fnv, metrics.as_bytes());
            observed.push(o);
        },
    );
    let report = ShardRunReport {
        shards: count,
        events: per_shard_events.iter().sum(),
        trace_fnv,
        metrics_fnv,
        per_shard_events,
    };
    (report, observed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::FrameId;
    use crate::neighbors::NeighborCache;
    use crate::sim::{MacConfig, WlanWorld};
    use wn_sim::stats::fnv1a;

    /// Compile-time `Send` audit: the whole shard payload chain must
    /// stay `Send` so worlds can be built and run on worker
    /// threads. A reintroduced `Rc`/`RefCell` anywhere in
    /// these types fails this *at build time*.
    fn assert_send<T: Send>() {}

    #[test]
    fn shard_payload_types_are_send() {
        assert_send::<FrameId>();
        assert_send::<NeighborCache>();
        assert_send::<WlanWorld>();
        assert_send::<Simulation<WlanWorld>>();
        assert_send::<ShardPlan>();
        assert_send::<ShardRunReport>();
    }

    fn empty_world(k: usize) -> Simulation<WlanWorld> {
        let mut cfg = MacConfig::new(wn_phy::PhyStandard::Dot11b);
        cfg.seed = 0x5eed ^ k as u64;
        Simulation::new(WlanWorld::new(cfg))
    }

    #[test]
    fn zero_components_give_an_empty_report() {
        let r = run_components(0, SimTime::from_millis(2), 4, "shard", empty_world);
        assert_eq!(r.shards, 0);
        assert_eq!(r.events, 0);
        assert!(r.per_shard_events.is_empty());
        assert_eq!(r.trace_fnv, fnv1a(b""));
        assert_eq!(r.metrics_fnv, fnv1a(b""));
    }

    #[test]
    fn more_workers_than_components_is_fine() {
        let horizon = SimTime::from_millis(2);
        let one = run_components(3, horizon, 1, "shard", empty_world);
        assert_eq!(one.shards, 3);
        assert_eq!(one, run_components(3, horizon, 8, "shard", empty_world));
    }

    #[test]
    fn observations_come_back_in_shard_order() {
        let (report, seen) = run_components_observed(
            5,
            SimTime::from_millis(1),
            3,
            "shard",
            empty_world,
            |k, w| (k, w.config().seed),
        );
        assert_eq!(report.shards, 5);
        let want: Vec<(usize, u64)> = (0..5).map(|k| (k, 0x5eed ^ k as u64)).collect();
        assert_eq!(seen, want);
    }
}
