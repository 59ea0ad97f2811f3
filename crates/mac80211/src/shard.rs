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
//! This module holds the planner —
//! [`WlanWorld::shard_plan`](crate::sim::WlanWorld::shard_plan), one
//! union-find scan over grid-neighborhood candidate pairs — the plan
//! type, its re-validation behind the `shard-coherence` oracle
//! ([`WlanWorld::shard_plan_incoherence`]), and [`run_components`],
//! which runs one simulation per shard as an
//! independent [`par_for_each_ordered`] job and folds each shard's
//! trace and metrics JSONL into running digests in shard order as the
//! job finishes, so the digest is the same for any worker count and a
//! shard's JSONL lives only until every earlier shard has been folded.

use std::collections::HashMap;

use crate::grid::{CellKey, SpatialGrid};
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

// ----- The planner -----

/// The candidate pairs of one shard scan, built by
/// `WlanWorld::candidate_pairs`: every pair `(i, j)`, `i < j`, whose
/// channels spectrally overlap and whose grid cells are adjacent — a
/// superset of the coupled pairs.
struct CandidatePairs {
    /// Station → its `(cell, channel)` group.
    group_of: Vec<u32>,
    /// Group `g`'s neighborhood is
    /// `hood_ids[hood_start[g]..hood_start[g + 1]]`, ascending.
    hood_start: Vec<usize>,
    hood_ids: Vec<StationId>,
    /// The coupling range the scan applies: the caller's, or infinite
    /// when no distance bounds audibility.
    range: f64,
    /// A distance at and beyond which no pair is audible (infinite
    /// when none is known).
    reach: f64,
}

impl CandidatePairs {
    /// Station `i`'s candidates `j > i`, ascending.
    fn after(&self, i: StationId) -> &[StationId] {
        let g = self.group_of[i] as usize;
        let hood = &self.hood_ids[self.hood_start[g]..self.hood_start[g + 1]];
        &hood[hood.partition_point(|&j| j <= i)..]
    }
}

/// Union-find with path halving; roots are always the smallest member
/// seen so far, but the canonical numbering in [`shard_plan_finish`]
/// does not depend on it.
fn uf_find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

fn uf_union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (uf_find(parent, a), uf_find(parent, b));
    if ra != rb {
        parent[ra.max(rb)] = ra.min(rb);
    }
}

/// Renumbers a union-find forest into the canonical plan: components
/// in first-occurrence order (each shard's index is determined by its
/// smallest member id, so the partition is a pure function of the
/// deployment).
fn shard_plan_finish(mut parent: Vec<usize>, range: f64) -> ShardPlan {
    let n = parent.len();
    let mut shard_of = vec![usize::MAX; n];
    let mut shards: Vec<Vec<StationId>> = Vec::new();
    let mut root_shard: HashMap<usize, usize> = HashMap::new();
    for (i, slot) in shard_of.iter_mut().enumerate() {
        let r = uf_find(&mut parent, i);
        let s = *root_shard.entry(r).or_insert_with(|| {
            shards.push(Vec::new());
            shards.len() - 1
        });
        *slot = s;
        shards[s].push(i);
    }
    ShardPlan {
        shard_of,
        shards,
        max_interference_range_m: range,
    }
}

impl WlanWorld {
    /// Computes the interference-shard partition of the current
    /// deployment (DESIGN.md §15): the connected components of the
    /// conflict graph that couples two stations when their channels
    /// spectrally overlap **and** they are within
    /// `max_interference_range_m` of each other or audible in either
    /// direction per the propagation model. Stations in different
    /// components can never exchange MAC-observable energy, so each
    /// component can advance as an independent world.
    ///
    /// `None` for the range couples every overlapping-channel pair
    /// regardless of distance — the most conservative co-channel
    /// split.
    ///
    /// The scan is O(n·k): stations pair only against the spectrally
    /// overlapping part of their 27-cell grid neighborhood
    /// (`CandidatePairs`), with the cell edge at `max(range, audible
    /// reach)` so any omitted pair is uncoupled by construction. When
    /// nothing bounds the distance — an infinite range, or a model
    /// without a distance floor, which is planned at an infinite
    /// range — the grid is one cell and the scan O(n²).
    pub fn shard_plan(&self, now: SimTime, max_interference_range_m: Option<f64>) -> ShardPlan {
        let range = max_interference_range_m.unwrap_or(f64::INFINITY);
        let pairs = self.candidate_pairs(now, range);
        let mut parent: Vec<usize> = (0..self.station_count()).collect();
        for i in 0..parent.len() {
            for &j in pairs.after(i) {
                if uf_find(&mut parent, i) != uf_find(&mut parent, j)
                    && self.coupled_within(i, j, pairs.range, pairs.reach, now)
                {
                    uf_union(&mut parent, i, j);
                }
            }
        }
        shard_plan_finish(parent, range)
    }

    /// The candidate-pair scan behind [`shard_plan`](Self::shard_plan)
    /// and [`shard_plan_incoherence`](Self::shard_plan_incoherence).
    ///
    /// Coupled ⇒ within the cell edge `max(range, reach)` ⇒ cell
    /// indices differ by at most one per axis ⇒ the 27-cell
    /// neighborhood enumerates every coupled pair. Stations sharing a
    /// cell and a channel share that neighborhood, so it is built once
    /// per `(cell, channel)` group and holds only the stations whose
    /// channel spectrally overlaps the group's. Without a distance
    /// floor no distance bounds audibility, so the range becomes
    /// infinite: coupling reduces to spectral overlap, and the cell
    /// edge covers everyone.
    fn candidate_pairs(&self, now: SimTime, range: f64) -> CandidatePairs {
        let (range, reach) = match self.audible_bound_m(now) {
            Some(reach) => (range, reach),
            None => (f64::INFINITY, f64::INFINITY),
        };
        let grid = SpatialGrid::build(range.max(reach), self.stations.iter().map(|s| s.pos));
        let channel = self.channels();
        let mut group_ids: HashMap<(CellKey, u8), u32> = HashMap::new();
        let mut pairs = CandidatePairs {
            group_of: Vec::with_capacity(channel.len()),
            hood_start: vec![0],
            hood_ids: Vec::new(),
            range,
            reach,
        };
        for (i, &ch) in channel.iter().enumerate() {
            let key = grid.cell_of(i);
            let next = (pairs.hood_start.len() - 1) as u32;
            let g = *group_ids.entry((key, ch)).or_insert_with(|| {
                let start = pairs.hood_ids.len();
                for members in grid.neighborhood_cells(key) {
                    pairs.hood_ids.extend(
                        members
                            .iter()
                            .filter(|&&j| Self::channel_overlap(ch, channel[j]) > 0.0),
                    );
                }
                pairs.hood_ids[start..].sort_unstable();
                pairs.hood_start.push(pairs.hood_ids.len());
                next
            });
            pairs.group_of.push(g);
        }
        pairs
    }

    /// The shard-coupling predicate for one pair: spectral overlap,
    /// and within `range` metres or audible in either direction.
    /// Public so brute-force reference planners can ask it of every
    /// pair; it is `coupled_within` with no distance known to silence
    /// the pair.
    pub fn shard_coupled(&self, i: StationId, j: StationId, range: f64, now: SimTime) -> bool {
        self.coupled_within(i, j, range, f64::INFINITY, now)
    }

    /// The one coupling predicate every planning and validation scan
    /// asks. `reach` is a distance at and beyond which no pair is
    /// audible ([`audible_reach_m`](Self::audible_reach_m): its loss
    /// floor already exceeds the strongest coupling), so a pair that
    /// far apart is settled by `range` alone, without evaluating the
    /// link budget.
    fn coupled_within(
        &self,
        i: StationId,
        j: StationId,
        range: f64,
        reach: f64,
        now: SimTime,
    ) -> bool {
        let channel = self.channels();
        if Self::channel_overlap(channel[i], channel[j]) <= 0.0 {
            return false;
        }
        let d = self.position(i).distance_to(self.position(j));
        d <= range
            || (d < reach
                && (self.audible_at(self.rx_power_at(i, j, now))
                    || self.audible_at(self.rx_power_at(j, i, now))))
    }

    /// Re-validates a [`ShardPlan`] against the world's *current*
    /// state: station count unchanged and no coupled pair straddling
    /// shards. `None` means coherent. The check behind the
    /// `shard-coherence` oracle — mobility patches move stations after
    /// the plan is computed, and a stale plan must be caught, not
    /// trusted.
    ///
    /// Coupling is distance-bounded by the grid cell edge
    /// [`shard_plan`](Self::shard_plan) uses, so the same
    /// `CandidatePairs` scan enumerates every pair that could straddle
    /// shards while coupled, station-major with `j` ascending: the
    /// witness is the lexicographically smallest straddling coupled
    /// pair, as an exhaustive scan would report it.
    pub fn shard_plan_incoherence(
        &self,
        plan: &ShardPlan,
        now: SimTime,
    ) -> Option<ShardIncoherence> {
        let n = self.station_count();
        if plan.shard_of.len() != n {
            return Some(ShardIncoherence::StationCountChanged {
                planned: plan.shard_of.len(),
                actual: n,
            });
        }
        let pairs = self.candidate_pairs(now, plan.max_interference_range_m);
        for i in 0..n {
            for &j in pairs.after(i) {
                if plan.shard_of[i] != plan.shard_of[j]
                    && self.coupled_within(i, j, pairs.range, pairs.reach, now)
                {
                    return Some(ShardIncoherence::CoupledAcrossShards {
                        a: i,
                        b: j,
                        dist_m: self.position(i).distance_to(self.position(j)),
                    });
                }
            }
        }
        None
    }
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
