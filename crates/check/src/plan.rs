//! Brute-force references for the grid-backed shard planner.
//!
//! [`WlanWorld::shard_plan`] and [`WlanWorld::shard_plan_incoherence`]
//! only visit pairs inside a 27-cell grid neighborhood whose edge is
//! derived from the loss model's distance floor. The references here
//! ask [`WlanWorld::shard_coupled`] of *every* pair, O(n²), and know
//! nothing about grids or floors — so agreeing with them is the
//! evidence that the neighborhood never omits a coupled pair. Tests
//! and the `fuzz --propagation-diff` planning leg compare the two.
//!
//! The comparison holds for bounded models (every world the scenario
//! builders make). Under a model without a distance floor the
//! production planner deliberately unions whole channel classes, a
//! coarser but still sound partition.

use std::collections::BTreeMap;

use wn_mac80211::shard::{ShardIncoherence, ShardPlan};
use wn_mac80211::sim::WlanWorld;
use wn_sim::SimTime;

fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// The interference-shard partition by exhaustive pair scan, in the
/// canonical numbering [`WlanWorld::shard_plan`] promises: shards in
/// order of their smallest member, members ascending.
pub fn reference_shard_plan(
    world: &WlanWorld,
    now: SimTime,
    max_interference_range_m: Option<f64>,
) -> ShardPlan {
    let n = world.station_count();
    let range = max_interference_range_m.unwrap_or(f64::INFINITY);
    let mut parent: Vec<usize> = (0..n).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
            if ri != rj && world.shard_coupled(i, j, range, now) {
                parent[ri.max(rj)] = ri.min(rj);
            }
        }
    }
    let mut shard_of = vec![0; n];
    let mut shards: Vec<Vec<usize>> = Vec::new();
    let mut shard_of_root: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, slot) in shard_of.iter_mut().enumerate() {
        let root = find(&mut parent, i);
        let s = *shard_of_root.entry(root).or_insert_with(|| {
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

/// Re-validates `plan` against the world by exhaustive pair scan: the
/// station count must match and no coupled pair may straddle shards.
/// `None` means coherent.
pub fn reference_shard_plan_incoherence(
    world: &WlanWorld,
    plan: &ShardPlan,
    now: SimTime,
) -> Option<ShardIncoherence> {
    let n = world.station_count();
    if plan.shard_of.len() != n {
        return Some(ShardIncoherence::StationCountChanged {
            planned: plan.shard_of.len(),
            actual: n,
        });
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if plan.shard_of[i] != plan.shard_of[j]
                && world.shard_coupled(i, j, plan.max_interference_range_m, now)
            {
                return Some(ShardIncoherence::CoupledAcrossShards {
                    a: i,
                    b: j,
                    dist_m: world.position(i).distance_to(world.position(j)),
                });
            }
        }
    }
    None
}
