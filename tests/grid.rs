//! Spatial hash grid edge cases (DESIGN.md §17): the grid-backed
//! sparse neighbor cache and grid shard planner must stay coherent —
//! and agree with `wn-check`'s brute-force reference planner — at cell
//! boundaries, in degenerate one-cell worlds, in worlds where nothing
//! is audible, and under mobility that hops stations across cells.

use wireless_networks::check::{reference_shard_plan, reference_shard_plan_incoherence};
use wireless_networks::mac80211::shard::ShardPlan;
use wireless_networks::mac80211::sim::{MacConfig, NullUpper, WlanWorld};
use wireless_networks::phy::geom::Point;
use wireless_networks::phy::modulation::PhyStandard;
use wireless_networks::sim::{Rng, SimTime};

fn world_with(positions: &[Point], seed: u64) -> WlanWorld {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = seed;
    let mut world = WlanWorld::new(cfg);
    world.add_stations(positions.len(), |i| positions[i], |_| Box::new(NullUpper));
    world
}

/// Primes the cache and asserts every grid structural invariant plus
/// pairwise power coherence against a fresh link-budget evaluation.
fn assert_coherent(world: &mut WlanWorld, what: &str) {
    world.prime_neighbor_cache(SimTime::ZERO);
    let grid = world.grid_incoherence(SimTime::ZERO);
    assert!(grid.is_empty(), "{what}: grid incoherent: {grid:?}");
    assert!(
        world.neighbor_cache_incoherence(SimTime::ZERO).is_none(),
        "{what}: cached powers diverged from a fresh evaluation"
    );
}

/// Asserts the grid planner and the brute-force O(n²) reference
/// produce the identical partition on `world`, at `range` and at the
/// unbounded range, and that both validators accept the plan.
fn assert_planners_agree(world: &WlanWorld, range: f64, what: &str) {
    for range in [Some(range), None] {
        let grid = world.shard_plan(SimTime::ZERO, range);
        let reference = reference_shard_plan(world, SimTime::ZERO, range);
        assert_eq!(
            grid.shard_of, reference.shard_of,
            "{what}, range {range:?}: planners disagree on the partition"
        );
        assert_eq!(grid.shards, reference.shards);
        assert!(
            world.shard_plan_incoherence(&grid, SimTime::ZERO).is_none()
                && reference_shard_plan_incoherence(world, &grid, SimTime::ZERO).is_none(),
            "{what}, range {range:?}: plan failed re-validation"
        );
    }
}

/// Stations planted exactly on candidate cell boundaries — the origin,
/// axis-aligned lattice points, and sign flips around zero (floor
/// semantics put a boundary position in the higher cell). The cache
/// must store the same powers a fresh evaluation produces and both
/// planners must agree.
#[test]
fn boundary_positions_stay_coherent() {
    let reach = {
        let w = world_with(&[Point::new(0.0, 0.0)], 7);
        w.audible_reach_m(SimTime::ZERO)
            .expect("default loss model is isotropic")
    };
    // Lattice multiples of the audible reach are exactly the grid's
    // cell edges; epsilon nudges straddle them from both sides.
    let mut positions = Vec::new();
    for i in -2i32..=2 {
        let x = f64::from(i) * reach;
        positions.push(Point::new(x, 0.0));
        positions.push(Point::new(x + 1e-9, reach));
        positions.push(Point::new(x - 1e-9, -reach));
    }
    let mut world = world_with(&positions, 7);
    assert_coherent(&mut world, "boundary lattice");
    assert_planners_agree(&world, reach, "boundary lattice");
}

/// The degenerate world: every station inside one grid cell. The
/// sparse build must store every ordered pair (nothing is truncated)
/// and the planners must fuse everything into a single shard.
#[test]
fn one_cell_world_stores_every_pair() {
    let mut rng = Rng::new(0xD1CE);
    let n = 17usize;
    let positions: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.f64_range(-5.0, 5.0), rng.f64_range(-5.0, 5.0)))
        .collect();
    let mut world = world_with(&positions, 3);
    assert_coherent(&mut world, "one-cell cluster");
    let (_, stored) = world.neighbor_cache_stats().expect("cache primed");
    assert_eq!(
        stored,
        n * (n - 1),
        "a one-cell cluster must keep the full pair set"
    );
    let plan = world.shard_plan(SimTime::ZERO, Some(10.0));
    assert_eq!(plan.shards.len(), 1, "one cell, one shard");
    assert_planners_agree(&world, 10.0, "one-cell cluster");
}

/// The opposite degenerate world: stations flung so far apart that no
/// pair is audible. Sparse rows store nothing — and that emptiness is
/// the coherent answer, because every fresh evaluation lands below the
/// carrier-sense floor. With a finite coupling range every station is
/// its own shard.
#[test]
fn inaudible_world_stores_nothing_and_never_fuses() {
    let positions: Vec<Point> = (0..8)
        .map(|i| Point::new(f64::from(i as u32) * 250_000.0, 0.0))
        .collect();
    let mut world = world_with(&positions, 11);
    assert_coherent(&mut world, "inaudible spread");
    let (_, stored) = world.neighbor_cache_stats().expect("cache primed");
    assert_eq!(stored, 0, "nothing is audible, nothing is stored");
    let plan = world.shard_plan(SimTime::ZERO, Some(100.0));
    assert_eq!(
        plan.shards.len(),
        positions.len(),
        "uncoupled stations must each own a shard"
    );
    assert_planners_agree(&world, 100.0, "inaudible spread");
}

/// Seeded teleport storm: every hop lands before/after other hops at
/// arbitrary scales, repeatedly crossing cell boundaries (including
/// hops back into the same cell and hops across many cells at once).
/// After every single move the grid structure, the cached powers and
/// both planners must still agree — the incremental old-cell/new-cell
/// patch has no stale corner.
#[test]
fn mobility_crossing_cells_stays_coherent() {
    for seed in 0..8u64 {
        let mut rng = Rng::new(0x6E1D ^ seed);
        let n = 5 + rng.below(8) as usize;
        let positions: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.f64_range(-400.0, 400.0), rng.f64_range(-400.0, 400.0)))
            .collect();
        let mut world = world_with(&positions, seed);
        world.prime_neighbor_cache(SimTime::ZERO);
        for hop in 0..24 {
            let station = rng.below(n as u64) as usize;
            // Mix short nudges (same cell) with kilometre leaps
            // (several cells at once).
            let scale = if rng.below(2) == 0 { 30.0 } else { 2_000.0 };
            let pos = Point::new(rng.f64_range(-scale, scale), rng.f64_range(-scale, scale));
            world.set_position(station, pos, SimTime::ZERO);
            let grid = world.grid_incoherence(SimTime::ZERO);
            assert!(
                grid.is_empty(),
                "seed {seed} hop {hop}: grid incoherent: {grid:?}"
            );
            assert!(
                world.neighbor_cache_incoherence(SimTime::ZERO).is_none(),
                "seed {seed} hop {hop}: stale cached power after the move"
            );
        }
        assert_planners_agree(&world, 150.0, "post-mobility");
    }
}

/// The audible-reach short-circuit and the per-cell channel filter at
/// their edges. Pairs sit at exactly the audible reach, a nanometre
/// inside it and a nanometre past it, on channel pairs that coincide,
/// partially overlap (1/3, 3/6: overlap strictly between 0 and 1) or
/// are orthogonal (1/6, 6/11, 1/11). At coupling ranges that leave
/// audibility to decide (`Some(0.0)`, `Some(reach / 2)`) and at the
/// unbounded range, the grid planner's partition must equal the
/// reference's, and both validators must return the same verdict —
/// on the fresh plan (coherent) and on the all-singletons plan, whose
/// witness is the smallest coupled pair.
#[test]
fn reach_short_circuit_and_channel_filter_match_the_reference() {
    let reach = world_with(&[Point::new(0.0, 0.0)], 13)
        .audible_reach_m(SimTime::ZERO)
        .expect("default loss model is isotropic");
    let channel_pairs = [
        (1u8, 1u8),
        (1, 3),
        (3, 6),
        (1, 6),
        (6, 11),
        (1, 11),
        (11, 11),
    ];
    let gaps = [reach, reach - 1e-9, reach + 1e-9];
    let mut positions = Vec::new();
    let mut channels = Vec::new();
    for (row, &(a, b)) in channel_pairs.iter().enumerate() {
        for (col, &gap) in gaps.iter().enumerate() {
            // Rows and columns 10 reaches apart never couple with each
            // other; within a pair the distance is exactly `gap`.
            let x0 = 10.0 * reach * col as f64;
            let y = 10.0 * reach * row as f64;
            positions.push(Point::new(x0, y));
            positions.push(Point::new(x0 + gap, y));
            channels.extend([a, b]);
        }
    }
    let mut world = world_with(&positions, 13);
    for (id, &ch) in channels.iter().enumerate() {
        world.set_channel(id, ch);
    }
    for range in [Some(0.0), Some(reach / 2.0), None] {
        let grid = world.shard_plan(SimTime::ZERO, range);
        let reference = reference_shard_plan(&world, SimTime::ZERO, range);
        assert_eq!(
            grid.shard_of, reference.shard_of,
            "range {range:?}: planners disagree on the partition"
        );
        assert!(world.shard_plan_incoherence(&grid, SimTime::ZERO).is_none());
        assert!(reference_shard_plan_incoherence(&world, &grid, SimTime::ZERO).is_none());

        let singletons = ShardPlan {
            shard_of: (0..positions.len()).collect(),
            shards: (0..positions.len()).map(|i| vec![i]).collect(),
            max_interference_range_m: grid.max_interference_range_m,
        };
        let verdict = world.shard_plan_incoherence(&singletons, SimTime::ZERO);
        assert_eq!(
            verdict,
            reference_shard_plan_incoherence(&world, &singletons, SimTime::ZERO),
            "range {range:?}: validators disagree on the witness"
        );
        assert!(verdict.is_some(), "range {range:?}: some pair couples");
        if range.is_some() {
            // Only the pairs a nanometre inside the reach on
            // overlapping channels couple: (1,1), (1,3), (3,6), (11,11).
            assert_eq!(grid.shard_count(), positions.len() - 4, "range {range:?}");
        }
    }
}
