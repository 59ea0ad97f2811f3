//! Spatial hash grid edge cases (DESIGN.md §17): the grid-backed
//! sparse neighbor cache and grid shard planner must stay coherent —
//! and agree with `wn-check`'s brute-force reference planner — at cell
//! boundaries, in degenerate one-cell worlds, in worlds where nothing
//! is audible, and under mobility that hops stations across cells.

use wireless_networks::check::{reference_shard_plan, reference_shard_plan_incoherence};
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
