//! METRO-DCF at full scale (DESIGN.md §17): the grid-indexed metro
//! must construct, plan and run at 100k+ stations — the size where the
//! dense O(n²) paths stop being an option — with one interference
//! shard per cell, a plan that re-validates coherent, and byte-
//! identical digests between 1 and 2 workers. At the 10k-station
//! flagship planning world the grid is also re-proved against the
//! exhaustive pair scan and `wn-check`'s brute-force reference planner.
//!
//! Like `city_dcf.rs` and `scale_dcf.rs`, the flagship sizes are
//! release-only; the tier-1 debug suite runs the small sweep points.

use wireless_networks::check::{reference_shard_plan, reference_shard_plan_incoherence};
use wireless_networks::core::scenarios::{
    city_dcf_run, city_dcf_size, metro_dcf_planning_world, metro_dcf_point, metro_dcf_sweep,
    MetroDcfPoint, CITY_DCF_RANGE_M,
};
use wireless_networks::mac80211::sim::WlanWorld;
use wireless_networks::sim::SimTime;

fn dump(p: &MetroDcfPoint) {
    eprintln!(
        "METRO-DCF cells={} stations={} shards={} plan={:.1}ms build={:?}ms \
         stored={:?} trace_fnv={:016x}",
        p.cells, p.stations, p.shards, p.plan_ms, p.build_ms, p.stored_entries, p.report.trace_fnv,
    );
}

fn assert_point_sound(p: &MetroDcfPoint) {
    assert_eq!(p.shards, p.cells, "one interference shard per cell");
    assert!(
        p.incoherence.is_none(),
        "plan failed re-validation: {:?}",
        p.incoherence
    );
    assert!(p.report.events > 0, "the metro must actually run");
    if let Some(stored) = p.stored_entries {
        assert!(
            stored < p.dense_entries(),
            "sparse rows must store fewer pairs than the dense matrix"
        );
    }
}

/// Primes the sparse neighbor cache on a planning world and re-proves
/// it exhaustively: the spatial grid and every stored row agree with a
/// fresh link budget for all n(n−1) ordered pairs.
fn assert_grid_coherent(world: &mut WlanWorld) {
    world.prime_neighbor_cache(SimTime::ZERO);
    assert!(
        world.neighbor_cache_stats().is_some(),
        "the planning world must build its grid-backed cache"
    );
    let incoherent = world.grid_incoherence(SimTime::ZERO);
    assert!(incoherent.is_empty(), "grid incoherent: {incoherent:?}");
}

/// Every sweep point — debug or release — plans one shard per cell,
/// re-validates, and runs. The debug sweep's small planning worlds are
/// also re-proved grid-coherent here; in release the O(n²) re-proof
/// runs once, on the 10k-station point, in
/// `flagship_planning_world_is_grid_coherent_and_plans_like_the_reference`.
#[test]
fn every_sweep_point_is_sound() {
    for (rows, cols, senders, duration_ms) in metro_dcf_sweep() {
        let p = metro_dcf_point(rows, cols, senders, duration_ms, 42);
        dump(&p);
        assert_point_sound(&p);
        if cfg!(debug_assertions) {
            let mut world = metro_dcf_planning_world(rows, cols, senders, duration_ms, 42);
            assert_grid_coherent(&mut world);
        }
    }
}

/// The headline gate: the release flagship covers ≥100k stations and
/// still constructs, grid-plans and runs end to end, byte-identically
/// at 1 and 2 workers. Grid planning
/// must stay in interactive territory (well under a minute — the
/// O(n²) scan would take hours here), which is the whole point of the
/// spatial index.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized metro (100k+ stations); run with --release (CI does)"
)]
fn flagship_metro_reaches_100k_stations() {
    let (rows, cols, senders, duration_ms) = *metro_dcf_sweep().last().expect("sweep non-empty");
    let p = metro_dcf_point(rows, cols, senders, duration_ms, 42);
    dump(&p);
    assert!(
        p.stations >= 100_000,
        "flagship must cover >=100k stations, got {}",
        p.stations
    );
    assert_point_sound(&p);
    assert_eq!(
        city_dcf_run(rows, cols, senders, duration_ms, 42, Some(1)),
        city_dcf_run(rows, cols, senders, duration_ms, 42, Some(2)),
        "the metro diverged between 1 and 2 workers"
    );
    assert!(
        p.plan_ms < 60_000.0,
        "grid planning took {:.0}ms at n={} — the spatial index is not doing its job",
        p.plan_ms,
        p.stations
    );
}

/// The exhaustive re-proof on the CITY-DCF flagship planning world
/// (108 cells, 10,476 stations — also METRO-DCF's first release point):
/// after the sparse neighbor cache is primed, the spatial grid and
/// every stored row agree with a fresh link budget for all n(n−1)
/// ordered pairs; the grid planner's partition equals `wn-check`'s
/// brute-force O(n²) reference planner's; and the plan re-validates
/// coherent under both the grid validator and the reference one.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized planning world (10k+ stations); run with --release (CI does)"
)]
fn flagship_planning_world_is_grid_coherent_and_plans_like_the_reference() {
    let (rows, cols, senders, duration_ms) = city_dcf_size();
    let (m_rows, m_cols, m_senders, _) = metro_dcf_sweep()[0];
    assert_eq!(
        (rows, cols, senders),
        (m_rows, m_cols, m_senders),
        "the metro sweep must start at the city flagship"
    );
    let mut world = metro_dcf_planning_world(rows, cols, senders, duration_ms, 42);
    assert_grid_coherent(&mut world);
    let plan = world.shard_plan(SimTime::ZERO, Some(CITY_DCF_RANGE_M));
    let reference = reference_shard_plan(&world, SimTime::ZERO, Some(CITY_DCF_RANGE_M));
    assert_eq!(
        plan.shard_of, reference.shard_of,
        "grid and reference planners disagree on the partition"
    );
    assert!(
        world.shard_plan_incoherence(&plan, SimTime::ZERO).is_none(),
        "grid plan failed re-validation"
    );
    assert!(
        reference_shard_plan_incoherence(&world, &plan, SimTime::ZERO).is_none(),
        "reference validator rejects the grid plan"
    );
}
