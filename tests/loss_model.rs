//! The propagation description picks the received-power path
//! (DESIGN.md §13/§17): bounded static models — log-distance, and
//! walls that only add loss — run the grid-backed sparse cache;
//! time-varying and unbounded ones (fading, shadowing, a wall that
//! *removes* loss) are evaluated per transmission.

use wireless_networks::check::{reference_shard_plan, reference_shard_plan_incoherence};
use wireless_networks::core::scenarios::fading_loss_model;
use wireless_networks::mac80211::addr::MacAddr;
use wireless_networks::mac80211::frame::{DsBits, Frame, SequenceControl};
use wireless_networks::mac80211::loss::LossModel;
use wireless_networks::mac80211::shard::{ShardIncoherence, ShardPlan};
use wireless_networks::mac80211::sim::{boot, inject_at, MacConfig, NullUpper, WlanWorld};
use wireless_networks::phy::geom::{Point, Wall};
use wireless_networks::phy::modulation::PhyStandard;
use wireless_networks::phy::propagation::{IndoorWalls, LogDistance, Shadowing};
use wireless_networks::sim::{Rng, SimTime, Simulation};

fn world_with(positions: &[Point], model: LossModel) -> WlanWorld {
    let mut world = WlanWorld::new(MacConfig::new(PhyStandard::Dot11g));
    world.set_loss_model(model);
    world.add_stations(positions.len(), |i| positions[i], |_| Box::new(NullUpper));
    world
}

/// The indoor-office reach of the default radios: how far the
/// log-distance base alone lets a pair hear each other.
fn base_reach_m() -> f64 {
    world_with(&[Point::ORIGIN], LossModel::distance(LogDistance::indoor()))
        .audible_reach_m(SimTime::ZERO)
        .expect("log-distance is bounded")
}

/// A walled office: thick walls on a 25 m lattice, so straight-line
/// loss sits far above the log-distance floor for most pairs. Random
/// teleports must keep the grid and every sparse row coherent with a
/// fresh evaluation through the walls — the floor only sizes the
/// cells, it never stands in for a real loss.
#[test]
fn walls_far_above_the_floor_stay_coherent_under_mobility() {
    let mut walls = Vec::new();
    for k in -4..=4 {
        let c = 25.0 * f64::from(k);
        walls.push(Wall::new(Point::new(c, -110.0), Point::new(c, 110.0), 35.0));
        walls.push(Wall::new(Point::new(-110.0, c), Point::new(110.0, c), 35.0));
    }
    for seed in 0..6u64 {
        let mut rng = Rng::new(0x3A11 ^ seed);
        let n = 6 + rng.below(10) as usize;
        let positions: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.f64_range(-100.0, 100.0), rng.f64_range(-100.0, 100.0)))
            .collect();
        let mut world = world_with(
            &positions,
            LossModel::walls(IndoorWalls::new(walls.clone())),
        );
        world.prime_neighbor_cache(SimTime::ZERO);
        assert!(world.neighbor_cache_stats().is_some(), "walls are bounded");
        assert_eq!(
            world.audible_reach_m(SimTime::ZERO),
            Some(base_reach_m()),
            "the reach is probed from the log-distance floor"
        );
        for hop in 0..30 {
            let station = rng.below(n as u64) as usize;
            let pos = Point::new(rng.f64_range(-120.0, 120.0), rng.f64_range(-120.0, 120.0));
            world.set_position(station, pos, SimTime::ZERO);
            let incoherent = world.grid_incoherence(SimTime::ZERO);
            assert!(
                incoherent.is_empty(),
                "seed {seed} hop {hop}: {incoherent:?}"
            );
        }
    }
}

/// `Wall::loss_db` is a plain `f64`: a negative wall *lifts* a link
/// above the log-distance base, so the base is no floor. Two stations
/// well beyond the base reach hear each other through such a wall —
/// a grid sized by the base would have dropped that audible pair, so
/// the plan must land on the direct path.
#[test]
fn a_negative_wall_breaks_the_floor_and_runs_direct() {
    let reach = base_reach_m();
    let (a, b) = (
        Point::new(-0.75 * reach, 0.0),
        Point::new(0.75 * reach, 0.0),
    );
    let model = negative_wall_model();
    assert!(
        model.floor().is_none(),
        "a negative wall must void the floor"
    );
    let mut world = world_with(&[a, b], model);
    assert_eq!(world.audible_reach_m(SimTime::ZERO), None);
    world.prime_neighbor_cache(SimTime::ZERO);
    assert_eq!(
        world.neighbor_cache_stats(),
        None,
        "no cache without a floor"
    );
    assert!(
        world.shard_coupled(0, 1, 0.0, SimTime::ZERO),
        "the pair beyond the base reach is audible through the wall"
    );
    let shards = world.shard_plan(SimTime::ZERO, Some(0.0));
    assert_eq!(
        shards.shard_count(),
        1,
        "an audible pair must share a shard"
    );
}

/// Walls that *remove* 40 dB along the y axis: no floor.
fn negative_wall_model() -> LossModel {
    LossModel::walls(IndoorWalls::new(vec![Wall::new(
        Point::new(0.0, -10.0),
        Point::new(0.0, 10.0),
        -40.0,
    )]))
}

/// Without a distance floor nothing bounds audibility, so the planner
/// couples every spectrally overlapping pair at any range: its plan is
/// the brute-force reference's at an unbounded range, across several
/// channels and stations far beyond the base reach.
#[test]
fn a_floorless_model_plans_like_the_unbounded_reference() {
    let reach = base_reach_m();
    let channels = [1u8, 6, 11, 1, 6, 11, 13, 1];
    let positions: Vec<Point> = (0..channels.len())
        .map(|i| Point::new(3.0 * reach * i as f64, 5.0 * reach))
        .collect();
    let mut world = world_with(&positions, negative_wall_model());
    for (id, &ch) in channels.iter().enumerate() {
        world.set_channel(id, ch);
    }
    let reference = reference_shard_plan(&world, SimTime::ZERO, None);
    for range in [Some(0.0), Some(reach), None] {
        let plan = world.shard_plan(SimTime::ZERO, range);
        assert_eq!(plan.shard_of, reference.shard_of, "range {range:?}");
        assert_eq!(plan.shards, reference.shards, "range {range:?}");
    }
    // Channels 1, 6 and 11 are orthogonal; 13 overlaps 11.
    assert_eq!(reference.shard_count(), 3);
}

/// A stale plan at an unbounded range is rejected with the witness an
/// exhaustive scan reports — the lexicographically smallest straddling
/// pair — with or without a distance floor. Station 0 (channel 1)
/// couples with station 1 (channel 3) before it does with station 2,
/// its co-channel peer.
#[test]
fn a_stale_unbounded_plan_names_the_smallest_straddling_pair() {
    let reach = base_reach_m();
    let positions: Vec<Point> = (0..4)
        .map(|i| Point::new(3.0 * reach * i as f64, 0.0))
        .collect();
    let models = [
        LossModel::distance(LogDistance::indoor()),
        negative_wall_model(),
    ];
    for model in models {
        let mut world = world_with(&positions, model);
        for (id, ch) in [1u8, 3, 1, 11].into_iter().enumerate() {
            world.set_channel(id, ch);
        }
        let stale = ShardPlan {
            shard_of: vec![0, 1, 2, 3],
            shards: (0..4).map(|i| vec![i]).collect(),
            max_interference_range_m: f64::INFINITY,
        };
        let verdict = world.shard_plan_incoherence(&stale, SimTime::ZERO);
        assert_eq!(
            verdict,
            reference_shard_plan_incoherence(&world, &stale, SimTime::ZERO)
        );
        assert!(
            matches!(
                verdict,
                Some(ShardIncoherence::CoupledAcrossShards { a: 0, b: 1, .. })
            ),
            "{verdict:?}"
        );
    }
}

fn data_to_sink(src: usize) -> Frame {
    Frame::data(
        DsBits::Ibss,
        MacAddr::station(0),
        MacAddr::station(src as u32),
        MacAddr::random_ibss_bssid(1),
        SequenceControl::default(),
        vec![0x5A; 400],
    )
}

/// Runs a small saturated cell under `model` and reports whether the
/// world ever built a neighbor cache (priming included).
fn caches_under(model: LossModel) -> bool {
    let positions: Vec<Point> = (0..5)
        .map(|i| Point::new(6.0 * f64::from(i), 0.0))
        .collect();
    let mut world = world_with(&positions, model);
    world.prime_neighbor_cache(SimTime::ZERO);
    let mut sim = Simulation::new(world);
    boot(&mut sim);
    for k in 0..40u64 {
        let src = 1 + (k as usize % 4);
        inject_at(
            &mut sim,
            SimTime::from_micros(k * 500),
            src,
            data_to_sink(src),
        );
    }
    sim.run_until(SimTime::from_millis(40));
    assert!(
        sim.world().stats(0).rx_accepted > 0,
        "the cell must carry traffic"
    );
    sim.world().neighbor_cache_stats().is_some()
}

/// Shadowing is static but its Gaussian term is unbounded below, and
/// the ABL-FADING channel varies in time: both run direct, before and
/// after traffic. The bounded default runs cached.
#[test]
fn shadowing_and_fading_run_direct() {
    let shadowing = LossModel::shadowing(Shadowing {
        base: LogDistance::indoor(),
        sigma_db: 8.0,
        seed: 5,
    });
    assert!(!caches_under(shadowing), "shadowing must run direct");
    assert!(
        !caches_under(fading_loss_model(9)),
        "fading must run direct"
    );
    assert!(caches_under(LossModel::distance(LogDistance::indoor())));
}
