//! Partition properties of the interference shard planner and the
//! byte-identity contract of `run_components` (DESIGN.md §15),
//! checked end to end through the public facade:
//!
//! - no audible co-channel pair ever straddles a shard boundary (the
//!   cached audible-neighbor lists are the witness);
//! - the grid-backed planner partitions every random cluster world
//!   exactly like `wn-check`'s brute-force reference planner;
//! - stale plans are caught by `shard_plan_incoherence` after the
//!   world changes under them (the `shard-coherence` oracle's check);
//! - `run_components` produces byte-identical digests to the sliced
//!   serial reference at 1, 2, 4 and 8 workers on uneven partitions
//!   (one large cell among lone sinks, and cells shrinking from the
//!   largest first, so jobs finish out of shard order), and a
//!   single-component composition bridges to a plain `run_until`.

use wireless_networks::check::{
    reference_shard_plan, reference_shard_plan_incoherence, run_components_sliced,
};
use wireless_networks::mac80211::addr::MacAddr;
use wireless_networks::mac80211::shard::{
    component_seed, run_components, ShardIncoherence, ShardPlan,
};
use wireless_networks::mac80211::sim::{boot, inject_at, MacConfig, NullUpper, WlanWorld};
use wireless_networks::phy::geom::Point;
use wireless_networks::phy::modulation::PhyStandard;
use wireless_networks::sim::stats::fnv1a;
use wireless_networks::sim::{SimTime, Simulation};

/// A world of station clusters: each `(centre, channel, count)` entry
/// puts one station at the centre and the rest on an 8 m ring.
fn cluster_world(seed: u64, clusters: &[(Point, u8, usize)]) -> WlanWorld {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = seed;
    let mut w = WlanWorld::new(cfg);
    let mut g = 0u32;
    for &(centre, ch, count) in clusters {
        for k in 0..count {
            let pos = if k == 0 {
                centre
            } else {
                let a = k as f64 / count as f64 * std::f64::consts::TAU;
                Point::new(centre.x + 8.0 * a.cos(), centre.y + 8.0 * a.sin())
            };
            let id = g as usize;
            w.add_station(MacAddr::station(g), pos, Box::new(NullUpper));
            w.set_channel(id, ch);
            g += 1;
        }
    }
    w
}

/// Deterministic xorshift for scatter placement — the test's own
/// stream, independent of the simulation RNG.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Every audible pair shares a shard when all stations share one
/// channel: audibility implies spectral overlap implies coupling, so
/// the cached audible-neighbor lists are a direct witness against the
/// partition. Random scatters over a 600 m square, several seeds,
/// both a finite coupling radius and the unbounded one.
#[test]
fn audible_pairs_never_straddle_shards() {
    for seed in [1u64, 7, 42] {
        let mut rng = seed | 1;
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = seed;
        let mut w = WlanWorld::new(cfg);
        for g in 0..40u32 {
            let x = (xorshift(&mut rng) % 600_000) as f64 / 1_000.0;
            let y = (xorshift(&mut rng) % 600_000) as f64 / 1_000.0;
            w.add_station(MacAddr::station(g), Point::new(x, y), Box::new(NullUpper));
        }
        w.prime_neighbor_cache(SimTime::ZERO);
        for range in [Some(120.0), None] {
            let plan = w.shard_plan(SimTime::ZERO, range);
            assert_eq!(plan.station_count(), 40);
            assert_matches_reference(&w, range, &format!("scatter seed {seed}"));
            for i in 0..40usize {
                for &j in w.neighbor_cache().audible_list(i).iter() {
                    assert_eq!(
                        plan.shard_of[i], plan.shard_of[j],
                        "seed {seed} range {range:?}: audible pair ({i}, {j}) straddles shards"
                    );
                }
            }
            assert!(
                w.shard_plan_incoherence(&plan, SimTime::ZERO).is_none(),
                "seed {seed} range {range:?}: fresh plan must validate"
            );
        }
    }
}

/// Asserts the grid planner's partition equals the brute-force
/// reference's, shard for shard, and that both validators accept it.
fn assert_matches_reference(w: &WlanWorld, range: Option<f64>, what: &str) {
    let plan = w.shard_plan(SimTime::ZERO, range);
    let reference = reference_shard_plan(w, SimTime::ZERO, range);
    assert_eq!(
        plan.shard_of, reference.shard_of,
        "{what} range {range:?}: grid planner diverged from the reference"
    );
    assert_eq!(plan.shards, reference.shards);
    assert!(
        reference_shard_plan_incoherence(w, &plan, SimTime::ZERO).is_none(),
        "{what} range {range:?}: the reference rejects the grid plan"
    );
}

/// Random cluster worlds: clusters of random size on random 2.4 GHz
/// channels (adjacent channels partially overlap, so cross-channel
/// coupling is exercised too), scattered over a square whose side
/// varies from "everything couples" to "nothing does". The grid
/// planner must match the brute-force reference at several finite
/// coupling radii and at the unbounded one.
#[test]
fn grid_planner_matches_the_reference_on_random_cluster_worlds() {
    for seed in 0..12u64 {
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let side = [150.0, 600.0, 2_500.0][seed as usize % 3];
        let clusters: Vec<(Point, u8, usize)> = (0..2 + xorshift(&mut rng) % 7)
            .map(|_| {
                let x = (xorshift(&mut rng) % 1_000_000) as f64 / 1_000_000.0 * side;
                let y = (xorshift(&mut rng) % 1_000_000) as f64 / 1_000_000.0 * side;
                let ch = 1 + (xorshift(&mut rng) % 11) as u8;
                (Point::new(x, y), ch, 1 + (xorshift(&mut rng) % 6) as usize)
            })
            .collect();
        let w = cluster_world(seed, &clusters);
        for range in [Some(0.0), Some(40.0), Some(250.0), None] {
            assert_matches_reference(&w, range, &format!("cluster seed {seed}"));
        }
    }
}

/// A plan computed against one deployment must fail validation once
/// the world contradicts it — the check behind the `shard-coherence`
/// oracle, which re-validates the partition after mobility patches.
#[test]
fn stale_plans_are_caught_by_the_coherence_check() {
    let far = cluster_world(
        5,
        &[(Point::new(0.0, 0.0), 1, 4), (Point::new(500.0, 0.0), 1, 4)],
    );
    let plan = far.shard_plan(SimTime::ZERO, Some(250.0));
    assert_eq!(plan.shard_count(), 2);
    assert_matches_reference(&far, Some(250.0), "far islands");
    assert!(far.shard_plan_incoherence(&plan, SimTime::ZERO).is_none());

    // The same stations with the second island walked next door: the
    // old partition now splits a coupled pair.
    let near = cluster_world(
        5,
        &[(Point::new(0.0, 0.0), 1, 4), (Point::new(30.0, 0.0), 1, 4)],
    );
    match near.shard_plan_incoherence(&plan, SimTime::ZERO) {
        Some(ShardIncoherence::CoupledAcrossShards { .. }) => {}
        other => panic!("expected CoupledAcrossShards, got {other:?}"),
    }
    assert!(reference_shard_plan_incoherence(&near, &plan, SimTime::ZERO).is_some());
    assert_matches_reference(&near, Some(250.0), "near islands");

    // A world that gained a station invalidates the plan outright.
    let grown = cluster_world(
        5,
        &[(Point::new(0.0, 0.0), 1, 4), (Point::new(500.0, 0.0), 1, 5)],
    );
    match grown.shard_plan_incoherence(&plan, SimTime::ZERO) {
        Some(ShardIncoherence::StationCountChanged { planned, actual }) => {
            assert_eq!((planned, actual), (8, 9));
        }
        other => panic!("expected StationCountChanged, got {other:?}"),
    }
}

/// The validator's witness is the one the exhaustive reference
/// reports: the lexicographically smallest coupled pair straddling
/// shards. Four islands on channels 1, 6, 1, 6 are planned 800 m
/// apart (four shards), with station ids interleaved across islands
/// so id order and cell order disagree. Then each channel-1 and
/// channel-6 island gets its co-channel partner walked next to it, so
/// many coupled pairs straddle shards at once. At every coupling range
/// the grid validator must return exactly the reference's witness.
#[test]
fn stale_plan_witness_matches_the_reference() {
    let islands = [
        (Point::new(0.0, 0.0), 1u8),
        (Point::new(800.0, 0.0), 6),
        (Point::new(0.0, 800.0), 1),
        (Point::new(800.0, 800.0), 6),
    ];
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = 21;
    let mut w = WlanWorld::new(cfg);
    let ring = |centre: Point, k: usize| {
        let a = k as f64 * 0.7;
        Point::new(centre.x + 6.0 * a.cos(), centre.y + 6.0 * a.sin())
    };
    for g in 0..20usize {
        let (centre, ch) = islands[g % 4];
        w.add_station(
            MacAddr::station(g as u32),
            ring(centre, g / 4),
            Box::new(NullUpper),
        );
        w.set_channel(g, ch);
    }
    for range in [Some(0.0), Some(40.0), Some(250.0)] {
        let plan = w.shard_plan(SimTime::ZERO, range);
        assert_eq!(plan.shard_count(), 4, "range {range:?}");
        assert!(w.shard_plan_incoherence(&plan, SimTime::ZERO).is_none());
    }
    let plan = w.shard_plan(SimTime::ZERO, Some(250.0));
    // Islands 2 and 3 walk to 25 m beside islands 0 and 1.
    for g in (0..20usize).filter(|g| g % 4 >= 2) {
        let (centre, _) = islands[g % 4 - 2];
        let beside = Point::new(centre.x + 25.0, centre.y);
        w.set_position(g, ring(beside, g / 4), SimTime::ZERO);
    }
    for range in [Some(0.0), Some(40.0), Some(250.0)] {
        let stale = ShardPlan {
            max_interference_range_m: range.unwrap(),
            ..plan.clone()
        };
        let got = w.shard_plan_incoherence(&stale, SimTime::ZERO);
        let want = reference_shard_plan_incoherence(&w, &stale, SimTime::ZERO);
        assert!(
            matches!(want, Some(ShardIncoherence::CoupledAcrossShards { .. })),
            "range {range:?}: the walk must couple across shards, got {want:?}"
        );
        assert_eq!(got, want, "range {range:?}: witnesses differ");
    }
    assert_eq!(
        w.shard_plan_incoherence(&plan, SimTime::ZERO),
        Some(ShardIncoherence::CoupledAcrossShards {
            a: 0,
            b: 2,
            dist_m: w.position(0).distance_to(w.position(2)),
        })
    );
}

/// Builds one saturated component cell for the executor tests: a sink
/// and `stations - 1` senders, 30 frames each (a one-station cell is a
/// lone sink with no traffic).
fn traffic_cell(seed: u64, k: usize, channel: u8, stations: usize) -> Simulation<WlanWorld> {
    let centre = Point::new(k as f64 * 300.0, 0.0);
    let w = cluster_world(component_seed(seed, k), &[(centre, channel, stations)]);
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    for sender in 1..stations {
        for f in 0..30u64 {
            inject_at(
                &mut sim,
                SimTime::from_micros(f * 700),
                sender,
                wireless_networks::mac80211::frame::Frame::data(
                    wireless_networks::mac80211::frame::DsBits::Ibss,
                    MacAddr::station(0),
                    MacAddr::station(sender as u32),
                    MacAddr::random_ibss_bssid(1),
                    wireless_networks::mac80211::frame::SequenceControl::default(),
                    vec![0xDA; 300],
                ),
            );
        }
    }
    sim
}

/// The job differential at root level on an uneven partition: one
/// large traffic-carrying cell plus several one-station cells, on
/// channels 1/6/11. Every worker count — including more workers than
/// components — digests byte-identically to the sliced serial
/// reference.
#[test]
fn run_components_is_byte_identical_across_worker_counts() {
    let horizon = SimTime::from_millis(30);
    let build = |k: usize| traffic_cell(11, k, [1u8, 6, 11][k % 3], if k == 0 { 8 } else { 1 });
    let reference = run_components_sliced(5, horizon, "shards", build);
    assert!(reference.per_shard_events[0] > reference.per_shard_events[1]);
    for workers in [1usize, 2, 4, 8] {
        let report = run_components(5, horizon, workers, "shards", build);
        assert_eq!(reference, report, "{workers} worker(s) diverged");
    }
}

/// Streamed folding keeps shard order when the jobs finish out of
/// order: the components shrink from 10 stations to 1, so the largest
/// job is claimed first and its successors finish before it. Every
/// worker count digests byte-identically to the sliced serial
/// reference.
#[test]
fn run_components_folds_in_shard_order_when_the_largest_shard_comes_first() {
    let horizon = SimTime::from_millis(30);
    let sizes = [10usize, 7, 5, 4, 3, 2, 2, 1, 1];
    let build = |k: usize| traffic_cell(23, k, [1u8, 6, 11][k % 3], sizes[k]);
    let reference = run_components_sliced(sizes.len(), horizon, "uneven", build);
    assert!(
        reference.per_shard_events.windows(2).all(|w| w[0] >= w[1])
            && reference.per_shard_events[0] > 10 * reference.per_shard_events[5],
        "components must shrink: {:?}",
        reference.per_shard_events
    );
    for workers in [1usize, 2, 4, 8] {
        let report = run_components(sizes.len(), horizon, workers, "uneven", build);
        assert_eq!(reference, report, "{workers} worker(s) diverged");
    }
}

/// A single-component composition is the classic engine: its digest
/// must equal a plain `run_until` over an identically built world —
/// the bridge that anchors the sharded harness to the unsharded one.
#[test]
fn single_component_composition_bridges_to_plain_run_until() {
    let horizon = SimTime::from_millis(30);
    let report = run_components(1, horizon, 1, "shards", |k| traffic_cell(11, k, 1, 4));
    let mut sim = traffic_cell(11, 0, 1, 4);
    let events = sim.run_until(horizon);
    let trace = fnv1a(sim.world().trace.to_jsonl("shards").as_bytes());
    let metrics = fnv1a(
        sim.world()
            .metrics_snapshot(horizon)
            .to_jsonl("shards")
            .as_bytes(),
    );
    assert_eq!(report.events, events);
    assert_eq!(report.trace_fnv, trace);
    assert_eq!(report.metrics_fnv, metrics);
}
