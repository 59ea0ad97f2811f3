//! Neighbor-cache equivalence properties (DESIGN.md §13): the pairwise
//! rx-power cache must stay coherent through arbitrary mobility, and
//! the cached hot path must be trace- and metrics-identical to the
//! direct O(n) propagation fan-out it replaces.

use wireless_networks::check::{check_seed_gen, Propagation, ScenarioGen};
use wireless_networks::mac80211::addr::MacAddr;
use wireless_networks::mac80211::frame::{DsBits, Frame, SequenceControl};
use wireless_networks::mac80211::loss::LossModel;
use wireless_networks::mac80211::sim::{
    boot, inject_at, MacConfig, MacEvent, NullUpper, WlanWorld,
};
use wireless_networks::phy::geom::Point;
use wireless_networks::phy::medium::{LinkBudget, Radio};
use wireless_networks::phy::modulation::PhyStandard;
use wireless_networks::phy::propagation::LogDistance;
use wireless_networks::sim::{Rng, SimTime, Simulation};

fn data_to_sink(src: usize) -> Frame {
    Frame::data(
        DsBits::Ibss,
        MacAddr::station(0),
        MacAddr::station(src as u32),
        MacAddr::random_ibss_bssid(1),
        SequenceControl::default(),
        vec![0x5A; 600],
    )
}

/// After any seeded sequence of `SetPosition` teleports — landing
/// before, between and inside transmissions — every cached (src, dst)
/// rx power must equal a fresh link-budget evaluation, and every pair
/// a row omits must be below the carrier-sense floor. The invalidation protocol (moved station's
/// row rebuilt, its column patched through everyone else's rows) has
/// no stale corner.
#[test]
fn cache_stays_coherent_under_random_mobility() {
    for seed in 0..12u64 {
        let mut rng = Rng::new(0xC0FFEE ^ seed);
        let n = 4 + rng.below(9) as usize;
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = seed;
        let mut world = WlanWorld::new(cfg);
        let pos: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.f64_range(-60.0, 60.0), rng.f64_range(-60.0, 60.0)))
            .collect();
        world.add_stations(n, |i| pos[i], |_| Box::new(NullUpper));
        world.prime_neighbor_cache(SimTime::ZERO);
        assert!(world.neighbor_cache_stats().is_some());
        assert!(world.neighbor_cache_incoherence(SimTime::ZERO).is_none());

        let mut sim = Simulation::new(world);
        boot(&mut sim);
        // Steady traffic keeps transmissions in flight while stations
        // teleport, so cache rebuilds land mid-record too.
        for k in 0..40u64 {
            let src = 1 + (k as usize % (n - 1));
            inject_at(
                &mut sim,
                SimTime::from_micros(50 + k * 400),
                src,
                data_to_sink(src),
            );
        }
        let horizon_us = 30_000u64;
        for _ in 0..30 + rng.below(40) {
            let station = rng.below(n as u64) as usize;
            let to = Point::new(rng.f64_range(-80.0, 80.0), rng.f64_range(-80.0, 80.0));
            let at = SimTime::from_micros(rng.below(horizon_us));
            sim.scheduler_mut()
                .schedule_at(at, MacEvent::SetPosition { station, pos: to });
        }
        // Coherence is checked at several cuts, not just at the end —
        // a transient stale entry must not be healed by a later move.
        for cut_us in [horizon_us / 4, horizon_us / 2, horizon_us + 5_000] {
            let now = SimTime::from_micros(cut_us);
            sim.run_until(now);
            assert_eq!(
                sim.world().neighbor_cache_incoherence(now),
                None,
                "seed {seed}: cache incoherent at t={cut_us}us"
            );
        }
    }
}

/// Who hears a transmitter is read off its cached row (the entries at
/// or above CS, ascending), not stored. On random sparse grid worlds
/// — several cells wide, so rows omit far stations — and through
/// every `set_position` patch, each row's audible walk must equal a
/// brute-force evaluation of every pair, in the same order.
#[test]
fn row_audibility_matches_brute_force_under_mobility() {
    let budget = LinkBudget::for_standard(PhyStandard::Dot11g, Radio::consumer_wifi());
    let loss = LossModel::distance(LogDistance::indoor());
    let mut sparse_worlds = 0;
    for seed in 0..8u64 {
        let mut rng = Rng::new(0xA0D1B1E ^ seed);
        let n = 20 + rng.below(40) as usize;
        let span = 150.0 + rng.f64_range(0.0, 350.0);
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = seed;
        let cs = cfg.cs_threshold;
        let mut world = WlanWorld::new(cfg);
        let spot =
            |rng: &mut Rng| Point::new(rng.f64_range(-span, span), rng.f64_range(-span, span));
        let pos: Vec<Point> = (0..n).map(|_| spot(&mut rng)).collect();
        world.add_stations(n, |i| pos[i], |_| Box::new(NullUpper));
        world.prime_neighbor_cache(SimTime::ZERO);
        let check = |world: &WlanWorld, when: &str| {
            for src in 0..n {
                let a = world.position(src);
                let want: Vec<usize> = (0..n)
                    .filter(|&dst| {
                        let l = loss.loss(a, world.position(dst), budget.frequency, SimTime::ZERO);
                        dst != src && budget.rx_power(l).value() >= cs.value()
                    })
                    .collect();
                let row = world.neighbor_cache().row(src);
                let got: Vec<usize> = row.audible(src, cs).map(|(r, _, _)| r).collect();
                assert_eq!(got, want, "seed {seed} {when}: audience of {src}");
            }
        };
        check(&world, "after build");
        if world.neighbor_cache_stats().expect("cache primed").1 < n * (n - 1) {
            sparse_worlds += 1;
        }
        for step in 0..25 {
            let station = rng.below(n as u64) as usize;
            let to = spot(&mut rng);
            world.set_position(station, to, SimTime::ZERO);
            check(&world, &format!("after move {step}"));
        }
    }
    assert!(
        sparse_worlds >= 4,
        "only {sparse_worlds} of 8 worlds had sparse rows"
    );
}

/// A handful of generated fuzz scenarios (ESS roaming, mobility,
/// fragmentation, faults — whatever the seeds draw) through the full
/// cached and direct propagation paths: identical event counts and
/// trace/metrics fingerprints, and a clean oracle slate. The 200-seed
/// sweep runs in release CI as `fuzz --propagation-diff`.
#[test]
fn cached_and_direct_paths_fingerprint_identically() {
    let gen = ScenarioGen::default();
    for seed in 0..6u64 {
        let cached = check_seed_gen(&gen, seed, Propagation::Cached);
        let direct = check_seed_gen(&gen, seed, Propagation::Direct);
        assert_eq!(
            (cached.events, cached.trace_fnv, cached.metrics_fnv),
            (direct.events, direct.trace_fnv, direct.metrics_fnv),
            "seed {seed}: cached path diverged from direct ({})",
            cached.summary
        );
        assert!(
            cached.violations.is_empty(),
            "seed {seed}: oracle violations on the cached path: {:?}",
            cached.violations
        );
    }
}
