//! Neighbor-cache equivalence properties (DESIGN.md §13): the pairwise
//! rx-power cache must stay coherent through arbitrary mobility, and
//! the cached hot path must be trace- and metrics-identical to the
//! direct O(n) propagation fan-out it replaces.

use wireless_networks::check::{check_seed_gen, Propagation, ScenarioGen};
use wireless_networks::mac80211::addr::MacAddr;
use wireless_networks::mac80211::frame::{DsBits, Frame, SequenceControl};
use wireless_networks::mac80211::sim::{
    boot, inject_at, MacConfig, MacEvent, NullUpper, WlanWorld,
};
use wireless_networks::phy::geom::Point;
use wireless_networks::phy::modulation::PhyStandard;
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
/// rx power and every audible-neighbor list must equal a fresh
/// link-budget evaluation. The invalidation protocol (moved station's
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
