//! SCALE-DCF saturation properties, checked from `MetricsRegistry`
//! snapshots rather than the experiment harness's own claims: as the
//! contending-station count grows under symmetric saturated load,
//! per-station goodput must collapse monotonically while Jain fairness
//! stays near 1 for the horizons DCF needs to mix.
//!
//! The sweep points reuse the release horizons from the experiment
//! family (≈35·n ms — DCF's short-term capture unfairness decays as
//! 1/T), which makes this minutes-long in debug; the tier-1 debug
//! suite therefore skips it and CI runs it in the release job.
//!
//! The 1000-station point also carries three hot-path guards: the SINR
//! bound settles nearly every PER decision, the neighbor cache renders
//! exactly what the direct propagation path renders, and the ~65k
//! backlogged MSDUs share their sources' arena slots.

use wireless_networks::check::Propagation;
use wireless_networks::core::scenarios::{scale_dcf_point, scale_dcf_sim};
use wireless_networks::sim::stats::fnv1a;
use wireless_networks::sim::{SchedulerKind, SimTime};

/// `(stations, horizon_ms)` — the 10/50/200 release points.
const POINTS: [(usize, u64); 3] = [(10, 560), (50, 3500), (200, 7000)];

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized horizons; run with --release (CI does)"
)]
fn per_station_goodput_collapses_monotonically_and_fairly() {
    let points: Vec<_> = POINTS
        .iter()
        .map(|&(n, dur)| scale_dcf_point(n, dur, 42))
        .collect();

    for p in &points {
        // Saturation precondition: every sender still has backlog at the
        // horizon, so goodput measures the channel, not the offered load.
        assert!(
            p.saturated,
            "n={}: a sender drained its queue before the horizon",
            p.stations
        );
        assert!(
            p.jain_fairness >= 0.95,
            "n={}: Jain fairness {:.4} < 0.95 under symmetric saturation",
            p.stations,
            p.jain_fairness
        );
    }

    for w in points.windows(2) {
        assert!(
            w[1].per_station_kbps <= w[0].per_station_kbps,
            "per-station goodput rose from {:.1} kbps (n={}) to {:.1} kbps (n={})",
            w[0].per_station_kbps,
            w[0].stations,
            w[1].per_station_kbps,
            w[1].stations
        );
    }

    // And the collapse is real, not a plateau: 20x the contenders must
    // cost well over half the per-station goodput.
    let (first, last) = (&points[0], &points[points.len() - 1]);
    assert!(
        last.per_station_kbps * 2.0 < first.per_station_kbps,
        "contention collapse too shallow: {:.1} -> {:.1} kbps",
        first.per_station_kbps,
        last.per_station_kbps
    );
}

/// The 1000-station, 200 ms point the frame arena, the SINR bound and
/// the neighbor cache are tuned on: `(stations, horizon_ms, seed)`.
const HOT_POINT: (usize, u64, u64) = (1000, 200, 42);

/// The reception loop settles at least nine in ten PER decisions with
/// the SINR bound; fewer than 10% fall through to the exact PER model.
/// A cutoff or guard bug that sends every reception down the slow path
/// fails here, not only as a slower profile.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized BSS (1000 stations); run with --release (CI does)"
)]
fn sinr_bound_settles_nine_in_ten_per_decisions() {
    let (stations, duration_ms, seed) = HOT_POINT;
    let per = scale_dcf_point(stations, duration_ms, seed).per_decisions;
    let decisions = per.settled + per.exact;
    assert!(
        per.exact * 10 < decisions,
        "{} of {decisions} PER decisions took the exact path (must be under 10%)",
        per.exact
    );
}

/// The neighbor cache is a pure optimisation: the same BSS run on the
/// cached grid path and on the direct path (its log-distance loss
/// declared time-varying) processes the same events and renders the
/// same metrics, at 100 and at 1000 stations.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized BSS (1000 stations); run with --release (CI does)"
)]
fn cached_and_direct_propagation_agree_at_100_and_1000_stations() {
    let (_, duration_ms, seed) = HOT_POINT;
    let run = |stations: usize, prop: Propagation| {
        let end = SimTime::from_millis(duration_ms);
        let mut sim = scale_dcf_sim(stations, duration_ms, seed, SchedulerKind::TimerWheel);
        prop.install(sim.world_mut());
        sim.run_until(end);
        let snap = sim.world().metrics_snapshot(end);
        (
            sim.processed(),
            fnv1a(snap.to_jsonl("SCALE-DCF").as_bytes()),
        )
    };
    for stations in [100, 1000] {
        assert_eq!(
            run(stations, Propagation::Cached),
            run(stations, Propagation::Direct),
            "neighbor cache diverged from the direct path on SCALE-DCF n={stations}"
        );
    }
}

/// A periodic source's queued MSDUs are one arena slot: at the horizon
/// of the 1000-station point, with ~65k MSDUs still backlogged, the
/// arena holds at most three frames per station (a source template,
/// an attempt's private copy and its wire frame) plus the in-flight
/// records, not one per queued MSDU.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized BSS (1000 stations); run with --release (CI does)"
)]
fn backlogged_msdus_share_their_source_slot() {
    let (stations, duration_ms, seed) = HOT_POINT;
    let end = SimTime::from_millis(duration_ms);
    let mut sim = scale_dcf_sim(stations, duration_ms, seed, SchedulerKind::TimerWheel);
    sim.run_until(end);
    let w = sim.world();
    let queued: u64 = (0..w.station_count()).map(|i| w.pending_msdus(i)).sum();
    assert!(
        queued > 60_000,
        "backlog of {queued} MSDUs is not saturated"
    );
    let live = w.frame_arena().live();
    assert!(
        live <= 3 * (stations + 1),
        "{live} live arena frames for {queued} pending MSDUs on {stations} senders"
    );
    let (refs, held) = w.frame_ledger();
    assert_eq!(refs, held, "frame ledger drifted");
}
