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

use wireless_networks::core::scenarios::scale_dcf_point;

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
