//! DENSE-OBSS at full scale: the EDCA/A-MPDU apartment block of
//! overlapping BSSes on channels 1/6/11, checked from the point
//! observables rather than the experiment harness's own claims.
//!
//! The flagship sweep is release-sized (up to a 25-AP block); the
//! tier-1 debug suite skips this file and CI runs it in the release
//! job, like `city_dcf.rs` and `scale_dcf.rs`.

use wireless_networks::core::scenarios::{
    dense_obss_point, dense_obss_point_opts, dense_obss_sweep, DenseObssPoint, DENSE_OBSS_MIX,
};

const VO: usize = 0;
const VI: usize = 1;
const BE: usize = 2;
const BK: usize = 3;

fn dump(p: &DenseObssPoint) {
    eprintln!(
        "DENSE-OBSS grid={}x{} aps={} coch={} p50={:?}us p99={:?}us jain={:.4} delivered={:.2}",
        p.grid.0,
        p.grid.1,
        p.aps,
        p.cochannel_max,
        p.ac_p50_us,
        p.ac_p99_us,
        p.jain_airtime_within_class,
        p.delivered_frac(),
    );
}

fn sweep_points() -> Vec<DenseObssPoint> {
    let (sweep, duration_ms) = dense_obss_sweep();
    sweep
        .iter()
        .map(|&(r, c)| dense_obss_point(r, c, duration_ms, 42, DENSE_OBSS_MIX))
        .collect()
}

/// Densifying the block grows every AC's median access delay: each
/// added co-channel AP shrinks the class's airtime share, so queueing
/// delay climbs across the whole priority ladder (a small multiplicative
/// slack absorbs quantile bucketing on the saturating AC_VO curve).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized sweep; run with --release (CI does)"
)]
fn per_ac_latency_grows_monotonically_with_density() {
    let points = sweep_points();
    for p in &points {
        dump(p);
    }
    for pair in points.windows(2) {
        for ac in [VO, VI, BE, BK] {
            assert!(
                pair[1].ac_p50_us[ac] as f64 >= pair[0].ac_p50_us[ac] as f64 * 0.95,
                "AC {ac} p50 fell from {} to {} µs as the block densified ({} -> {} APs)",
                pair[0].ac_p50_us[ac],
                pair[1].ac_p50_us[ac],
                pair[0].aps,
                pair[1].aps,
            );
        }
        // Best-effort, where priority gives no shelter and the queue
        // never drains to the horizon cap, must grow strictly.
        assert!(
            pair[1].ac_p50_us[BE] > pair[0].ac_p50_us[BE],
            "AC_BE p50 did not grow ({} -> {} µs) as the block densified",
            pair[0].ac_p50_us[BE],
            pair[1].ac_p50_us[BE],
        );
    }
}

/// EDCA's priority promise under OBSS contention: at every density
/// point (and on a data-heavy mix at the densest grid), voice tail
/// latency stays below best-effort tail latency.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized sweep; run with --release (CI does)"
)]
fn vo_tail_latency_stays_below_be_at_every_density() {
    let (sweep, duration_ms) = dense_obss_sweep();
    let mut points = sweep_points();
    let &(fr, fc) = sweep.last().expect("non-empty sweep");
    points.push(dense_obss_point(fr, fc, duration_ms, 42, [5, 10, 55, 30]));
    for p in &points {
        dump(p);
        assert!(
            p.ac_p99_us[VO] < p.ac_p99_us[BE],
            "AC_VO p99 {} µs not below AC_BE p99 {} µs at {} APs",
            p.ac_p99_us[VO],
            p.ac_p99_us[BE],
            p.aps,
        );
        // AC_VI sits between voice and best effort on the ladder.
        assert!(
            p.ac_p99_us[VO] < p.ac_p99_us[VI] || p.ac_p99_us[VI] < p.ac_p99_us[BE],
            "priority ladder flattened entirely at {} APs: {:?}",
            p.aps,
            p.ac_p99_us,
        );
    }
}

/// Symmetric APs inside one co-channel class split airtime fairly at
/// every density — Jain ≥ 0.9 within each class — and the block's
/// load regime brackets as designed: the sparsest grid delivers its
/// offered load, the densest is overloaded.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized sweep; run with --release (CI does)"
)]
fn airtime_stays_jain_fair_within_cochannel_classes() {
    let points = sweep_points();
    for p in &points {
        dump(p);
        assert!(
            p.jain_airtime_within_class >= 0.9,
            "within-class airtime Jain {:.4} < 0.9 at {} APs",
            p.jain_airtime_within_class,
            p.aps,
        );
        assert!(p.completed > 0, "block delivered nothing at {} APs", p.aps);
    }
    assert!(
        points[0].delivered_frac() >= 0.9,
        "sparsest block only delivered {:.2} of offered",
        points[0].delivered_frac(),
    );
    let densest = points.last().expect("non-empty sweep");
    assert!(
        densest.completed < densest.offered,
        "densest block unexpectedly served its whole backlog"
    );
}

/// A-MPDU aggregation never loses goodput on the saturated 3×3 block:
/// the same per-AC backlog pushed through the EDCA queues with the
/// aggregation cap at the default 16 MPDUs and clamped to 1 (one MPDU
/// per TXOP) offers identical load, and the aggregated run completes at
/// least as many MSDUs. Both runs are deterministic, so this is the
/// stable form of "aggregation amortises contention overhead".
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized block; run with --release (CI does)"
)]
fn aggregation_keeps_offered_load_and_never_loses_goodput() {
    let run = |cap| dense_obss_point_opts(3, 3, 120, 42, DENSE_OBSS_MIX, cap);
    let (single, aggregated) = (run(1), run(16));
    dump(&single);
    dump(&aggregated);
    assert_eq!(
        single.offered, aggregated.offered,
        "aggregation cap changed the offered backlog"
    );
    assert!(
        aggregated.completed >= single.completed,
        "A-MPDU aggregation lost goodput on the saturated block: {} < {} MSDUs",
        aggregated.completed,
        single.completed
    );
}

/// The reception loop settles at least 99 in 100 PER decisions on the
/// 36-AP block perfbench times (6×6, 5 s) from the draw's settle-table
/// bin; fewer than 1% evaluate the PER model. Two cutoffs at 2⁻¹⁰ and
/// 1 − 2⁻¹⁰ left 26% of this block's decisions on the exact path.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized block; run with --release (CI does)"
)]
fn settle_table_settles_ninety_nine_in_a_hundred_per_decisions() {
    let per = dense_obss_point(6, 6, 5_000, 42, DENSE_OBSS_MIX).per_decisions;
    let decisions = per.settled + per.exact;
    assert!(
        per.exact * 100 < decisions,
        "{} of {decisions} PER decisions took the exact path (must be under 1%)",
        per.exact
    );
}
