//! Reception decisions at the edge of the sparse neighbor rows.

use wireless_networks::mac80211::addr::MacAddr;
use wireless_networks::mac80211::frame::{DsBits, Frame, SequenceControl};
use wireless_networks::mac80211::loss::LossModel;
use wireless_networks::mac80211::sim::{boot, inject_at, MacConfig, NullUpper, WlanWorld};
use wireless_networks::phy::geom::Point;
use wireless_networks::phy::modulation::PhyStandard;
use wireless_networks::phy::propagation::{LogDistance, PathLoss};
use wireless_networks::sim::stats::fnv1a;
use wireless_networks::sim::{SimTime, Simulation};

fn frame(src: u32, dst: MacAddr, len: usize) -> Frame {
    Frame::data(
        DsBits::Ibss,
        dst,
        MacAddr::station(src),
        MacAddr::random_ibss_bssid(1),
        SequenceControl::default(),
        vec![0x5A; len],
    )
}

fn data(src: u32, dst: u32) -> Frame {
    frame(src, MacAddr::station(dst), 400)
}

/// Two links 2 km apart overlap in time but not in space: each
/// receiver lies outside the other pair's sparse row, so its
/// interference sum is exactly zero while an interferer is on the
/// air. That receiver decodes against the noise floor alone instead
/// of taking the logarithm of zero milliwatts.
#[test]
fn receiver_outside_every_interferer_row_decodes_against_noise() {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.arf = false;
    let positions = [
        Point::new(0.0, 0.0),
        Point::new(5.0, 0.0),
        Point::new(2000.0, 0.0),
        Point::new(2005.0, 0.0),
    ];
    let mut world = WlanWorld::new(cfg);
    world.add_stations(positions.len(), |i| positions[i], |_| Box::new(NullUpper));
    let mut sim = Simulation::new(world);
    boot(&mut sim);
    for k in 0..50u64 {
        let at = SimTime::from_micros(k * 100);
        inject_at(&mut sim, at, 0, data(0, 1));
        inject_at(&mut sim, at, 2, data(2, 3));
    }
    sim.run_until(SimTime::from_millis(100));
    let w = sim.world();
    assert_eq!(w.stats(0).tx_completions, 50);
    assert_eq!(w.stats(2).tx_completions, 50);
}

/// Runs an 80,000-byte unicast from station 0 to station 1 (~58 ms at
/// 11 Mb/s). With `hidden`, station 2 (out of station 0's carrier
/// sense) broadcasts at 1 ms; with `orthogonal`, station 3 on channel
/// 11 completes a broadcast near the end of the long frame. Returns
/// how many frames station 1 accepted.
fn long_frame_accepted(hidden: bool, orthogonal: bool) -> u64 {
    let mut cfg = MacConfig::new(PhyStandard::Dot11b);
    cfg.arf = false;
    cfg.capture = false;
    let positions = [
        Point::new(0.0, 0.0),
        Point::new(5.0, 0.0),
        Point::new(2000.0, 0.0),
        Point::new(4000.0, 0.0),
    ];
    let mut world = WlanWorld::new(cfg);
    world.add_stations(positions.len(), |i| positions[i], |_| Box::new(NullUpper));
    world.set_channel(3, 11);
    let mut sim = Simulation::new(world);
    boot(&mut sim);
    inject_at(
        &mut sim,
        SimTime::ZERO,
        0,
        frame(0, MacAddr::station(1), 80_000),
    );
    if hidden {
        inject_at(
            &mut sim,
            SimTime::from_millis(1),
            2,
            frame(2, MacAddr::BROADCAST, 100),
        );
    }
    if orthogonal {
        inject_at(
            &mut sim,
            SimTime::from_millis(54),
            3,
            frame(3, MacAddr::BROADCAST, 100),
        );
    }
    sim.run_until(SimTime::from_millis(59));
    sim.world().stats(1).rx_accepted
}

/// Without capture, any co-channel frame overlapping the long unicast
/// in time corrupts it — however far away its sender is. A finished
/// record must stay an interferer for as long as a frame it overlapped
/// is still on the air, even when that frame is longer than any fixed
/// retention window and an unrelated frame on an orthogonal channel
/// completes in between.
#[test]
fn hidden_interferer_corrupts_a_frame_longer_than_50_ms() {
    assert_eq!(long_frame_accepted(false, false), 1);
    assert_eq!(long_frame_accepted(false, true), 1);
    assert_eq!(long_frame_accepted(true, false), 0);
    assert_eq!(long_frame_accepted(true, true), 0);
}

/// Two links on adjacent channels 1 and 3 (15/22 spectral overlap,
/// −2.6 dB leak) within one carrier-sense reach: the two senders hear
/// each other's raw power above carrier sense but their leaked power
/// below it, so they transmit over each other, and every reception
/// sums a fractionally discounted interferer. A co-channel contender
/// beside the channel-1 sender adds full-overlap interferers. Runs
/// on the cached grid path or the direct path and returns the trace
/// and metrics FNV-1a plus the receivers' (accepted, errors).
fn adjacent_channel_run(direct: bool) -> (u64, u64, [(u64, u64); 2]) {
    let reach = world_for_reach().audible_reach_m(SimTime::ZERO).unwrap();
    let at = |x: f64, y: f64| Point::new(x * reach, y * reach);
    let positions = [
        at(0.0, 0.0),
        at(0.25, 0.0),
        at(0.9, 0.0),
        at(0.6, 0.0),
        at(0.1, 0.1),
    ];
    let mut world = WlanWorld::new(MacConfig::new(PhyStandard::Dot11g));
    if direct {
        let model = LogDistance::indoor();
        world.set_loss_model(LossModel::time_varying(move |a, b, f, _| {
            model.loss(a.distance_to(b), f)
        }));
    }
    world.add_stations(positions.len(), |i| positions[i], |_| Box::new(NullUpper));
    for id in [2, 3] {
        world.set_channel(id, 3);
    }
    let mut sim = Simulation::new(world);
    boot(&mut sim);
    for k in 0..60u64 {
        let t = SimTime::from_micros(k * 1_000);
        inject_at(&mut sim, t, 0, frame(0, MacAddr::station(1), 500));
        inject_at(&mut sim, t, 2, frame(2, MacAddr::station(3), 500));
        inject_at(&mut sim, t, 4, frame(4, MacAddr::station(1), 500));
    }
    let end = SimTime::from_millis(300);
    sim.run_until(end);
    let w = sim.world();
    let rx = [1, 3].map(|r| (w.stats(r).rx_accepted, w.stats(r).rx_errors));
    (
        fnv1a(w.trace.to_jsonl("adjacent").as_bytes()),
        fnv1a(w.metrics_snapshot(end).to_jsonl("adjacent").as_bytes()),
        rx,
    )
}

fn world_for_reach() -> WlanWorld {
    let mut world = WlanWorld::new(MacConfig::new(PhyStandard::Dot11g));
    world.add_station(MacAddr::station(0), Point::ORIGIN, Box::new(NullUpper));
    world
}

/// FNV-1a of [`adjacent_channel_run`]'s trace JSONL.
const ADJACENT_TRACE_FNV: u64 = 0xd6ae_d962_b476_e5eb;
/// FNV-1a of [`adjacent_channel_run`]'s metrics JSONL.
const ADJACENT_METRICS_FNV: u64 = 0x524e_979a_3ce2_1f54;

/// Nothing else pins fractional channel overlap: the shifted
/// interference terms and the `log10` spectral-mask discount. Both
/// propagation paths must agree byte for byte, both receivers must
/// see deliveries and losses, and the digests must hold.
#[test]
fn adjacent_channel_collisions_hold_their_digests() {
    let cached = adjacent_channel_run(false);
    let direct = adjacent_channel_run(true);
    assert_eq!(cached, direct, "cached and direct paths diverged");
    let (trace, metrics, rx) = cached;
    for (accepted, errors) in rx {
        assert!(
            accepted > 0 && errors > 0,
            "receivers (accepted, errors) {rx:?}"
        );
    }
    assert_eq!(trace, ADJACENT_TRACE_FNV, "trace JSONL moved off its pin");
    assert_eq!(
        metrics, ADJACENT_METRICS_FNV,
        "metrics JSONL moved off its pin"
    );
}
