//! Reception decisions at the edge of the sparse neighbor rows.

use wireless_networks::mac80211::addr::MacAddr;
use wireless_networks::mac80211::frame::{DsBits, Frame, SequenceControl};
use wireless_networks::mac80211::sim::{boot, inject_at, MacConfig, NullUpper, WlanWorld};
use wireless_networks::phy::geom::Point;
use wireless_networks::phy::modulation::PhyStandard;
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
