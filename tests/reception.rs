//! Reception decisions at the edge of the sparse neighbor rows.

use wireless_networks::mac80211::addr::MacAddr;
use wireless_networks::mac80211::frame::{DsBits, Frame, SequenceControl};
use wireless_networks::mac80211::sim::{boot, inject_at, MacConfig, NullUpper, WlanWorld};
use wireless_networks::phy::geom::Point;
use wireless_networks::phy::modulation::PhyStandard;
use wireless_networks::sim::{SimTime, Simulation};

fn data(src: u32, dst: u32) -> Frame {
    Frame::data(
        DsBits::Ibss,
        MacAddr::station(dst),
        MacAddr::station(src),
        MacAddr::random_ibss_bssid(1),
        SequenceControl::default(),
        vec![0x5A; 400],
    )
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
