//! A known EDCA bug, recorded as a test before it is fixed.
//!
//! While one access category's A-MPDU waits for its block ack, another
//! category of the same station can win the shared access timer. One
//! transition then replaces the open exchange: `edca_transmit` opens
//! the new category's `Exchange::Flight` over the waiting one, so the
//! first category's flight is never resolved or re-contended and its
//! MSDUs stay in the world for good. With one category per station the
//! same run drains (the `mac80211` unit test
//! `drained_ampdu_run_retires_every_record`).
//!
//! The fix, one guard that defers the other categories while the
//! station's exchange is open, is ROADMAP item 1 Step 1. It changes
//! DENSE-OBSS behaviour, so it lands together with re-pinning the
//! dense-obss digests in `perfbench/src/lib.rs`.
//! Until then the test is ignored; `cargo test --test orphaned_flight
//! -- --ignored` shows how many MSDUs are still held.

use wireless_networks::mac80211::{
    boot, qos_inject_at, AccessCategory, DsBits, Frame, MacAddr, MacConfig, SequenceControl,
    WlanWorld,
};
use wireless_networks::phy::geom::Point;
use wireless_networks::phy::modulation::PhyStandard;
use wireless_networks::sim::{SimTime, Simulation};

#[test]
#[ignore = "known bug: edca_transmit opens a second AC's flight over the first AC's open exchange, orphaning that flight; fixed by ROADMAP item 1 Step 1 together with re-pinning the dense-obss digests in perfbench"]
fn rotating_access_categories_drain_every_msdu() {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = 7;
    cfg.edca = true;
    let mut w = WlanWorld::new(cfg);
    for i in 0..4u32 {
        w.add_station(
            MacAddr::station(i),
            Point::new(10.0 * f64::from(i), 0.0),
            Box::new(wireless_networks::mac80211::sim::NullUpper),
        );
    }
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    for i in 0..40u64 {
        for s in 0..4usize {
            let to = ((s + 1) % 4) as u32;
            let frame = Frame::data(
                DsBits::Ibss,
                MacAddr::station(to),
                MacAddr::station(s as u32),
                MacAddr::random_ibss_bssid(1),
                SequenceControl::default(),
                vec![0xAA; 400],
            );
            let ac = AccessCategory::ALL[(i as usize + s) % 4];
            qos_inject_at(&mut sim, SimTime::from_micros(1_000 + i * 50), s, frame, ac);
        }
    }
    sim.run_until(SimTime::from_secs(10));
    let w = sim.world();
    let pending: u64 = (0..4).map(|s| w.pending_msdus(s)).sum();
    assert_eq!(
        pending, 0,
        "{pending} MSDUs still held after the event queue drained"
    );
}
