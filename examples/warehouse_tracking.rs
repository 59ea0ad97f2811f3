//! Warehouse asset tracking (§7: "Mobile applications, such as asset
//! tracking"): fixed asset tags report periodic telemetry over the
//! WLAN while a forklift-mounted station wanders the floor under
//! random-waypoint mobility, roaming between the two APs that cover
//! the warehouse.
//!
//! Run with: `cargo run --example warehouse_tracking`

use wireless_networks::core::traffic::{telemetry, Flow};
use wireless_networks::mac80211::addr::MacAddr;
use wireless_networks::mac80211::sim::{boot, MacConfig, NullUpper, WlanWorld};
use wireless_networks::net80211::builder::{schedule_random_waypoint, EssBuilder};
use wireless_networks::net80211::ssid::Ssid;
use wireless_networks::phy::geom::Point;
use wireless_networks::phy::modulation::PhyStandard;
use wireless_networks::sim::{SimDuration, SimTime, Simulation};

fn main() {
    println!("== warehouse asset tracking (§7 M2M) ==\n");

    // --- Part 1: raw-MAC telemetry fabric — 6 asset tags report to a
    // gateway every 2 s with jitter.
    let mut cfg = MacConfig::new(PhyStandard::Dot11b); // Cheap 2.4 GHz radios.
    cfg.seed = 321;
    let mut w = WlanWorld::new(cfg);
    let gateway = w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(NullUpper),
    );
    let mut tags = Vec::new();
    for i in 1..=6u32 {
        let a = i as f64 / 6.0 * std::f64::consts::TAU;
        tags.push(w.add_station(
            MacAddr::station(i),
            Point::new(30.0 * a.cos(), 30.0 * a.sin()),
            Box::new(NullUpper),
        ));
    }
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    let mut scheduled = 0;
    for &tag in &tags {
        let flow = Flow::direct(sim.world(), tag, gateway, 48);
        scheduled += telemetry(
            &mut sim,
            &flow,
            SimDuration::from_secs(2),
            SimDuration::from_millis(300),
            tag as u64,
            SimTime::ZERO,
            SimTime::from_secs(60),
        );
    }
    sim.run_until(SimTime::from_secs(61));
    let got = sim.world().stats(gateway).rx_accepted;
    println!("telemetry: {got}/{scheduled} tag reports reached the gateway over 802.11b");
    assert_eq!(got, scheduled);

    // --- Part 2: the forklift roams the warehouse ESS.
    let ssid = Ssid::new("Warehouse").expect("valid");
    let mut mac = MacConfig::new(PhyStandard::Dot11g);
    mac.seed = 654;
    let mut ess = EssBuilder::new(mac, ssid)
        .ap(Point::new(0.0, 0.0), 1)
        .ap(Point::new(180.0, 0.0), 6)
        .sta(Point::new(20.0, 5.0)) // The forklift terminal.
        .sta(Point::new(170.0, -5.0)) // The dispatch console near AP1.
        .build();
    ess.sim.run_until(SimTime::from_secs(2));
    let forklift = ess.sta_ids[0];
    schedule_random_waypoint(
        &mut ess.sim,
        forklift,
        Point::new(0.0, -30.0),
        Point::new(180.0, 30.0),
        2.0,
        6.0,
        2024,
        SimTime::from_secs(2),
        SimTime::from_secs(120),
    );
    // Dispatch pings the forklift once a second throughout.
    let pings = 115u64;
    for k in 0..pings {
        ess.send_app_data(
            1,
            MacAddr::station(0),
            format!("pick-order-{k}").into_bytes(),
            SimTime::from_millis(2500 + k * 1000),
        );
    }
    ess.sim.run_until(SimTime::from_secs(125));
    let sh = ess.sta(0);
    println!(
        "forklift: {} pick orders of {} received while wandering; association history:",
        sh.delivered.len(),
        pings
    );
    for (t, bssid) in &sh.assoc_events {
        println!("  {t} -> {bssid}");
    }
    let ratio = sh.delivered.len() as f64 / pings as f64;
    println!("delivery through mobility + roaming: {:.0}%", ratio * 100.0);
    assert!(
        ratio > 0.5,
        "the warehouse network should keep the forklift mostly reachable"
    );
}
