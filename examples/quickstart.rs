//! Quickstart: build a home WLAN (Fig. 1.6), watch a station join,
//! push traffic through the AP, and print the comparison table.
//!
//! Run with: `cargo run --example quickstart`

use wireless_networks::core::registry::comparison_table;
use wireless_networks::core::scenarios::wlan_saturation_mbps;
use wireless_networks::mac80211::addr::MacAddr;
use wireless_networks::mac80211::sim::MacConfig;
use wireless_networks::net80211::builder::EssBuilder;
use wireless_networks::net80211::ssid::Ssid;
use wireless_networks::net80211::sta::StaState;
use wireless_networks::phy::geom::Point;
use wireless_networks::phy::modulation::PhyStandard;
use wireless_networks::sim::SimTime;

fn main() {
    println!("== wireless-networks quickstart ==\n");

    // 1. A home WLAN: one 802.11g AP, two stations (Fig. 1.6).
    let ssid = Ssid::new("HomeNet").expect("valid SSID");
    let mut net = EssBuilder::new(MacConfig::new(PhyStandard::Dot11g), ssid)
        .ap(Point::new(0.0, 0.0), 6)
        .sta(Point::new(8.0, 3.0)) // Laptop in the living room.
        .sta(Point::new(-6.0, 10.0)) // Desktop in the study.
        .build();

    // Let scanning, authentication and association complete.
    net.sim.run_until(SimTime::from_secs(2));
    for i in 0..net.sta_ids.len() {
        let sh = net.sta(i);
        println!(
            "station {i}: state={:?} bssid={:?} aid={} (beacons heard: {})",
            sh.state, sh.bssid, sh.aid, sh.beacons_heard
        );
        assert_eq!(sh.state, StaState::Associated);
    }

    // 2. The laptop sends the desktop a message — relayed by the AP.
    net.send_app_data(
        0,
        MacAddr::station(1),
        b"hello across the BSS".to_vec(),
        SimTime::from_millis(2100),
    );
    net.sim.run_until(SimTime::from_secs(3));
    let delivered = &net.sta(1).delivered;
    println!(
        "\ndesktop received {} message(s): {:?}",
        delivered.len(),
        delivered
            .iter()
            .map(|(t, from, body)| (
                t.to_string(),
                *from,
                String::from_utf8_lossy(body).into_owned()
            ))
            .collect::<Vec<_>>()
    );
    println!("AP bridged {} frame(s) locally", net.ap(0).bridged_local);

    // 3. Saturation throughput of the cell (the MAC-efficiency story).
    let mbps = wlan_saturation_mbps(PhyStandard::Dot11g, 4, false, 42);
    println!("\n4 saturated stations on 802.11g: {mbps:.1} Mbps aggregate (PHY peak 54)");

    // 4. The closing comparison table, measured.
    println!("\n== Comparison of wireless network types (paper vs measured) ==");
    println!(
        "{:<16} {:<6} {:>14} {:>14} {:>12} {:>12}",
        "technology", "class", "paper rate", "measured", "paper range", "measured"
    );
    for row in comparison_table() {
        println!(
            "{:<16} {:<6} {:>14} {:>14} {:>11.0}m {:>11.0}m",
            row.name,
            row.class.abbrev(),
            row.paper_max_rate.to_string(),
            row.measured_max_rate.to_string(),
            row.paper_range_m,
            row.measured_range_m
        );
    }
}
