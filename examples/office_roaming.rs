//! Office roaming (Fig. 1.10): an employee walks their laptop from one
//! end of the building to the other while a file transfer runs; the
//! laptop roams between two APs of the same ESS over the wired
//! distribution system, and the session survives.
//!
//! Run with: `cargo run --example office_roaming`

use wireless_networks::core::scenarios::fig_1_10_ess_roaming;
use wireless_networks::mac80211::addr::MacAddr;
use wireless_networks::mac80211::sim::MacConfig;
use wireless_networks::net80211::builder::{schedule_walk, EssBuilder};
use wireless_networks::net80211::ssid::Ssid;
use wireless_networks::phy::geom::Point;
use wireless_networks::phy::modulation::PhyStandard;
use wireless_networks::sim::{SimDuration, SimTime};

fn main() {
    println!("== ESS roaming walkthrough (Fig. 1.10) ==\n");

    // Build a two-AP ESS: channels 1 and 6, 260 m apart, wired backbone.
    let ssid = Ssid::new("CorpNet").expect("valid SSID");
    let mut mac = MacConfig::new(PhyStandard::Dot11g);
    mac.seed = 2024;
    let mut ess = EssBuilder::new(mac, ssid)
        .ap(Point::new(0.0, 0.0), 1)
        .ap(Point::new(260.0, 0.0), 6)
        .sta(Point::new(12.0, 0.0)) // The walking laptop.
        .sta(Point::new(250.0, 8.0)) // A file server's wireless bridge near AP1.
        .build();

    ess.sim.run_until(SimTime::from_secs(2));
    println!("t=2s: laptop associated to {:?}", ess.sta(0).bssid);

    // Walk from AP0's office to AP1's office at 5 m/s (a brisk walk).
    let laptop = ess.sta_ids[0];
    schedule_walk(
        &mut ess.sim,
        laptop,
        Point::new(12.0, 0.0),
        Point::new(250.0, 0.0),
        5.0,
        SimDuration::from_millis(200),
        SimTime::from_secs(2),
    );

    // The server streams messages to the laptop through the whole walk.
    let total = 55u64;
    for k in 0..total {
        ess.send_app_data(
            1,
            MacAddr::station(0),
            format!("chunk-{k:03}").into_bytes(),
            SimTime::from_millis(2500 + k * 1000),
        );
    }
    ess.sim.run_until(SimTime::from_secs(80));

    let sh = ess.sta(0);
    println!("\nassociation history:");
    for (t, bssid) in &sh.assoc_events {
        println!("  {t} -> {bssid}");
    }
    println!(
        "\nchunks delivered during the walk: {}/{} ({:.0}%)",
        sh.delivered.len(),
        total,
        sh.delivered.len() as f64 / total as f64 * 100.0
    );
    println!(
        "DS now maps the laptop to AP id {:?}",
        ess.ds
            .lock()
            .expect("DS lock")
            .serving_ap(MacAddr::station(0))
    );

    // The packaged experiment: run the canonical FIG-1.10 scenario too.
    let (outcome, report) = fig_1_10_ess_roaming(5);
    println!(
        "\ncanonical FIG-1.10 run: {} associations, handoff gap {:?} s, {}/{} delivered",
        outcome.associations, outcome.handoff_gap_s, outcome.delivered, outcome.offered
    );
    println!("\n{}", report.to_markdown());
    assert!(report.passed(), "roaming experiment must pass");
}
