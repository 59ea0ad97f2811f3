//! FIG-1.10 — regenerates the ESS roaming walk (handoff gap, session
//! survival) and times association establishment.

use std::hint::black_box;

use wn_bench::{bench, print_report};
use wn_core::scenarios::fig_1_10_ess_roaming;
use wn_mac80211::sim::MacConfig;
use wn_net80211::builder::EssBuilder;
use wn_net80211::ssid::Ssid;
use wn_phy::geom::Point;
use wn_phy::modulation::PhyStandard;
use wn_sim::SimTime;

fn main() {
    let (outcome, report) = fig_1_10_ess_roaming(5);
    println!(
        "roaming outcome: {} associations, order {:?}, handoff gap {:?} s, {}/{} delivered",
        outcome.associations,
        outcome.serving_order,
        outcome.handoff_gap_s,
        outcome.delivered,
        outcome.offered
    );
    print_report(&report);

    bench("fig10/scan_auth_assoc", || {
        let ssid = Ssid::new("Bench").expect("valid");
        let mut mac = MacConfig::new(PhyStandard::Dot11g);
        mac.seed = 3;
        let mut ess = EssBuilder::new(mac, ssid)
            .ap(Point::new(0.0, 0.0), 1)
            .sta(Point::new(10.0, 0.0))
            .build();
        ess.sim.run_until(SimTime::from_secs(1));
        let aid = ess.sta(0).aid;
        black_box(aid)
    });
}
