//! FIG-1.9 — regenerates the ad hoc vs infrastructure comparison and
//! times a full IBSS exchange.

use std::hint::black_box;

use wn_bench::{bench, print_figure, print_report};
use wn_core::scenarios::fig_1_9_ibss_vs_bss;
use wn_mac80211::addr::MacAddr;
use wn_mac80211::sim::MacConfig;
use wn_net80211::builder::IbssBuilder;
use wn_phy::geom::Point;
use wn_phy::modulation::PhyStandard;
use wn_sim::SimTime;

fn main() {
    let (fig, report) = fig_1_9_ibss_vs_bss(42);
    print_figure(&fig);
    print_report(&report);

    bench("fig09/ibss_20_messages", || {
        let mut mac = MacConfig::new(PhyStandard::Dot11g);
        mac.seed = 5;
        let mut net = IbssBuilder::new(mac)
            .node(Point::new(0.0, 0.0))
            .node(Point::new(15.0, 0.0))
            .build();
        for k in 0..20 {
            net.send(
                0,
                MacAddr::station(1),
                vec![9; 800],
                SimTime::from_millis(1 + k * 3),
            );
        }
        net.sim.run_until(SimTime::from_secs(1));
        let delivered = net.node(1).delivered.len();
        black_box(delivered)
    });
}
