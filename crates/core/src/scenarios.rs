//! One scenario function per figure of the text.
//!
//! Every function is deterministic given its seed, returns
//! [`Figure`]/report data, and is shared verbatim by the benches (which
//! print the series) and the examples (which narrate them).

use crate::experiment::ExperimentReport;
use crate::registry::Technology;
use wn_mac80211::addr::MacAddr;
use wn_mac80211::frame::{DsBits, Frame, SequenceControl};
use wn_mac80211::loss::LossModel;
use wn_mac80211::payload::Payload;
use wn_mac80211::shard::{component_seed, run_components, run_components_observed, ShardRunReport};
use wn_mac80211::sim::{
    add_source, boot, AccessCategory, MacConfig, NullUpper, PerDecisions, WlanWorld,
};
use wn_net80211::builder::{schedule_walk, EssBuilder, IbssBuilder};
use wn_net80211::ssid::Ssid;
use wn_phy::geom::Point;
use wn_phy::medium::{LinkBudget, Radio};
use wn_phy::modulation::PhyStandard;
use wn_phy::propagation::{LogDistance, Shadowing};
use wn_sim::stats::Figure;
use wn_sim::{par_map, worker_count, SchedulerKind, SimDuration, SimTime, Simulation};

/// FIG-1.1 — the classification scatter: nominal range vs peak rate
/// per technology, measured.
pub fn fig_1_1_classification() -> Figure {
    let mut fig = Figure::new(
        "Fig 1.1 — wireless network classification",
        "range [m]",
        "peak rate [Mbps]",
    );
    for t in Technology::all() {
        let row = t.row();
        fig.add_series(row.name.clone())
            .push(row.measured_range_m, row.measured_max_rate.mbps());
    }
    fig
}

/// FIG-1.2 — Bluetooth piconet sharing and scatternet forwarding.
///
/// Returns (figure, report): per-slave throughput vs slave count, plus
/// the intra- vs cross-piconet comparison.
pub fn fig_1_2_bluetooth() -> (Figure, ExperimentReport) {
    use wn_wpan::bluetooth::{boot as bt_boot, fig_1_2_scatternet, BtNetwork, DeviceClass};
    let mut fig = Figure::new(
        "Fig 1.2 — Bluetooth piconet sharing",
        "active slaves",
        "kbps",
    );
    let secs = 5u64;
    // Each slave count is an independent piconet simulation — fan the
    // sweep across the pool.
    let totals: Vec<f64> = par_map((1..=7usize).collect(), |n| {
        let mut net = BtNetwork::new();
        let m = net.add_device(Point::new(0.0, 0.0), DeviceClass::Class2);
        let p = net.form_piconet(m).expect("fresh master");
        let mut slaves = Vec::new();
        for i in 0..n {
            let s = net.add_device(Point::new(1.0, i as f64), DeviceClass::Class2);
            net.join(p, s).expect("in range");
            net.send(m, s, 50_000_000);
            slaves.push(s);
        }
        let mut sim = Simulation::new(net);
        bt_boot(&mut sim);
        sim.run_until(SimTime::from_secs(secs));
        slaves
            .iter()
            .map(|&s| sim.world().delivered_bytes(s) as f64 * 8.0 / secs as f64 / 1e3)
            .sum()
    });
    let per_slave = fig.add_series("per-slave");
    for (i, &total_kbps) in totals.iter().enumerate() {
        let n = i + 1;
        per_slave.push(n as f64, total_kbps / n as f64);
    }
    let agg = fig.add_series("aggregate");
    for (i, &total_kbps) in totals.iter().enumerate() {
        agg.push((i + 1) as f64, total_kbps);
    }

    // Scatternet: intra vs cross throughput.
    let run = |cross: bool| -> f64 {
        let (mut net, _pa, _pb, _bridge) = fig_1_2_scatternet(2, 2);
        if cross {
            net.send(3, 5, 4_000_000);
        } else {
            net.send(0, 3, 4_000_000);
        }
        let mut sim = Simulation::new(net);
        bt_boot(&mut sim);
        sim.run_until(SimTime::from_secs(5));
        sim.world().delivered_bytes(if cross { 5 } else { 3 }) as f64 * 8.0 / 5.0 / 1e3
    };
    let scatter = par_map(vec![false, true], run);
    let (intra, cross) = (scatter[0], scatter[1]);
    let mut report = ExperimentReport::new("FIG-1.2", "Bluetooth piconets and scatternet");
    let single = fig.series[0].points[0].1;
    report
        .compare("single-pair throughput [kbps]", 720.0, single, 0.15)
        .claim(
            "capacity is shared: 7 slaves each get < 1/5 of a single pair",
            {
                let seven = fig.series[0].points[6].1;
                seven < single / 5.0
            },
        )
        .claim("scatternet cross-piconet slower than intra", cross < intra)
        .claim("scatternet still delivers", cross > 0.0);
    (fig, report)
}

/// FIG-2 — IrDA: negotiated rate across the alignment cone and range.
pub fn fig_2_irda() -> (Figure, ExperimentReport) {
    use wn_wpan::irda::{negotiate, IrPort};
    let mut fig = Figure::new("Fig 2 — IrDA link", "distance [m]", "rate [Mbps]");
    let aligned = fig.add_series("on-axis");
    let tx = IrPort::aimed_at(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
    for d in [0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2] {
        let rate = negotiate(&tx, Point::new(d, 0.0))
            .map(|r| r.mbps())
            .unwrap_or(0.0);
        aligned.push(d, rate);
    }
    let off = fig.add_series("20deg-off");
    for d in [0.1, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let p = Point::new(d * 0.94, d * 0.342); // 20° off axis.
        let rate = negotiate(&tx, p).map(|r| r.mbps()).unwrap_or(0.0);
        off.push(d, rate);
    }
    let mut report = ExperimentReport::new("FIG-2", "IrDA point-to-point link");
    report
        .compare(
            "peak rate at 10 cm [Mbps]",
            16.0,
            fig.series[0].points[0].1,
            0.01,
        )
        .claim(
            "link dies beyond 1 m",
            fig.series[0].points.last().unwrap().1 == 0.0,
        )
        .claim(
            "link dies outside the 30-degree cone",
            fig.series[1].points.iter().all(|&(_, r)| r == 0.0),
        );
    (fig, report)
}

/// FIG-1.4 — ZigBee topology comparison: star vs mesh vs cluster tree.
pub fn fig_1_4_zigbee(seed: u64) -> (Figure, ExperimentReport) {
    use wn_wpan::zigbee::*;
    let mut fig = Figure::new(
        "Fig 1.4 — ZigBee topologies",
        "metric (1=delivery, 2=hops, 3=latency ms)",
        "value",
    );
    // A 16-sensor field, 30 m across — too wide for a single star hop.
    let build = |topo: Topology| -> ZigbeeNetwork {
        let mut net = ZigbeeNetwork::new(topo, seed);
        net.add_node(Point::new(0.0, 0.0), NodeRole::Ffd)
            .expect("coordinator");
        for i in 0..16 {
            let ring = 1 + i / 8;
            let a = (i % 8) as f64 / 8.0 * std::f64::consts::TAU;
            let r = 8.0 * ring as f64;
            net.add_node(Point::new(r * a.cos(), r * a.sin()), NodeRole::Ffd)
                .expect("node");
        }
        if topo == Topology::ClusterTree {
            // Inner ring parents on the coordinator, outer on inner.
            for i in 1..=8 {
                net.set_parent(i, 0).expect("FFD parent");
            }
            for i in 9..=16 {
                net.set_parent(i, i - 8).expect("FFD parent");
            }
        }
        net
    };
    // The three topologies are independent sims — sweep them in the pool.
    let topos = vec![
        ("star", Topology::Star),
        ("mesh", Topology::Mesh),
        ("cluster-tree", Topology::ClusterTree),
    ];
    let results = par_map(topos, |(name, topo)| {
        let net = build(topo);
        let mut sim = Simulation::new(net);
        // Every sensor reports to the coordinator, staggered.
        for round in 0..20u64 {
            for src in 1..=16usize {
                sim.scheduler_mut().schedule_at(
                    SimTime::from_millis(round * 250 + src as u64 * 3),
                    ZigbeeEvent::Send {
                        src,
                        dst: 0,
                        bytes: 40,
                    },
                );
            }
        }
        sim.run_until(SimTime::from_secs(10));
        let w = sim.into_world();
        let delivery = w.stats.delivery_ratio(w.offered());
        let hops = w.stats.mean_hops();
        let latency_ms = w.stats.mean_latency_s() * 1e3;
        (name, delivery, hops, latency_ms)
    });
    for &(name, delivery, hops, latency_ms) in &results {
        let s = fig.add_series(name);
        s.push(1.0, delivery);
        s.push(2.0, hops);
        s.push(3.0, latency_ms);
    }
    let mut report = ExperimentReport::new("FIG-1.4", "ZigBee star/mesh/cluster-tree");
    let star = results[0];
    let mesh = results[1];
    let tree = results[2];
    report
        .claim(
            "star loses outer-ring traffic (out of single-hop range)",
            star.1 < 0.6,
        )
        .claim("mesh delivers everything multi-hop", mesh.1 > 0.95)
        .claim(
            "cluster-tree delivers everything via parents",
            tree.1 > 0.95,
        )
        .claim(
            "tree routes are no shorter than mesh routes",
            tree.2 >= mesh.2,
        );
    (fig, report)
}

/// FIG-1.5 — UWB spectral occupancy vs narrowband, and rate/distance.
pub fn fig_1_5_uwb() -> (Figure, ExperimentReport) {
    use wn_phy::units::{Dbm, Hertz};
    use wn_wpan::uwb::*;
    let mut fig = Figure::new("Fig 1.5 — UWB PSD and rate", "x", "value");
    let psd = fig.add_series("psd [dBm/MHz]");
    let uwb = Emission::uwb(US_BAND);
    let wifi = Emission::narrowband(Dbm(20.0), Hertz::from_mhz(20.0));
    psd.push(1.0, uwb.psd_dbm_per_mhz);
    psd.push(2.0, wifi.psd_dbm_per_mhz);
    let rate = fig.add_series("rate [Mbps]");
    for d in [1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0] {
        rate.push(d, rate_at_distance(d).map(|r| r.mbps()).unwrap_or(0.0));
    }
    let mut report = ExperimentReport::new("FIG-1.5", "UWB power/bandwidth usage");
    report
        .compare("UWB PSD [dBm/MHz]", -41.3, uwb.psd_dbm_per_mhz, 0.01)
        .compare(
            "rate at 1 m [Mbps]",
            480.0,
            rate_at_distance(1.0).unwrap().mbps(),
            0.01,
        )
        .compare(
            "rate at 8 m [Mbps]",
            110.0,
            rate_at_distance(8.0).unwrap().mbps(),
            0.01,
        )
        .claim(
            "UWB PSD sits ~48 dB under a Wi-Fi carrier",
            wifi.psd_dbm_per_mhz - uwb.psd_dbm_per_mhz > 45.0,
        )
        .claim(
            "UWB occupies >1 GHz (is ultra-wideband)",
            uwb.is_uwb(Hertz::from_ghz(6.85)),
        );
    (fig, report)
}

/// A `len`-byte filler body. A world builder makes one and stages
/// every frame of its backlog behind it with [`data_frame`].
fn filler(len: usize) -> Payload {
    Payload::from(vec![0xDA; len])
}

/// A direct data frame carrying a shared reference to `body`.
fn data_frame(from: u32, to: u32, body: &Payload) -> Frame {
    Frame::data(
        DsBits::Ibss,
        MacAddr::station(to),
        MacAddr::station(from),
        MacAddr::random_ibss_bssid(1),
        SequenceControl::default(),
        body.clone(),
    )
}

/// Saturation throughput of `n` senders flooding one sink over DCF.
///
/// ARF is disabled: at close range every rate succeeds, and leaving
/// rate adaptation on would measure ARF's collision pathology (see
/// [`ablation_arf`]) rather than DCF contention itself.
pub fn wlan_saturation_mbps(std: PhyStandard, n: usize, rts: bool, seed: u64) -> f64 {
    wlan_saturation_mbps_cfg(std, n, rts, seed, false)
}

/// [`wlan_saturation_mbps`] with rate adaptation switchable.
pub fn wlan_saturation_mbps_cfg(
    std: PhyStandard,
    n: usize,
    rts: bool,
    seed: u64,
    arf: bool,
) -> f64 {
    wlan_saturation_full(std, n, rts, seed, arf, false)
}

/// Saturation throughput with every rate-adaptation mode switchable.
pub fn wlan_saturation_full(
    std: PhyStandard,
    n: usize,
    rts: bool,
    seed: u64,
    arf: bool,
    aarf: bool,
) -> f64 {
    let mut cfg = MacConfig::new(std);
    cfg.seed = seed;
    cfg.arf = arf;
    cfg.arf_adaptive = aarf;
    if rts {
        cfg.rts_threshold = 0;
    }
    let mut w = WlanWorld::new(cfg);
    // Sink at the centre, senders in a ring.
    let _sink = w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(NullUpper),
    );
    for i in 1..=n {
        let a = i as f64 / n as f64 * std::f64::consts::TAU;
        w.add_station(
            MacAddr::station(i as u32),
            Point::new(8.0 * a.cos(), 8.0 * a.sin()),
            Box::new(NullUpper),
        );
    }
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    let body = filler(1500);
    let sim_secs = 1.0;
    // Enough offered load to keep every queue non-empty.
    let per_sender = (3000.0 / n as f64).ceil() as u64 + 50;
    for i in 1..=n {
        add_source(
            &mut sim,
            i,
            AccessCategory::Be,
            data_frame(i as u32, 0, &body),
            SimTime::ZERO,
            SimDuration::from_micros(1_000_000 / per_sender),
            per_sender,
        );
    }
    sim.run_until(SimTime::from_secs_f64(sim_secs));
    sim.world().stats(0).rx_payload_bytes as f64 * 8.0 / sim_secs / 1e6
}

/// FIG-1.6 — home WLAN: saturation throughput vs station count, with
/// the RTS/CTS ablation.
pub fn fig_1_6_wlan_home(seed: u64) -> (Figure, ExperimentReport) {
    let mut fig = Figure::new(
        "Fig 1.6 — home WLAN saturation (802.11g)",
        "stations",
        "aggregate Mbps",
    );
    let counts = [1usize, 2, 4, 8];
    // All eight saturation points (4 station counts × basic/RTS) are
    // independent sims; sweep them through the pool in one batch.
    let jobs: Vec<(usize, bool)> = [false, true]
        .iter()
        .flat_map(|&rts| counts.iter().map(move |&n| (n, rts)))
        .collect();
    let mbps = par_map(jobs, |(n, rts)| {
        (n, wlan_saturation_mbps(PhyStandard::Dot11g, n, rts, seed))
    });
    let (basic, with_rts) = mbps.split_at(counts.len());
    let s = fig.add_series("basic DCF");
    for &(n, m) in basic {
        s.push(n as f64, m);
    }
    let s = fig.add_series("RTS/CTS");
    for &(n, m) in with_rts {
        s.push(n as f64, m);
    }
    let mut report = ExperimentReport::new("FIG-1.6", "Home WLAN throughput");
    report
        .claim(
            "MAC efficiency: single sender lands at 40-70% of the 54 Mbps PHY rate",
            (21.0..38.0).contains(&basic[0].1),
        )
        .claim(
            "throughput does not collapse with contention (within 40% of single)",
            basic[3].1 > basic[0].1 * 0.6,
        )
        .claim(
            "RTS/CTS costs throughput when there are no hidden nodes",
            with_rts[0].1 < basic[0].1,
        );
    (fig, report)
}

/// FIG-1.7 — WiMAX: rate vs distance for both bands, plus PMP sharing.
pub fn fig_1_7_wimax() -> (Figure, ExperimentReport) {
    use wn_wman::link::{WimaxBand, WimaxLink};
    let mut fig = Figure::new("Fig 1.7 — WiMAX coverage", "distance [km]", "rate [Mbps]");
    let nlos = fig.add_series("2-11 GHz NLOS");
    let l = WimaxLink::default();
    for km in [1.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0] {
        nlos.push(
            km,
            l.rate_at(km * 1000.0, false)
                .map(|r| r.mbps())
                .unwrap_or(0.0),
        );
    }
    let hi = WimaxLink {
        band: WimaxBand::LineOfSight,
        ..WimaxLink::default()
    };
    let los = fig.add_series("10-66 GHz LOS");
    for km in [1.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0] {
        los.push(
            km,
            hi.rate_at(km * 1000.0, false)
                .map(|r| r.mbps())
                .unwrap_or(0.0),
        );
    }
    let obstructed = fig.add_series("LOS obstructed");
    for km in [1.0, 5.0, 10.0] {
        obstructed.push(
            km,
            hi.rate_at(km * 1000.0, true)
                .map(|r| r.mbps())
                .unwrap_or(0.0),
        );
    }
    let mut report = ExperimentReport::new("FIG-1.7", "WiMAX point-to-multipoint");
    report
        .compare("peak rate [Mbps]", 70.0, l.peak_rate().mbps(), 0.01)
        .claim(
            "NLOS band still serves at 50 km",
            l.rate_at(50_000.0, false).is_some(),
        )
        .claim(
            "high band needs line of sight",
            hi.rate_at(5_000.0, true).is_none() && hi.rate_at(5_000.0, false).is_some(),
        );
    (fig, report)
}

/// FIG-1.8 — satellite vs cellular: delay and rate.
pub fn fig_1_8_wwan() -> (Figure, ExperimentReport) {
    use wn_wwan::cellular::{CellGrid, Generation};
    use wn_wwan::satellite::{GeoSatellite, SatLink};
    let mut fig = Figure::new("Fig 1.8 — WWAN technologies", "x", "value");
    let rates = fig.add_series("peak rate [Mbps]");
    for (i, g) in Generation::ALL.iter().enumerate() {
        rates.push(i as f64, g.peak_rate().mbps());
    }
    let sat = SatLink::typical();
    rates.push(Generation::ALL.len() as f64, sat.achievable_rate().mbps());

    let delay = fig.add_series("one-way delay [ms]");
    let geo = GeoSatellite {
        elevation_deg: 35.0,
    };
    delay.push(0.0, 3_000.0 / 299_792_458.0 * 1e3); // 4G cell edge.
    delay.push(1.0, geo.bent_pipe_delay_s(&geo) * 1e3);

    // Handoff drive test across a hex grid.
    let grid = CellGrid::hex(3, 1500.0);
    let seq = grid.drive_test(Point::new(-8000.0, 100.0), Point::new(8000.0, 100.0), 2000);

    let mut report = ExperimentReport::new("FIG-1.8", "Satellite and cellular networks");
    report
        .compare(
            "4G peak [Mbps]",
            1000.0,
            Generation::G4.peak_rate().mbps(),
            0.01,
        )
        .compare(
            "satellite rate [Mbps]",
            60.0,
            sat.achievable_rate().mbps(),
            0.2,
        )
        .claim(
            "GEO bent-pipe one-way delay in the 230-280 ms band",
            (0.23..0.28).contains(&geo.bent_pipe_delay_s(&geo)),
        )
        .claim("drive test hands off across multiple cells", seq.len() >= 3);
    (fig, report)
}

/// FIG-1.9 — ad hoc (IBSS) vs infrastructure (BSS) for the same
/// station set: throughput and delivery latency.
pub fn fig_1_9_ibss_vs_bss(seed: u64) -> (Figure, ExperimentReport) {
    let ssid = Ssid::new("Fig19").expect("valid ssid");
    let mut mac = MacConfig::new(PhyStandard::Dot11g);
    mac.seed = seed;
    let n_msgs = 40u64;

    // Ad hoc: node 0 → node 1 directly.
    let mut ibss = IbssBuilder::new(mac.clone())
        .node(Point::new(0.0, 0.0))
        .node(Point::new(20.0, 0.0))
        .build();
    for k in 0..n_msgs {
        ibss.send(
            0,
            MacAddr::station(1),
            vec![7; 1000],
            SimTime::from_millis(100 + k * 5),
        );
    }
    ibss.sim.run_until(SimTime::from_secs(3));
    let ibss_delivered = ibss.node(1).delivered.len() as u64;
    let ibss_last = ibss.node(1).delivered.last().map(|d| d.0);

    // Infrastructure: same endpoints, AP in the middle relays.
    let mut ess = EssBuilder::new(mac, ssid)
        .ap(Point::new(10.0, 5.0), 1)
        .sta(Point::new(0.0, 0.0))
        .sta(Point::new(20.0, 0.0))
        .build();
    ess.sim.run_until(SimTime::from_secs(2));
    for k in 0..n_msgs {
        ess.send_app_data(
            0,
            MacAddr::station(1),
            vec![7; 1000],
            SimTime::from_millis(2100 + k * 5),
        );
    }
    ess.sim.run_until(SimTime::from_secs(6));
    let bss_delivered = ess.sta(1).delivered.len() as u64;
    let airtime_ibss = ibss.sim.world().stats(0).tx_frames;
    let ap_frames = ess.sim.world().stats(ess.ap_ids[0]).tx_frames;

    let mut fig = Figure::new("Fig 1.9 — IBSS vs BSS", "mode (0=IBSS,1=BSS)", "delivered");
    fig.add_series("delivered").push(0.0, ibss_delivered as f64);
    fig.series[0].push(1.0, bss_delivered as f64);

    let mut report = ExperimentReport::new("FIG-1.9", "Independent vs infrastructure BSS");
    report
        .claim("ad hoc delivers everything", ibss_delivered == n_msgs)
        .claim(
            "infrastructure delivers everything",
            bss_delivered == n_msgs,
        )
        .claim(
            "infrastructure relays: the AP transmits roughly one frame per message",
            ap_frames as f64 >= n_msgs as f64,
        )
        .claim("ad hoc completed (latency sanity)", ibss_last.is_some());
    let _ = airtime_ibss;
    (fig, report)
}

/// Outcome of the FIG-1.10 roaming walk.
#[derive(Clone, Debug)]
pub struct RoamingOutcome {
    /// Number of (re)associations observed.
    pub associations: usize,
    /// The serving BSSIDs in order.
    pub serving_order: Vec<MacAddr>,
    /// The handoff gap: time between losing AP0 contact and completing
    /// association to AP1 (seconds), when a roam happened.
    pub handoff_gap_s: Option<f64>,
    /// Messages delivered end-to-end despite the walk.
    pub delivered: usize,
    /// Messages offered.
    pub offered: usize,
}

/// FIG-1.10 — ESS roaming: a STA walks between two APs on a DS while a
/// peer keeps sending to it through the wired backbone.
pub fn fig_1_10_ess_roaming(seed: u64) -> (RoamingOutcome, ExperimentReport) {
    let ssid = Ssid::new("Fig110").expect("valid ssid");
    let mut mac = MacConfig::new(PhyStandard::Dot11g);
    mac.seed = seed;
    let mut ess = EssBuilder::new(mac, ssid)
        .ap(Point::new(0.0, 0.0), 1)
        .ap(Point::new(260.0, 0.0), 6)
        .sta(Point::new(10.0, 0.0)) // The walker.
        .sta(Point::new(250.0, 5.0)) // The fixed peer near AP1.
        .build();
    ess.sim.run_until(SimTime::from_secs(2));
    let walker = ess.sta_ids[0];
    schedule_walk(
        &mut ess.sim,
        walker,
        Point::new(10.0, 0.0),
        Point::new(250.0, 0.0),
        5.0,
        SimDuration::from_millis(200),
        SimTime::from_secs(2),
    );
    // The peer sends one message per second to the walker throughout.
    let offered = 60usize;
    for k in 0..offered as u64 {
        ess.send_app_data(
            1,
            MacAddr::station(0),
            format!("tick-{k}").into_bytes(),
            SimTime::from_millis(2500 + k * 1000),
        );
    }
    ess.sim.run_until(SimTime::from_secs(80));
    let sh = ess.sta(0);
    let serving_order: Vec<MacAddr> = sh.assoc_events.iter().map(|&(_, b)| b).collect();
    let handoff_gap_s = sh
        .assoc_events
        .windows(2)
        .find_map(|w| (w[0].1 != w[1].1).then(|| (w[1].0 - w[0].0).as_secs_f64()));
    let outcome = RoamingOutcome {
        associations: sh.assoc_events.len(),
        serving_order: serving_order.clone(),
        handoff_gap_s,
        delivered: sh.delivered.len(),
        offered,
    };
    let mut report = ExperimentReport::new("FIG-1.10", "ESS roaming (seamless handoff)");
    report
        .claim(
            "the walk triggers a reassociation",
            outcome.associations >= 2,
        )
        .claim(
            "serving AP order is AP0 then AP1",
            serving_order.first() == Some(&MacAddr::access_point(0))
                && serving_order.last() == Some(&MacAddr::access_point(1)),
        )
        .claim(
            "session survives the roam: >70% of messages delivered",
            outcome.delivered * 10 >= outcome.offered * 7,
        );
    (outcome, report)
}

/// FIG-1.11/1.12 — MAC frame anatomy: per-field overhead and MAC
/// efficiency vs payload size.
pub fn fig_1_12_frame_overhead() -> (Figure, ExperimentReport) {
    let mut fig = Figure::new(
        "Fig 1.12 — MAC frame overhead",
        "payload [B]",
        "efficiency [%]",
    );
    let s = fig.add_series("data frame");
    for &len in &[0usize, 64, 256, 512, 1024, 1500, 2312] {
        let f = data_frame(1, 2, &filler(len));
        let eff = len as f64 / f.wire_len() as f64 * 100.0;
        s.push(len as f64, eff);
    }
    let data = data_frame(1, 2, &filler(1500));
    let ack = Frame::ack(MacAddr::station(1));
    let rts = Frame::rts(MacAddr::station(1), MacAddr::station(2), 100);
    let mut report = ExperimentReport::new("FIG-1.12", "802.11 MAC frame format");
    report
        .compare(
            "data header+FCS [B]",
            28.0,
            (data.wire_len() - 1500) as f64,
            0.01,
        )
        .compare("ACK size [B]", 14.0, ack.to_bytes().len() as f64, 0.01)
        .compare("RTS size [B]", 20.0, rts.to_bytes().len() as f64, 0.01)
        .claim("efficiency exceeds 95% at 1500-B payloads", {
            let eff = 1500.0 / data.wire_len() as f64;
            eff > 0.95
        })
        .claim("codec round-trips bit-exactly", {
            Frame::from_bytes(&data.to_bytes()).as_ref() == Ok(&data)
        });
    (fig, report)
}

/// FIG-1.13 — the PHY rate ladders: achieved rate vs distance for all
/// six generations (the "automatically back down" behaviour).
pub fn fig_1_13_phy_ladder() -> (Figure, ExperimentReport) {
    let mut fig = Figure::new(
        "Fig 1.13 — PHY generations, rate vs distance (indoor)",
        "distance [m]",
        "rate [Mbps]",
    );
    let model = LogDistance::indoor();
    // One ladder per PHY generation; each is independent, so compute the
    // six ladders as parallel sweep points and assemble in ALL order.
    let ladders = par_map(PhyStandard::ALL.to_vec(), |std| {
        let lb = LinkBudget::for_standard(std, Radio::consumer_wifi());
        [
            1.0, 5.0, 10.0, 20.0, 30.0, 50.0, 75.0, 100.0, 150.0, 250.0, 400.0,
        ]
        .iter()
        .map(|&d| {
            let rate = lb
                .best_rate_at(std, &model, d)
                .map(|r| r.rate.mbps())
                .unwrap_or(0.0);
            (d, rate)
        })
        .collect::<Vec<_>>()
    });
    for (std, points) in PhyStandard::ALL.iter().zip(ladders) {
        let s = fig.add_series(std.name());
        for (d, rate) in points {
            s.push(d, rate);
        }
    }
    let mut report = ExperimentReport::new("FIG-1.13", "802.11 PHY standards ladder");
    let near = |idx: usize| fig.series[idx].points[0].1;
    report
        .compare("802.11 peak [Mbps]", 2.0, near(0), 0.01)
        .compare("802.11b peak [Mbps]", 11.0, near(1), 0.01)
        .compare("802.11a peak [Mbps]", 54.0, near(2), 0.01)
        .compare("802.11g peak [Mbps]", 54.0, near(3), 0.01)
        .compare("802.11n peak [Mbps]", 600.0, near(4), 0.01)
        .compare("802.11ac peak [Gbps]", 1.3, near(5) / 1000.0, 0.01)
        .claim("every ladder is non-increasing with distance", {
            fig.series
                .iter()
                .all(|s| s.points.windows(2).all(|w| w[1].1 <= w[0].1))
        })
        .claim(
            "802.11a (5 GHz) falls off its top rate before 802.11g (2.4 GHz)",
            {
                let a_cut = fig.series[2].first_x_below(50.0).unwrap_or(f64::INFINITY);
                let g_cut = fig.series[3].first_x_below(50.0).unwrap_or(f64::INFINITY);
                a_cut <= g_cut
            },
        )
        .claim("802.11a (5 GHz) link dies before 802.11g (2.4 GHz)", {
            let a_dead = fig.series[2].first_x_below(1.0).unwrap_or(f64::INFINITY);
            let g_dead = fig.series[3].first_x_below(1.0).unwrap_or(f64::INFINITY);
            a_dead <= g_dead
        });
    (fig, report)
}

/// SEC-RANK — the §5.2 ranking with measured WEP-crack effort.
pub fn sec_ranking() -> (Figure, ExperimentReport) {
    use wn_security::attacks::fms::{directed_capture, recover_key};
    use wn_security::ranking::{breach_ranking, SecurityMethod};
    use wn_security::wep::WepKey;

    let mut fig = Figure::new(
        "§5.2 — security ranking",
        "rank",
        "time-to-breach [log10 s]",
    );
    // Each ranked method is an independent sweep point.
    let points = par_map(breach_ranking(), |(rank, _m, t)| {
        (rank as f64, (t.max(1.0)).log10())
    });
    let s = fig.add_series("time-to-breach");
    for (x, y) in points {
        s.push(x, y);
    }

    // Live demonstration: actually crack a 64-bit WEP key.
    let key = WepKey::new(b"\x42\x13\x37\xC0\xDE").expect("5 bytes");
    let (samples, reference) = directed_capture(&key);
    let started = std::time::Instant::now();
    let rec = recover_key(&samples, 5, &reference, 3, 10_000);
    let crack_wall_s = started.elapsed().as_secs_f64();

    let mut report = ExperimentReport::new("SEC-RANK", "Wi-Fi security methods, best to worst");
    report
        .claim(
            "WEP key actually recovered by FMS",
            rec.key.as_deref() == Some(key.secret()),
        )
        .claim(
            "the live crack is 'minutes' class (< 5 min wall clock here)",
            crack_wall_s < 300.0,
        )
        .claim("ranking times strictly ordered", {
            let times: Vec<f64> = SecurityMethod::RANKED
                .iter()
                .map(|m| m.time_to_breach_s())
                .collect();
            times.windows(2).all(|w| w[0] > w[1])
        })
        .claim("WPS caps even WPA2 at hours", {
            SecurityMethod::Wpa2Aes.time_to_breach_with_wps_s() <= 14.0 * 3600.0
        });
    (fig, report)
}

/// ADV-6 — the §6 trade-offs: co-channel interference degradation and
/// shadowing black spots.
pub fn adv_tradeoffs(seed: u64) -> (Figure, ExperimentReport) {
    // Interference: two saturated pairs, same channel vs channels 1/6.
    let run_pairs = |same_channel: bool| -> f64 {
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = seed;
        let mut w = WlanWorld::new(cfg);
        let a_tx = w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        let a_rx = w.add_station(
            MacAddr::station(1),
            Point::new(5.0, 0.0),
            Box::new(NullUpper),
        );
        let b_tx = w.add_station(
            MacAddr::station(2),
            Point::new(0.0, 12.0),
            Box::new(NullUpper),
        );
        let b_rx = w.add_station(
            MacAddr::station(3),
            Point::new(5.0, 12.0),
            Box::new(NullUpper),
        );
        if !same_channel {
            w.set_channel(b_tx, 6);
            w.set_channel(b_rx, 6);
        }
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        let body = filler(1400);
        // Saturating load: each pair alone could carry ~27 Mbps.
        for (tx, frame) in [
            (a_tx, data_frame(0, 1, &body)),
            (b_tx, data_frame(2, 3, &body)),
        ] {
            add_source(
                &mut sim,
                tx,
                AccessCategory::Be,
                frame,
                SimTime::ZERO,
                SimDuration::from_micros(330),
                3000,
            );
        }
        sim.run_until(SimTime::from_secs(1));
        let w = sim.world();
        (w.stats(a_rx).rx_payload_bytes + w.stats(b_rx).rx_payload_bytes) as f64 * 8.0 / 1e6
    };
    let pairs = par_map(vec![true, false], run_pairs);
    let (shared, separate) = (pairs[0], pairs[1]);

    // Black spots: fraction of positions in a 40×40 m floor where the
    // shadowed link to a corner AP cannot sustain even the base rate.
    let lb = LinkBudget::for_standard(PhyStandard::Dot11g, Radio::consumer_wifi());
    let model = Shadowing {
        base: LogDistance::indoor(),
        sigma_db: 9.0,
        seed,
    };
    let ap = Point::new(0.0, 0.0);
    let mut dead = 0;
    let mut total = 0;
    for gx in 1..=20 {
        for gy in 1..=20 {
            let p = Point::new(gx as f64 * 2.0, gy as f64 * 2.0);
            let loss = model.loss_between(ap, p, lb.frequency);
            let snr = lb.snr(loss);
            total += 1;
            if PhyStandard::Dot11g.best_rate_for_snr(snr).is_none() {
                dead += 1;
            }
        }
    }
    let dead_fraction = dead as f64 / total as f64;
    // Without shadowing the same floor has full coverage.
    let mut dead_flat = 0;
    for gx in 1..=20 {
        for gy in 1..=20 {
            let p = Point::new(gx as f64 * 2.0, gy as f64 * 2.0);
            let snr = lb.snr_at(&LogDistance::indoor(), ap.distance_to(p));
            if PhyStandard::Dot11g.best_rate_for_snr(snr).is_none() {
                dead_flat += 1;
            }
        }
    }

    let mut fig = Figure::new("§6 — trade-offs", "x", "value");
    let s = fig.add_series("aggregate Mbps");
    s.push(0.0, shared);
    s.push(1.0, separate);
    let d = fig.add_series("dead-spot fraction");
    d.push(0.0, dead_flat as f64 / total as f64);
    d.push(1.0, dead_fraction);

    let mut report = ExperimentReport::new("ADV-6", "Interference and coverage black spots");
    report
        .claim(
            "co-channel neighbours degrade aggregate throughput",
            shared < separate * 0.75,
        )
        .claim("orthogonal channels restore it", separate > shared)
        .claim(
            "shadowing creates black spots on a floor with flat-model full coverage",
            dead_flat == 0 && dead_fraction > 0.0,
        );
    (fig, report)
}

/// ABL-CW — binary-exponential-backoff ablation: saturation throughput
/// of eight contending stations across CWmin values (DESIGN.md §6.3).
pub fn ablation_cw_sweep(seed: u64) -> (Figure, ExperimentReport) {
    let mut fig = Figure::new(
        "ABL-CW — CWmin sweep (8 stations, 802.11g, no capture)",
        "CWmin",
        "aggregate Mbps",
    );
    let run = |cw_min: u32| -> f64 {
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = seed;
        cfg.capture = false;
        cfg.cw_min_override = Some(cw_min);
        let mut w = WlanWorld::new(cfg);
        let sink = w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        for i in 1..=8usize {
            let a = i as f64 / 8.0 * std::f64::consts::TAU;
            w.add_station(
                MacAddr::station(i as u32),
                Point::new(6.0 * a.cos(), 6.0 * a.sin()),
                Box::new(NullUpper),
            );
        }
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        let body = filler(1500);
        for i in 1..=8usize {
            add_source(
                &mut sim,
                i,
                AccessCategory::Be,
                data_frame(i as u32, 0, &body),
                SimTime::ZERO,
                SimDuration::from_micros(2200),
                450,
            );
        }
        sim.run_until(SimTime::from_secs(1));
        sim.world().stats(sink).rx_payload_bytes as f64 * 8.0 / 1e6
    };
    let cws = [3u32, 15, 63, 255];
    // Four contended sweep points, all independent — run them in the pool.
    let swept = par_map(cws.to_vec(), |cw| (cw, run(cw)));
    let s = fig.add_series("aggregate");
    let mut results = Vec::new();
    for &(cw, m) in &swept {
        s.push(cw as f64, m);
        results.push((cw, m));
    }
    let by_cw = |cw: u32| results.iter().find(|&&(c, _)| c == cw).expect("swept").1;

    // The flip side: with a single sender there is nobody to collide
    // with, and a huge CW only wastes idle slots.
    let run_light = |cw_min: u32| -> f64 {
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = seed ^ 0x5555;
        cfg.capture = false;
        cfg.cw_min_override = Some(cw_min);
        let mut w = WlanWorld::new(cfg);
        let sink = w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        let tx = w.add_station(
            MacAddr::station(1),
            Point::new(6.0, 0.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        let body = filler(1500);
        add_source(
            &mut sim,
            tx,
            AccessCategory::Be,
            data_frame(1, 0, &body),
            SimTime::ZERO,
            SimDuration::from_micros(330),
            3000,
        );
        sim.run_until(SimTime::from_secs(1));
        sim.world().stats(sink).rx_payload_bytes as f64 * 8.0 / 1e6
    };
    let lights = par_map(vec![15u32, 1023], run_light);
    let (light_15, light_1023) = (lights[0], lights[1]);
    let light = fig.add_series("1 sender");
    light.push(15.0, light_15);
    light.push(1023.0, light_1023);

    let mut report = ExperimentReport::new("ABL-CW", "Binary exponential backoff ablation");
    report
        .claim(
            "under heavy contention, a small CWmin drowns in collisions (CW 3 < CW 63)",
            by_cw(3) < by_cw(63),
        )
        .claim(
            "under light contention, a huge CWmin wastes idle slots (CW 1023 < CW 15)",
            light_1023 < light_15 * 0.6,
        );
    (fig, report)
}

/// ABL-CAPTURE — the capture-effect ablation: a tiny contention window
/// forces frequent same-slot collisions between a near (strong) and a
/// far (weak) sender; SINR capture on vs off (DESIGN.md §6.5).
pub fn ablation_capture(seed: u64) -> (Figure, ExperimentReport) {
    let run = |capture: bool| -> (f64, f64, f64) {
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = seed;
        cfg.capture = capture;
        cfg.arf = false;
        // CWmin 1 ⇒ the two saturated senders draw the same slot about
        // half the time — a collision generator.
        cfg.cw_min_override = Some(1);
        cfg.cw_max_override = Some(3);
        let mut w = WlanWorld::new(cfg);
        let rx = w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        let a = w.add_station(
            MacAddr::station(1),
            Point::new(5.0, 0.0),
            Box::new(NullUpper),
        );
        let b = w.add_station(
            MacAddr::station(2),
            Point::new(55.0, 0.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        let body = filler(1200);
        for (tx, frame) in [(a, data_frame(1, 0, &body)), (b, data_frame(2, 0, &body))] {
            add_source(
                &mut sim,
                tx,
                AccessCategory::Be,
                frame,
                SimTime::ZERO,
                SimDuration::from_micros(660),
                1500,
            );
        }
        sim.run_until(SimTime::from_secs(1));
        let w = sim.world();
        let collisions = w.stats(rx).rx_errors as f64;
        (
            w.stats(a).retries as f64,
            w.stats(b).retries as f64,
            collisions,
        )
    };
    let modes = par_map(vec![true, false], run);
    let (on_near, on_far, on_coll) = modes[0];
    let (off_near, off_far, off_coll) = modes[1];
    let mut fig = Figure::new(
        "ABL-CAPTURE — capture effect",
        "capture (0=off,1=on)",
        "value",
    );
    let near = fig.add_series("near retries");
    near.push(0.0, off_near);
    near.push(1.0, on_near);
    let far = fig.add_series("far retries");
    far.push(0.0, off_far);
    far.push(1.0, on_far);
    let coll = fig.add_series("rx errors");
    coll.push(0.0, off_coll);
    coll.push(1.0, on_coll);
    let mut report = ExperimentReport::new("ABL-CAPTURE", "SINR capture effect ablation");
    report
        .claim(
            "collisions happen in both modes (the generator works)",
            on_coll > 100.0 && off_coll > 100.0,
        )
        .claim(
            "with capture, the strong sender sails through collisions",
            on_near < 50.0 && on_far > 200.0,
        )
        .claim(
            "without capture, collisions destroy both frames alike",
            off_near > 200.0 && (off_near - off_far).abs() < (off_near + off_far) * 0.4,
        );
    (fig, report)
}

/// ABL-ARF — rate-adaptation ablation on a marginal link: adaptive
/// fallback vs a rate pinned at 54 Mbps (DESIGN.md §6.2).
pub fn ablation_arf(seed: u64) -> (Figure, ExperimentReport) {
    let run = |arf: bool| -> (f64, u64) {
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = seed;
        cfg.arf = arf;
        let mut w = WlanWorld::new(cfg);
        let tx = w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        let rx = w.add_station(
            MacAddr::station(1),
            Point::new(78.0, 0.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        let body = filler(1200);
        add_source(
            &mut sim,
            tx,
            AccessCategory::Be,
            data_frame(0, 1, &body),
            SimTime::ZERO,
            SimDuration::from_micros(800),
            1200,
        );
        sim.run_until(SimTime::from_secs(1));
        let w = sim.world();
        (
            w.stats(rx).rx_payload_bytes as f64 * 8.0 / 1e6,
            w.stats(tx).tx_failures,
        )
    };
    let modes = par_map(vec![true, false], run);
    let (adaptive_mbps, adaptive_fail) = modes[0];
    let (pinned_mbps, pinned_fail) = modes[1];
    let mut fig = Figure::new(
        "ABL-ARF — rate adaptation at 78 m",
        "mode (0=pinned,1=ARF)",
        "Mbps",
    );
    let s = fig.add_series("goodput");
    s.push(0.0, pinned_mbps);
    s.push(1.0, adaptive_mbps);
    // The flip side — ARF's famous pathology: under *collision* losses
    // (strong signals, heavy contention) rate fallback only makes
    // frames longer and throughput worse. This is the behaviour that
    // motivated AARF and collision-aware rate adaptation.
    let contended = par_map(
        vec![(true, false), (true, true), (false, false)],
        |(a, aa)| wlan_saturation_full(PhyStandard::Dot11g, 4, false, seed, a, aa),
    );
    let (contended_arf, contended_aarf, contended_fixed) =
        (contended[0], contended[1], contended[2]);
    let p = fig.add_series("4-sta contention");
    p.push(0.0, contended_fixed);
    p.push(1.0, contended_arf);
    p.push(2.0, contended_aarf);

    let mut report = ExperimentReport::new("ABL-ARF", "ARF rate-fallback ablation");
    report
        .claim(
            "'automatically back down from 54 Mbps': ARF beats a pinned top rate on a weak link",
            adaptive_mbps > pinned_mbps * 1.5,
        )
        .claim(
            "the pinned link burns through retry limits",
            pinned_fail > adaptive_fail,
        )
        .claim(
            "ARF's collision pathology: under contention losses, rate fallback hurts",
            contended_arf < contended_fixed,
        )
        .claim(
            "AARF's probe backoff recovers part of the contention loss",
            contended_aarf > contended_arf,
        );
    (fig, report)
}

/// ABL-ADJ — the 2.4 GHz channel-plan experiment: two neighbouring
/// BSS pairs on co-channel (1/1), adjacent (1/3) and orthogonal (1/6)
/// channels — the mechanism behind the "use 1, 6, 11" rule.
pub fn adjacent_channels(seed: u64) -> (Figure, ExperimentReport) {
    let run = |other_channel: u8| -> f64 {
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = seed;
        cfg.arf = false;
        let mut w = WlanWorld::new(cfg);
        let a_tx = w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        let a_rx = w.add_station(
            MacAddr::station(1),
            Point::new(5.0, 0.0),
            Box::new(NullUpper),
        );
        let b_tx = w.add_station(
            MacAddr::station(2),
            Point::new(0.0, 14.0),
            Box::new(NullUpper),
        );
        let b_rx = w.add_station(
            MacAddr::station(3),
            Point::new(5.0, 14.0),
            Box::new(NullUpper),
        );
        w.set_channel(b_tx, other_channel);
        w.set_channel(b_rx, other_channel);
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        let body = filler(1400);
        for (tx, frame) in [
            (a_tx, data_frame(0, 1, &body)),
            (b_tx, data_frame(2, 3, &body)),
        ] {
            add_source(
                &mut sim,
                tx,
                AccessCategory::Be,
                frame,
                SimTime::ZERO,
                SimDuration::from_micros(330),
                3000,
            );
        }
        sim.run_until(SimTime::from_secs(1));
        let w = sim.world();
        (w.stats(a_rx).rx_payload_bytes + w.stats(b_rx).rx_payload_bytes) as f64 * 8.0 / 1e6
    };
    let plans = par_map(vec![1u8, 3, 6], run);
    let (co, adjacent, orthogonal) = (plans[0], plans[1], plans[2]);
    let mut fig = Figure::new(
        "ABL-ADJ — 2.4 GHz channel plan (two BSS pairs)",
        "plan (1=co, 3=adjacent, 6=orthogonal)",
        "aggregate Mbps",
    );
    let s = fig.add_series("aggregate");
    s.push(1.0, co);
    s.push(3.0, adjacent);
    s.push(6.0, orthogonal);
    let mut report = ExperimentReport::new("ABL-ADJ", "Adjacent-channel interference");
    report
        .claim(
            "orthogonal channels (1/6) roughly double co-channel capacity",
            orthogonal > co * 1.5,
        )
        .claim(
            "orthogonal beats adjacent: partial overlap is not isolation",
            orthogonal >= adjacent,
        )
        .claim(
            "adjacent is no worse than full co-channel sharing",
            adjacent >= co * 0.9,
        );
    (fig, report)
}

/// The ABL-FADING channel: indoor log-distance loss under Rayleigh
/// fading with a 20 ms coherence time — time-varying, so worlds
/// evaluate it per transmission.
pub fn fading_loss_model(seed: u64) -> LossModel {
    use wn_phy::fading::Fading;
    use wn_phy::propagation::PathLoss;

    let base = LogDistance::indoor();
    let fade = Fading::rayleigh(0.02, seed);
    LossModel::time_varying(move |a, b, f, t| {
        base.loss(a.distance_to(b), f) - fade.fade_db(a, b, t.as_secs_f64())
    })
}

/// ABL-FADING — rate adaptation under Rayleigh fading: a mid-range
/// link whose channel swings ±15 dB every few milliseconds. ARF tracks
/// the fades; a pinned top rate dies in every trough.
pub fn fading_link(seed: u64) -> (Figure, ExperimentReport) {
    let run = |arf: bool, faded: bool| -> f64 {
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = seed;
        cfg.arf = arf;
        let mut w = WlanWorld::new(cfg);
        if faded {
            w.set_loss_model(fading_loss_model(seed));
        }
        let tx = w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        let rx = w.add_station(
            MacAddr::station(1),
            Point::new(55.0, 0.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        let body = filler(1200);
        add_source(
            &mut sim,
            tx,
            AccessCategory::Be,
            data_frame(0, 1, &body),
            SimTime::ZERO,
            SimDuration::from_micros(660),
            1500,
        );
        sim.run_until(SimTime::from_secs(1));
        let _ = tx;
        sim.world().stats(rx).rx_payload_bytes as f64 * 8.0 / 1e6
    };
    let cases = par_map(
        vec![(false, false), (false, true), (true, true)],
        |(arf, faded)| run(arf, faded),
    );
    let (flat_pinned, faded_pinned, faded_arf) = (cases[0], cases[1], cases[2]);
    let mut fig = Figure::new(
        "ABL-FADING — Rayleigh fading at 55 m",
        "case (0=flat/pinned, 1=faded/pinned, 2=faded/ARF)",
        "goodput Mbps",
    );
    let s = fig.add_series("goodput");
    s.push(0.0, flat_pinned);
    s.push(1.0, faded_pinned);
    s.push(2.0, faded_arf);
    let mut report = ExperimentReport::new("ABL-FADING", "Rate adaptation under fading");
    report
        .claim(
            "fading hurts a pinned rate",
            faded_pinned < flat_pinned * 0.8,
        )
        .claim(
            "ARF recovers throughput by riding the fades",
            faded_arf > faded_pinned * 1.1,
        );
    (fig, report)
}

/// ENERGY-2.1 — the "low power demands" positioning of §2.1: average
/// draw and battery life per technology for a duty-cycled sensor.
pub fn energy_budget() -> (Figure, ExperimentReport) {
    use crate::energy::*;
    let work = TelemetryWorkload::sensor();
    let coin = 1860.0; // CR2450 coin cell, mWh.
    let mut fig = Figure::new(
        "§2.1 — sensor energy budget (32 B / 60 s)",
        "technology (0=ZigBee,1=Bluetooth,2=Wi-Fi)",
        "value",
    );
    let mut rows = Vec::new();
    for (x, tech) in [
        (0.0, Technology::Zigbee),
        (1.0, Technology::Bluetooth),
        (2.0, Technology::WiFi(PhyStandard::Dot11b)),
    ] {
        let p = PowerProfile::for_technology(tech).expect("node technology");
        let avg = average_power_mw(&p, &work);
        let days = battery_life_days(&p, &work, coin);
        rows.push((tech, avg, days));
        let _ = x;
    }
    let avg_series = fig.add_series("avg mW");
    for (i, &(_, avg, _)) in rows.iter().enumerate() {
        avg_series.push(i as f64, avg);
    }
    let life = fig.add_series("coin-cell days");
    for (i, &(_, _, days)) in rows.iter().enumerate() {
        life.push(i as f64, days);
    }
    let mut report = ExperimentReport::new("ENERGY-2.1", "WPAN low-power positioning");
    report
        .claim(
            "ZigBee sensor lasts years on a coin cell",
            rows[0].2 > 730.0,
        )
        .claim(
            "power ordering ZigBee < Bluetooth < Wi-Fi",
            rows[0].1 < rows[1].1 && rows[1].1 < rows[2].1,
        )
        .claim(
            "Wi-Fi costs at least 10x ZigBee for the same telemetry",
            rows[2].1 > rows[0].1 * 10.0,
        );
    (fig, report)
}

/// TAB-8.1 — the full comparison table as an experiment report.
pub fn table_8_1() -> ExperimentReport {
    let mut report = ExperimentReport::new("TAB-8.1", "Comparison of wireless network types");
    for row in crate::registry::comparison_table() {
        report.compare(
            format!("{} max rate [Mbps]", row.name),
            row.paper_max_rate.mbps(),
            row.measured_max_rate.mbps(),
            1.0,
        );
    }
    report
}

// ---------------------------------------------------------------------
// SCALE-DCF — DCF saturation at scale (10 → 1000 stations)
//
// The 802.11 literature this repo tracks centres on how DCF throughput
// collapses as contention grows; no figure of the source text pushes
// past a handful of stations, so this experiment family extends the
// reproduction to a BSS of up to 1000 saturated senders. It doubles as
// the dense-timer workload the timer wheel is benchmarked on and held
// to the reference heap's pop order on (perfbench's scale-dcf
// workload, `tests/determinism.rs`, DESIGN.md §12).
// ---------------------------------------------------------------------

/// Payload bytes per MSDU in the SCALE-DCF workload.
pub const SCALE_DCF_PAYLOAD: usize = 400;

/// One sweep point of the SCALE-DCF saturation workload.
#[derive(Clone, Debug)]
pub struct ScaleDcfPoint {
    /// Contending senders (the sink is an extra station).
    pub stations: usize,
    /// Virtual milliseconds simulated.
    pub duration_ms: u64,
    /// Mean per-sender delivered goodput \[kbps\].
    pub per_station_kbps: f64,
    /// Aggregate delivered goodput \[Mbps\].
    pub aggregate_mbps: f64,
    /// Jain fairness index over per-sender completion counts.
    pub jain_fairness: f64,
    /// Median access delay \[µs\].
    pub access_delay_p50_us: u64,
    /// 99th-percentile access delay \[µs\].
    pub access_delay_p99_us: u64,
    /// True when every sender still holds an unserved backlog at the
    /// horizon — the run was saturated end to end.
    pub saturated: bool,
    /// Events the engine delivered.
    pub events: u64,
    /// FNV-1a of the metrics snapshot JSONL — the fingerprint the
    /// equivalence checks compare across runs.
    pub metrics_fnv: u64,
    /// Reception decisions settled by the SINR bound vs evaluated
    /// through the PER model.
    pub per_decisions: PerDecisions,
}

/// Builds the saturated-BSS simulation behind every SCALE-DCF point:
/// `stations` senders on an 8 m ring around a sink, pure DCF (no RTS,
/// no ARF, fixed top rate), offered ≈ 1.25× channel capacity as one
/// periodic source per sender ([`add_source`]) spread over the first
/// 90% of the horizon. Each source keeps one arrival pending, so the
/// run starts with one timer per sender, not one per offered MSDU;
/// the backoff, NAV and response timers of 1000 contenders keep the
/// wheel busy. `_kind` is ignored: the timer wheel is the only queue,
/// and the parameter stays for the benchmark package.
pub fn scale_dcf_sim(
    stations: usize,
    duration_ms: u64,
    seed: u64,
    _kind: SchedulerKind,
) -> Simulation<WlanWorld> {
    let (world, frames_per_sender) = scale_dcf_world(stations, duration_ms, seed);
    let mut sim = Simulation::new(world);
    scale_dcf_load(&mut sim, stations, duration_ms, frames_per_sender);
    sim
}

/// Builds the SCALE-DCF world; returns it plus the per-sender backlog.
fn scale_dcf_world(stations: usize, duration_ms: u64, seed: u64) -> (WlanWorld, u64) {
    assert!(stations >= 1, "need at least one sender");
    // Offered load ≈ 1.25× the collision-free channel capacity plus a
    // fixed floor, so every queue stays backlogged to the horizon even
    // for the luckiest sender.
    let frames_per_sender = duration_ms * 1_000 / (120 * stations as u64) + 64;

    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = seed;
    // Fixed top rate: the collapse measured is pure contention, not
    // rate drift.
    cfg.arf = false;
    // Saturated but lossless at enqueue: the whole backlog fits.
    cfg.queue_limit = frames_per_sender as usize;

    let mut w = WlanWorld::new(cfg);
    // Sink at the centre, senders on a ring: a single collision domain
    // where everyone hears everyone.
    w.add_stations(
        stations + 1,
        |i| {
            if i == 0 {
                Point::new(0.0, 0.0)
            } else {
                let a = i as f64 / stations as f64 * std::f64::consts::TAU;
                Point::new(8.0 * a.cos(), 8.0 * a.sin())
            }
        },
        |_| Box::new(NullUpper),
    );
    (w, frames_per_sender)
}

/// Boots the world and adds the offered backlog as one source per
/// sender, interleaved round-robin across senders at a fixed stride.
fn scale_dcf_load(
    sim: &mut Simulation<WlanWorld>,
    stations: usize,
    duration_ms: u64,
    frames_per_sender: u64,
) {
    boot(sim);
    let body = filler(SCALE_DCF_PAYLOAD);
    let total_frames = frames_per_sender * stations as u64;
    let stride_ns = duration_ms * 900_000 / total_frames;
    // Sender i's arrivals are slots k·stations + (i − 1) of the stride.
    for i in 1..=stations {
        add_source(
            sim,
            i,
            AccessCategory::Be,
            data_frame(i as u32, 0, &body),
            SimTime::from_nanos((i as u64 - 1) * stride_ns),
            SimDuration::from_nanos(stations as u64 * stride_ns),
            frames_per_sender,
        );
    }
}

/// Records the exact scheduler op stream (pushed keys + pop markers) a
/// SCALE-DCF point generates, for replaying the queue in isolation —
/// see [`wn_sim::replay_ops`]. Recording starts before boot, so every
/// pop in the stream has a matching recorded push.
pub fn scale_dcf_op_log(stations: usize, duration_ms: u64, seed: u64) -> Vec<u128> {
    let (world, frames_per_sender) = scale_dcf_world(stations, duration_ms, seed);
    let mut sim = Simulation::new(world);
    sim.scheduler_mut().record_ops();
    scale_dcf_load(&mut sim, stations, duration_ms, frames_per_sender);
    sim.run_until(SimTime::from_millis(duration_ms));
    sim.scheduler_mut().take_op_log()
}

/// Runs one saturated-BSS point and reduces it to throughput,
/// fairness, delay and digest observables.
pub fn scale_dcf_point(stations: usize, duration_ms: u64, seed: u64) -> ScaleDcfPoint {
    let mut sim = scale_dcf_sim(stations, duration_ms, seed, SchedulerKind::TimerWheel);
    let end = SimTime::from_millis(duration_ms);
    sim.run_until(end);

    let events = sim.processed();
    let world = sim.world();
    let snap = world.metrics_snapshot(end);
    let metrics_fnv = wn_sim::stats::fnv1a(snap.to_jsonl("SCALE-DCF").as_bytes());
    let sender_counter = |name: &str| -> Vec<u64> {
        snap.rows
            .iter()
            .filter(|r| {
                r.kind == "counter"
                    && r.key.layer == "mac"
                    && r.key.name == name
                    && r.key.station.is_some_and(|s| s >= 1)
            })
            .map(|r| r.fields.first().map_or(0, |&(_, v)| v as u64))
            .collect()
    };
    let completions = sender_counter("tx_completions");
    debug_assert_eq!(completions.len(), stations);
    // A sender is still saturated at the horizon when its queue holds
    // frames the MAC never got to: queued > completions + failures +
    // drops (the queue-conservation identity).
    let queued = sender_counter("queued");
    let failures = sender_counter("tx_failures");
    let drops = sender_counter("queue_drops");
    let saturated = (0..stations).all(|i| queued[i] > completions[i] + failures[i] + drops[i]);

    let total: u64 = completions.iter().sum();
    let sum_sq: f64 = completions.iter().map(|&c| (c as f64) * (c as f64)).sum();
    let jain_fairness = if total == 0 {
        // An empty run is degenerate, not fair — fail loudly.
        0.0
    } else {
        (total as f64) * (total as f64) / (stations as f64 * sum_sq)
    };
    let duration_s = duration_ms as f64 / 1_000.0;
    let goodput_bits = (total * SCALE_DCF_PAYLOAD as u64 * 8) as f64;
    ScaleDcfPoint {
        stations,
        duration_ms,
        per_station_kbps: goodput_bits / duration_s / stations as f64 / 1_000.0,
        aggregate_mbps: goodput_bits / duration_s / 1e6,
        jain_fairness,
        access_delay_p50_us: world.access_delay_quantile(0.5).unwrap_or(0),
        access_delay_p99_us: world.access_delay_quantile(0.99).unwrap_or(0),
        saturated,
        events,
        metrics_fnv,
        per_decisions: world.per_decisions(),
    }
}

/// The SCALE-DCF sweep: `(stations, duration_ms)` per point.
///
/// Horizons scale with the station count (≈35 ms per station, floored
/// at 560 ms) because DCF's short-term capture unfairness needs a long
/// mixing window before the Jain index converges — the n ≤ 200 points
/// are sized for Jain ≥ 0.95, while the 500/1000-station tail uses a
/// short horizon to measure the collapse itself. Debug builds — where
/// the tier-1 suite re-runs the whole campaign — use a scaled-down
/// sweep with the same shape; release builds (the committed
/// EXPERIMENTS.md and `perfsuite`) run the full 10 → 1000 collapse.
pub fn scale_dcf_sweep() -> Vec<(usize, u64)> {
    if cfg!(debug_assertions) {
        vec![(2, 150), (5, 400), (30, 1700)]
    } else {
        vec![
            (10, 560),
            (50, 3500),
            (100, 3500),
            (200, 7000),
            (500, 700),
            (1000, 700),
        ]
    }
}

/// SCALE-DCF — saturation throughput collapse, as an experiment
/// report.
///
/// Returns the sweep points (for the report table and the benches) and
/// the claims: the collapse shape, monotonicity, Jain fairness under
/// symmetric load, saturation and contention-dominated delay.
pub fn scale_dcf(seed: u64) -> (Vec<ScaleDcfPoint>, ExperimentReport) {
    let points: Vec<ScaleDcfPoint> =
        par_map(scale_dcf_sweep(), |(n, d)| scale_dcf_point(n, d, seed));

    let first = points.first().expect("sweep non-empty");
    let last = points.last().expect("sweep non-empty");
    let mut report = ExperimentReport::new(
        "SCALE-DCF",
        "DCF saturation throughput collapse, 10 → 1000 stations",
    );
    report
        .claim(
            "per-station goodput collapses >=10x from the smallest to the largest BSS",
            last.per_station_kbps * 10.0 < first.per_station_kbps,
        )
        .claim(
            "per-station goodput is monotonically non-increasing in station count",
            points
                .windows(2)
                .all(|w| w[1].per_station_kbps <= w[0].per_station_kbps),
        )
        .claim(
            "Jain fairness >= 0.95 under symmetric saturation (n <= 200)",
            points
                .iter()
                .filter(|p| p.stations <= 200)
                .all(|p| p.jain_fairness >= 0.95),
        )
        .claim(
            "every sender stays backlogged to the horizon at every point",
            points.iter().all(|p| p.saturated),
        )
        .claim(
            "median access delay >= 1 ms everywhere (contention dominates airtime)",
            points.iter().all(|p| p.access_delay_p50_us >= 1_000),
        );
    (points, report)
}

// ---------------------------------------------------------------------
// CITY-DCF — spatially-sharded parallel worlds
//
// A city block grid of saturated BSSes: cells every 200 m on channels
// 1/6/11 (colored so no two co-channel cells are closer than 200·√2 m),
// one sink plus a sender ring per cell. The deployment partitions into
// one interference shard per cell (`WlanWorld::shard_plan` with the
// 250 m co-channel radius), and every point runs each shard as an
// independent job (DESIGN.md §15).
// ---------------------------------------------------------------------

/// Street-grid spacing between neighbouring cell centres \[m\].
pub const CITY_DCF_SPACING_M: f64 = 200.0;

/// Radius of each cell's sender ring around its sink \[m\].
pub const CITY_DCF_RING_M: f64 = 8.0;

/// The classic 2.4 GHz non-overlapping channel plan; cell `(row, col)`
/// takes `CITY_DCF_CHANNELS[(2·row + col) % 3]`, which keeps every
/// co-channel pair of cells at least `√2 ×` the grid spacing apart.
pub const CITY_DCF_CHANNELS: [u8; 3] = [1, 6, 11];

/// Co-channel coupling radius handed to [`WlanWorld::shard_plan`]:
/// beyond 250 m (and inaudibility, which the plan also checks) two
/// same-channel stations are treated as non-interfering.
pub const CITY_DCF_RANGE_M: f64 = 250.0;

/// One CITY-DCF point: the city's shard partition, the composition's
/// digest and the usual saturation observables, reduced cross-BSS.
pub struct CityDcfPoint {
    /// Grid cells (= BSSes).
    pub cells: usize,
    /// Total stations (cells × (senders + 1)).
    pub stations: usize,
    /// Contending senders per cell.
    pub senders_per_cell: usize,
    /// Virtual milliseconds simulated.
    pub duration_ms: u64,
    /// Shards the plan produced (must equal `cells`).
    pub shards: usize,
    /// Mean per-sender delivered goodput \[kbps\].
    pub per_station_kbps: f64,
    /// Aggregate delivered goodput \[Mbps\].
    pub aggregate_mbps: f64,
    /// Jain fairness index over per-BSS completion totals.
    pub jain_cross_bss: f64,
    /// True when every sender city-wide still holds an unserved
    /// backlog at the horizon.
    pub saturated: bool,
    /// Partition-soundness failure on the planning world, if any.
    pub incoherence: Option<String>,
    /// The composition's digest.
    pub report: ShardRunReport,
}

/// The channel of grid cell `cell` in a `cols`-wide grid.
fn city_dcf_channel(cell: usize, cols: usize) -> u8 {
    let (row, col) = (cell / cols, cell % cols);
    CITY_DCF_CHANNELS[(2 * row + col) % 3]
}

/// Position of local station `local` (0 = sink at the cell centre,
/// 1..=senders on the ring) of grid cell `cell`.
fn city_dcf_pos(cell: usize, cols: usize, local: usize, senders: usize) -> Point {
    let (row, col) = (cell / cols, cell % cols);
    let cx = col as f64 * CITY_DCF_SPACING_M;
    let cy = row as f64 * CITY_DCF_SPACING_M;
    if local == 0 {
        Point::new(cx, cy)
    } else {
        let a = local as f64 / senders as f64 * std::f64::consts::TAU;
        Point::new(
            cx + CITY_DCF_RING_M * a.cos(),
            cy + CITY_DCF_RING_M * a.sin(),
        )
    }
}

/// Per-cell offered backlog: ≈1.25× the collision-free capacity plus a
/// floor, like SCALE-DCF but with a smaller floor — a 96-sender cell
/// completes only a handful of frames per sender, and the city stages
/// every frame up front across hundreds of component worlds.
fn city_dcf_frames_per_sender(senders: usize, duration_ms: u64) -> u64 {
    duration_ms * 1_000 / (120 * senders as u64) + 16
}

fn city_dcf_config(seed: u64, senders: usize, duration_ms: u64) -> MacConfig {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = seed;
    cfg.arf = false;
    cfg.queue_limit = city_dcf_frames_per_sender(senders, duration_ms) as usize;
    cfg
}

/// The full-city planning world: every station of every cell, on the
/// cell's channel, no traffic. Global station ids are cell-major —
/// cell `c` owns ids `c·(senders+1) ..= c·(senders+1)+senders`, local
/// id 0 is the sink.
fn city_dcf_planning_world(
    rows: usize,
    cols: usize,
    senders: usize,
    duration_ms: u64,
    seed: u64,
) -> WlanWorld {
    let per_cell = senders + 1;
    let n = rows * cols * per_cell;
    let mut w = WlanWorld::new(city_dcf_config(seed, senders, duration_ms));
    w.add_stations(
        n,
        |g| city_dcf_pos(g / per_cell, cols, g % per_cell, senders),
        |_| Box::new(NullUpper),
    );
    for g in 0..n {
        w.set_channel(g, city_dcf_channel(g / per_cell, cols));
    }
    w
}

/// Builds shard `k` of the city: the member stations (global ids,
/// ascending) at their grid positions on their cell channels, each
/// sender's backlog one periodic source on the SCALE-DCF round-robin
/// stride. Seeded with [`component_seed`] so every shard's RNG stream
/// is independent and reproducible.
fn city_dcf_component(
    members: &[usize],
    k: usize,
    cols: usize,
    senders: usize,
    duration_ms: u64,
    seed: u64,
) -> Simulation<WlanWorld> {
    let per_cell = senders + 1;
    let frames_per_sender = city_dcf_frames_per_sender(senders, duration_ms);
    let mut cfg = city_dcf_config(seed, senders, duration_ms);
    cfg.seed = component_seed(seed, k);
    let mut w = WlanWorld::new(cfg);
    for &g in members {
        w.add_station(
            MacAddr::station(g as u32),
            city_dcf_pos(g / per_cell, cols, g % per_cell, senders),
            Box::new(NullUpper),
        );
    }
    for (local, &g) in members.iter().enumerate() {
        w.set_channel(local, city_dcf_channel(g / per_cell, cols));
    }
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    let body = filler(SCALE_DCF_PAYLOAD);
    let stride_ns = duration_ms * 900_000 / (frames_per_sender * senders as u64);
    for (local, &g) in members.iter().enumerate() {
        let (cell, lid) = (g / per_cell, g % per_cell);
        if lid == 0 {
            continue;
        }
        let sink = (cell * per_cell) as u32;
        add_source(
            &mut sim,
            local,
            AccessCategory::Be,
            data_frame(g as u32, sink, &body),
            SimTime::from_nanos((lid as u64 - 1) * stride_ns),
            SimDuration::from_nanos(senders as u64 * stride_ns),
            frames_per_sender,
        );
    }
    sim
}

/// Runs one CITY-DCF point: plan the partition on the full planning
/// world, run every shard as an independent job on [`worker_count`]
/// workers, and reduce each component's per-sender counters inside its
/// job, before the world is dropped.
pub fn city_dcf_point(
    rows: usize,
    cols: usize,
    senders: usize,
    duration_ms: u64,
    seed: u64,
) -> CityDcfPoint {
    let cells = rows * cols;
    let per_cell = senders + 1;
    let planning = city_dcf_planning_world(rows, cols, senders, duration_ms, seed);
    let plan = planning.shard_plan(SimTime::ZERO, Some(CITY_DCF_RANGE_M));
    let incoherence = planning
        .shard_plan_incoherence(&plan, SimTime::ZERO)
        .map(|i| i.to_string());
    drop(planning);

    let horizon = SimTime::from_millis(duration_ms);
    // Per component: each sender's (cell, completions) and whether
    // every sender still holds an unserved backlog (queue conservation).
    let (report, observed) = run_components_observed(
        plan.shard_count(),
        horizon,
        worker_count(),
        "CITY-DCF",
        |k| city_dcf_component(&plan.shards[k], k, cols, senders, duration_ms, seed),
        |k, world| {
            let mut done = Vec::new();
            let mut saturated = true;
            for (local, &g) in plan.shards[k].iter().enumerate() {
                if g % per_cell == 0 {
                    continue;
                }
                let s = world.stats(local);
                done.push((g / per_cell, s.tx_completions));
                saturated &= s.queued > s.tx_completions + s.tx_failures + s.queue_drops;
            }
            (done, saturated)
        },
    );
    let mut cell_completions = vec![0u64; cells];
    let mut saturated = true;
    for (done, sat) in observed {
        for (cell, n) in done {
            cell_completions[cell] += n;
        }
        saturated &= sat;
    }

    let total: u64 = cell_completions.iter().sum();
    let sum_sq: f64 = cell_completions
        .iter()
        .map(|&c| (c as f64) * (c as f64))
        .sum();
    let jain_cross_bss = if total == 0 {
        0.0
    } else {
        (total as f64) * (total as f64) / (cells as f64 * sum_sq)
    };
    let duration_s = duration_ms as f64 / 1_000.0;
    let goodput_bits = (total * SCALE_DCF_PAYLOAD as u64 * 8) as f64;
    let all_senders = (cells * senders) as f64;
    CityDcfPoint {
        cells,
        stations: cells * per_cell,
        senders_per_cell: senders,
        duration_ms,
        shards: plan.shard_count(),
        per_station_kbps: goodput_bits / duration_s / all_senders / 1_000.0,
        aggregate_mbps: goodput_bits / duration_s / 1e6,
        jain_cross_bss,
        saturated,
        incoherence,
        report,
    }
}

/// Runs the city once on `workers` workers (`None` = one) and returns
/// the digest report, which is the same for any worker count. Each
/// call plans, builds and runs from scratch, so timed calls at
/// different worker counts pay identical set-up cost.
pub fn city_dcf_run(
    rows: usize,
    cols: usize,
    senders: usize,
    duration_ms: u64,
    seed: u64,
    workers: Option<usize>,
) -> ShardRunReport {
    let planning = city_dcf_planning_world(rows, cols, senders, duration_ms, seed);
    let plan = planning.shard_plan(SimTime::ZERO, Some(CITY_DCF_RANGE_M));
    drop(planning);
    run_components(
        plan.shard_count(),
        SimTime::from_millis(duration_ms),
        workers.unwrap_or(1),
        "CITY-DCF",
        |k| city_dcf_component(&plan.shards[k], k, cols, senders, duration_ms, seed),
    )
}

/// The flagship city size `(rows, cols, senders_per_cell,
/// duration_ms)`: 108 BSSes / 10,476 stations in release (the "≥100
/// BSSes, ≥10k stations" contract), a same-shape 6-cell block in debug
/// where the tier-1 suite re-runs the campaign.
pub fn city_dcf_size() -> (usize, usize, usize, u64) {
    if cfg!(debug_assertions) {
        (2, 3, 4, 40)
    } else {
        (9, 12, 96, 60)
    }
}

/// The densification sweep behind the monotone-collapse claim:
/// `senders_per_cell` values run on a reduced grid (same spacing, same
/// coloring) so per-sender goodput collapses with cell population
/// while the partition stays one-shard-per-cell.
pub fn city_dcf_collapse_sweep() -> (usize, usize, Vec<usize>, u64) {
    if cfg!(debug_assertions) {
        (2, 2, vec![2, 4], 30)
    } else {
        (3, 3, vec![8, 32, 96], 60)
    }
}

/// CITY-DCF — the city-scale shard differential plus the cross-BSS
/// fairness and densification-collapse claims, as an experiment
/// report. Returns the collapse sweep points with the flagship city
/// last.
pub fn city_dcf(seed: u64) -> (Vec<CityDcfPoint>, ExperimentReport) {
    let (s_rows, s_cols, sweep, s_dur) = city_dcf_collapse_sweep();
    let mut points: Vec<CityDcfPoint> = sweep
        .iter()
        .map(|&n| city_dcf_point(s_rows, s_cols, n, s_dur, seed))
        .collect();
    let (rows, cols, senders, duration_ms) = city_dcf_size();
    points.push(city_dcf_point(rows, cols, senders, duration_ms, seed));
    let city = points.last().expect("flagship point");

    let mut report = ExperimentReport::new(
        "CITY-DCF",
        "Spatially-sharded city of saturated BSSes on channels 1/6/11",
    );
    report
        .claim(
            "the city partitions into exactly one shard per BSS",
            points.iter().all(|p| p.shards == p.cells),
        )
        .claim(
            "every shard plan validates (no coupled pair straddles shards)",
            points.iter().all(|p| p.incoherence.is_none()),
        )
        .claim(
            "cross-BSS Jain fairness >= 0.95 (symmetric cells, independent streams)",
            points.iter().all(|p| p.jain_cross_bss >= 0.95),
        )
        .claim(
            "per-sender goodput collapses monotonically as cells densify",
            points[..sweep.len()]
                .windows(2)
                .all(|w| w[1].per_station_kbps <= w[0].per_station_kbps),
        )
        .claim(
            "every sender city-wide stays backlogged to the horizon",
            points.iter().all(|p| p.saturated),
        )
        .claim(
            "the flagship city completes under the shard executor",
            city.report.events > 0,
        );
    (points, report)
}

// ---------------------------------------------------------------------
// METRO-DCF — the city swept to metropolitan scale on the grid index
//
// The CITY-DCF street grid, 10k → 100k+ stations. What makes the
// sweep tractable is the spatial hash grid (`wn-mac80211::grid`):
// `shard_plan` unions only 27-cell neighborhoods instead of the O(n²)
// pair scan, the neighbor cache stores sparse grid-keyed rows instead
// of the n×n matrix, and plan re-validation sweeps the same index —
// so construction and planning stay O(n·k) while the event loop stays
// exactly the per-cell component worlds CITY-DCF already runs.
// ---------------------------------------------------------------------

/// Largest deployment whose planning world also primes the sparse
/// neighbor cache for the build-time/storage observables. Beyond this
/// the rows (n·k entries) stop being an interesting measurement and
/// start being a memory bill; planning itself never needs them.
const METRO_DCF_BUILD_CAP: usize = 20_000;

/// One METRO-DCF point: the metro's grid-backed shard partition, the
/// planning/build wall-clock observables, and the composition's digest.
pub struct MetroDcfPoint {
    /// Grid cells (= BSSes).
    pub cells: usize,
    /// Total stations (cells × (senders + 1)).
    pub stations: usize,
    /// Contending senders per cell.
    pub senders_per_cell: usize,
    /// Virtual milliseconds simulated.
    pub duration_ms: u64,
    /// Shards the plan produced (must equal `cells`).
    pub shards: usize,
    /// Wall-clock of the grid-backed `shard_plan` on the full
    /// planning world \[ms\].
    pub plan_ms: f64,
    /// Wall-clock of the sparse neighbor-cache build on the planning
    /// world \[ms\]; `None` above `METRO_DCF_BUILD_CAP`.
    pub build_ms: Option<f64>,
    /// Pair entries the sparse rows stored (dense would be n·(n−1));
    /// `None` above the build cap.
    pub stored_entries: Option<usize>,
    /// Partition-soundness failure on the planning world, if any.
    pub incoherence: Option<String>,
    /// The composition's digest.
    pub report: ShardRunReport,
}

impl MetroDcfPoint {
    /// Dense-matrix pair count the sparse rows are measured against.
    pub fn dense_entries(&self) -> usize {
        self.stations * (self.stations - 1)
    }
}

/// The full-metro planning world — `city_dcf_planning_world`'s
/// street grid at metro sweep sizes, public so the reference-planner
/// test in `tests/metro_dcf.rs`, perfbench's metro workload and the
/// fuzz planning-equality leg construct the exact deployment the
/// experiment plans.
pub fn metro_dcf_planning_world(
    rows: usize,
    cols: usize,
    senders: usize,
    duration_ms: u64,
    seed: u64,
) -> WlanWorld {
    city_dcf_planning_world(rows, cols, senders, duration_ms, seed)
}

/// The metro sweep `(rows, cols, senders_per_cell, duration_ms)`:
/// 10,476 → 32,980 → 102,238 stations in release (the "100k+
/// stations" contract, on short horizons), same-shape small grids in
/// debug where the tier-1 suite re-runs the campaign.
pub fn metro_dcf_sweep() -> Vec<(usize, usize, usize, u64)> {
    if cfg!(debug_assertions) {
        vec![(2, 2, 3, 20), (3, 3, 3, 20)]
    } else {
        vec![(9, 12, 96, 15), (17, 20, 96, 15), (31, 34, 96, 15)]
    }
}

/// Runs one METRO-DCF point: time the grid-backed plan (and, under
/// the build cap, the sparse neighbor-cache build) on the full
/// planning world, validate the partition, then run every shard as an
/// independent job on [`worker_count`] workers.
pub fn metro_dcf_point(
    rows: usize,
    cols: usize,
    senders: usize,
    duration_ms: u64,
    seed: u64,
) -> MetroDcfPoint {
    let cells = rows * cols;
    let per_cell = senders + 1;
    let n = cells * per_cell;
    let mut planning = metro_dcf_planning_world(rows, cols, senders, duration_ms, seed);

    let (build_ms, stored_entries) = if n <= METRO_DCF_BUILD_CAP {
        let t0 = std::time::Instant::now();
        planning.prime_neighbor_cache(SimTime::ZERO);
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let stored = planning
            .neighbor_cache_stats()
            .filter(|&(sparse, _)| sparse)
            .map(|(_, entries)| entries);
        (Some(build_ms), stored)
    } else {
        (None, None)
    };

    let t0 = std::time::Instant::now();
    let plan = planning.shard_plan(SimTime::ZERO, Some(CITY_DCF_RANGE_M));
    let plan_ms = t0.elapsed().as_secs_f64() * 1e3;
    let incoherence = planning
        .shard_plan_incoherence(&plan, SimTime::ZERO)
        .map(|i| i.to_string());
    drop(planning);

    let report = run_components(
        plan.shard_count(),
        SimTime::from_millis(duration_ms),
        worker_count(),
        "METRO-DCF",
        |k| city_dcf_component(&plan.shards[k], k, cols, senders, duration_ms, seed),
    );

    MetroDcfPoint {
        cells,
        stations: n,
        senders_per_cell: senders,
        duration_ms,
        shards: plan.shard_count(),
        plan_ms,
        build_ms,
        stored_entries,
        incoherence,
        report,
    }
}

/// METRO-DCF — the grid-indexed metro sweep as an experiment report.
pub fn metro_dcf(seed: u64) -> (Vec<MetroDcfPoint>, ExperimentReport) {
    let points: Vec<MetroDcfPoint> = metro_dcf_sweep()
        .into_iter()
        .map(|(rows, cols, senders, dur)| metro_dcf_point(rows, cols, senders, dur, seed))
        .collect();
    let flagship = points.last().expect("non-empty sweep");

    // The scale contract: 100k+ stations in release; in debug the
    // tier-1 suite runs the same shapes shrunk, so the bar shrinks
    // with them.
    let scale_floor = if cfg!(debug_assertions) { 36 } else { 100_000 };
    // The storage contract on the last point under the build cap:
    // release demands the sparse rows beat the dense matrix 10×; the
    // shrunk debug grids only reach strict improvement (their corner
    // cells are barely out of reach of each other).
    let sparsity_ok = match points
        .iter()
        .rev()
        .find_map(|p| p.stored_entries.map(|s| (s, p.dense_entries())))
    {
        Some((stored, dense)) => {
            if cfg!(debug_assertions) {
                stored < dense
            } else {
                stored.saturating_mul(10) <= dense
            }
        }
        None => false,
    };

    let mut report = ExperimentReport::new(
        "METRO-DCF",
        "Grid-indexed metropolitan street grid, 10k -> 100k+ stations",
    );
    report
        .claim(
            "the metro partitions into exactly one shard per street cell",
            points.iter().all(|p| p.shards == p.cells),
        )
        .claim(
            "every grid-backed shard plan validates against the live world",
            points.iter().all(|p| p.incoherence.is_none()),
        )
        .claim(
            "the sweep reaches metropolitan scale",
            flagship.stations >= scale_floor,
        )
        .claim(
            "sparse grid rows beat the dense neighbor matrix",
            sparsity_ok,
        );
    (points, report)
}

// ---------------------------------------------------------------------
// DENSE-OBSS — EDCA/A-MPDU apartment block
//
// An apartment block of QoS BSSes: APs every 10 m on channels 1/6/11
// (same coloring as CITY-DCF, but here co-channel cells are well
// inside carrier-sense range, so every channel is one overlapping
// contention domain). Each AP saturates a downlink to its own client
// with a fixed per-AC traffic mix through the EDCA queues and A-MPDU
// aggregation; the sweep densifies the block and watches per-AC
// latency quantiles grow while AC_VO stays ahead of AC_BE and airtime
// stays Jain-fair inside each co-channel class.
// ---------------------------------------------------------------------

/// Flat-to-flat spacing between neighbouring APs \[m\].
pub const DENSE_OBSS_SPACING_M: f64 = 10.0;

/// Client offset from its AP \[m\].
pub const DENSE_OBSS_CLIENT_M: f64 = 2.0;

/// Payload bytes per MSDU in the DENSE-OBSS downlink.
pub const DENSE_OBSS_PAYLOAD: usize = 800;

/// Per-AP offered rate in frames per millisecond (≈ 12 Mbps at the
/// 800-B payload): a lone AP is comfortably stable, two co-channel
/// neighbours are near the knee, three or more overload the channel —
/// the regime where per-AC latency growth with density is measurable.
pub const DENSE_OBSS_FRAMES_PER_MS: u64 = 2;

/// Offered traffic mix in percent per access category (VO/VI/BE/BK).
pub const DENSE_OBSS_MIX: [u64; 4] = [15, 15, 40, 30];

/// One DENSE-OBSS sweep point.
pub struct DenseObssPoint {
    /// Grid shape (rows, cols).
    pub grid: (usize, usize),
    /// APs in the block (= BSSes = grid cells).
    pub aps: usize,
    /// Total stations (2 per cell: AP + client).
    pub stations: usize,
    /// Largest co-channel class in the block.
    pub cochannel_max: usize,
    /// Virtual milliseconds simulated.
    pub duration_ms: u64,
    /// Per-AC access-delay p50 \[µs\], indexed by `AccessCategory`.
    pub ac_p50_us: [u64; 4],
    /// Per-AC access-delay p99 \[µs\], indexed by `AccessCategory`.
    pub ac_p99_us: [u64; 4],
    /// Worst Jain index over per-AP airtime within one co-channel
    /// class (classes of one AP are trivially fair and skipped).
    pub jain_airtime_within_class: f64,
    /// MSDUs offered block-wide.
    pub offered: u64,
    /// MSDUs delivered block-wide.
    pub completed: u64,
    /// Aggregate delivered goodput \[Mbps\].
    pub aggregate_mbps: f64,
}

impl DenseObssPoint {
    /// Delivered fraction of the offered backlog.
    pub fn delivered_frac(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.completed as f64 / self.offered as f64
        }
    }
}

/// The channel of grid cell `cell` — CITY-DCF's coloring, reused so
/// the two families stay comparable.
fn dense_obss_channel(cell: usize, cols: usize) -> u8 {
    city_dcf_channel(cell, cols)
}

/// Builds the apartment block and adds every AP's per-AC downlink
/// backlog as one periodic source, spread over 90 % of the horizon with
/// a per-AP/per-AC phase so arrivals never synchronise block-wide.
fn dense_obss_sim(
    rows: usize,
    cols: usize,
    duration_ms: u64,
    seed: u64,
    mix: [u64; 4],
    ampdu_max_mpdus: usize,
) -> Simulation<WlanWorld> {
    let cells = rows * cols;
    let counts = {
        let total = DENSE_OBSS_FRAMES_PER_MS * duration_ms;
        mix.map(|pct| (total * pct / 100).max(1))
    };
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = seed;
    cfg.arf = false;
    cfg.edca = true;
    cfg.ampdu_max_mpdus = ampdu_max_mpdus;
    cfg.queue_limit = counts.iter().sum::<u64>() as usize + 4;
    let mut w = WlanWorld::new(cfg);
    for cell in 0..cells {
        let (row, col) = (cell / cols, cell % cols);
        let cx = col as f64 * DENSE_OBSS_SPACING_M;
        let cy = row as f64 * DENSE_OBSS_SPACING_M;
        let ap = w.add_station(
            MacAddr::station(2 * cell as u32),
            Point::new(cx, cy),
            Box::new(NullUpper),
        );
        let client = w.add_station(
            MacAddr::station(2 * cell as u32 + 1),
            Point::new(cx + DENSE_OBSS_CLIENT_M, cy),
            Box::new(NullUpper),
        );
        let ch = dense_obss_channel(cell, cols);
        w.set_channel(ap, ch);
        w.set_channel(client, ch);
    }
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    let body = filler(DENSE_OBSS_PAYLOAD);
    let horizon_ns = duration_ms * 900_000; // inject over 90 %
    for cell in 0..cells {
        let ap = 2 * cell;
        for (aci, &n) in counts.iter().enumerate() {
            let ac = AccessCategory::from_index(aci).expect("4 ACs");
            let stride = horizon_ns / n;
            let phase = (cell as u64 * 131 + aci as u64 * 37) * 1_000;
            add_source(
                &mut sim,
                ap,
                ac,
                data_frame(2 * cell as u32, 2 * cell as u32 + 1, &body),
                SimTime::from_nanos(phase % stride.max(1)),
                SimDuration::from_nanos(stride),
                n,
            );
        }
    }
    sim
}

/// Runs one DENSE-OBSS point and reduces the per-AC and per-class
/// observables.
pub fn dense_obss_point(
    rows: usize,
    cols: usize,
    duration_ms: u64,
    seed: u64,
    mix: [u64; 4],
) -> DenseObssPoint {
    dense_obss_point_opts(rows, cols, duration_ms, seed, mix, 16)
}

/// [`dense_obss_point`] with the A-MPDU aggregation cap exposed —
/// `ampdu_max_mpdus = 1` degenerates to one MPDU per TXOP (aggregation
/// effectively off), which `tests/dense_obss.rs` and perfbench's
/// `ampdu.goodput_gain` race against the default cap on the same
/// saturated block.
pub fn dense_obss_point_opts(
    rows: usize,
    cols: usize,
    duration_ms: u64,
    seed: u64,
    mix: [u64; 4],
    ampdu_max_mpdus: usize,
) -> DenseObssPoint {
    let cells = rows * cols;
    let mut sim = dense_obss_sim(rows, cols, duration_ms, seed, mix, ampdu_max_mpdus);
    sim.run_until(SimTime::from_millis(duration_ms));
    let w = sim.world();

    let mut ac_p50_us = [0u64; 4];
    let mut ac_p99_us = [0u64; 4];
    for ac in AccessCategory::ALL {
        ac_p50_us[ac.index()] = w.ac_delay_quantile(ac, 0.5).unwrap_or(0);
        ac_p99_us[ac.index()] = w.ac_delay_quantile(ac, 0.99).unwrap_or(0);
    }

    // Airtime fairness inside each co-channel class of APs.
    let mut class_airtimes: std::collections::BTreeMap<u8, Vec<f64>> = Default::default();
    for cell in 0..cells {
        class_airtimes
            .entry(dense_obss_channel(cell, cols))
            .or_default()
            .push(w.station_airtime_us(2 * cell) as f64);
    }
    let mut jain_min = 1.0f64;
    for xs in class_airtimes.values().filter(|xs| xs.len() > 1) {
        let sum: f64 = xs.iter().sum();
        let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
        if sum_sq > 0.0 {
            jain_min = jain_min.min(sum * sum / (xs.len() as f64 * sum_sq));
        } else {
            jain_min = 0.0;
        }
    }
    let cochannel_max = class_airtimes.values().map(Vec::len).max().unwrap_or(0);

    let counts = {
        let total = DENSE_OBSS_FRAMES_PER_MS * duration_ms;
        mix.map(|pct| (total * pct / 100).max(1))
    };
    let offered = counts.iter().sum::<u64>() * cells as u64;
    let completed: u64 = (0..cells).map(|c| w.stats(2 * c).tx_completions).sum();
    let duration_s = duration_ms as f64 / 1_000.0;
    DenseObssPoint {
        grid: (rows, cols),
        aps: cells,
        stations: 2 * cells,
        cochannel_max,
        duration_ms,
        ac_p50_us,
        ac_p99_us,
        jain_airtime_within_class: jain_min,
        offered,
        completed,
        aggregate_mbps: (completed * DENSE_OBSS_PAYLOAD as u64 * 8) as f64 / duration_s / 1e6,
    }
}

/// The density sweep `(rows, cols)` list and horizon: up to a 25-AP
/// block in release ("tens of APs"), a 2-point miniature in debug
/// where tier-1 re-runs the campaign.
pub fn dense_obss_sweep() -> (Vec<(usize, usize)>, u64) {
    if cfg!(debug_assertions) {
        (vec![(2, 2), (3, 3)], 40)
    } else {
        (vec![(2, 2), (3, 3), (4, 4), (5, 5)], 120)
    }
}

/// DENSE-OBSS — the EDCA/A-MPDU densification sweep as an experiment
/// report. Returns the density sweep on the balanced mix, then the
/// flagship grid re-run on a data-heavy mix (the traffic-class-mix
/// axis) as the last point.
pub fn dense_obss(seed: u64) -> (Vec<DenseObssPoint>, ExperimentReport) {
    let (sweep, duration_ms) = dense_obss_sweep();
    let mut points: Vec<DenseObssPoint> = sweep
        .iter()
        .map(|&(r, c)| dense_obss_point(r, c, duration_ms, seed, DENSE_OBSS_MIX))
        .collect();
    let &(fr, fc) = sweep.last().expect("non-empty sweep");
    points.push(dense_obss_point(fr, fc, duration_ms, seed, [5, 10, 55, 30]));
    let sweep_pts = &points[..sweep.len()];

    const VO: usize = 0;
    const BE: usize = 2;
    let mut report = ExperimentReport::new(
        "DENSE-OBSS",
        "EDCA/A-MPDU apartment block on channels 1/6/11",
    );
    report
        .claim(
            "per-AC p50 access delay grows with AP density (every AC)",
            sweep_pts.windows(2).all(|w| {
                (0..4).all(|ac| w[1].ac_p50_us[ac] as f64 >= w[0].ac_p50_us[ac] as f64 * 0.95)
            }),
        )
        .claim(
            "AC_VO p99 stays below AC_BE p99 at every density and mix",
            points.iter().all(|p| p.ac_p99_us[VO] < p.ac_p99_us[BE]),
        )
        .claim(
            "airtime Jain >= 0.9 within every co-channel class",
            points.iter().all(|p| p.jain_airtime_within_class >= 0.9),
        )
        .claim(
            "the sparsest block delivers >= 90% of its offered load",
            sweep_pts[0].delivered_frac() >= 0.9,
        )
        .claim(
            "the densest block is overloaded (delivery strictly below offered)",
            sweep_pts.last().expect("non-empty").completed
                < sweep_pts.last().expect("non-empty").offered,
        )
        .claim(
            "every point delivers traffic on all four ACs",
            points.iter().all(|p| p.ac_p99_us.iter().all(|&q| q > 0)),
        );
    (points, report)
}

// ---------------------------------------------------------------------
// Observability exports
//
// One compact, fully deterministic instrumented run per protocol layer.
// Each returns `(trace_jsonl, metrics_jsonl)` tagged with the
// experiment id; the campaign runner concatenates them in registry
// order for `report --trace-json` / `--metrics-json`.
// ---------------------------------------------------------------------

/// FIG-1.6 observability: a short 802.11g saturation run (3 senders,
/// one sink, RTS on so the Rts/Cts exchange shows up in the trace).
pub fn observe_fig_1_6(seed: u64) -> (String, String) {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = seed;
    cfg.rts_threshold = 500;
    let mut w = WlanWorld::new(cfg);
    w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(NullUpper),
    );
    for i in 1..=3usize {
        let a = i as f64 / 3.0 * std::f64::consts::TAU;
        w.add_station(
            MacAddr::station(i as u32),
            Point::new(8.0 * a.cos(), 8.0 * a.sin()),
            Box::new(NullUpper),
        );
    }
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    let body = filler(1000);
    for i in 1..=3usize {
        add_source(
            &mut sim,
            i,
            AccessCategory::Be,
            data_frame(i as u32, 0, &body),
            SimTime::ZERO,
            SimDuration::from_micros(2_000),
            40,
        );
    }
    let end = SimTime::from_millis(200);
    sim.run_until(end);
    (
        sim.world().trace.to_jsonl("FIG-1.6"),
        sim.world().metrics_snapshot(end).to_jsonl("FIG-1.6"),
    )
}

/// FIG-1.10 observability: a compressed ESS roam (walker crosses two
/// cells) plus a power-save STA, so Assoc/Handoff/PowerSave events all
/// appear alongside the MAC-level trace.
pub fn observe_fig_1_10(seed: u64) -> (String, String) {
    use wn_net80211::sta::StaConfig;
    let ssid = Ssid::new("Obs110").expect("valid ssid");
    let mut mac = MacConfig::new(PhyStandard::Dot11g);
    mac.seed = seed;
    let mut ps = StaConfig::open(ssid.clone(), vec![1, 6]);
    ps.power_save = true;
    let mut ess = EssBuilder::new(mac, ssid)
        .ap(Point::new(0.0, 0.0), 1)
        .ap(Point::new(170.0, 0.0), 6)
        .sta(Point::new(10.0, 0.0)) // The walker.
        .sta_with(Point::new(5.0, 5.0), ps) // The dozer.
        .build();
    // Keep the export compact: Info+ records only (assoc, handoff,
    // drops); the Debug-level per-frame firehose stays internal.
    ess.sim
        .world_mut()
        .trace
        .set_min_level(wn_sim::trace::Level::Info);
    ess.sim.run_until(SimTime::from_secs(2));
    let walker = ess.sta_ids[0];
    schedule_walk(
        &mut ess.sim,
        walker,
        Point::new(10.0, 0.0),
        Point::new(160.0, 0.0),
        6.0,
        SimDuration::from_millis(200),
        SimTime::from_secs(2),
    );
    let end = SimTime::from_secs(32);
    ess.sim.run_until(end);
    (
        ess.sim.world().trace.to_jsonl("FIG-1.10"),
        ess.sim.world().metrics_snapshot(end).to_jsonl("FIG-1.10"),
    )
}

/// FIG-1.2 observability: one piconet (master + 3 slaves) polled for a
/// second — Join events at setup, Poll events per TDD exchange.
pub fn observe_fig_1_2() -> (String, String) {
    use wn_wpan::bluetooth::{boot as bt_boot, BtNetwork, DeviceClass};
    let mut net = BtNetwork::new();
    let m = net.add_device(Point::new(0.0, 0.0), DeviceClass::Class2);
    let p = net.form_piconet(m).expect("fresh master");
    for i in 0..3 {
        let s = net.add_device(Point::new(1.0, i as f64), DeviceClass::Class2);
        net.join(p, s).expect("in range");
        net.send(m, s, 100_000);
    }
    let mut sim = Simulation::new(net);
    bt_boot(&mut sim);
    let end = SimTime::from_secs(1);
    sim.run_until(end);
    (
        sim.world().trace.to_jsonl("FIG-1.2"),
        sim.world().metrics_snapshot(end).to_jsonl("FIG-1.2"),
    )
}

/// FIG-1.4 observability: a small ZigBee cluster tree — Join events
/// for every parent link, then Forward/Deliver hops leaf-to-leaf.
pub fn observe_fig_1_4(seed: u64) -> (String, String) {
    use wn_wpan::zigbee::{NodeRole, Topology, ZigbeeEvent, ZigbeeNetwork};
    let mut net = ZigbeeNetwork::new(Topology::ClusterTree, seed);
    let coord = net
        .add_node(Point::new(0.0, 0.0), NodeRole::Ffd)
        .expect("coordinator");
    let mut leaves = Vec::new();
    for i in 0..2 {
        let router = net
            .add_node(Point::new(8.0, i as f64 * 8.0 - 4.0), NodeRole::Ffd)
            .expect("router");
        net.set_parent(router, coord).expect("ffd parent");
        let leaf = net
            .add_node(Point::new(15.0, i as f64 * 8.0 - 4.0), NodeRole::Rfd)
            .expect("leaf");
        net.set_parent(leaf, router).expect("ffd parent");
        leaves.push(leaf);
    }
    let mut sim = Simulation::new(net);
    for k in 0..10u64 {
        sim.scheduler_mut().schedule_at(
            SimTime::from_millis(k * 50),
            ZigbeeEvent::Send {
                src: leaves[0],
                dst: leaves[1],
                bytes: 60,
            },
        );
    }
    let end = SimTime::from_secs(2);
    sim.run_until(end);
    (
        sim.world().trace.to_jsonl("FIG-1.4"),
        sim.world().metrics_snapshot(end).to_jsonl("FIG-1.4"),
    )
}

/// FIG-1.7 observability: a WiMAX base station granting three service
/// classes over 100 frames — Grant events per scheduled burst.
pub fn observe_fig_1_7() -> (String, String) {
    use wn_wman::link::WimaxLink;
    use wn_wman::scheduler::{boot as wimax_boot, BaseStation, ServiceClass, WimaxEvent};
    let mut bs = BaseStation::new(WimaxLink::default());
    let ugs = bs
        .add_subscriber(2_000.0, false, ServiceClass::Ugs, 2e6)
        .expect("in range");
    let rtps = bs
        .add_subscriber(8_000.0, false, ServiceClass::Rtps, 1e6)
        .expect("in range");
    let be = bs
        .add_subscriber(15_000.0, false, ServiceClass::BestEffort, 0.0)
        .expect("in range");
    let mut sim = Simulation::new(bs);
    wimax_boot(&mut sim);
    for t in 0..5u64 {
        for &ss in &[ugs, rtps, be] {
            sim.scheduler_mut().schedule_at(
                SimTime::from_millis(t * 100),
                WimaxEvent::Offer { ss, bytes: 200_000 },
            );
        }
        sim.scheduler_mut().schedule_at(
            SimTime::from_millis(t * 100),
            WimaxEvent::OfferUplink {
                ss: rtps,
                bytes: 50_000,
            },
        );
    }
    let end = SimTime::from_millis(500);
    sim.run_until(end);
    (
        sim.world().trace.to_jsonl("FIG-1.7"),
        sim.world().metrics_snapshot(end).to_jsonl("FIG-1.7"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A builder's frames share its one payload instead of each owning
    /// a copy of the filler bytes.
    #[test]
    fn frames_from_one_builder_share_its_payload() {
        let body = filler(DENSE_OBSS_PAYLOAD);
        let a = data_frame(0, 1, &body);
        let b = data_frame(2, 3, &body);
        assert_eq!(a.body.as_ptr(), b.body.as_ptr());
        assert_eq!(a.body, vec![0xDA; DENSE_OBSS_PAYLOAD]);
    }

    #[test]
    fn classification_has_all_13_technologies() {
        let fig = fig_1_1_classification();
        assert_eq!(fig.series.len(), 13);
    }

    #[test]
    fn bluetooth_figure_passes() {
        let (fig, report) = fig_1_2_bluetooth();
        assert!(report.passed(), "{}", report.to_markdown());
        assert_eq!(fig.series[0].points.len(), 7);
    }

    #[test]
    fn irda_figure_passes() {
        let (_fig, report) = fig_2_irda();
        assert!(report.passed(), "{}", report.to_markdown());
    }

    #[test]
    fn zigbee_figure_passes() {
        let (_fig, report) = fig_1_4_zigbee(3);
        assert!(report.passed(), "{}", report.to_markdown());
    }

    #[test]
    fn uwb_figure_passes() {
        let (_fig, report) = fig_1_5_uwb();
        assert!(report.passed(), "{}", report.to_markdown());
    }

    #[test]
    fn wlan_home_passes() {
        let (_fig, report) = fig_1_6_wlan_home(7);
        assert!(report.passed(), "{}", report.to_markdown());
    }

    #[test]
    fn wimax_passes() {
        let (_fig, report) = fig_1_7_wimax();
        assert!(report.passed(), "{}", report.to_markdown());
    }

    #[test]
    fn wwan_passes() {
        let (_fig, report) = fig_1_8_wwan();
        assert!(report.passed(), "{}", report.to_markdown());
    }

    #[test]
    fn ibss_vs_bss_passes() {
        let (_fig, report) = fig_1_9_ibss_vs_bss(11);
        assert!(report.passed(), "{}", report.to_markdown());
    }

    #[test]
    fn roaming_passes() {
        let (outcome, report) = fig_1_10_ess_roaming(5);
        assert!(report.passed(), "{:?}\n{}", outcome, report.to_markdown());
        assert!(outcome.handoff_gap_s.is_some());
    }

    #[test]
    fn frame_overhead_passes() {
        let (_fig, report) = fig_1_12_frame_overhead();
        assert!(report.passed(), "{}", report.to_markdown());
    }

    #[test]
    fn phy_ladder_passes() {
        let (_fig, report) = fig_1_13_phy_ladder();
        assert!(report.passed(), "{}", report.to_markdown());
    }

    #[test]
    fn security_ranking_passes() {
        let (_fig, report) = sec_ranking();
        assert!(report.passed(), "{}", report.to_markdown());
    }

    #[test]
    fn tradeoffs_pass() {
        let (_fig, report) = adv_tradeoffs(13);
        assert!(report.passed(), "{}", report.to_markdown());
    }

    #[test]
    fn cw_sweep_ablation_passes() {
        let (_fig, report) = ablation_cw_sweep(17);
        assert!(report.passed(), "{}", report.to_markdown());
    }

    #[test]
    fn capture_ablation_passes() {
        let (_fig, report) = ablation_capture(19);
        assert!(report.passed(), "{}", report.to_markdown());
    }

    #[test]
    fn arf_ablation_passes() {
        let (_fig, report) = ablation_arf(23);
        assert!(report.passed(), "{}", report.to_markdown());
    }

    #[test]
    fn energy_budget_passes() {
        let (_fig, report) = energy_budget();
        assert!(report.passed(), "{}", report.to_markdown());
    }

    #[test]
    fn fading_link_passes() {
        let (_fig, report) = fading_link(37);
        assert!(report.passed(), "{}", report.to_markdown());
    }

    #[test]
    fn adjacent_channels_passes() {
        let (_fig, report) = adjacent_channels(29);
        assert!(report.passed(), "{}", report.to_markdown());
    }

    #[test]
    fn table_8_1_passes() {
        let report = table_8_1();
        assert!(report.passed(), "{}", report.to_markdown());
        assert_eq!(report.comparisons.len(), 13);
    }

    #[test]
    fn scale_dcf_passes() {
        let (points, report) = scale_dcf(11);
        for p in &points {
            eprintln!(
                "SCALE-DCF n={:4} dur={}ms per_station={:.1} kbps agg={:.2} Mbps \
                 jain={:.4} p50={}us p99={}us events={} fnv={:016x}",
                p.stations,
                p.duration_ms,
                p.per_station_kbps,
                p.aggregate_mbps,
                p.jain_fairness,
                p.access_delay_p50_us,
                p.access_delay_p99_us,
                p.events,
                p.metrics_fnv
            );
        }
        assert!(report.passed(), "{}", report.to_markdown());
        assert_eq!(points.len(), scale_dcf_sweep().len());
    }

    #[test]
    fn city_dcf_passes() {
        let (points, report) = city_dcf(11);
        for p in &points {
            eprintln!(
                "CITY-DCF cells={:3} stations={:5} senders/cell={:3} shards={:3} \
                 jain={:.4} per_sender={:.1} kbps trace_fnv={:016x}",
                p.cells,
                p.stations,
                p.senders_per_cell,
                p.shards,
                p.jain_cross_bss,
                p.per_station_kbps,
                p.report.trace_fnv,
            );
        }
        assert!(report.passed(), "{}", report.to_markdown());
        assert_eq!(points.len(), city_dcf_collapse_sweep().2.len() + 1);
    }
}
