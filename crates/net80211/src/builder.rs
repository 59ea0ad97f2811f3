//! Scenario builders: infrastructure BSS/ESS and ad hoc IBSS networks
//! (the two §3.2 architectures), plus mobility and traffic helpers.

use std::collections::VecDeque;
use std::sync::Arc;
use std::sync::Mutex;

use crate::ap::{ApConfig, ApLogic, ApSharedHandle};
use crate::ds::{new_ds, DsHandle};
use crate::ssid::Ssid;
use crate::sta::{StaConfig, StaLogic, StaSharedHandle, TAG_APP};
use wn_mac80211::addr::MacAddr;
use wn_mac80211::frame::{DsBits, Frame, SequenceControl};
use wn_mac80211::sim::{MacConfig, MacEvent, StationId, UpperCtx, UpperLayer, WlanWorld};
use wn_phy::geom::Point;
use wn_phy::units::Dbm;
use wn_sim::{SimDuration, SimTime, Simulation};

/// Builds an extended service set: several APs with the same SSID on a
/// wired distribution system (§3.1: the ESS "appears as a single BSS").
pub struct EssBuilder {
    mac: MacConfig,
    ssid: Ssid,
    aps: Vec<(Point, ApConfig)>,
    stas: Vec<(Point, StaConfig)>,
    wire_latency: SimDuration,
}

/// The constructed ESS: world plus handles for observation.
pub struct Ess {
    /// The simulation, booted and ready to run.
    pub sim: Simulation<WlanWorld>,
    /// AP station ids (in declaration order).
    pub ap_ids: Vec<StationId>,
    /// AP observation handles.
    pub ap_shared: Vec<ApSharedHandle>,
    /// STA station ids.
    pub sta_ids: Vec<StationId>,
    /// STA observation handles.
    pub sta_shared: Vec<StaSharedHandle>,
    /// The distribution system.
    pub ds: DsHandle,
}

impl EssBuilder {
    /// Starts a builder for `ssid` with the given MAC configuration.
    pub fn new(mac: MacConfig, ssid: Ssid) -> Self {
        EssBuilder {
            mac,
            ssid,
            aps: Vec::new(),
            stas: Vec::new(),
            wire_latency: SimDuration::from_micros(100),
        }
    }

    /// Adds an AP at `pos` on `channel` with open authentication.
    pub fn ap(mut self, pos: Point, channel: u8) -> Self {
        self.aps
            .push((pos, ApConfig::open(self.ssid.clone(), channel)));
        self
    }

    /// Adds an AP with an explicit configuration (shared-key auth,
    /// custom beacon interval…). The SSID is overridden to the ESS's.
    pub fn ap_with(mut self, pos: Point, mut cfg: ApConfig) -> Self {
        cfg.ssid = self.ssid.clone();
        self.aps.push((pos, cfg));
        self
    }

    /// Adds a STA at `pos` with default open-auth configuration that
    /// scans all AP channels.
    pub fn sta(mut self, pos: Point) -> Self {
        let channels: Vec<u8> = self.aps.iter().map(|(_, c)| c.channel).collect();
        let cfg = StaConfig::open(
            self.ssid.clone(),
            if channels.is_empty() {
                vec![1]
            } else {
                channels
            },
        );
        self.stas.push((pos, cfg));
        self
    }

    /// Adds a STA with an explicit configuration.
    pub fn sta_with(mut self, pos: Point, cfg: StaConfig) -> Self {
        self.stas.push((pos, cfg));
        self
    }

    /// Sets the DS wire latency.
    pub fn wire_latency(mut self, l: SimDuration) -> Self {
        self.wire_latency = l;
        self
    }

    /// Builds and boots the network.
    pub fn build(self) -> Ess {
        let ds = new_ds(self.wire_latency);
        let mut world = WlanWorld::new(self.mac);
        let mut ap_ids = Vec::new();
        let mut ap_shared = Vec::new();
        for (i, (pos, cfg)) in self.aps.into_iter().enumerate() {
            let channel = cfg.channel;
            let (logic, shared) = ApLogic::new(cfg, Some(ds.clone()));
            let id = world.add_station(MacAddr::access_point(i as u32), pos, Box::new(logic));
            world.set_channel(id, channel);
            ap_ids.push(id);
            ap_shared.push(shared);
        }
        let mut sta_ids = Vec::new();
        let mut sta_shared = Vec::new();
        for (i, (pos, cfg)) in self.stas.into_iter().enumerate() {
            let (logic, shared) = StaLogic::new(cfg);
            let id = world.add_station(MacAddr::station(i as u32), pos, Box::new(logic));
            sta_ids.push(id);
            sta_shared.push(shared);
        }
        let mut sim = Simulation::new(world);
        wn_mac80211::sim::boot(&mut sim);
        Ess {
            sim,
            ap_ids,
            ap_shared,
            sta_ids,
            sta_shared,
            ds,
        }
    }
}

/// Queues application data at a STA and nudges its upper layer.
pub fn send_app_data(
    sim: &mut Simulation<WlanWorld>,
    sta: StationId,
    shared: &StaSharedHandle,
    da: MacAddr,
    payload: Vec<u8>,
    at: SimTime,
) {
    shared
        .lock()
        .expect("shared state lock")
        .outgoing
        .push_back((da, payload));
    sim.scheduler_mut().schedule_at(
        at,
        MacEvent::UpperTimer {
            station: sta,
            tag: TAG_APP,
        },
    );
}

/// Schedules a straight-line walk: `SetPosition` events every `step`
/// from `from` to `to` at `speed_mps`.
pub fn schedule_walk(
    sim: &mut Simulation<WlanWorld>,
    station: StationId,
    from: Point,
    to: Point,
    speed_mps: f64,
    step: SimDuration,
    start: SimTime,
) {
    let total = from.distance_to(to);
    if total == 0.0 || speed_mps <= 0.0 {
        return;
    }
    let duration_s = total / speed_mps;
    let steps = (duration_s / step.as_secs_f64()).ceil() as u64;
    for k in 0..=steps {
        let t = (k as f64 / steps as f64).min(1.0);
        let pos = from.lerp(to, t);
        sim.scheduler_mut()
            .schedule_at(start + step * k, MacEvent::SetPosition { station, pos });
    }
}

/// Schedules random-waypoint mobility inside a rectangle: the station
/// repeatedly picks a uniform waypoint and walks there at a uniform
/// speed from `[v_min, v_max]` m/s, until `until`.
///
/// The classic evaluation model for roaming/handoff studies; fully
/// deterministic given `seed`.
#[allow(clippy::too_many_arguments)]
pub fn schedule_random_waypoint(
    sim: &mut Simulation<WlanWorld>,
    station: StationId,
    area_min: Point,
    area_max: Point,
    v_min: f64,
    v_max: f64,
    seed: u64,
    start: SimTime,
    until: SimTime,
) {
    let mut rng = wn_sim::Rng::new(seed ^ 0xB0B0_0000 ^ station as u64);
    let step = SimDuration::from_millis(200);
    let mut t = start;
    let mut pos = sim.world().position(station);
    while t < until {
        let target = Point::new(
            rng.f64_range(area_min.x, area_max.x),
            rng.f64_range(area_min.y, area_max.y),
        );
        let speed = rng.f64_range(v_min, v_max.max(v_min + 1e-9));
        let dist = pos.distance_to(target);
        if dist < 1e-9 {
            continue;
        }
        let leg_s = dist / speed;
        let steps = (leg_s / step.as_secs_f64()).ceil().max(1.0) as u64;
        for k in 1..=steps {
            let at = t + step * k;
            if at >= until {
                break;
            }
            let p = pos.lerp(target, k as f64 / steps as f64);
            sim.scheduler_mut()
                .schedule_at(at, MacEvent::SetPosition { station, pos: p });
        }
        t += step * steps;
        pos = target;
    }
}

// ----- ad hoc mode (§3.2) -----

/// Observable state of an ad hoc node.
#[derive(Debug, Default)]
pub struct IbssNodeShared {
    /// Payloads to send `(destination, data)`.
    pub outgoing: VecDeque<(MacAddr, Vec<u8>)>,
    /// Payloads received `(time, source, data)`.
    pub delivered: Vec<(SimTime, MacAddr, Vec<u8>)>,
    /// MSDUs acknowledged.
    pub tx_ok: u64,
    /// MSDUs dropped.
    pub tx_fail: u64,
}

/// Handle to an ad hoc node's shared state.
pub type IbssShared = Arc<Mutex<IbssNodeShared>>;

/// An ad hoc (IBSS) peer: §3.2 "devices transmit directly peer-to-peer
/// … No access point is required".
pub struct IbssNode {
    bssid: MacAddr,
    shared: IbssShared,
}

impl IbssNode {
    /// Creates a node for the IBSS identified by `bssid`.
    pub fn new(bssid: MacAddr) -> (Self, IbssShared) {
        let shared: IbssShared = Arc::new(Mutex::new(IbssNodeShared::default()));
        (
            IbssNode {
                bssid,
                shared: shared.clone(),
            },
            shared,
        )
    }
}

impl UpperLayer for IbssNode {
    fn on_timer(&mut self, ctx: &mut UpperCtx, tag: u64) {
        if tag == TAG_APP {
            loop {
                let item = self
                    .shared
                    .lock()
                    .expect("shared state lock")
                    .outgoing
                    .pop_front();
                let Some((da, payload)) = item else { break };
                let f = Frame::data(
                    DsBits::Ibss,
                    da,
                    ctx.addr,
                    self.bssid,
                    SequenceControl::default(),
                    payload,
                );
                ctx.send(f);
            }
        }
    }

    fn on_frame(&mut self, ctx: &mut UpperCtx, frame: &Frame, _rssi: Dbm) {
        if frame.fc.subtype == wn_mac80211::frame::Subtype::Data {
            let sa = frame.source().unwrap_or(MacAddr::ZERO);
            self.shared
                .lock()
                .expect("shared state lock")
                .delivered
                .push((ctx.now, sa, frame.body.clone()));
        }
    }

    fn on_tx_result(&mut self, _ctx: &mut UpperCtx, _frame: &Frame, success: bool) {
        let mut sh = self.shared.lock().expect("shared state lock");
        if success {
            sh.tx_ok += 1;
        } else {
            sh.tx_fail += 1;
        }
    }
}

/// Builds an independent BSS of peers at the given positions.
pub struct IbssBuilder {
    mac: MacConfig,
    nodes: Vec<Point>,
}

/// The constructed IBSS.
pub struct Ibss {
    /// The simulation, booted.
    pub sim: Simulation<WlanWorld>,
    /// Node ids.
    pub ids: Vec<StationId>,
    /// Node observation handles.
    pub shared: Vec<IbssShared>,
    /// The generated IBSS BSSID.
    pub bssid: MacAddr,
}

impl IbssBuilder {
    /// Starts an IBSS builder.
    pub fn new(mac: MacConfig) -> Self {
        IbssBuilder {
            mac,
            nodes: Vec::new(),
        }
    }

    /// Adds a peer at `pos`.
    pub fn node(mut self, pos: Point) -> Self {
        self.nodes.push(pos);
        self
    }

    /// Builds and boots the ad hoc network.
    pub fn build(self) -> Ibss {
        let bssid = MacAddr::random_ibss_bssid(self.mac.seed);
        let mut world = WlanWorld::new(self.mac);
        let mut ids = Vec::new();
        let mut shared = Vec::new();
        for (i, &pos) in self.nodes.iter().enumerate() {
            let (node, sh) = IbssNode::new(bssid);
            let id = world.add_station(MacAddr::station(i as u32), pos, Box::new(node));
            ids.push(id);
            shared.push(sh);
        }
        let mut sim = Simulation::new(world);
        wn_mac80211::sim::boot(&mut sim);
        Ibss {
            sim,
            ids,
            shared,
            bssid,
        }
    }
}

/// Queues data at an IBSS node and nudges it.
pub fn ibss_send(
    sim: &mut Simulation<WlanWorld>,
    node: StationId,
    shared: &IbssShared,
    da: MacAddr,
    payload: Vec<u8>,
    at: SimTime,
) {
    shared
        .lock()
        .expect("shared state lock")
        .outgoing
        .push_back((da, payload));
    sim.scheduler_mut().schedule_at(
        at,
        MacEvent::UpperTimer {
            station: node,
            tag: TAG_APP,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sta::StaState;
    use wn_phy::modulation::PhyStandard;

    fn mac(seed: u64) -> MacConfig {
        let mut m = MacConfig::new(PhyStandard::Dot11g);
        m.seed = seed;
        m
    }

    fn ssid() -> Ssid {
        Ssid::new("TestNet").unwrap()
    }

    #[test]
    fn sta_associates_with_ap() {
        let mut ess = EssBuilder::new(mac(1), ssid())
            .ap(Point::new(0.0, 0.0), 6)
            .sta(Point::new(10.0, 0.0))
            .build();
        ess.sim.run_until(SimTime::from_secs(3));
        let sh = ess.sta_shared[0].lock().expect("shared state lock");
        assert_eq!(sh.state, StaState::Associated);
        assert_eq!(sh.bssid, Some(MacAddr::access_point(0)));
        assert_eq!(sh.aid, 1);
        assert!(sh.beacons_heard > 5, "beacons_heard = {}", sh.beacons_heard);
        assert!(ess
            .ds
            .lock()
            .expect("shared state lock")
            .serving_ap(MacAddr::station(0))
            .is_some());
    }

    #[test]
    fn two_stas_exchange_data_through_ap() {
        // Fig. 1.6 in miniature: all traffic relays via the AP.
        let mut ess = EssBuilder::new(mac(2), ssid())
            .ap(Point::new(0.0, 0.0), 1)
            .sta(Point::new(8.0, 0.0))
            .sta(Point::new(-8.0, 0.0))
            .build();
        ess.sim.run_until(SimTime::from_secs(2));
        let dst = MacAddr::station(1);
        for k in 0..5u64 {
            let sta0 = ess.sta_ids[0];
            let sh0 = ess.sta_shared[0].clone();
            send_app_data(
                &mut ess.sim,
                sta0,
                &sh0,
                dst,
                format!("msg-{k}").into_bytes(),
                SimTime::from_millis(2000 + k * 20),
            );
        }
        ess.sim.run_until(SimTime::from_secs(4));
        let got = ess.sta_shared[1].lock().expect("shared state lock");
        assert_eq!(got.delivered.len(), 5);
        assert_eq!(
            got.delivered[0].1,
            MacAddr::station(0),
            "SA preserved through relay"
        );
        assert_eq!(got.delivered[0].2, b"msg-0");
        assert_eq!(
            ess.ap_shared[0]
                .lock()
                .expect("shared state lock")
                .bridged_local,
            5
        );
    }

    #[test]
    fn unknown_destination_exits_portal() {
        let mut ess = EssBuilder::new(mac(3), ssid())
            .ap(Point::new(0.0, 0.0), 1)
            .sta(Point::new(5.0, 0.0))
            .build();
        ess.sim.run_until(SimTime::from_secs(2));
        let wired = MacAddr([0x00, 0xDE, 0xAD, 0xBE, 0xEF, 0x01]);
        let sta0 = ess.sta_ids[0];
        let sh0 = ess.sta_shared[0].clone();
        send_app_data(
            &mut ess.sim,
            sta0,
            &sh0,
            wired,
            b"GET /".to_vec(),
            SimTime::from_secs(2),
        );
        ess.sim.run_until(SimTime::from_secs(3));
        assert_eq!(
            ess.ds
                .lock()
                .expect("shared state lock")
                .portal_frames()
                .len(),
            1
        );
        assert_eq!(
            ess.ds.lock().expect("shared state lock").portal_frames()[0]
                .1
                .payload,
            b"GET /"
        );
    }

    #[test]
    fn cross_ap_delivery_over_ds() {
        // Two APs far apart on different channels; STA0 near AP0, STA1
        // near AP1. Traffic crosses the wired backbone.
        let mut ess = EssBuilder::new(mac(4), ssid())
            .ap(Point::new(0.0, 0.0), 1)
            .ap(Point::new(300.0, 0.0), 6)
            .sta(Point::new(5.0, 0.0))
            .sta(Point::new(295.0, 0.0))
            .build();
        ess.sim.run_until(SimTime::from_secs(3));
        assert_eq!(
            ess.sta_shared[0].lock().expect("shared state lock").state,
            StaState::Associated
        );
        assert_eq!(
            ess.sta_shared[1].lock().expect("shared state lock").state,
            StaState::Associated
        );
        assert_ne!(
            ess.sta_shared[0].lock().expect("shared state lock").bssid,
            ess.sta_shared[1].lock().expect("shared state lock").bssid,
            "each STA should pick its nearby AP"
        );
        let sta0 = ess.sta_ids[0];
        let sh0 = ess.sta_shared[0].clone();
        send_app_data(
            &mut ess.sim,
            sta0,
            &sh0,
            MacAddr::station(1),
            b"across the ESS".to_vec(),
            SimTime::from_secs(3),
        );
        ess.sim.run_until(SimTime::from_secs(5));
        let got = ess.sta_shared[1].lock().expect("shared state lock");
        assert_eq!(got.delivered.len(), 1, "frame must traverse the DS");
        assert_eq!(got.delivered[0].2, b"across the ESS");
        assert_eq!(ess.ap_shared[0].lock().expect("shared state lock").to_ds, 1);
        assert_eq!(
            ess.ap_shared[1].lock().expect("shared state lock").from_ds,
            1
        );
    }

    #[test]
    fn roaming_between_aps_fig_1_10() {
        use wn_sim::trace::{Level, TraceEvent};
        // A STA walks from AP0's cell into AP1's; §3.2 roaming.
        let mut ess = EssBuilder::new(mac(5), ssid())
            .ap(Point::new(0.0, 0.0), 1)
            .ap(Point::new(260.0, 0.0), 6)
            .sta(Point::new(10.0, 0.0))
            .build();
        // Retain only Info+ records so the long walk cannot evict the
        // association history we assert on below.
        ess.sim.world_mut().trace.set_min_level(Level::Info);
        ess.sim.run_until(SimTime::from_secs(2));
        assert_eq!(
            ess.sta_shared[0].lock().expect("shared state lock").bssid,
            Some(MacAddr::access_point(0)),
            "starts on the near AP"
        );
        // Walk to the far AP over ~50 s.
        let sta = ess.sta_ids[0];
        schedule_walk(
            &mut ess.sim,
            sta,
            Point::new(10.0, 0.0),
            Point::new(250.0, 0.0),
            5.0,
            SimDuration::from_millis(200),
            SimTime::from_secs(2),
        );
        ess.sim.run_until(SimTime::from_secs(80));
        let sh = ess.sta_shared[0].lock().expect("shared state lock");
        assert_eq!(
            sh.state,
            StaState::Associated,
            "reassociated after the walk"
        );
        assert_eq!(
            sh.bssid,
            Some(MacAddr::access_point(1)),
            "now on the far AP"
        );
        assert!(
            sh.assoc_events.len() >= 2,
            "assoc history should record the handoff: {:?}",
            sh.assoc_events
        );
        assert_eq!(
            ess.ds
                .lock()
                .expect("shared state lock")
                .serving_ap(MacAddr::station(0)),
            Some(ess.ap_ids[1]),
            "DS association moved to AP1"
        );
        drop(sh);
        // Typed-event ordering: the first association precedes the
        // handoff decision, and the handoff was actually traced.
        let trace = &ess.sim.world().trace;
        assert!(
            trace.count_events(|e| matches!(e, TraceEvent::Handoff { .. })) >= 1,
            "roam decision must emit a Handoff event"
        );
        assert!(trace.happened_before_events(
            |e| matches!(e, TraceEvent::Assoc { .. }),
            |e| matches!(e, TraceEvent::Handoff { .. }),
        ));
    }

    #[test]
    fn ibss_peers_exchange_directly() {
        // Fig. 1.9 left: no AP at all.
        let mut net = IbssBuilder::new(mac(6))
            .node(Point::new(0.0, 0.0))
            .node(Point::new(12.0, 0.0))
            .node(Point::new(6.0, 8.0))
            .build();
        let a = net.ids[0];
        let sh_a = net.shared[0].clone();
        ibss_send(
            &mut net.sim,
            a,
            &sh_a,
            MacAddr::station(1),
            b"peer to peer".to_vec(),
            SimTime::from_millis(10),
        );
        net.sim.run_until(SimTime::from_secs(1));
        let got = net.shared[1].lock().expect("shared state lock");
        assert_eq!(got.delivered.len(), 1);
        assert_eq!(got.delivered[0].1, MacAddr::station(0));
        assert_eq!(net.shared[0].lock().expect("shared state lock").tx_ok, 1);
        // The third node saw nothing (unicast).
        assert!(net.shared[2]
            .lock()
            .expect("shared state lock")
            .delivered
            .is_empty());
    }

    #[test]
    fn ibss_broadcast_reaches_all() {
        let mut net = IbssBuilder::new(mac(7))
            .node(Point::new(0.0, 0.0))
            .node(Point::new(10.0, 0.0))
            .node(Point::new(0.0, 10.0))
            .node(Point::new(10.0, 10.0))
            .build();
        let a = net.ids[0];
        let sh_a = net.shared[0].clone();
        ibss_send(
            &mut net.sim,
            a,
            &sh_a,
            MacAddr::BROADCAST,
            b"hello all".to_vec(),
            SimTime::from_millis(10),
        );
        net.sim.run_until(SimTime::from_secs(1));
        for i in 1..4 {
            assert_eq!(
                net.shared[i]
                    .lock()
                    .expect("shared state lock")
                    .delivered
                    .len(),
                1,
                "node {i}"
            );
        }
    }

    #[test]
    fn power_save_sta_receives_buffered_frames_via_ps_poll() {
        let mut cfg = StaConfig::open(ssid(), vec![1]);
        cfg.power_save = true;
        let mut ess = EssBuilder::new(mac(8), ssid())
            .ap(Point::new(0.0, 0.0), 1)
            .sta(Point::new(5.0, 0.0))
            .sta_with(Point::new(-5.0, 0.0), cfg)
            .build();
        ess.sim.run_until(SimTime::from_secs(3));
        assert_eq!(
            ess.sta_shared[1].lock().expect("shared state lock").state,
            StaState::Associated
        );
        // Give the PS STA time to settle into its doze cycle, then send.
        let sta0 = ess.sta_ids[0];
        let sh0 = ess.sta_shared[0].clone();
        for k in 0..3u64 {
            send_app_data(
                &mut ess.sim,
                sta0,
                &sh0,
                MacAddr::station(1),
                format!("buffered-{k}").into_bytes(),
                SimTime::from_millis(3000 + k * 7),
            );
        }
        ess.sim.run_until(SimTime::from_secs(6));
        let sh = ess.sta_shared[1].lock().expect("shared state lock");
        assert_eq!(sh.delivered.len(), 3, "all buffered frames retrieved");
        assert!(sh.ps_polls >= 1, "PS-Poll was used: {}", sh.ps_polls);
        assert!(sh.dozes >= 2, "the STA dozed between beacons: {}", sh.dozes);
        assert!(
            ess.ap_shared[0]
                .lock()
                .expect("shared state lock")
                .ps_buffered
                >= 1,
            "AP buffered for the dozer"
        );
        drop(sh);
        // The doze/wake cycle is visible as typed PowerSave events.
        use wn_sim::trace::TraceEvent;
        let trace = &ess.sim.world().trace;
        let dozes = trace.count_events(|e| matches!(e, TraceEvent::PowerSave { doze: true, .. }));
        let wakes = trace.count_events(|e| matches!(e, TraceEvent::PowerSave { doze: false, .. }));
        assert!(dozes >= 2, "doze events traced: {dozes}");
        assert!(wakes >= 1, "wake events traced: {wakes}");
    }

    #[test]
    fn shared_key_auth_admits_right_key_and_rejects_wrong() {
        use crate::ap::ApConfig;
        use crate::ie::AuthAlgorithm;

        let build = |sta_key: &[u8]| {
            let mut ap_cfg = ApConfig::open(ssid(), 1);
            ap_cfg.auth = AuthAlgorithm::SharedKey;
            ap_cfg.shared_key = b"wep-shared-secret".to_vec();
            let mut sta_cfg = StaConfig::open(ssid(), vec![1]);
            sta_cfg.auth = AuthAlgorithm::SharedKey;
            sta_cfg.shared_key = sta_key.to_vec();
            EssBuilder::new(mac(31), ssid())
                .ap_with(Point::new(0.0, 0.0), ap_cfg)
                .sta_with(Point::new(8.0, 0.0), sta_cfg)
                .build()
        };
        // Matching key: §5.1 "demonstrating knowledge of a shared
        // secret" succeeds.
        let mut good = build(b"wep-shared-secret");
        good.sim.run_until(SimTime::from_secs(3));
        assert_eq!(
            good.sta_shared[0].lock().expect("shared state lock").state,
            StaState::Associated
        );

        // Wrong key: authentication refused, never associates.
        let mut bad = build(b"wrong-key");
        bad.sim.run_until(SimTime::from_secs(3));
        assert_ne!(
            bad.sta_shared[0].lock().expect("shared state lock").state,
            StaState::Associated
        );

        // Open-auth STA against a shared-key AP is refused too.
        let mut ap_cfg = ApConfig::open(ssid(), 1);
        ap_cfg.auth = AuthAlgorithm::SharedKey;
        ap_cfg.shared_key = b"wep-shared-secret".to_vec();
        let mut open = EssBuilder::new(mac(32), ssid())
            .ap_with(Point::new(0.0, 0.0), ap_cfg)
            .sta(Point::new(8.0, 0.0))
            .build();
        open.sim.run_until(SimTime::from_secs(3));
        assert_ne!(
            open.sta_shared[0].lock().expect("shared state lock").state,
            StaState::Associated
        );
    }

    #[test]
    fn active_scan_beats_passive_under_sparse_beacons() {
        use crate::ap::ApConfig;
        // Beacons only every 900 ms: a 120 ms passive dwell usually
        // misses them, while a probe request gets an immediate answer.
        let build = |active: bool, seed: u64| {
            let mut ap_cfg = ApConfig::open(ssid(), 1);
            ap_cfg.beacon_interval = SimDuration::from_millis(900);
            let mut sta_cfg = StaConfig::open(ssid(), vec![1]);
            sta_cfg.active_scan = active;
            EssBuilder::new(mac(seed), ssid())
                .ap_with(Point::new(0.0, 0.0), ap_cfg)
                .sta_with(Point::new(8.0, 0.0), sta_cfg)
                .build()
        };
        let mut active = build(true, 41);
        active.sim.run_until(SimTime::from_millis(600));
        assert_eq!(
            active.sta_shared[0]
                .lock()
                .expect("shared state lock")
                .state,
            StaState::Associated,
            "active scan should join within one dwell"
        );
        let mut passive = build(false, 41);
        passive.sim.run_until(SimTime::from_millis(600));
        assert_ne!(
            passive.sta_shared[0]
                .lock()
                .expect("shared state lock")
                .state,
            StaState::Associated,
            "passive scan cannot have seen a 900 ms beacon yet"
        );
        // Passive still converges eventually.
        passive.sim.run_until(SimTime::from_secs(30));
        assert_eq!(
            passive.sta_shared[0]
                .lock()
                .expect("shared state lock")
                .state,
            StaState::Associated
        );
    }

    #[test]
    fn many_stations_all_join_one_ap() {
        // Scale: eight stations scan, authenticate and associate on one
        // channel without stepping on each other.
        let mut b = EssBuilder::new(mac(33), ssid()).ap(Point::new(0.0, 0.0), 6);
        for i in 0..8 {
            let a = i as f64 / 8.0 * std::f64::consts::TAU;
            b = b.sta(Point::new(12.0 * a.cos(), 12.0 * a.sin()));
        }
        let mut ess = b.build();
        ess.sim.run_until(SimTime::from_secs(4));
        let mut aids = Vec::new();
        for sh in &ess.sta_shared {
            let sh = sh.lock().expect("shared state lock");
            assert_eq!(sh.state, StaState::Associated);
            aids.push(sh.aid);
        }
        aids.sort_unstable();
        aids.dedup();
        assert_eq!(aids.len(), 8, "every STA got a distinct AID");
        assert_eq!(ess.ds.lock().expect("shared state lock").station_count(), 8);
    }

    #[test]
    fn random_waypoint_keeps_station_in_area_and_roaming_works() {
        let mut ess = EssBuilder::new(mac(21), ssid())
            .ap(Point::new(0.0, 0.0), 1)
            .ap(Point::new(200.0, 0.0), 6)
            .sta(Point::new(10.0, 0.0))
            .build();
        ess.sim.run_until(SimTime::from_secs(2));
        let sta = ess.sta_ids[0];
        schedule_random_waypoint(
            &mut ess.sim,
            sta,
            Point::new(0.0, -40.0),
            Point::new(200.0, 40.0),
            3.0,
            8.0,
            77,
            SimTime::from_secs(2),
            SimTime::from_secs(60),
        );
        // Sample positions as the walk progresses: always inside the box.
        for t in [10u64, 25, 40, 55] {
            ess.sim.run_until(SimTime::from_secs(t));
            let p = ess.sim.world().position(sta);
            assert!(
                (-1.0..=201.0).contains(&p.x) && (-41.0..=41.0).contains(&p.y),
                "escaped the area at t={t}: {p}"
            );
        }
        ess.sim.run_until(SimTime::from_secs(70));
        // The STA stayed (or got back) on the network.
        let sh = ess.sta_shared[0].lock().expect("shared state lock");
        assert!(
            !sh.assoc_events.is_empty(),
            "station should have associated at least once"
        );
    }

    #[test]
    fn deterministic_association_given_seed() {
        let run = || {
            let mut ess = EssBuilder::new(mac(9), ssid())
                .ap(Point::new(0.0, 0.0), 1)
                .sta(Point::new(10.0, 0.0))
                .sta(Point::new(12.0, 0.0))
                .build();
            ess.sim.run_until(SimTime::from_secs(2));
            let a = ess.sta_shared[0]
                .lock()
                .expect("shared state lock")
                .assoc_events
                .clone();
            let b = ess.sta_shared[1]
                .lock()
                .expect("shared state lock")
                .assoc_events
                .clone();
            (a, b)
        };
        assert_eq!(run(), run());
    }
}
