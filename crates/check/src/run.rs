//! Scenario execution: build the world a [`Scenario`] describes, run
//! it to completion, and collect the [`Artifacts`] the oracles check.
//!
//! Every run is single-threaded and seeded, so artifacts — including
//! the full typed trace — are bit-identical across replays and across
//! fuzzer thread counts. Worlds get an enlarged trace ring so the
//! count-based oracles see every event (`Trace::dropped() == 0`); when
//! a pathological scenario still overflows it, those oracles skip
//! rather than reason from an incomplete window.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::Mutex;

use crate::oracle::{self, Violation};
use crate::scenario::{
    BtScenario, EssScenario, Scenario, ScenarioGen, ScenarioKind, WlanScenario, WmanScenario,
    ZigbeeScenario, ZigbeeTopology,
};
use wn_mac80211::addr::MacAddr;
use wn_mac80211::frame::{DsBits, Frame, SequenceControl, Subtype};
use wn_mac80211::loss::LossModel;
use wn_mac80211::payload::Payload;
use wn_mac80211::sim::{
    add_source, boot as wlan_boot, inject_at, qos_inject_at, AccessCategory, Command, MacConfig,
    StationStats, UpperCtx, UpperLayer, WlanWorld,
};
use wn_net80211::builder::{schedule_walk, EssBuilder};
use wn_net80211::sta::StaConfig;
use wn_net80211::Ssid;
use wn_phy::geom::Point;
use wn_phy::propagation::{LogDistance, PathLoss};
use wn_phy::units::Dbm;
use wn_sim::par::par_map_with;
use wn_sim::stats::fnv1a;
use wn_sim::trace::Trace;
use wn_sim::{SimDuration, SimTime, Simulation};
use wn_wman::link::WimaxLink;
use wn_wman::scheduler::{boot as wman_boot, BaseStation, ServiceClass, WimaxEvent};
use wn_wpan::bluetooth::{boot as bt_boot, fig_1_2_scatternet, BtNetwork, DeviceClass};
use wn_wpan::zigbee::{mesh_grid, star, ZigbeeEvent};

/// End-state facts from a WLAN (flat or ESS) run.
pub struct WlanFacts {
    /// Per-station MAC counters.
    pub stats: Vec<StationStats>,
    /// Per-station MSDUs still queued or in flight at the end.
    pub pending: Vec<u64>,
    /// Configured short retry limit.
    pub retry_limit_short: u32,
    /// Configured long retry limit.
    pub retry_limit_long: u32,
    /// Effective CWmin.
    pub cw_min: u32,
    /// Effective CWmax.
    pub cw_max: u32,
    /// `layer="mac"` counter values from the metrics snapshot, keyed
    /// `(name, station)` — the cross-check side of the conservation
    /// oracle.
    pub counters: BTreeMap<(&'static str, u32), u64>,
    /// Senders are interchangeable, so fairness bounds apply.
    pub symmetric: bool,
    /// Channels never change mid-run, so NAV reasoning is sound.
    pub nav_checkable: bool,
    /// `(receiver, transmitter, sequence)` of every unicast data MSDU
    /// handed to an upper layer (empty when uppers are not
    /// instrumented, as in ESS runs).
    pub delivered: Vec<(u32, [u8; 6], u16)>,
    /// Frame-arena ledger samples `(arena_refs, held_refs)` taken at
    /// slice boundaries during the run and once at the end — the raw
    /// material for the frame-ledger oracle, which demands the two
    /// sides agree at every instant sampled. A leak (dropped id, or a
    /// holder that forgot to release) shows up as a growing left side;
    /// a double release panics in debug long before it gets here.
    pub ledger: Vec<(u64, u64)>,
    /// Shard-plan incoherences sampled at the same slice boundaries as
    /// the ledger: the interference partition computed at construction
    /// time is re-validated against the live world after every slice
    /// (and therefore after every mobility patch the slice absorbed).
    /// Empty means the partition stayed sound; the `shard-coherence`
    /// oracle reports anything else.
    pub shard_coherence: Vec<String>,
    /// Spatial-grid incoherences sampled at the same slice boundaries:
    /// the grid's structural invariants (cell membership vs live
    /// positions) plus the sparse neighbor rows' stored-vs-fresh
    /// check, which includes the soundness claim that every pair the
    /// grid omitted is below the carrier-sense floor. Always empty on
    /// directly evaluated worlds; the `grid-coherence` oracle reports
    /// anything else.
    pub grid_coherence: Vec<String>,
    /// EDCA was on (QoS corpus) — gates the QoS oracles.
    pub edca: bool,
    /// The AC_VO/AC_BK parameter-swap fail-point was armed.
    pub failpoint_aifsn_swap: bool,
    /// Per-access-category median access delay (µs), `None` before any
    /// completion in that category. Indexed AC_VO..AC_BK.
    pub ac_p50_us: [Option<u64>; 4],
    /// Per-access-category completion counts behind those medians.
    pub ac_samples: [u64; 4],
    /// Taken only when the run drained its event queue by the horizon:
    /// each station's hearing count (in-flight transmissions it
    /// carrier-senses) and the number of transmission records still
    /// retained. A drained medium has all of them at zero.
    pub drained_medium: Option<(Vec<u32>, usize)>,
    /// Taken with `drained_medium`: the stations still mid-exchange
    /// (`WlanWorld::exchange_open`). A drained world has none.
    pub drained_exchanges: Option<Vec<u32>>,
}

/// End-state facts from a ZigBee run.
pub struct ZigbeeFacts {
    /// Packets offered.
    pub offered: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped (queue, route, hop budget).
    pub dropped: u64,
    /// Packets still queued at the end.
    pub queued: u64,
    /// Configured hop budget.
    pub hop_limit: u64,
}

/// End-state facts from a Bluetooth run.
pub struct BtFacts {
    /// Application bytes injected by the scenario.
    pub injected: u64,
    /// Bytes landed at their final destination.
    pub delivered: u64,
    /// Bytes still queued (or parked unroutable) at the end.
    pub pending: u64,
}

/// End-state facts from a WiMAX run.
pub struct WmanFacts {
    /// Per-subscriber downlink bytes delivered.
    pub dl_delivered: Vec<u64>,
    /// Per-subscriber uplink bytes landed at the BS.
    pub ul_delivered: Vec<u64>,
}

/// Everything the oracles get to look at after one run.
pub struct Artifacts {
    /// The world's typed trace, moved out intact.
    pub trace: Trace,
    /// FNV-1a hash of the end-of-run metrics snapshot JSONL — the
    /// second fingerprint (besides the trace) the differential legs
    /// compare across execution paths.
    pub metrics_fnv: u64,
    /// The run's scheduler op stream ([`wn_sim::Scheduler::record_ops`])
    /// — what the `scheduler-order` oracle replays through the
    /// reference heap.
    pub ops: Vec<u128>,
    /// Virtual end time.
    pub end: SimTime,
    /// WLAN facts (flat and ESS scenarios).
    pub wlan: Option<WlanFacts>,
    /// ZigBee facts.
    pub zigbee: Option<ZigbeeFacts>,
    /// Bluetooth facts.
    pub bt: Option<BtFacts>,
    /// WiMAX facts.
    pub wman: Option<WmanFacts>,
}

/// Trace ring size for fuzz runs — big enough that no scenario the
/// generator can draw evicts records.
pub(crate) const TRACE_CAPACITY: usize = 1 << 17;

/// A shared `(receiver, transmitter, sequence)` delivery log.
pub(crate) type DeliveryLog = Arc<Mutex<Vec<(u32, [u8; 6], u16)>>>;

/// An [`UpperLayer`] that records every unicast data delivery, so the
/// duplicate-delivery oracle can look for MSDUs that slipped past the
/// dedup cache.
pub(crate) struct CheckUpper {
    pub(crate) delivered: DeliveryLog,
}

impl UpperLayer for CheckUpper {
    fn on_frame(&mut self, ctx: &mut UpperCtx, frame: &Frame, _rssi: Dbm) {
        if frame.receiver().is_group() {
            return;
        }
        if !matches!(frame.fc.subtype, Subtype::Data | Subtype::NullData) {
            return;
        }
        if let (Some(tx), Some(seq)) = (frame.transmitter(), frame.seq) {
            self.delivered.lock().expect("delivery log lock").push((
                ctx.id as u32,
                tx.0,
                seq.sequence,
            ));
        }
    }
}

/// A [`CheckUpper`] that also flips its station's Power Management
/// bit every `period`, so queued frames are stamped both ways.
struct PmToggleUpper {
    inner: CheckUpper,
    period: SimDuration,
}

impl UpperLayer for PmToggleUpper {
    fn on_start(&mut self, ctx: &mut UpperCtx) {
        ctx.set_timer(self.period, 1);
    }

    fn on_frame(&mut self, ctx: &mut UpperCtx, frame: &Frame, rssi: Dbm) {
        self.inner.on_frame(ctx, frame, rssi);
    }

    fn on_timer(&mut self, ctx: &mut UpperCtx, tag: u64) {
        ctx.command(Command::SetPowerManagement(tag == 1));
        ctx.set_timer(self.period, tag ^ 1);
    }
}

/// How a flat-WLAN scenario offers its backlog.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Offer {
    /// One staged frame and `Inject` event per MSDU.
    PerFrame,
    /// Periodic sources, whose queued MSDUs share one arena slot.
    Sources,
}

/// Runs one scenario to completion and returns its artifacts.
pub fn run_scenario(sc: &Scenario) -> Artifacts {
    run_scenario_via(sc, Propagation::Cached)
}

/// [`run_scenario`] with every flat-WLAN sender's backlog offered by
/// periodic sources ([`add_source`]) instead of per-frame injections:
/// one source per sender on a legacy world, one per access category
/// the sender's frame cycle visits on an EDCA world (same arrival
/// times and ACs). Sender 1 of each cell also flips its Power
/// Management bit every 1.7 ms. The oracles then meet queued MSDUs
/// that share an arena slot, and the copy-on-write paths at enqueue,
/// dequeue, completion and drop. Other scenario kinds run as in
/// [`run_scenario`].
pub fn run_scenario_sourced(sc: &Scenario) -> Artifacts {
    match &sc.kind {
        ScenarioKind::Wlan(w) => run_wlan(sc.seed, w, Propagation::Cached, Offer::Sources),
        _ => run_scenario(sc),
    }
}

/// Which received-power path a WLAN run takes. Both evaluate the
/// same indoor log-distance loss, so their traces and metrics must be
/// byte-identical — the `fuzz --propagation-diff` contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Propagation {
    /// The world's own static, bounded model: grid-backed sparse rows.
    #[default]
    Cached,
    /// The same loss declared time-varying, which the world evaluates
    /// per transmission — production's direct path, as the reference.
    Direct,
}

impl Propagation {
    /// Installs this path's loss model on a freshly built world.
    pub fn install(self, world: &mut WlanWorld) {
        if self == Propagation::Direct {
            let model = LogDistance::indoor();
            world.set_loss_model(LossModel::time_varying(move |a, b, f, _| {
                model.loss(a.distance_to(b), f)
            }));
        }
    }
}

/// Runs one scenario on an explicit propagation path. Non-WLAN worlds
/// have no such path; `prop` is ignored for them.
fn run_scenario_via(sc: &Scenario, prop: Propagation) -> Artifacts {
    match &sc.kind {
        ScenarioKind::Wlan(w) => run_wlan(sc.seed, w, prop, Offer::PerFrame),
        ScenarioKind::Ess(e) => run_ess(sc.seed, e, prop),
        ScenarioKind::Bluetooth(b) => run_bt(b),
        ScenarioKind::Zigbee(z) => run_zigbee(sc.seed, z),
        ScenarioKind::Wman(w) => run_wman(w),
    }
}

fn mac_counters(world: &WlanWorld, end: SimTime) -> BTreeMap<(&'static str, u32), u64> {
    let mut counters = BTreeMap::new();
    for row in world.metrics_snapshot(end).rows {
        if row.kind != "counter" || row.key.layer != "mac" {
            continue;
        }
        let Some(station) = row.key.station else {
            continue;
        };
        if let Some(&(_, v)) = row.fields.first() {
            counters.insert((row.key.name, station), v as u64);
        }
    }
    counters
}

#[allow(clippy::too_many_arguments)]
fn wlan_facts(
    world: &WlanWorld,
    end: SimTime,
    symmetric: bool,
    nav_checkable: bool,
    delivered: Vec<(u32, [u8; 6], u16)>,
    ledger: Vec<(u64, u64)>,
    shard_coherence: Vec<String>,
    grid_coherence: Vec<String>,
    drained: bool,
) -> WlanFacts {
    let n = world.station_count();
    let acs = AccessCategory::ALL;
    WlanFacts {
        stats: (0..n).map(|i| world.stats(i).clone()).collect(),
        pending: (0..n).map(|i| world.pending_msdus(i)).collect(),
        retry_limit_short: world.config().retry_limit_short,
        retry_limit_long: world.config().retry_limit_long,
        cw_min: world.config().cw_min(),
        cw_max: world.config().cw_max(),
        counters: mac_counters(world, end),
        symmetric,
        nav_checkable,
        delivered,
        ledger,
        shard_coherence,
        grid_coherence,
        edca: world.config().edca,
        failpoint_aifsn_swap: world.config().failpoint_aifsn_swap,
        ac_p50_us: acs.map(|ac| world.ac_delay_quantile(ac, 0.5)),
        ac_samples: acs.map(|ac| world.ac_delay_samples(ac)),
        drained_medium: drained.then(|| {
            (
                (0..n).map(|i| world.hearing(i)).collect(),
                world.retained_records(),
            )
        }),
        drained_exchanges: drained.then(|| {
            (0..n)
                .filter(|&i| world.exchange_open(i))
                .map(|i| i as u32)
                .collect()
        }),
    }
}

/// Mid-run sampling points for the frame-ledger oracle. Running to the
/// deadline in slices is behaviour-identical to one `run_until` (the
/// engine pops strictly by `peek_time() <= deadline`), so the samples
/// cost nothing but the ledger walks themselves — and they catch leaks
/// that an end-of-run check would miss because drained worlds balance
/// trivially.
const LEDGER_SLICES: u64 = 8;

/// The body every frame of a scenario's backlog shares: built once per
/// world, cloned per frame.
pub(crate) fn payload(len: usize) -> Payload {
    Payload::from(vec![0xF2; len])
}

pub(crate) fn data_frame(from: u32, to: u32, body: &Payload) -> Frame {
    Frame::data(
        DsBits::Ibss,
        MacAddr::station(to),
        MacAddr::station(from),
        MacAddr::random_ibss_bssid(1),
        SequenceControl::default(),
        body.clone(),
    )
}

/// The MAC configuration a flat-WLAN scenario maps to. Shared between
/// the classic single-world runner and the shard component builder so
/// the two execution modes are the same construction by definition.
pub(crate) fn wlan_config(seed: u64, w: &WlanScenario) -> MacConfig {
    let mut cfg = MacConfig::new(w.standard);
    cfg.seed = seed;
    cfg.rts_threshold = w.rts_threshold;
    cfg.frag_threshold = w.frag_threshold;
    cfg.queue_limit = w.queue_limit;
    cfg.retry_limit_short = w.retry_limit_short;
    cfg.retry_limit_long = w.retry_limit_long;
    cfg.cw_min_override = w.cw_min_override;
    cfg.cw_max_override = w.cw_max_override;
    cfg.arf = w.arf;
    cfg.failpoint_retry_overrun = w.failpoint_retry_overrun;
    cfg.edca = w.edca;
    cfg.ampdu_max_mpdus = w.ampdu_max_mpdus;
    cfg.ampdu_per_mpdu_loss = w.ampdu_per_mpdu_loss;
    cfg.failpoint_aifsn_swap = w.failpoint_aifsn_swap;
    cfg
}

/// Station `i`'s position in a flat-WLAN scenario: the sink at the
/// origin, senders on a ring. The OBSS twin cell is the same ring
/// shifted three radii along x — overlapped in carrier-sense range
/// (one contention domain) but its own BSS.
pub(crate) fn wlan_station_pos(w: &WlanScenario, i: usize) -> Point {
    let (cell, i) = (i / w.stations, i % w.stations);
    let dx = cell as f64 * 3.0 * w.radius_m;
    if i == 0 {
        Point::new(dx, 0.0)
    } else {
        let a = i as f64 / (w.stations - 1) as f64 * std::f64::consts::TAU;
        Point::new(dx + w.radius_m * a.cos(), w.radius_m * a.sin())
    }
}

/// The sink global station `g` floods in a flat-WLAN scenario, or
/// `None` when `g` is itself a cell's sink.
pub(crate) fn wlan_sink_of(w: &WlanScenario, g: usize) -> Option<usize> {
    let sink = g / w.stations * w.stations;
    (g != sink).then_some(sink)
}

/// The access category sender `g`'s `k`-th frame rides in a QoS
/// scenario: a deterministic cycle over all four ACs, phase-shifted
/// per sender so every station offers a mixed-AC load.
pub(crate) fn wlan_ac_of(g: usize, k: u64) -> AccessCategory {
    AccessCategory::from_index((g + k as usize) % 4).expect("4 ACs")
}

fn run_wlan(seed: u64, w: &WlanScenario, prop: Propagation, offer: Offer) -> Artifacts {
    let delivered = Arc::new(Mutex::new(Vec::new()));
    let mut world = WlanWorld::new(wlan_config(seed, w));
    prop.install(&mut world);
    world.trace = Trace::new(TRACE_CAPACITY);
    for i in 0..w.total_stations() {
        let inner = CheckUpper {
            delivered: delivered.clone(),
        };
        let upper: Box<dyn UpperLayer> = if offer == Offer::Sources && i % w.stations == 1 {
            Box::new(PmToggleUpper {
                inner,
                period: SimDuration::from_micros(1_700),
            })
        } else {
            Box::new(inner)
        };
        world.add_station(MacAddr::station(i as u32), wlan_station_pos(w, i), upper);
    }
    if w.deaf_sink {
        // The fault toggle: the sink stops hearing anything, so every
        // unicast to it walks the full retry ladder.
        world.set_channel(0, 11);
    }
    // The interference partition this deployment would shard into —
    // re-validated at every slice boundary below, feeding the
    // shard-coherence oracle.
    let plan = world.shard_plan(SimTime::ZERO, None);

    let mut sim = Simulation::new(world);
    sim.scheduler_mut().record_ops();
    wlan_boot(&mut sim);
    let body = payload(w.payload);
    for g in 0..w.total_stations() {
        let Some(sink) = wlan_sink_of(w, g) else {
            continue;
        };
        let frames = u64::from(w.frames_per_sender);
        if offer == Offer::Sources {
            // Frame k rides AC `wlan_ac_of(g, k)`, which cycles with
            // period 4: lane j carries frames j, j + 4, j + 8, ...
            let lanes = if w.edca { 4 } else { 1 };
            for j in 0..lanes.min(frames) {
                add_source(
                    &mut sim,
                    g,
                    wlan_ac_of(g, j),
                    data_frame(g as u32, sink as u32, &body),
                    SimTime::from_micros(j * w.interval_us),
                    SimDuration::from_micros(lanes * w.interval_us),
                    (frames - j).div_ceil(lanes),
                );
            }
            continue;
        }
        for k in 0..frames {
            let at = SimTime::from_micros(k * w.interval_us);
            let frame = data_frame(g as u32, sink as u32, &body);
            if w.edca {
                qos_inject_at(&mut sim, at, g, frame, wlan_ac_of(g, k));
            } else {
                inject_at(&mut sim, at, g, frame);
            }
        }
    }
    let end = SimTime::from_millis(w.duration_ms);
    let mut ledger = Vec::with_capacity(LEDGER_SLICES as usize);
    let mut shard_coherence = Vec::new();
    let mut grid_coherence = Vec::new();
    for s in 1..=LEDGER_SLICES {
        let slice_end = SimTime::from_micros(w.duration_ms * 1000 * s / LEDGER_SLICES);
        sim.run_until(slice_end);
        ledger.push(sim.world().frame_ledger());
        if let Some(inc) = sim.world().shard_plan_incoherence(&plan, slice_end) {
            shard_coherence.push(inc.to_string());
        }
        grid_coherence.extend(sim.world().grid_incoherence(slice_end));
    }

    let drained = sim.scheduler().pending() == 0;
    let ops = sim.scheduler_mut().take_op_log();
    let mut world = sim.into_world();
    let delivered = std::mem::take(&mut *delivered.lock().expect("delivery log lock"));
    let facts = wlan_facts(
        &world,
        end,
        w.symmetric(),
        true,
        delivered,
        ledger,
        shard_coherence,
        grid_coherence,
        drained,
    );
    Artifacts {
        trace: std::mem::take(&mut world.trace),
        metrics_fnv: fnv1a(world.metrics_snapshot(end).to_jsonl("fuzz").as_bytes()),
        ops,
        end,
        wlan: Some(facts),
        zigbee: None,
        bt: None,
        wman: None,
    }
}

/// Builds the ESS simulation a scenario describes — construction only,
/// no events run. Shared between the classic runner and the shard
/// harness (an ESS is always a single shard: scanning and roaming
/// switch channels mid-run, which collapses any static conflict-graph
/// partition, so the whole ESS advances as one component).
pub(crate) fn build_ess_sim(seed: u64, e: &EssScenario) -> Simulation<WlanWorld> {
    let ssid = Ssid::new("Fuzz").expect("valid ssid");
    let mut mac = MacConfig::new(wn_phy::modulation::PhyStandard::Dot11g);
    mac.seed = seed;
    let channels: Vec<u8> = if e.aps == 2 { vec![1, 6] } else { vec![1] };
    let mut builder = EssBuilder::new(mac, ssid.clone()).ap(Point::new(0.0, 0.0), 1);
    if e.aps == 2 {
        builder = builder.ap(Point::new(e.ap_spacing_m, 0.0), 6);
    }
    for (i, &ps) in e.sta_power_save.iter().enumerate() {
        let pos = Point::new(10.0, 3.0 * i as f64);
        if ps {
            let mut cfg = StaConfig::open(ssid.clone(), channels.clone());
            cfg.power_save = true;
            builder = builder.sta_with(pos, cfg);
        } else {
            builder = builder.sta(pos);
        }
    }
    let mut ess = builder.build();
    ess.sim.world_mut().trace = Trace::new(TRACE_CAPACITY);

    if e.walker && !e.sta_power_save.is_empty() {
        schedule_walk(
            &mut ess.sim,
            ess.sta_ids[0],
            Point::new(10.0, 0.0),
            Point::new(e.ap_spacing_m - 10.0, 0.0),
            e.walk_speed_mps,
            SimDuration::from_millis(200),
            SimTime::from_secs(1),
        );
    }
    ess.sim
}

fn run_ess(seed: u64, e: &EssScenario, prop: Propagation) -> Artifacts {
    let mut sim = build_ess_sim(seed, e);
    // The builder already booted the world and the walk is scheduled;
    // recording logs those pending events first.
    sim.scheduler_mut().record_ops();
    prop.install(sim.world_mut());
    // The execution partition of an ESS is the trivial single shard
    // (see `build_ess_sim`); re-validating it at each slice still
    // catches station-set drift under mobility.
    let n = sim.world().station_count();
    let plan = wn_mac80211::shard::ShardPlan {
        shard_of: vec![0; n],
        shards: vec![(0..n).collect()],
        max_interference_range_m: f64::INFINITY,
    };
    let end = SimTime::from_secs(e.duration_s);
    let mut ledger = Vec::with_capacity(LEDGER_SLICES as usize);
    let mut shard_coherence = Vec::new();
    let mut grid_coherence = Vec::new();
    for s in 1..=LEDGER_SLICES {
        let slice_end = SimTime::from_millis(e.duration_s * 1000 * s / LEDGER_SLICES);
        sim.run_until(slice_end);
        ledger.push(sim.world().frame_ledger());
        if let Some(inc) = sim.world().shard_plan_incoherence(&plan, slice_end) {
            shard_coherence.push(inc.to_string());
        }
        grid_coherence.extend(sim.world().grid_incoherence(slice_end));
    }

    let drained = sim.scheduler().pending() == 0;
    let ops = sim.scheduler_mut().take_op_log();
    let mut world = sim.into_world();
    // Channel switching (scanning / roaming) silently clears NAV, so
    // NAV reasoning is unsound here; fairness likewise (uppers differ).
    let facts = wlan_facts(
        &world,
        end,
        false,
        false,
        Vec::new(),
        ledger,
        shard_coherence,
        grid_coherence,
        drained,
    );
    Artifacts {
        trace: std::mem::take(&mut world.trace),
        metrics_fnv: fnv1a(world.metrics_snapshot(end).to_jsonl("fuzz").as_bytes()),
        ops,
        end,
        wlan: Some(facts),
        zigbee: None,
        bt: None,
        wman: None,
    }
}

fn run_bt(b: &BtScenario) -> Artifacts {
    let (mut net, devices) = if b.scatternet {
        let (net, _pa, _pb, _bridge) = fig_1_2_scatternet(b.slaves_a, b.slaves_b);
        let count = b.device_count();
        (net, (0..count).collect::<Vec<_>>())
    } else {
        let mut net = BtNetwork::new();
        let master = net.add_device(Point::new(0.0, 0.0), DeviceClass::Class2);
        let p = net.form_piconet(master).expect("fresh master");
        let mut devices = vec![master];
        for i in 0..b.slaves_a {
            let s = net.add_device(Point::new(1.0, 1.0 + i as f64), DeviceClass::Class2);
            net.join(p, s).expect("in range");
            devices.push(s);
        }
        (net, devices)
    };
    net.trace = Trace::new(TRACE_CAPACITY);

    let mut injected = 0u64;
    for &(src, dst, bytes) in &b.transfers {
        if src < devices.len() && dst < devices.len() && src != dst {
            net.send(devices[src], devices[dst], bytes);
            injected += bytes as u64;
        }
    }

    let mut sim = Simulation::new(net);
    sim.scheduler_mut().record_ops();
    bt_boot(&mut sim);
    let end = SimTime::from_millis(b.duration_ms);
    sim.run_until(end);

    let ops = sim.scheduler_mut().take_op_log();
    let mut world = sim.into_world();
    let delivered = devices.iter().map(|&d| world.delivered_bytes(d)).sum();
    let facts = BtFacts {
        injected,
        delivered,
        pending: world.pending_bytes(),
    };
    Artifacts {
        trace: std::mem::take(&mut world.trace),
        metrics_fnv: fnv1a(world.metrics_snapshot(end).to_jsonl("fuzz").as_bytes()),
        ops,
        end,
        wlan: None,
        zigbee: None,
        bt: Some(facts),
        wman: None,
    }
}

fn run_zigbee(seed: u64, z: &ZigbeeScenario) -> Artifacts {
    let mut net = match z.topology {
        ZigbeeTopology::Star { n, radius_m } => star(n, radius_m, seed).0,
        ZigbeeTopology::Mesh {
            cols,
            rows,
            spacing_m,
        } => mesh_grid(cols, rows, spacing_m, seed),
    };
    net.trace = Trace::new(TRACE_CAPACITY);
    let nodes = z.topology.node_count();

    let mut sim = Simulation::new(net);
    sim.scheduler_mut().record_ops();
    for &(src, dst, bytes, at_ms) in &z.sends {
        if src < nodes && dst < nodes && src != dst {
            sim.scheduler_mut().schedule_at(
                SimTime::from_millis(at_ms),
                ZigbeeEvent::Send { src, dst, bytes },
            );
        }
    }
    let end = SimTime::from_millis(z.duration_ms);
    sim.run_until(end);

    let ops = sim.scheduler_mut().take_op_log();
    let mut world = sim.into_world();
    let facts = ZigbeeFacts {
        offered: world.offered(),
        delivered: world.stats.delivered,
        dropped: world.stats.dropped,
        queued: world.queued_total(),
        hop_limit: world.hop_limit as u64,
    };
    Artifacts {
        trace: std::mem::take(&mut world.trace),
        metrics_fnv: fnv1a(world.metrics_snapshot(end).to_jsonl("fuzz").as_bytes()),
        ops,
        end,
        wlan: None,
        zigbee: Some(facts),
        bt: None,
        wman: None,
    }
}

fn run_wman(w: &WmanScenario) -> Artifacts {
    const CLASSES: [ServiceClass; 4] = [
        ServiceClass::Ugs,
        ServiceClass::Rtps,
        ServiceClass::Nrtps,
        ServiceClass::BestEffort,
    ];
    let mut bs = BaseStation::new(WimaxLink::default());
    bs.dl_ratio = w.dl_ratio;
    bs.queue_limit_bytes = w.queue_limit_bytes;
    bs.trace = Trace::new(TRACE_CAPACITY);

    let admitted: Vec<Option<usize>> = w
        .subs
        .iter()
        .map(|s| bs.add_subscriber(s.dist_m, s.obstructed, CLASSES[s.class % 4], s.reserved_bps))
        .collect();

    let mut sim = Simulation::new(bs);
    sim.scheduler_mut().record_ops();
    wman_boot(&mut sim);
    for (spec, id) in w.subs.iter().zip(&admitted) {
        let Some(ss) = *id else { continue };
        for t in 0..w.duration_ms / 100 {
            sim.scheduler_mut().schedule_at(
                SimTime::from_millis(t * 100),
                WimaxEvent::Offer {
                    ss,
                    bytes: spec.dl_offer,
                },
            );
            if spec.ul_offer > 0 {
                sim.scheduler_mut().schedule_at(
                    SimTime::from_millis(t * 100),
                    WimaxEvent::OfferUplink {
                        ss,
                        bytes: spec.ul_offer,
                    },
                );
            }
        }
    }
    let end = SimTime::from_millis(w.duration_ms);
    sim.run_until(end);

    let ops = sim.scheduler_mut().take_op_log();
    let mut world = sim.into_world();
    let n = world.subscriber_count();
    let facts = WmanFacts {
        dl_delivered: (0..n).map(|i| world.delivered_bytes(i)).collect(),
        ul_delivered: (0..n).map(|i| world.ul_delivered_bytes(i)).collect(),
    };
    Artifacts {
        trace: std::mem::take(&mut world.trace),
        metrics_fnv: fnv1a(world.metrics_snapshot(end).to_jsonl("fuzz").as_bytes()),
        ops,
        end,
        wlan: None,
        zigbee: None,
        bt: None,
        wman: Some(facts),
    }
}

/// Runs every oracle against one run's artifacts.
pub fn run_oracles(art: &Artifacts) -> Vec<Violation> {
    oracle::oracles()
        .iter()
        .flat_map(|o| o.check(art))
        .collect()
}

/// Builds, runs and checks one explicit scenario.
pub fn check_scenario(sc: &Scenario) -> Vec<Violation> {
    run_oracles(&run_scenario(sc))
}

/// The outcome of fuzzing one seed.
pub struct SeedReport {
    /// The seed.
    pub seed: u64,
    /// Scenario one-liner.
    pub summary: String,
    /// Scenario kind tag.
    pub kind: &'static str,
    /// Typed trace events the run emitted.
    pub events: usize,
    /// FNV-1a hash of the full trace JSONL (replay fingerprint).
    pub trace_fnv: u64,
    /// FNV-1a hash of the end-of-run metrics snapshot JSONL.
    pub metrics_fnv: u64,
    /// Oracle violations (empty = clean).
    pub violations: Vec<Violation>,
}

/// Generates, runs and checks the scenario for `seed`.
pub fn check_seed(seed: u64) -> SeedReport {
    check_seed_gen(&ScenarioGen::default(), seed, Propagation::Cached)
}

/// [`check_seed`] under an explicit scenario generator and propagation
/// path — how the `--qos` corpus, the `--propagation-diff`
/// differential and the fail-point self-tests run seeds.
pub fn check_seed_gen(gen: &ScenarioGen, seed: u64, prop: Propagation) -> SeedReport {
    let sc = gen.scenario(seed);
    let art = run_scenario_via(&sc, prop);
    let violations = run_oracles(&art);
    SeedReport {
        seed,
        summary: sc.summary(),
        kind: sc.kind_tag(),
        events: art.trace.events().count(),
        trace_fnv: fnv1a(art.trace.to_jsonl("fuzz").as_bytes()),
        metrics_fnv: art.metrics_fnv,
        violations,
    }
}

/// Fuzzes `count` seeds starting at `start` across `threads` workers.
///
/// Each seed's run is fully independent and single-threaded, so the
/// reports — including every trace fingerprint — are identical for any
/// `threads` value.
pub fn check_range(start: u64, count: u64, threads: usize) -> Vec<SeedReport> {
    check_range_gen(
        ScenarioGen::default(),
        start,
        count,
        threads,
        Propagation::Cached,
    )
}

/// [`check_seed_gen`] over a seed range across `threads` workers.
pub fn check_range_gen(
    gen: ScenarioGen,
    start: u64,
    count: u64,
    threads: usize,
    prop: Propagation,
) -> Vec<SeedReport> {
    let seeds: Vec<u64> = (start..start + count).collect();
    par_map_with(threads, seeds, move |seed| check_seed_gen(&gen, seed, prop))
}

/// Byte-stable JSONL digest of a fuzz range drawn from `gen`, for
/// determinism tests and the corpus pins in `fuzz --qos`: one line per
/// seed with kind, event count, violation count and the trace and
/// metrics fingerprints.
pub fn range_digest(gen: ScenarioGen, start: u64, count: u64, threads: usize) -> String {
    let mut out = String::new();
    for r in check_range_gen(gen, start, count, threads, Propagation::Cached) {
        out.push_str(&format!(
            "{{\"seed\":{},\"kind\":\"{}\",\"events\":{},\"violations\":{},\"trace_fnv\":\"{:016x}\",\"metrics_fnv\":\"{:016x}\"}}\n",
            r.seed,
            r.kind,
            r.events,
            r.violations.len(),
            r.trace_fnv,
            r.metrics_fnv
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every configuration the generators draw — classic and QoS
    /// corpora alike — passes `MacConfig::validate`, so no fuzz seed
    /// trips the construction-time check.
    #[test]
    fn generated_wlan_configs_validate() {
        for gen in [ScenarioGen::default(), ScenarioGen::with_qos()] {
            for seed in 0..300 {
                if let ScenarioKind::Wlan(w) = &gen.scenario(seed).kind {
                    assert_eq!(wlan_config(seed, w).validate(), Ok(()), "seed {seed}");
                }
            }
        }
    }
}
