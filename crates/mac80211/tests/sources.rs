//! A periodic source is the per-frame injection loop it replaces: on a
//! legacy DCF world and on an EDCA world, [`add_source`] and the
//! [`inject_at`] / [`qos_inject_at`] loop over the same arithmetic
//! progression give byte-identical trace and metrics JSONL, the same
//! event count and the same PER decisions — for a one-arrival source,
//! a zero-period source (every arrival at one instant), and sources
//! added mid-run while other events are pending.

use wn_mac80211::frame::{DsBits, Frame, SequenceControl};
use wn_mac80211::sim::NullUpper;
use wn_mac80211::{
    add_source, boot, inject_at, qos_inject_at, AccessCategory, MacAddr, MacConfig, Payload,
    WlanWorld,
};
use wn_phy::geom::Point;
use wn_phy::PhyStandard;
use wn_sim::{SimDuration, SimTime, Simulation};

/// One periodic backlog: `count` frames from `station` to station 0
/// into `ac`, at `first + k·period`.
#[derive(Clone, Copy)]
struct Backlog {
    station: usize,
    ac: AccessCategory,
    first_us: u64,
    period_us: u64,
    count: u64,
}

const fn backlog(
    station: usize,
    ac: AccessCategory,
    first_us: u64,
    period_us: u64,
    count: u64,
) -> Backlog {
    Backlog {
        station,
        ac,
        first_us,
        period_us,
        count,
    }
}

/// Built before the run: a one-arrival source, a zero-period burst and
/// two interleaving streams that tie with each other at 3 ms.
const AT_BUILD: [Backlog; 4] = [
    backlog(1, AccessCategory::Vo, 400, 0, 1),
    backlog(2, AccessCategory::Be, 1_000, 0, 6),
    backlog(3, AccessCategory::Vi, 0, 500, 40),
    backlog(1, AccessCategory::Bk, 3_000, 1_500, 12),
];

/// Added at `MID_RUN_MS`, with other events pending: one starting at
/// that very instant with period 0, one later.
const MID_RUN: [Backlog; 2] = [
    backlog(2, AccessCategory::Vo, 6_000, 0, 3),
    backlog(4, AccessCategory::Be, 6_250, 700, 25),
];

const MID_RUN_MS: u64 = 6;
const HORIZON_MS: u64 = 40;

fn frame(from: usize, body: &Payload) -> Frame {
    Frame::data(
        DsBits::Ibss,
        MacAddr::station(0),
        MacAddr::station(from as u32),
        MacAddr::random_ibss_bssid(1),
        SequenceControl::default(),
        body.clone(),
    )
}

/// Five stations on a 6 m ring around station 0, booted, with two
/// one-off frames already pending (one of them at the instant the
/// zero-period source fires).
fn world(edca: bool, body: &Payload) -> Simulation<WlanWorld> {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = 11;
    cfg.edca = edca;
    let mut w = WlanWorld::new(cfg);
    w.add_stations(
        5,
        |i| {
            let a = i as f64 * 1.3;
            Point::new(6.0 * a.cos(), 6.0 * a.sin())
        },
        |_| Box::new(NullUpper),
    );
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    inject_at(&mut sim, SimTime::from_micros(1_000), 4, frame(4, body));
    inject_at(&mut sim, SimTime::from_micros(2_500), 2, frame(2, body));
    sim
}

fn stage(sim: &mut Simulation<WlanWorld>, b: Backlog, as_source: bool, body: &Payload) {
    let first = SimTime::from_micros(b.first_us);
    let period = SimDuration::from_micros(b.period_us);
    if as_source {
        add_source(
            sim,
            b.station,
            b.ac,
            frame(b.station, body),
            first,
            period,
            b.count,
        );
    } else {
        for k in 0..b.count {
            qos_inject_at(
                sim,
                first + period * k,
                b.station,
                frame(b.station, body),
                b.ac,
            );
        }
    }
}

/// Everything the run is judged by: trace JSONL, metrics JSONL,
/// events processed, events scheduled and PER decisions.
fn run(edca: bool, as_source: bool) -> (String, String, u64, u64, (u64, u64)) {
    let body = Payload::from(vec![0x5A; 700]);
    let mut sim = world(edca, &body);
    for b in AT_BUILD {
        stage(&mut sim, b, as_source, &body);
    }
    sim.run_until(SimTime::from_millis(MID_RUN_MS));
    assert!(sim.scheduler().pending() > 0, "nothing pending mid-run");
    for b in MID_RUN {
        stage(&mut sim, b, as_source, &body);
    }
    let end = SimTime::from_millis(HORIZON_MS);
    sim.run_until(end);
    let w = sim.world();
    let per = w.per_decisions();
    (
        w.trace.to_jsonl("sources"),
        w.metrics_snapshot(end).to_jsonl("sources"),
        sim.processed(),
        sim.scheduler().scheduled_total(),
        (per.settled, per.exact),
    )
}

fn assert_source_matches_loop(edca: bool) {
    let staged = run(edca, false);
    let sourced = run(edca, true);
    assert!(staged.0.lines().count() > 100, "trace too small to compare");
    assert_eq!(sourced.0, staged.0, "trace JSONL differs (edca={edca})");
    assert_eq!(sourced.1, staged.1, "metrics JSONL differs (edca={edca})");
    assert_eq!(sourced.2, staged.2, "processed() differs (edca={edca})");
    assert_eq!(
        sourced.3, staged.3,
        "scheduled_total() differs (edca={edca})"
    );
    assert_eq!(sourced.4, staged.4, "per_decisions() differs (edca={edca})");
}

#[test]
fn sources_match_the_injection_loop_on_a_legacy_world() {
    assert_source_matches_loop(false);
}

#[test]
fn sources_match_the_injection_loop_on_an_edca_world() {
    assert_source_matches_loop(true);
}

#[test]
fn a_source_keeps_one_arrival_pending() {
    let body = Payload::from(vec![0x5A; 100]);
    let mut sim = world(false, &body);
    let before = sim.scheduler().pending();
    let id = add_source(
        &mut sim,
        1,
        AccessCategory::Be,
        frame(1, &body),
        SimTime::from_millis(1),
        SimDuration::from_millis(1),
        1_000,
    );
    assert_eq!(sim.scheduler().pending(), before + 1);
    let src = &sim.world().sources()[id as usize];
    assert_eq!((src.station, src.count), (1, 1_000));
    // An empty source reserves nothing and schedules nothing.
    add_source(
        &mut sim,
        2,
        AccessCategory::Be,
        frame(2, &body),
        SimTime::ZERO,
        SimDuration::ZERO,
        0,
    );
    assert_eq!(sim.scheduler().pending(), before + 1);
    sim.run_until(SimTime::from_millis(500));
    assert_eq!(sim.world().stats(1).queued, 500);
    let (refs, held) = sim.world().frame_ledger();
    assert_eq!(refs, held, "frame ledger drifted");
}

#[test]
#[should_panic(expected = "is not in the world")]
fn a_source_on_a_missing_station_is_rejected() {
    let body = Payload::from(vec![0x5A; 100]);
    let mut sim = world(false, &body);
    add_source(
        &mut sim,
        9,
        AccessCategory::Be,
        frame(1, &body),
        SimTime::ZERO,
        SimDuration::ZERO,
        1,
    );
}
