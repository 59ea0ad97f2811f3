//! A periodic source is the per-frame injection loop it replaces: on a
//! legacy DCF world and on an EDCA world, [`add_source`] and the
//! [`inject_at`] / [`qos_inject_at`] loop over the same arithmetic
//! progression give byte-identical trace and metrics JSONL, the same
//! event count and the same PER decisions — for a one-arrival source,
//! a zero-period source (every arrival at one instant), and sources
//! added mid-run while other events are pending.
//!
//! A source's queued MSDUs share one arena slot, so two more cases
//! drive the copy-on-write paths and compare every frame the upper
//! layers see as well: a power-save station whose Power Management bit
//! flips mid-run, and an EDCA world run until every block ack is in.

use std::sync::{Arc, Mutex};

use wn_mac80211::frame::{DsBits, Frame, SequenceControl};
use wn_mac80211::sim::{Command, NullUpper, UpperCtx, UpperLayer};
use wn_mac80211::{
    add_source, boot, inject_at, qos_inject_at, AccessCategory, FrameControl, MacAddr, MacConfig,
    Payload, WlanWorld,
};
use wn_phy::geom::Point;
use wn_phy::units::Dbm;
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
    world_with(edca, body, None, |_| Box::new(NullUpper))
}

/// [`world`] with an optional queue limit and each station's upper
/// layer built by `upper`.
fn world_with(
    edca: bool,
    body: &Payload,
    queue_limit: Option<usize>,
    upper: impl FnMut(usize) -> Box<dyn UpperLayer>,
) -> Simulation<WlanWorld> {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = 11;
    cfg.edca = edca;
    if let Some(limit) = queue_limit {
        cfg.queue_limit = limit;
    }
    let mut w = WlanWorld::new(cfg);
    w.add_stations(
        5,
        |i| {
            let a = i as f64 * 1.3;
            Point::new(6.0 * a.cos(), 6.0 * a.sin())
        },
        upper,
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

/// Everything a run is judged by: trace JSONL, metrics JSONL, events
/// processed, events scheduled and PER decisions.
type Judged = (String, String, u64, u64, (u64, u64));

fn run(edca: bool, as_source: bool) -> Judged {
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

/// One frame an upper layer saw: `(station, µs, "rx"/"ok"/"fail",
/// frame control, sequence control, body length)`.
type Seen = (
    usize,
    u64,
    &'static str,
    FrameControl,
    Option<SequenceControl>,
    usize,
);

/// Logs every frame delivered to, or handed back to, its station, and
/// flips the station's Power Management bit at each `flips_us`
/// instant (on first, then off, and so on).
struct Recorder {
    log: Arc<Mutex<Vec<Seen>>>,
    flips_us: &'static [u64],
}

impl Recorder {
    fn record(&self, ctx: &UpperCtx, what: &'static str, frame: &Frame) {
        self.log.lock().expect("log lock").push((
            ctx.id,
            ctx.now.as_nanos() / 1_000,
            what,
            frame.fc,
            frame.seq,
            frame.body.len(),
        ));
    }
}

impl UpperLayer for Recorder {
    fn on_start(&mut self, ctx: &mut UpperCtx) {
        for (i, &at) in self.flips_us.iter().enumerate() {
            ctx.set_timer(SimDuration::from_micros(at), i as u64);
        }
    }

    fn on_frame(&mut self, ctx: &mut UpperCtx, frame: &Frame, _rssi: Dbm) {
        self.record(ctx, "rx", frame);
    }

    fn on_tx_result(&mut self, ctx: &mut UpperCtx, frame: &Frame, success: bool) {
        self.record(ctx, if success { "ok" } else { "fail" }, frame);
    }

    fn on_timer(&mut self, ctx: &mut UpperCtx, tag: u64) {
        ctx.command(Command::SetPowerManagement(tag.is_multiple_of(2)));
    }
}

/// Station 1 enters and leaves power save while its backlogs queue.
const PM_FLIPS_US: &[u64] = &[1_700, 4_100, 6_300, 9_900];

/// Backlogs that straddle the flips, the two at 3 ms tying with each
/// other.
const PM_BACKLOGS: [Backlog; 4] = [
    backlog(1, AccessCategory::Be, 0, 250, 30),
    backlog(1, AccessCategory::Vi, 3_000, 0, 8),
    backlog(3, AccessCategory::Be, 3_000, 400, 20),
    backlog(4, AccessCategory::Vo, 500, 900, 12),
];

/// Queue limit for the recorded runs: small enough that station 1's
/// backlogs overflow, so dropped MSDUs are handed back from shared
/// slots as well.
const PM_QUEUE_LIMIT: usize = 6;

/// Runs [`PM_BACKLOGS`] on the five-station ring with [`Recorder`]
/// uppers (station 1 flipping its PM bit) to `end_ms`; returns what
/// the run is judged by plus the arena's live slots and source count
/// at the end.
fn run_recorded(edca: bool, as_source: bool, end_ms: u64) -> (Judged, Vec<Seen>, usize, usize) {
    let body = Payload::from(vec![0x3C; 600]);
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut sim = world_with(edca, &body, Some(PM_QUEUE_LIMIT), |i| {
        Box::new(Recorder {
            log: Arc::clone(&log),
            flips_us: if i == 1 { PM_FLIPS_US } else { &[] },
        })
    });
    for b in PM_BACKLOGS {
        stage(&mut sim, b, as_source, &body);
    }
    let end = SimTime::from_millis(end_ms);
    sim.run_until(end);
    let w = sim.world();
    let (refs, held) = w.frame_ledger();
    assert_eq!(refs, held, "frame ledger drifted");
    let per = w.per_decisions();
    let judged = (
        w.trace.to_jsonl("sources"),
        w.metrics_snapshot(end).to_jsonl("sources"),
        sim.processed(),
        sim.scheduler().scheduled_total(),
        (per.settled, per.exact),
    );
    let seen = std::mem::take(&mut *log.lock().expect("log lock"));
    (judged, seen, w.frame_arena().live(), w.sources().len())
}

/// Asserts the sourced run equals the loop; returns the sourced run's
/// trace JSONL, frames seen, live arena slots and source count.
fn assert_recorded_match(edca: bool, end_ms: u64) -> (String, Vec<Seen>, usize, usize) {
    let (staged, staged_seen, _, _) = run_recorded(edca, false, end_ms);
    let (sourced, seen, live, sources) = run_recorded(edca, true, end_ms);
    assert_eq!(sourced.0, staged.0, "trace JSONL differs (edca={edca})");
    assert_eq!(sourced.1, staged.1, "metrics JSONL differs (edca={edca})");
    assert_eq!(sourced.2, staged.2, "processed() differs (edca={edca})");
    assert_eq!(sourced.3, staged.3, "scheduled_total() differs");
    assert_eq!(sourced.4, staged.4, "per_decisions() differs (edca={edca})");
    assert_eq!(
        seen, staged_seen,
        "upper layers saw other frames (edca={edca})"
    );
    (sourced.0, seen, live, sources)
}

#[test]
fn a_power_save_flip_mid_run_matches_the_injection_loop() {
    let (_, seen, _, _) = assert_recorded_match(false, 14);
    // The flips really reach frames: station 1's confirmations carry
    // the bit both ways, and the sink receives it set.
    let pm = |what: &str, st: usize, on: bool| {
        seen.iter()
            .any(|e| e.0 == st && e.2 == what && e.3.power_management == on)
    };
    assert!(
        pm("ok", 1, true) && pm("ok", 1, false),
        "PM bit never varied"
    );
    assert!(pm("rx", 0, true), "sink never saw a PM-flagged frame");
    assert!(
        seen.iter().any(|e| e.0 == 1 && e.2 == "fail"),
        "station 1's queue never overflowed"
    );
}

#[test]
fn an_edca_world_run_to_block_ack_completion_matches_the_injection_loop() {
    let (trace, seen, live, sources) = assert_recorded_match(true, 400);
    assert!(trace.contains(r#""type":"block_ack_rx""#), "no block ack");
    // The backlogs plus the ring's two one-off frames.
    let offered: u64 = PM_BACKLOGS.iter().map(|b| b.count).sum::<u64>() + 2;
    let outcomes = seen.iter().filter(|e| e.2 != "rx").count() as u64;
    assert_eq!(outcomes, offered, "every MSDU gets a confirmation");
    assert!(seen.iter().any(|e| e.2 == "ok" && e.3.power_management));
    // Drained: only the source templates are left in the arena.
    assert_eq!((live, sources), (PM_BACKLOGS.len(), PM_BACKLOGS.len()));
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
