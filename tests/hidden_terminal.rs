//! Hidden-terminal regression test (§4.2): two senders far enough
//! apart to be mutually inaudible both talk to a receiver halfway
//! between them. Physical carrier sense is useless — each sender
//! always finds the channel idle — so plain DCF collides at the
//! receiver over and over, while RTS/CTS lets the receiver's CTS set
//! the other sender's NAV and serialise the exchanges.
//!
//! The geometry is asserted from the propagation model itself (the
//! sender→sender ray crosses a steel wall and lands far below both the
//! −82 dBm carrier-sense floor and any decodable SNR, the
//! sender→receiver rays clear the wall and stay comfortably decodable,
//! and the equal-power collision at the receiver is beyond any capture
//! margin), so the MAC-level assertions can't silently pass on a
//! topology that stopped being hidden.

use wireless_networks::mac80211::addr::MacAddr;
use wireless_networks::mac80211::frame::{DsBits, Frame, SequenceControl};
use wireless_networks::mac80211::loss::LossModel;
use wireless_networks::mac80211::sim::{boot, inject_at, MacConfig, NullUpper, WlanWorld};
use wireless_networks::phy::geom::{Point, Wall};
use wireless_networks::phy::medium::{LinkBudget, Radio};
use wireless_networks::phy::modulation::PhyStandard;
use wireless_networks::phy::propagation::IndoorWalls;
use wireless_networks::sim::{SimTime, Simulation, Trace, TraceEvent};

/// The senders sit at ±HALF_M on the x axis; the receiver is north of
/// the wall's end, so both uplink rays clear it.
const HALF_M: f64 = 90.0;
const RECEIVER: Point = Point {
    x: 0.0,
    y: 30.0,
    z: 0.0,
};
const SENDER_A: Point = Point {
    x: -HALF_M,
    y: 0.0,
    z: 0.0,
};
const SENDER_B: Point = Point {
    x: HALF_M,
    y: 0.0,
    z: 0.0,
};
/// Enough backlog to keep both senders saturated past the horizon —
/// winner-takes-all bursts must never drain a queue early.
const FRAMES_PER_SENDER: u64 = 400;
const PAYLOAD: usize = 800;
const HORIZON_MS: u64 = 500;

/// Indoor propagation with one steel wall on the x = 0 line, spanning
/// only the southern half — it cuts the A↔B ray but not A→R or B→R.
fn floor_plan() -> IndoorWalls {
    IndoorWalls::new(vec![Wall::new(
        Point::new(0.0, -200.0),
        Point::new(0.0, 20.0),
        30.0,
    )])
}

fn run(rts_threshold: usize) -> WlanWorld {
    let mut cfg = MacConfig::new(PhyStandard::Dot11b);
    cfg.seed = 7;
    cfg.arf = false;
    cfg.rts_threshold = rts_threshold;
    cfg.queue_limit = FRAMES_PER_SENDER as usize + 16;

    let mut world = WlanWorld::new(cfg);
    world.trace = Trace::new(1 << 15);
    // Walls only add loss, so the log-distance base bounds the floor
    // plan and the world runs the grid-backed cached path under it.
    world.set_loss_model(LossModel::walls(floor_plan()));
    for (i, pos) in [RECEIVER, SENDER_A, SENDER_B].into_iter().enumerate() {
        world.add_station(MacAddr::station(i as u32), pos, Box::new(NullUpper));
    }

    let mut sim = Simulation::new(world);
    boot(&mut sim);
    // Both hidden senders get their whole backlog up front, so they
    // stay saturated and every contention round is the synchronised
    // worst case carrier sense is supposed to (and here cannot)
    // resolve.
    for k in 0..FRAMES_PER_SENDER {
        for sender in [1usize, 2] {
            inject_at(
                &mut sim,
                SimTime::ZERO,
                sender,
                Frame::data(
                    DsBits::Ibss,
                    MacAddr::station(0),
                    MacAddr::station(sender as u32),
                    MacAddr::random_ibss_bssid(1),
                    SequenceControl::default(),
                    vec![0xAB; PAYLOAD],
                ),
            );
        }
        let _ = k;
    }
    sim.run_until(SimTime::from_millis(HORIZON_MS));
    sim.into_world()
}

/// The topology really is a hidden-terminal one, straight from the
/// propagation model: senders mutually far below the carrier-sense
/// floor (and any decodable SNR, so not even NAV leaks across), both
/// uplinks decodable, and the equal-power collision at the receiver
/// beyond any capture margin.
#[test]
fn geometry_is_hidden_but_decodable() {
    let budget = LinkBudget::for_standard(PhyStandard::Dot11b, Radio::consumer_wifi());
    let plan = floor_plan();
    let cs_floor = MacConfig::new(PhyStandard::Dot11b).cs_threshold;

    let cross_loss = plan.loss_between(SENDER_A, SENDER_B, budget.frequency);
    let uplink_loss = plan.loss_between(SENDER_A, RECEIVER, budget.frequency);
    let sender_to_sender = budget.rx_power(cross_loss);
    let sender_to_rx = budget.rx_power(uplink_loss);
    assert!(
        sender_to_sender.value() < cs_floor.value() - 15.0,
        "senders hear each other at {sender_to_sender:?} — not hidden"
    );
    assert!(
        sender_to_rx.value() > cs_floor.value() + 5.0,
        "uplink too weak at {sender_to_rx:?}"
    );
    // The mirror uplink is the same by symmetry.
    assert_eq!(
        plan.loss_between(SENDER_B, RECEIVER, budget.frequency)
            .value(),
        uplink_loss.value()
    );
    // Equal-power colliders: no capture even with a generous margin...
    assert!(!budget.captures(uplink_loss, &[sender_to_rx], 10.0));
    // ...while the same frame alone sails through.
    assert!(budget.captures(uplink_loss, &[], 10.0));
}

/// The MAC-level regression proper. With two saturated hidden senders,
/// plain DCF keeps colliding full data frames at the receiver — both
/// senders walk retry ladders, some MSDUs exhaust them, and not a
/// single NAV reservation appears because nothing decodable ever
/// crosses the wall. Switching on RTS/CTS, the receiver's CTS (which
/// both senders hear fine) sets the other sender's NAV: reservations
/// show up at *both* senders, no retry ladder exhausts, and data-frame
/// carnage at the receiver drops to the short-control-frame residue.
#[test]
fn rts_cts_rescues_what_plain_dcf_loses() {
    let plain = run(usize::MAX);
    let protected = run(0);

    for (label, w) in [("plain", &plain), ("rts", &protected)] {
        eprintln!(
            "{label}: delivered={} rx_errors={} tx1=({} retries, {} fail, {} ok) tx2=({} retries, {} fail, {} ok)",
            w.stats(0).rx_accepted,
            w.stats(0).rx_errors,
            w.stats(1).retries,
            w.stats(1).tx_failures,
            w.stats(1).tx_completions,
            w.stats(2).retries,
            w.stats(2).tx_failures,
            w.stats(2).tx_completions,
        );
    }

    // Saturation precondition for both runs: neither sender drained.
    for w in [&plain, &protected] {
        for sender in [1usize, 2] {
            assert!(
                w.pending_msdus(sender) > 0,
                "sender {sender} drained its backlog — not saturated"
            );
        }
    }

    // Plain DCF: both senders walk the retry ladder (typed Retry
    // events), some MSDUs exhaust it, the receiver destroys piles of
    // full-length data frames — and the trace shows *zero* NAV
    // reservations at the senders, because virtual carrier sense never
    // gets anything decodable to work with.
    for sender in [1u32, 2] {
        let retries = plain
            .trace
            .events()
            .filter(|(_, e)| matches!(e, TraceEvent::Retry { station, .. } if *station == sender))
            .count();
        assert!(
            retries >= 10,
            "plain DCF: sender {sender} only retried {retries} times — not colliding?"
        );
        assert!(
            !plain
                .trace
                .events()
                .any(|(_, e)| matches!(e, TraceEvent::Nav { station, .. } if *station == sender)),
            "plain DCF: sender {sender} set a NAV — the terminals are not hidden"
        );
    }
    let plain_failures = plain.stats(1).tx_failures + plain.stats(2).tx_failures;
    assert!(
        plain_failures > 0,
        "plain DCF: no retry ladder ever exhausted"
    );
    assert!(
        plain.stats(0).rx_errors >= 50,
        "plain DCF: receiver saw only {} collision-destroyed frames",
        plain.stats(0).rx_errors
    );

    // RTS/CTS: NAV reservations appear at both hidden senders (typed
    // Nav events from the overheard CTS), no MSDU is ever abandoned,
    // and the receiver-side collision count collapses — only cheap
    // control frames still collide.
    for sender in [1u32, 2] {
        assert!(
            protected
                .trace
                .events()
                .any(|(_, e)| matches!(e, TraceEvent::Nav { station, .. } if *station == sender)),
            "RTS/CTS: sender {sender} never honoured a NAV reservation"
        );
    }
    assert_eq!(
        protected.stats(1).tx_failures + protected.stats(2).tx_failures,
        0,
        "RTS/CTS: a protected MSDU still exhausted its retry ladder"
    );
    assert!(
        2 * protected.stats(0).rx_errors < plain.stats(0).rx_errors,
        "RTS/CTS did not tame receiver-side collisions ({} vs {})",
        protected.stats(0).rx_errors,
        plain.stats(0).rx_errors
    );
    let plain_retries = plain.stats(1).retries + plain.stats(2).retries;
    let protected_retries = protected.stats(1).retries + protected.stats(2).retries;
    assert!(
        protected_retries < plain_retries,
        "RTS/CTS retried more ({protected_retries}) than plain DCF ({plain_retries})"
    );
    // And the protected runs still move real traffic.
    assert!(
        protected.stats(0).rx_accepted >= 150,
        "RTS/CTS delivered only {} frames in {HORIZON_MS} ms",
        protected.stats(0).rx_accepted
    );

    // Both runs took the cached path: sparse rows were built at the
    // first transmission, and every stored or omitted pair agrees with
    // a fresh evaluation through the walls.
    for (label, w) in [("plain", &plain), ("rts", &protected)] {
        assert!(
            w.neighbor_cache_stats().is_some(),
            "{label}: the walls world did not prime sparse rows"
        );
        let end = SimTime::from_millis(HORIZON_MS);
        let incoherent = w.grid_incoherence(end);
        assert!(incoherent.is_empty(), "{label}: {incoherent:?}");
    }
}
