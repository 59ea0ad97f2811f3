//! End-to-end payload integrity through the MAC: a fragmented legacy
//! MSDU and a run of aggregated EDCA MSDUs each reach the receiver with
//! exactly the bytes the sender queued, and the sender's completion
//! callback hands back the MSDU as it was queued.

use wn_mac80211::frame::{DsBits, Frame, SequenceControl};
use wn_mac80211::{
    boot, inject_at, qos_inject_at, AccessCategory, MacAddr, MacConfig, UpperCtx, UpperLayer,
    WlanWorld,
};
use wn_phy::geom::Point;
use wn_phy::units::Dbm;
use wn_phy::PhyStandard;
use wn_sim::{SimTime, Simulation};

/// What one station's upper layer saw: delivered bodies in order, and
/// `(body, more_fragments, ok)` per completion callback.
#[derive(Default)]
struct Recorder {
    delivered: Vec<Vec<u8>>,
    results: Vec<(Vec<u8>, bool, bool)>,
}

impl UpperLayer for Recorder {
    fn on_frame(&mut self, _ctx: &mut UpperCtx, frame: &Frame, _rssi: Dbm) {
        self.delivered.push(frame.body.to_vec());
    }

    fn on_tx_result(&mut self, _ctx: &mut UpperCtx, frame: &Frame, ok: bool) {
        self.results
            .push((frame.body.to_vec(), frame.fc.more_fragments, ok));
    }
}

/// A two-station world 5 m apart, each station recording what it saw:
/// station 0 sends, station 1 receives.
fn pair(cfg: MacConfig) -> Simulation<WlanWorld> {
    let mut w = WlanWorld::new(cfg);
    w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::<Recorder>::default(),
    );
    w.add_station(
        MacAddr::station(1),
        Point::new(5.0, 0.0),
        Box::<Recorder>::default(),
    );
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    sim
}

/// What station `id` of a [`pair`] recorded.
fn seen(sim: &Simulation<WlanWorld>, id: usize) -> &Recorder {
    sim.world().upper(id).expect("pair stations run Recorder")
}

fn frame(body: Vec<u8>) -> Frame {
    Frame::data(
        DsBits::Ibss,
        MacAddr::station(1),
        MacAddr::station(0),
        MacAddr::random_ibss_bssid(1),
        SequenceControl::default(),
        body,
    )
}

/// A body no two MSDUs of a test share: every byte depends on `tag`
/// and its offset.
fn pattern(tag: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            (i as u8)
                .wrapping_mul(31)
                .wrapping_add(tag.wrapping_mul(97))
        })
        .collect()
}

#[test]
fn fragmented_msdu_reassembles_and_reports_its_original_body() {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.frag_threshold = 300; // 1000 B -> fragments of 300, 300, 300, 100.
    cfg.seed = 11;
    let mut sim = pair(cfg);
    let body = pattern(5, 1000);
    inject_at(&mut sim, SimTime::from_millis(1), 0, frame(body.clone()));
    sim.run_until(SimTime::from_secs(1));
    assert!(
        sim.world().stats(0).tx_frames >= 4,
        "the MSDU went out as at least four fragments, sent {}",
        sim.world().stats(0).tx_frames
    );
    assert_eq!(
        seen(&sim, 1).delivered,
        vec![body.clone()],
        "the receiver reassembles exactly the queued bytes"
    );
    assert_eq!(
        seen(&sim, 0).results,
        vec![(body, false, true)],
        "the completion carries the original body with More Fragments clear"
    );
}

#[test]
fn aggregated_msdus_each_deliver_their_own_bytes() {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.edca = true;
    cfg.seed = 5;
    let mut sim = pair(cfg);
    // Distinct lengths as well as distinct bytes, so an offset slip
    // in de-aggregation cannot line up by accident.
    let bodies: Vec<Vec<u8>> = (0..6u8)
        .map(|i| pattern(i + 1, 120 + 53 * i as usize))
        .collect();
    for b in &bodies {
        qos_inject_at(
            &mut sim,
            SimTime::from_millis(1),
            0,
            frame(b.clone()),
            AccessCategory::Be,
        );
    }
    sim.run_until(SimTime::from_secs(1));
    assert!(
        sim.world().stats(0).tx_frames < bodies.len() as u64,
        "the MSDUs rode aggregates: {} transmissions for {} MSDUs",
        sim.world().stats(0).tx_frames,
        bodies.len()
    );
    assert_eq!(seen(&sim, 1).delivered, bodies);
    let results = seen(&sim, 0).results.clone();
    assert_eq!(results.len(), bodies.len());
    for ((body, more, ok), sent) in results.iter().zip(&bodies) {
        assert!(*ok && !*more);
        assert_eq!(body, sent);
    }
}

/// Two same-size EDCA MSDUs of `len` bytes with the aggregate byte cap
/// lifted to 1 MiB: what the receiver got, and the sender's outcomes.
fn ampdu_pair_of(len: usize) -> (Vec<Vec<u8>>, Vec<bool>, u64) {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.edca = true;
    cfg.ampdu_max_bytes = 1 << 20;
    cfg.seed = 3;
    let mut sim = pair(cfg);
    for tag in 0..2u8 {
        qos_inject_at(
            &mut sim,
            SimTime::from_millis(1),
            0,
            frame(pattern(tag, len)),
            AccessCategory::Be,
        );
    }
    sim.run_until(SimTime::from_secs(2));
    let delivered = seen(&sim, 1).delivered.clone();
    let outcomes = seen(&sim, 0).results.iter().map(|r| r.2).collect();
    (delivered, outcomes, sim.world().stats(0).queue_drops)
}

/// An A-MPDU subframe carries its length in 16 bits. The largest body
/// that fits still rides an aggregate intact; a larger one is refused
/// at enqueue instead of being truncated on the air into phantom
/// subframes (65,536 B once gave 5 deliveries, 70,000 B gave 6).
#[test]
fn ampdu_refuses_bodies_its_length_field_cannot_carry() {
    let (delivered, outcomes, drops) = ampdu_pair_of(65_535);
    assert_eq!(delivered, vec![pattern(0, 65_535), pattern(1, 65_535)]);
    assert_eq!(outcomes, vec![true, true]);
    assert_eq!(drops, 0);
    for len in [65_536, 70_000] {
        let (delivered, outcomes, drops) = ampdu_pair_of(len);
        assert!(
            delivered.is_empty(),
            "{len} B: {} phantom deliveries",
            delivered.len()
        );
        assert_eq!(outcomes, vec![false, false], "{len} B");
        assert_eq!(drops, 2, "{len} B");
    }
}
