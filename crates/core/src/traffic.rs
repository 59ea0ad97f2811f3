//! Traffic generators for the WLAN simulation.
//!
//! Three arrival models cover the workloads the text's applications
//! section implies: constant-bit-rate streams (§7 surveillance
//! cameras), Poisson request traffic (web browsing at the hot spot),
//! and periodic telemetry with jitter (M2M meter reading).
//! All are deterministic given their seed. A CBR stream is a periodic
//! [`add_source`] that keeps one arrival pending; Poisson and telemetry
//! arrivals are irregular, so they stage each frame into the world's
//! arena up front, scheduling compact [`wn_mac80211::MacEvent::Inject`]
//! events that carry only frame ids.

use wn_mac80211::addr::MacAddr;
use wn_mac80211::frame::{DsBits, Frame, SequenceControl};
use wn_mac80211::payload::Payload;
use wn_mac80211::sim::{add_source, inject_at, AccessCategory, StationId, WlanWorld};
use wn_sim::{Rng, SimDuration, SimTime, Simulation};

/// A traffic flow description.
#[derive(Clone, Debug)]
pub struct Flow {
    /// Sending station.
    pub from: StationId,
    /// Destination MAC address.
    pub to: MacAddr,
    /// The body every packet of the flow carries, built once and
    /// shared by every frame the flow stages.
    pub payload: Payload,
    /// Source address stamped into the frames.
    pub source_addr: MacAddr,
    /// BSSID stamped into the frames (IBSS-style direct frames).
    pub bssid: MacAddr,
}

impl Flow {
    /// A direct (ad hoc style) flow between two stations of a world,
    /// carrying `payload` bytes per packet.
    pub fn direct(world: &WlanWorld, from: StationId, to: StationId, payload: usize) -> Flow {
        Flow {
            from,
            to: world.addr(to),
            payload: Payload::from(vec![0xF1; payload]),
            source_addr: world.addr(from),
            bssid: MacAddr::random_ibss_bssid(1),
        }
    }

    fn frame(&self) -> Frame {
        Frame::data(
            DsBits::Ibss,
            self.to,
            self.source_addr,
            self.bssid,
            SequenceControl::default(),
            self.payload.clone(),
        )
    }
}

/// Schedules a constant-bit-rate stream: one packet every
/// `payload·8/rate_bps` seconds over `[start, until)`, as one periodic
/// source.
///
/// Returns the number of packets scheduled.
///
/// # Panics
///
/// If the rate is not positive, or the packet interval rounds to zero
/// nanoseconds (an empty payload or an extreme rate).
pub fn cbr(
    sim: &mut Simulation<WlanWorld>,
    flow: &Flow,
    rate_bps: f64,
    start: SimTime,
    until: SimTime,
) -> u64 {
    assert!(rate_bps > 0.0, "rate must be positive");
    let interval = SimDuration::from_secs_f64(flow.payload.len() as f64 * 8.0 / rate_bps);
    assert!(interval.as_nanos() > 0, "packet interval rounds to zero");
    let span = until.as_nanos().saturating_sub(start.as_nanos());
    let n = span.div_ceil(interval.as_nanos());
    add_source(
        sim,
        flow.from,
        AccessCategory::Be,
        flow.frame(),
        start,
        interval,
        n,
    );
    n
}

/// Schedules Poisson arrivals at `mean_rate_pps` packets per second.
///
/// Returns the number of packets scheduled.
pub fn poisson(
    sim: &mut Simulation<WlanWorld>,
    flow: &Flow,
    mean_rate_pps: f64,
    seed: u64,
    start: SimTime,
    until: SimTime,
) -> u64 {
    assert!(mean_rate_pps > 0.0, "rate must be positive");
    let mut rng = Rng::new(seed ^ 0x9 ^ flow.from as u64);
    let mut t = start;
    let mut n = 0;
    loop {
        t += SimDuration::from_secs_f64(rng.exponential(1.0 / mean_rate_pps));
        if t >= until {
            break;
        }
        inject_at(sim, t, flow.from, flow.frame());
        n += 1;
    }
    n
}

/// Schedules periodic telemetry with uniform jitter: one packet every
/// `period` ± `jitter` (the §7 "automatic meter reading" shape).
///
/// Returns the number of packets scheduled.
pub fn telemetry(
    sim: &mut Simulation<WlanWorld>,
    flow: &Flow,
    period: SimDuration,
    jitter: SimDuration,
    seed: u64,
    start: SimTime,
    until: SimTime,
) -> u64 {
    assert!(jitter <= period, "jitter must not exceed the period");
    let mut rng = Rng::new(seed ^ 0x7E1E ^ flow.from as u64);
    let mut t = start;
    let mut n = 0;
    while t < until {
        let offset = SimDuration::from_nanos(rng.below(jitter.as_nanos().max(1)));
        inject_at(sim, t + offset, flow.from, flow.frame());
        t += period;
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use wn_mac80211::sim::{boot, MacConfig, NullUpper};
    use wn_phy::geom::Point;
    use wn_phy::modulation::PhyStandard;

    fn two_station_sim(seed: u64) -> Simulation<WlanWorld> {
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = seed;
        let mut w = WlanWorld::new(cfg);
        w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        w.add_station(
            MacAddr::station(1),
            Point::new(8.0, 0.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        sim
    }

    #[test]
    fn cbr_delivers_at_the_configured_rate() {
        let mut sim = two_station_sim(1);
        let flow = Flow::direct(sim.world(), 0, 1, 500);
        // 1 Mbps for one second = 250 packets of 500 B.
        let n = cbr(&mut sim, &flow, 1e6, SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(n, 250);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.world().stats(1).rx_accepted, 250);
        let mbps = sim.world().stats(1).rx_payload_bytes as f64 * 8.0 / 1e6;
        assert!((mbps - 1.0).abs() < 0.01, "{mbps}");
    }

    #[test]
    fn poisson_mean_rate_close() {
        let mut sim = two_station_sim(2);
        let flow = Flow::direct(sim.world(), 0, 1, 200);
        let n = poisson(
            &mut sim,
            &flow,
            500.0,
            7,
            SimTime::ZERO,
            SimTime::from_secs(4),
        );
        // 500 pps over 4 s → ~2000 arrivals, ±10%.
        assert!((1800..2200).contains(&(n as i64)), "n = {n}");
        sim.run_until(SimTime::from_secs(5));
        // Light load at 54 Mbps: everything arrives.
        assert_eq!(sim.world().stats(1).rx_accepted, n);
    }

    #[test]
    fn poisson_deterministic_per_seed() {
        let counts: Vec<u64> = (0..2)
            .map(|_| {
                let mut sim = two_station_sim(3);
                let flow = Flow::direct(sim.world(), 0, 1, 100);
                poisson(
                    &mut sim,
                    &flow,
                    100.0,
                    11,
                    SimTime::ZERO,
                    SimTime::from_secs(2),
                )
            })
            .collect();
        assert_eq!(counts[0], counts[1]);
    }

    #[test]
    fn telemetry_period_and_jitter() {
        let mut sim = two_station_sim(4);
        let flow = Flow::direct(sim.world(), 0, 1, 64);
        let n = telemetry(
            &mut sim,
            &flow,
            SimDuration::from_millis(100),
            SimDuration::from_millis(20),
            5,
            SimTime::ZERO,
            SimTime::from_secs(2),
        );
        assert_eq!(n, 20);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.world().stats(1).rx_accepted, 20);
    }

    #[test]
    fn flow_frames_share_one_payload() {
        let sim = two_station_sim(6);
        let flow = Flow::direct(sim.world(), 0, 1, 300);
        let (a, b) = (flow.frame(), flow.frame());
        assert_eq!(a.body.as_ptr(), b.body.as_ptr());
        assert_eq!(a.body, vec![0xF1; 300]);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let mut sim = two_station_sim(5);
        let flow = Flow::direct(sim.world(), 0, 1, 100);
        cbr(&mut sim, &flow, 0.0, SimTime::ZERO, SimTime::from_secs(1));
    }
}
