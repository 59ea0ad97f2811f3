//! Traffic into the MAC: one-off injections and periodic sources.
//!
//! Irregular arrivals (Poisson, jittered telemetry, one-off test
//! frames) go through [`inject_at`] / [`qos_inject_at`]: each stages
//! its frame into the arena and parks one `Inject` timer on it.
//!
//! A saturated backlog is an arithmetic progression of identical
//! MSDUs into one queue. Staging it that way costs an arena frame and
//! a pending timer per MSDU for the whole run. A [`Source`] puts one
//! template frame into the arena instead and keeps a single arrival
//! pending: when arrival `k` fires ([`MacEvent::Arrival`]), the world
//! adds a reference to the template's slot, schedules arrival `k + 1`
//! and queues that reference — NS-2's split, where the traffic agent
//! sits outside `Mac802_11` and schedules its next packet when the
//! current one goes.
//!
//! Every queued MSDU of a source is thus the same arena slot. The MAC
//! writes to a queued frame in two places only — the Power Management
//! bit at enqueue, when the station's bit differs from the frame's,
//! and the sequence number when a legacy queue hands its head to a
//! new attempt — and both go through
//! [`FrameArena::make_mut`](crate::arena::FrameArena::make_mut), which
//! moves the writer to a private copy. Completions and drops hand the
//! upper layer its frame through
//! [`FrameArena::unwrap_or_clone`](crate::arena::FrameArena::unwrap_or_clone).
//! A backlog deeper than a sender can drain therefore costs a queue
//! entry per MSDU, not a frame.
//!
//! The `(time, seq)` tie order is what keeps this invisible:
//! [`add_source`] reserves the source's whole block of scheduler
//! sequence numbers when it is built, and arrival `k` is pushed under
//! `seq0 + k`. Every key is then exactly the key the per-frame
//! [`inject_at`] loop would have pushed, so the run pops the same
//! events in the same order.
//!
//! This file is a child module of `sim`, so the arrival handler works
//! on the world's private state directly.

use super::{AccessCategory, MacEvent, StationId, WlanWorld};
use crate::arena::FrameId;
use crate::frame::Frame;
use wn_sim::{Scheduler, SimDuration, SimTime, Simulation};

/// Stages `frame` into the world's arena and schedules its injection
/// into `station`'s transmit queue at `at` — the one-call form of
/// [`WlanWorld::stage_frame`] plus a [`MacEvent::Inject`], used by
/// traffic generators and scenario set-up.
pub fn inject_at(sim: &mut Simulation<WlanWorld>, at: SimTime, station: StationId, frame: Frame) {
    qos_inject_at(sim, at, station, frame, AccessCategory::Be);
}

/// [`inject_at`] with an explicit access category: the frame lands in
/// that AC's EDCA queue (the one DCF queue on a legacy world).
pub fn qos_inject_at(
    sim: &mut Simulation<WlanWorld>,
    at: SimTime,
    station: StationId,
    frame: Frame,
    ac: AccessCategory,
) {
    let frame = sim.world_mut().stage_frame(frame);
    sim.scheduler_mut()
        .schedule_at(at, MacEvent::Inject { station, frame, ac });
}

/// A periodic arrival process owned by the world: `count` arrivals of
/// `frame` into `station`'s `ac` queue at `first + k·period`.
pub struct Source {
    /// Sending station.
    pub station: StationId,
    /// Target access category (the one DCF queue on a legacy world).
    pub ac: AccessCategory,
    /// The template's arena slot. The source holds one reference for
    /// its lifetime (a term of
    /// [`WlanWorld::frame_ledger`](super::WlanWorld::frame_ledger)),
    /// and every arrival queues one more on the same slot.
    pub frame: FrameId,
    /// Time of arrival 0.
    pub first: SimTime,
    /// Spacing between arrivals; zero puts every arrival at `first`.
    pub period: SimDuration,
    /// Number of arrivals.
    pub count: u32,
    /// Scheduler sequence number of arrival 0; arrival `k` uses
    /// `seq0 + k`.
    pub seq0: u64,
}

impl Source {
    fn arrival_time(&self, k: u32) -> SimTime {
        self.first + self.period * u64::from(k)
    }
}

/// Adds a periodic source to the world, stores `frame` in its arena
/// and schedules the first arrival; returns the source's index.
/// Reserves `count` scheduler
/// sequence numbers, so sources built in the order a per-frame
/// [`inject_at`] / [`qos_inject_at`] loop would have staged
/// their frames produce that loop's event keys exactly.
///
/// # Panics
///
/// If `station` is not a station of the world, `first` is in the past
/// or `count` exceeds `u32::MAX`.
pub fn add_source(
    sim: &mut Simulation<WlanWorld>,
    station: StationId,
    ac: AccessCategory,
    frame: Frame,
    first: SimTime,
    period: SimDuration,
    count: u64,
) -> u32 {
    assert!(
        station < sim.world().stations.len(),
        "source station {station} is not in the world"
    );
    let n = u32::try_from(count).expect("a source has at most u32::MAX arrivals");
    let seq0 = sim.scheduler_mut().reserve_seqs(count);
    let world = sim.world_mut();
    let frame = world.frames.insert(frame);
    let sources = &mut world.sources;
    let id = u32::try_from(sources.len()).expect("fewer than 2^32 sources");
    sources.push(Source {
        station,
        ac,
        frame,
        first,
        period,
        count: n,
        seq0,
    });
    if n > 0 {
        sim.scheduler_mut()
            .schedule_reserved(first, seq0, MacEvent::Arrival { source: id, k: 0 });
    }
    id
}

impl WlanWorld {
    /// The world's periodic sources, in [`add_source`] order.
    pub fn sources(&self) -> &[Source] {
        &self.sources
    }

    /// Arrival `k` of `source`: take a reference to the template's
    /// slot, schedule the next arrival under its reserved seq, then
    /// queue the reference.
    pub(super) fn handle_arrival(
        &mut self,
        source: u32,
        k: u32,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let src = &self.sources[source as usize];
        let (station, ac) = (src.station, src.ac);
        let fid = src.frame;
        self.frames.retain(fid);
        let next = k + 1;
        if next < src.count {
            sched.schedule_reserved(
                src.arrival_time(next),
                src.seq0 + u64::from(next),
                MacEvent::Arrival { source, k: next },
            );
        }
        self.enqueue_id(station, fid, ac, now, sched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_arrival_does_not_grow_wheel_entries() {
        // `SetPosition` (station + a 3-D point) is the widest variant;
        // `Arrival` is two u32s and must stay inside that footprint, so
        // a wheel entry (packed key + event) stays one 64-byte line.
        assert_eq!(std::mem::size_of::<MacEvent>(), 40);
        assert_eq!(std::mem::size_of::<(u128, MacEvent)>(), 64);
    }
}
