//! The 802.16 point-to-multipoint frame scheduler.
//!
//! §2.3: one base station serves "thousands of users". Time is divided
//! into 5 ms frames; each frame the BS grants downlink capacity to its
//! subscriber stations according to their service class:
//!
//! - **UGS** (unsolicited grant service) — fixed periodic grants,
//!   served first (voice/T1 emulation).
//! - **rtPS** (real-time polling) — latency-sensitive variable rate.
//! - **nrtPS** (non-real-time polling) — minimum-rate guaranteed bulk.
//! - **BE** (best effort) — whatever is left, shared fairly.
//!
//! Capacity is measured in *bytes per frame*, derived from each SS's
//! burst profile — a distant SS at QPSK consumes more symbol time per
//! byte, which the scheduler accounts for by charging bytes at the
//! subscriber's own rate.

use std::collections::VecDeque;

use crate::link::{LinkError, WimaxLink};
use wn_sim::metrics::{MetricsRegistry, MetricsSnapshot};
use wn_sim::trace::{DropReason, FrameKind, Level, Trace, TraceEvent};
use wn_sim::{Scheduler, SimDuration, SimTime, Simulation, World};

/// The 802.16 scheduling service classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServiceClass {
    /// Unsolicited grant service: fixed reserved rate.
    Ugs,
    /// Real-time polling service.
    Rtps,
    /// Non-real-time polling service.
    Nrtps,
    /// Best effort.
    BestEffort,
}

/// Subscriber-station id.
pub type SubscriberId = usize;

/// Frame duration: 5 ms.
pub const FRAME: SimDuration = SimDuration::from_millis(5);

struct Subscriber {
    class: ServiceClass,
    /// Guaranteed rate (bps) for UGS/rtPS/nrtPS.
    reserved_bps: f64,
    /// Achievable PHY rate from the link model (bps).
    phy_bps: f64,
    queue: VecDeque<usize>,
    queued_bytes: usize,
    delivered_bytes: u64,
    dropped: u64,
    /// Uplink backlog at the SS (bytes), advertised via bandwidth
    /// requests.
    ul_backlog: usize,
    /// Uplink bytes landed at the BS.
    ul_delivered: u64,
}

/// Events driving the base station.
pub enum WimaxEvent {
    /// The next 5 ms frame boundary.
    FrameTick,
    /// Enqueue `bytes` of downlink traffic for a subscriber.
    Offer {
        /// Target SS.
        ss: SubscriberId,
        /// Bytes to queue.
        bytes: usize,
    },
    /// An SS queues `bytes` of uplink traffic (it will raise bandwidth
    /// requests until granted).
    OfferUplink {
        /// Originating SS.
        ss: SubscriberId,
        /// Bytes to queue.
        bytes: usize,
    },
}

/// A WiMAX base station with its subscribers (the Fig. 1.7 tower).
pub struct BaseStation {
    link: WimaxLink,
    subscribers: Vec<Subscriber>,
    /// Downlink share of each frame (0–1).
    pub dl_ratio: f64,
    /// Queue limit per SS, bytes.
    pub queue_limit_bytes: usize,
    frames: u64,
    /// Typed event trace (grants at Debug, overflow drops at Warn).
    pub trace: Trace,
}

impl BaseStation {
    /// Creates a base station with the given link model.
    ///
    /// # Panics
    ///
    /// On a link [`WimaxLink::validate`] rejects, naming the offending
    /// field; [`BaseStation::try_new`] returns the error instead.
    pub fn new(link: WimaxLink) -> Self {
        match Self::try_new(link) {
            Ok(bs) => bs,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`BaseStation::new`] for a link that may be invalid: the error
    /// names the field [`WimaxLink::validate`] rejected.
    pub fn try_new(link: WimaxLink) -> Result<Self, LinkError> {
        link.validate()?;
        Ok(BaseStation {
            link,
            subscribers: Vec::new(),
            dl_ratio: 0.6,
            queue_limit_bytes: 1 << 20,
            frames: 0,
            trace: Trace::new(4096),
        })
    }

    /// Adds a subscriber at `distance_m`; returns `None` when the link
    /// cannot close at all.
    pub fn add_subscriber(
        &mut self,
        distance_m: f64,
        obstructed: bool,
        class: ServiceClass,
        reserved_bps: f64,
    ) -> Option<SubscriberId> {
        let rate = self.link.rate_at(distance_m, obstructed)?;
        self.subscribers.push(Subscriber {
            class,
            reserved_bps,
            phy_bps: rate.bps(),
            queue: VecDeque::new(),
            queued_bytes: 0,
            delivered_bytes: 0,
            dropped: 0,
            ul_backlog: 0,
            ul_delivered: 0,
        });
        Some(self.subscribers.len() - 1)
    }

    /// Bytes delivered to a subscriber so far.
    pub fn delivered_bytes(&self, ss: SubscriberId) -> u64 {
        self.subscribers[ss].delivered_bytes
    }

    /// Offered-but-dropped count for a subscriber.
    pub fn dropped(&self, ss: SubscriberId) -> u64 {
        self.subscribers[ss].dropped
    }

    /// Frames elapsed.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Total delivered across subscribers.
    pub fn total_delivered(&self) -> u64 {
        self.subscribers.iter().map(|s| s.delivered_bytes).sum()
    }

    /// Uplink bytes a subscriber has landed at the BS.
    pub fn ul_delivered_bytes(&self, ss: SubscriberId) -> u64 {
        self.subscribers[ss].ul_delivered
    }

    /// Downlink bytes still queued at the BS for a subscriber.
    pub fn queued_bytes(&self, ss: SubscriberId) -> u64 {
        self.subscribers[ss].queued_bytes as u64
    }

    /// Uplink backlog (bytes) a subscriber is still advertising.
    pub fn ul_backlog(&self, ss: SubscriberId) -> u64 {
        self.subscribers[ss].ul_backlog as u64
    }

    /// Number of admitted subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }

    /// Exports per-subscriber delivery/backlog counters and frame
    /// accounting into a named snapshot at time `now`.
    pub fn metrics_snapshot(&self, now: SimTime) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new();
        for (i, s) in self.subscribers.iter().enumerate() {
            let id = Some(i as u32);
            reg.counter("wman", "dl_delivered_bytes", id)
                .add(s.delivered_bytes);
            reg.counter("wman", "ul_delivered_bytes", id)
                .add(s.ul_delivered);
            reg.counter("wman", "dropped", id).add(s.dropped);
            reg.counter("wman", "queued_bytes", id)
                .add(s.queued_bytes as u64);
        }
        reg.counter("wman", "frames", None).add(self.frames);
        reg.snapshot(now)
    }

    /// Serves one frame: symbol time is the scarce resource. Each SS's
    /// grant is converted to bytes at its own PHY rate.
    fn serve_frame(&mut self, now: SimTime) {
        self.frames += 1;
        let frame_s = FRAME.as_secs_f64() * self.dl_ratio;
        let mut time_left = frame_s;

        // Pass 1: reserved grants (UGS first, then rtPS, then nrtPS).
        let mut order: Vec<usize> = (0..self.subscribers.len()).collect();
        order.sort_by_key(|&i| self.subscribers[i].class);
        for &i in &order {
            if time_left <= 0.0 {
                break;
            }
            let s = &mut self.subscribers[i];
            if s.class == ServiceClass::BestEffort || s.reserved_bps <= 0.0 {
                continue;
            }
            // The reserved grant in seconds of symbol time per frame.
            let grant_bytes = s.reserved_bps * FRAME.as_secs_f64() / 8.0;
            let want_bytes = (s.queued_bytes as f64).min(grant_bytes);
            let need_s = want_bytes * 8.0 / s.phy_bps;
            let use_s = need_s.min(time_left);
            let moved = (use_s * s.phy_bps / 8.0) as usize;
            Self::dequeue(s, moved);
            time_left -= use_s;
            if moved > 0 {
                self.trace.event(
                    now,
                    Level::Debug,
                    "wman",
                    TraceEvent::Grant {
                        station: i as u32,
                        bytes: moved as u64,
                        uplink: false,
                    },
                );
            }
        }

        // Uplink subframe: grants against advertised backlogs, reserved
        // classes first, the remainder shared round-robin.
        let ul_s = FRAME.as_secs_f64() * (1.0 - self.dl_ratio).max(0.0);
        let mut ul_left = ul_s;
        let mut order_ul: Vec<usize> = (0..self.subscribers.len()).collect();
        order_ul.sort_by_key(|&i| self.subscribers[i].class);
        for &i in &order_ul {
            if ul_left <= 0.0 {
                break;
            }
            let s = &mut self.subscribers[i];
            if s.class == ServiceClass::BestEffort || s.reserved_bps <= 0.0 {
                continue;
            }
            let grant_bytes = s.reserved_bps * FRAME.as_secs_f64() / 8.0;
            let want = (s.ul_backlog as f64).min(grant_bytes);
            let need_s = want * 8.0 / s.phy_bps;
            let use_s = need_s.min(ul_left);
            let moved = (use_s * s.phy_bps / 8.0) as usize;
            let moved = moved.min(s.ul_backlog);
            s.ul_backlog -= moved;
            s.ul_delivered += moved as u64;
            ul_left -= use_s;
            if moved > 0 {
                self.trace.event(
                    now,
                    Level::Debug,
                    "wman",
                    TraceEvent::Grant {
                        station: i as u32,
                        bytes: moved as u64,
                        uplink: true,
                    },
                );
            }
        }
        let mut ul_backlogged: Vec<usize> = (0..self.subscribers.len())
            .filter(|&i| self.subscribers[i].ul_backlog > 0)
            .collect();
        while ul_left > 1e-9 && !ul_backlogged.is_empty() {
            let share = ul_left / ul_backlogged.len() as f64;
            let mut next = Vec::new();
            for &i in &ul_backlogged {
                let s = &mut self.subscribers[i];
                let can = ((share * s.phy_bps / 8.0) as usize).min(s.ul_backlog);
                s.ul_backlog -= can;
                s.ul_delivered += can as u64;
                ul_left -= can as f64 * 8.0 / s.phy_bps;
                if s.ul_backlog > 0 {
                    next.push(i);
                }
                if can > 0 {
                    self.trace.event(
                        now,
                        Level::Debug,
                        "wman",
                        TraceEvent::Grant {
                            station: i as u32,
                            bytes: can as u64,
                            uplink: true,
                        },
                    );
                }
            }
            if next.len() == ul_backlogged.len() {
                break;
            }
            ul_backlogged = next;
        }

        // Pass 2: the remainder is shared round-robin over every
        // backlogged SS (best effort + excess demand).
        let mut backlogged: Vec<usize> = (0..self.subscribers.len())
            .filter(|&i| self.subscribers[i].queued_bytes > 0)
            .collect();
        while time_left > 1e-9 && !backlogged.is_empty() {
            let share = time_left / backlogged.len() as f64;
            let mut next = Vec::new();
            for &i in &backlogged {
                let s = &mut self.subscribers[i];
                let can_bytes = (share * s.phy_bps / 8.0) as usize;
                let moved = can_bytes.min(s.queued_bytes);
                Self::dequeue(s, moved);
                let used = moved as f64 * 8.0 / s.phy_bps;
                time_left -= used;
                if s.queued_bytes > 0 {
                    next.push(i);
                }
                if moved > 0 {
                    self.trace.event(
                        now,
                        Level::Debug,
                        "wman",
                        TraceEvent::Grant {
                            station: i as u32,
                            bytes: moved as u64,
                            uplink: false,
                        },
                    );
                }
            }
            if next.len() == backlogged.len() {
                // Nobody drained fully: the shares consumed the frame.
                break;
            }
            backlogged = next;
        }
    }

    fn dequeue(s: &mut Subscriber, mut bytes: usize) {
        while bytes > 0 {
            let Some(front) = s.queue.front_mut() else {
                break;
            };
            let take = (*front).min(bytes);
            *front -= take;
            bytes -= take;
            s.queued_bytes -= take;
            s.delivered_bytes += take as u64;
            if *front == 0 {
                s.queue.pop_front();
            }
        }
    }
}

impl World for BaseStation {
    type Event = WimaxEvent;

    fn handle(&mut self, now: SimTime, ev: WimaxEvent, sched: &mut Scheduler<WimaxEvent>) {
        match ev {
            WimaxEvent::FrameTick => {
                self.serve_frame(now);
                sched.schedule_in(FRAME, WimaxEvent::FrameTick);
            }
            WimaxEvent::Offer { ss, bytes } => {
                let limit = self.queue_limit_bytes;
                let s = &mut self.subscribers[ss];
                if s.queued_bytes + bytes > limit {
                    s.dropped += 1;
                    self.trace.event(
                        now,
                        Level::Warn,
                        "wman",
                        TraceEvent::Drop {
                            station: ss as u32,
                            kind: FrameKind::Data,
                            reason: DropReason::QueueFull,
                        },
                    );
                } else {
                    s.queue.push_back(bytes);
                    s.queued_bytes += bytes;
                }
            }
            WimaxEvent::OfferUplink { ss, bytes } => {
                let limit = self.queue_limit_bytes;
                let s = &mut self.subscribers[ss];
                if s.ul_backlog + bytes > limit {
                    s.dropped += 1;
                    self.trace.event(
                        now,
                        Level::Warn,
                        "wman",
                        TraceEvent::Drop {
                            station: ss as u32,
                            kind: FrameKind::Data,
                            reason: DropReason::QueueFull,
                        },
                    );
                } else {
                    s.ul_backlog += bytes;
                }
            }
        }
    }
}

/// Boots the frame clock.
pub fn boot(sim: &mut Simulation<BaseStation>) {
    sim.scheduler_mut()
        .schedule_at(SimTime::ZERO, WimaxEvent::FrameTick);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saturate(sim: &mut Simulation<BaseStation>, ss: SubscriberId, secs: u64) {
        // Keep far more than a frame's worth queued throughout.
        sim.world_mut().queue_limit_bytes = 256 << 20;
        for t in 0..secs * 10 {
            sim.scheduler_mut().schedule_at(
                SimTime::from_millis(t * 100),
                WimaxEvent::Offer {
                    ss,
                    bytes: 4_000_000,
                },
            );
        }
    }

    #[test]
    fn single_close_subscriber_approaches_70_mbps() {
        let mut bs = BaseStation::new(WimaxLink::default());
        bs.dl_ratio = 1.0;
        let ss = bs
            .add_subscriber(1_000.0, false, ServiceClass::BestEffort, 0.0)
            .unwrap();
        let mut sim = Simulation::new(bs);
        boot(&mut sim);
        saturate(&mut sim, ss, 5);
        sim.run_until(SimTime::from_secs(5));
        let mbps = sim.world().delivered_bytes(ss) as f64 * 8.0 / 5.0 / 1e6;
        assert!((60.0..71.0).contains(&mbps), "{mbps} Mbps");
    }

    #[test]
    fn capacity_shared_among_equal_subscribers() {
        let mut bs = BaseStation::new(WimaxLink::default());
        bs.dl_ratio = 1.0;
        let mut ids = Vec::new();
        for _ in 0..5 {
            ids.push(
                bs.add_subscriber(1_000.0, false, ServiceClass::BestEffort, 0.0)
                    .unwrap(),
            );
        }
        let mut sim = Simulation::new(bs);
        boot(&mut sim);
        for &ss in &ids {
            saturate(&mut sim, ss, 5);
        }
        sim.run_until(SimTime::from_secs(5));
        let rates: Vec<f64> = ids
            .iter()
            .map(|&ss| sim.world().delivered_bytes(ss) as f64 * 8.0 / 5.0 / 1e6)
            .collect();
        let total: f64 = rates.iter().sum();
        assert!((55.0..71.0).contains(&total), "total {total}");
        for r in &rates {
            assert!((r - total / 5.0).abs() < total * 0.05, "unfair: {rates:?}");
        }
    }

    #[test]
    fn distant_subscriber_consumes_more_airtime() {
        // A far SS at QPSK drags the aggregate down — the classic PMP
        // effect. Compare aggregate with two near vs near+far.
        let run = |far: bool| {
            // Low masts: the two-ray crossover lands at ~3 km, so the
            // far subscriber genuinely falls down the profile ladder.
            let link = WimaxLink {
                bs_height_m: 10.0,
                ss_height_m: 2.0,
                ..WimaxLink::default()
            };
            let mut bs = BaseStation::new(link);
            bs.dl_ratio = 1.0;
            let a = bs
                .add_subscriber(1_000.0, false, ServiceClass::BestEffort, 0.0)
                .unwrap();
            let b_dist = if far { 45_000.0 } else { 1_000.0 };
            let b = bs
                .add_subscriber(b_dist, false, ServiceClass::BestEffort, 0.0)
                .unwrap();
            let mut sim = Simulation::new(bs);
            boot(&mut sim);
            saturate(&mut sim, a, 5);
            saturate(&mut sim, b, 5);
            sim.run_until(SimTime::from_secs(5));
            sim.world().total_delivered() as f64 * 8.0 / 5.0 / 1e6
        };
        let near_only = run(false);
        let with_far = run(true);
        assert!(
            with_far < near_only * 0.8,
            "far SS should depress aggregate: near={near_only} far={with_far}"
        );
    }

    #[test]
    fn ugs_rate_guaranteed_under_congestion() {
        let mut bs = BaseStation::new(WimaxLink::default());
        bs.dl_ratio = 1.0;
        // A 10 Mbps UGS flow plus 6 saturated best-effort hogs.
        let ugs = bs
            .add_subscriber(5_000.0, false, ServiceClass::Ugs, 10e6)
            .unwrap();
        let mut hogs = Vec::new();
        for _ in 0..6 {
            hogs.push(
                bs.add_subscriber(5_000.0, false, ServiceClass::BestEffort, 0.0)
                    .unwrap(),
            );
        }
        let mut sim = Simulation::new(bs);
        boot(&mut sim);
        saturate(&mut sim, ugs, 5);
        for &h in &hogs {
            saturate(&mut sim, h, 5);
        }
        sim.run_until(SimTime::from_secs(5));
        let ugs_mbps = sim.world().delivered_bytes(ugs) as f64 * 8.0 / 5.0 / 1e6;
        assert!(
            ugs_mbps >= 9.5,
            "UGS got only {ugs_mbps} Mbps under congestion"
        );
    }

    #[test]
    fn uplink_grants_deliver_traffic() {
        let mut bs = BaseStation::new(WimaxLink::default());
        bs.dl_ratio = 0.5;
        bs.queue_limit_bytes = 64 << 20;
        let ss = bs
            .add_subscriber(2_000.0, false, ServiceClass::BestEffort, 0.0)
            .unwrap();
        let mut sim = Simulation::new(bs);
        boot(&mut sim);
        sim.scheduler_mut().schedule_at(
            SimTime::ZERO,
            WimaxEvent::OfferUplink {
                ss,
                bytes: 2_000_000,
            },
        );
        sim.run_until(SimTime::from_secs(1));
        let got = sim.world().ul_delivered_bytes(ss);
        assert_eq!(got, 2_000_000, "the uplink backlog drains fully");
    }

    #[test]
    fn uplink_capacity_is_the_other_subframe() {
        // dl_ratio 0.5 → UL gets ~35 Mbps of the 70 Mbps cell.
        let mut bs = BaseStation::new(WimaxLink::default());
        bs.dl_ratio = 0.5;
        bs.queue_limit_bytes = 256 << 20;
        let ss = bs
            .add_subscriber(1_000.0, false, ServiceClass::BestEffort, 0.0)
            .unwrap();
        let mut sim = Simulation::new(bs);
        boot(&mut sim);
        for t in 0..10 {
            sim.scheduler_mut().schedule_at(
                SimTime::from_millis(t * 100),
                WimaxEvent::OfferUplink {
                    ss,
                    bytes: 8_000_000,
                },
            );
        }
        sim.run_until(SimTime::from_secs(1));
        let mbps = sim.world().ul_delivered_bytes(ss) as f64 * 8.0 / 1e6;
        assert!((30.0..36.0).contains(&mbps), "UL throughput {mbps} Mbps");
    }

    #[test]
    fn ugs_uplink_guaranteed_under_uplink_congestion() {
        let mut bs = BaseStation::new(WimaxLink::default());
        bs.dl_ratio = 0.5;
        bs.queue_limit_bytes = 256 << 20;
        let ugs = bs
            .add_subscriber(5_000.0, false, ServiceClass::Ugs, 8e6)
            .unwrap();
        let mut hogs = Vec::new();
        for _ in 0..5 {
            hogs.push(
                bs.add_subscriber(5_000.0, false, ServiceClass::BestEffort, 0.0)
                    .unwrap(),
            );
        }
        let mut sim = Simulation::new(bs);
        boot(&mut sim);
        for t in 0..10u64 {
            sim.scheduler_mut().schedule_at(
                SimTime::from_millis(t * 100),
                WimaxEvent::OfferUplink {
                    ss: ugs,
                    bytes: 1_000_000,
                },
            );
            for &h in &hogs {
                sim.scheduler_mut().schedule_at(
                    SimTime::from_millis(t * 100),
                    WimaxEvent::OfferUplink {
                        ss: h,
                        bytes: 8_000_000,
                    },
                );
            }
        }
        sim.run_until(SimTime::from_secs(1));
        let ugs_mbps = sim.world().ul_delivered_bytes(ugs) as f64 * 8.0 / 1e6;
        assert!(ugs_mbps >= 7.5, "UGS uplink got only {ugs_mbps} Mbps");
    }

    #[test]
    fn out_of_range_subscriber_rejected() {
        let mut bs = BaseStation::new(WimaxLink::default());
        assert!(bs
            .add_subscriber(500_000.0, false, ServiceClass::BestEffort, 0.0)
            .is_none());
    }

    #[test]
    fn queue_limit_drops_offers() {
        let mut bs = BaseStation::new(WimaxLink::default());
        bs.queue_limit_bytes = 10_000;
        let ss = bs
            .add_subscriber(1_000.0, false, ServiceClass::BestEffort, 0.0)
            .unwrap();
        let mut sim = Simulation::new(bs);
        // No frame clock: queue just fills.
        for _ in 0..5 {
            sim.scheduler_mut()
                .schedule_at(SimTime::ZERO, WimaxEvent::Offer { ss, bytes: 4_000 });
        }
        sim.run();
        assert_eq!(sim.world().dropped(ss), 3);
    }

    #[test]
    fn dl_ratio_scales_throughput() {
        let run = |ratio: f64| {
            let mut bs = BaseStation::new(WimaxLink::default());
            bs.dl_ratio = ratio;
            let ss = bs
                .add_subscriber(1_000.0, false, ServiceClass::BestEffort, 0.0)
                .unwrap();
            let mut sim = Simulation::new(bs);
            boot(&mut sim);
            saturate(&mut sim, ss, 2);
            sim.run_until(SimTime::from_secs(2));
            sim.world().delivered_bytes(ss) as f64
        };
        let full = run(1.0);
        let half = run(0.5);
        assert!(
            (half / full - 0.5).abs() < 0.05,
            "half/full = {}",
            half / full
        );
    }

    #[test]
    fn try_new_names_each_rejected_link_field() {
        type Set = fn(&mut WimaxLink, f64);
        let fields: [(&str, Set); 3] = [
            ("bandwidth", |l, v| l.bandwidth = wn_phy::units::Hertz(v)),
            ("bs_height_m", |l, v| l.bs_height_m = v),
            ("ss_height_m", |l, v| l.ss_height_m = v),
        ];
        for (field, set) in fields {
            for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
                let mut link = WimaxLink::default();
                set(&mut link, bad);
                let err = BaseStation::try_new(link.clone()).err().expect("rejected");
                assert!(err.0.starts_with(field), "{field}={bad}: {err}");
                assert_eq!(link.validate(), Err(err));
            }
        }
        assert!(BaseStation::try_new(WimaxLink::default()).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid WimaxLink: ss_height_m must be positive and finite")]
    fn new_panics_with_the_try_new_message() {
        let link = WimaxLink {
            ss_height_m: 0.0,
            ..WimaxLink::default()
        };
        BaseStation::new(link);
    }
}
