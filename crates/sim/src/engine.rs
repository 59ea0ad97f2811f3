//! The discrete-event engine.
//!
//! A [`Simulation`] owns a user-defined [`World`] (all mutable model
//! state) and a [`Scheduler`] (the pending-event queue). The main loop
//! repeatedly pops the earliest event and hands it to
//! [`World::handle`], which may mutate the world and schedule further
//! events. Events scheduled for the same instant are delivered in the
//! order they were scheduled (FIFO), which makes runs fully
//! deterministic.

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use crate::stats::{fnv1a_extend, FNV1A_OFFSET};
use crate::time::{SimDuration, SimTime};
use crate::wheel::TimerWheel;

/// Events processed by every simulation in this process, across threads.
///
/// Updated in bulk at the end of each `run*` loop (not per event) so the
/// hot path stays free of atomics; campaign-level tooling reads it to
/// report aggregate events/sec.
static GLOBAL_PROCESSED: AtomicU64 = AtomicU64::new(0);

/// Total events delivered through `run`/`run_until`/`run_bounded` by all
/// simulations in this process since start-up.
pub fn global_events_processed() -> u64 {
    GLOBAL_PROCESSED.load(AtomicOrdering::Relaxed)
}

/// Packs an event's `(time, seq)` ordering pair into a single `u128`.
///
/// The timestamp occupies the high 64 bits and the FIFO sequence number
/// the low 64, so one integer compare reproduces the lexicographic
/// `(SimTime, seq)` order exactly — earlier time first, then lower seq.
/// The timer wheel buckets by the high half and sorts a drained tick by
/// the whole key.
#[inline]
pub fn event_key(at: SimTime, seq: u64) -> u128 {
    ((at.as_nanos() as u128) << 64) | seq as u128
}

/// Recovers the timestamp from a packed [`event_key`].
#[inline]
pub fn key_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

/// Model state driven by the engine.
///
/// Implementors own every piece of mutable simulation state and react to
/// events by mutating themselves and scheduling follow-up events.
pub trait World {
    /// The domain-specific event type.
    type Event;

    /// Handles one event at virtual time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Which event queue a [`Scheduler`] drains.
///
/// The timer wheel ([`crate::wheel`]) is the only queue. This
/// one-variant enum survives because the benchmark package names it;
/// the `kind` parameters that take it are ignored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Hierarchical timer wheel / calendar queue.
    #[default]
    TimerWheel,
}

/// Marks a pop in a recorded scheduler op stream — see
/// [`Scheduler::record_ops`]. Never collides with a real [`event_key`]
/// in practice: it would need both the maximum timestamp and the
/// maximum sequence number.
pub const OP_POP: u128 = u128::MAX;

/// The pending-event queue plus the virtual clock.
pub struct Scheduler<E> {
    // Boxed: the wheel's inline slot arrays are large to move.
    queue: Box<TimerWheel<E>>,
    now: SimTime,
    next_seq: u64,
    scheduled_total: u64,
    /// When recording, every push appends its key and every pop appends
    /// [`OP_POP`] — the stream [`replay_ops`] consumes.
    op_log: Option<Vec<u128>>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            queue: Box::default(),
            now: SimTime::ZERO,
            next_seq: 0,
            scheduled_total: 0,
            op_log: None,
        }
    }

    /// Starts recording the scheduler op stream (pushed keys and pop
    /// markers). The bench suite replays it to time the queue alone;
    /// `wn-check` replays it through a reference heap to check the
    /// wheel's pop order. Events already pending are logged first, as
    /// pushes in key order, so every pop in the stream has a matching
    /// push wherever recording starts.
    pub fn record_ops(&mut self) {
        let mut pending: Vec<u128> = self.queue.keys().collect();
        pending.sort_unstable();
        self.op_log = Some(pending);
    }

    /// Takes the recorded op stream, leaving recording disabled.
    pub fn take_op_log(&mut self) -> Vec<u128> {
        self.op_log.take().unwrap_or_default()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total number of events ever scheduled (monotone counter).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — delivering an event before the
    /// current instant would violate causality.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push(event_key(at, seq), event);
    }

    /// Reserves `n` consecutive sequence numbers and returns the first.
    ///
    /// A periodic source reserves its whole block when it is built and
    /// pushes arrival `k` under `first + k` with
    /// [`schedule_reserved`](Self::schedule_reserved) only when arrival
    /// `k − 1` fires. Its keys, and so the `(time, seq)` tie order
    /// against every other event, are those that pushing all `n`
    /// arrivals up front with [`schedule_at`](Self::schedule_at) would
    /// have produced — without holding `n` pending entries.
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Schedules `event` at `at` under a sequence number taken earlier
    /// from [`reserve_seqs`](Self::reserve_seqs). Counted in
    /// [`scheduled_total`](Self::scheduled_total) and logged like any
    /// other push. Each reserved number must be used at most once.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or `seq` was never reserved.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at:?} now={:?}",
            self.now
        );
        assert!(
            seq < self.next_seq,
            "sequence number {seq} was never reserved (next is {})",
            self.next_seq
        );
        self.push(event_key(at, seq), event);
    }

    #[inline]
    fn push(&mut self, key: u128, event: E) {
        debug_assert_ne!(key, OP_POP, "event key collides with the pop marker");
        self.scheduled_total += 1;
        if let Some(log) = &mut self.op_log {
            log.push(key);
        }
        self.queue.push(key, event);
    }

    /// Schedules `event` after a relative delay from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.schedule_at(at, event);
    }

    /// Schedules `event` at the current instant (delivered after all
    /// events already queued for this instant).
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_key().map(key_time)
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let (key, event) = self.queue.pop()?;
        if let Some(log) = &mut self.op_log {
            log.push(OP_POP);
        }
        let at = key_time(key);
        debug_assert!(at >= self.now, "queue yielded an event in the past");
        self.now = at;
        Some((at, event))
    }
}

/// Replays a recorded scheduler op stream (see
/// [`Scheduler::record_ops`]) through the timer wheel with no event
/// payloads and no world, measuring pure queue throughput on the
/// workload's exact push/pop pattern. `_kind` is ignored: the wheel is
/// the only queue, and the parameter stays for the benchmark package.
///
/// Returns `(pops, fnv)` where `fnv` is the FNV-1a hash of every popped
/// key's little-endian bytes in pop order ([`pop_order_fnv`]) — equal
/// for two queues if and only if they drain the stream in the same
/// total order.
pub fn replay_ops(_kind: SchedulerKind, ops: &[u128]) -> (u64, u64) {
    let mut wheel: TimerWheel<()> = TimerWheel::new();
    let mut pops = 0u64;
    let mut fnv = FNV1A_OFFSET;
    for &op in ops {
        if op == OP_POP {
            let (key, ()) = wheel.pop().expect("op stream pops an empty queue");
            fnv = pop_order_fnv(fnv, key);
            pops += 1;
        } else {
            wheel.push(op, ());
        }
    }
    (pops, fnv)
}

/// Folds one popped key into a pop-order FNV-1a state (start from
/// [`FNV1A_OFFSET`]) — the digest [`replay_ops`] returns.
#[inline]
pub fn pop_order_fnv(state: u64, key: u128) -> u64 {
    fnv1a_extend(state, &key.to_le_bytes())
}

/// A complete simulation: a world plus its scheduler.
pub struct Simulation<W: World> {
    world: W,
    sched: Scheduler<W::Event>,
    processed: u64,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation around `world` with an empty event queue.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            sched: Scheduler::new(),
            processed: 0,
        }
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (for setup and inspection).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Shared access to the scheduler.
    pub fn scheduler(&self) -> &Scheduler<W::Event> {
        &self.sched
    }

    /// Mutable access to the scheduler (for seeding initial events).
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<W::Event> {
        &mut self.sched
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Delivers the next event, if any. Returns `false` when the queue
    /// is empty.
    pub fn step(&mut self) -> bool {
        match self.sched.pop() {
            Some((now, ev)) => {
                self.world.handle(now, ev, &mut self.sched);
                self.processed += 1;
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue drains. Returns events processed.
    pub fn run(&mut self) -> u64 {
        let start = self.processed;
        while self.step() {}
        let n = self.processed - start;
        GLOBAL_PROCESSED.fetch_add(n, AtomicOrdering::Relaxed);
        n
    }

    /// Runs until the queue drains or virtual time would pass `deadline`.
    ///
    /// Events stamped exactly at `deadline` are delivered; later ones
    /// remain queued. Returns events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let start = self.processed;
        while let Some(t) = self.sched.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        let n = self.processed - start;
        GLOBAL_PROCESSED.fetch_add(n, AtomicOrdering::Relaxed);
        n
    }

    /// Runs until at most `limit` further events have been processed.
    ///
    /// Returns `true` if the queue drained before the limit was hit —
    /// useful as a watchdog against accidental event storms in tests.
    pub fn run_bounded(&mut self, limit: u64) -> bool {
        let start = self.processed;
        let mut drained = false;
        for _ in 0..limit {
            if !self.step() {
                drained = true;
                break;
            }
        }
        GLOBAL_PROCESSED.fetch_add(self.processed - start, AtomicOrdering::Relaxed);
        drained || self.sched.pending() == 0
    }

    /// Consumes the simulation, returning the final world.
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that records the order and times of delivered tags.
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, _s: &mut Scheduler<u32>) {
            self.seen.push((now, ev));
        }
    }

    #[test]
    fn events_deliver_in_time_order() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.scheduler_mut().schedule_at(SimTime::from_millis(3), 3);
        sim.scheduler_mut().schedule_at(SimTime::from_millis(1), 1);
        sim.scheduler_mut().schedule_at(SimTime::from_millis(2), 2);
        sim.run();
        let tags: Vec<u32> = sim.world().seen.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        let t = SimTime::from_micros(10);
        for tag in 0..100 {
            sim.scheduler_mut().schedule_at(t, tag);
        }
        sim.run();
        let tags: Vec<u32> = sim.world().seen.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_event_times() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.scheduler_mut().schedule_at(SimTime::from_secs(5), 0);
        assert_eq!(sim.now(), SimTime::ZERO);
        sim.run();
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        struct Bad;
        impl World for Bad {
            type Event = ();
            fn handle(&mut self, now: SimTime, _: (), s: &mut Scheduler<()>) {
                s.schedule_at(now - crate::SimDuration::from_nanos(1), ());
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.scheduler_mut().schedule_at(SimTime::from_secs(1), ());
        sim.run();
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        for ms in 1..=10 {
            sim.scheduler_mut()
                .schedule_at(SimTime::from_millis(ms), ms as u32);
        }
        let n = sim.run_until(SimTime::from_millis(4));
        assert_eq!(n, 4);
        assert_eq!(sim.scheduler().pending(), 6);
        // Deadline-inclusive semantics: the event at exactly 4 ms ran.
        assert_eq!(sim.world().seen.last().unwrap().1, 4);
    }

    #[test]
    fn run_bounded_detects_event_storm() {
        struct Storm;
        impl World for Storm {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), s: &mut Scheduler<()>) {
                s.schedule_in(SimDuration::from_nanos(1), ());
            }
        }
        let mut sim = Simulation::new(Storm);
        sim.scheduler_mut().schedule_now(());
        assert!(!sim.run_bounded(1000), "storm should not drain");
    }

    #[test]
    fn self_scheduling_chain_runs_to_completion() {
        struct Chain {
            remaining: u32,
        }
        impl World for Chain {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), s: &mut Scheduler<()>) {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    s.schedule_in(SimDuration::from_micros(100), ());
                }
            }
        }
        let mut sim = Simulation::new(Chain { remaining: 50 });
        sim.scheduler_mut().schedule_now(());
        let n = sim.run();
        assert_eq!(n, 51);
        assert_eq!(sim.now(), SimTime::from_millis(5));
    }

    #[test]
    fn schedule_now_runs_after_existing_same_instant_events() {
        struct Nest {
            order: Vec<u32>,
        }
        impl World for Nest {
            type Event = u32;
            fn handle(&mut self, _: SimTime, ev: u32, s: &mut Scheduler<u32>) {
                self.order.push(ev);
                if ev == 1 {
                    s.schedule_now(99);
                }
            }
        }
        let mut sim = Simulation::new(Nest { order: vec![] });
        sim.scheduler_mut().schedule_at(SimTime::ZERO, 1);
        sim.scheduler_mut().schedule_at(SimTime::ZERO, 2);
        sim.run();
        assert_eq!(sim.world().order, vec![1, 2, 99]);
    }

    #[test]
    fn packed_key_orders_like_tuple() {
        let pairs = [
            (SimTime::ZERO, 0u64),
            (SimTime::ZERO, 1),
            (SimTime::from_nanos(1), 0),
            (SimTime::from_millis(7), 3),
            (SimTime::from_millis(7), 4),
            (SimTime::from_nanos(u64::MAX), u64::MAX),
        ];
        for &(t1, s1) in &pairs {
            for &(t2, s2) in &pairs {
                assert_eq!(
                    event_key(t1, s1).cmp(&event_key(t2, s2)),
                    (t1, s1).cmp(&(t2, s2)),
                    "key order diverged for ({t1:?},{s1}) vs ({t2:?},{s2})"
                );
            }
        }
    }

    #[test]
    fn key_time_recovers_timestamp() {
        for t in [0u64, 1, 999, u64::MAX] {
            assert_eq!(
                key_time(event_key(SimTime::from_nanos(t), 42)),
                SimTime::from_nanos(t)
            );
        }
    }

    #[test]
    fn global_counter_accumulates_run_deltas() {
        let before = global_events_processed();
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        for i in 0..7 {
            sim.scheduler_mut()
                .schedule_at(SimTime::from_millis(i), i as u32);
        }
        sim.run();
        assert!(global_events_processed() >= before + 7);
    }

    /// A world whose handler re-schedules pseudo-random follow-ups, so
    /// the delivered sequence exercises interleaved push/pop on the
    /// queue. Used to compare the wheel against a reference heap
    /// event-for-event.
    struct Churn {
        rng: crate::rng::Rng,
        seen: Vec<(SimTime, u32)>,
        budget: u32,
    }

    impl Churn {
        fn new() -> Self {
            Churn {
                rng: crate::rng::Rng::new(0xABBA),
                seen: Vec::new(),
                budget: 20_000,
            }
        }

        /// Records a delivery and returns the follow-ups it schedules
        /// as `(delay, tag)`.
        fn deliver(&mut self, now: SimTime, ev: u32) -> Vec<(SimDuration, u32)> {
            self.seen.push((now, ev));
            if self.budget == 0 {
                return Vec::new();
            }
            self.budget -= 1;
            (0..self.rng.next_u64() % 3)
                .map(|_| {
                    // Delays from sub-tick to multi-level: 0 ns .. ~134 ms.
                    let d = self.rng.next_u64() % (1 << 27);
                    (SimDuration::from_nanos(d), self.rng.next_u64() as u32)
                })
                .collect()
        }
    }

    impl World for Churn {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, s: &mut Scheduler<u32>) {
            for (delay, tag) in self.deliver(now, ev) {
                s.schedule_in(delay, tag);
            }
        }
    }

    /// The churn workload's initial events.
    fn churn_seeds() -> impl Iterator<Item = (SimTime, u32)> {
        (0..64u32).map(|i| (SimTime::from_nanos((i as u64 * 977) % 50_000), i))
    }

    #[test]
    fn wheel_and_heap_deliver_identical_schedules() {
        let mut sim = Simulation::new(Churn::new());
        for (at, tag) in churn_seeds() {
            sim.scheduler_mut().schedule_at(at, tag);
        }
        sim.run();

        // The same workload driven by a binary heap over the packed
        // keys — the reference order the wheel must reproduce.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap: BinaryHeap<Reverse<(u128, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |heap: &mut BinaryHeap<_>, at: SimTime, tag: u32| {
            heap.push(Reverse((event_key(at, seq), tag)));
            seq += 1;
        };
        for (at, tag) in churn_seeds() {
            push(&mut heap, at, tag);
        }
        let mut reference = Churn::new();
        while let Some(Reverse((key, tag))) = heap.pop() {
            let now = key_time(key);
            for (delay, next) in reference.deliver(now, tag) {
                push(&mut heap, now + delay, next);
            }
        }
        assert!(sim.world().seen.len() > 20_000, "churn workload too small");
        assert_eq!(
            sim.into_world().seen,
            reference.seen,
            "timer wheel diverged from the reference heap on a churn workload"
        );
    }

    #[test]
    fn wheel_backend_passes_ordering_and_fifo() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        // Same instant: FIFO; distinct instants spanning wheel levels:
        // time order.
        let t = SimTime::from_secs(2);
        for tag in 0..50 {
            sim.scheduler_mut().schedule_at(t, tag);
        }
        sim.scheduler_mut().schedule_at(SimTime::from_nanos(5), 100);
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(7200), 101);
        sim.scheduler_mut()
            .schedule_at(SimTime::from_millis(1), 102);
        sim.run();
        let tags: Vec<u32> = sim.world().seen.iter().map(|&(_, t)| t).collect();
        let mut expect = vec![100, 102];
        expect.extend(0..50);
        expect.push(101);
        assert_eq!(tags, expect);
    }

    #[test]
    fn op_log_started_mid_run_logs_pending_events_first() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        for (tag, ms) in [5u64, 1, 3].into_iter().enumerate() {
            sim.scheduler_mut()
                .schedule_at(SimTime::from_millis(ms), tag as u32);
        }
        sim.step();
        sim.scheduler_mut().record_ops();
        sim.scheduler_mut().schedule_at(SimTime::from_millis(4), 9);
        sim.run();
        let ops = sim.scheduler_mut().take_op_log();
        assert_eq!(
            ops[..3],
            [
                event_key(SimTime::from_millis(3), 2),
                event_key(SimTime::from_millis(5), 0),
                event_key(SimTime::from_millis(4), 3),
            ]
        );
        assert_eq!(replay_ops(SchedulerKind::TimerWheel, &ops).0, 3);
    }

    #[test]
    #[should_panic(expected = "was never reserved")]
    fn schedule_reserved_rejects_an_unreserved_seq() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let first = s.reserve_seqs(2);
        s.schedule_reserved(SimTime::ZERO, first + 2, 0);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn schedule_reserved_rejects_a_past_time() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        let seq = sim.scheduler_mut().reserve_seqs(1);
        sim.scheduler_mut().schedule_at(SimTime::from_millis(2), 0);
        sim.run();
        sim.scheduler_mut()
            .schedule_reserved(SimTime::from_millis(1), seq, 1);
    }

    #[test]
    fn processed_and_totals_track() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        for i in 0..5 {
            sim.scheduler_mut()
                .schedule_at(SimTime::from_millis(i), i as u32);
        }
        sim.run();
        assert_eq!(sim.processed(), 5);
        assert_eq!(sim.scheduler().scheduled_total(), 5);
        assert_eq!(sim.scheduler().pending(), 0);
    }
}
