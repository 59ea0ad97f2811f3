//! The reference event queue for the timer wheel.
//!
//! Every run in the workspace drains `wn-sim`'s timer wheel. The order
//! it must reproduce is the obvious one: a `BinaryHeap<Reverse<u128>>`
//! over the packed `(time, seq)` keys pops earliest time first and
//! breaks same-instant ties FIFO by sequence number. That heap is kept
//! here, test-only, as the reference.
//!
//! Each fuzz run records its scheduler op stream
//! ([`wn_sim::Scheduler::record_ops`]). The `scheduler-order` oracle
//! replays it through [`reference_replay_ops`] and through
//! [`wn_sim::replay_ops`] and demands the same `(pops, pop-order FNV)`.
//! The same pops mean the same events delivered, and so the same later
//! pushes: the replay is the live heap-vs-wheel differential without a
//! second run.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use wn_sim::stats::FNV1A_OFFSET;
use wn_sim::{pop_order_fnv, OP_POP};

/// Replays a recorded op stream through the reference heap. Returns
/// `(pops, fnv)` in the form [`wn_sim::replay_ops`] returns them: the
/// pop count and the FNV-1a of every popped key in pop order.
///
/// # Panics
///
/// Panics if the stream pops an empty queue — a malformed log.
pub fn reference_replay_ops(ops: &[u128]) -> (u64, u64) {
    let mut heap: BinaryHeap<Reverse<u128>> = BinaryHeap::new();
    let mut pops = 0u64;
    let mut fnv = FNV1A_OFFSET;
    for &op in ops {
        if op == OP_POP {
            let Reverse(key) = heap.pop().expect("op stream pops an empty queue");
            fnv = pop_order_fnv(fnv, key);
            pops += 1;
        } else {
            heap.push(Reverse(op));
        }
    }
    (pops, fnv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wn_sim::engine::event_key;
    use wn_sim::{replay_ops, Scheduler, SchedulerKind, SimDuration, SimTime, Simulation, World};

    /// One periodic block: arrival `k` at `first + k·period` under
    /// reserved seq `seq0 + k`.
    struct Block {
        seq0: u64,
        n: u32,
        first: SimTime,
        period: SimDuration,
    }

    /// Periodic sources that push each arrival only when the previous
    /// one fires, under its reserved seq, while every arrival also
    /// schedules a plain follow-up. Each event carries its own seq, so
    /// the world records the exact key the wheel popped.
    struct Sources {
        blocks: Vec<Block>,
        /// Mirrors the scheduler's next plain sequence number.
        next_plain: u64,
        popped: Vec<u128>,
    }

    type Ev = (u64, Option<(usize, u32)>);

    impl World for Sources {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, (seq, arrival): Ev, s: &mut Scheduler<Ev>) {
            self.popped.push(event_key(now, seq));
            let Some((b, k)) = arrival else { return };
            let block = &self.blocks[b];
            if k + 1 < block.n {
                let seq = block.seq0 + u64::from(k + 1);
                let at = block.first + block.period * u64::from(k + 1);
                s.schedule_reserved(at, seq, (seq, Some((b, k + 1))));
            }
            let delay = SimDuration::from_nanos(u64::from(k % 4) * 900);
            s.schedule_in(delay, (self.next_plain, None));
            self.next_plain += 1;
        }
    }

    #[test]
    fn late_reserved_keys_pop_in_the_reference_heap_order() {
        let mut sim = Simulation::new(Sources {
            blocks: Vec::new(),
            next_plain: 0,
            popped: Vec::new(),
        });
        sim.scheduler_mut().record_ops();
        let shapes = [
            (0u64, 0u64, 6u32),
            (0, 3_000, 40),
            (2_000, 1_100_000, 30),
            (2_000, 0, 5),
        ];
        for (b, (first_ns, period_ns, n)) in shapes.into_iter().enumerate() {
            let seq0 = sim.scheduler_mut().reserve_seqs(u64::from(n));
            let first = SimTime::from_nanos(first_ns);
            sim.scheduler_mut()
                .schedule_reserved(first, seq0, (seq0, Some((b, 0))));
            sim.world_mut().blocks.push(Block {
                seq0,
                n,
                first,
                period: SimDuration::from_nanos(period_ns),
            });
        }
        let reserved: u64 = shapes.iter().map(|&(_, _, n)| u64::from(n)).sum();
        sim.world_mut().next_plain = reserved;
        sim.run();
        let ops = sim.scheduler_mut().take_op_log();
        let popped = &sim.world().popped;
        assert_eq!(popped.len() as u64, 2 * reserved);
        assert!(
            popped.windows(2).all(|w| w[0] < w[1]),
            "pops left key order"
        );
        let live = popped
            .iter()
            .fold(FNV1A_OFFSET, |h, &k| pop_order_fnv(h, k));
        let reference = reference_replay_ops(&ops);
        assert_eq!(
            reference,
            (2 * reserved, live),
            "live pops diverged from the heap"
        );
        assert_eq!(replay_ops(SchedulerKind::TimerWheel, &ops), reference);
    }
}
