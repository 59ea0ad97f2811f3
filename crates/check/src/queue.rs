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
