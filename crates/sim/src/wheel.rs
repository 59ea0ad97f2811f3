//! A hierarchical timer wheel — the calendar-queue scheduler backend.
//!
//! Dense MAC timer workloads (backoff slots, SIFS/DIFS deadlines, NAV
//! expiries) schedule almost everything a few microseconds to a few
//! milliseconds ahead. A comparison-based heap pays O(log n) sifts per
//! pop and moves whole event payloads at every level; ns-2 ships a
//! calendar queue for exactly this reason. The wheel here buckets
//! events by quantised timestamp into a six-level hierarchy of 64-slot
//! wheels (64^6 ticks ≈ 19.5 hours of horizon at 1.024 µs per tick),
//! so each event is moved O(1) times in the common case and the pop
//! path is a bitmap scan plus a small sorted drain.
//!
//! Ordering is identical to the heap backend by construction: every
//! entry carries its packed [`event_key`](crate::engine::event_key)
//! `(time, seq)` key, slots are drained in tick order, and entries
//! within a drained tick are sorted by the full key. The two backends
//! therefore produce byte-identical schedules — the differential tests
//! in `wn-check` and `tests/determinism.rs` hold them to that.

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Hierarchy depth. Events beyond `64^LEVELS` ticks ahead overflow
/// into an unsorted spill vector that is re-bucketed on demand.
const LEVELS: usize = 6;
/// One tick is `1 << TICK_SHIFT` nanoseconds (1.024 µs) — finer than
/// any MAC-scale deadline spacing, coarse enough that a level-0 slot
/// drains in one bitmap probe.
const TICK_SHIFT: u32 = 10;
/// Ticks representable inside the hierarchy (log2).
const HORIZON_BITS: u32 = LEVELS as u32 * SLOT_BITS;

/// A hierarchical timer wheel ordering events by packed `(time, seq)`
/// key. See the module docs; use it through
/// [`Scheduler`](crate::engine::Scheduler) with
/// [`SchedulerKind::TimerWheel`](crate::engine::SchedulerKind).
pub struct TimerWheel<E> {
    /// Current drain position in ticks. Every entry in `slots` /
    /// `overflow` has a tick strictly greater than `pos`; `cur` holds
    /// ticks at or before it.
    pos: u64,
    /// `slots[level][slot]` buckets, unsorted within a bucket.
    slots: [[Vec<(u128, E)>; SLOTS]; LEVELS],
    /// Per-level occupancy bitmap (bit = slot has entries).
    occupied: [u64; LEVELS],
    /// The drained front, sorted by key **descending** so the minimum
    /// pops from the tail in O(1).
    cur: Vec<(u128, E)>,
    /// Events beyond the wheel horizon, re-bucketed when reached.
    overflow: Vec<(u128, E)>,
    /// Total entries across `cur`, `slots` and `overflow`.
    len: usize,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// Creates an empty wheel positioned at tick zero.
    pub fn new() -> Self {
        TimerWheel {
            pos: 0,
            slots: std::array::from_fn(|_| std::array::from_fn(|_| Vec::new())),
            occupied: [0; LEVELS],
            cur: Vec::new(),
            overflow: Vec::new(),
            len: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The minimum pending key, if any.
    pub fn peek_key(&self) -> Option<u128> {
        self.cur.last().map(|&(k, _)| k)
    }

    #[inline]
    fn tick_of(key: u128) -> u64 {
        (key >> (64 + TICK_SHIFT)) as u64
    }

    /// Inserts an entry. Keys are unique (the low bits carry the FIFO
    /// sequence number), so no two entries ever compare equal.
    pub fn push(&mut self, key: u128, event: E) {
        if self.len == 0 {
            // Re-anchor the wheel on the first entry; the cursor may
            // move backwards freely while nothing is pending.
            self.pos = Self::tick_of(key);
            self.cur.push((key, event));
            self.len = 1;
            return;
        }
        self.len += 1;
        if Self::tick_of(key) <= self.pos {
            self.push_cur(key, event);
        } else {
            self.place(key, event);
        }
    }

    /// Removes and returns the minimum entry.
    pub fn pop(&mut self) -> Option<(u128, E)> {
        let entry = self.cur.pop()?;
        self.len -= 1;
        if self.cur.is_empty() && self.len > 0 {
            self.advance();
        }
        Some(entry)
    }

    /// Sorted insert into the drained front (descending, min at tail).
    ///
    /// The common case — a key at or past the current front's maximum,
    /// e.g. same-instant FIFO chains — appends in O(1); otherwise a
    /// binary search finds the slot within the (small, one-tick-ish)
    /// front.
    fn push_cur(&mut self, key: u128, event: E) {
        match self.cur.last() {
            Some(&(tail, _)) if key > tail => {
                let i = self.cur.partition_point(|&(k, _)| k > key);
                self.cur.insert(i, (key, event));
            }
            _ => self.cur.push((key, event)),
        }
    }

    /// Buckets an entry with tick strictly greater than `pos` into the
    /// hierarchy (or the overflow spill past the horizon). The level is
    /// the highest 6-bit digit in which the tick differs from `pos` —
    /// the slot it lands in cannot have been drained yet.
    fn place(&mut self, key: u128, event: E) {
        let t = Self::tick_of(key);
        let diff = t ^ self.pos;
        debug_assert!(diff != 0, "tick at/before pos belongs in cur");
        let msb = 63 - diff.leading_zeros();
        if msb >= HORIZON_BITS {
            self.overflow.push((key, event));
            return;
        }
        let level = (msb / SLOT_BITS) as usize;
        let slot = ((t >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.slots[level][slot].push((key, event));
        self.occupied[level] |= 1 << slot;
    }

    /// Refills `cur` from the hierarchy. Called only when `cur` is
    /// empty and entries remain; cascades higher-level slots downwards
    /// until the earliest tick's entries reach the front.
    fn advance(&mut self) {
        loop {
            let Some(level) = (0..LEVELS).find(|&l| self.occupied[l] != 0) else {
                // Everything pending sits past the horizon: re-anchor
                // on the earliest overflow tick and re-bucket. Rare
                // (needs a >19 h scheduling gap), amortised O(n).
                //
                // No spilled entry can be stranded here: the horizon
                // test is `msb(tick ^ pos) < HORIZON_BITS`, i.e. "same
                // 2^36-tick block as the cursor", and cascades never
                // carry `pos` across a block boundary (the hierarchy
                // only ever holds same-block ticks). So the *only* way
                // into a new block is this branch, which re-buckets the
                // whole spill — overflow entries can never be bypassed
                // by later-tick hierarchy entries. Pinned by
                // `overflow_reanchor_matches_heap_order`.
                debug_assert!(!self.overflow.is_empty());
                let min_tick = self
                    .overflow
                    .iter()
                    .map(|&(k, _)| Self::tick_of(k))
                    .min()
                    .expect("advance called with entries pending");
                self.pos = min_tick;
                for (k, e) in std::mem::take(&mut self.overflow) {
                    if Self::tick_of(k) == self.pos {
                        self.push_cur(k, e);
                    } else {
                        self.place(k, e);
                    }
                }
                // The minimum-tick entry landed in cur by construction.
                debug_assert!(!self.cur.is_empty());
                return;
            };
            let slot = self.occupied[level].trailing_zeros() as usize;
            self.occupied[level] &= !(1u64 << slot);
            let entries = std::mem::take(&mut self.slots[level][slot]);
            debug_assert!(!entries.is_empty(), "occupancy bit set on empty slot");
            let width = SLOT_BITS * level as u32;
            // Jump the cursor to the start of the drained slot; lower
            // digits reset, so redistributed entries re-bucket at a
            // strictly lower level (or land in cur when exactly here).
            let span_mask = (1u64 << (width + SLOT_BITS)) - 1;
            self.pos = (self.pos & !span_mask) | ((slot as u64) << width);
            if level == 0 {
                // Swap the drained bucket in as the new front, handing
                // the front's spent buffer back to the slot for reuse.
                self.slots[0][slot] = std::mem::replace(&mut self.cur, entries);
                self.cur.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
                return;
            }
            for (k, e) in entries {
                if Self::tick_of(k) == self.pos {
                    self.push_cur(k, e);
                } else {
                    self.place(k, e);
                }
            }
            if !self.cur.is_empty() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::event_key;
    use crate::rng::Rng;
    use crate::time::SimTime;

    fn key(ns: u64, seq: u64) -> u128 {
        event_key(SimTime::from_nanos(ns), seq)
    }

    /// Pushes `(key, tag)` pairs and pops everything, asserting the pop
    /// order equals the fully sorted key order.
    fn assert_sorted_drain(pairs: Vec<(u128, u64)>) {
        let mut wheel = TimerWheel::new();
        for &(k, tag) in &pairs {
            wheel.push(k, tag);
        }
        assert_eq!(wheel.len(), pairs.len());
        let mut expect: Vec<u128> = pairs.iter().map(|&(k, _)| k).collect();
        expect.sort_unstable();
        let mut got = Vec::new();
        while let Some((k, _)) = wheel.pop() {
            got.push(k);
        }
        assert_eq!(got, expect);
        assert!(wheel.is_empty());
    }

    #[test]
    fn drains_in_key_order_across_levels() {
        // Times spanning every level of the hierarchy plus overflow:
        // nanoseconds up to hours.
        let times = [
            0u64,
            1,
            1_000,
            1_025,
            65_536,
            1 << 20,
            1 << 26,
            1 << 32,
            1 << 38,
            1 << 44,
            (1 << 46) + 12_345,
            u64::MAX / 2,
            u64::MAX,
        ];
        let pairs: Vec<(u128, u64)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (key(t, i as u64), i as u64))
            .collect();
        assert_sorted_drain(pairs);
    }

    #[test]
    fn same_tick_entries_come_out_in_seq_order() {
        // 100 entries inside one 1.024 µs tick, shuffled seqs.
        let mut pairs = Vec::new();
        for seq in 0..100u64 {
            pairs.push((key(500 + (seq * 7) % 1000, seq), seq));
        }
        assert_sorted_drain(pairs);
    }

    #[test]
    fn random_workload_matches_sorted_reference() {
        let mut rng = Rng::new(0xD1CE);
        let mut pairs = Vec::new();
        for seq in 0..5_000u64 {
            // Mixture of near (µs..ms) and far (up to ~hours) times.
            let t = if rng.next_u64().is_multiple_of(8) {
                rng.next_u64() % (1u64 << 47)
            } else {
                rng.next_u64() % 2_000_000
            };
            pairs.push((key(t, seq), seq));
        }
        assert_sorted_drain(pairs);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        // Push while popping, only ever scheduling at/after the last
        // popped time — the engine's causality rule.
        let mut rng = Rng::new(7);
        let mut wheel = TimerWheel::new();
        let mut seq = 0u64;
        let mut last = 0u64;
        let mut popped = Vec::new();
        for _ in 0..200 {
            wheel.push(key(last + rng.next_u64() % 100_000, seq), seq);
            seq += 1;
        }
        while let Some((k, _)) = wheel.pop() {
            let t = (k >> 64) as u64;
            assert!(t >= last, "pop went backwards: {t} < {last}");
            last = t;
            popped.push(k);
            if seq < 2_000 {
                for _ in 0..2 {
                    wheel.push(key(last + rng.next_u64() % 500_000, seq), seq);
                    seq += 1;
                }
            }
        }
        assert_eq!(popped.len(), 2_000);
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        assert_eq!(popped, sorted, "interleaved pops left key order");
    }

    #[test]
    fn push_at_current_tick_after_pop_pops_next() {
        let mut wheel = TimerWheel::new();
        wheel.push(key(10_000, 0), 0);
        wheel.push(key(2_000_000, 1), 1);
        assert_eq!(wheel.pop().map(|(_, t)| t), Some(0));
        // A new event earlier than the already-drained front must still
        // pop before it.
        wheel.push(key(10_500, 2), 2);
        assert_eq!(wheel.pop().map(|(_, t)| t), Some(2));
        assert_eq!(wheel.pop().map(|(_, t)| t), Some(1));
        assert!(wheel.pop().is_none());
    }

    #[test]
    fn empty_wheel_reanchors_far_in_the_future() {
        let mut wheel = TimerWheel::new();
        wheel.push(key(100, 0), 0);
        assert!(wheel.pop().is_some());
        // Horizon-crossing re-anchor on an empty wheel.
        let far = 1u64 << 60;
        wheel.push(key(far, 1), 1);
        wheel.push(key(far + 5, 2), 2);
        assert_eq!(wheel.pop().map(|(_, t)| t), Some(1));
        assert_eq!(wheel.pop().map(|(_, t)| t), Some(2));
    }

    /// The re-anchor path (`advance` with every level empty) is the
    /// one place the cursor crosses a 2^36-tick horizon block, and it
    /// must re-bucket *all* spilled entries before draining resumes —
    /// an entry left in `overflow` while the hierarchy fills with
    /// later ticks would pop out of order. This exercises exactly that
    /// shape: nothing but far-future entries, repeated re-anchors, and
    /// causally-timed pushes landing both before and after the
    /// re-anchored cursor.
    #[test]
    fn overflow_only_workload_reanchors_in_key_order() {
        // Spread across many horizon blocks (one tick = 2^10 ns, one
        // block = 2^46 ns), including same-block pairs and block edges.
        let times = [
            1u64 << 47,
            (1 << 47) + (1 << 45),
            (1 << 47) + (1 << 45) + 1024,
            (1 << 46) - 1,
            1 << 46,
            (1 << 46) + 1,
            1 << 50,
            (1 << 50) + (1 << 44),
            1 << 55,
            (1 << 55) + 1,
            u64::MAX >> 1,
            u64::MAX,
        ];
        let pairs: Vec<(u128, u64)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (key(t, i as u64), i as u64))
            .collect();
        assert_sorted_drain(pairs);
    }

    /// Differential check against a reference heap under the engine's
    /// causality rule, with push deltas chosen to straddle the wheel
    /// horizon: small (same block), ~horizon (adjacent block), and far
    /// past it (deep overflow). Catches any divergence in the
    /// overflow/re-anchor path that single-shot drains can't reach —
    /// e.g. a spilled entry skipped while later hierarchy ticks drain.
    #[test]
    fn overflow_reanchor_matches_heap_order() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        for seed in 0..40u64 {
            let mut rng = Rng::new(0xFA2_0000 + seed);
            let mut wheel = TimerWheel::new();
            let mut heap: BinaryHeap<Reverse<u128>> = BinaryHeap::new();
            let mut seq = 0u64;
            for _ in 0..8 {
                let k = key(rng.next_u64() % (1 << 48), seq);
                wheel.push(k, seq);
                heap.push(Reverse(k));
                seq += 1;
            }
            while let Some(Reverse(expect)) = heap.pop() {
                let got = wheel.pop().map(|(k, _)| k);
                assert_eq!(got, Some(expect), "seed {seed}: wheel diverged from heap");
                let now = (expect >> 64) as u64;
                // Causal pushes relative to the popped time, spanning
                // the horizon: same tick, same block, block edge, and
                // deep overflow.
                if seq < 400 {
                    for _ in 0..(rng.next_u64() % 3) {
                        let delta = match rng.next_u64() % 4 {
                            0 => rng.next_u64() % 4_096,
                            1 => rng.next_u64() % (1 << 44),
                            2 => (1 << 46) - 2048 + rng.next_u64() % 4_096,
                            _ => (1 << 46) + rng.next_u64() % (1 << 48),
                        };
                        let k = key(now.saturating_add(delta), seq);
                        wheel.push(k, seq);
                        heap.push(Reverse(k));
                        seq += 1;
                    }
                }
            }
            assert!(wheel.is_empty(), "seed {seed}: wheel kept entries");
        }
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut rng = Rng::new(99);
        let mut wheel = TimerWheel::new();
        for seq in 0..500u64 {
            wheel.push(key(rng.next_u64() % (1 << 40), seq), seq);
        }
        while let Some(k) = wheel.peek_key() {
            assert_eq!(wheel.pop().map(|(pk, _)| pk), Some(k));
        }
        assert!(wheel.is_empty());
    }
}
