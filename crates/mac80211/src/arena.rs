//! A generational slab of frame buffers.
//!
//! The MAC's hot path used to share frames as `Rc<Frame>`: one heap
//! allocation per control frame put on the air, refcount traffic on
//! every hand-off, and — decisively for the roadmap — `!Send` worlds,
//! because `Rc` pins the whole simulation to one thread. This arena
//! replaces pointers with copyable [`FrameId`]s: slots live in one
//! `Vec`, freed slots are recycled through a free list, and every slot
//! carries a generation counter so a stale id from before a slot was
//! recycled cannot silently alias the new occupant.
//!
//! Reference counting is explicit and cheap: [`FrameArena::insert`]
//! hands out a slot holding one reference, [`FrameArena::retain`] /
//! [`FrameArena::release`] move it between holders (transmission
//! records, a sender's cached wire frame, parked injection events, a
//! periodic source and every MSDU it has queued), and the slot returns
//! to the free list when the last reference goes. A slot with several
//! holders is shared read-only: [`FrameArena::make_mut`] and
//! [`FrameArena::unwrap_or_clone`] give a holder its own frame only
//! when it writes to it or takes it out, like `Rc::make_mut` and
//! `Rc::unwrap_or_clone`.
//! Misuse is caught where it is cheapest: generation checks are
//! `debug_assert!`s (the fuzzer and the test suite run with them; the
//! release hot path pays nothing), while use-after-free of an *empty*
//! slot still fails loudly in release via the `Option` unwrap.
//!
//! The id-not-pointer shape is the prerequisite for sharding a world
//! across threads (ROADMAP item 1): a `FrameId` is `Send + Copy`, and
//! the arena itself is plain owned data.

use crate::frame::Frame;

/// A copyable handle to a frame in a [`FrameArena`].
///
/// The generation distinguishes successive occupants of the same slot;
/// debug builds verify it on every access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FrameId {
    idx: u32,
    gen: u32,
}

impl FrameId {
    /// The slot index — stable for the lifetime of this id's frame.
    pub fn index(self) -> u32 {
        self.idx
    }
}

struct Slot {
    /// `None` only for freed slots and while the occupant is
    /// temporarily checked out via [`FrameArena::take`].
    frame: Option<Frame>,
    refs: u32,
    gen: u32,
}

/// The slab. See the module docs.
#[derive(Default)]
pub struct FrameArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
}

impl FrameArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        FrameArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    #[inline]
    fn check(&self, id: FrameId) {
        debug_assert!(
            (id.idx as usize) < self.slots.len(),
            "frame id {id:?} out of bounds"
        );
        debug_assert_eq!(
            self.slots[id.idx as usize].gen, id.gen,
            "stale frame id {id:?}: slot was recycled (use after release)"
        );
        debug_assert!(
            self.slots[id.idx as usize].refs > 0,
            "frame id {id:?} has no outstanding references"
        );
    }

    /// Stores `frame`, returning an id holding one reference.
    pub fn insert(&mut self, frame: Frame) -> FrameId {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.frame.is_none() && slot.refs == 0);
            slot.frame = Some(frame);
            slot.refs = 1;
            FrameId { idx, gen: slot.gen }
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                frame: Some(frame),
                refs: 1,
                gen: 0,
            });
            FrameId { idx, gen: 0 }
        }
    }

    /// Adds a reference for a new holder of `id`.
    pub fn retain(&mut self, id: FrameId) {
        self.check(id);
        self.slots[id.idx as usize].refs += 1;
    }

    /// Drops one reference; the slot is recycled when the last goes.
    pub fn release(&mut self, id: FrameId) {
        self.check(id);
        let slot = &mut self.slots[id.idx as usize];
        slot.refs -= 1;
        if slot.refs == 0 {
            slot.frame = None;
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(id.idx);
            self.live -= 1;
        }
    }

    /// Borrows the frame under `id`.
    #[inline]
    pub fn get(&self, id: FrameId) -> &Frame {
        self.check(id);
        self.slots[id.idx as usize]
            .frame
            .as_ref()
            .expect("frame id points at an empty slot")
    }

    /// Mutably borrows the frame under `id`.
    #[inline]
    pub fn get_mut(&mut self, id: FrameId) -> &mut Frame {
        self.check(id);
        self.slots[id.idx as usize]
            .frame
            .as_mut()
            .expect("frame id points at an empty slot")
    }

    /// Checks the frame out of its slot, leaving the slot allocated.
    ///
    /// This is the borrow-splitting escape hatch for call chains that
    /// need `&Frame` and `&mut` world state at once (frame delivery
    /// fans out into arbitrary MAC mutations). Pair with
    /// [`FrameArena::restore`]; the id stays valid throughout, but
    /// [`FrameArena::get`] on it while checked out panics.
    pub fn take(&mut self, id: FrameId) -> Frame {
        self.check(id);
        self.slots[id.idx as usize]
            .frame
            .take()
            .expect("frame already checked out")
    }

    /// Returns a frame checked out via [`FrameArena::take`].
    pub fn restore(&mut self, id: FrameId, frame: Frame) {
        self.check(id);
        let slot = &mut self.slots[id.idx as usize];
        debug_assert!(slot.frame.is_none(), "restore over a present frame");
        slot.frame = Some(frame);
    }

    /// Copy-on-write access for the holder of `id`: with one
    /// reference the frame is written in place and `id` is kept; with
    /// more, the holder's reference moves to a fresh copy in another
    /// slot, `*id` is updated to it, and the other holders keep the
    /// original untouched.
    pub fn make_mut(&mut self, id: &mut FrameId) -> &mut Frame {
        if self.refs(*id) > 1 {
            let copy = self.get(*id).clone();
            self.slots[id.idx as usize].refs -= 1;
            *id = self.insert(copy);
        }
        self.get_mut(*id)
    }

    /// Drops the caller's reference on `id` and hands back the frame:
    /// moved out, freeing the slot, when the caller held the last
    /// reference; cloned while other holders remain. The move-out
    /// complement of [`FrameArena::release`] for hand-offs to the
    /// upper layer.
    pub fn unwrap_or_clone(&mut self, id: FrameId) -> Frame {
        if self.refs(id) > 1 {
            self.slots[id.idx as usize].refs -= 1;
            return self.get(id).clone();
        }
        let slot = &mut self.slots[id.idx as usize];
        let frame = slot.frame.take().expect("frame id points at an empty slot");
        slot.refs = 0;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(id.idx);
        self.live -= 1;
        frame
    }

    /// Number of occupied slots.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever allocated (occupied + recycled).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Sum of outstanding references across occupied slots — the
    /// left-hand side of the frame-conservation ledger the `wn-check`
    /// oracle balances against the world's holders.
    pub fn total_refs(&self) -> u64 {
        self.slots.iter().map(|s| u64::from(s.refs)).sum()
    }

    /// Outstanding references on one id (test/oracle hook).
    pub fn refs(&self, id: FrameId) -> u32 {
        self.check(id);
        self.slots[id.idx as usize].refs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::MacAddr;

    fn frame(tag: u8) -> Frame {
        Frame::ack(MacAddr::station(u32::from(tag)))
    }

    #[test]
    fn insert_get_release_roundtrip() {
        let mut a = FrameArena::new();
        let id = a.insert(frame(1));
        assert_eq!(a.get(id).addr1, MacAddr::station(1));
        assert_eq!(a.live(), 1);
        assert_eq!(a.refs(id), 1);
        a.release(id);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn slots_are_reused_with_fresh_generations() {
        let mut a = FrameArena::new();
        let first = a.insert(frame(1));
        a.release(first);
        let second = a.insert(frame(2));
        // Same physical slot, different generation: the slab recycles
        // without growing, and the old id can never alias the new
        // occupant.
        assert_eq!(first.index(), second.index());
        assert_ne!(first, second);
        assert_eq!(a.capacity(), 1);
        assert_eq!(a.get(second).addr1, MacAddr::station(2));
    }

    #[test]
    fn retain_keeps_slot_until_last_release() {
        let mut a = FrameArena::new();
        let id = a.insert(frame(1));
        a.retain(id);
        assert_eq!(a.refs(id), 2);
        a.release(id);
        assert_eq!(a.live(), 1, "one holder left");
        assert_eq!(a.get(id).addr1, MacAddr::station(1));
        a.release(id);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn take_restore_leaves_slot_allocated() {
        let mut a = FrameArena::new();
        let id = a.insert(frame(3));
        let f = a.take(id);
        assert_eq!(f.addr1, MacAddr::station(3));
        assert_eq!(a.live(), 1);
        a.restore(id, f);
        assert_eq!(a.get(id).addr1, MacAddr::station(3));
    }

    #[test]
    fn remove_moves_frame_out_and_frees_slot() {
        let mut a = FrameArena::new();
        let id = a.insert(frame(4));
        let f = a.unwrap_or_clone(id);
        assert_eq!(f.addr1, MacAddr::station(4));
        assert_eq!(a.live(), 0);
        assert_eq!(a.capacity(), 1);
    }

    #[test]
    fn shared_removal_clones_while_other_holders_remain() {
        let mut a = FrameArena::new();
        let id = a.insert(frame(4));
        a.retain(id);
        let f = a.unwrap_or_clone(id);
        assert_eq!(f.addr1, MacAddr::station(4));
        // The other holder still owns the original, now alone.
        assert_eq!((a.live(), a.refs(id)), (1, 1));
        assert_eq!(a.get(id).addr1, MacAddr::station(4));
        // The last holder's removal moves the frame out and frees the
        // slot, so the id goes stale and the slot is recycled.
        let g = a.unwrap_or_clone(id);
        assert_eq!(g.addr1, MacAddr::station(4));
        assert_eq!((a.live(), a.total_refs()), (0, 0));
        let next = a.insert(frame(5));
        assert_eq!(next.index(), id.index());
        assert_ne!(next, id);
    }

    #[test]
    fn make_mut_writes_a_sole_holder_in_place() {
        let mut a = FrameArena::new();
        let mut id = a.insert(frame(1));
        let before = id;
        a.make_mut(&mut id).duration_id = 7;
        assert_eq!(id, before, "a sole holder keeps its id");
        assert_eq!(a.get(id).duration_id, 7);
        assert_eq!((a.live(), a.capacity(), a.refs(id)), (1, 1, 1));
    }

    #[test]
    fn make_mut_copies_a_shared_frame_to_a_new_slot() {
        let mut a = FrameArena::new();
        let shared = a.insert(frame(1));
        a.retain(shared);
        a.retain(shared);
        let mut mine = shared;
        a.make_mut(&mut mine).duration_id = 7;
        assert_ne!(mine.index(), shared.index(), "the writer moves out");
        assert_eq!(a.refs(shared), 2, "the old slot lost one reference");
        assert_eq!(a.refs(mine), 1);
        assert_eq!(a.get(shared).duration_id, 0, "other holders unaffected");
        assert_eq!(a.get(mine).duration_id, 7);
        assert_eq!((a.live(), a.total_refs()), (2, 3));
        // Once the copy is the writer's alone, a second write stays put.
        let copy = mine;
        a.make_mut(&mut mine).duration_id = 8;
        assert_eq!(mine, copy);
        // Generations still guard both slots: releasing the copy makes
        // its id stale while the shared original lives on.
        a.release(mine);
        a.release(shared);
        assert_eq!(a.get(shared).duration_id, 0);
        a.release(shared);
        assert_eq!((a.live(), a.total_refs()), (0, 0));
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "generation checks are debug-only")]
    #[should_panic(expected = "stale frame id")]
    fn make_mut_on_a_released_copy_is_caught() {
        let mut a = FrameArena::new();
        let shared = a.insert(frame(1));
        a.retain(shared);
        let mut mine = shared;
        let _ = a.make_mut(&mut mine);
        a.release(mine);
        let _ = a.make_mut(&mut mine);
    }

    #[test]
    fn total_refs_counts_every_holder() {
        let mut a = FrameArena::new();
        let x = a.insert(frame(1));
        let y = a.insert(frame(2));
        a.retain(x);
        assert_eq!(a.total_refs(), 3);
        a.release(x);
        a.release(y);
        assert_eq!(a.total_refs(), 1);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "generation checks are debug-only")]
    #[should_panic(expected = "stale frame id")]
    fn stale_id_after_recycle_is_caught() {
        let mut a = FrameArena::new();
        let first = a.insert(frame(1));
        a.release(first);
        let _second = a.insert(frame(2));
        // `first` now points at a recycled slot: using it is the
        // use-after-release bug the generation exists to catch.
        let _ = a.get(first);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "generation checks are debug-only")]
    #[should_panic(expected = "stale frame id")]
    fn released_id_is_rejected_before_reuse() {
        // Release bumps the generation even before the slot is reused,
        // so the very first touch of a dead id trips the stale check.
        let mut a = FrameArena::new();
        let id = a.insert(frame(1));
        a.release(id);
        let _ = a.get(id);
    }
}
