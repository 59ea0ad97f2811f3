//! Heap allocations per transmitted frame on the MAC hot path.
//!
//! A counting global allocator tallies every `alloc`, `alloc_zeroed`
//! and `realloc` on the calling thread (the test harness runs tests on
//! several threads of one process, so a process-wide count would mix
//! them). Each world runs a warm-up slice, in which its scratch
//! buffers, arena slots and settle-table handles grow to size, then a
//! steady-state slice of the same length; the allocations each slice
//! makes per transmitted frame are pinned at their measured values
//! (rounded up at the second decimal), so a per-frame allocation
//! creeping back into the hot path fails here. A change that removes
//! one lowers the pins.
//!
//! What still allocates in the steady state: the timer wheel regrows
//! the slot buffers it drops when a slot empties or cascades (nine in
//! ten of the legacy count; keeping them costs more resident memory
//! than it saves time, DESIGN.md §12), the legacy attempt's fragment
//! list (one per MSDU), and on EDCA each flight's aggregate body, its
//! MPDU list and its block-ack bitmap. The numbers are the same in
//! debug and release builds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wireless_networks::core::scenarios::{dense_obss_sim, scale_dcf_sim, DENSE_OBSS_MIX};
use wireless_networks::mac80211::WlanWorld;
use wireless_networks::sim::{SchedulerKind, SimTime, Simulation};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: an allocation during thread teardown goes uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn tx_frames(w: &WlanWorld) -> u64 {
    (0..w.station_count()).map(|id| w.stats(id).tx_frames).sum()
}

/// Runs `sim` to `warm_ms` and then `warm_ms` more, and returns the
/// allocations per transmitted frame of the warm-up and of the
/// steady-state slice.
fn per_frame(mut sim: Simulation<WlanWorld>, warm_ms: u64) -> (f64, f64) {
    let mut slice = |end_ms: u64| {
        let (a0, f0) = (ALLOCS.with(Cell::get), tx_frames(sim.world()));
        sim.run_until(SimTime::from_millis(end_ms));
        let (a1, f1) = (ALLOCS.with(Cell::get), tx_frames(sim.world()));
        assert!(
            f1 > f0,
            "no frame went on the air in the slice to {end_ms} ms"
        );
        (a1 - a0) as f64 / (f1 - f0) as f64
    };
    let warm = slice(warm_ms);
    (warm, slice(2 * warm_ms))
}

fn check(what: &str, (warm, steady): (f64, f64), (warm_pin, steady_pin): (f64, f64)) {
    eprintln!("{what} allocations per frame: warm-up {warm:.3}, steady {steady:.3}");
    assert!(
        warm <= warm_pin,
        "{what} warm-up: {warm:.3} allocations per frame (pinned at {warm_pin})"
    );
    assert!(
        steady <= steady_pin,
        "{what} steady state: {steady:.3} allocations per frame (pinned at {steady_pin})"
    );
}

/// A saturated legacy DCF cell: 20 senders and a sink, one collision
/// domain, data/ACK exchanges at a fixed rate.
#[test]
fn legacy_dcf_allocations_per_frame() {
    let sim = scale_dcf_sim(20, 400, 42, SchedulerKind::TimerWheel);
    check("legacy DCF", per_frame(sim, 100), (4.32, 3.99));
}

/// The 2×2 DENSE-OBSS block: four EDCA APs pushing per-AC downlink
/// A-MPDUs answered by block acks.
#[test]
fn edca_ampdu_allocations_per_frame() {
    let sim = dense_obss_sim(2, 2, 400, 42, DENSE_OBSS_MIX, 16);
    check("EDCA/A-MPDU", per_frame(sim, 100), (3.76, 3.65));
}
