//! Propagation neighbor cache and event-fan-out wait-list structures,
//! and the world's propagation glue: received power, the lazily built
//! cache and its spatial grid, and the mobility patch
//! ([`WlanWorld::set_position`]) that keeps both in step with positions.
//!
//! The DCF hot path in [`crate::sim`] used to pay O(n) per
//! transmission three times over: a link-budget evaluation for every
//! station at tx start, a full-table scan to deliver busy edges, and
//! another full-table scan at tx end to resume frozen backoffs. This
//! module provides the three data structures that cut those to the
//! stations actually involved, without changing a single trace byte:
//!
//! - [`NeighborCache`] — sparse rx-power rows (in dBm and, mirrored
//!   bit-for-bit, in linear milliwatts for the interference sums). A
//!   row holds entries only for the stations a
//!   [`crate::grid::SpatialGrid`] neighborhood query returns —
//!   everyone within one cell edge, a superset of audibility when the
//!   cell edge is at least the maximum audible range — and doubles as
//!   the transmitter's candidate list: its entries at or above the
//!   carrier-sense threshold, in key order ([`RxRow::audible`]), are
//!   the stations that can hear it. Static topologies compute
//!   propagation once, in O(n·k); mobility patches only the moved
//!   station's neighborhood, in O(k).
//! - `Interferer` and `interference_mw` — a receiver's
//!   interference sum read straight off the overlapping records' rows
//!   through forward cursors, in ascending record order (the float
//!   order of a column-wise accumulation), with an exact early exit
//!   once the partial sum already settles the reception as lost.
//! - [`IdBitSet`] — the contender wait-list: stations with an armed
//!   backoff, iterated in ascending id order so the idle-edge rearm
//!   visits exactly the stations the old 0..n scan would have acted
//!   on, in the same order.
//!
//! Equivalence with the uncached path is load-bearing: audibility here
//! is *raw* co-channel power against the CS threshold, a superset of
//! what any receiver on an overlapping channel can hear after the
//! spectral-mask discount, so per-member awake/channel/leak checks in
//! the MAC stay exactly where they were. A sparse row's omissions are
//! sound the same way: an omitted station is beyond one grid cell
//! edge, hence below the carrier-sense floor by construction, so every
//! threshold decision reads the same answer from the −∞ it gets back;
//! its (sub-CS) power no longer enters interference sums, which is
//! bit-identical whenever the deployment fits within one neighborhood
//! span (every fuzz-corpus world does) and is the documented
//! interference-truncation semantic beyond that. Rows are `Arc`-shared
//! copy-on-write: an in-flight transmission snapshots its row at start
//! time for free, and a mobility update clones the row before writing,
//! leaving the snapshot untouched.

use std::sync::Arc;

use crate::grid::SpatialGrid;
use crate::sim::{StationId, WlanWorld};
use wn_phy::geom::Point;
use wn_phy::medium::coupled_rx_power;
use wn_phy::units::Dbm;
use wn_sim::SimTime;

/// One transmitter's received-power row, as snapshotted by an
/// in-flight transmission record.
///
/// The row is also the transmission's candidate list:
/// [`audible`](Self::audible) walks the entries at or above the
/// carrier-sense threshold in ascending station order, and those are
/// the only stations busy edges and reception decisions visit.
#[derive(Clone)]
pub enum RxRow {
    /// The uncached row of a directly evaluated world: power at every
    /// station, indexed by id, with a +inf diagonal. Interference sums
    /// convert each entry to milliwatts as they go.
    Direct(Arc<Vec<Dbm>>),
    /// A cached sparse row: entries for the sorted `keys` subset only
    /// (self excluded); everyone else is below the carrier-sense floor
    /// by grid construction and reads back as −∞.
    Cached {
        /// Stored station ids, ascending.
        keys: Arc<Vec<u32>>,
        /// Received power at `keys[i]`.
        dbm: Arc<Vec<Dbm>>,
        /// `dbm[i]` in linear milliwatts, bit for bit.
        mw: Arc<Vec<f64>>,
    },
}

impl RxRow {
    /// Received power at `dst`; −∞ for entries a cached row omits
    /// (beyond the grid neighborhood, hence below the CS floor).
    pub fn get(&self, dst: StationId) -> Dbm {
        match self {
            RxRow::Direct(dbm) => dbm[dst],
            RxRow::Cached { keys, dbm, .. } => match keys.binary_search(&(dst as u32)) {
                Ok(i) => dbm[i],
                Err(_) => Dbm(f64::NEG_INFINITY),
            },
        }
    }

    /// The stations whose raw power from `src` (this row's
    /// transmitter) meets `cs`, ascending, each with its power in dBm
    /// and in linear milliwatts: cached rows read their memoized
    /// mirror, direct rows convert the entry and skip `src`'s own +∞.
    pub fn audible(
        &self,
        src: StationId,
        cs: Dbm,
    ) -> impl Iterator<Item = (StationId, Dbm, f64)> + '_ {
        let cs = cs.value();
        let (direct, cached) = match self {
            RxRow::Direct(dbm) => (Some(dbm.iter().copied().enumerate()), None),
            RxRow::Cached { keys, dbm, mw } => {
                (None, Some(keys.iter().zip(dbm.iter().zip(mw.iter()))))
            }
        };
        // One half is `None`, so the chain walks just this row's kind.
        let heard = move |p: Dbm| p.value() >= cs;
        let direct = (direct.into_iter().flatten())
            .filter(move |&(r, p)| r != src && heard(p))
            .map(|(r, p)| (r, p, p.to_milliwatts()));
        let cached = (cached.into_iter().flatten())
            .filter(move |&(_, (&p, _))| heard(p))
            .map(|(&k, (&p, &m))| (k as StationId, p, m));
        direct.chain(cached)
    }

    /// This row's linear-milliwatt term at `dst`, discounted by
    /// `shift` dB first when given (fractional spectral overlap);
    /// `None` where the row stores no entry (beyond a cached row's
    /// neighborhood, or past a direct row's end), which adds no term.
    /// Cached rows read their memoized mirror at full overlap. `cursor`
    /// is a forward position in a cached row's keys: ask for ascending
    /// `dst` with one cursor per row.
    #[inline]
    fn mw_at(&self, dst: StationId, shift: Option<f64>, cursor: &mut usize) -> Option<f64> {
        let shifted = |p: Dbm, s: f64| Dbm(p.value() + s).to_milliwatts();
        match self {
            RxRow::Direct(dbm) => {
                let p = *dbm.get(dst)?;
                Some(shift.map_or_else(|| p.to_milliwatts(), |s| shifted(p, s)))
            }
            RxRow::Cached { keys, dbm, mw } => {
                let i = seek(keys, *cursor, dst as u32);
                *cursor = i;
                if keys.get(i) != Some(&(dst as u32)) {
                    return None;
                }
                Some(shift.map_or(mw[i], |s| shifted(dbm[i], s)))
            }
        }
    }

    /// Adds this row's linear-milliwatt image into `acc` (full
    /// spectral overlap), the eager column-wise reference the
    /// per-receiver [`interference_mw`] must match bit for bit.
    #[cfg(test)]
    pub fn accumulate_mw(&self, acc: &mut [f64]) {
        match self {
            RxRow::Direct(dbm) => {
                for (a, p) in acc.iter_mut().zip(dbm.iter()) {
                    *a += p.to_milliwatts();
                }
            }
            RxRow::Cached { keys, mw, .. } => {
                for (&k, &m) in keys.iter().zip(mw.iter()) {
                    acc[k as usize] += m;
                }
            }
        }
    }

    /// Fractional-overlap variant of [`accumulate_mw`](Self::accumulate_mw):
    /// every entry is discounted by `shift` dB before conversion.
    #[cfg(test)]
    pub fn accumulate_shifted_mw(&self, shift: f64, acc: &mut [f64]) {
        match self {
            RxRow::Direct(dbm) => {
                for (a, p) in acc.iter_mut().zip(dbm.iter()) {
                    *a += Dbm(p.value() + shift).to_milliwatts();
                }
            }
            RxRow::Cached { keys, dbm, .. } => {
                for (&k, &p) in keys.iter().zip(dbm.iter()) {
                    acc[k as usize] += Dbm(p.value() + shift).to_milliwatts();
                }
            }
        }
    }
}

/// The first index at or after `from` whose key is at least `key`, in
/// strictly ascending `keys`. Distinct integers place `key` at most
/// `key − keys[from]` slots past `from`, and exactly there when no id
/// in between is missing — the common dense row answers in one probe;
/// otherwise a binary search over that window.
#[inline]
fn seek(keys: &[u32], from: usize, key: u32) -> usize {
    match keys.get(from) {
        Some(&k) if k < key => {
            let end = from.saturating_add((key - k) as usize).min(keys.len() - 1);
            if keys[end] == key {
                end
            } else {
                from + keys[from..=end].partition_point(|&k| k < key)
            }
        }
        _ => from,
    }
}

/// One transmission that overlaps a completing frame in time and
/// leaks into its channel, as the reception loop reads it.
pub(crate) struct Interferer {
    /// The caller's handle on the interfering row (a record index).
    pub(crate) rec: usize,
    /// The spectral-mask discount in dB of a fractional overlap
    /// (`10·log10(overlap)`); `None` co-channel.
    shift: Option<f64>,
    /// Forward position in a cached row's keys.
    cursor: usize,
}

impl Interferer {
    /// An interferer at spectral `overlap` in (0, 1].
    pub(crate) fn new(rec: usize, overlap: f64) -> Self {
        let shift = (overlap < 1.0).then(|| 10.0 * overlap.log10());
        Interferer {
            rec,
            shift,
            cursor: 0,
        }
    }
}

/// The interference at `dst` in linear milliwatts: `sum` plus the term
/// of each of `intf` that stores one, added in slice order, each row
/// looked up through `row`. Ask for ascending `dst` per set of
/// interferers (their cursors only move forward).
///
/// `lost` sees the partial sum after every term; the first time it
/// holds, the walk stops and returns the partial sum with the index of
/// the next interferer, from which a later call can finish the sum.
/// That is exact for a `lost` monotone in the sum: every term is
/// non-negative and IEEE-754 addition never lowers a sum by adding a
/// non-negative term, so `power ≤ k·(noise + partial)` with `k ≥ 0`
/// implies the same for the full sum. A walk that never stops returns
/// the full sum and `None`, bit for bit the column-wise accumulation
/// of the same rows in the same order.
#[inline]
pub(crate) fn interference_mw<'r>(
    intf: &mut [Interferer],
    mut sum: f64,
    dst: StationId,
    row: impl Fn(usize) -> &'r RxRow,
    lost: impl Fn(f64) -> bool,
) -> (f64, Option<usize>) {
    for (k, it) in intf.iter_mut().enumerate() {
        if let Some(term) = row(it.rec).mw_at(dst, it.shift, &mut it.cursor) {
            sum += term;
            if lost(sum) {
                return (sum, Some(k + 1));
            }
        }
    }
    (sum, None)
}

/// Sparse pairwise rx-power cache.
///
/// `rows[src][i]` is the raw received power at `keys[src][i]`, the
/// sorted grid neighborhood of `src` with `src` itself excluded —
/// stations beyond the neighborhood are below the carrier-sense floor
/// by construction and read back as −∞. `mw_rows` mirrors `rows` in
/// linear milliwatts (`Dbm::to_milliwatts` of the same entry, bit for
/// bit) — the interference sums in the reception path run in the
/// linear domain, and memoizing the dB→mW conversion is where most of
/// the transcendental math in a saturated cell goes. Who can hear
/// `src` is not stored separately: it is the row's entries at or above
/// the carrier-sense threshold ([`RxRow::audible`]). Keys are `u32`
/// station ids, half the width of a `StationId`.
#[derive(Default)]
pub struct NeighborCache {
    keys: Vec<Arc<Vec<u32>>>,
    rows: Vec<Arc<Vec<Dbm>>>,
    mw_rows: Vec<Arc<Vec<f64>>>,
}

impl NeighborCache {
    /// An empty (unbuilt) cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total stored pair entries: the sum of neighborhood sizes (what
    /// the grid saved against the n·(n−1) of a full matrix).
    pub fn stored_entries(&self) -> usize {
        self.keys.iter().map(|k| k.len()).sum()
    }

    /// Drops all cached state (topology-shaping setup calls, e.g. a
    /// radio swap, call this; the next use rebuilds).
    pub fn clear(&mut self) {
        self.keys.clear();
        self.rows.clear();
        self.mw_rows.clear();
    }

    /// Builds the rows for `n` stations: for each `src`,
    /// `neighbors_of(src, &mut scratch)` must append the sorted
    /// candidate set (typically a 27-cell grid neighborhood; `src`
    /// itself may be included and is skipped). Only those pairs are
    /// evaluated and stored — O(n·k) instead of O(n²). Soundness is
    /// the caller's contract: every station outside the candidate set
    /// must be below the carrier-sense threshold from `src`.
    ///
    /// # Panics
    ///
    /// If `n` exceeds `u32::MAX`.
    pub fn build(
        &mut self,
        n: usize,
        mut power: impl FnMut(StationId, StationId) -> Dbm,
        mut neighbors_of: impl FnMut(StationId, &mut Vec<StationId>),
    ) {
        assert!(u32::try_from(n).is_ok(), "station ids must fit in u32");
        self.clear();
        self.keys.reserve(n);
        self.rows.reserve(n);
        self.mw_rows.reserve(n);
        let mut scratch = Vec::new();
        for src in 0..n {
            scratch.clear();
            neighbors_of(src, &mut scratch);
            debug_assert!(
                scratch.windows(2).all(|w| w[0] < w[1]),
                "neighborhood for {src} not sorted/unique"
            );
            let (ks, row, mw) = Self::evaluate_row(src, &mut power, &scratch);
            self.keys.push(Arc::new(ks));
            self.rows.push(Arc::new(row));
            self.mw_rows.push(Arc::new(mw));
        }
    }

    /// `src`'s row over the sorted neighborhood `hood` (`src` skipped).
    fn evaluate_row(
        src: StationId,
        power: &mut impl FnMut(StationId, StationId) -> Dbm,
        hood: &[StationId],
    ) -> (Vec<u32>, Vec<Dbm>, Vec<f64>) {
        let mut ks = Vec::with_capacity(hood.len());
        let mut row = Vec::with_capacity(hood.len());
        let mut mw = Vec::with_capacity(hood.len());
        for &dst in hood {
            if dst == src {
                continue;
            }
            let p = power(src, dst);
            ks.push(dst as u32);
            row.push(p);
            mw.push(p.to_milliwatts());
        }
        (ks, row, mw)
    }

    /// Mobility patch after station `id` moved (or changed its radio):
    /// its row is rebuilt over `new_keys` (its sorted post-move
    /// neighborhood; `id` itself is skipped), every station in
    /// `new_keys` gains or refreshes its entry *to* `id`, and every
    /// station in `stale` (the pre-move neighborhood minus the
    /// post-move one) drops its entry — O(k). Rows shared with
    /// in-flight transmission records are cloned before writing
    /// (copy-on-write), and the keys, powers and milliwatt mirror of a
    /// patched row always change together, so those records keep an
    /// internally consistent start-time snapshot.
    pub fn patch_station(
        &mut self,
        id: StationId,
        mut power: impl FnMut(StationId, StationId) -> Dbm,
        new_keys: &[StationId],
        stale: &[StationId],
    ) {
        debug_assert!(id < self.rows.len(), "patch_station on an unbuilt cache");
        debug_assert!(new_keys.windows(2).all(|w| w[0] < w[1]));
        let (ks, row, mw) = Self::evaluate_row(id, &mut power, new_keys);
        self.keys[id] = Arc::new(ks);
        self.rows[id] = Arc::new(row);
        self.mw_rows[id] = Arc::new(mw);

        let key = id as u32;
        for &src in new_keys {
            if src == id {
                continue;
            }
            let p = power(src, id);
            match self.keys[src].binary_search(&key) {
                Ok(i) => {
                    // Entry exists: refresh the value in place.
                    Arc::make_mut(&mut self.rows[src])[i] = p;
                    Arc::make_mut(&mut self.mw_rows[src])[i] = p.to_milliwatts();
                }
                Err(i) => {
                    Arc::make_mut(&mut self.keys[src]).insert(i, key);
                    Arc::make_mut(&mut self.rows[src]).insert(i, p);
                    Arc::make_mut(&mut self.mw_rows[src]).insert(i, p.to_milliwatts());
                }
            }
        }
        for &src in stale {
            if src == id {
                continue;
            }
            if let Ok(i) = self.keys[src].binary_search(&key) {
                Arc::make_mut(&mut self.keys[src]).remove(i);
                Arc::make_mut(&mut self.rows[src]).remove(i);
                Arc::make_mut(&mut self.mw_rows[src]).remove(i);
            }
        }
    }

    /// The cached power row for `src` (shared, copy-on-write).
    pub fn row(&self, src: StationId) -> RxRow {
        RxRow::Cached {
            keys: Arc::clone(&self.keys[src]),
            dbm: Arc::clone(&self.rows[src]),
            mw: Arc::clone(&self.mw_rows[src]),
        }
    }

    /// Verifies every cached entry against a fresh evaluation — the
    /// oracle behind the mobility-invalidation property test and the
    /// grid-coherence fuzz oracle. A stored entry must equal the fresh
    /// power (and its milliwatt mirror the fresh conversion, bit for
    /// bit); since audibility is read off the stored power, that also
    /// pins who hears whom. An *absent* pair is coherent only if its
    /// fresh power is below `cs` (the grid's soundness claim); such a
    /// violation reports the −∞ the row would answer. Walks each row
    /// alongside `0..n`, so a check is O(n²) power evaluations. Returns
    /// the first mismatch as `(src, dst, cached, fresh)`.
    pub fn find_incoherence(
        &self,
        cs: Dbm,
        mut power: impl FnMut(StationId, StationId) -> Dbm,
    ) -> Option<(StationId, StationId, Dbm, Dbm)> {
        let n = self.rows.len();
        for src in 0..n {
            let keys = &self.keys[src];
            let mut i = 0;
            for dst in 0..n {
                if dst == src {
                    continue;
                }
                let fresh = power(src, dst);
                if keys.get(i) != Some(&(dst as u32)) {
                    // Omitted by the grid: must be genuinely sub-CS.
                    if fresh.value() >= cs.value() {
                        return Some((src, dst, Dbm(f64::NEG_INFINITY), fresh));
                    }
                    continue;
                }
                // The mw mirror must stay bit-identical to the dBm
                // entry's conversion, not merely numerically close.
                let cached = self.rows[src][i];
                if cached.value() != fresh.value()
                    || self.mw_rows[src][i].to_bits() != fresh.to_milliwatts().to_bits()
                {
                    return Some((src, dst, cached, fresh));
                }
                i += 1;
            }
        }
        None
    }
}

/// A station-id bitset iterated in ascending order — the contender
/// wait-list.
///
/// Saturated cells freeze and re-arm every station on every
/// transmission, so the structure must take O(1) per membership flip;
/// a sorted container would pay a shift per insert and lose to the
/// plain O(n) scan it replaces. Word-and-trailing-zeros iteration
/// preserves the ascending visit order the old `0..n` loop had, which
/// the trace fingerprints depend on.
#[derive(Default)]
pub struct IdBitSet {
    words: Vec<u64>,
}

impl IdBitSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `id` (idempotent).
    pub fn insert(&mut self, id: usize) {
        let word = id / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (id % 64);
    }

    /// Removes `id` (idempotent).
    pub fn remove(&mut self, id: usize) {
        if let Some(w) = self.words.get_mut(id / 64) {
            *w &= !(1u64 << (id % 64));
        }
    }

    /// Membership test.
    pub fn contains(&self, id: usize) -> bool {
        self.words
            .get(id / 64)
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    /// Empties the set, keeping its capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Appends the members to `out` in ascending order.
    pub fn collect_into(&self, out: &mut Vec<usize>) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                out.push(wi * 64 + bit);
                w &= w - 1;
            }
        }
    }
}

impl WlanWorld {
    /// The link-budget received power from `src` at `dst` at `now`.
    pub(crate) fn rx_power_at(&self, src: StationId, dst: StationId, now: SimTime) -> Dbm {
        let a = &self.stations[src];
        let b = &self.stations[dst];
        let loss = self.loss.loss(a.pos, b.pos, self.budget.frequency, now);
        coupled_rx_power(&a.radio, &b.radio, loss)
    }

    /// Drops the neighbor cache and its backing grid together (they
    /// are built as a unit and must die as one).
    pub(crate) fn invalidate_neighbors(&mut self) {
        self.neighbors.clear();
        self.grid = None;
    }

    /// The maximum distance at which any pair of this world's radios
    /// can meet the carrier-sense threshold, probed radially against
    /// the loss model's distance floor (exponential search for the
    /// first inaudible distance, then bisection — the same shape as
    /// `LinkBudget::max_range_for_rate`). Uses the worst-case coupling
    /// over the radios actually present: the strongest EIRP paired
    /// with the highest receive gain, so the bound holds for every
    /// pair. The real loss never undercuts the floor, so no pair is
    /// audible beyond the reach. `None` when the model has no floor
    /// (time-varying or unbounded), the world is empty, or the reach
    /// exceeds the probe horizon.
    pub fn audible_reach_m(&self, _now: SimTime) -> Option<f64> {
        let floor = self.loss.floor()?;
        if self.stations.is_empty() {
            return None;
        }
        let mut eirp = f64::NEG_INFINITY;
        let mut rx_gain = f64::NEG_INFINITY;
        for s in &self.stations {
            eirp = eirp.max(s.radio.tx_power.value() + s.radio.tx_gain.value());
            rx_gain = rx_gain.max(s.radio.rx_gain.value());
        }
        let max_loss = eirp + rx_gain - self.config().cs_threshold.value();
        let loss_at = |d: f64| floor.loss(d, self.budget.frequency).value();
        // Propagation models clamp below 1 m, and the grid clamps its
        // cell edge to 1 m anyway.
        if loss_at(1.0) > max_loss {
            return Some(1.0);
        }
        const HORIZON_M: f64 = 1.0e7;
        let mut hi = 2.0;
        while loss_at(hi) <= max_loss {
            hi *= 2.0;
            if hi > HORIZON_M {
                return None;
            }
        }
        let mut lo = hi / 2.0;
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if loss_at(mid) <= max_loss {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // The upper bisection bound: strictly inaudible, so every
        // audible pair is strictly inside one cell edge.
        Some(hi)
    }

    /// A distance at and beyond which no pair is audible: the audible
    /// reach, or infinite when the reach is past the probe horizon.
    /// As a grid cell edge it makes a 27-cell neighborhood cover every
    /// audible pair (one all-covering cell when infinite). `None` when
    /// the model has no distance floor — no distance then bounds
    /// audibility.
    pub(crate) fn audible_bound_m(&self, now: SimTime) -> Option<f64> {
        self.loss.floor()?;
        Some(self.audible_reach_m(now).unwrap_or(f64::INFINITY))
    }

    /// Builds the sparse neighbor rows and their grid if they are not
    /// current (otherwise they are built lazily at the first
    /// transmission). Returns whether the cached path is live: false
    /// under a model without a distance floor, which the world
    /// evaluates directly instead.
    fn ensure_neighbors(&mut self, now: SimTime) -> bool {
        if self.grid.is_some() {
            return true;
        }
        let Some(cell) = self.audible_bound_m(now) else {
            return false;
        };
        let grid = SpatialGrid::build(cell, self.stations.iter().map(|s| s.pos));
        let mut cache = std::mem::take(&mut self.neighbors);
        cache.build(
            self.stations.len(),
            |a, b| self.rx_power_at(a, b, now),
            |src, out| grid.neighborhood_into(grid.cell_of(src), out),
        );
        self.neighbors = cache;
        self.grid = Some(grid);
        true
    }

    /// Forces the lazy neighbor-cache build now; no-op under a model
    /// the world evaluates directly. Test/bench hook.
    pub fn prime_neighbor_cache(&mut self, now: SimTime) {
        self.ensure_neighbors(now);
    }

    /// `(sparse, stored pair entries)` of the built neighbor cache —
    /// `None` before the lazy build and under direct evaluation. Rows
    /// are always sparse (the flag stays for callers that read it);
    /// they store only grid neighborhoods, and this is the hook the
    /// storage-factor claims and the flagship grid-coherence test read.
    pub fn neighbor_cache_stats(&self) -> Option<(bool, usize)> {
        self.grid
            .as_ref()
            .map(|_| (true, self.neighbors.stored_entries()))
    }

    /// Compares every cached (src, dst) power and audibility entry
    /// against a fresh link-budget evaluation at `now`; `None` means
    /// coherent (trivially so before the cache is built). The oracle
    /// behind the mobility-invalidation property test.
    pub fn neighbor_cache_incoherence(
        &self,
        now: SimTime,
    ) -> Option<(StationId, StationId, Dbm, Dbm)> {
        self.neighbors
            .find_incoherence(self.config().cs_threshold, |a, b| {
                self.rx_power_at(a, b, now)
            })
    }

    /// Grid/world coherence for the `grid-coherence` fuzz oracle:
    /// the spatial grid's structural invariants against the current
    /// positions, plus the sparse rows' stored-vs-fresh check — which
    /// includes the grid-soundness claim that every omitted pair is
    /// below the carrier-sense floor. Empty when coherent, or when no
    /// grid is active (directly evaluated worlds have nothing
    /// grid-shaped to contradict).
    pub fn grid_incoherence(&self, now: SimTime) -> Vec<String> {
        let mut out = Vec::new();
        let Some(grid) = &self.grid else {
            return out;
        };
        if let Some(e) = grid.find_incoherence(|id| self.stations[id].pos) {
            out.push(format!("grid structure: {e}"));
        }
        if let Some((src, dst, cached, fresh)) = self.neighbor_cache_incoherence(now) {
            out.push(format!(
                "sparse row {src}->{dst}: cached {cached:?}, fresh {fresh:?}"
            ));
        }
        out
    }

    /// Moves a station (the
    /// [`MacEvent::SetPosition`](crate::sim::MacEvent::SetPosition)
    /// handler, exposed for mobility models driving the world
    /// directly). With a live
    /// grid the patch is O(k): the mover's cell membership updates,
    /// its sparse row rebuilds over the *new* neighborhood, and only
    /// the rows of stations entering or leaving that neighborhood are
    /// touched — stations two cells away never were and never become
    /// audible, so their rows are correct untouched.
    pub fn set_position(&mut self, station: StationId, pos: Point, now: SimTime) {
        self.stations[station].pos = pos;
        let Some(mut grid) = self.grid.take() else {
            return;
        };
        // Rows snapshotted by in-flight records keep their start-time
        // values (copy-on-write).
        let mut cache = std::mem::take(&mut self.neighbors);
        let mut old_hood = std::mem::take(&mut self.hood_scratch);
        old_hood.clear();
        grid.neighborhood_into(grid.cell_of(station), &mut old_hood);
        grid.move_station(station, pos);
        let mut new_hood = Vec::new();
        grid.neighborhood_into(grid.cell_of(station), &mut new_hood);
        // Stations in the old neighborhood but not the new one fell
        // out of audible reach on both sides of the pair.
        let stale: Vec<StationId> = old_hood
            .iter()
            .copied()
            .filter(|id| new_hood.binary_search(id).is_err())
            .collect();
        cache.patch_station(
            station,
            |a, b| self.rx_power_at(a, b, now),
            &new_hood,
            &stale,
        );
        self.hood_scratch = old_hood;
        self.grid = Some(grid);
        self.neighbors = cache;
    }

    /// Start-time received powers for a transmission from `id`: the
    /// cached sparse row under a bounded static model, a fresh O(n)
    /// evaluation otherwise.
    pub(crate) fn tx_powers(&mut self, id: StationId, now: SimTime) -> RxRow {
        if self.ensure_neighbors(now) {
            return self.neighbors.row(id);
        }
        let row = (0..self.stations.len())
            .map(|r| {
                if r == id {
                    Dbm(f64::INFINITY)
                } else {
                    self.rx_power_at(id, r, now)
                }
            })
            .collect();
        RxRow::Direct(Arc::new(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A random row over `n` stations: a direct row (with the +∞
    /// diagonal of its transmitter `src` and some −∞ entries) or a
    /// cached sparse row over a random ascending key subset.
    fn random_row(rng: &mut wn_sim::Rng, n: usize, src: StationId) -> RxRow {
        let power = |rng: &mut wn_sim::Rng| {
            if rng.chance(0.1) {
                Dbm(f64::NEG_INFINITY)
            } else {
                Dbm(rng.f64_range(-100.0, -30.0))
            }
        };
        if rng.chance(0.3) {
            let row = (0..n)
                .map(|r| {
                    if r == src {
                        Dbm(f64::INFINITY)
                    } else {
                        power(rng)
                    }
                })
                .collect();
            return RxRow::Direct(Arc::new(row));
        }
        let keys: Vec<u32> = (0..n as u32)
            .filter(|&k| k as usize != src && rng.chance(0.7))
            .collect();
        let dbm: Vec<Dbm> = keys.iter().map(|_| power(rng)).collect();
        let mw = dbm.iter().map(|p| p.to_milliwatts()).collect();
        RxRow::Cached {
            keys: Arc::new(keys),
            dbm: Arc::new(dbm),
            mw: Arc::new(mw),
        }
    }

    #[test]
    fn per_receiver_interference_matches_the_eager_column_sum() {
        // Spectral overlaps of 2.4 GHz channel pairs 0, 1, 2 and 3 apart
        // (DSSS, 22 MHz wide) plus a non-channel fraction.
        let overlaps = [1.0, 17.0 / 22.0, 12.0 / 22.0, 7.0 / 22.0, 0.013];
        let mut rng = wn_sim::Rng::new(0x1f7e);
        let (mut stops, mut full_walks) = (0, 0);
        for _ in 0..300 {
            let n = 1 + rng.below(48) as usize;
            let count = 1 + rng.below(6) as usize;
            let rows: Vec<(RxRow, f64)> = (0..count)
                .map(|_| {
                    let src = rng.below(n as u64) as usize;
                    (random_row(&mut rng, n, src), *rng.choose(&overlaps))
                })
                .collect();
            // The eager reference: every row into one column, in order.
            let mut column = vec![0.0; n];
            for (row, ov) in &rows {
                if *ov >= 1.0 {
                    row.accumulate_mw(&mut column);
                } else {
                    row.accumulate_shifted_mw(10.0 * ov.log10(), &mut column);
                }
            }
            let fresh = || -> Vec<Interferer> {
                let ovs = rows.iter().map(|&(_, ov)| ov);
                ovs.enumerate()
                    .map(|(i, ov)| Interferer::new(i, ov))
                    .collect()
            };
            let row = |i: usize| &rows[i].0;
            // A random ascending subset of receivers, each summed with
            // no early exit: bit for bit the column entry.
            let mut intf = fresh();
            for dst in (0..n).filter(|_| rng.chance(0.6)) {
                let (sum, stopped) = interference_mw(&mut intf, 0.0, dst, row, |_| false);
                assert_eq!(stopped, None);
                assert_eq!(sum.to_bits(), column[dst].to_bits(), "receiver {dst}");
            }
            // With the early exit: a stop only where the full sum
            // settles the reception as lost too, and finishing the walk
            // from where it stopped gives the same bits.
            let mut intf = fresh();
            let receivers: Vec<StationId> = (0..n).filter(|_| rng.chance(0.6)).collect();
            for dst in receivers {
                let power_mw = Dbm(rng.f64_range(-90.0, -40.0)).to_milliwatts();
                let lin_lo = rng.f64_range(0.5, 300.0);
                let noise_mw = Dbm(-95.0).to_milliwatts();
                let lost = |intf_mw: f64| power_mw <= lin_lo * (noise_mw + intf_mw);
                let (partial, stopped) = interference_mw(&mut intf, 0.0, dst, row, lost);
                let full = match stopped {
                    Some(next) => {
                        stops += 1;
                        assert!(lost(column[dst]), "stopped at {dst} on a decodable sum");
                        interference_mw(&mut intf[next..], partial, dst, row, |_| false).0
                    }
                    None => {
                        full_walks += 1;
                        partial
                    }
                };
                assert_eq!(full.to_bits(), column[dst].to_bits(), "receiver {dst}");
            }
        }
        assert!(
            stops > 100 && full_walks > 100,
            "{stops} stops, {full_walks} full walks"
        );
    }

    #[test]
    fn bitset_iterates_ascending_across_words() {
        let mut b = IdBitSet::new();
        for &id in &[200, 3, 64, 0, 127, 65] {
            b.insert(id);
        }
        b.remove(64);
        b.insert(64); // idempotent re-add
        b.remove(3);
        let mut got = Vec::new();
        b.collect_into(&mut got);
        assert_eq!(got, vec![0, 64, 65, 127, 200]);
        assert!(b.contains(127) && !b.contains(3) && !b.contains(1000));
        b.remove(1000); // out of range is a no-op
    }

    /// Who hears `src`, read off its row: the derived audibility the
    /// MAC iterates.
    fn audible(c: &NeighborCache, src: StationId, cs: Dbm) -> Vec<StationId> {
        c.row(src).audible(src, cs).map(|(r, _, _)| r).collect()
    }

    #[test]
    fn cache_builds_and_patches_moved_station() {
        // Powers derived from a mutable "position" table so the test
        // can move a station and demand its row and column patched.
        // The neighborhood is everyone, so every pair is stored.
        let mut xs = [0.0f64, 10.0, 20.0, 80.0];
        let cs = Dbm(-82.0);
        fn power(xs: &[f64; 4]) -> impl FnMut(StationId, StationId) -> Dbm + '_ {
            move |a, b| Dbm(-((xs[a] - xs[b]).abs()) - 40.0)
        }
        let everyone = |_: StationId, out: &mut Vec<StationId>| out.extend(0..4);
        let mut c = NeighborCache::new();
        c.build(4, power(&xs), everyone);
        assert_eq!(c.stored_entries(), 12);
        assert!(c.find_incoherence(cs, power(&xs)).is_none());
        // 0 hears 1 (−50) and 2 (−60) but not 3 (−120).
        assert_eq!(audible(&c, 0, cs), vec![1, 2]);

        // A record snapshots row 0 (both domains), then station 3
        // moves next to 0: the snapshots must keep the old power, the
        // cache the new — in dBm and in the milliwatt mirror alike.
        let snapshot = c.row(0);
        xs[3] = 5.0;
        c.patch_station(3, power(&xs), &[0, 1, 2, 3], &[]);
        assert_eq!(snapshot.get(3), Dbm(-120.0));
        assert_eq!(c.row(0).get(3), Dbm(-45.0));
        let mut mw = vec![0.0; 4];
        snapshot.accumulate_mw(&mut mw);
        assert_eq!(mw[3].to_bits(), Dbm(-120.0).to_milliwatts().to_bits());
        assert_eq!(
            snapshot.audible(0, cs).count(),
            2,
            "snapshot keeps its audience"
        );
        assert_eq!(audible(&c, 0, cs), vec![1, 2, 3]);
        assert_eq!(audible(&c, 3, cs), vec![0, 1, 2]);
        assert!(c.find_incoherence(cs, power(&xs)).is_none());

        c.clear();
        assert_eq!(c.stored_entries(), 0);
    }

    #[test]
    fn sparse_rows_store_only_the_neighborhood_and_patch_moves() {
        // Four stations on a line; the "grid" neighborhood is within
        // 30 units. Station 3 (at 80) is beyond everyone's horizon and
        // beyond the CS floor, so its omission is sound.
        let mut xs = [0.0f64, 10.0, 20.0, 80.0];
        let cs = Dbm(-75.0);
        fn power(xs: &[f64; 4]) -> impl FnMut(StationId, StationId) -> Dbm + '_ {
            move |a, b| Dbm(-((xs[a] - xs[b]).abs()) - 40.0)
        }
        fn hood(xs: &[f64; 4]) -> impl FnMut(StationId, &mut Vec<StationId>) + '_ {
            move |src, out| {
                out.extend((0..4).filter(|&d| (xs[src] - xs[d]).abs() <= 30.0));
            }
        }
        let mut c = NeighborCache::new();
        c.build(4, power(&xs), hood(&xs));
        assert!(c.stored_entries() < 12, "sparse must omit far pairs");
        assert!(c.find_incoherence(cs, power(&xs)).is_none());
        assert_eq!(audible(&c, 0, cs), vec![1, 2]);
        assert_eq!(c.row(0).get(3), Dbm(f64::NEG_INFINITY));
        assert_eq!(c.row(0).get(1), Dbm(-50.0));

        // The audible walk agrees with random access, and its
        // milliwatt image is the entry's own conversion.
        for (d, dbm, mw) in c.row(0).audible(0, cs) {
            assert_eq!(dbm, c.row(0).get(d));
            assert_eq!(mw.to_bits(), dbm.to_milliwatts().to_bits());
        }

        // Station 3 moves next to the cluster: its row rebuilds over
        // the new neighborhood, everyone gains an entry to it, and a
        // pre-move snapshot still answers −∞.
        let snapshot = c.row(0);
        xs[3] = 5.0;
        let new_keys = [0usize, 1, 2];
        c.patch_station(3, power(&xs), &new_keys, &[]);
        assert_eq!(snapshot.get(3), Dbm(f64::NEG_INFINITY));
        assert_eq!(c.row(0).get(3), Dbm(-45.0));
        assert_eq!(audible(&c, 0, cs), vec![1, 2, 3]);
        assert_eq!(audible(&c, 3, cs), vec![0, 1, 2]);
        assert!(c.find_incoherence(cs, power(&xs)).is_none());

        // And back out again: stale entries must disappear.
        xs[3] = 80.0;
        c.patch_station(3, power(&xs), &[], &new_keys);
        assert_eq!(c.row(0).get(3), Dbm(f64::NEG_INFINITY));
        assert_eq!(audible(&c, 0, cs), vec![1, 2]);
        assert!(c.find_incoherence(cs, power(&xs)).is_none());
    }

    #[test]
    fn direct_rows_skip_the_transmitter_and_sub_threshold_entries() {
        let cs = Dbm(-75.0);
        let row = RxRow::Direct(Arc::new(vec![
            Dbm(-50.0),
            Dbm(f64::INFINITY),
            Dbm(-80.0),
            Dbm(-75.0),
            Dbm(f64::NAN),
        ]));
        let got: Vec<_> = row.audible(1, cs).collect();
        let want = [(0, Dbm(-50.0)), (3, Dbm(-75.0))];
        assert_eq!(got.len(), want.len());
        for ((r, dbm, mw), (wr, wdbm)) in got.into_iter().zip(want) {
            assert_eq!((r, dbm), (wr, wdbm));
            assert_eq!(mw.to_bits(), wdbm.to_milliwatts().to_bits());
        }
    }

    #[test]
    fn sparse_incoherence_flags_an_omitted_audible_pair() {
        // A neighborhood that wrongly omits an audible station must be
        // reported: the grid's soundness contract is what the fuzz
        // oracle leans on.
        let xs = [0.0f64, 10.0];
        let cs = Dbm(-75.0);
        let mut c = NeighborCache::new();
        c.build(2, |a, b| Dbm(-((xs[a] - xs[b]).abs()) - 40.0), |_, _| {});
        let got = c.find_incoherence(cs, |a, b| Dbm(-((xs[a] - xs[b]).abs()) - 40.0));
        assert_eq!(got, Some((0, 1, Dbm(f64::NEG_INFINITY), Dbm(-50.0))));
        // A stored entry that went stale is flagged at its own value.
        let mut c = NeighborCache::new();
        c.build(
            2,
            |a, b| Dbm(-((xs[a] - xs[b]).abs()) - 40.0),
            |_, out| out.extend([0, 1]),
        );
        let got = c.find_incoherence(cs, |a, b| Dbm(-((xs[a] - xs[b]).abs()) - 90.0));
        assert_eq!(got, Some((0, 1, Dbm(-50.0), Dbm(-100.0))));
    }
}
