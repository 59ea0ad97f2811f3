//! Propagation neighbor cache and event-fan-out wait-list structures.
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
//! - [`AudibleSet`] — the per-station set of in-flight transmission
//!   ids, with O(1) insert and O(members) removal instead of the old
//!   `Vec::retain` full scan.
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

use crate::sim::StationId;
use wn_phy::units::Dbm;

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

    /// Adds this row's linear-milliwatt image into `acc` (full
    /// spectral overlap): cached rows add their memoized mirror at
    /// their key slots, in ascending key order; direct rows convert
    /// each dBm entry in place. Each slot receives at most one term
    /// per transmission.
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

/// The set of in-flight transmission ids a station can hear.
///
/// Membership is tiny in practice (the number of concurrent audible
/// transmissions), so an unsorted `Vec` with `swap_remove` beats any
/// tree: O(1) insert, one linear pass to remove or test. Order is
/// never observed — the MAC only asks "empty?" and "contains?".
#[derive(Default, Clone)]
pub struct AudibleSet {
    ids: Vec<u64>,
}

impl AudibleSet {
    /// Adds an id (caller guarantees it is not already present) and
    /// returns the new member count.
    pub fn insert(&mut self, id: u64) -> usize {
        debug_assert!(!self.ids.contains(&id), "duplicate audible id {id}");
        self.ids.push(id);
        self.ids.len()
    }

    /// Removes an id if present; reports whether it was a member.
    pub fn remove(&mut self, id: u64) -> bool {
        match self.ids.iter().position(|&t| t == id) {
            Some(i) => {
                self.ids.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Membership test.
    pub fn contains(&self, id: u64) -> bool {
        self.ids.contains(&id)
    }

    /// Whether no transmission is audible.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of audible transmissions.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Forgets everything (doze, channel switch).
    pub fn clear(&mut self) {
        self.ids.clear();
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audible_set_tracks_overlapping_transmissions() {
        // Two transmissions overlap in time; the first to end must be
        // removed without disturbing the second — the bookkeeping the
        // MAC does at every tx-end edge.
        let mut s = AudibleSet::default();
        assert!(s.is_empty());
        assert_eq!(s.insert(7), 1);
        assert_eq!(s.insert(9), 2);
        assert!(s.contains(7) && s.contains(9));
        assert!(s.remove(7));
        assert!(!s.contains(7));
        assert!(s.contains(9));
        assert_eq!(s.len(), 1);
        assert!(!s.remove(7), "double-remove must report absence");
        assert!(s.remove(9));
        assert!(s.is_empty());
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
