//! Uniform spatial hash grid over station positions.
//!
//! Every position-driven scan in this crate would otherwise be O(n)
//! or O(n²): a full n×n rx-power matrix, a shard plan comparing every
//! pair, a mobility patch touching every row. The grid cuts each of
//! those to the stations that can possibly matter: with the cell edge
//! at least the maximum audible range (the distance at which the strongest radio
//! pair's received power falls below the carrier-sense floor), any two
//! stations whose cells differ by more than one index along any axis
//! are more than one cell edge apart and therefore inaudible by
//! construction. The 27-cell neighborhood (9 cells in the planar case
//! every scenario uses, ±1 in z for the general one) is thus a sound
//! overapproximation of audibility, and scans become O(n·k) where k is
//! the neighborhood population.
//!
//! Cells are keyed by `floor(coord / cell_m)` per axis, so a station
//! sitting exactly on a boundary lands deterministically in the
//! higher-index cell; membership lists stay sorted by station id so
//! every neighborhood query yields ids in ascending order — the same
//! visit order the exhaustive scans had, which the byte-identity
//! contracts depend on. The map itself is only ever *indexed*, never
//! iterated, in digest-bearing code: iteration order of a `HashMap` is
//! unspecified and must not leak into traces.

use std::collections::HashMap;

use crate::sim::StationId;
use wn_phy::geom::Point;

/// A cell address: `floor(coord / cell_m)` along x, y, z.
pub type CellKey = (i64, i64, i64);

/// Uniform spatial hash grid mapping cells to sorted station-id lists.
pub struct SpatialGrid {
    cell_m: f64,
    cells: HashMap<CellKey, Vec<StationId>>,
    /// Each station's current cell, so a move needs no old position.
    station_cell: Vec<CellKey>,
}

impl SpatialGrid {
    /// Builds the grid over `positions` with the given cell edge.
    ///
    /// The edge is clamped to at least one metre: propagation models
    /// clamp distances below 1 m anyway, and a degenerate zero-range
    /// deployment (carrier-sense floor above every receivable power)
    /// must still produce finitely many cells.
    pub fn build(cell_m: f64, positions: impl IntoIterator<Item = Point>) -> Self {
        let mut g = SpatialGrid {
            cell_m: cell_m.max(1.0),
            cells: HashMap::new(),
            station_cell: Vec::new(),
        };
        for p in positions {
            let id = g.station_cell.len();
            let key = g.cell_key(p);
            g.station_cell.push(key);
            // Build order is ascending id, so plain push keeps every
            // membership list sorted.
            g.cells.entry(key).or_default().push(id);
        }
        g
    }

    /// The cell edge in metres.
    pub fn cell_m(&self) -> f64 {
        self.cell_m
    }

    /// Number of stations indexed.
    pub fn station_count(&self) -> usize {
        self.station_cell.len()
    }

    /// Number of non-empty cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The cell a position falls in.
    pub fn cell_key(&self, p: Point) -> CellKey {
        (
            (p.x / self.cell_m).floor() as i64,
            (p.y / self.cell_m).floor() as i64,
            (p.z / self.cell_m).floor() as i64,
        )
    }

    /// The cell a station currently occupies.
    pub fn cell_of(&self, id: StationId) -> CellKey {
        self.station_cell[id]
    }

    /// Members of one cell, ascending by id (empty slice if the cell
    /// is unoccupied).
    pub fn cell_members(&self, key: CellKey) -> &[StationId] {
        self.cells.get(&key).map_or(&[], Vec::as_slice)
    }

    /// Moves a station to a new position, updating cell membership.
    /// Returns `true` when the station actually changed cells.
    pub fn move_station(&mut self, id: StationId, to: Point) -> bool {
        let new_key = self.cell_key(to);
        let old_key = self.station_cell[id];
        if new_key == old_key {
            return false;
        }
        let old = self.cells.get_mut(&old_key).expect("station's cell exists");
        let pos = old.binary_search(&id).expect("station listed in its cell");
        old.remove(pos);
        if old.is_empty() {
            self.cells.remove(&old_key);
        }
        let new = self.cells.entry(new_key).or_default();
        let pos = new.binary_search(&id).expect_err("station not yet in cell");
        new.insert(pos, id);
        self.station_cell[id] = new_key;
        true
    }

    /// The member lists of the occupied cells in the 27-cell
    /// neighborhood of `key` (the cell itself and all adjacent cells,
    /// ±1 per axis), each ascending by id.
    pub fn neighborhood_cells(&self, key: CellKey) -> impl Iterator<Item = &[StationId]> + '_ {
        (-1..=1i64).flat_map(move |dx| {
            (-1..=1i64).flat_map(move |dy| {
                (-1..=1i64)
                    .filter_map(move |dz| self.cells.get(&(key.0 + dx, key.1 + dy, key.2 + dz)))
                    .map(Vec::as_slice)
            })
        })
    }

    /// Appends every station in the 27-cell neighborhood of `key` to
    /// `out`, then sorts the collected ids ascending. The querying
    /// station itself is included when it lives in the neighborhood.
    pub fn neighborhood_into(&self, key: CellKey, out: &mut Vec<StationId>) {
        for members in self.neighborhood_cells(key) {
            out.extend_from_slice(members);
        }
        out.sort_unstable();
    }

    /// Structural self-check against the authoritative position table:
    /// every station's recorded cell matches its position, it appears
    /// exactly once in that cell's sorted list, and no list holds a
    /// stranger. `None` means coherent. The check behind the
    /// `grid-coherence` fuzz oracle.
    pub fn find_incoherence(&self, mut position: impl FnMut(StationId) -> Point) -> Option<String> {
        let mut listed = 0usize;
        for (key, members) in &self.cells {
            if members.is_empty() {
                return Some(format!("empty cell {key:?} retained"));
            }
            if !members.windows(2).all(|w| w[0] < w[1]) {
                return Some(format!("cell {key:?} membership not sorted: {members:?}"));
            }
            listed += members.len();
            for &m in members {
                if self.station_cell.get(m) != Some(key) {
                    return Some(format!(
                        "station {m} listed in {key:?} but recorded elsewhere"
                    ));
                }
            }
        }
        if listed != self.station_cell.len() {
            return Some(format!(
                "{} stations indexed but {listed} listed across cells",
                self.station_cell.len()
            ));
        }
        for (id, &key) in self.station_cell.iter().enumerate() {
            let expect = self.cell_key(position(id));
            if key != expect {
                return Some(format!(
                    "station {id} recorded in cell {key:?} but positioned in {expect:?}"
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_of(cell: f64, pts: &[(f64, f64)]) -> SpatialGrid {
        SpatialGrid::build(cell, pts.iter().map(|&(x, y)| Point::new(x, y)))
    }

    #[test]
    fn boundary_positions_land_in_the_higher_cell() {
        // Exactly on a cell edge: floor(10/10) = 1, not 0 — and the
        // assignment is deterministic, not epsilon-dependent.
        let g = grid_of(
            10.0,
            &[(9.999, 0.0), (10.0, 0.0), (-10.0, 0.0), (-0.0, 0.0)],
        );
        assert_eq!(g.cell_of(0), (0, 0, 0));
        assert_eq!(g.cell_of(1), (1, 0, 0));
        assert_eq!(g.cell_of(2), (-1, 0, 0));
        assert_eq!(g.cell_of(3), (0, 0, 0), "negative zero is still zero");
        assert_eq!(g.cell_members((1, 0, 0)), &[1]);
    }

    #[test]
    fn neighborhood_is_sorted_and_covers_adjacent_cells_only() {
        let g = grid_of(
            10.0,
            &[
                (5.0, 5.0),
                (15.0, 5.0),
                (25.0, 5.0),
                (5.0, 15.0),
                (95.0, 95.0),
            ],
        );
        let mut out = Vec::new();
        g.neighborhood_into(g.cell_of(0), &mut out);
        // Cell (0,0) sees (1,0) and (0,1) but not (2,0) or the far one.
        assert_eq!(out, vec![0, 1, 3]);
        out.clear();
        g.neighborhood_into(g.cell_of(1), &mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn degenerate_single_cell_and_clamped_edge() {
        // All stations in one cell; a sub-metre edge clamps to 1 m.
        let g = grid_of(0.001, &[(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)]);
        assert_eq!(g.cell_m(), 1.0);
        assert_eq!(g.cell_count(), 1);
        let mut out = Vec::new();
        g.neighborhood_into(g.cell_of(2), &mut out);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn mobility_moves_between_cells_exactly_once() {
        let pts = [(5.0, 5.0), (15.0, 5.0)];
        let mut g = grid_of(10.0, &pts);
        let mut pos = [Point::new(5.0, 5.0), Point::new(15.0, 5.0)];
        assert!(g.find_incoherence(|i| pos[i]).is_none());

        // Crossing the boundary: leaves the old cell, joins the new,
        // appears in exactly one cell before and after.
        pos[0] = Point::new(10.0, 5.0);
        assert!(g.move_station(0, pos[0]));
        assert_eq!(g.cell_members((0, 0, 0)), &[] as &[StationId]);
        assert_eq!(g.cell_members((1, 0, 0)), &[0, 1]);
        assert!(g.find_incoherence(|i| pos[i]).is_none());

        // An intra-cell move touches nothing.
        pos[0] = Point::new(12.0, 5.0);
        assert!(!g.move_station(0, pos[0]));
        assert!(g.find_incoherence(|i| pos[i]).is_none());

        // A stale position table is caught.
        assert!(g.find_incoherence(|_| Point::new(500.0, 0.0)).is_some());
    }
}
