//! Stand-in for `benchmark/probe`, which still builds a uniform-grid bin
//! index and times it (`data.bin_*`). Nothing in the workspace prunes by
//! bins any more: a clustered table's zone footers decide which rows reach
//! a tile (DESIGN.md "Row order is the query plan"). The module goes in the
//! next `benchmark` change.
//!
//! A [`BinnedPointTable`] groups a [`PointTable`]'s row indices by a uniform
//! grid cell, CSR-style: cell `c`'s rows are
//! `permutation[offsets[c]..offsets[c+1]]`, ascending, and each cell keeps
//! the tight bounding box of its points.

use crate::table::PointTable;
use urbane_geom::{BoundingBox, Point};

/// Rough number of points a cell of the grid should hold.
const TARGET_POINTS_PER_CELL: usize = 1024;

/// Largest grid side: 256×256 cells bound the offsets/bbox arrays to a few
/// MB no matter how large the table grows.
const MAX_GRID_SIDE: u32 = 256;

/// A uniform-grid CSR index over a point table's rows.
#[doc(hidden)]
#[derive(Debug)]
pub struct BinnedPointTable {
    /// The world box the grid covers (the table's bbox at build time).
    bbox: BoundingBox,
    /// Grid side, in cells, along both axes.
    side: u32,
    /// Cell width in world units (positive even for degenerate extents).
    cell_w: f64,
    /// Cell height in world units.
    cell_h: f64,
    /// CSR offsets, `side² + 1` entries.
    offsets: Vec<u32>,
    /// Point indices grouped by cell, ascending within each cell.
    permutation: Vec<u32>,
    /// Tight bbox of each cell's points (empty for empty cells).
    cell_bounds: Vec<BoundingBox>,
}

impl BinnedPointTable {
    /// Bin `table` on a square grid of ≈[`TARGET_POINTS_PER_CELL`] points
    /// per cell. Stand-in for `benchmark/probe`; goes in the next
    /// `benchmark` change.
    pub fn build(table: &PointTable) -> Self {
        let n = table.len();
        let side = ((n as f64 / TARGET_POINTS_PER_CELL as f64).sqrt().ceil() as u32)
            .clamp(1, MAX_GRID_SIDE);
        let bbox = table.bbox();
        let cells = (side as usize) * (side as usize);
        // Degenerate widths (empty table, or all points collinear) still get
        // a positive cell size so the coordinate→cell math stays finite.
        let cell = |extent: f64| if bbox.is_empty() || extent <= 0.0 { 1.0 } else { extent / side as f64 };
        let mut this = BinnedPointTable {
            bbox,
            side,
            cell_w: cell(bbox.width()),
            cell_h: cell(bbox.height()),
            offsets: vec![0u32; cells + 1],
            permutation: vec![0u32; n],
            cell_bounds: vec![BoundingBox::empty(); cells],
        };

        // Counting sort, two passes. Pass 1: histogram into offsets[c + 1].
        for i in 0..n {
            let c = this.cell_of(table.loc(i));
            this.offsets[c + 1] += 1;
        }
        for c in 0..cells {
            this.offsets[c + 1] += this.offsets[c];
        }
        // Pass 2: place indices, scanning i ascending so each cell's slice
        // stays ascending.
        let mut cursor: Vec<u32> = this.offsets[..cells].to_vec();
        for i in 0..n {
            let p = table.loc(i);
            let c = this.cell_of(p);
            this.permutation[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
            this.cell_bounds[c].expand(p);
        }
        this
    }

    /// The grid column or row holding world offset `d` from the grid's
    /// corner; out-of-box offsets clamp into the edge cells.
    #[inline]
    fn axis_cell(&self, d: f64, cell: f64) -> usize {
        ((d / cell).floor() as i64).clamp(0, self.side as i64 - 1) as usize
    }

    /// The linearized (row-major) cell holding `p`.
    #[inline]
    fn cell_of(&self, p: Point) -> usize {
        let cx = self.axis_cell(p.x - self.bbox.min.x, self.cell_w);
        let cy = self.axis_cell(p.y - self.bbox.min.y, self.cell_h);
        cy * self.side as usize + cx
    }

    /// Rows indexed. Stand-in for `benchmark/probe`; goes in the next
    /// `benchmark` change.
    #[inline]
    pub fn len(&self) -> usize {
        self.permutation.len()
    }

    /// True when the underlying table had no rows. Stand-in for
    /// `benchmark/probe`; goes in the next `benchmark` change.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.permutation.is_empty()
    }

    /// Append the indices of every point that might fall inside `query`
    /// (cell-bbox granularity, so a superset of the true matches), cell by
    /// cell. Stand-in for `benchmark/probe`; goes in the next `benchmark`
    /// change.
    pub fn candidates_into(&self, query: &BoundingBox, out: &mut Vec<u32>) {
        if query.is_empty() || !query.intersects(&self.bbox) {
            return;
        }
        let (x0, y0) = (query.min.x - self.bbox.min.x, query.min.y - self.bbox.min.y);
        let (x1, y1) = (query.max.x - self.bbox.min.x, query.max.y - self.bbox.min.y);
        for cy in self.axis_cell(y0, self.cell_h)..=self.axis_cell(y1, self.cell_h) {
            for cx in self.axis_cell(x0, self.cell_w)..=self.axis_cell(x1, self.cell_w) {
                let c = cy * self.side as usize + cx;
                let (lo, hi) = (self.offsets[c] as usize, self.offsets[c + 1] as usize);
                if lo < hi && self.cell_bounds[c].intersects(query) {
                    out.extend_from_slice(&self.permutation[lo..hi]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, Schema};

    fn table(n: usize) -> PointTable {
        let schema = Schema::new([("v", AttrType::Numeric)]).unwrap();
        let mut t = PointTable::new(schema);
        for i in 0..n {
            // Deterministic scatter over [0, 100)².
            let x = (i.wrapping_mul(104_729) % 100_000) as f64 / 1_000.0;
            let y = (i.wrapping_mul(15_485_863) % 100_000) as f64 / 1_000.0;
            t.push(Point::new(x, y), i as i64, &[i as f32]).unwrap();
        }
        t
    }

    #[test]
    fn permutation_is_a_bijection() {
        let t = table(2_000);
        let b = BinnedPointTable::build(&t);
        assert_eq!(b.len(), 2_000);
        let mut all = Vec::new();
        b.candidates_into(&t.bbox(), &mut all);
        all.sort_unstable();
        assert_eq!(all, (0..2_000).collect::<Vec<u32>>(), "every row binned exactly once");
    }

    #[test]
    fn candidates_superset_of_window_matches() {
        let t = table(5_000);
        let b = BinnedPointTable::build(&t);
        let window = BoundingBox::from_coords(20.0, 30.0, 45.0, 55.0);
        let mut cand = Vec::new();
        b.candidates_into(&window, &mut cand);
        cand.sort_unstable();
        // Superset: every true match is a candidate.
        for i in 0..t.len() {
            if window.contains(t.loc(i)) {
                assert!(cand.binary_search(&(i as u32)).is_ok(), "match {i} missing");
            }
        }
        // And pruning actually happened on a quarter-ish window.
        assert!(cand.len() < t.len(), "window candidates must prune");
    }

    #[test]
    fn disjoint_window_yields_nothing() {
        let t = table(500);
        let b = BinnedPointTable::build(&t);
        let mut cand = Vec::new();
        b.candidates_into(&BoundingBox::from_coords(500.0, 500.0, 600.0, 600.0), &mut cand);
        assert!(cand.is_empty());
    }

    #[test]
    fn degenerate_tables_bin_safely() {
        let schema = Schema::new([("v", AttrType::Numeric)]).unwrap();
        let empty = PointTable::new(schema.clone());
        let b = BinnedPointTable::build(&empty);
        assert!(b.is_empty());
        let mut cand = Vec::new();
        b.candidates_into(&BoundingBox::from_coords(0.0, 0.0, 10.0, 10.0), &mut cand);
        assert!(cand.is_empty());

        // All rows on one spot: zero-width bbox.
        let mut t = PointTable::new(schema);
        for i in 0..10 {
            t.push(Point::new(5.0, 5.0), i, &[0.0]).unwrap();
        }
        let b = BinnedPointTable::build(&t);
        b.candidates_into(&BoundingBox::from_coords(0.0, 0.0, 10.0, 10.0), &mut cand);
        assert_eq!(cand.len(), 10);
    }
}
