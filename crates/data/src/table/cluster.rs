//! Clustering: a resident table's row order is its query plan.
//!
//! [`PointTable::cluster`] stably reorders the rows by (day bucket of the
//! table's own time extent, Hilbert cell of its own bounding box) and
//! records one [`ZoneFooter`] per [`ZONE_ROWS`] rows. A time brush then
//! selects a contiguous run of days, a viewport a few runs of curve cells
//! inside each day, and the executor decides whole zones from the footers
//! before it reads a row (DESIGN.md "Row order is the query plan").
//!
//! The reorder never holds a whole-table key or permutation: rows are
//! scattered into their day one column at a time (the day is recomputed
//! from the not-yet-moved timestamp column, which therefore moves last),
//! and each day is then counting-sorted on its curve cell with day-sized
//! scratch only. The transient is one spare column, 8 bytes a row at most,
//! and the table ends up in the buffers it came in: what is freed is the
//! spare, the last thing allocated, so what an allocator retains of it is
//! one block at the top of its heap, which the next large allocation takes
//! — not a hole per column type (handing the old buffers back instead left
//! 20 MB resident after three 1M-row tables; this leaves 8).

use super::PointTable;
use crate::hilbert;
use crate::time::{TimeRange, Timestamp, DAY};
use urbane_geom::{BoundingBox, Point};

/// Rows per zone — the unit the executors poll their budget at and the
/// unit they skip, take whole or scan (`raster_join`'s `POINT_CHUNK` is
/// this constant, so a zone is exactly one chunk of the point pass).
pub const ZONE_ROWS: usize = 8192;

/// Order of the Hilbert minor key: a 64×64 grid over the table's bbox.
const CELL_ORDER: u32 = 6;
const CELL_SIDE: u32 = 1 << CELL_ORDER;
const CELLS: usize = (CELL_SIDE * CELL_SIDE) as usize;

/// Most buckets the major key may have; a longer extent gets buckets of
/// several whole days so the bucket table stays a few kilobytes.
const MAX_DAY_BUCKETS: u64 = 4096;

/// What is known about one zone without reading its rows — a `.ubs`
/// chunk footer minus the file offset. Ranges are exact over the zone's
/// rows; NaN values are left out of them and flagged instead.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneFooter {
    /// Tight box over the zone's locations (NaN coordinates ignored).
    pub bbox: BoundingBox,
    /// Minimum timestamp in the zone.
    pub t_min: Timestamp,
    /// Maximum timestamp in the zone (closed).
    pub t_max: Timestamp,
    /// Per-attribute minimum, index-aligned with the schema.
    pub attr_min: Vec<f32>,
    /// Per-attribute maximum.
    pub attr_max: Vec<f32>,
    /// Some coordinate or attribute of the zone is NaN: the ranges above
    /// cannot vouch for every row, so the zone is never taken whole.
    pub has_nan: bool,
}

impl ZoneFooter {
    /// The footer of no rows: the identity of [`fold_rows`](Self::fold_rows)
    /// and [`absorb`](Self::absorb).
    pub fn empty(n_cols: usize) -> Self {
        ZoneFooter {
            bbox: BoundingBox::empty(),
            t_min: Timestamp::MAX,
            t_max: Timestamp::MIN,
            attr_min: vec![f32::INFINITY; n_cols],
            attr_max: vec![f32::NEG_INFINITY; n_cols],
            has_nan: false,
        }
    }

    /// Fold one run of rows, given column by column (`attrs` yields the
    /// run's slice of each attribute, in schema order), into the footer.
    /// Allocates nothing: `cluster` calls it between its large buffers, where
    /// even a small allocation moves what the allocator can hand back.
    pub fn fold_rows<'a>(
        &mut self,
        xs: &[f64],
        ys: &[f64],
        ts: &[Timestamp],
        attrs: impl IntoIterator<Item = &'a [f32]>,
    ) {
        let (x0, x1, x_nan) = fold_range(xs, self.bbox.min.x, self.bbox.max.x);
        let (y0, y1, y_nan) = fold_range(ys, self.bbox.min.y, self.bbox.max.y);
        self.bbox = BoundingBox { min: Point::new(x0, y0), max: Point::new(x1, y1) };
        (self.t_min, self.t_max, _) = fold_range(ts, self.t_min, self.t_max);
        self.has_nan |= x_nan || y_nan;
        // lint: allow(cancel-poll-reachability) one iteration per attribute column of one zone; `cluster` folds footers once per registration, off the query path
        for (c, col) in attrs.into_iter().enumerate() {
            let nan;
            (self.attr_min[c], self.attr_max[c], nan) =
                fold_range(col, self.attr_min[c], self.attr_max[c]);
            self.has_nan |= nan;
        }
    }

    /// Widen the footer to cover `other`'s rows too (a `.ubs` chunk footer
    /// is the union of its zones').
    pub fn absorb(&mut self, other: &ZoneFooter) {
        self.bbox = self.bbox.union(&other.bbox);
        self.t_min = self.t_min.min(other.t_min);
        self.t_max = self.t_max.max(other.t_max);
        for (lo, &o) in self.attr_min.iter_mut().zip(&other.attr_min) {
            *lo = lo.min(o);
        }
        for (hi, &o) in self.attr_max.iter_mut().zip(&other.attr_max) {
            *hi = hi.max(o);
        }
        self.has_nan |= other.has_nan;
    }

    // The proof rules: what the footer proves about one filter condition for
    // *every* row it covers — `Some(false)` none passes, `Some(true)` all
    // pass, `None` the rows must be tested. Ranges are exact over the non-NaN
    // values, so a disjoint range rejects every row (a NaN fails a value or
    // location condition on its own); the converse needs every value inside,
    // which a NaN is not, so a footer with `has_nan` never proves `true` on
    // values or locations. Resident executor and stored join both ask here.

    /// Attribute `col` in the closed range `[min, max]`.
    #[inline]
    pub fn decide_range(&self, col: usize, min: f32, max: f32) -> Option<bool> {
        let (lo, hi) = (self.attr_min[col], self.attr_max[col]);
        verdict(hi < min || lo > max, !self.has_nan && lo >= min && hi <= max)
    }

    /// Attribute `col` equal to `value`.
    #[inline]
    pub fn decide_equals(&self, col: usize, value: f32) -> Option<bool> {
        let (lo, hi) = (self.attr_min[col], self.attr_max[col]);
        verdict(hi < value || lo > value, !self.has_nan && lo == value && hi == value)
    }

    /// Timestamp in the half-open `[start, end)`, against the closed footer
    /// `[t_min, t_max]` (timestamps are never NaN).
    #[inline]
    pub fn decide_time(&self, range: &TimeRange) -> Option<bool> {
        verdict(
            self.t_max < range.start || self.t_min >= range.end,
            self.t_min >= range.start && self.t_max < range.end,
        )
    }

    /// Location in the closed box `bbox`.
    #[inline]
    pub fn decide_box(&self, bbox: &BoundingBox) -> Option<bool> {
        verdict(!bbox.intersects(&self.bbox), !self.has_nan && bbox.contains_box(&self.bbox))
    }
}

#[inline]
fn verdict(disjoint: bool, inside: bool) -> Option<bool> {
    if disjoint {
        Some(false)
    } else if inside {
        Some(true)
    } else {
        None
    }
}

/// The major key: whole UTC days since the day of the table's first
/// timestamp — calendar days, because that is where brushes start and end —
/// in buckets of `days_per_bucket` days.
#[derive(Clone, Copy)]
struct DayBuckets {
    /// Midnight on or before the first timestamp (the timestamp itself in
    /// the last day before `i64::MIN`, where that midnight does not exist).
    base: Timestamp,
    days_per_bucket: u64,
}

impl DayBuckets {
    fn spanning(t_min: Timestamp, t_max: Timestamp) -> Self {
        let base = t_min.checked_sub(t_min.rem_euclid(DAY)).unwrap_or(t_min);
        let days = (t_max.wrapping_sub(base) as u64) / DAY as u64 + 1;
        DayBuckets { base, days_per_bucket: days.div_ceil(MAX_DAY_BUCKETS) }
    }

    #[inline]
    fn of(&self, t: Timestamp) -> usize {
        // The wrapped difference of two i64 read as u64 is their exact
        // distance whenever `t >= base`.
        let day = (t.wrapping_sub(self.base) as u64) / DAY as u64;
        if self.days_per_bucket == 1 {
            day as usize
        } else {
            (day / self.days_per_bucket) as usize
        }
    }
}

/// Scatter `col` stably into its rows' day buckets, into `out` (`starts[b]`
/// is the first output row of bucket `b`).
fn scatter_by_day<T: Copy + Default>(
    col: &[T],
    out: &mut Vec<T>,
    ts: &[Timestamp],
    buckets: DayBuckets,
    starts: &[usize],
) {
    let mut next = starts.to_vec();
    out.resize(col.len(), T::default());
    for (&v, &t) in col.iter().zip(ts) {
        let slot = &mut next[buckets.of(t)];
        out[*slot] = v;
        *slot += 1;
    }
}

/// Scatter same-typed columns by day through one spare. Each column is built
/// in the buffer the previous one vacated (the spare, for the first) and
/// takes it over; the first column then moves out of the spare into the
/// buffer the last one vacated, so the columns keep the table's own buffers
/// among themselves and it is the spare that is freed.
fn scatter_columns<T: Copy + Default>(
    mut cols: Vec<&mut Vec<T>>,
    ts: &[Timestamp],
    buckets: DayBuckets,
    starts: &[usize],
) {
    let mut spare = Vec::new();
    for col in &mut cols {
        scatter_by_day(col, &mut spare, ts, buckets, starts);
        std::mem::swap(*col, &mut spare);
    }
    if let Some(first) = cols.first_mut() {
        spare.copy_from_slice(first);
        std::mem::swap(*first, &mut spare);
    }
}

/// Exact `(min, max, any NaN)` of `vals` folded into the running pair; a NaN
/// compares false both ways and so never enters the range. Eight independent
/// lanes, because one running minimum is a chain of dependent compares the
/// compiler may not reorder for floats.
pub(super) fn fold_range<T: Copy + PartialOrd>(vals: &[T], min: T, max: T) -> (T, T, bool) {
    const LANES: usize = 8;
    #[allow(clippy::eq_op)] // `v != v` is the NaN test, generic over the column type
    fn fold<T: Copy + PartialOrd>(acc: &mut (T, T, bool), v: T) {
        acc.0 = if v < acc.0 { v } else { acc.0 };
        acc.1 = if v > acc.1 { v } else { acc.1 };
        acc.2 |= v != v;
    }
    let mut lanes = [(min, max, false); LANES];
    let groups = vals.chunks_exact(LANES);
    let tail = groups.remainder();
    for group in groups {
        for (acc, &v) in lanes.iter_mut().zip(group) {
            fold(acc, v);
        }
    }
    let mut all = (min, max, false);
    for &v in tail {
        fold(&mut all, v);
    }
    for lane in lanes {
        all.0 = if lane.0 < all.0 { lane.0 } else { all.0 };
        all.1 = if lane.1 > all.1 { lane.1 } else { all.1 };
        all.2 |= lane.2;
    }
    all
}

/// Rewrite `col` so that `col[k] = old col[order[k]]`.
fn gather_in_place<T: Copy>(col: &mut [T], order: &[u32], scratch: &mut Vec<T>) {
    scratch.clear();
    scratch.extend(order.iter().map(|&s| col[s as usize]));
    col.copy_from_slice(scratch);
}

impl PointTable {
    /// The zone footers [`cluster`](Self::cluster) recorded, one per
    /// [`ZONE_ROWS`] rows in row order; empty for a table that was never
    /// clustered or has grown since.
    #[inline]
    pub fn zones(&self) -> &[ZoneFooter] {
        &self.zones
    }

    /// Reorder the rows by (day, Hilbert cell) and record the zone
    /// footers. A stable permutation of the rows — ties keep their input
    /// order — and a function of the row multiset's time extent and bbox
    /// only, so it is deterministic and idempotent.
    pub fn cluster(&mut self) {
        let n = self.len();
        let n_cols = self.attrs.len();
        self.zones.clear();
        if n == 0 {
            return;
        }
        let (t_min, t_max, _) = fold_range(&self.ts, Timestamp::MAX, Timestamp::MIN);

        // Major key: stable scatter into day buckets, column by column.
        let buckets = DayBuckets::spanning(t_min, t_max);
        let mut starts = vec![0usize; buckets.of(t_max) + 2];
        for &t in &self.ts {
            starts[buckets.of(t) + 1] += 1;
        }
        let mut rows = 0;
        for s in &mut starts {
            rows += *s;
            *s = rows;
        }
        if starts.len() > 2 {
            // One spare alive at a time, freed before the next is made.
            scatter_columns(self.attrs.iter_mut().collect(), &self.ts, buckets, &starts);
            scatter_columns(vec![&mut self.xs, &mut self.ys], &self.ts, buckets, &starts);
            let mut spare = Vec::new();
            scatter_by_day(&self.ts, &mut spare, &self.ts, buckets, &starts);
            self.ts.copy_from_slice(&spare);
        }

        // Minor key: per day, a stable counting sort on the curve cell; the
        // footers are folded while the day's rows are still in cache.
        let curve: Vec<u16> = (0..CELLS as u32)
            .map(|c| hilbert::xy2d(CELL_ORDER, c % CELL_SIDE, c / CELL_SIDE) as u16)
            .collect();
        // Cells per world unit; a degenerate axis collapses to cell 0, and so
        // does a NaN coordinate (`as` saturates it to 0).
        let min = self.bbox.min;
        let per_unit = |extent: f64| if extent > 0.0 { CELL_SIDE as f64 / extent } else { 0.0 };
        let (sx, sy) = (per_unit(self.bbox.width()), per_unit(self.bbox.height()));
        let cell = |v: f64, min: f64, scale: f64| {
            (((v - min) * scale) as i64).clamp(0, CELL_SIDE as i64 - 1) as usize
        };
        self.zones = vec![ZoneFooter::empty(n_cols); n.div_ceil(ZONE_ROWS)];
        let mut cells: Vec<u16> = Vec::new();
        let mut order: Vec<u32> = Vec::new();
        let (mut tmp64, mut tmp32, mut tmp_ts) = (Vec::new(), Vec::new(), Vec::new());
        for (&lo, &hi) in starts.iter().zip(&starts[1..]) {
            cells.clear();
            cells.extend(self.xs[lo..hi].iter().zip(&self.ys[lo..hi]).map(|(&x, &y)| {
                curve[cell(y, min.y, sy) * CELL_SIDE as usize + cell(x, min.x, sx)]
            }));
            let mut next = [0u32; CELLS + 1];
            for &c in &cells {
                next[c as usize + 1] += 1;
            }
            let mut rows = 0;
            for s in &mut next {
                rows += *s;
                *s = rows;
            }
            order.clear();
            order.resize(hi - lo, 0);
            for (row, &c) in cells.iter().enumerate() {
                let slot = &mut next[c as usize];
                order[*slot as usize] = row as u32;
                *slot += 1;
            }
            gather_in_place(&mut self.xs[lo..hi], &order, &mut tmp64);
            gather_in_place(&mut self.ys[lo..hi], &order, &mut tmp64);
            gather_in_place(&mut self.ts[lo..hi], &order, &mut tmp_ts);
            for col in &mut self.attrs {
                gather_in_place(&mut col[lo..hi], &order, &mut tmp32);
            }
            self.fold_footers(lo, hi);
        }
    }

    /// Fold rows `lo..hi` into the footers of the zones they lie in.
    fn fold_footers(&mut self, lo: usize, hi: usize) {
        let mut a = lo;
        while a < hi {
            let z = a / ZONE_ROWS;
            let b = ((z + 1) * ZONE_ROWS).min(hi);
            self.zones[z].fold_rows(
                &self.xs[a..b],
                &self.ys[a..b],
                &self.ts[a..b],
                self.attrs.iter().map(|col| &col[a..b]),
            );
            a = b;
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
            let x = (i.wrapping_mul(104_729) % 1_000) as f64 / 10.0;
            let y = (i.wrapping_mul(15_485_863) % 1_000) as f64 / 10.0;
            let day = (i.wrapping_mul(7_919) % 9) as i64;
            t.push(Point::new(x, y), day * DAY + (i % 86_400) as i64, &[i as f32]).unwrap();
        }
        t
    }

    #[test]
    fn rows_end_up_day_major_and_inside_their_footer() {
        let mut t = table(20_000);
        t.cluster();
        assert_eq!(t.zones().len(), 3);
        let days: Vec<i64> = t.timestamps().iter().map(|&s| s / DAY).collect();
        assert!(days.windows(2).all(|w| w[0] <= w[1]), "rows must be day-major");
        for i in 0..t.len() {
            let f = &t.zones()[i / ZONE_ROWS];
            assert!(f.bbox.contains(t.loc(i)));
            assert!((f.t_min..=f.t_max).contains(&t.time(i)));
            assert!((f.attr_min[0]..=f.attr_max[0]).contains(&t.attr(i, 0)));
        }
    }

    #[test]
    fn growing_the_table_drops_the_footers() {
        let mut t = table(100);
        t.cluster();
        assert_eq!(t.zones().len(), 1);
        let other = t.clone();
        t.push(Point::new(1.0, 1.0), 5, &[1.0]).unwrap();
        assert!(t.zones().is_empty());
        t.cluster();
        t.append(&other).unwrap();
        assert!(t.zones().is_empty());
    }

    #[test]
    fn long_extents_share_buckets() {
        let schema = Schema::empty();
        let mut t = PointTable::new(schema);
        for &s in &[i64::MAX, 0, i64::MIN, 17] {
            t.push(Point::new(s as f64, 0.0), s, &[]).unwrap();
        }
        t.cluster();
        assert_eq!(t.timestamps(), &[i64::MIN, 0, 17, i64::MAX]);
    }
}
