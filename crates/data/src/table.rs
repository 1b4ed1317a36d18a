//! Columnar point tables.
//!
//! `P(loc, a1, a2, …)` from the paper, stored structure-of-arrays: separate
//! dense vectors for x, y, timestamp, and each attribute. SoA is what both
//! the GPU implementation (vertex attribute buffers) and a scan-friendly CPU
//! implementation want: the point pass reads only `x, y` (+ filter columns),
//! never the full row.

use crate::schema::Schema;
use crate::time::{TimeRange, Timestamp};
use crate::{DataError, Result};
use urbane_geom::{BoundingBox, Point};

mod cluster;
pub use cluster::{ZoneFooter, ZONE_ROWS};

/// A spatio-temporal point data set with typed attribute columns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointTable {
    schema: Schema,
    xs: Vec<f64>,
    ys: Vec<f64>,
    ts: Vec<Timestamp>,
    attrs: Vec<Vec<f32>>,
    bbox: BoundingBox,
    /// One footer per [`ZONE_ROWS`] rows, set by [`PointTable::cluster`];
    /// empty whenever the rows are not (or no longer) in clustered order.
    zones: Vec<ZoneFooter>,
}

impl PointTable {
    /// Empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let attrs = (0..schema.len()).map(|_| Vec::new()).collect();
        PointTable {
            schema,
            xs: Vec::new(),
            ys: Vec::new(),
            ts: Vec::new(),
            attrs,
            bbox: BoundingBox::empty(),
            zones: Vec::new(),
        }
    }

    /// Empty table, pre-allocating for `cap` rows.
    pub fn with_capacity(schema: Schema, cap: usize) -> Self {
        let attrs = (0..schema.len()).map(|_| Vec::with_capacity(cap)).collect();
        PointTable {
            schema,
            xs: Vec::with_capacity(cap),
            ys: Vec::with_capacity(cap),
            ts: Vec::with_capacity(cap),
            attrs,
            bbox: BoundingBox::empty(),
            zones: Vec::new(),
        }
    }

    /// Build a table from whole columns — the decoders' path, no per-row
    /// `push`. The bounding box is recomputed from the coordinates; the table
    /// carries no zone footers.
    ///
    /// # Errors
    /// Fails when the columns disagree in length, or in number with the
    /// schema.
    pub fn from_columns(
        schema: Schema,
        xs: Vec<f64>,
        ys: Vec<f64>,
        ts: Vec<Timestamp>,
        attrs: Vec<Vec<f32>>,
    ) -> Result<Self> {
        let n = xs.len();
        if attrs.len() != schema.len() {
            return Err(DataError::Schema(format!(
                "{} attribute columns, schema expects {}",
                attrs.len(),
                schema.len()
            )));
        }
        if ys.len() != n || ts.len() != n || attrs.iter().any(|col| col.len() != n) {
            return Err(DataError::Schema("columns differ in length".into()));
        }
        let (x0, x1, _) = cluster::fold_range(&xs, f64::INFINITY, f64::NEG_INFINITY);
        let (y0, y1, _) = cluster::fold_range(&ys, f64::INFINITY, f64::NEG_INFINITY);
        let bbox = BoundingBox { min: Point::new(x0, y0), max: Point::new(x1, y1) };
        Ok(PointTable { schema, xs, ys, ts, attrs, bbox, zones: Vec::new() })
    }

    /// Adopt zone footers kept beside the rows (a `.ubs` directory) instead
    /// of recomputing them: the rows must already be in
    /// [`cluster`](Self::cluster) order and `zones[z]` must describe rows
    /// `z * ZONE_ROWS ..` exactly, as `cluster` would have recorded it.
    ///
    /// # Errors
    /// Fails when the footers do not match the table's shape.
    pub fn adopt_zones(&mut self, zones: Vec<ZoneFooter>) -> Result<()> {
        let n_cols = self.schema.len();
        if zones.len() != self.len().div_ceil(ZONE_ROWS)
            || zones.iter().any(|f| f.attr_min.len() != n_cols || f.attr_max.len() != n_cols)
        {
            return Err(DataError::Schema("zone footers do not match the table's shape".into()));
        }
        self.zones = zones;
        Ok(())
    }

    /// The attribute schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when the table has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Append one row. The new row is not in clustered order, so any zone
    /// footers are dropped.
    ///
    /// # Errors
    /// Fails when `attrs.len()` does not match the schema arity.
    pub fn push(&mut self, loc: Point, t: Timestamp, attrs: &[f32]) -> Result<()> {
        if attrs.len() != self.schema.len() {
            return Err(DataError::Schema(format!(
                "row has {} attributes, schema expects {}",
                attrs.len(),
                self.schema.len()
            )));
        }
        self.xs.push(loc.x);
        self.ys.push(loc.y);
        self.ts.push(t);
        for (col, &v) in self.attrs.iter_mut().zip(attrs) {
            col.push(v);
        }
        self.bbox.expand(loc);
        self.zones.clear();
        Ok(())
    }

    /// Location of row `i`.
    #[inline]
    pub fn loc(&self, i: usize) -> Point {
        Point::new(self.xs[i], self.ys[i])
    }

    /// Timestamp of row `i`.
    #[inline]
    pub fn time(&self, i: usize) -> Timestamp {
        self.ts[i]
    }

    /// Attribute value of row `i`, column `col`.
    #[inline]
    pub fn attr(&self, i: usize, col: usize) -> f32 {
        self.attrs[col][i]
    }

    /// Raw x column.
    #[inline]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Raw y column.
    #[inline]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Raw timestamp column.
    #[inline]
    pub fn timestamps(&self) -> &[Timestamp] {
        &self.ts
    }

    /// Attribute column by index.
    #[inline]
    pub fn column(&self, col: usize) -> &[f32] {
        &self.attrs[col]
    }

    /// Every attribute column, in schema order.
    #[inline]
    pub fn columns(&self) -> &[Vec<f32>] {
        &self.attrs
    }

    /// Attribute column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&[f32]> {
        Ok(&self.attrs[self.schema.index_of(name)?])
    }

    /// Tight bounding box over all point locations (empty when no rows).
    #[inline]
    pub fn bbox(&self) -> BoundingBox {
        self.bbox
    }

    /// `[min, max)`-style time extent covering every row (`None` when empty).
    /// The end is the maximum timestamp + 1 so `contains` holds for it.
    pub fn time_extent(&self) -> Option<TimeRange> {
        let min = *self.ts.iter().min()?;
        let max = *self.ts.iter().max()?;
        Some(TimeRange::new(min, max + 1))
    }

    /// Iterate all point locations.
    pub fn locations(&self) -> impl Iterator<Item = Point> + '_ {
        self.xs.iter().zip(&self.ys).map(|(&x, &y)| Point::new(x, y))
    }

    /// Build a new table containing only the rows where `keep[i]` is true.
    pub fn filter_rows(&self, keep: &[bool]) -> PointTable {
        assert_eq!(keep.len(), self.len(), "selection mask must cover every row");
        let mut out = PointTable::new(self.schema.clone());
        for i in 0..self.len() {
            if keep[i] {
                out.xs.push(self.xs[i]);
                out.ys.push(self.ys[i]);
                out.ts.push(self.ts[i]);
                for (c, col) in self.attrs.iter().enumerate() {
                    out.attrs[c].push(col[i]);
                }
                out.bbox.expand(self.loc(i));
            }
        }
        out
    }

    /// Concatenate another table with the same schema (drops any zone
    /// footers, like [`push`](Self::push)).
    pub fn append(&mut self, other: &PointTable) -> Result<()> {
        if self.schema != other.schema {
            return Err(DataError::Schema("appending tables with different schemas".into()));
        }
        self.xs.extend_from_slice(&other.xs);
        self.ys.extend_from_slice(&other.ys);
        self.ts.extend_from_slice(&other.ts);
        for (dst, src) in self.attrs.iter_mut().zip(&other.attrs) {
            dst.extend_from_slice(src);
        }
        self.bbox = self.bbox.union(&other.bbox);
        self.zones.clear();
        Ok(())
    }

    /// Take the first `n` rows (prefix slice) — used by scalability sweeps
    /// to evaluate the same data set at several cardinalities.
    pub fn prefix(&self, n: usize) -> PointTable {
        let n = n.min(self.len());
        let mut out = PointTable::new(self.schema.clone());
        out.xs.extend_from_slice(&self.xs[..n]);
        out.ys.extend_from_slice(&self.ys[..n]);
        out.ts.extend_from_slice(&self.ts[..n]);
        for (dst, src) in out.attrs.iter_mut().zip(&self.attrs) {
            dst.extend_from_slice(&src[..n]);
        }
        out.bbox = BoundingBox::of_points(out.locations());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;

    fn sample() -> PointTable {
        let schema = Schema::new([("fare", AttrType::Numeric)]).unwrap();
        let mut t = PointTable::new(schema);
        t.push(Point::new(1.0, 2.0), 100, &[10.0]).unwrap();
        t.push(Point::new(3.0, 4.0), 200, &[20.0]).unwrap();
        t.push(Point::new(-1.0, 0.0), 50, &[30.0]).unwrap();
        t
    }

    #[test]
    fn push_and_access() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.loc(1), Point::new(3.0, 4.0));
        assert_eq!(t.time(2), 50);
        assert_eq!(t.attr(0, 0), 10.0);
        assert_eq!(t.column_by_name("fare").unwrap(), &[10.0, 20.0, 30.0]);
        assert!(t.column_by_name("nope").is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = sample();
        assert!(t.push(Point::ORIGIN, 0, &[]).is_err());
        assert!(t.push(Point::ORIGIN, 0, &[1.0, 2.0]).is_err());
        assert_eq!(t.len(), 3, "failed pushes must not mutate");
    }

    #[test]
    fn bbox_and_time_extent() {
        let t = sample();
        assert_eq!(t.bbox(), BoundingBox::from_coords(-1.0, 0.0, 3.0, 4.0));
        let ext = t.time_extent().unwrap();
        assert_eq!(ext.start, 50);
        assert!(ext.contains(200));
        assert!(!ext.contains(201));
        assert!(PointTable::new(Schema::empty()).time_extent().is_none());
    }

    #[test]
    fn filter_rows_preserves_columns() {
        let t = sample();
        let f = t.filter_rows(&[true, false, true]);
        assert_eq!(f.len(), 2);
        assert_eq!(f.loc(1), Point::new(-1.0, 0.0));
        assert_eq!(f.column(0), &[10.0, 30.0]);
        assert_eq!(f.bbox(), BoundingBox::from_coords(-1.0, 0.0, 1.0, 2.0));
    }

    #[test]
    fn append_and_prefix() {
        let mut a = sample();
        let b = sample();
        a.append(&b).unwrap();
        assert_eq!(a.len(), 6);
        let p = a.prefix(4);
        assert_eq!(p.len(), 4);
        assert_eq!(p.loc(3), Point::new(1.0, 2.0));
        assert_eq!(p.prefix(100).len(), 4);
        // Appending a different schema fails.
        let other = PointTable::new(Schema::empty());
        assert!(a.append(&other).is_err());
    }

    #[test]
    fn locations_iterator() {
        let t = sample();
        let pts: Vec<Point> = t.locations().collect();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], Point::new(1.0, 2.0));
    }
}
