//! Ad-hoc filter conditions — the `[AND filterCondition]*` of the paper's
//! query template.
//!
//! These are exactly the constraints that break pre-aggregation: a data cube
//! can only answer queries whose predicates align with its materialized
//! dimensions, while Raster Join (and the index baselines) evaluate any
//! predicate row-by-row at query time.

use crate::table::PointTable;
use crate::time::TimeRange;
use crate::Result;
use urbane_geom::BoundingBox;

/// One filter condition over a point table.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Attribute in `[min, max]` (closed; NaN never matches).
    AttrRange { column: String, min: f32, max: f32 },
    /// Attribute equals a categorical code.
    AttrEquals { column: String, value: f32 },
    /// Timestamp within a half-open range.
    Time(TimeRange),
    /// Location within a closed box (viewport pre-filter).
    SpatialBox(BoundingBox),
}

impl Filter {
    /// Evaluate this filter for row `i` (column indexes pre-resolved by
    /// [`FilterSet::compile`]).
    fn matches(&self, table: &PointTable, col: Option<usize>, i: usize) -> bool {
        match self {
            Filter::AttrRange { min, max, .. } => {
                // lint: allow(panic-freedom) FilterSet::compile resolves a column for every attr filter before matches() runs
                let v = table.attr(i, col.expect("compiled"));
                v >= *min && v <= *max
            }
            Filter::AttrEquals { value, .. } => {
                // lint: allow(panic-freedom) FilterSet::compile resolves a column for every attr filter before matches() runs
                table.attr(i, col.expect("compiled")) == *value
            }
            Filter::Time(r) => r.contains(table.time(i)),
            Filter::SpatialBox(b) => b.contains(table.loc(i)),
        }
    }
}

/// A conjunction of filters, compiled against a table's schema for fast
/// row-at-a-time evaluation.
#[derive(Debug, Clone, Default)]
pub struct FilterSet {
    filters: Vec<Filter>,
}

impl FilterSet {
    /// No filters — matches everything.
    pub fn none() -> Self {
        FilterSet { filters: Vec::new() }
    }

    /// Build from a list of conditions.
    pub fn new(filters: Vec<Filter>) -> Self {
        FilterSet { filters }
    }

    /// Add a condition (builder style).
    pub fn and(mut self, f: Filter) -> Self {
        self.filters.push(f);
        self
    }

    /// The conditions.
    pub fn filters(&self) -> &[Filter] {
        &self.filters
    }

    /// True when there are no conditions.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Resolve column names against `table`'s schema.
    ///
    /// # Errors
    /// Fails on unknown column names.
    pub fn compile<'t>(&self, table: &'t PointTable) -> Result<CompiledFilter<'t, '_>> {
        let mut cols = Vec::with_capacity(self.filters.len());
        for f in &self.filters {
            let col = match f {
                Filter::AttrRange { column, .. } | Filter::AttrEquals { column, .. } => {
                    Some(table.schema().index_of(column)?)
                }
                _ => None,
            };
            cols.push(col);
        }
        Ok(CompiledFilter { table, filters: &self.filters, cols })
    }

    /// Evaluate against a whole table, returning the selection mask.
    pub fn mask(&self, table: &PointTable) -> Result<Vec<bool>> {
        let c = self.compile(table)?;
        Ok((0..table.len()).map(|i| c.matches(i)).collect())
    }

    /// Fraction of rows selected (diagnostic for selectivity sweeps).
    pub fn selectivity(&self, table: &PointTable) -> Result<f64> {
        if table.is_empty() {
            return Ok(0.0);
        }
        let mask = self.mask(table)?;
        Ok(mask.iter().filter(|&&b| b).count() as f64 / table.len() as f64)
    }
}

/// A filter set bound to one table, ready for per-row probing.
pub struct CompiledFilter<'t, 'f> {
    table: &'t PointTable,
    filters: &'f [Filter],
    cols: Vec<Option<usize>>,
}

impl CompiledFilter<'_, '_> {
    /// Does row `i` satisfy every condition?
    #[inline]
    pub fn matches(&self, i: usize) -> bool {
        self.filters
            .iter()
            .zip(&self.cols)
            .all(|(f, &col)| f.matches(self.table, col, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, Schema};
    use urbane_geom::Point;

    fn table() -> PointTable {
        let schema =
            Schema::new([("fare", AttrType::Numeric), ("kind", AttrType::Categorical)]).unwrap();
        let mut t = PointTable::new(schema);
        t.push(Point::new(0.0, 0.0), 100, &[5.0, 1.0]).unwrap();
        t.push(Point::new(1.0, 1.0), 200, &[15.0, 2.0]).unwrap();
        t.push(Point::new(2.0, 2.0), 300, &[25.0, 1.0]).unwrap();
        t.push(Point::new(3.0, 3.0), 400, &[35.0, 3.0]).unwrap();
        t
    }

    #[test]
    fn empty_filter_matches_all() {
        let t = table();
        assert_eq!(FilterSet::none().mask(&t).unwrap(), vec![true; 4]);
        assert_eq!(FilterSet::none().selectivity(&t).unwrap(), 1.0);
    }

    #[test]
    fn attr_range() {
        let t = table();
        let f = FilterSet::none().and(Filter::AttrRange {
            column: "fare".into(),
            min: 10.0,
            max: 30.0,
        });
        assert_eq!(f.mask(&t).unwrap(), vec![false, true, true, false]);
        assert_eq!(f.selectivity(&t).unwrap(), 0.5);
    }

    #[test]
    fn attr_equals() {
        let t = table();
        let f = FilterSet::none().and(Filter::AttrEquals { column: "kind".into(), value: 1.0 });
        assert_eq!(f.mask(&t).unwrap(), vec![true, false, true, false]);
    }

    #[test]
    fn time_range_half_open() {
        let t = table();
        let f = FilterSet::none().and(Filter::Time(TimeRange::new(200, 400)));
        assert_eq!(f.mask(&t).unwrap(), vec![false, true, true, false]);
    }

    #[test]
    fn spatial_box() {
        let t = table();
        let f = FilterSet::none()
            .and(Filter::SpatialBox(BoundingBox::from_coords(0.5, 0.5, 2.5, 2.5)));
        assert_eq!(f.mask(&t).unwrap(), vec![false, true, true, false]);
    }

    #[test]
    fn conjunction() {
        let t = table();
        let f = FilterSet::none()
            .and(Filter::AttrEquals { column: "kind".into(), value: 1.0 })
            .and(Filter::Time(TimeRange::new(0, 250)));
        assert_eq!(f.mask(&t).unwrap(), vec![true, false, false, false]);
        let c = f.compile(&t).unwrap();
        assert_eq!((0..t.len()).filter(|&i| c.matches(i)).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn unknown_column_errors() {
        let t = table();
        let f = FilterSet::none().and(Filter::AttrRange {
            column: "ghost".into(),
            min: 0.0,
            max: 1.0,
        });
        assert!(f.mask(&t).is_err());
    }

    #[test]
    fn empty_table_selectivity() {
        let t = PointTable::new(Schema::empty());
        assert_eq!(FilterSet::none().selectivity(&t).unwrap(), 0.0);
    }
}
