//! Pre-aggregation (data-cube) baseline — the approach the paper rules out.
//!
//! The cube materializes `region × time-bucket × category → AggState` at
//! build time. Queries that *align* with the cube (time ranges on bucket
//! boundaries, equality on the materialized categorical column) are answered
//! by summing cells — microseconds, independent of |P|. Everything else —
//! an ad-hoc polygon, a numeric range filter, an unaligned time window, an
//! unmaterialized column — is structurally unanswerable and returns
//! [`CubeQueryError::Unsupported`]. Experiment E5 demonstrates exactly this
//! trade-off, which is the motivating argument for Raster Join.

use crate::grid::GridIndex;
use crate::RegionIndex;
use urban_data::filter::Filter;
use urban_data::query::{AggState, AggTable, SpatialAggQuery};
use urban_data::time::{TimeBucket, TimeRange, Timestamp};
use urban_data::{PointTable, RegionSet};

/// Why the cube could not answer a query.
#[derive(Debug, Clone, PartialEq)]
pub enum CubeQueryError {
    /// A filter kind the cube did not materialize (numeric range, spatial
    /// box, equality on a non-materialized column…).
    Unsupported(String),
    /// Time range does not align with the cube's bucket boundaries.
    UnalignedTime(TimeRange),
    /// The aggregate reads a column other than the materialized one.
    WrongColumn(String),
    /// Build/aggregation error from the data layer.
    Data(String),
}

impl std::fmt::Display for CubeQueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CubeQueryError::Unsupported(m) => write!(f, "cube cannot answer: {m}"),
            CubeQueryError::UnalignedTime(r) => {
                write!(f, "time range [{}, {}) not bucket-aligned", r.start, r.end)
            }
            CubeQueryError::WrongColumn(c) => write!(f, "column {c} not materialized"),
            CubeQueryError::Data(m) => write!(f, "data error: {m}"),
        }
    }
}

impl std::error::Error for CubeQueryError {}

/// A materialized aggregation cube over one region set.
#[derive(Debug, Clone)]
pub struct PreAggCube {
    bucket: TimeBucket,
    /// Start timestamp of bucket 0 and the number of buckets.
    t0: Timestamp,
    n_buckets: usize,
    /// Materialized categorical column (values 0..n_cats), if any.
    cat_column: Option<String>,
    n_cats: usize,
    /// Aggregated attribute column (None → COUNT-only cube).
    value_column: Option<String>,
    n_regions: usize,
    /// Dense cells: `[region][bucket][cat]`, flattened.
    cells: Vec<AggState>,
}

impl PreAggCube {
    /// Materialize the cube.
    ///
    /// * `bucket` — temporal granularity (e.g. `TimeBucket::Day`);
    /// * `cat_column` — categorical column to slice by (values must be
    ///   small non-negative integers), or `None`;
    /// * `value_column` — attribute to pre-aggregate, or `None` for COUNT.
    pub fn build(
        points: &PointTable,
        regions: &RegionSet,
        bucket: TimeBucket,
        cat_column: Option<&str>,
        value_column: Option<&str>,
    ) -> Result<Self, CubeQueryError> {
        let data_err = |e: urban_data::DataError| CubeQueryError::Data(e.to_string());
        let cat_idx = cat_column
            .map(|c| points.schema().index_of(c))
            .transpose()
            .map_err(data_err)?;
        let val_idx = value_column
            .map(|c| points.schema().index_of(c))
            .transpose()
            .map_err(data_err)?;

        let n_cats = cat_idx.map_or(1, |c| {
            points.column(c).iter().fold(0.0f32, |m, &v| m.max(v)) as usize + 1
        });

        let (t0, n_buckets) = match points.time_extent() {
            Some(ext) => {
                let start = bucket.truncate(ext.start);
                let mut n = 0usize;
                let mut t = start;
                while t < ext.end {
                    t = bucket.range_of(t).end;
                    n += 1;
                }
                (start, n.max(1))
            }
            None => (0, 1),
        };

        let n_regions = regions.len();
        let mut cells = vec![AggState::default(); n_regions * n_buckets * n_cats];

        // Assign points to regions with a grid index (build-time cost is
        // explicitly reported by the E5 bench).
        let grid = GridIndex::build_auto(regions);
        let bucket_of = |t: Timestamp| -> usize {
            // Buckets are contiguous from t0; walk via range arithmetic.
            match bucket {
                TimeBucket::Hour => ((t - t0) / urban_data::time::HOUR) as usize,
                TimeBucket::Day => ((t - t0) / urban_data::time::DAY) as usize,
                TimeBucket::Week => ((t - t0) / urban_data::time::WEEK) as usize,
                TimeBucket::Month => {
                    // Months vary in length: count boundaries.
                    let mut idx = 0usize;
                    let mut cur = t0;
                    while bucket.range_of(cur).end <= t {
                        cur = bucket.range_of(cur).end;
                        idx += 1;
                    }
                    idx
                }
            }
        };

        let rows = (0..points.len()).map(|i| {
            let b = bucket_of(points.time(i)).min(n_buckets - 1);
            let cat = cat_idx.map_or(0, |c| (points.attr(i, c) as usize).min(n_cats - 1));
            let v = val_idx.map_or(0.0, |c| points.attr(i, c) as f64);
            (points.loc(i), (b, cat, v))
        });
        grid.join_rows(regions, rows, |rid, (b, cat, v)| {
            cells[(rid as usize * n_buckets + b) * n_cats + cat].accumulate(v);
        });

        Ok(PreAggCube {
            bucket,
            t0,
            n_buckets,
            cat_column: cat_column.map(String::from),
            n_cats,
            value_column: value_column.map(String::from),
            n_regions,
            cells,
        })
    }

    /// Number of materialized cells (diagnostic).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Answer `query` from the cube, or explain why it cannot be answered.
    pub fn query(&self, query: &SpatialAggQuery) -> Result<AggTable, CubeQueryError> {
        let agg = query.agg_kind();
        // The aggregate must read the materialized value column (or COUNT).
        match (agg.column(), self.value_column.as_deref()) {
            (None, _) => {}
            (Some(c), Some(m)) if c == m => {}
            (Some(c), _) => return Err(CubeQueryError::WrongColumn(c.to_string())),
        }

        // Decode filters: only aligned time ranges and equality on the
        // materialized categorical column are supported.
        let mut bucket_range = 0..self.n_buckets;
        let mut cat_filter: Option<usize> = None;
        for f in query.filters.filters() {
            match f {
                Filter::Time(r) => {
                    if self.bucket.truncate(r.start) != r.start
                        || self.bucket.truncate(r.end) != r.end
                    {
                        return Err(CubeQueryError::UnalignedTime(*r));
                    }
                    let lo = self.bucket_index(r.start).max(0) as usize;
                    let hi = (self.bucket_index(r.end).max(0) as usize).min(self.n_buckets);
                    bucket_range = lo.min(self.n_buckets)..hi;
                }
                Filter::AttrEquals { column, value } => match self.cat_column.as_deref() {
                    Some(c) if c == column && value.fract() == 0.0 && *value >= 0.0 => {
                        cat_filter = Some(*value as usize);
                    }
                    _ => {
                        return Err(CubeQueryError::Unsupported(format!(
                            "equality on non-materialized column {column}"
                        )))
                    }
                },
                Filter::AttrRange { column, .. } => {
                    return Err(CubeQueryError::Unsupported(format!(
                        "numeric range on {column} (cubes cannot index continuous predicates)"
                    )))
                }
                Filter::SpatialBox(_) => {
                    return Err(CubeQueryError::Unsupported(
                        "ad-hoc spatial constraint (cube regions are fixed)".into(),
                    ))
                }
            }
        }

        let mut out = AggTable::new(agg, self.n_regions);
        if let Some(cat) = cat_filter {
            if cat >= self.n_cats {
                return Ok(out); // category never seen → all groups empty
            }
        }
        for r in 0..self.n_regions {
            let state = &mut out.states[r];
            for b in bucket_range.clone() {
                match cat_filter {
                    Some(c) => state.merge(&self.cells[(r * self.n_buckets + b) * self.n_cats + c]),
                    None => {
                        for c in 0..self.n_cats {
                            state.merge(&self.cells[(r * self.n_buckets + b) * self.n_cats + c]);
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    fn bucket_index(&self, t: Timestamp) -> i64 {
        match self.bucket {
            TimeBucket::Hour => (t - self.t0) / urban_data::time::HOUR,
            TimeBucket::Day => (t - self.t0) / urban_data::time::DAY,
            TimeBucket::Week => (t - self.t0) / urban_data::time::WEEK,
            TimeBucket::Month => {
                let mut idx = 0i64;
                let mut cur = self.t0;
                while self.bucket.range_of(cur).end <= t {
                    cur = self.bucket.range_of(cur).end;
                    idx += 1;
                }
                idx
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_join;
    use urban_data::query::AggKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use urban_data::gen::regions::grid_regions;
    use urban_data::schema::{AttrType, Schema};
    use urban_data::time::DAY;
    use urbane_geom::{BoundingBox, Point};

    fn setup() -> (PointTable, RegionSet) {
        let schema =
            Schema::new([("kind", AttrType::Categorical), ("v", AttrType::Numeric)]).unwrap();
        let mut t = PointTable::new(schema);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..2_000 {
            let p = Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0);
            let time = rng.gen_range(0..10 * DAY);
            let kind = rng.gen_range(0..4) as f32;
            let v = rng.gen::<f32>() * 10.0;
            t.push(p, time, &[kind, v]).unwrap();
        }
        let rs = grid_regions(&BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0), 5, 5);
        (t, rs)
    }

    #[test]
    fn aligned_count_matches_naive() {
        let (pts, rs) = setup();
        let cube =
            PreAggCube::build(&pts, &rs, TimeBucket::Day, Some("kind"), Some("v")).unwrap();
        let q = SpatialAggQuery::count();
        let truth = naive_join(&pts, &rs, &q).unwrap();
        // Raw states differ (the cube folds its materialized value column);
        // the *answers* must match.
        assert_eq!(cube.query(&q).unwrap().values(), truth.values());
    }

    #[test]
    fn aligned_time_slice_matches_naive() {
        let (pts, rs) = setup();
        let cube = PreAggCube::build(&pts, &rs, TimeBucket::Day, None, Some("v")).unwrap();
        let q = SpatialAggQuery::new(AggKind::Sum("v".into()))
            .filter(Filter::Time(TimeRange::new(2 * DAY, 5 * DAY)));
        let truth = naive_join(&pts, &rs, &q).unwrap();
        let got = cube.query(&q).unwrap();
        assert_eq!(got.agg, truth.agg);
        for r in 0..rs.len() {
            let (a, b) = (got.value(r).unwrap_or(0.0), truth.value(r).unwrap_or(0.0));
            assert!((a - b).abs() < 1e-6, "region {r}: {a} vs {b}");
        }
    }

    #[test]
    fn category_filter_matches_naive() {
        let (pts, rs) = setup();
        let cube =
            PreAggCube::build(&pts, &rs, TimeBucket::Day, Some("kind"), None).unwrap();
        let q = SpatialAggQuery::count()
            .filter(Filter::AttrEquals { column: "kind".into(), value: 2.0 });
        let truth = naive_join(&pts, &rs, &q).unwrap();
        assert_eq!(cube.query(&q).unwrap().values(), truth.values());
    }

    #[test]
    fn unaligned_time_rejected() {
        let (pts, rs) = setup();
        let cube = PreAggCube::build(&pts, &rs, TimeBucket::Day, None, None).unwrap();
        let q = SpatialAggQuery::count()
            .filter(Filter::Time(TimeRange::new(DAY + 60, 3 * DAY)));
        assert!(matches!(cube.query(&q), Err(CubeQueryError::UnalignedTime(_))));
    }

    #[test]
    fn adhoc_predicates_rejected() {
        let (pts, rs) = setup();
        let cube = PreAggCube::build(&pts, &rs, TimeBucket::Day, Some("kind"), None).unwrap();
        // Numeric range: impossible for a cube.
        let q = SpatialAggQuery::count().filter(Filter::AttrRange {
            column: "v".into(),
            min: 1.0,
            max: 2.0,
        });
        assert!(matches!(cube.query(&q), Err(CubeQueryError::Unsupported(_))));
        // Equality on a non-materialized column.
        let q = SpatialAggQuery::count()
            .filter(Filter::AttrEquals { column: "v".into(), value: 1.0 });
        assert!(matches!(cube.query(&q), Err(CubeQueryError::Unsupported(_))));
        // Spatial box.
        let q = SpatialAggQuery::count()
            .filter(Filter::SpatialBox(BoundingBox::from_coords(0.0, 0.0, 1.0, 1.0)));
        assert!(matches!(cube.query(&q), Err(CubeQueryError::Unsupported(_))));
    }

    #[test]
    fn wrong_aggregate_column_rejected() {
        let (pts, rs) = setup();
        let cube = PreAggCube::build(&pts, &rs, TimeBucket::Day, None, Some("v")).unwrap();
        let q = SpatialAggQuery::new(AggKind::Sum("kind".into()));
        assert!(matches!(cube.query(&q), Err(CubeQueryError::WrongColumn(_))));
    }

    #[test]
    fn cube_size_is_product() {
        let (pts, rs) = setup();
        let cube =
            PreAggCube::build(&pts, &rs, TimeBucket::Day, Some("kind"), None).unwrap();
        // 25 regions × 10 days × 4 kinds.
        assert_eq!(cube.cell_count(), 25 * 10 * 4);
    }
}
