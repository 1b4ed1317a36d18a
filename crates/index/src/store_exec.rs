//! Index-join executors over the out-of-core `.ubs` store.
//!
//! These are the exact baseline the paper's scaling comparison races Raster
//! Join against at cardinalities that don't fit the whole-table serving
//! model. The store is a clustered table on disk, so the join reads it the
//! way the raster executors read a resident one: every chunk of the
//! directory, then every zone inside a surviving chunk, is classified
//! against the query from its footer alone with [`ZoneFooter`]'s proof rules
//! — *skip* (some condition, or the regions' extent, rules every row out:
//! nothing is read), *whole* (every condition holds for every row: only
//! `x`, `y` and the aggregated column are read, nothing is tested) or
//! *scan* (only the conditions the footer left open are tested, and only
//! their columns are read beside `x`, `y`). A condition the footer decided
//! is true of every row of the zone, so not reading its column cannot change
//! which rows pass. Surviving rows run the same probe-then-exact-PIP loop as
//! [`crate::executor::index_join`].
//!
//! Results are **bit-for-bit exact**: aggregation states accumulate f32
//! attribute values in f64 (lossless at the corpus's dynamic range) in file
//! order, so the stored join and the in-memory oracle agree exactly.
//!
//! Budget/cancellation discipline matches the raster executors: the shared
//! [`QueryBudget`] is polled once per chunk and once per zone read, so a
//! cancelled query stops within one zone's worth of work.

use crate::{Probe, RegionIndex};
use raster_join::{QueryBudget, RasterJoinError, ZoneStats};
use std::io::{Read, Seek};
use urban_data::query::{AggTable, SpatialAggQuery};
use urban_data::schema::Schema;
use urban_data::time::TimeRange;
use urban_data::{Filter, PointTable, RegionSet, ZoneFooter};
use urbane_geom::{BoundingBox, Point};
use urbane_store::{ChunkedPointSource, Columns};

/// Per-query accounting for a stored join: how much the footers pruned and
/// how much actually streamed through memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoredJoinStats {
    /// Chunks some payload was read from and scanned.
    pub chunks_scanned: u64,
    /// Chunks skipped entirely on footer evidence (their own, or every one
    /// of their zones').
    pub chunks_pruned: u64,
    /// Rows decoded and fed through the filter/probe loop.
    pub rows_scanned: u64,
    /// Largest number of rows resident at once (zone granularity).
    pub peak_resident_rows: u32,
    /// How the zones were classified — the counts a resident table's
    /// executor reports, over the directory's zones.
    pub zones: ZoneStats,
}

/// One filter condition resolved against the store schema.
enum Cond {
    /// Attribute in `[min, max]` (closed; NaN never matches).
    Range { col: usize, min: f32, max: f32 },
    /// Attribute equals a categorical code.
    Equals { col: usize, value: f32 },
    /// Timestamp within a half-open range.
    Time(TimeRange),
    /// Location within a closed box.
    Spatial(BoundingBox),
}

impl Cond {
    /// What `f` proves about this condition for every row it covers.
    #[inline]
    fn decide(&self, f: &ZoneFooter) -> Option<bool> {
        match self {
            Cond::Range { col, min, max } => f.decide_range(*col, *min, *max),
            Cond::Equals { col, value } => f.decide_equals(*col, *value),
            Cond::Time(range) => f.decide_time(range),
            Cond::Spatial(bbox) => f.decide_box(bbox),
        }
    }

    /// Does row `i` of the fetched zone satisfy this condition? Identical
    /// semantics to [`Filter`]'s row probe; the column it reads was fetched
    /// because the condition was undecided.
    #[inline]
    fn test(&self, zone: &Columns, i: usize) -> bool {
        match self {
            Cond::Range { col, min, max } => {
                let v = zone.attrs[*col][i];
                v >= *min && v <= *max
            }
            Cond::Equals { col, value } => zone.attrs[*col][i] == *value,
            Cond::Time(range) => range.contains(zone.ts[i]),
            Cond::Spatial(bbox) => bbox.contains(Point::new(zone.xs[i], zone.ys[i])),
        }
    }
}

/// A query resolved against the store schema once, so classifying a footer
/// is pure arithmetic.
struct StoredPlan {
    conds: Vec<Cond>,
    /// The regions' overall extent: a row outside it joins nothing.
    extent: BoundingBox,
    /// Resolved value column (None for COUNT).
    agg_col: Option<usize>,
}

impl StoredPlan {
    /// Resolve `query` against the store schema before touching any chunk,
    /// so "unknown column" fails identically whether zero or all chunks
    /// survive pruning.
    fn new(
        schema: &Schema,
        regions: &RegionSet,
        query: &SpatialAggQuery,
    ) -> Result<Self, RasterJoinError> {
        let agg_col =
            query.agg_kind().resolve(&PointTable::new(schema.clone())).map_err(data_err)?;
        let col = |name: &str| schema.index_of(name).map_err(data_err);
        let conds = query
            .filters
            .filters()
            .iter()
            .map(|f| {
                Ok(match f {
                    Filter::AttrRange { column, min, max } => {
                        Cond::Range { col: col(column)?, min: *min, max: *max }
                    }
                    Filter::AttrEquals { column, value } => {
                        Cond::Equals { col: col(column)?, value: *value }
                    }
                    Filter::Time(r) => Cond::Time(*r),
                    Filter::SpatialBox(b) => Cond::Spatial(*b),
                })
            })
            .collect::<Result<_, RasterJoinError>>()?;
        Ok(StoredPlan { conds, extent: regions.bbox(), agg_col })
    }

    /// Classify the rows `f` covers: `false` — none can contribute (skip);
    /// otherwise `undecided` holds the conditions that must be tested row by
    /// row (none left: the rows are taken whole).
    fn classify<'p>(&'p self, f: &ZoneFooter, undecided: &mut Vec<&'p Cond>) -> bool {
        undecided.clear();
        // A NaN location lies in no region either, so `has_nan` is no bar.
        if !self.extent.intersects(&f.bbox) {
            return false;
        }
        for cond in &self.conds {
            match cond.decide(f) {
                Some(false) => return false,
                Some(true) => {}
                None => undecided.push(cond),
            }
        }
        true
    }
}

fn data_err(e: urban_data::DataError) -> RasterJoinError {
    RasterJoinError::Data(e.to_string())
}

fn store_err(e: urbane_store::StoreError) -> RasterJoinError {
    RasterJoinError::Internal(format!("store read failed: {e}"))
}

/// Credit value `v` at point `p` to every region holding `p`: index probe,
/// then exact point-in-polygon among the candidates.
#[inline]
fn join_point<I: RegionIndex>(
    p: Point,
    v: f64,
    regions: &RegionSet,
    index: &I,
    candidates: &mut Vec<urban_data::RegionId>,
    out: &mut AggTable,
) {
    match index.probe_into(p, candidates) {
        Probe::Empty => {}
        Probe::Resolved(id) => out.states[id as usize].accumulate(v),
        Probe::Candidates => {
            for &id in candidates.iter() {
                if regions.geometry(id).contains(p) {
                    out.states[id as usize].accumulate(v);
                }
            }
        }
    }
}

/// Evaluate `query` over a `.ubs` store with a zone-streamed index join.
/// Never holds more than one zone's rows in memory.
pub fn index_join_stored<R: Read + Seek, I: RegionIndex>(
    source: &mut ChunkedPointSource<R>,
    regions: &RegionSet,
    index: &I,
    query: &SpatialAggQuery,
    budget: &QueryBudget,
) -> Result<(AggTable, StoredJoinStats), RasterJoinError> {
    let plan = StoredPlan::new(source.schema(), regions, query)?;
    let mut out = AggTable::new(query.agg_kind(), regions.len());
    let mut stats = StoredJoinStats::default();
    let mut candidates = Vec::with_capacity(8);
    // lint: capped-by one entry per request filter, and the server's framing caps the request body (`http::MAX_BODY`, 1 MiB)
    let mut undecided: Vec<&Cond> = Vec::with_capacity(plan.conds.len());
    let mut attrs: Vec<usize> = Vec::with_capacity(plan.conds.len() + 1);
    // One zone of the columns in use, for the whole join.
    let mut zone = Columns::default();
    let header = source.shared_header();
    source.reset_stats();
    for (ci, meta) in header.chunks.iter().enumerate() {
        budget.check()?;
        if !plan.classify(&meta.footer, &mut undecided) {
            stats.chunks_pruned += 1;
            stats.zones.skipped += meta.zones.len() as u64;
            continue;
        }
        let mut read_any = false;
        for (z, footer) in meta.zones.iter().enumerate() {
            if !plan.classify(footer, &mut undecided) {
                stats.zones.skipped += 1;
                continue;
            }
            budget.check()?;
            let want_ts = undecided.iter().any(|c| matches!(c, Cond::Time(_)));
            attrs.clear();
            attrs.extend(plan.agg_col);
            for cond in &undecided {
                if let Cond::Range { col, .. } | Cond::Equals { col, .. } = cond {
                    if !attrs.contains(col) {
                        attrs.push(*col);
                    }
                }
            }
            source.read_zone(ci, z, want_ts, &attrs, &mut zone).map_err(store_err)?;
            read_any = true;
            let rows = zone.xs.len();
            stats.rows_scanned += rows as u64;
            if undecided.is_empty() {
                stats.zones.whole += 1;
            } else {
                stats.zones.scanned += 1;
                stats.zones.rows_tested += rows as u64;
            }
            let values = plan.agg_col.map(|c| zone.attrs[c].as_slice());
            // lint: polls-budget the budget is checked once per zone just above; a zone is at most ZONE_ROWS rows
            for i in 0..rows {
                if !undecided.iter().all(|c| c.test(&zone, i)) {
                    continue;
                }
                let p = Point::new(zone.xs[i], zone.ys[i]);
                let v = values.map_or(0.0, |vals| vals[i] as f64);
                join_point(p, v, regions, index, &mut candidates, &mut out);
            }
        }
        if read_any {
            stats.chunks_scanned += 1;
        } else {
            stats.chunks_pruned += 1;
        }
    }
    stats.peak_resident_rows = source.stats().peak_resident_rows;
    Ok((out, stats))
}

/// In-memory index join with budget/cancellation polling — the session
/// layer's entry point when the table is already materialized. Identical
/// results to [`crate::executor::index_join`]; the budget is polled every
/// few thousand rows so cancellation latency stays bounded.
pub fn index_join_budgeted<I: RegionIndex>(
    points: &PointTable,
    regions: &RegionSet,
    index: &I,
    query: &SpatialAggQuery,
    budget: &QueryBudget,
) -> Result<AggTable, RasterJoinError> {
    const POLL_EVERY: usize = 4096;
    let col = query.agg_kind().resolve(points).map_err(data_err)?;
    let filter = query.filters.compile(points).map_err(data_err)?;
    let mut out = AggTable::new(query.agg_kind(), regions.len());
    let mut scratch = Vec::with_capacity(8);
    for i in 0..points.len() {
        if i % POLL_EVERY == 0 {
            budget.check()?;
        }
        if !filter.matches(i) {
            continue;
        }
        let v = col.map_or(0.0, |c| points.attr(i, c) as f64);
        join_point(points.loc(i), v, regions, index, &mut scratch, &mut out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::index_join;
    use crate::packed::PackedRegionIndex;
    use std::io::Cursor;
    use urban_data::filter::Filter;
    use urban_data::gen::corpus::uniform_points;
    use urban_data::gen::regions::voronoi_neighborhoods;
    use urban_data::query::AggKind;
    use urban_data::time::TimeRange;
    use urbane_store::StoreBuilder;

    fn setup(n: usize) -> (PointTable, RegionSet, Vec<u8>) {
        let bbox = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let pts = uniform_points(&bbox, n, 21, 50.0);
        let rs = voronoi_neighborhoods(&bbox, 25, 9, 2);
        let bytes = StoreBuilder::new().chunk_rows(512).encode(&pts).unwrap();
        (pts, rs, bytes)
    }

    fn source(bytes: &[u8]) -> ChunkedPointSource<Cursor<Vec<u8>>> {
        ChunkedPointSource::from_bytes(bytes.to_vec()).unwrap()
    }

    #[test]
    fn stored_join_matches_in_memory_join_bit_for_bit() {
        let (pts, rs, bytes) = setup(6_000);
        let idx = PackedRegionIndex::build(&rs);
        let budget = QueryBudget::unlimited();
        for agg in [AggKind::Count, AggKind::Sum("v".into()), AggKind::Avg("v".into())] {
            let q = SpatialAggQuery::new(agg);
            let truth = index_join(&pts, &rs, &idx, &q).unwrap();
            let (got, stats) =
                index_join_stored(&mut source(&bytes), &rs, &idx, &q, &budget).unwrap();
            assert_eq!(got, truth);
            assert_eq!(stats.rows_scanned, pts.len() as u64);
        }
    }

    #[test]
    fn footer_pruning_skips_chunks_without_changing_the_answer() {
        let (pts, rs, bytes) = setup(8_000);
        let idx = PackedRegionIndex::build(&rs);
        let budget = QueryBudget::unlimited();
        // A tight spatial window: the Hilbert layout clusters chunks
        // spatially, so most must prune.
        let q = SpatialAggQuery::count()
            .filter(Filter::SpatialBox(BoundingBox::from_coords(10.0, 10.0, 25.0, 25.0)));
        let truth = index_join(&pts, &rs, &idx, &q).unwrap();
        let (got, stats) = index_join_stored(&mut source(&bytes), &rs, &idx, &q, &budget).unwrap();
        assert_eq!(got, truth);
        assert!(
            stats.chunks_pruned > stats.chunks_scanned,
            "expected pruning to dominate: {stats:?}"
        );
    }

    #[test]
    fn time_and_attr_footers_prune() {
        let (pts, rs, bytes) = setup(4_000);
        let idx = PackedRegionIndex::build(&rs);
        let budget = QueryBudget::unlimited();
        // Out-of-range time window: every chunk prunes, result is empty.
        let q = SpatialAggQuery::count().filter(Filter::Time(TimeRange::new(i64::MAX - 2, i64::MAX - 1)));
        let truth = index_join(&pts, &rs, &idx, &q).unwrap();
        let (got, stats) = index_join_stored(&mut source(&bytes), &rs, &idx, &q, &budget).unwrap();
        assert_eq!(got, truth);
        assert_eq!(stats.chunks_scanned, 0);
        assert_eq!(got.total_count(), 0);

        // Impossible attribute range: same story via the min/max footers.
        let q = SpatialAggQuery::count().filter(Filter::AttrRange {
            column: "v".into(),
            min: f32::MAX / 2.0,
            max: f32::MAX,
        });
        let (got, stats) = index_join_stored(&mut source(&bytes), &rs, &idx, &q, &budget).unwrap();
        assert_eq!(stats.chunks_scanned, 0);
        assert_eq!(got.total_count(), 0);
    }

    #[test]
    fn unknown_column_errors_even_when_everything_prunes() {
        let (_, rs, bytes) = setup(1_000);
        let idx = PackedRegionIndex::build(&rs);
        let budget = QueryBudget::unlimited();
        // The time filter would prune every chunk; the unknown aggregate
        // column must still surface as an error.
        let q = SpatialAggQuery::new(AggKind::Sum("ghost".into()))
            .filter(Filter::Time(TimeRange::new(i64::MAX - 2, i64::MAX - 1)));
        assert!(matches!(
            index_join_stored(&mut source(&bytes), &rs, &idx, &q, &budget),
            Err(RasterJoinError::Data(_))
        ));
    }

    #[test]
    fn cancelled_budget_stops_the_join() {
        let (_, rs, bytes) = setup(2_000);
        let idx = PackedRegionIndex::build(&rs);
        let handle = raster_join::CancelHandle::new();
        let budget = QueryBudget::unlimited().cancellable(&handle);
        handle.cancel();
        let q = SpatialAggQuery::count();
        assert!(matches!(
            index_join_stored(&mut source(&bytes), &rs, &idx, &q, &budget),
            Err(RasterJoinError::Cancelled)
        ));
    }

    #[test]
    fn budgeted_in_memory_matches_plain() {
        let (pts, rs, _) = setup(3_000);
        let idx = PackedRegionIndex::build(&rs);
        let q = SpatialAggQuery::new(AggKind::Sum("v".into()));
        let plain = index_join(&pts, &rs, &idx, &q).unwrap();
        let got =
            index_join_budgeted(&pts, &rs, &idx, &q, &QueryBudget::unlimited()).unwrap();
        assert_eq!(got, plain);
    }

    #[test]
    fn peak_residency_is_one_chunk() {
        let (_, rs, bytes) = setup(6_000);
        let idx = PackedRegionIndex::build(&rs);
        let budget = QueryBudget::unlimited();
        let (_, stats) = index_join_stored(
            &mut source(&bytes),
            &rs,
            &idx,
            &SpatialAggQuery::count(),
            &budget,
        )
        .unwrap();
        assert!(stats.peak_resident_rows <= 512, "peak {}", stats.peak_resident_rows);
        assert!(stats.chunks_scanned >= 10);
    }
}
