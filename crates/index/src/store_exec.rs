//! The exact index joins, over a resident table and over the out-of-core
//! `.ubs` store: the baseline the paper's scaling comparison races Raster
//! Join against.
//!
//! Both take the raster point pass's [`ZoneWalk`]: every zone is classified
//! from its footer alone — *skip* (some condition, or the regions' extent,
//! rules every row out: nothing is read), *whole* (nothing is tested; a
//! store reads `x`, `y` and the aggregated column) or *scan* (the undecided
//! conditions run the mask kernel, and a store reads only their columns
//! besides). A source without footers is all scans. The resident table is
//! walked in place; the store is a [`ZoneSource`] that fetches one zone at a
//! time, so a chunk whose zones all skip is never read. The rows that pass
//! run [`RegionIndex::join_rows`]'s probe-then-PIP body in ascending row
//! order, so answers are **bit-for-bit** the in-memory oracle's. The
//! [`QueryBudget`] is polled once per zone.

use crate::RegionIndex;
use raster_join::{QueryBudget, RasterJoinError, Reach, ZoneColumns, ZonePlan, ZoneSource, ZoneStats, ZoneWalk};
use std::io::{Read, Seek};
use std::sync::Arc;
use urban_data::query::{AggTable, SpatialAggQuery};
use urban_data::{PointTable, RegionSet, ZoneFooter};
use urbane_geom::Point;
use urbane_store::{ChunkedPointSource, Columns, StoreHeader};

/// Per-query accounting for a stored join: how much the footers pruned and
/// how much actually streamed through memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoredJoinStats {
    /// Chunks some payload was read from and scanned.
    pub chunks_scanned: u64,
    /// Chunks no zone was read from: every one of their zones skipped on
    /// footer evidence.
    pub chunks_pruned: u64,
    /// Rows decoded and fed through the filter/probe loop.
    pub rows_scanned: u64,
    /// Largest number of rows resident at once (zone granularity).
    pub peak_resident_rows: u32,
    /// How the zones were classified — the counts a resident table's
    /// executor reports, over the directory's zones.
    pub zones: ZoneStats,
}

/// Join the rows of `source` that pass `plan` within the regions' extent,
/// zone by zone, in ascending row order.
fn join_zones<I: RegionIndex>(
    plan: ZonePlan,
    source: &mut impl ZoneSource,
    regions: &RegionSet,
    index: &I,
    query: &SpatialAggQuery,
    budget: &QueryBudget,
) -> Result<(AggTable, ZoneStats), RasterJoinError> {
    let walk = ZoneWalk::new(plan.within(regions.bbox()), source);
    let mut out = AggTable::new(query.agg_kind(), regions.len());
    let (states, agg_col) = (&mut out.states, walk.agg_col());
    walk.run(source, Reach::All, budget, |_, zone, rows| {
        let (xs, ys) = zone.locs();
        let values = agg_col.map(|c| zone.attr(c));
        let rows = rows.map(|i| (Point::new(xs[i], ys[i]), values.map_or(0.0, |vals| vals[i] as f64)));
        index.join_rows(regions, rows, |id, v| states[id as usize].accumulate(v));
    })?;
    Ok((out, walk.stats))
}

/// A `.ubs` store's zones in row order, each fetched on demand with
/// [`ChunkedPointSource::read_zone`] into one reused set of columns.
struct StoreZones<'s, R> {
    source: &'s mut ChunkedPointSource<R>,
    header: Arc<StoreHeader>,
    /// `(chunk, zone of the chunk)` of every zone.
    zones: Vec<(usize, usize)>,
    cols: Columns,
    rows_read: u64,
}

impl<R: Read + Seek> ZoneSource for StoreZones<'_, R> {
    fn zone_count(&self) -> usize {
        self.zones.len()
    }

    fn rows(&self, z: usize) -> usize {
        let (c, k) = self.zones[z];
        self.header.chunks[c].zone_rows(k).len()
    }

    fn footer(&self, z: usize) -> Option<&ZoneFooter> {
        let (c, k) = self.zones[z];
        self.header.chunks[c].zones.get(k)
    }

    fn read(&mut self, z: usize, ts: bool, attrs: &[usize]) -> Result<ZoneColumns<'_>, RasterJoinError> {
        let (c, k) = self.zones[z];
        let cols = &mut self.cols;
        self.source
            .read_zone(c, k, ts, attrs, cols)
            .map_err(|e| RasterJoinError::Internal(format!("store read failed: {e}")))?;
        self.rows_read += cols.xs.len() as u64;
        Ok(ZoneColumns::new(&cols.xs, &cols.ys, &cols.ts, &cols.attrs))
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
    let plan = ZonePlan::new(source.schema(), query)?;
    source.reset_stats();
    let header = source.shared_header();
    let chunks = header.chunks.iter().enumerate();
    let zones = chunks.flat_map(|(c, m)| (0..m.zones.len()).map(move |k| (c, k))).collect();
    let mut zones = StoreZones { source, header, zones, cols: Columns::default(), rows_read: 0 };
    let (out, zone_stats) = join_zones(plan, &mut zones, regions, index, query, budget)?;
    let read = zones.source.stats();
    Ok((
        out,
        StoredJoinStats {
            chunks_scanned: read.chunks_read,
            chunks_pruned: zones.header.chunks.len() as u64 - read.chunks_read,
            rows_scanned: zones.rows_read,
            peak_resident_rows: read.peak_resident_rows,
            zones: zone_stats,
        },
    ))
}

/// In-memory index join with budget/cancellation polling — the session
/// layer's entry point when the table is already materialized. Identical
/// results to [`crate::executor::index_join`]; it takes the stored join's
/// walk over the table's zones, skipping the ones its footers rule out, and
/// polls the budget once per zone. Returns the answer and how the table's
/// zones were classified.
pub fn index_join_budgeted<I: RegionIndex>(
    points: &PointTable,
    regions: &RegionSet,
    index: &I,
    query: &SpatialAggQuery,
    budget: &QueryBudget,
) -> Result<(AggTable, ZoneStats), RasterJoinError> {
    let (plan, mut table) = (ZonePlan::new(points.schema(), query)?, points);
    join_zones(plan, &mut table, regions, index, query, budget)
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
    use urbane_geom::BoundingBox;
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
        let (mut pts, rs, bytes) = setup(1_000);
        pts.cluster();
        let idx = PackedRegionIndex::build(&rs);
        let budget = QueryBudget::unlimited();
        // The time filter would prune every chunk (and every zone of the
        // clustered resident table); an unknown aggregate or filter column
        // must still surface as an error.
        let never = Filter::Time(TimeRange::new(i64::MAX - 2, i64::MAX - 1));
        let ghost_agg = SpatialAggQuery::new(AggKind::Sum("ghost".into())).filter(never.clone());
        let ghost_filter = SpatialAggQuery::count()
            .filter(never)
            .filter(Filter::AttrEquals { column: "phantom".into(), value: 1.0 });
        for q in [ghost_agg, ghost_filter] {
            assert!(matches!(
                index_join_stored(&mut source(&bytes), &rs, &idx, &q, &budget),
                Err(RasterJoinError::Data(_))
            ));
            assert!(matches!(
                index_join_budgeted(&pts, &rs, &idx, &q, &budget),
                Err(RasterJoinError::Data(_))
            ));
        }
    }

    #[test]
    fn cancelled_budget_stops_the_join() {
        let (mut pts, rs, bytes) = setup(2_000);
        let idx = PackedRegionIndex::build(&rs);
        let handle = raster_join::CancelHandle::new();
        let budget = QueryBudget::unlimited().cancellable(&handle);
        handle.cancel();
        let q = SpatialAggQuery::count();
        assert!(matches!(
            index_join_stored(&mut source(&bytes), &rs, &idx, &q, &budget),
            Err(RasterJoinError::Cancelled)
        ));
        // The resident join polls once per zone, footers or not.
        for clustered in [false, true] {
            if clustered {
                pts.cluster();
            }
            assert!(matches!(
                index_join_budgeted(&pts, &rs, &idx, &q, &budget),
                Err(RasterJoinError::Cancelled)
            ));
        }
    }

    #[test]
    fn budgeted_in_memory_matches_plain() {
        let (pts, rs, _) = setup(3_000);
        let idx = PackedRegionIndex::build(&rs);
        let q = SpatialAggQuery::new(AggKind::Sum("v".into()));
        let plain = index_join(&pts, &rs, &idx, &q).unwrap();
        let (got, _) =
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
