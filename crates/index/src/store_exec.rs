//! The exact index joins, over a resident table and over the out-of-core
//! `.ubs` store: the baseline the paper's scaling comparison races Raster
//! Join against.
//!
//! Both walk the rows one zone at a time with the raster mask's
//! [`ZonePlan`]. Each zone (and, in a store, each chunk of the directory
//! first) is classified from its footer alone: *skip* (some condition, or
//! the regions' extent, rules every row out: nothing is read), *whole*
//! (nothing is tested; a store reads `x`, `y` and the aggregated column) or
//! *scan* (the undecided conditions run the mask kernel, and a store reads
//! only their columns besides). A table without footers is all scans. The
//! rows that pass run [`crate::executor::index_join`]'s probe-then-PIP body
//! in ascending row order, so answers are **bit-for-bit** the in-memory
//! oracle's. The [`QueryBudget`] is polled once per zone (and once per
//! stored chunk).

use crate::RegionIndex;
use raster_join::{QueryBudget, RasterJoinError, ZoneClass, ZoneColumns, ZonePlan, ZoneStats};
use std::io::{Read, Seek};
use urban_data::query::{AggTable, SpatialAggQuery};
use urban_data::{PointTable, RegionSet, ZONE_ROWS};
use urbane_geom::Point;
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

/// The per-zone body both exact joins share: mask a zone's rows by its
/// class, then join the survivors in ascending row order.
struct ZoneJoin<'a, I> {
    regions: &'a RegionSet,
    index: &'a I,
    agg_col: Option<usize>,
    /// One zone's mask words, reused for every zone.
    words: Vec<u64>,
    out: AggTable,
}

impl<'a, I: RegionIndex> ZoneJoin<'a, I> {
    fn new(plan: &ZonePlan, regions: &'a RegionSet, index: &'a I, query: &SpatialAggQuery) -> Self {
        ZoneJoin {
            regions,
            index,
            agg_col: plan.agg_col,
            words: Vec::with_capacity(ZONE_ROWS / 64),
            out: AggTable::new(query.agg_kind(), regions.len()),
        }
    }

    fn zone(&mut self, class: &ZoneClass<'_>, zone: ZoneColumns<'_>) {
        let (xs, ys) = zone.locs();
        self.words.resize(xs.len().div_ceil(64), 0);
        class.mask(&zone, &mut self.words);
        let values = self.agg_col.map(|c| zone.attr(c));
        let rows = SetBits::new(&self.words)
            .map(|i| (Point::new(xs[i], ys[i]), values.map_or(0.0, |vals| vals[i] as f64)));
        let states = &mut self.out.states;
        self.index.join_rows(self.regions, rows, |id, v| states[id as usize].accumulate(v));
    }
}

/// The positions of a mask's set bits, ascending.
struct SetBits<'a> {
    words: &'a [u64],
    w: usize,
    pending: u64,
}

impl<'a> SetBits<'a> {
    fn new(words: &'a [u64]) -> Self {
        SetBits { words, w: 0, pending: words.first().copied().unwrap_or(0) }
    }
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.pending == 0 {
            self.w += 1;
            self.pending = *self.words.get(self.w)?;
        }
        let i = (self.w << 6) | self.pending.trailing_zeros() as usize;
        self.pending &= self.pending - 1;
        Some(i)
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
    let plan = ZonePlan::new(source.schema(), query)?.within(regions.bbox());
    let mut join = ZoneJoin::new(&plan, regions, index, query);
    let mut stats = StoredJoinStats::default();
    let mut attrs: Vec<usize> = Vec::new();
    // One zone of the columns in use, for the whole join.
    let mut zone = Columns::default();
    let header = source.shared_header();
    source.reset_stats();
    for (ci, meta) in header.chunks.iter().enumerate() {
        budget.check()?;
        if matches!(plan.classify(Some(&meta.footer)), ZoneClass::Skip) {
            stats.chunks_pruned += 1;
            stats.zones.skipped += meta.zones.len() as u64;
            continue;
        }
        let mut read_any = false;
        for (z, footer) in meta.zones.iter().enumerate() {
            let class = plan.classify(Some(footer));
            if matches!(class, ZoneClass::Skip) {
                stats.zones.skipped += 1;
                continue;
            }
            budget.check()?;
            let want_ts = plan.reads(&class, &mut attrs);
            source
                .read_zone(ci, z, want_ts, &attrs, &mut zone)
                .map_err(|e| RasterJoinError::Internal(format!("store read failed: {e}")))?;
            read_any = true;
            stats.rows_scanned += zone.xs.len() as u64;
            stats.zones.count(&class, zone.xs.len());
            join.zone(&class, ZoneColumns::new(&zone.xs, &zone.ys, &zone.ts, &zone.attrs));
        }
        if read_any {
            stats.chunks_scanned += 1;
        } else {
            stats.chunks_pruned += 1;
        }
    }
    stats.peak_resident_rows = source.stats().peak_resident_rows;
    Ok((join.out, stats))
}

/// In-memory index join with budget/cancellation polling — the session
/// layer's entry point when the table is already materialized. Identical
/// results to [`crate::executor::index_join`]; it walks the table's zones
/// like the stored join, skipping the ones its footers rule out, and polls
/// the budget once per zone.
pub fn index_join_budgeted<I: RegionIndex>(
    points: &PointTable,
    regions: &RegionSet,
    index: &I,
    query: &SpatialAggQuery,
    budget: &QueryBudget,
) -> Result<AggTable, RasterJoinError> {
    let plan = ZonePlan::new(points.schema(), query)?.within(regions.bbox());
    let mut join = ZoneJoin::new(&plan, regions, index, query);
    let footers = points.zones();
    for (z, start) in (0..points.len()).step_by(ZONE_ROWS).enumerate() {
        budget.check()?;
        let class = plan.classify(footers.get(z));
        if !matches!(class, ZoneClass::Skip) {
            let end = (start + ZONE_ROWS).min(points.len());
            join.zone(&class, ZoneColumns::of_table(points, start, end));
        }
    }
    Ok(join.out)
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
