//! The index-join aggregation executor — "the traditional approach".
//!
//! For every point that survives the filters: probe the region index,
//! verify candidates with exact point-in-polygon, and fold the point into
//! each containing region's aggregate state. A multithreaded variant
//! partitions the point table across workers and merges partial
//! [`AggTable`]s — the strongest CPU configuration the paper's comparison
//! charts include.
//!
//! The row body is [`RegionIndex::join_rows`], the one every exact join
//! calls (these two, the zone-walking joins of [`crate::store_exec`] and
//! the cube build of [`crate::preagg`]). Its provided body probes and then
//! runs `MultiPolygon::contains` on each candidate, which is what
//! [`crate::PackedRegionIndex`] uses; [`crate::GridIndex`] overrides it with
//! one in-place pass over the cell's entries and cell-local edge lists.
//! Either way a region's state folds the rows in ascending row order, so
//! the answer is bit-identical whichever index runs it.

use crate::RegionIndex;
use urban_data::query::{AggTable, SpatialAggQuery};
use urban_data::{PointTable, RegionSet, Result};

/// Evaluate `query` with a point-probed index join (single-threaded).
pub fn index_join<I: RegionIndex>(
    points: &PointTable,
    regions: &RegionSet,
    index: &I,
    query: &SpatialAggQuery,
) -> Result<AggTable> {
    let agg = query.agg_kind();
    let col = agg.resolve(points)?;
    let filter = query.filters.compile(points)?;
    let mut out = AggTable::new(agg, regions.len());
    let rows = (0..points.len())
        .filter(|&i| filter.matches(i))
        .map(|i| (points.loc(i), col.map_or(0.0, |c| points.attr(i, c) as f64)));
    index.join_rows(regions, rows, |id, v| out.states[id as usize].accumulate(v));
    Ok(out)
}

/// Parallel index join: the point table is split into `n_threads` contiguous
/// chunks, each worker computes a partial aggregate table, and the partials
/// are merged. Exact — aggregation states merge losslessly.
pub fn index_join_parallel<I: RegionIndex>(
    points: &PointTable,
    regions: &RegionSet,
    index: &I,
    query: &SpatialAggQuery,
    n_threads: usize,
) -> Result<AggTable> {
    let n_threads = n_threads.max(1);
    let agg = query.agg_kind();
    let col = agg.resolve(points)?;
    // Compile once to surface filter errors before spawning.
    query.filters.compile(points)?;

    let n = points.len();
    let chunk = n.div_ceil(n_threads).max(1);
    let mut partials: Vec<Result<AggTable>> = Vec::new();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..n_threads {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(n);
            if lo >= hi {
                break;
            }
            let agg = agg.clone();
            handles.push(scope.spawn(move || -> Result<AggTable> {
                let filter = query.filters.compile(points)?;
                let mut part = AggTable::new(agg, regions.len());
                let rows = (lo..hi)
                    .filter(|&i| filter.matches(i))
                    .map(|i| (points.loc(i), col.map_or(0.0, |c| points.attr(i, c) as f64)));
                index.join_rows(regions, rows, |id, v| part.states[id as usize].accumulate(v));
                Ok(part)
            }));
        }
        partials = handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|payload| {
                    // A worker panic becomes a typed error so one poisoned
                    // partition fails the join instead of the process.
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    Err(urban_data::DataError::Worker(msg))
                })
            })
            .collect();
    });

    let mut out = AggTable::new(agg, regions.len());
    for p in partials {
        out.merge(&p?)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridIndex;
    use crate::naive::naive_join;
    use crate::packed::PackedRegionIndex;
    use urban_data::filter::Filter;
    use urban_data::gen::corpus::uniform_points;
    use urban_data::schema::Schema;
    use urban_data::gen::regions::voronoi_neighborhoods;
    use urban_data::query::AggKind;
    use urban_data::time::TimeRange;
    use urbane_geom::BoundingBox;

    // Delegates to the shared corpus generator — same draw order as the
    // historical in-module copy, so tables (and results) are unchanged.
    fn random_points(n: usize, seed: u64) -> PointTable {
        uniform_points(&BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0), n, seed, 50.0)
    }

    fn regions() -> RegionSet {
        let bbox = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        voronoi_neighborhoods(&bbox, 25, 9, 2)
    }

    #[test]
    fn all_indexes_match_naive_count() {
        let pts = random_points(3_000, 1);
        let rs = regions();
        let q = SpatialAggQuery::count();
        let truth = naive_join(&pts, &rs, &q).unwrap();

        let rtree = PackedRegionIndex::build(&rs);
        assert_eq!(index_join(&pts, &rs, &rtree, &q).unwrap(), truth);
        let grid = GridIndex::build_auto(&rs);
        assert_eq!(index_join(&pts, &rs, &grid, &q).unwrap(), truth);
    }

    #[test]
    fn all_aggregates_match_naive() {
        let pts = random_points(2_000, 2);
        let rs = regions();
        let grid = GridIndex::build_auto(&rs);
        for agg in [
            AggKind::Count,
            AggKind::Sum("v".into()),
            AggKind::Avg("v".into()),
            AggKind::Min("v".into()),
            AggKind::Max("v".into()),
        ] {
            let q = SpatialAggQuery::new(agg.clone());
            let truth = naive_join(&pts, &rs, &q).unwrap();
            let got = index_join(&pts, &rs, &grid, &q).unwrap();
            assert_eq!(got, truth, "aggregate {agg:?} diverged");
        }
    }

    #[test]
    fn filters_respected() {
        let pts = random_points(2_000, 3);
        let rs = regions();
        let grid = GridIndex::build_auto(&rs);
        let q = SpatialAggQuery::count()
            .filter(Filter::Time(TimeRange::new(0, 500)))
            .filter(Filter::AttrRange { column: "v".into(), min: 10.0, max: 30.0 });
        let truth = naive_join(&pts, &rs, &q).unwrap();
        assert_eq!(index_join(&pts, &rs, &grid, &q).unwrap(), truth);
        assert!(truth.total_count() < 500);
    }

    #[test]
    fn parallel_matches_serial() {
        let pts = random_points(5_000, 4);
        let rs = regions();
        let rtree = PackedRegionIndex::build(&rs);
        let q = SpatialAggQuery::new(AggKind::Avg("v".into()));
        let serial = index_join(&pts, &rs, &rtree, &q).unwrap();
        for threads in [1, 2, 4, 7] {
            let par = index_join_parallel(&pts, &rs, &rtree, &q, threads).unwrap();
            assert_eq!(par, serial, "{threads} threads diverged");
        }
    }

    #[test]
    fn empty_points_table() {
        let pts = PointTable::new(Schema::empty());
        let rs = regions();
        let grid = GridIndex::build_auto(&rs);
        let res = index_join(&pts, &rs, &grid, &SpatialAggQuery::count()).unwrap();
        assert_eq!(res.total_count(), 0);
        assert!(res.values().iter().all(Option::is_none));
    }

    #[test]
    fn parallel_surfaces_filter_errors() {
        let pts = random_points(10, 5);
        let rs = regions();
        let grid = GridIndex::build_auto(&rs);
        let q = SpatialAggQuery::count().filter(Filter::AttrEquals {
            column: "ghost".into(),
            value: 0.0,
        });
        assert!(index_join_parallel(&pts, &rs, &grid, &q, 4).is_err());
    }
}
