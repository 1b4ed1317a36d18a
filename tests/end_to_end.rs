//! End-to-end integration: synthetic city → data sets → region pyramid →
//! every executor → Urbane session and views, all agreeing with each other.

use raster_join::{RasterJoin, RasterJoinConfig};
use spatial_index::{index_join, index_join_parallel, naive_join, GridIndex, PackedRegionIndex};
use urban_data::filter::Filter;
use urban_data::query::{AggKind, SpatialAggQuery};
use urban_data::time::{timestamp, TimeBucket, TimeRange, DAY};
use urbane::view::{ExplorationView, MapView};
use urbane::{DataCatalog, ResolutionPyramid, SessionConfig, UrbaneSession};
use urbane_bench::workload::Workload;

fn workload() -> Workload {
    Workload::standard(30_000, 7)
}

#[test]
fn every_executor_agrees_on_the_demo_query() {
    let w = workload();
    let regions = w.neighborhoods();
    let start = timestamp(2009, 1, 1, 0, 0, 0);
    let q = SpatialAggQuery::count()
        .filter(Filter::Time(TimeRange::new(start + 2 * DAY, start + 9 * DAY)));

    let truth = naive_join(&w.taxi, &regions, &q).unwrap();
    assert!(truth.total_count() > 1_000, "sanity: the filter keeps data");

    // Exact executors must agree exactly.
    let grid = GridIndex::build_auto(&regions);
    assert_eq!(index_join(&w.taxi, &regions, &grid, &q).unwrap().values(), truth.values());
    let rtree = PackedRegionIndex::build(&regions);
    assert_eq!(index_join(&w.taxi, &regions, &rtree, &q).unwrap().values(), truth.values());
    assert_eq!(
        index_join_parallel(&w.taxi, &regions, &grid, &q, 4).unwrap().values(),
        truth.values()
    );
    let accurate = RasterJoin::new(RasterJoinConfig::accurate(512));
    assert_eq!(accurate.execute(&w.taxi, &regions, &q).unwrap().table.values(), truth.values());

    // The bounded executor must stay within a small relative error at a
    // fine canvas.
    let bounded = RasterJoin::new(RasterJoinConfig::with_resolution(2048));
    let res = bounded.execute(&w.taxi, &regions, &q).unwrap();
    let rel = (res.table.total_count() as f64 - truth.total_count() as f64).abs()
        / truth.total_count() as f64;
    assert!(rel < 0.01, "bounded total off by {rel}");
}

#[test]
fn all_aggregates_flow_through_the_whole_stack() {
    let w = workload();
    let regions = w.boroughs();
    for agg in [
        AggKind::Count,
        AggKind::Sum("fare".into()),
        AggKind::Avg("fare".into()),
        AggKind::Min("fare".into()),
        AggKind::Max("fare".into()),
    ] {
        let q = SpatialAggQuery::new(agg.clone());
        let truth = naive_join(&w.taxi, &regions, &q).unwrap();
        let accurate = RasterJoin::new(RasterJoinConfig::accurate(512));
        let got = accurate.execute(&w.taxi, &regions, &q).unwrap();
        for r in 0..regions.len() {
            match (truth.value(r), got.table.value(r)) {
                (None, None) => {}
                (Some(a), Some(b)) => assert!(
                    (a - b).abs() <= 1e-3 * a.abs().max(1.0),
                    "{agg:?} region {r}: {a} vs {b}"
                ),
                (a, b) => panic!("{agg:?} region {r}: {a:?} vs {b:?}"),
            }
        }
    }
}

#[test]
fn urbane_session_drives_the_full_demo_path() {
    let w = workload();
    let mut catalog = DataCatalog::new();
    catalog.register("taxi", w.taxi.clone());
    catalog.register("311", w.complaints.clone());
    catalog.register("crime", w.crime.clone());
    let pyramid = ResolutionPyramid::standard(&w.city.bbox(), 32, 12, 42);

    let mut session = UrbaneSession::new(
        SessionConfig { join: RasterJoinConfig::with_resolution(512), ..Default::default() },
        catalog,
        pyramid,
    )
    .expect("catalog is non-empty");
    session.select_dataset("taxi").unwrap();

    // Walk the pyramid; totals must be consistent across resolutions (the
    // bounded join loses at most the ε-edge sliver).
    let mut totals = Vec::new();
    for level in 0..session.pyramid().len() {
        session.select_resolution(level).unwrap();
        totals.push(session.evaluate().unwrap().total_count() as f64);
    }
    for w2 in totals.windows(2) {
        assert!((w2[0] - w2[1]).abs() / w2[0] < 0.02, "totals diverged: {totals:?}");
    }

    // Map view renders at every resolution.
    for level in 0..session.pyramid().len() {
        session.select_resolution(level).unwrap();
        let img = session.render_map().unwrap();
        assert!(img.values.iter().any(Option::is_some));
    }
}

#[test]
fn exploration_series_sums_to_unfiltered_total() {
    let w = workload();
    let regions = w.boroughs();
    let view = ExplorationView::new(RasterJoinConfig::accurate(512));
    let start = timestamp(2009, 1, 1, 0, 0, 0);
    let range = TimeRange::new(start, start + 30 * DAY);

    let series = view
        .time_series("taxi", &w.taxi, &regions, &SpatialAggQuery::count(), range, TimeBucket::Week)
        .unwrap();
    let unfiltered = view
        .rank_regions(&w.taxi, &regions, &SpatialAggQuery::count())
        .unwrap();

    // Weekly buckets partition the month: per-region sums must match the
    // unfiltered per-region counts (accurate mode → exact).
    for (region, value) in unfiltered {
        let sum = series.region_total(region);
        let v = value.unwrap_or(0.0);
        assert!((sum - v).abs() < 1e-6, "region {region}: {sum} vs {v}");
    }
}

#[test]
fn map_view_image_reflects_data_skew() {
    let w = workload();
    let regions = w.neighborhoods();
    let view = MapView::with_defaults();
    let img = view
        .render(&w.taxi, &regions, &SpatialAggQuery::count(), 256, 256)
        .unwrap();
    // The legend must span a real range (hotspots create skew).
    assert!(img.legend.hi > 10.0 * img.legend.lo.max(1.0), "legend {:?}", img.legend);
    // And the image must contain more than background + boundaries.
    let distinct: std::collections::HashSet<[u8; 3]> =
        img.image.iter_texels().map(|(_, _, c)| c).collect();
    assert!(distinct.len() > 10, "only {} distinct colors", distinct.len());
}
