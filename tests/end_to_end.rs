//! End-to-end integration: synthetic city → data sets → region pyramid →
//! every executor → Urbane session and views, all agreeing with each other.

use raster_join::{ExecutionMode, RasterJoin, RasterJoinConfig};
use spatial_index::{index_join, index_join_parallel, naive_join, GridIndex, PackedRegionIndex};
use std::time::Duration;
use urban_data::filter::Filter;
use urban_data::query::{AggKind, SpatialAggQuery};
use urban_data::time::{timestamp, TimeBucket, TimeRange, DAY};
use urban_data::RegionSet;
use urbane::view::explore::{rank_regions, time_series};
use urbane::view::MapView;
use urbane::{
    QueryRequest, ResolutionPyramid, ServiceConfig, SessionConfig, UrbaneService, UrbaneSession,
};
use urbane_bench::workload::Workload;

fn workload() -> Workload {
    Workload::standard(30_000, 7)
}

/// The workload over one pyramid level, `regions`, answered at `join`'s
/// canvas with no deadline a test reaches.
fn service(w: &Workload, regions: RegionSet, join: RasterJoinConfig) -> UrbaneService {
    let deadline = Duration::from_secs(3600);
    let config = ServiceConfig { join, default_deadline: deadline, ..Default::default() };
    UrbaneService::new(config, w.catalog(), ResolutionPyramid::new(vec![regions])).unwrap()
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
    let pyramid = ResolutionPyramid::standard(&w.city.bbox(), 32, 12, 42);

    let mut session = UrbaneSession::new(
        SessionConfig { join: RasterJoinConfig::with_resolution(512), ..Default::default() },
        w.catalog(),
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
    let service = service(&w, w.boroughs(), RasterJoinConfig::accurate(512));
    let req = QueryRequest::count("taxi", 0).mode(ExecutionMode::Accurate);
    let start = timestamp(2009, 1, 1, 0, 0, 0);
    let range = TimeRange::new(start, start + 30 * DAY);

    let series = time_series(&service, &req, range, TimeBucket::Week).unwrap();
    let unfiltered = rank_regions(&service, &req).unwrap();

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
    let service = service(&w, w.neighborhoods(), RasterJoinConfig::default());
    let answer = service.query(&QueryRequest::count("taxi", 0)).unwrap();
    let img = MapView::with_defaults().render(&answer, 256, 256);
    // The legend must span a real range (hotspots create skew).
    assert!(img.legend.hi > 10.0 * img.legend.lo.max(1.0), "legend {:?}", img.legend);
    // And the image must contain more than background + boundaries.
    let distinct: std::collections::HashSet<[u8; 3]> =
        img.image.iter_texels().map(|(_, _, c)| c).collect();
    assert!(distinct.len() > 10, "only {} distinct colors", distinct.len());
}
