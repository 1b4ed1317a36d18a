//! Property-based cross-method equivalence: for random workloads, region
//! layouts, filters, and aggregates, every exact executor must agree, and
//! the bounded executor must respect its error bound.

use proptest::prelude::*;
use raster_join::{RasterJoin, RasterJoinConfig};
use spatial_index::{index_join, naive_join, GridIndex, PackedRegionIndex};
use urban_data::filter::Filter;
use urban_data::gen::regions::{grid_regions, star_regions, voronoi_neighborhoods};
use urban_data::query::{AggKind, SpatialAggQuery};
use urban_data::schema::{AttrType, Schema};
use urban_data::time::TimeRange;
use urban_data::{PointTable, RegionSet};
use urbane_geom::{BoundingBox, Point, Polygon};

const EXTENT: f64 = 100.0;

fn extent() -> BoundingBox {
    BoundingBox::from_coords(0.0, 0.0, EXTENT, EXTENT)
}

#[derive(Debug, Clone)]
struct Scenario {
    points: Vec<(f64, f64, i64, f32)>,
    layout: u8,
    n_regions: usize,
    seed: u64,
    agg: u8,
    time_filter: Option<(i64, i64)>,
    attr_filter: Option<(f32, f32)>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        proptest::collection::vec(
            (0.0..EXTENT, 0.0..EXTENT, 0i64..1_000, 0.0f32..100.0),
            50..400,
        ),
        0u8..3,
        2usize..20,
        0u64..1_000,
        0u8..5,
        proptest::option::of((0i64..500, 500i64..1_000)),
        proptest::option::of((0.0f32..40.0, 40.0f32..100.0)),
    )
        .prop_map(|(points, layout, n_regions, seed, agg, time_filter, attr_filter)| Scenario {
            points,
            layout,
            n_regions,
            seed,
            agg,
            time_filter,
            attr_filter,
        })
}

fn build(s: &Scenario) -> (PointTable, RegionSet, SpatialAggQuery) {
    let schema = Schema::new([("v", AttrType::Numeric)]).unwrap();
    let mut table = PointTable::new(schema);
    for &(x, y, t, v) in &s.points {
        table.push(Point::new(x, y), t, &[v]).unwrap();
    }
    let regions = match s.layout {
        0 => voronoi_neighborhoods(&extent(), s.n_regions, s.seed, 1),
        1 => {
            let n = (s.n_regions as f64).sqrt().ceil().max(1.0) as u32;
            grid_regions(&extent(), n, n)
        }
        _ => star_regions(&extent(), s.n_regions, 12, s.seed),
    };
    let agg = match s.agg {
        0 => AggKind::Count,
        1 => AggKind::Sum("v".into()),
        2 => AggKind::Avg("v".into()),
        3 => AggKind::Min("v".into()),
        _ => AggKind::Max("v".into()),
    };
    let mut q = SpatialAggQuery::new(agg);
    if let Some((a, b)) = s.time_filter {
        q = q.filter(Filter::Time(TimeRange::new(a, b)));
    }
    if let Some((lo, hi)) = s.attr_filter {
        q = q.filter(Filter::AttrRange { column: "v".into(), min: lo, max: hi });
    }
    (table, regions, q)
}

/// Overlapping regions on one boundary pixel. On the 16-px canvas over
/// `[0, 12] × [0, 16]`, pixel column 4 at `y = 7.5` is crossed by region 0's
/// left edge (`x = 4.3`) and lies inside region 1, away from its edges.
/// Bounded mode gives region 0 both points of that pixel, since the pixel
/// centre is inside it. The accurate pass must let region 1 keep both
/// (through its gathered runs) and give region 0 only the point its PIP test
/// accepts — the exact join's answer, bit for bit.
#[test]
fn overlapping_regions_split_a_boundary_pixel_exactly() {
    let regions = RegionSet::from_polygons(
        "overlap",
        "o",
        vec![
            Polygon::from_coords(&[(4.3, 2.0), (12.0, 2.0), (12.0, 14.0), (4.3, 14.0)]).unwrap(),
            Polygon::from_coords(&[(0.0, 0.0), (9.0, 0.0), (9.0, 16.0), (0.0, 16.0)]).unwrap(),
        ],
    );
    let mut pts = PointTable::new(Schema::new([("v", AttrType::Numeric)]).unwrap());
    // The boundary pixel: in both regions, then in region 1 only. Then a
    // point in both regions' interiors.
    for (x, v) in [(4.6, 1.0), (4.1, 2.0), (7.5, 4.0)] {
        pts.push(Point::new(x, 7.5), 0, &[v]).unwrap();
    }
    for (agg, want) in [(AggKind::Count, [2.0, 3.0]), (AggKind::Sum("v".into()), [5.0, 7.0])] {
        let q = SpatialAggQuery::new(agg);
        let bounded =
            RasterJoin::new(RasterJoinConfig::with_resolution(16)).execute(&pts, &regions, &q).unwrap();
        assert_ne!(bounded.table.value(0), Some(want[0]), "the pixel is not ambiguous for region 0");
        let got = RasterJoin::new(RasterJoinConfig::accurate(16)).execute(&pts, &regions, &q).unwrap();
        assert_eq!(got.table.values(), want.map(Some));
        assert_eq!(got.table.values(), naive_join(&pts, &regions, &q).unwrap().values());
    }
}

fn values_close(a: &[Option<f64>], b: &[Option<f64>]) -> bool {
    a.iter().zip(b).all(|(x, y)| match (x, y) {
        (None, None) => true,
        (Some(x), Some(y)) => (x - y).abs() <= 1e-3 * x.abs().max(1.0),
        _ => false,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All exact executors produce identical answers on arbitrary scenarios
    /// — including overlapping star regions and every aggregate/filter mix.
    #[test]
    fn exact_executors_agree(s in scenario_strategy()) {
        let (pts, regions, q) = build(&s);
        prop_assume!(!regions.is_empty());
        let truth = naive_join(&pts, &regions, &q).unwrap();

        let grid = GridIndex::build_auto(&regions);
        prop_assert_eq!(index_join(&pts, &regions, &grid, &q).unwrap().values(), truth.values());
        let rtree = PackedRegionIndex::build(&regions);
        prop_assert_eq!(index_join(&pts, &regions, &rtree, &q).unwrap().values(), truth.values());

        let accurate = RasterJoin::new(RasterJoinConfig::accurate(128));
        let got = accurate.execute(&pts, &regions, &q).unwrap();
        prop_assert!(
            values_close(&got.table.values(), &truth.values()),
            "accurate RJ diverged: {:?} vs {:?}", got.table.values(), truth.values()
        );
    }

    /// Bounded Raster Join's per-region count error involves only points
    /// within ε of that region's boundary.
    #[test]
    fn bounded_error_is_boundary_limited(s in scenario_strategy()) {
        let (pts, regions, _) = build(&s);
        prop_assume!(!regions.is_empty());
        let q = SpatialAggQuery::count();
        let truth = naive_join(&pts, &regions, &q).unwrap();
        let bounded = RasterJoin::new(RasterJoinConfig::with_resolution(64));
        let res = bounded.execute(&pts, &regions, &q).unwrap();
        let eps = res.epsilon;

        for (id, _, geom) in regions.iter() {
            let diff = (res.table.states[id as usize].count as i64
                - truth.states[id as usize].count as i64)
                .unsigned_abs();
            // Upper bound: the number of (filtered) points within ε of this
            // region's boundary.
            let near = (0..pts.len())
                .filter(|&i| {
                    let p = pts.loc(i);
                    geom.polygons()
                        .iter()
                        .flat_map(|poly| poly.edges())
                        .any(|e| e.distance_to_point(p) <= eps * 1.5)
                })
                .count() as u64;
            prop_assert!(
                diff <= near,
                "region {id}: |Δ| = {diff} exceeds near-boundary points {near} (ε = {eps})"
            );
        }
    }

    /// A kept prepared raster replays identically to the one-shot executor
    /// in every mode, on arbitrary scenarios.
    #[test]
    fn prepared_matches_one_shot(s in scenario_strategy()) {
        use raster_join::{CanvasSpec, ExecutionMode, PreparedRasterJoin};
        let (pts, regions, q) = build(&s);
        prop_assume!(!regions.is_empty());
        for (mode, cfg) in [
            (ExecutionMode::Bounded, RasterJoinConfig::with_resolution(96)),
            (ExecutionMode::Weighted, RasterJoinConfig::weighted(96)),
            (ExecutionMode::Accurate, RasterJoinConfig::accurate(96)),
        ] {
            let one_shot = RasterJoin::new(cfg).execute(&pts, &regions, &q).unwrap();
            let prepared =
                PreparedRasterJoin::prepare(&regions, CanvasSpec::Resolution(96), 2048, mode)
                    .unwrap();
            let got = prepared.execute(&pts, &q).unwrap();
            prop_assert_eq!(
                got.table.values(),
                one_shot.table.values(),
                "{:?} diverged", mode
            );
        }
    }

    /// The canvas plan honors whichever ε is requested.
    #[test]
    fn epsilon_request_honored(eps in 0.1f64..50.0) {
        let plan = raster_join::CanvasPlan::plan(
            &extent(),
            raster_join::CanvasSpec::Epsilon(eps),
            4096,
        ).unwrap();
        prop_assert!(plan.epsilon <= eps * (1.0 + 1e-9));
        for t in &plan.tiles {
            prop_assert!(t.pixel_error_bound() <= eps * (1.0 + 1e-9));
        }
    }
}
