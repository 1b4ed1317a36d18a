//! Degenerate-region regressions for the accurate boundary-pixel path.
//!
//! The accurate variant's exactness proof leans on "interior pixels are
//! fully covered" + "boundary pixels get exact PIP fix-up". Degenerate
//! regions stress the seams of that argument:
//!
//! * a **zero-area ring** (three distinct collinear vertices) has no
//!   interior at all — every covered pixel is a boundary pixel, and only
//!   points *exactly on* the segment belong to the region (closed
//!   semantics);
//! * **collinear redundant vertices** on a square's edges must not change
//!   any answer (extra vertices add zero-length scanline events and repeat
//!   boundary pixels);
//! * a **sub-pixel region** (entire polygon strictly inside one coarse
//!   pixel) has no interior pixel either — the bounded path may legally
//!   miscount it, the accurate path may not.
//!
//! Truth is the independent exact oracle from `urbane-verify`.

use raster_join::{CanvasSpec, ExecutionMode, RasterJoin, RasterJoinConfig};
use urban_data::gen::corpus::uniform_points;
use urban_data::query::{AggTable, SpatialAggQuery};
use urban_data::{PointTable, RegionSet};
use urbane_geom::{BoundingBox, MultiPolygon, Point, Polygon, Ring};
use urbane_verify::oracle::oracle_join;

fn region_set(polys: Vec<(&str, Polygon)>) -> RegionSet {
    RegionSet::new(
        "degenerate",
        polys
            .into_iter()
            .map(|(n, p)| (n.to_string(), MultiPolygon::from_polygon(p)))
            .collect(),
    )
}

fn accurate(points: &PointTable, regions: &RegionSet, q: &SpatialAggQuery, res: u32) -> AggTable {
    let config = RasterJoinConfig {
        spec: CanvasSpec::Resolution(res),
        max_tile: 64,
        mode: ExecutionMode::Accurate,
        ..RasterJoinConfig::default()
    };
    RasterJoin::new(config).execute(points, regions, q).expect("accurate run").table
}

fn assert_matches_oracle(points: &PointTable, regions: &RegionSet, res: u32) {
    let q = SpatialAggQuery::count();
    let exact = oracle_join(points, regions, &q).expect("oracle");
    let got = accurate(points, regions, &q, res);
    for r in 0..regions.len() {
        assert_eq!(
            got.states[r].count, exact.states[r].count,
            "region {r}: accurate count diverges from the exact oracle at res {res}"
        );
    }
}

/// A zero-area ring joins exactly the points lying on its segment — and
/// nothing else, at any resolution.
#[test]
fn zero_area_collinear_ring() {
    let line = Polygon::new(
        Ring::new(vec![Point::new(10.0, 10.0), Point::new(50.0, 50.0), Point::new(30.0, 30.0)])
            .expect("3 distinct vertices form a ring"),
    );
    let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
    let mut points = uniform_points(&extent, 600, 21, 10.0);
    // Plant rows exactly on the segment and just off it.
    points.push(Point::new(20.0, 20.0), 600, &[1.0]).expect("arity");
    points.push(Point::new(40.0, 40.0), 601, &[1.0]).expect("arity");
    points.push(Point::new(20.0, 20.5), 602, &[1.0]).expect("arity");

    // A normal region alongside, so the set isn't wholly degenerate.
    let square =
        Polygon::from_coords(&[(60.0, 60.0), (90.0, 60.0), (90.0, 90.0), (60.0, 90.0)])
            .expect("square");
    let regions = region_set(vec![("line", line), ("square", square)]);

    let q = SpatialAggQuery::count();
    let exact = oracle_join(&points, &regions, &q).expect("oracle");
    assert_eq!(exact.states[0].count, 2, "oracle: exactly the two planted on-segment points");
    for res in [24u32, 48, 96] {
        assert_matches_oracle(&points, &regions, res);
    }
}

/// Redundant collinear vertices on a square's edges change nothing: the
/// answer equals both the oracle and the clean square's answer bit-for-bit.
#[test]
fn collinear_redundant_vertices_are_inert() {
    let clean =
        Polygon::from_coords(&[(20.0, 20.0), (70.0, 20.0), (70.0, 70.0), (20.0, 70.0)])
            .expect("square");
    let redundant = Polygon::from_coords(&[
        (20.0, 20.0),
        (45.0, 20.0), // midpoint of the bottom edge
        (70.0, 20.0),
        (70.0, 33.0),
        (70.0, 51.0), // two interior points of the right edge
        (70.0, 70.0),
        (20.0, 70.0),
        (20.0, 45.0), // midpoint of the left edge
    ])
    .expect("square with redundant vertices");

    let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
    let points = uniform_points(&extent, 1_500, 22, 10.0);
    let clean_set = region_set(vec![("sq", clean)]);
    let redundant_set = region_set(vec![("sq", redundant)]);

    let q = SpatialAggQuery::count();
    for res in [32u32, 64] {
        let a = accurate(&points, &clean_set, &q, res);
        let b = accurate(&points, &redundant_set, &q, res);
        assert_eq!(a.states[0].count, b.states[0].count, "redundant vertices changed the count");
        assert_matches_oracle(&points, &redundant_set, res);
    }
}

/// A region strictly inside one coarse pixel still aggregates exactly under
/// the accurate path (the whole polygon is boundary pixels).
#[test]
fn sub_pixel_region_is_exact() {
    // ~0.8-unit triangle; at 24 px over 100 units a pixel is >4 units wide.
    let tiny = Polygon::from_coords(&[(50.1, 50.1), (50.9, 50.1), (50.5, 50.8)])
        .expect("tiny triangle");
    let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
    let mut points = uniform_points(&extent, 800, 23, 10.0);
    // Guarantee interior, boundary, and near-miss rows.
    points.push(Point::new(50.5, 50.3), 800, &[1.0]).expect("arity");
    points.push(Point::new(50.1, 50.1), 801, &[1.0]).expect("arity"); // vertex
    points.push(Point::new(50.5, 50.95), 802, &[1.0]).expect("arity"); // outside

    // Anchor region so the canvas covers the full extent.
    let anchor = Polygon::from_coords(&[(0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)])
        .expect("anchor");
    let regions = region_set(vec![("tiny", tiny), ("anchor", anchor)]);

    let q = SpatialAggQuery::count();
    let exact = oracle_join(&points, &regions, &q).expect("oracle");
    assert!(exact.states[0].count >= 2, "planted interior + vertex rows must join");
    for res in [24u32, 48, 128] {
        assert_matches_oracle(&points, &regions, res);
    }
}
