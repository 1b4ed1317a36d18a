//! The exact geometric oracle: point-in-polygon aggregation built directly
//! on the robust predicates in `urbane-geom` — and on *nothing else* from
//! the evaluation stack.
//!
//! Every production executor in this repo answers the paper's query through
//! a raster: canvas planning, tiling, scanline fill, pixel-center
//! snapping. The oracle shares none of that. Containment is
//! decided per point with an orientation-predicate crossing test (no
//! computed intersection coordinates, no canvas, no tiles), so a bug in the
//! raster stack cannot hide by also biasing the reference. The only shared
//! code is the data layer (filters / aggregate state), which is not a
//! spatial code path, and the `orientation` / `point_on_segment` predicates
//! themselves, which are the repo's axioms.
//!
//! Semantics match the repo convention exactly:
//! * exterior boundary is **inside** (closed polygons),
//! * hole interiors are outside, hole boundaries are inside,
//! * a `MultiPolygon` contains a point when any member polygon does,
//! * overlapping regions each receive the point (SQL join semantics).

use urban_data::query::{AggTable, SpatialAggQuery};
use urban_data::{PointTable, RegionSet};
use urbane_geom::predicates::{orientation, point_on_segment, Orientation};
use urbane_geom::{MultiPolygon, Point, Polygon, Ring};

use crate::{Result, VerifyError};

/// Where a point sits relative to a closed region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Strictly outside.
    Out,
    /// On an edge or vertex of some ring.
    Boundary,
    /// Strictly inside (interior of the exterior, not inside any hole).
    In,
}

/// Classify `p` against a single ring with an even-odd crossing test driven
/// purely by orientation signs: an edge whose endpoints straddle the
/// horizontal line through `p` crosses the rightward ray iff `p` lies on
/// the inner side of the directed edge. No intersection coordinate is ever
/// computed, so there is no roundoff beyond the predicates' own.
pub fn ring_side(ring: &Ring, p: Point) -> Side {
    let mut inside = false;
    for e in ring.edges() {
        if point_on_segment(p, e.a, e.b) {
            return Side::Boundary;
        }
        if (e.a.y > p.y) != (e.b.y > p.y) {
            let o = orientation(e.a, e.b, p);
            let crosses = if e.b.y > e.a.y {
                o == Orientation::Ccw
            } else {
                o == Orientation::Cw
            };
            if crosses {
                inside = !inside;
            }
        }
    }
    if inside {
        Side::In
    } else {
        Side::Out
    }
}

/// Classify `p` against a polygon with holes (closed semantics; hole
/// boundaries count as inside, hole interiors as outside).
pub fn polygon_side(poly: &Polygon, p: Point) -> Side {
    match ring_side(poly.exterior(), p) {
        Side::Out => Side::Out,
        Side::Boundary => Side::Boundary,
        Side::In => {
            for hole in poly.holes() {
                match ring_side(hole, p) {
                    Side::In => return Side::Out,
                    Side::Boundary => return Side::Boundary,
                    Side::Out => {}
                }
            }
            Side::In
        }
    }
}

/// True when the multipolygon contains `p` under the closed convention.
pub fn contains(geom: &MultiPolygon, p: Point) -> bool {
    geom.polygons().iter().any(|poly| polygon_side(poly, p) != Side::Out)
}

/// Evaluate the query exactly: for every point passing the ad-hoc filters,
/// test containment against every region with the predicate-based test and
/// fold the attribute into the region's [`AggTable`] state. `O(|P|·|R|·V)`
/// — an oracle, not an executor.
///
/// The per-region bounding box is used only as a conservative prefilter
/// (closed-box containment can never exclude a point the polygon contains).
pub fn oracle_join(
    points: &PointTable,
    regions: &RegionSet,
    query: &SpatialAggQuery,
) -> Result<AggTable> {
    let agg = query.agg_kind();
    let col = agg.resolve(points).map_err(|e| VerifyError::Data(e.to_string()))?;
    let filter =
        query.filters.compile(points).map_err(|e| VerifyError::Data(e.to_string()))?;
    let boxes: Vec<_> = regions.iter().map(|(_, _, g)| g.bbox()).collect();

    let mut out = AggTable::new(agg, regions.len());
    for i in 0..points.len() {
        if !filter.matches(i) {
            continue;
        }
        let p = points.loc(i);
        let v = col.map_or(0.0, |c| points.attr(i, c) as f64);
        for ((id, _, geom), bbox) in regions.iter().zip(&boxes) {
            if bbox.contains(p) && contains(geom, p) {
                if let Some(state) = out.states.get_mut(id as usize) {
                    state.accumulate(v);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use urban_data::gen::corpus::uniform_points;
    use urban_data::gen::regions::{star_regions, voronoi_neighborhoods};
    use urban_data::query::{AggKind, SpatialAggQuery};
    use urbane_geom::BoundingBox;

    fn unit_square() -> Polygon {
        Polygon::from_coords(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]).unwrap()
    }

    #[test]
    fn ring_classification_interior_boundary_exterior() {
        let sq = unit_square();
        assert_eq!(polygon_side(&sq, Point::new(2.0, 2.0)), Side::In);
        assert_eq!(polygon_side(&sq, Point::new(5.0, 2.0)), Side::Out);
        // Edge and vertex are boundary.
        assert_eq!(polygon_side(&sq, Point::new(4.0, 2.0)), Side::Boundary);
        assert_eq!(polygon_side(&sq, Point::new(0.0, 0.0)), Side::Boundary);
        // A ray through a vertex must not double-count.
        let tri =
            Polygon::from_coords(&[(0.0, 0.0), (4.0, 2.0), (0.0, 4.0)]).unwrap();
        assert_eq!(polygon_side(&tri, Point::new(1.0, 2.0)), Side::In);
        assert_eq!(polygon_side(&tri, Point::new(-1.0, 2.0)), Side::Out);
        assert_eq!(polygon_side(&tri, Point::new(5.0, 2.0)), Side::Out);
    }

    #[test]
    fn holes_subtract_but_their_boundary_is_inside() {
        let outer = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ])
        .unwrap();
        let hole = Ring::new(vec![
            Point::new(3.0, 3.0),
            Point::new(7.0, 3.0),
            Point::new(7.0, 7.0),
            Point::new(3.0, 7.0),
        ])
        .unwrap();
        let poly = Polygon::with_holes(outer, vec![hole]).unwrap();
        assert_eq!(polygon_side(&poly, Point::new(5.0, 5.0)), Side::Out);
        assert_eq!(polygon_side(&poly, Point::new(1.0, 1.0)), Side::In);
        assert_eq!(polygon_side(&poly, Point::new(3.0, 5.0)), Side::Boundary);
        // Agreement with the geometry crate's own closed semantics.
        assert!(poly.contains(Point::new(1.0, 1.0)));
        assert!(!poly.contains(Point::new(5.0, 5.0)));
        assert!(poly.contains(Point::new(3.0, 5.0)));
    }

    /// The oracle and the geometry crate's `contains` are independent
    /// implementations of the same convention — they must agree everywhere,
    /// including on overlapping star regions.
    #[test]
    fn agrees_with_geometry_contains_on_random_corpus() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let pts = uniform_points(&extent, 2_000, 5, 10.0);
        for regions in [voronoi_neighborhoods(&extent, 18, 3, 2), star_regions(&extent, 6, 8, 4)]
        {
            for (_, _, geom) in regions.iter() {
                for i in 0..pts.len() {
                    let p = pts.loc(i);
                    assert_eq!(
                        contains(geom, p),
                        geom.contains(p),
                        "oracle and geometry disagree at {p:?}"
                    );
                }
            }
        }
    }

    /// Cross-check the full aggregation against `spatial-index`'s
    /// nested-loop join (a third, independent containment path).
    #[test]
    fn oracle_join_matches_naive_join() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let pts = uniform_points(&extent, 3_000, 17, 50.0);
        let regions = voronoi_neighborhoods(&extent, 20, 7, 2);
        for agg in [
            AggKind::Count,
            AggKind::Sum("v".into()),
            AggKind::Avg("v".into()),
            AggKind::Min("v".into()),
            AggKind::Max("v".into()),
        ] {
            let q = SpatialAggQuery::new(agg);
            let ours = oracle_join(&pts, &regions, &q).unwrap();
            let naive = spatial_index::naive_join(&pts, &regions, &q).unwrap();
            assert_eq!(ours, naive);
        }
    }
}
