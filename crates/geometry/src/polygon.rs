//! Polygons with holes.
//!
//! A [`Ring`] is a closed simple polyline (the closing edge is implicit; the
//! vertex list does *not* repeat the first vertex). A [`Polygon`] is one
//! exterior ring plus zero or more interior rings (holes). Point-in-polygon
//! uses even–odd ray casting by default, with a winding-number variant kept
//! for cross-checking (the two must agree on simple polygons — a property
//! test in this module enforces that).

use crate::bbox::BoundingBox;
use crate::point::Point;
use crate::predicates::point_on_segment;
use crate::segment::Segment;
use crate::{GeomError, Result};

/// A closed ring of vertices (first vertex not repeated at the end).
#[derive(Debug, Clone, PartialEq)]
pub struct Ring {
    vertices: Vec<Point>,
}

impl Ring {
    /// Build a ring from vertices.
    ///
    /// A trailing duplicate of the first vertex (as GeoJSON closes rings) is
    /// dropped. Consecutive duplicate vertices are collapsed. Fails when
    /// fewer than 3 distinct vertices remain.
    pub fn new(mut vertices: Vec<Point>) -> Result<Self> {
        if vertices.len() >= 2 && vertices.first() == vertices.last() {
            vertices.pop();
        }
        vertices.dedup_by(|a, b| a.approx_eq(*b, 0.0));
        if vertices.len() < 3 {
            return Err(GeomError::DegenerateRing { vertices: vertices.len() });
        }
        Ok(Ring { vertices })
    }

    /// The vertices (closing edge implicit).
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Rings are never empty by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterate over the ring's edges, including the closing edge.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Signed area (shoelace): positive for counter-clockwise orientation.
    pub fn signed_area(&self) -> f64 {
        let n = self.vertices.len();
        let mut acc = 0.0;
        for i in 0..n {
            acc += self.vertices[i].cross(self.vertices[(i + 1) % n]);
        }
        acc * 0.5
    }

    /// Absolute area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// True when vertices run counter-clockwise.
    #[inline]
    pub fn is_ccw(&self) -> bool {
        self.signed_area() > 0.0
    }

    /// Reverse the vertex order in place (flips orientation).
    pub fn reverse(&mut self) {
        self.vertices.reverse();
    }

    /// Perimeter length.
    pub fn perimeter(&self) -> f64 {
        self.edges().map(|e| e.length()).sum()
    }

    /// Area-weighted centroid of the ring's enclosed region.
    pub fn centroid(&self) -> Point {
        let n = self.vertices.len();
        let mut cx = 0.0;
        let mut cy = 0.0;
        let mut a2 = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let w = p.cross(q);
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
            a2 += w;
        }
        if a2.abs() <= f64::EPSILON {
            // Degenerate (zero-area) ring: fall back to the vertex mean.
            let sum = self.vertices.iter().fold(Point::ORIGIN, |s, &p| s + p);
            return sum / n as f64;
        }
        Point::new(cx / (3.0 * a2), cy / (3.0 * a2))
    }

    /// Tight bounding box.
    pub fn bbox(&self) -> BoundingBox {
        BoundingBox::of_points(self.vertices.iter().copied())
    }

    /// Even–odd (ray-casting) point-in-ring test. Points exactly on the
    /// boundary are reported as inside. Both tests are pure, so the cheap
    /// ray cast goes first and only a point it leaves outside pays the
    /// boundary test.
    pub fn contains(&self, p: Point) -> bool {
        self.contains_interior_even_odd(p) || self.on_boundary(p)
    }

    /// Even–odd test ignoring the boundary special case (used by
    /// [`Self::contains`] and by the winding cross-check).
    fn contains_interior_even_odd(&self, p: Point) -> bool {
        // Cast a ray in +x; count crossings using the half-open edge rule
        // [min(y), max(y)) so vertices are counted exactly once.
        let mut inside = false;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let vi = self.vertices[i];
            let vj = self.vertices[j];
            if (vi.y > p.y) != (vj.y > p.y) {
                let x_cross = vj.x + (p.y - vj.y) / (vi.y - vj.y) * (vi.x - vj.x);
                if p.x < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Winding-number point-in-ring test (nonzero rule). On simple rings it
    /// agrees with the even–odd rule; kept as an independent implementation
    /// for property-based cross-checking.
    pub fn contains_winding(&self, p: Point) -> bool {
        if self.on_boundary(p) {
            return true;
        }
        let mut winding = 0i32;
        let n = self.vertices.len();
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            if a.y <= p.y {
                if b.y > p.y && (b - a).cross(p - a) > 0.0 {
                    winding += 1;
                }
            } else if b.y <= p.y && (b - a).cross(p - a) < 0.0 {
                winding -= 1;
            }
        }
        winding != 0
    }

    /// True when `p` lies on any edge of the ring.
    pub fn on_boundary(&self, p: Point) -> bool {
        self.edges().any(|e| point_on_segment(p, e.a, e.b))
    }

    /// Simplicity check: no two non-adjacent edges intersect. `O(n²)` —
    /// intended for validation, not hot paths.
    pub fn is_simple(&self) -> bool {
        let edges: Vec<Segment> = self.edges().collect();
        let n = edges.len();
        for i in 0..n {
            for j in (i + 1)..n {
                let adjacent = j == i + 1 || (i == 0 && j == n - 1);
                if adjacent {
                    continue;
                }
                if edges[i].intersects(&edges[j]) {
                    return false;
                }
            }
        }
        true
    }
}

/// A polygon: one exterior ring plus zero or more holes.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    exterior: Ring,
    holes: Vec<Ring>,
    bbox: BoundingBox,
}

impl Polygon {
    /// Polygon without holes.
    pub fn new(exterior: Ring) -> Self {
        let bbox = exterior.bbox();
        Polygon { exterior, holes: Vec::new(), bbox }
    }

    /// Polygon with holes. Orientation is normalized: exterior CCW, holes CW.
    /// Each hole's bounding box must lie inside the exterior's.
    pub fn with_holes(mut exterior: Ring, mut holes: Vec<Ring>) -> Result<Self> {
        if !exterior.is_ccw() {
            exterior.reverse();
        }
        let ext_bbox = exterior.bbox();
        for h in &mut holes {
            if h.is_ccw() {
                h.reverse();
            }
            if !ext_bbox.contains_box(&h.bbox()) {
                return Err(GeomError::InvalidPolygon(
                    "hole bounding box extends outside the exterior ring".into(),
                ));
            }
        }
        Ok(Polygon { exterior, holes, bbox: ext_bbox })
    }

    /// Convenience: polygon from raw exterior coordinates.
    pub fn from_coords(coords: &[(f64, f64)]) -> Result<Self> {
        let ring = Ring::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect())?;
        Ok(Polygon::new(ring))
    }

    /// Axis-aligned rectangle polygon.
    pub fn rect(b: &BoundingBox) -> Self {
        Polygon::new(
            // lint: allow(panic-freedom) documented expect: four box corners always form a valid ring
            Ring::new(b.corners().to_vec()).expect("a non-empty box yields a valid ring"),
        )
    }

    /// Regular n-gon centered at `c`.
    pub fn regular(c: Point, radius: f64, n: usize) -> Result<Self> {
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * std::f64::consts::TAU;
                c + Point::new(t.cos(), t.sin()) * radius
            })
            .collect();
        Ok(Polygon::new(Ring::new(pts)?))
    }

    /// The exterior ring.
    #[inline]
    pub fn exterior(&self) -> &Ring {
        &self.exterior
    }

    /// The holes.
    #[inline]
    pub fn holes(&self) -> &[Ring] {
        &self.holes
    }

    /// All rings: exterior first, then holes.
    pub fn rings(&self) -> impl Iterator<Item = &Ring> {
        std::iter::once(&self.exterior).chain(self.holes.iter())
    }

    /// Cached tight bounding box of the exterior ring.
    #[inline]
    pub fn bbox(&self) -> BoundingBox {
        self.bbox
    }

    /// Area of the exterior minus the holes.
    pub fn area(&self) -> f64 {
        self.exterior.area() - self.holes.iter().map(|h| h.area()).sum::<f64>()
    }

    /// Total boundary length (exterior + holes).
    pub fn perimeter(&self) -> f64 {
        self.rings().map(|r| r.perimeter()).sum()
    }

    /// Centroid of the polygon's region, holes subtracted (area-weighted).
    pub fn centroid(&self) -> Point {
        let mut acc = Point::ORIGIN;
        let mut area = 0.0;
        for (i, r) in self.rings().enumerate() {
            let a = r.area() * if i == 0 { 1.0 } else { -1.0 };
            acc = acc + r.centroid() * a;
            area += a;
        }
        if area.abs() <= f64::EPSILON {
            self.exterior.centroid()
        } else {
            acc / area
        }
    }

    /// Total vertex count across all rings.
    pub fn vertex_count(&self) -> usize {
        self.rings().map(|r| r.len()).sum()
    }

    /// Point-in-polygon: inside the exterior and not strictly inside a hole.
    /// Boundary points (of the exterior *or* of a hole) count as inside.
    pub fn contains(&self, p: Point) -> bool {
        if !self.bbox.contains(p) {
            return false;
        }
        if !self.exterior.contains(p) {
            return false;
        }
        for h in &self.holes {
            if h.on_boundary(p) {
                return true;
            }
            if h.contains(p) {
                return false;
            }
        }
        true
    }

    /// All edges of all rings.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        self.rings().flat_map(|r| r.edges())
    }

    /// Validity: all rings simple, holes don't cross the exterior.
    pub fn is_valid(&self) -> bool {
        if !self.rings().all(|r| r.is_simple()) {
            return false;
        }
        // No hole edge may cross an exterior edge.
        for h in &self.holes {
            for he in h.edges() {
                for ee in self.exterior.edges() {
                    if he.intersects(&ee) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Polygon {
        Polygon::from_coords(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]).unwrap()
    }

    fn donut() -> Polygon {
        let outer =
            Ring::new(vec![
                Point::new(0.0, 0.0),
                Point::new(4.0, 0.0),
                Point::new(4.0, 4.0),
                Point::new(0.0, 4.0),
            ])
            .unwrap();
        let hole = Ring::new(vec![
            Point::new(1.0, 1.0),
            Point::new(3.0, 1.0),
            Point::new(3.0, 3.0),
            Point::new(1.0, 3.0),
        ])
        .unwrap();
        Polygon::with_holes(outer, vec![hole]).unwrap()
    }

    #[test]
    fn ring_drops_closing_vertex_and_dups() {
        let r = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 0.0),
        ])
        .unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn degenerate_ring_rejected() {
        assert!(matches!(
            Ring::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]),
            Err(GeomError::DegenerateRing { vertices: 2 })
        ));
    }

    #[test]
    fn area_perimeter_centroid_of_square() {
        let s = square();
        assert_eq!(s.area(), 16.0);
        assert_eq!(s.perimeter(), 16.0);
        assert!(s.centroid().approx_eq(Point::new(2.0, 2.0), 1e-12));
    }

    #[test]
    fn orientation_detection_and_normalization() {
        let cw = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 0.0),
        ])
        .unwrap();
        assert!(!cw.is_ccw());
        let poly = Polygon::with_holes(cw, vec![]).unwrap();
        assert!(poly.exterior().is_ccw());
    }

    #[test]
    fn donut_area_and_containment() {
        let d = donut();
        assert_eq!(d.area(), 16.0 - 4.0);
        assert!(d.contains(Point::new(0.5, 0.5))); // in the rim
        assert!(!d.contains(Point::new(2.0, 2.0))); // in the hole
        assert!(d.contains(Point::new(1.0, 2.0))); // on the hole's boundary
        assert!(d.contains(Point::new(0.0, 0.0))); // on the exterior boundary
        assert!(!d.contains(Point::new(5.0, 5.0)));
    }

    /// `contains` runs the ray cast before the boundary test; it must answer
    /// as the boundary-first order did on random points, vertices, edge
    /// midpoints, a hole's edges and NaN coordinates.
    #[test]
    fn contains_order_does_not_change_the_answer() {
        let l = Ring::new(
            [(0.0, 0.0), (3.0, 0.0), (3.0, 1.0), (1.0, 1.0), (1.0, 3.0), (0.0, 3.0)]
                .map(|(x, y)| Point::new(x, y))
                .to_vec(),
        )
        .unwrap();
        let skew = Ring::new(
            [(0.1, 0.3), (7.7, 1.9), (2.3, 6.1)].map(|(x, y)| Point::new(x, y)).to_vec(),
        )
        .unwrap();
        let d = donut();
        let rings = [d.exterior().clone(), d.holes()[0].clone(), l, skew];
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut unit = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let nan = f64::NAN;
        let mut points: Vec<Point> = (0..2_000)
            .map(|_| Point::new(unit() * 10.0 - 1.0, unit() * 10.0 - 1.0))
            .collect();
        for r in &rings {
            for e in r.edges() {
                points.extend([e.a, (e.a + e.b) / 2.0, Point::new(e.a.x, nan), Point::new(nan, e.a.y)]);
            }
        }
        points.push(Point::new(nan, nan));
        let mut inside = [0, 0];
        for r in &rings {
            for &p in &points {
                let boundary_first = r.on_boundary(p) || r.contains_interior_even_odd(p);
                assert_eq!(r.contains(p), boundary_first, "{p:?}");
                inside[usize::from(r.on_boundary(p))] += usize::from(boundary_first);
            }
        }
        assert!(inside[0] > 0 && inside[1] > 0, "{inside:?}");
    }

    #[test]
    fn donut_centroid_is_symmetric_center() {
        assert!(donut().centroid().approx_eq(Point::new(2.0, 2.0), 1e-12));
    }

    #[test]
    fn hole_outside_exterior_rejected() {
        let outer = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ])
        .unwrap();
        let far_hole = Ring::new(vec![
            Point::new(5.0, 5.0),
            Point::new(6.0, 5.0),
            Point::new(6.0, 6.0),
        ])
        .unwrap();
        assert!(Polygon::with_holes(outer, vec![far_hole]).is_err());
    }

    #[test]
    fn even_odd_agrees_with_winding_on_concave() {
        // A concave "L" shape.
        let l = Polygon::from_coords(&[
            (0.0, 0.0),
            (3.0, 0.0),
            (3.0, 1.0),
            (1.0, 1.0),
            (1.0, 3.0),
            (0.0, 3.0),
        ])
        .unwrap();
        for &(x, y) in &[
            (0.5, 0.5),
            (2.0, 0.5),
            (2.0, 2.0),
            (0.5, 2.0),
            (-1.0, -1.0),
            (1.5, 1.5),
        ] {
            let p = Point::new(x, y);
            assert_eq!(
                l.exterior().contains(p),
                l.exterior().contains_winding(p),
                "disagreement at {p}"
            );
        }
    }

    #[test]
    fn simplicity() {
        assert!(square().exterior().is_simple());
        // Bow-tie: self-intersecting.
        let bow = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ])
        .unwrap();
        assert!(!bow.is_simple());
    }

    #[test]
    fn validity() {
        assert!(square().is_valid());
        assert!(donut().is_valid());
    }

    #[test]
    fn regular_polygon_approaches_circle() {
        let p = Polygon::regular(Point::new(1.0, 1.0), 2.0, 256).unwrap();
        let circle_area = std::f64::consts::PI * 4.0;
        assert!((p.area() - circle_area).abs() / circle_area < 1e-3);
        assert!(p.centroid().approx_eq(Point::new(1.0, 1.0), 1e-9));
    }

    #[test]
    fn rect_matches_bbox() {
        let b = BoundingBox::from_coords(1.0, 2.0, 3.0, 5.0);
        let r = Polygon::rect(&b);
        assert_eq!(r.bbox(), b);
        assert_eq!(r.area(), b.area());
    }

    #[test]
    fn vertex_count_spans_rings() {
        assert_eq!(donut().vertex_count(), 8);
    }

    #[test]
    fn ray_cast_vertex_grazing() {
        // Ray passing exactly through a vertex must not double-count.
        let tri =
            Polygon::from_coords(&[(0.0, 0.0), (4.0, 0.0), (2.0, 2.0)]).unwrap();
        // y = 0 passes through two vertices; points left/right of the base:
        assert!(tri.contains(Point::new(2.0, 0.0)));
        assert!(!tri.contains(Point::new(5.0, 0.0)));
        assert!(!tri.contains(Point::new(-1.0, 0.0)));
        // Through the apex.
        assert!(!tri.contains(Point::new(0.0, 2.0)));
        assert!(!tri.contains(Point::new(4.0, 2.0)));
    }
}
