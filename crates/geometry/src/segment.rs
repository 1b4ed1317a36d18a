//! Line segments: intersection tests/points, distance, clipping against
//! boxes. Used by polygon validity checks and the scanline rasterizer's
//! exact boundary classification.

use crate::bbox::BoundingBox;
use crate::point::Point;
use crate::predicates::{orientation, point_on_segment, Orientation};

/// A closed line segment between two endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub a: Point,
    pub b: Point,
}

/// How two segments intersect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SegmentIntersection {
    /// No common point.
    None,
    /// Exactly one common point (proper crossing or endpoint touch).
    Point(Point),
    /// The segments overlap along a sub-segment of positive length.
    Overlap(Segment),
}

impl Segment {
    /// Create a segment.
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Segment length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Midpoint.
    #[inline]
    pub fn midpoint(&self) -> Point {
        self.a.lerp(self.b, 0.5)
    }

    /// Tight bounding box.
    pub fn bbox(&self) -> BoundingBox {
        BoundingBox::new(self.a, self.b)
    }

    /// True when `p` lies on the closed segment.
    pub fn contains(&self, p: Point) -> bool {
        point_on_segment(p, self.a, self.b)
    }

    /// Does this segment intersect `other` at all (including touches and
    /// collinear overlap)? Cheaper than [`Self::intersection`] when the
    /// intersection point is not needed.
    pub fn intersects(&self, other: &Segment) -> bool {
        let o1 = orientation(self.a, self.b, other.a);
        let o2 = orientation(self.a, self.b, other.b);
        let o3 = orientation(other.a, other.b, self.a);
        let o4 = orientation(other.a, other.b, self.b);

        if o1 != o2 && o3 != o4 && o1 != Orientation::Collinear && o3 != Orientation::Collinear {
            return true;
        }
        // Collinear / touching special cases.
        (o1 == Orientation::Collinear && self.contains(other.a))
            || (o2 == Orientation::Collinear && self.contains(other.b))
            || (o3 == Orientation::Collinear && other.contains(self.a))
            || (o4 == Orientation::Collinear && other.contains(self.b))
    }

    /// Full intersection classification.
    pub fn intersection(&self, other: &Segment) -> SegmentIntersection {
        let d1 = self.b - self.a;
        let d2 = other.b - other.a;
        let denom = d1.cross(d2);
        let diff = other.a - self.a;

        if denom.abs() > f64::EPSILON * d1.norm().max(1.0) * d2.norm().max(1.0) {
            // General position: solve for the parameters.
            let t = diff.cross(d2) / denom;
            let u = diff.cross(d1) / denom;
            let eps = 1e-12;
            if (-eps..=1.0 + eps).contains(&t) && (-eps..=1.0 + eps).contains(&u) {
                return SegmentIntersection::Point(self.a + d1 * t.clamp(0.0, 1.0));
            }
            return SegmentIntersection::None;
        }

        // Parallel. Collinear overlap?
        if orientation(self.a, self.b, other.a) != Orientation::Collinear {
            return SegmentIntersection::None;
        }
        // Project everything on the direction of self.
        let dir = d1;
        let len_sq = dir.norm_sq();
        if len_sq <= f64::EPSILON {
            // self degenerate: point-vs-segment.
            return if other.contains(self.a) {
                SegmentIntersection::Point(self.a)
            } else {
                SegmentIntersection::None
            };
        }
        let t0 = 0.0f64;
        let t1 = 1.0f64;
        let s0 = (other.a - self.a).dot(dir) / len_sq;
        let s1 = (other.b - self.a).dot(dir) / len_sq;
        let (lo, hi) = (s0.min(s1), s0.max(s1));
        let (ol, oh) = (t0.max(lo), t1.min(hi));
        if ol > oh + 1e-12 {
            SegmentIntersection::None
        } else if (oh - ol).abs() <= 1e-12 {
            SegmentIntersection::Point(self.a + dir * ol)
        } else {
            SegmentIntersection::Overlap(Segment::new(self.a + dir * ol, self.a + dir * oh))
        }
    }

    /// Minimum distance from `p` to the closed segment.
    pub fn distance_to_point(&self, p: Point) -> f64 {
        let d = self.b - self.a;
        let len_sq = d.norm_sq();
        if len_sq <= f64::EPSILON {
            return self.a.distance(p);
        }
        let t = ((p - self.a).dot(d) / len_sq).clamp(0.0, 1.0);
        (self.a + d * t).distance(p)
    }

    /// Clip the segment to a box (Liang–Barsky). Returns `None` when the
    /// segment lies entirely outside.
    pub fn clip_to_box(&self, b: &BoundingBox) -> Option<Segment> {
        if b.is_empty() {
            return None;
        }
        let d = self.b - self.a;
        let mut t0 = 0.0f64;
        let mut t1 = 1.0f64;
        // (p, q) pairs for the four half-planes.
        let checks = [
            (-d.x, self.a.x - b.min.x),
            (d.x, b.max.x - self.a.x),
            (-d.y, self.a.y - b.min.y),
            (d.y, b.max.y - self.a.y),
        ];
        for (p, q) in checks {
            if p.abs() <= f64::EPSILON {
                if q < 0.0 {
                    return None; // parallel and outside
                }
            } else {
                let r = q / p;
                if p < 0.0 {
                    if r > t1 {
                        return None;
                    }
                    t0 = t0.max(r);
                } else {
                    if r < t0 {
                        return None;
                    }
                    t1 = t1.min(r);
                }
            }
        }
        if t0 > t1 {
            return None;
        }
        Some(Segment::new(self.a + d * t0, self.a + d * t1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn proper_crossing() {
        let s1 = seg(0.0, 0.0, 2.0, 2.0);
        let s2 = seg(0.0, 2.0, 2.0, 0.0);
        assert!(s1.intersects(&s2));
        match s1.intersection(&s2) {
            SegmentIntersection::Point(p) => assert!(p.approx_eq(Point::new(1.0, 1.0), 1e-12)),
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn endpoint_touch() {
        let s1 = seg(0.0, 0.0, 1.0, 0.0);
        let s2 = seg(1.0, 0.0, 2.0, 1.0);
        assert!(s1.intersects(&s2));
        match s1.intersection(&s2) {
            SegmentIntersection::Point(p) => assert!(p.approx_eq(Point::new(1.0, 0.0), 1e-9)),
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn disjoint_parallel() {
        let s1 = seg(0.0, 0.0, 1.0, 0.0);
        let s2 = seg(0.0, 1.0, 1.0, 1.0);
        assert!(!s1.intersects(&s2));
        assert_eq!(s1.intersection(&s2), SegmentIntersection::None);
    }

    #[test]
    fn collinear_overlap() {
        let s1 = seg(0.0, 0.0, 2.0, 0.0);
        let s2 = seg(1.0, 0.0, 3.0, 0.0);
        assert!(s1.intersects(&s2));
        match s1.intersection(&s2) {
            SegmentIntersection::Overlap(o) => {
                assert!(o.a.approx_eq(Point::new(1.0, 0.0), 1e-12));
                assert!(o.b.approx_eq(Point::new(2.0, 0.0), 1e-12));
            }
            other => panic!("expected overlap, got {other:?}"),
        }
    }

    #[test]
    fn collinear_touch_is_point() {
        let s1 = seg(0.0, 0.0, 1.0, 0.0);
        let s2 = seg(1.0, 0.0, 2.0, 0.0);
        match s1.intersection(&s2) {
            SegmentIntersection::Point(p) => assert!(p.approx_eq(Point::new(1.0, 0.0), 1e-12)),
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn collinear_disjoint() {
        let s1 = seg(0.0, 0.0, 1.0, 0.0);
        let s2 = seg(2.0, 0.0, 3.0, 0.0);
        assert!(!s1.intersects(&s2));
        assert_eq!(s1.intersection(&s2), SegmentIntersection::None);
    }

    #[test]
    fn near_miss_no_intersection() {
        let s1 = seg(0.0, 0.0, 1.0, 1.0);
        let s2 = seg(1.1, 0.0, 2.0, -1.0);
        assert!(!s1.intersects(&s2));
    }

    #[test]
    fn distance_to_point() {
        let s = seg(0.0, 0.0, 2.0, 0.0);
        assert_eq!(s.distance_to_point(Point::new(1.0, 1.0)), 1.0);
        assert_eq!(s.distance_to_point(Point::new(-1.0, 0.0)), 1.0); // clamped to endpoint
        assert_eq!(s.distance_to_point(Point::new(1.0, 0.0)), 0.0);
    }

    #[test]
    fn clip_inside_outside_crossing() {
        let b = BoundingBox::from_coords(0.0, 0.0, 1.0, 1.0);
        // Fully inside.
        let s = seg(0.2, 0.2, 0.8, 0.8);
        assert_eq!(s.clip_to_box(&b), Some(s));
        // Fully outside.
        assert_eq!(seg(2.0, 2.0, 3.0, 3.0).clip_to_box(&b), None);
        // Crossing: clipped to the unit square's diagonal.
        let c = seg(-1.0, -1.0, 2.0, 2.0).clip_to_box(&b).unwrap();
        assert!(c.a.approx_eq(Point::new(0.0, 0.0), 1e-12));
        assert!(c.b.approx_eq(Point::new(1.0, 1.0), 1e-12));
    }

    #[test]
    fn clip_parallel_outside() {
        let b = BoundingBox::from_coords(0.0, 0.0, 1.0, 1.0);
        assert_eq!(seg(-1.0, 2.0, 2.0, 2.0).clip_to_box(&b), None);
    }

    #[test]
    fn length_and_midpoint() {
        let s = seg(0.0, 0.0, 3.0, 4.0);
        assert_eq!(s.length(), 5.0);
        assert_eq!(s.midpoint(), Point::new(1.5, 2.0));
    }
}
