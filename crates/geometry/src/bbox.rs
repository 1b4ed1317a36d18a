//! Axis-aligned bounding boxes — the workhorse of every index and the raster
//! viewport computation.

use crate::point::Point;

/// A closed axis-aligned rectangle `[min.x, max.x] × [min.y, max.y]`.
///
/// An *empty* box is represented by `min > max` (the result of
/// [`BoundingBox::empty`]); every query on an empty box behaves as expected
/// (contains nothing, intersects nothing, union is identity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    pub min: Point,
    pub max: Point,
}

impl BoundingBox {
    /// Box spanning the two corner points (in any order).
    pub fn new(a: Point, b: Point) -> Self {
        BoundingBox { min: a.min(b), max: a.max(b) }
    }

    /// From explicit coordinates; corners may be given in any order.
    pub fn from_coords(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Self::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    /// The empty box: identity for [`union`](Self::union), absorbing for
    /// [`intersection`](Self::intersection).
    pub fn empty() -> Self {
        BoundingBox {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Tight box around a point set; empty box for an empty iterator.
    pub fn of_points<I: IntoIterator<Item = Point>>(pts: I) -> Self {
        let mut b = Self::empty();
        // lint: allow(cancel-poll-reachability) a query reaches it only through `Ring::bbox`, one ring's vertices; a table's rows are bounded when it is built, outside any query
        for p in pts {
            b.expand(p);
        }
        b
    }

    /// True when the box contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Width (`0` when empty).
    #[inline]
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Height (`0` when empty).
    #[inline]
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// Area (`0` when empty or degenerate).
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point; meaningless for empty boxes.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.min.x + self.max.x) * 0.5, (self.min.y + self.max.y) * 0.5)
    }

    /// Closed containment test (boundary counts as inside).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// True when `other` lies entirely inside `self` (closed semantics).
    #[inline]
    pub fn contains_box(&self, other: &BoundingBox) -> bool {
        if other.is_empty() {
            return true;
        }
        !self.is_empty()
            && self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && self.max.x >= other.max.x
            && self.max.y >= other.max.y
    }

    /// Closed intersection test (touching edges count).
    #[inline]
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Grow in place to include `p`.
    #[inline]
    pub fn expand(&mut self, p: Point) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Smallest box containing both.
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        BoundingBox { min: self.min.min(other.min), max: self.max.max(other.max) }
    }

    /// Overlap region, or the empty box when disjoint.
    pub fn intersection(&self, other: &BoundingBox) -> BoundingBox {
        let b = BoundingBox { min: self.min.max(other.min), max: self.max.min(other.max) };
        if b.is_empty() {
            BoundingBox::empty()
        } else {
            b
        }
    }

    /// Box inflated by `margin` on every side (negative shrinks; may empty).
    pub fn inflate(&self, margin: f64) -> BoundingBox {
        if self.is_empty() {
            return *self;
        }
        let m = Point::new(margin, margin);
        let b = BoundingBox { min: self.min - m, max: self.max + m };
        if b.is_empty() {
            BoundingBox::empty()
        } else {
            b
        }
    }

    /// Minimum distance from `p` to the box (0 when inside).
    pub fn distance_to_point(&self, p: Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// The four corners, counter-clockwise from `min`.
    pub fn corners(&self) -> [Point; 4] {
        [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ]
    }
}

impl Default for BoundingBox {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> BoundingBox {
        BoundingBox::from_coords(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn corner_order_is_normalized() {
        let b = BoundingBox::from_coords(5.0, 7.0, 1.0, 2.0);
        assert_eq!(b.min, Point::new(1.0, 2.0));
        assert_eq!(b.max, Point::new(5.0, 7.0));
    }

    #[test]
    fn empty_behaves_as_identity() {
        let e = BoundingBox::empty();
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        assert!(!e.contains(Point::ORIGIN));
        assert!(!e.intersects(&unit()));
        assert_eq!(e.union(&unit()), unit());
        assert!(e.intersection(&unit()).is_empty());
    }

    #[test]
    fn of_points_is_tight() {
        let b = BoundingBox::of_points([
            Point::new(1.0, 4.0),
            Point::new(-2.0, 0.5),
            Point::new(3.0, 2.0),
        ]);
        assert_eq!(b.min, Point::new(-2.0, 0.5));
        assert_eq!(b.max, Point::new(3.0, 4.0));
        assert!(BoundingBox::of_points(std::iter::empty()).is_empty());
    }

    #[test]
    fn containment_is_closed() {
        let b = unit();
        assert!(b.contains(Point::new(0.0, 0.0)));
        assert!(b.contains(Point::new(1.0, 1.0)));
        assert!(b.contains(Point::new(0.5, 0.5)));
        assert!(!b.contains(Point::new(1.0 + 1e-12, 0.5)));
    }

    #[test]
    fn box_containment() {
        let b = unit();
        assert!(b.contains_box(&BoundingBox::from_coords(0.2, 0.2, 0.8, 0.8)));
        assert!(b.contains_box(&b));
        assert!(b.contains_box(&BoundingBox::empty()));
        assert!(!b.contains_box(&BoundingBox::from_coords(0.5, 0.5, 1.5, 0.9)));
    }

    #[test]
    fn intersection_touching_edges() {
        let b = unit();
        let right = BoundingBox::from_coords(1.0, 0.0, 2.0, 1.0);
        assert!(b.intersects(&right));
        let i = b.intersection(&right);
        assert_eq!(i.width(), 0.0);
        assert!(!i.is_empty()); // degenerate line, not empty
        let far = BoundingBox::from_coords(2.0, 2.0, 3.0, 3.0);
        assert!(!b.intersects(&far));
        assert!(b.intersection(&far).is_empty());
    }

    #[test]
    fn union_and_intersection_algebra() {
        let a = BoundingBox::from_coords(0.0, 0.0, 2.0, 2.0);
        let b = BoundingBox::from_coords(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.union(&b), BoundingBox::from_coords(0.0, 0.0, 3.0, 3.0));
        assert_eq!(a.intersection(&b), BoundingBox::from_coords(1.0, 1.0, 2.0, 2.0));
    }

    #[test]
    fn inflate_both_ways() {
        let b = unit().inflate(1.0);
        assert_eq!(b, BoundingBox::from_coords(-1.0, -1.0, 2.0, 2.0));
        assert!(unit().inflate(-0.6).is_empty());
    }

    #[test]
    fn distance_to_point() {
        let b = unit();
        assert_eq!(b.distance_to_point(Point::new(0.5, 0.5)), 0.0);
        assert_eq!(b.distance_to_point(Point::new(2.0, 0.5)), 1.0);
        assert!((b.distance_to_point(Point::new(2.0, 2.0)) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn corners_ccw() {
        let c = unit().corners();
        // Shoelace over corners must be positive (CCW).
        let area2: f64 = (0..4).map(|i| c[i].cross(c[(i + 1) % 4])).sum();
        assert!(area2 > 0.0);
    }
}
