//! 2-D points/vectors with the handful of vector operations the rest of the
//! stack needs. Points double as vectors; no separate vector type is kept to
//! keep call sites terse (this mirrors common computational-geometry practice).

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A 2-D point (or vector) in whatever planar coordinate system the caller
/// uses — geographic degrees before projection, meters/pixels after.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    /// Create a point from coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Dot product `self · other`.
    #[inline]
    pub fn dot(self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the 3-D cross product — twice the signed area of the
    /// triangle `(origin, self, other)`. Positive when `other` is
    /// counter-clockwise from `self`.
    #[inline]
    pub fn cross(self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm (avoids the `sqrt` when only comparing).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point) -> f64 {
        (self - other).norm()
    }

    /// Unit vector in the direction of `self`; `None` for the zero vector.
    pub fn normalized(self) -> Option<Point> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(self / n)
        }
    }

    /// Perpendicular vector, rotated 90° counter-clockwise.
    #[inline]
    pub fn perp(self) -> Point {
        Point::new(-self.y, self.x)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// True when both coordinates are finite (no NaN / infinity).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Approximate equality within `eps` per coordinate.
    #[inline]
    pub fn approx_eq(self, other: Point, eps: f64) -> bool {
        (self.x - other.x).abs() <= eps && (self.y - other.y).abs() <= eps
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, s: f64) -> Point {
        Point::new(self.x * s, self.y * s)
    }
}

impl Mul<Point> for f64 {
    type Output = Point;
    #[inline]
    fn mul(self, p: Point) -> Point {
        p * self
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, s: f64) -> Point {
        Point::new(self.x / s, self.y / s)
    }
}

impl Neg for Point {
    type Output = Point;
    #[inline]
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    #[inline]
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-3.0, 4.5);
        assert_eq!(a + b - b, a);
        assert_eq!((a * 2.0) / 2.0, a);
        assert_eq!(-(-a), a);
        assert_eq!(2.0 * a, a * 2.0);
    }

    #[test]
    fn dot_and_cross() {
        let x = Point::new(1.0, 0.0);
        let y = Point::new(0.0, 1.0);
        assert_eq!(x.dot(y), 0.0);
        assert_eq!(x.cross(y), 1.0); // CCW positive
        assert_eq!(y.cross(x), -1.0);
        assert_eq!(x.dot(x), 1.0);
    }

    #[test]
    fn norms_and_distances() {
        let p = Point::new(3.0, 4.0);
        assert_eq!(p.norm(), 5.0);
        assert_eq!(p.norm_sq(), 25.0);
        assert_eq!(Point::ORIGIN.distance(p), 5.0);
    }

    #[test]
    fn normalized_zero_is_none() {
        assert!(Point::ORIGIN.normalized().is_none());
        let n = Point::new(0.0, 2.0).normalized().unwrap();
        assert!(n.approx_eq(Point::new(0.0, 1.0), 1e-12));
    }

    #[test]
    fn perp_is_ccw_rotation() {
        let p = Point::new(1.0, 0.0);
        assert_eq!(p.perp(), Point::new(0.0, 1.0));
        assert_eq!(p.perp().perp(), -p);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, -4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(5.0, -2.0));
    }

    #[test]
    fn min_max_componentwise() {
        let a = Point::new(1.0, 5.0);
        let b = Point::new(2.0, -1.0);
        assert_eq!(a.min(b), Point::new(1.0, -1.0));
        assert_eq!(a.max(b), Point::new(2.0, 5.0));
    }

    #[test]
    fn finiteness() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn tuple_conversions() {
        let p: Point = (1.5, 2.5).into();
        let t: (f64, f64) = p.into();
        assert_eq!(t, (1.5, 2.5));
    }
}
