//! Web-Mercator projection and viewport transforms.
//!
//! Urbane's map view — like every slippy-map client — works in Web-Mercator
//! space; a [`Viewport`] maps that world onto a pixel canvas, and its pixel
//! size is Raster Join's error bound ε.

use crate::bbox::BoundingBox;
use crate::point::Point;

/// Earth radius used by spherical Web Mercator (EPSG:3857), meters.
pub const EARTH_RADIUS_M: f64 = 6_378_137.0;

/// Maximum latitude representable in Web Mercator.
pub const MAX_LATITUDE: f64 = 85.051_128_779_806_59;

/// Project geographic (longitude°, latitude°) to Web-Mercator meters.
pub fn lonlat_to_mercator(lon: f64, lat: f64) -> Point {
    let lat = lat.clamp(-MAX_LATITUDE, MAX_LATITUDE);
    let x = EARTH_RADIUS_M * lon.to_radians();
    let y = EARTH_RADIUS_M * ((std::f64::consts::FRAC_PI_4 + lat.to_radians() / 2.0).tan()).ln();
    Point::new(x, y)
}

/// An affine world→screen transform for a rectangular viewport.
///
/// World coordinates are any planar system (we use Mercator meters); screen
/// coordinates are pixels with `(0, 0)` at the *top-left* and y growing
/// downward — matching framebuffer conventions in `gpu-raster`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Viewport {
    /// Visible world rectangle.
    pub world: BoundingBox,
    /// Output width in pixels.
    pub width: u32,
    /// Output height in pixels.
    pub height: u32,
}

impl Viewport {
    /// Viewport showing `world` on a `width × height` canvas.
    ///
    /// # Panics
    /// Panics when the world box is empty or the canvas has zero pixels —
    /// both are programming errors, not data errors.
    pub fn new(world: BoundingBox, width: u32, height: u32) -> Self {
        assert!(!world.is_empty(), "viewport world box must be non-empty");
        assert!(width > 0 && height > 0, "viewport must have pixels");
        Viewport { world, width, height }
    }

    /// Like [`Self::new`] but expands the world box so its aspect ratio
    /// matches the canvas (no anisotropic stretching). The original box is
    /// centered in the result.
    pub fn fitted(world: BoundingBox, width: u32, height: u32) -> Self {
        assert!(!world.is_empty(), "viewport world box must be non-empty");
        assert!(width > 0 && height > 0, "viewport must have pixels");
        let canvas_aspect = width as f64 / height as f64;
        let (w, h) = (world.width().max(1e-12), world.height().max(1e-12));
        let world_aspect = w / h;
        let c = world.center();
        let (nw, nh) = if world_aspect > canvas_aspect {
            (w, w / canvas_aspect)
        } else {
            (h * canvas_aspect, h)
        };
        let half = Point::new(nw / 2.0, nh / 2.0);
        Viewport { world: BoundingBox::new(c - half, c + half), width, height }
    }

    /// World units (e.g. Mercator meters) covered by one pixel horizontally.
    #[inline]
    pub fn units_per_pixel_x(&self) -> f64 {
        self.world.width() / self.width as f64
    }

    /// World units covered by one pixel vertically.
    #[inline]
    pub fn units_per_pixel_y(&self) -> f64 {
        self.world.height() / self.height as f64
    }

    /// The worst-case distance from any location within a pixel to the
    /// pixel's sample point — half the pixel diagonal, in world units. This
    /// is exactly the paper's per-point error bound ε for bounded Raster
    /// Join at this resolution.
    pub fn pixel_error_bound(&self) -> f64 {
        let dx = self.units_per_pixel_x();
        let dy = self.units_per_pixel_y();
        0.5 * (dx * dx + dy * dy).sqrt()
    }

    /// World → continuous pixel coordinates (pixel centers at `+0.5`).
    #[inline]
    pub fn world_to_screen(&self, p: Point) -> Point {
        let sx = (p.x - self.world.min.x) / self.world.width() * self.width as f64;
        let sy = (self.world.max.y - p.y) / self.world.height() * self.height as f64;
        Point::new(sx, sy)
    }

    /// Discrete pixel cell containing the world point, or `None` if outside
    /// the viewport.
    ///
    /// Pixels are **half-open**, exactly like GPU rasterization: after the
    /// screen transform a point maps to cell `(floor(sx), floor(sy))`, valid
    /// only when `0 ≤ sx < width` and `0 ≤ sy < height`. In world terms this
    /// accepts `x ∈ [min.x, max.x)` and (because of the y flip)
    /// `y ∈ (min.y, max.y]`. This makes adjacent viewports (canvas tiles)
    /// partition points with no double-counting — callers that need the
    /// closed edges included should inflate their world box by a hair (the
    /// raster-join canvas builder does). A point with a NaN coordinate lies
    /// in no pixel.
    ///
    /// The range test runs on the continuous coordinate and the cast
    /// truncates: on `[0, width)` that is `floor`, and `0 ≤ floor(s) < width`
    /// holds exactly when `0 ≤ s < width`, so no `floor` call is needed.
    #[inline]
    pub fn world_to_pixel(&self, p: Point) -> Option<(u32, u32)> {
        let s = self.world_to_screen(p);
        let inside = |v: f64, n: u32| v >= 0.0 && v < n as f64;
        if !(inside(s.x, self.width) && inside(s.y, self.height)) {
            return None;
        }
        Some((s.x as u32, s.y as u32))
    }

    /// The world-space rectangle of pixel `(x, y)`.
    pub fn pixel_to_world_box(&self, x: u32, y: u32) -> BoundingBox {
        let ux = self.units_per_pixel_x();
        let uy = self.units_per_pixel_y();
        let min_x = self.world.min.x + x as f64 * ux;
        let max_y = self.world.max.y - y as f64 * uy;
        BoundingBox::from_coords(min_x, max_y - uy, min_x + ux, max_y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn viewport_corner_mapping() {
        let v = Viewport::new(BoundingBox::from_coords(0.0, 0.0, 10.0, 5.0), 100, 50);
        // World min maps to bottom-left of the screen.
        assert!(v.world_to_screen(Point::new(0.0, 0.0)).approx_eq(Point::new(0.0, 50.0), 1e-12));
        assert!(v.world_to_screen(Point::new(10.0, 5.0)).approx_eq(Point::new(100.0, 0.0), 1e-12));
        assert!(v.world_to_screen(Point::new(5.0, 2.5)).approx_eq(Point::new(50.0, 25.0), 1e-12));
    }

    #[test]
    fn pixel_assignment_edges() {
        let v = Viewport::new(BoundingBox::from_coords(0.0, 0.0, 4.0, 4.0), 4, 4);
        // Half-open semantics: x ∈ [0, 4), y ∈ (0, 4].
        assert_eq!(v.world_to_pixel(Point::new(0.0, 0.0)), None); // y on the open bottom edge
        assert_eq!(v.world_to_pixel(Point::new(0.0, 0.5)), Some((0, 3)));
        assert_eq!(v.world_to_pixel(Point::new(0.0, 4.0)), Some((0, 0))); // y max included
        assert_eq!(v.world_to_pixel(Point::new(4.0, 4.0)), None); // x on the open right edge
        assert_eq!(v.world_to_pixel(Point::new(2.5, 1.5)), Some((2, 2)));
        assert_eq!(v.world_to_pixel(Point::new(5.0, 2.0)), None);
        // Interior cell boundaries: x = 1.0 belongs to cell 1, y = 1.0 to the lower cell.
        assert_eq!(v.world_to_pixel(Point::new(1.0, 1.0)), Some((1, 3)));
    }

    #[test]
    fn non_finite_points_lie_in_no_pixel() {
        let v = Viewport::new(BoundingBox::from_coords(0.0, 0.0, 4.0, 4.0), 4, 4);
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        for p in [(nan, 2.0), (2.0, nan), (nan, nan), (inf, 2.0), (-inf, 2.0), (2.0, inf), (2.0, -inf)] {
            assert_eq!(v.world_to_pixel(Point::new(p.0, p.1)), None, "{p:?}");
        }
        // -0.0 is on the closed left edge; a negative x is outside it.
        assert_eq!(v.world_to_pixel(Point::new(-0.0, 4.0)), Some((0, 0)));
        assert_eq!(v.world_to_pixel(Point::new(-1e-300, 3.5)), None);
    }

    #[test]
    fn pixel_world_box_tiles_the_viewport() {
        let v = Viewport::new(BoundingBox::from_coords(0.0, 0.0, 8.0, 8.0), 4, 4);
        let b = v.pixel_to_world_box(0, 0); // top-left pixel = top-left world corner
        assert_eq!(b, BoundingBox::from_coords(0.0, 6.0, 2.0, 8.0));
        let b = v.pixel_to_world_box(3, 3);
        assert_eq!(b, BoundingBox::from_coords(6.0, 0.0, 8.0, 2.0));
    }

    #[test]
    fn error_bound_is_half_diagonal() {
        let v = Viewport::new(BoundingBox::from_coords(0.0, 0.0, 30.0, 40.0), 10, 10);
        // pixels are 3 × 4 world units → half diagonal = 2.5
        assert!((v.pixel_error_bound() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn fitted_preserves_aspect_and_center() {
        let world = BoundingBox::from_coords(0.0, 0.0, 10.0, 10.0);
        let v = Viewport::fitted(world, 200, 100); // canvas twice as wide
        assert!((v.world.width() / v.world.height() - 2.0).abs() < 1e-12);
        assert!(v.world.center().approx_eq(world.center(), 1e-12));
        assert!(v.world.contains_box(&world));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_world_panics() {
        Viewport::new(BoundingBox::empty(), 10, 10);
    }
}
