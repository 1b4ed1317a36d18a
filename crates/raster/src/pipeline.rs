//! The rendering pipeline façade: a viewport plus stateful draw calls with
//! statistics, mirroring how Raster Join's OpenGL implementation structures
//! its passes (point pass, polygon pass, boundary pass).

use crate::blend::{Blendable, BlendOp};
use crate::buffer::Buffer2D;
use crate::line::traverse_segment;
use crate::point::draw_point_splat;
use crate::polygon_scan::rasterize_rings;
use crate::stats::RenderStats;
use crate::triangle::rasterize_triangle;
use urbane_geom::projection::Viewport;
use urbane_geom::triangulate::Triangle;
use urbane_geom::{Point, Polygon};

/// A viewport-bound rendering pipeline. Draw calls transform world-space
/// geometry through the viewport and rasterize into caller-provided buffers,
/// accumulating [`RenderStats`].
#[derive(Debug, Clone)]
pub struct Pipeline {
    viewport: Viewport,
    stats: RenderStats,
}

impl Pipeline {
    /// Pipeline rendering through `viewport`.
    pub fn new(viewport: Viewport) -> Self {
        Pipeline { viewport, stats: RenderStats::new() }
    }

    /// The bound viewport.
    #[inline]
    pub fn viewport(&self) -> &Viewport {
        &self.viewport
    }

    /// Accumulated statistics.
    #[inline]
    pub fn stats(&self) -> &RenderStats {
        &self.stats
    }

    /// Reset statistics (per-frame).
    pub fn reset_stats(&mut self) {
        self.stats = RenderStats::new();
    }

    /// Point pass: blend `value_fn(k)` for the `k`-th world point into
    /// `target`. This is the per-query hot path — one fragment per point —
    /// and the reference the raster join's fused point pass is tested
    /// against.
    pub fn draw_points<T, I, V>(
        &mut self,
        target: &mut Buffer2D<T>,
        points: I,
        mut value_fn: V,
        op: BlendOp,
    ) where
        T: Blendable,
        I: IntoIterator<Item = Point>,
        V: FnMut(usize) -> T,
    {
        self.stats.draw_calls += 1;
        for (k, p) in points.into_iter().enumerate() {
            self.stats.points_in += 1;
            let Some((x, y)) = self.viewport.world_to_pixel(p) else {
                self.stats.points_culled += 1;
                continue;
            };
            T::blend(target.get_mut(x, y), value_fn(k), op);
            self.stats.fragments += 1;
        }
    }

    /// Point pass with `size × size` splats (`glPointSize` analogue).
    pub fn draw_points_splat<T, I, V>(
        &mut self,
        target: &mut Buffer2D<T>,
        points: I,
        mut value_fn: V,
        size: u32,
        op: BlendOp,
    ) where
        T: Blendable,
        I: IntoIterator<Item = Point>,
        V: FnMut(usize) -> T,
    {
        self.stats.draw_calls += 1;
        for (i, p) in points.into_iter().enumerate() {
            self.stats.points_in += 1;
            let frags = draw_point_splat(target, &self.viewport, p, value_fn(i), size, op);
            if frags == 0 {
                self.stats.points_culled += 1;
            }
            self.stats.fragments += frags;
        }
    }

    /// Polygon pass via pre-triangulated geometry (the GPU path): rasterize
    /// each triangle, blending `value` per fragment.
    pub fn draw_triangles<T: Blendable>(
        &mut self,
        target: &mut Buffer2D<T>,
        triangles: &[Triangle],
        value: T,
        op: BlendOp,
    ) {
        self.stats.draw_calls += 1;
        let (w, h) = (target.width(), target.height());
        for t in triangles {
            self.stats.triangles_in += 1;
            let a = self.viewport.world_to_screen(t.a);
            let b = self.viewport.world_to_screen(t.b);
            let c = self.viewport.world_to_screen(t.c);
            self.stats.fragments += rasterize_triangle(a, b, c, w, h, |x, y| {
                T::blend(target.get_mut(x, y), value, op);
            });
        }
    }

    /// Polygon pass via direct scanline fill (the software fast path):
    /// even–odd fill of the polygon with holes, blending `value`.
    pub fn draw_polygon_scan<T: Blendable>(
        &mut self,
        target: &mut Buffer2D<T>,
        poly: &Polygon,
        value: T,
        op: BlendOp,
    ) {
        self.stats.draw_calls += 1;
        let (w, h) = (target.width(), target.height());
        let screen_rings: Vec<Vec<Point>> = poly
            .rings()
            .map(|r| r.vertices().iter().map(|&p| self.viewport.world_to_screen(p)).collect())
            .collect();
        let ring_refs: Vec<&[Point]> = screen_rings.iter().map(|v| v.as_slice()).collect();
        self.stats.fragments += rasterize_rings(&ring_refs, w, h, |x, y| {
            T::blend(target.get_mut(x, y), value, op);
        });
    }

    /// Boundary pass: mark every pixel any edge of `poly` passes through.
    /// Conservative — used by accurate Raster Join to pick fix-up pixels.
    pub fn draw_boundary_mask(&mut self, mask: &mut Buffer2D<u8>, poly: &Polygon) {
        self.stats.draw_calls += 1;
        let (w, h) = (mask.width(), mask.height());
        for e in poly.edges() {
            let a = self.viewport.world_to_screen(e.a);
            let b = self.viewport.world_to_screen(e.b);
            self.stats.boundary_cells += traverse_segment(a, b, w, h, |x, y| {
                mask.set(x, y, 1);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urbane_geom::triangulate::triangulate;
    use urbane_geom::BoundingBox;

    fn vp(n: u32) -> Viewport {
        Viewport::new(BoundingBox::from_coords(0.0, 0.0, n as f64, n as f64), n, n)
    }

    #[test]
    fn point_pass_counts_and_culls() {
        let mut pipe = Pipeline::new(vp(8));
        let mut buf = Buffer2D::new(8, 8, 0.0f32);
        let pts = vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0), Point::new(99.0, 0.0)];
        pipe.draw_points(&mut buf, pts, |_| 1.0, BlendOp::Add);
        assert_eq!(pipe.stats().points_in, 3);
        assert_eq!(pipe.stats().points_culled, 1);
        assert_eq!(pipe.stats().fragments, 2);
        assert_eq!(buf.sum(), 2.0);
    }

    #[test]
    fn triangle_pass_fills_square() {
        let mut pipe = Pipeline::new(vp(8));
        let mut buf = Buffer2D::new(8, 8, 0u32);
        let poly =
            Polygon::from_coords(&[(0.0, 0.0), (8.0, 0.0), (8.0, 8.0), (0.0, 8.0)]).unwrap();
        let tris = triangulate(&poly).unwrap();
        pipe.draw_triangles(&mut buf, &tris, 1, BlendOp::Add);
        assert_eq!(pipe.stats().triangles_in, 2);
        assert_eq!(pipe.stats().fragments, 64);
        // Every pixel exactly once — the top-left rule at work.
        assert_eq!(buf.count_eq(1), 64);
    }

    #[test]
    fn scan_pass_matches_triangle_pass() {
        let poly = Polygon::from_coords(&[
            (0.7, 1.3),
            (7.1, 0.9),
            (6.4, 6.8),
            (3.3, 4.2),
            (1.1, 7.2),
        ])
        .unwrap();
        let tris = triangulate(&poly).unwrap();

        let mut pipe1 = Pipeline::new(vp(8));
        let mut tri_buf = Buffer2D::new(8, 8, 0u32);
        pipe1.draw_triangles(&mut tri_buf, &tris, 1, BlendOp::Add);

        let mut pipe2 = Pipeline::new(vp(8));
        let mut scan_buf = Buffer2D::new(8, 8, 0u32);
        pipe2.draw_polygon_scan(&mut scan_buf, &poly, 1, BlendOp::Add);

        assert_eq!(tri_buf, scan_buf, "triangulated and scanline coverage must agree");
        assert_eq!(pipe1.stats().fragments, pipe2.stats().fragments);
    }

    #[test]
    fn boundary_mask_surrounds_fill() {
        let mut pipe = Pipeline::new(vp(16));
        let poly =
            Polygon::from_coords(&[(3.0, 3.0), (12.0, 3.0), (12.0, 12.0), (3.0, 12.0)]).unwrap();
        let mut mask = Buffer2D::new(16, 16, 0u8);
        pipe.draw_boundary_mask(&mut mask, &poly);
        assert!(pipe.stats().boundary_cells > 0);
        // The world y=3..12 square maps to screen rows 4..13 (y flip).
        assert_eq!(mask.get(3, 4), 1); // on the boundary
        assert_eq!(mask.get(7, 7), 0); // interior not marked
        assert_eq!(mask.get(0, 0), 0); // exterior not marked
    }

    #[test]
    fn stats_reset() {
        let mut pipe = Pipeline::new(vp(4));
        let mut buf = Buffer2D::new(4, 4, 0.0f32);
        pipe.draw_points(&mut buf, vec![Point::new(1.0, 1.0)], |_| 1.0, BlendOp::Add);
        assert_ne!(pipe.stats().points_in, 0);
        pipe.reset_stats();
        assert_eq!(*pipe.stats(), RenderStats::new());
    }
}
