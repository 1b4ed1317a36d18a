//! The rendering pipeline façade: a viewport plus stateful draw calls with
//! statistics, mirroring how Raster Join's OpenGL implementation structures
//! its passes (point pass, polygon pass).

use crate::blend::{Blendable, BlendOp};
use crate::buffer::Buffer2D;
use crate::point::draw_point_splat;
use crate::polygon_scan::rasterize_rings;
use crate::stats::RenderStats;
use urbane_geom::projection::Viewport;
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
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn stats_reset() {
        let mut pipe = Pipeline::new(vp(4));
        let mut buf = Buffer2D::new(4, 4, 0.0f32);
        pipe.draw_points(&mut buf, vec![Point::new(1.0, 1.0)], |_| 1.0, BlendOp::Add);
        assert_ne!(pipe.stats().points_in, 0);
        pipe.reset_stats();
        assert_eq!(*pipe.stats(), RenderStats::new());
    }
}
