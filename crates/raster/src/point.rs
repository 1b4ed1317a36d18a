//! Point rendering — the data side of Raster Join.
//!
//! Each data point becomes one fragment (or an `size × size` splat when a
//! point size is set, mirroring `glPointSize`). The fragment's value is
//! blended into the target buffer; with additive blending this computes
//! per-pixel COUNT/SUM without synchronization.

use crate::blend::{Blendable, BlendOp};
use crate::buffer::Buffer2D;
use urbane_geom::projection::Viewport;
use urbane_geom::Point;

/// Render a point as a `size × size` pixel splat centered on its pixel
/// (odd sizes center exactly; even sizes bias toward the top-left, matching
/// GL's point sprite convention). Fragments outside the buffer are clipped.
pub fn draw_point_splat<T: Blendable>(
    target: &mut Buffer2D<T>,
    viewport: &Viewport,
    p: Point,
    value: T,
    size: u32,
    op: BlendOp,
) -> u64 {
    debug_assert!(size >= 1);
    let (cx, cy) = match viewport.world_to_pixel(p) {
        Some(c) => c,
        None => return 0,
    };
    if size == 1 {
        T::blend(target.get_mut(cx, cy), value, op);
        return 1;
    }
    let half = (size / 2) as i64;
    let lo = if size.is_multiple_of(2) { 1 - half } else { -half };
    let mut frags = 0u64;
    for dy in lo..=half {
        for dx in lo..=half {
            let x = cx as i64 + dx;
            let y = cy as i64 + dy;
            if x >= 0 && y >= 0 && x < target.width() as i64 && y < target.height() as i64 {
                T::blend(target.get_mut(x as u32, y as u32), value, op);
                frags += 1;
            }
        }
    }
    frags
}

#[cfg(test)]
mod tests {
    use super::*;
    use urbane_geom::BoundingBox;

    fn vp() -> Viewport {
        Viewport::new(BoundingBox::from_coords(0.0, 0.0, 8.0, 8.0), 8, 8)
    }

    #[test]
    fn point_accumulates_with_add() {
        let mut buf = Buffer2D::new(8, 8, 0.0f32);
        let v = vp();
        for _ in 0..5 {
            draw_point_splat(&mut buf, &v, Point::new(3.5, 4.5), 1.0, 1, BlendOp::Add);
        }
        // World (3.5, 4.5) → pixel (3, 3) with y flipped (8 - 4.5 = 3.5).
        assert_eq!(buf.get(3, 3), 5.0);
        assert_eq!(buf.sum(), 5.0);
    }

    #[test]
    fn out_of_view_point_culled() {
        let mut buf = Buffer2D::new(8, 8, 0.0f32);
        let n = draw_point_splat(&mut buf, &vp(), Point::new(100.0, 0.0), 1.0, 1, BlendOp::Add);
        assert_eq!(n, 0);
        assert_eq!(buf.sum(), 0.0);
    }

    #[test]
    fn min_max_blending() {
        let mut buf = Buffer2D::new(8, 8, f32::INFINITY);
        let v = vp();
        let p = Point::new(1.0, 1.0);
        draw_point_splat(&mut buf, &v, p, 7.0, 1, BlendOp::Min);
        draw_point_splat(&mut buf, &v, p, 3.0, 1, BlendOp::Min);
        draw_point_splat(&mut buf, &v, p, 5.0, 1, BlendOp::Min);
        assert_eq!(buf.get(1, 7), 3.0);
    }

    #[test]
    fn splat_size_three() {
        let mut buf = Buffer2D::new(8, 8, 0.0f32);
        let n = draw_point_splat(&mut buf, &vp(), Point::new(4.5, 4.5), 1.0, 3, BlendOp::Add);
        assert_eq!(n, 9);
        // 3x3 neighborhood around pixel (4, 3).
        assert_eq!(buf.get(4, 3), 1.0);
        assert_eq!(buf.get(3, 2), 1.0);
        assert_eq!(buf.get(5, 4), 1.0);
        assert_eq!(buf.get(6, 3), 0.0);
    }

    #[test]
    fn splat_clipped_at_border() {
        let mut buf = Buffer2D::new(8, 8, 0.0f32);
        let n = draw_point_splat(&mut buf, &vp(), Point::new(0.1, 7.9), 1.0, 3, BlendOp::Add);
        assert_eq!(n, 4, "corner splat loses the off-buffer fragments");
    }

    #[test]
    fn two_channel_sum_count() {
        // The AVG trick: blend [attribute, 1] with Add → per-pixel (sum, count).
        let mut buf = Buffer2D::new(8, 8, [0.0f32; 2]);
        let v = vp();
        let p = Point::new(2.0, 2.0);
        for fare in [10.0f32, 20.0, 30.0] {
            draw_point_splat(&mut buf, &v, p, [fare, 1.0], 1, BlendOp::Add);
        }
        let [sum, count] = buf.get(2, 6);
        assert_eq!(sum, 60.0);
        assert_eq!(count, 3.0);
    }
}
