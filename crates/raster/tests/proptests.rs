//! Property-based tests for the rasterization invariants Raster Join's
//! correctness rests on.

use proptest::prelude::*;
use std::collections::HashSet;
use urbane_geom::{Point, Polygon, Ring};

const SIZE: u32 = 48;

fn pt() -> impl Strategy<Value = Point> {
    // Keep coordinates off exact pixel centers: boundary ties are
    // convention-dependent and measure-zero in practice.
    (0..4800i32, 0..4800i32).prop_map(|(x, y)| {
        Point::new(x as f64 / 100.0 + 0.001, y as f64 / 100.0 + 0.003)
    })
}

/// Random simple star-shaped polygon within the canvas.
fn simple_polygon() -> impl Strategy<Value = Polygon> {
    (
        proptest::collection::vec((0.0..std::f64::consts::TAU, 2.0..20.0f64), 3..24),
        (22.0..26.0f64, 22.0..26.0f64),
    )
        .prop_filter_map("simple star", |(mut rays, (cx, cy))| {
            rays.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            rays.dedup_by(|a, b| (a.0 - b.0).abs() < 5e-2);
            if rays.len() < 3 {
                return None;
            }
            let max_gap = rays
                .windows(2)
                .map(|w| w[1].0 - w[0].0)
                .chain(std::iter::once(
                    rays[0].0 + std::f64::consts::TAU - rays.last().unwrap().0,
                ))
                .fold(0.0f64, f64::max);
            if max_gap >= std::f64::consts::PI - 1e-2 {
                return None;
            }
            let pts: Vec<Point> = rays
                .iter()
                .map(|&(t, r)| Point::new(cx + t.cos() * r, cy + t.sin() * r))
                .collect();
            let ring = Ring::new(pts).ok()?;
            ring.is_simple().then(|| Polygon::new(ring))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every covered pixel's center is inside the polygon, and every pixel
    /// whose center is strictly inside is covered.
    #[test]
    fn scanline_matches_center_sampling(poly in simple_polygon()) {
        let mut covered = HashSet::new();
        gpu_raster::polygon_scan::rasterize_polygon(&poly, SIZE, SIZE, |x, y| {
            covered.insert((x, y));
        });
        for y in 0..SIZE {
            for x in 0..SIZE {
                let c = Point::new(x as f64 + 0.5, y as f64 + 0.5);
                let near_edge = poly.edges().any(|e| e.distance_to_point(c) < 1e-6);
                if near_edge {
                    continue;
                }
                prop_assert_eq!(
                    covered.contains(&(x, y)),
                    poly.contains(c),
                    "disagreement at ({}, {})", x, y
                );
            }
        }
    }

    /// Conservative traversal visits every pixel a segment passes through:
    /// sampling many parameters along the segment never lands outside the
    /// visited set.
    #[test]
    fn traversal_is_conservative(a in pt(), b in pt()) {
        let mut cells = HashSet::new();
        gpu_raster::line::traverse_segment(a, b, SIZE, SIZE, |x, y| {
            cells.insert((x, y));
        });
        for i in 0..=200 {
            let t = i as f64 / 200.0;
            let p = a.lerp(b, t);
            let (x, y) = (p.x.floor() as i64, p.y.floor() as i64);
            if x >= 0 && y >= 0 && (x as u32) < SIZE && (y as u32) < SIZE {
                // Allow the sample to sit exactly on a cell border shared
                // with a visited cell.
                let hit = cells.contains(&(x as u32, y as u32))
                    || (p.x.fract() < 1e-9 && x > 0 && cells.contains(&((x - 1) as u32, y as u32)))
                    || (p.y.fract() < 1e-9 && y > 0 && cells.contains(&(x as u32, (y - 1) as u32)));
                prop_assert!(hit, "sample at t={t} in unvisited cell ({x},{y})");
            }
        }
    }

    /// Additive point blending is exact: the buffer total equals the number
    /// of in-bounds points regardless of order or duplication.
    #[test]
    fn point_accumulation_is_exact(points in proptest::collection::vec(pt(), 0..300)) {
        use gpu_raster::blend::BlendOp;
        use urbane_geom::projection::Viewport;
        use urbane_geom::BoundingBox;
        let vp = Viewport::new(
            BoundingBox::from_coords(0.0, 0.0, SIZE as f64, SIZE as f64),
            SIZE,
            SIZE,
        );
        let mut buf = gpu_raster::Buffer2D::new(SIZE, SIZE, 0.0f32);
        let mut pipe = gpu_raster::Pipeline::new(vp);
        pipe.draw_points(&mut buf, points.iter().copied(), |_| 1.0, BlendOp::Add);
        let expected = points
            .iter()
            .filter(|p| vp.world_to_pixel(**p).is_some())
            .count();
        prop_assert_eq!(buf.sum() as usize, expected);
        prop_assert_eq!(pipe.stats().fragments as usize, expected);
    }
}
