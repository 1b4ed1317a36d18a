//! Direct scanline polygon rasterization (even–odd rule).
//!
//! The GPU must triangulate polygons; a CPU rasterizer can fill them
//! directly with a scanline sweep, which is what Raster Join's polygon pass
//! uses (no triangulation preprocessing).
//!
//! A pixel is covered iff its center is inside the polygon under the
//! even–odd rule (GL's sample-at-center convention), with half-open
//! `[y_min, y_max)` edge crossing so shared vertices are counted once, and
//! half-open `[x0, x1)` spans so polygons sharing an edge never both claim
//! a pixel whose center lies on it.

use urbane_geom::{Point, Polygon};

/// Rasterize a screen-space polygon (exterior + holes, even–odd rule),
/// invoking `emit(x, y)` for every covered pixel. Returns fragments emitted.
pub fn rasterize_polygon<F: FnMut(u32, u32)>(
    poly: &Polygon,
    width: u32,
    height: u32,
    emit: F,
) -> u64 {
    let rings: Vec<&[Point]> = poly.rings().map(|r| r.vertices()).collect();
    rasterize_rings(&rings, width, height, emit)
}

/// Rasterize raw screen-space rings under the even–odd rule.
pub fn rasterize_rings<F: FnMut(u32, u32)>(
    rings: &[&[Point]],
    width: u32,
    height: u32,
    mut emit: F,
) -> u64 {
    // Vertical pixel range that can possibly be covered.
    let mut min_y = f64::INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for ring in rings {
        for p in *ring {
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
        }
    }
    if !min_y.is_finite() {
        return 0;
    }
    let y_start = (min_y - 0.5).ceil().max(0.0) as i64;
    let y_end = ((max_y - 0.5).floor() as i64).min(height as i64 - 1);

    let mut fragments = 0u64;
    let mut xs: Vec<f64> = Vec::with_capacity(16);
    for y in y_start..=y_end {
        let sample_y = y as f64 + 0.5;
        xs.clear();
        for ring in rings {
            let n = ring.len();
            for i in 0..n {
                let a = ring[i];
                let b = ring[(i + 1) % n];
                // Half-open rule: edge spans [min(y), max(y)).
                if (a.y <= sample_y) != (b.y <= sample_y) {
                    let t = (sample_y - a.y) / (b.y - a.y);
                    xs.push(a.x + t * (b.x - a.x));
                }
            }
        }
        if xs.is_empty() {
            continue;
        }
        xs.sort_by(|p, q| p.partial_cmp(q).unwrap_or(std::cmp::Ordering::Equal));
        // Fill between crossing pairs: pixel centers x + 0.5 ∈ [x0, x1).
        // lint: allow(cancel-poll-reachability) spans the crossing pairs of one scanline, bounded by ring complexity; region rasterization happens once per canvas plan
        for pair in xs.chunks_exact(2) {
            let &[x0, x1] = pair else { continue };
            let px_start = (x0 - 0.5).ceil().max(0.0) as i64;
            let px_end = (((x1 - 0.5).ceil() as i64) - 1).min(width as i64 - 1);
            for x in px_start..=px_end {
                emit(x as u32, y as u32);
                fragments += 1;
            }
        }
    }
    fragments
}

/// Covered pixels as a vector (test/debug helper).
pub fn polygon_pixels(poly: &Polygon, width: u32, height: u32) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    rasterize_polygon(poly, width, height, |x, y| out.push((x, y)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use urbane_geom::{Polygon, Ring};

    #[test]
    fn unit_square_covers_expected_pixels() {
        // Square [1, 5) x [1, 5): pixel centers 1.5..4.5 → pixels 1..=4.
        let p = Polygon::from_coords(&[(1.0, 1.0), (5.0, 1.0), (5.0, 5.0), (1.0, 5.0)]).unwrap();
        let pix: HashSet<(u32, u32)> = polygon_pixels(&p, 8, 8).into_iter().collect();
        assert_eq!(pix.len(), 16);
        for x in 1..=4u32 {
            for y in 1..=4u32 {
                assert!(pix.contains(&(x, y)));
            }
        }
    }

    #[test]
    fn adjacent_squares_partition_pixels() {
        // Two polygons sharing an edge: no pixel claimed twice, none lost.
        // The shared edges x = 4.5, y = 4.5 and y = x pass exactly through
        // pixel centers, where only the tie rule decides the owner.
        type Coords = &'static [(f64, f64)];
        let cases: [[Coords; 2]; 4] = [
            [
                &[(0.0, 0.0), (4.0, 0.0), (4.0, 8.0), (0.0, 8.0)],
                &[(4.0, 0.0), (8.0, 0.0), (8.0, 8.0), (4.0, 8.0)],
            ],
            [
                &[(0.0, 0.0), (4.5, 0.0), (4.5, 8.0), (0.0, 8.0)],
                &[(4.5, 0.0), (8.0, 0.0), (8.0, 8.0), (4.5, 8.0)],
            ],
            [
                &[(0.0, 0.0), (8.0, 0.0), (8.0, 4.5), (0.0, 4.5)],
                &[(0.0, 4.5), (8.0, 4.5), (8.0, 8.0), (0.0, 8.0)],
            ],
            [&[(0.0, 0.0), (8.0, 0.0), (8.0, 8.0)], &[(0.0, 0.0), (8.0, 8.0), (0.0, 8.0)]],
        ];
        for [a, b] in cases {
            let mut owners = [[0u8; 8]; 8];
            for coords in [a, b] {
                let p = Polygon::from_coords(coords).unwrap();
                for (x, y) in polygon_pixels(&p, 8, 8) {
                    owners[y as usize][x as usize] += 1;
                }
            }
            assert!(
                owners.iter().flatten().all(|&n| n == 1),
                "shared edge {a:?} | {b:?}: pixel owners {owners:?}"
            );
        }
    }

    #[test]
    fn hole_is_not_filled() {
        let outer = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(8.0, 0.0),
            Point::new(8.0, 8.0),
            Point::new(0.0, 8.0),
        ])
        .unwrap();
        let hole = Ring::new(vec![
            Point::new(2.0, 2.0),
            Point::new(6.0, 2.0),
            Point::new(6.0, 6.0),
            Point::new(2.0, 6.0),
        ])
        .unwrap();
        let p = Polygon::with_holes(outer, vec![hole]).unwrap();
        let pix: HashSet<(u32, u32)> = polygon_pixels(&p, 8, 8).into_iter().collect();
        assert_eq!(pix.len(), 64 - 16);
        assert!(!pix.contains(&(3, 3)));
        assert!(pix.contains(&(1, 1)));
        assert!(pix.contains(&(7, 7)));
    }

    #[test]
    fn concave_polygon() {
        // U-shape: two prongs connected at the bottom.
        let p = Polygon::from_coords(&[
            (0.0, 0.0),
            (8.0, 0.0),
            (8.0, 8.0),
            (6.0, 8.0),
            (6.0, 2.0),
            (2.0, 2.0),
            (2.0, 8.0),
            (0.0, 8.0),
        ])
        .unwrap();
        let pix: HashSet<(u32, u32)> = polygon_pixels(&p, 8, 8).into_iter().collect();
        assert!(pix.contains(&(0, 5))); // left prong
        assert!(pix.contains(&(7, 5))); // right prong
        assert!(!pix.contains(&(4, 5))); // the gap
        assert!(pix.contains(&(4, 1))); // the bridge
    }

    #[test]
    fn matches_point_in_polygon_sampling() {
        // Irregular polygon: scanline coverage == PIP test at pixel centers.
        let p = Polygon::from_coords(&[
            (1.3, 2.7),
            (13.8, 1.1),
            (14.9, 9.2),
            (8.4, 6.1),
            (9.0, 13.4),
            (2.2, 12.5),
        ])
        .unwrap();
        let scan: HashSet<(u32, u32)> = polygon_pixels(&p, 16, 16).into_iter().collect();
        for y in 0..16u32 {
            for x in 0..16u32 {
                let c = Point::new(x as f64 + 0.5, y as f64 + 0.5);
                let inside = p.contains(c);
                let on_edge = p.edges().any(|e| e.distance_to_point(c) < 1e-9);
                if on_edge {
                    continue; // tie-break convention may differ
                }
                assert_eq!(
                    scan.contains(&(x, y)),
                    inside,
                    "disagreement at pixel ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn degenerate_offscreen() {
        let p = Polygon::from_coords(&[(-10.0, -10.0), (-5.0, -10.0), (-7.0, -5.0)]).unwrap();
        assert_eq!(rasterize_polygon(&p, 8, 8, |_, _| {}), 0);
    }

    #[test]
    fn subpixel_polygon_misses_all_centers() {
        let p = Polygon::from_coords(&[(3.1, 3.1), (3.4, 3.1), (3.4, 3.4), (3.1, 3.4)]).unwrap();
        assert_eq!(rasterize_polygon(&p, 8, 8, |_, _| {}), 0);
    }
}
