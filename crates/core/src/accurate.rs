//! Accurate (hybrid) Raster Join — exact answers at raster speed.
//!
//! Bounded Raster Join mis-assigns only points whose pixel is crossed by a
//! region boundary. The accurate variant therefore:
//!
//! 1. runs the same point pass;
//! 2. marks every pixel any region boundary passes through (conservative
//!    Amanatides–Woo traversal of the edges — no boundary pixel is missed);
//! 3. gathers each region's *interior* pixels from the accumulation buffers
//!    (skipping its own boundary pixels), which is exact: a covered pixel
//!    with no boundary inside lies entirely within the region;
//! 4. resolves the points falling into boundary pixels with exact
//!    point-in-polygon tests against just the regions whose boundary crosses
//!    that pixel (a pixel→regions table built in step 2, indexed by the
//!    pixel's rank among the boundary bits).
//!
//! Steps 2–3 depend only on the canvas and are prepared once
//! ([`crate::prepared`]), with a one-bit-per-pixel bitmap of the boundary
//! pixels. Step 1 records each drawn row whose pixel's bit is set, so the
//! zones are walked once; step 4 runs after the gather, over the recorded
//! rows in row order, and only those cost the table lookup and the PIP
//! tests. A record made against the union of several levels' bitmaps
//! serves each of them ([`crate::prepared::PointPass`]).
//! The result equals the exact join bit-for-bit on counts — property-tested
//! against the nested-loop baseline.

use gpu_raster::line::traverse_segment;
use urbane_geom::projection::Viewport;
use urbane_geom::MultiPolygon;

/// Append to `out` every pixel of `viewport` an edge of `geom` passes
/// through, then sort and dedup it: membership is a binary search, and the
/// order is fixed, so every fold over it is deterministic run-to-run.
pub(crate) fn boundary_pixels(viewport: &Viewport, geom: &MultiPolygon, out: &mut Vec<u32>) {
    let (w, h) = (viewport.width, viewport.height);
    for poly in geom.polygons() {
        for e in poly.edges() {
            let a = viewport.world_to_screen(e.a);
            let b = viewport.world_to_screen(e.b);
            traverse_segment(a, b, w, h, |x, y| out.push(y * w + x));
        }
    }
    out.sort_unstable();
    out.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutionMode::Accurate;
    use crate::prepared::replay_viewport;
    use spatial_index::naive_join;
    use urban_data::gen::regions::voronoi_neighborhoods;
    use urban_data::query::{AggKind, SpatialAggQuery};
    use urban_data::PointTable;
    use urbane_geom::BoundingBox;

    // Delegates to the shared corpus generator — same draw order as the
    // historical in-module copy, so tables (and results) are unchanged.
    fn random_points(n: usize, seed: u64, extent: &BoundingBox) -> PointTable {
        urban_data::gen::corpus::uniform_points(extent, n, seed, 100.0)
    }

    /// Accurate RJ at a *coarse* resolution must still match the exact join:
    /// the boundary fix-up removes all quantization error.
    #[test]
    fn matches_naive_at_coarse_resolution() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let regions = voronoi_neighborhoods(&extent, 15, 4, 2);
        let points = random_points(2_000, 9, &extent);
        // 24x24 canvas: pixels are >4 units — bounded would err heavily.
        let vp = Viewport::new(extent.inflate(1e-7), 24, 24);
        for agg in [
            AggKind::Count,
            AggKind::Sum("v".into()),
            AggKind::Avg("v".into()),
            AggKind::Min("v".into()),
            AggKind::Max("v".into()),
        ] {
            let q = SpatialAggQuery::new(agg.clone());
            let truth = naive_join(&points, &regions, &q).unwrap();
            let (got, _) = replay_viewport(&vp, &points, &regions, &q, Accurate).unwrap();
            for r in 0..regions.len() {
                let (a, b) = (got.value(r), truth.value(r));
                match (a, b) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert!((a - b).abs() < 1e-3, "agg {agg:?} region {r}: {a} vs {b}")
                    }
                    _ => panic!("agg {agg:?} region {r}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn counts_are_bit_exact() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 50.0, 50.0);
        let regions = voronoi_neighborhoods(&extent, 8, 1, 1);
        let points = random_points(1_000, 3, &extent);
        let vp = Viewport::new(extent.inflate(1e-7), 16, 16);
        let q = SpatialAggQuery::count();
        let truth = naive_join(&points, &regions, &q).unwrap();
        let (got, _) = replay_viewport(&vp, &points, &regions, &q, Accurate).unwrap();
        for r in 0..regions.len() {
            assert_eq!(got.states[r].count, truth.states[r].count, "region {r}");
        }
    }

    #[test]
    fn filters_respected_in_fixup() {
        use urban_data::filter::Filter;
        use urban_data::time::TimeRange;
        let extent = BoundingBox::from_coords(0.0, 0.0, 50.0, 50.0);
        let regions = voronoi_neighborhoods(&extent, 5, 11, 1);
        let points = random_points(500, 13, &extent);
        let vp = Viewport::new(extent.inflate(1e-7), 12, 12);
        let q = SpatialAggQuery::count().filter(Filter::Time(TimeRange::new(0, 250)));
        let truth = naive_join(&points, &regions, &q).unwrap();
        let (got, _) = replay_viewport(&vp, &points, &regions, &q, Accurate).unwrap();
        assert_eq!(got.values(), truth.values());
    }
}
