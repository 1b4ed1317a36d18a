//! Coverage-weighted Raster Join — better accuracy at the same resolution,
//! still without touching individual points.
//!
//! Bounded Raster Join assigns each boundary pixel's points entirely to
//! whichever regions cover the pixel *center*. The weighted variant instead
//! folds every boundary pixel fractionally: the pixel's accumulated
//! `(count, Σvalue)` contributes with weight equal to the **exact area
//! fraction** of the pixel the region covers (computed by clipping the
//! region to the pixel's world rectangle — `urbane-geom::clip`). Under the
//! paper's own error model (points uniform within a pixel at the chosen
//! resolution) this makes the *expected* count per region exact, cutting the
//! realized error well below the bounded variant's at equal canvas size —
//! without the accurate variant's per-point PIP work.
//!
//! The weights depend only on the canvas: they are prepared once per region
//! ([`crate::prepared`]) and folded after the region's interior runs.
//!
//! COUNT/SUM/AVG answers become real-valued expectations; MIN/MAX fold
//! unweighted (a partially covered pixel may still hold the extremum, so
//! weighted MIN/MAX equals bounded MIN/MAX with boundary pixels included).

use crate::bounded::PointBuffers;
use urban_data::query::AggState;
use urbane_geom::clip::clip_polygon_to_box;
use urbane_geom::projection::Viewport;
use urbane_geom::MultiPolygon;

/// Append `(pixel, coverage)` for each pixel of `boundary` (sorted) that
/// `geom` covers a positive area fraction of; pixels it misses are left out.
pub(crate) fn coverage_weights(
    viewport: &Viewport,
    geom: &MultiPolygon,
    boundary: &[u32],
    out: &mut Vec<(u32, f64)>,
) {
    let w = viewport.width;
    let pixel_area = viewport.units_per_pixel_x() * viewport.units_per_pixel_y();
    for &pix in boundary {
        let cell = viewport.pixel_to_world_box(pix % w, pix / w);
        let mut covered = 0.0;
        for poly in geom.polygons() {
            if let Ok(Some(clipped)) = clip_polygon_to_box(poly, &cell) {
                covered += clipped.area();
            }
        }
        let weight = (covered / pixel_area).clamp(0.0, 1.0);
        if weight > 0.0 {
            out.push((pix, weight));
        }
    }
}

/// Fold a region's boundary pixels into `state`, each by its coverage.
pub(crate) fn fold_boundary(
    state: &mut AggState,
    bufs: &PointBuffers,
    weights: &[(u32, f64)],
    w: u32,
) {
    for &(pix, weight) in weights {
        let (x, y) = (pix % w, pix / w);
        let [count, sum] = bufs.count_sum.get(x, y);
        if count <= 0.0 {
            continue;
        }
        let min = bufs.min.as_ref().map_or(f64::INFINITY, |b| b.get(x, y) as f64);
        let max = bufs.max.as_ref().map_or(f64::NEG_INFINITY, |b| b.get(x, y) as f64);
        state.accumulate_weighted(count as u64, sum as f64, min, max, weight);
    }
}

#[cfg(test)]
mod tests {
    use crate::executor::ExecutionMode::{Bounded, Weighted};
    use crate::prepared::replay_viewport;
    use spatial_index::naive_join;
    use urban_data::gen::regions::voronoi_neighborhoods;
    use urban_data::query::{AggTable, SpatialAggQuery};
    use urban_data::PointTable;
    use urbane_geom::projection::Viewport;
    use urbane_geom::BoundingBox;

    // Delegates to the shared corpus generator — same draw order as the
    // historical in-module copy, so tables (and results) are unchanged.
    fn random_points(n: usize, seed: u64, extent: &BoundingBox) -> PointTable {
        urban_data::gen::corpus::uniform_points(extent, n, seed, 10.0)
    }

    /// With pixel-aligned rectangular regions there are boundary pixels but
    /// every one is fully covered or fully empty per region → weighted must
    /// equal the exact join.
    #[test]
    fn exact_on_pixel_aligned_regions() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 32.0, 32.0);
        let regions = urban_data::gen::regions::grid_regions(&extent, 4, 4);
        let points = random_points(2_000, 1, &extent);
        let vp = Viewport::new(BoundingBox::from_coords(0.0, 0.0, 32.0, 32.0), 32, 32);
        let q = SpatialAggQuery::count();
        let truth = naive_join(&points, &regions, &q).unwrap();
        let (got, _) = replay_viewport(&vp, &points, &regions, &q, Weighted).unwrap();
        for r in 0..regions.len() {
            let (a, b) = (got.value(r).unwrap_or(0.0), truth.value(r).unwrap_or(0.0));
            assert!((a - b).abs() < 1e-6, "region {r}: {a} vs {b}");
        }
    }

    /// On irregular regions at a coarse canvas, the weighted variant's total
    /// absolute error must beat the bounded variant's (the whole point of
    /// fractional folding).
    #[test]
    fn beats_bounded_at_equal_resolution() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let regions = voronoi_neighborhoods(&extent, 20, 3, 2);
        let points = random_points(8_000, 2, &extent);
        let q = SpatialAggQuery::count();
        let truth = naive_join(&points, &regions, &q).unwrap();
        let vp = Viewport::new(extent.inflate(1e-7), 28, 28); // very coarse

        let (weighted, _) = replay_viewport(&vp, &points, &regions, &q, Weighted).unwrap();
        let (bounded, _) = replay_viewport(&vp, &points, &regions, &q, Bounded).unwrap();

        let total_err = |t: &AggTable| -> f64 {
            (0..regions.len())
                .map(|r| {
                    (t.value(r).unwrap_or(0.0) - truth.value(r).unwrap_or(0.0)).abs()
                })
                .sum()
        };
        let (we, be) = (total_err(&weighted), total_err(&bounded));
        assert!(
            we < be * 0.6,
            "weighted total error {we:.1} should be well below bounded {be:.1}"
        );
        // And the global count is nearly conserved (weights sum to the
        // coverage of the partition).
        let wt: f64 = weighted.values().iter().flatten().sum();
        assert!((wt - truth.total_count() as f64).abs() / (truth.total_count() as f64) < 0.02);
    }

    /// AVG through the weighted path stays close to the exact average.
    #[test]
    fn weighted_avg_tracks_truth() {
        use urban_data::query::AggKind;
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let regions = voronoi_neighborhoods(&extent, 10, 7, 2);
        let points = random_points(5_000, 3, &extent);
        let q = SpatialAggQuery::new(AggKind::Avg("v".into()));
        let truth = naive_join(&points, &regions, &q).unwrap();
        let vp = Viewport::new(extent.inflate(1e-7), 40, 40);
        let (got, _) = replay_viewport(&vp, &points, &regions, &q, Weighted).unwrap();
        for r in 0..regions.len() {
            if let (Some(a), Some(b)) = (got.value(r), truth.value(r)) {
                assert!((a - b).abs() < 0.5, "region {r}: avg {a} vs {b}");
            }
        }
    }
}
