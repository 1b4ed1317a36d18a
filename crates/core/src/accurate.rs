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
//!    that pixel (a sorted pixel→regions table built in step 2).
//!
//! The result equals the exact join bit-for-bit on counts — property-tested
//! against the nested-loop baseline.

use crate::bounded::{gather_region, point_pass};
use crate::budget::QueryBudget;
use crate::compiled::{CompiledQuery, PointStore};
use crate::executor::PolygonPath;
use crate::Result;
use gpu_raster::line::traverse_segment;
use gpu_raster::Pipeline;
use std::collections::HashSet;
use urban_data::query::AggTable;
use urban_data::{RegionId, RegionSet};
use urbane_geom::projection::Viewport;

/// Execute accurate Raster Join for one tile. The budget is polled per
/// region in the boundary/gather passes and per point chunk in the point
/// pass and the exact fix-up.
pub(crate) fn accurate_tile(
    viewport: &Viewport,
    store: &PointStore<'_>,
    regions: &RegionSet,
    cq: &CompiledQuery<'_>,
    path: PolygonPath,
    budget: &QueryBudget,
) -> Result<(AggTable, gpu_raster::RenderStats)> {
    let points = store.table();
    let mut pipe = Pipeline::new(*viewport);
    let (w, h) = (viewport.width, viewport.height);
    let bufs = point_pass(&mut pipe, store, cq, budget)?;

    // Step 2: per-region boundary pixels + global (pixel, region) pairs.
    let mut boundary_pairs: Vec<(u32, RegionId)> = Vec::new();
    let mut region_boundary: Vec<HashSet<u32>> = Vec::with_capacity(regions.len());
    for (id, _, geom) in regions.iter() {
        budget.check()?;
        let mut set = HashSet::new();
        if viewport.world.intersects(&geom.bbox()) {
            for poly in geom.polygons() {
                for e in poly.edges() {
                    let a = viewport.world_to_screen(e.a);
                    let b = viewport.world_to_screen(e.b);
                    traverse_segment(a, b, w, h, |x, y| {
                        set.insert(y * w + x);
                    });
                }
            }
        }
        for &pix in &set {
            boundary_pairs.push((pix, id));
        }
        region_boundary.push(set);
    }
    boundary_pairs.sort_unstable();

    // Step 3: interior gather per region.
    let mut table = AggTable::new(cq.agg.clone(), regions.len());
    for (id, _, geom) in regions.iter() {
        budget.check()?;
        let skip_set = &region_boundary[id as usize];
        gather_region(
            &mut pipe,
            &bufs,
            geom,
            path,
            &mut table.states[id as usize],
            |x, y| skip_set.contains(&(y * w + x)),
        )?;
    }

    // Step 4: exact fix-up for points in boundary pixels — the same rows,
    // in the same order, the point pass drew.
    let column: Option<&[f32]> = cq.col.map(|c| points.column(c));
    cq.for_each_chunk(store, &viewport.world, budget, |idx| {
        for &i in idx {
            let i = i as usize;
            let p = points.loc(i);
            let Some((x, y)) = viewport.world_to_pixel(p) else { continue };
            let pix = y * w + x;
            let lo = boundary_pairs.partition_point(|&(q, _)| q < pix);
            let v = column.map_or(0.0, |vals| vals[i] as f64);
            // Empty unless `pix` is a boundary pixel of some region.
            for &(_, id) in boundary_pairs[lo..].iter().take_while(|&&(q, _)| q == pix) {
                if regions.geometry(id).contains(p) {
                    table.states[id as usize].accumulate(v);
                }
            }
        }
    })?;

    Ok((table, *pipe.stats()))
}

/// Diagnostic: how many pixels of the tile are boundary pixels for at least
/// one region (drives the accurate-variant cost model in the benches).
pub fn boundary_pixel_count(viewport: &Viewport, regions: &RegionSet) -> usize {
    let (w, h) = (viewport.width, viewport.height);
    let mut set = HashSet::new();
    for (_, _, geom) in regions.iter() {
        for poly in geom.polygons() {
            for e in poly.edges() {
                let a = viewport.world_to_screen(e.a);
                let b = viewport.world_to_screen(e.b);
                traverse_segment(a, b, w, h, |x, y| {
                    set.insert(y * w + x);
                });
            }
        }
    }
    set.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_index::naive_join;
    use urban_data::gen::regions::voronoi_neighborhoods;
    use urban_data::query::{AggKind, SpatialAggQuery};
    use urban_data::PointTable;
    use urbane_geom::BoundingBox;

    // Unbudgeted shim: these tests exercise exactness, not the guardrails.
    fn accurate_tile(
        viewport: &Viewport,
        points: &PointTable,
        regions: &RegionSet,
        query: &SpatialAggQuery,
        path: PolygonPath,
    ) -> Result<(AggTable, gpu_raster::RenderStats)> {
        let budget = QueryBudget::unlimited();
        let store = PointStore::plain(points);
        let cq = CompiledQuery::new(points, query, &budget)?;
        super::accurate_tile(viewport, &store, regions, &cq, path, &budget)
    }

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
            let (got, _) =
                accurate_tile(&vp, &points, &regions, &q, PolygonPath::Scanline).unwrap();
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
        let (got, _) = accurate_tile(&vp, &points, &regions, &q, PolygonPath::Scanline).unwrap();
        for r in 0..regions.len() {
            assert_eq!(got.states[r].count, truth.states[r].count, "region {r}");
        }
    }

    #[test]
    fn triangulated_path_also_exact() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 50.0, 50.0);
        let regions = voronoi_neighborhoods(&extent, 6, 7, 2);
        let points = random_points(800, 5, &extent);
        let vp = Viewport::new(extent.inflate(1e-7), 20, 20);
        let q = SpatialAggQuery::count();
        let truth = naive_join(&points, &regions, &q).unwrap();
        let (got, _) =
            accurate_tile(&vp, &points, &regions, &q, PolygonPath::Triangulated).unwrap();
        assert_eq!(got.values(), truth.values());
    }

    #[test]
    fn boundary_pixel_count_scales_with_perimeter() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let vp = Viewport::new(extent, 64, 64);
        let few = voronoi_neighborhoods(&extent, 4, 2, 1);
        let many = voronoi_neighborhoods(&extent, 50, 2, 1);
        assert!(boundary_pixel_count(&vp, &many) > boundary_pixel_count(&vp, &few));
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
        let (got, _) = accurate_tile(&vp, &points, &regions, &q, PolygonPath::Scanline).unwrap();
        assert_eq!(got.values(), truth.values());
    }
}
