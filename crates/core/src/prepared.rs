//! Prepared Raster Join — amortizing the polygon pass across queries.
//!
//! Inside Urbane, the region set and canvas stay fixed while the user drags
//! sliders and toggles filters: only the *point* side of the join changes.
//! `PreparedRasterJoin` exploits that by rasterizing the polygon side once —
//! per region, the list of covered pixels (interior pixels plus a boundary
//! table for accurate mode) — and replaying queries against the cached
//! lists. Each subsequent query costs one point pass plus a cache-friendly
//! gather over precomputed pixel indices; no polygon is touched again.
//!
//! This is the software analogue of keeping the polygon geometry resident
//! on the GPU across frames, and is ablated against the one-shot executor in
//! experiment E9.

use crate::bounded::{fold_pixel, point_pass};
use crate::budget::QueryBudget;
use crate::canvas::{CanvasPlan, CanvasSpec};
use crate::compiled::{CompiledQuery, PointStore};
use crate::executor::{ExecutionMode, RasterJoinResult};
use crate::{RasterJoinError, Result};
use gpu_raster::line::traverse_segment;
use gpu_raster::polygon_scan::rasterize_rings;
use gpu_raster::{Pipeline, RenderStats};
use std::collections::HashSet;
use urban_data::query::{AggTable, SpatialAggQuery};
use urban_data::{PointTable, RegionId, RegionSet};
use urbane_geom::projection::Viewport;
use urbane_geom::Point;

/// Per-tile cached raster state for one region set.
struct PreparedTile {
    viewport: Viewport,
    /// CSR pixel lists: `pixels[offsets[r]..offsets[r+1]]` are the gather
    /// pixels of region `r` in this tile (interior-only in accurate mode).
    offsets: Vec<u32>,
    pixels: Vec<u32>,
    /// Sorted `(pixel, region)` boundary pairs (accurate mode only).
    boundary_pairs: Vec<(u32, RegionId)>,
}

/// A Raster Join bound to one region set and canvas, ready to answer many
/// queries over changing points/filters.
pub struct PreparedRasterJoin {
    tiles: Vec<PreparedTile>,
    n_regions: usize,
    mode: ExecutionMode,
    epsilon: f64,
    canvas: (u32, u32),
    /// Pixels cached across all tiles and regions (diagnostic).
    pub cached_pixels: usize,
    // Kept so the boundary fix-up can run exact PIP tests.
    regions: RegionSet,
}

impl PreparedRasterJoin {
    /// Rasterize `regions` once at the given canvas spec.
    pub fn prepare(
        regions: &RegionSet,
        spec: CanvasSpec,
        max_tile: u32,
        mode: ExecutionMode,
    ) -> Result<Self> {
        if regions.is_empty() {
            return Err(RasterJoinError::Config("empty region set".into()));
        }
        if mode == ExecutionMode::Weighted {
            return Err(RasterJoinError::Config(
                "prepared execution supports bounded/accurate modes only".into(),
            ));
        }
        let plan = CanvasPlan::plan(&regions.bbox(), spec, max_tile)?;
        let mut tiles = Vec::with_capacity(plan.tiles.len());
        let mut cached_pixels = 0usize;

        for vp in &plan.tiles {
            let (w, h) = (vp.width, vp.height);
            let mut offsets = Vec::with_capacity(regions.len() + 1);
            let mut pixels: Vec<u32> = Vec::new();
            let mut boundary_pairs: Vec<(u32, RegionId)> = Vec::new();
            offsets.push(0u32);

            for (id, _, geom) in regions.iter() {
                // Boundary set (accurate mode excludes these from gather).
                let mut boundary = HashSet::new();
                if mode == ExecutionMode::Accurate && vp.world.intersects(&geom.bbox()) {
                    for poly in geom.polygons() {
                        for e in poly.edges() {
                            let a = vp.world_to_screen(e.a);
                            let b = vp.world_to_screen(e.b);
                            traverse_segment(a, b, w, h, |x, y| {
                                boundary.insert(y * w + x);
                            });
                        }
                    }
                    for &pix in &boundary {
                        boundary_pairs.push((pix, id));
                    }
                }
                // Covered pixels via scanline fill.
                if vp.world.intersects(&geom.bbox()) {
                    for poly in geom.polygons() {
                        if !vp.world.intersects(&poly.bbox()) {
                            continue;
                        }
                        let rings: Vec<Vec<Point>> = poly
                            .rings()
                            .map(|r| {
                                r.vertices().iter().map(|&p| vp.world_to_screen(p)).collect()
                            })
                            .collect();
                        let refs: Vec<&[Point]> = rings.iter().map(|v| v.as_slice()).collect();
                        rasterize_rings(&refs, w, h, |x, y| {
                            let pix = y * w + x;
                            if !boundary.contains(&pix) {
                                pixels.push(pix);
                            }
                        });
                    }
                }
                offsets.push(pixels.len() as u32);
            }
            boundary_pairs.sort_unstable();
            cached_pixels += pixels.len() + boundary_pairs.len();
            tiles.push(PreparedTile { viewport: *vp, offsets, pixels, boundary_pairs });
        }

        Ok(PreparedRasterJoin {
            tiles,
            n_regions: regions.len(),
            mode,
            epsilon: plan.epsilon,
            canvas: (plan.width, plan.height),
            cached_pixels,
            regions: regions.clone(),
        })
    }

    /// The guaranteed ε of the underlying canvas.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Answer one query: point pass + cached gather (+ exact boundary fix-up
    /// in accurate mode), without deadline or cancellation.
    pub fn execute(&self, points: &PointTable, query: &SpatialAggQuery) -> Result<RasterJoinResult> {
        self.execute_with_budget(points, query, &QueryBudget::unlimited())
    }

    /// Budgeted variant of [`execute`](Self::execute): polls `budget` per
    /// tile, per region gather, and per point chunk in the fix-up.
    pub fn execute_with_budget(
        &self,
        points: &PointTable,
        query: &SpatialAggQuery,
        budget: &QueryBudget,
    ) -> Result<RasterJoinResult> {
        self.execute_store(PointStore::plain(points), query, budget)
    }

    /// Replay a query against a caller-provided [`PointStore`] — combine
    /// cached polygon rasterization with cached spatial bins so each frame
    /// costs only the candidate point pass plus the pixel-list gather.
    pub fn execute_store(
        &self,
        store: PointStore<'_>,
        query: &SpatialAggQuery,
        budget: &QueryBudget,
    ) -> Result<RasterJoinResult> {
        let points = store.table();
        let cq = CompiledQuery::new(points, query, budget)?;
        let mut table = AggTable::new(cq.agg.clone(), self.n_regions);
        let mut stats = RenderStats::new();

        for tile in &self.tiles {
            budget.check()?;
            let mut pipe = Pipeline::new(tile.viewport);
            let bufs = point_pass(&mut pipe, &store, &cq, budget)?;
            let w = tile.viewport.width;

            // Gather via cached pixel lists.
            for r in 0..self.n_regions {
                budget.check()?;
                let lo = tile.offsets[r] as usize;
                let hi = tile.offsets[r + 1] as usize;
                let state = &mut table.states[r];
                // lint: allow(cancel-poll-reachability) the enclosing region loop polls every iteration; a per-pixel poll would dominate the fold
                for &pix in &tile.pixels[lo..hi] {
                    fold_pixel(state, &bufs, pix % w, pix / w);
                }
            }

            // Accurate mode: exact fix-up for boundary-pixel points — the
            // same rows, in the same order, the point pass drew.
            if self.mode == ExecutionMode::Accurate && !tile.boundary_pairs.is_empty() {
                let column: Option<&[f32]> = cq.col.map(|c| points.column(c));
                let pairs = &tile.boundary_pairs;
                cq.for_each_chunk(&store, &tile.viewport.world, budget, |idx| {
                    for &i in idx {
                        let i = i as usize;
                        let p = points.loc(i);
                        let Some((x, y)) = tile.viewport.world_to_pixel(p) else { continue };
                        let pix = y * w + x;
                        let lo = pairs.partition_point(|&(q, _)| q < pix);
                        let v = column.map_or(0.0, |vals| vals[i] as f64);
                        for &(_, id) in pairs[lo..].iter().take_while(|&&(q, _)| q == pix) {
                            if self.regions.geometry(id).contains(p) {
                                table.states[id as usize].accumulate(v);
                            }
                        }
                    }
                })?;
            }
            stats.merge(pipe.stats());
        }

        Ok(RasterJoinResult {
            table,
            epsilon: self.epsilon,
            canvas_width: self.canvas.0,
            canvas_height: self.canvas.1,
            tiles: self.tiles.len(),
            stats,
            zones: cq.zones,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{RasterJoin, RasterJoinConfig};
    use spatial_index::naive_join;
    use urban_data::filter::Filter;
    use urban_data::gen::corpus::uniform_points;
    use urban_data::gen::regions::voronoi_neighborhoods;
    use urban_data::query::AggKind;
    use urban_data::time::TimeRange;
    use urbane_geom::BoundingBox;

    // Delegates to the shared corpus generator — same draw order as the
    // historical in-module copy, so tables (and results) are unchanged.
    fn random_points(n: usize, seed: u64, extent: &BoundingBox) -> PointTable {
        uniform_points(extent, n, seed, 10.0)
    }

    #[test]
    fn prepared_bounded_matches_one_shot() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let regions = voronoi_neighborhoods(&extent, 12, 3, 2);
        let points = random_points(3_000, 1, &extent);
        let q = SpatialAggQuery::new(AggKind::Sum("v".into()));

        let one_shot = RasterJoin::new(RasterJoinConfig::with_resolution(256))
            .execute(&points, &regions, &q)
            .unwrap();
        let prepared =
            PreparedRasterJoin::prepare(&regions, CanvasSpec::Resolution(256), 2048, ExecutionMode::Bounded)
                .unwrap();
        let got = prepared.execute(&points, &q).unwrap();
        assert_eq!(got.table.values(), one_shot.table.values());
        assert_eq!(got.epsilon, one_shot.epsilon);
        assert!(prepared.cached_pixels > 0);
    }

    #[test]
    fn prepared_accurate_matches_naive() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let regions = voronoi_neighborhoods(&extent, 10, 7, 2);
        let points = random_points(2_000, 2, &extent);
        let prepared =
            PreparedRasterJoin::prepare(&regions, CanvasSpec::Resolution(96), 2048, ExecutionMode::Accurate)
                .unwrap();
        for agg in [AggKind::Count, AggKind::Avg("v".into()), AggKind::Max("v".into())] {
            let q = SpatialAggQuery::new(agg.clone());
            let truth = naive_join(&points, &regions, &q).unwrap();
            let got = prepared.execute(&points, &q).unwrap();
            for r in 0..regions.len() {
                match (truth.value(r), got.table.value(r)) {
                    (None, None) => {}
                    (Some(a), Some(b)) => assert!(
                        (a - b).abs() < 1e-3 * a.abs().max(1.0),
                        "{agg:?} region {r}: {a} vs {b}"
                    ),
                    (a, b) => panic!("{agg:?} region {r}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn prepared_replays_many_filters() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 50.0, 50.0);
        let regions = voronoi_neighborhoods(&extent, 8, 5, 1);
        let points = random_points(1_000, 3, &extent);
        let prepared =
            PreparedRasterJoin::prepare(&regions, CanvasSpec::Resolution(128), 2048, ExecutionMode::Accurate)
                .unwrap();
        let one_shot = RasterJoin::new(RasterJoinConfig::accurate(128));

        // Same prepared join, five different ad-hoc filter windows.
        for lo in (0..1_000).step_by(200) {
            let q = SpatialAggQuery::count()
                .filter(Filter::Time(TimeRange::new(lo, lo + 300)));
            let a = prepared.execute(&points, &q).unwrap();
            let b = one_shot.execute(&points, &regions, &q).unwrap();
            assert_eq!(a.table.values(), b.table.values(), "window starting {lo}");
        }
    }

    #[test]
    fn prepared_with_tiling() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let regions = voronoi_neighborhoods(&extent, 6, 9, 1);
        let points = random_points(1_500, 4, &extent);
        let q = SpatialAggQuery::count();
        let single =
            PreparedRasterJoin::prepare(&regions, CanvasSpec::Resolution(256), 4096, ExecutionMode::Bounded)
                .unwrap();
        let tiled =
            PreparedRasterJoin::prepare(&regions, CanvasSpec::Resolution(256), 100, ExecutionMode::Bounded)
                .unwrap();
        assert!(tiled.tiles.len() > 1);
        assert_eq!(
            single.execute(&points, &q).unwrap().table.values(),
            tiled.execute(&points, &q).unwrap().table.values()
        );
    }

    #[test]
    fn empty_region_set_rejected() {
        let empty = RegionSet::new("none", vec![]);
        assert!(PreparedRasterJoin::prepare(
            &empty,
            CanvasSpec::Resolution(64),
            2048,
            ExecutionMode::Bounded
        )
        .is_err());
    }
}
