//! Prepared Raster Join — the polygon side of every raster query.
//!
//! The canvas is planned from the region set's bbox, never from the query,
//! so the polygon pass depends on (regions, canvas, mode) alone and runs
//! once: per tile and region, the covered pixels as row runs in the order
//! the scanline fill emitted them, plus the mode's boundary table
//! ([`crate::accurate`]: a boundary bitmap and each boundary pixel's
//! regions, looked up by the pixel's rank; [`crate::weighted`]: coverage
//! lists) — the software analogue of keeping the polygons resident on the
//! GPU.
//!
//! A query then runs in two steps per tile. *Draw* is the point pass: it
//! reads only the tile's viewport, the rows and the query, and in accurate
//! mode records every drawn row that lands on a recorded boundary pixel.
//! *Resolve* gathers each region's runs from the buffers, visiting only the
//! pixels the pass drew a row on (weighted: plus its boundary pixels by
//! coverage), then runs the accurate PIP tests over the
//! recorded rows on this raster's own boundary pixels, in row order. Since
//! draw never reads the polygons, a drawn pass can be kept as a
//! [`PointPass`] and resolved by every prepared raster with the same tile
//! viewports — the pyramid levels of one canvas — as long as its records
//! cover that raster's boundary pixels ([`PointPass::covers`]): the same
//! rows tested in the same order give the same answer, bit for bit.
//! [`RasterJoin::execute_store`] prepares and replays one query; a caller
//! that keeps a raster across queries (`urbane`'s service, which keeps one
//! per pyramid level, canvas and mode) replays it through
//! [`RasterJoin::execute_pass`], the one tile loop.

use crate::bounded::{fold_pixel, point_pass, PointBuffers};
use crate::budget::QueryBudget;
use crate::canvas::{CanvasPlan, CanvasSpec};
use crate::compiled::{CompiledQuery, PointStore};
use crate::executor::{ExecutionMode, RasterJoin, RasterJoinResult};
use crate::{accurate, weighted, RasterJoinError, Result};
use gpu_raster::polygon_scan::rasterize_rings;
use gpu_raster::RenderStats;
use std::borrow::Cow;
use std::ops::Range;
use urban_data::query::{AggState, AggTable, SpatialAggQuery};
use urban_data::{PointTable, RegionId, RegionSet, ZONE_ROWS};
use urbane_geom::projection::Viewport;
use urbane_geom::{BoundingBox, Point};

/// `len` covered pixels from pixel index `start` (`y · width + x`),
/// left to right within one row.
type Run = (u32, u32);

/// What a tile keeps for the pixels a region boundary crosses.
enum Boundary {
    /// Bounded mode: boundary pixels are gathered like any other.
    Gathered,
    /// Accurate mode: the boundary pixels, resolved per point with exact
    /// PIP tests.
    Exact(BoundaryTable),
    /// Weighted mode: `weights[offsets[r]..offsets[r + 1]]` are region `r`'s
    /// `(pixel, coverage)` pairs, pixel-ascending.
    Weighted { offsets: Vec<u32>, weights: Vec<(u32, f64)> },
}

/// Is pixel `pix` set in the one-bit-per-pixel bitmap `bits`?
#[inline(always)]
fn bit(bits: &[u64], pix: u32) -> bool {
    bits[pix as usize >> 6] & (1 << (pix & 63)) != 0
}

/// Call `f` on every pixel in `lo..hi` whose bit is set in `bits`,
/// ascending: a word at a time, the two end words masked to the range.
/// Not `SetBits` filtered to the range: that tests every set bit of the
/// end words against both ends, and a reused drill level answered ~14%
/// slower with it in paired benchmark runs.
#[inline(always)]
fn for_each_set(bits: &[u64], lo: usize, hi: usize, mut f: impl FnMut(usize)) {
    if lo >= hi {
        return;
    }
    let (first, last) = (lo >> 6, (hi - 1) >> 6);
    for (k, &word) in (first..).zip(&bits[first..=last]) {
        let mut word = word;
        if k == first {
            word &= u64::MAX << (lo & 63);
        }
        if k == last {
            word &= u64::MAX >> (63 - ((hi - 1) & 63));
        }
        while word != 0 {
            f(k << 6 | word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

/// Accurate mode's boundary pixels: one bit per tile pixel, set exactly for
/// the pixels a region boundary crosses — the test each drawn row makes
/// first — and each set pixel's regions, found by the pixel's rank among
/// the set bits.
struct BoundaryTable {
    bits: Vec<u64>,
    /// `ranks[k]` is the number of set bits in `bits[..k]`.
    ranks: Vec<u32>,
    /// `ids[first[r]..first[r + 1]]` are the regions whose boundary crosses
    /// the set pixel of rank `r`, ascending.
    first: Vec<u32>,
    ids: Vec<RegionId>,
}

impl BoundaryTable {
    /// The table of `pairs`, `(pixel, region)` sorted and without
    /// duplicates, on a tile of `pixels` pixels.
    fn new(pairs: &[(u32, RegionId)], pixels: usize) -> Self {
        let mut bits = vec![0u64; pixels.div_ceil(64)];
        let mut first = Vec::new();
        for (k, &(pix, _)) in pairs.iter().enumerate() {
            if !bit(&bits, pix) {
                bits[pix as usize >> 6] |= 1 << (pix & 63);
                first.push(k as u32);
            }
        }
        first.push(pairs.len() as u32);
        let ranks = bits
            .iter()
            .scan(0u32, |below, word| {
                let rank = *below;
                *below += word.count_ones();
                Some(rank)
            })
            .collect();
        BoundaryTable { bits, ranks, first, ids: pairs.iter().map(|&(_, id)| id).collect() }
    }

    /// The regions whose boundary crosses pixel `pix`, whose bit is set.
    #[inline]
    fn regions(&self, pix: u32) -> &[RegionId] {
        let word = pix as usize >> 6;
        let below = self.bits[word] & ((1u64 << (pix & 63)) - 1);
        let rank = (self.ranks[word] + below.count_ones()) as usize;
        &self.ids[self.first[rank] as usize..self.first[rank + 1] as usize]
    }
}

/// A drawn row on a recorded boundary pixel, as the accurate resolve reads
/// it: its pixel, location and aggregated value (0 for COUNT).
struct BoundaryRow {
    pix: u32,
    p: Point,
    v: f64,
}

/// One tile's point pass: the accumulation buffers, and the drawn rows on
/// the pixels of `mask`, in row order.
pub(crate) struct TilePass {
    viewport: Viewport,
    bufs: PointBuffers,
    /// One bit per tile pixel: the pixels whose rows `rows` holds. Empty
    /// when no row was recorded (bounded and weighted mode).
    mask: Vec<u64>,
    rows: Vec<BoundaryRow>,
}

/// A drawn point pass over every tile of one canvas plan, kept to be
/// resolved again by any prepared raster it [covers](Self::covers).
pub struct PointPass {
    pub(crate) tiles: Vec<TilePass>,
}

/// Where a replay takes its point pass from.
#[derive(Clone, Copy)]
pub enum PassSource<'a> {
    /// Draw it, and drop it with the query.
    Draw,
    /// Draw it and hand it back as a [`PointPass`]. In accurate mode it
    /// records the rows drawn on a boundary pixel of this raster or of any
    /// of these accurate rasters planned on the same tile viewports, so the
    /// pass covers all of them.
    Keep(&'a [&'a PreparedRasterJoin]),
    /// Resolve a kept pass that [covers](PointPass::covers) this raster
    /// instead of drawing: no zone is walked and no point drawn.
    Reuse(&'a PointPass),
}

impl PointPass {
    /// Can `prepared` resolve against this pass instead of drawing? Its
    /// tiles must have the same viewports, and in accurate mode every one of
    /// its boundary pixels must be among the recorded ones.
    pub fn covers(&self, prepared: &PreparedRasterJoin) -> bool {
        self.tiles.len() == prepared.tiles.len()
            && self.tiles.iter().zip(&prepared.tiles).all(|(kept, tile)| {
                kept.viewport == tile.viewport
                    && tile.boundary_bits().is_none_or(|own| {
                        own.len() == kept.mask.len()
                            && own.iter().zip(&kept.mask).all(|(o, m)| o & !m == 0)
                    })
            })
    }
}

/// Half-open pixel column and row ranges of one tile.
struct PixelRect {
    cols: Range<u32>,
    rows: Range<u32>,
}

/// One tile of the prepared raster.
pub(crate) struct PreparedTile {
    viewport: Viewport,
    /// `runs[offsets[r]..offsets[r + 1]]` are the gather runs of region `r`
    /// (its own boundary pixels left out, except in bounded mode).
    offsets: Vec<u32>,
    runs: Vec<Run>,
    boundary: Boundary,
}

/// Append pixel `(x, y)` (index `pix`) to the current region's runs, which
/// start at `runs[first]`: extend its last run when that ends just left of
/// the pixel on the same row, else open a new one.
fn push_pixel(runs: &mut Vec<Run>, first: usize, pix: u32, x: u32) {
    let own = runs.len() > first;
    match runs.last_mut() {
        Some((start, len)) if own && x > 0 && *start + *len == pix => *len += 1,
        _ => runs.push((pix, 1)),
    }
}

impl PreparedTile {
    /// Rasterize every region of `regions` in `viewport` for `mode`. The
    /// budget is polled once per region.
    pub(crate) fn build(
        viewport: &Viewport,
        regions: &RegionSet,
        mode: ExecutionMode,
        budget: &QueryBudget,
    ) -> Result<Self> {
        let w = viewport.width;
        let mut offsets = Vec::with_capacity(regions.len() + 1);
        offsets.push(0u32);
        let mut runs: Vec<Run> = Vec::new();
        let mut pairs: Vec<(u32, RegionId)> = Vec::new();
        let mut weight_offsets = vec![0u32];
        let mut weights: Vec<(u32, f64)> = Vec::new();
        // This region's own boundary pixels, sorted and deduped.
        let mut own: Vec<u32> = Vec::new();
        for (id, _, geom) in regions.iter() {
            budget.check()?;
            own.clear();
            let first = runs.len();
            if viewport.world.intersects(&geom.bbox()) {
                if mode != ExecutionMode::Bounded {
                    accurate::boundary_pixels(viewport, geom, &mut own);
                }
                for poly in geom.polygons() {
                    if !viewport.world.intersects(&poly.bbox()) {
                        continue;
                    }
                    let rings: Vec<Vec<Point>> = poly
                        .rings()
                        .map(|r| {
                            r.vertices().iter().map(|&p| viewport.world_to_screen(p)).collect()
                        })
                        .collect();
                    let refs: Vec<&[Point]> = rings.iter().map(|v| v.as_slice()).collect();
                    rasterize_rings(&refs, w, viewport.height, |x, y| {
                        let pix = y * w + x;
                        if own.binary_search(&pix).is_err() {
                            push_pixel(&mut runs, first, pix, x);
                        }
                    });
                }
                match mode {
                    ExecutionMode::Accurate => pairs.extend(own.iter().map(|&pix| (pix, id))),
                    ExecutionMode::Weighted => {
                        weighted::coverage_weights(viewport, geom, &own, &mut weights)
                    }
                    _ => {}
                }
            }
            offsets.push(runs.len() as u32);
            weight_offsets.push(weights.len() as u32);
        }
        let boundary = match mode {
            ExecutionMode::Accurate => {
                pairs.sort_unstable();
                Boundary::Exact(BoundaryTable::new(&pairs, w as usize * viewport.height as usize))
            }
            ExecutionMode::Weighted => Boundary::Weighted { offsets: weight_offsets, weights },
            _ => Boundary::Gathered,
        };
        Ok(PreparedTile { viewport: *viewport, offsets, runs, boundary })
    }

    /// Fold region `r`'s runs into `state`, in emission order, visiting
    /// only the pixels the pass drew a row on (`bufs.occupied`) inside
    /// `clip`: the others drew no row, and [`fold_pixel`] skips those
    /// anyway, so the fold order and the state do not change.
    fn gather(&self, r: usize, state: &mut AggState, bufs: &PointBuffers, clip: &PixelRect) {
        let w = self.viewport.width;
        let runs = &self.runs[self.offsets[r] as usize..self.offsets[r + 1] as usize];
        for &(start, len) in runs {
            let (x0, y) = (start % w, start / w);
            if !clip.rows.contains(&y) {
                continue;
            }
            let base = (y * w) as usize;
            let (lo, hi) = (x0.max(clip.cols.start), (x0 + len).min(clip.cols.end));
            for_each_set(&bufs.occupied, base + lo as usize, base + hi as usize, |pix| {
                fold_pixel(state, bufs, pix)
            });
        }
    }

    /// The pixels a row inside the closed box `bbox` can be drawn on, with a
    /// one-pixel margin; the whole tile without a box. The projection is
    /// monotone in each coordinate, so a row in the box lands between the
    /// pixels of the box's corners.
    fn clip(&self, bbox: Option<&BoundingBox>) -> PixelRect {
        let (w, h) = (self.viewport.width, self.viewport.height);
        let Some(b) = bbox else {
            return PixelRect { cols: 0..w, rows: 0..h };
        };
        // Screen y grows downward: the box's top edge is its first row.
        let (lo, hi) = (self.viewport.world_to_screen(b.min), self.viewport.world_to_screen(b.max));
        // A NaN end widens to the tile's edge: `f64::max`/`min` drop NaN.
        let span = |first: f64, last: f64, n: u32| {
            (first.floor() - 1.0).max(0.0) as u32..(last.floor() + 2.0).min(n as f64) as u32
        };
        PixelRect { cols: span(lo.x, hi.x, w), rows: span(hi.y, lo.y, h) }
    }

    /// The accurate boundary bitmap; `None` in the other modes.
    fn boundary_bits(&self) -> Option<&[u64]> {
        match &self.boundary {
            Boundary::Exact(table) => Some(&table.bits),
            _ => None,
        }
    }

    /// Draw the points on this tile: the point pass, recording each drawn
    /// row whose pixel is set in `record`, in row order. The budget is
    /// polled per zone.
    fn draw(
        &self,
        points: &PointTable,
        cq: &CompiledQuery,
        budget: &QueryBudget,
        record: Option<&[u64]>,
    ) -> Result<(PointBuffers, Vec<BoundaryRow>, RenderStats)> {
        let mut rows = Vec::new();
        let (bufs, stats) = match record {
            Some(mask) => {
                let w = self.viewport.width;
                let col = cq.walk.agg_col();
                point_pass(&self.viewport, points, cq, budget, |zone, i, x, y| {
                    let pix = y * w + x;
                    if bit(mask, pix) {
                        let (xs, ys) = zone.locs();
                        let v = col.map_or(0.0, |c| zone.attr(c)[i] as f64);
                        rows.push(BoundaryRow {
                            pix,
                            p: Point::new(xs[i], ys[i]),
                            v,
                        });
                    }
                })?
            }
            None => point_pass(&self.viewport, points, cq, budget, |_, _, _, _| {})?,
        };
        Ok((bufs, rows, stats))
    }

    /// Resolve a drawn pass on this tile: per region its runs (and,
    /// weighted, its boundary pixels by coverage), skipping the pixels no
    /// row inside the query's box can be drawn on; then, accurate, the exact PIP
    /// tests of the recorded `rows` on this tile's own boundary pixels, in
    /// row order. The budget is polled per region and every [`ZONE_ROWS`]
    /// recorded rows.
    fn resolve(
        &self,
        bufs: &PointBuffers,
        rows: &[BoundaryRow],
        cq: &CompiledQuery,
        regions: &RegionSet,
        budget: &QueryBudget,
    ) -> Result<AggTable> {
        let clip = self.clip(cq.bbox.as_ref());
        let mut table = AggTable::new(cq.agg.clone(), regions.len());
        for (r, state) in table.states.iter_mut().enumerate() {
            budget.check()?;
            self.gather(r, state, bufs, &clip);
            if let Boundary::Weighted { offsets, weights } = &self.boundary {
                let own = &weights[offsets[r] as usize..offsets[r + 1] as usize];
                weighted::fold_boundary(state, bufs, own, self.viewport.width);
            }
        }
        if let Boundary::Exact(exact) = &self.boundary {
            for recorded in rows.chunks(ZONE_ROWS) {
                budget.check()?;
                for row in recorded.iter().filter(|row| bit(&exact.bits, row.pix)) {
                    for &id in exact.regions(row.pix) {
                        if regions.geometry(id).contains(row.p) {
                            table.states[id as usize].accumulate(row.v);
                        }
                    }
                }
            }
        }
        Ok(table)
    }
}

/// A Raster Join bound to one region set, canvas and mode, ready to answer
/// many queries over changing points and filters.
pub struct PreparedRasterJoin {
    pub(crate) tiles: Vec<PreparedTile>,
    pub(crate) epsilon: f64,
    pub(crate) canvas: (u32, u32),
    /// Kept so the accurate point pass can run exact PIP tests.
    pub(crate) regions: RegionSet,
}

impl PreparedRasterJoin {
    /// Rasterize `regions` once at the given canvas spec.
    pub fn prepare(
        regions: &RegionSet,
        spec: CanvasSpec,
        max_tile: u32,
        mode: ExecutionMode,
    ) -> Result<Self> {
        Self::prepare_with_budget(regions, spec, max_tile, mode, &QueryBudget::unlimited())
    }

    /// [`prepare`](Self::prepare) under `budget`, polled once per region per
    /// tile.
    pub fn prepare_with_budget(
        regions: &RegionSet,
        spec: CanvasSpec,
        max_tile: u32,
        mode: ExecutionMode,
        budget: &QueryBudget,
    ) -> Result<Self> {
        if regions.is_empty() {
            return Err(RasterJoinError::Config("empty region set".into()));
        }
        budget.check()?;
        if mode == ExecutionMode::IndexJoin {
            return Err(RasterJoinError::Config(
                "index join executes in the service layer, not the raster pipeline".into(),
            ));
        }
        let plan = CanvasPlan::plan(&regions.bbox(), spec, max_tile)?;
        let tiles = plan
            .tiles
            .iter()
            .map(|vp| PreparedTile::build(vp, regions, mode, budget))
            .collect::<Result<Vec<_>>>()?;
        Ok(PreparedRasterJoin {
            tiles,
            epsilon: plan.epsilon,
            canvas: (plan.width, plan.height),
            regions: regions.clone(),
        })
    }

    /// Answer one query on tile `idx`: draw its points, or take them from a
    /// kept pass that covers this raster, then resolve. With
    /// [`PassSource::Keep`] the drawn tile is handed back.
    pub(crate) fn answer_tile(
        &self,
        idx: usize,
        points: &PointTable,
        cq: &CompiledQuery,
        budget: &QueryBudget,
        source: PassSource<'_>,
    ) -> Result<(AggTable, RenderStats, Option<TilePass>)> {
        let tile = &self.tiles[idx];
        let mask = match source {
            PassSource::Reuse(pass) => {
                let kept = &pass.tiles[idx];
                let table = tile.resolve(&kept.bufs, &kept.rows, cq, &self.regions, budget)?;
                return Ok((table, RenderStats::new(), None));
            }
            PassSource::Keep(others) => self.record_mask(idx, others).map(Cow::Owned),
            PassSource::Draw => tile.boundary_bits().map(Cow::Borrowed),
        };
        let (bufs, rows, stats) = tile.draw(points, cq, budget, mask.as_deref())?;
        let table = tile.resolve(&bufs, &rows, cq, &self.regions, budget)?;
        let kept = matches!(source, PassSource::Keep(_)).then(|| TilePass {
            viewport: tile.viewport,
            bufs,
            mask: mask.map(Cow::into_owned).unwrap_or_default(),
            rows,
        });
        Ok((table, stats, kept))
    }

    /// Tile `idx`'s record mask for a kept pass: its own boundary bitmap
    /// ORed with those of the accurate `others` planned on the same tile
    /// viewports. `None` outside accurate mode: nothing is recorded.
    fn record_mask(&self, idx: usize, others: &[&PreparedRasterJoin]) -> Option<Vec<u64>> {
        let mut mask = self.tiles[idx].boundary_bits()?.to_vec();
        let same_plan = |other: &PreparedRasterJoin| {
            other.tiles.len() == self.tiles.len()
                && other
                    .tiles
                    .iter()
                    .zip(&self.tiles)
                    .all(|(a, b)| a.viewport == b.viewport)
        };
        for other in others.iter().filter(|o| same_plan(o)) {
            if let Some(bits) = other.tiles[idx].boundary_bits() {
                mask.iter_mut().zip(bits).for_each(|(m, b)| *m |= b);
            }
        }
        Some(mask)
    }

    /// Answer one query without deadline or cancellation.
    pub fn execute(&self, points: &PointTable, query: &SpatialAggQuery) -> Result<RasterJoinResult> {
        self.execute_store(PointStore::plain(points), query, &QueryBudget::unlimited())
    }

    /// Replay a query against a caller-provided [`PointStore`], without
    /// injected faults (see [`RasterJoin::execute_pass`] for the configured
    /// tile loop).
    pub fn execute_store(
        &self,
        store: PointStore<'_>,
        query: &SpatialAggQuery,
        budget: &QueryBudget,
    ) -> Result<RasterJoinResult> {
        let join = RasterJoin::with_defaults();
        Ok(join.execute_pass(self, store.table(), query, budget, PassSource::Draw)?.0)
    }
}

/// Prepare one tile over an explicit viewport, draw and resolve `query` on
/// it —
/// the per-mode unit tests' kernel.
#[cfg(test)]
pub(crate) fn replay_viewport(
    viewport: &Viewport,
    points: &PointTable,
    regions: &RegionSet,
    query: &SpatialAggQuery,
    mode: ExecutionMode,
) -> Result<(AggTable, RenderStats)> {
    let budget = QueryBudget::unlimited();
    let tile = PreparedTile::build(viewport, regions, mode, &budget)?;
    let cq = CompiledQuery::new(points, query)?;
    let (bufs, rows, stats) = tile.draw(points, &cq, &budget, tile.boundary_bits())?;
    Ok((tile.resolve(&bufs, &rows, &cq, regions, &budget)?, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::ZoneStats;
    use crate::executor::RasterJoinConfig;
    use spatial_index::naive_join;
    use urban_data::filter::Filter;
    use urban_data::gen::corpus::uniform_points;
    use urban_data::gen::regions::voronoi_neighborhoods;
    use urban_data::query::AggKind;
    use urban_data::time::TimeRange;
    use urbane_geom::{BoundingBox, Polygon};

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
        // Row runs, not pixels: far fewer entries than covered pixels.
        let runs = &prepared.tiles[0].runs;
        let pixels: u32 = runs.iter().map(|&(_, len)| len).sum();
        assert!(runs.len() * 8 < pixels as usize, "{} runs for {pixels} pixels", runs.len());
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

    /// Region 0's last covered pixel sits just left of region 1's first on
    /// the same row: a run must not carry it across the region boundary.
    #[test]
    fn runs_never_cross_regions() {
        let regions = RegionSet::from_polygons(
            "steps",
            "s",
            vec![
                Polygon::from_coords(&[(0.0, 8.0), (8.0, 8.0), (8.0, 16.0), (0.0, 16.0)]).unwrap(),
                Polygon::from_coords(&[(8.0, 0.0), (16.0, 0.0), (16.0, 9.0), (8.0, 9.0)]).unwrap(),
            ],
        );
        let vp = Viewport::new(BoundingBox::from_coords(0.0, 0.0, 16.0, 16.0), 16, 16);
        let mut points = PointTable::new(urban_data::schema::Schema::empty());
        points.push(Point::new(8.5, 8.5), 0, &[]).unwrap();
        let q = SpatialAggQuery::count();
        let (t, _) = replay_viewport(&vp, &points, &regions, &q, ExecutionMode::Bounded).unwrap();
        assert_eq!((t.value(0), t.value(1)), (None, Some(1.0)));
    }

    /// A row with a NaN coordinate lies in no region: bounded and accurate
    /// mode agree with the naive join and credit it nowhere (it once landed
    /// in the canvas's left column or top row).
    #[test]
    fn nan_rows_count_nowhere() {
        use urban_data::gen::regions::grid_regions;
        let regions = grid_regions(&BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0), 2, 2);
        let mut points = PointTable::new(urban_data::schema::Schema::empty());
        for (x, y) in [(f64::NAN, 75.0), (25.0, f64::NAN), (f64::NAN, f64::NAN), (80.0, 30.0)] {
            points.push(Point::new(x, y), 0, &[]).unwrap();
        }
        let q = SpatialAggQuery::count();
        let truth = naive_join(&points, &regions, &q).unwrap();
        assert_eq!(truth.values().iter().flatten().sum::<f64>(), 1.0);
        for mode in [ExecutionMode::Bounded, ExecutionMode::Accurate] {
            let prepared =
                PreparedRasterJoin::prepare(&regions, CanvasSpec::Resolution(64), 2048, mode).unwrap();
            assert_eq!(prepared.execute(&points, &q).unwrap().table.values(), truth.values(), "{mode:?}");
        }
    }

    /// The gather skips the pixels outside the spatial filter's rectangle;
    /// answers must be bit-identical to the unclipped gather for boxes on the
    /// canvas's open edges, partly or wholly outside it, of zero area, and
    /// for the intersection of two boxes — in every mode, on every tile.
    #[test]
    fn clipped_gather_matches_unclipped() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let regions = voronoi_neighborhoods(&extent, 12, 11, 1);
        let mut points = random_points(4_000, 5, &BoundingBox::from_coords(-5.0, -5.0, 105.0, 105.0));
        let world = CanvasPlan::plan(&regions.bbox(), CanvasSpec::Resolution(96), 2048).unwrap().world;
        let (x1, y0) = (world.max.x, world.min.y);
        let boxes: Vec<Vec<BoundingBox>> = vec![
            vec![BoundingBox::from_coords(50.0, y0, x1, 50.0)], // open right and bottom edges
            vec![BoundingBox::from_coords(-20.0, -20.0, 30.0, 30.0)], // partly outside
            vec![BoundingBox::from_coords(70.0, 60.0, 200.0, 200.0)],
            vec![BoundingBox::from_coords(200.0, 200.0, 300.0, 300.0)], // wholly outside
            vec![BoundingBox::from_coords(40.0, 40.0, 40.0, 40.0)], // zero area
            vec![BoundingBox::from_coords(40.0, 10.0, 40.0, 90.0)],
            vec![
                BoundingBox::from_coords(10.0, 10.0, 60.0, 60.0),
                BoundingBox::from_coords(30.0, 25.0, 90.0, 90.0),
            ],
            vec![
                BoundingBox::from_coords(10.0, 10.0, 30.0, 30.0),
                BoundingBox::from_coords(50.0, 50.0, 90.0, 90.0),
            ],
        ];
        // Rows on every box's corners and edge midpoints, so the pixels on
        // the rectangle's edges hold counts.
        for b in boxes.iter().flatten() {
            let (mx, my) = ((b.min.x + b.max.x) / 2.0, (b.min.y + b.max.y) / 2.0);
            for x in [b.min.x, mx, b.max.x] {
                for y in [b.min.y, my, b.max.y] {
                    points.push(Point::new(x, y), 0, &[x as f32 * 0.1 + 0.3]).unwrap();
                }
            }
        }
        let state_bits = |t: &AggTable| {
            t.states
                .iter()
                .map(|s| (s.count, [s.weight, s.sum, s.min, s.max].map(f64::to_bits)))
                .collect::<Vec<_>>()
        };
        let budget = QueryBudget::unlimited();
        let mut clipped = 0;
        for mode in [ExecutionMode::Bounded, ExecutionMode::Accurate, ExecutionMode::Weighted] {
            for max_tile in [2048, 40] {
                let prepared =
                    PreparedRasterJoin::prepare(&regions, CanvasSpec::Resolution(96), max_tile, mode).unwrap();
                for filters in &boxes {
                    for agg in [AggKind::Count, AggKind::Sum("v".into()), AggKind::Min("v".into())] {
                        let q = filters
                            .iter()
                            .fold(SpatialAggQuery::new(agg), |q, b| q.filter(Filter::SpatialBox(*b)));
                        let mut cq = CompiledQuery::new(&points, &q).unwrap();
                        let bbox = cq.bbox.expect("spatial filter");
                        for tile in &prepared.tiles {
                            let clip = tile.clip(Some(&bbox));
                            let (w, h) = (tile.viewport.width, tile.viewport.height);
                            clipped +=
                                usize::from(clip.cols.len() * clip.rows.len() < (w * h) as usize);
                            let (bufs, rows, _) =
                                tile.draw(&points, &cq, &budget, tile.boundary_bits()).unwrap();
                            let a = tile.resolve(&bufs, &rows, &cq, &regions, &budget).unwrap();
                            cq.bbox = None;
                            let b = tile.resolve(&bufs, &rows, &cq, &regions, &budget).unwrap();
                            cq.bbox = Some(bbox);
                            assert_eq!(state_bits(&a), state_bits(&b), "{mode:?} {filters:?} {q:?}");
                        }
                    }
                }
            }
        }
        assert!(clipped > 0);
    }

    /// One kept pass, drawn at the first of three region sets on one
    /// canvas, answers all three bit-identically to drawing their own in
    /// every mode; an accurate raster whose boundary rows it did not record,
    /// or another canvas, is not covered and is refused.
    #[test]
    fn kept_pass_answers_every_covered_raster() {
        use urban_data::gen::regions::grid_regions;
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let levels = [
            voronoi_neighborhoods(&extent, 5, 1, 1),
            voronoi_neighborhoods(&extent, 12, 2, 1),
            grid_regions(&extent, 4, 4),
        ];
        let points = random_points(3_000, 6, &extent);
        let join = RasterJoin::with_defaults();
        let budget = QueryBudget::unlimited();
        let bits = |t: &AggTable| {
            t.states
                .iter()
                .map(|s| (s.count, [s.weight, s.sum, s.min, s.max].map(f64::to_bits)))
                .collect::<Vec<_>>()
        };
        for mode in [
            ExecutionMode::Bounded,
            ExecutionMode::Accurate,
            ExecutionMode::Weighted,
        ] {
            for max_tile in [2048, 40] {
                let prepare = |r: &RegionSet, side| {
                    PreparedRasterJoin::prepare(r, CanvasSpec::Resolution(side), max_tile, mode)
                        .unwrap()
                };
                let rasters: Vec<PreparedRasterJoin> =
                    levels.iter().map(|r| prepare(r, 96)).collect();
                let all: Vec<&PreparedRasterJoin> = rasters.iter().collect();
                for agg in [
                    AggKind::Count,
                    AggKind::Sum("v".into()),
                    AggKind::Max("v".into()),
                ] {
                    let q =
                        SpatialAggQuery::new(agg).filter(Filter::Time(TimeRange::new(100, 700)));
                    let run =
                        |raster, source| join.execute_pass(raster, &points, &q, &budget, source);
                    let (first, pass) = run(&rasters[0], PassSource::Keep(&all)).unwrap();
                    let pass = pass.expect("a kept pass");
                    let want = rasters[0].execute(&points, &q).unwrap();
                    assert_eq!(bits(&first.table), bits(&want.table));
                    for raster in &rasters {
                        assert!(pass.covers(raster), "{mode:?}");
                        let (got, none) = run(raster, PassSource::Reuse(&pass)).unwrap();
                        assert!(none.is_none());
                        assert_eq!((got.stats.points_in, got.zones), (0, ZoneStats::default()));
                        let want = raster.execute(&points, &q).unwrap();
                        assert_eq!(bits(&got.table), bits(&want.table), "{mode:?} {q:?}");
                    }
                    // Recorded for the first level only.
                    let own = run(&rasters[0], PassSource::Keep(&[]))
                        .unwrap()
                        .1
                        .expect("a kept pass");
                    let accurate = mode == ExecutionMode::Accurate;
                    assert_eq!(own.covers(&rasters[1]), !accurate, "{mode:?}");
                    assert_eq!(
                        run(&rasters[1], PassSource::Reuse(&own)).is_err(),
                        accurate,
                        "{mode:?}"
                    );
                    // Another canvas plans other viewports.
                    assert!(!pass.covers(&prepare(&levels[0], 64)));
                }
            }
        }
    }

    /// Every aggregate state's bits, for bit-identity checks.
    fn state_bits(t: &AggTable) -> Vec<(u64, [u64; 4])> {
        t.states
            .iter()
            .map(|s| (s.count, [s.weight, s.sum, s.min, s.max].map(f64::to_bits)))
            .collect()
    }

    /// The gather walks only the occupied pixels of each run; folding every
    /// run pixel must give the same states bit for bit, with and without
    /// the spatial filter's clip, in every mode and aggregate. The table
    /// holds pixels drawn on only by rows valued 0.0 or −0.0 (a pixel is
    /// occupied by a drawn row, not by a non-zero value), negative values,
    /// NaN coordinates and rows on the canvas's open edges.
    #[test]
    fn occupied_gather_matches_dense_fold() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let regions = voronoi_neighborhoods(&extent, 12, 13, 1);
        let world = CanvasPlan::plan(&regions.bbox(), CanvasSpec::Resolution(96), 2048).unwrap().world;
        let schema = urban_data::schema::Schema::new([("v", urban_data::schema::AttrType::Numeric)])
            .unwrap();
        let mut points = PointTable::new(schema);
        let values = [0.0, -0.0, -3.5, 2.25, 0.0, -0.0, -0.125, 7.0];
        for k in 0..6_000usize {
            let (x, y) = ((k * 7_919 % 10_000) as f64 / 100.0, (k * 104_729 % 10_000) as f64 / 100.0);
            points.push(Point::new(x, y), k as i64, &[values[k % values.len()]]).unwrap();
        }
        let (x0, y0, x1, y1) = (world.min.x, world.min.y, world.max.x, world.max.y);
        let (mx, my) = ((x0 + x1) / 2.0, (y0 + y1) / 2.0);
        let edges = [
            (x1, my),
            (mx, y0),
            (x1, y0),
            (x1 - 1e-9, my),
            (mx, y0 + 1e-9),
            (x0, y1),
            (f64::NAN, my),
            (mx, f64::NAN),
        ];
        for (k, &(x, y)) in edges.iter().enumerate() {
            points.push(Point::new(x, y), k as i64, &[values[k % values.len()]]).unwrap();
        }
        let budget = QueryBudget::unlimited();
        let boxed = Filter::SpatialBox(BoundingBox::from_coords(20.0, 15.0, x1, 70.0));
        let col = || "v".to_string();
        let mut zero_only = 0;
        for mode in [ExecutionMode::Bounded, ExecutionMode::Accurate, ExecutionMode::Weighted] {
            for max_tile in [2048, 40] {
                let prepared =
                    PreparedRasterJoin::prepare(&regions, CanvasSpec::Resolution(96), max_tile, mode).unwrap();
                for agg in [
                    AggKind::Count,
                    AggKind::Sum(col()),
                    AggKind::Avg(col()),
                    AggKind::Min(col()),
                    AggKind::Max(col()),
                ] {
                    for filter in [None, Some(boxed.clone())] {
                        let q = filter
                            .into_iter()
                            .fold(SpatialAggQuery::new(agg.clone()), |q, f| q.filter(f));
                        let cq = CompiledQuery::new(&points, &q).unwrap();
                        for tile in &prepared.tiles {
                            let (bufs, _, _) = tile.draw(&points, &cq, &budget, None).unwrap();
                            let (mut dense, mut sparse, mut clipped) = (
                                AggTable::new(q.agg_kind(), regions.len()),
                                AggTable::new(q.agg_kind(), regions.len()),
                                AggTable::new(q.agg_kind(), regions.len()),
                            );
                            let whole = tile.clip(None);
                            let clip = tile.clip(cq.bbox.as_ref());
                            for r in 0..regions.len() {
                                let runs = &tile.runs[tile.offsets[r] as usize..tile.offsets[r + 1] as usize];
                                for &(start, len) in runs {
                                    for pix in start..start + len {
                                        fold_pixel(&mut dense.states[r], &bufs, pix as usize);
                                    }
                                }
                                tile.gather(r, &mut sparse.states[r], &bufs, &whole);
                                tile.gather(r, &mut clipped.states[r], &bufs, &clip);
                            }
                            assert_eq!(state_bits(&sparse), state_bits(&dense), "{mode:?} {q:?}");
                            assert_eq!(state_bits(&clipped), state_bits(&dense), "{mode:?} {q:?}");
                            zero_only += bufs
                                .count_sum
                                .as_slice()
                                .iter()
                                .filter(|&&[count, sum]| count > 0.0 && sum == 0.0)
                                .count();
                        }
                    }
                }
            }
        }
        assert!(zero_only > 0, "no pixel holds only zero-valued rows");
    }

    /// The rank lookup returns, for every set pixel of every accurate tile,
    /// the regions a binary search over the sorted `(pixel, region)` pairs
    /// finds, in the same order; and the set bits are exactly the pairs'
    /// pixels.
    #[test]
    fn boundary_rank_matches_binary_search() {
        use urban_data::gen::regions::grid_regions;
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let budget = QueryBudget::unlimited();
        let mut shared = 0;
        for regions in [voronoi_neighborhoods(&extent, 30, 17, 1), grid_regions(&extent, 7, 5)] {
            for (side, max_tile) in [(96, 2048), (200, 64), (333, 2048)] {
                let plan = CanvasPlan::plan(&regions.bbox(), CanvasSpec::Resolution(side), max_tile).unwrap();
                for vp in &plan.tiles {
                    let tile = PreparedTile::build(vp, &regions, ExecutionMode::Accurate, &budget).unwrap();
                    let Boundary::Exact(table) = &tile.boundary else { panic!("accurate tile") };
                    let mut pairs = Vec::new();
                    let mut own = Vec::new();
                    for (id, _, geom) in regions.iter() {
                        if vp.world.intersects(&geom.bbox()) {
                            own.clear();
                            accurate::boundary_pixels(vp, geom, &mut own);
                            pairs.extend(own.iter().map(|&pix| (pix, id)));
                        }
                    }
                    pairs.sort_unstable();
                    shared += pairs.len() + 1 - table.first.len();
                    assert_eq!(table.bits.len(), (vp.width * vp.height).div_ceil(64) as usize);
                    for pix in 0..vp.width * vp.height {
                        let lo = pairs.partition_point(|&(q, _)| q < pix);
                        let want: Vec<RegionId> =
                            pairs[lo..].iter().take_while(|&&(q, _)| q == pix).map(|&(_, id)| id).collect();
                        assert_eq!(bit(&table.bits, pix), !want.is_empty(), "pixel {pix}");
                        if !want.is_empty() {
                            assert_eq!(table.regions(pix), want.as_slice(), "pixel {pix}");
                        }
                    }
                }
            }
        }
        assert!(shared > 0, "no pixel has two regions");
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
