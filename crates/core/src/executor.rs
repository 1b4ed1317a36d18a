//! The public Raster Join executor: configuration, the tiled (optionally
//! multithreaded) replay of a prepared region raster, and result merging.

use crate::budget::QueryBudget;
use crate::canvas::CanvasSpec;
use crate::compiled::{CompiledQuery, PointStore, ZoneStats};
use crate::prepared::{PassSource, PointPass, PreparedRasterJoin, TilePass};
use crate::{RasterJoinError, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use gpu_raster::RenderStats;
use urban_data::query::{AggTable, SpatialAggQuery};
use urban_data::{PointTable, RegionSet};

/// Stand-in for `benchmark/probe`, which reads this name; nothing in the
/// workspace bins a table. It goes in the next `benchmark` change.
#[doc(hidden)]
pub const MIN_AUTO_BIN_POINTS: usize = 4096;

/// Bounded (ε-approximate), weighted (coverage-corrected), or accurate
/// (exact) execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Fast path: per-point error bounded by the plan's ε.
    Bounded,
    /// Boundary pixels folded fractionally by exact area coverage: expected
    /// counts are exact under the in-pixel-uniformity model, at a fraction
    /// of the accurate variant's cost. COUNT/SUM/AVG become real-valued.
    Weighted,
    /// Hybrid path: boundary pixels fixed up with exact PIP tests.
    Accurate,
    /// Exact index join over a resident table or an out-of-core `.ubs` store
    /// (`spatial_index`'s zone walk, a grid probe of the regions and exact
    /// PIP). Executes in `urbane::UrbaneService`, not through the raster
    /// pipeline — the raster executors reject it with a config error.
    IndexJoin,
}

/// Raster Join configuration.
#[derive(Debug, Clone)]
pub struct RasterJoinConfig {
    /// Accuracy/resolution request.
    pub spec: CanvasSpec,
    /// Texture-size limit per tile (`GL_MAX_TEXTURE_SIZE` analogue).
    pub max_tile: u32,
    /// Bounded, weighted or accurate execution.
    pub mode: ExecutionMode,
    /// Worker threads for multi-tile plans (1 = serial).
    pub threads: usize,
    /// Injected faults for guardrail testing (feature-gated; `None` in
    /// normal operation).
    #[cfg(feature = "fault-injection")]
    pub faults: Option<crate::fault::FaultPlan>,
}

impl Default for RasterJoinConfig {
    fn default() -> Self {
        RasterJoinConfig {
            spec: CanvasSpec::Resolution(1024),
            max_tile: 2048,
            mode: ExecutionMode::Bounded,
            threads: 1,
            #[cfg(feature = "fault-injection")]
            faults: None,
        }
    }
}

impl RasterJoinConfig {
    /// Bounded execution with a guaranteed error of `epsilon` world units.
    pub fn with_epsilon(epsilon: f64) -> Self {
        RasterJoinConfig { spec: CanvasSpec::Epsilon(epsilon), ..Default::default() }
    }

    /// Bounded execution at an explicit canvas resolution.
    pub fn with_resolution(resolution: u32) -> Self {
        RasterJoinConfig { spec: CanvasSpec::Resolution(resolution), ..Default::default() }
    }

    /// Coverage-weighted execution at the given canvas resolution.
    pub fn weighted(resolution: u32) -> Self {
        RasterJoinConfig {
            spec: CanvasSpec::Resolution(resolution),
            mode: ExecutionMode::Weighted,
            ..Default::default()
        }
    }

    /// Accurate (exact) execution at the given canvas resolution — the
    /// resolution here is a performance knob, not an accuracy knob.
    pub fn accurate(resolution: u32) -> Self {
        RasterJoinConfig {
            spec: CanvasSpec::Resolution(resolution),
            mode: ExecutionMode::Accurate,
            ..Default::default()
        }
    }
}

/// The answer plus execution metadata.
#[derive(Debug, Clone)]
pub struct RasterJoinResult {
    /// Per-region aggregates.
    pub table: AggTable,
    /// The guaranteed per-point positional error bound (0-equivalent for
    /// accurate mode, where the fix-up removes it; still reported for the
    /// underlying canvas).
    pub epsilon: f64,
    /// Canvas geometry used.
    pub canvas_width: u32,
    /// Canvas height.
    pub canvas_height: u32,
    /// Number of tiles rendered.
    pub tiles: usize,
    /// Merged pipeline statistics.
    pub stats: RenderStats,
    /// How the table's zones were classified against the filters.
    pub zones: ZoneStats,
}

/// One tile's answer: its table, what its draw did, and the drawn tile
/// when the pass is kept.
type TileAnswer = (AggTable, RenderStats, Option<TilePass>);

/// The Raster Join operator.
#[derive(Debug, Clone)]
pub struct RasterJoin {
    config: RasterJoinConfig,
}

impl RasterJoin {
    /// Operator with the given configuration.
    pub fn new(config: RasterJoinConfig) -> Self {
        RasterJoin { config }
    }

    /// Operator with defaults (bounded, 1024-px canvas).
    pub fn with_defaults() -> Self {
        Self::new(RasterJoinConfig::default())
    }

    /// Evaluate `query` joining `points` with `regions`, without deadline or
    /// cancellation (an unlimited budget).
    pub fn execute(
        &self,
        points: &PointTable,
        regions: &RegionSet,
        query: &SpatialAggQuery,
    ) -> Result<RasterJoinResult> {
        self.execute_store(PointStore::plain(points), regions, query, &QueryBudget::unlimited())
    }

    /// Stand-in for `benchmark/probe`, which calls this name: the batched
    /// executor is gone (DESIGN.md §14), so this runs
    /// [`execute_store`](Self::execute_store) per query, in order, and the
    /// probe's `core.batch_k4_ms_per_query` reads the serial cost. Delete it
    /// when a `benchmark` PR drops that probe row.
    #[doc(hidden)]
    pub fn execute_batch_store(
        &self,
        store: PointStore<'_>,
        regions: &RegionSet,
        queries: &[SpatialAggQuery],
        budget: &QueryBudget,
    ) -> Result<Vec<RasterJoinResult>> {
        queries.iter().map(|q| self.execute_store(store, regions, q, budget)).collect()
    }

    /// Evaluate `query` against a caller-provided [`PointStore`] under
    /// `budget`: prepare the region raster for this one query, then replay
    /// it. A table laid out by [`PointTable::cluster`] lets each tile step
    /// over the zones that miss it; one in any other order is scanned whole
    /// by every tile. A raised cancel flag or an elapsed deadline aborts
    /// within milliseconds ([`RasterJoinError::Cancelled`] /
    /// [`RasterJoinError::DeadlineExceeded`]); a panicking tile worker is
    /// caught as [`RasterJoinError::Internal`] and the process survives.
    pub fn execute_store(
        &self,
        store: PointStore<'_>,
        regions: &RegionSet,
        query: &SpatialAggQuery,
        budget: &QueryBudget,
    ) -> Result<RasterJoinResult> {
        let c = &self.config;
        let prepared =
            PreparedRasterJoin::prepare_with_budget(regions, c.spec, c.max_tile, c.mode, budget)?;
        Ok(self.execute_pass(&prepared, store, query, budget, PassSource::Draw)?.0)
    }

    /// Replay `prepared` for `query` with its point pass from `source` — the
    /// one tile loop every raster query runs. The canvas, tiling and mode
    /// are the prepared raster's; this operator contributes its worker
    /// threads and fault plan. [`PassSource::Keep`] hands the drawn pass
    /// back. [`PassSource::Reuse`] draws nothing, so the result's
    /// [`RenderStats`] and [`ZoneStats`] are zero, and fails with
    /// [`RasterJoinError::Config`] on a pass that does not
    /// [cover](PointPass::covers) `prepared`.
    pub fn execute_pass(
        &self,
        prepared: &PreparedRasterJoin,
        store: PointStore<'_>,
        query: &SpatialAggQuery,
        budget: &QueryBudget,
        source: PassSource<'_>,
    ) -> Result<(RasterJoinResult, Option<PointPass>)> {
        budget.check()?;
        if let PassSource::Reuse(pass) = source {
            if !pass.covers(prepared) {
                return Err(RasterJoinError::Config(
                    "the kept point pass does not cover this raster".into(),
                ));
            }
        }
        // Compile once per query: the value column is resolved and every
        // zone classified up front, so each tile's walk masks only the zones
        // that reach it, testing only the conditions their footers left open.
        let cq = CompiledQuery::new(store.table(), query)?;
        let store = &store;
        let cq = &cq;

        // Per-tile body: budget poll, fault hook, then the tile's answer in
        // a panic shield so one bad tile cannot take the process down.
        let run_tile = |idx: usize| -> Result<TileAnswer> {
            budget.check()?;
            // The fault hook runs inside the shield: an injected panic must
            // travel the same unwind path a real kernel panic would.
            let caught = catch_unwind(AssertUnwindSafe(|| -> Result<TileAnswer> {
                #[cfg(feature = "fault-injection")]
                if let Some(faults) = &self.config.faults {
                    faults.on_tile_start(idx, budget)?;
                }
                prepared.answer_tile(idx, store, cq, budget, source)
            }));
            caught.unwrap_or_else(|payload| {
                Err(RasterJoinError::Internal(format!(
                    "tile worker panicked: {}",
                    gpu_raster::tile::panic_message(payload.as_ref())
                )))
            })
        };

        let n_tiles = prepared.tiles.len();
        let threads = self.config.threads.max(1).min(n_tiles);
        let answers: Vec<TileAnswer> = if threads == 1 {
            (0..n_tiles).map(run_tile).collect::<Result<_>>()?
        } else {
            // Work-stealing: a shared cursor hands out tiles one at a time,
            // so a hot tile (hotspot-skewed data) occupies one worker while
            // the rest drain the remaining tiles — no chunk serializes behind
            // it. Workers report per-tile results keyed by tile index; the
            // merge below replays them in tile order, which keeps the f64
            // merge arithmetic — and therefore the answer — independent of
            // the thread count and of scheduling races.
            type TileOut = (usize, TileAnswer);
            let cursor = AtomicUsize::new(0);
            let abort = AtomicBool::new(false);
            let worker_outs: Vec<(Vec<TileOut>, Option<RasterJoinError>)> =
                std::thread::scope(|scope| {
                    let (run_tile, cursor, abort) = (&run_tile, &cursor, &abort);
                    let handles: Vec<_> = (0..threads)
                        .map(|_| {
                            scope.spawn(move || {
                                let mut done: Vec<TileOut> = Vec::new();
                                loop {
                                    // First failure raises the abort flag:
                                    // the other workers stop pulling tiles
                                    // and drain cleanly.
                                    // Acquire pairs with the Release store
                                    // below: an observed abort happens-after
                                    // everything the failing worker did.
                                    if abort.load(Ordering::Acquire) {
                                        return (done, None);
                                    }
                                    // lint: relaxed-ok work-dispenser counter; the increment itself is the only coordination, tile results are published via join
                                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                                    if idx >= n_tiles {
                                        return (done, None);
                                    }
                                    match run_tile(idx) {
                                        Ok(out) => done.push((idx, out)),
                                        Err(e) => {
                                            // Release: cross-thread control
                                            // flag; pairs with the Acquire
                                            // load at the top of the loop.
                                            abort.store(true, Ordering::Release);
                                            return (done, Some(e));
                                        }
                                    }
                                }
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| {
                            h.join().unwrap_or_else(|payload| {
                                // Unreachable in practice (run_tile catches
                                // kernel panics), but keep the worker fallible
                                // rather than re-panicking the caller.
                                (
                                    Vec::new(),
                                    Some(RasterJoinError::Internal(format!(
                                        "tile worker panicked: {}",
                                        gpu_raster::tile::panic_message(payload.as_ref())
                                    ))),
                                )
                            })
                        })
                        .collect()
                });
            // Prefer an Internal diagnosis over the cancellations it causes.
            let mut first_err: Option<RasterJoinError> = None;
            let mut parts: Vec<TileOut> = Vec::new();
            for (done, err) in worker_outs {
                parts.extend(done);
                if let Some(e) = err {
                    let internal = matches!(e, RasterJoinError::Internal(_));
                    if first_err.is_none()
                        || (internal && !matches!(first_err, Some(RasterJoinError::Internal(_))))
                    {
                        first_err = Some(e);
                    }
                }
            }
            if let Some(e) = first_err {
                return Err(e);
            }
            parts.sort_unstable_by_key(|&(idx, _)| idx);
            parts.into_iter().map(|(_, answer)| answer).collect()
        };

        let mut table = AggTable::new(cq.agg.clone(), prepared.regions.len());
        let mut stats = RenderStats::new();
        let mut kept = Vec::new();
        for (t, s, tile) in answers {
            table.merge(&t)?;
            stats.merge(&s);
            kept.extend(tile);
        }
        let reused = matches!(source, PassSource::Reuse(_));
        let result = RasterJoinResult {
            table,
            epsilon: prepared.epsilon,
            canvas_width: prepared.canvas.0,
            canvas_height: prepared.canvas.1,
            tiles: n_tiles,
            stats,
            zones: if reused { ZoneStats::default() } else { cq.zones },
        };
        let pass = matches!(source, PassSource::Keep(_)).then_some(PointPass { tiles: kept });
        Ok((result, pass))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_index::naive_join;
    use urban_data::gen::corpus::uniform_points;
    use urban_data::gen::regions::{grid_regions, voronoi_neighborhoods};
    use urban_data::query::AggKind;
    use urbane_geom::BoundingBox;

    // Delegates to the shared corpus generator — same draw order as the
    // historical in-module copy, so tables (and results) are unchanged.
    fn random_points(n: usize, seed: u64, extent: &BoundingBox) -> PointTable {
        uniform_points(extent, n, seed, 10.0)
    }

    #[test]
    fn accurate_mode_matches_naive_end_to_end() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let regions = voronoi_neighborhoods(&extent, 12, 2, 2);
        let points = random_points(3_000, 1, &extent);
        let rj = RasterJoin::new(RasterJoinConfig::accurate(64));
        let q = SpatialAggQuery::count();
        let res = rj.execute(&points, &regions, &q).unwrap();
        let truth = naive_join(&points, &regions, &q).unwrap();
        assert_eq!(res.table.values(), truth.values());
    }

    #[test]
    fn bounded_error_respects_epsilon() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let regions = voronoi_neighborhoods(&extent, 10, 8, 2);
        let points = random_points(5_000, 2, &extent);
        let q = SpatialAggQuery::count();
        let truth = naive_join(&points, &regions, &q).unwrap();

        // Coarse canvas → some error, but only from points within ε of a
        // boundary. Verify every misassigned point is within ε.
        let rj = RasterJoin::new(RasterJoinConfig::with_epsilon(2.0));
        let res = rj.execute(&points, &regions, &q).unwrap();
        assert!(res.epsilon <= 2.0 + 1e-9);
        let mut misassigned = 0u64;
        for r in 0..regions.len() {
            let a = res.table.states[r].count as i64;
            let b = truth.states[r].count as i64;
            misassigned += (a - b).unsigned_abs();
        }
        // Bound check: all misassigned points must be within ε of a boundary.
        let near_boundary = (0..points.len())
            .filter(|&i| {
                let p = points.loc(i);
                regions.iter().any(|(_, _, g)| {
                    g.polygons()
                        .iter()
                        .flat_map(|poly| poly.edges())
                        .any(|e| e.distance_to_point(p) <= res.epsilon)
                })
            })
            .count() as u64;
        assert!(
            misassigned <= 2 * near_boundary,
            "misassigned {misassigned} vs near-boundary {near_boundary}"
        );
        // Points can only be dropped entirely when they sit within ε of the
        // region set's *outer* edge (their pixel's center may fall outside
        // every region); everything else lands somewhere.
        let near_outer_edge = (0..points.len())
            .filter(|&i| {
                let p = points.loc(i);
                let b = regions.bbox();
                (p.x - b.min.x).min(b.max.x - p.x).min(p.y - b.min.y).min(b.max.y - p.y)
                    <= res.epsilon
            })
            .count() as u64;
        let lost = truth.total_count().saturating_sub(res.table.total_count());
        assert!(
            lost <= near_outer_edge,
            "lost {lost} points but only {near_outer_edge} are within ε of the outer edge"
        );
    }

    #[test]
    fn finer_resolution_reduces_error() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let regions = voronoi_neighborhoods(&extent, 15, 5, 2);
        let points = random_points(4_000, 3, &extent);
        let q = SpatialAggQuery::count();
        let truth = naive_join(&points, &regions, &q).unwrap();
        let mut errors = Vec::new();
        for resolution in [32, 128, 512] {
            let rj = RasterJoin::new(RasterJoinConfig::with_resolution(resolution));
            let res = rj.execute(&points, &regions, &q).unwrap();
            errors.push(res.table.max_abs_diff(&truth));
        }
        assert!(errors[0] >= errors[1] && errors[1] >= errors[2], "errors {errors:?}");
        assert!(errors[2] <= errors[0]);
    }

    #[test]
    fn tiled_execution_matches_single_canvas() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let regions = voronoi_neighborhoods(&extent, 10, 6, 2);
        let points = random_points(3_000, 4, &extent);
        let q = SpatialAggQuery::new(AggKind::Sum("v".into()));

        let single = RasterJoin::new(RasterJoinConfig {
            spec: CanvasSpec::Resolution(256),
            max_tile: 4096,
            ..Default::default()
        });
        let tiled = RasterJoin::new(RasterJoinConfig {
            spec: CanvasSpec::Resolution(256),
            max_tile: 100, // forces a 3x3 tile grid
            ..Default::default()
        });
        let a = single.execute(&points, &regions, &q).unwrap();
        let b = tiled.execute(&points, &regions, &q).unwrap();
        assert!(b.tiles > 1);
        assert_eq!(a.table.values(), b.table.values());
    }

    #[test]
    fn threaded_tiles_match_serial() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let regions = voronoi_neighborhoods(&extent, 8, 10, 2);
        let points = random_points(2_000, 5, &extent);
        let q = SpatialAggQuery::count();
        let mk = |threads| {
            RasterJoin::new(RasterJoinConfig {
                spec: CanvasSpec::Resolution(300),
                max_tile: 128,
                threads,
                ..Default::default()
            })
        };
        let serial = mk(1).execute(&points, &regions, &q).unwrap();
        let par = mk(4).execute(&points, &regions, &q).unwrap();
        assert_eq!(serial.table.values(), par.table.values());
        assert_eq!(serial.stats.points_in, par.stats.points_in);
    }

    #[test]
    fn empty_region_set_rejected() {
        let points = random_points(10, 8, &BoundingBox::from_coords(0.0, 0.0, 1.0, 1.0));
        let rj = RasterJoin::with_defaults();
        let empty = RegionSet::new("none", vec![]);
        assert!(rj.execute(&points, &empty, &SpatialAggQuery::count()).is_err());
    }

    #[test]
    fn result_metadata_populated() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 50.0);
        let regions = grid_regions(&extent, 2, 2);
        let points = random_points(100, 9, &extent);
        let res = RasterJoin::new(RasterJoinConfig::with_resolution(200))
            .execute(&points, &regions, &SpatialAggQuery::count())
            .unwrap();
        assert_eq!(res.canvas_width, 200);
        assert!(res.canvas_height >= 99 && res.canvas_height <= 101);
        assert_eq!(res.tiles, 1);
        assert!(res.epsilon > 0.0);
        assert_eq!(res.stats.points_in, 100);
    }
}
