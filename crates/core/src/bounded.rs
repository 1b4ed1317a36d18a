//! Bounded (ε-approximate) Raster Join — the paper's fast path, and the
//! point pass every mode shares.
//!
//! One tile = one render target. The point pass accumulates per-pixel
//! `(count, Σvalue)` (plus min/max channels when the aggregate needs them)
//! with blending; each region's covered pixels, rasterized once by
//! [`PreparedRasterJoin`](crate::PreparedRasterJoin), are then folded into
//! its aggregate state. Every point is therefore resolved at pixel
//! granularity: its positional error is at most half the pixel diagonal —
//! the plan's ε.

use crate::budget::QueryBudget;
use crate::compiled::{CompiledQuery, PointStore};
use crate::Result;
use gpu_raster::blend::{BlendOp, Blendable};
use gpu_raster::{Buffer2D, Pipeline};
use urban_data::query::{AggKind, AggState};

/// Per-tile accumulation buffers produced by the point pass.
pub(crate) struct PointBuffers {
    /// Channel 0: point count, channel 1: Σ aggregated value.
    pub count_sum: Buffer2D<[f32; 2]>,
    /// Per-pixel min of the aggregated value (only for MIN aggregates).
    pub min: Option<Buffer2D<f32>>,
    /// Per-pixel max of the aggregated value (only for MAX aggregates).
    pub max: Option<Buffer2D<f32>>,
}

/// Points per budget poll in the point pass, and the zone size of a clustered
/// table: small enough that a raised cancel flag or an elapsed deadline lands
/// within a few milliseconds, large enough that the check cost vanishes
/// against the per-point work. One constant, so a chunk of the pass is
/// exactly one zone and skipping a zone skips one poll interval of work.
pub(crate) const POINT_CHUNK: usize = urban_data::ZONE_ROWS;

/// Render the point pass for one tile: select, project, blend. The stream is
/// processed in [`POINT_CHUNK`]-sized chunks with a budget check between
/// chunks, so cancellation interrupts the pass mid-stream; which chunks
/// there are (zones that can reach the tile, or slices of a binned store's
/// candidate rows) is [`CompiledQuery::for_each_chunk`]'s business. Rows
/// arrive ascending, so the per-pixel blend order — and therefore every f32
/// accumulation — is the same on every path. Each row is projected once:
/// the MIN/MAX channels blend in the same per-fragment step, which then
/// hands `on_fragment(row, x, y)` the row and its pixel. Values are read
/// straight from the resolved column — no per-chunk gather allocation.
pub(crate) fn point_pass(
    pipe: &mut Pipeline,
    store: &PointStore<'_>,
    cq: &CompiledQuery<'_>,
    budget: &QueryBudget,
    mut on_fragment: impl FnMut(usize, u32, u32),
) -> Result<PointBuffers> {
    let points = store.table();
    let (w, h) = (pipe.viewport().width, pipe.viewport().height);

    let mut count_sum = Buffer2D::new(w, h, [0.0f32; 2]);
    let needs_min = matches!(cq.agg, AggKind::Min(_));
    let needs_max = matches!(cq.agg, AggKind::Max(_));
    let mut min_buf = needs_min.then(|| Buffer2D::new(w, h, f32::INFINITY));
    let mut max_buf = needs_max.then(|| Buffer2D::new(w, h, f32::NEG_INFINITY));

    // The filtered fragment stream — this is the per-frame hot loop the
    // paper's performance argument rests on: one pass, one fragment each.
    let world = pipe.viewport().world;
    let column: Option<&[f32]> = cq.col.map(|c| points.column(c));
    cq.for_each_chunk(store, &world, budget, |idx| {
        pipe.draw_points_with(
            &mut count_sum,
            idx.iter().map(|&i| points.loc(i as usize)),
            |k| [1.0, column.map_or(0.0, |vals| vals[idx[k] as usize])],
            BlendOp::Add,
            |k, x, y| {
                let i = idx[k] as usize;
                if let Some(vals) = column {
                    if let Some(buf) = min_buf.as_mut() {
                        f32::blend(buf.get_mut(x, y), vals[i], BlendOp::Min);
                    }
                    if let Some(buf) = max_buf.as_mut() {
                        f32::blend(buf.get_mut(x, y), vals[i], BlendOp::Max);
                    }
                }
                on_fragment(i, x, y);
            },
        );
    })?;

    Ok(PointBuffers { count_sum, min: min_buf, max: max_buf })
}

/// Fold one pixel of the accumulation buffers into a region's state.
#[inline]
pub(crate) fn fold_pixel(state: &mut AggState, bufs: &PointBuffers, x: u32, y: u32) {
    let [count, sum] = bufs.count_sum.get(x, y);
    if count <= 0.0 {
        return;
    }
    state.count += count as u64;
    state.weight += count as f64; // full-weight fold: weight tracks count
    state.sum += sum as f64;
    if let Some(minb) = &bufs.min {
        state.min = state.min.min(minb.get(x, y) as f64);
    }
    if let Some(maxb) = &bufs.max {
        state.max = state.max.max(maxb.get(x, y) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutionMode;
    use urban_data::query::{AggKind, AggTable, SpatialAggQuery};
    use urban_data::schema::{AttrType, Schema};
    use urban_data::{PointTable, RegionSet};
    use urbane_geom::projection::Viewport;
    use urbane_geom::{BoundingBox, Point, Polygon};

    // One prepared tile over `viewport`, replayed once: these tests exercise
    // the join math, not the guardrails.
    fn bounded_tile(
        viewport: &Viewport,
        points: &PointTable,
        regions: &RegionSet,
        q: &SpatialAggQuery,
    ) -> Result<(AggTable, gpu_raster::RenderStats)> {
        crate::prepared::replay_viewport(viewport, points, regions, q, ExecutionMode::Bounded)
    }

    fn viewport() -> Viewport {
        Viewport::new(BoundingBox::from_coords(0.0, 0.0, 16.0, 16.0), 16, 16)
    }

    fn points() -> PointTable {
        let schema = Schema::new([("v", AttrType::Numeric)]).unwrap();
        let mut t = PointTable::new(schema);
        // Cluster in the left half.
        t.push(Point::new(2.5, 2.5), 0, &[10.0]).unwrap();
        t.push(Point::new(3.5, 3.5), 1, &[20.0]).unwrap();
        t.push(Point::new(2.5, 2.5), 2, &[30.0]).unwrap(); // same pixel as #0
        // One in the right half.
        t.push(Point::new(12.5, 12.5), 3, &[40.0]).unwrap();
        t
    }

    fn halves() -> RegionSet {
        RegionSet::from_polygons(
            "halves",
            "h",
            vec![
                Polygon::from_coords(&[(0.0, 0.0), (8.0, 0.0), (8.0, 16.0), (0.0, 16.0)]).unwrap(),
                Polygon::from_coords(&[(8.0, 0.0), (16.0, 0.0), (16.0, 16.0), (8.0, 16.0)])
                    .unwrap(),
            ],
        )
    }

    #[test]
    fn count_and_sum_exact_away_from_boundaries() {
        let q = SpatialAggQuery::count();
        let (table, stats) = bounded_tile(&viewport(), &points(), &halves(), &q).unwrap();
        assert_eq!(table.value(0), Some(3.0));
        assert_eq!(table.value(1), Some(1.0));
        assert_eq!(stats.points_in, 4);

        let q = SpatialAggQuery::new(AggKind::Sum("v".into()));
        let (table, _) = bounded_tile(&viewport(), &points(), &halves(), &q).unwrap();
        assert_eq!(table.value(0), Some(60.0));
        assert_eq!(table.value(1), Some(40.0));
    }

    #[test]
    fn avg_min_max() {
        let q = SpatialAggQuery::new(AggKind::Avg("v".into()));
        let (t, _) = bounded_tile(&viewport(), &points(), &halves(), &q).unwrap();
        assert_eq!(t.value(0), Some(20.0));

        let q = SpatialAggQuery::new(AggKind::Min("v".into()));
        let (t, _) = bounded_tile(&viewport(), &points(), &halves(), &q).unwrap();
        assert_eq!(t.value(0), Some(10.0));
        assert_eq!(t.value(1), Some(40.0));

        let q = SpatialAggQuery::new(AggKind::Max("v".into()));
        let (t, _) = bounded_tile(&viewport(), &points(), &halves(), &q).unwrap();
        assert_eq!(t.value(0), Some(30.0));
    }

    #[test]
    fn filters_drop_fragments() {
        use urban_data::filter::Filter;
        use urban_data::time::TimeRange;
        let q = SpatialAggQuery::count().filter(Filter::Time(TimeRange::new(0, 2)));
        let (t, stats) = bounded_tile(&viewport(), &points(), &halves(), &q).unwrap();
        assert_eq!(t.value(0), Some(2.0));
        assert_eq!(t.value(1), None);
        assert_eq!(stats.points_in, 2, "filtered points never reach the pipeline");
    }

    #[test]
    fn empty_group_is_null() {
        let schema = Schema::new([("v", AttrType::Numeric)]).unwrap();
        let empty = PointTable::new(schema);
        let q = SpatialAggQuery::count();
        let (t, _) = bounded_tile(&viewport(), &empty, &halves(), &q).unwrap();
        assert_eq!(t.value(0), None);
        assert_eq!(t.value(1), None);
    }

    #[test]
    fn region_outside_tile_gets_nothing() {
        let far = RegionSet::from_polygons(
            "far",
            "f",
            vec![Polygon::from_coords(&[(100.0, 100.0), (110.0, 100.0), (110.0, 110.0), (100.0, 110.0)])
                .unwrap()],
        );
        let (t, _) = bounded_tile(&viewport(), &points(), &far, &SpatialAggQuery::count()).unwrap();
        assert_eq!(t.value(0), None);
    }
}
