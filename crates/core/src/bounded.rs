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
use crate::compiled::{CompiledQuery, PointStore, SetBits, ZoneColumns};
use crate::Result;
use gpu_raster::{Buffer2D, RenderStats};
use urban_data::query::{AggKind, AggState};
use urbane_geom::projection::Viewport;
use urbane_geom::Point;

/// Per-tile accumulation buffers produced by the point pass.
pub(crate) struct PointBuffers {
    /// Channel 0: point count, channel 1: Σ aggregated value.
    pub count_sum: Buffer2D<[f32; 2]>,
    /// Per-pixel min of the aggregated value (only for MIN aggregates).
    pub min: Option<Buffer2D<f32>>,
    /// Per-pixel max of the aggregated value (only for MAX aggregates).
    pub max: Option<Buffer2D<f32>>,
    /// One bit per pixel (`y · width + x`), set exactly for the pixels a row
    /// was drawn on — those whose count is > 0 — so a gather can skip the
    /// empty ones without reading `count_sum`.
    pub occupied: Vec<u64>,
}

/// Render the point pass for one tile: select, project, blend. The rows
/// arrive from the query's zone walk ([`PointStore::walk_tile`]), one zone
/// at a time with a budget check between zones, so cancellation interrupts
/// the pass mid-stream; which zones there are (those that can reach the
/// tile) is the walk's business.
/// Rows arrive ascending, so the per-pixel blend order — and therefore every
/// f32 accumulation — is the same on every path. Each row is projected once:
/// the MIN/MAX channels blend in the same per-fragment step, which then
/// hands `on_fragment(zone, i, x, y)` the zone, the row's index in it and
/// its pixel. `x`, `y` and values are read straight from the zone's columns
/// — no per-chunk gather allocation.
///
/// This is [`Pipeline::draw_points`](gpu_raster::Pipeline::draw_points)
/// with `BlendOp::Add` (and `Min`/`Max` for the extra channel) unrolled
/// into one loop per aggregate shape, chosen once per zone rather than per
/// row: the same projection and the same f32 operations in the same order,
/// so the buffers are bit-identical to the reference's, and the
/// [`RenderStats`] count one draw call per zone handed over exactly as it
/// would.
pub(crate) fn point_pass(
    viewport: &Viewport,
    store: &PointStore<'_>,
    cq: &CompiledQuery,
    budget: &QueryBudget,
    mut on_fragment: impl FnMut(&ZoneColumns<'_>, usize, u32, u32),
) -> Result<(PointBuffers, RenderStats)> {
    // A local copy: the row loop reads the viewport's constants from
    // registers instead of reloading them after every buffer store.
    let vp = *viewport;
    let (w, h) = (vp.width, vp.height);
    let mut count_sum = Buffer2D::new(w, h, [0.0f32; 2]);
    let needs_min = matches!(cq.agg, AggKind::Min(_));
    let needs_max = matches!(cq.agg, AggKind::Max(_));
    let mut min_buf = needs_min.then(|| Buffer2D::new(w, h, f32::INFINITY));
    let mut max_buf = needs_max.then(|| Buffer2D::new(w, h, f32::NEG_INFINITY));
    let mut occupied = vec![0u64; (w as usize * h as usize).div_ceil(64)];

    // The filtered fragment stream — this is the per-frame hot loop the
    // paper's performance argument rests on: one pass, one fragment each.
    let mut stats = RenderStats::new();
    store.walk_tile(&cq.walk, &vp.world, budget, |_, zone, bits| {
        let (xs, ys) = zone.locs();
        let cs = count_sum.as_mut_slice();
        let hook = &mut |i, x, y| on_fragment(zone, i, x, y);
        let occ = occupied.as_mut_slice();
        let column = cq.walk.agg_col().map(|c| zone.attr(c));
        let (handed, drawn) = match (column, min_buf.as_mut(), max_buf.as_mut()) {
            // COUNT leaves the sum channel at +0.0, as adding `0.0` would.
            (None, ..) => draw_rows(&vp, xs, ys, bits, occ, hook, |_, pix| {
                let [count, _] = &mut cs[pix];
                *count += 1.0;
            }),
            (Some(vals), Some(min), _) => {
                let min = min.as_mut_slice();
                draw_rows(&vp, xs, ys, bits, occ, hook, |i, pix| {
                    add(&mut cs[pix], vals[i]);
                    min[pix] = min[pix].min(vals[i]);
                })
            }
            (Some(vals), None, Some(max)) => {
                let max = max.as_mut_slice();
                draw_rows(&vp, xs, ys, bits, occ, hook, |i, pix| {
                    add(&mut cs[pix], vals[i]);
                    max[pix] = max[pix].max(vals[i]);
                })
            }
            (Some(vals), None, None) => {
                draw_rows(&vp, xs, ys, bits, occ, hook, |i, pix| add(&mut cs[pix], vals[i]))
            }
        };
        stats.draw_calls += 1;
        stats.points_in += handed;
        stats.fragments += drawn;
        stats.points_culled += handed - drawn;
    })?;

    Ok((PointBuffers { count_sum, min: min_buf, max: max_buf, occupied }, stats))
}

/// `BlendOp::Add` of `[1, v]` into a `(count, Σvalue)` texel.
#[inline(always)]
fn add([count, sum]: &mut [f32; 2], v: f32) {
    *count += 1.0;
    *sum += v;
}

/// Project the zone rows whose bits are set in `bits` through `vp` and hand
/// each one that lands on the canvas to `blend(i, pixel index)`, setting
/// the pixel's bit in `occupied`, then to `on_fragment(i, x, y)` (`i`
/// indexes the zone). Returns how many rows were handed over and how many
/// were drawn. One zone's rows: the walk polls the budget between zones.
#[inline(always)]
fn draw_rows(
    vp: &Viewport,
    xs: &[f64],
    ys: &[f64],
    bits: SetBits<'_>,
    occupied: &mut [u64],
    on_fragment: &mut impl FnMut(usize, u32, u32),
    mut blend: impl FnMut(usize, usize),
) -> (u64, u64) {
    let (mut handed, mut drawn) = (0, 0);
    // lint: allow(cancel-poll-reachability) one zone's rows; the zone walk polls the budget between zones
    for i in bits {
        handed += 1;
        let Some((x, y)) = vp.world_to_pixel(Point::new(xs[i], ys[i])) else {
            continue;
        };
        let pix = y as usize * vp.width as usize + x as usize;
        blend(i, pix);
        occupied[pix >> 6] |= 1 << (pix & 63);
        on_fragment(i, x, y);
        drawn += 1;
    }
    (handed, drawn)
}

/// Fold pixel `pix` (`y · width + x`) of the accumulation buffers into a
/// region's state.
#[inline]
pub(crate) fn fold_pixel(state: &mut AggState, bufs: &PointBuffers, pix: usize) {
    let [count, sum] = bufs.count_sum.as_slice()[pix];
    if count <= 0.0 {
        return;
    }
    state.count += count as u64;
    state.weight += count as f64; // full-weight fold: weight tracks count
    state.sum += sum as f64;
    if let Some(minb) = &bufs.min {
        state.min = state.min.min(minb.as_slice()[pix] as f64);
    }
    if let Some(maxb) = &bufs.max {
        state.max = state.max.max(maxb.as_slice()[pix] as f64);
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

    /// The fused point pass against the reference `Pipeline::draw_points`,
    /// one draw call per zone of [`ZONE_ROWS`] rows: bit-equal buffers, equal
    /// stats, and one hook call per fragment, with the zone's own columns
    /// and the row's index in it, at the pixel it was drawn on.
    #[test]
    fn point_pass_matches_draw_points() {
        use crate::compiled::PointStore;
        use gpu_raster::blend::BlendOp;
        use gpu_raster::Pipeline;
        use urban_data::ZONE_ROWS;

        let vp = Viewport::new(BoundingBox::from_coords(0.0, 0.0, 16.0, 8.0), 16, 8);
        let schema = Schema::new([("v", AttrType::Numeric)]).unwrap();
        let mut t = PointTable::new(schema);
        let nan = f64::NAN;
        let edges = [
            (3.0, 5.0),  // pixel corner
            (0.0, 8.0),  // closed top-left corner
            (0.0, 4.5),  // closed left edge
            (7.5, 8.0),  // closed top edge
            (16.0, 4.5), // open right edge: culled
            (7.5, 0.0),  // open bottom edge: culled
            (15.999, 0.001),
            (-0.5, 4.0),
            (20.0, 4.0),
            (4.0, -1.0),
            (nan, 4.0),
            (4.0, nan),
            (f64::INFINITY, 4.0),
        ];
        // Three zones: the edge cases, then points in and around the canvas
        // whose values do not add exactly in f32, so the blend order shows.
        for i in 0..2 * ZONE_ROWS + 700 {
            let (x, y) = match edges.get(i % 97) {
                Some(&e) => e,
                None => {
                    ((i * 7_919 % 1_800) as f64 / 100.0 - 1.0, (i * 104_729 % 1_000) as f64 / 100.0 - 1.0)
                }
            };
            let v = (i % 1_013) as f32 * 0.37 - 50.0;
            t.push(Point::new(x, y), i as i64, &[v]).unwrap();
        }
        let vals = t.column(0);
        let bits = |b: &[f32]| b.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let budget = QueryBudget::unlimited();
        let col = || "v".to_string();
        for agg in [AggKind::Count, AggKind::Sum(col()), AggKind::Min(col()), AggKind::Max(col())] {
            let cq = CompiledQuery::new(&t, &SpatialAggQuery::new(agg.clone())).unwrap();
            let mut hooked = Vec::new();
            let has_col = !matches!(agg, AggKind::Count);
            let (got, stats) = point_pass(&vp, &PointStore::plain(&t), &cq, &budget, |zone, i, x, y| {
                let (xs, ys) = zone.locs();
                let v = has_col.then(|| zone.attr(0)[i].to_bits());
                hooked.push((i, xs[i].to_bits(), ys[i].to_bits(), v, x, y));
            })
            .unwrap();

            let mut pipe = Pipeline::new(vp);
            let mut count_sum = Buffer2D::new(16, 8, [0.0f32; 2]);
            let mut extreme = Buffer2D::new(16, 8, 0.0f32);
            let op = match agg {
                AggKind::Min(_) => Some((BlendOp::Min, f32::INFINITY)),
                AggKind::Max(_) => Some((BlendOp::Max, f32::NEG_INFINITY)),
                _ => None,
            };
            if let Some((_, init)) = op {
                extreme.clear(init);
            }
            for base in (0..t.len()).step_by(ZONE_ROWS) {
                let locs = || (base..t.len().min(base + ZONE_ROWS)).map(|i| t.loc(i));
                let v = |k: usize| if has_col { vals[base + k] } else { 0.0 };
                pipe.draw_points(&mut count_sum, locs(), |k| [1.0, v(k)], BlendOp::Add);
                if let Some((op, _)) = op {
                    Pipeline::new(vp).draw_points(&mut extreme, locs(), v, op);
                }
            }
            let want_hooked: Vec<_> = (0..t.len())
                .filter_map(|i| {
                    let (p, v) = (t.loc(i), has_col.then(|| vals[i].to_bits()));
                    let (x, y) = vp.world_to_pixel(p)?;
                    Some((i % ZONE_ROWS, p.x.to_bits(), p.y.to_bits(), v, x, y))
                })
                .collect();

            let flat = |b: &Buffer2D<[f32; 2]>| bits(&b.as_slice().concat());
            assert_eq!(flat(&got.count_sum), flat(&count_sum), "{agg:?}");
            for (pix, &[count, _]) in count_sum.as_slice().iter().enumerate() {
                let set = got.occupied[pix >> 6] & (1 << (pix & 63)) != 0;
                assert_eq!(set, count > 0.0, "{agg:?} pixel {pix}");
            }
            let extreme_got = got.min.as_ref().or(got.max.as_ref());
            let want_extreme = op.map(|_| bits(extreme.as_slice()));
            assert_eq!(extreme_got.map(|b| bits(b.as_slice())), want_extreme, "{agg:?}");
            assert_eq!(stats, *pipe.stats(), "{agg:?}");
            assert_eq!((stats.draw_calls, stats.points_in), (3, t.len() as u64));
            assert!(stats.points_culled > 0 && stats.fragments > 0);
            assert_eq!(hooked, want_hooked, "{agg:?}");
        }
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
