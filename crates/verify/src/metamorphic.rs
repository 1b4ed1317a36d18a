//! Metamorphic laws — correctness properties that need **no oracle**.
//!
//! Differential testing against an exact reference is only as trustworthy
//! as the reference; metamorphic relations close that loop. Each law
//! transforms a workload in a way whose effect on the answer is known *a
//! priori*, runs the production executors on both sides, and compares:
//!
//! 1. **Translation invariance** — shifting points and regions by the same
//!    vector changes nothing (the canvas follows the region bbox).
//! 2. **Scale invariance** — uniformly scaling the world changes nothing
//!    (ε scales with the world; the answer does not).
//! 3. **Point-permutation invariance** — the join is a set operation; row
//!    order must not matter. Counts must survive *bit-exactly* even in
//!    bounded mode (the f32 count channel adds 1.0s, exact below 2²⁴).
//! 4. **Region-split additivity** — slicing every region along a vertical
//!    line and joining against the halves must reproduce the whole's
//!    COUNT/SUM in accurate mode.
//! 5. **Filter-partition additivity** — half-open time ranges `[0,m)` and
//!    `[m,∞)` partition the rows, so per-region counts add exactly, in
//!    bounded *and* accurate mode (misassignment is per-point
//!    deterministic, hence identical on both sides of the partition).
//! 6. **Filter-permutation invariance** — a filter set is a conjunction, so
//!    every order of its conditions must give the *bit-identical* table, on
//!    the generator's row order and on a clustered copy, where the zone
//!    classifier decides per zone which conditions are evaluated at all.

use raster_join::{CanvasSpec, ExecutionMode, RasterJoin, RasterJoinConfig};
use urban_data::filter::Filter;
use urban_data::query::{AggKind, AggTable, SpatialAggQuery};
use urban_data::time::{TimeRange, DAY};
use urban_data::{PointTable, RegionSet};
use urbane_geom::clip::clip_polygon_to_box;
use urbane_geom::{BoundingBox, MultiPolygon, Point, Polygon, Ring};

use crate::corpus::Scenario;
use crate::{Result, VerifyError};

/// Outcome of one law on one scenario.
#[derive(Debug, Clone)]
pub struct LawResult {
    /// Law identifier (`translation`, `scale`, `permutation`,
    /// `region_split`, `filter_partition`, `filter_permutation`).
    pub law: &'static str,
    /// Scenario label.
    pub scenario: String,
    /// `None` = pass; `Some(reason)` = violation.
    pub violation: Option<String>,
}

fn config(mode: ExecutionMode, resolution: u32) -> RasterJoinConfig {
    RasterJoinConfig {
        spec: CanvasSpec::Resolution(resolution),
        max_tile: crate::runner::MAX_TILE,
        mode,
        ..RasterJoinConfig::default()
    }
}

fn run(
    mode: ExecutionMode,
    resolution: u32,
    points: &PointTable,
    regions: &RegionSet,
    query: &SpatialAggQuery,
) -> Result<AggTable> {
    Ok(RasterJoin::new(config(mode, resolution)).execute(points, regions, query)?.table)
}

/// Rebuild a table with every location mapped through `f` (schema, times
/// and attributes preserved row-for-row).
pub fn map_points(t: &PointTable, f: impl Fn(Point) -> Point) -> Result<PointTable> {
    let mut out = PointTable::new(t.schema().clone());
    let cols = t.schema().len();
    let mut attrs = vec![0.0f32; cols];
    for i in 0..t.len() {
        for (c, a) in attrs.iter_mut().enumerate() {
            *a = t.attr(i, c);
        }
        out.push(f(t.loc(i)), t.time(i), &attrs)
            .map_err(|e| VerifyError::Data(e.to_string()))?;
    }
    Ok(out)
}

/// Rebuild a region set with every vertex mapped through `f`. The map must
/// be orientation-preserving (translations, positive uniform scales).
pub fn map_regions(rs: &RegionSet, f: impl Fn(Point) -> Point) -> Result<RegionSet> {
    let mut regions = Vec::with_capacity(rs.len());
    for (_, name, geom) in rs.iter() {
        let mut polys = Vec::with_capacity(geom.polygons().len());
        for poly in geom.polygons() {
            let ext = Ring::new(poly.exterior().vertices().iter().map(|&p| f(p)).collect())?;
            let holes = poly
                .holes()
                .iter()
                .map(|h| Ring::new(h.vertices().iter().map(|&p| f(p)).collect()))
                .collect::<std::result::Result<Vec<_>, _>>()?;
            polys.push(Polygon::with_holes(ext, holes)?);
        }
        regions.push((name.to_string(), MultiPolygon::new(polys)));
    }
    Ok(RegionSet::new(rs.name(), regions))
}

/// Compare two answer tables as a law would: counts bit-exact, value
/// channels within the f32-accumulator tolerance.
fn tables_agree(a: &AggTable, b: &AggTable, what: &str) -> Option<String> {
    for (r, (sa, sb)) in a.states.iter().zip(&b.states).enumerate() {
        if sa.count != sb.count {
            return Some(format!(
                "{what}: region {r} count {} != {}",
                sa.count, sb.count
            ));
        }
        let (va, vb) = (sa.finish(&a.agg), sb.finish(&b.agg));
        match (va, vb) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                let tol = match a.agg {
                    AggKind::Count => 0.0,
                    _ => 1e-3 + 1e-5 * y.abs(),
                };
                if (x - y).abs() > tol {
                    return Some(format!("{what}: region {r} value {x} vs {y} (tol {tol:.1e})"));
                }
            }
            (x, y) => return Some(format!("{what}: region {r} emptiness {x:?} vs {y:?}")),
        }
    }
    None
}

/// Law 1: translation invariance (accurate mode is exact on both sides).
pub fn law_translation(s: &Scenario) -> Result<Option<String>> {
    let d = Point::new(137.25, -41.5);
    let moved_points = map_points(&s.points, |p| p + d)?;
    let moved_regions = map_regions(&s.regions, |p| p + d)?;
    let base = run(ExecutionMode::Accurate, s.resolution, &s.points, &s.regions, &s.query)?;
    let moved =
        run(ExecutionMode::Accurate, s.resolution, &moved_points, &moved_regions, &s.query)?;
    Ok(tables_agree(&moved, &base, "translation"))
}

/// Law 2: uniform scale invariance about the origin.
pub fn law_scale(s: &Scenario) -> Result<Option<String>> {
    let k = 3.5;
    let scaled_points = map_points(&s.points, |p| Point::new(p.x * k, p.y * k))?;
    let scaled_regions = map_regions(&s.regions, |p| Point::new(p.x * k, p.y * k))?;
    let base = run(ExecutionMode::Accurate, s.resolution, &s.points, &s.regions, &s.query)?;
    let scaled =
        run(ExecutionMode::Accurate, s.resolution, &scaled_points, &scaled_regions, &s.query)?;
    Ok(tables_agree(&scaled, &base, "scale"))
}

/// Law 3: point-permutation invariance — reversing row order must not
/// change the answer, in bounded *or* accurate mode.
pub fn law_permutation(s: &Scenario) -> Result<Option<String>> {
    let mut reversed = PointTable::new(s.points.schema().clone());
    let cols = s.points.schema().len();
    let mut attrs = vec![0.0f32; cols];
    for i in (0..s.points.len()).rev() {
        for (c, a) in attrs.iter_mut().enumerate() {
            *a = s.points.attr(i, c);
        }
        reversed
            .push(s.points.loc(i), s.points.time(i), &attrs)
            .map_err(|e| VerifyError::Data(e.to_string()))?;
    }
    for mode in [ExecutionMode::Bounded, ExecutionMode::Accurate] {
        let base = run(mode, s.resolution, &s.points, &s.regions, &s.query)?;
        let perm = run(mode, s.resolution, &reversed, &s.regions, &s.query)?;
        if let Some(v) = tables_agree(&perm, &base, "permutation") {
            return Ok(Some(format!("{mode:?}: {v}")));
        }
    }
    Ok(None)
}

/// Law 4: region-split additivity — slice every region at its bbox
/// mid-line; COUNT/SUM over the two halves must reproduce the whole
/// (accurate mode; points exactly on the cut are measure-zero for the
/// seeded corpus).
pub fn law_region_split(s: &Scenario) -> Result<Option<String>> {
    let world = s.regions.bbox().inflate(1.0);
    let mut halves = Vec::with_capacity(s.regions.len() * 2);
    for (_, name, geom) in s.regions.iter() {
        let mid = geom.bbox().center().x;
        let left_box = BoundingBox::from_coords(world.min.x, world.min.y, mid, world.max.y);
        let right_box = BoundingBox::from_coords(mid, world.min.y, world.max.x, world.max.y);
        for (suffix, bbox) in [("L", left_box), ("R", right_box)] {
            let mut polys = Vec::new();
            for poly in geom.polygons() {
                if let Some(part) = clip_polygon_to_box(poly, &bbox)? {
                    polys.push(part);
                }
            }
            halves.push((format!("{name}/{suffix}"), MultiPolygon::new(polys)));
        }
    }
    // An empty half (region entirely on one side) still occupies a slot so
    // ids line up: whole region r ↔ halves 2r and 2r+1. Drop empties by
    // replacing them with a far-away sliver? No — MultiPolygon::new(vec![])
    // has an empty bbox and joins nothing, which is exactly additivity.
    let split_set = RegionSet::new("split", halves);

    // SUM exercises the value channel; COUNT the exact one. Run the
    // scenario's own filters so the law composes with ad-hoc predicates.
    for agg in [AggKind::Count, AggKind::Sum("v".into())] {
        let mut q = SpatialAggQuery::new(agg.clone());
        q.filters = s.query.filters.clone();
        let whole = run(ExecutionMode::Accurate, s.resolution, &s.points, &s.regions, &q)?;
        let parts = run(ExecutionMode::Accurate, s.resolution, &s.points, &split_set, &q)?;
        for r in 0..s.regions.len() {
            let w = whole.states.get(r).map(|st| (st.count, st.sum)).unwrap_or((0, 0.0));
            let l = parts.states.get(2 * r).map(|st| (st.count, st.sum)).unwrap_or((0, 0.0));
            let rr =
                parts.states.get(2 * r + 1).map(|st| (st.count, st.sum)).unwrap_or((0, 0.0));
            if l.0 + rr.0 != w.0 {
                return Ok(Some(format!(
                    "region_split({agg:?}): region {r} counts {} + {} != {}",
                    l.0, rr.0, w.0
                )));
            }
            let sum_halves = l.1 + rr.1;
            let tol = 1e-3 + 1e-5 * w.1.abs();
            if (sum_halves - w.1).abs() > tol {
                return Ok(Some(format!(
                    "region_split({agg:?}): region {r} sums {sum_halves} != {} (tol {tol:.1e})",
                    w.1
                )));
            }
        }
    }
    Ok(None)
}

/// Law 5: filter-partition additivity — disjoint half-open time windows
/// partition the rows, so counts add exactly per region, even in bounded
/// mode (each point's pixel assignment is deterministic and identical on
/// both sides of the partition).
pub fn law_filter_partition(s: &Scenario) -> Result<Option<String>> {
    let horizon = s.points.len() as i64 + 1;
    let mid = horizon / 2;
    // Corpus timestamps are row indices, so [0, horizon) covers every row.
    let windows =
        [TimeRange::new(0, mid), TimeRange::new(mid, horizon), TimeRange::new(0, horizon)];
    for mode in [ExecutionMode::Bounded, ExecutionMode::Accurate] {
        let mut results = Vec::with_capacity(3);
        for w in windows {
            let mut q = SpatialAggQuery::new(AggKind::Count);
            q.filters = s.query.filters.clone();
            let q = q.filter(Filter::Time(w));
            results.push(run(mode, s.resolution, &s.points, &s.regions, &q)?);
        }
        if let [early, late, whole] = results.as_slice() {
            for r in 0..s.regions.len() {
                let (a, b, w) = (
                    early.states.get(r).map_or(0, |st| st.count),
                    late.states.get(r).map_or(0, |st| st.count),
                    whole.states.get(r).map_or(0, |st| st.count),
                );
                if a + b != w {
                    return Ok(Some(format!(
                        "filter_partition({mode:?}): region {r} counts {a} + {b} != {w}"
                    )));
                }
            }
        }
    }
    Ok(None)
}

/// Law 6: filter-permutation invariance. The scenario's rows are repeated
/// over consecutive days until a clustered copy has several zones; a window
/// of whole days with one cut, a box and the scenario's own value filters (or
/// a value range of the law's, when it has none) then put zones in all three
/// classes. The conditions are applied in every order; the answer may not
/// move by a bit.
pub fn law_filter_permutation(s: &Scenario) -> Result<Option<String>> {
    let n = s.points.len();
    let days = (5 * urban_data::ZONE_ROWS).div_ceil(n.max(1)).max(4) as i64;
    let mut tiled = PointTable::new(s.points.schema().clone());
    let mut attrs = vec![0.0f32; s.points.schema().len()];
    for day in 0..days {
        for i in 0..n {
            for (c, a) in attrs.iter_mut().enumerate() {
                *a = s.points.attr(i, c);
            }
            // Corpus timestamps are row indices: far below a day.
            tiled
                .push(s.points.loc(i), day * DAY + s.points.time(i), &attrs)
                .map_err(|e| VerifyError::Data(e.to_string()))?;
        }
    }
    let mut clustered = tiled.clone();
    clustered.cluster();

    let b = tiled.bbox();
    let mut filters: Vec<Filter> = s
        .query
        .filters
        .filters()
        .iter()
        .filter(|f| !matches!(f, Filter::Time(_)))
        .cloned()
        .collect();
    if filters.is_empty() {
        filters.push(Filter::AttrRange { column: "v".into(), min: 3.0, max: 60.0 });
    }
    filters.push(Filter::Time(TimeRange::new(DAY + n as i64 / 5, (days - 1) * DAY)));
    filters.push(Filter::SpatialBox(BoundingBox::new(
        b.min,
        Point::new(b.min.x + b.width() * 0.7, b.min.y + b.height() * 0.8),
    )));

    // Heap's algorithm, iteratively: every order of `filters` exactly once.
    let mut orders = vec![filters.clone()];
    let mut counters = vec![0usize; filters.len()];
    let mut i = 0;
    while i < filters.len() {
        if counters[i] < i {
            filters.swap(if i % 2 == 0 { 0 } else { counters[i] }, i);
            orders.push(filters.clone());
            counters[i] += 1;
            i = 0;
        } else {
            counters[i] = 0;
            i += 1;
        }
    }

    for (points, layout) in [(&tiled, "generator order"), (&clustered, "clustered")] {
        for mode in [ExecutionMode::Bounded, ExecutionMode::Accurate] {
            let mut base: Option<AggTable> = None;
            for order in &orders {
                let mut q = SpatialAggQuery::new(s.query.agg_kind());
                for f in order {
                    q = q.filter(f.clone());
                }
                let got = run(mode, s.resolution, points, &s.regions, &q)?;
                match &base {
                    None => base = Some(got),
                    Some(first) if *first != got => {
                        return Ok(Some(format!(
                            "filter_permutation({mode:?}, {layout}): order {order:?} changed the table"
                        )));
                    }
                    Some(_) => {}
                }
            }
        }
    }
    Ok(None)
}

/// A metamorphic law: returns `None` when it holds, a violation otherwise.
type Law = fn(&Scenario) -> Result<Option<String>>;

/// Run every law against one scenario.
pub fn run_laws(s: &Scenario) -> Result<Vec<LawResult>> {
    let laws: [(&'static str, Law); 6] = [
        ("translation", law_translation),
        ("scale", law_scale),
        ("permutation", law_permutation),
        ("region_split", law_region_split),
        ("filter_partition", law_filter_partition),
        ("filter_permutation", law_filter_permutation),
    ];
    laws.into_iter()
        .map(|(name, law)| {
            Ok(LawResult { law: name, scenario: s.name.clone(), violation: law(s)? })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::corpus;

    #[test]
    fn all_laws_hold_on_a_small_corpus() {
        for s in corpus(4, 9_000) {
            for law in run_laws(&s).expect("laws must execute") {
                assert!(
                    law.violation.is_none(),
                    "{} violated on {}: {}",
                    law.law,
                    law.scenario,
                    law.violation.unwrap_or_default()
                );
            }
        }
    }

    #[test]
    fn mapping_helpers_roundtrip() {
        let s = crate::corpus::scenario(123);
        let moved = map_points(&s.points, |p| p + Point::new(5.0, 5.0)).unwrap();
        let back = map_points(&moved, |p| p + Point::new(-5.0, -5.0)).unwrap();
        assert_eq!(s.points.len(), back.len());
        for i in 0..s.points.len() {
            // f64 translate-and-back is not bit-exact; ~1e-12 roundoff is.
            assert!(s.points.loc(i).distance(back.loc(i)) < 1e-9);
            assert_eq!(s.points.time(i), back.time(i));
            assert_eq!(s.points.attr(i, 0), back.attr(i, 0));
        }
        let rs = map_regions(&s.regions, |p| p + Point::new(5.0, 5.0)).unwrap();
        assert_eq!(rs.len(), s.regions.len());
        let rs_back = map_regions(&rs, |p| p + Point::new(-5.0, -5.0)).unwrap();
        for (a, b) in s.regions.iter().zip(rs_back.iter()) {
            assert_eq!(a.1, b.1, "names preserved");
            assert!((a.2.area() - b.2.area()).abs() < 1e-9);
        }
    }
}
