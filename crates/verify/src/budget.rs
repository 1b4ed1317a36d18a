//! The analytic ε error budget for the approximate Raster Join variants.
//!
//! Derivation. The canvas plan guarantees ε = ½·√2·pixel (half a pixel
//! diagonal): snapping a point to its pixel center moves it by at most ε,
//! so the *only* points an approximate variant can misassign are those
//! within a pixel-derived band around a region's boundary:
//!
//! * **bounded** — a point and its pixel center are on
//!   different sides of the boundary only when the point is within ε of it.
//!   Band half-width: [`BOUNDED_BAND`]·ε (the slack above 1.0 absorbs the
//!   rasterizer's pixel-center sampling rules at edges and vertices).
//! * **weighted** — boundary *pixels* are folded fractionally, and every
//!   point of a boundary pixel (anywhere in it, up to a full pixel diagonal
//!   = 2ε from the boundary) contributes partially. Band half-width:
//!   [`WEIGHTED_BAND`]·ε.
//!
//! Per region the certified bounds follow directly:
//!
//! * `|COUNT_approx − COUNT_exact| ≤ #{filtered points within w of ∂R}`
//! * `|SUM_approx − SUM_exact| ≤ Σ |v| over those same points`
//! * AVG: with `ΔS = S_a − S_e`, `ΔC = C_a − C_e`,
//!   `|AVG_a − AVG_e| = |ΔS − AVG_e·ΔC| / C_a ≤ (sumB + |AVG_e|·cntB)/C_a`.
//!
//! The band is computed against the *exact* geometry with robust segment
//! distances — it shares no code with the rasterizer. The classical
//! "pixel size × boundary length" form of the budget (band area × point
//! density) is recorded alongside as the *expected* band population; the
//! asserted budget uses the actual band population, which is the same
//! quantity without the uniform-density assumption.

use urban_data::query::SpatialAggQuery;
use urban_data::{PointTable, RegionSet};
use urbane_geom::{MultiPolygon, Point};

use crate::{Result, VerifyError};

/// Band half-width multiplier (×ε) for bounded runs.
pub const BOUNDED_BAND: f64 = 1.5;

/// Band half-width multiplier (×ε) for weighted runs.
pub const WEIGHTED_BAND: f64 = 2.5;

/// Exact distance from `p` to the boundary (all rings) of a multipolygon.
pub fn boundary_distance(geom: &MultiPolygon, p: Point) -> f64 {
    let mut d = f64::INFINITY;
    for poly in geom.polygons() {
        for ring in poly.rings() {
            for e in ring.edges() {
                d = d.min(e.distance_to_point(p));
            }
        }
    }
    d
}

/// The certified error budget for one region.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RegionBudget {
    /// Filtered points within the band around this region's boundary.
    pub band_points: u64,
    /// Σ |v| over those points (0 for COUNT queries, which read no column).
    pub band_abs_sum: f64,
}

impl RegionBudget {
    /// Bound on `|COUNT_approx − COUNT_exact|`.
    pub fn count_budget(&self) -> f64 {
        self.band_points as f64
    }

    /// Bound on `|SUM_approx − SUM_exact|`.
    pub fn sum_budget(&self) -> f64 {
        self.band_abs_sum
    }
}

/// Per-workload error budget: one [`RegionBudget`] per region plus the
/// analytic expectation for diagnostics.
#[derive(Debug, Clone)]
pub struct ErrorBudget {
    /// The run's ε (half pixel diagonal, world units).
    pub epsilon: f64,
    /// Band half-width in world units (multiplier × ε).
    pub band_width: f64,
    /// Certified per-region budgets (index = region id).
    pub regions: Vec<RegionBudget>,
    /// The textbook `density × Σ boundary length × 2w` expectation of the
    /// band population — recorded for the report, not asserted (it assumes
    /// uniform point density, which hotspot workloads violate by design).
    pub expected_band_points: f64,
}

/// Compute the budget for one workload at band half-width
/// `band_mult × epsilon`. Only points passing the query's filters count —
/// filtered-out points cannot be misassigned because they are never drawn.
pub fn error_budget(
    points: &PointTable,
    regions: &RegionSet,
    query: &SpatialAggQuery,
    epsilon: f64,
    band_mult: f64,
) -> Result<ErrorBudget> {
    let w = band_mult * epsilon;
    let agg = query.agg_kind();
    let col = agg.resolve(points).map_err(|e| VerifyError::Data(e.to_string()))?;
    let filter =
        query.filters.compile(points).map_err(|e| VerifyError::Data(e.to_string()))?;

    // Inflated bboxes prune the O(|P|·|R|) distance scan.
    let boxes: Vec<_> = regions.iter().map(|(_, _, g)| g.bbox().inflate(w)).collect();
    let mut budgets = vec![RegionBudget::default(); regions.len()];
    let mut filtered = 0u64;

    for i in 0..points.len() {
        if !filter.matches(i) {
            continue;
        }
        filtered += 1;
        let p = points.loc(i);
        let v = col.map_or(0.0, |c| points.attr(i, c) as f64).abs();
        for ((id, _, geom), bbox) in regions.iter().zip(&boxes) {
            if bbox.contains(p) && boundary_distance(geom, p) <= w {
                if let Some(b) = budgets.get_mut(id as usize) {
                    b.band_points += 1;
                    b.band_abs_sum += v;
                }
            }
        }
    }

    // density × total boundary length × band breadth (2w), clamped to the
    // filtered population.
    let extent = regions.bbox();
    let area = extent.area().max(f64::MIN_POSITIVE);
    let boundary_len: f64 = regions.iter().map(|(_, _, g)| g.perimeter()).sum();
    let expected = (filtered as f64 / area * boundary_len * 2.0 * w).min(filtered as f64);

    Ok(ErrorBudget {
        epsilon,
        band_width: w,
        regions: budgets,
        expected_band_points: expected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use urban_data::gen::corpus::uniform_points;
    use urban_data::gen::regions::grid_regions;
    use urbane_geom::{BoundingBox, Polygon};

    #[test]
    fn boundary_distance_exact_on_square() {
        let sq = MultiPolygon::from_polygon(
            Polygon::from_coords(&[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]).unwrap(),
        );
        assert_eq!(boundary_distance(&sq, Point::new(5.0, 5.0)), 5.0);
        assert_eq!(boundary_distance(&sq, Point::new(5.0, 9.0)), 1.0);
        assert_eq!(boundary_distance(&sq, Point::new(12.0, 5.0)), 2.0);
        assert_eq!(boundary_distance(&sq, Point::new(10.0, 5.0)), 0.0);
    }

    #[test]
    fn band_counts_only_near_boundary_points() {
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let regions = grid_regions(&extent, 2, 2);
        let pts = uniform_points(&extent, 2_000, 3, 10.0);
        let q = SpatialAggQuery::count();
        let tight = error_budget(&pts, &regions, &q, 0.5, 1.0).unwrap();
        let wide = error_budget(&pts, &regions, &q, 5.0, 1.0).unwrap();
        let tight_total: u64 = tight.regions.iter().map(|b| b.band_points).sum();
        let wide_total: u64 = wide.regions.iter().map(|b| b.band_points).sum();
        assert!(tight_total > 0, "some of 2000 points land within 0.5 of a grid line");
        assert!(
            tight_total < wide_total,
            "wider bands must capture more points ({tight_total} vs {wide_total})"
        );
        assert!(wide.expected_band_points > tight.expected_band_points);
        // For COUNT, per-point |v| contribution is the count itself… value 0.
        for b in &tight.regions {
            assert_eq!(b.band_abs_sum, 0.0, "COUNT carries no value mass");
        }
    }

    #[test]
    fn filtered_points_never_enter_the_band() {
        use urban_data::filter::Filter;
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let regions = grid_regions(&extent, 2, 2);
        let pts = uniform_points(&extent, 1_000, 3, 10.0);
        let none = SpatialAggQuery::count().filter(Filter::AttrRange {
            column: "v".into(),
            min: 50.0,
            max: 60.0,
        });
        let b = error_budget(&pts, &regions, &none, 2.0, 1.5).unwrap();
        let all = error_budget(&pts, &regions, &SpatialAggQuery::count(), 2.0, 1.5).unwrap();
        let b_total: u64 = b.regions.iter().map(|r| r.band_points).sum();
        let all_total: u64 = all.regions.iter().map(|r| r.band_points).sum();
        assert_eq!(b_total, 0, "no point passes an impossible filter");
        assert!(all_total > 0);
    }
}
