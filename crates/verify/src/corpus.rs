//! Seeded randomized verification workloads.
//!
//! A workload ("scenario") is a full query instance: a point table, a
//! region set, and a [`SpatialAggQuery`] — all drawn deterministically from
//! one seed via the shared generators in `urban_data::gen`. The generator
//! mixes the axes that historically hide raster bugs:
//!
//! * region layout — axis-aligned grids (pixel-alignment edge cases),
//!   Voronoi partitions (irregular shared boundaries), and overlapping
//!   non-convex stars (multi-assignment);
//! * point distribution — uniform and hotspot-clustered;
//! * aggregate — COUNT/SUM mostly (the certifiable pair), with AVG/MIN/MAX
//!   sprinkled in;
//! * ad-hoc filters — none, attribute range, time range, or both;
//! * canvas resolution — coarse enough (48–128 px) that boundary bands are
//!   populated and the ε budget is actually exercised.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use urban_data::filter::Filter;
use urban_data::gen::corpus::{clustered_points, uniform_points};
use urban_data::gen::regions::{grid_regions, star_regions, voronoi_neighborhoods};
use urban_data::query::{AggKind, SpatialAggQuery};
use urban_data::time::{TimeRange, DAY};
use urban_data::{PointTable, RegionSet, ZONE_ROWS};
use urbane_geom::{BoundingBox, Point};

use crate::{Result, VerifyError};

/// One verification workload.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable label (layout/agg/filter summary).
    pub name: String,
    /// The seed everything was drawn from.
    pub seed: u64,
    /// The point relation `P`.
    pub points: PointTable,
    /// The region relation `R`.
    pub regions: RegionSet,
    /// The query under test.
    pub query: SpatialAggQuery,
    /// Canvas resolution the runner should use.
    pub resolution: u32,
}

/// Build the scenario for `seed`. Same seed ⇒ byte-identical workload.
pub fn scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed));
    let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);

    let (regions, layout): (RegionSet, &str) = match rng.gen_range(0..4u32) {
        0 => {
            let nx = rng.gen_range(2..6u32);
            let ny = rng.gen_range(2..5u32);
            (grid_regions(&extent, nx, ny), "grid")
        }
        1 | 2 => {
            let n = rng.gen_range(8..22usize);
            let lloyd = rng.gen_range(0..4u32);
            (voronoi_neighborhoods(&extent, n, seed ^ 0x5151, lloyd), "voronoi")
        }
        _ => {
            let n = rng.gen_range(4..9usize);
            // star_regions requires an even vertex count.
            let vertices = 8 + 2 * (seed as usize % 3);
            (star_regions(&extent, n, vertices, seed ^ 0xA7A7), "stars")
        }
    };

    let n_points = rng.gen_range(300..900usize);
    let value_max = 50.0f32;
    let (points, dist) = if rng.gen::<f64>() < 0.6 {
        (uniform_points(&extent, n_points, seed ^ 0x0F0F, value_max), "uniform")
    } else {
        let clusters = rng.gen_range(2..6usize);
        (clustered_points(&extent, n_points, clusters, seed ^ 0x0F0F, value_max), "clustered")
    };

    let agg = match rng.gen_range(0..10u32) {
        0..=3 => AggKind::Count,
        4..=6 => AggKind::Sum("v".into()),
        7 => AggKind::Avg("v".into()),
        8 => AggKind::Min("v".into()),
        _ => AggKind::Max("v".into()),
    };
    let agg_name = match &agg {
        AggKind::Count => "count",
        AggKind::Sum(_) => "sum",
        AggKind::Avg(_) => "avg",
        AggKind::Min(_) => "min",
        AggKind::Max(_) => "max",
    };

    let mut query = SpatialAggQuery::new(agg);
    let filter_name = match rng.gen_range(0..4u32) {
        0 => "nofilter",
        1 => {
            let lo = rng.gen::<f32>() * 20.0;
            let hi = lo + 10.0 + rng.gen::<f32>() * (value_max - lo - 10.0).max(1.0);
            query = query.filter(Filter::AttrRange { column: "v".into(), min: lo, max: hi });
            "attr"
        }
        2 => {
            let start = rng.gen_range(0..(n_points as i64 / 2));
            let end = start + rng.gen_range(1..(n_points as i64));
            query = query.filter(Filter::Time(TimeRange::new(start, end)));
            "time"
        }
        _ => {
            query = query
                .filter(Filter::AttrRange { column: "v".into(), min: 5.0, max: 45.0 })
                .filter(Filter::Time(TimeRange::new(0, (n_points as i64 * 3) / 4)));
            "attr+time"
        }
    };

    let resolution = *[48u32, 64, 96, 128]
        .get(rng.gen_range(0..4usize))
        .unwrap_or(&64);

    Scenario {
        name: format!("{layout}/{dist}/{agg_name}/{filter_name}/r{resolution}/seed{seed}"),
        seed,
        points,
        regions,
        query,
        resolution,
    }
}

/// A scenario with zones to decide: [`scenario`]`(seed)`'s regions,
/// aggregate and canvas over 3–4 × [`ZONE_ROWS`] uniform points whose
/// timestamps spread over six days, filtered to the first three. Clustered
/// (day major), the first zone lies inside the window and the last one
/// outside it, so the footers take one zone whole and skip another.
pub fn zoned_scenario(seed: u64) -> Result<Scenario> {
    let base = scenario(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2045_4E0D);
    let n_points = rng.gen_range(3 * ZONE_ROWS..4 * ZONE_ROWS);
    let mut points = PointTable::new(base.points.schema().clone());
    for _ in 0..n_points {
        let p = Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0);
        points
            .push(p, rng.gen_range(0..6 * DAY), &[rng.gen::<f32>() * 50.0])
            .map_err(|e| VerifyError::Data(e.to_string()))?;
    }
    let query = SpatialAggQuery::new(base.query.agg_kind()).filter(Filter::Time(TimeRange::new(0, 3 * DAY)));
    Ok(Scenario { name: format!("zoned/{}", base.name), points, query, ..base })
}

/// The first `count` scenarios starting at `base_seed` (seeds are
/// consecutive, so any prefix of a bigger corpus is the smaller corpus).
pub fn corpus(count: usize, base_seed: u64) -> Vec<Scenario> {
    (0..count as u64).map(|i| scenario(base_seed + i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic() {
        let a = scenario(42);
        let b = scenario(42);
        assert_eq!(a.name, b.name);
        assert_eq!(a.points.len(), b.points.len());
        for i in 0..a.points.len() {
            assert_eq!(a.points.loc(i), b.points.loc(i));
        }
        assert_eq!(a.regions.len(), b.regions.len());
    }

    #[test]
    fn corpus_covers_every_axis() {
        let scenarios = corpus(40, 1000);
        let has = |needle: &str| scenarios.iter().any(|s| s.name.contains(needle));
        for needle in
            ["grid", "voronoi", "stars", "uniform", "clustered", "count", "sum", "nofilter"]
        {
            assert!(has(needle), "40 scenarios must include {needle:?}");
        }
        // Prefix stability: a smaller corpus is a prefix of a larger one.
        let small = corpus(5, 1000);
        for (a, b) in small.iter().zip(&scenarios) {
            assert_eq!(a.name, b.name);
        }
    }
}
