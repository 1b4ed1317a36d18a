//! Standard workloads shared by every experiment: the NYC-like city, its
//! taxi/311/crime data sets, and the resolution pyramid — all seeded, so
//! every table in DESIGN.md §4 is regenerable bit-for-bit.

use urban_data::gen::city::CityModel;
use urban_data::gen::events::{generate_complaints, generate_crime, EventConfig};
use urban_data::gen::regions::{boroughs, grid_regions, star_regions, voronoi_neighborhoods};
use urban_data::gen::taxi::{generate_taxi, TaxiConfig};
use urban_data::schema::{AttrType, Schema};
use urban_data::time::{timestamp, TimeRange, DAY};
use urban_data::{Filter, PointTable, RegionSet, ZoneFooter};
use urbane::DataCatalog;
use urbane_geom::{BoundingBox, Point};

/// The demo's reference timestamp: 2009-01-01 (the paper's Figure 1 month).
pub fn demo_start() -> i64 {
    timestamp(2009, 1, 1, 0, 0, 0)
}

/// The standard workload bundle.
pub struct Workload {
    /// The city model.
    pub city: CityModel,
    /// Taxi pickups (the largest data set).
    pub taxi: PointTable,
    /// 311 complaints.
    pub complaints: PointTable,
    /// Crime incidents.
    pub crime: PointTable,
}

impl Workload {
    /// Build the standard workload at a given taxi cardinality. The event
    /// data sets scale at 1/5 and 1/10 of the taxi rows (roughly matching
    /// the real NYC data volume ratios).
    pub fn standard(taxi_rows: usize, seed: u64) -> Self {
        let city = CityModel::nyc_like();
        let start = demo_start();
        let taxi =
            generate_taxi(&city, &TaxiConfig { rows: taxi_rows, seed, start, days: 30 });
        let complaints = generate_complaints(
            &city,
            &EventConfig { rows: taxi_rows / 5, seed: seed + 1, start, days: 30, n_types: 12 },
        );
        let crime = generate_crime(
            &city,
            &EventConfig { rows: taxi_rows / 10, seed: seed + 2, start, days: 30, n_types: 10 },
        );
        Workload { city, taxi, complaints, crime }
    }

    /// The three data sets, registered (so clustered) as `taxi`, `311` and
    /// `crime`.
    pub fn catalog(&self) -> DataCatalog {
        let mut catalog = DataCatalog::new();
        catalog.register("taxi", self.taxi.clone());
        catalog.register("311", self.complaints.clone());
        catalog.register("crime", self.crime.clone());
        catalog
    }

    /// The demo's neighborhood region set (260 regions, like NYC's NTAs).
    pub fn neighborhoods(&self) -> RegionSet {
        voronoi_neighborhoods(&self.city.bbox(), 260, 42, 2)
    }

    /// The borough region set (5 regions).
    pub fn boroughs(&self) -> RegionSet {
        boroughs(&self.city.bbox())
    }

    /// Census-tract-like grid (~2.1k regions, like NYC's tracts).
    pub fn tracts(&self) -> RegionSet {
        grid_regions(&self.city.bbox(), 46, 46)
    }

    /// Fine grid (~10k regions).
    pub fn fine_grid(&self) -> RegionSet {
        grid_regions(&self.city.bbox(), 100, 100)
    }

    /// Complex non-convex stress polygons (E3's vertex-count axis).
    pub fn stars(&self, n: usize, vertices: usize) -> RegionSet {
        star_regions(&self.city.bbox(), n, vertices, 7)
    }
}

// ---- The zone-footer fixture: `tests/clustered_equivalence.rs` (resident
// executors) and `tests/store_subsystem.rs` (stored join) hold the one set
// of footer proof rules to the same table and the same edge cases.

/// Every row of `t` as comparable bits, in row order (NaN-safe).
pub fn row_bits(t: &PointTable) -> Vec<(u64, u64, i64, Vec<u32>)> {
    (0..t.len())
        .map(|i| {
            let p = t.loc(i);
            let attrs = (0..t.schema().len()).map(|c| t.attr(i, c).to_bits()).collect();
            (p.x.to_bits(), p.y.to_bits(), t.time(i), attrs)
        })
        .collect()
}

/// 40 000 taxi rows over three days from [`demo_start`], in generator order —
/// five zones once clustered, two of them inside one day — with columns
/// `fare`, `tip`, `day`, NaN fares on the first day and a few NaN days on
/// the last (both stay in otherwise single-valued or in-range zones). With
/// `nan_location` one row also has a NaN coordinate. Beside it, 48 Voronoi
/// neighbourhoods.
pub fn footer_demo_data(nan_location: bool) -> (PointTable, RegionSet) {
    let city = CityModel::nyc_like();
    let start = demo_start();
    let taxi = generate_taxi(&city, &TaxiConfig { rows: 40_000, seed: 17, start, days: 3 });
    let schema = Schema::new([
        ("fare", AttrType::Numeric),
        ("tip", AttrType::Numeric),
        ("day", AttrType::Categorical),
    ])
    .expect("distinct column names");
    let mut t = PointTable::new(schema);
    for i in 0..taxi.len() {
        let day = (taxi.time(i) - start) / DAY;
        let fare = if day == 0 && i % 977 == 0 { f32::NAN } else { taxi.attr(i, 0) };
        let day_code = if day == 2 && i % 1_999 == 0 { f32::NAN } else { day as f32 };
        let loc = if nan_location && i == 12_345 {
            Point::new(f64::NAN, taxi.loc(i).y)
        } else {
            taxi.loc(i)
        };
        t.push(loc, taxi.time(i), &[fare, taxi.attr(i, 3), day_code]).expect("three attributes");
    }
    (t, voronoi_neighborhoods(&city.bbox(), 48, 5, 2))
}

/// Conjunctions placed exactly on the footers `zones` (of
/// [`footer_demo_data`], clustered: a resident table's, or a store
/// directory's), plus the shapes the benchmark sends. Each is there because
/// mutating one proof rule makes it give a wrong answer.
pub fn footer_edge_filters(t: &PointTable, zones: &[&ZoneFooter]) -> Vec<(&'static str, Vec<Filter>)> {
    let mid = zones[zones.len() / 2];
    let first_t = zones[0].t_min;
    let day_zone = zones
        .iter()
        .find(|f| f.attr_min[2] == f.attr_max[2] && !f.has_nan)
        .expect("some zone holds a single day");
    let fare = |min, max| Filter::AttrRange { column: "fare".into(), min, max };
    let day = |value| Filter::AttrEquals { column: "day".into(), value };
    let (bbox, start) = (t.bbox(), demo_start());
    vec![
        ("no filter", vec![]),
        // Half-open end on a closed footer minimum: the zone's earliest row
        // is excluded, so the zone is provably empty — and one second later
        // it is not.
        ("time end == t_min", vec![Filter::Time(TimeRange::new(first_t, mid.t_min))]),
        ("time end == t_min + 1", vec![Filter::Time(TimeRange::new(first_t, mid.t_min + 1))]),
        ("time start == t_max", vec![Filter::Time(TimeRange::new(mid.t_max, i64::MAX))]),
        ("time start == t_min + 1", vec![Filter::Time(TimeRange::new(mid.t_min + 1, i64::MAX))]),
        ("time end == t_max", vec![Filter::Time(TimeRange::new(mid.t_min, mid.t_max))]),
        ("time covers a zone exactly", vec![Filter::Time(TimeRange::new(mid.t_min, mid.t_max + 1))]),
        ("whole days", vec![Filter::Time(TimeRange::new(start + DAY, start + 2 * DAY))]),
        // Closed box whose right edge is a zone's left edge, and the zone's
        // own box (inside, closed on every side).
        (
            "bbox edge on a zone edge",
            vec![Filter::SpatialBox(BoundingBox::new(bbox.min, Point::new(mid.bbox.min.x, bbox.max.y)))],
        ),
        ("bbox == zone bbox", vec![Filter::SpatialBox(mid.bbox)]),
        // Every zone's box is inside; one holding a NaN coordinate must
        // still be scanned.
        ("bbox == table bbox", vec![Filter::SpatialBox(bbox)]),
        ("equals on a single-valued zone", vec![day(day_zone.attr_min[2])]),
        // The last day's zones hold nothing but day 2 — and a NaN, which
        // must keep them from being taken whole.
        ("equals on a single-valued zone holding a NaN", vec![day(2.0)]),
        ("range == zone range", vec![fare(mid.attr_min[0], mid.attr_max[0])]),
        // Closed on both ends: the zone's own extreme value still passes.
        ("range min == zone max", vec![fare(mid.attr_max[0], f32::INFINITY)]),
        ("range max == zone min", vec![fare(f32::NEG_INFINITY, mid.attr_min[0])]),
        ("range keeps all but NaN", vec![fare(f32::NEG_INFINITY, f32::INFINITY)]),
        ("empty result", vec![fare(-5.0, -1.0)]),
        (
            "pan_zoom shape",
            vec![
                Filter::SpatialBox(BoundingBox::new(
                    bbox.center(),
                    Point::new(bbox.max.x, bbox.center().y + bbox.height() * 0.3),
                )),
                Filter::Time(TimeRange::new(start + DAY, start + 2 * DAY)),
            ],
        ),
        (
            "filter_brush shape",
            vec![Filter::Time(TimeRange::new(start, start + 2 * DAY)), fare(5.0, 40.0), day(1.0)],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_workload_shapes() {
        let w = Workload::standard(10_000, 1);
        assert_eq!(w.taxi.len(), 10_000);
        assert_eq!(w.complaints.len(), 2_000);
        assert_eq!(w.crime.len(), 1_000);
        assert!(w.city.bbox().contains_box(&w.taxi.bbox()));
    }

    #[test]
    fn region_sets_have_expected_cardinalities() {
        let w = Workload::standard(100, 1);
        assert_eq!(w.boroughs().len(), 5);
        assert_eq!(w.neighborhoods().len(), 260);
        assert_eq!(w.tracts().len(), 46 * 46);
        assert_eq!(w.stars(50, 64).len(), 50);
    }

    #[test]
    fn deterministic() {
        let a = Workload::standard(1_000, 3);
        let b = Workload::standard(1_000, 3);
        assert_eq!(a.taxi, b.taxi);
        assert_eq!(a.neighborhoods(), b.neighborhoods());
    }
}
