//! Neighborhood comparison — the architect workflow from the paper's intro.
//!
//! "By using the available open data sets and comparing the neighborhood of
//! interest with other neighborhoods, they can understand its strengths and
//! weaknesses and establish performance thresholds from other well-known and
//! well performing neighborhoods."
//!
//! This example builds per-neighborhood profiles from four metrics across
//! three data sets (taxi activity, 311 complaints, crime, average fare),
//! ranks neighborhoods, and finds the most similar neighborhoods to a
//! reference — plus its weekly activity time series.
//!
//! ```text
//! cargo run --release --example neighborhood_similarity
//! ```

use urban_data::gen::city::CityModel;
use urban_data::gen::events::{generate_complaints, generate_crime, EventConfig};
use urban_data::gen::regions::voronoi_neighborhoods;
use urban_data::gen::taxi::{generate_taxi, TaxiConfig};
use urban_data::query::AggKind;
use urban_data::time::{timestamp, TimeBucket, TimeRange, DAY};
use urbane::view::explore::{most_similar, profiles, rank_regions, time_series};
use urbane::{DataCatalog, QueryRequest, ResolutionPyramid, ServiceConfig, UrbaneService};

fn main() {
    let city = CityModel::nyc_like();
    let start = timestamp(2009, 1, 1, 0, 0, 0);
    let taxi = generate_taxi(&city, &TaxiConfig { rows: 500_000, seed: 42, start, days: 28 });
    let complaints = generate_complaints(
        &city,
        &EventConfig { rows: 100_000, seed: 43, start, days: 28, n_types: 12 },
    );
    let crime = generate_crime(
        &city,
        &EventConfig { rows: 50_000, seed: 44, start, days: 28, n_types: 10 },
    );
    let mut catalog = DataCatalog::new();
    for (name, table) in [("taxi", taxi), ("311", complaints), ("crime", crime)] {
        catalog.register(name, table);
    }
    let neighborhoods = voronoi_neighborhoods(&city.bbox(), 260, 42, 2);
    let pyramid = ResolutionPyramid::new(vec![neighborhoods.clone()]);
    let service = UrbaneService::new(ServiceConfig::default(), catalog, pyramid).expect("service");
    let taxi = QueryRequest::count("taxi", 0);

    // Rank neighborhoods by taxi activity.
    let ranked = rank_regions(&service, &taxi).expect("ranking");
    println!("busiest neighborhoods (taxi pickups):");
    for (i, (r, v)) in ranked.iter().take(5).enumerate() {
        println!("  {}. {} — {:.0}", i + 1, neighborhoods.region_name(*r), v.unwrap_or(0.0));
    }

    // Profile every neighborhood across 4 metrics: taxi activity, 311
    // complaints, crime and average fare.
    let metrics = [
        taxi.clone(),
        QueryRequest::count("311", 0),
        QueryRequest::count("crime", 0),
        taxi.clone().agg(AggKind::Avg("fare".into())),
    ];
    let t0 = std::time::Instant::now();
    let profiles = profiles(&service, &metrics).expect("profiles");
    println!(
        "\nbuilt {}x{} neighborhood profiles in {:.0} ms",
        profiles.len(),
        metrics.len(),
        t0.elapsed().as_secs_f64() * 1e3
    );

    // The reference: the busiest neighborhood. Which others feel like it?
    let reference = ranked[0].0;
    println!(
        "\nneighborhoods most similar to {} (feature distance):",
        neighborhoods.region_name(reference)
    );
    for (r, d) in most_similar(&profiles, reference, 5) {
        let p = &profiles[r as usize];
        println!(
            "  {:<10} d={:.3}  [taxi {:.2}, 311 {:.2}, crime {:.2}, fare {:.2}]",
            neighborhoods.region_name(r),
            d,
            p.features[0],
            p.features[1],
            p.features[2],
            p.features[3]
        );
    }

    // Weekly rhythm of the reference neighborhood.
    let range = TimeRange::new(start, start + 28 * DAY);
    let series = time_series(&service, &taxi, range, TimeBucket::Week).expect("series");
    println!("\nweekly pickups in {}:", neighborhoods.region_name(reference));
    for (i, v) in series.region(reference).iter().enumerate() {
        let v = v.unwrap_or(0.0);
        let bar = "#".repeat((v / 200.0).ceil() as usize);
        println!("  week {}: {:>7.0} {}", i + 1, v, bar);
    }
}
