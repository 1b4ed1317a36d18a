//! Quickstart — the paper's Figure 1 in ~40 lines.
//!
//! Generates a month of NYC-like taxi pickups, asks a service to aggregate
//! them over 260 neighborhood polygons with Raster Join, renders the
//! choropleth map view to `out/quickstart_map.ppm`, and prints the top
//! neighborhoods.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use urban_data::filter::Filter;
use urban_data::gen::city::CityModel;
use urban_data::gen::regions::voronoi_neighborhoods;
use urban_data::gen::taxi::{generate_taxi, TaxiConfig};
use urban_data::time::{timestamp, TimeRange, DAY};
use urbane::view::explore::rank_regions;
use urbane::view::MapView;
use urbane::{DataCatalog, QueryRequest, ResolutionPyramid, ServiceConfig, UrbaneService};

fn main() {
    // 1. Data: one month of taxi pickups over an NYC-like city.
    let city = CityModel::nyc_like();
    let jan2009 = timestamp(2009, 1, 1, 0, 0, 0);
    let taxi = generate_taxi(&city, &TaxiConfig::month(1_000_000, 42, jan2009));
    println!("generated {} taxi pickups", taxi.len());

    // 2. Regions: 260 neighborhood polygons, the service's one level.
    let neighborhoods = voronoi_neighborhoods(&city.bbox(), 260, 42, 2);
    let mut catalog = DataCatalog::new();
    catalog.register("taxi", taxi);
    let pyramid = ResolutionPyramid::new(vec![neighborhoods.clone()]);
    let service = UrbaneService::new(ServiceConfig::default(), catalog, pyramid).expect("service");

    // 3. Query: COUNT(*) GROUP BY neighborhood, filtered to January.
    let req = QueryRequest::count("taxi", 0)
        .filter(Filter::Time(TimeRange::new(jan2009, jan2009 + 30 * DAY)));

    // 4. Evaluate through Raster Join and render the map view.
    let start = std::time::Instant::now();
    let answer = service.query(&req).expect("query");
    let map = MapView::with_defaults().render(&answer, 800, 800);
    println!(
        "spatial aggregation + choropleth in {:.1} ms (ε = {:.1} m, {} answer)",
        start.elapsed().as_secs_f64() * 1e3,
        map.error_bound.unwrap_or(f64::NAN),
        answer.report.path.as_str()
    );

    std::fs::create_dir_all("out").expect("create out/");
    gpu_raster::ppm::write_ppm("out/quickstart_map.ppm", &map.image).expect("write ppm");
    println!("choropleth written to out/quickstart_map.ppm");

    // 5. Top-10 neighborhoods by pickups: the exploration view's ranking.
    let ranked = rank_regions(&service, &req).expect("ranking");
    println!("\ntop neighborhoods by taxi pickups:");
    for (i, (r, v)) in ranked.iter().take(10).enumerate() {
        let name = neighborhoods.region_name(*r);
        println!("  {:>2}. {:<10} {:>8.0}", i + 1, name, v.unwrap_or(0.0));
    }
}
