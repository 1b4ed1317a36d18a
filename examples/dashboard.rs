//! Dashboard — the whole demo screen as one image.
//!
//! Composes the map view (choropleth + legend ramp), the density heatmap,
//! and the weekly time-series bar chart for the busiest neighborhood into a
//! single `out/dashboard.ppm` — a one-file snapshot of an Urbane session.
//!
//! ```text
//! cargo run --release --example dashboard
//! ```

use urban_data::filter::FilterSet;
use urban_data::gen::city::CityModel;
use urban_data::gen::regions::voronoi_neighborhoods;
use urban_data::gen::taxi::{generate_taxi, TaxiConfig};
use urban_data::time::{timestamp, TimeBucket, TimeRange, DAY};
use urbane::colormap::ColorMap;
use urbane::view::dashboard::{compose, DashboardSpec};
use urbane::view::explore::{rank_regions, time_series};
use urbane::view::heatmap::{render_heatmap, HeatmapConfig};
use urbane::view::MapView;
use urbane::{DataCatalog, QueryRequest, ResolutionPyramid, ServiceConfig, UrbaneService};
use urbane_geom::projection::Viewport;

fn main() {
    let city = CityModel::nyc_like();
    let start = timestamp(2009, 1, 1, 0, 0, 0);
    let taxi = generate_taxi(&city, &TaxiConfig { rows: 500_000, seed: 42, start, days: 28 });
    let regions = voronoi_neighborhoods(&city.bbox(), 260, 42, 2);
    println!("{} pickups over {} neighborhoods", taxi.len(), regions.len());

    let t0 = std::time::Instant::now();

    // Panel 2's heatmap draws the raw rows; the map and the series ask a
    // one-level service over the neighborhoods.
    let vp = Viewport::fitted(city.bbox().inflate(city.bbox().width() * 0.02), 280, 280);
    let heat = render_heatmap(&taxi, &FilterSet::none(), &vp, &HeatmapConfig::default())
        .expect("heatmap");
    let mut catalog = DataCatalog::new();
    catalog.register("taxi", taxi);
    let pyramid = ResolutionPyramid::new(vec![regions.clone()]);
    let service = UrbaneService::new(ServiceConfig::default(), catalog, pyramid).expect("service");
    let count = QueryRequest::count("taxi", 0);

    // Panel 1: the choropleth map.
    let map = MapView::with_defaults().render(&service.query(&count).expect("map query"), 560, 560);

    // Panel 3: the busiest neighborhood's weekly series.
    let ranked = rank_regions(&service, &count).expect("ranking");
    let top = ranked[0].0;
    let range = TimeRange::new(start, start + 28 * DAY);
    let series = time_series(&service, &count, range, TimeBucket::Week).expect("series");

    // Compose.
    let colormap = ColorMap::viridis();
    let canvas = compose(&DashboardSpec {
        map: &map.image,
        heatmap: Some(&heat.image),
        series: series.region(top),
        colormap: &colormap,
        legend: map.legend,
    });

    std::fs::create_dir_all("out").expect("create out/");
    gpu_raster::ppm::write_ppm("out/dashboard.ppm", &canvas).expect("write dashboard");
    println!(
        "dashboard ({}x{}) written to out/dashboard.ppm in {:.0} ms total",
        canvas.width(),
        canvas.height(),
        t0.elapsed().as_secs_f64() * 1e3
    );
    println!(
        "featured neighborhood: {} ({:.0} pickups; weekly series {:?})",
        regions.region_name(top),
        ranked[0].1.unwrap_or(0.0),
        series
            .region(top)
            .iter()
            .map(|v| v.unwrap_or(0.0) as u64)
            .collect::<Vec<_>>()
    );
}
