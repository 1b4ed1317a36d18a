//! Interactive-session walkthrough — the demo script, headless.
//!
//! Reproduces what a SIGMOD demo visitor does at the booth: load three urban
//! data sets, then pan through resolutions, drag the time slider, swap data
//! sets, and apply ad-hoc filters — printing the backend latency of every
//! interaction (the paper's interactivity claim).
//!
//! ```text
//! cargo run --release --example interactive_session
//! ```

use raster_join::RasterJoinConfig;
use urban_data::filter::Filter;
use urban_data::gen::city::CityModel;
use urban_data::gen::events::{generate_complaints, generate_crime, EventConfig};
use urban_data::gen::taxi::{generate_taxi, TaxiConfig};
use urban_data::time::{timestamp, TimeRange, DAY};
use urbane::{DataCatalog, ResolutionPyramid, SessionConfig, UrbaneSession};

fn interact(session: &mut UrbaneSession, label: &str) {
    let start = std::time::Instant::now();
    let table = session.evaluate().expect("query");
    println!(
        "  {label:<42} {:>7.1} ms   ({} joined points, {} regions)",
        start.elapsed().as_secs_f64() * 1e3,
        table.total_count(),
        table.len()
    );
}

fn main() {
    let city = CityModel::nyc_like();
    let start = timestamp(2009, 1, 1, 0, 0, 0);
    println!("loading data sets…");
    let mut catalog = DataCatalog::new();
    catalog.register(
        "taxi",
        generate_taxi(&city, &TaxiConfig { rows: 1_000_000, seed: 42, start, days: 30 }),
    );
    catalog.register(
        "311",
        generate_complaints(
            &city,
            &EventConfig { rows: 200_000, seed: 43, start, days: 30, n_types: 12 },
        ),
    );
    catalog.register(
        "crime",
        generate_crime(
            &city,
            &EventConfig { rows: 100_000, seed: 44, start, days: 30, n_types: 10 },
        ),
    );
    println!("catalog: {:?}, {} rows total\n", catalog.names(), catalog.total_rows());

    let pyramid = ResolutionPyramid::standard(&city.bbox(), 260, 46, 42);
    let mut s = UrbaneSession::new(
        SessionConfig { join: RasterJoinConfig::with_resolution(1024), ..Default::default() },
        catalog,
        pyramid,
    )
    .expect("example catalog is non-empty");

    println!("session interactions:");
    s.select_dataset("taxi").unwrap();
    s.select_resolution(1).unwrap();
    interact(&mut s, "open map view (taxi x neighborhoods)");
    // The cache admits a view on its second miss, so the third render hits.
    interact(&mut s, "re-render (second miss: admitted)");
    interact(&mut s, "re-render (cache hit)");

    for week in 0..4 {
        s.set_time_window(Some(TimeRange::new(
            start + week * 7 * DAY,
            start + (week + 1) * 7 * DAY,
        )));
        interact(&mut s, &format!("time slider -> week {}", week + 1));
    }

    s.set_time_window(None);
    s.select_resolution(0).unwrap();
    interact(&mut s, "resolution switch -> boroughs");
    s.select_resolution(2).unwrap();
    interact(&mut s, "resolution switch -> tract grid");

    s.select_resolution(1).unwrap();
    s.select_dataset("311").unwrap();
    interact(&mut s, "dataset swap -> 311 complaints");
    s.select_dataset("crime").unwrap();
    interact(&mut s, "dataset swap -> crime");

    s.select_dataset("taxi").unwrap();
    s.set_filters(vec![Filter::AttrRange { column: "fare".into(), min: 20.0, max: 1e9 }]);
    interact(&mut s, "ad-hoc filter: fare >= $20");
    s.set_filters(vec![
        Filter::AttrRange { column: "fare".into(), min: 20.0, max: 1e9 },
        Filter::AttrEquals { column: "passengers".into(), value: 1.0 },
    ]);
    interact(&mut s, "  + passengers == 1");

    let stats = s.cache_stats();
    println!("\ncache: {} hits, {} misses", stats.hits, stats.misses);
}
