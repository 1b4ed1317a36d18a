//! E6 — interactive-session latency: the end-to-end cost of each user
//! interaction (time-slider move, resolution switch, dataset swap), which is
//! precisely what the demo puts in front of visitors.

use criterion::{criterion_group, criterion_main, Criterion};
use raster_join::RasterJoinConfig;
use urban_data::filter::Filter;
use urban_data::time::{TimeRange, DAY};
use urbane::{ResolutionPyramid, SessionConfig, UrbaneSession};
use urbane_bench::workload::{demo_start, Workload};

fn fresh_session(w: &Workload) -> UrbaneSession {
    let pyramid = ResolutionPyramid::standard(&w.city.bbox(), 260, 46, 42);
    let mut s = UrbaneSession::new(
        SessionConfig {
            join: RasterJoinConfig::with_resolution(1024),
            cache_capacity: 0, // disable caching: measure the query path
            ..Default::default()
        },
        w.catalog(),
        pyramid,
    )
    .expect("bench catalog is non-empty");
    s.select_dataset("taxi").unwrap();
    s.select_resolution(1).unwrap();
    s
}

fn bench_interaction(c: &mut Criterion) {
    let w = Workload::standard(200_000, 42);
    let start = demo_start();

    let mut group = c.benchmark_group("e6_interaction");
    group.sample_size(10);

    let s = fresh_session(&w);
    group.bench_function("map_view_neighborhoods", |b| b.iter(|| s.evaluate().unwrap()));

    let mut s = fresh_session(&w);
    s.set_time_window(Some(TimeRange::new(start, start + 7 * DAY)));
    group.bench_function("time_slider_week", |b| b.iter(|| s.evaluate().unwrap()));

    let mut s = fresh_session(&w);
    s.select_resolution(2).unwrap();
    group.bench_function("resolution_tracts", |b| b.iter(|| s.evaluate().unwrap()));

    let mut s = fresh_session(&w);
    s.select_dataset("311").unwrap();
    group.bench_function("dataset_swap_311", |b| b.iter(|| s.evaluate().unwrap()));

    let mut s = fresh_session(&w);
    s.set_filters(vec![Filter::AttrRange { column: "fare".into(), min: 20.0, max: 1e9 }]);
    group.bench_function("adhoc_fare_filter", |b| b.iter(|| s.evaluate().unwrap()));

    group.finish();
}

criterion_group!(benches, bench_interaction);
criterion_main!(benches);
