//! E9 — design-choice ablations (DESIGN.md §6): tiling granularity and
//! threading, bounded vs. accurate, and replaying a kept region raster.

use criterion::{criterion_group, criterion_main, Criterion};
use raster_join::{CanvasSpec, ExecutionMode, RasterJoin, RasterJoinConfig};
use urban_data::query::SpatialAggQuery;
use urbane_bench::workload::Workload;

fn bench_ablation(c: &mut Criterion) {
    let w = Workload::standard(200_000, 42);
    let pts = &w.taxi;
    let nbhd = w.neighborhoods();
    let q = SpatialAggQuery::count();

    let mut group = c.benchmark_group("e9_ablation");
    group.sample_size(10);

    for (max_tile, threads, label) in
        [(4096u32, 1usize, "tiles_1_serial"), (512, 1, "tiles_4_serial"), (512, 4, "tiles_4_threads")]
    {
        let join = RasterJoin::new(RasterJoinConfig {
            spec: CanvasSpec::Resolution(1024),
            max_tile,
            threads,
            ..Default::default()
        });
        group.bench_function(label, |b| b.iter(|| join.execute(pts, &nbhd, &q).unwrap()));
    }

    let accurate = RasterJoin::new(RasterJoinConfig {
        mode: ExecutionMode::Accurate,
        spec: CanvasSpec::Resolution(1024),
        ..Default::default()
    });
    group.bench_function("mode_accurate", |b| {
        b.iter(|| accurate.execute(pts, &nbhd, &q).unwrap())
    });

    let prepared = raster_join::PreparedRasterJoin::prepare(
        &nbhd,
        CanvasSpec::Resolution(1024),
        2048,
        ExecutionMode::Bounded,
    )
    .unwrap();
    group.bench_function("prepared_bounded", |b| b.iter(|| prepared.execute(pts, &q).unwrap()));

    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
