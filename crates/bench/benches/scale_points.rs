//! E2 — latency vs. point count (criterion counterpart of `repro --exp e2`).
//!
//! One group per method; each group sweeps |P|. The paper's claim is the
//! *shape*: raster join grows linearly in |P| and beats index joins at every
//! interactive scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use raster_join::{RasterJoin, RasterJoinConfig};
use spatial_index::{index_join, GridIndex, PackedRegionIndex};
use urban_data::query::SpatialAggQuery;
use urbane_bench::workload::Workload;

fn bench_scale(c: &mut Criterion) {
    let w = Workload::standard(1_000_000, 42);
    let regions = w.neighborhoods();
    let q = SpatialAggQuery::count();

    let bounded = RasterJoin::new(RasterJoinConfig::with_resolution(1024));
    let accurate = RasterJoin::new(RasterJoinConfig::accurate(1024));
    let grid = GridIndex::build_auto(&regions);
    let rtree = PackedRegionIndex::build(&regions);

    let mut group = c.benchmark_group("e2_scale_points");
    group.sample_size(10);
    for &n in &[10_000usize, 100_000, 1_000_000] {
        let pts = w.taxi.prefix(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("rj_bounded", n), &pts, |b, pts| {
            b.iter(|| bounded.execute(pts, &regions, &q).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("rj_accurate", n), &pts, |b, pts| {
            b.iter(|| accurate.execute(pts, &regions, &q).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("grid_join", n), &pts, |b, pts| {
            b.iter(|| index_join(pts, &regions, &grid, &q).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("rtree_join", n), &pts, |b, pts| {
            b.iter(|| index_join(pts, &regions, &rtree, &q).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
