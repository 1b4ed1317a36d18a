//! Experiment runners E1–E9 (DESIGN.md §4).
//!
//! Each function regenerates one experiment's table(s) as a string; the
//! `repro` binary prints them and DESIGN.md §4 records a reference run.

use crate::workload::{demo_start, Workload};
use crate::{median_ms, time_ms, Table};
use raster_join::{CanvasSpec, ExecutionMode, RasterJoin, RasterJoinConfig};
use spatial_index::{
    index_join, index_join_parallel, naive_join, GridIndex, PackedRegionIndex, PreAggCube,
};
use urban_data::filter::Filter;
use urban_data::query::{AggKind, SpatialAggQuery};
use urban_data::time::{TimeBucket, TimeRange, DAY};
use urban_data::RegionSet;
use urbane::view::explore::{most_similar, profiles, rank_regions, time_series};
use urbane::view::MapView;
use urbane::{
    QueryRequest, ResolutionPyramid, ServiceConfig, SessionConfig, UrbaneService, UrbaneSession,
};

/// Repetitions for timed measurements (median reported).
const REPS: usize = 3;

fn rj(config: RasterJoinConfig) -> RasterJoin {
    RasterJoin::new(config)
}

/// The views' service: the workload over one pyramid level, `regions`, at
/// the default 1024² canvas, with no cache and no deadline it reaches.
fn view_service(w: &Workload, regions: RegionSet) -> UrbaneService {
    let config = ServiceConfig {
        cache_capacity: 0,
        default_deadline: std::time::Duration::from_secs(24 * 60 * 60),
        ..ServiceConfig::default()
    };
    let pyramid = ResolutionPyramid::new(vec![regions]);
    UrbaneService::new(config, w.catalog(), pyramid).expect("catalog is non-empty")
}

/// E1 — the paper's Figure 1: taxi pickups for January 2009 aggregated over
/// neighborhoods, rendered as a choropleth. Writes `out/map_view.ppm`.
pub fn e1_map_view(scale: usize, out_dir: &str) -> String {
    let w = Workload::standard(scale, 42);
    let regions = w.neighborhoods();
    let service = view_service(&w, regions.clone());
    let req = QueryRequest::count("taxi", 0)
        .filter(Filter::Time(TimeRange::new(demo_start(), demo_start() + 30 * DAY)));

    let view = MapView::with_defaults();
    let (img, ms) = time_ms(|| view.render(&service.query(&req).unwrap(), 800, 800));

    std::fs::create_dir_all(out_dir).ok();
    let path = format!("{out_dir}/map_view.ppm");
    gpu_raster::ppm::write_ppm(&path, &img.image).expect("write choropleth");

    let ranked = rank_regions(&service, &req).unwrap();
    let mut t = Table::new(["rank", "neighborhood", "pickups"]);
    for (i, (r, v)) in ranked.iter().take(10).enumerate() {
        let v = v.unwrap_or(0.0);
        t.row([format!("{}", i + 1), regions.region_name(*r).to_string(), format!("{v:.0}")]);
    }
    format!(
        "E1  Map view (taxi pickups, Jan 2009, {} neighborhoods, |P|={})\n\
         choropleth written to {path}; render latency {ms:.1} ms; ε = {eps:.1} m\n\n{table}",
        regions.len(),
        w.taxi.len(),
        eps = img.error_bound.unwrap_or(f64::NAN),
        table = t.render()
    )
}

/// E2 — scalability: latency vs. |P| for every method.
pub fn e2_scale_points(max_points: usize) -> String {
    let w = Workload::standard(max_points, 42);
    let regions = w.neighborhoods();
    let q = SpatialAggQuery::count();

    let sizes: Vec<usize> = [10_000usize, 100_000, 1_000_000, 5_000_000, 10_000_000]
        .into_iter()
        .filter(|&n| n <= max_points)
        .collect();

    let grid = GridIndex::build_auto(&regions);
    let rtree = PackedRegionIndex::build(&regions);
    let bounded = rj(RasterJoinConfig::with_resolution(1024));
    let accurate = rj(RasterJoinConfig::accurate(1024));

    let mut t = Table::new([
        "|P|",
        "rj-bounded ms",
        "rj-accurate ms",
        "grid-join ms",
        "rtree-join ms",
        "grid-par4 ms",
        "naive ms",
    ]);
    for &n in &sizes {
        let pts = w.taxi.prefix(n);
        let b = median_ms(REPS, || {
            bounded.execute(&pts, &regions, &q).unwrap();
        });
        let a = median_ms(REPS, || {
            accurate.execute(&pts, &regions, &q).unwrap();
        });
        let g = median_ms(REPS, || {
            index_join(&pts, &regions, &grid, &q).unwrap();
        });
        let r = median_ms(REPS, || {
            index_join(&pts, &regions, &rtree, &q).unwrap();
        });
        let gp = median_ms(REPS, || {
            index_join_parallel(&pts, &regions, &grid, &q, 4).unwrap();
        });
        let nv = if n <= 100_000 {
            format!("{:.1}", median_ms(1, || {
                naive_join(&pts, &regions, &q).unwrap();
            }))
        } else {
            "-".to_string()
        };
        t.row([
            format!("{n}"),
            format!("{b:.1}"),
            format!("{a:.1}"),
            format!("{g:.1}"),
            format!("{r:.1}"),
            format!("{gp:.1}"),
            nv,
        ]);
    }
    format!(
        "E2  Latency vs. point count (COUNT over {} neighborhoods; median of {REPS})\n\n{}",
        regions.len(),
        t.render()
    )
}

/// E3 — latency vs. polygon complexity (region count and vertex count).
pub fn e3_polygon_complexity(points: usize) -> String {
    let w = Workload::standard(points, 42);
    let pts = &w.taxi;
    let q = SpatialAggQuery::count();

    let sets: Vec<(&str, RegionSet)> = vec![
        ("boroughs", w.boroughs()),
        ("neighborhoods", w.neighborhoods()),
        ("tracts-grid", w.tracts()),
        ("fine-grid", w.fine_grid()),
        ("stars-64v", w.stars(260, 64)),
        ("stars-256v", w.stars(260, 256)),
    ];

    let bounded = rj(RasterJoinConfig::with_resolution(1024));
    let mut t = Table::new([
        "regions",
        "count",
        "vertices",
        "rj-bounded ms",
        "grid-join ms",
        "rtree-join ms",
    ]);
    for (name, rs) in &sets {
        let b = median_ms(REPS, || {
            bounded.execute(pts, rs, &q).unwrap();
        });
        let grid = GridIndex::build_auto(rs);
        let g = median_ms(REPS, || {
            index_join(pts, rs, &grid, &q).unwrap();
        });
        let rtree = PackedRegionIndex::build(rs);
        let r = median_ms(REPS, || {
            index_join(pts, rs, &rtree, &q).unwrap();
        });
        t.row([
            name.to_string(),
            format!("{}", rs.len()),
            format!("{}", rs.total_vertices()),
            format!("{b:.1}"),
            format!("{g:.1}"),
            format!("{r:.1}"),
        ]);
    }
    format!(
        "E3  Latency vs. polygon complexity (|P| = {points}, COUNT; median of {REPS})\n\n{}",
        t.render()
    )
}

/// E4 — bounded-join accuracy vs. ε: measured error must stay under the
/// guaranteed bound; accurate mode must be exact.
pub fn e4_accuracy(points: usize) -> String {
    let w = Workload::standard(points, 42);
    let pts = &w.taxi;
    let regions = w.neighborhoods();
    let q = SpatialAggQuery::count();
    let truth = naive_join(pts, &regions, &q).unwrap();
    let truth_total = truth.total_count() as f64;

    let mut t = Table::new([
        "canvas",
        "ε (m)",
        "max |Δcount|",
        "total rel err",
        "ms",
    ]);
    for res in [128u32, 256, 512, 1024, 2048, 4096] {
        let join = rj(RasterJoinConfig::with_resolution(res));
        let (result, ms) = time_ms(|| join.execute(pts, &regions, &q).unwrap());
        let max_abs = result.table.max_abs_diff(&truth);
        let total_rel =
            (result.table.total_count() as f64 - truth_total).abs() / truth_total.max(1.0);
        t.row([
            format!("{res}"),
            format!("{:.1}", result.epsilon),
            format!("{max_abs:.0}"),
            format!("{total_rel:.5}"),
            format!("{ms:.1}"),
        ]);
    }
    // Weighted row: fractional boundary folding at the same 1024 canvas.
    let join = rj(RasterJoinConfig::weighted(1024));
    let (result, ms) = time_ms(|| join.execute(pts, &regions, &q).unwrap());
    let max_abs = result.table.max_abs_diff(&truth);
    let total_rel =
        (result.table.values().iter().flatten().sum::<f64>() - truth_total).abs()
            / truth_total.max(1.0);
    t.row([
        "1024 wgt".into(),
        "38.5*".into(),
        format!("{max_abs:.0}"),
        format!("{total_rel:.5}"),
        format!("{ms:.1}"),
    ]);

    // Accurate row.
    let join = rj(RasterJoinConfig::accurate(1024));
    let (result, ms) = time_ms(|| join.execute(pts, &regions, &q).unwrap());
    let max_abs = result.table.max_abs_diff(&truth);
    t.row([
        "1024+fix".into(),
        "exact".into(),
        format!("{max_abs:.0}"),
        "0.00000".into(),
        format!("{ms:.1}"),
    ]);

    format!(
        "E4  Bounded accuracy vs. ε (|P| = {points}, {} neighborhoods; exact join as truth)\n\
         (* weighted: same canvas, boundary pixels folded by exact area fraction)\n\n{}",
        regions.len(),
        t.render()
    )
}

/// E5 — ad-hoc filters: why pre-aggregation fails.
pub fn e5_filters(points: usize) -> String {
    let w = Workload::standard(points, 42);
    let pts = &w.taxi;
    let regions = w.neighborhoods();
    let start = demo_start();

    let (cube, cube_build_ms) = time_ms(|| {
        PreAggCube::build(pts, &regions, TimeBucket::Day, Some("passengers"), Some("fare"))
            .unwrap()
    });
    let grid = GridIndex::build_auto(&regions);
    let bounded = rj(RasterJoinConfig::with_resolution(1024));

    let queries: Vec<(&str, SpatialAggQuery)> = vec![
        ("no filter", SpatialAggQuery::count()),
        (
            "day-aligned time (cube-friendly)",
            SpatialAggQuery::count().filter(Filter::Time(TimeRange::new(start, start + 7 * DAY))),
        ),
        (
            "unaligned time (ad hoc)",
            SpatialAggQuery::count()
                .filter(Filter::Time(TimeRange::new(start + 3 * 3600, start + 5 * DAY + 7 * 3600))),
        ),
        (
            "fare range (ad hoc)",
            SpatialAggQuery::count().filter(Filter::AttrRange {
                column: "fare".into(),
                min: 10.0,
                max: 30.0,
            }),
        ),
        (
            "fare range + time (ad hoc)",
            SpatialAggQuery::count()
                .filter(Filter::AttrRange { column: "fare".into(), min: 10.0, max: 30.0 })
                .filter(Filter::Time(TimeRange::new(start, start + 7 * DAY))),
        ),
    ];

    let mut t = Table::new(["query", "selectivity", "rj ms", "grid ms", "cube"]);
    for (name, q) in &queries {
        let sel = q.filters.selectivity(pts).unwrap();
        let b = median_ms(REPS, || {
            bounded.execute(pts, &regions, q).unwrap();
        });
        let g = median_ms(REPS, || {
            index_join(pts, &regions, &grid, q).unwrap();
        });
        let cube_cell = match cube.query(q) {
            Ok(_) => {
                let ms = median_ms(REPS, || {
                    cube.query(q).unwrap();
                });
                format!("{ms:.2} ms")
            }
            Err(e) => format!("UNSUPPORTED ({e})"),
        };
        t.row([
            name.to_string(),
            format!("{sel:.2}"),
            format!("{b:.1}"),
            format!("{g:.1}"),
            cube_cell,
        ]);
    }
    format!(
        "E5  Ad-hoc filter support (|P| = {points}; cube: day × passengers × fare, built in {cube_build_ms:.0} ms, {} cells)\n\n{}",
        cube.cell_count(),
        t.render()
    )
}

/// E6 — interactive-session latency per interaction kind.
pub fn e6_interaction(points: usize) -> String {
    let w = Workload::standard(points, 42);
    let pyramid = ResolutionPyramid::standard(&w.city.bbox(), 260, 46, 42);
    let mut session = UrbaneSession::new(
        SessionConfig { join: RasterJoinConfig::with_resolution(1024), ..Default::default() },
        w.catalog(),
        pyramid,
    )
    .expect("experiment catalog is non-empty");
    session.select_dataset("taxi").unwrap();
    session.select_resolution(1).unwrap();
    let start = demo_start();

    let mut t = Table::new(["interaction", "latency ms"]);
    let mut step = |name: &str, session: &mut UrbaneSession| {
        let (_, ms) = time_ms(|| session.evaluate().unwrap());
        t.row([name.to_string(), format!("{ms:.1}")]);
    };

    step("initial view (neighborhoods)", &mut session);
    step("repeat view (cache hit)", &mut session);
    session.set_time_window(Some(TimeRange::new(start, start + 7 * DAY)));
    step("time slider: week 1", &mut session);
    session.set_time_window(Some(TimeRange::new(start + 7 * DAY, start + 14 * DAY)));
    step("time slider: week 2", &mut session);
    session.select_resolution(0).unwrap();
    step("resolution: boroughs", &mut session);
    session.select_resolution(2).unwrap();
    step("resolution: tract grid", &mut session);
    session.select_resolution(1).unwrap();
    session.select_dataset("311").unwrap();
    step("dataset swap: 311", &mut session);
    session.select_dataset("crime").unwrap();
    step("dataset swap: crime", &mut session);
    session.select_dataset("taxi").unwrap();
    session.set_filters(vec![Filter::AttrRange {
        column: "fare".into(),
        min: 20.0,
        max: 100.0,
    }]);
    step("attribute filter: fare > $20", &mut session);
    session.set_filters(vec![]);

    // Pan/zoom only re-renders the choropleth — the aggregates are cached.
    session.zoom(0.5);
    let (_, ms) = time_ms(|| session.render_map().unwrap());
    t.row(["zoom in 2x (render only)".to_string(), format!("{ms:.1}")]);
    session.pan(0.25, 0.0);
    let (_, ms) = time_ms(|| session.render_map().unwrap());
    t.row(["pan east (render only)".to_string(), format!("{ms:.1}")]);
    session.reset_view();

    // Progressive preview: sample-then-refine during slider drags.
    let (_, ms) = time_ms(|| session.evaluate_preview(50_000).unwrap());
    t.row(["preview (50k sample)".to_string(), format!("{ms:.1}")]);

    let st = session.cache_stats();
    format!(
        "E6  Interactive session latency (|P| = {points}, canvas 1024; cache: {} hits / {} misses)\n\n{}",
        st.hits,
        st.misses,
        t.render()
    )
}

/// E7 — the data-exploration view: time series, ranking, similarity.
pub fn e7_exploration(points: usize) -> String {
    let w = Workload::standard(points, 42);
    let regions = w.neighborhoods();
    let service = view_service(&w, regions.clone());
    let start = demo_start();
    let range = TimeRange::new(start, start + 28 * DAY);
    let taxi = QueryRequest::count("taxi", 0);

    let (series, series_ms) =
        time_ms(|| time_series(&service, &taxi, range, TimeBucket::Week).unwrap());

    let (ranked, rank_ms) = time_ms(|| rank_regions(&service, &taxi).unwrap());

    let metrics = [
        taxi.clone(),
        QueryRequest::count("311", 0),
        QueryRequest::count("crime", 0),
        taxi.clone().agg(AggKind::Avg("fare".into())),
    ];
    let (profiles, prof_ms) = time_ms(|| profiles(&service, &metrics).unwrap());
    let reference = ranked[0].0;
    let similar = most_similar(&profiles, reference, 3);

    let mut t1 = Table::new(["week", "top region series (pickups)"]);
    for (i, b) in series.buckets.iter().enumerate() {
        t1.row([
            format!("{} (+{}d)", i + 1, (b.start - start) / DAY),
            format!("{:.0}", series.region(reference)[i].unwrap_or(0.0)),
        ]);
    }
    let mut t2 = Table::new(["rank", "neighborhood", "pickups"]);
    for (i, (r, v)) in ranked.iter().take(5).enumerate() {
        t2.row([
            format!("{}", i + 1),
            regions.region_name(*r).to_string(),
            format!("{:.0}", v.unwrap_or(0.0)),
        ]);
    }
    let mut t3 = Table::new(["similar to top region", "distance"]);
    for (r, d) in &similar {
        t3.row([regions.region_name(*r).to_string(), format!("{d:.3}")]);
    }

    format!(
        "E7  Data-exploration view (|P| = {points}, {} neighborhoods)\n\
         weekly series: {series_ms:.0} ms  |  ranking: {rank_ms:.0} ms  |  4-metric profiles: {prof_ms:.0} ms\n\n\
         {}\n{}\n{}",
        regions.len(),
        t1.render(),
        t2.render(),
        t3.render()
    )
}

/// E8 — aggregate-function coverage: all five AGGs, bounded vs. accurate vs.
/// exact.
pub fn e8_aggregates(points: usize) -> String {
    let w = Workload::standard(points, 42);
    let pts = &w.taxi;
    let regions = w.neighborhoods();

    let aggs = [
        AggKind::Count,
        AggKind::Sum("fare".into()),
        AggKind::Avg("fare".into()),
        AggKind::Min("fare".into()),
        AggKind::Max("fare".into()),
    ];
    let bounded = rj(RasterJoinConfig::with_resolution(1024));
    let accurate = rj(RasterJoinConfig::accurate(1024));

    let mut t = Table::new(["AGG", "bounded ms", "bounded max rel err", "accurate ms", "accurate exact?"]);
    for agg in &aggs {
        let q = SpatialAggQuery::new(agg.clone());
        let truth = naive_join(pts, &regions, &q).unwrap();
        let (b_res, b_ms) = time_ms(|| bounded.execute(pts, &regions, &q).unwrap());
        let (a_res, a_ms) = time_ms(|| accurate.execute(pts, &regions, &q).unwrap());
        // Max relative error over regions with data.
        let rel = |res: &urban_data::AggTable| {
            truth
                .values()
                .iter()
                .zip(res.values())
                .filter_map(|(t, g)| match (t, g) {
                    (Some(t), Some(g)) if t.abs() > 1e-9 => Some(((g - t) / t).abs()),
                    (Some(_), None) => Some(1.0),
                    _ => None,
                })
                .fold(0.0f64, f64::max)
        };
        let exact = truth
            .values()
            .iter()
            .zip(a_res.table.values())
            .all(|(t, g)| match (t, g) {
                (Some(t), Some(g)) => (t - g).abs() < 1e-3 * t.abs().max(1.0),
                (None, None) => true,
                _ => false,
            });
        t.row([
            format!("{agg:?}"),
            format!("{b_ms:.1}"),
            format!("{:.4}", rel(&b_res.table)),
            format!("{a_ms:.1}"),
            if exact { "yes".into() } else { "NO".to_string() },
        ]);
    }
    format!("E8  Aggregate coverage (|P| = {points}, {} neighborhoods)\n\n{}", regions.len(), t.render())
}

/// E9 — ablations on the design choices (DESIGN.md §6).
pub fn e9_ablation(points: usize) -> String {
    let w = Workload::standard(points, 42);
    let pts = &w.taxi;
    let nbhd = w.neighborhoods();
    let q = SpatialAggQuery::count();

    let mut t = Table::new(["variant", "region set", "ms", "note"]);
    let run = |name: &str, rs: &RegionSet, cfg: RasterJoinConfig, note: &str, t: &mut Table| {
        let join = rj(cfg);
        let ms = median_ms(REPS, || {
            join.execute(pts, rs, &q).unwrap();
        });
        t.row([name.to_string(), rs.name().to_string(), format!("{ms:.1}"), note.to_string()]);
    };

    // 9.3 tiling.
    for (max_tile, note) in [(4096u32, "single tile"), (512, "4x4-ish tiles"), (256, "8x8-ish tiles")] {
        run(
            &format!("tile<= {max_tile}"),
            &nbhd,
            RasterJoinConfig {
                spec: CanvasSpec::Resolution(1024),
                max_tile,
                ..Default::default()
            },
            note,
            &mut t,
        );
    }
    // 9.4 bounded vs accurate (cost of the boundary fix-up).
    run("bounded", &nbhd, RasterJoinConfig::with_resolution(1024), "ε-approximate", &mut t);
    run(
        "accurate",
        &nbhd,
        RasterJoinConfig {
            mode: ExecutionMode::Accurate,
            spec: CanvasSpec::Resolution(1024),
            ..Default::default()
        },
        "boundary fix-up",
        &mut t,
    );

    // 9.5 replaying a kept region raster vs one-shot. Every row above is
    // one-shot: it prepares the raster and replays it once per query.
    for (mode, label) in [
        (ExecutionMode::Bounded, "replay bounded"),
        (ExecutionMode::Weighted, "replay weighted"),
        (ExecutionMode::Accurate, "replay accurate"),
    ] {
        let (prepared, prep_ms) = time_ms(|| {
            raster_join::PreparedRasterJoin::prepare(&nbhd, CanvasSpec::Resolution(1024), 2048, mode)
                .unwrap()
        });
        let ms = median_ms(REPS, || {
            prepared.execute(pts, &q).unwrap();
        });
        t.row([
            label.to_string(),
            nbhd.name().to_string(),
            format!("{ms:.1}"),
            format!("raster kept across queries (prepare {prep_ms:.0} ms)"),
        ]);
    }

    format!("E9  Ablations (|P| = {points}, COUNT)\n\n{}", t.render())
}

/// Run every experiment at `scale` points, concatenating the reports.
pub fn run_all(scale: usize, out_dir: &str) -> String {
    let mut s = String::new();
    for part in [
        e1_map_view(scale, out_dir),
        e2_scale_points(scale),
        e3_polygon_complexity(scale),
        e4_accuracy(scale.min(1_000_000)),
        e5_filters(scale),
        e6_interaction(scale),
        e7_exploration(scale),
        e8_aggregates(scale.min(1_000_000)),
        e9_ablation(scale),
    ] {
        s.push_str(&part);
        s.push_str("\n\n");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-test every experiment at a tiny scale — the repro binary must
    /// never break.
    #[test]
    fn all_experiments_run_at_small_scale() {
        let out = run_all(20_000, "/tmp/urbane_bench_test_out");
        for tag in ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9"] {
            assert!(out.contains(tag), "missing section {tag}");
        }
        assert!(out.contains("UNSUPPORTED"), "E5 must show the cube's gap");
        assert!(out.contains("yes"), "E8 must confirm accurate exactness");
        // E4's accurate row reads `exact` and misses the exact join by 0.
        let exact_row = |l: &str| l.split_whitespace().take(3).eq(["1024+fix", "exact", "0"]);
        assert!(out.lines().any(exact_row), "E4's accurate row is not exact:\n{out}");
    }
}
