//! Single-layer probes: one public function of one crate, timed on the
//! benchmark's data (fixed-size ones) or on the workload's own requests.

use crate::{mean, median, ms, Metrics, Replayed, Served, World, RESOLUTION};
use gpu_raster::{BlendOp, Buffer2D, Pipeline};
use raster_join::{CanvasSpec, ExecutionMode, PreparedRasterJoin, QueryBudget, RasterJoinConfig};
use spatial_index::PackedRegionIndex;
use std::collections::hash_map::{Entry, HashMap};
use std::time::{Duration, Instant};
use urban_data::{Filter, PointTable};
use urbane::ResolutionPyramid;
use urbane_geom::projection::Viewport;

/// Rows of the fixed-size store and geometry probes: enough for four chunks.
const PROBE_ROWS: usize = 200_000;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `urbane-store`, `urbane-geom` and the region index, on a fixed slice of
/// the workload's main table so the numbers compare across runs.
pub fn store_and_geometry(
    m: &mut Metrics,
    table: &PointTable,
    pyramid: &ResolutionPyramid,
    requests: &[Replayed],
) -> Result<(), String> {
    let slice = table.prefix(PROBE_ROWS.min(table.len()));

    let start = Instant::now();
    let bytes = urbane_store::StoreBuilder::new()
        .encode(&slice)
        .map_err(err)?;
    m.set("store.encode_ms", "ms", ms(start.elapsed()));
    m.set(
        "store.bytes_per_row",
        "bytes",
        bytes.len() as f64 / slice.len().max(1) as f64,
    );
    let mut source = urbane_store::ChunkedPointSource::from_bytes(bytes).map_err(err)?;
    let mut chunk_ms = Vec::new();
    for i in 0..source.n_chunks() {
        let start = Instant::now();
        std::hint::black_box(source.read_chunk(i).map_err(err)?);
        chunk_ms.push(ms(start.elapsed()));
    }
    m.set("store.read_chunk_ms", "ms", median(&chunk_ms));
    let start = Instant::now();
    std::hint::black_box(source.materialize().map_err(err)?);
    m.set("store.materialize_ms", "ms", ms(start.elapsed()));

    // Point-in-polygon on the level-1 neighbourhoods: every point against
    // every polygon in turn, so hits and misses both count.
    let regions = pyramid.level(1).map_err(err)?;
    let tests = slice.len().min(50_000);
    let start = Instant::now();
    let mut inside = 0u32;
    for i in 0..tests {
        let id = (i % regions.len()) as u32;
        inside += u32::from(regions.geometry(id).contains(slice.loc(i)));
    }
    std::hint::black_box(inside);
    m.set(
        "geometry.pip_ns",
        "ns",
        start.elapsed().as_secs_f64() * 1e9 / tests.max(1) as f64,
    );

    let mut parse_us = Vec::new();
    for r in requests.iter().take(500) {
        if let Replayed::Query(body) = r {
            let start = Instant::now();
            std::hint::black_box(urbane_geom::geojson::parse_json(body).map_err(err)?);
            parse_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    m.set("geometry.json_parse_us", "us", median(&parse_us));

    let mut build_ms = Vec::new();
    for level in 0..pyramid.len() {
        let regions = pyramid.level(level).map_err(err)?;
        let start = Instant::now();
        std::hint::black_box(PackedRegionIndex::build(&regions));
        build_ms.push(ms(start.elapsed()));
    }
    m.set("index.region_index_build_ms", "ms", median(&build_ms));
    Ok(())
}

/// `gpu-raster`: the two draw calls a raster join is made of, on a canvas
/// of the server's resolution over the city.
pub fn raster(
    m: &mut Metrics,
    table: &PointTable,
    pyramid: &ResolutionPyramid,
) -> Result<(), String> {
    let regions = pyramid.level(1).map_err(err)?;
    let viewport = Viewport::fitted(regions.bbox(), RESOLUTION, RESOLUTION);
    let mut pipeline = Pipeline::new(viewport);

    let mut canvas = Buffer2D::new(viewport.width, viewport.height, 0.0f32);
    let start = Instant::now();
    pipeline.draw_points(&mut canvas, table.locations(), |_| 1.0f32, BlendOp::Add);
    let took = start.elapsed().as_secs_f64();
    std::hint::black_box(canvas.sum());
    m.set(
        "raster.point_draw_mpts_s",
        "Mpts/s",
        table.len() as f64 / took / 1e6,
    );

    // Fill every neighbourhood a few times over: one pass is under a millisecond.
    pipeline.reset_stats();
    let mut canvas = Buffer2D::new(viewport.width, viewport.height, 0.0f32);
    let start = Instant::now();
    for _ in 0..20 {
        for (_, _, geometry) in regions.iter() {
            for polygon in geometry.polygons() {
                pipeline.draw_polygon_scan(&mut canvas, polygon, 1.0f32, BlendOp::Add);
            }
        }
    }
    let took = start.elapsed().as_secs_f64();
    std::hint::black_box(canvas.sum());
    m.set(
        "raster.polygon_fill_mpix_s",
        "Mpix/s",
        pipeline.stats().fragments as f64 / took / 1e6,
    );
    Ok(())
}

/// The `PreparedRasterJoin` of a pyramid level, built on first use.
fn prepared<'a>(
    cache: &'a mut HashMap<(usize, bool), PreparedRasterJoin>,
    pyramid: &ResolutionPyramid,
    level: usize,
    mode: ExecutionMode,
    prepare_ms: &mut Vec<f64>,
) -> Result<&'a PreparedRasterJoin, String> {
    match cache.entry((level, mode == ExecutionMode::Accurate)) {
        Entry::Occupied(built) => Ok(built.into_mut()),
        Entry::Vacant(slot) => {
            let regions = pyramid.level(level).map_err(err)?;
            let start = Instant::now();
            let built = PreparedRasterJoin::prepare(
                &regions,
                CanvasSpec::Resolution(RESOLUTION),
                RasterJoinConfig::default().max_tile,
                mode,
            )
            .map_err(err)?;
            prepare_ms.push(ms(start.elapsed()));
            Ok(slot.insert(built))
        }
    }
}

/// Probes that take the workload's own requests: filter masks, bin
/// pruning, the prepared and batched raster joins, the resident index join.
pub fn per_request(
    m: &mut Metrics,
    world: &World,
    served: &[Served],
    indexes: &[PackedRegionIndex],
    budget: Duration,
) -> Result<(), String> {
    // Distinct requests only: a dashboard replays the same 48 many times.
    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<&Served> = served
        .iter()
        .filter(|s| seen.insert(format!("{:?}", s.parsed)))
        .collect();
    let deadline = |share: u32| Instant::now() + budget / share;

    // urban-data: the filter conjunction as a mask, and what the bins let
    // a viewport skip.
    let (mut mask_ms, mut selectivity, mut candidates) = (vec![], vec![], vec![]);
    let until = deadline(4);
    let mut scratch = Vec::new();
    for s in &distinct {
        let Some(table) = world.tables.get(s.parsed.dataset.as_str()) else {
            continue;
        };
        if Instant::now() >= until {
            break;
        }
        let query = s.parsed.to_query();
        let start = Instant::now();
        let mask = query.filters.mask(table).map_err(err)?;
        mask_ms.push(ms(start.elapsed()));
        selectivity
            .push(mask.iter().filter(|&&keep| keep).count() as f64 / table.len().max(1) as f64);
        let viewport = s.parsed.filters.iter().find_map(|f| match f {
            Filter::SpatialBox(b) => Some(*b),
            _ => None,
        });
        if let (Some(view), Some(Some(bins))) =
            (viewport, world.bins.get(s.parsed.dataset.as_str()))
        {
            scratch.clear();
            bins.candidates_into(&view, &mut scratch);
            candidates.push(scratch.len() as f64 / table.len().max(1) as f64);
        }
    }
    m.set("data.filter_mask_ms", "ms", median(&mask_ms));
    m.set("data.filter_selectivity", "share", mean(&selectivity));
    m.set("data.bin_candidates_share", "share", mean(&candidates));

    // raster-join: polygon pass once (prepare), then point pass + gather
    // per query (prepared execute).
    let raster: Vec<&&Served> = distinct
        .iter()
        .filter(|s| {
            s.parsed.mode != ExecutionMode::IndexJoin
                && world.tables.contains_key(s.parsed.dataset.as_str())
        })
        .collect();
    let mut cache = HashMap::new();
    let (mut prepare_ms, mut prepared_ms) = (vec![], vec![]);
    let until = deadline(4);
    for s in &raster {
        if Instant::now() >= until {
            break;
        }
        let join = prepared(
            &mut cache,
            &world.pyramid,
            s.parsed.level,
            s.parsed.mode,
            &mut prepare_ms,
        )?;
        let store = world
            .point_store(&s.parsed.dataset)
            .expect("filtered above");
        let start = Instant::now();
        std::hint::black_box(
            join.execute_store(store, &s.parsed.to_query(), &QueryBudget::unlimited())
                .map_err(err)?,
        );
        prepared_ms.push(ms(start.elapsed()));
    }
    m.set("core.prepare_ms", "ms", median(&prepare_ms));
    m.set("core.prepared_execute_ms", "ms", median(&prepared_ms));

    // raster-join: four compatible queries (same dataset, level and mode)
    // in one batched pass.
    let mut groups: HashMap<(String, usize, bool), Vec<&Served>> = HashMap::new();
    for s in &raster {
        let key = (
            s.parsed.dataset.clone(),
            s.parsed.level,
            s.parsed.mode == ExecutionMode::Accurate,
        );
        groups.entry(key).or_default().push(s);
    }
    let mut batch_ms = Vec::new();
    let until = deadline(4);
    let mut keys: Vec<_> = groups.keys().cloned().collect();
    keys.sort();
    'batches: for key in keys {
        for four in groups[&key].chunks_exact(4) {
            if Instant::now() >= until {
                break 'batches;
            }
            let regions = world.pyramid.level(key.1).map_err(err)?;
            let queries: Vec<_> = four.iter().map(|s| s.parsed.to_query()).collect();
            let store = world.point_store(&key.0).expect("filtered above");
            let start = Instant::now();
            std::hint::black_box(
                crate::raster_join(four[0].parsed.mode)
                    .execute_batch_store(store, &regions, &queries, &QueryBudget::unlimited())
                    .map_err(err)?,
            );
            batch_ms.push(ms(start.elapsed()) / 4.0);
        }
    }
    m.set("core.batch_k4_ms_per_query", "ms", median(&batch_ms));

    // spatial-index: the exact join on resident rows, the audit's reference.
    let mut resident_ms = Vec::new();
    let until = deadline(4);
    for s in &raster {
        if Instant::now() >= until {
            break;
        }
        let table = &world.tables[s.parsed.dataset.as_str()];
        let regions = world.pyramid.level(s.parsed.level).map_err(err)?;
        let start = Instant::now();
        std::hint::black_box(
            spatial_index::index_join_budgeted(
                table,
                &regions,
                &indexes[s.parsed.level],
                &s.parsed.to_query(),
                &QueryBudget::unlimited(),
            )
            .map_err(err)?,
        );
        resident_ms.push(ms(start.elapsed()));
    }
    m.set("index.join_resident_ms", "ms", median(&resident_ms));
    Ok(())
}
