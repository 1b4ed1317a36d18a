//! `probe` — the benchmark's traced run.
//!
//! ```text
//! probe --workload W --requests FILE --rows N --store-rows M --out-dir DIR --seconds B
//! ```
//!
//! Replays the request bodies the load generator sent (one per line of
//! FILE) against an in-process `UrbaneService` built the way `urbane-serve`
//! builds its own, and records a span — name, start, end, parent, request —
//! around each call into a layer's public function. Spans stay in memory
//! and are written to `DIR/trace-W.json` when the run ends; the last line
//! of stdout is `{"metrics": {name: {"value", "unit"}}}`.
//!
//! Everything here is measured from outside the layers: spans inside the
//! program are a later change. Two consequences are marked *derived* in the
//! trace: `core.execute` (and `index.join_stored`) under a request's
//! `urbane.query` span is timed in a separate call for the same query, and
//! `urbane.query`'s self time is its duration minus that.
//!
//! The public functions called here are listed in `../README.md` ("Probe
//! surface"); a change to one of them needs a paired benchmark change.

mod micro;
mod trace;

use gpu_raster::RenderStats;
use raster_join::{ExecutionMode, PointStore, QueryBudget, RasterJoin, RasterJoinConfig};
use spatial_index::PackedRegionIndex;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use urban_data::gen::city::CityModel;
use urban_data::gen::taxi::{generate_taxi, TaxiConfig};
use urban_data::{BinnedPointTable, PointTable};
use urbane::catalog::DataCatalog;
use urbane::service::{QueryRequest, ServiceConfig, UrbaneService};
use urbane::ResolutionPyramid;
use urbane_serve::router::synthetic_table;
use urbane_serve::wire;

/// What `urbane-serve` passes when the benchmark starts it: the data seed,
/// and its own defaults for everything else.
const DATA_SEED: u64 = 1;
pub const RESOLUTION: u32 = 512;
const DEADLINE: Duration = Duration::from_millis(2_000);
/// Requests replayed at most; keeps the trace file near a megabyte.
const MAX_REPLAY: usize = 2_000;

pub struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0
            .insert(name, (if value.is_finite() { value } else { 0.0 }, unit));
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Args {
    workload: String,
    requests: PathBuf,
    rows: usize,
    store_rows: usize,
    out_dir: PathBuf,
    seconds: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut map = HashMap::new();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                map.insert(flag[2..].to_string(), value.clone())
            }
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        };
    }
    let mut take = |key: &str| map.remove(key).ok_or_else(|| format!("missing --{key}"));
    let args = Args {
        workload: take("workload")?,
        requests: take("requests")?.into(),
        rows: take("rows")?
            .parse()
            .map_err(|_| "--rows: not a whole number")?,
        store_rows: take("store-rows")?
            .parse()
            .map_err(|_| "--store-rows: not a whole number")?,
        out_dir: take("out-dir")?.into(),
        seconds: take("seconds")?
            .parse()
            .map_err(|_| "--seconds: not a number")?,
    };
    match map.keys().next() {
        Some(extra) => Err(format!("unknown flag --{extra}")),
        None => Ok(args),
    }
}

/// One line of the requests file.
pub enum Replayed {
    Query(String),
    Reload {
        dataset: String,
        rows: usize,
        seed: u64,
    },
}

fn load_requests(path: &Path) -> Result<Vec<Replayed>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .take(MAX_REPLAY)
        .map(|line| {
            // A `/reload` body has no "level"; a `/query` body must.
            if line.contains("\"level\"") {
                return Ok(Replayed::Query(line.to_string()));
            }
            let v = urbane_geom::geojson::parse_json(line)
                .map_err(|e| format!("bad request line {line}: {e}"))?;
            let num = |key: &str| {
                v.get(key)
                    .and_then(|n| n.as_f64())
                    .ok_or_else(|| format!("reload without {key}: {line}"))
            };
            Ok(Replayed::Reload {
                dataset: v
                    .get("dataset")
                    .and_then(|d| d.as_str())
                    .ok_or("reload without dataset")?
                    .to_string(),
                rows: num("rows")? as usize,
                seed: num("seed")? as u64,
            })
        })
        .collect()
}

/// The data the server under test holds, rebuilt in-process.
pub struct World {
    pub pyramid: ResolutionPyramid,
    pub tables: BTreeMap<&'static str, Arc<PointTable>>,
    pub bins: BTreeMap<&'static str, Option<BinnedPointTable>>,
    /// The cold store of `cold_index`, when the workload has one.
    store: Option<PathBuf>,
}

impl World {
    fn service(&self) -> Result<UrbaneService, String> {
        let mut catalog = DataCatalog::new();
        for (name, table) in &self.tables {
            catalog.register(*name, PointTable::clone(table));
        }
        if let Some(path) = &self.store {
            catalog
                .register_store("trips", path)
                .map_err(|e| format!("registering the store: {e}"))?;
        }
        // The configuration `urbane-serve` builds from its default flags.
        let config = ServiceConfig {
            join: RasterJoinConfig::with_resolution(RESOLUTION),
            cache_capacity: 1024,
            default_deadline: DEADLINE,
            ..Default::default()
        };
        UrbaneService::new(config, catalog, self.pyramid.clone())
            .map_err(|e| format!("service set-up: {e}"))
    }

    /// The point store the service would hand the executor for `dataset`.
    pub fn point_store(&self, dataset: &str) -> Option<PointStore<'_>> {
        let table = self.tables.get(dataset)?;
        Some(match self.bins.get(dataset)? {
            Some(bins) => PointStore::with_bins(table, bins),
            None => PointStore::plain(table),
        })
    }
}

/// `POST /query` as the router serves it: parse, query, serialize. With a
/// tracer, each of the three gets a span under the request's root span.
fn serve_query(
    service: &UrbaneService,
    body: &str,
    request: u32,
    tracer: Option<&mut Tracer>,
) -> Result<(QueryRequest, bool, Option<u32>), String> {
    match tracer {
        None => {
            let parsed = wire::parse_query(body).map_err(|e| e.to_string())?;
            let answer = service.query(&parsed).map_err(|e| e.to_string())?;
            let text = wire::answer_to_json(&parsed, &answer).to_string();
            std::hint::black_box(text);
            Ok((parsed, answer.cached, None))
        }
        Some(t) => {
            let root = t.begin("request", None, request);
            let span = t.begin("serve.parse", Some(root), request);
            let parsed = wire::parse_query(body).map_err(|e| e.to_string())?;
            t.end(span);
            let query_span = t.begin("urbane.query", Some(root), request);
            let answer = service.query(&parsed).map_err(|e| e.to_string())?;
            t.end(query_span);
            let span = t.begin("serve.serialize", Some(root), request);
            let text = wire::answer_to_json(&parsed, &answer).to_string();
            t.end(span);
            t.end(root);
            std::hint::black_box(text);
            Ok((parsed, answer.cached, Some(query_span)))
        }
    }
}

pub struct Served {
    request: u32,
    pub parsed: QueryRequest,
    cached: bool,
    query_span: Option<u32>,
    total_ms: f64,
}

/// Replay `requests` against `service` for at most `budget`.
fn replay(
    service: &UrbaneService,
    requests: &[Replayed],
    budget: Duration,
    limit: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<Served>, String> {
    let started = Instant::now();
    let mut served = Vec::new();
    for (i, request) in requests.iter().enumerate().take(limit) {
        if started.elapsed() >= budget {
            break;
        }
        let id = i as u32;
        match request {
            Replayed::Query(body) => {
                let start = Instant::now();
                let (parsed, cached, query_span) =
                    serve_query(service, body, id, tracer.as_deref_mut())?;
                served.push(Served {
                    request: id,
                    parsed,
                    cached,
                    query_span,
                    total_ms: ms(start.elapsed()),
                });
            }
            Replayed::Reload {
                dataset,
                rows,
                seed,
            } => {
                let span = tracer
                    .as_deref_mut()
                    .map(|t| t.begin("urbane.reload", None, id));
                let table = synthetic_table(dataset, *rows, *seed)
                    .ok_or_else(|| format!("no generator for {dataset}"))?;
                service.reload_dataset(dataset, table);
                if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
                    t.end(span);
                }
            }
        }
    }
    Ok(served)
}

pub fn raster_join(mode: ExecutionMode) -> RasterJoin {
    RasterJoin::new(RasterJoinConfig {
        mode,
        ..RasterJoinConfig::with_resolution(RESOLUTION)
    })
}

fn run(args: &Args) -> Result<Metrics, String> {
    let mut m = Metrics(BTreeMap::new());
    let requests = load_requests(&args.requests)?;
    let city = CityModel::nyc_like();
    let pyramid = ResolutionPyramid::standard(&city.bbox(), 16, 8, 5);
    let slice = Duration::from_secs_f64(args.seconds / 5.0);

    // --- urban-data: generate the catalog as the server does at boot, and
    // the cold store's table as `urbane-cli generate` does (same generator,
    // epoch and seed). The workload's main table is timed.
    let cold = args.store_rows > 0;
    let start = Instant::now();
    let taxi = synthetic_table("taxi", args.rows, DATA_SEED).ok_or("no taxi generator")?;
    let mut gen_ms = ms(start.elapsed());
    let mut tables: BTreeMap<&'static str, Arc<PointTable>> = BTreeMap::new();
    tables.insert("taxi", Arc::new(taxi));
    for name in ["311", "crime"] {
        tables.insert(
            name,
            Arc::new(synthetic_table(name, args.rows, DATA_SEED).ok_or("no generator")?),
        );
    }
    let trips = if cold {
        let epoch = urban_data::time::timestamp(2009, 1, 1, 0, 0, 0);
        let start = Instant::now();
        let trips = generate_taxi(
            &city,
            &TaxiConfig {
                rows: args.store_rows,
                seed: DATA_SEED,
                start: epoch,
                days: 30,
            },
        );
        gen_ms = ms(start.elapsed());
        Some(trips)
    } else {
        None
    };
    m.set("data.gen_ms", "ms", gen_ms);
    let main_table: &PointTable = trips.as_ref().unwrap_or(&tables["taxi"]);
    let start = Instant::now();
    std::hint::black_box(BinnedPointTable::build(main_table));
    m.set("data.bin_build_ms", "ms", ms(start.elapsed()));
    let mut bins = BTreeMap::new();
    for (name, table) in &tables {
        // The service bins a dataset only from this size up.
        bins.insert(
            *name,
            (table.len() >= raster_join::MIN_AUTO_BIN_POINTS)
                .then(|| BinnedPointTable::build(table)),
        );
    }

    micro::store_and_geometry(&mut m, main_table, &pyramid, &requests)?;
    micro::raster(&mut m, main_table, &pyramid)?;

    // --- the cold store of `cold_index`, written with the default chunk
    // size as `urbane-cli build-store` writes it.
    let store = match trips {
        Some(trips) => {
            let path = args.out_dir.join("probe-trips.ubs");
            urbane_store::StoreBuilder::new()
                .write_file(&trips, &path)
                .map_err(|e| format!("writing the store: {e}"))?;
            Some(path)
        }
        None => None,
    };
    let world = World {
        pyramid,
        tables,
        bins,
        store,
    };

    // --- the replay, untraced then traced, each on a fresh service so both
    // start with cold caches and see the same hits and misses.
    let plain = replay(&world.service()?, &requests, slice, MAX_REPLAY, None)?;
    let mut tracer = Tracer::new();
    let traced_service = world.service()?;
    let traced = replay(
        &traced_service,
        &requests,
        slice * 2,
        plain.len().max(1),
        Some(&mut tracer),
    )?;
    if traced.is_empty() {
        return Err("the requests file holds no query".into());
    }
    let plain_p50 = median(&plain.iter().map(|s| s.total_ms).collect::<Vec<_>>());
    let traced_p50 = median(
        &traced
            .iter()
            .take(plain.len())
            .map(|s| s.total_ms)
            .collect::<Vec<_>>(),
    );
    m.set(
        "bench.trace_overhead_share",
        "share",
        if plain_p50 > 0.0 {
            traced_p50 / plain_p50 - 1.0
        } else {
            0.0
        },
    );

    // --- urbane: the exact-key hit path, on requests just answered.
    let mut hit_us = Vec::new();
    for s in traced.iter().rev().take(200) {
        let start = Instant::now();
        let answer = traced_service.query(&s.parsed).map_err(|e| e.to_string())?;
        if answer.cached {
            hit_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    m.set("urbane.hit_us", "us", median(&hit_us));
    drop(traced_service);

    // --- core / index, derived: the executor call behind each miss, timed
    // on its own for the same query and hung under the request's
    // `urbane.query` span.
    let derived_deadline = Instant::now() + slice;
    let mut stats = RenderStats::new();
    let mut executed = 0u32;
    let (mut bounded_ms, mut accurate_ms, mut fixup_share, mut stored_ms) =
        (vec![], vec![], vec![], vec![]);
    let (mut pruned_share, mut rows_scanned, mut peak_rows) = (vec![], vec![], 0u32);
    let mut miss_overhead_ms = Vec::new();
    let indexes: Vec<PackedRegionIndex> = (0..3)
        .map(|l| {
            world
                .pyramid
                .level(l)
                .map(|r| PackedRegionIndex::build(&r))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    for s in traced.iter().filter(|s| !s.cached) {
        if Instant::now() >= derived_deadline {
            break;
        }
        let regions = world
            .pyramid
            .level(s.parsed.level)
            .map_err(|e| e.to_string())?;
        let query = s.parsed.to_query();
        let parent = s.query_span;
        let span_ms = match (s.parsed.mode, world.point_store(&s.parsed.dataset)) {
            (ExecutionMode::IndexJoin, _) if s.parsed.dataset == "trips" => {
                let path = world
                    .store
                    .as_ref()
                    .ok_or("an index request on trips without a store")?;
                let span = tracer.begin_derived("index.join_stored", parent, s.request);
                let mut source =
                    urbane_store::ChunkedPointSource::open(path).map_err(|e| e.to_string())?;
                let (_, st) = spatial_index::index_join_stored(
                    &mut source,
                    &regions,
                    &indexes[s.parsed.level],
                    &query,
                    &QueryBudget::unlimited(),
                )
                .map_err(|e| e.to_string())?;
                let took = tracer.end(span);
                stored_ms.push(took);
                let chunks = (st.chunks_pruned + st.chunks_scanned).max(1) as f64;
                pruned_share.push(st.chunks_pruned as f64 / chunks);
                rows_scanned.push(st.rows_scanned as f64);
                peak_rows = peak_rows.max(st.peak_resident_rows);
                took
            }
            (ExecutionMode::IndexJoin, _) => continue,
            (mode, Some(store)) => {
                let span = tracer.begin_derived("core.execute", parent, s.request);
                let res = raster_join(mode)
                    .execute_store(store, &regions, &query, &QueryBudget::unlimited())
                    .map_err(|e| e.to_string())?;
                let took = tracer.end(span);
                stats.merge(&res.stats);
                executed += 1;
                if mode == ExecutionMode::Accurate {
                    accurate_ms.push(took);
                    // The same query without the fix-up: the difference is
                    // what boundary pixels and point-in-polygon tests cost.
                    let store = world.point_store(&s.parsed.dataset).expect("seen above");
                    let start = Instant::now();
                    raster_join(ExecutionMode::Bounded)
                        .execute_store(store, &regions, &query, &QueryBudget::unlimited())
                        .map_err(|e| e.to_string())?;
                    fixup_share.push((1.0 - ms(start.elapsed()) / took).max(0.0));
                } else {
                    bounded_ms.push(took);
                }
                took
            }
            (_, None) => continue,
        };
        if let Some(span) = s.query_span {
            miss_overhead_ms.push(tracer.duration_ms(span) - span_ms);
        }
    }
    m.set("urbane.miss_overhead_ms", "ms", median(&miss_overhead_ms));
    m.set("core.execute_ms", "ms", median(&bounded_ms));
    m.set("core.accurate_execute_ms", "ms", median(&accurate_ms));
    m.set("core.accurate_fixup_share", "share", median(&fixup_share));
    let per_query = |n: u64| {
        if executed > 0 {
            n as f64 / f64::from(executed)
        } else {
            0.0
        }
    };
    m.set(
        "raster.fragments_per_query",
        "count",
        per_query(stats.fragments),
    );
    m.set(
        "raster.points_in_per_query",
        "count",
        per_query(stats.points_in),
    );
    m.set(
        "raster.boundary_cells_per_query",
        "count",
        per_query(stats.boundary_cells),
    );
    m.set(
        "raster.points_culled_share",
        "share",
        if stats.points_in > 0 {
            stats.points_culled as f64 / stats.points_in as f64
        } else {
            0.0
        },
    );
    m.set("index.join_stored_ms", "ms", median(&stored_ms));
    m.set("index.chunks_pruned_share", "share", mean(&pruned_share));
    m.set("index.rows_scanned_per_query", "count", mean(&rows_scanned));
    m.set("index.peak_resident_rows", "count", f64::from(peak_rows));

    micro::per_request(&mut m, &world, &traced, &indexes, slice)?;

    // --- the span ledger.
    let ledger = tracer.ledger();
    m.set("serve.parse_us", "us", ledger.parse_p50_ms * 1e3);
    m.set("serve.serialize_us", "us", ledger.serialize_p50_ms * 1e3);
    m.set("bench.span_ledger_gap_share", "share", ledger.gap_share);
    m.set("trace.request_p50_ms", "ms", ledger.request_p50_ms);
    m.set("trace.serve_parse_self_ms", "ms", ledger.parse_mean_ms);
    m.set(
        "trace.urbane_query_self_ms",
        "ms",
        ledger.query_self_mean_ms,
    );
    m.set("trace.core_execute_ms", "ms", ledger.executor_mean_ms);
    m.set(
        "trace.serve_serialize_self_ms",
        "ms",
        ledger.serialize_mean_ms,
    );
    m.set("trace.spans", "count", tracer.len() as f64);
    let path = args.out_dir.join(format!("trace-{}.json", args.workload));
    tracer
        .write(&path, &args.workload)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(store) = &world.store {
        let _ = std::fs::remove_file(store);
    }
    eprintln!(
        "probe: {} requests replayed, {} spans in {}; parse + query + serialize cover {:.1}% of the request span",
        traced.len(),
        tracer.len(),
        path.display(),
        (1.0 - ledger.gap_share) * 100.0
    );
    Ok(m)
}

fn main() -> std::process::ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(metrics) => {
            let body: Vec<String> = metrics
                .0
                .iter()
                .map(|(name, (value, unit))| {
                    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
                })
                .collect();
            println!("{{\"metrics\":{{{}}}}}", body.join(","));
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("probe: {e}");
            std::process::ExitCode::from(2)
        }
    }
}
