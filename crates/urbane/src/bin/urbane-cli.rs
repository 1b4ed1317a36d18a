//! `urbane-cli` — command-line access to the whole stack.
//!
//! ```text
//! urbane-cli generate --rows 1000000 --seed 42 --out taxi.upt [--csv taxi.csv]
//! urbane-cli info     --data taxi.upt
//! urbane-cli query    --data taxi.upt --regions nbhd:260 --agg count
//!                     [--mode bounded|weighted|accurate|index] [--resolution 1024]
//!                     [--time-start S --time-end S] [--range col:lo:hi] [--top 10]
//! urbane-cli map      --data taxi.upt --regions nbhd:260 --out map.ppm [--size 800]
//! urbane-cli explore  --data taxi.upt --regions nbhd:260 --agg count
//!                     [--bucket hour|day|week|month] [--top 5] [--csv series.csv]
//! urbane-cli heatmap  --data taxi.upt --out heat.ppm [--size 800] [--blur 2]
//! urbane-cli build-store --data taxi.upt --out taxi.ubs [--chunk-rows 65536]
//!                        (or --csv taxi.csv as the input)
//! ```
//!
//! Region specs: `boroughs`, `nbhd:<count>`, `grid:<n>` (n×n cells).
//! Data files use the `urban-data` binary format (`.upt`); `generate` also
//! understands `--kind taxi|311|crime`. A `.ubs` path works anywhere
//! `--data` does (the out-of-core columnar store; `build-store` writes it).
//! `query`, `map` and `explore` ask an `UrbaneService` — the server's and
//! the session's query path — so a `.upt` file and the `.ubs` built from it
//! answer alike, and `--mode index` streams a `.ubs` file's chunk directory.

use raster_join::{ExecutionMode, RasterJoinConfig};
use std::process::exit;
use std::time::Duration;
use urbane::{
    DataCatalog, QueryRequest, ResolutionPyramid, ServiceConfig, UrbaneError, UrbaneService,
};
use urban_data::gen::city::CityModel;
use urban_data::gen::events::{generate_complaints, generate_crime, EventConfig};
use urban_data::gen::regions::{boroughs, grid_regions, voronoi_neighborhoods};
use urban_data::gen::taxi::{generate_taxi, TaxiConfig};
use urban_data::query::AggKind;
use urban_data::time::{timestamp, TimeRange};
use urban_data::{binfmt, csv, Filter, PointTable, RegionSet};
use urbane::view::heatmap::{render_heatmap, HeatmapConfig};
use urbane::view::MapView;
use urbane_geom::projection::Viewport;

/// Tiny flag parser: `--key value` pairs after the subcommand.
struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {:?}", argv[i]))?;
            let val = argv
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            pairs.push((key.to_string(), val.clone()));
            i += 2;
        }
        Ok(Args { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
        }
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing required --{key}"))
    }
}

fn usage() -> ! {
    eprintln!(
        "urbane-cli <generate|info|query|map|heatmap|explore|build-store> [--flags]\n\
         see the module docs in crates/urbane/src/bin/urbane-cli.rs"
    );
    exit(2);
}

/// CLI failure, split by who is at fault: a bad invocation (exit 2, same
/// as `usage`) or a typed runtime error from the stack (exit 1). Every
/// fallible path funnels here — the binary never panics on user input.
enum CliError {
    Usage(String),
    Runtime(UrbaneError),
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Usage(m)
    }
}

impl From<UrbaneError> for CliError {
    fn from(e: UrbaneError) -> Self {
        CliError::Runtime(e)
    }
}

impl From<urban_data::DataError> for CliError {
    fn from(e: urban_data::DataError) -> Self {
        CliError::Runtime(e.into())
    }
}

type CliResult<T = ()> = Result<T, CliError>;

fn io_err(context: &str, e: std::io::Error) -> CliError {
    CliError::Runtime(UrbaneError::Io(format!("{context}: {e}")))
}

fn is_store(path: &str) -> bool {
    std::path::Path::new(path).extension().and_then(|x| x.to_str()) == Some("ubs")
}

fn load_data(args: &Args) -> CliResult<PointTable> {
    let path = args.require("data")?;
    if is_store(path) {
        return Ok(urbane::ColdStore::open(std::path::Path::new(path))?.materialize()?.0);
    }
    let bytes = std::fs::read(path).map_err(|e| io_err(&format!("reading {path}"), e))?;
    Ok(binfmt::decode(&bytes)?)
}

fn parse_regions(spec: &str, data_bbox: urbane_geom::BoundingBox) -> Result<RegionSet, String> {
    let city = CityModel::nyc_like();
    // Use the city extent when the data clearly lives there, otherwise the
    // data's own bbox.
    let extent = if city.bbox().intersects(&data_bbox) { city.bbox() } else { data_bbox };
    if spec == "boroughs" {
        return Ok(boroughs(&extent));
    }
    if let Some(n) = spec.strip_prefix("nbhd:") {
        let n: usize = n.parse().map_err(|_| format!("bad region spec {spec:?}"))?;
        return Ok(voronoi_neighborhoods(&extent, n, 42, 2));
    }
    if let Some(n) = spec.strip_prefix("grid:") {
        let n: u32 = n.parse().map_err(|_| format!("bad region spec {spec:?}"))?;
        return Ok(grid_regions(&extent, n, n));
    }
    Err(format!("unknown region spec {spec:?} (use boroughs | nbhd:<n> | grid:<n>)"))
}

/// The aggregate, filters and mode of `--agg`, `--time-start`/`--time-end`,
/// `--range` and `--mode`, as a request against dataset `data` at level 0
/// with a deadline no CLI query reaches.
fn build_request(args: &Args) -> Result<QueryRequest, String> {
    let agg = match args.get_or("agg", "count") {
        "count" => AggKind::Count,
        other => {
            let (op, col) = other
                .split_once(':')
                .ok_or_else(|| format!("--agg {other:?}: use count or sum:<col>/avg:<col>/min:<col>/max:<col>"))?;
            match op {
                "sum" => AggKind::Sum(col.into()),
                "avg" => AggKind::Avg(col.into()),
                "min" => AggKind::Min(col.into()),
                "max" => AggKind::Max(col.into()),
                _ => return Err(format!("unknown aggregate {op:?}")),
            }
        }
    };
    let mut req = QueryRequest::count("data", 0)
        .agg(agg)
        .mode(join_config(args)?.mode)
        .deadline(Duration::from_secs(24 * 60 * 60));
    if let (Some(s), Some(e)) = (args.get("time-start"), args.get("time-end")) {
        let s: i64 = s.parse().map_err(|_| "--time-start: bad integer".to_string())?;
        let e: i64 = e.parse().map_err(|_| "--time-end: bad integer".to_string())?;
        req = req.filter(Filter::Time(TimeRange::new(s, e)));
    }
    if let Some(spec) = args.get("range") {
        let parts: Vec<&str> = spec.split(':').collect();
        let &[col, lo_s, hi_s] = parts.as_slice() else {
            return Err(format!("--range {spec:?}: use col:lo:hi"));
        };
        let lo: f32 = lo_s.parse().map_err(|_| "--range: bad lo".to_string())?;
        let hi: f32 = hi_s.parse().map_err(|_| "--range: bad hi".to_string())?;
        req = req.filter(Filter::AttrRange { column: col.into(), min: lo, max: hi });
    }
    Ok(req)
}

fn join_config(args: &Args) -> Result<RasterJoinConfig, String> {
    let resolution: u32 = args.parse_num("resolution", 1024)?;
    let mode = match args.get_or("mode", "bounded") {
        "bounded" => ExecutionMode::Bounded,
        "weighted" => ExecutionMode::Weighted,
        "accurate" => ExecutionMode::Accurate,
        "index" => ExecutionMode::IndexJoin,
        other => {
            return Err(format!("--mode {other:?}: use bounded, weighted, accurate, or index"))
        }
    };
    Ok(RasterJoinConfig { mode, ..RasterJoinConfig::with_resolution(resolution) })
}

/// `--data` registered as dataset `data`: a `.ubs` file cold (its header
/// only), anything else resident and therefore clustered.
fn open_catalog(args: &Args) -> CliResult<DataCatalog> {
    let path = args.require("data")?;
    let mut catalog = DataCatalog::new();
    if is_store(path) {
        catalog.register_store("data", std::path::Path::new(path))?;
    } else {
        catalog.register("data", load_data(args)?);
    }
    Ok(catalog)
}

/// The service `query`, `map` and `explore` ask: `catalog` over one
/// pyramid level, the `--regions` set. One query at a time, nothing to
/// cache; the canvas is exactly what `--resolution` asks.
fn open_service(args: &Args, catalog: DataCatalog) -> CliResult<UrbaneService> {
    let regions = parse_regions(args.get_or("regions", "nbhd:260"), catalog.combined_bbox())?;
    let config = ServiceConfig {
        join: join_config(args)?,
        cache_capacity: 0,
        max_resolution: u32::MAX,
        ..ServiceConfig::default()
    };
    Ok(UrbaneService::new(config, catalog, ResolutionPyramid::new(vec![regions]))?)
}

fn cmd_generate(args: &Args) -> CliResult {
    let rows: usize = args.parse_num("rows", 1_000_000)?;
    let seed: u64 = args.parse_num("seed", 42)?;
    let days: u32 = args.parse_num("days", 30)?;
    let out = args.require("out")?;
    let start = timestamp(2009, 1, 1, 0, 0, 0);

    let city = CityModel::nyc_like();
    let table = match args.get_or("kind", "taxi") {
        "taxi" => generate_taxi(&city, &TaxiConfig { rows, seed, start, days }),
        "311" => generate_complaints(
            &city,
            &EventConfig { rows, seed, start, days, n_types: 12 },
        ),
        "crime" => {
            generate_crime(&city, &EventConfig { rows, seed, start, days, n_types: 10 })
        }
        other => return Err(format!("--kind {other:?}: use taxi | 311 | crime").into()),
    };
    std::fs::write(out, binfmt::encode(&table))
        .map_err(|e| io_err(&format!("writing {out}"), e))?;
    eprintln!("wrote {} rows to {out}", table.len());
    if let Some(csv_path) = args.get("csv") {
        let f = std::fs::File::create(csv_path)
            .map_err(|e| io_err(&format!("creating {csv_path}"), e))?;
        let mut w = std::io::BufWriter::new(f);
        csv::write_csv(&mut w, &table)
            .map_err(|e| io_err(&format!("writing {csv_path}"), e))?;
        eprintln!("also wrote CSV to {csv_path}");
    }
    Ok(())
}

fn cmd_info(args: &Args) -> CliResult {
    let t = load_data(args)?;
    println!("rows: {}", t.len());
    let b = t.bbox();
    println!("bbox: ({:.1}, {:.1}) .. ({:.1}, {:.1})", b.min.x, b.min.y, b.max.x, b.max.y);
    if let Some(ext) = t.time_extent() {
        println!("time: [{}, {})  ({} days)", ext.start, ext.end, ext.duration() / 86_400);
    }
    println!("columns:");
    for (name, ty) in t.schema().iter() {
        match urban_data::stats::summarize_column(&t, name)? {
            Some(s) => println!(
                "  {name:<14} {ty:?}  mean {:.2}  std {:.2}  min {:.2}  p50 {:.2}  max {:.2}",
                s.mean,
                s.std_dev,
                s.min,
                s.quantile(0.5).unwrap_or(f64::NAN),
                s.max
            ),
            None => println!("  {name:<14} {ty:?}  (empty)"),
        }
    }
    Ok(())
}

/// `query`: one request to the `--data` service; print the ranked top-N
/// (and optionally write GeoJSON).
fn cmd_query(args: &Args) -> CliResult {
    let catalog = open_catalog(args)?;
    let rows = catalog.total_rows();
    let service = open_service(args, catalog)?;
    let req = build_request(args)?;
    let answer = service.query(&req)?;
    let paging = service.store_paging();
    let zones = service.zone_stats();
    eprintln!(
        "{rows} rows x {} regions in {:.1} ms ({:?}, {} answer, ε = {}; \
         zones {} skipped, {} whole, {} scanned; {} store bytes read, {} page-ins)",
        answer.regions.len(),
        answer.report.elapsed.as_secs_f64() * 1e3,
        req.mode,
        answer.report.path.as_str(),
        answer.report.error_bound.map_or("unknown".to_string(), |e| format!("{e:.1}")),
        zones.skipped,
        zones.whole,
        zones.scanned,
        paging.bytes_read,
        paging.page_ins
    );

    if let Some(path) = args.get("geojson") {
        let text = urbane::export::choropleth_to_geojson(&answer.regions, &answer.table);
        std::fs::write(path, text).map_err(|e| io_err(&format!("writing {path}"), e))?;
        eprintln!("GeoJSON written to {path}");
    }
    let top: usize = args.parse_num("top", 10)?;
    let values = answer.table.values().into_iter().enumerate();
    let mut ranked: Vec<(u32, f64)> = values.filter_map(|(r, v)| Some((r as u32, v?))).collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    for (r, v) in ranked.iter().take(top) {
        println!("{}\t{v:.3}", answer.regions.region_name(*r));
    }
    Ok(())
}

/// `build-store`: cluster a point table (day-major, Hilbert-minor — the
/// order a resident table is served in) and write the `.ubs` out-of-core
/// columnar store (header + chunk directory with a footer per zone).
fn cmd_build_store(args: &Args) -> CliResult {
    let out = args.require("out")?;
    let chunk_rows: usize = args.parse_num("chunk-rows", urbane_store::DEFAULT_CHUNK_ROWS)?;
    if chunk_rows == 0 {
        return Err("--chunk-rows must be at least 1".to_string().into());
    }
    let table = if let Some(path) = args.get("csv") {
        let f = std::fs::File::open(path).map_err(|e| io_err(&format!("reading {path}"), e))?;
        csv::read_csv(std::io::BufReader::new(f))?
    } else {
        load_data(args)?
    };
    urbane_store::StoreBuilder::new()
        .chunk_rows(chunk_rows)
        .write_file(&table, std::path::Path::new(out))
        .map_err(|e| CliError::Runtime(UrbaneError::Store(e.to_string())))?;
    let chunks = table.len().div_ceil(chunk_rows);
    eprintln!(
        "wrote {} rows to {out} (clustered by day and Hilbert cell, {chunks} chunks of <= {chunk_rows} rows)",
        table.len()
    );
    Ok(())
}

fn cmd_map(args: &Args) -> CliResult {
    let size: u32 = args.parse_num("size", 800)?;
    let out = args.require("out")?;
    let service = open_service(args, open_catalog(args)?)?;
    let answer = service.query(&build_request(args)?)?;

    let img = MapView::with_defaults().render(&answer, size, size);
    gpu_raster::ppm::write_ppm(out, &img.image)
        .map_err(|e| io_err(&format!("writing {out}"), e))?;
    eprintln!(
        "choropleth written to {out} (legend {:.1} .. {:.1}, ε = {})",
        img.legend.lo,
        img.legend.hi,
        img.error_bound.map_or("unknown".to_string(), |e| format!("{e:.1}"))
    );
    Ok(())
}

fn cmd_heatmap(args: &Args) -> CliResult {
    let t = load_data(args)?;
    let size: u32 = args.parse_num("size", 800)?;
    let blur: u32 = args.parse_num("blur", 2)?;
    let out = args.require("out")?;
    let q = build_request(args)?.to_query();

    let vp = Viewport::fitted(t.bbox().inflate(t.bbox().width() * 0.02), size, size);
    let hm = render_heatmap(
        &t,
        &q.filters,
        &vp,
        &HeatmapConfig { blur_radius: blur, ..Default::default() },
    )?;
    gpu_raster::ppm::write_ppm(out, &hm.image)
        .map_err(|e| io_err(&format!("writing {out}"), e))?;
    eprintln!("heatmap written to {out} ({} points, peak {:.1})", hm.points_drawn, hm.max_density);
    Ok(())
}

/// `data`'s time range: a resident table's own; a `.ubs` file's from the
/// zone footers of its header, so the payload stays on disk.
fn time_extent(catalog: &DataCatalog) -> CliResult<Option<TimeRange>> {
    let Some(store) = catalog.store("data") else {
        return Ok(catalog.get("data")?.time_extent());
    };
    let zones = || store.header().chunks.iter().flat_map(|c| &c.zones);
    let (lo, hi) = (zones().map(|z| z.t_min).min(), zones().map(|z| z.t_max).max());
    Ok(lo.zip(hi).map(|(lo, hi)| TimeRange::new(lo, hi + 1)))
}

fn cmd_explore(args: &Args) -> CliResult {
    use urban_data::time::TimeBucket;
    use urbane::view::explore::{rank_regions, time_series};

    let catalog = open_catalog(args)?;
    let extent = time_extent(&catalog)?;
    let service = open_service(args, catalog)?;
    let regions = service.pyramid().level(0)?;
    let req = build_request(args)?;

    let top: usize = args.parse_num("top", 5)?;
    let ranked = rank_regions(&service, &req)?;
    println!("top {top} regions:");
    for (i, (r, v)) in ranked.iter().take(top).enumerate() {
        println!("  {}. {}\t{:.2}", i + 1, regions.region_name(*r), v.unwrap_or(0.0));
    }

    let Some(extent) = extent else {
        return Ok(());
    };
    let bucket = match args.get_or("bucket", "week") {
        "hour" => TimeBucket::Hour,
        "day" => TimeBucket::Day,
        "week" => TimeBucket::Week,
        "month" => TimeBucket::Month,
        other => return Err(format!("--bucket {other:?}: use hour|day|week|month").into()),
    };
    // An empty ranking (e.g. a region set nothing falls into) is a valid
    // outcome, not a reason to panic on `ranked[0]`.
    let Some(&(reference, _)) = ranked.first() else {
        println!("no regions ranked (empty region set or no matching rows)");
        return Ok(());
    };
    let series = time_series(&service, &req, extent, bucket)?;
    println!("\n{} series for the top region:", args.get_or("bucket", "week"));
    let max = series
        .region(reference)
        .iter()
        .flatten()
        .fold(1.0f64, |m, &v| m.max(v));
    for (i, v) in series.region(reference).iter().enumerate() {
        let v = v.unwrap_or(0.0);
        let bar = "#".repeat((v / max * 50.0).round() as usize);
        println!("  {:>3}: {:>10.0} {bar}", i + 1, v);
    }
    if let Some(path) = args.get("csv") {
        std::fs::write(path, urbane::export::series_to_csv(&regions, &series))
            .map_err(|e| io_err(&format!("writing {path}"), e))?;
        eprintln!("series CSV written to {path}");
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    let args = match Args::parse(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            exit(2);
        }
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&args),
        "info" => cmd_info(&args),
        "query" => cmd_query(&args),
        "map" => cmd_map(&args),
        "heatmap" => cmd_heatmap(&args),
        "explore" => cmd_explore(&args),
        "build-store" => cmd_build_store(&args),
        _ => usage(),
    };
    match result {
        Ok(()) => {}
        // Invocation problems exit 2 (like `usage`); runtime failures exit
        // 1 with the stack's typed message (e.g. "data error: ...").
        Err(CliError::Usage(m)) => {
            eprintln!("error: {m}");
            exit(2);
        }
        Err(CliError::Runtime(e)) => {
            eprintln!("error: {e}");
            exit(1);
        }
    }
}
