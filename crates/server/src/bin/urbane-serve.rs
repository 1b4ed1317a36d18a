//! `urbane-serve` — serve the synthetic Urbane catalog over HTTP.
//!
//! ```text
//! urbane-serve --port 8080 --workers 4 --rows 200000
//! curl -s localhost:8080/healthz
//! curl -s localhost:8080/datasets
//! curl -s -X POST localhost:8080/query \
//!   -d '{"dataset":"taxi","level":1,"agg":"avg:fare"}'
//! ```

use std::process::exit;
use std::sync::Arc;
use std::time::Duration;
use urbane::catalog::DataCatalog;
use urbane::service::{ServiceConfig, UrbaneService};
use urbane::ResolutionPyramid;
use urbane_serve::router::synthetic_table;
use urbane_serve::{ServerConfig, UrbaneServer};
use urban_data::gen::city::CityModel;

fn usage() -> ! {
    eprintln!(
        "usage: urbane-serve [options]\n\
         \n\
         options:\n\
           --port N            bind port (default 8080; 0 = ephemeral)\n\
           --workers N         worker threads (default 4)\n\
           --queue N           admission-queue capacity (default 32)\n\
           --rows N            rows per synthetic dataset (default 100000)\n\
           --seed N            generator seed (default 1)\n\
           --cache-capacity N  query-result cache entries, 0 disables (default 1024)\n\
           --deadline-ms N     default per-query deadline (default 2000)\n\
           --resolution N      raster canvas resolution (default 512)\n\
           --store-dir DIR     register every *.ubs file in DIR as a cold\n\
                               store-backed dataset (header-only boot; rows\n\
                               page in lazily or stream via mode=index)"
    );
    exit(2)
}

fn fail(msg: &str) -> ! {
    eprintln!("urbane-serve: {msg}");
    exit(1)
}

struct Args {
    port: u16,
    workers: usize,
    queue: usize,
    rows: usize,
    seed: u64,
    cache_capacity: usize,
    deadline_ms: u64,
    resolution: u32,
    store_dir: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        port: 8080,
        workers: 4,
        queue: 32,
        rows: 100_000,
        seed: 1,
        cache_capacity: 1024,
        deadline_ms: 2_000,
        resolution: 512,
        store_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            match it.next() {
                Some(v) => v,
                None => {
                    eprintln!("urbane-serve: {name} needs a value");
                    exit(2)
                }
            }
        };
        fn num<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
            match raw.parse() {
                Ok(v) => v,
                Err(_) => {
                    eprintln!("urbane-serve: bad value {raw:?} for {flag}");
                    exit(2)
                }
            }
        }
        match flag.as_str() {
            "--port" => args.port = num(&flag, &value("--port")),
            "--workers" => args.workers = num(&flag, &value("--workers")),
            "--queue" => args.queue = num(&flag, &value("--queue")),
            "--rows" => args.rows = num(&flag, &value("--rows")),
            "--seed" => args.seed = num(&flag, &value("--seed")),
            "--cache-capacity" => args.cache_capacity = num(&flag, &value("--cache-capacity")),
            "--deadline-ms" => args.deadline_ms = num(&flag, &value("--deadline-ms")),
            "--resolution" => args.resolution = num(&flag, &value("--resolution")),
            "--store-dir" => args.store_dir = Some(value("--store-dir")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("urbane-serve: unknown flag {other:?}");
                usage()
            }
        }
    }
    if args.rows == 0 {
        fail("--rows must be at least 1");
    }
    if args.resolution == 0 {
        fail("--resolution must be at least 1");
    }
    args
}

/// All `*.ubs` files directly under `dir`, sorted by path so registration
/// order (and thus boot logs) is deterministic.
fn store_files(dir: &str) -> Vec<std::path::PathBuf> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => fail(&format!("--store-dir {dir}: {e}")),
    };
    let mut files: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("ubs"))
        .collect();
    files.sort();
    if files.is_empty() {
        eprintln!("urbane-serve: --store-dir {dir}: no .ubs files found");
    }
    files
}

fn main() {
    let args = parse_args();

    eprintln!(
        "urbane-serve: generating synthetic catalog ({} rows x 3 datasets, seed {})...",
        args.rows, args.seed
    );
    let city = CityModel::nyc_like();
    let mut catalog = DataCatalog::new();
    for name in ["taxi", "311", "crime"] {
        let table = synthetic_table(name, args.rows, args.seed)
            .unwrap_or_else(|| fail(&format!("no generator for dataset {name:?}")));
        catalog.register(name, table);
    }
    if let Some(dir) = &args.store_dir {
        for path in store_files(dir) {
            let name = match path.file_stem().and_then(|s| s.to_str()) {
                Some(stem) => stem.to_string(),
                None => continue,
            };
            if let Err(e) = catalog.register_store(&name, &path) {
                fail(&format!("store {}: {e}", path.display()));
            }
            let rows = catalog.rows_of(&name).unwrap_or(0);
            eprintln!(
                "urbane-serve: registered cold store {name:?} ({rows} rows, {})",
                path.display()
            );
        }
    }
    let pyramid = ResolutionPyramid::standard(&city.bbox(), 16, 8, 5);

    let service_config = ServiceConfig {
        join: raster_join::RasterJoinConfig::with_resolution(args.resolution),
        cache_capacity: args.cache_capacity,
        default_deadline: Duration::from_millis(args.deadline_ms),
        ..Default::default()
    };
    let service = match UrbaneService::new(service_config, catalog, pyramid) {
        Ok(s) => Arc::new(s),
        Err(e) => fail(&format!("service setup failed: {e}")),
    };

    let server_config = ServerConfig {
        addr: format!("127.0.0.1:{}", args.port),
        workers: args.workers,
        queue_capacity: args.queue,
        ..Default::default()
    };
    let server = match UrbaneServer::start(server_config, service) {
        Ok(s) => s,
        Err(e) => fail(&format!("bind failed: {e}")),
    };

    // The exact line scripts/ci.sh and tooling parse to find the port.
    println!("urbane-serve listening on http://{}", server.addr());
    server.wait();
}
