//! Request dispatch: (method, path) → handler → [`Response`].
//!
//! The router owns the service and metrics handles and is shared by every
//! worker. Handlers are synchronous — concurrency comes from the worker
//! pool, not from the handlers.

use crate::http::{Request, Response};
use crate::metrics::{Metrics, Route};
use crate::wire;
use std::sync::Arc;
use urbane::service::UrbaneService;
use urbane::UrbaneError;
use urban_data::gen::city::CityModel;
use urban_data::gen::events::{generate_complaints, generate_crime, EventConfig};
use urban_data::gen::taxi::{generate_taxi, TaxiConfig};
use urban_data::PointTable;

/// Classify a request for metrics labels (independent of handler outcome).
pub fn route_of(method: &str, path: &str) -> Route {
    // Ignore query strings for classification.
    let path = path.split('?').next().unwrap_or(path);
    match (method, path) {
        ("POST", "/query") => Route::Query,
        ("GET", "/datasets") => Route::Datasets,
        ("GET", "/healthz") => Route::Healthz,
        ("GET", "/metrics") => Route::MetricsPage,
        ("POST", "/reload") => Route::Reload,
        _ => Route::Other,
    }
}

/// Regenerate a synthetic dataset by catalog name. The server's catalog is
/// synthetic (the workspace has no data files), so `/reload` re-derives
/// tables from the generators; unknown names are a client error.
pub fn synthetic_table(name: &str, rows: usize, seed: u64) -> Option<PointTable> {
    let city = CityModel::nyc_like();
    match name {
        "taxi" => Some(generate_taxi(&city, &TaxiConfig { rows, seed, start: 0, days: 30 })),
        "311" => Some(generate_complaints(
            &city,
            &EventConfig { rows, seed, start: 0, days: 30, n_types: 12 },
        )),
        "crime" => Some(generate_crime(
            &city,
            &EventConfig { rows, seed, start: 0, days: 30, n_types: 10 },
        )),
        _ => None,
    }
}

/// Map a service error onto a status code.
fn status_of(e: &UrbaneError) -> u16 {
    match e {
        UrbaneError::UnknownDataset(_) | UrbaneError::UnknownResolution(_) => 404,
        UrbaneError::Config(_) | UrbaneError::Data(_) => 400,
        // The ladder exhausted every rung inside the deadline budget.
        UrbaneError::DeadlineExceeded => 504,
        // Cancellation reaches here only if raised server-side mid-query.
        UrbaneError::Cancelled => 503,
        UrbaneError::Join(_) | UrbaneError::Io(_) | UrbaneError::Store(_) | UrbaneError::Internal(_) => 500,
    }
}

/// The shared dispatcher.
pub struct Router {
    service: Arc<UrbaneService>,
    metrics: Arc<Metrics>,
}

impl Router {
    /// Build over shared handles.
    pub fn new(service: Arc<UrbaneService>, metrics: Arc<Metrics>) -> Self {
        Router { service, metrics }
    }

    /// The metrics registry the connection loop records each exchange in.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Dispatch one request. `queue_depth` is sampled by the caller (the
    /// worker) so the metrics page can report it without a pool handle.
    // lint: entrypoint every HTTP request enters the engine through this dispatch
    pub fn handle(&self, req: &Request, queue_depth: usize) -> Response {
        match route_of(&req.method, &req.path) {
            Route::Healthz => Response::text(200, "ok\n".into()),
            Route::Datasets => {
                let json = wire::datasets_to_json(&self.service.datasets());
                Response::json(200, json.to_string())
            }
            Route::MetricsPage => self.metrics_page(queue_depth),
            Route::Query => self.query(req),
            Route::Reload => self.reload(req),
            Route::Other => {
                // Distinguish a known path with the wrong method from a
                // genuinely unknown path.
                let path = req.path.split('?').next().unwrap_or(&req.path);
                match path {
                    "/query" | "/reload" | "/datasets" | "/healthz" | "/metrics" => {
                        Response::error(405, &format!("method {} not allowed on {path}", req.method))
                    }
                    _ => Response::error(404, &format!("no such path {path:?}")),
                }
            }
        }
    }

    fn query(&self, req: &Request) -> Response {
        let body = String::from_utf8_lossy(&req.body);
        let parsed = match wire::parse_query(&body) {
            Ok(p) => p,
            Err(e) => return Response::error(400, &e.0),
        };
        match self.service.query(&parsed) {
            Ok(answer) => Response::json(200, wire::answer_to_json(&parsed, &answer)),
            Err(e) => Response::error(status_of(&e), &e.to_string()),
        }
    }

    fn reload(&self, req: &Request) -> Response {
        let body = String::from_utf8_lossy(&req.body);
        let v = match urbane_geom::geojson::parse_json(&body) {
            Ok(v) => v,
            Err(e) => return Response::error(400, &format!("invalid JSON body: {e}")),
        };
        let name = match v.get("dataset").and_then(|d| d.as_str()) {
            Some(n) => n.to_string(),
            None => return Response::error(400, "missing required field \"dataset\""),
        };
        let rows = v.get("rows").and_then(|r| r.as_f64()).unwrap_or(5_000.0);
        let seed = v.get("seed").and_then(|s| s.as_f64()).unwrap_or(1.0);
        if !(rows.is_finite() && rows >= 1.0 && seed.is_finite() && seed >= 0.0) {
            return Response::error(400, "\"rows\" and \"seed\" must be non-negative numbers");
        }
        let table = match synthetic_table(&name, rows as usize, seed as u64) {
            Some(t) => t,
            None => {
                return Response::error(
                    400,
                    &format!("dataset {name:?} is not reloadable (synthetic sets: taxi, 311, crime)"),
                )
            }
        };
        let rows = table.len();
        let generation = self.service.reload_dataset(&name, table);
        Response::json(
            200,
            format!(
                "{{\"dataset\":{},\"generation\":{generation},\"rows\":{rows}}}",
                urbane_geom::geojson::Json::String(name)
            ),
        )
    }

    fn metrics_page(&self, queue_depth: usize) -> Response {
        use std::fmt::Write;
        let mut out = String::with_capacity(4096);
        self.metrics.render(&mut out);

        let _ = writeln!(out, "# TYPE urbane_queue_depth gauge");
        let _ = writeln!(out, "urbane_queue_depth {queue_depth}");

        let cache = self.service.cache_stats();
        let _ = writeln!(out, "# TYPE urbane_cache_hits_total counter");
        let _ = writeln!(out, "urbane_cache_hits_total {}", cache.hits);
        let _ = writeln!(out, "# TYPE urbane_cache_misses_total counter");
        let _ = writeln!(out, "urbane_cache_misses_total {}", cache.misses);
        let _ = writeln!(out, "# TYPE urbane_cache_entries gauge");
        let _ = writeln!(out, "urbane_cache_entries {}", self.service.cache_len());

        let outcomes = self.service.guard_outcomes();
        let _ = writeln!(out, "# TYPE urbane_guard_path_total counter");
        for (label, n) in [
            ("full", outcomes.full),
            ("degraded_bounded", outcomes.degraded_bounded),
            ("preview_sample", outcomes.preview_sample),
            ("cached", outcomes.cached),
        ] {
            let _ = writeln!(out, "urbane_guard_path_total{{path=\"{label}\"}} {n}");
        }

        // Single-flight dedup of identical concurrent misses.
        let _ = writeln!(out, "# TYPE urbane_single_flight_followers_total counter");
        let _ = writeln!(
            out,
            "urbane_single_flight_followers_total {}",
            self.service.single_flight_followers()
        );

        // Out-of-core `.ubs` paging: page-ins materialize a cold dataset
        // into memory; streamed queries answer straight off the chunk
        // directory without ever holding the full table.
        let paging = self.service.store_paging();
        let _ = writeln!(out, "# TYPE urbane_store_page_ins_total counter");
        let _ = writeln!(out, "urbane_store_page_ins_total {}", paging.page_ins);
        let _ = writeln!(out, "# TYPE urbane_store_chunks_read_total counter");
        let _ = writeln!(out, "urbane_store_chunks_read_total {}", paging.chunks_read);
        let _ = writeln!(out, "# TYPE urbane_store_bytes_read_total counter");
        let _ = writeln!(out, "urbane_store_bytes_read_total {}", paging.bytes_read);
        let _ = writeln!(out, "# TYPE urbane_store_streamed_queries_total counter");
        let _ = writeln!(
            out,
            "urbane_store_streamed_queries_total {}",
            paging.streamed_queries
        );

        // Row order is the query plan (DESIGN.md): how the executors'
        // zone classifier fared, summed over every pass that walked zones
        // since boot; then the raster queries that walked none because they
        // resolved the kept point pass.
        let zones = self.service.zone_stats();
        let series = [
            ("urbane_zones_skipped_total", zones.skipped),
            ("urbane_zones_whole_total", zones.whole),
            ("urbane_zones_scanned_total", zones.scanned),
            ("urbane_rows_tested_total", zones.rows_tested),
            ("urbane_pass_reuse_total", self.service.pass_reuses()),
        ];
        for (name, n) in series {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {n}");
        }

        // Stand-ins: the batch planner and block cache are gone (DESIGN.md
        // §14, §17), but `benchmark/loadgen` aborts a run when any of these
        // series is missing from the page. Constant zeros until a
        // `benchmark` PR drops the rows.
        for series in [
            "urbane_batch_size_sum",
            "urbane_batch_size_count",
            "urbane_batch_window_wait_ms_total",
            "urbane_blockcache_hits_total",
            "urbane_blockcache_residual_blocks_total",
            "urbane_blockcache_bytes",
        ] {
            let _ = writeln!(out, "{series} 0");
        }
        Response::text(200, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urbane::catalog::DataCatalog;
    use urbane::service::ServiceConfig;
    use urbane::ResolutionPyramid;
    use raster_join::RasterJoinConfig;

    fn router() -> Router {
        let city = CityModel::nyc_like();
        let mut catalog = DataCatalog::new();
        catalog.register("taxi", synthetic_table("taxi", 4_000, 1).unwrap());
        let pyramid = ResolutionPyramid::standard(&city.bbox(), 12, 6, 4);
        let service = UrbaneService::new(
            ServiceConfig {
                join: RasterJoinConfig::with_resolution(256),
                ..Default::default()
            },
            catalog,
            pyramid,
        )
        .unwrap();
        Router::new(Arc::new(service), Arc::new(Metrics::new()))
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn routes_classify() {
        assert_eq!(route_of("POST", "/query"), Route::Query);
        assert_eq!(route_of("GET", "/query"), Route::Other);
        assert_eq!(route_of("GET", "/metrics?x=1"), Route::MetricsPage);
        assert_eq!(route_of("GET", "/nope"), Route::Other);
    }

    #[test]
    fn healthz_datasets_and_404_405() {
        let r = router();
        assert_eq!(r.handle(&request("GET", "/healthz", ""), 0).status, 200);
        let ds = r.handle(&request("GET", "/datasets", ""), 0);
        assert_eq!(ds.status, 200);
        assert!(String::from_utf8(ds.body).unwrap().contains("\"taxi\""));
        assert_eq!(r.handle(&request("GET", "/nope", ""), 0).status, 404);
        assert_eq!(r.handle(&request("DELETE", "/query", ""), 0).status, 405);
    }

    #[test]
    fn query_success_bad_body_and_unknown_dataset() {
        let r = router();
        let ok = r.handle(&request("POST", "/query", r#"{"dataset":"taxi","level":0}"#), 0);
        assert_eq!(ok.status, 200);
        let body = String::from_utf8(ok.body).unwrap();
        let json = urbane_geom::geojson::parse_json(&body).unwrap();
        assert_eq!(json.get("cached").unwrap().as_bool(), Some(false));
        assert!(json.get("total_count").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(
            json.get("guard").unwrap().get("path").unwrap().as_str(),
            Some("full")
        );

        assert_eq!(r.handle(&request("POST", "/query", "nope"), 0).status, 400);
        let missing =
            r.handle(&request("POST", "/query", r#"{"dataset":"ghost","level":0}"#), 0);
        assert_eq!(missing.status, 404);
    }

    #[test]
    fn reload_bumps_generation_over_the_router() {
        let r = router();
        let resp = r.handle(
            &request("POST", "/reload", r#"{"dataset":"taxi","rows":2000,"seed":9}"#),
            0,
        );
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"generation\":1"), "{body}");
        assert_eq!(
            r.handle(&request("POST", "/reload", r#"{"dataset":"ghost"}"#), 0).status,
            400
        );
    }

    #[test]
    fn metrics_page_includes_service_gauges() {
        let r = router();
        r.handle(&request("POST", "/query", r#"{"dataset":"taxi","level":0}"#), 0);
        // The next level of the same query resolves the kept point pass.
        r.handle(
            &request("POST", "/query", r#"{"dataset":"taxi","level":1}"#),
            0,
        );
        let page = r.handle(&request("GET", "/metrics", ""), 3);
        let text = String::from_utf8(page.body).unwrap();
        assert!(text.contains("urbane_queue_depth 3"), "{text}");
        assert!(text.contains("urbane_cache_misses_total 2"), "{text}");
        assert!(
            text.contains("urbane_guard_path_total{path=\"full\"} 2"),
            "{text}"
        );
        assert!(text.contains("urbane_pass_reuse_total 1\n"), "{text}");
        assert!(text.contains("urbane_single_flight_followers_total 0"), "{text}");
        // No store-backed datasets: paging counters render as stable zeros.
        assert!(text.contains("urbane_store_page_ins_total 0"), "{text}");
        assert!(text.contains("urbane_store_streamed_queries_total 0"), "{text}");
    }

    #[test]
    fn store_backed_index_queries_surface_in_metrics() {
        let dir = std::env::temp_dir().join(format!("urbane-router-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("taxi.ubs");
        urbane_store::StoreBuilder::new()
            .chunk_rows(512)
            .write_file(&synthetic_table("taxi", 4_000, 1).unwrap(), &path)
            .unwrap();

        let city = CityModel::nyc_like();
        let mut catalog = DataCatalog::new();
        catalog.register_store("taxi", &path).unwrap();
        catalog.register("resident", synthetic_table("taxi", 4_000, 1).unwrap());
        let pyramid = ResolutionPyramid::standard(&city.bbox(), 12, 6, 4);
        let service = UrbaneService::new(
            ServiceConfig {
                join: RasterJoinConfig::with_resolution(256),
                ..Default::default()
            },
            catalog,
            pyramid,
        )
        .unwrap();
        let r = Router::new(Arc::new(service), Arc::new(Metrics::new()));

        // An index-mode query streams straight off the chunk directory: the
        // dataset must stay cold (no page-in), but chunk traffic is counted.
        let ok = r.handle(
            &request("POST", "/query", r#"{"dataset":"taxi","level":0,"mode":"index"}"#),
            0,
        );
        assert_eq!(ok.status, 200, "{:?}", String::from_utf8(ok.body));
        let page = r.handle(&request("GET", "/metrics", ""), 0);
        let text = String::from_utf8(page.body).unwrap();
        assert!(text.contains("urbane_store_streamed_queries_total 1"), "{text}");
        assert!(text.contains("urbane_store_page_ins_total 0"), "{text}");
        assert!(!text.contains("urbane_store_chunks_read_total 0\n"), "{text}");
        // The directory's zones are classified like a resident table's: an
        // unfiltered count takes every one of them whole.
        assert!(text.contains("urbane_zones_whole_total 8\n"), "{text}");
        assert!(text.contains("urbane_zones_scanned_total 0\n"), "{text}");

        // The same query on a resident copy (clustered at registration)
        // counts its zones too: every one of them whole.
        let ok = r.handle(
            &request("POST", "/query", r#"{"dataset":"resident","level":0,"mode":"index"}"#),
            0,
        );
        assert_eq!(ok.status, 200, "{:?}", String::from_utf8(ok.body));
        let page = r.handle(&request("GET", "/metrics", ""), 0);
        let text = String::from_utf8(page.body).unwrap();
        let whole = 8 + 4_000usize.div_ceil(urban_data::ZONE_ROWS);
        assert!(text.contains(&format!("urbane_zones_whole_total {whole}\n")), "{text}");
        assert!(text.contains("urbane_zones_scanned_total 0\n"), "{text}");
        assert!(text.contains("urbane_store_streamed_queries_total 1\n"), "{text}");

        std::fs::remove_dir_all(&dir).ok();
    }
}
