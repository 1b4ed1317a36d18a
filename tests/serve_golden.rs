//! Golden-file snapshots of the serving layer's wire output.
//!
//! The `/metrics` exposition and `/query` JSON are API surface: dashboards
//! scrape the former, clients parse the latter. These tests freeze both
//! against committed snapshots in `tests/golden/`, so any change to a
//! metric name, a label, a JSON key, or the guard-report shape shows up as
//! a reviewable diff instead of silently breaking downstream parsers.
//!
//! Nondeterministic values are normalized before comparison:
//!
//! * latency histogram buckets and sums (wall-clock dependent) → `<T>`;
//!   request *counts* stay exact — the request sequence is fixed;
//! * the guard report's `elapsed_ms` → `"<T>"`.
//!
//! To regenerate after an intentional wire change:
//! `UPDATE_GOLDEN=1 cargo test -p urbane-bench --test serve_golden`.
//!
//! `tests/golden/serve_query_sum.json` is not written here any more. It is
//! the answer to the same `sum:fare` query from before resident tables were
//! clustered; f32 blend order follows row order, so the sums have since
//! moved in their last digits (`serve_query_sum_fare.json` is the live
//! snapshot). `benchmark/loadgen`'s parser test pins the old file's digits
//! and `benchmark/` could not change in the PR that moved them, so the file
//! stays as that test's fixture until a benchmark PR re-pins it.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use urbane::catalog::DataCatalog;
use urbane::service::{ServiceConfig, UrbaneService};
use urbane::ResolutionPyramid;
use urbane_serve::router::synthetic_table;
use urbane_serve::{Client, ServerConfig, UrbaneServer};
use urban_data::gen::city::CityModel;

fn boot() -> UrbaneServer {
    let city = CityModel::nyc_like();
    let mut catalog = DataCatalog::new();
    catalog.register("taxi", synthetic_table("taxi", 6_000, 3).expect("taxi generator"));
    let pyramid = ResolutionPyramid::standard(&city.bbox(), 16, 8, 5);
    let service = UrbaneService::new(
        ServiceConfig {
            join: raster_join::RasterJoinConfig::with_resolution(256),
            default_deadline: Duration::from_secs(30),
            ..Default::default()
        },
        catalog,
        pyramid,
    )
    .expect("service boots");
    UrbaneServer::start(ServerConfig::default(), Arc::new(service)).expect("server binds")
}

/// Compare `actual` against `tests/golden/<name>`, or rewrite the file when
/// `UPDATE_GOLDEN=1`.
fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name);
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {name} ({e}); regenerate with UPDATE_GOLDEN=1")
    });
    assert_eq!(
        expected, actual,
        "wire output drifted from tests/golden/{name}; if intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

/// Blank out the trailing value of timing-dependent exposition lines,
/// keeping names, labels, and the deterministic request counts intact.
fn normalize_metrics(text: &str) -> String {
    let mut out = String::new();
    for l in text.lines() {
        if l.starts_with("urbane_request_latency_ms_bucket")
            || l.starts_with("urbane_request_latency_ms_sum")
        {
            let head = l.rsplit_once(' ').map_or(l, |(h, _)| h);
            out.push_str(head);
            out.push_str(" <T>\n");
        } else {
            out.push_str(l);
            out.push('\n');
        }
    }
    out
}

/// Replace the numeric value of `"elapsed_ms":…` (compact JSON) with a
/// placeholder; every other field in the answer is deterministic.
fn normalize_query_json(body: &str) -> String {
    let key = "\"elapsed_ms\":";
    match body.find(key) {
        None => body.to_string(),
        Some(start) => {
            let vstart = start + key.len();
            let rest = &body[vstart..];
            let vlen = rest.find([',', '}']).unwrap_or(rest.len());
            format!("{}{key}\"<T>\"{}", &body[..start], &rest[vlen..])
        }
    }
}

#[test]
fn wire_snapshots_are_stable() {
    let server = boot();
    let mut client = Client::connect(server.addr(), Duration::from_secs(30)).unwrap();

    // Fixed request sequence — the metrics counters below depend on it.
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    assert_eq!(client.get("/datasets").unwrap().status, 200);

    let count = client.post("/query", "{\"dataset\":\"taxi\",\"level\":1}").unwrap();
    assert_eq!(count.status, 200, "{}", count.body);
    assert_golden("serve_query_count.json", &normalize_query_json(&count.body));

    let sum = client
        .post(
            "/query",
            "{\"dataset\":\"taxi\",\"level\":1,\"agg\":\"sum:fare\",\"mode\":\"accurate\",\
             \"filters\":[{\"type\":\"range\",\"column\":\"fare\",\"min\":5,\"max\":60}]}",
        )
        .unwrap();
    assert_eq!(sum.status, 200, "{}", sum.body);
    assert_golden("serve_query_sum_fare.json", &normalize_query_json(&sum.body));

    // Malformed body: the 400 shape is wire surface too.
    let bad = client.post("/query", "{\"dataset\":\"taxi\"}").unwrap();
    assert_eq!(bad.status, 400);
    assert_golden("serve_query_bad.json", &normalize_query_json(&bad.body));

    // No identical concurrent misses means zero followers.
    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("urbane_single_flight_followers_total 0"), "{}", metrics.body);
    assert_golden("serve_metrics.txt", &normalize_metrics(&metrics.body));

    server.shutdown();
}

/// The exact and the coverage-weighted answers, frozen bit for bit under a
/// five-day window: an `avg:fare` over the irregular neighbourhoods once per
/// mode, and the accurate drill shape (`sum:tip`, `max:fare` at level 2).
/// Both modes fold boundary pixels differently from the bounded default, so
/// any change to how a region's pixels are gathered, or to which regions a
/// point on a boundary pixel reaches, shows up here.
#[test]
fn accurate_and_weighted_answers_are_stable() {
    let server = boot();
    let mut client = Client::connect(server.addr(), Duration::from_secs(30)).unwrap();
    for (level, agg, mode, name) in [
        (1, "avg:fare", "accurate", "avg_fare_accurate"),
        (1, "avg:fare", "weighted", "avg_fare_weighted"),
        (2, "sum:tip", "accurate", "sum_tip_accurate"),
        (2, "max:fare", "accurate", "max_fare_accurate"),
    ] {
        let body = format!(
            "{{\"dataset\":\"taxi\",\"level\":{level},\"agg\":\"{agg}\",\"mode\":\"{mode}\",\
             \"filters\":[{{\"type\":\"time\",\"start\":259200,\"end\":691200}}]}}"
        );
        let got = client.post("/query", &body).unwrap();
        assert_eq!(got.status, 200, "{}", got.body);
        assert_golden(&format!("serve_query_{name}.json"), &normalize_query_json(&got.body));
    }
    server.shutdown();
}

/// Regression: a cached exact-key hit for an *approximate* answer must
/// replay the original certified bound, not report `error_bound: 0`/null.
/// The bound is part of the answer — losing it on the hit path silently
/// upgrades an approximate answer to "exact" in every scraping client.
#[test]
fn cached_hits_replay_the_certified_bound() {
    use urbane_geom::geojson::{parse_json, Json};

    let server = boot();
    let mut client = Client::connect(server.addr(), Duration::from_secs(30)).unwrap();

    // Bounded mode (the default) reports a non-zero certified bound.
    let body = "{\"dataset\":\"taxi\",\"level\":1}";
    let first = client.post("/query", body).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    let first_json = parse_json(&first.body).expect("answer is JSON");
    assert_eq!(first_json.get("cached").and_then(Json::as_bool), Some(false));
    let bound = first_json
        .get("guard")
        .and_then(|g| g.get("error_bound"))
        .and_then(Json::as_f64)
        .expect("bounded answer carries a certified bound");
    assert!(bound > 0.0, "bounded mode must certify a positive bound");

    // The first repeat recomputes (the cache admits a key on its second
    // miss); the one after it is the hit.
    let repeat = client.post("/query", body).unwrap();
    assert_eq!(repeat.status, 200, "{}", repeat.body);
    let repeat_json = parse_json(&repeat.body).expect("answer is JSON");
    assert_eq!(repeat_json.get("cached").and_then(Json::as_bool), Some(false));

    let second = client.post("/query", body).unwrap();
    assert_eq!(second.status, 200, "{}", second.body);
    let second_json = parse_json(&second.body).expect("answer is JSON");
    assert_eq!(second_json.get("cached").and_then(Json::as_bool), Some(true));
    let replayed = second_json
        .get("guard")
        .and_then(|g| g.get("error_bound"))
        .and_then(Json::as_f64)
        .expect("cached hit must replay the original bound");
    assert_eq!(replayed, bound, "cached hit replayed a different bound");

    server.shutdown();
}
