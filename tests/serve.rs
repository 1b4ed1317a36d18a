//! End-to-end tests for the serving layer: boot a real [`UrbaneServer`] on
//! an ephemeral port and exercise it over actual TCP with the bundled
//! minimal HTTP client — query answers, cache hits, reload invalidation,
//! load shedding under a saturated queue, the slow-loris read budget, the
//! request-body cap, and deadline degradation reported over the wire.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use urbane::catalog::DataCatalog;
use urbane::service::{ServiceConfig, UrbaneService};
use urbane::ResolutionPyramid;
use urbane_geom::geojson::{parse_json, Json};
use urbane_serve::router::synthetic_table;
use urbane_serve::{Client, ServerConfig, UrbaneServer};
use urban_data::gen::city::CityModel;

/// Boot a server over a small synthetic taxi table.
fn boot(config: ServerConfig) -> UrbaneServer {
    boot_with(config, 3)
}

/// [`boot`] with a chosen generator seed.
fn boot_with(config: ServerConfig, seed: u64) -> UrbaneServer {
    let city = CityModel::nyc_like();
    let mut catalog = DataCatalog::new();
    catalog.register("taxi", synthetic_table("taxi", 6_000, seed).expect("taxi generator"));
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
    UrbaneServer::start(config, Arc::new(service)).expect("server binds ephemeral port")
}

fn parse_body(body: &str) -> Json {
    parse_json(body).unwrap_or_else(|e| panic!("response body must be JSON ({e}): {body}"))
}

#[test]
fn query_roundtrip_cache_hit_and_reload_invalidation() {
    let server = boot(ServerConfig::default());
    let mut client = Client::connect(server.addr(), Duration::from_secs(30)).unwrap();

    // Health and catalog listing.
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let datasets = client.get("/datasets").unwrap();
    assert_eq!(datasets.status, 200);
    assert!(datasets.body.contains("\"taxi\""), "{}", datasets.body);

    // First query computes...
    let body = "{\"dataset\":\"taxi\",\"level\":1}";
    let first = client.post("/query", body).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    let first_json = parse_body(&first.body);
    assert_eq!(first_json.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(first_json.get("generation").and_then(Json::as_f64), Some(0.0));
    let total = first_json.get("total_count").and_then(Json::as_f64).unwrap();
    assert!(total > 0.0, "synthetic taxi rows must land in regions");

    // ...the first repeat computes again and is admitted to the cache...
    let repeat = client.post("/query", body).unwrap();
    assert_eq!(repeat.status, 200);
    assert_eq!(parse_body(&repeat.body).get("cached").and_then(Json::as_bool), Some(false));

    // ...and the next one is served from the cache, bit-identical.
    let second = client.post("/query", body).unwrap();
    assert_eq!(second.status, 200);
    let second_json = parse_body(&second.body);
    assert_eq!(second_json.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        second_json.get("regions").map(|r| format!("{r}")),
        first_json.get("regions").map(|r| format!("{r}")),
        "cached answer must be identical to the computed one"
    );

    // Reload bumps the generation and invalidates the cached entry.
    let reload = client
        .post("/reload", "{\"dataset\":\"taxi\",\"rows\":6000,\"seed\":4}")
        .unwrap();
    assert_eq!(reload.status, 200, "{}", reload.body);
    let reload_json = parse_body(&reload.body);
    assert_eq!(reload_json.get("generation").and_then(Json::as_f64), Some(1.0));

    let third = client.post("/query", body).unwrap();
    assert_eq!(third.status, 200);
    let third_json = parse_body(&third.body);
    assert_eq!(
        third_json.get("cached").and_then(Json::as_bool),
        Some(false),
        "reload must invalidate the cached answer"
    );
    assert_eq!(third_json.get("generation").and_then(Json::as_f64), Some(1.0));

    server.shutdown();
}

#[test]
fn saturated_queue_sheds_with_429_and_recovers() {
    // One worker, queue of one: with two connections held open (a client
    // that never sends a request pins its worker until the read timeout),
    // every further connection must be shed immediately with a 429.
    let server = boot(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(10),
        ..Default::default()
    });
    let addr = server.addr();

    let held: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(addr).expect("held connection"))
        .collect();
    // Give the acceptor a moment to hand both held connections to the pool.
    std::thread::sleep(Duration::from_millis(100));

    let mut shed = 0usize;
    for _ in 0..4 {
        let mut probe = TcpStream::connect(addr).expect("probe connection");
        probe.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        probe.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        let _ = std::io::Read::read_to_end(&mut probe, &mut buf);
        let text = String::from_utf8_lossy(&buf).to_string();
        if text.starts_with("HTTP/1.1 429") {
            // The hint is jittered per shed so synchronized clients don't
            // return in one thundering herd — but it stays in a tight,
            // advertised band.
            let retry_after: u64 = text
                .lines()
                .find_map(|l| l.strip_prefix("Retry-After: "))
                .unwrap_or_else(|| panic!("shed responses must carry Retry-After: {text}"))
                .trim()
                .parse()
                .expect("Retry-After must be an integer number of seconds");
            assert!(
                (1..=4).contains(&retry_after),
                "jittered Retry-After must stay in 1..=4, got {retry_after}: {text}"
            );
            shed += 1;
        }
    }
    assert!(
        shed >= 3,
        "with worker+queue both occupied, probes must be shed (got {shed}/4)"
    );

    // Release the held connections; the server must serve again. The worker
    // notices the closed sockets asynchronously, so a connect that races it
    // can still be shed — poll until one is admitted.
    drop(held);
    let mut client = (0..100)
        .find_map(|_| {
            let mut client = Client::connect(addr, Duration::from_secs(30)).unwrap();
            if client.get("/healthz").is_ok_and(|h| h.status == 200) {
                return Some(client);
            }
            std::thread::sleep(Duration::from_millis(50));
            None
        })
        .expect("server must recover once load drains");

    // The shed counter made it into the metrics page.
    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let shed_line = metrics
        .body
        .lines()
        .find(|l| l.starts_with("urbane_shed_total"))
        .expect("metrics expose urbane_shed_total");
    let count: u64 = shed_line.split_whitespace().last().unwrap().parse().unwrap();
    assert!(count >= shed as u64, "{shed_line}");

    server.shutdown();
}

#[test]
fn slow_loris_is_cut_off_by_the_request_read_budget() {
    // A drip-feeding client sends one byte every 100ms: each individual
    // read completes well inside the 2s idle timeout, so only the *total*
    // per-request read budget can end the connection. Before the budget
    // existed, this client could pin a worker for as long as it kept
    // dripping.
    let server = boot(ServerConfig {
        read_timeout: Duration::from_secs(2),
        read_budget: Duration::from_millis(500),
        ..Default::default()
    });
    let addr = server.addr();

    let start = std::time::Instant::now();
    let mut drip = TcpStream::connect(addr).expect("drip connection");
    drip.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    let request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
    let mut cut_off = false;
    let mut served = Vec::new();
    'drip: for byte in request.iter() {
        if drip.write_all(std::slice::from_ref(byte)).is_err() {
            cut_off = true;
            break;
        }
        // The 100ms read timeout doubles as the drip pacing; Ok(0) is the
        // server hanging up on us.
        let mut buf = [0u8; 256];
        loop {
            match std::io::Read::read(&mut drip, &mut buf) {
                Ok(0) => {
                    cut_off = true;
                    break 'drip;
                }
                Ok(n) => served.extend_from_slice(&buf[..n]),
                Err(_) => break, // read timeout: connection still open
            }
        }
    }
    assert!(
        cut_off,
        "the read budget must cut the slow client off before the request \
         completes (server answered: {:?})",
        String::from_utf8_lossy(&served)
    );
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "cut-off must come from the 500ms budget, not a later timeout \
         (elapsed {:?})",
        start.elapsed()
    );

    // The worker the loris held is free again: a well-behaved client is
    // served promptly.
    let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    server.shutdown();
}

/// Read one `/healthz` answer (a 3-byte `ok\n` body) off `conn`.
fn read_healthz(conn: &mut TcpStream) -> String {
    let mut got = Vec::new();
    let mut buf = [0u8; 512];
    while !got.ends_with(b"\r\n\r\nok\n") {
        let n = std::io::Read::read(conn, &mut buf).expect("the server answers");
        assert!(n > 0, "the server hung up: {:?}", String::from_utf8_lossy(&got));
        got.extend_from_slice(&buf[..n]);
    }
    String::from_utf8(got).expect("UTF-8 answer")
}

#[test]
fn a_budget_shortened_read_does_not_shorten_the_idle_wait_after_it() {
    // The request arrives in two parts 100ms apart, so its second read runs
    // under the 200ms left of the 300ms budget. The idle wait for the next
    // keep-alive request must be back to the 2s idle timeout: a 400ms pause
    // would outlast a timeout left at the shortened value.
    let server = boot(ServerConfig {
        read_timeout: Duration::from_secs(2),
        read_budget: Duration::from_millis(300),
        ..Default::default()
    });
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    conn.write_all(b"\r\n").unwrap();
    let first = read_healthz(&mut conn);
    assert!(first.starts_with("HTTP/1.1 200 OK\r\n"), "{first}");
    assert!(first.contains("Connection: keep-alive\r\n"), "{first}");

    std::thread::sleep(Duration::from_millis(400));
    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let second = read_healthz(&mut conn);
    assert!(second.starts_with("HTTP/1.1 200 OK\r\n"), "{second}");

    server.shutdown();
}

#[test]
fn oversized_body_is_refused_with_400_and_the_server_keeps_serving() {
    let server = boot(ServerConfig::default());
    let addr = server.addr();

    // Announce one byte over the cap and send no body: the server must answer
    // from the header alone instead of waiting for a megabyte that never
    // comes, then close the connection.
    let mut big = TcpStream::connect(addr).expect("oversized connection");
    big.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let head = format!(
        "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        urbane_serve::http::MAX_BODY + 1
    );
    big.write_all(head.as_bytes()).unwrap();
    let mut buf = Vec::new();
    std::io::Read::read_to_end(&mut big, &mut buf).expect("server answers and closes");
    let text = String::from_utf8_lossy(&buf);
    assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    assert!(text.contains("exceeds"), "the 400 names the limit: {text}");

    let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    server.shutdown();
}

#[test]
fn reload_during_inflight_queries_never_serves_cross_generation_hits() {
    use std::collections::btree_map::Entry;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};

    // Hammer /query from several threads while /reload swaps the dataset
    // underneath them, then audit the full response ledger: within one
    // generation every answer must be bit-identical (a cached hit that
    // crossed generations would pair a stale region set with a fresh
    // generation number and fail the audit).
    let server = boot(ServerConfig::default());
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));

    let handles: Vec<_> = (0..3)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, Duration::from_secs(30)).unwrap();
                let mut seen: Vec<(u64, String)> = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    let resp = match client.post("/query", "{\"dataset\":\"taxi\",\"level\":1}") {
                        Ok(r) => r,
                        Err(_) => {
                            client = Client::connect(addr, Duration::from_secs(30)).unwrap();
                            continue;
                        }
                    };
                    if resp.status != 200 {
                        continue;
                    }
                    let json = parse_body(&resp.body);
                    let generation =
                        json.get("generation").and_then(Json::as_f64).expect("generation") as u64;
                    let regions =
                        json.get("regions").map(|r| format!("{r}")).unwrap_or_default();
                    seen.push((generation, regions));
                }
                seen
            })
        })
        .collect();

    let mut reload_client = Client::connect(addr, Duration::from_secs(30)).unwrap();
    for seed in 10..16 {
        std::thread::sleep(Duration::from_millis(80));
        let body = format!("{{\"dataset\":\"taxi\",\"rows\":6000,\"seed\":{seed}}}");
        let resp = reload_client.post("/reload", &body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::SeqCst);

    let mut ledger: BTreeMap<u64, String> = BTreeMap::new();
    let mut audited = 0usize;
    for h in handles {
        for (generation, regions) in h.join().expect("query thread") {
            audited += 1;
            match ledger.entry(generation) {
                Entry::Vacant(v) => {
                    v.insert(regions);
                }
                Entry::Occupied(o) => assert_eq!(
                    o.get(),
                    &regions,
                    "generation {generation} answered two different region sets — \
                     a cache hit crossed a reload boundary"
                ),
            }
        }
    }
    assert!(audited >= 20, "stress must actually exercise queries (got {audited})");
    assert!(
        ledger.len() >= 3,
        "queries must span several generations, saw {:?}",
        ledger.keys().collect::<Vec<_>>()
    );

    server.shutdown();
}

#[test]
fn exhausted_deadline_degrades_over_the_wire() {
    let server = boot(ServerConfig::default());
    let mut client = Client::connect(server.addr(), Duration::from_secs(30)).unwrap();

    // A zero deadline can never fit the full rung: the degradation ladder
    // must fall through to the preview sample and say so in the report.
    let resp = client
        .post("/query", "{\"dataset\":\"taxi\",\"level\":1,\"deadline_ms\":0}")
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let json = parse_body(&resp.body);
    let guard = json.get("guard").expect("answer carries a guard report");
    assert_eq!(guard.get("path").and_then(Json::as_str), Some("preview_sample"));
    assert_eq!(guard.get("degraded").and_then(Json::as_bool), Some(true));
    assert_eq!(json.get("cached").and_then(Json::as_bool), Some(false));

    // Degraded answers must not poison the cache: no repeat is served as a
    // cached full answer. A key is admitted on its second miss, so the
    // third request is the first that could hit.
    for _ in 0..2 {
        let repeat = client
            .post("/query", "{\"dataset\":\"taxi\",\"level\":1,\"deadline_ms\":0}")
            .unwrap();
        assert_eq!(repeat.status, 200, "{}", repeat.body);
        let repeat_json = parse_body(&repeat.body);
        assert_eq!(repeat_json.get("cached").and_then(Json::as_bool), Some(false));
    }

    server.shutdown();
}

/// Value of a Prometheus-style metric line (`name value`) in `/metrics`.
fn metric(body: &str, name: &str) -> f64 {
    body.lines()
        .find_map(|l| match l.split_once(' ') {
            Some((n, v)) if n == name => v.trim().parse().ok(),
            _ => None,
        })
        .unwrap_or_else(|| panic!("metric {name} missing:\n{body}"))
}

#[test]
fn reload_between_identical_viewports_never_serves_the_stale_answer() {
    let server = boot(ServerConfig::default());
    let mut client = Client::connect(server.addr(), Duration::from_secs(30)).unwrap();

    let b = CityModel::nyc_like().bbox();
    let body = format!(
        "{{\"dataset\":\"taxi\",\"level\":2,\"filters\":[{{\"type\":\"bbox\",\
         \"x0\":{},\"y0\":{},\"x1\":{},\"y1\":{}}}]}}",
        b.min.x,
        b.min.y,
        b.min.x + 0.7 * b.width(),
        b.max.y
    );
    let view = |client: &mut Client| -> Json {
        let resp = client.post("/query", &body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        parse_body(&resp.body)
    };

    // The same viewport three times: the second miss admits the key, and
    // the third request is an exact-key hit.
    let v1 = view(&mut client);
    assert_eq!(v1.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(v1.get("generation").and_then(Json::as_f64), Some(0.0));
    assert_eq!(view(&mut client).get("cached").and_then(Json::as_bool), Some(false));
    let v2 = view(&mut client);
    assert_eq!(v2.get("cached").and_then(Json::as_bool), Some(true));
    let m = client.get("/metrics").unwrap().body;
    assert_eq!(metric(&m, "urbane_cache_entries"), 1.0, "{m}");

    // Reload: the generation-prefix purge empties the dataset's entries.
    let reload = client
        .post("/reload", "{\"dataset\":\"taxi\",\"rows\":6000,\"seed\":4}")
        .unwrap();
    assert_eq!(reload.status, 200, "{}", reload.body);
    let m = client.get("/metrics").unwrap().body;
    assert_eq!(
        metric(&m, "urbane_cache_entries"),
        0.0,
        "reload must purge every answer of the old generation:\n{m}"
    );

    // The same viewport again runs against generation 1 and is recomputed.
    let v3 = view(&mut client);
    assert_eq!(v3.get("generation").and_then(Json::as_f64), Some(1.0));
    assert_eq!(v3.get("cached").and_then(Json::as_bool), Some(false));

    // And the answer is the reloaded dataset's truth: a fresh server built
    // directly on the seed-4 table must report the identical region table.
    let reference = boot_with(ServerConfig::default(), 4);
    let mut ref_client = Client::connect(reference.addr(), Duration::from_secs(30)).unwrap();
    let r3 = view(&mut ref_client);
    assert_eq!(
        v3.get("regions").map(|r| format!("{r}")),
        r3.get("regions").map(|r| format!("{r}")),
        "post-reload answer must equal direct evaluation of the new data"
    );

    reference.shutdown();
    server.shutdown();
}
