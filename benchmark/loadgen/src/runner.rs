//! One workload, start to finish: set-up, warm-up, the timed closed-loop
//! window, scrapes, the answer audit and the workload's self-validation.

use crate::affinity::CpuSet;
use crate::answer::{exact_agree, relative_error, Answer};
use crate::http::{wait_readable, Conn, Response, SPIN};
use crate::metrics::{Metric, END_TO_END, SCRAPED};
use crate::prom::{Delta, Scrape};
use crate::rng::Rng;
use crate::server::{build_store, Binaries, Server};
use crate::stats::{median, percentile_sorted};
use crate::workloads::{
    with_agg, with_mode, Extent, Kind, Op, Stream, Workload, DAY, DAYS, REGIONS_PER_LEVEL,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up is repeated and its median reported, so one slow spawn or a cold
/// page cache does not decide `setup_s`.
const SETUP_ROUNDS: usize = 3;
/// Queries re-issued as exact references after the window.
const AUDIT_QUERIES: usize = 16;
/// The audit draws from the first this-many distinct queries of client 0.
const AUDIT_CANDIDATES: usize = 40;
const HEALTHZ_PROBES: usize = 200;
/// Request bodies each client keeps for the traced replay, which takes
/// 2000 in all.
const SENT_KEPT: usize = 2_000;

/// Largest share of the exact answer a bounded answer at the default
/// resolution (512) may misplace, per pyramid level: twice the largest
/// value seen while the benchmark was written (0.0024 / 0.0046 / 0.0275
/// over seeds 1-10 of `pan_zoom`, `filter_brush` and `dashboard`), capped
/// at 5%. Every run prints its own worst values beside the audit.
const BOUNDED_TOLERANCE: [f64; 3] = [0.005, 0.010, 0.050];

/// Series the scraped metrics are computed from. Every scrape must carry
/// them, and the unit tests hold the committed golden page to this list.
pub const SCRAPED_SERIES: [&str; 19] = [
    "urbane_request_latency_ms_sum{path=\"/query\"}",
    "urbane_request_latency_ms_count{path=\"/query\"}",
    "urbane_shed_total",
    "urbane_cache_hits_total",
    "urbane_cache_misses_total",
    "urbane_cache_entries",
    "urbane_guard_path_total{path=\"full\"}",
    "urbane_guard_path_total{path=\"degraded_bounded\"}",
    "urbane_guard_path_total{path=\"preview_sample\"}",
    "urbane_batch_size_sum",
    "urbane_batch_size_count",
    "urbane_batch_window_wait_ms_total",
    "urbane_single_flight_followers_total",
    "urbane_store_page_ins_total",
    "urbane_store_chunks_read_total",
    "urbane_store_bytes_read_total",
    "urbane_blockcache_hits_total",
    "urbane_blockcache_residual_blocks_total",
    "urbane_blockcache_bytes",
];

pub struct RunConfig {
    pub bins: Binaries,
    pub out_dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Ad-hoc extra server flags; a run that uses them is never a gate run.
    pub server_args: Vec<String>,
    /// The CPUs left to the server once the generator has taken its own;
    /// `None` leaves placement to the scheduler (a one-CPU box).
    pub server_cpus: Option<CpuSet>,
}

pub struct WorkloadRun {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    /// `/query` answers the latency percentiles are taken over.
    pub samples: usize,
    pub window_s: f64,
    pub reloads: usize,
    pub audit: Audit,
    pub end_to_end: Vec<Metric>,
    pub scraped: Vec<Metric>,
    /// Why the run is not correct: failed ops, audit rejections, and
    /// self-validation findings. Empty means correct.
    pub findings: Vec<String>,
    /// Request bodies in the interleaved order the clients sent them, for
    /// the traced replay.
    pub sent: Vec<String>,
}

/// One answered request: how long the client waited, and how long the
/// service says it worked.
#[derive(Debug, Clone, Copy)]
struct Sample {
    latency_ms: f64,
    service_ms: f64,
}

/// The payload fingerprints one client saw for one request and generation.
#[derive(Debug, Default, Clone, Copy)]
struct Prints {
    /// The first computed (`cached:false`) answer.
    computed: Option<u64>,
    /// The first cached answer, and whether a later cached one differed.
    cached: Option<u64>,
    cached_differs: bool,
}

#[derive(Default)]
struct ClientLog {
    queries: Vec<Sample>,
    reload_ms: Vec<f64>,
    bytes: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Request body → generation → what was answered. Keyed so that a
    /// repeated request (every dashboard hit) costs a lookup, not a copy:
    /// this runs between two requests of a closed loop.
    answers: HashMap<String, HashMap<u64, Prints>>,
    /// Client 0 only: the first distinct queries with their window answers.
    audit: Vec<(String, usize, Answer)>,
    /// The first `SENT_KEPT` request bodies, for the traced replay.
    sent: Vec<String>,
}

impl ClientLog {
    /// Drop what the lead-in timed; what it checked and counted stays.
    fn forget_timings(&mut self) {
        self.queries.clear();
        self.reload_ms.clear();
        self.bytes = 0;
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }
}

/// Check one `/query` answer against what every workload demands of it.
fn check_answer(status: u16, body: &str, level: usize) -> Result<Answer, String> {
    if status != 200 {
        return Err(format!(
            "status {status}: {}",
            body.chars().take(120).collect::<String>()
        ));
    }
    let answer = Answer::parse(body)?;
    if answer.values.len() != REGIONS_PER_LEVEL[level] {
        return Err(format!("{} regions at level {level}", answer.values.len()));
    }
    if answer.guard_path != "full" || answer.degraded {
        return Err(format!(
            "guard path {:?}, degraded {}",
            answer.guard_path, answer.degraded
        ));
    }
    Ok(answer)
}

fn io<T>(r: std::io::Result<T>, what: &str) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

fn post_query(conn: &mut Conn, body: &str, level: usize) -> Result<Answer, String> {
    let resp = io(conn.post("/query", body), "POST /query")?;
    check_answer(resp.status, &resp.body, level).map_err(|e| format!("{e} for {body}"))
}

fn scrape(conn: &mut Conn) -> Result<Scrape, String> {
    let resp = io(conn.get("/metrics"), "GET /metrics")?;
    if resp.status != 200 {
        return Err(format!("GET /metrics: status {}", resp.status));
    }
    let page = Scrape::parse(&resp.body);
    // A renamed series would read as 0 and pass for an idle layer.
    match SCRAPED_SERIES.iter().find(|series| !page.has(series)) {
        Some(missing) => Err(format!("GET /metrics: no series {missing}")),
        None => Ok(page),
    }
}

/// Warm-up: the workload's fixed requests, which build the lazy state the
/// window's requests reuse.
fn warm_up(conn: &mut Conn, w: &Workload) -> Result<(), String> {
    for op in w.warmup() {
        if let Op::Query { body, level } = op {
            post_query(conn, &body, level)?;
        }
    }
    Ok(())
}

/// The extent and epoch re-derived in this program must be the server's:
/// a whole-extent, whole-month filter must keep every row the unfiltered
/// query counts.
fn check_extent(conn: &mut Conn, w: &Workload) -> Result<(), String> {
    let e = Extent::nyc();
    let mode = if w.store_rows.is_some() {
        ",\"mode\":\"index\""
    } else {
        ""
    };
    let head = format!(
        "{{\"dataset\":\"{}\",\"level\":0,\"agg\":\"count\"{mode}",
        w.dataset
    );
    let filtered = format!(
        "{head},\"filters\":[{{\"type\":\"bbox\",\"x0\":{},\"y0\":{},\"x1\":{},\"y1\":{}}},{{\"type\":\"time\",\"start\":{},\"end\":{}}}]}}",
        e.x0, e.y0, e.x1, e.y1, w.epoch(), w.epoch() + DAYS * DAY
    );
    let all = post_query(conn, &format!("{head}}}"), 0)?.total_count;
    let kept = post_query(conn, &filtered, 0)?.total_count;
    if kept != all || all == 0.0 {
        return Err(format!(
            "extent self-check: a whole-extent, whole-month filter kept {kept} of {all} rows of {:?}",
            w.dataset
        ));
    }
    Ok(())
}

/// Record the answer to `op` in the log of the client that sent it.
fn record(log: &mut ClientLog, client: usize, op: &Op, resp: Response) {
    let latency_ms = resp.latency.as_secs_f64() * 1e3;
    match op {
        Op::Reload { body } => {
            if resp.status == 200 {
                log.reload_ms.push(latency_ms);
            } else {
                log.fail(format!("reload status {} for {body}", resp.status));
            }
        }
        Op::Query { body, level } => match check_answer(resp.status, &resp.body, *level) {
            Ok(answer) => {
                log.queries.push(Sample {
                    latency_ms,
                    service_ms: answer.elapsed_ms,
                });
                log.bytes += resp.body.len() as u64;
                if !log.answers.contains_key(body) {
                    log.answers.insert(body.clone(), HashMap::new());
                    if client == 0 && log.audit.len() < AUDIT_CANDIDATES {
                        log.audit.push((body.clone(), *level, answer.clone()));
                    }
                }
                let prints = log
                    .answers
                    .get_mut(body)
                    .expect("inserted above")
                    .entry(answer.generation)
                    .or_default();
                let print = answer.fingerprint();
                if !answer.cached {
                    prints.computed.get_or_insert(print);
                } else if *prints.cached.get_or_insert(print) != print {
                    prints.cached_differs = true;
                }
            }
            Err(e) => log.fail(format!("{e} for {body}")),
        },
    }
    if log.sent.len() < SENT_KEPT {
        log.sent.push(op.body().to_string());
    }
}

/// One closed-loop client: its request stream, the request it waits on,
/// and what it has seen.
struct Client {
    stream: Stream,
    in_flight: Option<Op>,
    /// A failed read or write left the connection in an unknown state:
    /// this client sends no more.
    broken: bool,
    log: ClientLog,
}

impl Client {
    /// Send the next request, unless `deadline` has passed.
    fn send_next(&mut self, conn: &mut Conn, deadline: Instant) {
        if self.broken || Instant::now() >= deadline {
            return;
        }
        let op = self.stream.next().expect("streams are endless");
        self.log.attempted += 1;
        let path = if matches!(op, Op::Reload { .. }) {
            "/reload"
        } else {
            "/query"
        };
        match conn.send("POST", path, op.body()) {
            Ok(()) => self.in_flight = Some(op),
            Err(e) => {
                self.log.fail(format!("POST {path}: {e}"));
                self.broken = true;
            }
        }
    }
}

/// Drive every client, closed loop, until `deadline`, all from this one
/// thread. A client sends its next request as soon as its previous answer
/// has been read completely (the answer is checked after that, so the
/// server never waits for the generator's bookkeeping). The thread looks at
/// each connection in turn and sleeps only when none has had a byte for
/// `http::SPIN`. Returns when the last answer came.
fn run_clients(conns: &mut [Conn], clients: &mut [Client], deadline: Instant) -> Instant {
    for (client, conn) in clients.iter_mut().zip(conns.iter_mut()) {
        client.send_next(conn, deadline);
    }
    let mut last_answer = Instant::now();
    while clients.iter().any(|c| c.in_flight.is_some()) {
        for (i, (client, conn)) in clients.iter_mut().zip(conns.iter_mut()).enumerate() {
            if client.in_flight.is_none() {
                continue;
            }
            match conn.try_recv() {
                Ok(Some(resp)) => {
                    last_answer = Instant::now();
                    let op = client.in_flight.take().expect("checked above");
                    client.send_next(conn, deadline);
                    record(&mut client.log, i, &op, resp);
                }
                Ok(None) => {}
                Err(e) => {
                    client.log.fail(format!("reading an answer: {e}"));
                    client.in_flight = None;
                    client.broken = true;
                }
            }
        }
        if last_answer.elapsed() < SPIN {
            std::hint::spin_loop();
        } else {
            wait_readable(conns, Duration::from_millis(100));
        }
    }
    last_answer
}

/// Every cached answer must repeat, bit for bit, the answer computed for
/// the same request and generation, whichever client saw which.
fn check_cached(logs: &[ClientLog]) -> Vec<String> {
    let mut findings = Vec::new();
    for (body, by_generation) in logs.iter().flat_map(|l| &l.answers) {
        for (generation, mine) in by_generation {
            let theirs = || {
                logs.iter()
                    .filter_map(|l| l.answers.get(body)?.get(generation))
            };
            // With no computed answer in the window (it was computed before
            // the window began), cached answers must at least agree.
            let reference = theirs()
                .find_map(|p| p.computed)
                .or(theirs().find_map(|p| p.cached));
            let differs =
                mine.cached_differs || (mine.cached.is_some() && mine.cached != reference);
            if differs && findings.len() < 5 {
                findings.push(format!(
                    "cached answer differs from the computed one for {body} (generation {generation})"
                ));
            }
        }
    }
    findings
}

fn agg_of(body: &str) -> &str {
    body.split("\"agg\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("")
}

/// A bounded additive answer (count, sum) may misplace at most the level's
/// tolerated share of the exact one.
fn bounded_error(
    approx: &Answer,
    exact: &Answer,
    level: usize,
    audit: &mut Audit,
) -> Result<(), String> {
    let err = relative_error(approx, exact);
    audit.worst_bounded_error[level] = audit.worst_bounded_error[level].max(err);
    // The tolerance is calibrated on the full tables; the handful of rows a
    // region holds at smoke scale can all sit on its boundary.
    if audit.smoke || err <= BOUNDED_TOLERANCE[level] {
        Ok(())
    } else {
        Err(format!(
            "bounded answer misplaces {err:.4} of the exact one (limit {})",
            BOUNDED_TOLERANCE[level]
        ))
    }
}

/// A bounded average has no such bound of its own: one point moved across
/// a boundary can double the mean of a region holding two. Its additive
/// parts have, so audit those, and hold the average to being their ratio.
fn bounded_average(
    conn: &mut Conn,
    body: &str,
    level: usize,
    column: &str,
    own: &Answer,
    audit: &mut Audit,
) -> Result<(), String> {
    let sum_body = with_agg(body, &format!("sum:{column}"));
    let count_body = with_agg(body, "count");
    let mut fetch = |b: &str| post_query(conn, b, level);
    let (sum, count) = (fetch(&sum_body)?, fetch(&count_body)?);
    let exact_sum = fetch(&with_mode(&sum_body, "accurate"))?;
    let exact_count = fetch(&with_mode(&count_body, "accurate"))?;
    bounded_error(&sum, &exact_sum, level, audit)?;
    bounded_error(&count, &exact_count, level, audit)?;
    for (i, ((avg, s), n)) in own
        .values
        .iter()
        .zip(&sum.values)
        .zip(&count.values)
        .enumerate()
    {
        let expected = match (s, n) {
            (Some(s), Some(n)) if *n > 0.0 => Some(s / n),
            _ => None,
        };
        let agree = match (avg, expected) {
            (Some(a), Some(e)) => (a - e).abs() <= 1e-6 * e.abs().max(1.0),
            (None, None) => true,
            _ => false,
        };
        if !agree {
            return Err(format!(
                "region {i}: average {avg:?} is not sum/count = {expected:?}"
            ));
        }
    }
    Ok(())
}

#[derive(Default)]
pub struct Audit {
    pub audited: u64,
    pub rejected: u64,
    /// Largest share a bounded answer misplaced, per level: what
    /// `BOUNDED_TOLERANCE` is calibrated from.
    pub worst_bounded_error: [f64; 3],
    smoke: bool,
    findings: Vec<String>,
}

/// The answer audit: re-issue seeded picks of the window's queries as
/// `mode:"index"` and `mode:"accurate"`; the two exact modes must agree,
/// and the workload's own answers must be within tolerance of them.
fn audit(
    conn: &mut Conn,
    seed: u64,
    smoke: bool,
    mut candidates: Vec<(String, usize, Answer)>,
) -> Result<Audit, String> {
    Rng::fork(seed, 77).shuffle(&mut candidates);
    candidates.truncate(AUDIT_QUERIES);
    let mut out = Audit {
        smoke,
        ..Default::default()
    };
    for (body, level, in_window) in candidates {
        let by_index = post_query(conn, &with_mode(&body, "index"), level)?;
        let by_raster = post_query(conn, &with_mode(&body, "accurate"), level)?;
        let own = post_query(conn, &body, level)?;
        let counts = body.contains("\"agg\":\"count\"");
        let mut verdict = exact_agree(&by_index, &by_raster, if counts { 0.0 } else { 1e-6 })
            .map_err(|e| format!("index and accurate disagree ({e})"));
        if verdict.is_ok() {
            verdict = if body.contains("\"mode\":\"") {
                exact_agree(&own, &by_index, if counts { 0.0 } else { 1e-6 })
                    .map_err(|e| format!("own exact answer differs from the index join ({e})"))
            } else if let Some(column) = agg_of(&body).strip_prefix("avg:") {
                bounded_average(conn, &body, level, column, &own, &mut out)
            } else {
                bounded_error(&own, &by_index, level, &mut out)
            };
        }
        // Answers are deterministic: the one given inside the window must
        // be the one given now, unless a reload replaced the data between.
        if verdict.is_ok() && in_window.generation == own.generation {
            verdict = exact_agree(&in_window, &own, 1e-9)
                .map_err(|e| format!("the window's answer differs from the re-issued one ({e})"));
        }
        out.audited += 1;
        if let Err(e) = verdict {
            out.rejected += 1;
            if out.findings.len() < 5 {
                out.findings.push(format!("audit: {e} for {body}"));
            }
        }
    }
    Ok(out)
}

fn healthz_p50_us(conn: &mut Conn) -> Result<f64, String> {
    let mut us = Vec::with_capacity(HEALTHZ_PROBES);
    for _ in 0..HEALTHZ_PROBES {
        let resp = io(conn.get("/healthz"), "GET /healthz")?;
        if resp.status != 200 {
            return Err(format!("GET /healthz: status {}", resp.status));
        }
        us.push(resp.latency.as_secs_f64() * 1e6);
    }
    Ok(median(&us))
}

pub fn run_workload(cfg: &RunConfig, workload: Workload) -> Result<WorkloadRun, String> {
    let w = if cfg.quick {
        workload.quick()
    } else {
        workload
    };
    let store_dir = cfg.out_dir.join(format!("data-{}", w.name));

    // Set-up, timed from nothing to a warmed server. The last round's
    // server is the one measured.
    let mut setup_s = Vec::with_capacity(SETUP_ROUNDS);
    let mut store_bytes = 0u64;
    let mut kept = None;
    for _ in 0..SETUP_ROUNDS {
        drop(kept.take());
        let start = Instant::now();
        if let Some(rows) = w.store_rows {
            store_bytes = build_store(&cfg.bins.cli, &store_dir, rows)?;
        }
        let server = Server::spawn(
            &cfg.bins.serve,
            w.rows,
            w.store_rows.map(|_| store_dir.as_path()),
            &cfg.server_args,
            cfg.server_cpus,
        )?;
        let mut conn = io(Conn::connect(server.addr), "connect")?;
        warm_up(&mut conn, &w)?;
        setup_s.push(start.elapsed().as_secs_f64());
        kept = Some((server, conn));
    }
    let (server, mut conn) = kept.expect("at least one set-up round");
    check_extent(&mut conn, &w)?;

    // Never more connections than the server has workers: the warm-up
    // connection becomes client 0's.
    let mut conns = vec![conn];
    for _ in 1..w.clients {
        conns.push(io(Conn::connect(server.addr), "connect")?);
    }
    let mut clients: Vec<Client> = (0..w.clients)
        .map(|c| Client {
            stream: w.stream(cfg.seed, c),
            in_flight: None,
            broken: false,
            log: ClientLog::default(),
        })
        .collect();

    // The lead-in: the head of the workload's own request streams, a tenth
    // of the window long, answered and checked but not timed. The caches
    // the workload lives on fill here (the dashboard's 48 first misses take
    // a second), as do the CPU's.
    let lead_in = Duration::from_secs_f64(cfg.seconds / 10.0);
    run_clients(&mut conns, &mut clients, Instant::now() + lead_in);
    for client in &mut clients {
        client.log.forget_timings();
    }

    // The timed window: the streams go on from where the lead-in stopped.
    let before = scrape(&mut conns[0])?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let end = run_clients(&mut conns, &mut clients, deadline);
    let window_s = (end - start).as_secs_f64();
    let logs: Vec<ClientLog> = clients.into_iter().map(|c| c.log).collect();
    conns.truncate(1);
    let mut conn = conns.pop().expect("client 0's connection");

    let peak_rss_mb = server.peak_rss_mb()?;
    let after = scrape(&mut conn)?;
    let healthz_us = healthz_p50_us(&mut conn)?;

    let mut findings: Vec<String> = logs
        .iter()
        .flat_map(|l| l.failures.iter().cloned())
        .collect();
    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let mut failed: u64 = logs.iter().map(|l| l.failed).sum();
    findings.extend(check_cached(&logs));

    let candidates = logs[0].audit.clone();
    let mut audit = audit(&mut conn, cfg.seed, cfg.quick, candidates)?;
    failed += audit.rejected;
    findings.append(&mut audit.findings);
    drop(conn);
    drop(server);
    if !cfg.quick {
        // 80 MB per cold store; the traced replay builds its own.
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    let samples: Vec<Sample> = logs
        .iter()
        .flat_map(|l| l.queries.iter().copied())
        .collect();
    if samples.is_empty() {
        return Err(format!(
            "{}: no query was answered; first failures: {findings:?}",
            w.name
        ));
    }
    let mut latency: Vec<f64> = samples.iter().map(|q| q.latency_ms).collect();
    latency.sort_by(f64::total_cmp);
    let service: Vec<f64> = samples.iter().map(|q| q.service_ms).collect();
    let overhead: Vec<f64> = samples
        .iter()
        .map(|q| q.latency_ms - q.service_ms)
        .collect();
    let reloads: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.reload_ms.iter().copied())
        .collect();
    let correct_ops = latency.len() + reloads.len();
    let bytes: u64 = logs.iter().map(|l| l.bytes).sum();

    let end_to_end = vec![
        metric("setup_s", median(&setup_s)),
        metric("query_p50_ms", percentile_sorted(&latency, 0.5)),
        metric("throughput_qps", correct_ops as f64 / window_s),
        metric("peak_rss_mb", peak_rss_mb),
    ];

    let d = Delta {
        before: &before,
        after: &after,
    };
    let queries = d
        .get("urbane_request_latency_ms_count{path=\"/query\"}")
        .max(1.0);
    let lookups = d.get("urbane_cache_hits_total") + d.get("urbane_cache_misses_total");
    let guarded = d.sum_where("urbane_guard_path_total", "path=");
    let degraded = d.get("urbane_guard_path_total{path=\"degraded_bounded\"}")
        + d.get("urbane_guard_path_total{path=\"preview_sample\"}");
    let batches = d.get("urbane_batch_size_count");
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let scraped = vec![
        metric("serve.overhead_p50_ms", median(&overhead)),
        metric(
            "serve.handler_mean_ms",
            d.get("urbane_request_latency_ms_sum{path=\"/query\"}") / queries,
        ),
        metric("serve.healthz_p50_us", healthz_us),
        metric("serve.shed_total", d.get("urbane_shed_total")),
        metric(
            "serve.response_bytes_mean",
            bytes as f64 / latency.len() as f64,
        ),
        metric("serve.query_p90_ms", percentile_sorted(&latency, 0.9)),
        metric("serve.query_p99_ms", percentile_sorted(&latency, 0.99)),
        metric("urbane.service_p50_ms", median(&service)),
        metric(
            "urbane.cache.hit_share",
            share(d.get("urbane_cache_hits_total"), lookups),
        ),
        metric("urbane.cache.entries", after.get("urbane_cache_entries")),
        metric(
            "urbane.single_flight.followers",
            d.get("urbane_single_flight_followers_total"),
        ),
        metric(
            "urbane.reload_p50_ms",
            if reloads.is_empty() {
                0.0
            } else {
                median(&reloads)
            },
        ),
        metric(
            "urbane.batch.mean_size",
            share(d.get("urbane_batch_size_sum"), batches),
        ),
        metric(
            "urbane.batch.window_wait_ms",
            d.get("urbane_batch_window_wait_ms_total"),
        ),
        metric(
            "urbane.blockcache.hit_blocks",
            d.get("urbane_blockcache_hits_total"),
        ),
        metric(
            "urbane.blockcache.residual_blocks",
            d.get("urbane_blockcache_residual_blocks_total"),
        ),
        metric(
            "urbane.blockcache.bytes",
            after.get("urbane_blockcache_bytes"),
        ),
        metric("urbane.guard.degraded_share", share(degraded, guarded)),
        metric(
            "store.chunks_read_per_query",
            d.get("urbane_store_chunks_read_total") / queries,
        ),
        metric(
            "store.bytes_read_per_query",
            d.get("urbane_store_bytes_read_total") / queries,
        ),
        metric("store.page_ins", d.get("urbane_store_page_ins_total")),
    ];

    let mut run = WorkloadRun {
        workload: w,
        attempted,
        failed,
        samples: latency.len(),
        window_s,
        reloads: reloads.len(),
        audit,
        end_to_end,
        scraped,
        findings,
        sent: interleave(logs.into_iter().map(|l| l.sent).collect()),
    };
    if failed > 0 {
        run.findings
            .insert(0, format!("{failed} of {attempted} ops failed"));
    }
    let validation = validate(&run, store_bytes, cfg.quick);
    run.findings.extend(validation);
    Ok(run)
}

/// A measured value under its listed name and unit.
fn metric(name: &str, value: f64) -> Metric {
    let &(name, unit) = END_TO_END
        .iter()
        .chain(&SCRAPED)
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("{name} is not a listed metric"));
    Metric { name, unit, value }
}

fn interleave(per_client: Vec<Vec<String>>) -> Vec<String> {
    let longest = per_client.iter().map(Vec::len).max().unwrap_or(0);
    let mut iters: Vec<_> = per_client.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::new();
    for _ in 0..longest {
        out.extend(iters.iter_mut().filter_map(Iterator::next));
    }
    out
}

/// Chunks of the default 65 536 rows in a store of `rows` rows.
fn store_chunks(rows: usize) -> f64 {
    rows.div_ceil(65_536) as f64
}

/// Self-validation: each workload must still exercise the mechanism it was
/// chosen for, and none may shed or degrade. A workload that drifts off its
/// mechanism fails here instead of quietly measuring something else.
fn validate(run: &WorkloadRun, store_bytes: u64, quick: bool) -> Vec<String> {
    let get = |name: &str| {
        run.scraped
            .iter()
            .chain(&run.end_to_end)
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
    };
    let mut findings = Vec::new();
    let mut demand = |ok: bool, what: String| {
        if !ok {
            findings.push(format!("self-validation: {what}"));
        }
    };
    demand(
        get("serve.shed_total") == 0.0,
        format!("{} requests were shed", get("serve.shed_total")),
    );
    demand(
        get("urbane.guard.degraded_share") == 0.0,
        format!(
            "{} of the answers were degraded",
            get("urbane.guard.degraded_share")
        ),
    );
    let hit_share = get("urbane.cache.hit_share");
    match run.workload.kind {
        Kind::PanZoom => demand(
            hit_share < 0.02,
            format!("cache hit share {hit_share} is not below 0.02"),
        ),
        Kind::FilterBrush => demand(
            run.sent.iter().all(|b| !b.contains("\"bbox\"")),
            "a request carries a bbox".to_string(),
        ),
        // At smoke scale the window is too short to reach the first reload
        // or to amortise the 48 first misses.
        Kind::Dashboard if !quick => {
            demand(
                hit_share > 0.90,
                format!("cache hit share {hit_share} is not above 0.90"),
            );
            demand(run.reloads >= 1, "no reload was served".to_string());
        }
        Kind::ColdIndex => {
            let rows = run.workload.store_rows.expect("cold_index has a store");
            let chunks = get("store.chunks_read_per_query");
            // A smoke-scale store is a single chunk: nothing to prune.
            demand(
                chunks > 0.0 && (quick || chunks < store_chunks(rows)),
                format!(
                    "{chunks} chunks read per query: footer pruning never fired on {} chunks",
                    store_chunks(rows)
                ),
            );
            demand(
                get("store.page_ins") == 0.0,
                format!(
                    "{} page-ins: the store did not stay cold",
                    get("store.page_ins")
                ),
            );
            let table_mb = store_bytes as f64 / (1024.0 * 1024.0);
            demand(
                quick || get("peak_rss_mb") < table_mb,
                format!(
                    "peak RSS {} MB is not below the {table_mb:.1} MB table",
                    get("peak_rss_mb")
                ),
            );
        }
        _ => {}
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The live smoke: every workload at a twentieth of the run against a
    /// real `urbane-serve` at `--rows 1000`, audit and self-validation on.
    /// Needs the release binaries, so it runs when `URBANE_BIN_DIR` says
    /// where they are (`benchmark/run.sh selftest` builds them and does).
    #[test]
    fn every_workload_passes_at_smoke_scale_against_a_live_server() {
        let Some(dir) = std::env::var_os("URBANE_BIN_DIR") else {
            eprintln!("skipped: URBANE_BIN_DIR is not set; run benchmark/run.sh selftest");
            return;
        };
        let out_dir =
            std::env::temp_dir().join(format!("urbane-loadgen-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&out_dir).unwrap();
        let cfg = RunConfig {
            bins: Binaries::in_dir(std::path::Path::new(&dir)).unwrap(),
            out_dir: out_dir.clone(),
            seed: 7,
            seconds: 0.5,
            quick: true,
            server_args: Vec::new(),
            server_cpus: None,
        };
        for w in crate::workloads::WORKLOADS {
            let run = run_workload(&cfg, w).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(run.findings.is_empty(), "{}: {:?}", w.name, run.findings);
            assert!(run.attempted > 0 && run.failed == 0, "{}", w.name);
            assert!(run.audit.audited > 0, "{}: nothing was audited", w.name);
            assert!(
                run.end_to_end.iter().all(|m| m.value > 0.0),
                "{}: a metric is 0",
                w.name
            );
        }
        std::fs::remove_dir_all(&out_dir).unwrap();
    }

    #[test]
    fn interleave_alternates_clients() {
        let out = interleave(vec![
            vec!["a0".into(), "a1".into(), "a2".into()],
            vec!["b0".into()],
        ]);
        assert_eq!(out, ["a0", "b0", "a1", "a2"]);
    }

    #[test]
    fn cached_answers_must_repeat_the_computed_one() {
        let log = |generation: u64, prints: Prints| {
            let mut l = ClientLog::default();
            l.answers
                .insert("q".into(), HashMap::from([(generation, prints)]));
            l
        };
        let computed = Prints {
            computed: Some(11),
            ..Default::default()
        };
        let cached = |print| Prints {
            cached: Some(print),
            ..Default::default()
        };
        // Computed by one client, served from the cache to the other.
        assert!(check_cached(&[log(0, computed), log(0, cached(11))]).is_empty());
        assert_eq!(
            check_cached(&[log(0, computed), log(0, cached(12))]).len(),
            1
        );
        // Another generation is another answer.
        assert!(check_cached(&[log(0, computed), log(1, cached(12))]).is_empty());
        // Two cached answers of one client that differ from each other.
        let torn = Prints {
            cached: Some(11),
            cached_differs: true,
            ..Default::default()
        };
        assert_eq!(check_cached(&[log(0, torn)]).len(), 1);
    }

    #[test]
    fn answers_off_contract_are_rejected() {
        let body = |n: usize, path: &str| {
            let regions: Vec<String> = (0..n)
                .map(|i| format!("{{\"id\":{i},\"name\":\"r\",\"value\":1}}"))
                .collect();
            format!(
                "{{\"cached\":false,\"generation\":0,\"total_count\":5,\"regions\":[{}],\"guard\":{{\"path\":\"{path}\",\"degraded\":{},\"elapsed_ms\":1.0}}}}",
                regions.join(","),
                path != "full"
            )
        };
        assert!(check_answer(200, &body(5, "full"), 0).is_ok());
        assert!(check_answer(200, &body(5, "full"), 1).is_err());
        assert!(check_answer(200, &body(16, "degraded_bounded"), 1).is_err());
        assert!(check_answer(429, &body(5, "full"), 0).is_err());
        assert!(check_answer(200, "{", 0).is_err());
    }
}
