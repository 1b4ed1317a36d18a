//! Chaos-driven swarm harness for the sharded front — the `--exp swarm`
//! mode of the `repro` binary and the generator of `BENCH_swarm.json`.
//!
//! A closed loop of client threads issues a zipfian query mix (a few hot
//! views, a long tail) against a [`ShardSupervisor`] while a chaos driver
//! follows a seeded [`ChaosPlan`]: per-call connection refusals, response
//! truncation, injected delay, and scheduled shard crashes (wedges — the
//! listener dies but stays routed until the health loop notices, which is
//! the window that walks the circuit breaker open). Clients churn their
//! connections, a subset runs deliberately slow, and a burst storm of
//! short-lived clients lands mid-run.
//!
//! Every full-fidelity answer is audited against a serial oracle computed
//! over identical synthetic tables before the swarm starts: a 200 whose
//! guard path is `full` must be bit-identical (total count and per-region
//! aggregates); anything else must say so in its guard (`shard_degraded`,
//! `preview_sample`, ...). The harness scores availability as the share
//! of responses that are 2xx or an honest 429 — under chaos the front may
//! shed or degrade, but it must never be *wrong* and never 5xx.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use urbane::catalog::DataCatalog;
use urbane::service::{ServiceConfig, UrbaneService};
use urbane::ResolutionPyramid;
use urbane_geom::geojson::{parse_json, Json};
use urbane_serve::router::synthetic_table;
use urbane_serve::supervisor::{DatasetSpec, ShardSupervisor, SupervisorConfig};
use urbane_serve::{Client, RetryPolicy, ServerConfig};
use urban_data::gen::city::CityModel;
use urban_data::time::DAY;
use raster_join::{ChaosPlan, RasterJoinConfig};

/// Knobs for the swarm suite (settable from the `repro` CLI).
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// Rows per dataset (taxi, 311, crime each get this many).
    pub rows: usize,
    /// Worker shards behind the front.
    pub shards: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Requests per client.
    pub requests: usize,
    /// Distinct query bodies in the zipfian pool.
    pub distinct_queries: usize,
    /// Seed for the chaos plan and the zipfian draws.
    pub seed: u64,
    /// Scheduled shard crashes over the run.
    pub kills: usize,
    /// Extra short-lived clients in the mid-run burst storm.
    pub burst_clients: usize,
    /// Requests each burst client fires.
    pub burst_requests: usize,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            rows: 30_000,
            shards: 3,
            clients: 6,
            requests: 200,
            distinct_queries: 12,
            seed: 0xC4A05,
            kills: 2,
            burst_clients: 6,
            burst_requests: 15,
        }
    }
}

/// Outcome counters over every response the swarm received.
#[derive(Debug, Clone, Default)]
pub struct SwarmTotals {
    /// Responses received (any status).
    pub responses: usize,
    /// 200s with a full-fidelity guard, each audited against the oracle.
    pub full: usize,
    /// 200s that declared degradation (`shard_degraded`, `preview_sample`, ...).
    pub degraded: usize,
    /// 429 sheds (front queue or degraded fallback exhaustion).
    pub shed: usize,
    /// 5xx responses — must be zero.
    pub server_errors: usize,
    /// Other statuses (4xx client errors) — must be zero for this workload.
    pub other_errors: usize,
    /// Full answers that did NOT match the oracle — must be zero.
    pub wrong: usize,
    /// Transport failures (refused/reset mid-exchange); the client
    /// reconnects and continues. Not a response, not in `responses`.
    pub conn_errors: usize,
}

/// The full suite result.
#[derive(Debug, Clone)]
pub struct SwarmReport {
    /// Config the suite ran with.
    pub config: SwarmConfig,
    /// Response outcome counters.
    pub totals: SwarmTotals,
    /// Share of responses that were 2xx or 429.
    pub availability: f64,
    /// Median latency over successful (2xx) responses, milliseconds.
    pub p50_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Shard-layer counters: (retries, hedges, hedge wins, restarts,
    /// degraded answers) summed over the run.
    pub shard: (u64, u64, u64, u64, u64),
    /// Breaker transitions summed over shards: (to open, to half-open,
    /// to closed).
    pub breaker: (u64, u64, u64),
    /// Shard crashes the chaos schedule actually fired.
    pub kills_fired: usize,
    /// Network-level chaos injections: (calls seen, refused, truncated,
    /// delayed).
    pub chaos: (u64, u64, u64, u64),
    /// First oracle mismatch, if any (diagnostic for `wrong > 0`).
    pub first_mismatch: Option<String>,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// splitmix64 — the workspace's standard cheap bit mixer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const DATASETS: [(&str, u64); 3] = [("taxi", 11), ("311", 12), ("crime", 13)];

/// The query pool: levels and day windows cycled over the three datasets.
fn query_bodies(distinct: usize) -> Vec<String> {
    (0..distinct.max(1))
        .map(|i| {
            let (dataset, _) = DATASETS[i % DATASETS.len()];
            let level = 1 + (i / DATASETS.len()) % 2;
            let start = (i as i64 / 2) * DAY;
            format!(
                "{{\"dataset\":\"{dataset}\",\"level\":{level},\"filters\":[{{\"type\":\"time\",\"start\":{start},\"end\":{}}}]}}",
                start + 2 * DAY
            )
        })
        .collect()
}

/// Zipf(s≈1.1) sampler over `n` ranks: precomputed cumulative weights,
/// drawn by binary search on a mixed counter.
struct Zipf {
    cumulative: Vec<f64>,
    seed: u64,
}

impl Zipf {
    fn new(n: usize, seed: u64) -> Self {
        let mut cumulative = Vec::with_capacity(n.max(1));
        let mut total = 0.0;
        for rank in 0..n.max(1) {
            total += 1.0 / ((rank + 1) as f64).powf(1.1);
            cumulative.push(total);
        }
        Zipf { cumulative, seed }
    }

    fn draw(&self, n: u64) -> usize {
        let total = self.cumulative.last().copied().unwrap_or(1.0);
        let u = (mix64(self.seed ^ n) % (1 << 24)) as f64 / (1u64 << 24) as f64 * total;
        self.cumulative.partition_point(|&c| c < u).min(self.cumulative.len() - 1)
    }
}

/// One query body's oracle answer: generation, total count, and the
/// rendered per-region aggregate list.
#[derive(Debug, Clone)]
struct OracleAnswer {
    generation: f64,
    total_count: f64,
    regions: String,
}

/// Serve the whole pool once through a serial [`UrbaneService`] over
/// identical tables and record every full-fidelity answer.
fn build_oracle(cfg: &SwarmConfig, bodies: &[String]) -> BTreeMap<String, OracleAnswer> {
    let city = CityModel::nyc_like();
    let mut catalog = DataCatalog::new();
    for (name, seed) in DATASETS {
        catalog.register(name, synthetic_table(name, cfg.rows, seed).expect("generator"));
    }
    let pyramid = ResolutionPyramid::standard(&city.bbox(), 16, 8, 5);
    let service = UrbaneService::new(
        ServiceConfig {
            join: RasterJoinConfig::with_resolution(256),
            default_deadline: Duration::from_secs(60),
            ..Default::default()
        },
        catalog,
        pyramid,
    )
    .expect("oracle service boots");
    let mut oracle = BTreeMap::new();
    for body in bodies {
        let parsed = urbane_serve::wire::parse_query(body).expect("pool bodies parse");
        let answer = service.query(&parsed).expect("oracle answers");
        let json_text = urbane_serve::wire::answer_to_json(&parsed, &answer).to_string();
        let json = parse_json(&json_text).expect("oracle answer is JSON");
        oracle.insert(
            body.clone(),
            OracleAnswer {
                generation: json.get("generation").and_then(Json::as_f64).unwrap_or(-1.0),
                total_count: json.get("total_count").and_then(Json::as_f64).unwrap_or(-1.0),
                regions: json.get("regions").map(|r| format!("{r}")).unwrap_or_default(),
            },
        );
    }
    oracle
}

/// Shared audit state the client threads fold their observations into.
#[derive(Default)]
struct Audit {
    totals: SwarmTotals,
    latencies_ms: Vec<f64>,
    first_mismatch: Option<String>,
}

/// Classify and audit one response.
fn observe(
    audit: &Mutex<Audit>,
    oracle: &BTreeMap<String, OracleAnswer>,
    body: &str,
    status: u16,
    resp_body: &str,
    latency_ms: f64,
) {
    let mut a = audit.lock().unwrap_or_else(|p| p.into_inner());
    a.totals.responses += 1;
    match status {
        200 => {
            a.latencies_ms.push(latency_ms);
            let json = match parse_json(resp_body) {
                Ok(j) => j,
                Err(e) => {
                    a.totals.wrong += 1;
                    if a.first_mismatch.is_none() {
                        a.first_mismatch = Some(format!("unparseable 200 body ({e}): {resp_body}"));
                    }
                    return;
                }
            };
            let path = json
                .get("guard")
                .and_then(|g| g.get("path"))
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            if path != "full" {
                // Explicitly degraded (shard_degraded, preview_sample,
                // coarse, ...): exempt from bit-identity by contract.
                a.totals.degraded += 1;
                return;
            }
            a.totals.full += 1;
            let Some(expected) = oracle.get(body) else {
                a.totals.wrong += 1;
                if a.first_mismatch.is_none() {
                    a.first_mismatch = Some(format!("answer for body outside the pool: {body}"));
                }
                return;
            };
            let generation = json.get("generation").and_then(Json::as_f64).unwrap_or(-2.0);
            let total = json.get("total_count").and_then(Json::as_f64).unwrap_or(-2.0);
            let regions = json.get("regions").map(|r| format!("{r}")).unwrap_or_default();
            if generation != expected.generation
                || total != expected.total_count
                || regions != expected.regions
            {
                a.totals.wrong += 1;
                if a.first_mismatch.is_none() {
                    a.first_mismatch = Some(format!(
                        "oracle mismatch for {body}: got gen {generation} total {total}, \
                         want gen {} total {}",
                        expected.generation, expected.total_count
                    ));
                }
            }
        }
        429 => a.totals.shed += 1,
        s if s >= 500 => a.totals.server_errors += 1,
        _ => a.totals.other_errors += 1,
    }
}

/// One closed-loop client: zipfian draws, connection churn every 40
/// requests, `slow` clients pause between requests.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    addr: SocketAddr,
    bodies: &[String],
    zipf: &Zipf,
    audit: &Mutex<Audit>,
    oracle: &BTreeMap<String, OracleAnswer>,
    client_id: u64,
    requests: usize,
    slow: bool,
) {
    let mut client: Option<Client> = None;
    for i in 0..requests {
        if slow {
            std::thread::sleep(Duration::from_millis(2));
        }
        if client.is_none() || i % 40 == 39 {
            client = Client::connect(addr, Duration::from_secs(10)).ok();
        }
        let Some(c) = client.as_mut() else {
            let mut a = audit.lock().unwrap_or_else(|p| p.into_inner());
            a.totals.conn_errors += 1;
            drop(a);
            std::thread::sleep(Duration::from_millis(5));
            client = None;
            continue;
        };
        let body = &bodies[zipf.draw(client_id.wrapping_mul(1_000_003) ^ i as u64)];
        let t0 = Instant::now();
        match c.post("/query", body) {
            Ok(resp) => observe(
                audit,
                oracle,
                body,
                resp.status,
                &resp.body,
                t0.elapsed().as_secs_f64() * 1e3,
            ),
            Err(_) => {
                let mut a = audit.lock().unwrap_or_else(|p| p.into_inner());
                a.totals.conn_errors += 1;
                drop(a);
                client = None;
            }
        }
    }
}

/// Run the swarm: oracle, supervisor under chaos, clients + burst storm,
/// then fold every counter into the report.
pub fn run(cfg: &SwarmConfig) -> SwarmReport {
    let bodies = Arc::new(query_bodies(cfg.distinct_queries));
    let oracle = Arc::new(build_oracle(cfg, &bodies));

    // Chaos: mild always-on network faults plus scheduled shard crashes
    // spread over the expected call volume.
    let expected_calls =
        (cfg.clients * cfg.requests + cfg.burst_clients * cfg.burst_requests) as u64;
    let mut chaos = ChaosPlan::seeded(cfg.seed)
        .refuse(20)
        .truncate(10)
        .delay(40, 15, 35);
    for k in 0..cfg.kills {
        let at = expected_calls * (k as u64 + 1) / (cfg.kills as u64 + 1);
        chaos = chaos.kill(at, k % cfg.shards.max(1));
    }

    let datasets = DATASETS
        .iter()
        .map(|&(name, seed)| DatasetSpec { name: name.into(), rows: cfg.rows, seed })
        .collect();
    let supervisor = ShardSupervisor::start(SupervisorConfig {
        shards: cfg.shards,
        datasets,
        front: ServerConfig {
            workers: cfg.clients.max(4),
            queue_capacity: cfg.clients.max(4) * 2,
            ..Default::default()
        },
        policy: RetryPolicy {
            hedge_after: Some(Duration::from_millis(20)),
            seed: cfg.seed ^ 0xFEED,
            ..Default::default()
        },
        chaos: Some(chaos.clone()),
        default_deadline: Duration::from_secs(5),
        resolution: 256,
        ..Default::default()
    })
    .expect("supervisor boots");
    let addr = supervisor.addr();

    let audit = Arc::new(Mutex::new(Audit::default()));
    let stop_chaos = Arc::new(AtomicBool::new(false));

    // Chaos driver: polls the kill schedule and wedges the victim — the
    // listener dies but stays routed until the health loop revives it.
    let kills_fired = {
        let supervisor_kills: Vec<usize> = Vec::new();
        let _ = supervisor_kills;
        let chaos = chaos.clone();
        let stop = Arc::clone(&stop_chaos);
        let supervisor = &supervisor;
        std::thread::scope(|scope| {
            let driver = scope.spawn(move || {
                let mut fired = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    while let Some(kill) = chaos.kill_due() {
                        if supervisor.wedge_shard(kill.shard, Duration::from_millis(300)) {
                            fired += 1;
                        }
                    }
                    if chaos.kills_pending() == 0 {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                fired
            });

            let mut handles = Vec::new();
            for c in 0..cfg.clients {
                let bodies = Arc::clone(&bodies);
                let oracle = Arc::clone(&oracle);
                let audit = Arc::clone(&audit);
                let zipf = Zipf::new(bodies.len(), cfg.seed ^ 0xA11CE);
                let requests = cfg.requests;
                handles.push(scope.spawn(move || {
                    client_loop(
                        addr,
                        &bodies,
                        &zipf,
                        &audit,
                        &oracle,
                        c as u64,
                        requests,
                        c % 3 == 2,
                    )
                }));
            }

            // Burst storm at roughly mid-run: short-lived clients arriving
            // at once.
            let storm: Vec<_> = (0..cfg.burst_clients)
                .map(|b| {
                    let bodies = Arc::clone(&bodies);
                    let oracle = Arc::clone(&oracle);
                    let audit = Arc::clone(&audit);
                    let zipf = Zipf::new(bodies.len(), cfg.seed ^ 0xB0057);
                    let requests = cfg.burst_requests;
                    scope.spawn(move || {
                        std::thread::sleep(Duration::from_millis(400));
                        client_loop(
                            addr,
                            &bodies,
                            &zipf,
                            &audit,
                            &oracle,
                            0x1000 + b as u64,
                            requests,
                            false,
                        )
                    })
                })
                .collect();

            for h in handles {
                let _ = h.join();
            }
            for h in storm {
                let _ = h.join();
            }
            stop_chaos.store(true, Ordering::SeqCst);
            driver.join().unwrap_or(0)
        })
    };

    // Let in-flight restarts land so the report includes the revival.
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if (0..supervisor.shards()).all(|i| supervisor.shard_up(i)) {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    let shard = supervisor.shard_metrics().snapshot();
    let breaker = supervisor.breaker_transitions();
    let chaos_counts = chaos.counts();
    supervisor.shutdown();

    let mut a = Arc::try_unwrap(audit)
        .unwrap_or_else(|arc| {
            Mutex::new(std::mem::take(
                &mut *arc.lock().unwrap_or_else(|p| p.into_inner()),
            ))
        })
        .into_inner()
        .unwrap_or_else(|p| p.into_inner());
    a.latencies_ms
        .sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    let ok = a.totals.responses - a.totals.server_errors - a.totals.other_errors;
    let availability =
        if a.totals.responses > 0 { ok as f64 / a.totals.responses as f64 } else { 0.0 };
    SwarmReport {
        config: cfg.clone(),
        availability,
        p50_ms: percentile(&a.latencies_ms, 0.50),
        p99_ms: percentile(&a.latencies_ms, 0.99),
        shard,
        breaker,
        kills_fired,
        chaos: (
            chaos_counts.calls,
            chaos_counts.refused,
            chaos_counts.truncated,
            chaos_counts.delayed,
        ),
        totals: a.totals,
        first_mismatch: a.first_mismatch,
    }
}

impl SwarmReport {
    /// Acceptance: no wrong answers, no 5xx, availability ≥ 99%.
    pub fn passed(&self) -> bool {
        self.totals.wrong == 0
            && self.totals.server_errors == 0
            && self.totals.other_errors == 0
            && self.availability >= 0.99
    }

    /// Hand-rolled JSON (the workspace deliberately has no serde), written
    /// to `BENCH_swarm.json`.
    pub fn to_json(&self) -> String {
        let t = &self.totals;
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": \"swarm\",\n");
        s.push_str(&format!(
            "  \"command\": \"cargo run --release -p urbane-bench --bin repro -- --exp swarm \
             --scale {} --shards {} --clients {} --requests {} --json BENCH_swarm.json\",\n",
            self.config.rows, self.config.shards, self.config.clients, self.config.requests
        ));
        s.push_str(&format!("  \"rows_per_dataset\": {},\n", self.config.rows));
        s.push_str(&format!("  \"shards\": {},\n", self.config.shards));
        s.push_str(&format!("  \"clients\": {},\n", self.config.clients));
        s.push_str(&format!("  \"requests_per_client\": {},\n", self.config.requests));
        s.push_str(&format!("  \"chaos_seed\": {},\n", self.config.seed));
        s.push_str(&format!("  \"kills_scheduled\": {},\n", self.config.kills));
        s.push_str(&format!("  \"kills_fired\": {},\n", self.kills_fired));
        s.push_str(&format!(
            "  \"totals\": {{\"responses\": {}, \"full\": {}, \"degraded\": {}, \"shed\": {}, \
             \"server_errors\": {}, \"other_errors\": {}, \"wrong\": {}, \"conn_errors\": {}}},\n",
            t.responses, t.full, t.degraded, t.shed, t.server_errors, t.other_errors, t.wrong,
            t.conn_errors
        ));
        s.push_str(&format!("  \"availability\": {:.5},\n", self.availability));
        s.push_str(&format!(
            "  \"shed_rate\": {:.5},\n",
            if t.responses > 0 { t.shed as f64 / t.responses as f64 } else { 0.0 }
        ));
        s.push_str(&format!("  \"p50_ms\": {:.3},\n", self.p50_ms));
        s.push_str(&format!("  \"p99_ms\": {:.3},\n", self.p99_ms));
        let (retries, hedges, hedge_wins, restarts, degraded_answers) = self.shard;
        s.push_str(&format!(
            "  \"shard\": {{\"retries\": {retries}, \"hedges\": {hedges}, \
             \"hedge_wins\": {hedge_wins}, \"restarts\": {restarts}, \
             \"degraded_answers\": {degraded_answers}}},\n"
        ));
        let (opened, half_opened, closed) = self.breaker;
        s.push_str(&format!(
            "  \"breaker_transitions\": {{\"to_open\": {opened}, \"to_half_open\": {half_opened}, \
             \"to_closed\": {closed}}},\n"
        ));
        let (calls, refused, truncated, delayed) = self.chaos;
        s.push_str(&format!(
            "  \"chaos\": {{\"calls\": {calls}, \"refused\": {refused}, \
             \"truncated\": {truncated}, \"delayed\": {delayed}}},\n"
        ));
        s.push_str(&format!("  \"passed\": {}\n", self.passed()));
        s.push_str("}\n");
        s
    }

    /// Human-readable summary for the repro binary's stdout.
    pub fn render(&self) -> String {
        let t = &self.totals;
        let mut table = crate::Table::new(["outcome", "count"]);
        table.row(["full (oracle-checked)".to_string(), format!("{}", t.full)]);
        table.row(["degraded (declared)".to_string(), format!("{}", t.degraded)]);
        table.row(["shed (429)".to_string(), format!("{}", t.shed)]);
        table.row(["server errors (5xx)".to_string(), format!("{}", t.server_errors)]);
        table.row(["wrong answers".to_string(), format!("{}", t.wrong)]);
        table.row(["conn errors (retried)".to_string(), format!("{}", t.conn_errors)]);
        let (retries, hedges, hedge_wins, restarts, degraded_answers) = self.shard;
        let (opened, half_opened, closed) = self.breaker;
        let mut out = table.render();
        out.push_str(&format!(
            "availability: {avail:.3}%   p50 {p50:.2} ms   p99 {p99:.2} ms\n\
             retries {retries}  hedges {hedges} (won {hedge_wins})  restarts {restarts}  \
             degraded {degraded_answers}\n\
             breaker: {opened} opened, {half_opened} half-opened, {closed} re-closed   \
             kills fired: {kills}\n\
             verdict: {verdict}\n",
            avail = self.availability * 100.0,
            p50 = self.p50_ms,
            p99 = self.p99_ms,
            kills = self.kills_fired,
            verdict = if self.passed() { "PASS" } else { "FAIL" },
        ));
        if let Some(m) = &self.first_mismatch {
            out.push_str(&format!("first mismatch: {m}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_order_statistics() {
        let sorted = vec![1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        assert_eq!(percentile(&sorted, 0.99), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn zipf_draws_are_skewed_and_in_range() {
        let z = Zipf::new(8, 42);
        let mut counts = [0usize; 8];
        for n in 0..4000 {
            counts[z.draw(n)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        assert!(counts[0] > counts[7] * 2, "head must dominate tail: {counts:?}");
    }

    #[test]
    fn tiny_swarm_survives_chaos_with_zero_wrong_answers() {
        let report = run(&SwarmConfig {
            rows: 4_000,
            shards: 2,
            clients: 3,
            requests: 40,
            distinct_queries: 6,
            seed: 7,
            kills: 1,
            burst_clients: 2,
            burst_requests: 8,
        });
        assert_eq!(report.totals.wrong, 0, "{:?}", report.first_mismatch);
        assert_eq!(report.totals.server_errors, 0);
        assert_eq!(report.totals.other_errors, 0);
        assert!(report.totals.full > 0, "must see full-fidelity answers");
        assert!(report.kills_fired >= 1, "the scheduled kill must fire");
        assert!(report.availability >= 0.99, "{}", report.render());
        let json = report.to_json();
        assert!(parse_json(&json).is_ok(), "{json}");
    }
}
