//! The shard supervisor: a fault-tolerant sharded front over N in-process
//! worker shards.
//!
//! Each shard is a full [`UrbaneServer`] on its own ephemeral-port
//! listener, holding only the datasets the consistent-hash ring routes to
//! it. The front is itself an [`HttpServer`] whose handler:
//!
//! 1. validates the query and routes its dataset through the
//!    [`ShardRing`](crate::shard::ShardRing);
//! 2. consults the shard's [`CircuitBreaker`] — an open circuit (or a
//!    down shard) short-circuits straight to the degraded path;
//! 3. forwards the call through the retrying, hedging
//!    [`ShardClient`](crate::shard::ShardClient) with the *remaining*
//!    deadline propagated as `deadline_ms`;
//! 4. on success, remembers full-fidelity answers in a front-side
//!    last-good cache keyed by (dataset, shard generation, body);
//! 5. on failure, serves `shard_degraded`: the cached last-good answer if
//!    one survives, else a front-local preview computed over a small
//!    resampled table — never a 500.
//!
//! A health loop probes every shard each `health_interval`, tears down
//! wedged ones, and restarts dead ones with exponential backoff. A restart
//! bumps the shard's generation, which both re-keys and purges the front
//! cache for its datasets (a restarted shard regenerates from spec, so
//! entries cached against the old instance are dropped eagerly).
//!
//! Shard lifecycle: `Up → Suspect (probe failures) → Down (backoff) → Up`,
//! with the breaker walking closed → open → half-open independently — a
//! shard can be up but open-circuit (wedged, slow, or chaos-refused).

use crate::http::{Request, Response};
use crate::metrics::{Metrics, Route};
use crate::router::{self, synthetic_table};
use crate::shard::{
    Admission, BreakerConfig, CircuitBreaker, RetryPolicy, ShardCall, ShardClient, ShardMetrics,
    ShardRing,
};
use crate::wire;
use crate::{Handler, HttpServer, ServerConfig, UrbaneServer};
use raster_join::{ChaosPlan, RasterJoinConfig};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use urbane::cache::{CacheKey, QueryCache};
use urbane::catalog::DataCatalog;
use urbane::service::{ServiceConfig, UrbaneService};
use urbane::ResolutionPyramid;
use urban_data::gen::city::CityModel;

/// One synthetic dataset the front serves: regenerable from (name, rows,
/// seed), which is what makes restarts lossless.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Catalog name (`taxi`, `311`, `crime`).
    pub name: String,
    /// Row count.
    pub rows: usize,
    /// Generator seed.
    pub seed: u64,
}

/// Supervisor configuration.
#[derive(Clone)]
pub struct SupervisorConfig {
    /// Worker shards to spawn.
    pub shards: usize,
    /// Virtual nodes per shard on the ring.
    pub vnodes: usize,
    /// The datasets to serve (each lives on exactly one shard).
    pub datasets: Vec<DatasetSpec>,
    /// Front listener config.
    pub front: ServerConfig,
    /// Per-shard listener config template (`addr` must be port 0).
    pub shard_template: ServerConfig,
    /// Retry/backoff/hedging policy for shard calls.
    pub policy: RetryPolicy,
    /// Circuit-breaker thresholds, per shard.
    pub breaker: BreakerConfig,
    /// Optional seeded network-fault schedule (tests/harness).
    pub chaos: Option<ChaosPlan>,
    /// Health-probe cadence.
    pub health_interval: Duration,
    /// First restart backoff; doubles per consecutive crash.
    pub restart_backoff: Duration,
    /// Restart backoff ceiling.
    pub restart_backoff_cap: Duration,
    /// Deadline applied to queries that do not carry `deadline_ms`.
    pub default_deadline: Duration,
    /// Front last-good cache capacity (entries).
    pub front_cache_capacity: usize,
    /// Rows for the front-local preview tables (resampled, small).
    pub preview_rows: usize,
    /// Raster-join canvas resolution for shards and the preview service.
    pub resolution: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            shards: 2,
            vnodes: 16,
            datasets: Vec::new(),
            front: ServerConfig::default(),
            shard_template: ServerConfig::default(),
            policy: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            chaos: None,
            health_interval: Duration::from_millis(100),
            restart_backoff: Duration::from_millis(100),
            restart_backoff_cap: Duration::from_secs(2),
            default_deadline: Duration::from_secs(2),
            front_cache_capacity: 512,
            preview_rows: 2_000,
            resolution: 256,
        }
    }
}

/// Mutable half of a shard slot, guarded by one mutex.
struct SlotState {
    server: Option<UrbaneServer>,
    addr: Option<SocketAddr>,
    /// Consecutive failed health probes (2 declare a wedge).
    probe_failures: u32,
    /// Consecutive crashes, drives the restart backoff; reset on a
    /// successful restart.
    crashes: u32,
    /// Earliest instant the next restart may be attempted.
    restart_after: Option<Instant>,
}

/// One worker shard: lifecycle state + breaker + restart generation.
struct Slot {
    state: Mutex<SlotState>,
    breaker: CircuitBreaker,
    /// Bumped on every restart; embedded in front-cache keys so entries
    /// from a previous instance can never be served.
    generation: AtomicU64,
}

impl Slot {
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Shared core behind both the front handler and the health loop.
struct SupervisorCore {
    config: SupervisorConfig,
    ring: ShardRing,
    slots: Vec<Slot>,
    client: ShardClient,
    shard_metrics: Arc<ShardMetrics>,
    front_metrics: Arc<Metrics>,
    /// Last-good full answers: `dataset|s<shard>|g<generation>|<body>`.
    front_cache: QueryCache<String>,
    /// Front-local preview service over small resampled tables.
    preview: UrbaneService,
    /// Front view of per-dataset reload epochs (the `/reload` ledger).
    epochs: Mutex<HashMap<String, u64>>,
    /// Live dataset specs (reloads update rows/seed so restarts rebuild
    /// the *current* table, not the boot-time one).
    specs: Mutex<Vec<DatasetSpec>>,
    stopping: Arc<AtomicBool>,
}

/// Build a service over synthetic tables for `specs`. `standby` datasets
/// keep a shard bootable when the ring assigns it nothing.
fn build_service(
    specs: &[DatasetSpec],
    resolution: u32,
    default_deadline: Duration,
) -> io::Result<UrbaneService> {
    let city = CityModel::nyc_like();
    let mut catalog = DataCatalog::new();
    for spec in specs {
        let table = synthetic_table(&spec.name, spec.rows, spec.seed).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("dataset {:?} has no synthetic generator", spec.name),
            )
        })?;
        catalog.register(spec.name.clone(), table);
    }
    if catalog.is_empty() {
        // A shard that owns no datasets still needs a bootable service; a
        // tiny standby table keeps `/healthz` and restarts uniform.
        if let Some(t) = synthetic_table("taxi", 64, 0) {
            catalog.register("_standby", t);
        }
    }
    let pyramid = ResolutionPyramid::standard(&city.bbox(), 16, 8, 5);
    UrbaneService::new(
        ServiceConfig {
            join: RasterJoinConfig::with_resolution(resolution),
            default_deadline,
            ..Default::default()
        },
        catalog,
        pyramid,
    )
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
}

impl SupervisorCore {
    /// The datasets the ring assigns to shard `i`, per the live specs.
    fn specs_for_shard(&self, i: usize) -> Vec<DatasetSpec> {
        self.specs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .filter(|s| self.ring.shard_for(&s.name) == i)
            .cloned()
            .collect()
    }

    fn boot_shard(&self, i: usize) -> io::Result<UrbaneServer> {
        let specs = self.specs_for_shard(i);
        let service =
            build_service(&specs, self.config.resolution, self.config.default_deadline)?;
        UrbaneServer::start(self.config.shard_template.clone(), Arc::new(service))
    }

    /// Exponential restart backoff for the `crashes`-th consecutive crash.
    fn restart_backoff(&self, crashes: u32) -> Duration {
        let base = self.config.restart_backoff.max(Duration::from_millis(1));
        base.saturating_mul(1u32 << crashes.min(6)).min(self.config.restart_backoff_cap)
    }

    /// One health-loop pass over shard `i`: probe live shards, tear down
    /// wedged ones, restart dead ones whose backoff has elapsed.
    fn tend(&self, i: usize) {
        let Some(slot) = self.slots.get(i) else { return };
        let mut st = slot.lock();
        if st.server.is_some() {
            let healthy = st.addr.is_some_and(probe_health);
            if healthy {
                st.probe_failures = 0;
                return;
            }
            st.probe_failures += 1;
            if st.probe_failures < 2 {
                return;
            }
            // Two failed probes: the shard is wedged or dead. Tear it down
            // and schedule a restart.
            if let Some(server) = st.server.take() {
                server.shutdown();
            }
            st.addr = None;
            st.crashes = st.crashes.saturating_add(1);
            st.restart_after = Some(Instant::now() + self.restart_backoff(st.crashes));
            return;
        }
        let due = st.restart_after.is_none_or(|t| Instant::now() >= t);
        if !due {
            return;
        }
        match self.boot_shard(i) {
            Ok(server) => {
                st.addr = Some(server.addr());
                st.server = Some(server);
                st.probe_failures = 0;
                st.crashes = 0;
                st.restart_after = None;
                slot.generation.fetch_add(1, Ordering::SeqCst);
                slot.breaker.reset();
                self.shard_metrics.observe_restart();
                drop(st);
                // The new instance regenerated its tables from spec: purge
                // anything cached against the dead one (the generation in
                // the key already makes them unreachable; purging frees
                // them now).
                for spec in self.specs_for_shard(i) {
                    self.front_cache.purge(&format!("{}|", spec.name));
                }
            }
            Err(_) => {
                st.crashes = st.crashes.saturating_add(1);
                st.restart_after = Some(Instant::now() + self.restart_backoff(st.crashes));
            }
        }
    }

    /// Serve a degraded answer for `dataset`: cached last-good if present,
    /// else a preview computed front-side. Never a 5xx.
    fn degraded_answer(&self, key: &CacheKey, parsed: &urbane::service::QueryRequest) -> Response {
        self.shard_metrics.observe_degraded();
        if let Some(last_good) = self.front_cache.get(key) {
            if let Some(body) = wire::degrade_answer(&last_good, "front_cache") {
                return Response::json(200, body);
            }
        }
        // Preview: same query against the small front-local tables. Values
        // are approximate (the preview is a resample) — exactly what the
        // `shard_degraded` guard communicates.
        match self.preview.query(parsed) {
            Ok(answer) => {
                let body = wire::answer_to_json(parsed, &answer).to_string();
                match wire::degrade_answer(&body, "preview") {
                    Some(b) => Response::json(200, b),
                    None => Response::json(200, body),
                }
            }
            // Unknown dataset is the client's error even when degraded.
            Err(urbane::UrbaneError::UnknownDataset(d)) => {
                Response::error(404, &format!("unknown dataset {d:?}"))
            }
            Err(e) => {
                // The preview itself failed (malformed query reaching this
                // far is a client error; anything else degrades to an
                // honest empty-handed 503-as-429: ask the client to retry
                // once the shard recovers).
                let _ = e;
                Response::error(429, "shard degraded and no fallback available, please retry")
                    .with_header("Retry-After", "1".into())
            }
        }
    }

    fn query(&self, req: &Request) -> Response {
        let body = String::from_utf8_lossy(&req.body).into_owned();
        let parsed = match wire::parse_query(&body) {
            Ok(p) => p,
            Err(e) => return Response::error(400, &e.0),
        };
        let shard_idx = self.ring.shard_for(&parsed.dataset);
        let Some(slot) = self.slots.get(shard_idx) else {
            return Response::error(400, "no shards configured");
        };
        let generation = slot.generation.load(Ordering::SeqCst);
        let key = CacheKey::new(format!(
            "{}|s{shard_idx}|g{generation}|{body}",
            parsed.dataset
        ));

        let deadline_ms = parsed
            .deadline
            .unwrap_or(self.config.default_deadline)
            .as_millis()
            .min(u128::from(u64::MAX)) as u64;
        let deadline = Instant::now() + Duration::from_millis(deadline_ms);

        let addr = {
            let st = slot.lock();
            st.addr
        };
        let Some(addr) = addr else {
            // Shard down, restart pending: degrade immediately.
            return self.degraded_answer(&key, &parsed);
        };
        let admission = slot.breaker.admit();
        if admission == Admission::Reject {
            return self.degraded_answer(&key, &parsed);
        }
        let probe = admission == Admission::Probe;

        let remaining_ms = deadline
            .saturating_duration_since(Instant::now())
            .as_millis()
            .min(u128::from(u64::MAX)) as u64;
        let forward = match wire::with_deadline(&body, remaining_ms) {
            Ok(f) => f,
            Err(e) => return Response::error(400, &e.0),
        };
        let call = ShardCall {
            path: "/query".into(),
            body: forward,
            deadline,
            idempotent: true,
        };
        match self.client.call(addr, &call) {
            Ok(resp) if resp.status < 500 => {
                slot.breaker.record(true, probe);
                if resp.status == 200
                    && wire::answer_guard_path(&resp.body).as_deref() == Some("full")
                {
                    // lint: bounded-by front cache LRU capacity (front_cache_capacity entries)
                    self.front_cache.insert(key, resp.body.clone());
                }
                Response::json(resp.status, resp.body)
            }
            Ok(_) | Err(_) => {
                slot.breaker.record(false, probe);
                self.degraded_answer(&key, &parsed)
            }
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
        let rows = v.get("rows").and_then(|r| r.as_f64()).unwrap_or(5_000.0) as usize;
        let seed = v.get("seed").and_then(|s| s.as_f64()).unwrap_or(1.0) as u64;
        let known = {
            let mut specs = self.specs.lock().unwrap_or_else(|p| p.into_inner());
            match specs.iter_mut().find(|s| s.name == name) {
                Some(spec) => {
                    spec.rows = rows;
                    spec.seed = seed;
                    true
                }
                None => false,
            }
        };
        if !known {
            return Response::error(
                400,
                &format!("dataset {name:?} is not reloadable (not in the served set)"),
            );
        }
        // Front bookkeeping first: bump the epoch ledger, drop stale
        // last-good entries, refresh the preview table.
        let epoch = {
            let mut epochs = self.epochs.lock().unwrap_or_else(|p| p.into_inner());
            let e = epochs.entry(name.clone()).or_insert(0);
            *e += 1;
            *e
        };
        self.front_cache.purge(&format!("{name}|"));
        if let Some(t) = synthetic_table(&name, rows.min(self.config.preview_rows), seed) {
            self.preview.reload_dataset(&name, t);
        }
        // Forward to the owning shard. If it is unreachable, tearing it
        // down is enough: the restart rebuilds from the *updated* spec.
        let shard_idx = self.ring.shard_for(&name);
        if let Some(slot) = self.slots.get(shard_idx) {
            let addr = slot.lock().addr;
            let applied = addr.is_some_and(|addr| {
                let call = ShardCall {
                    path: "/reload".into(),
                    body: body.to_string(),
                    deadline: Instant::now() + Duration::from_secs(10),
                    idempotent: false,
                };
                matches!(self.client.call(addr, &call), Ok(r) if r.status == 200)
            });
            if !applied {
                let mut st = slot.lock();
                if let Some(server) = st.server.take() {
                    server.shutdown();
                }
                st.addr = None;
                st.restart_after = Some(Instant::now());
            }
        }
        Response::json(
            200,
            format!(
                "{{\"dataset\":{},\"generation\":{epoch},\"rows\":{rows}}}",
                urbane_geom::geojson::Json::String(name)
            ),
        )
    }

    fn datasets_page(&self) -> Response {
        use std::fmt::Write;
        let specs = self.specs.lock().unwrap_or_else(|p| p.into_inner()).clone();
        let epochs = self.epochs.lock().unwrap_or_else(|p| p.into_inner()).clone();
        let mut out = String::from("{\"datasets\":[");
        for (i, s) in specs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"rows\":{},\"generation\":{},\"shard\":{}}}",
                urbane_geom::geojson::Json::String(s.name.clone()),
                s.rows,
                epochs.get(&s.name).copied().unwrap_or(0),
                self.ring.shard_for(&s.name),
            );
        }
        out.push_str("]}");
        Response::json(200, out)
    }

    fn metrics_page(&self, queue_depth: usize) -> Response {
        use std::fmt::Write;
        let mut out = String::with_capacity(4096);
        self.front_metrics.render(&mut out);
        self.shard_metrics.render(&mut out);
        let _ = writeln!(out, "# TYPE urbane_queue_depth gauge");
        let _ = writeln!(out, "urbane_queue_depth {queue_depth}");
        let _ = writeln!(out, "# TYPE urbane_shard_state gauge");
        let _ = writeln!(out, "# TYPE urbane_shard_generation gauge");
        let _ = writeln!(out, "# TYPE urbane_shard_up gauge");
        let _ = writeln!(out, "# TYPE urbane_breaker_transitions_total counter");
        for (i, slot) in self.slots.iter().enumerate() {
            let up = slot.lock().server.is_some();
            let state = slot.breaker.state();
            let (opened, half, closed) = slot.breaker.transitions();
            let _ = writeln!(out, "urbane_shard_state{{shard=\"{i}\"}} {}", state.as_gauge());
            let _ = writeln!(
                out,
                "urbane_shard_generation{{shard=\"{i}\"}} {}",
                slot.generation.load(Ordering::SeqCst)
            );
            let _ = writeln!(out, "urbane_shard_up{{shard=\"{i}\"}} {}", u8::from(up));
            for (to, n) in [("open", opened), ("half_open", half), ("closed", closed)] {
                let _ = writeln!(
                    out,
                    "urbane_breaker_transitions_total{{shard=\"{i}\",to=\"{to}\"}} {n}"
                );
            }
        }
        let cache = self.front_cache.stats();
        let _ = writeln!(out, "# TYPE urbane_front_cache_hits_total counter");
        let _ = writeln!(out, "urbane_front_cache_hits_total {}", cache.hits);
        let _ = writeln!(out, "# TYPE urbane_front_cache_misses_total counter");
        let _ = writeln!(out, "urbane_front_cache_misses_total {}", cache.misses);
        Response::text(200, out)
    }
}

impl Handler for SupervisorCore {
    fn handle(&self, req: &Request, queue_depth: usize) -> Response {
        match router::route_of(&req.method, &req.path) {
            Route::Healthz => {
                let up = self.slots.iter().filter(|s| s.lock().server.is_some()).count();
                if up > 0 {
                    Response::text(200, format!("ok {up}/{} shards\n", self.slots.len()))
                } else {
                    Response::error(503, "no shards available")
                }
            }
            Route::Datasets => self.datasets_page(),
            Route::MetricsPage => self.metrics_page(queue_depth),
            Route::Query => self.query(req),
            Route::Reload => self.reload(req),
            Route::Other => {
                let path = req.path.split('?').next().unwrap_or(&req.path);
                match path {
                    "/query" | "/reload" | "/datasets" | "/healthz" | "/metrics" => Response::error(
                        405,
                        &format!("method {} not allowed on {path}", req.method),
                    ),
                    _ => Response::error(404, &format!("no such path {path:?}")),
                }
            }
        }
    }
}

/// Probe one shard's `/healthz` with a short budget. Any well-formed HTTP
/// reply counts as alive (even a 429: a saturated shard is slow, not dead).
fn probe_health(addr: SocketAddr) -> bool {
    let Ok(mut client) = crate::Client::connect(addr, Duration::from_millis(500)) else {
        return false;
    };
    client.get("/healthz").is_ok()
}

/// The running sharded front: the public handle.
pub struct ShardSupervisor {
    core: Arc<SupervisorCore>,
    front: HttpServer,
    health: Option<JoinHandle<()>>,
}

impl ShardSupervisor {
    /// Boot every shard, the front listener, and the health loop. Fails if
    /// no datasets are configured or any initial shard fails to bind.
    pub fn start(config: SupervisorConfig) -> io::Result<Self> {
        if config.datasets.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "supervisor needs at least one dataset",
            ));
        }
        let ring = ShardRing::new(config.shards, config.vnodes);
        let shard_metrics = Arc::new(ShardMetrics::new());
        let front_metrics = Arc::new(Metrics::new());
        let client = ShardClient::new(
            config.policy,
            config.chaos.clone(),
            Arc::clone(&shard_metrics),
        );
        let preview_specs: Vec<DatasetSpec> = config
            .datasets
            .iter()
            .map(|s| DatasetSpec {
                name: s.name.clone(),
                rows: s.rows.min(config.preview_rows),
                seed: s.seed,
            })
            .collect();
        let preview = build_service(&preview_specs, config.resolution, config.default_deadline)?;
        let slots: Vec<Slot> = (0..config.shards.max(1))
            .map(|_| Slot {
                state: Mutex::new(SlotState {
                    server: None,
                    addr: None,
                    probe_failures: 0,
                    crashes: 0,
                    restart_after: None,
                }),
                breaker: CircuitBreaker::new(config.breaker),
                generation: AtomicU64::new(0),
            })
            .collect();
        let core = Arc::new(SupervisorCore {
            ring,
            slots,
            client,
            shard_metrics,
            front_metrics: Arc::clone(&front_metrics),
            front_cache: QueryCache::new(config.front_cache_capacity.max(1), 4),
            preview,
            epochs: Mutex::new(HashMap::new()),
            specs: Mutex::new(config.datasets.clone()),
            stopping: Arc::new(AtomicBool::new(false)),
            config,
        });

        // Boot every shard before taking traffic.
        for i in 0..core.slots.len() {
            let server = core.boot_shard(i)?;
            if let Some(slot) = core.slots.get(i) {
                let mut st = slot.lock();
                st.addr = Some(server.addr());
                st.server = Some(server);
            }
        }

        let handler: Arc<dyn Handler> = Arc::clone(&core) as Arc<dyn Handler>;
        let front = HttpServer::start(core.config.front.clone(), handler, front_metrics)?;

        let health = {
            let core = Arc::clone(&core);
            std::thread::Builder::new().name("urbane-shard-health".into()).spawn(move || {
                while !core.stopping.load(Ordering::SeqCst) {
                    std::thread::sleep(core.config.health_interval);
                    if core.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    for i in 0..core.slots.len() {
                        core.tend(i);
                    }
                }
            })?
        };

        Ok(ShardSupervisor { core, front, health: Some(health) })
    }

    /// The front's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.core.slots.len()
    }

    /// Shard-layer counters (retries, hedges, restarts, degraded answers).
    pub fn shard_metrics(&self) -> &Arc<ShardMetrics> {
        &self.core.shard_metrics
    }

    /// Summed breaker transitions across shards: (open, half-open, closed).
    pub fn breaker_transitions(&self) -> (u64, u64, u64) {
        self.core.slots.iter().fold((0, 0, 0), |acc, s| {
            let (o, h, c) = s.breaker.transitions();
            (acc.0 + o, acc.1 + h, acc.2 + c)
        })
    }

    /// Is shard `i` currently up (listener live)?
    pub fn shard_up(&self, i: usize) -> bool {
        self.core.slots.get(i).is_some_and(|s| s.lock().server.is_some())
    }

    /// Kill shard `i` (chaos): shuts its listener down hard and leaves the
    /// health loop to restart it after backoff. Returns whether a live
    /// shard was killed.
    pub fn kill_shard(&self, i: usize) -> bool {
        let Some(slot) = self.core.slots.get(i) else { return false };
        let mut st = slot.lock();
        let Some(server) = st.server.take() else { return false };
        st.addr = None;
        st.crashes = st.crashes.saturating_add(1);
        st.restart_after = Some(Instant::now() + self.core.restart_backoff(st.crashes));
        drop(st);
        server.shutdown();
        true
    }

    /// Crash shard `i` *without* telling the router (chaos): the listener
    /// dies but the slot's stale address stays visible for `downtime`, so
    /// in-flight and new calls collect connection refusals — the window
    /// that walks the circuit breaker open. The health loop restarts the
    /// shard once the downtime elapses. Returns whether a live shard was
    /// wedged.
    pub fn wedge_shard(&self, i: usize, downtime: Duration) -> bool {
        let Some(slot) = self.core.slots.get(i) else { return false };
        let mut st = slot.lock();
        let Some(server) = st.server.take() else { return false };
        st.restart_after = Some(Instant::now() + downtime);
        drop(st);
        server.shutdown();
        true
    }

    /// Stop the health loop, the front, and every shard.
    pub fn shutdown(mut self) {
        self.core.stopping.store(true, Ordering::SeqCst);
        if let Some(h) = self.health.take() {
            let _ = h.join();
        }
        self.front.shutdown();
        for slot in &self.core.slots {
            let server = slot.lock().server.take();
            if let Some(server) = server {
                server.shutdown();
            }
        }
    }
}
