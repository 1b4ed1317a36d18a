//! The serving facade: a thread-shared, request-parameterized view of the
//! whole stack, and the one query path in the crate.
//!
//! Every request carries its own complete [`QueryRequest`], many requests
//! run at once, and datasets can be reloaded under live traffic. The HTTP
//! server calls [`UrbaneService`] per request; an
//! [`UrbaneSession`](crate::UrbaneSession) — one analyst's interaction
//! state (active dataset, filters, resolution) — is a client that owns one
//! service and turns each evaluation into one request. There is no second
//! cache, sampler or executor dispatch beside the ones here:
//!
//! * **Shareable** — every method takes `&self`; internal state is guarded
//!   by poison-recovering locks, so `Arc<UrbaneService>` serves any number
//!   of worker threads.
//! * **Generational catalog** — each dataset carries a generation counter,
//!   bumped by [`UrbaneService::reload_dataset`]. Derived state (cached
//!   answers, preview samples) is keyed by generation, so a reload
//!   atomically invalidates everything without stopping traffic. A table is
//!   clustered ([`PointTable::cluster`]) whenever it becomes resident —
//!   catalog registration, reload, cold page-in — and the executors prune
//!   on that row order; there is no separate spatial index to keep.
//! * **Query-result cache** — a sharded LRU ([`crate::cache::QueryCache`])
//!   keyed by a canonical string of (dataset, generation, level, mode,
//!   resolution, aggregate, filters). A key is admitted on its second full
//!   miss, so its third request is the first that can hit. Only
//!   full-fidelity answers are cached: a degraded answer served under
//!   pressure must not mask the real one once pressure subsides.
//! * **One kept point pass** — the full rung keeps its last drawn
//!   [`PointPass`] in one slot, keyed on what the pass reads (dataset,
//!   generation, aggregate, canonical filters; the tile viewports are
//!   checked by [`PointPass::covers`]). Every pyramid level plans the same
//!   canvas, so a drill through the levels under one brush draws the points
//!   once and each later level only resolves them against its own regions.
//! * **Guarded by construction** — every query runs the degradation ladder
//!   ([`crate::guard`]; this is its only caller) under the request's
//!   deadline, so an overloaded server degrades fidelity instead of
//!   queueing unboundedly.

use crate::cache::{lock, CacheKey, CacheStats, Flight, QueryCache, SingleFlight};
use crate::catalog::{ColdStore, DataCatalog, TableState};
use crate::guard::{run_ladder, GuardPath, GuardReport, DEGRADED_RESOLUTION, PREVIEW_ROWS};
use crate::resolution::ResolutionPyramid;
use crate::{Result, UrbaneError};
use raster_join::{
    CancelHandle, CanvasSpec, ExecutionMode, PassSource, PointPass, PreparedRasterJoin,
    QueryBudget, RasterJoin, RasterJoinConfig, RasterJoinResult, ZoneStats,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};
use urban_data::filter::Filter;
use urban_data::query::{AggKind, AggTable, SpatialAggQuery};
use urban_data::{PointTable, RegionSet};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Base raster-join configuration. The service reads three fields:
    /// `spec`, the canvas (a resolution or an ε) a request without
    /// `resolution` runs at; `max_tile`, the tiling; and `faults`, the
    /// injected fault plan. It does not consult `mode`: each request
    /// names its own. Resident tables are clustered at registration, so on a
    /// multi-tile plan each tile steps over the zones that miss it.
    pub join: RasterJoinConfig,
    /// Total query-result cache entries across shards (0 disables caching).
    pub cache_capacity: usize,
    /// Cache shard count (clamped to ≥ 1).
    pub cache_shards: usize,
    /// Deadline applied when a request does not carry one.
    pub default_deadline: Duration,
    /// Upper bound on per-request canvas resolutions — a guardrail against
    /// a client requesting a 1e9² canvas.
    pub max_resolution: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            join: RasterJoinConfig::default(),
            cache_capacity: 1024,
            cache_shards: 8,
            default_deadline: Duration::from_secs(2),
            max_resolution: 4096,
        }
    }
}

/// One complete, self-contained query — everything a session keeps as
/// interaction state, spelled out per request.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Dataset name in the catalog.
    pub dataset: String,
    /// Resolution-pyramid level index.
    pub level: usize,
    /// The aggregate.
    pub agg: AggKind,
    /// Conjunctive filters.
    pub filters: Vec<Filter>,
    /// Execution mode (bounded / weighted / accurate).
    pub mode: ExecutionMode,
    /// Canvas resolution; `None` uses the service's base spec.
    pub resolution: Option<u32>,
    /// Wall-clock deadline; `None` uses the service default.
    pub deadline: Option<Duration>,
}

impl QueryRequest {
    /// A bounded COUNT over the whole dataset at pyramid level `level` —
    /// the simplest useful request; builder methods refine it.
    pub fn count(dataset: impl Into<String>, level: usize) -> Self {
        QueryRequest {
            dataset: dataset.into(),
            level,
            agg: AggKind::Count,
            filters: Vec::new(),
            mode: ExecutionMode::Bounded,
            resolution: None,
            deadline: None,
        }
    }

    /// Replace the aggregate.
    pub fn agg(mut self, agg: AggKind) -> Self {
        self.agg = agg;
        self
    }

    /// Add a filter.
    pub fn filter(mut self, f: Filter) -> Self {
        // lint: bounded-by the caller's filter list (request builder, not retained server state)
        self.filters.push(f);
        self
    }

    /// Set the execution mode.
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set an explicit canvas resolution.
    pub fn resolution(mut self, r: u32) -> Self {
        self.resolution = Some(r);
        self
    }

    /// Set a wall-clock deadline.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// The `SpatialAggQuery` this request describes.
    pub fn to_query(&self) -> SpatialAggQuery {
        let mut q = SpatialAggQuery::new(self.agg.clone());
        for f in &self.filters {
            q = q.filter(f.clone());
        }
        q
    }
}

/// A served answer: the table, how it was produced, and cache provenance.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// Per-region aggregates.
    pub table: Arc<AggTable>,
    /// The region set the table indexes into (for naming regions on the
    /// wire).
    pub regions: Arc<RegionSet>,
    /// How the answer was produced (ladder rung, retries, timing, ε).
    pub report: GuardReport,
    /// Served from the query-result cache?
    pub cached: bool,
    /// Generation of the dataset that answered.
    pub generation: u64,
}

/// Catalog entry metadata, as reported by `GET /datasets`.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetInfo {
    /// Registered name.
    pub name: String,
    /// Row count.
    pub rows: usize,
    /// Reload generation (0 = as first registered).
    pub generation: u64,
}

/// Degradation-ladder outcome counters (for `/metrics`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardOutcomes {
    /// Answers served at full fidelity (fresh).
    pub full: u64,
    /// Answers from the coarser bounded rung.
    pub degraded_bounded: u64,
    /// Answers from the sample-preview rung.
    pub preview_sample: u64,
    /// Answers served from the query-result cache.
    pub cached: u64,
}

struct DatasetEntry {
    state: TableState,
    generation: u64,
}

/// `.ubs` paging / streaming counters (for `/metrics`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorePaging {
    /// Cold datasets fully materialized since boot.
    pub page_ins: u64,
    /// Chunks read from `.ubs` files (page-ins and streamed queries).
    pub chunks_read: u64,
    /// Payload bytes read from `.ubs` files.
    pub bytes_read: u64,
    /// Queries answered by streaming chunks, never materializing.
    pub streamed_queries: u64,
}

/// Add `n` to a monotone counter.
fn bump(counter: &AtomicU64, n: u64) {
    // lint: relaxed-ok monotone counter; nothing is published through it
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Read a monotone counter.
fn tally(counter: &AtomicU64) -> u64 {
    // lint: relaxed-ok monotone counter read for display only
    counter.load(Ordering::Relaxed)
}

/// Monotone counters behind [`StorePaging`].
#[derive(Default)]
struct PagingCounters {
    page_ins: AtomicU64,
    chunks_read: AtomicU64,
    bytes_read: AtomicU64,
    streamed_queries: AtomicU64,
}

/// Monotone sums of the executors' per-query [`ZoneStats`].
#[derive(Default)]
struct ZoneCounters {
    skipped: AtomicU64,
    whole: AtomicU64,
    scanned: AtomicU64,
    rows_tested: AtomicU64,
}

impl ZoneCounters {
    fn record(&self, z: &ZoneStats) {
        bump(&self.skipped, z.skipped);
        bump(&self.whole, z.whole);
        bump(&self.scanned, z.scanned);
        bump(&self.rows_tested, z.rows_tested);
    }
}

/// What the cache stores per canonical query.
#[derive(Clone)]
struct CachedAnswer {
    table: Arc<AggTable>,
    epsilon: Option<f64>,
}

/// A preview sample and its scale-up factor, keyed by (dataset name,
/// generation, sample rows).
type PreviewSamples = Mutex<HashMap<(String, u64, usize), Arc<(PointTable, f64)>>>;

/// What a prepared region raster depends on: pyramid level, resolved canvas
/// spec and mode. Never the query, and never the data — a reload keeps it.
type RasterKey = (usize, CanvasSpec, ExecutionMode);

/// Lock an RwLock for reading, recovering from poisoning (same contract as
/// [`crate::cache::lock`]: invariants hold between operations).
fn read<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|p| p.into_inner())
}

fn write<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|p| p.into_inner())
}

/// The multi-client serving facade over catalog + pyramid + raster join.
pub struct UrbaneService {
    config: ServiceConfig,
    pyramid: ResolutionPyramid,
    datasets: RwLock<BTreeMap<String, DatasetEntry>>,
    cache: QueryCache<CachedAnswer>,
    /// Dedup of *identical* concurrent misses: one computes, the rest wait.
    flights: SingleFlight<CachedAnswer>,
    // Derived, generation-keyed state (rebuilt lazily after reloads).
    samples: PreviewSamples,
    // Full-cover region grids per pyramid level (pyramid is immutable).
    region_indexes: Mutex<HashMap<usize, Arc<spatial_index::GridIndex>>>,
    // Prepared region rasters of the service's own canvases (the base spec
    // and the degraded rung's), at most levels × 2 × 3 modes.
    rasters: Mutex<Vec<(RasterKey, Arc<PreparedRasterJoin>)>>,
    // The full rung's last point pass at a kept canvas, keyed by
    // `pass_key`; one slot, replaced by every full-rung draw.
    pass: Mutex<Option<(String, Arc<PointPass>)>>,
    pass_reuses: AtomicU64,
    outcomes: OutcomeCounters,
    paging: PagingCounters,
    zones: ZoneCounters,
}

/// Monotone counters behind [`GuardOutcomes`], one per ladder outcome.
/// Named fields (rather than a slot array) so every increment names the
/// outcome it counts.
#[derive(Default)]
struct OutcomeCounters {
    full: AtomicU64,
    degraded_bounded: AtomicU64,
    preview_sample: AtomicU64,
    cached: AtomicU64,
}

impl UrbaneService {
    /// Build a service over an initial catalog (all datasets start at
    /// generation 0). Fails on an empty catalog — a server with nothing to
    /// serve is a deployment error worth surfacing at boot, not per request
    /// (a pyramid is never empty by construction).
    pub fn new(
        config: ServiceConfig,
        catalog: DataCatalog,
        pyramid: ResolutionPyramid,
    ) -> Result<Self> {
        if catalog.is_empty() {
            return Err(UrbaneError::Config("service needs at least one dataset".into()));
        }
        // Store-backed registrations boot cold: header only, payload on
        // first touch.
        let datasets = catalog
            .into_states()
            .map(|(name, state)| (name, DatasetEntry { state, generation: 0 }))
            .collect();
        let cache = QueryCache::new(config.cache_capacity, config.cache_shards);
        Ok(UrbaneService {
            config,
            pyramid,
            datasets: RwLock::new(datasets),
            cache,
            flights: SingleFlight::new(),
            samples: Mutex::new(HashMap::new()),
            region_indexes: Mutex::new(HashMap::new()),
            rasters: Mutex::new(Vec::new()),
            pass: Mutex::new(None),
            pass_reuses: AtomicU64::new(0),
            outcomes: Default::default(),
            paging: Default::default(),
            zones: Default::default(),
        })
    }

    /// The resolution pyramid.
    pub fn pyramid(&self) -> &ResolutionPyramid {
        &self.pyramid
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Catalog metadata for every registered dataset.
    pub fn datasets(&self) -> Vec<DatasetInfo> {
        read(&self.datasets)
            .iter()
            .map(|(name, e)| DatasetInfo {
                name: name.clone(),
                rows: match &e.state {
                    TableState::Resident(t) => t.len(),
                    TableState::Cold(store) => store.header().n_rows as usize,
                },
                generation: e.generation,
            })
            .collect()
    }

    /// `.ubs` paging / streaming counters.
    pub fn store_paging(&self) -> StorePaging {
        StorePaging {
            page_ins: tally(&self.paging.page_ins),
            chunks_read: tally(&self.paging.chunks_read),
            bytes_read: tally(&self.paging.bytes_read),
            streamed_queries: tally(&self.paging.streamed_queries),
        }
    }

    /// Sums of the executors' zone classification since boot (for
    /// `/metrics`): zones skipped, taken whole and scanned, rows tested.
    pub fn zone_stats(&self) -> ZoneStats {
        ZoneStats {
            skipped: tally(&self.zones.skipped),
            whole: tally(&self.zones.whole),
            scanned: tally(&self.zones.scanned),
            rows_tested: tally(&self.zones.rows_tested),
        }
    }

    /// Full-rung raster queries answered from the kept point pass instead
    /// of drawing their own (for `/metrics`).
    pub fn pass_reuses(&self) -> u64 {
        tally(&self.pass_reuses)
    }

    /// Is the dataset's table resident in memory right now? `None` if
    /// unregistered. Cold store-backed datasets report `false` until a
    /// raster query, a degraded/preview rung or [`Self::preview`] pages
    /// them in.
    pub fn dataset_resident(&self, name: &str) -> Option<bool> {
        read(&self.datasets)
            .get(name)
            .map(|e| matches!(e.state, TableState::Resident(_)))
    }

    /// The current generation of one dataset, or `None` if unregistered.
    /// The generation-ledger tests use this to pin down exactly which table
    /// a served answer was computed against.
    pub fn dataset_generation(&self, name: &str) -> Option<u64> {
        read(&self.datasets).get(name).map(|e| e.generation)
    }

    /// Query-result cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Entries currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Identical concurrent misses served from another request's
    /// computation (each one is a full query's worth of work saved).
    pub fn single_flight_followers(&self) -> u64 {
        self.flights.followers()
    }

    /// Degradation-ladder outcome counters.
    pub fn guard_outcomes(&self) -> GuardOutcomes {
        GuardOutcomes {
            full: tally(&self.outcomes.full),
            degraded_bounded: tally(&self.outcomes.degraded_bounded),
            preview_sample: tally(&self.outcomes.preview_sample),
            cached: tally(&self.outcomes.cached),
        }
    }

    /// Replace (or add) a dataset, bumping its generation. The table is
    /// clustered here, on the caller's thread, before any query can see it.
    /// Every cached answer and preview sample derived from the old table
    /// becomes unreachable immediately; in-flight queries holding the old
    /// `Arc` finish against the snapshot they started with. Returns the new
    /// generation.
    pub fn reload_dataset(&self, name: &str, mut table: PointTable) -> u64 {
        table.cluster();
        self.install_dataset(name, TableState::Resident(Arc::new(table)))
    }

    /// Register (or replace) a dataset from a `.ubs` store, cold: only the
    /// header is read here, the payload pages in lazily. Returns the new
    /// generation. Same invalidation semantics as
    /// [`reload_dataset`](Self::reload_dataset).
    pub fn register_store_dataset(&self, name: &str, path: &std::path::Path) -> Result<u64> {
        Ok(self.install_dataset(name, TableState::Cold(ColdStore::open(path)?)))
    }

    fn install_dataset(&self, name: &str, state: TableState) -> u64 {
        let generation = {
            let mut datasets = write(&self.datasets);
            let generation = datasets.get(name).map(|e| e.generation + 1).unwrap_or(0);
            datasets.insert(name.to_string(), DatasetEntry { state, generation });
            generation
        };
        // Eager hygiene: stale entries are already unreachable (the key
        // embeds the generation), but dropping them now releases memory and
        // keeps LRU pressure honest.
        self.cache.purge(&format!("{name}|"));
        lock(&self.samples).retain(|(n, _, _), _| n != name);
        *lock(&self.pass) = None;
        generation
    }

    /// Dataset state snapshot + generation, or `UnknownDataset`. Does not
    /// page a cold dataset in — callers that need the table go through
    /// [`Self::resident_table`].
    fn dataset_state(&self, name: &str) -> Result<(TableState, u64)> {
        read(&self.datasets)
            .get(name)
            .map(|e| (e.state.clone(), e.generation))
            .ok_or_else(|| UrbaneError::UnknownDataset(name.to_string()))
    }

    /// Materialize a dataset snapshot taken by [`Self::dataset_state`].
    /// For a cold snapshot this pages the store in (outside any lock) and
    /// upgrades the shared entry **generation-safely**: the resident table
    /// is installed only if the entry still carries the same generation — a
    /// concurrent reload wins, and this request keeps serving the snapshot
    /// it pinned.
    fn resident_table(
        &self,
        name: &str,
        generation: u64,
        state: &TableState,
    ) -> Result<Arc<PointTable>> {
        let store = match state {
            TableState::Resident(t) => return Ok(Arc::clone(t)),
            TableState::Cold(store) => store,
        };
        // The file is in cluster order and carries its zone footers.
        let (table, stats) = store.materialize()?;
        let table = Arc::new(table);
        bump(&self.paging.page_ins, 1);
        bump(&self.paging.chunks_read, stats.chunks_read);
        bump(&self.paging.bytes_read, stats.bytes_read);
        let mut datasets = write(&self.datasets);
        if let Some(e) = datasets.get_mut(name) {
            if e.generation == generation {
                if let TableState::Resident(t) = &e.state {
                    // Another request paged it in first; share theirs.
                    return Ok(Arc::clone(t));
                }
                e.state = TableState::Resident(Arc::clone(&table));
            }
        }
        Ok(table)
    }

    /// The full-cover region grid for a pyramid level, built once and
    /// shared (the pyramid never changes under a live service).
    fn region_index(&self, level: usize, regions: &RegionSet) -> Arc<spatial_index::GridIndex> {
        if let Some(hit) = lock(&self.region_indexes).get(&level).cloned() {
            return hit;
        }
        let built = Arc::new(spatial_index::GridIndex::build_auto(regions));
        lock(&self.region_indexes).insert(level, built.clone());
        built
    }

    /// The prepared raster for `key`, built on first use. Only the
    /// service's own canvases are kept; a request at any other explicit
    /// resolution prepares one for itself and drops it.
    fn raster(
        &self,
        key: RasterKey,
        regions: &RegionSet,
        budget: &QueryBudget,
    ) -> Result<Arc<PreparedRasterJoin>> {
        if let Some((_, hit)) = lock(&self.rasters).iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(hit));
        }
        let (_, spec, mode) = key;
        let built = Arc::new(PreparedRasterJoin::prepare_with_budget(
            regions,
            spec,
            self.config.join.max_tile,
            mode,
            budget,
        )?);
        if !self.keeps(spec) {
            return Ok(built);
        }
        let mut rasters = lock(&self.rasters);
        // A concurrent miss may have built the same raster first; keep one.
        if let Some((_, won)) = rasters.iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(won));
        }
        rasters.push((key, Arc::clone(&built)));
        Ok(built)
    }

    /// Does the service keep the prepared rasters of canvas `spec`? Its
    /// base spec and the degraded rung's.
    fn keeps(&self, spec: CanvasSpec) -> bool {
        spec == self.config.join.spec || spec == CanvasSpec::Resolution(DEGRADED_RESOLUTION)
    }

    /// Answer `query` over `points` from the prepared raster for `key` — the
    /// one raster path of all three ladder rungs.
    fn raster_join(
        &self,
        key: RasterKey,
        regions: &RegionSet,
        points: &PointTable,
        query: &SpatialAggQuery,
        budget: &QueryBudget,
    ) -> Result<RasterJoinResult> {
        let raster = self.raster(key, regions, budget)?;
        let join = RasterJoin::new(self.config.join.clone());
        Ok(join.execute_pass(&raster, points, query, budget, PassSource::Draw)?.0)
    }

    /// The full rung's [`raster_join`](Self::raster_join): at a kept
    /// canvas it resolves the kept point pass when that pass is `pass_key`'s
    /// and covers this level's raster, and otherwise draws and keeps the
    /// pass — recording, in accurate mode, the boundary rows of every
    /// accurate raster prepared at this canvas. The preview and degraded
    /// rungs never touch the slot: a sample's pass must not answer for the
    /// table.
    fn full_raster_join(
        &self,
        key: RasterKey,
        pass_key: String,
        regions: &RegionSet,
        points: &PointTable,
        query: &SpatialAggQuery,
        budget: &QueryBudget,
    ) -> Result<RasterJoinResult> {
        let (_, spec, _) = key;
        if !self.keeps(spec) {
            return self.raster_join(key, regions, points, query, budget);
        }
        let raster = self.raster(key, regions, budget)?;
        let join = RasterJoin::new(self.config.join.clone());
        // A miss empties the slot before drawing, so the old pass's buffers
        // are freed for the new one rather than held beside it.
        let kept = {
            let mut slot = lock(&self.pass);
            let hit = slot
                .as_ref()
                .filter(|(k, pass)| *k == pass_key && pass.covers(&raster))
                .map(|(_, pass)| Arc::clone(pass));
            if hit.is_none() {
                *slot = None;
            }
            hit
        };
        if let Some(pass) = kept {
            let source = PassSource::Reuse(&pass);
            let (res, _) = join.execute_pass(&raster, points, query, budget, source)?;
            bump(&self.pass_reuses, 1);
            return Ok(res);
        }
        let accurate: Vec<Arc<PreparedRasterJoin>> = lock(&self.rasters)
            .iter()
            .filter(|((_, s, mode), _)| *s == spec && *mode == ExecutionMode::Accurate)
            .map(|(_, r)| Arc::clone(r))
            .collect();
        let others: Vec<&PreparedRasterJoin> = accurate.iter().map(|r| r.as_ref()).collect();
        let source = PassSource::Keep(&others);
        let (res, pass) = join.execute_pass(&raster, points, query, budget, source)?;
        if let Some(pass) = pass {
            *lock(&self.pass) = Some((pass_key, Arc::new(pass)));
        }
        Ok(res)
    }

    /// A request's filters in a canonical order: they are a conjunction, so
    /// `[A, B]` and `[B, A]` are one query.
    fn canonical_filters(req: &QueryRequest) -> String {
        let mut filters: Vec<String> = req.filters.iter().map(|f| format!("{f:?}")).collect();
        filters.sort();
        filters.join("&")
    }

    /// Canonical cache key: dataset + generation + every query dimension in
    /// a stable order, the filters canonical — `[A, B]` and `[B, A]` share
    /// an entry.
    fn cache_key(&self, req: &QueryRequest, generation: u64) -> CacheKey {
        CacheKey::new(format!(
            "{}|{}|{}|{:?}|{:?}|{:?}|{}",
            req.dataset,
            generation,
            req.level,
            req.mode,
            self.canvas(req),
            req.agg,
            Self::canonical_filters(req),
        ))
    }

    /// What a point pass reads besides the tile viewports: dataset,
    /// generation, aggregate and canonical filters. Not the level, the mode
    /// or the canvas — [`PointPass::covers`] decides whether a kept pass
    /// fits a raster.
    fn pass_key(req: &QueryRequest, generation: u64) -> String {
        format!(
            "{}|{}|{:?}|{}",
            req.dataset,
            generation,
            req.agg,
            Self::canonical_filters(req)
        )
    }

    /// The canvas a request resolves to: its own resolution (clamped to the
    /// configured maximum), else the base spec as configured.
    fn canvas(&self, req: &QueryRequest) -> CanvasSpec {
        req.resolution.map_or(self.config.join.spec, |r| {
            CanvasSpec::Resolution(r.clamp(1, self.config.max_resolution))
        })
    }

    /// A fast approximate answer for in-flight interactions (slider drags)
    /// and the ladder's last rung: `req`'s query on a uniform reservoir
    /// sample of `rows` rows, COUNT/SUM scaled back up (a uniform sample
    /// keeps the scale factor unbiased per region), AVG/MIN/MAX unscaled.
    /// The sample is drawn once per (dataset, generation, rows); the answer
    /// is never cached. Pages a cold dataset in; unbudgeted — a few thousand
    /// rows are fast by construction.
    pub fn preview(&self, req: &QueryRequest, rows: usize) -> Result<AggTable> {
        let (state, generation) = self.dataset_state(&req.dataset)?;
        let regions = self.pyramid.level(req.level)?;
        let points = self.resident_table(&req.dataset, generation, &state)?;
        self.preview_on(req, generation, &points, rows, &regions, &req.to_query())
    }

    /// [`preview`](Self::preview) over a snapshot the caller pinned: the
    /// ladder's rung answers from its own generation, not a newer one.
    fn preview_on(
        &self,
        req: &QueryRequest,
        generation: u64,
        points: &PointTable,
        rows: usize,
        regions: &RegionSet,
        query: &SpatialAggQuery,
    ) -> Result<AggTable> {
        let key = (req.dataset.clone(), generation, rows);
        let cached = lock(&self.samples).get(&key).cloned();
        let sample_and_scale = match cached {
            Some(hit) => hit,
            None => {
                let picked = urban_data::sampling::reservoir_sample(points, rows, 0xF00D);
                let sample = urban_data::sampling::take_rows(points, &picked);
                let scale = urban_data::sampling::scale_up_factor(points.len(), sample.len())
                    .unwrap_or(1.0);
                let entry = Arc::new((sample, scale));
                lock(&self.samples).insert(key, Arc::clone(&entry));
                entry
            }
        };
        let (sample, scale) = (&sample_and_scale.0, sample_and_scale.1);
        // Previews always raster: index-join has no approximate variant.
        let mode = match req.mode {
            ExecutionMode::IndexJoin => ExecutionMode::Bounded,
            mode => mode,
        };
        let mut res = self.raster_join(
            (req.level, self.canvas(req), mode),
            regions,
            sample,
            query,
            &QueryBudget::unlimited(),
        )?;
        for state in &mut res.table.states {
            state.count = (state.count as f64 * scale).round() as u64;
            state.weight *= scale;
            state.sum *= scale;
        }
        Ok(res.table)
    }

    /// An answer an earlier full-fidelity computation already produced: an
    /// exact-key cache hit (`cached`) or a single-flight leader's result.
    fn served(
        &self,
        hit: CachedAnswer,
        cached: bool,
        regions: Arc<RegionSet>,
        generation: u64,
        start: Instant,
        deadline: Duration,
    ) -> QueryAnswer {
        bump(if cached { &self.outcomes.cached } else { &self.outcomes.full }, 1);
        QueryAnswer {
            table: hit.table,
            regions,
            report: GuardReport {
                path: GuardPath::Full,
                fallbacks: Vec::new(),
                retried: false,
                elapsed: start.elapsed(),
                deadline,
                error_bound: hit.epsilon,
            },
            cached,
            generation,
        }
    }

    /// Serve one request: cache lookup, then the degradation ladder under
    /// the request's deadline. Full-fidelity answers are cached; degraded
    /// ones are not (they must not shadow the real answer once load drops).
    /// The HTTP router, the CLI and the bench call this; nothing can cancel
    /// the request but its deadline.
    // lint: entrypoint every POST /query (through the router) and every embedded caller (CLI, bench) enters here
    pub fn query(&self, req: &QueryRequest) -> Result<QueryAnswer> {
        self.query_cancellable(req, None)
    }

    /// [`query`](Self::query) with an optional cancel handle, which the
    /// caller raises from another thread to abandon the request. Exact-key
    /// cache, then single-flight, then the ladder. The session passes its
    /// caller's handle; the HTTP router goes through [`query`](Self::query)
    /// and passes none.
    // lint: entrypoint the session's cancellable path; query reaches it with no handle
    pub fn query_cancellable(
        &self,
        req: &QueryRequest,
        cancel: Option<&CancelHandle>,
    ) -> Result<QueryAnswer> {
        // lint: allow(determinism) wall-clock feeds only GuardReport::elapsed (latency metadata), never the answer table
        let start = Instant::now();
        let (state, generation) = self.dataset_state(&req.dataset)?;
        let regions = self.pyramid.level(req.level)?;
        let deadline = req.deadline.unwrap_or(self.config.default_deadline);
        let query = req.to_query();

        let key = self.cache_key(req, generation);
        if let Some(hit) = self.cache.get(&key) {
            return Ok(self.served(hit, true, regions, generation, start, deadline));
        }

        // Single-flight: identical concurrent misses ride one computation.
        // A follower waits out at most the ladder's worst case (≈1.5× the
        // deadline) plus slack; past that it computes for itself with
        // whatever time it has left. The leader publishes its answer at the
        // end of this function (or `None` on any early exit, via the
        // handle's drop guard).
        let flight = match self.flights.join(key.canonical()) {
            Flight::Follower(follower) => {
                let timeout = deadline + deadline / 2 + Duration::from_millis(50);
                if let Some(hit) = follower.wait(timeout) {
                    return Ok(self.served(hit, false, regions, generation, start, deadline));
                }
                None
            }
            Flight::Leader(leader) => Some(leader),
        };

        // Lazy residency: rungs that need the whole table share one page-in
        // (a cold store materializes at most once per request); the
        // index-join full rung streams chunks and never triggers it.
        let resident: std::sync::OnceLock<Result<Arc<PointTable>>> = std::sync::OnceLock::new();
        let points = || -> Result<Arc<PointTable>> {
            resident
                .get_or_init(|| self.resident_table(&req.dataset, generation, &state))
                .clone()
        };

        let full = |budget: &QueryBudget| -> Result<(Arc<AggTable>, Option<f64>)> {
            if req.mode == ExecutionMode::IndexJoin {
                // Exact path: full-cover grid probe + exact PIP, ε = 0. A
                // cold dataset streams zone by zone from its `.ubs` file
                // and stays cold.
                let index = self.region_index(req.level, &regions);
                let table = match &state {
                    TableState::Cold(store) => {
                        let (table, join, read) =
                            store.index_join(&regions, index.as_ref(), &query, budget)?;
                        bump(&self.paging.streamed_queries, 1);
                        bump(&self.paging.chunks_read, read.chunks_read);
                        bump(&self.paging.bytes_read, read.bytes_read);
                        self.zones.record(&join.zones);
                        table
                    }
                    TableState::Resident(_) => {
                        let pts = points()?;
                        let (table, zones) = spatial_index::index_join_budgeted(
                            &pts,
                            &regions,
                            index.as_ref(),
                            &query,
                            budget,
                        )?;
                        self.zones.record(&zones);
                        table
                    }
                };
                return Ok((Arc::new(table), Some(0.0)));
            }
            let pts = points()?;
            let key = (req.level, self.canvas(req), req.mode);
            let pass_key = Self::pass_key(req, generation);
            let res = self.full_raster_join(key, pass_key, &regions, &pts, &query, budget)?;
            self.zones.record(&res.zones);
            // An accurate answer is exact: its bound is 0, not the canvas ε.
            let bound = if req.mode == ExecutionMode::Accurate { 0.0 } else { res.epsilon };
            Ok((Arc::new(res.table), Some(bound)))
        };
        let degraded = |budget: &QueryBudget| -> Result<(AggTable, f64)> {
            let pts = points()?;
            let canvas = CanvasSpec::Resolution(DEGRADED_RESOLUTION);
            let key = (req.level, canvas, ExecutionMode::Bounded);
            let res = self.raster_join(key, &regions, &pts, &query, budget)?;
            self.zones.record(&res.zones);
            Ok((res.table, res.epsilon))
        };
        let preview = || -> Result<AggTable> {
            let pts = points()?;
            self.preview_on(req, generation, &pts, PREVIEW_ROWS, &regions, &query)
        };

        let result = run_ladder(deadline, cancel, full, degraded, preview)?;
        let outcome = match result.report.path {
            GuardPath::Full => &self.outcomes.full,
            GuardPath::DegradedBounded => &self.outcomes.degraded_bounded,
            GuardPath::PreviewSample => &self.outcomes.preview_sample,
        };
        bump(outcome, 1);
        if result.report.path == GuardPath::Full {
            let shared = CachedAnswer {
                table: Arc::clone(&result.table),
                epsilon: result.report.error_bound,
            };
            // Only full-fidelity answers are shared with single-flight
            // followers — same rule as the cache, same reason.
            if let Some(leader) = flight {
                leader.complete(Some(shared.clone()));
            }
            // lint: bounded-by cache_capacity (sharded LRU evicts at capacity)
            self.cache.insert(key, shared);
        } else if let Some(leader) = flight {
            leader.complete(None);
        }
        Ok(QueryAnswer {
            table: result.table,
            regions,
            report: result.report,
            cached: false,
            generation,
        })
    }
}

/// The views' unit-test fixtures (a view runs no join of its own).
#[cfg(test)]
pub(crate) mod fixture {
    use super::*;

    /// A one-level service over `table` (dataset `test`) and `regions` at
    /// `join`'s canvas, and `join`'s one-shot answer to a query over the
    /// catalog's clustered copy of the table.
    pub(crate) fn service(
        table: PointTable,
        regions: RegionSet,
        join: RasterJoinConfig,
    ) -> (UrbaneService, impl Fn(&SpatialAggQuery) -> AggTable) {
        let mut catalog = DataCatalog::new();
        catalog.register("test", table);
        let clustered = catalog.get("test").unwrap();
        let (one_shot, rs) = (RasterJoin::new(join.clone()), regions.clone());
        let config = ServiceConfig { join, ..Default::default() };
        let pyramid = ResolutionPyramid::new(vec![regions]);
        let service = UrbaneService::new(config, catalog, pyramid).unwrap();
        (service, move |q: &SpatialAggQuery| one_shot.execute(&clustered, &rs, q).unwrap().table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urban_data::gen::city::CityModel;
    use urban_data::gen::taxi::{generate_taxi, TaxiConfig};
    use urban_data::time::{TimeRange, DAY};

    fn service(cache_capacity: usize) -> UrbaneService {
        service_with(RasterJoinConfig::with_resolution(256), cache_capacity)
    }

    fn service_with(join: RasterJoinConfig, cache_capacity: usize) -> UrbaneService {
        let city = CityModel::nyc_like();
        let taxi =
            generate_taxi(&city, &TaxiConfig { rows: 5_000, seed: 3, start: 0, days: 10 });
        let mut catalog = DataCatalog::new();
        catalog.register("taxi", taxi);
        let pyramid = ResolutionPyramid::standard(&city.bbox(), 16, 8, 5);
        UrbaneService::new(
            ServiceConfig { join, cache_capacity, ..Default::default() },
            catalog,
            pyramid,
        )
        .unwrap()
    }

    #[test]
    fn query_then_cache_hit() {
        let s = service(64);
        let req = QueryRequest::count("taxi", 0);
        assert!(!s.query(&req).unwrap().cached, "a first miss is not admitted");
        let a = s.query(&req).unwrap();
        assert!(!a.cached);
        assert_eq!(a.report.path, GuardPath::Full);
        let b = s.query(&req).unwrap();
        assert!(b.cached);
        assert!(Arc::ptr_eq(&a.table, &b.table), "cache must share the table");
        assert_eq!(s.guard_outcomes().cached, 1);
        assert_eq!(s.cache_stats().hits, 1);
    }

    #[test]
    fn filter_order_is_canonicalized() {
        let s = service(64);
        let f1 = Filter::Time(TimeRange::new(0, 3 * DAY));
        let f2 = Filter::AttrRange { column: "fare".into(), min: 2.0, max: 40.0 };
        let a = QueryRequest::count("taxi", 0).filter(f1.clone()).filter(f2.clone());
        let b = QueryRequest::count("taxi", 0).filter(f2).filter(f1);
        s.query(&a).unwrap();
        let ra = s.query(&a).unwrap();
        let rb = s.query(&b).unwrap();
        assert!(rb.cached, "reordered conjunction must hit the same entry");
        assert!(Arc::ptr_eq(&ra.table, &rb.table));
    }

    #[test]
    fn reload_bumps_generation_and_invalidates() {
        let s = service(64);
        let req = QueryRequest::count("taxi", 0);
        s.query(&req).unwrap();
        let a = s.query(&req).unwrap(); // admitted on its second miss
        assert_eq!(a.generation, 0);
        assert_eq!(s.cache_len(), 1);

        let city = CityModel::nyc_like();
        let bigger =
            generate_taxi(&city, &TaxiConfig { rows: 9_000, seed: 4, start: 0, days: 10 });
        let generation = s.reload_dataset("taxi", bigger);
        assert_eq!(generation, 1);
        assert_eq!(s.cache_len(), 0, "reload must purge the dataset's entries");

        let b = s.query(&req).unwrap();
        assert!(!b.cached, "post-reload query must miss");
        assert_eq!(b.generation, 1);
        assert!(b.table.total_count() > a.table.total_count());
        assert_eq!(s.datasets()[0].generation, 1);
    }

    #[test]
    fn per_request_mode_and_resolution() {
        let s = service(64);
        let bounded = s.query(&QueryRequest::count("taxi", 1)).unwrap();
        let accurate = s
            .query(&QueryRequest::count("taxi", 1).mode(ExecutionMode::Accurate))
            .unwrap();
        // Different modes are distinct cache entries and may differ at the
        // ε edge; both must be real answers.
        assert!(!accurate.cached);
        assert!(bounded.table.total_count() > 0);
        assert!(accurate.table.total_count() > 0);
        let hi_res = s
            .query(&QueryRequest::count("taxi", 1).resolution(512))
            .unwrap();
        assert!(!hi_res.cached);
        assert!(hi_res.report.error_bound.unwrap() < bounded.report.error_bound.unwrap());
    }

    #[test]
    fn resolution_is_clamped() {
        let s = service(64);
        let req = QueryRequest::count("taxi", 0).resolution(1 << 30);
        // Must not attempt a 2^30 canvas; the clamp keeps it servable.
        let a = s.query(&req).unwrap();
        assert!(a.table.total_count() > 0);
    }

    #[test]
    fn unknown_dataset_and_level_are_typed() {
        let s = service(64);
        assert!(matches!(
            s.query(&QueryRequest::count("ghost", 0)),
            Err(UrbaneError::UnknownDataset(_))
        ));
        assert!(matches!(
            s.query(&QueryRequest::count("taxi", 99)),
            Err(UrbaneError::UnknownResolution(_))
        ));
    }

    #[test]
    fn zero_deadline_degrades_but_answers() {
        let s = service(64);
        let req = QueryRequest::count("taxi", 0).deadline(Duration::ZERO);
        // Degraded answers must not be cached: a second miss would admit
        // a full answer, so the key is asked three times.
        for i in 0..3 {
            let a = s.query(&req).unwrap();
            assert!(a.report.degraded());
            assert!(!a.cached, "request {i} served a cached answer");
            assert!(a.table.total_count() > 0);
            assert_eq!(s.cache_len(), 0);
        }
        let outcomes = s.guard_outcomes();
        assert_eq!(outcomes.full, 0);
        assert_eq!(outcomes.degraded_bounded + outcomes.preview_sample, 3);
    }

    /// The prepared raster the service holds for `key`, if any.
    fn held(s: &UrbaneService, key: RasterKey) -> Option<Arc<PreparedRasterJoin>> {
        lock(&s.rasters).iter().find(|(k, _)| *k == key).map(|(_, r)| Arc::clone(r))
    }

    #[test]
    fn misses_share_one_prepared_raster() {
        let s = service(0); // no answer cache: every query is a miss
        let key = (1, CanvasSpec::Resolution(256), ExecutionMode::Accurate);
        let req = QueryRequest::count("taxi", 1).mode(ExecutionMode::Accurate);
        s.query(&req).unwrap();
        let first = held(&s, key).expect("the base canvas is kept");
        s.query(&req).unwrap();
        s.query(&req.clone().filter(Filter::Time(TimeRange::new(0, 3 * DAY)))).unwrap();
        assert!(Arc::ptr_eq(&first, &held(&s, key).unwrap()), "a miss rebuilt the raster");
        // Another mode is another raster; the first one stays.
        s.query(&QueryRequest::count("taxi", 1)).unwrap();
        assert_eq!(lock(&s.rasters).len(), 2);
        assert!(Arc::ptr_eq(&first, &held(&s, key).unwrap()));
    }

    #[test]
    fn reload_keeps_the_prepared_raster() {
        let s = service(64);
        let key = (0, CanvasSpec::Resolution(256), ExecutionMode::Bounded);
        let before = s.query(&QueryRequest::count("taxi", 0)).unwrap();
        let raster = held(&s, key).expect("the base canvas is kept");
        let city = CityModel::nyc_like();
        s.reload_dataset(
            "taxi",
            generate_taxi(&city, &TaxiConfig { rows: 7_000, seed: 9, start: 0, days: 10 }),
        );
        let after = s.query(&QueryRequest::count("taxi", 0)).unwrap();
        assert!(!after.cached && after.table.total_count() != before.table.total_count());
        assert!(Arc::ptr_eq(&raster, &held(&s, key).unwrap()), "a reload rebuilt the raster");
        assert_eq!(lock(&s.rasters).len(), 1);
    }

    #[test]
    fn off_base_resolution_is_not_retained() {
        let s = service(64);
        let odd = s.query(&QueryRequest::count("taxi", 0).resolution(300)).unwrap();
        assert!(odd.table.total_count() > 0);
        assert!(lock(&s.rasters).is_empty(), "a 300-px raster was kept");
        // The base canvas asked for explicitly is the base canvas.
        s.query(&QueryRequest::count("taxi", 0).resolution(256)).unwrap();
        assert!(held(&s, (0, CanvasSpec::Resolution(256), ExecutionMode::Bounded)).is_some());
        // So is the degraded rung's.
        let degraded = (0, CanvasSpec::Resolution(DEGRADED_RESOLUTION), ExecutionMode::Bounded);
        let regions = s.pyramid().level(0).unwrap();
        let built = s.raster(degraded, &regions, &QueryBudget::unlimited()).unwrap();
        assert!(Arc::ptr_eq(&built, &held(&s, degraded).unwrap()));
        assert_eq!(lock(&s.rasters).len(), 2);
    }

    #[test]
    fn epsilon_base_spec_is_honoured() {
        let extent = service(0).pyramid().level(0).unwrap().bbox();
        let at_1024 = raster_join::CanvasPlan::plan(&extent, CanvasSpec::Resolution(1024), 2048)
            .unwrap()
            .epsilon;
        let e = 0.9 * at_1024;
        let s = service_with(RasterJoinConfig::with_epsilon(e), 64);
        let req = QueryRequest::count("taxi", 0);
        let a = s.query(&req).unwrap();
        let bound = a.report.error_bound.unwrap();
        // Up to the plan's own rounding of ε → pixel side → ε.
        assert!(bound <= e * (1.0 + 1e-9), "asked for ε ≤ {e}, answered at {bound}");
        s.query(&req).unwrap();
        assert!(s.query(&req).unwrap().cached);
        assert!(held(&s, (0, CanvasSpec::Epsilon(e), ExecutionMode::Bounded)).is_some());
    }

    #[test]
    fn identical_concurrent_misses_single_flight() {
        // Cache off, so dedup can only come from single-flight. The leader
        // stalls inside its first tile; the three identical requests are
        // spawned only once it is there, so all of them must join its flight.
        let plan = raster_join::FaultPlan::new().delay_on_tile(0, Duration::from_millis(500));
        let join = RasterJoinConfig {
            max_tile: 128, // multi-tile plan: one pass is several tile starts
            faults: Some(plan.clone()),
            ..RasterJoinConfig::with_resolution(256)
        };
        let s = service_with(join.clone(), 0);
        let req = QueryRequest::count("taxi", 0);
        let answers: Vec<QueryAnswer> = std::thread::scope(|sc| {
            let leader = sc.spawn(|| s.query(&req).unwrap());
            while plan.tiles_started() < 1 {
                std::thread::yield_now();
            }
            let followers: Vec<_> = (0..3).map(|_| sc.spawn(|| s.query(&req).unwrap())).collect();
            std::iter::once(leader).chain(followers).map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(s.single_flight_followers(), 3);
        for a in &answers {
            assert_eq!(a.report.path, GuardPath::Full);
            assert!(!a.cached);
            assert!(Arc::ptr_eq(&a.table, &answers[0].table), "followers share the leader's table");
        }
        let one_pass = raster_join::CanvasPlan::plan(
            &s.pyramid().level(0).unwrap().bbox(),
            join.spec,
            join.max_tile,
        )
        .unwrap()
        .tiles
        .len();
        assert!(one_pass > 1);
        assert_eq!(plan.tiles_started(), one_pass, "exactly one raster pass ran");
        assert_eq!(s.guard_outcomes().full, 4);
    }

    /// Every region state's bits: what "bit-identical" means for an answer.
    fn state_bits(t: &AggTable) -> Vec<(u64, [u64; 4])> {
        t.states
            .iter()
            .map(|s| (s.count, [s.weight, s.sum, s.min, s.max].map(f64::to_bits)))
            .collect()
    }

    /// The table `service` registers, or another draw of it.
    fn taxi(rows: usize, seed: u64) -> PointTable {
        generate_taxi(
            &CityModel::nyc_like(),
            &TaxiConfig {
                rows,
                seed,
                start: 0,
                days: 10,
            },
        )
    }

    /// `req`'s answer from a service with no point pass to reuse: the
    /// reload installs `table` and empties the slot.
    fn fresh(reference: &UrbaneService, table: &PointTable, req: &QueryRequest) -> AggTable {
        reference.reload_dataset("taxi", table.clone());
        (*reference.query(req).unwrap().table).clone()
    }

    /// S2, which makes the reuse pay: the served pyramid's three levels
    /// plan identical tile viewports at the served 512 canvas and at the
    /// default 1024 one. A generator change that breaks it does not make
    /// answers wrong (every level would draw its own pass), only slower.
    #[test]
    fn served_pyramid_levels_plan_one_canvas() {
        let city = CityModel::nyc_like();
        let pyramid = ResolutionPyramid::standard(&city.bbox(), 16, 8, 5);
        let max_tile = RasterJoinConfig::default().max_tile;
        for resolution in [512, 1024] {
            let plans: Vec<_> = (0..pyramid.len())
                .map(|l| {
                    let bbox = pyramid.level(l).unwrap().bbox();
                    let spec = CanvasSpec::Resolution(resolution);
                    raster_join::CanvasPlan::plan(&bbox, spec, max_tile)
                        .unwrap()
                        .tiles
                })
                .collect();
            assert_eq!(plans.len(), 3);
            assert!(
                plans.iter().all(|p| *p == plans[0]),
                "{resolution}: {plans:?}"
            );
        }
    }

    /// A drill resolves the kept point pass at its later levels, and every
    /// answer is bit-identical to a service with nothing to reuse: in every
    /// raster mode, for every aggregate, drilling down and up, with a reload
    /// between two levels.
    #[test]
    fn reused_passes_answer_like_fresh_ones() {
        let s = service(0); // no answer cache: every query computes
        let reference = service(0);
        let (first, second) = (taxi(5_000, 3), taxi(6_000, 4));
        let col = || "fare".to_string();
        let aggs = [
            AggKind::Count,
            AggKind::Sum(col()),
            AggKind::Avg(col()),
            AggKind::Min(col()),
            AggKind::Max(col()),
        ];
        let mut table = &first;
        for mode in [
            ExecutionMode::Bounded,
            ExecutionMode::Accurate,
            ExecutionMode::Weighted,
        ] {
            let reused = s.pass_reuses();
            for (a, agg) in aggs.iter().enumerate() {
                for (o, levels) in [[0, 1, 2], [2, 1, 0]].iter().enumerate() {
                    // Two drills: the second starts with every level's
                    // raster prepared, so its first level records for all.
                    for drill in 0..2 {
                        let start = (a * 4 + o * 2 + drill) as i64 * DAY / 3;
                        let window = Filter::Time(TimeRange::new(start, start + 5 * DAY));
                        for (k, &level) in levels.iter().enumerate() {
                            if (a, o, drill, k) == (2, 1, 1, 1) {
                                // A reload between two levels of one drill.
                                table = if std::ptr::eq(table, &first) {
                                    &second
                                } else {
                                    &first
                                };
                                s.reload_dataset("taxi", table.clone());
                            }
                            let req = QueryRequest::count("taxi", level)
                                .agg(agg.clone())
                                .mode(mode)
                                .filter(window.clone());
                            let got = s.query(&req).unwrap();
                            assert_eq!(got.report.path, GuardPath::Full);
                            assert_eq!(
                                state_bits(&got.table),
                                state_bits(&fresh(&reference, table, &req)),
                                "{mode:?} {agg:?} levels {levels:?} drill {drill} level {level}"
                            );
                        }
                    }
                }
            }
            // Bounded and weighted reuse at the second level of every drill;
            // accurate once each level's boundary rows are recorded.
            assert!(
                s.pass_reuses() - reused >= 2 * aggs.len() as u64 * 2,
                "{mode:?}"
            );
        }
        assert_eq!(reference.pass_reuses(), 0);
    }

    /// The preview rung runs the same raster join over a sample, under the
    /// same dataset, generation and query: it must neither answer from the
    /// table's kept pass nor replace it with the sample's.
    #[test]
    fn preview_never_touches_the_kept_pass() {
        let s = service(0);
        let reference = service(0);
        let table = taxi(5_000, 3);
        let window = Filter::Time(TimeRange::new(DAY, 6 * DAY));
        for mode in [ExecutionMode::Bounded, ExecutionMode::Accurate] {
            let req = |level| {
                QueryRequest::count("taxi", level)
                    .mode(mode)
                    .filter(window.clone())
            };
            // Prepare every level's raster, then draw at level 0.
            for level in [1, 2, 0] {
                s.query(&req(level)).unwrap();
            }
            let reused = s.pass_reuses();
            reference.reload_dataset("taxi", table.clone());
            let want = reference.preview(&req(1), PREVIEW_ROWS).unwrap();
            assert_eq!(
                state_bits(&s.preview(&req(1), PREVIEW_ROWS).unwrap()),
                state_bits(&want)
            );
            assert_eq!(
                s.pass_reuses(),
                reused,
                "{mode:?}: the preview reused the pass"
            );
            let got = s.query(&req(1)).unwrap();
            assert_eq!(
                s.pass_reuses(),
                reused + 1,
                "{mode:?}: the preview replaced the pass"
            );
            assert_eq!(
                state_bits(&got.table),
                state_bits(&fresh(&reference, &table, &req(1)))
            );
        }
    }

    /// The degraded rung draws at its own canvas and keeps nothing; the
    /// next full queries keep and reuse a pass as if it had not run.
    #[test]
    fn degraded_rung_never_touches_the_kept_pass() {
        let table = taxi(5_000, 3);
        let window = Filter::Time(TimeRange::new(DAY, 6 * DAY));
        let req = |level| QueryRequest::count("taxi", level).filter(window.clone());
        // The plan fires once, on the first tile: that query's full rung
        // runs out of its deadline and its degraded rung runs unhindered.
        let stalled = || {
            let plan = raster_join::FaultPlan::new().delay_on_tile(0, Duration::from_secs(5));
            let join = RasterJoinConfig::with_resolution(256);
            service_with(
                RasterJoinConfig {
                    faults: Some(plan),
                    ..join
                },
                0,
            )
        };
        let (s, reference) = (stalled(), stalled());
        let degraded = req(1).deadline(Duration::from_millis(300));
        let got = s.query(&degraded).unwrap();
        let want = reference.query(&degraded).unwrap();
        assert_eq!(got.report.path, GuardPath::DegradedBounded);
        assert_eq!(want.report.path, GuardPath::DegradedBounded);
        assert_eq!(state_bits(&got.table), state_bits(&want.table));
        assert!(lock(&s.pass).is_none(), "the degraded rung kept its pass");
        for (level, reuses) in [(0, 0), (1, 1), (2, 2)] {
            let got = s.query(&req(level)).unwrap();
            assert_eq!(s.pass_reuses(), reuses);
            assert_eq!(
                state_bits(&got.table),
                state_bits(&fresh(&reference, &table, &req(level)))
            );
        }
    }

    fn store_file(rows: usize, seed: u64) -> (CityModel, std::path::PathBuf) {
        let city = CityModel::nyc_like();
        let taxi = generate_taxi(&city, &TaxiConfig { rows, seed, start: 0, days: 10 });
        let dir =
            std::env::temp_dir().join(format!("urbane-service-store-{}-{seed}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("taxi.ubs");
        urbane_store::StoreBuilder::new().chunk_rows(512).write_file(&taxi, &path).unwrap();
        (city, path)
    }

    #[test]
    fn index_join_requests_match_accurate_exactly_and_report_zero_epsilon() {
        let s = service(64);
        let exact = s
            .query(&QueryRequest::count("taxi", 1).mode(ExecutionMode::Accurate))
            .unwrap();
        let indexed = s
            .query(&QueryRequest::count("taxi", 1).mode(ExecutionMode::IndexJoin))
            .unwrap();
        assert_eq!(exact.report.path, GuardPath::Full);
        assert_eq!(exact.report.error_bound, Some(0.0));
        assert_eq!(indexed.report.path, GuardPath::Full);
        assert_eq!(indexed.report.error_bound, Some(0.0));
        assert_eq!(exact.table.values(), indexed.table.values());
        // Distinct cache entries per mode; the third ask hits the cache.
        for mode in [ExecutionMode::Accurate, ExecutionMode::IndexJoin] {
            s.query(&QueryRequest::count("taxi", 1).mode(mode)).unwrap();
            let again = s.query(&QueryRequest::count("taxi", 1).mode(mode)).unwrap();
            assert!(again.cached, "{mode:?}");
            assert_eq!(again.report.error_bound, Some(0.0), "{mode:?}");
        }
        // A bounded answer keeps its canvas ε.
        let bounded = s.query(&QueryRequest::count("taxi", 1)).unwrap();
        assert!(bounded.report.error_bound.is_some_and(|e| e > 0.0));
    }

    #[test]
    fn cold_store_dataset_serves_index_joins_without_materializing() {
        let (city, path) = store_file(4_000, 31);
        let mut catalog = DataCatalog::new();
        catalog.register_store("taxi", &path).unwrap();
        let pyramid = ResolutionPyramid::standard(&city.bbox(), 16, 8, 5);
        let s = UrbaneService::new(
            ServiceConfig {
                join: RasterJoinConfig::with_resolution(256),
                ..Default::default()
            },
            catalog,
            pyramid,
        )
        .unwrap();
        assert_eq!(s.dataset_resident("taxi"), Some(false));
        assert_eq!(s.datasets()[0].rows, 4_000, "header rows visible before paging");

        // Index joins stream the store and leave the dataset cold.
        let a = s
            .query(&QueryRequest::count("taxi", 0).mode(ExecutionMode::IndexJoin))
            .unwrap();
        assert_eq!(a.report.path, GuardPath::Full);
        assert_eq!(s.dataset_resident("taxi"), Some(false), "streaming must not page in");
        let paging = s.store_paging();
        assert_eq!(paging.streamed_queries, 1);
        assert!(paging.chunks_read > 0);
        assert_eq!(paging.page_ins, 0);
        let zones = s.zone_stats();
        assert_eq!((zones.skipped, zones.whole, zones.scanned), (0, 8, 0), "4 000 rows in chunks of 512");

        // A raster query pages the table in exactly once.
        let b = s.query(&QueryRequest::count("taxi", 0)).unwrap();
        assert_eq!(b.report.path, GuardPath::Full);
        assert_eq!(s.dataset_resident("taxi"), Some(true));
        assert_eq!(s.store_paging().page_ins, 1);
        assert!(b.table.total_count() > 0);

        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// An unfiltered raster pass takes every zone of the clustered table
    /// whole, and the zone counters say so.
    #[test]
    fn unfiltered_raster_query_counts_every_zone_whole() {
        let city = CityModel::nyc_like();
        let taxi =
            generate_taxi(&city, &TaxiConfig { rows: 20_000, seed: 3, start: 0, days: 10 });
        let zones = taxi.len().div_ceil(urban_data::ZONE_ROWS) as u64;
        assert!(zones > 1, "the table spans several zones");
        let mut catalog = DataCatalog::new();
        catalog.register("taxi", taxi);
        let pyramid = ResolutionPyramid::standard(&city.bbox(), 16, 8, 5);
        let config = ServiceConfig {
            join: RasterJoinConfig::with_resolution(256),
            cache_capacity: 0,
            ..Default::default()
        };
        let s = UrbaneService::new(config, catalog, pyramid).unwrap();
        let before = s.zone_stats();
        let a = s.query(&QueryRequest::count("taxi", 0)).unwrap();
        assert_eq!(a.report.path, GuardPath::Full);
        let after = s.zone_stats();
        assert_eq!(after.whole - before.whole, zones);
        assert_eq!(
            (after.skipped, after.scanned, after.rows_tested),
            (before.skipped, before.scanned, before.rows_tested)
        );
    }

    #[test]
    fn cold_index_key_is_cached_on_its_third_request_and_stays_cold() {
        let (city, path) = store_file(3_000, 33);
        let mut catalog = DataCatalog::new();
        catalog.register_store("taxi", &path).unwrap();
        let pyramid = ResolutionPyramid::standard(&city.bbox(), 16, 8, 5);
        let s = UrbaneService::new(ServiceConfig::default(), catalog, pyramid).unwrap();
        let req = QueryRequest::count("taxi", 1)
            .mode(ExecutionMode::IndexJoin)
            .filter(Filter::Time(TimeRange::new(0, 5 * DAY)));
        let mut answers = Vec::new();
        for expect_cached in [false, false, true] {
            let a = s.query(&req).unwrap();
            assert_eq!(a.cached, expect_cached, "request {}", answers.len() + 1);
            assert_eq!(s.dataset_resident("taxi"), Some(false), "index queries must not page in");
            answers.push(a);
        }
        assert_eq!(s.store_paging().streamed_queries, 2);
        assert_eq!(s.cache_len(), 1);
        assert!(Arc::ptr_eq(&answers[1].table, &answers[2].table));
        assert_eq!(answers[0].table, answers[1].table);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn register_store_dataset_bumps_generation_and_invalidates() {
        let s = service(64);
        s.query(&QueryRequest::count("taxi", 0)).unwrap();
        let warm = s.query(&QueryRequest::count("taxi", 0)).unwrap();
        assert_eq!(warm.generation, 0);
        assert_eq!(s.cache_len(), 1);
        let (_, path) = store_file(2_000, 32);
        let generation = s.register_store_dataset("taxi", &path).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(s.cache_len(), 0, "store registration must purge stale answers");
        assert_eq!(s.dataset_resident("taxi"), Some(false));
        let cold = s.query(&QueryRequest::count("taxi", 0)).unwrap();
        assert_eq!(cold.generation, 1);
        assert!(cold.table.total_count() > 0);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn empty_catalog_is_rejected() {
        let city = CityModel::nyc_like();
        let pyramid = ResolutionPyramid::standard(&city.bbox(), 8, 4, 5);
        assert!(matches!(
            UrbaneService::new(ServiceConfig::default(), DataCatalog::new(), pyramid),
            Err(UrbaneError::Config(_))
        ));
    }
}
