//! The interactive session — what a demo visitor actually drives.
//!
//! A session holds the catalog, the resolution pyramid, and the current
//! interaction state (active data set, resolution, time window, attribute
//! filters). Every state change invalidates the current view; re-rendering
//! issues a fresh spatial-aggregation query through Raster Join — *that* is
//! the latency the demo showcases, and E6 measures it per interaction kind.
//! Identical queries hit an LRU-ish result cache (repeated slider positions,
//! back-and-forth panning).

use crate::catalog::DataCatalog;
use crate::colormap::ColorMap;
use crate::resolution::ResolutionPyramid;
use crate::view::map::{ChoroplethImage, MapView};
use crate::{Result, UrbaneError};
use raster_join::{BinningMode, PointStore, QueryBudget, RasterJoinConfig};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use urban_data::filter::Filter;
use urban_data::query::{AggKind, AggTable, SpatialAggQuery};
use urban_data::time::TimeRange;
use urban_data::BinnedPointTable;

/// Static session configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Raster-join configuration used by all views.
    pub join: RasterJoinConfig,
    /// Maximum cached query results.
    pub cache_capacity: usize,
    /// Choropleth canvas size.
    pub map_width: u32,
    /// Choropleth canvas height.
    pub map_height: u32,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            join: RasterJoinConfig::default(),
            cache_capacity: 64,
            map_width: 512,
            map_height: 512,
        }
    }
}

/// Cache statistics (diagnostic for E6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from cache.
    pub hits: u64,
    /// Queries executed.
    pub misses: u64,
}

/// A cached preview sample: the sampled table plus its scale-up factor.
type SampleEntry = Arc<(urban_data::PointTable, f64)>;

/// Lock a mutex, recovering from poisoning: session caches hold plain data
/// whose invariants hold between operations, and a query thread that
/// panicked mid-evaluation must not wedge the whole session.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// An interactive Urbane session.
pub struct UrbaneSession {
    pub(crate) config: SessionConfig,
    catalog: DataCatalog,
    pyramid: ResolutionPyramid,
    // Interaction state.
    active_dataset: String,
    active_level: usize,
    time_window: Option<TimeRange>,
    attr_filters: Vec<Filter>,
    agg: AggKind,
    /// Visible world window (None = fit the whole region set).
    view_window: Option<urbane_geom::BoundingBox>,
    // Result cache: query fingerprint → per-region aggregates plus the ε
    // bound of the run that produced them (replayed on hits so a cached
    // approximate answer never reports a tighter bound than it earned).
    cache: Mutex<HashMap<String, (Arc<AggTable>, f64)>>,
    cache_stats: Mutex<CacheStats>,
    // Preview samples: (dataset, sample size) → (sample table, scale-up).
    samples: Mutex<HashMap<(String, usize), SampleEntry>>,
    // Spatial bins per dataset, built lazily on first use and reused for
    // every subsequent frame (the catalog is immutable for the session's
    // lifetime, so bins never go stale).
    bins: Mutex<HashMap<String, Arc<BinnedPointTable>>>,
    // Packed region R-trees per pyramid level, for the exact index-join
    // mode. The pyramid is immutable for the session's lifetime.
    region_indexes: Mutex<HashMap<usize, Arc<spatial_index::PackedRegionIndex>>>,
}

impl UrbaneSession {
    /// Open a session. The first catalog data set (alphabetically) is active.
    /// Fails with [`UrbaneError::Config`] on an empty catalog — a session
    /// needs data to explore.
    pub fn new(
        config: SessionConfig,
        catalog: DataCatalog,
        pyramid: ResolutionPyramid,
    ) -> Result<Self> {
        let active_dataset = catalog
            .names()
            .first()
            .ok_or_else(|| UrbaneError::Config("session needs at least one dataset".into()))?
            .to_string();
        Ok(UrbaneSession {
            config,
            catalog,
            pyramid,
            active_dataset,
            active_level: 0,
            time_window: None,
            attr_filters: Vec::new(),
            agg: AggKind::Count,
            view_window: None,
            cache: Mutex::new(HashMap::new()),
            cache_stats: Mutex::new(CacheStats::default()),
            samples: Mutex::new(HashMap::new()),
            bins: Mutex::new(HashMap::new()),
            region_indexes: Mutex::new(HashMap::new()),
        })
    }

    /// The catalog.
    pub fn catalog(&self) -> &DataCatalog {
        &self.catalog
    }

    /// The resolution pyramid.
    pub fn pyramid(&self) -> &ResolutionPyramid {
        &self.pyramid
    }

    /// Switch the active data set.
    pub fn select_dataset(&mut self, name: &str) -> Result<()> {
        self.catalog.get(name)?; // validate
        self.active_dataset = name.to_string();
        Ok(())
    }

    /// Switch the active resolution level.
    pub fn select_resolution(&mut self, level: usize) -> Result<()> {
        self.pyramid.level(level)?; // validate
        self.active_level = level;
        Ok(())
    }

    /// Set (or clear) the time-slider window.
    pub fn set_time_window(&mut self, window: Option<TimeRange>) {
        self.time_window = window;
    }

    /// Replace the ad-hoc attribute filters.
    pub fn set_filters(&mut self, filters: Vec<Filter>) {
        self.attr_filters = filters;
    }

    /// Set the aggregate.
    pub fn set_aggregate(&mut self, agg: AggKind) {
        self.agg = agg;
    }

    /// The current visible world window (the full extent when unset).
    pub fn view_window(&self) -> urbane_geom::BoundingBox {
        self.view_window.unwrap_or_else(|| {
            let b = self
                .pyramid
                .level(self.active_level)
                .map(|l| l.bbox())
                .unwrap_or_default();
            b.inflate(b.width() * 0.05)
        })
    }

    /// Pan the view by a fraction of the current window (`dx, dy ∈ [-1, 1]`
    /// typically; positive = east/north).
    pub fn pan(&mut self, dx: f64, dy: f64) {
        let w = self.view_window();
        let shift = urbane_geom::Point::new(dx * w.width(), dy * w.height());
        self.view_window =
            Some(urbane_geom::BoundingBox::new(w.min + shift, w.max + shift));
    }

    /// Zoom about the window center: `factor < 1` zooms in, `> 1` out.
    ///
    /// # Panics
    /// Panics on non-positive factors — a caller bug, not a data condition.
    pub fn zoom(&mut self, factor: f64) {
        assert!(factor > 0.0, "zoom factor must be positive");
        let w = self.view_window();
        let c = w.center();
        let half = urbane_geom::Point::new(w.width(), w.height()) * (0.5 * factor);
        self.view_window = Some(urbane_geom::BoundingBox::new(c - half, c + half));
    }

    /// Reset the view to fit the active resolution.
    pub fn reset_view(&mut self) {
        self.view_window = None;
    }

    /// The active data-set name.
    pub fn active_dataset(&self) -> &str {
        &self.active_dataset
    }

    /// The active resolution level index.
    pub fn active_resolution(&self) -> usize {
        self.active_level
    }

    /// Cache statistics so far.
    pub fn cache_stats(&self) -> CacheStats {
        *lock(&self.cache_stats)
    }

    /// Assemble the current query from interaction state.
    pub fn current_query(&self) -> SpatialAggQuery {
        let mut q = SpatialAggQuery::new(self.agg.clone());
        if let Some(w) = self.time_window {
            q = q.filter(Filter::Time(w));
        }
        for f in &self.attr_filters {
            q = q.filter(f.clone());
        }
        q
    }

    /// A stable fingerprint of (dataset, resolution, query) for the cache.
    pub(crate) fn fingerprint(&self) -> String {
        format!(
            "{}|{}|{:?}|{:?}|{:?}",
            self.active_dataset, self.active_level, self.agg, self.time_window, self.attr_filters
        )
    }

    /// Evaluate the current view's aggregates (cached).
    pub fn evaluate(&self) -> Result<Arc<AggTable>> {
        self.evaluate_budgeted(&QueryBudget::unlimited()).map(|(table, _)| table)
    }

    /// Budgeted evaluation: like [`evaluate`](Self::evaluate) but the join
    /// polls `budget` cooperatively. Returns the table plus the join's ε
    /// error bound; a cache hit replays the bound persisted with the entry,
    /// so an approximate answer keeps reporting its real ε when served from
    /// cache. Failed/aborted queries are never cached.
    pub(crate) fn evaluate_budgeted(
        &self,
        budget: &QueryBudget,
    ) -> Result<(Arc<AggTable>, Option<f64>)> {
        let key = self.fingerprint();
        if let Some((hit, epsilon)) = lock(&self.cache).get(&key).cloned() {
            lock(&self.cache_stats).hits += 1;
            return Ok((hit, Some(epsilon)));
        }
        lock(&self.cache_stats).misses += 1;

        let regions = self.pyramid.level(self.active_level)?;
        let (table, epsilon) =
            if self.config.join.mode == raster_join::ExecutionMode::IndexJoin {
                // Exact path: R-tree probe + exact PIP, ε = 0 by construction.
                // A store-backed dataset streams zone by zone straight
                // from its `.ubs` file — the table never materializes.
                let index = self.region_index(self.active_level, &regions);
                let query = self.current_query();
                let table = match self.catalog.store(&self.active_dataset) {
                    Some(store) => store.index_join(&regions, index.as_ref(), &query, budget)?.0,
                    None => {
                        let points = self.catalog.get(&self.active_dataset)?;
                        spatial_index::index_join_budgeted(
                            &points,
                            &regions,
                            index.as_ref(),
                            &query,
                            budget,
                        )?
                    }
                };
                (Arc::new(table), 0.0)
            } else {
                let points = self.catalog.get(&self.active_dataset)?;
                let join = raster_join::RasterJoin::new(self.config.join.clone());
                let bins = self.dataset_bins(&self.active_dataset, &points);
                let store = match &bins {
                    Some(b) => PointStore::with_bins(&points, b),
                    None => PointStore::plain(&points),
                };
                let res =
                    join.execute_store(store, &regions, &self.current_query(), budget)?;
                (Arc::new(res.table), res.epsilon)
            };

        if self.config.cache_capacity > 0 {
            let mut cache = lock(&self.cache);
            if cache.len() >= self.config.cache_capacity {
                // Simple eviction: drop an arbitrary entry (bounded memory
                // is what matters here, not optimal reuse).
                if let Some(k) = cache.keys().next().cloned() {
                    cache.remove(&k);
                }
            }
            cache.insert(key, (table.clone(), epsilon));
        }
        Ok((table, Some(epsilon)))
    }

    /// Uncached evaluation at an explicit (coarser) bounded resolution —
    /// the degradation rung of guarded evaluation. Bounded + points-first
    /// regardless of the session's configured mode, because the rung exists
    /// to buy speed: a coarser canvas trades ε for latency, and the caller
    /// reports the resulting bound in its [`crate::GuardReport`].
    pub(crate) fn evaluate_degraded(
        &self,
        resolution: u32,
        budget: &QueryBudget,
    ) -> Result<(AggTable, f64)> {
        let points = self.catalog.get(&self.active_dataset)?;
        let regions = self.pyramid.level(self.active_level)?;
        let config = RasterJoinConfig {
            spec: raster_join::CanvasSpec::Resolution(resolution),
            mode: raster_join::ExecutionMode::Bounded,
            strategy: raster_join::PointStrategy::PointsFirst,
            ..self.config.join.clone()
        };
        let join = raster_join::RasterJoin::new(config);
        let bins = self.dataset_bins(&self.active_dataset, &points);
        let store = match &bins {
            Some(b) => PointStore::with_bins(&points, b),
            None => PointStore::plain(&points),
        };
        let res = join.execute_store(store, &regions, &self.current_query(), budget)?;
        Ok((res.table, res.epsilon))
    }

    /// The packed region R-tree for a pyramid level, built once and shared
    /// across frames (the pyramid never changes under a live session).
    fn region_index(
        &self,
        level: usize,
        regions: &urban_data::RegionSet,
    ) -> Arc<spatial_index::PackedRegionIndex> {
        if let Some(hit) = lock(&self.region_indexes).get(&level).cloned() {
            return hit;
        }
        let built = Arc::new(spatial_index::PackedRegionIndex::build(regions));
        lock(&self.region_indexes).insert(level, built.clone());
        built
    }

    /// The active dataset's spatial bins, built once and reused across
    /// frames. `None` when the session's join config disables binning or the
    /// table is too small for pruning to pay off.
    fn dataset_bins(
        &self,
        name: &str,
        points: &urban_data::PointTable,
    ) -> Option<Arc<BinnedPointTable>> {
        let grid_side = match self.config.join.binning {
            BinningMode::Off => return None,
            BinningMode::Grid(side) if side > 0 => Some(side),
            BinningMode::Grid(_) => return None,
            BinningMode::Auto => {
                if points.len() < raster_join::MIN_AUTO_BIN_POINTS {
                    return None;
                }
                None
            }
        };
        if let Some(hit) = lock(&self.bins).get(name).cloned() {
            // The catalog never changes under a live session; the length
            // check is pure defense — a stale index would mean wrong answers.
            if hit.len() == points.len() {
                return Some(hit);
            }
        }
        let built = Arc::new(match grid_side {
            Some(s) => BinnedPointTable::with_grid(points, s, s),
            None => BinnedPointTable::build(points),
        });
        lock(&self.bins).insert(name.to_string(), built.clone());
        Some(built)
    }

    /// Fast approximate evaluation for in-flight interactions (slider
    /// drags): runs the current query on a uniform reservoir sample and
    /// scales COUNT/SUM estimates back up (a uniform sample keeps the
    /// global scale factor unbiased per region; the *stratified* sampler in
    /// `urban_data::sampling` is for coverage-preserving previews like
    /// heatmaps, not for scaled aggregates). AVG/MIN/MAX are reported from
    /// the sample unscaled. Results are *not* cached — previews are
    /// transient by design.
    pub fn evaluate_preview(&self, sample_rows: usize) -> Result<AggTable> {
        let regions = self.pyramid.level(self.active_level)?;

        // The sample is drawn once per (dataset, size) and reused for the
        // whole interaction burst — resampling per frame would cost a full
        // pass over the data and defeat the preview.
        let key = (self.active_dataset.clone(), sample_rows);
        let cached = lock(&self.samples).get(&key).cloned();
        let sample_and_scale = match cached {
            Some(s) => s,
            None => {
                let points = self.catalog.get(&self.active_dataset)?;
                let rows =
                    urban_data::sampling::reservoir_sample(&points, sample_rows, 0xF00D);
                let sample = urban_data::sampling::take_rows(&points, &rows);
                let scale = urban_data::sampling::scale_up_factor(points.len(), sample.len())
                    .unwrap_or(1.0);
                let entry = Arc::new((sample, scale));
                lock(&self.samples).insert(key, entry.clone());
                entry
            }
        };
        let (sample, scale) = (&sample_and_scale.0, sample_and_scale.1);

        // Previews always raster: the index-join mode has no approximate
        // variant, and the preview rung exists precisely to buy speed.
        let mut config = self.config.join.clone();
        if config.mode == raster_join::ExecutionMode::IndexJoin {
            config.mode = raster_join::ExecutionMode::Bounded;
        }
        let join = raster_join::RasterJoin::new(config);
        let mut res = join.execute(sample, &regions, &self.current_query())?;
        for state in &mut res.table.states {
            state.count = (state.count as f64 * scale).round() as u64;
            state.weight *= scale;
            state.sum *= scale;
        }
        Ok(res.table)
    }

    /// Render the current map view through the session's pan/zoom window.
    ///
    /// Aggregates come from the (cached) [`Self::evaluate`] result, so the
    /// returned image's `join_stats`/`epsilon` metadata are zeroed — use
    /// [`MapView::render`] directly when per-query stats matter.
    pub fn render_map(&self) -> Result<ChoroplethImage> {
        let regions = self.pyramid.level(self.active_level)?;
        let view = MapView::new(self.config.join.clone(), ColorMap::viridis());
        let table = self.evaluate()?;
        let values = table.values();
        let legend = crate::colormap::Legend::from_values(&values);
        let vp = urbane_geom::projection::Viewport::fitted(
            self.view_window(),
            self.config.map_width,
            self.config.map_height,
        );
        let image = view.render_values_viewport(&regions, &values, &legend, &vp);
        Ok(ChoroplethImage {
            image,
            values,
            legend,
            join_stats: gpu_raster::RenderStats::new(),
            epsilon: 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urban_data::gen::city::CityModel;
    use urban_data::gen::taxi::{generate_taxi, TaxiConfig};
    use urban_data::time::DAY;

    fn session() -> UrbaneSession {
        let city = CityModel::nyc_like();
        let taxi = generate_taxi(&city, &TaxiConfig { rows: 5_000, seed: 1, start: 0, days: 10 });
        let crime = urban_data::gen::events::generate_crime(
            &city,
            &urban_data::gen::events::EventConfig::month(2_000, 2, 0),
        );
        let mut catalog = DataCatalog::new();
        catalog.register("taxi", taxi);
        catalog.register("crime", crime);
        let pyramid = ResolutionPyramid::standard(&city.bbox(), 16, 8, 5);
        UrbaneSession::new(
            SessionConfig {
                join: RasterJoinConfig::with_resolution(256),
                ..Default::default()
            },
            catalog,
            pyramid,
        )
        .unwrap()
    }

    #[test]
    fn initial_state() {
        let s = session();
        assert_eq!(s.active_dataset(), "crime"); // alphabetical first
        assert_eq!(s.active_resolution(), 0);
        assert!(s.current_query().filters.is_empty());
    }

    #[test]
    fn state_changes_validate() {
        let mut s = session();
        assert!(s.select_dataset("taxi").is_ok());
        assert!(s.select_dataset("ghost").is_err());
        assert_eq!(s.active_dataset(), "taxi");
        assert!(s.select_resolution(2).is_ok());
        assert!(s.select_resolution(9).is_err());
        assert_eq!(s.active_resolution(), 2);
    }

    #[test]
    fn evaluate_caches_identical_queries() {
        let mut s = session();
        s.select_dataset("taxi").unwrap();
        let a = s.evaluate().unwrap();
        let b = s.evaluate().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second evaluation must hit the cache");
        let st = s.cache_stats();
        assert_eq!((st.hits, st.misses), (1, 1));
    }

    #[test]
    fn interaction_changes_invalidate() {
        let mut s = session();
        s.select_dataset("taxi").unwrap();
        let a = s.evaluate().unwrap();
        s.set_time_window(Some(TimeRange::new(0, 3 * DAY)));
        let b = s.evaluate().unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(b.total_count() < a.total_count(), "time filter must drop points");
        // Reverting the window returns the cached original.
        s.set_time_window(None);
        let c = s.evaluate().unwrap();
        assert!(Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn resolution_switch_changes_arity() {
        let mut s = session();
        s.select_dataset("taxi").unwrap();
        s.select_resolution(0).unwrap();
        let coarse = s.evaluate().unwrap();
        s.select_resolution(2).unwrap();
        let fine = s.evaluate().unwrap();
        assert_eq!(coarse.len(), 5);
        assert_eq!(fine.len(), 64);
        // Totals are close (the bounded join loses only ε-edge points).
        let (a, b) = (coarse.total_count() as f64, fine.total_count() as f64);
        assert!((a - b).abs() / a < 0.02, "{a} vs {b}");
    }

    #[test]
    fn render_map_works_end_to_end() {
        let mut s = session();
        s.select_dataset("taxi").unwrap();
        s.select_resolution(1).unwrap();
        let img = s.render_map().unwrap();
        assert_eq!(img.image.width(), 512);
        assert_eq!(img.values.len(), 16);
        assert!(img.values.iter().any(Option::is_some));
    }

    #[test]
    fn preview_approximates_exact_counts() {
        let mut s = session();
        s.select_dataset("taxi").unwrap();
        s.select_resolution(0).unwrap(); // boroughs: large groups
        let exact = s.evaluate().unwrap();
        let preview = s.evaluate_preview(2_000).unwrap();
        assert_eq!(preview.len(), exact.len());
        for r in 0..exact.len() {
            let (e, p) = (
                exact.value(r).unwrap_or(0.0),
                preview.value(r).unwrap_or(0.0),
            );
            if e > 100.0 {
                let rel = (p - e).abs() / e;
                assert!(rel < 0.5, "region {r}: preview {p} vs exact {e} (rel {rel:.2})");
            }
        }
        // Total estimate lands in the right ballpark.
        let (te, tp) = (exact.total_count() as f64, preview.total_count() as f64);
        assert!((tp - te).abs() / te < 0.25, "totals {tp} vs {te}");
    }

    #[test]
    fn pan_and_zoom_move_the_window() {
        let mut s = session();
        let initial = s.view_window();
        s.zoom(0.5);
        let zoomed = s.view_window();
        assert!((zoomed.width() - initial.width() * 0.5).abs() < 1e-6);
        assert!(zoomed.center().approx_eq(initial.center(), 1e-6));
        s.pan(0.5, 0.0);
        let panned = s.view_window();
        assert!(panned.center().x > zoomed.center().x);
        assert_eq!(panned.width(), zoomed.width());
        s.reset_view();
        assert_eq!(s.view_window(), initial);
        // The zoomed map still renders.
        s.zoom(0.25);
        s.select_dataset("taxi").unwrap();
        let img = s.render_map().unwrap();
        assert_eq!(img.image.width(), 512);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let city = CityModel::nyc_like();
        let taxi = generate_taxi(&city, &TaxiConfig { rows: 500, seed: 1, start: 0, days: 2 });
        let mut catalog = DataCatalog::new();
        catalog.register("taxi", taxi);
        let pyramid = ResolutionPyramid::standard(&city.bbox(), 8, 4, 5);
        let s = UrbaneSession::new(
            SessionConfig {
                join: RasterJoinConfig::with_resolution(64),
                cache_capacity: 0,
                ..Default::default()
            },
            catalog,
            pyramid,
        )
        .unwrap();
        let a = s.evaluate().unwrap();
        let b = s.evaluate().unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "capacity 0 must bypass the cache");
        assert_eq!(s.cache_stats().hits, 0);
        assert_eq!(s.cache_stats().misses, 2);
    }

    #[test]
    fn cache_capacity_bounds_memory() {
        let mut s = session();
        s.select_dataset("taxi").unwrap();
        // More distinct queries than capacity.
        for day in 0..70 {
            s.set_time_window(Some(TimeRange::new(day * DAY, (day + 1) * DAY)));
            let _ = s.evaluate().unwrap();
        }
        assert!(lock(&s.cache).len() <= s.config.cache_capacity);
    }

    #[test]
    fn index_join_mode_matches_accurate_exactly() {
        let city = CityModel::nyc_like();
        let taxi = generate_taxi(&city, &TaxiConfig { rows: 4_000, seed: 7, start: 0, days: 10 });
        let pyramid = ResolutionPyramid::standard(&city.bbox(), 16, 8, 5);
        let mk = |mode| {
            let mut catalog = DataCatalog::new();
            catalog.register("taxi", taxi.clone());
            UrbaneSession::new(
                SessionConfig {
                    join: raster_join::RasterJoinConfig {
                        mode,
                        ..raster_join::RasterJoinConfig::with_resolution(256)
                    },
                    ..Default::default()
                },
                catalog,
                pyramid.clone(),
            )
            .unwrap()
        };
        let exact = mk(raster_join::ExecutionMode::Accurate);
        let indexed = mk(raster_join::ExecutionMode::IndexJoin);
        let a = exact.evaluate().unwrap();
        let b = indexed.evaluate().unwrap();
        assert_eq!(a.as_ref(), b.as_ref(), "two exact paths must agree bit-for-bit");
    }

    #[test]
    fn index_join_session_streams_from_a_store_file() {
        let city = CityModel::nyc_like();
        let taxi = generate_taxi(&city, &TaxiConfig { rows: 4_000, seed: 8, start: 0, days: 10 });
        let dir = std::env::temp_dir().join(format!("urbane-session-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("taxi.ubs");
        urbane_store::StoreBuilder::new().chunk_rows(512).write_file(&taxi, &path).unwrap();

        let mut in_mem = DataCatalog::new();
        in_mem.register("taxi", taxi);
        let mut cold = DataCatalog::new();
        cold.register_store("taxi", &path).unwrap();
        let pyramid = ResolutionPyramid::standard(&city.bbox(), 16, 8, 5);
        let config = SessionConfig {
            join: raster_join::RasterJoinConfig {
                mode: raster_join::ExecutionMode::IndexJoin,
                ..raster_join::RasterJoinConfig::with_resolution(256)
            },
            ..Default::default()
        };
        let warm = UrbaneSession::new(config.clone(), in_mem, pyramid.clone()).unwrap();
        let stored = UrbaneSession::new(config, cold, pyramid).unwrap();
        let a = warm.evaluate().unwrap();
        let b = stored.evaluate().unwrap();
        assert_eq!(a.as_ref(), b.as_ref(), "stored and in-memory joins must agree bit-for-bit");
        // The chunked path answered without ever materializing the table.
        assert!(!stored.catalog().is_resident("taxi").unwrap());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_catalog_is_a_config_error() {
        let city = CityModel::nyc_like();
        let pyramid = ResolutionPyramid::standard(&city.bbox(), 8, 4, 5);
        let err = match UrbaneSession::new(SessionConfig::default(), DataCatalog::new(), pyramid) {
            Ok(_) => panic!("empty catalog must be rejected"),
            Err(e) => e,
        };
        assert!(matches!(err, crate::UrbaneError::Config(_)), "{err:?}");
    }
}
