//! The interactive session — what a demo visitor actually drives.
//!
//! A session is one analyst's interaction state (active data set,
//! resolution, time window, attribute filters, aggregate, pan/zoom window)
//! over an [`UrbaneService`] it owns. Every state change invalidates the
//! current view; re-rendering turns the state into one [`QueryRequest`] and
//! sends it to the service — *that* is the latency the demo showcases, and
//! E6 measures it per interaction kind. Identical queries hit the service's
//! exact-key LRU (repeated slider positions, back-and-forth panning); the
//! session keeps no cache, sample or index of its own.

use crate::catalog::DataCatalog;
use crate::guard::GuardedResult;
use crate::resolution::ResolutionPyramid;
use crate::service::{QueryAnswer, QueryRequest, ServiceConfig, UrbaneService};
use crate::view::map::{ChoroplethImage, MapView};
use crate::{CacheStats, Result, UrbaneError};
use raster_join::{CancelHandle, RasterJoinConfig};
use std::sync::Arc;
use std::time::Duration;
use urban_data::filter::Filter;
use urban_data::query::{AggKind, AggTable, SpatialAggQuery};
use urban_data::time::TimeRange;

/// Static session configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Raster-join configuration used by all views. Its `mode` is the
    /// execution mode of every evaluation, and its `spec` — a resolution or
    /// an ε — the canvas every evaluation runs at.
    pub join: RasterJoinConfig,
    /// Maximum cached query results (one LRU; 0 disables caching).
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

/// The deadline [`UrbaneSession::evaluate`] sends: far past any query the
/// full-fidelity rung can run, so an unguarded evaluation never degrades.
const UNGUARDED_DEADLINE: Duration = Duration::from_secs(24 * 60 * 60);

/// An interactive Urbane session.
pub struct UrbaneSession {
    config: SessionConfig,
    service: UrbaneService,
    // Interaction state.
    active_dataset: String,
    active_level: usize,
    time_window: Option<TimeRange>,
    attr_filters: Vec<Filter>,
    agg: AggKind,
    /// Visible world window (None = fit the whole region set).
    view_window: Option<urbane_geom::BoundingBox>,
}

impl UrbaneSession {
    /// Open a session over a service built from `catalog` and `pyramid`.
    /// The first catalog data set (alphabetically) is active. Fails with
    /// [`UrbaneError::Config`] on an empty catalog — a session needs data to
    /// explore.
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
        // One shard: the session's cache is a single exact LRU.
        let service = UrbaneService::new(
            ServiceConfig {
                join: config.join.clone(),
                cache_capacity: config.cache_capacity,
                cache_shards: 1,
                ..ServiceConfig::default()
            },
            catalog,
            pyramid,
        )?;
        Ok(UrbaneSession {
            config,
            service,
            active_dataset,
            active_level: 0,
            time_window: None,
            attr_filters: Vec::new(),
            agg: AggKind::Count,
            view_window: None,
        })
    }

    /// The service every evaluation goes through (residency, generations,
    /// cache and paging counters).
    pub fn service(&self) -> &UrbaneService {
        &self.service
    }

    /// The resolution pyramid.
    pub fn pyramid(&self) -> &ResolutionPyramid {
        self.service.pyramid()
    }

    /// Switch the active data set. Validates the name only — a cold store
    /// stays cold until a query needs its rows.
    pub fn select_dataset(&mut self, name: &str) -> Result<()> {
        self.service
            .dataset_generation(name)
            .ok_or_else(|| UrbaneError::UnknownDataset(name.to_string()))?;
        self.active_dataset = name.to_string();
        Ok(())
    }

    /// Switch the active resolution level.
    pub fn select_resolution(&mut self, level: usize) -> Result<()> {
        self.pyramid().level(level)?; // validate
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
                .pyramid()
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
        self.service.cache_stats()
    }

    /// Assemble the current query from interaction state.
    pub fn current_query(&self) -> SpatialAggQuery {
        self.request().to_query()
    }

    /// The interaction state as one service request: the session's mode at
    /// the service's base canvas, no deadline yet.
    fn request(&self) -> QueryRequest {
        QueryRequest {
            dataset: self.active_dataset.clone(),
            level: self.active_level,
            agg: self.agg.clone(),
            filters: self
                .time_window
                .map(Filter::Time)
                .into_iter()
                .chain(self.attr_filters.iter().cloned())
                .collect(),
            mode: self.config.join.mode,
            resolution: None,
            deadline: None,
        }
    }

    /// Evaluate the current view's aggregates at full fidelity (cached).
    /// Never degrades: an answer from any other rung of the ladder is
    /// reported as [`UrbaneError::DeadlineExceeded`].
    pub fn evaluate(&self) -> Result<Arc<AggTable>> {
        Ok(self.full_answer()?.table)
    }

    /// [`evaluate`](Self::evaluate)'s answer, with its regions and report.
    fn full_answer(&self) -> Result<QueryAnswer> {
        let answer = self.service.query(&self.request().deadline(UNGUARDED_DEADLINE))?;
        if answer.report.degraded() {
            return Err(UrbaneError::DeadlineExceeded);
        }
        Ok(answer)
    }

    /// Evaluate the current view under a deadline, degrading rather than
    /// failing: full query → coarser bounded canvas → sample preview (see
    /// [`crate::guard`]).
    ///
    /// The grace window for the degraded rung extends half the deadline past
    /// it, so the whole ladder answers within ≈1.5× the deadline (plus the
    /// preview's small fixed cost). A raised `cancel` handle aborts the
    /// ladder promptly with [`UrbaneError::Cancelled`]; errors degradation
    /// cannot fix (unknown dataset, invalid config) propagate unchanged.
    pub fn evaluate_guarded(
        &self,
        deadline: Duration,
        cancel: Option<&CancelHandle>,
    ) -> Result<GuardedResult> {
        let answer = self.service.query_cancellable(&self.request().deadline(deadline), cancel)?;
        Ok(GuardedResult { table: answer.table, report: answer.report })
    }

    /// Fast approximate evaluation for in-flight interactions (slider
    /// drags): the current query on a `sample_rows`-row uniform sample,
    /// COUNT/SUM scaled back up ([`UrbaneService::preview`]). Not cached —
    /// previews are transient by design.
    pub fn evaluate_preview(&self, sample_rows: usize) -> Result<AggTable> {
        self.service.preview(&self.request(), sample_rows)
    }

    /// Render the current map view through the session's pan/zoom window:
    /// [`evaluate`](Self::evaluate)'s answer, painted. The image carries the
    /// answer's error bound.
    pub fn render_map(&self) -> Result<ChoroplethImage> {
        let vp = urbane_geom::projection::Viewport::fitted(
            self.view_window(),
            self.config.map_width,
            self.config.map_height,
        );
        Ok(MapView::with_defaults().render_viewport(&self.full_answer()?, &vp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raster_join::ExecutionMode;
    use urban_data::gen::city::CityModel;
    use urban_data::gen::taxi::{generate_taxi, TaxiConfig};
    use urban_data::time::DAY;

    /// A 256² session configuration in `mode`.
    fn in_mode(mode: ExecutionMode) -> SessionConfig {
        SessionConfig {
            join: RasterJoinConfig { mode, ..RasterJoinConfig::with_resolution(256) },
            ..Default::default()
        }
    }

    /// `table` written as a `.ubs` store in a fresh per-test directory.
    fn store_file(table: &urban_data::PointTable, tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("urbane-session-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("taxi.ubs");
        urbane_store::StoreBuilder::new().chunk_rows(512).write_file(table, &path).unwrap();
        path
    }

    fn session() -> UrbaneSession {
        session_in(ExecutionMode::Bounded)
    }

    fn session_in(mode: ExecutionMode) -> UrbaneSession {
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
        UrbaneSession::new(in_mode(mode), catalog, pyramid).unwrap()
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
        s.evaluate().unwrap(); // first miss: the doorkeeper remembers the key
        let a = s.evaluate().unwrap(); // second miss: admitted
        let b = s.evaluate().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "third evaluation must hit the cache");
        let st = s.cache_stats();
        assert_eq!((st.hits, st.misses), (1, 2));
    }

    #[test]
    fn interaction_changes_invalidate() {
        let mut s = session();
        s.select_dataset("taxi").unwrap();
        s.evaluate().unwrap();
        let a = s.evaluate().unwrap(); // admitted on its second miss
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

    /// The map carries the painted answer's bound: the canvas ε in a
    /// bounded session, 0 in an accurate one.
    #[test]
    fn render_map_reports_the_answers_error_bound() {
        for (mode, exact) in [(ExecutionMode::Bounded, false), (ExecutionMode::Accurate, true)] {
            let s = session_in(mode);
            let guarded = s.evaluate_guarded(UNGUARDED_DEADLINE, None).unwrap();
            let bound = guarded.report.error_bound;
            assert_eq!(bound == Some(0.0), exact, "{mode:?}: {bound:?}");
            assert!(bound.unwrap() >= 0.0);
            assert_eq!(s.render_map().unwrap().error_bound, bound, "{mode:?}");
        }
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
        // More distinct queries than capacity, each asked twice so that it
        // is admitted.
        for day in 0..70 {
            s.set_time_window(Some(TimeRange::new(day * DAY, (day + 1) * DAY)));
            let _ = s.evaluate().unwrap();
            let _ = s.evaluate().unwrap();
        }
        assert_eq!(s.service().cache_len(), s.config.cache_capacity);
    }

    #[test]
    fn cache_is_a_real_lru() {
        // Default capacity (64), far more distinct windows than that, and
        // the first window re-visited after every new one: a real LRU never
        // evicts it.
        let mut s = session();
        s.select_dataset("taxi").unwrap();
        let day = |d: i64| Some(TimeRange::new(d * DAY, (d + 1) * DAY));
        s.set_time_window(day(0));
        s.evaluate().unwrap();
        let first = s.evaluate().unwrap(); // admitted on its second miss
        for d in 1..200 {
            s.set_time_window(day(d));
            s.evaluate().unwrap();
            s.evaluate().unwrap(); // admitted, so the cache fills and evicts
            s.set_time_window(day(0));
            let again = s.evaluate().unwrap();
            assert!(Arc::ptr_eq(&first, &again), "window 0 evicted after {d} other windows");
        }
        let st = s.cache_stats();
        assert_eq!((st.hits, st.misses), (199, 400), "every re-visit must hit");
        assert_eq!(s.service().cache_len(), 64);
    }

    #[test]
    fn index_join_mode_matches_accurate_exactly() {
        let city = CityModel::nyc_like();
        let taxi = generate_taxi(&city, &TaxiConfig { rows: 4_000, seed: 7, start: 0, days: 10 });
        let pyramid = ResolutionPyramid::standard(&city.bbox(), 16, 8, 5);
        let mk = |mode| {
            let mut catalog = DataCatalog::new();
            catalog.register("taxi", taxi.clone());
            UrbaneSession::new(in_mode(mode), catalog, pyramid.clone()).unwrap()
        };
        let exact = mk(ExecutionMode::Accurate);
        let indexed = mk(ExecutionMode::IndexJoin);
        let a = exact.evaluate().unwrap();
        let b = indexed.evaluate().unwrap();
        assert_eq!(a.as_ref(), b.as_ref(), "two exact paths must agree bit-for-bit");
    }

    #[test]
    fn index_join_session_streams_from_a_store_file() {
        let city = CityModel::nyc_like();
        let taxi = generate_taxi(&city, &TaxiConfig { rows: 4_000, seed: 8, start: 0, days: 10 });
        let path = store_file(&taxi, "store");
        let mut in_mem = DataCatalog::new();
        in_mem.register("taxi", taxi);
        let mut cold = DataCatalog::new();
        cold.register_store("taxi", &path).unwrap();
        let pyramid = ResolutionPyramid::standard(&city.bbox(), 16, 8, 5);
        let config = in_mode(ExecutionMode::IndexJoin);
        let warm = UrbaneSession::new(config.clone(), in_mem, pyramid.clone()).unwrap();
        let stored = UrbaneSession::new(config, cold, pyramid).unwrap();
        let a = warm.evaluate().unwrap();
        let b = stored.evaluate().unwrap();
        assert_eq!(a.as_ref(), b.as_ref(), "stored and in-memory joins must agree bit-for-bit");
        // The chunked path answered without ever materializing the table.
        assert_eq!(stored.service().dataset_resident("taxi"), Some(false));

        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn index_join_dataset_switch_leaves_a_cold_store_cold() {
        let city = CityModel::nyc_like();
        let taxi = generate_taxi(&city, &TaxiConfig { rows: 3_000, seed: 9, start: 0, days: 10 });
        let crime = urban_data::gen::events::generate_crime(
            &city,
            &urban_data::gen::events::EventConfig::month(1_000, 2, 0),
        );
        let path = store_file(&taxi, "switch");
        let mut catalog = DataCatalog::new();
        catalog.register("crime", crime);
        catalog.register_store("taxi", &path).unwrap();
        let pyramid = ResolutionPyramid::standard(&city.bbox(), 16, 8, 5);
        let config = in_mode(ExecutionMode::IndexJoin);
        let mut s = UrbaneSession::new(config, catalog, pyramid).unwrap();
        assert_eq!(s.active_dataset(), "crime");
        s.select_dataset("taxi").unwrap();
        assert!(s.evaluate().unwrap().total_count() > 0);
        // Neither the switch nor the streamed join paged the store in.
        assert_eq!(s.service().dataset_resident("taxi"), Some(false));
        assert_eq!(s.service().store_paging().page_ins, 0);

        std::fs::remove_dir_all(path.parent().unwrap()).ok();
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
