//! # urbane — the visual-analytics framework (headless reproduction)
//!
//! Urbane is the 3D visual-analytics system the demo integrates Raster Join
//! into. This crate reproduces its *data products* without a GUI toolkit:
//! every interaction a demo visitor performs maps to a query against this
//! API, and the latency of those queries is exactly what the demo showcases.
//!
//! * [`catalog`] — the data-set registry (taxi / 311 / crime / custom).
//! * [`resolution`] — the resolution pyramid (boroughs → neighborhoods →
//!   tracts) behind Urbane's resolution switcher.
//! * [`colormap`] — sequential / diverging color scales for choropleths.
//! * [`view::map`] — the map view: spatial aggregation at the active
//!   resolution, rendered to a choropleth image (Figure 1 of the paper).
//! * [`view::explore`] — the data-exploration view: per-region time series,
//!   cross-data-set comparison, neighborhood ranking and similarity (the
//!   architect workflow from the paper's introduction).
//! * [`service`] — the one query path: exact-key LRU → single-flight →
//!   degradation ladder over generation-safe datasets, shared by the HTTP
//!   server and the session.
//! * [`session`] — the interactive session: current filters, time range,
//!   resolution and viewport; every view update is one request to its
//!   [`UrbaneService`].

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod brush;
pub mod cache;
pub mod catalog;
pub mod colormap;
pub mod export;
pub mod guard;
pub mod resolution;
pub mod service;
pub mod session;
pub mod view;

pub use brush::Brush;
pub use cache::{CacheKey, CacheStats, Flight, QueryCache, SingleFlight};
pub use catalog::{ColdStore, DataCatalog};
pub use guard::{GuardPath, GuardReport, GuardedResult};
/// The executor configuration and modes the service and session types carry.
pub use raster_join::{ExecutionMode, RasterJoinConfig};
pub use resolution::ResolutionPyramid;
pub use service::{
    DatasetInfo, GuardOutcomes, QueryAnswer, QueryRequest, ServiceConfig, UrbaneService,
};
pub use session::{SessionConfig, UrbaneSession};

/// Errors from the framework layer.
#[derive(Debug, Clone, PartialEq)]
pub enum UrbaneError {
    /// Referenced an unregistered data set.
    UnknownDataset(String),
    /// Referenced an unknown resolution level.
    UnknownResolution(String),
    /// Underlying raster-join failure.
    Join(String),
    /// Underlying data-layer failure.
    Data(String),
    /// I/O failure when exporting images.
    Io(String),
    /// `.ubs` store failure (open, header decode, chunk read).
    Store(String),
    /// Invalid session/framework configuration.
    Config(String),
    /// The query was cancelled by its cancel handle.
    Cancelled,
    /// The query's deadline passed (and, for guarded evaluation, every
    /// fallback rung also failed to beat it).
    DeadlineExceeded,
    /// A worker panicked or an internal invariant broke; the session
    /// survives and stays usable.
    Internal(String),
}

impl std::fmt::Display for UrbaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UrbaneError::UnknownDataset(d) => write!(f, "unknown dataset: {d}"),
            UrbaneError::UnknownResolution(r) => write!(f, "unknown resolution: {r}"),
            UrbaneError::Join(m) => write!(f, "raster join error: {m}"),
            UrbaneError::Data(m) => write!(f, "data error: {m}"),
            UrbaneError::Io(m) => write!(f, "io error: {m}"),
            UrbaneError::Store(m) => write!(f, "store error: {m}"),
            UrbaneError::Config(m) => write!(f, "config error: {m}"),
            UrbaneError::Cancelled => write!(f, "query cancelled"),
            UrbaneError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            UrbaneError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for UrbaneError {}

impl From<raster_join::RasterJoinError> for UrbaneError {
    fn from(e: raster_join::RasterJoinError) -> Self {
        // Guardrail variants keep their type across the layer boundary so
        // the session can distinguish "user cancelled" from "query failed".
        match e {
            raster_join::RasterJoinError::Cancelled => UrbaneError::Cancelled,
            raster_join::RasterJoinError::DeadlineExceeded => UrbaneError::DeadlineExceeded,
            raster_join::RasterJoinError::Internal(m) => UrbaneError::Internal(m),
            other => UrbaneError::Join(other.to_string()),
        }
    }
}

impl From<urban_data::DataError> for UrbaneError {
    fn from(e: urban_data::DataError) -> Self {
        UrbaneError::Data(e.to_string())
    }
}

impl From<std::io::Error> for UrbaneError {
    fn from(e: std::io::Error) -> Self {
        UrbaneError::Io(e.to_string())
    }
}

/// Convenience alias for framework results.
pub type Result<T> = std::result::Result<T, UrbaneError>;
