//! # raster-join — GPU-rasterization-based spatial aggregation
//!
//! The paper's core contribution, reimplemented on the `gpu-raster`
//! software pipeline. Raster Join evaluates
//!
//! ```sql
//! SELECT AGG(a_i) FROM P, R
//! WHERE P.loc INSIDE R.geometry [AND filterCondition]* GROUP BY R.id
//! ```
//!
//! by *drawing* both relations:
//!
//! 1. **Point pass** — every point surviving the ad-hoc filters is rendered
//!    as one fragment; additive blending accumulates per-pixel
//!    `(count, Σvalue)` (plus min/max channels when the aggregate needs
//!    them). One linear scan over `P`, no index, no synchronization.
//! 2. **Polygon pass** — each region is scanline-filled and the covered
//!    pixels' accumulators are folded into the region's aggregate state.
//!    The canvas is planned from the region set, never from the query, so
//!    this raster is built once per (regions, canvas, mode) as a
//!    [`PreparedRasterJoin`] ([`prepared`]): row runs of covered pixels per
//!    region and tile, replayed by every query.
//!
//! Because points are snapped to pixel centers, a point within half a pixel
//! diagonal of a region boundary may be mis-assigned: the **bounded** variant
//! ([`bounded`]) reports exactly that ε bound (in world units, chosen via
//! the canvas resolution — [`canvas`]); the **weighted** variant
//! ([`weighted`]) folds boundary pixels by the area fraction each region
//! covers; the **accurate** variant ([`accurate`]) additionally marks every
//! boundary pixel with conservative edge traversal and resolves the points
//! inside them with exact point-in-polygon tests, producing results
//! identical to an exact join.
//!
//! The public entry point is [`RasterJoin`] ([`executor`]), configured by
//! [`RasterJoinConfig`]: error bound or explicit resolution, canvas tiling
//! (GPU texture-size limits), mode and injected faults. Tiles run one after
//! another.
//! [`RasterJoin::execute_store`] prepares the region raster and replays it;
//! [`RasterJoin::execute_pass`] replays one a caller keeps, drawing the
//! points ([`PassSource::Draw`]), keeping the drawn [`PointPass`] or
//! resolving a kept one instead of drawing.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod accurate;
pub mod bounded;
pub mod budget;
pub mod canvas;
pub mod compiled;
pub mod executor;
pub mod fault;
pub mod prepared;
pub mod weighted;

pub use budget::{CancelHandle, QueryBudget};
pub use canvas::{CanvasPlan, CanvasSpec};
pub use compiled::{
    PointStore, Reach, SetBits, ZoneColumns, ZonePlan, ZoneSource, ZoneStats, ZoneWalk,
};
#[doc(hidden)]
pub use executor::MIN_AUTO_BIN_POINTS;
pub use executor::{ExecutionMode, RasterJoin, RasterJoinConfig, RasterJoinResult};
pub use fault::FaultPlan;
pub use prepared::{PassSource, PointPass, PreparedRasterJoin};

/// Errors from raster-join execution.
#[derive(Debug, Clone, PartialEq)]
pub enum RasterJoinError {
    /// Data-layer failure (unknown column, schema mismatch…).
    Data(String),
    /// Geometry failure (an invalid or unparseable polygon…).
    Geometry(String),
    /// Invalid configuration (zero resolution, empty extent…).
    Config(String),
    /// The query's cancel flag was raised; partial work was discarded.
    Cancelled,
    /// The query's deadline passed before execution finished.
    DeadlineExceeded,
    /// A tile panicked or an internal invariant broke; the query failed
    /// but the process and session survive.
    Internal(String),
}

impl std::fmt::Display for RasterJoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RasterJoinError::Data(m) => write!(f, "data error: {m}"),
            RasterJoinError::Geometry(m) => write!(f, "geometry error: {m}"),
            RasterJoinError::Config(m) => write!(f, "config error: {m}"),
            RasterJoinError::Cancelled => write!(f, "query cancelled"),
            RasterJoinError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            RasterJoinError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for RasterJoinError {}

impl From<urban_data::DataError> for RasterJoinError {
    fn from(e: urban_data::DataError) -> Self {
        RasterJoinError::Data(e.to_string())
    }
}

impl From<urbane_geom::GeomError> for RasterJoinError {
    fn from(e: urbane_geom::GeomError) -> Self {
        RasterJoinError::Geometry(e.to_string())
    }
}

/// Convenience alias for raster-join results.
pub type Result<T> = std::result::Result<T, RasterJoinError>;
