//! # urban-data — spatio-temporal point tables and synthetic urban data
//!
//! The data-management substrate of the Urbane reproduction:
//!
//! * columnar (structure-of-arrays) point tables with typed attribute
//!   columns ([`table`]),
//! * ad-hoc filter conditions over attributes and time — the query feature
//!   that defeats pre-aggregation and motivates Raster Join ([`filter`]),
//! * timestamps, ranges, and calendar bucketing ([`time`]),
//! * named region sets (neighborhoods, zips, boroughs…) ([`region`]); each
//!   set is flat — drilling between resolutions is `urbane`'s
//!   `ResolutionPyramid`, one region set per level, not a roll-up,
//! * synthetic generators that stand in for the NYC open data sets the demo
//!   uses — taxi trips, 311 complaints, crime events — plus region-polygon
//!   generators (Voronoi neighborhoods, grids, borough outlines) ([`gen`]),
//! * CSV and binary I/O ([`csv`], [`binfmt`]).
//!
//! The generators reproduce the statistical properties the experiments
//! depend on (spatial hotspot skew, daily/weekly temporal rhythm, attribute
//! marginals, cardinalities) — see DESIGN.md §2 for the substitution
//! rationale.

#![forbid(unsafe_code)]

// Library paths must surface typed errors, not panic on malformed data;
// tests are exempt — an unwrap there *is* the assertion.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod binfmt;
pub mod binned;
pub mod csv;
pub mod filter;
pub mod gen;
pub mod hilbert;
pub mod query;
pub mod region;
pub mod sampling;
pub mod schema;
pub mod stats;
pub mod table;
pub mod time;

pub use binned::BinnedPointTable;
pub use filter::{Filter, FilterSet};
pub use query::{AggKind, AggState, AggTable, SpatialAggQuery};
pub use region::{RegionId, RegionSet};
pub use schema::{AttrType, Schema};
pub use table::{PointTable, ZoneFooter, ZONE_ROWS};
pub use time::{TimeBucket, TimeRange, Timestamp};

/// Errors from data-layer operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// Referenced a column that does not exist.
    UnknownColumn(String),
    /// Row/column arity or type mismatch.
    Schema(String),
    /// CSV / binary decode failure.
    Decode(String),
    /// Container magic/version mismatch: the bytes belong to a different
    /// format (e.g. a `.ubs` store handed to the legacy `.bin` decoder),
    /// not to a truncated or corrupted file of this one.
    Format { expected: &'static str, found: String },
    /// A parallel worker died mid-computation; carries the panic message so
    /// the failure surfaces as a diagnosable error instead of tearing down
    /// the caller.
    Worker(String),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            DataError::Schema(m) => write!(f, "schema error: {m}"),
            DataError::Decode(m) => write!(f, "decode error: {m}"),
            DataError::Format { expected, found } => {
                write!(f, "format mismatch: expected {expected}, found {found}")
            }
            DataError::Worker(m) => write!(f, "worker panicked: {m}"),
        }
    }
}

impl std::error::Error for DataError {}

/// Convenience alias for data results.
pub type Result<T> = std::result::Result<T, DataError>;
