//! # urbane-verify — exact-oracle differential verification
//!
//! The paper's headline correctness claim is quantitative: the *bounded*
//! Raster Join variant returns aggregates whose per-point positional error
//! is at most ε (half a pixel diagonal), and the *accurate* hybrid variant
//! removes even that by resolving boundary pixels exactly. The rest of the
//! workspace only ever checked raster-vs-raster bit-identity (tilings,
//! row orders, prepared plans); nothing measured the bound itself. This crate
//! is that missing ground-truth layer:
//!
//! * [`oracle`] — an exact point-in-polygon aggregation built directly on
//!   the robust predicates in `urbane-geom`, sharing no canvas/tile/raster
//!   code with the executors it judges.
//! * [`budget`] — the analytic per-region error budget for the approximate
//!   modes: only points within a pixel-derived band around a region's
//!   boundary can be misassigned, so `|approx − exact|` is bounded by the
//!   band's point count (COUNT) / absolute value mass (SUM).
//! * [`corpus`] — seeded randomized workloads (points × regions × query)
//!   drawn from the shared generators in `urban_data::gen`.
//! * [`runner`] — executes every workload through bounded / weighted /
//!   accurate × tiling {`MAX_TILE`, one tile} × row order {generator,
//!   clustered}, the prepared raster of each mode, and the index join, and
//!   diffs each result against the oracle and its budget.
//! * [`metamorphic`] — oracle-free laws (translation/scale invariance,
//!   point-permutation invariance, region-split and filter-partition
//!   additivity) that catch bugs a biased oracle could share.
//! * [`report`] — aggregation into a human table and a machine-readable
//!   `VERIFY_report.json`.
//!
//! The `verify` binary (also reachable via `scripts/verify.sh` and the
//! ci.sh `verify` stage) runs the whole harness; `cargo test` runs a
//! smaller corpus through the same code paths.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod budget;
pub mod corpus;
pub mod metamorphic;
pub mod oracle;
pub mod report;
pub mod runner;

pub use budget::{ErrorBudget, RegionBudget, BOUNDED_BAND, WEIGHTED_BAND};
pub use corpus::{corpus, scenario, zoned_scenario, Scenario};
pub use oracle::{contains, oracle_join, polygon_side, ring_side, Side};
pub use report::VerifyReport;
pub use runner::{verify_scenario, RunRecord};

/// Errors from the verification harness.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// Data-layer failure (unknown column, schema mismatch…).
    Data(String),
    /// Geometry failure while building a workload.
    Geometry(String),
    /// An executor under test failed outright.
    Execution(String),
    /// Report serialization / IO failure.
    Report(String),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Data(m) => write!(f, "data error: {m}"),
            VerifyError::Geometry(m) => write!(f, "geometry error: {m}"),
            VerifyError::Execution(m) => write!(f, "execution error: {m}"),
            VerifyError::Report(m) => write!(f, "report error: {m}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<urbane_geom::GeomError> for VerifyError {
    fn from(e: urbane_geom::GeomError) -> Self {
        VerifyError::Geometry(e.to_string())
    }
}

impl From<raster_join::RasterJoinError> for VerifyError {
    fn from(e: raster_join::RasterJoinError) -> Self {
        VerifyError::Execution(e.to_string())
    }
}

/// Convenience alias for harness results.
pub type Result<T> = std::result::Result<T, VerifyError>;
