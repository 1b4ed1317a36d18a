//! # spatial-index — the baselines Raster Join is compared against
//!
//! The paper positions Raster Join against the "traditional" way of
//! evaluating spatial aggregation: build a spatial index over the region
//! polygons, then probe it once per point, finishing each candidate with an
//! exact point-in-polygon (PIP) test. This crate implements that family:
//!
//! * [`naive`] — indexless nested-loop join (the correctness ground truth),
//! * [`packed`] — the R-tree: a packed, pointer-free tree over region
//!   bounding boxes ([`PackedRegionIndex`], the experiments' R-tree
//!   baseline),
//! * [`grid`] — a uniform grid with the classic *full-cover* shortcut
//!   (cells entirely inside one region skip the PIP test) and cell-local
//!   PIP (a boundary cell tests only the edges that can decide its
//!   points); [`GridIndex`] is the index the server's exact mode probes,
//! * [`executor`] — the index-join aggregation executor, generic over any
//!   [`RegionIndex`], with a multithreaded variant,
//! * [`store_exec`] — the exact join over an out-of-core `.ubs` store,
//!   streamed zone by zone, and its budget-polled in-memory twin,
//! * [`preagg`] — the pre-aggregation (data-cube) approach the paper calls
//!   out as *unsuitable*: instant for cube-aligned queries, but structurally
//!   unable to answer ad-hoc polygons or ad-hoc filter predicates.
//!
//! Every executor answers the same [`urban_data::SpatialAggQuery`] and
//! returns the same [`urban_data::AggTable`], so results are directly
//! comparable with `raster-join`'s.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod executor;
pub mod grid;
pub mod naive;
pub mod packed;
pub mod preagg;
pub mod store_exec;

pub use executor::{index_join, index_join_parallel};
pub use grid::GridIndex;
pub use naive::naive_join;
pub use packed::PackedRegionIndex;
pub use preagg::{CubeQueryError, PreAggCube};
pub use store_exec::{index_join_budgeted, index_join_stored, StoredJoinStats};

use urban_data::{RegionId, RegionSet};
use urbane_geom::Point;

/// A spatial index over a region set, probed point-at-a-time.
///
/// Probes write candidate ids into a caller-provided scratch vector (cleared
/// by the probe) so the per-point hot loop allocates nothing and the index
/// stays `Sync` for the parallel executor.
pub trait RegionIndex: Sync {
    /// Probe the index with a point.
    ///
    /// The returned candidate list (when [`Probe::Candidates`]) must be a
    /// **superset** of the regions truly containing `p` — the executor
    /// always verifies candidates with an exact point-in-polygon test.
    /// [`Probe::Resolved`] may be returned when the index can already prove
    /// the point lies inside exactly one region (the grid full-cover
    /// shortcut), skipping the PIP test.
    fn probe_into(&self, p: Point, out: &mut Vec<RegionId>) -> Probe;

    /// Every exact join's row body: hand each row's payload to `credit`
    /// once for every region holding the row's point, row by row in the
    /// given order (the order a region's state folds its rows in is the
    /// joins' bit-identity contract). The provided body probes, then runs
    /// `MultiPolygon::contains` on each candidate; an index that can answer
    /// a cell from facts of its own overrides it and must return the same
    /// regions for every point.
    fn join_rows<T: Copy>(
        &self,
        regions: &RegionSet,
        rows: impl IntoIterator<Item = (Point, T)>,
        mut credit: impl FnMut(RegionId, T),
    ) {
        let mut candidates = Vec::with_capacity(8);
        // lint: allow(cancel-poll-reachability) one zone's rows; its callers poll once per zone in `ZoneWalk::run`
        for (p, t) in rows {
            match self.probe_into(p, &mut candidates) {
                Probe::Empty => {}
                Probe::Resolved(id) => credit(id, t),
                Probe::Candidates => {
                    for &id in &candidates {
                        if regions.geometry(id).contains(p) {
                            credit(id, t);
                        }
                    }
                }
            }
        }
    }

    /// Diagnostic: rough memory footprint in bytes.
    fn memory_bytes(&self) -> usize;

    /// Diagnostic: index name for bench tables.
    fn name(&self) -> &'static str;
}

/// Result of probing an index with one point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The point is provably inside exactly this region — no PIP needed.
    Resolved(RegionId),
    /// Candidate regions were written to the scratch vector; each still
    /// needs an exact PIP test.
    Candidates,
    /// Provably in no region.
    Empty,
}
