//! Query compilation: evaluate the filter set once per query, not once per
//! tile per point.
//!
//! The one-shot executor used to hand every tile kernel the raw
//! `SpatialAggQuery`, and each kernel re-compiled and re-probed the filter
//! conjunction for all N rows — up to three times per row for MIN/MAX
//! aggregates, times the number of tiles. [`CompiledQuery`] hoists that work
//! to query start: the conjunction is evaluated exactly once per row into a
//! shared bitmask, and every tile (on every worker thread) answers
//! "does row i survive the filters?" with a single bit test. The aggregate
//! value column is resolved once alongside, so kernels read `column[i]`
//! directly instead of gathering per-chunk `Vec<f32>` copies.
//!
//! [`PointStore`] pairs the table with an optional [`BinnedPointTable`] and
//! owns the per-tile candidate logic: given a tile's world box it returns the
//! (sorted, ascending) indices that might land in the tile, or `None` when a
//! full scan is no worse. Ascending order matters — f32 blending is not
//! associative, so feeding each pixel its points in the same relative order
//! as the unbinned scan is what keeps binned results bit-identical.

use crate::budget::QueryBudget;
use crate::Result;
use urban_data::binned::BinnedPointTable;
use urban_data::filter::Filter;
use urban_data::query::{AggKind, SpatialAggQuery};
use urban_data::time::TimeRange;
use urban_data::PointTable;
use urbane_geom::{BoundingBox, Point};

/// Rows per budget poll while building the filter bitmask (a multiple of 64
/// so chunk edges align with mask words).
const MASK_CHUNK: usize = 1 << 16;

/// One filter condition bound to its table columns — the per-row dispatch
/// and column lookup are hoisted out of the scan loop.
enum Pred<'t> {
    /// Attribute in `[min, max]` (closed; NaN never matches).
    Range { vals: &'t [f32], min: f32, max: f32 },
    /// Attribute equals a categorical code.
    Equals { vals: &'t [f32], value: f32 },
    /// Timestamp within a half-open range.
    Time { ts: &'t [i64], range: TimeRange },
    /// Location within a closed box.
    Spatial { xs: &'t [f64], ys: &'t [f64], bbox: BoundingBox },
}

impl Pred<'_> {
    fn bind<'t>(f: &Filter, points: &'t PointTable) -> Result<Pred<'t>> {
        Ok(match f {
            Filter::AttrRange { column, min, max } => Pred::Range {
                vals: points.column(points.schema().index_of(column)?),
                min: *min,
                max: *max,
            },
            Filter::AttrEquals { column, value } => Pred::Equals {
                vals: points.column(points.schema().index_of(column)?),
                value: *value,
            },
            Filter::Time(r) => Pred::Time { ts: points.timestamps(), range: *r },
            Filter::SpatialBox(b) => {
                Pred::Spatial { xs: points.xs(), ys: points.ys(), bbox: *b }
            }
        })
    }

    /// Does row `i` satisfy this condition? Identical semantics to
    /// [`Filter`]'s row probe.
    #[inline]
    fn test(&self, i: usize) -> bool {
        match self {
            Pred::Range { vals, min, max } => {
                let v = vals[i];
                v >= *min && v <= *max
            }
            Pred::Equals { vals, value } => vals[i] == *value,
            Pred::Time { ts, range } => range.contains(ts[i]),
            Pred::Spatial { xs, ys, bbox } => bbox.contains(Point::new(xs[i], ys[i])),
        }
    }
}

/// Evaluate a filter conjunction over all rows into a bitmask: the first
/// condition fills the mask with a tight columnar scan, each further one
/// clears the set bits it rejects (only surviving rows are re-probed).
fn build_mask(preds: &[Pred<'_>], n: usize, budget: &QueryBudget) -> Result<Vec<u64>> {
    let mut bits = vec![0u64; n.div_ceil(64)];
    for (k, pred) in preds.iter().enumerate() {
        let mut start = 0usize;
        while start < n {
            budget.check()?;
            let end = (start + MASK_CHUNK).min(n);
            let w0 = start >> 6;
            if k == 0 {
                // Fill whole words in a register — one store per 64 rows.
                for (off, slot) in bits[w0..end.div_ceil(64)].iter_mut().enumerate() {
                    let lo = (w0 + off) << 6;
                    let hi = (lo + 64).min(n);
                    let mut word = 0u64;
                    for i in lo..hi {
                        word |= u64::from(pred.test(i)) << (i & 63);
                    }
                    *slot = word;
                }
            } else {
                for (off, slot) in bits[w0..end.div_ceil(64)].iter_mut().enumerate() {
                    let base = (w0 + off) << 6;
                    let mut word = *slot;
                    let mut pending = word;
                    while pending != 0 {
                        let b = pending.trailing_zeros() as usize;
                        if !pred.test(base | b) {
                            word &= !(1u64 << b);
                        }
                        pending &= pending - 1;
                    }
                    *slot = word;
                }
            }
            start = end;
        }
    }
    Ok(bits)
}

/// A query compiled against one table: resolved aggregate column plus a
/// shared filter bitmask. Immutable after construction — share it freely
/// across tile workers.
pub(crate) struct CompiledQuery {
    /// The aggregate being computed.
    pub(crate) agg: AggKind,
    /// Resolved value column (None for COUNT).
    pub(crate) col: Option<usize>,
    /// One bit per row, set when the row survives every filter. `None` when
    /// the query has no filters (everything matches — skip the bit tests).
    mask: Option<Vec<u64>>,
}

impl CompiledQuery {
    /// Compile `query` against `points`, evaluating the filter set once.
    /// Polls `budget` while scanning so huge tables stay cancellable.
    pub(crate) fn new(
        points: &PointTable,
        query: &SpatialAggQuery,
        budget: &QueryBudget,
    ) -> Result<Self> {
        let agg = query.agg_kind();
        let col = agg.resolve(points)?;
        let mask = if query.filters.is_empty() {
            None
        } else {
            let preds = query
                .filters
                .filters()
                .iter()
                .map(|f| Pred::bind(f, points))
                .collect::<Result<Vec<_>>>()?;
            Some(build_mask(&preds, points.len(), budget)?)
        };
        Ok(CompiledQuery { agg, col, mask })
    }

    /// Does row `i` survive the filters? One bit test after compilation.
    #[inline]
    pub(crate) fn matches(&self, i: usize) -> bool {
        match &self.mask {
            None => true,
            Some(bits) => bits[i >> 6] & (1u64 << (i & 63)) != 0,
        }
    }

    /// Fill `out` with the surviving rows of `start..end` (ascending).
    pub(crate) fn select_range(&self, start: usize, end: usize, out: &mut Vec<u32>) {
        out.clear();
        match &self.mask {
            None => out.extend((start..end).map(|i| i as u32)),
            Some(_) => out.extend((start..end).filter(|&i| self.matches(i)).map(|i| i as u32)),
        }
    }

    /// Fill `out` with the surviving rows of `candidates` (order preserved).
    pub(crate) fn select_from(&self, candidates: &[u32], out: &mut Vec<u32>) {
        out.clear();
        match &self.mask {
            None => out.extend_from_slice(candidates),
            Some(_) => {
                out.extend(candidates.iter().copied().filter(|&i| self.matches(i as usize)))
            }
        }
    }
}

/// A point table plus its (optional) spatial bins — what tile kernels scan.
///
/// Construct with [`PointStore::plain`] for the classic full-scan path or
/// [`PointStore::with_bins`] to enable per-tile candidate pruning. The store
/// is `Copy`-cheap (two references) and shared across tile workers.
#[derive(Debug, Clone, Copy)]
pub struct PointStore<'a> {
    table: &'a PointTable,
    bins: Option<&'a BinnedPointTable>,
}

impl<'a> PointStore<'a> {
    /// A store that always scans the full table.
    pub fn plain(table: &'a PointTable) -> Self {
        PointStore { table, bins: None }
    }

    /// A store with spatial bins for per-tile pruning.
    ///
    /// # Panics
    /// Panics when `bins` was built over a different number of rows than
    /// `table` holds — a stale index would silently produce wrong answers.
    pub fn with_bins(table: &'a PointTable, bins: &'a BinnedPointTable) -> Self {
        assert_eq!(
            bins.len(),
            table.len(),
            "binned index covers {} rows but the table has {}",
            bins.len(),
            table.len()
        );
        PointStore { table, bins: Some(bins) }
    }

    /// The underlying table.
    #[inline]
    pub fn table(&self) -> &'a PointTable {
        self.table
    }

    /// Whether spatial bins are attached.
    pub fn is_binned(&self) -> bool {
        self.bins.is_some()
    }

    /// The candidate rows for a tile covering `world`, sorted ascending, or
    /// `None` when the kernel should scan all rows (no bins, the tile covers
    /// the whole grid, or pruning found nothing to drop). Candidates are a
    /// conservative superset — out-of-tile rows are still culled by the
    /// half-open viewport projection, exactly as in the full scan.
    pub(crate) fn candidates(&self, world: &BoundingBox) -> Option<Vec<u32>> {
        let bins = self.bins?;
        if bins.is_empty() || bins.covered_by(world) {
            return None;
        }
        let mut out = Vec::new();
        bins.candidates_into(world, &mut out);
        if out.len() == self.table.len() {
            return None;
        }
        // Cell-major → global index order: the blend order per pixel must
        // match the unbinned scan bit-for-bit.
        out.sort_unstable();
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urban_data::filter::Filter;
    use urban_data::schema::{AttrType, Schema};
    use urban_data::time::TimeRange;
    use urbane_geom::Point;

    fn table(n: usize) -> PointTable {
        let schema = Schema::new([("v", AttrType::Numeric)]).unwrap();
        let mut t = PointTable::new(schema);
        for i in 0..n {
            let x = (i.wrapping_mul(104_729) % 1_000) as f64 / 10.0;
            let y = (i.wrapping_mul(15_485_863) % 1_000) as f64 / 10.0;
            t.push(Point::new(x, y), i as i64, &[i as f32]).unwrap();
        }
        t
    }

    #[test]
    fn mask_agrees_with_direct_probing() {
        let t = table(500);
        let q = SpatialAggQuery::count().filter(Filter::Time(TimeRange::new(100, 400)));
        let cq = CompiledQuery::new(&t, &q, &QueryBudget::unlimited()).unwrap();
        let direct = q.filters.compile(&t).unwrap();
        for i in 0..t.len() {
            assert_eq!(cq.matches(i), direct.matches(i), "row {i}");
        }
        let mut out = Vec::new();
        cq.select_range(0, t.len(), &mut out);
        assert_eq!(out.len(), 300);
    }

    #[test]
    fn filterless_query_selects_everything() {
        let t = table(100);
        let cq = CompiledQuery::new(&t, &SpatialAggQuery::count(), &QueryBudget::unlimited())
            .unwrap();
        assert!(cq.matches(0) && cq.matches(99));
        let mut out = Vec::new();
        cq.select_range(10, 20, &mut out);
        assert_eq!(out, (10u32..20).collect::<Vec<_>>());
        cq.select_from(&[5, 3, 8], &mut out);
        assert_eq!(out, vec![5, 3, 8]);
    }

    #[test]
    fn candidates_sorted_and_pruning() {
        let t = table(5_000);
        let bins = BinnedPointTable::build(&t);
        let store = PointStore::with_bins(&t, &bins);
        // Whole-table window → full-scan signal.
        assert!(store.candidates(&t.bbox()).is_none());
        // Quarter window → sorted strict subset.
        let q = BoundingBox::from_coords(0.0, 0.0, 40.0, 40.0);
        let cand = store.candidates(&q).expect("should prune");
        assert!(cand.len() < t.len());
        assert!(cand.windows(2).all(|w| w[0] < w[1]), "candidates must be ascending");
        // Plain store never yields candidates.
        assert!(PointStore::plain(&t).candidates(&q).is_none());
    }

    #[test]
    #[should_panic(expected = "binned index covers")]
    fn stale_bins_rejected() {
        let a = table(100);
        let b = table(200);
        let bins = BinnedPointTable::build(&a);
        let _ = PointStore::with_bins(&b, &bins);
    }
}
