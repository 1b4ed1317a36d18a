//! The spatial-aggregation query model — the paper's query template:
//!
//! ```sql
//! SELECT AGG(a_i) FROM P, R
//! WHERE P.loc INSIDE R.geometry [AND filterCondition]*
//! GROUP BY R.id
//! ```
//!
//! Defined in the data layer so every executor — Raster Join (bounded and
//! accurate), the index-join baselines, and the pre-aggregation cube — runs
//! the *same* query object and produces comparable [`AggTable`] results.

use crate::filter::FilterSet;
use crate::table::PointTable;
use crate::{DataError, Result};

/// The aggregate function over the joined points of each region.
#[derive(Debug, Clone, PartialEq)]
pub enum AggKind {
    /// `COUNT(*)`.
    Count,
    /// `SUM(column)`.
    Sum(String),
    /// `AVG(column)`.
    Avg(String),
    /// `MIN(column)`.
    Min(String),
    /// `MAX(column)`.
    Max(String),
}

impl AggKind {
    /// The attribute column this aggregate reads, if any.
    pub fn column(&self) -> Option<&str> {
        match self {
            AggKind::Count => None,
            AggKind::Sum(c) | AggKind::Avg(c) | AggKind::Min(c) | AggKind::Max(c) => Some(c),
        }
    }

    /// Resolve the column index against a table (`None` for COUNT).
    pub fn resolve(&self, table: &PointTable) -> Result<Option<usize>> {
        match self.column() {
            None => Ok(None),
            Some(c) => table.schema().index_of(c).map(Some),
        }
    }
}

/// Running aggregate state for one region. Supports merge (needed when
/// canvas tiles or worker threads each hold partial state).
///
/// Alongside the integral `count`, the state carries a `weight` channel:
/// executors that fold whole points keep `weight == count`, while the
/// *weighted* raster-join variant folds boundary pixels fractionally
/// (`weight` = expected points by area coverage). COUNT/SUM/AVG answers are
/// weight-based so both kinds of executor finish through the same code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggState {
    /// Number of points folded in (integral).
    pub count: u64,
    /// Total weight (== `count` for exact folds; fractional for coverage-
    /// weighted folds).
    pub weight: f64,
    /// Weighted sum of the aggregated attribute (0 for COUNT).
    pub sum: f64,
    /// Minimum attribute value seen (weights do not apply to extrema).
    pub min: f64,
    /// Maximum attribute value seen.
    pub max: f64,
}

impl Default for AggState {
    fn default() -> Self {
        AggState { count: 0, weight: 0.0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }
}

impl AggState {
    /// Fold one point's attribute value (`0.0` for pure counts).
    #[inline]
    pub fn accumulate(&mut self, value: f64) {
        self.count += 1;
        self.weight += 1.0;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Fold an aggregate contribution with a fractional weight: `count`
    /// points whose combined attribute sum is `sum`, scaled by `w ∈ [0, 1]`
    /// (the fraction of their pixel the region covers). Extrema are folded
    /// unweighted — a fractionally-covered pixel may still hold the true
    /// min/max.
    #[inline]
    pub fn accumulate_weighted(&mut self, count: u64, sum: f64, min: f64, max: f64, w: f64) {
        self.count += count;
        self.weight += count as f64 * w;
        self.sum += sum * w;
        self.min = self.min.min(min);
        self.max = self.max.max(max);
    }

    /// Merge partial states (tiles / threads).
    #[inline]
    pub fn merge(&mut self, other: &AggState) {
        self.count += other.count;
        self.weight += other.weight;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Finish into the query's scalar answer; `None` when no points joined
    /// (SQL would return NULL for empty groups).
    pub fn finish(&self, agg: &AggKind) -> Option<f64> {
        if self.count == 0 || self.weight <= 0.0 {
            return None;
        }
        Some(match agg {
            AggKind::Count => self.weight,
            AggKind::Sum(_) => self.sum,
            AggKind::Avg(_) => self.sum / self.weight,
            AggKind::Min(_) => self.min,
            AggKind::Max(_) => self.max,
        })
    }
}

/// A complete spatial-aggregation query: aggregate + ad-hoc filters.
/// (The point table and region set are supplied to the executor.)
#[derive(Debug, Clone, Default)]
pub struct SpatialAggQuery {
    /// The aggregate; defaults to COUNT.
    pub agg: Option<AggKind>,
    /// Zero or more filter conditions.
    pub filters: FilterSet,
}

impl SpatialAggQuery {
    /// `SELECT COUNT(*) … GROUP BY R.id` with no filters.
    pub fn count() -> Self {
        SpatialAggQuery { agg: Some(AggKind::Count), filters: FilterSet::none() }
    }

    /// Query with the given aggregate.
    pub fn new(agg: AggKind) -> Self {
        SpatialAggQuery { agg: Some(agg), filters: FilterSet::none() }
    }

    /// Add a filter condition (builder style).
    pub fn filter(mut self, f: crate::filter::Filter) -> Self {
        self.filters = self.filters.and(f);
        self
    }

    /// The effective aggregate (COUNT when unset).
    pub fn agg_kind(&self) -> AggKind {
        self.agg.clone().unwrap_or(AggKind::Count)
    }
}

/// Per-region aggregation result: `result.values[region_id]`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggTable {
    /// The aggregate the values answer.
    pub agg: AggKind,
    /// Raw per-region states (index = region id).
    pub states: Vec<AggState>,
}

impl AggTable {
    /// Zeroed table for `n` regions.
    pub fn new(agg: AggKind, n_regions: usize) -> Self {
        // lint: capped-by the arity of a server-side region set — every caller passes `regions.len()`; the wire only selects which set (a checked pyramid-level lookup), never a size
        AggTable { agg, states: vec![AggState::default(); n_regions] }
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when there are no regions.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Final scalar value for a region (`None` for empty groups).
    pub fn value(&self, region: usize) -> Option<f64> {
        self.states[region].finish(&self.agg)
    }

    /// Final values for all regions.
    pub fn values(&self) -> Vec<Option<f64>> {
        self.states.iter().map(|s| s.finish(&self.agg)).collect()
    }

    /// Merge another partial table (same aggregate, same arity).
    pub fn merge(&mut self, other: &AggTable) -> Result<()> {
        if self.agg != other.agg || self.states.len() != other.states.len() {
            return Err(DataError::Schema("merging incompatible aggregate tables".into()));
        }
        for (a, b) in self.states.iter_mut().zip(&other.states) {
            a.merge(b);
        }
        Ok(())
    }

    /// Largest absolute difference in finished values vs. another table,
    /// treating empty groups as 0 — the error metric for E4.
    pub fn max_abs_diff(&self, other: &AggTable) -> f64 {
        self.states
            .iter()
            .zip(&other.states)
            .map(|(a, b)| {
                let va = a.finish(&self.agg).unwrap_or(0.0);
                let vb = b.finish(&other.agg).unwrap_or(0.0);
                (va - vb).abs()
            })
            .fold(0.0, f64::max)
    }

    /// Total joined points across regions (diagnostic).
    pub fn total_count(&self) -> u64 {
        self.states.iter().map(|s| s.count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Filter;
    use crate::time::TimeRange;

    #[test]
    fn accumulate_and_finish() {
        let mut s = AggState::default();
        for v in [2.0, 8.0, 5.0] {
            s.accumulate(v);
        }
        assert_eq!(s.finish(&AggKind::Count), Some(3.0));
        assert_eq!(s.finish(&AggKind::Sum("x".into())), Some(15.0));
        assert_eq!(s.finish(&AggKind::Avg("x".into())), Some(5.0));
        assert_eq!(s.finish(&AggKind::Min("x".into())), Some(2.0));
        assert_eq!(s.finish(&AggKind::Max("x".into())), Some(8.0));
    }

    #[test]
    fn empty_group_is_null() {
        let s = AggState::default();
        assert_eq!(s.finish(&AggKind::Count), None);
        assert_eq!(s.finish(&AggKind::Avg("x".into())), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = AggState::default();
        let mut b = AggState::default();
        let mut whole = AggState::default();
        for (i, v) in [1.0, 9.0, 4.0, -2.0].iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.accumulate(*v);
            whole.accumulate(*v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn table_merge_and_diff() {
        let mut t1 = AggTable::new(AggKind::Count, 2);
        t1.states[0].accumulate(0.0);
        let mut t2 = AggTable::new(AggKind::Count, 2);
        t2.states[0].accumulate(0.0);
        t2.states[1].accumulate(0.0);
        assert_eq!(t1.max_abs_diff(&t2), 1.0);
        t1.merge(&t2).unwrap();
        assert_eq!(t1.value(0), Some(2.0));
        assert_eq!(t1.value(1), Some(1.0));
        assert_eq!(t1.total_count(), 3);
        // Incompatible merge rejected.
        let t3 = AggTable::new(AggKind::Count, 3);
        assert!(t1.merge(&t3).is_err());
    }

    #[test]
    fn query_builder() {
        let q = SpatialAggQuery::new(AggKind::Avg("fare".into()))
            .filter(Filter::Time(TimeRange::new(0, 100)));
        assert_eq!(q.agg_kind(), AggKind::Avg("fare".into()));
        assert_eq!(q.filters.filters().len(), 1);
        assert_eq!(SpatialAggQuery::default().agg_kind(), AggKind::Count);
    }

    #[test]
    fn resolve_column() {
        use crate::schema::{AttrType, Schema};
        let t = PointTable::new(Schema::new([("fare", AttrType::Numeric)]).unwrap());
        assert_eq!(AggKind::Count.resolve(&t).unwrap(), None);
        assert_eq!(AggKind::Sum("fare".into()).resolve(&t).unwrap(), Some(0));
        assert!(AggKind::Sum("ghost".into()).resolve(&t).is_err());
    }
}
