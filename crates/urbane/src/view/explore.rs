//! The data-exploration view.
//!
//! The paper's Section 3.1 view: "Urbane also enables the visual comparison
//! of several data sets through the data exploration view." Headlessly,
//! that is:
//!
//! * per-region **time series** of an aggregate, bucketed by calendar unit
//!   (each bucket is one spatial-aggregation query with a time filter);
//! * side-by-side **data-set comparison** over the same regions;
//! * **ranking** of regions by a metric, and
//! * **similarity profiles** — the architect workflow from the paper's
//!   introduction: describe each neighborhood by a feature vector of
//!   normalized metrics across data sets and find the most similar
//!   neighborhoods to a reference (to "establish performance thresholds
//!   from other well-known and well performing neighborhoods").

use crate::Result;
use raster_join::{PointStore, PreparedRasterJoin, QueryBudget, RasterJoin, RasterJoinConfig};
use urban_data::filter::Filter;
use urban_data::query::SpatialAggQuery;
use urban_data::time::{TimeBucket, TimeRange};
use urban_data::{PointTable, RegionId, RegionSet};

/// A per-region time series for one data set.
#[derive(Debug, Clone)]
pub struct DatasetSeries {
    /// Data-set label.
    pub dataset: String,
    /// Bucket boundaries (one per series sample).
    pub buckets: Vec<TimeRange>,
    /// `series[region][bucket]` — aggregate value, `None` = no data.
    pub series: Vec<Vec<Option<f64>>>,
}

impl DatasetSeries {
    /// The series of one region.
    pub fn region(&self, id: RegionId) -> &[Option<f64>] {
        &self.series[id as usize]
    }

    /// Sum over buckets for one region (treating `None` as 0).
    pub fn region_total(&self, id: RegionId) -> f64 {
        self.series[id as usize].iter().flatten().sum()
    }
}

/// A region's feature vector across data sets (normalized to `[0, 1]`).
#[derive(Debug, Clone)]
pub struct RegionProfile {
    /// Region id.
    pub region: RegionId,
    /// One normalized feature per (dataset, metric) pair, in input order.
    pub features: Vec<f64>,
}

impl RegionProfile {
    /// Euclidean distance between two profiles (lower = more similar).
    pub fn distance(&self, other: &RegionProfile) -> f64 {
        self.features
            .iter()
            .zip(&other.features)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

/// The exploration-view engine.
#[derive(Debug, Clone)]
pub struct ExplorationView {
    join: RasterJoin,
}

impl ExplorationView {
    /// Engine with the given join configuration.
    pub fn new(config: RasterJoinConfig) -> Self {
        ExplorationView { join: RasterJoin::new(config) }
    }

    /// Defaults (bounded 1024-px joins).
    pub fn with_defaults() -> Self {
        Self::new(RasterJoinConfig::default())
    }

    /// Compute a bucketed time series: one spatial aggregation per bucket of
    /// `range`, each with the bucket's time filter appended to `query`.
    ///
    /// The polygon side is rasterized **once** (a [`PreparedRasterJoin`],
    /// in any raster mode) and replayed for every bucket — the regions and
    /// canvas do not change between buckets, only the time filter does.
    pub fn time_series(
        &self,
        dataset_name: &str,
        points: &PointTable,
        regions: &RegionSet,
        query: &SpatialAggQuery,
        range: TimeRange,
        bucket: TimeBucket,
    ) -> Result<DatasetSeries> {
        let mut buckets = Vec::new();
        let mut t = bucket.truncate(range.start);
        while t < range.end {
            let b = bucket.range_of(t);
            buckets.push(b.intersection(&range).unwrap_or(b));
            t = b.end;
        }

        let cfg = self.join.config();
        let prepared =
            PreparedRasterJoin::prepare(regions, cfg.spec, cfg.max_tile, cfg.mode)?;
        let mut series = vec![Vec::with_capacity(buckets.len()); regions.len()];
        for b in &buckets {
            let q = query.clone().filter(Filter::Time(*b));
            let res = self.join.execute_prepared(
                &prepared,
                PointStore::plain(points),
                &q,
                &QueryBudget::unlimited(),
            )?;
            for (r, v) in res.table.values().into_iter().enumerate() {
                series[r].push(v);
            }
        }
        Ok(DatasetSeries { dataset: dataset_name.to_string(), buckets, series })
    }

    /// Rank regions by one query's value, descending; `None` values sort
    /// last. Returns `(region, value)` pairs.
    pub fn rank_regions(
        &self,
        points: &PointTable,
        regions: &RegionSet,
        query: &SpatialAggQuery,
    ) -> Result<Vec<(RegionId, Option<f64>)>> {
        let res = self.join.execute(points, regions, query)?;
        let mut ranked: Vec<(RegionId, Option<f64>)> = res
            .table
            .values()
            .into_iter()
            .enumerate()
            .map(|(r, v)| (r as RegionId, v))
            .collect();
        ranked.sort_by(|a, b| match (a.1, b.1) {
            (Some(x), Some(y)) => y.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Equal),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => std::cmp::Ordering::Equal,
        });
        Ok(ranked)
    }

    /// Build normalized feature profiles from several `(dataset, points,
    /// query)` metrics over the same regions. Each metric is min-max
    /// normalized across regions; missing values become 0.
    pub fn profiles(
        &self,
        metrics: &[(&str, &PointTable, SpatialAggQuery)],
        regions: &RegionSet,
    ) -> Result<Vec<RegionProfile>> {
        let mut features: Vec<Vec<f64>> = vec![Vec::with_capacity(metrics.len()); regions.len()];
        for (_, points, query) in metrics {
            let res = self.join.execute(points, regions, query)?;
            let values = res.table.values();
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for v in values.iter().flatten() {
                lo = lo.min(*v);
                hi = hi.max(*v);
            }
            let span = (hi - lo).max(f64::MIN_POSITIVE);
            for (r, v) in values.into_iter().enumerate() {
                features[r].push(v.map_or(0.0, |v| if hi > lo { (v - lo) / span } else { 0.5 }));
            }
        }
        Ok(features
            .into_iter()
            .enumerate()
            .map(|(r, f)| RegionProfile { region: r as RegionId, features: f })
            .collect())
    }

    /// The `k` regions most similar to `reference` (excluding itself),
    /// closest first.
    pub fn most_similar(
        profiles: &[RegionProfile],
        reference: RegionId,
        k: usize,
    ) -> Vec<(RegionId, f64)> {
        let re = &profiles[reference as usize];
        let mut dists: Vec<(RegionId, f64)> = profiles
            .iter()
            .filter(|p| p.region != reference)
            .map(|p| (p.region, re.distance(p)))
            .collect();
        dists.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        dists.truncate(k);
        dists
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urban_data::gen::regions::grid_regions;
    use urban_data::schema::Schema;
    use urban_data::time::DAY;
    use urbane_geom::{BoundingBox, Point};

    /// Two cells; region 0 gets points on days 0 and 1, region 1 only day 0.
    fn setup() -> (PointTable, RegionSet) {
        let mut t = PointTable::new(Schema::empty());
        for i in 0..10 {
            t.push(Point::new(5.0, 5.0 + i as f64 * 0.1), 3600, &[]).unwrap(); // r0 day0
        }
        for i in 0..4 {
            t.push(Point::new(5.0, 5.0 + i as f64 * 0.1), DAY + 3600, &[]).unwrap(); // r0 day1
        }
        for i in 0..6 {
            t.push(Point::new(15.0, 5.0 + i as f64 * 0.1), 3600, &[]).unwrap(); // r1 day0
        }
        let rs = grid_regions(&BoundingBox::from_coords(0.0, 0.0, 20.0, 10.0), 2, 1);
        (t, rs)
    }

    #[test]
    fn time_series_buckets_correctly() {
        let (t, rs) = setup();
        let view = ExplorationView::with_defaults();
        let s = view
            .time_series("test", &t, &rs, &SpatialAggQuery::count(), TimeRange::new(0, 2 * DAY), TimeBucket::Day)
            .unwrap();
        assert_eq!(s.buckets.len(), 2);
        assert_eq!(s.region(0), &[Some(10.0), Some(4.0)]);
        assert_eq!(s.region(1), &[Some(6.0), None]);
        assert_eq!(s.region_total(0), 14.0);
        assert_eq!(s.region_total(1), 6.0);
    }

    /// Every raster mode prepares: a weighted view's series is the weighted
    /// one-shot answer per bucket, bit for bit.
    #[test]
    fn time_series_runs_in_weighted_mode() {
        let (t, rs) = setup();
        let config = RasterJoinConfig::weighted(64);
        let view = ExplorationView::new(config.clone());
        let (q, range) = (SpatialAggQuery::count(), TimeRange::new(0, 2 * DAY));
        let s = view.time_series("test", &t, &rs, &q, range, TimeBucket::Day).unwrap();
        for (k, b) in s.buckets.iter().enumerate() {
            let q = SpatialAggQuery::count().filter(Filter::Time(*b));
            let one_shot = RasterJoin::new(config.clone()).execute(&t, &rs, &q).unwrap();
            for (r, v) in one_shot.table.values().into_iter().enumerate() {
                assert_eq!(s.series[r][k], v, "region {r} bucket {k}");
            }
        }
        assert_eq!(s.region_total(0), 14.0);
    }

    #[test]
    fn ranking_descends_with_nulls_last() {
        let (t, rs) = setup();
        let view = ExplorationView::with_defaults();
        let ranked = view.rank_regions(&t, &rs, &SpatialAggQuery::count()).unwrap();
        assert_eq!(ranked[0].0, 0);
        assert_eq!(ranked[0].1, Some(14.0));
        assert_eq!(ranked[1].1, Some(6.0));
    }

    #[test]
    fn profiles_normalized_and_similarity() {
        let (t, rs) = setup();
        let view = ExplorationView::with_defaults();
        let metrics = [("taxi", &t, SpatialAggQuery::count())];
        let profiles = view.profiles(&metrics.iter().map(|(n, p, q)| (*n, *p, q.clone())).collect::<Vec<_>>(), &rs).unwrap();
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].features, vec![1.0]); // max count
        assert_eq!(profiles[1].features, vec![0.0]); // min count
        let sim = ExplorationView::most_similar(&profiles, 0, 5);
        assert_eq!(sim.len(), 1);
        assert_eq!(sim[0].0, 1);
        assert!((sim[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn profile_distance_symmetry() {
        let a = RegionProfile { region: 0, features: vec![0.0, 1.0] };
        let b = RegionProfile { region: 1, features: vec![1.0, 0.0] };
        assert_eq!(a.distance(&b), b.distance(&a));
        assert!((a.distance(&b) - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
    }
}
