//! The data-exploration view.
//!
//! The paper's Section 3.1 view: "Urbane also enables the visual comparison
//! of several data sets through the data exploration view." Headlessly,
//! that is:
//!
//! * per-region **time series** of an aggregate, bucketed by calendar unit
//!   (each bucket is one request with a time filter);
//! * side-by-side **data-set comparison** over the same regions;
//! * **ranking** of regions by a metric, and
//! * **similarity profiles** — the architect workflow from the paper's
//!   introduction: describe each neighborhood by a feature vector of
//!   normalized metrics across data sets and find the most similar
//!   neighborhoods to a reference (to "establish performance thresholds
//!   from other well-known and well performing neighborhoods").
//!
//! Each is a function over an [`UrbaneService`] and the [`QueryRequest`]s
//! it answers, so the view shares the service's clustering, prepared
//! rasters, ladder, cache and metrics with every other client.

use crate::service::{QueryRequest, UrbaneService};
use crate::{Result, UrbaneError};
use urban_data::filter::Filter;
use urban_data::time::{TimeBucket, TimeRange};
use urban_data::RegionId;

/// A per-region time series of one request.
#[derive(Debug, Clone)]
pub struct DatasetSeries {
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

/// `req`'s per-region values at full fidelity: a fallback rung's answer is
/// [`UrbaneError::DeadlineExceeded`], so no series or ranking mixes them.
fn full_values(service: &UrbaneService, req: &QueryRequest) -> Result<Vec<Option<f64>>> {
    let answer = service.query(req)?;
    if answer.report.degraded() {
        return Err(UrbaneError::DeadlineExceeded);
    }
    Ok(answer.table.values())
}

/// A bucketed time series of `req`: one request per bucket of `range`, each
/// with the bucket's [`Filter::Time`] appended. The request's dataset and
/// pyramid level name the rows and the regions; at the service's base
/// canvas every bucket replays the level's one kept region raster.
pub fn time_series(
    service: &UrbaneService,
    req: &QueryRequest,
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

    let regions = service.pyramid().level(req.level)?.len();
    let mut series = vec![Vec::with_capacity(buckets.len()); regions];
    for b in &buckets {
        let values = full_values(service, &req.clone().filter(Filter::Time(*b)))?;
        for (r, v) in values.into_iter().enumerate() {
            series[r].push(v);
        }
    }
    Ok(DatasetSeries { buckets, series })
}

/// Rank the regions of `req`'s level by its value, descending; `None`
/// values sort last. Returns `(region, value)` pairs.
pub fn rank_regions(
    service: &UrbaneService,
    req: &QueryRequest,
) -> Result<Vec<(RegionId, Option<f64>)>> {
    let mut ranked: Vec<(RegionId, Option<f64>)> = full_values(service, req)?
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

/// Normalized feature profiles from several metrics, one request each (any
/// dataset, any aggregate), all at one pyramid level ([`UrbaneError::Config`]
/// otherwise). Each metric is min-max normalized across regions; missing
/// values become 0.
pub fn profiles(service: &UrbaneService, metrics: &[QueryRequest]) -> Result<Vec<RegionProfile>> {
    let level = metrics.first().map_or(0, |m| m.level);
    if metrics.iter().any(|m| m.level != level) {
        return Err(UrbaneError::Config("profile metrics must share one pyramid level".into()));
    }
    let regions = service.pyramid().level(level)?.len();
    let mut features: Vec<Vec<f64>> = vec![Vec::with_capacity(metrics.len()); regions];
    for req in metrics {
        let values = full_values(service, req)?;
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

/// The `k` regions most similar to `reference` (excluding itself), closest
/// first.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::fixture;
    use crate::{ExecutionMode, RasterJoinConfig};
    use urban_data::gen::regions::grid_regions;
    use urban_data::query::SpatialAggQuery;
    use urban_data::schema::Schema;
    use urban_data::time::DAY;
    use urban_data::{PointTable, RegionSet};
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

    /// A one-level service over the 20-row table (dataset `test`).
    fn service(join: RasterJoinConfig) -> UrbaneService {
        let (t, rs) = setup();
        fixture::service(t, rs, join).0
    }

    #[test]
    fn time_series_buckets_correctly() {
        let s = service(RasterJoinConfig::default());
        let range = TimeRange::new(0, 2 * DAY);
        let s = time_series(&s, &QueryRequest::count("test", 0), range, TimeBucket::Day).unwrap();
        assert_eq!(s.buckets.len(), 2);
        assert_eq!(s.region(0), &[Some(10.0), Some(4.0)]);
        assert_eq!(s.region(1), &[Some(6.0), None]);
        assert_eq!(s.region_total(0), 14.0);
        assert_eq!(s.region_total(1), 6.0);
    }

    /// Every raster mode goes through the service: a weighted series is the
    /// weighted one-shot answer over the catalog's clustered table per
    /// bucket, bit for bit.
    #[test]
    fn time_series_runs_in_weighted_mode() {
        let (t, rs) = setup();
        let (service, one_shot) = fixture::service(t, rs, RasterJoinConfig::weighted(64));
        let req = QueryRequest::count("test", 0).mode(ExecutionMode::Weighted);
        let s = time_series(&service, &req, TimeRange::new(0, 2 * DAY), TimeBucket::Day).unwrap();
        for (k, b) in s.buckets.iter().enumerate() {
            let q = SpatialAggQuery::count().filter(Filter::Time(*b));
            for (r, v) in one_shot(&q).values().into_iter().enumerate() {
                let bits = |v: Option<f64>| v.map(f64::to_bits);
                assert_eq!(bits(s.series[r][k]), bits(v), "region {r} bucket {k}");
            }
        }
        assert_eq!(s.region_total(0), 14.0);
    }

    #[test]
    fn ranking_descends_with_nulls_last() {
        let s = service(RasterJoinConfig::default());
        let ranked = rank_regions(&s, &QueryRequest::count("test", 0)).unwrap();
        assert_eq!(ranked[0].0, 0);
        assert_eq!(ranked[0].1, Some(14.0));
        assert_eq!(ranked[1].1, Some(6.0));
        // A deadline that only a fallback rung can meet is refused.
        let hurried = QueryRequest::count("test", 0).deadline(std::time::Duration::ZERO);
        assert_eq!(rank_regions(&s, &hurried).unwrap_err(), UrbaneError::DeadlineExceeded);
    }

    #[test]
    fn profiles_normalized_and_similarity() {
        let s = service(RasterJoinConfig::default());
        let mixed = [QueryRequest::count("test", 0), QueryRequest::count("test", 1)];
        assert!(matches!(profiles(&s, &mixed), Err(UrbaneError::Config(_))));
        let profiles = profiles(&s, &[QueryRequest::count("test", 0)]).unwrap();
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].features, vec![1.0]); // max count
        assert_eq!(profiles[1].features, vec![0.0]); // min count
        let sim = most_similar(&profiles, 0, 5);
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
