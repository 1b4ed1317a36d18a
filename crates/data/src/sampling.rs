//! Sampling for progressive/approximate previews.
//!
//! While a slider is being dragged, Urbane-style systems answer from a
//! sample and refine when the interaction pauses. [`reservoir_sample`] draws
//! a uniform k-of-n without knowing n in advance (Vitter's Algorithm R),
//! deterministic in its seed; [`take_rows`] materializes the sampled rows as
//! a [`PointTable`].

use crate::table::PointTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform reservoir sample of `k` row indices (all rows when `k >= n`).
/// Indices are returned in ascending order.
pub fn reservoir_sample(table: &PointTable, k: usize, seed: u64) -> Vec<usize> {
    let n = table.len();
    if k >= n {
        return (0..n).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reservoir: Vec<usize> = (0..k).collect();
    for i in k..n {
        let j = rng.gen_range(0..=i);
        if j < k {
            reservoir[j] = i;
        }
    }
    reservoir.sort_unstable();
    reservoir
}

/// Materialize sampled rows as a new table (same schema).
pub fn take_rows(table: &PointTable, rows: &[usize]) -> PointTable {
    let mut keep = vec![false; table.len()];
    for &r in rows {
        keep[r] = true;
    }
    table.filter_rows(&keep)
}

/// The scale factor that corrects COUNT/SUM aggregates computed on a sample
/// back to full-population estimates (`None` for an empty sample).
pub fn scale_up_factor(total_rows: usize, sample_rows: usize) -> Option<f64> {
    (sample_rows > 0).then(|| total_rows as f64 / sample_rows as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use urbane_geom::Point;

    fn skewed_table(n: usize) -> PointTable {
        let mut t = PointTable::new(Schema::empty());
        for i in 0..n {
            // 90% of points in a tiny hotspot, 10% spread out.
            let p = if i % 10 != 0 {
                Point::new(1.0 + (i % 7) as f64 * 0.01, 1.0 + (i % 5) as f64 * 0.01)
            } else {
                Point::new((i % 100) as f64, (i / 7 % 100) as f64)
            };
            t.push(p, i as i64, &[]).unwrap();
        }
        t
    }

    #[test]
    fn reservoir_size_and_determinism() {
        let t = skewed_table(10_000);
        let s1 = reservoir_sample(&t, 500, 9);
        let s2 = reservoir_sample(&t, 500, 9);
        assert_eq!(s1.len(), 500);
        assert_eq!(s1, s2);
        assert_ne!(s1, reservoir_sample(&t, 500, 10));
        // Sorted, unique, in range.
        assert!(s1.windows(2).all(|w| w[0] < w[1]));
        assert!(*s1.last().unwrap() < 10_000);
    }

    #[test]
    fn reservoir_is_roughly_uniform() {
        let t = skewed_table(10_000);
        // Mean sampled index across seeds should be near n/2.
        let mut mean = 0.0;
        for seed in 0..20 {
            let s = reservoir_sample(&t, 200, seed);
            mean += s.iter().sum::<usize>() as f64 / s.len() as f64;
        }
        mean /= 20.0;
        assert!((mean - 5_000.0).abs() < 500.0, "mean index {mean}");
    }

    #[test]
    fn small_k_edge_cases() {
        let t = skewed_table(10);
        assert_eq!(reservoir_sample(&t, 10, 1).len(), 10);
        assert_eq!(reservoir_sample(&t, 100, 1).len(), 10);
        assert_eq!(reservoir_sample(&t, 0, 1).len(), 0);
    }

    #[test]
    fn take_rows_materializes() {
        let t = skewed_table(100);
        let rows = reservoir_sample(&t, 10, 5);
        let sub = take_rows(&t, &rows);
        assert_eq!(sub.len(), 10);
        assert_eq!(sub.loc(0), t.loc(rows[0]));
    }

    #[test]
    fn scale_factor() {
        assert_eq!(scale_up_factor(1000, 100), Some(10.0));
        assert_eq!(scale_up_factor(1000, 0), None);
    }

    #[test]
    fn empty_inputs() {
        let t = PointTable::new(Schema::empty());
        assert!(reservoir_sample(&t, 10, 1).is_empty());
    }
}
