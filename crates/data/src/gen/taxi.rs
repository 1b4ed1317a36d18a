//! Synthetic taxi-trip generator — the stand-in for the NYC TLC trip records
//! the demo visualizes (e.g. "pickups in January 2009 aggregated over
//! neighborhoods", the paper's Figure 1).
//!
//! Reproduced statistical structure:
//! * **spatial skew**: pickups concentrate at the city model's hotspots;
//! * **diurnal rhythm**: a double-peaked weekday profile (AM/PM rush) and a
//!   flatter, late-shifted weekend profile;
//! * **attributes**: fare (log-normal-ish, distance-correlated), trip
//!   distance (exponential-ish), passenger count (1–6, skewed to 1), tip.

use super::city::CityModel;
use super::{normal, weighted_index};
use crate::schema::{AttrType, Schema};
use crate::table::PointTable;
use crate::time::{Timestamp, DAY, HOUR};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the taxi generator.
#[derive(Debug, Clone)]
pub struct TaxiConfig {
    /// Number of trips to generate.
    pub rows: usize,
    /// RNG seed — same seed, same data set.
    pub seed: u64,
    /// First timestamp (inclusive).
    pub start: Timestamp,
    /// Number of days covered.
    pub days: u32,
}

impl TaxiConfig {
    /// One month of trips starting at `start`.
    pub fn month(rows: usize, seed: u64, start: Timestamp) -> Self {
        TaxiConfig { rows, seed, start, days: 30 }
    }
}

/// Hourly pickup weights, weekdays: AM rush (7–9), lunchtime bump, PM rush
/// (17–19), evening tail.
const WEEKDAY_HOURS: [f64; 24] = [
    1.2, 0.7, 0.4, 0.3, 0.3, 0.6, 1.5, 3.0, 3.6, 2.8, 2.2, 2.3, 2.6, 2.4, 2.3, 2.5, 3.0, 3.8,
    4.0, 3.4, 2.8, 2.6, 2.2, 1.7,
];

/// Hourly pickup weights, weekends: late start, strong night activity.
const WEEKEND_HOURS: [f64; 24] = [
    2.8, 2.4, 1.9, 1.2, 0.7, 0.5, 0.6, 0.8, 1.2, 1.7, 2.2, 2.6, 2.8, 2.8, 2.7, 2.6, 2.6, 2.7,
    2.8, 2.9, 3.0, 3.1, 3.2, 3.0,
];

/// The taxi table's schema: `fare`, `distance`, `passengers`, `tip`.
pub fn taxi_schema() -> Schema {
    Schema::new([
        ("fare", AttrType::Numeric),
        ("distance", AttrType::Numeric),
        ("passengers", AttrType::Categorical),
        ("tip", AttrType::Numeric),
    ])
    // lint: allow(panic-freedom) static schema literal; names and arity are fixed at compile time
    .expect("static schema is valid")
}

/// Generate a taxi-pickup table over `city`.
pub fn generate_taxi(city: &CityModel, cfg: &TaxiConfig) -> PointTable {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut table = PointTable::with_capacity(taxi_schema(), cfg.rows);

    for _ in 0..cfg.rows {
        let loc = city.sample_location(&mut rng);

        // Pick a day uniformly, then an hour from that day's profile.
        let day = rng.gen_range(0..cfg.days as i64);
        let t0 = cfg.start + day * DAY;
        let dow = crate::time::day_of_week(t0);
        let profile = if dow >= 5 { &WEEKEND_HOURS } else { &WEEKDAY_HOURS };
        let hour = weighted_index(&mut rng, profile) as i64;
        let t = t0 + hour * HOUR + rng.gen_range(0..HOUR);

        // Distance: exponential-ish with a 2.9-mile mean, capped at 30.
        let distance = (-(1.0 - rng.gen::<f64>()).ln() * 2.9).min(30.0) as f32;
        // Fare: base + per-mile with noise, floored at the NYC flag-drop.
        let fare = (2.5 + distance as f64 * 2.5 + normal(&mut rng) * 2.0).max(2.5) as f32;
        // Passengers: heavily skewed to single riders.
        let passengers =
            (weighted_index(&mut rng, &[0.70, 0.13, 0.06, 0.04, 0.05, 0.02]) + 1) as f32;
        // Tip: ~60% of riders tip 15–25%, the rest 0.
        let tip = if rng.gen::<f64>() < 0.6 {
            fare * (0.15 + rng.gen::<f32>() * 0.10)
        } else {
            0.0
        };

        table
            .push(loc, t, &[fare, distance, passengers, tip])
            // lint: allow(panic-freedom) push arity matches the four-column schema constructed above
            .expect("schema arity is fixed");
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{hour_of_day, timestamp};

    fn small() -> PointTable {
        let city = CityModel::nyc_like();
        generate_taxi(&city, &TaxiConfig::month(20_000, 42, timestamp(2009, 1, 1, 0, 0, 0)))
    }

    #[test]
    fn deterministic_for_seed() {
        let city = CityModel::nyc_like();
        let cfg = TaxiConfig::month(1_000, 7, 0);
        assert_eq!(generate_taxi(&city, &cfg), generate_taxi(&city, &cfg));
        let cfg2 = TaxiConfig { seed: 8, ..cfg };
        assert_ne!(generate_taxi(&city, &cfg), generate_taxi(&city, &cfg2));
    }

    #[test]
    fn row_count_and_extent() {
        let t = small();
        assert_eq!(t.len(), 20_000);
        let city = CityModel::nyc_like();
        assert!(city.bbox().contains_box(&t.bbox()));
        let ext = t.time_extent().unwrap();
        assert!(ext.start >= timestamp(2009, 1, 1, 0, 0, 0));
        assert!(ext.end <= timestamp(2009, 1, 31, 0, 0, 0) + DAY);
    }

    #[test]
    fn attribute_marginals_plausible() {
        let t = small();
        let fares = t.column_by_name("fare").unwrap();
        let mean_fare = fares.iter().sum::<f32>() / fares.len() as f32;
        assert!(mean_fare > 5.0 && mean_fare < 20.0, "mean fare {mean_fare}");
        assert!(fares.iter().all(|&f| f >= 2.5));
        let pax = t.column_by_name("passengers").unwrap();
        let ones = pax.iter().filter(|&&p| p == 1.0).count() as f64 / pax.len() as f64;
        assert!(ones > 0.6, "single riders {ones}");
        assert!(pax.iter().all(|&p| (1.0..=6.0).contains(&p)));
    }

    #[test]
    fn diurnal_rhythm_present() {
        let t = small();
        let mut by_hour = [0u32; 24];
        for i in 0..t.len() {
            by_hour[hour_of_day(t.time(i)) as usize] += 1;
        }
        // Rush hours busier than pre-dawn.
        let rush = by_hour[8] + by_hour[17] + by_hour[18];
        let dead = by_hour[3] + by_hour[4] + by_hour[5];
        assert!(rush > 2 * dead, "rush {rush} dead {dead}");
    }

    #[test]
    fn tips_are_zero_or_proportional() {
        let t = small();
        let fares = t.column_by_name("fare").unwrap();
        let tips = t.column_by_name("tip").unwrap();
        for (&f, &tip) in fares.iter().zip(tips) {
            assert!(tip == 0.0 || (tip >= 0.14 * f && tip <= 0.26 * f));
        }
        let tipped = tips.iter().filter(|&&t| t > 0.0).count() as f64 / tips.len() as f64;
        assert!((tipped - 0.6).abs() < 0.05, "tip rate {tipped}");
    }
}
