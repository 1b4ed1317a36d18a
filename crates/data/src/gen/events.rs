//! Synthetic civic-event generators: 311 service requests and crime
//! incidents — the other two data-set families the Urbane demo explores
//! alongside taxi trips.
//!
//! Both are point events with a categorical type code (Zipf-distributed, as
//! real complaint/offense frequencies are) plus a numeric attribute
//! (response time / severity). Spatial placement reuses the city hotspot
//! model but with its own mixing (complaints skew residential, so more
//! background mass than taxi pickups).

use super::city::CityModel;
use super::{normal, weighted_index};
use crate::schema::{AttrType, Schema};
use crate::table::PointTable;
use crate::time::{Timestamp, DAY, HOUR};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration shared by the event generators.
#[derive(Debug, Clone)]
pub struct EventConfig {
    /// Number of events.
    pub rows: usize,
    /// RNG seed.
    pub seed: u64,
    /// First timestamp (inclusive).
    pub start: Timestamp,
    /// Days covered.
    pub days: u32,
    /// Number of categorical type codes.
    pub n_types: usize,
}

impl EventConfig {
    /// A sensible default: one month, 12 categories.
    pub fn month(rows: usize, seed: u64, start: Timestamp) -> Self {
        EventConfig { rows, seed, start, days: 30, n_types: 12 }
    }
}

/// Zipf-ish weights `1/rank` for `n` categories.
fn zipf_weights(n: usize) -> Vec<f64> {
    (1..=n).map(|r| 1.0 / r as f64).collect()
}

/// 311 schema: `complaint_type` (categorical), `response_hours` (numeric).
pub fn complaints_schema() -> Schema {
    Schema::new([
        ("complaint_type", AttrType::Categorical),
        ("response_hours", AttrType::Numeric),
    ])
    // lint: allow(panic-freedom) static schema literal; names and arity are fixed at compile time
    .expect("static schema is valid")
}

/// Generate a 311-complaints-like table.
pub fn generate_complaints(city: &CityModel, cfg: &EventConfig) -> PointTable {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x3131);
    let mut table = PointTable::with_capacity(complaints_schema(), cfg.rows);
    let type_w = zipf_weights(cfg.n_types);

    for _ in 0..cfg.rows {
        let loc = city.sample_location(&mut rng);
        // Complaints arrive through the day with a mild daytime bias.
        let day = rng.gen_range(0..cfg.days as i64);
        let hour = weighted_index(
            &mut rng,
            &[
                0.5, 0.4, 0.3, 0.3, 0.4, 0.7, 1.2, 1.8, 2.4, 2.8, 3.0, 3.0, 2.9, 2.8, 2.7, 2.6,
                2.4, 2.2, 2.0, 1.8, 1.5, 1.2, 0.9, 0.7,
            ],
        ) as i64;
        let t = cfg.start + day * DAY + hour * HOUR + rng.gen_range(0..HOUR);

        let ctype = weighted_index(&mut rng, &type_w) as f32;
        // Response time: log-normal-ish, hours to days.
        let response = (6.0 * (normal(&mut rng) * 0.8 + 1.5).exp()).clamp(0.5, 24.0 * 14.0) as f32;
        // lint: allow(panic-freedom) push arity matches the two-column schema constructed above
        table.push(loc, t, &[ctype, response]).expect("schema arity is fixed");
    }
    table
}

/// Crime schema: `offense` (categorical), `severity` (numeric 1–10).
pub fn crime_schema() -> Schema {
    Schema::new([("offense", AttrType::Categorical), ("severity", AttrType::Numeric)])
        // lint: allow(panic-freedom) static schema literal; names and arity are fixed at compile time
        .expect("static schema is valid")
}

/// Generate a crime-incidents-like table (night-skewed temporal profile).
pub fn generate_crime(city: &CityModel, cfg: &EventConfig) -> PointTable {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC41E);
    let mut table = PointTable::with_capacity(crime_schema(), cfg.rows);
    let type_w = zipf_weights(cfg.n_types);

    for _ in 0..cfg.rows {
        let loc = city.sample_location(&mut rng);
        let day = rng.gen_range(0..cfg.days as i64);
        // Night-heavy profile.
        let hour = weighted_index(
            &mut rng,
            &[
                3.0, 2.8, 2.5, 2.0, 1.4, 0.9, 0.7, 0.8, 1.0, 1.1, 1.2, 1.3, 1.4, 1.4, 1.5, 1.6,
                1.8, 2.0, 2.2, 2.4, 2.6, 2.8, 3.0, 3.1,
            ],
        ) as i64;
        let t = cfg.start + day * DAY + hour * HOUR + rng.gen_range(0..HOUR);

        let offense = weighted_index(&mut rng, &type_w) as f32;
        let severity = (1.0 + (normal(&mut rng).abs() * 2.5)).min(10.0) as f32;
        // lint: allow(panic-freedom) push arity matches the two-column schema constructed above
        table.push(loc, t, &[offense, severity]).expect("schema arity is fixed");
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::hour_of_day;

    #[test]
    fn complaints_deterministic_and_typed() {
        let city = CityModel::nyc_like();
        let cfg = EventConfig::month(5_000, 1, 0);
        let a = generate_complaints(&city, &cfg);
        let b = generate_complaints(&city, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5_000);
        let types = a.column_by_name("complaint_type").unwrap();
        assert!(types.iter().all(|&t| t >= 0.0 && t < cfg.n_types as f32));
    }

    #[test]
    fn complaint_types_are_zipf_skewed() {
        let city = CityModel::nyc_like();
        let t = generate_complaints(&city, &EventConfig::month(20_000, 2, 0));
        let types = t.column_by_name("complaint_type").unwrap();
        let top = types.iter().filter(|&&c| c == 0.0).count();
        let rare = types.iter().filter(|&&c| c == 11.0).count();
        assert!(top > 5 * rare.max(1), "top {top} rare {rare}");
    }

    #[test]
    fn crime_is_night_skewed() {
        let city = CityModel::nyc_like();
        let t = generate_crime(&city, &EventConfig::month(20_000, 3, 0));
        let mut night = 0u32;
        let mut morning = 0u32;
        for i in 0..t.len() {
            match hour_of_day(t.time(i)) {
                22..=23 | 0..=2 => night += 1,
                5..=8 => morning += 1,
                _ => {}
            }
        }
        assert!(night > morning, "night {night} vs morning {morning}");
        let sev = t.column_by_name("severity").unwrap();
        assert!(sev.iter().all(|&s| (1.0..=10.0).contains(&s)));
    }

    #[test]
    fn generators_use_independent_streams() {
        // Same seed, different generator → different data.
        let city = CityModel::nyc_like();
        let cfg = EventConfig::month(100, 5, 0);
        let a = generate_complaints(&city, &cfg);
        let b = generate_crime(&city, &cfg);
        assert_ne!(a.loc(0), b.loc(0));
    }
}
