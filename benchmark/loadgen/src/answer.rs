//! What the benchmark reads out of a `/query` answer, and the comparisons
//! the audit makes between answers.

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub cached: bool,
    pub generation: u64,
    pub total_count: f64,
    /// One value per region, in id order; `None` for a region with no rows.
    pub values: Vec<Option<f64>>,
    pub guard_path: String,
    pub degraded: bool,
    /// Time the service spent on the request, as the answer reports it.
    pub elapsed_ms: f64,
}

impl Answer {
    pub fn parse(body: &str) -> Result<Answer, String> {
        let v = Json::parse(body)?;
        let field = |name: &str| v.get(name).ok_or_else(|| format!("answer has no {name:?}"));
        let guard = field("guard")?;
        let guard_field = |name: &str| {
            guard
                .get(name)
                .ok_or_else(|| format!("guard has no {name:?}"))
        };
        let regions = field("regions")?
            .as_arr()
            .ok_or("\"regions\" is not an array")?;
        let mut values = Vec::with_capacity(regions.len());
        for (i, r) in regions.iter().enumerate() {
            if r.get("id").and_then(Json::as_f64) != Some(i as f64) {
                return Err(format!("region {i} is out of id order"));
            }
            values.push(match r.get("value") {
                Some(Json::Null) => None,
                Some(Json::Num(n)) => Some(*n),
                _ => return Err(format!("region {i} has no numeric or null value")),
            });
        }
        Ok(Answer {
            cached: field("cached")?
                .as_bool()
                .ok_or("\"cached\" is not a boolean")?,
            generation: field("generation")?
                .as_f64()
                .ok_or("\"generation\" is not a number")? as u64,
            total_count: field("total_count")?
                .as_f64()
                .ok_or("\"total_count\" is not a number")?,
            values,
            guard_path: guard_field("path")?
                .as_str()
                .ok_or("guard.path is not a string")?
                .to_string(),
            degraded: guard_field("degraded")?
                .as_bool()
                .ok_or("guard.degraded is not a boolean")?,
            elapsed_ms: guard_field("elapsed_ms")?
                .as_f64()
                .ok_or("guard.elapsed_ms is not a number")?,
        })
    }

    /// A 64-bit fingerprint of the payload (values and total), for checking
    /// that a cached answer repeats the computed one bit for bit.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bits: u64| {
            for byte in bits.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.total_count.to_bits());
        for v in &self.values {
            // No finite value has the bit pattern of this NaN.
            eat(v.map_or(u64::MAX, f64::to_bits));
        }
        h
    }
}

/// Do two exact answers agree: totals equal, and every region equal to
/// `rel` relative (`rel = 0` demands identical values, as for counts)?
pub fn exact_agree(a: &Answer, b: &Answer, rel: f64) -> Result<(), String> {
    if a.total_count != b.total_count {
        return Err(format!(
            "total_count {} vs {}",
            a.total_count, b.total_count
        ));
    }
    if a.values.len() != b.values.len() {
        return Err(format!("{} vs {} regions", a.values.len(), b.values.len()));
    }
    for (i, (x, y)) in a.values.iter().zip(&b.values).enumerate() {
        let (x, y) = (x.unwrap_or(0.0), y.unwrap_or(0.0));
        if (x - y).abs() > rel * x.abs().max(y.abs()) {
            return Err(format!("region {i}: {x} vs {y}"));
        }
    }
    Ok(())
}

/// Σ|v − exact| ÷ Σ|exact| over the regions: the share of the exact answer
/// a bounded answer misplaces.
pub fn relative_error(approx: &Answer, exact: &Answer) -> f64 {
    let (mut err, mut total) = (0.0, 0.0);
    for (a, e) in approx.values.iter().zip(&exact.values) {
        let e = e.unwrap_or(0.0);
        err += (a.unwrap_or(0.0) - e).abs();
        total += e.abs();
    }
    if total > 0.0 {
        err / total
    } else if err > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden(name: &str) -> String {
        let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
        // The golden files mask timings as the string "<T>".
        std::fs::read_to_string(&path)
            .expect(&path)
            .replace("\"<T>\"", "1.5")
    }

    #[test]
    fn extracts_the_committed_golden_answers() {
        let sum = Answer::parse(&golden("serve_query_sum.json")).unwrap();
        assert_eq!(sum.values.len(), 16);
        assert_eq!(sum.total_count, 4285.0);
        assert_eq!(sum.guard_path, "full");
        assert!(!sum.cached && !sum.degraded);
        assert_eq!(sum.elapsed_ms, 1.5);
        assert!((sum.values[0].unwrap() - 15359.55914735794).abs() < 1e-9);
        let count = Answer::parse(&golden("serve_query_count.json")).unwrap();
        assert!(count.values.iter().flatten().all(|v| v.fract() == 0.0));
        assert!(Answer::parse(&golden("serve_query_bad.json")).is_err());
    }

    fn answer(values: &[Option<f64>], total: f64) -> Answer {
        Answer {
            cached: false,
            generation: 0,
            total_count: total,
            values: values.to_vec(),
            guard_path: "full".into(),
            degraded: false,
            elapsed_ms: 1.0,
        }
    }

    #[test]
    fn agreement_and_error_share() {
        let exact = answer(&[Some(100.0), Some(50.0), None], 150.0);
        let near = answer(&[Some(100.00001), Some(50.0), None], 150.0);
        assert!(exact_agree(&exact, &near, 1e-6).is_ok());
        assert!(exact_agree(&exact, &near, 0.0).is_err());
        assert!(exact_agree(
            &exact,
            &answer(&[Some(100.0), Some(50.0), None], 151.0),
            1e-6
        )
        .is_err());
        let rough = answer(&[Some(97.0), Some(53.0), None], 150.0);
        assert!((relative_error(&rough, &exact) - 0.04).abs() < 1e-12);
        assert_eq!(relative_error(&exact, &exact), 0.0);
        assert_ne!(exact.fingerprint(), rough.fingerprint());
        assert_eq!(exact.fingerprint(), exact.clone().fingerprint());
        assert_ne!(
            answer(&[None], 0.0).fingerprint(),
            answer(&[Some(0.0)], 0.0).fingerprint()
        );
    }
}
