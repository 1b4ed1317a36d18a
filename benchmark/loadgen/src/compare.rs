//! `loadgen compare`: two sets of `result.json` files against the bounds
//! of `BENCHMARK.json`, one row per (workload, end-to-end metric).
//!
//! Each side's value is the median over its files. A side with two or more
//! files also has a spread (the distance between its quartiles, as a share
//! of its median); a pair whose spread is wider than the metric's bound is
//! `unresolved`, not `same`: the runs cannot tell.

use crate::json::Json;
use crate::stats::{median, quartiles};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `b` against `a`: how much worse `b` is as a share of `a`, given which
/// direction is better; negative when `b` is better.
fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    let change = (b - a) / a.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

fn spread_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

pub fn verdict(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    if spread_share(a) > bound || spread_share(b) > bound {
        return Verdict::Unresolved;
    }
    let w = worsening(median(a), median(b), lower_is_better);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(side: &[Json], workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    side.iter()
        .map(|doc| {
            doc.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("end_to_end"))
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("a result file has no {workload}/{metric}"))
        })
        .collect()
}

fn ops(side: &[Json], workload: &str) -> (f64, f64) {
    let sum = |key: &str| {
        side.iter()
            .filter_map(|d| d.get("workloads")?.get(workload)?.get(key)?.as_f64())
            .sum::<f64>()
    };
    (sum("failed"), sum("attempted"))
}

/// Prints the table; `Ok(true)` when no row is `worse`.
pub fn compare(benchmark: &str, a_paths: &[String], b_paths: &[String]) -> Result<bool, String> {
    let bench = load(benchmark)?;
    let load_side = |paths: &[String]| -> Result<Vec<Json>, String> {
        let docs: Vec<Json> = paths.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
        for (doc, path) in docs.iter().zip(paths) {
            if doc.get("gated").and_then(Json::as_bool) != Some(true) {
                return Err(format!(
                    "{path} is not a gate run (quick, or started with --server-args)"
                ));
            }
        }
        Ok(docs)
    };
    let (a, b) = (load_side(a_paths)?, load_side(b_paths)?);
    if a.is_empty() || b.is_empty() {
        return Err("compare needs at least one result file on each side".into());
    }
    let names = |key: &str| -> Vec<&Json> {
        bench
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .collect()
    };

    println!(
        "{:<15} {:<15} {:>12} {:>12} {:>10} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A", "spreadA", "spreadB", "bound"
    );
    let mut all_ok = true;
    for w in names("workloads") {
        let workload = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("a workload has no name")?;
        for m in names("end_to_end") {
            let metric = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("a metric has no name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("a metric has no bound")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let (va, vb) = (values(&a, workload, metric)?, values(&b, workload, metric)?);
            let v = verdict(&va, &vb, bound, lower);
            all_ok &= v != Verdict::Worse;
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{workload:<15} {metric:<15} {ma:>12.4} {mb:>12.4} {:>10.4} {:>8.4} {:>8.4} {bound:>7.2}  {}",
                mb / ma,
                spread_share(&va),
                spread_share(&vb),
                v.as_str()
            );
        }
        let ((fa, na), (fb, nb)) = (ops(&a, workload), ops(&b, workload));
        // A side that fails a larger share of its ops is worse, whatever
        // its latencies say: a failed op misses every latency limit.
        let more_failures = fb / nb.max(1.0) > fa / na.max(1.0);
        all_ok &= !more_failures;
        println!(
            "{workload:<15} {:<15} {:>12} {:>12} {:>10} {:>8} {:>8} {:>7}  {}",
            "failed/attempted",
            format!("{fa}/{na}"),
            format!("{fb}/{nb}"),
            "",
            "",
            "",
            "",
            if more_failures { "worse" } else { "same" }
        );
    }
    println!("ratios are B/A with A as the base; spreads are (Q3-Q1)/median of each side's files");
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // Lower is better: +12% is worse at a 10% bound, +8% is the same.
        assert_eq!(verdict(&[100.0], &[112.0], 0.10, true), Verdict::Worse);
        assert_eq!(verdict(&[100.0], &[108.0], 0.10, true), Verdict::Same);
        assert_eq!(verdict(&[100.0], &[85.0], 0.10, true), Verdict::Better);
        // Higher is better: the same numbers flip.
        assert_eq!(verdict(&[100.0], &[112.0], 0.10, false), Verdict::Better);
        assert_eq!(verdict(&[100.0], &[85.0], 0.10, false), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_not_same() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 115.0];
        assert_eq!(
            verdict(&noisy, &[100.0, 101.0], 0.10, true),
            Verdict::Unresolved
        );
        let steady = [99.0, 100.0, 101.0, 100.5];
        assert_eq!(verdict(&steady, &steady, 0.10, true), Verdict::Same);
        assert!(spread_share(&steady) < 0.02);
        assert_eq!(spread_share(&[5.0]), 0.0);
    }
}
