//! The differential runner: every workload through every execution path,
//! every thread count, both row orders — each result diffed against the
//! exact oracle and (for the approximate paths) asserted under the analytic
//! ε budget.
//!
//! Per scenario the matrix is
//!
//! | path       | threads | row order            | expectation vs. oracle            |
//! |------------|---------|----------------------|-----------------------------------|
//! | bounded    | 1, 4    | generator, clustered | within [`BOUNDED_BAND`]·ε budget  |
//! | weighted   | 1, 4    | generator, clustered | within [`WEIGHTED_BAND`]·ε budget |
//! | accurate   | 1, 4    | generator, clustered | exact (counts bit-equal; value    |
//! |            |         |                      | channels to f32-accumulator tol)  |
//! | prepared   | —       | generator, clustered | as its mode (bounded, weighted,   |
//! |            |         |                      | accurate)                         |
//! | index_join | 1       | —                    | bit-for-bit equal to the oracle   |
//! |            |         |                      | through a `.ubs` store round-trip |
//! |            |         |                      | (ε = 0 by construction)           |
//!
//! The clustered order is [`PointTable::cluster`]'s, so its runs also go
//! through the zone footers. On top of the oracle diff, within one row
//! order every thread count of a path, and the path's prepared replay, must
//! agree *bit-for-bit* — the work-stealing merge replays tiles in order, so
//! any drift is a determinism bug, not roundoff. Across orders only f32
//! blend order moves, so there each run is held to its oracle bound alone.
//!
//! MIN/MAX under the approximate paths are *not* certifiable (dropping a
//! single boundary point can move an extremum arbitrarily far), so those
//! runs record the observed error without asserting a budget; the accurate
//! path still certifies them exactly.

use raster_join::{
    CanvasPlan, CanvasSpec, ExecutionMode, PointStore, PreparedRasterJoin, RasterJoin,
    RasterJoinConfig,
};
use urban_data::query::{AggKind, AggTable};
use urban_data::PointTable;

use crate::budget::{error_budget, ErrorBudget, BOUNDED_BAND, WEIGHTED_BAND};
use crate::corpus::Scenario;
use crate::oracle::oracle_join;
use crate::Result;

/// Tile size limit used by every verification run: small enough that the
/// 96/128-px scenarios exercise multi-tile plans (and therefore the
/// work-stealing scheduler) on every corpus.
pub const MAX_TILE: u32 = 64;

/// Outcome of one (scenario, path, threads, row order) execution.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Scenario label (from [`Scenario::name`]).
    pub scenario: String,
    /// Execution path: `bounded`, `weighted`, `accurate`, `prepared`,
    /// `prepared_weighted`, `prepared_accurate`, `index_join`.
    pub mode: &'static str,
    /// Worker threads (1 for prepared, which is serial by design).
    pub threads: usize,
    /// Row-order axis: `generator` (the corpus's own order) or `clustered`
    /// ([`PointTable::cluster`]).
    pub order: &'static str,
    /// The run's ε (world units).
    pub epsilon: f64,
    /// Max over regions of `|approx − exact|` (empty groups read as 0).
    pub max_abs_err: f64,
    /// Max over regions of error / certified budget (0 when every budget
    /// with a nonzero error was met with room; only meaningful for
    /// budget-certified runs).
    pub max_budget_util: f64,
    /// True when this run asserted a bound (budget or exactness) rather
    /// than only recording the observed error.
    pub certified: bool,
    /// Violations found (empty = pass).
    pub failures: Vec<String>,
}

impl RunRecord {
    /// Did the run meet every assertion?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// f32-accumulator tolerance for value channels (point passes accumulate
/// into f32 pixel buffers before the f64 gather).
fn value_tol(exact: f64) -> f64 {
    1e-3 + 1e-5 * exact.abs()
}

fn rec(
    s: &Scenario,
    mode: &'static str,
    threads: usize,
    order: &'static str,
    epsilon: f64,
) -> RunRecord {
    RunRecord {
        scenario: s.name.clone(),
        mode,
        threads,
        order,
        epsilon,
        max_abs_err: 0.0,
        max_budget_util: 0.0,
        certified: true,
        failures: Vec::new(),
    }
}

/// Diff an approximate table against the oracle under a per-region budget.
fn check_budgeted(rec: &mut RunRecord, approx: &AggTable, exact: &AggTable, budget: &ErrorBudget) {
    let agg = exact.agg.clone();
    for (r, (sa, se)) in approx.states.iter().zip(&exact.states).enumerate() {
        let va = sa.finish(&agg);
        let ve = se.finish(&agg);
        let diff = (va.unwrap_or(0.0) - ve.unwrap_or(0.0)).abs();
        rec.max_abs_err = rec.max_abs_err.max(diff);
        let b = budget.regions.get(r).copied().unwrap_or_default();
        let (bound, tol) = match agg {
            AggKind::Count => (b.count_budget(), 1e-6),
            AggKind::Sum(_) => (b.sum_budget(), value_tol(ve.unwrap_or(0.0))),
            AggKind::Avg(_) => {
                // |Δavg| ≤ (sumB + |avg_e|·cntB) / weight_a  (see budget.rs).
                let wa = sa.weight;
                if va.is_none() {
                    // The approximate side saw nothing: legal only when the
                    // exact population fits inside the band.
                    if se.count as f64 > b.count_budget() {
                        rec.failures.push(format!(
                            "{}/{} region {r}: empty approx group but {} exact points > budget {}",
                            rec.mode, rec.scenario, se.count, b.count_budget()
                        ));
                    }
                    continue;
                }
                let avg_e = ve.unwrap_or(0.0);
                ((b.sum_budget() + avg_e.abs() * b.count_budget()) / wa.max(f64::MIN_POSITIVE),
                 value_tol(avg_e))
            }
            AggKind::Min(_) | AggKind::Max(_) => {
                // Observed only — a budget cannot bound an extremum.
                rec.certified = false;
                continue;
            }
        };
        if bound > 0.0 {
            rec.max_budget_util = rec.max_budget_util.max(diff / (bound + tol));
        }
        if diff > bound + tol {
            rec.failures.push(format!(
                "{}/{} region {r}: |approx − exact| = {diff:.6} exceeds ε budget {bound:.6} (+{tol:.1e} tol), ε={:.4}",
                rec.mode, rec.scenario, rec.epsilon
            ));
        }
    }
}

/// Diff an accurate-path table against the oracle: counts and group
/// emptiness bit-exact, value channels to f32-accumulator tolerance.
fn check_accurate(rec: &mut RunRecord, approx: &AggTable, exact: &AggTable) {
    let agg = exact.agg.clone();
    for (r, (sa, se)) in approx.states.iter().zip(&exact.states).enumerate() {
        if sa.count != se.count {
            rec.failures.push(format!(
                "{}/{} region {r}: accurate count {} != exact {}",
                rec.mode, rec.scenario, sa.count, se.count
            ));
        }
        let va = sa.finish(&agg);
        let ve = se.finish(&agg);
        match (va, ve) {
            (None, None) => {}
            (Some(a), Some(e)) => {
                let diff = (a - e).abs();
                rec.max_abs_err = rec.max_abs_err.max(diff);
                let tol = match agg {
                    AggKind::Count => 0.0,
                    AggKind::Min(_) | AggKind::Max(_) => 1e-9,
                    AggKind::Sum(_) | AggKind::Avg(_) => value_tol(e),
                };
                if diff > tol {
                    rec.failures.push(format!(
                        "{}/{} region {r}: accurate {a} vs exact {e} (tol {tol:.1e})",
                        rec.mode, rec.scenario
                    ));
                }
            }
            (a, e) => rec.failures.push(format!(
                "{}/{} region {r}: group emptiness mismatch {a:?} vs {e:?}",
                rec.mode, rec.scenario
            )),
        }
    }
}

/// Diff a raster path's table against the oracle by `mode`: accurate
/// exactly, the others under their band's budget.
fn check(
    rec: &mut RunRecord,
    mode: ExecutionMode,
    table: &AggTable,
    exact: &AggTable,
    bounded: &ErrorBudget,
    weighted: &ErrorBudget,
) {
    match mode {
        ExecutionMode::Accurate => check_accurate(rec, table, exact),
        ExecutionMode::Weighted => check_budgeted(rec, table, exact, weighted),
        _ => check_budgeted(rec, table, exact, bounded),
    }
}

/// Run the full matrix for one scenario. Returns one [`RunRecord`] per
/// execution; a record with non-empty `failures` marks a violation (the
/// function itself only errs when an executor fails outright).
pub fn verify_scenario(s: &Scenario) -> Result<Vec<RunRecord>> {
    let exact = oracle_join(&s.points, &s.regions, &s.query)?;
    let spec = CanvasSpec::Resolution(s.resolution);
    let epsilon = CanvasPlan::plan(&s.regions.bbox(), spec, MAX_TILE)?.epsilon;
    let bounded_budget = error_budget(&s.points, &s.regions, &s.query, epsilon, BOUNDED_BAND)?;
    let weighted_budget = error_budget(&s.points, &s.regions, &s.query, epsilon, WEIGHTED_BAND)?;

    let mut clustered = s.points.clone();
    clustered.cluster();
    let orders: [(&'static str, &PointTable); 2] = [("generator", &s.points), ("clustered", &clustered)];
    let mut records = Vec::new();

    let paths = [
        ("bounded", "prepared", ExecutionMode::Bounded),
        ("weighted", "prepared_weighted", ExecutionMode::Weighted),
        ("accurate", "prepared_accurate", ExecutionMode::Accurate),
    ];

    for (mode_name, prepared_name, mode) in paths {
        // The polygon side rasterized once, replayed per row order.
        let prepared = PreparedRasterJoin::prepare(&s.regions, spec, MAX_TILE, mode)?;
        for (order, points) in orders {
            // The threads=1 answer: every other run of the path over this
            // order must reproduce it bit-for-bit.
            let mut reference: Option<AggTable> = None;
            for threads in [1usize, 4] {
                let config = RasterJoinConfig {
                    spec,
                    max_tile: MAX_TILE,
                    mode,
                    threads,
                    ..RasterJoinConfig::default()
                };
                let result = RasterJoin::new(config).execute(points, &s.regions, &s.query)?;
                let mut r = rec(s, mode_name, threads, order, result.epsilon);
                if (result.epsilon - epsilon).abs() > 1e-12 {
                    r.failures.push(format!(
                        "{mode_name}/{}: plan ε {} != expected {epsilon}",
                        s.name, result.epsilon
                    ));
                }
                check(&mut r, mode, &result.table, &exact, &bounded_budget, &weighted_budget);
                match &reference {
                    None => reference = Some(result.table),
                    Some(first) if *first != result.table => r.failures.push(format!(
                        "{mode_name}/{}: threads={threads} answer differs bit-wise from the \
                         threads=1 answer over the {order} order",
                        s.name
                    )),
                    Some(_) => {}
                }
                records.push(r);
            }
            let result = prepared.execute_store(
                PointStore::plain(points),
                &s.query,
                &raster_join::QueryBudget::unlimited(),
            )?;
            let mut r = rec(s, prepared_name, 1, order, result.epsilon);
            check(&mut r, mode, &result.table, &exact, &bounded_budget, &weighted_budget);
            if reference.as_ref() != Some(&result.table) {
                r.failures.push(format!(
                    "{prepared_name}/{}: prepared replay differs bit-wise from the one-shot \
                     answer over the {order} order",
                    s.name
                ));
            }
            records.push(r);
        }
    }

    // Index join over a `.ubs` serialization of the scenario (written in
    // clustered order): the reordering, zone-streamed reads and footer pruning must all be
    // answer-invisible, so the result is held to the strictest bar in the
    // matrix — *bit-for-bit* equality with the exact oracle (ε = 0).
    let store_bytes = urbane_store::StoreBuilder::new()
        .chunk_rows(1024)
        .encode(&s.points)
        .map_err(|e| crate::VerifyError::Data(e.to_string()))?;
    let mut source = urbane_store::ChunkedPointSource::from_bytes(store_bytes)
        .map_err(|e| crate::VerifyError::Data(e.to_string()))?;
    let region_index = spatial_index::GridIndex::build_auto(&s.regions);
    let (table, _stats) = spatial_index::index_join_stored(
        &mut source,
        &s.regions,
        &region_index,
        &s.query,
        &raster_join::QueryBudget::unlimited(),
    )?;
    let mut r = rec(s, "index_join", 1, "clustered", 0.0);
    if table != exact {
        // Pin down the first divergent region for the report.
        let why = table
            .states
            .iter()
            .zip(&exact.states)
            .enumerate()
            .find(|(_, (a, e))| a != e)
            .map(|(i, (a, e))| format!("region {i}: {a:?} vs exact {e:?}"))
            .unwrap_or_else(|| "table-level mismatch".to_string());
        r.failures
            .push(format!("index_join/{}: not bit-identical to the exact oracle: {why}", s.name));
    }
    records.push(r);

    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::corpus;

    /// A miniature end-to-end certification: every run of a small corpus
    /// passes, and the matrix axes all appear.
    #[test]
    fn small_corpus_certifies() {
        for s in corpus(4, 7_000) {
            let records = verify_scenario(&s).expect("executors must not fail");
            assert!(records.len() >= 14, "{}: matrix too small ({})", s.name, records.len());
            for r in &records {
                assert!(r.passed(), "{} {}/{}/{}: {:?}", r.scenario, r.mode, r.threads, r.order, r.failures);
            }
            assert!(records.iter().any(|r| r.mode == "accurate" && r.order == "clustered"));
            assert!(records.iter().any(|r| r.mode == "prepared"));
            assert!(records.iter().any(|r| r.mode == "index_join"));
        }
    }

    /// The budget must be *live*: at coarse resolutions some bounded run in
    /// a small corpus should actually use part of its budget (nonzero error)
    /// — otherwise the harness is vacuous.
    #[test]
    fn bounded_error_is_observed_not_assumed() {
        let mut max_err = 0.0f64;
        for s in corpus(6, 7_100) {
            for r in verify_scenario(&s).expect("executors must not fail") {
                if r.mode == "bounded" {
                    max_err = max_err.max(r.max_abs_err);
                }
            }
        }
        assert!(
            max_err > 0.0,
            "six coarse-canvas scenarios with no bounded-mode error at all — oracle diff is dead"
        );
    }
}
