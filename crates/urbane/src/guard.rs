//! Guarded evaluation: the degradation ladder behind every query.
//!
//! An interactive system must answer *something* before the user's attention
//! lapses. [`UrbaneService::query_cancellable`] — the ladder's one caller,
//! reached by the HTTP server through `UrbaneService::query` (with no cancel
//! handle) and by [`UrbaneSession::evaluate_guarded`] (with its caller's
//! handle, if any) — runs a query under a wall-clock deadline and, instead of
//! surfacing [`UrbaneError::DeadlineExceeded`], walks a ladder of cheaper
//! answers:
//!
//! 1. **Full** — the request's configured join under the deadline, with one
//!    retry if a worker panics (panics are isolated per tile and typed as
//!    [`UrbaneError::Internal`], so a transient fault costs a retry, not the
//!    process).
//! 2. **Degraded bounded** — a coarser bounded canvas
//!    ([`DEGRADED_RESOLUTION`]²), granted a grace window of half the
//!    original deadline. Coarser pixels mean a larger ε error bound, which
//!    the report carries so the UI can badge the view as approximate.
//! 3. **Preview sample** — the service's cached-reservoir preview
//!    ([`UrbaneService::preview`] with [`PREVIEW_ROWS`]). Unbudgeted,
//!    because it is fast by construction (a few thousand rows) and the
//!    ladder must terminate with an answer.
//!
//! Explicit cancellation is different from running out of time: a raised
//! [`CancelHandle`] means the user no longer wants *any* answer, so
//! [`UrbaneError::Cancelled`] short-circuits the whole ladder. Errors that
//! degradation cannot fix (unknown dataset, bad config) also propagate
//! unchanged from the first rung.
//!
//! Every guarded call returns a [`GuardReport`] alongside the table: which
//! rung answered, what went wrong on the way down, whether a retry happened,
//! the elapsed wall-clock time, and the error bound of the answer actually
//! delivered.
//!
//! [`UrbaneService::query_cancellable`]: crate::UrbaneService::query_cancellable
//! [`UrbaneService::preview`]: crate::UrbaneService::preview
//! [`UrbaneSession::evaluate_guarded`]: crate::UrbaneSession::evaluate_guarded

use crate::{Result, UrbaneError};
use raster_join::{CancelHandle, QueryBudget};
use std::sync::Arc;
use std::time::{Duration, Instant};
use urban_data::query::AggTable;

/// Canvas resolution of the degraded bounded rung. Coarse enough to beat
/// most deadlines (64× fewer pixels than the 1024 default), fine enough
/// that borough/neighborhood aggregates stay recognizable.
pub const DEGRADED_RESOLUTION: u32 = 128;

/// Reservoir-sample size of the preview rung.
pub const PREVIEW_ROWS: usize = 4_096;

/// Which rung of the degradation ladder produced the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardPath {
    /// The full-fidelity query finished within its deadline.
    Full,
    /// Fell back to the coarser bounded canvas.
    DegradedBounded,
    /// Fell back to the cached-sample preview.
    PreviewSample,
}

/// What a guarded evaluation actually did, for the UI and for tests.
#[derive(Debug, Clone)]
pub struct GuardReport {
    /// The rung that produced the answer.
    pub path: GuardPath,
    /// Human-readable trail of what failed on the way down (empty when the
    /// full query succeeded first try).
    pub fallbacks: Vec<String>,
    /// Whether the full query was retried after an internal (panic) error.
    pub retried: bool,
    /// Wall-clock time from call to answer.
    pub elapsed: Duration,
    /// The deadline the caller asked for.
    pub deadline: Duration,
    /// ε positional error bound of the delivered answer, in world units (0
    /// when exact; a cache hit repeats its answer's). `None` for the preview
    /// rung, whose error is statistical rather than positional.
    pub error_bound: Option<f64>,
}

impl GuardPath {
    /// Stable wire name of the rung (used by the serving layer's JSON and
    /// metrics exposition).
    pub fn as_str(&self) -> &'static str {
        match self {
            GuardPath::Full => "full",
            GuardPath::DegradedBounded => "degraded_bounded",
            GuardPath::PreviewSample => "preview_sample",
        }
    }
}

impl GuardReport {
    /// Did the answer come from a fallback rung?
    pub fn degraded(&self) -> bool {
        self.path != GuardPath::Full
    }

    /// Serialize the report as a JSON object — the `guard` field of the
    /// serving layer's `/query` responses. Times are reported in
    /// milliseconds; the error bound is `null` when unknown.
    pub fn to_json(&self) -> urbane_geom::geojson::Json {
        use urbane_geom::geojson::Json;
        let mut m = std::collections::BTreeMap::new();
        m.insert("path".to_string(), Json::String(self.path.as_str().to_string()));
        m.insert("degraded".to_string(), Json::Bool(self.degraded()));
        m.insert("retried".to_string(), Json::Bool(self.retried));
        m.insert(
            "fallbacks".to_string(),
            Json::Array(self.fallbacks.iter().map(|f| Json::String(f.clone())).collect()),
        );
        m.insert("elapsed_ms".to_string(), Json::Number(self.elapsed.as_secs_f64() * 1e3));
        m.insert("deadline_ms".to_string(), Json::Number(self.deadline.as_secs_f64() * 1e3));
        m.insert(
            "error_bound".to_string(),
            match self.error_bound {
                Some(e) => Json::Number(e),
                None => Json::Null,
            },
        );
        Json::Object(m)
    }
}

/// A guarded answer: the aggregate table plus the report describing how it
/// was obtained.
#[derive(Debug, Clone)]
pub struct GuardedResult {
    /// Per-region aggregates (possibly approximate — see the report).
    pub table: Arc<AggTable>,
    /// How this answer was produced.
    pub report: GuardReport,
}

/// Run the degradation ladder over caller-supplied rungs, bound by
/// [`crate::service::UrbaneService::query_cancellable`] to one request.
///
/// * `full` may be called twice (one retry after an internal/panic error),
///   under a budget expiring at the caller's deadline.
/// * `degraded` runs once under a grace budget of half the deadline again.
/// * `preview` is unbudgeted — the ladder must terminate with an answer —
///   but a raised `cancel` handle still short-circuits it.
pub(crate) fn run_ladder<F, D, P>(
    deadline: Duration,
    cancel: Option<&CancelHandle>,
    mut full: F,
    degraded: D,
    preview: P,
) -> Result<GuardedResult>
where
    F: FnMut(&QueryBudget) -> Result<(Arc<AggTable>, Option<f64>)>,
    D: FnOnce(&QueryBudget) -> Result<(AggTable, f64)>,
    P: FnOnce() -> Result<AggTable>,
{
    let start = Instant::now();
    let hard_deadline = start + deadline;
    let mut fallbacks = Vec::new();
    let mut retried = false;

    let budget_until = |until: Instant| {
        let b = QueryBudget::until(until);
        match cancel {
            Some(h) => b.cancellable(h),
            None => b,
        }
    };

    // Rung 1: full fidelity, one retry on internal (panic) failure.
    let mut first = full(&budget_until(hard_deadline));
    if let Err(UrbaneError::Internal(m)) = &first {
        fallbacks.push(format!("retrying full query after internal error: {m}"));
        retried = true;
        first = full(&budget_until(hard_deadline));
    }
    match first {
        Ok((table, error_bound)) => {
            return Ok(GuardedResult {
                table,
                report: GuardReport {
                    path: GuardPath::Full,
                    fallbacks,
                    retried,
                    elapsed: start.elapsed(),
                    deadline,
                    error_bound,
                },
            });
        }
        Err(UrbaneError::Cancelled) => return Err(UrbaneError::Cancelled),
        Err(e @ (UrbaneError::DeadlineExceeded | UrbaneError::Internal(_))) => {
            fallbacks.push(format!("full query failed: {e}"));
        }
        Err(e) => return Err(e),
    }

    // Rung 2: coarser bounded canvas, with a grace window — the user
    // already waited the full deadline, so the fallback gets half again.
    let grace_deadline = hard_deadline + deadline / 2;
    match degraded(&budget_until(grace_deadline)) {
        Ok((table, epsilon)) => {
            return Ok(GuardedResult {
                table: Arc::new(table),
                report: GuardReport {
                    path: GuardPath::DegradedBounded,
                    fallbacks,
                    retried,
                    elapsed: start.elapsed(),
                    deadline,
                    error_bound: Some(epsilon),
                },
            });
        }
        Err(UrbaneError::Cancelled) => return Err(UrbaneError::Cancelled),
        Err(e @ (UrbaneError::DeadlineExceeded | UrbaneError::Internal(_))) => {
            fallbacks.push(format!("degraded query failed: {e}"));
        }
        Err(e) => return Err(e),
    }

    // Rung 3: sample preview. Unbudgeted — the ladder must terminate
    // with an answer, and a few thousand sampled rows always render
    // quickly — but an explicit cancel still wins.
    if let Some(h) = cancel {
        if h.is_cancelled() {
            return Err(UrbaneError::Cancelled);
        }
    }
    let table = preview()?;
    Ok(GuardedResult {
        table: Arc::new(table),
        report: GuardReport {
            path: GuardPath::PreviewSample,
            fallbacks,
            retried,
            elapsed: start.elapsed(),
            deadline,
            error_bound: None,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DataCatalog;
    use crate::resolution::ResolutionPyramid;
    use crate::session::{SessionConfig, UrbaneSession};
    use raster_join::RasterJoinConfig;
    use urban_data::gen::city::CityModel;
    use urban_data::gen::taxi::{generate_taxi, TaxiConfig};

    fn session_with_join(join: RasterJoinConfig) -> UrbaneSession {
        let city = CityModel::nyc_like();
        let taxi = generate_taxi(&city, &TaxiConfig { rows: 5_000, seed: 7, start: 0, days: 5 });
        let mut catalog = DataCatalog::new();
        catalog.register("taxi", taxi);
        let pyramid = ResolutionPyramid::standard(&city.bbox(), 16, 8, 5);
        UrbaneSession::new(
            SessionConfig { join, ..Default::default() },
            catalog,
            pyramid,
        )
        .unwrap()
    }

    #[test]
    fn generous_deadline_takes_the_full_path() {
        let s = session_with_join(RasterJoinConfig::with_resolution(256));
        let got = s.evaluate_guarded(Duration::from_secs(60), None).unwrap();
        assert_eq!(got.report.path, GuardPath::Full);
        assert!(!got.report.degraded());
        assert!(got.report.fallbacks.is_empty());
        assert!(!got.report.retried);
        assert!(got.report.error_bound.is_some());
        assert!(got.table.total_count() > 0);
    }

    #[test]
    fn zero_deadline_still_answers_via_a_fallback() {
        let s = session_with_join(RasterJoinConfig::with_resolution(512));
        let got = s.evaluate_guarded(Duration::ZERO, None).unwrap();
        assert!(got.report.degraded(), "zero budget cannot take the full path");
        assert!(!got.report.fallbacks.is_empty());
        assert!(got.table.total_count() > 0, "fallback answer must be non-trivial");
    }

    #[test]
    fn raised_cancel_short_circuits_the_ladder() {
        let s = session_with_join(RasterJoinConfig::with_resolution(256));
        let h = CancelHandle::new();
        h.cancel();
        let err = s.evaluate_guarded(Duration::from_secs(60), Some(&h)).unwrap_err();
        assert_eq!(err, UrbaneError::Cancelled, "cancel must not degrade into an answer");
    }

    #[test]
    fn injected_panic_costs_one_retry_not_the_answer() {
        let mut join = RasterJoinConfig::with_resolution(256);
        join.faults = Some(raster_join::FaultPlan::new().panic_on_tile(0));
        let s = session_with_join(join);
        let got = s.evaluate_guarded(Duration::from_secs(60), None).unwrap();
        // The fault disarms after firing once, so the retry succeeds at
        // full fidelity.
        assert_eq!(got.report.path, GuardPath::Full);
        assert!(got.report.retried);
        assert_eq!(got.report.fallbacks.len(), 1);
        assert!(got.report.fallbacks[0].contains("internal error"), "{:?}", got.report.fallbacks);
    }
}
