//! Query-guardrail integration: panic isolation, deadline degradation, and
//! prompt cancellation, all driven by deterministic fault injection rather
//! than wall-clock sleeps.

use std::sync::Arc;
use std::time::{Duration, Instant};

use raster_join::{
    CancelHandle, FaultPlan, PointStore, QueryBudget, RasterJoin, RasterJoinConfig,
    RasterJoinError,
};
use urban_data::query::SpatialAggQuery;
use urban_data::{PointTable, RegionSet};
use urbane::{DataCatalog, GuardPath, ResolutionPyramid, SessionConfig, UrbaneSession};
use urbane_bench::workload::Workload;

fn workload() -> Workload {
    Workload::standard(8_000, 11)
}

/// A join config whose canvas splits into a 4×4 tile grid, so per-tile
/// faults and per-tile panic shields actually have tiles to act on.
fn tiled_config() -> RasterJoinConfig {
    RasterJoinConfig {
        max_tile: 256,
        ..RasterJoinConfig::with_resolution(1024)
    }
}

fn demo_data() -> (PointTable, RegionSet) {
    let w = workload();
    let regions = w.neighborhoods();
    (w.taxi, regions)
}

/// An injected panic is a typed `Internal`, the plan disarms, and the retry
/// reproduces a fault-free run bit-for-bit.
#[test]
fn panicking_tile_is_a_typed_error_and_the_process_survives() {
    let (points, regions) = demo_data();
    let q = SpatialAggQuery::count();
    let plan = FaultPlan::new().panic_on_tile(3);
    let join = RasterJoin::new(RasterJoinConfig {
        faults: Some(plan.clone()),
        ..tiled_config()
    });
    match join.execute(&points, &regions, &q) {
        Err(RasterJoinError::Internal(m)) => assert!(m.contains("injected fault"), "{m}"),
        other => panic!("expected Err(Internal), got {other:?}"),
    }
    assert!(!plan.is_armed(), "the fault must have fired");
    // Faults disarm after the first trigger, so the same operator (process
    // intact, caches intact) succeeds on retry.
    let retried = join.execute(&points, &regions, &q).unwrap();
    let clean = RasterJoin::new(tiled_config()).execute(&points, &regions, &q).unwrap();
    assert!(retried.table.total_count() > 0);
    assert_eq!(retried.table, clean.table);
}

#[test]
fn fail_nth_fault_clears_on_retry() {
    let (points, regions) = demo_data();
    let q = SpatialAggQuery::count();
    let join = RasterJoin::new(RasterJoinConfig {
        faults: Some(FaultPlan::new().fail_nth(0)),
        ..tiled_config()
    });
    assert!(matches!(
        join.execute(&points, &regions, &q),
        Err(RasterJoinError::Internal(_))
    ));
    assert!(join.execute(&points, &regions, &q).is_ok());
}

#[test]
fn cancellation_lands_mid_query_without_wall_clock_sleeps() {
    let (points, regions) = demo_data();
    let q = SpatialAggQuery::count();

    // Tile 0 stalls for an hour — if cancellation were not prompt, this
    // test could not finish. The fault plan's shared tile-start counter
    // tells us when the query is inside the stall, so there is no race.
    let plan = FaultPlan::new().delay_on_tile(0, Duration::from_secs(3600));
    let join = RasterJoin::new(RasterJoinConfig {
        faults: Some(plan.clone()),
        ..tiled_config()
    });
    let handle = CancelHandle::new();
    let budget = QueryBudget::unlimited().cancellable(&handle);
    let store = PointStore::plain(&points);

    let started = Instant::now();
    let result = std::thread::scope(|scope| {
        let worker = scope.spawn(|| join.execute_store(store, &regions, &q, &budget));
        while plan.tiles_started() == 0 {
            std::thread::yield_now();
        }
        // The query is now provably inside the injected stall.
        handle.cancel();
        worker.join().expect("worker must not panic")
    });
    assert_eq!(result.unwrap_err(), RasterJoinError::Cancelled);
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "cancellation took {:?} — not prompt",
        started.elapsed()
    );
}

#[test]
fn elapsed_deadline_aborts_a_stalled_query() {
    let (points, regions) = demo_data();
    let q = SpatialAggQuery::count();
    let join = RasterJoin::new(RasterJoinConfig {
        faults: Some(FaultPlan::new().delay_on_tile(0, Duration::from_secs(3600))),
        ..tiled_config()
    });
    let budget = QueryBudget::with_deadline(Duration::from_millis(50));
    let started = Instant::now();
    let err = join.execute_store(PointStore::plain(&points), &regions, &q, &budget).unwrap_err();
    assert_eq!(err, RasterJoinError::DeadlineExceeded);
    assert!(started.elapsed() < Duration::from_secs(60));
}

fn guarded_session(join: RasterJoinConfig) -> UrbaneSession {
    let w = workload();
    let mut catalog = DataCatalog::new();
    catalog.register("taxi", w.taxi.clone());
    let pyramid = ResolutionPyramid::standard(&w.city.bbox(), 16, 8, 5);
    UrbaneSession::new(SessionConfig { join, ..Default::default() }, catalog, pyramid)
        .expect("catalog is non-empty")
}

#[test]
fn too_tight_deadline_degrades_within_the_grace_window() {
    // Tile 0 of the full-fidelity query stalls far past the deadline; the
    // guard must abandon it at the deadline and answer from a cheaper rung.
    let deadline = Duration::from_millis(400);
    let session = guarded_session(RasterJoinConfig {
        faults: Some(FaultPlan::new().delay_on_tile(0, Duration::from_secs(3600))),
        ..tiled_config()
    });

    let started = Instant::now();
    let got = session.evaluate_guarded(deadline, None).unwrap();
    let elapsed = started.elapsed();

    assert!(got.report.degraded(), "stalled full query cannot win: {:?}", got.report);
    assert!(
        matches!(got.report.path, GuardPath::DegradedBounded | GuardPath::PreviewSample),
        "{:?}",
        got.report.path
    );
    assert!(
        !got.report.fallbacks.is_empty(),
        "the report must record why it fell back"
    );
    assert!(got.table.total_count() > 0, "the degraded answer must be real");
    // The ladder promises ≈1.5× the deadline; allow slack for the cheap
    // fallback rung itself on a loaded machine.
    assert!(
        elapsed < deadline * 3,
        "guarded answer took {elapsed:?} against a {deadline:?} deadline"
    );
}

#[test]
fn guarded_evaluation_reports_the_full_path_when_nothing_goes_wrong() {
    let session = guarded_session(tiled_config());
    let got = session.evaluate_guarded(Duration::from_secs(120), None).unwrap();
    assert_eq!(got.report.path, GuardPath::Full);
    assert!(!got.report.retried);
    assert!(got.report.fallbacks.is_empty());
    assert!(got.report.error_bound.is_some(), "fresh full answers carry their ε");
}

#[test]
fn guarded_evaluation_retries_past_a_transient_panic() {
    let session = guarded_session(RasterJoinConfig {
        faults: Some(FaultPlan::new().panic_on_tile(1)),
        ..tiled_config()
    });
    let got = session.evaluate_guarded(Duration::from_secs(120), None).unwrap();
    assert_eq!(got.report.path, GuardPath::Full, "one panic costs a retry, not fidelity");
    assert!(got.report.retried);
}

/// N threads hammer two shared sessions — one bounded, one accurate — with
/// a mix of cached and guarded queries. Every concurrent answer must be
/// bit-identical to the serial reference, and afterwards the caches must
/// still be warm and unpoisoned: the original `Arc` is still served and the
/// hit/miss ledger balances exactly (two serial misses each — the cache
/// admits a key on its second miss — all the rest hits).
#[test]
fn concurrent_mixed_mode_session_use_matches_serial() {
    const THREADS: usize = 8;
    const ITERS: usize = 4;
    let bounded = guarded_session(tiled_config());
    let accurate = guarded_session(RasterJoinConfig {
        max_tile: 256,
        ..RasterJoinConfig::accurate(1024)
    });

    bounded.evaluate().unwrap();
    let serial_bounded = bounded.evaluate().unwrap();
    accurate.evaluate().unwrap();
    let serial_accurate = accurate.evaluate().unwrap();

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..ITERS {
                    let b = bounded.evaluate().unwrap();
                    assert_eq!(*b, *serial_bounded, "bounded answers must match serial");
                    let a = accurate.evaluate().unwrap();
                    assert_eq!(*a, *serial_accurate, "accurate answers must match serial");
                    let g = bounded.evaluate_guarded(Duration::from_secs(120), None).unwrap();
                    assert_eq!(g.report.path, GuardPath::Full);
                    assert_eq!(*g.table, *serial_bounded, "guarded answers must match serial");
                }
            });
        }
    });

    let again = bounded.evaluate().unwrap();
    assert!(
        Arc::ptr_eq(&serial_bounded, &again),
        "the cache must still serve the original entry"
    );
    let stats = bounded.cache_stats();
    assert_eq!(stats.misses, 2, "only the serial warm-up may miss");
    // Each iteration hits twice (evaluate + the guarded full rung), plus
    // the post-scope probe.
    assert_eq!(stats.hits as usize, THREADS * ITERS * 2 + 1);
    let stats = accurate.cache_stats();
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.hits as usize, THREADS * ITERS);
}
