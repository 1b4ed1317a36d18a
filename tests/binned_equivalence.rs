//! Binned == unbinned bit-identity across the whole executor matrix.
//!
//! Spatial binning is a pure pruning layer: the candidate lists a
//! [`BinnedPointTable`] hands a tile are a superset of the tile's points,
//! sorted ascending — so every kernel folds the same points in the same
//! order as the full 0..N scan, and the `AggTable`s must be *bit-identical*
//! (`==` on the raw f64 state, not approximately equal). The same holds for
//! the work-stealing scheduler: tile parts merge in tile order, so the
//! answer cannot depend on the thread count or on scheduling races.

use raster_join::{
    BinningMode, CanvasSpec, ExecutionMode, PointStore, QueryBudget, RasterJoin, RasterJoinConfig,
};
use urban_data::binned::BinnedPointTable;
use urban_data::filter::Filter;
use urban_data::gen::regions::voronoi_neighborhoods;
use urban_data::query::{AggKind, SpatialAggQuery};
use urban_data::time::TimeRange;
use urban_data::{PointTable, RegionSet};
use urbane_bench::workload::Workload;

/// A 512-px canvas tiled at 128 px: a multi-tile plan (≥ 4×4 in the square
/// dimension) so candidate pruning and work stealing both actually engage.
fn config(mode: ExecutionMode, threads: usize) -> RasterJoinConfig {
    RasterJoinConfig {
        spec: CanvasSpec::Resolution(512),
        max_tile: 128,
        mode,
        threads,
        binning: BinningMode::Off, // stores are supplied explicitly below
        ..Default::default()
    }
}

fn demo_data() -> (PointTable, RegionSet) {
    let w = Workload::standard(8_000, 17);
    let regions = voronoi_neighborhoods(&w.city.bbox(), 48, 5, 2);
    (w.taxi, regions)
}

fn queries() -> Vec<SpatialAggQuery> {
    vec![
        SpatialAggQuery::count(),
        SpatialAggQuery::new(AggKind::Sum("fare".into()))
            .filter(Filter::Time(TimeRange::new(0, i64::MAX / 2))),
        SpatialAggQuery::new(AggKind::Min("tip".into()))
            .filter(Filter::AttrRange { column: "fare".into(), min: 2.0, max: 60.0 }),
    ]
}

/// Every mode × thread count × query: the binned store must reproduce the
/// serial unbinned table exactly.
#[test]
fn matrix_bit_identity() {
    let (points, regions) = demo_data();
    let bins = BinnedPointTable::build(&points);
    let plain = PointStore::plain(&points);
    let binned = PointStore::with_bins(&points, &bins);
    let budget = QueryBudget::unlimited();

    let modes = [ExecutionMode::Bounded, ExecutionMode::Weighted, ExecutionMode::Accurate];
    for q in queries() {
        for mode in modes {
            let baseline = RasterJoin::new(config(mode, 1))
                .execute_store(plain, &regions, &q, &budget)
                .expect("serial unbinned");
            assert!(baseline.tiles >= 4, "plan must be multi-tile, got {}", baseline.tiles);
            for threads in [1usize, 2, 4, 7] {
                let join = RasterJoin::new(config(mode, threads));
                let unbinned = join
                    .execute_store(plain, &regions, &q, &budget)
                    .expect("threaded unbinned");
                let with_bins = join
                    .execute_store(binned, &regions, &q, &budget)
                    .expect("threaded binned");
                assert_eq!(
                    baseline.table, unbinned.table,
                    "{mode:?} threads={threads}: thread count changed the answer"
                );
                assert_eq!(
                    baseline.table, with_bins.table,
                    "{mode:?} threads={threads}: binning changed the answer"
                );
            }
        }
    }
}

/// Explicit-grid binning (all the way to degenerate 1×1) is equally
/// invisible, via the config knob rather than a hand-built store.
#[test]
fn grid_knob_bit_identity() {
    let (points, regions) = demo_data();
    let q = SpatialAggQuery::new(AggKind::Avg("fare".into()));
    let base = RasterJoin::new(config(ExecutionMode::Bounded, 1))
        .execute(&points, &regions, &q)
        .expect("unbinned");
    for side in [1u32, 3, 16, 64] {
        let join = RasterJoin::new(RasterJoinConfig {
            binning: BinningMode::Grid(side),
            ..config(ExecutionMode::Bounded, 4)
        });
        let got = join.execute(&points, &regions, &q).expect("binned");
        assert_eq!(base.table, got.table, "grid side {side} changed the answer");
    }
}

/// Auto mode bins exactly when it can pay off — and never changes answers
/// on either side of the threshold.
#[test]
fn auto_mode_bit_identity_across_threshold() {
    let (points, regions) = demo_data();
    let q = SpatialAggQuery::count();
    for n in [raster_join::MIN_AUTO_BIN_POINTS - 1, raster_join::MIN_AUTO_BIN_POINTS + 1] {
        let pts = points.prefix(n);
        let off = RasterJoin::new(config(ExecutionMode::Bounded, 2))
            .execute(&pts, &regions, &q)
            .expect("off");
        let auto = RasterJoin::new(RasterJoinConfig {
            binning: BinningMode::Auto,
            ..config(ExecutionMode::Bounded, 2)
        })
        .execute(&pts, &regions, &q)
        .expect("auto");
        assert_eq!(off.table, auto.table, "auto binning changed the answer at n={n}");
    }
}

/// A zero grid side is a configuration error, not a panic.
#[test]
fn zero_grid_side_rejected() {
    let (points, regions) = demo_data();
    let join = RasterJoin::new(RasterJoinConfig {
        binning: BinningMode::Grid(0),
        ..config(ExecutionMode::Bounded, 1)
    });
    let err = join.execute(&points, &regions, &SpatialAggQuery::count()).unwrap_err();
    assert!(
        matches!(err, raster_join::RasterJoinError::Config(_)),
        "expected Config error, got {err:?}"
    );
}

/// The prepared executor accepts a binned store too and replays the
/// one-shot answer bit-for-bit.
#[test]
fn prepared_store_bit_identity() {
    use raster_join::PreparedRasterJoin;
    let (points, regions) = demo_data();
    let bins = BinnedPointTable::build(&points);
    let budget = QueryBudget::unlimited();
    let q = SpatialAggQuery::new(AggKind::Sum("fare".into()));
    for mode in [ExecutionMode::Bounded, ExecutionMode::Weighted, ExecutionMode::Accurate] {
        let prepared =
            PreparedRasterJoin::prepare(&regions, CanvasSpec::Resolution(512), 128, mode)
                .expect("prepare");
        let base = prepared.execute(&points, &q).expect("plain prepared");
        let got = prepared
            .execute_store(PointStore::with_bins(&points, &bins), &q, &budget)
            .expect("binned prepared");
        assert_eq!(base.table, got.table, "{mode:?}: prepared binned diverged");
    }
}
