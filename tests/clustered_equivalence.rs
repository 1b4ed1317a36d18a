//! Clustering changes the row order and nothing else.
//!
//! Three claims hold the layout together (DESIGN.md "Row order is the query
//! plan"), each checked here:
//!
//! 1. [`PointTable::cluster`] is a stable, deterministic, idempotent
//!    permutation of the rows, and every row lies inside its zone's footer.
//! 2. The zone classifier is a pure pruning layer: a clustered table answers
//!    **bit-identically** (`==` on the raw f64 state) with its footers on and
//!    with them stripped, on every executor and tiling, for filters that
//!    sit exactly on footer edges.
//! 3. Against the generator's row order only f32 blend order moves: exact
//!    modes and counts agree exactly, bounded sums to rounding.

use raster_join::{
    CanvasPlan, CanvasSpec, ExecutionMode, PointStore, PreparedRasterJoin, QueryBudget, RasterJoin,
    RasterJoinConfig, Reach, ZonePlan, ZoneWalk,
};
use spatial_index::naive_join;
use urban_data::filter::Filter;
use urban_data::query::{AggKind, SpatialAggQuery};
use urban_data::schema::{AttrType, Schema};
use urban_data::time::{TimeRange, DAY};
use urban_data::{PointTable, ZONE_ROWS};
use urbane_bench::workload::{footer_demo_data as demo_data, footer_edge_filters, row_bits as rows};
use urbane_geom::{BoundingBox, Point};

/// Same rows in the same order under the same footers. (Not `==`: the
/// fixture holds NaNs, and the failure message would be the whole table.)
fn same_table(a: &PointTable, b: &PointTable) -> bool {
    rows(a) == rows(b) && format!("{:?}", a.zones()) == format!("{:?}", b.zones())
}

/// The same rows in the same order, without zone footers.
fn stripped(t: &PointTable) -> PointTable {
    let plain = t.filter_rows(&vec![true; t.len()]);
    assert!(plain.zones().is_empty());
    assert!(rows(&plain) == rows(t));
    plain
}

#[test]
fn clustering_is_a_stable_deterministic_idempotent_permutation() {
    let (original, _) = demo_data(true);
    let mut a = original.clone();
    a.cluster();
    let mut b = original.clone();
    b.cluster();
    assert!(same_table(&a, &b), "clustering must be deterministic");

    let (mut before, mut after) = (rows(&original), rows(&a));
    assert!(before != after, "the generator's order is not clustered");
    before.sort();
    after.sort();
    assert!(before == after, "clustering must preserve the row multiset");
    assert_eq!(a.bbox(), original.bbox());
    assert_eq!(a.zones().len(), a.len().div_ceil(ZONE_ROWS));

    let again = {
        let mut c = a.clone();
        c.cluster();
        c
    };
    assert!(same_table(&again, &a), "clustering a clustered table must change nothing");
}

#[test]
fn ties_keep_their_input_order() {
    // Five sites, three days, every (site, day) visited many times: rows with
    // equal keys carry their input position in `seq`.
    let schema = Schema::new([("seq", AttrType::Numeric)]).unwrap();
    let mut t = PointTable::new(schema);
    for i in 0..3_000usize {
        let site = (i * 7) % 5;
        let day = ((i * 11) % 3) as i64;
        t.push(Point::new(site as f64 * 10.0, site as f64), day * DAY + 5, &[i as f32]).unwrap();
    }
    t.cluster();
    let mut last = std::collections::HashMap::new();
    for i in 0..t.len() {
        let key = (t.loc(i).x.to_bits(), t.time(i));
        if let Some(prev) = last.insert(key, t.attr(i, 0)) {
            assert!(prev < t.attr(i, 0), "row {i}: equal keys out of input order");
        }
    }
    // Equal keys are contiguous: each (site, day) was entered once.
    let runs = (1..t.len())
        .filter(|&i| (t.loc(i).x, t.time(i)) != (t.loc(i - 1).x, t.time(i - 1)))
        .count();
    assert_eq!(runs + 1, 15);
}

#[test]
fn degenerate_tables_cluster_safely() {
    let schema = Schema::new([("v", AttrType::Numeric)]).unwrap();
    let mut empty = PointTable::new(schema.clone());
    empty.cluster();
    assert!(empty.is_empty() && empty.zones().is_empty());

    let mut one = PointTable::new(schema.clone());
    one.push(Point::new(3.0, 4.0), 99, &[1.5]).unwrap();
    one.cluster();
    assert_eq!(rows(&one).len(), 1);
    assert_eq!(one.zones().len(), 1);
    assert_eq!(one.zones()[0].bbox, BoundingBox::from_coords(3.0, 4.0, 3.0, 4.0));
    assert_eq!((one.zones()[0].t_min, one.zones()[0].t_max), (99, 99));

    // One location, one day: every key ties, so the order must not move.
    let mut flat = PointTable::new(schema);
    for i in 0..(ZONE_ROWS + 10) {
        flat.push(Point::new(1.0, 1.0), 1_000 + (i % 7) as i64, &[i as f32]).unwrap();
    }
    let before = rows(&flat);
    flat.cluster();
    assert_eq!(rows(&flat), before);
    assert_eq!(flat.zones().len(), 2);
}

#[test]
fn every_row_lies_inside_its_zone_footer() {
    let (mut t, _) = demo_data(true);
    t.cluster();
    let mut nan_zones = 0;
    for (z, f) in t.zones().iter().enumerate() {
        let mut saw_nan = false;
        for i in z * ZONE_ROWS..((z + 1) * ZONE_ROWS).min(t.len()) {
            let p = t.loc(i);
            saw_nan |= p.x.is_nan() || p.y.is_nan();
            assert!(f.bbox.contains(p) || p.x.is_nan(), "row {i} outside its zone's bbox");
            assert!(f.t_min <= t.time(i) && t.time(i) <= f.t_max, "row {i} outside its zone's time");
            for c in 0..t.schema().len() {
                let v = t.attr(i, c);
                saw_nan |= v.is_nan();
                assert!(v.is_nan() || (f.attr_min[c] <= v && v <= f.attr_max[c]), "row {i} col {c}");
            }
        }
        assert_eq!(f.has_nan, saw_nan, "zone {z}");
        nan_zones += usize::from(saw_nan);
    }
    assert!(nan_zones > 0 && nan_zones < t.zones().len(), "the fixture must mix both kinds");
    assert_eq!(t.zones().len(), 5);
}

#[test]
fn growing_a_clustered_table_drops_its_footers() {
    let (mut t, _) = demo_data(true);
    t.cluster();
    assert!(!t.zones().is_empty());
    t.push(Point::new(0.0, 0.0), 0, &[1.0, 1.0, 0.0]).unwrap();
    assert!(t.zones().is_empty(), "a pushed row is not in clustered order");
}

/// Filters placed exactly on the footers of `t`'s zones, plus the shapes the
/// benchmark sends.
fn edge_filters(t: &PointTable) -> Vec<(&'static str, Vec<Filter>)> {
    footer_edge_filters(t, &t.zones().iter().collect::<Vec<_>>())
}

fn config(mode: ExecutionMode, max_tile: u32) -> RasterJoinConfig {
    RasterJoinConfig {
        spec: CanvasSpec::Resolution(512),
        max_tile,
        mode,
        ..Default::default()
    }
}

/// Claim 2 over the one-shot executors: footers on == footers stripped, and
/// the classifier really decided zones (so the equality is not vacuous).
#[test]
fn footers_change_no_bit_of_any_executor() {
    let (mut t, regions) = demo_data(true);
    t.cluster();
    let plain = stripped(&t);
    let budget = QueryBudget::unlimited();
    let modes = [ExecutionMode::Bounded, ExecutionMode::Weighted, ExecutionMode::Accurate];
    let (mut skipped, mut whole, mut scanned) = (0, 0, 0);
    // The aggregates take turns over the filters (never `fare`: its NaNs
    // would make every sum NaN, and NaN != NaN).
    let aggs = [AggKind::Count, AggKind::Sum("tip".into()), AggKind::Min("tip".into())];
    for (k, (name, filters)) in edge_filters(&t).into_iter().enumerate() {
        let agg = &aggs[k % aggs.len()];
        let mut q = SpatialAggQuery::new(agg.clone());
        for f in &filters {
            q = q.filter(f.clone());
        }
        for mode in modes {
            for max_tile in [128, 2048] {
                let join = RasterJoin::new(config(mode, max_tile));
                let reference = join
                    .execute_store(PointStore::plain(&plain), &regions, &q, &budget)
                    .expect("stripped");
                // Stripped footers decide nothing, so only a query with no
                // condition to decide takes its zones whole.
                let n = if filters.is_empty() { plain.len().div_ceil(ZONE_ROWS) } else { 0 };
                assert_eq!((reference.zones.skipped, reference.zones.whole), (0, n as u64), "{name}");
                let got = join
                    .execute_store(PointStore::plain(&t), &regions, &q, &budget)
                    .expect("footers on");
                assert_eq!(reference.table, got.table, "{name} / {agg:?} / {mode:?} / tile {max_tile}");
                // Only a condition a footer decided counts as a decision.
                if !filters.is_empty() {
                    skipped += got.zones.skipped;
                    whole += got.zones.whole;
                    scanned += got.zones.scanned;
                }
            }
        }
    }
    assert!(skipped > 0 && whole > 0 && scanned > 0, "{skipped} / {whole} / {scanned}");
}

/// Every mode × query on a multi-tile plan, over the generator's order and
/// the clustered one: the clustered table's tiles really step over zones
/// (so its walk is not the full scan).
#[test]
fn clustered_tiles_step_over_zones() {
    let (generated, regions) = demo_data(false);
    let mut clustered = generated.clone();
    clustered.cluster();
    let budget = QueryBudget::unlimited();
    let queries = [
        SpatialAggQuery::count(),
        SpatialAggQuery::new(AggKind::Sum("tip".into())).filter(Filter::Time(TimeRange::new(0, i64::MAX / 2))),
        SpatialAggQuery::new(AggKind::Min("tip".into()))
            .filter(Filter::AttrRange { column: "fare".into(), min: 2.0, max: 60.0 }),
    ];
    let mut draws = [0; 2];
    for (k, t) in [&generated, &clustered].into_iter().enumerate() {
        for q in &queries {
            for mode in [ExecutionMode::Bounded, ExecutionMode::Weighted, ExecutionMode::Accurate] {
                let res = RasterJoin::new(config(mode, 128))
                    .execute_store(PointStore::plain(t), &regions, q, &budget)
                    .expect("multi-tile");
                assert!(res.tiles >= 4, "plan must be multi-tile, got {}", res.tiles);
                draws[k] += res.stats.draw_calls;
            }
        }
    }
    assert!(draws[1] < draws[0], "clustered tiles must step over zones: {draws:?}");
}

/// Claim 2 over a prepared raster kept across queries, in every mode.
#[test]
fn footers_change_no_bit_of_the_prepared_executor() {
    let (mut t, regions) = demo_data(true);
    t.cluster();
    let plain = stripped(&t);
    for mode in [ExecutionMode::Bounded, ExecutionMode::Weighted, ExecutionMode::Accurate] {
        for max_tile in [128, 2048] {
            let prepared =
                PreparedRasterJoin::prepare(&regions, CanvasSpec::Resolution(512), max_tile, mode)
                    .expect("prepare");
            for (name, filters) in edge_filters(&t) {
                let mut q = SpatialAggQuery::new(AggKind::Avg("tip".into()));
                for f in &filters {
                    q = q.filter(f.clone());
                }
                let reference = prepared.execute(&plain, &q).expect("stripped");
                let got = prepared.execute(&t, &q).expect("footers on");
                assert_eq!(reference.table, got.table, "{name} / {mode:?} / tile {max_tile}");
            }
        }
    }
}

/// Claim 3: against the generator's order, exact answers and counts do not
/// move at all, and bounded sums move only by f32 rounding.
#[test]
fn clustered_order_agrees_with_generator_order() {
    let (original, regions) = demo_data(false);
    let mut clustered = original.clone();
    clustered.cluster();
    for (name, filters) in edge_filters(&clustered) {
        let mut count = SpatialAggQuery::count();
        let mut sum = SpatialAggQuery::new(AggKind::Sum("tip".into()));
        for f in &filters {
            count = count.filter(f.clone());
            sum = sum.filter(f.clone());
        }
        let truth = naive_join(&original, &regions, &count).expect("naive");
        let index = naive_join(&clustered, &regions, &count).expect("naive, clustered");
        let accurate = RasterJoin::new(RasterJoinConfig::accurate(256))
            .execute(&clustered, &regions, &count)
            .expect("accurate");
        for r in 0..regions.len() {
            assert_eq!(truth.states[r].count, index.states[r].count, "{name}: index, region {r}");
            assert_eq!(truth.states[r].count, accurate.table.states[r].count, "{name}: accurate, region {r}");
        }

        let bounded = RasterJoin::new(RasterJoinConfig::with_resolution(512));
        let a = bounded.execute(&original, &regions, &sum).expect("bounded");
        let b = bounded.execute(&clustered, &regions, &sum).expect("bounded, clustered");
        assert_eq!(a.epsilon, b.epsilon);
        assert_eq!(a.stats.points_in, b.stats.points_in, "{name}: the same rows must survive");
        assert_eq!(a.stats.fragments, b.stats.fragments, "{name}");
        for r in 0..regions.len() {
            // Per-pixel counts are small integers — exact in f32 in any order.
            assert_eq!(a.table.states[r].count, b.table.states[r].count, "{name}: region {r}");
            let (x, y) = (a.table.states[r].sum, b.table.states[r].sum);
            assert!((x - y).abs() <= 1e-5 * x.abs().max(1.0), "{name}: region {r}: {x} vs {y}");
        }
    }
}

/// The zone walk against the filter oracle. On every tile of a 1×1 and a
/// 3×3 tiling, the rows the point pass is handed ([`Reach::Tile`])
/// are exactly the rows `FilterSet::compile(t).matches(i)` accepts among the
/// rows the tile can draw — plus, at most, accepted rows the tile culls —
/// each once, ascending. Over clustered and unclustered tables whose length
/// is a multiple of neither 64 nor `ZONE_ROWS`, so the last zone ends inside
/// a mask word, for filters on the footers' edges and none.
#[test]
fn zone_walk_hands_each_tile_exactly_the_accepted_rows() {
    let full = demo_data(true).0;
    let plain = full.filter_rows(&(0..full.len()).map(|i| i % 1_481 != 0).collect::<Vec<_>>());
    let n = plain.len();
    assert!(!n.is_multiple_of(64) && !n.is_multiple_of(ZONE_ROWS), "{n} rows");
    let mut clustered = plain.clone();
    clustered.cluster();
    let tables = [("unclustered", &plain), ("clustered", &clustered)];
    // A square canvas over the rows, so both tilings are square too.
    let b = plain.bbox();
    let side = b.width().max(b.height());
    let extent = BoundingBox::from_coords(b.min.x, b.min.y, b.min.x + side, b.min.y + side);
    let budget = QueryBudget::unlimited();
    let filters = edge_filters(&clustered);
    assert!(filters.iter().any(|(_, f)| f.is_empty()), "a filterless query is among them");
    let mut stepped_over = 0;
    for (tiles, max_tile) in [(1, 96), (9, 32)] {
        let plan = CanvasPlan::plan(&extent, CanvasSpec::Resolution(96), max_tile).expect("plan");
        assert_eq!(plan.tiles.len(), tiles);
        for (name, filters) in &filters {
            let q = filters.iter().fold(SpatialAggQuery::count(), |q, f| q.filter(f.clone()));
            for &(what, mut t) in &tables {
                let compiled = q.filters.compile(t).expect("compile");
                let accepted: Vec<bool> = (0..t.len()).map(|i| compiled.matches(i)).collect();
                let n_accepted = accepted.iter().filter(|&&a| a).count();
                let walk = ZoneWalk::new(ZonePlan::new(t.schema(), &q).expect("plan"), &t);
                for vp in &plan.tiles {
                    let mut handed = Vec::new();
                    walk.run(&mut t, Reach::Tile(&vp.world), &budget, |first, _, bits| {
                        handed.extend(bits.map(|i| first + i))
                    })
                    .expect("walk");
                    let at = format!("{name} / {what} / {tiles} tiles / {:?}", vp.world);
                    assert!(handed.windows(2).all(|w| w[0] < w[1]), "{at}: once each, ascending");
                    assert!(handed.iter().all(|&i| i < t.len() && accepted[i]), "{at}: a rejected row");
                    for i in (0..t.len()).filter(|&i| accepted[i]) {
                        if vp.world_to_pixel(t.loc(i)).is_some() {
                            assert!(handed.binary_search(&i).is_ok(), "{at}: drawable row {i}");
                        }
                    }
                    stepped_over += usize::from(handed.len() < n_accepted);
                }
            }
        }
    }
    assert!(stepped_over > 0, "some tile must be handed fewer rows than the filter accepts");
}
