//! End-to-end coverage of the out-of-core store subsystem: the `.ubs`
//! container round-trips losslessly and byte-deterministically — it *is* the
//! clustered table, row for row and footer for footer — the zone-streamed
//! exact index join never holds more than one chunk of rows (the out-of-core
//! guarantee) and reads only the columns a zone's footer left it needing,
//! answers are bit-identical across chunk sizes and to the in-memory join
//! for conjunctions placed on footer edges, and
//! the session/service layers serve cold stores without materializing them.
//! Also pins that the `.ubs` and legacy `.upt` magics are mutually
//! distinguishable.

use raster_join::{ExecutionMode, QueryBudget, RasterJoinConfig};
use spatial_index::{
    index_join, index_join_budgeted, index_join_stored, naive_join, GridIndex, PackedRegionIndex,
};
use urban_data::gen::city::CityModel;
use urban_data::gen::regions::{resolution_pyramid, voronoi_neighborhoods};
use urban_data::gen::taxi::{generate_taxi, TaxiConfig};
use urban_data::query::SpatialAggQuery;
use urban_data::time::{TimeRange, DAY};
use urban_data::{binfmt, AggKind, Filter, PointTable, RegionSet, ZoneFooter, ZONE_ROWS};
use urbane_bench::workload::{demo_start, footer_demo_data, footer_edge_filters, row_bits};
use urbane_geom::BoundingBox;
use urbane::{
    DataCatalog, QueryRequest, ResolutionPyramid, ServiceConfig, SessionConfig, UrbaneService,
    UrbaneSession,
};
use urbane_store::{ChunkedPointSource, StoreBuilder, StoreError};

fn workload(rows: usize, seed: u64) -> (CityModel, PointTable, RegionSet) {
    let city = CityModel::nyc_like();
    let taxi = generate_taxi(&city, &TaxiConfig { rows, seed, start: 0, days: 10 });
    let regions = voronoi_neighborhoods(&city.bbox(), 32, seed, 2);
    (city, taxi, regions)
}

fn temp_store(tag: &str, table: &PointTable, chunk_rows: usize) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("urbane-store-subsys-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.ubs");
    StoreBuilder::new().chunk_rows(chunk_rows).write_file(table, &path).unwrap();
    path
}

#[test]
fn roundtrip_preserves_rows_and_query_answers() {
    let (_, taxi, regions) = workload(6_000, 41);
    let bytes = StoreBuilder::new().chunk_rows(512).encode(&taxi).unwrap();
    let mut source = ChunkedPointSource::from_bytes(bytes).unwrap();
    assert_eq!(source.len(), taxi.len() as u64);
    assert_eq!(source.schema().len(), taxi.schema().len());

    // The store reorders rows, so against the generator's order compare
    // via order-insensitive exact joins rather than row-for-row.
    let back = source.materialize().unwrap();
    assert_eq!(back.len(), taxi.len());
    for q in [SpatialAggQuery::count(), SpatialAggQuery::new(AggKind::Sum("fare".into()))] {
        let a = naive_join(&taxi, &regions, &q).unwrap();
        let b = naive_join(&back, &regions, &q).unwrap();
        assert_eq!(a.values(), b.values(), "round-trip changed an exact answer");
    }
}

#[test]
fn store_encoding_is_byte_deterministic() {
    let (_, taxi, _) = workload(4_000, 42);
    let a = StoreBuilder::new().chunk_rows(1024).encode(&taxi).unwrap();
    let b = StoreBuilder::new().chunk_rows(1024).encode(&taxi).unwrap();
    assert_eq!(a, b, "two encodes of the same table must be byte-identical");

    let path = temp_store("determinism", &taxi, 1024);
    let on_disk = std::fs::read(&path).unwrap();
    assert_eq!(a, on_disk, "write_file must emit exactly the encode() bytes");
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// The acceptance criterion for out-of-core serving: a dataset many times
/// larger than one chunk is fully queried while the executor never holds
/// more than `chunk_rows` rows of payload at once. `STORE_SUBSYS_ROWS=10000000`
/// (or any size) scales the same invariant to disk-resident sweeps.
#[test]
fn streamed_join_peak_residency_is_bounded_by_one_chunk() {
    let rows = std::env::var("STORE_SUBSYS_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000);
    let chunk_rows = 4096;
    let (_, taxi, regions) = workload(rows, 43);
    let path = temp_store("residency", &taxi, chunk_rows);

    let index = PackedRegionIndex::build(&regions);
    let q = SpatialAggQuery::new(AggKind::Sum("fare".into()));
    let mut source = ChunkedPointSource::open(&path).unwrap();
    let n_chunks = source.n_chunks();
    assert!(n_chunks >= rows / chunk_rows, "dataset must span many chunks");

    let (table, stats) =
        index_join_stored(&mut source, &regions, &index, &q, &QueryBudget::unlimited()).unwrap();
    assert!(table.total_count() > 0);
    assert_eq!(stats.rows_scanned, rows as u64);
    assert_eq!(stats.chunks_scanned + stats.chunks_pruned, n_chunks as u64);
    assert!(
        stats.peak_resident_rows as usize <= chunk_rows,
        "peak residency {} exceeded one chunk ({chunk_rows} rows) over a {rows}-row dataset",
        stats.peak_resident_rows
    );

    // A query whose time window misses the data entirely must prune every
    // chunk off the directory footers without touching a single payload.
    source.reset_stats();
    let never = SpatialAggQuery::count().filter(Filter::Time(TimeRange::new(i64::MIN, -1)));
    let (empty, pruned) =
        index_join_stored(&mut source, &regions, &index, &never, &QueryBudget::unlimited())
            .unwrap();
    assert_eq!(empty.total_count(), 0);
    assert_eq!(pruned.chunks_pruned, n_chunks as u64);
    assert_eq!(pruned.rows_scanned, 0);
    assert_eq!(source.stats().chunks_read, 0, "pruned query must read no payload bytes");

    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn stored_join_is_bit_identical_to_memory() {
    let (_, taxi, regions) = workload(20_000, 44);
    let bytes = StoreBuilder::new().chunk_rows(1024).encode(&taxi).unwrap();
    let index = PackedRegionIndex::build(&regions);
    let q = SpatialAggQuery::new(AggKind::Avg("fare".into()))
        .filter(Filter::Time(TimeRange::new(0, 5 * 86_400)));
    let budget = QueryBudget::unlimited();

    let (in_memory, _) = index_join_budgeted(&taxi, &regions, &index, &q, &budget).unwrap();
    let mut source = ChunkedPointSource::from_bytes(bytes).unwrap();
    let (streamed, _) = index_join_stored(&mut source, &regions, &index, &q, &budget).unwrap();
    assert_eq!(streamed.values(), in_memory.values(), "stored join diverged from the in-memory join");
}

/// The served exact mode probes the full-cover grid; the R-tree is its
/// reference. On every level of the served pyramid, for every aggregate
/// and filter shape the gate's cold workload sends, the cold join through
/// either index must be the same table, bit for bit.
#[test]
fn cold_join_through_the_grid_equals_the_r_tree_on_the_served_pyramid() {
    let (city, taxi, _) = workload(60_000, 46);
    let bytes = StoreBuilder::new().chunk_rows(4096).encode(&taxi).unwrap();
    let b = city.bbox();
    let viewport = BoundingBox::from_coords(
        b.min.x + 0.2 * b.width(),
        b.min.y + 0.3 * b.height(),
        b.min.x + 0.6 * b.width(),
        b.min.y + 0.8 * b.height(),
    );
    let days = TimeRange::new(2 * DAY, 6 * DAY);
    let filters = [
        vec![Filter::SpatialBox(viewport), Filter::Time(days)],
        vec![Filter::Time(days)],
        vec![Filter::AttrRange { column: "fare".into(), min: 8.0, max: 30.0 }],
    ];
    let aggs = [AggKind::Count, AggKind::Sum("fare".into()), AggKind::Avg("fare".into())];
    let budget = QueryBudget::unlimited();
    for regions in resolution_pyramid(&b, 16, 8, 5) {
        let grid = GridIndex::build_auto(&regions);
        let rtree = PackedRegionIndex::build(&regions);
        for agg in &aggs {
            for conj in &filters {
                let q = conj
                    .iter()
                    .fold(SpatialAggQuery::new(agg.clone()), |q, f| q.filter(f.clone()));
                let mut source = ChunkedPointSource::from_bytes(bytes.clone()).unwrap();
                let (via_grid, _) =
                    index_join_stored(&mut source, &regions, &grid, &q, &budget).unwrap();
                let mut source = ChunkedPointSource::from_bytes(bytes.clone()).unwrap();
                let (via_rtree, _) =
                    index_join_stored(&mut source, &regions, &rtree, &q, &budget).unwrap();
                assert!(via_grid.total_count() > 0, "{} {agg:?} {conj:?}", regions.name());
                assert_eq!(via_grid, via_rtree, "{} {agg:?} {conj:?}", regions.name());
            }
        }
    }
}

#[test]
fn session_streams_cold_store_and_matches_in_memory() {
    let (city, taxi, _) = workload(5_000, 45);
    let path = temp_store("session", &taxi, 512);

    let mut warm = DataCatalog::new();
    warm.register("taxi", taxi);
    let mut cold = DataCatalog::new();
    cold.register_store("taxi", &path).unwrap();
    let pyramid = ResolutionPyramid::standard(&city.bbox(), 16, 8, 5);
    let config = SessionConfig {
        join: RasterJoinConfig {
            mode: ExecutionMode::IndexJoin,
            ..RasterJoinConfig::with_resolution(256)
        },
        ..Default::default()
    };
    let warm_session = UrbaneSession::new(config.clone(), warm, pyramid.clone()).unwrap();
    let cold_session = UrbaneSession::new(config, cold, pyramid).unwrap();
    let a = warm_session.evaluate().unwrap();
    let b = cold_session.evaluate().unwrap();
    assert_eq!(a.as_ref(), b.as_ref(), "cold store answer must match in-memory bit-for-bit");
    assert_eq!(
        cold_session.service().dataset_resident("taxi"),
        Some(false),
        "index-join evaluation must leave the store cold"
    );

    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn service_cold_start_counts_paging_and_pages_in_exactly_once() {
    let (city, taxi, _) = workload(4_000, 46);
    let path = temp_store("service", &taxi, 512);

    let mut catalog = DataCatalog::new();
    catalog.register_store("taxi", &path).unwrap();
    let pyramid = ResolutionPyramid::standard(&city.bbox(), 16, 8, 5);
    let service = UrbaneService::new(
        ServiceConfig { join: RasterJoinConfig::with_resolution(256), ..Default::default() },
        catalog,
        pyramid,
    )
    .unwrap();
    assert_eq!(service.datasets()[0].rows, 4_000, "header rows visible before any paging");
    assert_eq!(service.dataset_resident("taxi"), Some(false));

    // A streamed index query answers off the chunk directory: paging
    // counters move, the page-in counter does not.
    let streamed =
        service.query(&QueryRequest::count("taxi", 0).mode(ExecutionMode::IndexJoin)).unwrap();
    assert_eq!(streamed.report.error_bound, Some(0.0));
    let paging = service.store_paging();
    assert_eq!(paging.streamed_queries, 1);
    assert!(paging.chunks_read > 0 && paging.bytes_read > 0);
    assert_eq!(paging.page_ins, 0);
    assert_eq!(service.dataset_resident("taxi"), Some(false));

    // Raster queries page the table in once; repeats reuse the resident copy.
    let first = service.query(&QueryRequest::count("taxi", 0)).unwrap();
    let second = service
        .query(&QueryRequest::count("taxi", 0).agg(AggKind::Sum("fare".into())))
        .unwrap();
    assert!(first.table.total_count() > 0 && second.table.total_count() > 0);
    assert_eq!(service.dataset_resident("taxi"), Some(true));
    assert_eq!(service.store_paging().page_ins, 1, "OnceLock must page in exactly once");

    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn ubs_and_upt_magics_are_mutually_distinguishable() {
    let (_, taxi, _) = workload(1_000, 47);

    // Legacy `.upt` bytes fed to the store reader: a typed magic error that
    // names what was found, not a panic or a silent misparse.
    let upt = binfmt::encode(&taxi);
    match ChunkedPointSource::from_bytes(upt) {
        Err(StoreError::Magic { found }) => assert_eq!(&found, b"UPT1"),
        other => panic!("expected StoreError::Magic for .upt bytes, got {other:?}"),
    }

    // Store bytes fed to the legacy decoder must error, not misparse.
    let ubs = StoreBuilder::new().chunk_rows(512).encode(&taxi).unwrap();
    assert!(binfmt::decode(&ubs).is_err(), ".ubs bytes must not decode as .upt");

    // Truncation behind a valid prelude stays a typed error.
    let cut = ubs[..ubs.len() / 2].to_vec();
    match ChunkedPointSource::from_bytes(cut) {
        Err(StoreError::Corrupt(_)) | Err(StoreError::Io(_)) => {}
        other => panic!("expected Corrupt/Io for truncated store, got {other:?}"),
    }
}

/// Directory chunk sizes: below a zone, one zone, not a multiple of a zone,
/// the default.
const CHUNK_ROWS: [usize; 4] = [300, 8_192, 20_000, 65_536];

#[test]
fn materialize_is_the_clustered_table_row_for_row_and_footer_for_footer() {
    let (t, _) = footer_demo_data(true);
    let mut clustered = t.clone();
    clustered.cluster();
    for chunk_rows in CHUNK_ROWS {
        let builder = StoreBuilder::new().chunk_rows(chunk_rows);
        let bytes = builder.encode(&t).unwrap();
        assert_eq!(bytes, builder.encode(&clustered).unwrap(), "a clustered input is written as is");
        let back = ChunkedPointSource::from_bytes(bytes).unwrap().materialize().unwrap();
        assert!(row_bits(&back) == row_bits(&clustered), "chunk_rows {chunk_rows}: rows moved");
        assert_eq!(
            format!("{:?}", back.zones()),
            format!("{:?}", clustered.zones()),
            "chunk_rows {chunk_rows}: footers differ"
        );
        assert_eq!(back.bbox(), clustered.bbox());
    }
}

/// The shared footer-edge conjunctions for the store's zones, and `random`
/// seeded ones.
fn conjunctions(t: &PointTable, zones: &[&ZoneFooter], random: usize) -> Vec<(String, Vec<Filter>)> {
    let mut out: Vec<(String, Vec<Filter>)> = footer_edge_filters(t, zones)
        .into_iter()
        .map(|(name, filters)| (name.to_string(), filters))
        .collect();
    let fare = |min, max| Filter::AttrRange { column: "fare".into(), min, max };
    let day = |value| Filter::AttrEquals { column: "day".into(), value };
    let (bbox, start) = (t.bbox(), demo_start());
    // A small LCG: the conjunctions depend on nothing but `random`.
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut unit = move || {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for k in 0..random {
        let mut filters = Vec::new();
        if unit() < 0.7 {
            let (a, b) = (unit() * 3.0, unit() * 3.0);
            // Half the brushes start and end on midnights.
            let snap = |d: f64| if k % 2 == 0 { d.round() * DAY as f64 } else { d * DAY as f64 };
            filters.push(Filter::Time(TimeRange::new(start + snap(a) as i64, start + snap(b) as i64)));
        }
        if unit() < 0.7 {
            let (w, h) = (bbox.width() * unit().sqrt(), bbox.height() * unit().sqrt());
            let x = bbox.min.x + (bbox.width() - w) * unit();
            let y = bbox.min.y + (bbox.height() - h) * unit();
            filters.push(Filter::SpatialBox(BoundingBox::from_coords(x, y, x + w, y + h)));
        }
        if unit() < 0.4 {
            let lo = (unit() * 30.0) as f32;
            filters.push(fare(lo, lo + (unit() * 40.0) as f32));
        }
        if unit() < 0.3 {
            filters.push(day((unit() * 3.0).floor() as f32));
        }
        // Order must not matter to the classifier: rotate it.
        let by = k % filters.len().max(1);
        filters.rotate_left(by);
        out.push((format!("random {k}"), filters));
    }
    out
}

/// The store's contract: whatever the directory chunk size, the stored join
/// gives the in-memory index join's table to the bit, while reading only the
/// columns it needs. The resident exact join walks the same zone plan over a
/// clustered table, with its footers and without, and gives it too.
#[test]
fn stored_join_is_bit_identical_for_every_chunk_size_and_conjunction() {
    let (t, regions) = footer_demo_data(true);
    let mut clustered = t.clone();
    clustered.cluster();
    let plain = clustered.filter_rows(&vec![true; clustered.len()]);
    assert!(!clustered.zones().is_empty() && plain.zones().is_empty());
    let index = PackedRegionIndex::build(&regions);
    let budget = QueryBudget::unlimited();
    // Never `fare`: its NaNs would make every sum NaN, and NaN != NaN.
    let aggs = [AggKind::Count, AggKind::Sum("tip".into()), AggKind::Avg("tip".into())];
    let (mut skipped, mut whole, mut scanned) = (0, 0, 0);
    // The resident inputs run each distinct query once.
    let mut resident_seen = std::collections::HashSet::new();
    for chunk_rows in CHUNK_ROWS {
        let bytes = StoreBuilder::new().chunk_rows(chunk_rows).encode(&t).unwrap();
        let mut source = ChunkedPointSource::from_bytes(bytes).unwrap();
        let header = source.shared_header();
        let zones: Vec<&ZoneFooter> = header.chunks.iter().flat_map(|m| &m.zones).collect();
        for (k, (name, filters)) in conjunctions(&t, &zones, 12).into_iter().enumerate() {
            // The aggregates take turns; at one zone a chunk the edge cases
            // get every one of them.
            let every = chunk_rows == ZONE_ROWS && !name.starts_with("random");
            for agg in aggs.iter().cycle().skip(k).take(if every { 3 } else { 1 }) {
                let mut q = SpatialAggQuery::new(agg.clone());
                for f in &filters {
                    q = q.filter(f.clone());
                }
                let what = format!("chunk_rows {chunk_rows} / {name} / {agg:?}");
                let truth = index_join(&t, &regions, &index, &q).unwrap();
                let (got, stats) =
                    index_join_stored(&mut source, &regions, &index, &q, &budget).unwrap();
                assert_eq!(got, truth, "{what}");
                if resident_seen.insert(format!("{q:?}")) {
                    for (table, footers) in [(&clustered, "footers"), (&plain, "no footers")] {
                        let (resident, _) =
                            index_join_budgeted(table, &regions, &index, &q, &budget).unwrap();
                        assert_eq!(resident, truth, "{what} / resident, {footers}");
                    }
                }
                if name == "empty result" {
                    assert_eq!(got.total_count(), 0);
                }

                let read = source.stats();
                let z = stats.zones;
                assert_eq!(z.skipped + z.whole + z.scanned, zones.len() as u64, "{what}");
                assert_eq!(stats.chunks_scanned + stats.chunks_pruned, header.chunks.len() as u64);
                assert_eq!(read.chunks_read, stats.chunks_scanned, "{what}: a chunk counts once");
                assert!(stats.peak_resident_rows as usize <= chunk_rows.min(ZONE_ROWS), "{what}");
                // x and y always; t and the attribute columns only where a
                // condition on them is undecided; the aggregated column.
                let open_attrs = filters
                    .iter()
                    .filter(|f| matches!(f, Filter::AttrRange { .. } | Filter::AttrEquals { .. }))
                    .count() as u64;
                let value = u64::from(*agg != AggKind::Count);
                assert!(
                    read.bytes_read
                        <= (16 + 4 * value) * stats.rows_scanned + (8 + 4 * open_attrs) * z.rows_tested,
                    "{what}: {read:?} {stats:?}"
                );
                if *agg == AggKind::Count && open_attrs == 0 {
                    assert!(read.bytes_read <= 24 * stats.rows_scanned, "{what}");
                }
                if filters.is_empty() {
                    assert_eq!((z.skipped, z.scanned), (0, 0));
                    assert_eq!(read.bytes_read, (16 + 4 * value) * t.len() as u64, "{what}");
                }
                skipped += z.skipped;
                whole += z.whole;
                scanned += z.scanned;
            }
        }
    }
    assert!(skipped > 0 && whole > 0 && scanned > 0, "{skipped} / {whole} / {scanned}");
}

/// `count` under a brush the footers decide reads 16 bytes a row — `x` and
/// `y` — and 24 only in the zones a brush edge cuts through.
#[test]
fn count_reads_coordinates_and_only_undecided_timestamps() {
    let (t, regions) = footer_demo_data(true);
    let index = PackedRegionIndex::build(&regions);
    let bytes = StoreBuilder::new().encode(&t).unwrap();
    let mut source = ChunkedPointSource::from_bytes(bytes).unwrap();
    let day1 = TimeRange::new(demo_start() + DAY, demo_start() + 2 * DAY);
    let q = SpatialAggQuery::count().filter(Filter::Time(day1));
    let (got, stats) =
        index_join_stored(&mut source, &regions, &index, &q, &QueryBudget::unlimited()).unwrap();
    assert_eq!(got, index_join(&t, &regions, &index, &q).unwrap());
    let z = stats.zones;
    // Day 1 of three is rows 13 333.. of 40 000 or so: zone 1 and zone 3 are
    // cut by its edges, zone 2 lies inside, zones 0 and 4 outside.
    assert_eq!((z.skipped, z.whole, z.scanned), (2, 1, 2), "{stats:?}");
    assert_eq!(stats.rows_scanned, 3 * ZONE_ROWS as u64);
    assert_eq!(source.stats().bytes_read, 16 * stats.rows_scanned + 8 * z.rows_tested);
    assert!(source.stats().bytes_read <= 24 * stats.rows_scanned);
    assert_eq!(source.stats().chunks_read, 1);
}
