//! Corrupt-input robustness: every parser in the ingest surface (binary
//! tables, `.ubs` stores, CSV, GeoJSON) must return a typed error —
//! never panic or slice out of bounds — when fed truncated or bit-flipped
//! data.
//!
//! Truncations of a valid payload are always invalid, so they must `Err`.
//! Bit flips may happen to produce a *different valid* payload (e.g. a
//! flipped coordinate byte), so for those the contract is only "no panic":
//! the decoder returns *some* `Result` and the process survives.

use proptest::prelude::*;
use urban_data::binfmt;
use urban_data::csv::{read_csv, write_csv};
use urban_data::gen::city::CityModel;
use urban_data::gen::corpus::{simple_polygons, uniform_points};
use urban_data::gen::taxi::{generate_taxi, TaxiConfig};
use urban_data::PointTable;
use urbane_geom::geojson::{parse_geojson, to_geojson};
use urbane_geom::BoundingBox;
use urbane_store::format::{self, Column};
use urbane_store::{ChunkedPointSource, StoreBuilder, StoreError, StoreHeader, Columns};

fn small_table() -> PointTable {
    let city = CityModel::nyc_like();
    generate_taxi(&city, &TaxiConfig { rows: 64, seed: 42, start: 0, days: 2 })
}

/// A GeoJSON FeatureCollection derived from the city model's region
/// generator, so the corpus is realistic.
fn geo_corpus() -> String {
    let city = CityModel::nyc_like();
    let regions = urban_data::gen::regions::voronoi_neighborhoods(&city.bbox(), 6, 9, 2);
    let features: Vec<urbane_geom::geojson::Feature> = regions
        .iter()
        .map(|(_, name, geom)| urbane_geom::geojson::Feature {
            geometry: geom.clone(),
            properties: std::collections::BTreeMap::from([(
                "name".to_string(),
                urbane_geom::geojson::Json::String(name.to_string()),
            )]),
        })
        .collect();
    to_geojson(&features)
}

#[test]
fn truncated_binfmt_always_errs() {
    let bytes = binfmt::encode(&small_table());
    assert!(binfmt::decode(&bytes).is_ok(), "sanity: the full payload decodes");
    for cut in 0..bytes.len() {
        assert!(
            binfmt::decode(&bytes[..cut]).is_err(),
            "truncation at byte {cut}/{} must err, not panic",
            bytes.len()
        );
    }
}

#[test]
fn bitflipped_binfmt_never_panics() {
    let bytes = binfmt::encode(&small_table());
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << bit;
            // A flip may land in payload data and still decode; the
            // contract is "typed Result, no panic".
            let _ = binfmt::decode(&corrupt);
        }
    }
}

/// A store whose directory has a zone section worth corrupting: 20 000 rows
/// in chunks of 9 000 — three chunks of two, two and one zones.
fn store_bytes() -> (Vec<u8>, std::sync::Arc<StoreHeader>) {
    let city = CityModel::nyc_like();
    let taxi = generate_taxi(&city, &TaxiConfig { rows: 20_000, seed: 42, start: 0, days: 2 });
    let bytes = StoreBuilder::new().chunk_rows(9_000).encode(&taxi).unwrap();
    let header = ChunkedPointSource::from_bytes(bytes.clone()).unwrap().shared_header();
    assert_eq!(header.chunks.iter().map(|m| m.zones.len()).collect::<Vec<_>>(), [2, 2, 1]);
    (bytes, header)
}

/// Serialized size of one footer, and the offset of chunk `i`'s directory
/// entry (`u32 rows | u64 byte_off | footer | u32 n_zones | footers`).
fn ubs_directory(h: &StoreHeader, i: usize) -> (usize, usize) {
    let footer = 32 + 16 + 8 * h.schema.len() + 1;
    let entry = |m: &urbane_store::ChunkMeta| 4 + 8 + 4 + (1 + m.zones.len()) * footer;
    let dir_len: usize = h.chunks.iter().map(entry).sum();
    let before: usize = h.chunks[..i].iter().map(entry).sum();
    (footer, h.payload_off as usize - dir_len + before)
}

/// Open `bytes` and touch everything the header leads to — whole table,
/// every zone of every column. Corrupt bytes may yield an error anywhere
/// along the way or a different valid store; they may not panic.
fn exercise_ubs(bytes: Vec<u8>) -> Result<(), StoreError> {
    let mut source = ChunkedPointSource::from_bytes(bytes)?;
    let header = source.shared_header();
    let attrs: Vec<usize> = (0..header.schema.len()).collect();
    let mut zone = Columns::default();
    for (c, meta) in header.chunks.iter().enumerate() {
        for z in 0..meta.zones.len() {
            source.read_zone(c, z, true, &attrs, &mut zone)?;
        }
    }
    source.materialize().map(|_| ())
}

#[test]
fn truncated_ubs_always_errs() {
    let (bytes, header) = store_bytes();
    assert!(exercise_ubs(bytes.clone()).is_ok(), "sanity: the full store reads");
    // Every cut of the header, prelude left alone (it promises more than is
    // there) and prelude owning up to the cut (the decoder runs dry inside
    // the directory — inside a zone footer, for most cuts).
    for cut in 0..header.payload_off as usize {
        assert!(ChunkedPointSource::from_bytes(bytes[..cut].to_vec()).is_err(), "prefix {cut} opened");
        if cut >= format::PRELUDE_LEN {
            let mut head = bytes[..cut].to_vec();
            head[8..16].copy_from_slice(&(cut as u64).to_le_bytes());
            assert!(
                matches!(format::decode_header(&head), Err(StoreError::Corrupt(_))),
                "header cut at {cut} decoded"
            );
        }
    }
    // Cuts in the payload: the header is whole, the file is too short for it.
    for cut in (header.payload_off as usize..bytes.len()).step_by(4_099) {
        assert!(exercise_ubs(bytes[..cut].to_vec()).is_err(), "payload cut at {cut} read");
    }
}

#[test]
fn bitflipped_ubs_header_never_panics() {
    let (bytes, header) = store_bytes();
    for pos in (0..header.payload_off as usize).step_by(3) {
        for bit in [0, 3, 7] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << bit;
            // A flip in a footer value still opens (and may prune wrongly:
            // the file says so); the contract is "typed Result, no panic".
            let _ = exercise_ubs(corrupt);
        }
    }
}

#[test]
fn ubs_zone_section_corruptions_are_typed() {
    let (bytes, header) = store_bytes();
    let corrupt = |bad: Vec<u8>, what: &str| match ChunkedPointSource::from_bytes(bad) {
        Err(StoreError::Corrupt(m)) => m,
        other => panic!("{what}: expected Corrupt, got {other:?}"),
    };
    let (footer, entry) = ubs_directory(&header, 1);
    let n_zones_at = entry + 4 + 8 + footer;

    // A zone count other than ceil(rows / ZONE_ROWS) — too few, too many, and
    // one whose footers would outgrow any header.
    for n_zones in [0u32, 1, 3, u32::MAX] {
        let mut bad = bytes.clone();
        bad[n_zones_at..n_zones_at + 4].copy_from_slice(&n_zones.to_le_bytes());
        assert!(corrupt(bad, "zone count").contains("zones"), "{n_zones}");
    }
    // The right count with a footer's worth of bytes missing: the directory
    // ends inside the last chunk's zone footers.
    // (The prelude and the chunk offsets are made to agree with the shorter
    // header, so the decoder gets that far.)
    let (_, last) = ubs_directory(&header, 2);
    let short = last + 4 + 8 + footer + 4 + footer / 2;
    let mut bad = bytes[..short].to_vec();
    bad[8..16].copy_from_slice(&(short as u64).to_le_bytes());
    for (i, meta) in header.chunks.iter().enumerate() {
        let at = ubs_directory(&header, i).1 + 4;
        let off = meta.byte_off - (header.payload_off - short as u64);
        bad[at..at + 8].copy_from_slice(&off.to_le_bytes());
    }
    assert!(corrupt(bad, "truncated zone footers").contains("truncated zone footers"));
    // A chunk count the header has no room for is refused before anything is
    // allocated for it, and so is a header longer than the cap.
    let (_, first) = ubs_directory(&header, 0);
    let mut bad = bytes.clone();
    bad[first - 36..first - 32].copy_from_slice(&(format::MAX_CHUNKS as u32).to_le_bytes());
    assert!(corrupt(bad, "chunk count").contains("truncated chunk directory"));
    let mut bad = bytes.clone();
    bad[8..16].copy_from_slice(&(format::MAX_HEADER_BYTES + 1).to_le_bytes());
    assert!(corrupt(bad, "header length").contains("implausible payload offset"));

    // A column range that leaves its chunk is refused, not read from the
    // neighbour: past the last row, in a column the schema lacks, in a zone
    // or chunk the directory lacks.
    let rows = header.chunks[1].rows as usize;
    assert!(header.column_range(1, Column::T, 0..rows).is_ok());
    for (chunk, col, range) in [
        (1, Column::T, 0..rows + 1),
        (1, Column::Attr(header.schema.len()), 0..1),
        (3, Column::X, 0..1),
    ] {
        assert!(matches!(header.column_range(chunk, col, range), Err(StoreError::Corrupt(_))));
    }
    let mut source = ChunkedPointSource::from_bytes(bytes.clone()).unwrap();
    let mut zone = Columns::default();
    assert!(matches!(source.read_zone(1, 2, true, &[], &mut zone), Err(StoreError::Corrupt(_))));

    // A version-1 prelude: no second reader, and the message says what to do.
    let mut v1 = bytes.clone();
    v1[4..6].copy_from_slice(&1u16.to_le_bytes());
    match ChunkedPointSource::from_bytes(v1) {
        Err(e @ StoreError::Version { found: 1 }) => {
            assert!(e.to_string().contains("rebuild the file with `urbane-cli build-store`"), "{e}")
        }
        other => panic!("expected Version {{ found: 1 }}, got {other:?}"),
    }
}

#[test]
fn truncated_csv_never_panics() {
    let mut buf = Vec::new();
    write_csv(&mut buf, &small_table()).unwrap();
    assert!(read_csv(&buf[..]).is_ok(), "sanity: the full payload parses");
    for cut in (0..buf.len()).step_by(7) {
        // A cut can land on a line boundary and still be a valid (shorter)
        // CSV, so only the no-panic contract holds.
        let _ = read_csv(&buf[..cut]);
    }
}

#[test]
fn bitflipped_csv_never_panics() {
    let mut buf = Vec::new();
    write_csv(&mut buf, &small_table()).unwrap();
    for pos in (0..buf.len()).step_by(3) {
        for bit in [0, 3, 7] {
            let mut corrupt = buf.clone();
            corrupt[pos] ^= 1 << bit;
            let _ = read_csv(&corrupt[..]);
        }
    }
}

#[test]
fn truncated_geojson_always_errs() {
    let geojson = geo_corpus();
    assert!(parse_geojson(&geojson).is_ok(), "sanity: the full document parses");
    // Every strict prefix of a document ending in `]}` is incomplete.
    for cut in 0..geojson.len() {
        if geojson.is_char_boundary(cut) {
            assert!(parse_geojson(&geojson[..cut]).is_err(), "prefix of len {cut} must err");
        }
    }
}

#[test]
fn bitflipped_geojson_never_panics() {
    let geojson = geo_corpus();
    let bytes = geojson.as_bytes();
    for pos in (0..bytes.len()).step_by(5) {
        for bit in [1, 4, 6] {
            let mut corrupt = bytes.to_vec();
            corrupt[pos] ^= 1 << bit;
            if let Ok(s) = std::str::from_utf8(&corrupt) {
                let _ = parse_geojson(s);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GeoJSON round-trip on the shared simple-polygon corpus, through the
    /// FeatureCollection writer and parser: identical vertices (f64
    /// `Display` is shortest-round-trip, so coordinates survive
    /// bit-for-bit) and a byte-identical re-serialization.
    #[test]
    fn geojson_roundtrip_is_lossless(seed in 0u64..50_000, count in 1usize..6) {
        let extent = BoundingBox::from_coords(-75.0, 40.0, -73.0, 41.0);
        let polys = simple_polygons(&extent, count, seed).expect("corpus polygons are valid");
        let features: Vec<urbane_geom::geojson::Feature> = polys
            .iter()
            .map(|p| urbane_geom::geojson::Feature {
                geometry: urbane_geom::MultiPolygon::from_polygon(p.clone()),
                properties: std::collections::BTreeMap::new(),
            })
            .collect();
        let doc = to_geojson(&features);
        let parsed = parse_geojson(&doc).expect("writer output must parse");
        prop_assert_eq!(parsed.len(), features.len());
        for (orig, back) in features.iter().zip(&parsed) {
            for (po, pb) in orig.geometry.polygons().iter().zip(back.geometry.polygons()) {
                prop_assert_eq!(
                    po.exterior().vertices(), pb.exterior().vertices(),
                    "vertices drifted through GeoJSON"
                );
            }
        }
        prop_assert_eq!(to_geojson(&parsed), doc, "re-serialization drifted");
    }
}

/// 1000 seeded tables through binfmt encode→decode: every row, timestamp,
/// and attribute must survive bit-for-bit. Covers empty and single-row
/// tables (seeds 0 and 1 pin the sizes).
#[test]
fn binfmt_roundtrip_fuzz_1k_seeds() {
    let extent = BoundingBox::from_coords(-75.0, 40.0, -73.0, 41.0);
    for seed in 0..1_000u64 {
        let rows = match seed {
            0 => 0,
            1 => 1,
            s => (s * 7 % 96) as usize + 2,
        };
        let table = uniform_points(&extent, rows, seed, 50.0);
        let bytes = binfmt::encode(&table);
        let back = binfmt::decode(&bytes)
            .unwrap_or_else(|e| panic!("seed {seed} ({rows} rows) failed to decode: {e}"));
        assert_eq!(back.len(), table.len(), "seed {seed}: row count drifted");
        for i in 0..table.len() {
            assert_eq!(table.loc(i), back.loc(i), "seed {seed} row {i}: location drifted");
            assert_eq!(table.time(i), back.time(i), "seed {seed} row {i}: timestamp drifted");
            assert_eq!(
                table.attr(i, 0).to_bits(),
                back.attr(i, 0).to_bits(),
                "seed {seed} row {i}: attribute drifted"
            );
        }
    }
}

#[test]
fn nesting_bombs_err_quickly() {
    // Adversarial nesting must exhaust a depth check, not the stack.
    let json_bomb = format!("{}0{}", "[".repeat(500_000), "]".repeat(500_000));
    assert!(urbane_geom::geojson::parse_json(&json_bomb).is_err());
}
