//! Cross-crate persistence: generated urban data must survive CSV and
//! binary round-trips and still produce identical query answers; region
//! geometry must survive a GeoJSON round-trip and still produce identical
//! joins.

use raster_join::{RasterJoin, RasterJoinConfig};
use spatial_index::naive_join;
use urban_data::gen::city::CityModel;
use urban_data::gen::regions::voronoi_neighborhoods;
use urban_data::gen::taxi::{generate_taxi, TaxiConfig};
use urban_data::query::SpatialAggQuery;
use urban_data::{binfmt, csv, RegionSet};
use urbane_geom::MultiPolygon;
use urbane_geom::geojson;

fn small_workload() -> (urban_data::PointTable, RegionSet) {
    let city = CityModel::nyc_like();
    let taxi = generate_taxi(&city, &TaxiConfig { rows: 5_000, seed: 11, start: 0, days: 7 });
    let regions = voronoi_neighborhoods(&city.bbox(), 24, 11, 2);
    (taxi, regions)
}

#[test]
fn csv_roundtrip_preserves_query_answers() {
    let (taxi, regions) = small_workload();
    let mut buf = Vec::new();
    csv::write_csv(&mut buf, &taxi).unwrap();
    let back = csv::read_csv(&buf[..]).unwrap();
    assert_eq!(back.len(), taxi.len());

    let q = SpatialAggQuery::new(urban_data::AggKind::Sum("fare".into()));
    let a = naive_join(&taxi, &regions, &q).unwrap();
    let b = naive_join(&back, &regions, &q).unwrap();
    // CSV stringifies floats with full precision; results must agree to fp
    // noise.
    for (x, y) in a.values().iter().zip(b.values()) {
        match (x, y) {
            (None, None) => {}
            (Some(x), Some(y)) => assert!((x - y).abs() < 1e-6 * x.abs().max(1.0)),
            _ => panic!("CSV roundtrip changed group population"),
        }
    }
}

#[test]
fn binary_roundtrip_is_lossless() {
    let (taxi, regions) = small_workload();
    let bytes = binfmt::encode(&taxi);
    let back = binfmt::decode(&bytes).unwrap();
    assert_eq!(back, taxi);

    let q = SpatialAggQuery::count();
    let rj = RasterJoin::new(RasterJoinConfig::with_resolution(512));
    let a = rj.execute(&taxi, &regions, &q).unwrap();
    let b = rj.execute(&back, &regions, &q).unwrap();
    assert_eq!(a.table.values(), b.table.values());
}

#[test]
fn geojson_roundtrip_preserves_joins() {
    let (taxi, regions) = small_workload();
    let features: Vec<geojson::Feature> = regions
        .iter()
        .map(|(_, name, geom)| {
            let mut props = std::collections::BTreeMap::new();
            props.insert("name".to_string(), geojson::Json::String(name.to_string()));
            geojson::Feature { geometry: geom.clone(), properties: props }
        })
        .collect();
    let text = geojson::to_geojson(&features);
    let parsed = geojson::parse_geojson(&text).unwrap();
    assert_eq!(parsed.len(), regions.len());

    let rebuilt: Vec<(String, MultiPolygon)> = parsed
        .into_iter()
        .map(|f| {
            let name = f
                .properties
                .get("name")
                .and_then(geojson::Json::as_str)
                .expect("name survives")
                .to_string();
            (name, f.geometry)
        })
        .collect();
    let regions2 = RegionSet::new(regions.name(), rebuilt);
    assert_eq!(regions2.region_name(0), regions.region_name(0));

    let q = SpatialAggQuery::count();
    let a = naive_join(&taxi, &regions, &q).unwrap();
    let b = naive_join(&taxi, &regions2, &q).unwrap();
    assert_eq!(a.values(), b.values());
}

#[test]
fn ppm_choropleth_roundtrip() {
    let (taxi, regions) = small_workload();
    let mut catalog = urbane::DataCatalog::new();
    catalog.register("taxi", taxi);
    let pyramid = urbane::ResolutionPyramid::new(vec![regions]);
    let service = urbane::UrbaneService::new(Default::default(), catalog, pyramid).unwrap();
    let answer = service.query(&urbane::QueryRequest::count("taxi", 0)).unwrap();
    let img = urbane::view::MapView::with_defaults().render(&answer, 128, 128);
    let mut bytes = Vec::new();
    gpu_raster::ppm::write_ppm_to(&mut bytes, &img.image).unwrap();
    let back = gpu_raster::ppm::read_ppm(&bytes).unwrap();
    assert_eq!(back, img.image);
}
