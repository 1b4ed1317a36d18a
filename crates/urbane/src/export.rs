//! Exporting view results to standard formats.
//!
//! A choropleth computed by Urbane should be loadable in any GIS tool:
//! [`choropleth_to_geojson`] writes the region geometries as a GeoJSON
//! FeatureCollection with the aggregate value (and region name) in each
//! feature's properties. Time series export as CSV for spreadsheet use.

use urban_data::query::AggTable;
use urban_data::RegionSet;
use urbane_geom::geojson::{to_geojson, Feature, Json};

/// Serialize per-region values as a GeoJSON FeatureCollection.
///
/// Each feature carries `name` and `value` properties (`value` is `null`
/// for empty groups), plus the aggregate's description under `aggregate`.
pub fn choropleth_to_geojson(regions: &RegionSet, table: &AggTable) -> String {
    let agg_label = format!("{:?}", table.agg);
    let features: Vec<Feature> = regions
        .iter()
        .map(|(id, name, geom)| {
            let mut props = std::collections::BTreeMap::new();
            props.insert("name".to_string(), Json::String(name.to_string()));
            props.insert(
                "value".to_string(),
                match table.value(id as usize) {
                    Some(v) => Json::Number(v),
                    None => Json::Null,
                },
            );
            props.insert("aggregate".to_string(), Json::String(agg_label.clone()));
            Feature { geometry: geom.clone(), properties: props }
        })
        .collect();
    to_geojson(&features)
}

/// RFC-4180 quoting for a CSV cell: region names are caller data and may
/// contain separators, quotes, or newlines.
fn csv_cell(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Serialize a per-region time series as CSV: one row per region, one
/// column per bucket (empty cell = no data).
pub fn series_to_csv(
    regions: &RegionSet,
    series: &crate::view::explore::DatasetSeries,
) -> String {
    let mut out = String::from("region");
    for b in &series.buckets {
        out.push_str(&format!(",t{}", b.start));
    }
    out.push('\n');
    for (id, name, _) in regions.iter() {
        out.push_str(&csv_cell(name));
        for v in series.region(id) {
            match v {
                Some(v) => out.push_str(&format!(",{v}")),
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use urban_data::gen::regions::grid_regions;
    use urban_data::query::{AggKind, AggTable};
    use urbane_geom::geojson::parse_geojson;
    use urbane_geom::BoundingBox;

    fn setup() -> (RegionSet, AggTable) {
        let rs = grid_regions(&BoundingBox::from_coords(0.0, 0.0, 20.0, 10.0), 2, 1);
        let mut t = AggTable::new(AggKind::Count, 2);
        t.states[0].accumulate(0.0);
        t.states[0].accumulate(0.0);
        (rs, t)
    }

    #[test]
    fn geojson_roundtrips_with_values() {
        let (rs, t) = setup();
        let text = choropleth_to_geojson(&rs, &t);
        let feats = parse_geojson(&text).unwrap();
        assert_eq!(feats.len(), 2);
        assert_eq!(feats[0].properties.get("value").and_then(Json::as_f64), Some(2.0));
        assert_eq!(feats[1].properties.get("value"), Some(&Json::Null));
        assert_eq!(
            feats[0].properties.get("name").and_then(Json::as_str),
            Some("cell_0_0")
        );
        assert_eq!(
            feats[0].properties.get("aggregate").and_then(Json::as_str),
            Some("Count")
        );
        // Geometry survives.
        assert_eq!(feats[0].geometry.area(), 100.0);
    }

    /// Region names are caller data — quotes, backslashes and control
    /// characters must come back intact through a parse of the exported
    /// document, and the document itself must stay well-formed.
    #[test]
    fn geojson_escapes_hostile_region_names() {
        let hostile = "B\"road\\way\n\t — 7ᵗʰ Ave";
        let square = grid_regions(&BoundingBox::from_coords(0.0, 0.0, 1.0, 1.0), 1, 1);
        let rs = RegionSet::new(
            "hostile",
            vec![(hostile.to_string(), square.geometry(0).clone())],
        );
        let t = AggTable::new(AggKind::Count, 1);
        let text = choropleth_to_geojson(&rs, &t);
        let feats = parse_geojson(&text).expect("exported GeoJSON must stay parseable");
        assert_eq!(feats[0].properties.get("name").and_then(Json::as_str), Some(hostile));
    }

    /// `NaN` aggregate values have no JSON literal; they must export as
    /// `null`, not corrupt the document.
    #[test]
    fn geojson_non_finite_values_export_as_null() {
        let (rs, mut t) = setup();
        t.states[1].accumulate(0.0);
        t.agg = AggKind::Avg("x".into());
        t.states[0].sum = f64::NAN;
        t.states[1].sum = f64::INFINITY;
        let text = choropleth_to_geojson(&rs, &t);
        let feats = parse_geojson(&text).expect("non-finite values must not corrupt JSON");
        assert_eq!(feats[0].properties.get("value"), Some(&Json::Null));
        assert_eq!(feats[1].properties.get("value"), Some(&Json::Null));
    }

    #[test]
    fn series_csv_quotes_hostile_names() {
        use crate::view::explore::DatasetSeries;
        use urban_data::time::TimeRange;
        let square = grid_regions(&BoundingBox::from_coords(0.0, 0.0, 1.0, 1.0), 1, 1);
        let rs = RegionSet::new(
            "hostile",
            vec![("Name, with \"comma\"".to_string(), square.geometry(0).clone())],
        );
        let series = DatasetSeries {
            buckets: vec![TimeRange::new(0, 100)],
            series: vec![vec![Some(5.0)]],
        };
        let csv = series_to_csv(&rs, &series);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[1], "\"Name, with \"\"comma\"\"\",5");
    }

    #[test]
    fn series_csv_shape() {
        use crate::view::explore::DatasetSeries;
        use urban_data::time::TimeRange;
        let (rs, _) = setup();
        let series = DatasetSeries {
            buckets: vec![TimeRange::new(0, 100), TimeRange::new(100, 200)],
            series: vec![vec![Some(5.0), None], vec![Some(1.0), Some(2.0)]],
        };
        let csv = series_to_csv(&rs, &series);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "region,t0,t100");
        assert_eq!(lines[1], "cell_0_0,5,");
        assert_eq!(lines[2], "cell_1_0,1,2");
    }
}
