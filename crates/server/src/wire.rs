//! The JSON wire format: request parsing and answer serialization.
//!
//! A `/query` body looks like:
//!
//! ```json
//! {
//!   "dataset": "taxi",
//!   "level": 0,
//!   "agg": "sum:fare",
//!   "mode": "accurate",
//!   "resolution": 512,
//!   "deadline_ms": 500,
//!   "filters": [
//!     {"type": "time", "start": 0, "end": 86400},
//!     {"type": "range", "column": "fare", "min": 2, "max": 40},
//!     {"type": "equals", "column": "payment", "value": 1},
//!     {"type": "bbox", "x0": -74.1, "y0": 40.6, "x1": -73.8, "y1": 40.9}
//!   ]
//! }
//! ```
//!
//! Only `dataset` and `level` are required; everything else defaults the
//! same way [`QueryRequest::count`] does. The response carries the answer
//! table (per-region values), totals, the guard report, and cache
//! provenance.

use std::collections::BTreeMap;
use std::time::Duration;
use urbane::service::{DatasetInfo, QueryAnswer, QueryRequest};
use urbane_geom::bbox::BoundingBox;
use urbane_geom::geojson::{push_json_number, push_json_string, Json};
use urbane_geom::point::Point;
use raster_join::ExecutionMode;
use urban_data::filter::Filter;
use urban_data::query::AggKind;
use urban_data::time::TimeRange;

/// A request-body problem, safe to echo in a 400.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for WireError {}

fn bad(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

fn require<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, WireError> {
    obj.get(key).ok_or_else(|| bad(format!("missing required field {key:?}")))
}

fn as_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, WireError> {
    v.as_str().ok_or_else(|| bad(format!("field {key:?} must be a string")))
}

fn as_f64(v: &Json, key: &str) -> Result<f64, WireError> {
    v.as_f64().ok_or_else(|| bad(format!("field {key:?} must be a number")))
}

fn as_index(v: &Json, key: &str) -> Result<usize, WireError> {
    let n = as_f64(v, key)?;
    if !n.is_finite() || n < 0.0 || n.fract() != 0.0 {
        return Err(bad(format!("field {key:?} must be a non-negative integer")));
    }
    Ok(n as usize)
}

/// Parse an aggregate spec: `"count"`, or `"sum:col"` / `"avg:col"` /
/// `"min:col"` / `"max:col"`.
fn parse_agg(spec: &str) -> Result<AggKind, WireError> {
    match spec.split_once(':') {
        None if spec == "count" => Ok(AggKind::Count),
        Some(("sum", col)) if !col.is_empty() => Ok(AggKind::Sum(col.to_string())),
        Some(("avg", col)) if !col.is_empty() => Ok(AggKind::Avg(col.to_string())),
        Some(("min", col)) if !col.is_empty() => Ok(AggKind::Min(col.to_string())),
        Some(("max", col)) if !col.is_empty() => Ok(AggKind::Max(col.to_string())),
        _ => Err(bad(format!(
            "bad aggregate {spec:?}: expected \"count\" or \"sum:col\"/\"avg:col\"/\"min:col\"/\"max:col\""
        ))),
    }
}

fn parse_mode(spec: &str) -> Result<ExecutionMode, WireError> {
    match spec {
        "bounded" => Ok(ExecutionMode::Bounded),
        "weighted" => Ok(ExecutionMode::Weighted),
        "accurate" => Ok(ExecutionMode::Accurate),
        "index" => Ok(ExecutionMode::IndexJoin),
        _ => Err(bad(format!(
            "bad mode {spec:?}: expected \"bounded\", \"weighted\", \"accurate\" or \"index\""
        ))),
    }
}

fn parse_filter(v: &Json) -> Result<Filter, WireError> {
    let kind = as_str(require(v, "type")?, "type")?;
    match kind {
        "time" => {
            let start = as_f64(require(v, "start")?, "start")?;
            let end = as_f64(require(v, "end")?, "end")?;
            Ok(Filter::Time(TimeRange::new(start as i64, end as i64)))
        }
        "range" => Ok(Filter::AttrRange {
            column: as_str(require(v, "column")?, "column")?.to_string(),
            min: as_f64(require(v, "min")?, "min")? as f32,
            max: as_f64(require(v, "max")?, "max")? as f32,
        }),
        "equals" => Ok(Filter::AttrEquals {
            column: as_str(require(v, "column")?, "column")?.to_string(),
            value: as_f64(require(v, "value")?, "value")? as f32,
        }),
        "bbox" => Ok(Filter::SpatialBox(BoundingBox::new(
            Point::new(as_f64(require(v, "x0")?, "x0")?, as_f64(require(v, "y0")?, "y0")?),
            Point::new(as_f64(require(v, "x1")?, "x1")?, as_f64(require(v, "y1")?, "y1")?),
        ))),
        other => Err(bad(format!(
            "bad filter type {other:?}: expected \"time\", \"range\", \"equals\" or \"bbox\""
        ))),
    }
}

/// Parse a `/query` body into a [`QueryRequest`].
pub fn parse_query(body: &str) -> Result<QueryRequest, WireError> {
    let v = urbane_geom::geojson::parse_json(body)
        .map_err(|e| bad(format!("invalid JSON body: {e}")))?;
    if !matches!(v, Json::Object(_)) {
        return Err(bad("request body must be a JSON object"));
    }

    let dataset = as_str(require(&v, "dataset")?, "dataset")?.to_string();
    let level = as_index(require(&v, "level")?, "level")?;
    let mut req = QueryRequest::count(dataset, level);

    if let Some(agg) = v.get("agg") {
        req = req.agg(parse_agg(as_str(agg, "agg")?)?);
    }
    if let Some(mode) = v.get("mode") {
        req = req.mode(parse_mode(as_str(mode, "mode")?)?);
    }
    if let Some(r) = v.get("resolution") {
        let r = as_index(r, "resolution")?;
        req = req.resolution(u32::try_from(r).map_err(|_| bad("resolution too large"))?);
    }
    if let Some(d) = v.get("deadline_ms") {
        let ms = as_f64(d, "deadline_ms")?;
        if !(ms.is_finite() && ms >= 0.0) {
            return Err(bad("field \"deadline_ms\" must be a non-negative number"));
        }
        req = req.deadline(Duration::from_millis(ms as u64));
    }
    if let Some(filters) = v.get("filters") {
        let list = filters
            .as_array()
            .ok_or_else(|| bad("field \"filters\" must be an array"))?;
        for f in list {
            req = req.filter(parse_filter(f)?);
        }
    }
    Ok(req)
}

fn num(n: f64) -> Json {
    Json::Number(n)
}

fn push_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// Serialize a served answer. Region values are paired with their names so
/// clients never need the pyramid definition client-side.
///
/// The body is written straight into one buffer, keys in sorted order at
/// every level: the bytes a `Json` object tree of the same fields would
/// print, without building the tree.
pub fn answer_to_json(req: &QueryRequest, answer: &QueryAnswer) -> String {
    let table = &answer.table;
    let report = &answer.report;
    let mut out = String::with_capacity(256 + 64 * table.states.len());
    out.push_str("{\"cached\":");
    push_bool(&mut out, answer.cached);
    out.push_str(",\"dataset\":");
    push_json_string(&mut out, &req.dataset);
    out.push_str(",\"generation\":");
    push_json_number(&mut out, answer.generation as f64);

    out.push_str(",\"guard\":{\"deadline_ms\":");
    push_json_number(&mut out, report.deadline.as_secs_f64() * 1e3);
    out.push_str(",\"degraded\":");
    push_bool(&mut out, report.degraded());
    out.push_str(",\"elapsed_ms\":");
    push_json_number(&mut out, report.elapsed.as_secs_f64() * 1e3);
    out.push_str(",\"error_bound\":");
    match report.error_bound {
        Some(e) => push_json_number(&mut out, e),
        None => out.push_str("null"),
    }
    out.push_str(",\"fallbacks\":[");
    for (i, f) in report.fallbacks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, f);
    }
    out.push_str("],\"path\":");
    push_json_string(&mut out, report.path.as_str());
    out.push_str(",\"retried\":");
    push_bool(&mut out, report.retried);

    out.push_str("},\"level\":");
    push_json_number(&mut out, req.level as f64);
    out.push_str(",\"regions\":[");
    for (id, state) in table.states.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":");
        push_json_number(&mut out, id as f64);
        out.push_str(",\"name\":");
        push_json_string(&mut out, answer.regions.region_name(id as u32));
        out.push_str(",\"value\":");
        match state.finish(&table.agg) {
            Some(v) => push_json_number(&mut out, v),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push_str("],\"total_count\":");
    push_json_number(&mut out, table.total_count() as f64);
    out.push('}');
    out
}

/// Serialize the `/datasets` listing.
pub fn datasets_to_json(datasets: &[DatasetInfo]) -> Json {
    let list: Vec<Json> = datasets
        .iter()
        .map(|d| {
            let mut m = BTreeMap::new();
            m.insert("name".into(), Json::String(d.name.clone()));
            m.insert("rows".into(), num(d.rows as f64));
            m.insert("generation".into(), num(d.generation as f64));
            Json::Object(m)
        })
        .collect();
    let mut m = BTreeMap::new();
    m.insert("datasets".into(), Json::Array(list));
    Json::Object(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_body_defaults_like_count() {
        let req = parse_query(r#"{"dataset": "taxi", "level": 2}"#).unwrap();
        assert_eq!(req.dataset, "taxi");
        assert_eq!(req.level, 2);
        assert_eq!(req.agg, AggKind::Count);
        assert_eq!(req.mode, ExecutionMode::Bounded);
        assert!(req.filters.is_empty());
        assert!(req.resolution.is_none());
        assert!(req.deadline.is_none());
    }

    #[test]
    fn full_body_parses_every_field() {
        let req = parse_query(
            r#"{
                "dataset": "taxi", "level": 1, "agg": "avg:fare",
                "mode": "accurate", "resolution": 512, "deadline_ms": 250,
                "filters": [
                    {"type": "time", "start": 0, "end": 86400},
                    {"type": "range", "column": "fare", "min": 2, "max": 40},
                    {"type": "equals", "column": "payment", "value": 1},
                    {"type": "bbox", "x0": 0, "y0": 1, "x1": 2, "y1": 3}
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(req.agg, AggKind::Avg("fare".into()));
        assert_eq!(req.mode, ExecutionMode::Accurate);
        assert_eq!(req.resolution, Some(512));
        assert_eq!(req.deadline, Some(Duration::from_millis(250)));
        assert_eq!(req.filters.len(), 4);
        assert!(matches!(req.filters[3], Filter::SpatialBox(_)));
    }

    #[test]
    fn hostile_bodies_fail_with_field_names() {
        for (body, needle) in [
            ("not json", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"level": 0}"#, "dataset"),
            (r#"{"dataset": "t"}"#, "level"),
            (r#"{"dataset": "t", "level": -1}"#, "level"),
            (r#"{"dataset": "t", "level": 0.5}"#, "level"),
            (r#"{"dataset": "t", "level": 0, "agg": "median:x"}"#, "aggregate"),
            (r#"{"dataset": "t", "level": 0, "agg": "sum:"}"#, "aggregate"),
            (r#"{"dataset": "t", "level": 0, "mode": "warp"}"#, "mode"),
            (r#"{"dataset": "t", "level": 0, "deadline_ms": -5}"#, "deadline_ms"),
            (r#"{"dataset": "t", "level": 0, "filters": 7}"#, "filters"),
            (r#"{"dataset": "t", "level": 0, "filters": [{"type": "psychic"}]}"#, "filter type"),
            (
                r#"{"dataset": "t", "level": 0, "filters": [{"type": "range", "column": "x"}]}"#,
                "min",
            ),
        ] {
            let err = parse_query(body).expect_err(body);
            assert!(err.0.contains(needle), "{body} -> {err}");
        }
    }

    /// The tree builder `answer_to_json` replaced: the reference its bytes
    /// are held to.
    fn answer_tree(req: &QueryRequest, answer: &QueryAnswer) -> Json {
        let values = answer.table.values();
        let regions: Vec<Json> = values
            .iter()
            .enumerate()
            .map(|(id, v)| {
                let mut m = BTreeMap::new();
                m.insert("id".into(), num(id as f64));
                m.insert(
                    "name".into(),
                    Json::String(answer.regions.region_name(id as u32).to_string()),
                );
                m.insert("value".into(), v.map(num).unwrap_or(Json::Null));
                Json::Object(m)
            })
            .collect();

        let mut m = BTreeMap::new();
        m.insert("dataset".into(), Json::String(req.dataset.clone()));
        m.insert("level".into(), num(req.level as f64));
        m.insert("generation".into(), num(answer.generation as f64));
        m.insert("cached".into(), Json::Bool(answer.cached));
        m.insert("total_count".into(), num(answer.table.total_count() as f64));
        m.insert("regions".into(), Json::Array(regions));
        m.insert("guard".into(), answer.report.to_json());
        Json::Object(m)
    }

    fn assert_writer_matches_tree(req: &QueryRequest, answer: &QueryAnswer) {
        let written = answer_to_json(req, answer);
        assert_eq!(written, answer_tree(req, answer).to_string());
        assert!(urbane_geom::geojson::parse_json(&written).is_ok(), "{written}");
    }

    #[test]
    fn writer_matches_the_tree_on_served_answers() {
        use raster_join::RasterJoinConfig;
        use std::sync::Arc;
        use urban_data::gen::city::CityModel;
        use urbane::catalog::DataCatalog;
        use urbane::service::{ServiceConfig, UrbaneService};
        use urbane::ResolutionPyramid;

        let city = CityModel::nyc_like();
        let mut catalog = DataCatalog::new();
        catalog.register("taxi", crate::router::synthetic_table("taxi", 3_000, 5).unwrap());
        let pyramid = ResolutionPyramid::standard(&city.bbox(), 12, 6, 4);
        let levels = pyramid.len();
        let service = UrbaneService::new(
            ServiceConfig { join: RasterJoinConfig::with_resolution(128), ..Default::default() },
            catalog,
            pyramid,
        )
        .unwrap();
        let service = Arc::new(service);

        let aggs = [
            AggKind::Count,
            AggKind::Sum("fare".into()),
            AggKind::Avg("fare".into()),
            AggKind::Min("fare".into()),
            AggKind::Max("fare".into()),
        ];
        let modes = [ExecutionMode::Bounded, ExecutionMode::Accurate, ExecutionMode::IndexJoin];
        let mut seen_cached = [false; 2];
        for level in 0..levels {
            for agg in &aggs {
                for mode in modes {
                    let req = QueryRequest::count("taxi", level).agg(agg.clone()).mode(mode);
                    // A key is admitted on its second miss, so the third
                    // request is a hit.
                    for _ in 0..3 {
                        let answer = service.query(&req).unwrap();
                        seen_cached[usize::from(answer.cached)] = true;
                        assert_writer_matches_tree(&req, &answer);
                    }
                }
            }
        }
        assert_eq!(seen_cached, [true, true], "both a miss and a hit were written");
    }

    #[test]
    fn writer_matches_the_tree_on_hostile_answers() {
        use std::sync::Arc;
        use urban_data::query::{AggState, AggTable};
        use urban_data::region::RegionSet;
        use urbane::guard::{GuardPath, GuardReport};
        use urbane_geom::multipolygon::MultiPolygon;
        use urbane_geom::polygon::Polygon;

        let square = MultiPolygon::from(Polygon::rect(&BoundingBox::new(
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
        )));
        let names = ["q\"uote", "back\\slash", "new\nline", "ctl\u{1}\u{1f}", "Chelsea – Ñ 東京", ""];
        let regions = RegionSet::new(
            "hostile",
            names.iter().map(|n| (n.to_string(), square.clone())).collect(),
        );
        let mut states = vec![AggState::default(); names.len()];
        states[0].accumulate(2.5);
        states[1].accumulate(1e300);
        states[1].accumulate(1e300);
        // Region 2 stays empty: its value is `None`.
        states[3].accumulate(-0.1);
        states[4].accumulate(f64::NAN);
        states[5].accumulate(f64::INFINITY);
        let req = QueryRequest::count("ta\"xi\u{7}", 1).agg(AggKind::Sum("fare".into()));
        let answer = QueryAnswer {
            table: Arc::new(AggTable { agg: req.agg.clone(), states }),
            regions: Arc::new(regions),
            report: GuardReport {
                path: GuardPath::DegradedBounded,
                fallbacks: vec!["full query failed: \"deadline\"".into(), "two\nlines".into()],
                retried: true,
                elapsed: Duration::from_nanos(1_234_567),
                deadline: Duration::from_millis(5),
                error_bound: None,
            },
            cached: false,
            generation: (1 << 53) + 2,
        };
        assert_writer_matches_tree(&req, &answer);
        let written = answer_to_json(&req, &answer);
        assert!(written.contains("\"error_bound\":null"), "{written}");
        assert!(written.contains("\"value\":null"), "non-finite and empty values are null: {written}");

        // No fallbacks, a known bound, a hit, a count table.
        let answer = QueryAnswer {
            table: Arc::new(AggTable { agg: AggKind::Count, states: answer.table.states.clone() }),
            report: GuardReport {
                path: GuardPath::Full,
                fallbacks: Vec::new(),
                retried: false,
                elapsed: Duration::ZERO,
                deadline: Duration::from_secs(30),
                error_bound: Some(0.000_123_4),
            },
            cached: true,
            generation: 0,
            ..answer
        };
        assert_writer_matches_tree(&QueryRequest::count("taxi", 0), &answer);
    }

    #[test]
    fn datasets_listing_shape() {
        let json = datasets_to_json(&[DatasetInfo {
            name: "taxi".into(),
            rows: 123,
            generation: 4,
        }]);
        let text = json.to_string();
        let parsed = urbane_geom::geojson::parse_json(&text).unwrap();
        let list = parsed.get("datasets").unwrap().as_array().unwrap();
        assert_eq!(list[0].get("rows").unwrap().as_f64(), Some(123.0));
        assert_eq!(list[0].get("generation").unwrap().as_f64(), Some(4.0));
    }
}
