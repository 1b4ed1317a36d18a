//! Minimal GeoJSON reader/writer.
//!
//! Urban open data (neighborhood/zip/census polygons) ships as GeoJSON
//! FeatureCollections, so Urbane needs to ingest them. To keep the
//! reproduction dependency-free, this module includes a small recursive-
//! descent JSON parser covering the full JSON grammar (objects, arrays,
//! strings with escapes, numbers, booleans, null) and maps the GeoJSON
//! `Polygon` / `MultiPolygon` geometry types onto this crate's types.

use crate::multipolygon::MultiPolygon;
use crate::point::Point;
use crate::polygon::{Polygon, Ring};
use crate::{GeomError, Result};
use std::collections::BTreeMap;
use std::fmt::Write;

/// A parsed JSON value. `BTreeMap` keeps key order deterministic for tests.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Borrow as string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Borrow as array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// `Display` serializes a `Json` tree back to a *valid* JSON document:
/// strings are escaped and non-finite numbers (which JSON cannot represent)
/// are written as `null` rather than `NaN`/`inf`.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        push_json_value(&mut out, self);
        f.write_str(&out)
    }
}

/// Maximum container nesting the parser accepts. Real GeoJSON nests five
/// levels deep; the cap exists so adversarial input like `[[[[…` exhausts
/// a counter instead of the thread's stack.
const MAX_JSON_DEPTH: usize = 128;

/// Parse a JSON document.
pub fn parse_json(input: &str) -> Result<Json> {
    let mut p = JsonParser { s: input.as_bytes(), pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.s.len() {
        return Err(GeomError::Parse(format!("trailing JSON at byte {}", p.pos)));
    }
    Ok(v)
}

struct JsonParser<'a> {
    s: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> JsonParser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T> {
        Err(GeomError::Parse(format!("{msg} at byte {}", self.pos)))
    }

    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Json> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected JSON value"),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json> {
        if self.s[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err("invalid literal")
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        std::str::from_utf8(&self.s[start..self.pos])
            .ok()
            .and_then(|t| t.parse().ok())
            .map(Json::Number)
            .ok_or_else(|| GeomError::Parse(format!("bad number at byte {start}")))
    }

    fn string(&mut self) -> Result<String> {
        if self.peek() != Some(b'"') {
            return self.err("expected string");
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.s.len() {
                                return self.err("bad unicode escape");
                            }
                            let hex =
                                std::str::from_utf8(&self.s[self.pos + 1..self.pos + 5])
                                    .map_err(|_| GeomError::Parse("bad escape".into()))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| GeomError::Parse("bad unicode escape".into()))?;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(first) => {
                    // Copy a full UTF-8 sequence.
                    let rest = &self.s[self.pos..];
                    let ch_len = utf8_len(first);
                    if rest.len() < ch_len {
                        return self.err("truncated UTF-8");
                    }
                    match std::str::from_utf8(&rest[..ch_len]) {
                        Ok(chunk) => out.push_str(chunk),
                        Err(_) => return self.err("invalid UTF-8"),
                    }
                    self.pos += ch_len;
                }
            }
        }
    }

    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_JSON_DEPTH {
            return self.err("JSON nested too deeply");
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json> {
        self.enter()?;
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.enter()?;
        self.pos += 1; // '{'
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return self.err("expected ':'");
            }
            self.pos += 1;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// A GeoJSON feature: a region geometry plus its properties.
#[derive(Debug, Clone, PartialEq)]
pub struct Feature {
    /// Region geometry (Polygon features are wrapped into one-part multis).
    pub geometry: MultiPolygon,
    /// Feature properties (e.g. neighborhood name, borough).
    pub properties: BTreeMap<String, Json>,
}

/// Parse a GeoJSON document into features. Accepts a `FeatureCollection`, a
/// single `Feature`, or a bare `Polygon` / `MultiPolygon` geometry.
pub fn parse_geojson(input: &str) -> Result<Vec<Feature>> {
    let doc = parse_json(input)?;
    let ty = doc
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| GeomError::Parse("GeoJSON missing \"type\"".into()))?;
    match ty {
        "FeatureCollection" => {
            let feats = doc
                .get("features")
                .and_then(Json::as_array)
                .ok_or_else(|| GeomError::Parse("FeatureCollection missing \"features\"".into()))?;
            feats.iter().map(feature_from_json).collect()
        }
        "Feature" => Ok(vec![feature_from_json(&doc)?]),
        "Polygon" | "MultiPolygon" => Ok(vec![Feature {
            geometry: geometry_from_json(&doc)?,
            properties: BTreeMap::new(),
        }]),
        other => Err(GeomError::Parse(format!("unsupported GeoJSON type: {other}"))),
    }
}

fn feature_from_json(v: &Json) -> Result<Feature> {
    let geom = v
        .get("geometry")
        .ok_or_else(|| GeomError::Parse("Feature missing \"geometry\"".into()))?;
    let properties = match v.get("properties") {
        Some(Json::Object(m)) => m.clone(),
        _ => BTreeMap::new(),
    };
    Ok(Feature { geometry: geometry_from_json(geom)?, properties })
}

fn geometry_from_json(v: &Json) -> Result<MultiPolygon> {
    let ty = v
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| GeomError::Parse("geometry missing \"type\"".into()))?;
    let coords = v
        .get("coordinates")
        .and_then(Json::as_array)
        .ok_or_else(|| GeomError::Parse("geometry missing \"coordinates\"".into()))?;
    match ty {
        "Polygon" => Ok(MultiPolygon::from_polygon(polygon_from_coords(coords)?)),
        "MultiPolygon" => {
            let polys: Result<Vec<Polygon>> = coords
                .iter()
                .map(|p| {
                    p.as_array()
                        .ok_or_else(|| GeomError::Parse("bad MultiPolygon nesting".into()))
                        .and_then(polygon_from_coords)
                })
                .collect();
            Ok(MultiPolygon::new(polys?))
        }
        other => Err(GeomError::Parse(format!("unsupported geometry type: {other}"))),
    }
}

fn polygon_from_coords(rings: &[Json]) -> Result<Polygon> {
    if rings.is_empty() {
        return Err(GeomError::Parse("polygon with no rings".into()));
    }
    let mut parsed: Vec<Ring> = Vec::with_capacity(rings.len());
    for r in rings {
        let pts = r
            .as_array()
            .ok_or_else(|| GeomError::Parse("ring is not an array".into()))?;
        let mut v = Vec::with_capacity(pts.len());
        for p in pts {
            let xy = p
                .as_array()
                .ok_or_else(|| GeomError::Parse("position is not an array".into()))?;
            let (Some(jx), Some(jy)) = (xy.first(), xy.get(1)) else {
                return Err(GeomError::Parse("position needs 2 coordinates".into()));
            };
            let x = jx.as_f64().ok_or_else(|| GeomError::Parse("bad coordinate".into()))?;
            let y = jy.as_f64().ok_or_else(|| GeomError::Parse("bad coordinate".into()))?;
            v.push(Point::new(x, y));
        }
        parsed.push(Ring::new(v)?);
    }
    let exterior = parsed.remove(0);
    Polygon::with_holes(exterior, parsed)
}

/// Serialize features back to a GeoJSON FeatureCollection string.
pub fn to_geojson(features: &[Feature]) -> String {
    let mut s = String::from("{\"type\":\"FeatureCollection\",\"features\":[");
    for (i, f) in features.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"type\":\"Feature\",\"properties\":{");
        for (j, (k, v)) in f.properties.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            push_json_string(&mut s, k);
            s.push(':');
            push_json_value(&mut s, v);
        }
        s.push_str("},\"geometry\":{\"type\":\"MultiPolygon\",\"coordinates\":[");
        for (j, poly) in f.geometry.polygons().iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push('[');
            for (k, ring) in poly.rings().enumerate() {
                if k > 0 {
                    s.push(',');
                }
                s.push('[');
                let vs = ring.vertices();
                for (m, p) in vs.iter().chain(vs.first()).enumerate() {
                    if m > 0 {
                        s.push(',');
                    }
                    s.push_str(&format!("[{},{}]", p.x, p.y));
                }
                s.push(']');
            }
            s.push(']');
        }
        s.push_str("]}}");
    }
    s.push_str("]}");
    s
}

/// Append `s` to `out` as a JSON string literal: quotes, backslashes and
/// control characters are escaped, everything else (non-ASCII included) is
/// copied as is. Every byte that needs an escape is ASCII, so the runs
/// between them are copied whole and stay valid UTF-8.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append `n` to `out` as a JSON number: `f64`'s `Display`, so byte-equal
/// to `n.to_string()`. JSON has no NaN/Infinity literals, so a non-finite
/// value is written as `null` rather than corrupting the document.
pub fn push_json_number(out: &mut String, n: f64) {
    if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

fn push_json_value(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Number(n) => push_json_number(out, *n),
        Json::String(s) => push_json_string(out, s),
        Json::Array(a) => {
            out.push('[');
            for (i, item) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_value(out, item);
            }
            out.push(']');
        }
        Json::Object(m) => {
            out.push('{');
            for (i, (k, item)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_string(out, k);
                out.push(':');
                push_json_value(out, item);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_scalars() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json("true").unwrap(), Json::Bool(true));
        assert_eq!(parse_json("false").unwrap(), Json::Bool(false));
        assert_eq!(parse_json("-1.5e3").unwrap(), Json::Number(-1500.0));
        assert_eq!(parse_json(r#""hi\n\"there\"""#).unwrap(), Json::String("hi\n\"there\"".into()));
    }

    #[test]
    fn json_nested() {
        let v = parse_json(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn json_unicode_escape() {
        assert_eq!(parse_json(r#""é""#).unwrap(), Json::String("é".into()));
    }

    #[test]
    fn display_roundtrips_hostile_strings() {
        let v = Json::Object(
            [
                ("q\"uote\\".to_string(), Json::String("a\"b\\c\nd\u{1}".into())),
                ("n".to_string(), Json::Number(1.5)),
            ]
            .into_iter()
            .collect(),
        );
        let text = v.to_string();
        assert_eq!(parse_json(&text).unwrap(), v, "{text}");
    }

    #[test]
    fn display_writes_non_finite_as_null() {
        let v = Json::Array(vec![
            Json::Number(f64::NAN),
            Json::Number(f64::INFINITY),
            Json::Number(f64::NEG_INFINITY),
            Json::Number(2.0),
        ]);
        let text = v.to_string();
        assert_eq!(text, "[null,null,null,2]");
        assert!(parse_json(&text).is_ok());
    }

    #[test]
    fn push_json_string_escapes_exactly_what_json_requires() {
        for (input, expected) in [
            ("", r#""""#),
            ("plain", r#""plain""#),
            ("q\"uote", r#""q\"uote""#),
            ("back\\slash", r#""back\\slash""#),
            ("a\nb\rc\td", r#""a\nb\rc\td""#),
            ("\u{0}\u{1}\u{1f}\u{7f}", "\"\\u0000\\u0001\\u001f\u{7f}\""),
            ("Ñ 東京 – ok\u{1}é", "\"Ñ 東京 – ok\\u0001é\""),
            ("\"\"", r#""\"\"""#),
        ] {
            let mut out = String::from("prefix:");
            push_json_string(&mut out, input);
            assert_eq!(out, format!("prefix:{expected}"), "{input:?}");
            assert_eq!(parse_json(&out["prefix:".len()..]).unwrap(), Json::String(input.into()));
        }
    }

    #[test]
    fn push_json_number_is_display_and_null_when_non_finite() {
        for n in [0.0, -0.0, 1.0, -2.5, 0.1, 1e-7, 1e21, 123_456_789.125, (1u64 << 53) as f64, f64::MAX, f64::MIN_POSITIVE] {
            let mut out = String::new();
            push_json_number(&mut out, n);
            assert_eq!(out, n.to_string());
        }
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut out = String::from("[");
            push_json_number(&mut out, n);
            assert_eq!(out, "[null");
        }
    }

    #[test]
    fn json_errors() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("tru").is_err());
        assert!(parse_json("1 2").is_err());
        assert!(parse_json(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn pathological_nesting_errs_without_overflow() {
        // A 1M-deep `[[[[…` must exhaust the depth counter, not the stack.
        let bomb = "[".repeat(1_000_000);
        assert!(parse_json(&bomb).is_err());
        let obj_bomb = r#"{"a":"#.repeat(100_000) + "1";
        assert!(parse_json(&obj_bomb).is_err());
        // Deep-but-legal nesting (under the cap) still parses.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse_json(&ok).is_ok());
    }

    const NEIGHBORHOOD: &str = r#"{
      "type": "FeatureCollection",
      "features": [
        {
          "type": "Feature",
          "properties": { "name": "Test Hook", "borough": "Brooklyn" },
          "geometry": {
            "type": "Polygon",
            "coordinates": [[[0,0],[4,0],[4,4],[0,4],[0,0]]]
          }
        },
        {
          "type": "Feature",
          "properties": { "name": "Two Isles" },
          "geometry": {
            "type": "MultiPolygon",
            "coordinates": [
              [[[10,10],[12,10],[12,12],[10,12],[10,10]]],
              [[[20,20],[22,20],[22,22],[20,22],[20,20]]]
            ]
          }
        }
      ]
    }"#;

    #[test]
    fn feature_collection_parses() {
        let feats = parse_geojson(NEIGHBORHOOD).unwrap();
        assert_eq!(feats.len(), 2);
        assert_eq!(feats[0].properties.get("name").and_then(Json::as_str), Some("Test Hook"));
        assert_eq!(feats[0].geometry.area(), 16.0);
        assert_eq!(feats[1].geometry.len(), 2);
        assert_eq!(feats[1].geometry.area(), 8.0);
    }

    #[test]
    fn polygon_with_hole_parses() {
        let g = r#"{"type":"Polygon","coordinates":[
            [[0,0],[10,0],[10,10],[0,10],[0,0]],
            [[2,2],[4,2],[4,4],[2,4],[2,2]]
        ]}"#;
        let feats = parse_geojson(g).unwrap();
        assert_eq!(feats[0].geometry.area(), 96.0);
    }

    #[test]
    fn geojson_roundtrip() {
        let feats = parse_geojson(NEIGHBORHOOD).unwrap();
        let out = to_geojson(&feats);
        let back = parse_geojson(&out).unwrap();
        assert_eq!(back.len(), feats.len());
        assert_eq!(back[0].geometry.area(), feats[0].geometry.area());
        assert_eq!(
            back[0].properties.get("name").and_then(Json::as_str),
            Some("Test Hook")
        );
    }

    #[test]
    fn bare_feature_and_geometry() {
        let f = r#"{"type":"Feature","properties":null,
                    "geometry":{"type":"Polygon","coordinates":[[[0,0],[1,0],[1,1],[0,1],[0,0]]]}}"#;
        assert_eq!(parse_geojson(f).unwrap().len(), 1);
        let g = r#"{"type":"MultiPolygon","coordinates":[[[[0,0],[1,0],[1,1],[0,1],[0,0]]]]}"#;
        assert_eq!(parse_geojson(g).unwrap()[0].geometry.len(), 1);
    }

    #[test]
    fn geojson_errors() {
        assert!(parse_geojson(r#"{"type":"LineString","coordinates":[[0,0],[1,1]]}"#).is_err());
        assert!(parse_geojson(r#"{"no_type": true}"#).is_err());
        assert!(parse_geojson(r#"{"type":"Polygon","coordinates":[]}"#).is_err());
    }
}
