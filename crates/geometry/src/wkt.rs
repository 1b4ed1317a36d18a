//! Minimal Well-Known Text (WKT) reader for the geometry types this repo
//! uses — `POINT`, `POLYGON`, and `MULTIPOLYGON` — and writer for the two
//! polygon types. Hand-rolled so the reproduction carries no external geo
//! dependencies.

use crate::multipolygon::MultiPolygon;
use crate::point::Point;
use crate::polygon::{Polygon, Ring};
use crate::{GeomError, Result};

/// Any geometry expressible in this crate's WKT subset.
#[derive(Debug, Clone, PartialEq)]
pub enum WktGeometry {
    Point(Point),
    Polygon(Polygon),
    MultiPolygon(MultiPolygon),
}

/// Serialize a polygon: `POLYGON ((...), (hole...))`. The closing vertex is
/// written explicitly, as the WKT spec requires.
pub fn polygon_to_wkt(poly: &Polygon) -> String {
    let mut s = String::from("POLYGON ");
    s.push_str(&polygon_body(poly));
    s
}

/// Serialize a multipolygon.
pub fn multipolygon_to_wkt(mp: &MultiPolygon) -> String {
    if mp.is_empty() {
        return "MULTIPOLYGON EMPTY".to_string();
    }
    let bodies: Vec<String> = mp.polygons().iter().map(polygon_body).collect();
    format!("MULTIPOLYGON ({})", bodies.join(", "))
}

fn polygon_body(poly: &Polygon) -> String {
    let ring_str = |r: &Ring| {
        let verts = r.vertices();
        let mut parts: Vec<String> =
            verts.iter().map(|p| format!("{} {}", p.x, p.y)).collect();
        // WKT repeats the first vertex to close the ring (rings are never
        // empty, but degrade to an unclosed ring rather than panicking).
        if let Some(first) = verts.first() {
            parts.push(format!("{} {}", first.x, first.y));
        }
        format!("({})", parts.join(", "))
    };
    let mut rings: Vec<String> = vec![ring_str(poly.exterior())];
    rings.extend(poly.holes().iter().map(ring_str));
    format!("({})", rings.join(", "))
}

/// Parse a WKT string into one of the supported geometries.
pub fn parse_wkt(input: &str) -> Result<WktGeometry> {
    let mut p = Parser { s: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let tag = p.ident()?;
    match tag.to_ascii_uppercase().as_str() {
        "POINT" => {
            p.expect_byte(b'(')?;
            let pt = p.coord()?;
            p.expect_byte(b')')?;
            p.end()?;
            Ok(WktGeometry::Point(pt))
        }
        "POLYGON" => {
            let poly = p.polygon()?;
            p.end()?;
            Ok(WktGeometry::Polygon(poly))
        }
        "MULTIPOLYGON" => {
            p.skip_ws();
            if p.peek_ident_is("EMPTY") {
                p.end()?;
                return Ok(WktGeometry::MultiPolygon(MultiPolygon::new(vec![])));
            }
            p.expect_byte(b'(')?;
            let mut polys = Vec::new();
            loop {
                polys.push(p.polygon()?);
                p.skip_ws();
                if p.try_byte(b',') {
                    continue;
                }
                p.expect_byte(b')')?;
                break;
            }
            p.end()?;
            Ok(WktGeometry::MultiPolygon(MultiPolygon::new(polys)))
        }
        other => Err(GeomError::Parse(format!("unsupported WKT type: {other}"))),
    }
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn ident(&mut self) -> Result<String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_alphabetic() {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(GeomError::Parse(format!("expected identifier at byte {}", self.pos)));
        }
        Ok(String::from_utf8_lossy(&self.s[start..self.pos]).into_owned())
    }

    fn peek_ident_is(&mut self, word: &str) -> bool {
        let save = self.pos;
        match self.ident() {
            Ok(id) if id.eq_ignore_ascii_case(word) => true,
            _ => {
                self.pos = save;
                false
            }
        }
    }

    fn expect_byte(&mut self, byte: u8) -> Result<()> {
        self.skip_ws();
        if self.pos < self.s.len() && self.s[self.pos] == byte {
            self.pos += 1;
            Ok(())
        } else {
            Err(GeomError::Parse(format!(
                "expected '{}' at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn try_byte(&mut self, byte: u8) -> bool {
        self.skip_ws();
        if self.pos < self.s.len() && self.s[self.pos] == byte {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn number(&mut self) -> Result<f64> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.s.len()
            && matches!(self.s[self.pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.s[start..self.pos])
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| GeomError::Parse(format!("expected number at byte {start}")))
    }

    fn coord(&mut self) -> Result<Point> {
        let x = self.number()?;
        let y = self.number()?;
        Ok(Point::new(x, y))
    }

    fn ring(&mut self) -> Result<Ring> {
        self.expect_byte(b'(')?;
        let mut pts = Vec::new();
        loop {
            pts.push(self.coord()?);
            if self.try_byte(b',') {
                continue;
            }
            self.expect_byte(b')')?;
            break;
        }
        Ring::new(pts)
    }

    fn polygon(&mut self) -> Result<Polygon> {
        self.expect_byte(b'(')?;
        let exterior = self.ring()?;
        let mut holes = Vec::new();
        loop {
            if self.try_byte(b',') {
                holes.push(self.ring()?);
            } else {
                break;
            }
        }
        self.expect_byte(b')')?;
        Polygon::with_holes(exterior, holes)
    }

    fn end(&mut self) -> Result<()> {
        self.skip_ws();
        if self.pos == self.s.len() {
            Ok(())
        } else {
            Err(GeomError::Parse(format!("trailing input at byte {}", self.pos)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_polygon(wkt: &str) -> Polygon {
        match parse_wkt(wkt).unwrap() {
            WktGeometry::Polygon(p) => p,
            g => panic!("wrong geometry: {g:?}"),
        }
    }

    #[test]
    fn polygon_roundtrip() {
        let poly =
            Polygon::from_coords(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]).unwrap();
        let wkt = polygon_to_wkt(&poly);
        assert!(wkt.starts_with("POLYGON (("));
        let back = parse_polygon(&wkt);
        assert_eq!(back.exterior().len(), 4);
        assert_eq!(back.area(), 16.0);
    }

    #[test]
    fn polygon_with_hole_roundtrip() {
        let wkt = "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))";
        let poly = parse_polygon(wkt);
        assert_eq!(poly.holes().len(), 1);
        assert_eq!(poly.area(), 100.0 - 4.0);
        let back = parse_polygon(&polygon_to_wkt(&poly));
        assert_eq!(back.area(), poly.area());
    }

    #[test]
    fn multipolygon_roundtrip() {
        let wkt = "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 7 5, 7 7, 5 7, 5 5)))";
        match parse_wkt(wkt).unwrap() {
            WktGeometry::MultiPolygon(mp) => {
                assert_eq!(mp.len(), 2);
                assert_eq!(mp.area(), 1.0 + 4.0);
                let again = parse_wkt(&multipolygon_to_wkt(&mp)).unwrap();
                assert!(matches!(again, WktGeometry::MultiPolygon(m) if m.area() == mp.area()));
            }
            g => panic!("wrong geometry: {g:?}"),
        }
    }

    #[test]
    fn empty_multipolygon() {
        match parse_wkt("MULTIPOLYGON EMPTY").unwrap() {
            WktGeometry::MultiPolygon(mp) => assert!(mp.is_empty()),
            g => panic!("wrong geometry: {g:?}"),
        }
        assert_eq!(multipolygon_to_wkt(&MultiPolygon::new(vec![])), "MULTIPOLYGON EMPTY");
    }

    #[test]
    fn scientific_notation_and_negatives() {
        let wkt = "POINT (-1.5e2 +2.5E-1)";
        match parse_wkt(wkt).unwrap() {
            WktGeometry::Point(p) => assert!(p.approx_eq(Point::new(-150.0, 0.25), 1e-12)),
            g => panic!("wrong geometry: {g:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse_wkt("LINESTRING (0 0, 1 1)").is_err());
        assert!(parse_wkt("POLYGON ((0 0, 1 0))").is_err()); // degenerate ring
        assert!(parse_wkt("POINT (1 2) junk").is_err());
        assert!(parse_wkt("POINT (1)").is_err());
        assert!(parse_wkt("").is_err());
        assert!(parse_wkt("MULTIPOLYGON EMPTY junk").is_err());
    }

    #[test]
    fn case_insensitive_tags() {
        assert!(parse_wkt("point (1 2)").is_ok());
        assert!(parse_wkt("Polygon ((0 0, 1 0, 1 1, 0 1, 0 0))").is_ok());
    }
}
