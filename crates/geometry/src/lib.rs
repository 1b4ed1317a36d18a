//! # urbane-geom — geometry substrate
//!
//! Computational-geometry primitives backing the Urbane / Raster Join
//! reproduction: points, bounding boxes, segments, polygons with holes,
//! multipolygons, point-in-polygon predicates, box clipping, Web-Mercator
//! projection, and GeoJSON I/O.
//!
//! Everything here is exact-ish `f64` geometry; the rasterization pipeline in
//! `gpu-raster` quantizes to pixels on top of these primitives, mirroring how
//! the paper's OpenGL implementation uploads `f32` coordinates to the GPU.
//!
//! The crate is dependency-free and
//! deliberately implements its own GeoJSON reader and writer so the whole
//! reproduction stays self-contained.

#![forbid(unsafe_code)]

// Library paths must surface typed errors, not panic on malformed data;
// tests are exempt — an unwrap there *is* the assertion.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod bbox;
pub mod clip;
pub mod geojson;
pub mod multipolygon;
pub mod point;
pub mod polygon;
pub mod predicates;
pub mod projection;
pub mod segment;

pub use bbox::BoundingBox;
pub use multipolygon::MultiPolygon;
pub use point::Point;
pub use polygon::{Polygon, Ring};
pub use predicates::Orientation;
pub use segment::Segment;

/// Geometric tolerance used by approximate comparisons across the crate.
///
/// Chosen well below one millionth of a degree (~0.1 m at NYC latitudes), i.e.
/// far finer than any urban data set's precision, while staying far above
/// `f64` rounding noise for city-scale coordinates.
pub const EPSILON: f64 = 1e-9;

/// Errors produced by geometry construction and parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeomError {
    /// A ring needs at least 3 distinct vertices.
    DegenerateRing { vertices: usize },
    /// Polygon/multipolygon structural problem (e.g. hole outside shell).
    InvalidPolygon(String),
    /// GeoJSON parse failure with a human-readable reason.
    Parse(String),
}

impl std::fmt::Display for GeomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeomError::DegenerateRing { vertices } => {
                write!(f, "degenerate ring: only {vertices} distinct vertices")
            }
            GeomError::InvalidPolygon(msg) => write!(f, "invalid polygon: {msg}"),
            GeomError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for GeomError {}

/// Convenience alias for geometry results.
pub type Result<T> = std::result::Result<T, GeomError>;
