//! # gpu-raster — a software GPU rasterization pipeline
//!
//! Raster Join's central move is to evaluate spatial aggregation *with the
//! rendering pipeline*: polygons are rasterized, points are drawn as single
//! fragments, and the blending unit accumulates aggregates. The paper runs
//! this on OpenGL; this crate is the substrate substitution — a from-scratch
//! software implementation of exactly the pipeline stages the algorithm
//! relies on:
//!
//! * typed 2-D framebuffers ([`Buffer2D`]),
//! * blend operations (add / min / max / replace — [`blend`]),
//! * direct scanline polygon fill with even–odd semantics and half-open
//!   spans, so polygons sharing an edge never double-shade a pixel
//!   ([`polygon_scan`]) — a CPU needs no triangulation,
//! * conservative segment traversal for boundary-pixel detection ([`line`]),
//! * point rendering ([`point`]) and a PPM writer for the images ([`ppm`]),
//! * the panic-payload message the raster join's tile executor reports
//!   ([`tile`]), and
//! * pipeline statistics ([`stats`]) used by the cost-model benchmarks.
//!
//! The canvas's tiles are rendered in parallel by the raster join's own
//! executor (`raster_join::executor`), not here. The semantics (pixel grid,
//! sample-at-center, fill rules, blend equations) match the GL conventions
//! the paper depends on, so Raster Join's error bound and its
//! accuracy/performance trade-offs carry over unchanged.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod blend;
pub mod buffer;
pub mod line;
pub mod pipeline;
pub mod point;
pub mod polygon_scan;
pub mod ppm;
pub mod stats;
pub mod tile;

pub use blend::BlendOp;
pub use buffer::Buffer2D;
pub use pipeline::Pipeline;
pub use stats::RenderStats;
