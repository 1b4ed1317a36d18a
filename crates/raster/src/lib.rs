//! # gpu-raster — a software GPU rasterization pipeline
//!
//! Raster Join's central move is to evaluate spatial aggregation *with the
//! rendering pipeline*: polygons are triangulated and rasterized, points are
//! drawn as single fragments, and the blending unit accumulates aggregates.
//! The paper runs this on OpenGL; this crate is the substrate substitution —
//! a from-scratch software implementation of exactly the pipeline stages the
//! algorithm relies on:
//!
//! * typed 2-D framebuffers ([`Buffer2D`]),
//! * blend operations (add / min / max / replace — [`blend`]),
//! * triangle rasterization with the **top-left fill rule** so adjacent
//!   triangles never double-shade a pixel ([`triangle`]),
//! * direct scanline polygon fill with even–odd semantics ([`polygon_scan`]),
//! * conservative segment traversal for boundary-pixel detection ([`line`]),
//! * point rendering ([`point`]) and a PPM writer for the images ([`ppm`]),
//! * a tiled executor that renders independent tiles on worker threads
//!   ([`tile`]), standing in for GPU parallelism, and
//! * pipeline statistics ([`stats`]) used by the cost-model benchmarks.
//!
//! The semantics (pixel grid, sample-at-center, fill rules, blend equations)
//! match the GL conventions the paper depends on, so Raster Join's error
//! bound and its accuracy/performance trade-offs carry over unchanged.

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
pub mod triangle;

pub use blend::BlendOp;
pub use buffer::Buffer2D;
pub use pipeline::Pipeline;
pub use stats::RenderStats;
