//! Canvas planning: from an error bound to a (possibly tiled) render target.
//!
//! The paper's accuracy knob is the canvas resolution: a pixel of side `s`
//! world units bounds each point's positional error by half the pixel
//! diagonal (`s·√2/2` for square pixels). The planner inverts that — given a
//! requested ε it picks the coarsest canvas that honors it — and, when the
//! required canvas exceeds the texture-size limit (`GL_MAX_TEXTURE_SIZE` on
//! real GPUs), splits the render into a grid of tiles that are processed as
//! independent passes and merged.

use crate::{RasterJoinError, Result};
use urbane_geom::projection::Viewport;
use urbane_geom::BoundingBox;

/// How the caller specifies the canvas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CanvasSpec {
    /// Guarantee a positional error of at most `epsilon` world units.
    Epsilon(f64),
    /// Use exactly this many pixels along the extent's longer side.
    Resolution(u32),
}

/// A planned render: one or more tile viewports covering the query extent.
#[derive(Debug, Clone)]
pub struct CanvasPlan {
    /// The full (inflated) world extent being rendered.
    pub world: BoundingBox,
    /// Total canvas size in pixels (across all tiles).
    pub width: u32,
    /// Total canvas height in pixels.
    pub height: u32,
    /// Tile viewports (row-major). A single tile unless limits forced a split.
    pub tiles: Vec<Viewport>,
    /// The guaranteed per-point positional error bound (half pixel diagonal),
    /// in world units.
    pub epsilon: f64,
}

impl CanvasPlan {
    /// Plan a canvas over `extent`.
    ///
    /// * `spec` — accuracy/resolution request;
    /// * `max_tile` — maximum tile side in pixels (the texture-size limit).
    ///
    /// The extent is inflated by a hair so data exactly on its closed edges
    /// survives the half-open pixel rule, and by construction pixels are
    /// square (the extent is letterboxed to the pixel grid).
    pub fn plan(extent: &BoundingBox, spec: CanvasSpec, max_tile: u32) -> Result<CanvasPlan> {
        if extent.is_empty() {
            return Err(RasterJoinError::Config("empty query extent".into()));
        }
        if max_tile == 0 {
            return Err(RasterJoinError::Config("max_tile must be positive".into()));
        }
        // Inflate: relative epsilon keeps closed-edge points inside the
        // half-open pixel domain.
        let pad = extent.width().max(extent.height()).max(1.0) * 1e-9;
        let world_raw = extent.inflate(pad);

        // Pixel size from the spec.
        let long_side = world_raw.width().max(world_raw.height());
        let pixel = match spec {
            CanvasSpec::Epsilon(eps) => {
                if eps <= 0.0 || eps.is_nan() {
                    return Err(RasterJoinError::Config("epsilon must be positive".into()));
                }
                // Square pixel: error = s·√2/2 ≤ eps  →  s = eps·√2.
                eps * std::f64::consts::SQRT_2
            }
            CanvasSpec::Resolution(r) => {
                if r == 0 {
                    return Err(RasterJoinError::Config("resolution must be positive".into()));
                }
                long_side / r as f64
            }
        };

        let width = (world_raw.width() / pixel).ceil().max(1.0) as u64;
        let height = (world_raw.height() / pixel).ceil().max(1.0) as u64;
        if width > 1 << 20 || height > 1 << 20 {
            return Err(RasterJoinError::Config(format!(
                "requested canvas {width}x{height} is implausibly large"
            )));
        }
        let (width, height) = (width as u32, height as u32);

        // Letterbox the world so pixels are exactly `pixel` wide and tall
        // (anchor at min corner; the inflation already padded the data).
        let world = BoundingBox::from_coords(
            world_raw.min.x,
            world_raw.min.y,
            world_raw.min.x + width as f64 * pixel,
            world_raw.min.y + height as f64 * pixel,
        );
        let epsilon = 0.5 * std::f64::consts::SQRT_2 * pixel;

        // Tile split.
        let tiles_x = width.div_ceil(max_tile);
        let tiles_y = height.div_ceil(max_tile);
        let mut tiles = Vec::with_capacity((tiles_x * tiles_y) as usize);
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                let px0 = tx * max_tile;
                let py0 = ty * max_tile;
                let tw = max_tile.min(width - px0);
                let th = max_tile.min(height - py0);
                // Pixel rows count from the world's top (screen convention).
                let wx0 = world.min.x + px0 as f64 * pixel;
                let wy1 = world.max.y - py0 as f64 * pixel;
                let tile_world = BoundingBox::from_coords(
                    wx0,
                    wy1 - th as f64 * pixel,
                    wx0 + tw as f64 * pixel,
                    wy1,
                );
                tiles.push(Viewport::new(tile_world, tw, th));
            }
        }

        Ok(CanvasPlan { world, width, height, tiles, epsilon })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urbane_geom::Point;

    fn extent() -> BoundingBox {
        BoundingBox::from_coords(0.0, 0.0, 1000.0, 500.0)
    }

    #[test]
    fn resolution_spec_sets_long_side() {
        let p = CanvasPlan::plan(&extent(), CanvasSpec::Resolution(200), 4096).unwrap();
        assert_eq!(p.width, 200);
        assert!((99..=101).contains(&p.height), "height {}", p.height);
        assert_eq!(p.tiles.len(), 1);
        // Pixels are square.
        let t = &p.tiles[0];
        assert!((t.units_per_pixel_x() - t.units_per_pixel_y()).abs() < 1e-9);
    }

    #[test]
    fn epsilon_spec_honors_bound() {
        for eps in [1.0, 5.0, 25.0] {
            let p = CanvasPlan::plan(&extent(), CanvasSpec::Epsilon(eps), 8192).unwrap();
            assert!(p.epsilon <= eps * (1.0 + 1e-9), "planned {} > requested {eps}", p.epsilon);
            // And not needlessly fine: within 2x of the request.
            assert!(p.epsilon > eps * 0.49, "planned {} way finer than {eps}", p.epsilon);
            for t in &p.tiles {
                assert!(t.pixel_error_bound() <= eps * (1.0 + 1e-9));
            }
        }
    }

    #[test]
    fn tiling_kicks_in_at_texture_limit() {
        let p = CanvasPlan::plan(&extent(), CanvasSpec::Resolution(1000), 256).unwrap();
        assert_eq!(p.width, 1000);
        assert_eq!(p.tiles.len(), 4 * 2); // ceil(1000/256)=4, ceil(500/256)=2
        // Tiles partition the world: total pixels match and world boxes abut.
        let pixels: u64 = p.tiles.iter().map(|t| t.width as u64 * t.height as u64).sum();
        assert_eq!(pixels, p.width as u64 * p.height as u64);
        let union = p
            .tiles
            .iter()
            .fold(BoundingBox::empty(), |b, t| b.union(&t.world));
        assert!((union.width() - p.world.width()).abs() < 1e-6);
        assert!((union.height() - p.world.height()).abs() < 1e-6);
    }

    #[test]
    fn tiles_assign_every_point_once() {
        let p = CanvasPlan::plan(&extent(), CanvasSpec::Resolution(512), 100).unwrap();
        assert!(p.tiles.len() > 1);
        // Deterministic scatter, including extent-boundary points.
        for i in 0..2_000u64 {
            let x = (i.wrapping_mul(104_729) % 1_000_000) as f64 / 1_000.0;
            let y = (i.wrapping_mul(15_485_863) % 500_000) as f64 / 1_000.0;
            let pt = Point::new(x, y);
            let owners =
                p.tiles.iter().filter(|t| t.world_to_pixel(pt).is_some()).count();
            assert_eq!(owners, 1, "point {pt} owned by {owners} tiles");
        }
        // The extent's corners (closed edges) are still owned exactly once.
        for c in extent().corners() {
            let owners =
                p.tiles.iter().filter(|t| t.world_to_pixel(c).is_some()).count();
            assert_eq!(owners, 1, "corner {c} owned by {owners} tiles");
        }
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(CanvasPlan::plan(&BoundingBox::empty(), CanvasSpec::Resolution(10), 64).is_err());
        assert!(CanvasPlan::plan(&extent(), CanvasSpec::Resolution(0), 64).is_err());
        assert!(CanvasPlan::plan(&extent(), CanvasSpec::Epsilon(0.0), 64).is_err());
        assert!(CanvasPlan::plan(&extent(), CanvasSpec::Epsilon(-2.0), 64).is_err());
        assert!(CanvasPlan::plan(&extent(), CanvasSpec::Resolution(10), 0).is_err());
        assert!(CanvasPlan::plan(&extent(), CanvasSpec::Epsilon(1e-9), 64).is_err()); // absurd canvas
    }

    #[test]
    fn epsilon_halves_with_double_resolution() {
        let a = CanvasPlan::plan(&extent(), CanvasSpec::Resolution(100), 8192).unwrap();
        let b = CanvasPlan::plan(&extent(), CanvasSpec::Resolution(200), 8192).unwrap();
        assert!((a.epsilon / b.epsilon - 2.0).abs() < 0.05);
    }
}
