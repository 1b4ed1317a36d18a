//! The map view — the paper's Figure 1.
//!
//! A [`QueryAnswer`] — one spatial-aggregation query over the active
//! resolution's regions, answered by the service — is normalized through a
//! colormap, and the regions are rasterized into an RGB choropleth with
//! darkened boundaries. One pan/zoom/slider interaction is one request plus
//! one paint.

use crate::colormap::{ColorMap, Legend};
use crate::service::QueryAnswer;
use gpu_raster::line::traverse_segment;
use gpu_raster::polygon_scan::rasterize_rings;
use gpu_raster::Buffer2D;
use urban_data::RegionSet;
use urbane_geom::clip::clip_polygon_to_box;
use urbane_geom::projection::Viewport;
use urbane_geom::Point;

/// A rendered choropleth plus everything needed for its legend.
#[derive(Debug, Clone)]
pub struct ChoroplethImage {
    /// The RGB raster.
    pub image: Buffer2D<[u8; 3]>,
    /// Per-region values (None = no data).
    pub values: Vec<Option<f64>>,
    /// Legend domain.
    pub legend: Legend,
    /// The painted answer's error bound (`report.error_bound`): ε in world
    /// units, 0 for an exact answer, `None` when unknown.
    pub error_bound: Option<f64>,
}

/// Map-view renderer: the colors a choropleth is painted in.
#[derive(Debug, Clone)]
pub struct MapView {
    colormap: ColorMap,
    /// Background color for pixels outside every region.
    pub background: [u8; 3],
    /// Boundary line color.
    pub boundary: [u8; 3],
    /// Missing-data region color.
    pub no_data: [u8; 3],
}

impl MapView {
    /// Map view painting in `colormap`.
    pub fn new(colormap: ColorMap) -> Self {
        MapView {
            colormap,
            background: [24, 24, 32],
            boundary: [10, 10, 10],
            no_data: [90, 90, 90],
        }
    }

    /// Defaults: viridis.
    pub fn with_defaults() -> Self {
        Self::new(ColorMap::viridis())
    }

    /// Paint `answer` at `width × height`, fitted to its regions.
    pub fn render(&self, answer: &QueryAnswer, width: u32, height: u32) -> ChoroplethImage {
        self.render_viewport(answer, &Self::fitted(&answer.regions, width, height))
    }

    /// Paint `answer` through an explicit viewport — the pan/zoom path.
    pub fn render_viewport(&self, answer: &QueryAnswer, vp: &Viewport) -> ChoroplethImage {
        let values = answer.table.values();
        let legend = Legend::from_values(&values);
        let image = self.render_values_viewport(&answer.regions, &values, &legend, vp);
        ChoroplethImage { image, values, legend, error_bound: answer.report.error_bound }
    }

    /// The whole region set, 5% margin, at `width × height`.
    fn fitted(regions: &RegionSet, width: u32, height: u32) -> Viewport {
        Viewport::fitted(regions.bbox().inflate(regions.bbox().width() * 0.05), width, height)
    }

    /// Rasterize region values through an explicit viewport. Region geometry
    /// is clipped to the visible window first, so a zoomed-in frame costs
    /// only the visible fragments.
    pub fn render_values_viewport(
        &self,
        regions: &RegionSet,
        values: &[Option<f64>],
        legend: &Legend,
        vp: &Viewport,
    ) -> Buffer2D<[u8; 3]> {
        let (width, height) = (vp.width, vp.height);
        let mut img = Buffer2D::new(width, height, self.background);
        // Clip window slightly inflated so boundary strokes at the frame
        // edge still draw.
        let window = vp.world.inflate(vp.units_per_pixel_x() * 2.0);

        // Region fills (visible parts only).
        for (id, _, geom) in regions.iter() {
            let color = match values.get(id as usize).copied().flatten() {
                Some(v) => self.colormap.map_value(v, legend.lo, legend.hi),
                None => self.no_data,
            };
            for poly in geom.polygons() {
                let clipped = match clip_polygon_to_box(poly, &window) {
                    Ok(Some(c)) => c,
                    _ => continue,
                };
                let rings: Vec<Vec<Point>> = clipped
                    .rings()
                    .map(|r| r.vertices().iter().map(|&p| vp.world_to_screen(p)).collect())
                    .collect();
                let refs: Vec<&[Point]> = rings.iter().map(|v| v.as_slice()).collect();
                rasterize_rings(&refs, width, height, |x, y| {
                    img.set(x, y, color);
                });
            }
        }
        // Boundaries on top (original edges, viewport-culled per edge — the
        // clipped outline would draw artificial window-border strokes).
        for (_, _, geom) in regions.iter() {
            if !geom.bbox().intersects(&window) {
                continue;
            }
            for poly in geom.polygons() {
                for e in poly.edges() {
                    if !e.bbox().intersects(&window) {
                        continue;
                    }
                    let a = vp.world_to_screen(e.a);
                    let b = vp.world_to_screen(e.b);
                    traverse_segment(a, b, width, height, |x, y| {
                        img.set(x, y, self.boundary);
                    });
                }
            }
        }
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{fixture, QueryRequest};
    use crate::RasterJoinConfig;
    use urban_data::gen::regions::grid_regions;
    use urban_data::schema::Schema;
    use urban_data::PointTable;
    use urbane_geom::BoundingBox;

    fn setup() -> (PointTable, RegionSet) {
        let mut t = PointTable::new(Schema::empty());
        // Heavy cluster in the lower-left cell, one point upper-right.
        for i in 0..50 {
            t.push(Point::new(5.0 + (i % 7) as f64 * 0.3, 5.0 + (i % 5) as f64 * 0.3), 0, &[])
                .unwrap();
        }
        t.push(Point::new(35.0, 35.0), 0, &[]).unwrap();
        let rs = grid_regions(&BoundingBox::from_coords(0.0, 0.0, 40.0, 40.0), 2, 2);
        (t, rs)
    }

    /// The bounded COUNT over the fixture, answered by a one-level service.
    fn count_answer() -> QueryAnswer {
        let (t, rs) = setup();
        let (service, _) = fixture::service(t, rs, RasterJoinConfig::default());
        service.query(&QueryRequest::count("test", 0)).unwrap()
    }

    #[test]
    fn render_produces_legend_and_values() {
        let view = MapView::with_defaults();
        let img = view.render(&count_answer(), 64, 64);
        assert_eq!(img.values.len(), 4);
        assert_eq!(img.values[0], Some(50.0)); // lower-left cell
        assert_eq!(img.values[3], Some(1.0)); // upper-right cell
        assert_eq!(img.legend.lo, 1.0);
        assert_eq!(img.legend.hi, 50.0);
        assert_eq!(img.image.width(), 64);
        assert!(img.error_bound.unwrap() > 0.0);
    }

    #[test]
    fn zoomed_viewport_shows_only_visible_region() {
        let (_, rs) = setup();
        let view = MapView::with_defaults();
        let values = vec![Some(1.0), Some(2.0), Some(3.0), Some(4.0)];
        let legend = Legend::from_values(&values);
        // Zoom deep into the lower-left cell's interior.
        let vp = Viewport::new(BoundingBox::from_coords(5.0, 5.0, 15.0, 15.0), 64, 64);
        let img = view.render_values_viewport(&rs, &values, &legend, &vp);
        let expected = view.colormap.map_value(1.0, 1.0, 4.0);
        // Every pixel is the lower-left cell's fill (no boundary in view).
        assert!(img.iter_texels().all(|(_, _, c)| c == expected));
    }

    #[test]
    fn panned_viewport_shows_boundary_between_cells() {
        let (_, rs) = setup();
        let view = MapView::with_defaults();
        let values = vec![Some(1.0), Some(2.0), Some(3.0), Some(4.0)];
        let legend = Legend::from_values(&values);
        // Window straddling the vertical boundary at x = 20.
        let vp = Viewport::new(BoundingBox::from_coords(15.0, 5.0, 25.0, 15.0), 64, 64);
        let img = view.render_values_viewport(&rs, &values, &legend, &vp);
        let left = view.colormap.map_value(1.0, 1.0, 4.0);
        let right = view.colormap.map_value(2.0, 1.0, 4.0);
        let colors: std::collections::HashSet<[u8; 3]> =
            img.iter_texels().map(|(_, _, c)| c).collect();
        assert!(colors.contains(&left));
        assert!(colors.contains(&right));
        assert!(colors.contains(&view.boundary), "the shared edge must be stroked");
        assert!(!colors.contains(&view.background), "window is fully inside the city");
    }

    #[test]
    fn hot_region_gets_hot_color() {
        let (_, rs) = setup();
        let view = MapView::with_defaults();
        let out = view.render(&count_answer(), 64, 64);
        // Sample a pixel inside the hot lower-left cell and the cool
        // upper-right cell: their colors must equal the legend extremes.
        let hot_expected = view.colormap.map_value(50.0, 1.0, 50.0);
        let cool_expected = view.colormap.map_value(1.0, 1.0, 50.0);
        // Lower-left world (10,10) and upper-right world (30,30): find their
        // pixels through the same fitted viewport the renderer used.
        let vp = Viewport::fitted(rs.bbox().inflate(rs.bbox().width() * 0.05), 64, 64);
        let (hx, hy) = vp.world_to_pixel(Point::new(10.0, 10.0)).unwrap();
        let (cx, cy) = vp.world_to_pixel(Point::new(30.0, 30.0)).unwrap();
        assert_eq!(out.image.get(hx, hy), hot_expected);
        assert_eq!(out.image.get(cx, cy), cool_expected);
    }

    #[test]
    fn boundaries_are_drawn() {
        let view = MapView::with_defaults();
        let out = view.render(&count_answer(), 64, 64);
        let boundary_pixels = out
            .image
            .iter_texels()
            .filter(|&(_, _, c)| c == view.boundary)
            .count();
        assert!(boundary_pixels > 50, "boundary pixels {boundary_pixels}");
    }

    #[test]
    fn no_data_regions_gray() {
        let (_, rs) = setup();
        let view = MapView::with_defaults();
        let values = vec![Some(1.0), None, None, Some(2.0)];
        let legend = Legend::from_values(&values);
        let vp = MapView::fitted(&rs, 64, 64);
        let img = view.render_values_viewport(&rs, &values, &legend, &vp);
        let grays = img.iter_texels().filter(|&(_, _, c)| c == view.no_data).count();
        assert!(grays > 100, "no-data pixels {grays}");
    }

    #[test]
    fn background_outside_regions() {
        let view = MapView::with_defaults();
        let out = view.render(&count_answer(), 64, 64);
        // The fitted viewport letterboxes: corners lie outside the regions.
        assert_eq!(out.image.get(0, 0), view.background);
    }
}
