//! Region sets — the `R(id, geometry)` relation of the paper's query.
//!
//! A region set bundles named multipolygon geometries at one resolution
//! (boroughs, neighborhoods, zip codes, census-tract grids…). Urbane's
//! resolution switcher just swaps the active region set.

use urbane_geom::{BoundingBox, MultiPolygon, Point, Polygon};

/// Dense region identifier: index into the region set.
pub type RegionId = u32;

/// A named collection of regions at one spatial resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSet {
    name: String,
    names: Vec<String>,
    geoms: Vec<MultiPolygon>,
    bbox: BoundingBox,
}

impl RegionSet {
    /// Build from `(name, geometry)` pairs.
    pub fn new<S: Into<String>>(name: S, regions: Vec<(String, MultiPolygon)>) -> Self {
        let mut names = Vec::with_capacity(regions.len());
        let mut geoms = Vec::with_capacity(regions.len());
        let mut bbox = BoundingBox::empty();
        for (n, g) in regions {
            bbox = bbox.union(&g.bbox());
            names.push(n);
            geoms.push(g);
        }
        RegionSet { name: name.into(), names, geoms, bbox }
    }

    /// Build from bare polygons with generated names `"{prefix}{i}"`.
    pub fn from_polygons<S: Into<String>>(name: S, prefix: &str, polys: Vec<Polygon>) -> Self {
        let regions = polys
            .into_iter()
            .enumerate()
            .map(|(i, p)| (format!("{prefix}{i}"), MultiPolygon::from_polygon(p)))
            .collect();
        Self::new(name, regions)
    }

    /// Resolution-set name ("neighborhoods", "boroughs", …).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of regions.
    #[inline]
    pub fn len(&self) -> usize {
        self.geoms.len()
    }

    /// True when the set has no regions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.geoms.is_empty()
    }

    /// Region name by id.
    #[inline]
    pub fn region_name(&self, id: RegionId) -> &str {
        &self.names[id as usize]
    }

    /// Region geometry by id.
    #[inline]
    pub fn geometry(&self, id: RegionId) -> &MultiPolygon {
        &self.geoms[id as usize]
    }

    /// Iterate `(id, name, geometry)`.
    pub fn iter(&self) -> impl Iterator<Item = (RegionId, &str, &MultiPolygon)> {
        self.geoms
            .iter()
            .enumerate()
            .map(|(i, g)| (i as RegionId, self.names[i].as_str(), g))
    }

    /// Bounding box over all regions.
    #[inline]
    pub fn bbox(&self) -> BoundingBox {
        self.bbox
    }

    /// Total vertex count (polygon-complexity metric for E3).
    pub fn total_vertices(&self) -> usize {
        self.geoms.iter().map(|g| g.vertex_count()).sum()
    }

    /// Exact point-in-region lookup by brute force — ground truth for tests;
    /// returns every region containing `p` (regions may overlap).
    pub fn regions_containing(&self, p: Point) -> Vec<RegionId> {
        self.iter()
            .filter_map(|(id, _, g)| g.contains(p).then_some(id))
            .collect()
    }

    /// Lookup id by region name.
    pub fn id_of(&self, name: &str) -> Option<RegionId> {
        self.names.iter().position(|n| n == name).map(|i| i as RegionId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_squares() -> RegionSet {
        RegionSet::from_polygons(
            "test",
            "r",
            vec![
                Polygon::from_coords(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]).unwrap(),
                Polygon::from_coords(&[(3.0, 0.0), (5.0, 0.0), (5.0, 2.0), (3.0, 2.0)]).unwrap(),
            ],
        )
    }

    #[test]
    fn names_and_lookup() {
        let r = two_squares();
        assert_eq!(r.len(), 2);
        assert_eq!(r.region_name(0), "r0");
        assert_eq!(r.id_of("r1"), Some(1));
        assert_eq!(r.id_of("zzz"), None);
        assert_eq!(r.name(), "test");
    }

    #[test]
    fn bbox_spans_all() {
        let r = two_squares();
        assert_eq!(r.bbox(), BoundingBox::from_coords(0.0, 0.0, 5.0, 2.0));
    }

    #[test]
    fn point_lookup() {
        let r = two_squares();
        assert_eq!(r.regions_containing(Point::new(1.0, 1.0)), vec![0]);
        assert_eq!(r.regions_containing(Point::new(4.0, 1.0)), vec![1]);
        assert!(r.regions_containing(Point::new(2.5, 1.0)).is_empty());
    }

    #[test]
    fn overlapping_regions_both_reported() {
        let r = RegionSet::from_polygons(
            "overlap",
            "r",
            vec![
                Polygon::from_coords(&[(0.0, 0.0), (3.0, 0.0), (3.0, 3.0), (0.0, 3.0)]).unwrap(),
                Polygon::from_coords(&[(1.0, 1.0), (4.0, 1.0), (4.0, 4.0), (1.0, 4.0)]).unwrap(),
            ],
        );
        assert_eq!(r.regions_containing(Point::new(2.0, 2.0)), vec![0, 1]);
    }

    #[test]
    fn vertex_count() {
        assert_eq!(two_squares().total_vertices(), 8);
    }
}
