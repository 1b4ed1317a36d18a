//! Uniform grid index with the *full-cover* shortcut — the index the
//! server's exact mode probes.
//!
//! The extent is cut into `nx × ny` cells; each cell lists the regions
//! whose geometry can intersect it. Two classic refinements are included:
//!
//! * **full cover** — when a cell lies entirely inside exactly one region
//!   (no boundary edge passes through it), points in that cell resolve
//!   without any point-in-polygon test;
//! * **empty cells** — cells no region touches reject points immediately.
//!
//! The cells are stored compactly (CSR): one `u32` offset per cell into a
//! single id array that holds each cell's boundary candidates, then its
//! covers. The offset's top bit marks a cell that exactly one region fully
//! covers. At the served 64×64 a pyramid level costs well under 64 KiB.
//!
//! "No boundary passes through the cell" is decided against the cell
//! inflated by each edge's *reach*: the distance within which the tolerant
//! boundary test of `Polygon::contains` can still call a point "on" that
//! edge. So no point of a full-cover cell is claimed by another region's
//! tolerance, and a probe finished with point-in-polygon tests agrees with
//! [`RegionSet::regions_containing`] exactly, boundary points included.

use crate::{Probe, RegionIndex};
use urban_data::{RegionId, RegionSet};
use urbane_geom::{BoundingBox, Point, Segment, EPSILON};

/// Top bit of a cell offset: the cell's one id fully covers it.
const RESOLVED: u32 = 1 << 31;

/// A uniform grid over a region set's extent.
#[derive(Debug, Clone)]
pub struct GridIndex {
    bbox: BoundingBox,
    nx: u32,
    ny: u32,
    /// `nx·ny + 1` offsets: cell `c` holds `ids[offsets[c]..offsets[c + 1]]`
    /// (top bit masked off). A set top bit on `offsets[c]` means that range
    /// is the one region fully covering the cell.
    offsets: Vec<u32>,
    /// Per cell, the regions whose boundary may cross it (each needs a
    /// point-in-polygon test), then the regions that fully cover it (more
    /// than one only when regions overlap).
    ids: Vec<RegionId>,
}

impl GridIndex {
    /// Build with the given grid dimensions.
    pub fn build(regions: &RegionSet, nx: u32, ny: u32) -> Self {
        assert!(nx > 0 && ny > 0, "grid needs cells");
        // Inflate a hair so boundary points at the extent max still fall in
        // the last cell under half-open arithmetic.
        let bbox = regions.bbox().inflate(regions.bbox().width().max(1.0) * 1e-12 + 1e-12);
        let n_cells = nx as usize * ny as usize;
        let cw = bbox.width() / nx as f64;
        let ch = bbox.height() / ny as f64;
        let cell_box = |gx: u32, gy: u32| {
            BoundingBox::from_coords(
                bbox.min.x + gx as f64 * cw,
                bbox.min.y + gy as f64 * ch,
                bbox.min.x + (gx + 1) as f64 * cw,
                bbox.min.y + (gy + 1) as f64 * ch,
            )
        };
        // The cells a box overlaps, clamped to the grid.
        let cells_of = |b: &BoundingBox| {
            let gx0 = ((b.min.x - bbox.min.x) / cw).floor().max(0.0) as u32;
            let gy0 = ((b.min.y - bbox.min.y) / ch).floor().max(0.0) as u32;
            let gx1 = (((b.max.x - bbox.min.x) / cw).floor() as u32).min(nx - 1);
            let gy1 = (((b.max.y - bbox.min.y) / ch).floor() as u32).min(ny - 1);
            (gy0..=gy1).flat_map(move |gy| (gx0..=gx1).map(move |gx| (gx, gy)))
        };
        // How far from an edge `contains` may still call a point "on" it:
        // the orientation tolerance is EPSILON · max(|e|·|p − a|, 1) on the
        // cross product, i.e. EPSILON · max(|p − a|, 1/|e|) in distance,
        // plus EPSILON·|e| of slack along the edge. Doubled, and padded by
        // the coordinates' magnitude so the probe's cell arithmetic (which
        // rounds differently from `cell_box`) stays inside the margin.
        let diag = bbox.min.distance(bbox.max);
        let coord = [bbox.min.x, bbox.min.y, bbox.max.x, bbox.max.y]
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        let reach = |e: &Segment| {
            let len = e.length();
            let short = if len > EPSILON { 1.0 / len } else { 0.0 };
            2.0 * EPSILON * (1.0 + diag + coord + len + short)
        };

        let mut candidates: Vec<Vec<RegionId>> = vec![Vec::new(); n_cells];
        let mut covers: Vec<Vec<RegionId>> = vec![Vec::new(); n_cells];
        // The last region whose boundary reached each cell: a region whose
        // parts cross one cell twice is listed once.
        let mut crossed = vec![RegionId::MAX; n_cells];
        for (id, _, geom) in regions.iter() {
            for e in geom.polygons().iter().flat_map(|poly| poly.edges()) {
                let r = reach(&e);
                for (gx, gy) in cells_of(&e.bbox().inflate(r)) {
                    let c = (gy * nx + gx) as usize;
                    if crossed[c] != id && e.clip_to_box(&cell_box(gx, gy).inflate(r)).is_some() {
                        crossed[c] = id;
                        candidates[c].push(id);
                    }
                }
            }
            for poly in geom.polygons() {
                for (gx, gy) in cells_of(&poly.bbox()) {
                    let c = (gy * nx + gx) as usize;
                    // No boundary near the cell and the center is inside →
                    // the whole cell is inside this polygon.
                    if crossed[c] != id
                        && covers[c].last() != Some(&id)
                        && poly.contains(cell_box(gx, gy).center())
                    {
                        covers[c].push(id);
                    }
                }
            }
        }

        let mut offsets = Vec::with_capacity(n_cells + 1);
        let mut ids = Vec::new();
        for (cands, covs) in candidates.iter().zip(&covers) {
            let resolved = if cands.is_empty() && covs.len() == 1 { RESOLVED } else { 0 };
            offsets.push(Self::offset(ids.len()) | resolved);
            ids.extend_from_slice(cands);
            ids.extend_from_slice(covs);
        }
        offsets.push(Self::offset(ids.len()));
        ids.shrink_to_fit();
        GridIndex { bbox, nx, ny, offsets, ids }
    }

    fn offset(len: usize) -> u32 {
        assert!(len < RESOLVED as usize, "grid id list overflows its 31-bit offsets");
        len as u32
    }

    /// Build at the served resolution: about 64 cells per region, at least
    /// 64×64 and at most 512×512. Every level of the served pyramid (5, 16
    /// and 64 regions) gets 64×64.
    pub fn build_auto(regions: &RegionSet) -> Self {
        let n = (regions.len().max(1) as f64 * 64.0).sqrt().ceil() as u32;
        let n = n.clamp(64, 512);
        Self::build(regions, n, n)
    }

    /// Grid dimensions.
    pub fn dims(&self) -> (u32, u32) {
        (self.nx, self.ny)
    }

    /// Fraction of cells resolved by the full-cover shortcut (diagnostic).
    pub fn full_cover_fraction(&self) -> f64 {
        let n_cells = self.offsets.len() - 1;
        let covered = self.offsets[..n_cells].iter().filter(|&&o| o & RESOLVED != 0).count();
        covered as f64 / n_cells as f64
    }

    fn cell_of(&self, p: Point) -> Option<usize> {
        if !self.bbox.contains(p) {
            return None;
        }
        let gx = (((p.x - self.bbox.min.x) / self.bbox.width()) * self.nx as f64) as u32;
        let gy = (((p.y - self.bbox.min.y) / self.bbox.height()) * self.ny as f64) as u32;
        let gx = gx.min(self.nx - 1);
        let gy = gy.min(self.ny - 1);
        Some((gy * self.nx + gx) as usize)
    }
}

impl RegionIndex for GridIndex {
    fn probe_into(&self, p: Point, out: &mut Vec<RegionId>) -> Probe {
        out.clear();
        let Some(c) = self.cell_of(p) else {
            return Probe::Empty;
        };
        let lo = self.offsets[c];
        let hi = self.offsets[c + 1] & !RESOLVED;
        let ids = &self.ids[(lo & !RESOLVED) as usize..hi as usize];
        match ids {
            [] => Probe::Empty,
            [only] if lo & RESOLVED != 0 => Probe::Resolved(*only),
            // Boundary candidates, plus any full covers: certain hits,
            // reported as candidates so the executor handles them uniformly.
            _ => {
                out.extend_from_slice(ids);
                Probe::Candidates
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.ids.capacity() * std::mem::size_of::<RegionId>()
    }

    fn name(&self) -> &'static str {
        "grid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use urban_data::gen::city::CityModel;
    use urban_data::gen::regions::{grid_regions, resolution_pyramid, voronoi_neighborhoods};
    use urbane_geom::{MultiPolygon, Polygon};

    fn brute_force(rs: &RegionSet, p: Point) -> Vec<RegionId> {
        rs.regions_containing(p)
    }

    /// The regions the index says hold `p`: the probe, finished with the
    /// executor's point-in-polygon test on the candidates.
    fn joined(idx: &GridIndex, rs: &RegionSet, p: Point) -> Vec<RegionId> {
        let mut scratch = Vec::new();
        match idx.probe_into(p, &mut scratch) {
            Probe::Empty => Vec::new(),
            Probe::Resolved(id) => vec![id],
            Probe::Candidates => {
                let mut hit: Vec<RegionId> =
                    scratch.into_iter().filter(|&id| rs.geometry(id).contains(p)).collect();
                hit.sort_unstable();
                hit
            }
        }
    }

    #[test]
    fn served_pyramid_agrees_on_cell_edges_corners_and_vertices() {
        let city = CityModel::nyc_like();
        for rs in resolution_pyramid(&city.bbox(), 16, 8, 5) {
            let idx = GridIndex::build_auto(&rs);
            assert_eq!(idx.dims(), (64, 64), "{}", rs.name());
            assert!(
                idx.memory_bytes() <= 64 * 1024,
                "{}: {} B",
                rs.name(),
                idx.memory_bytes()
            );
            let (nx, ny) = idx.dims();
            let cw = idx.bbox.width() / nx as f64;
            let ch = idx.bbox.height() / ny as f64;
            let mut probes = Vec::new();
            for gy in 0..=ny {
                for gx in 0..=nx {
                    let corner =
                        Point::new(idx.bbox.min.x + gx as f64 * cw, idx.bbox.min.y + gy as f64 * ch);
                    probes.push(corner);
                    probes.push(Point::new(corner.x + 0.5 * cw, corner.y));
                    probes.push(Point::new(corner.x, corner.y + 0.5 * ch));
                }
            }
            for (_, _, geom) in rs.iter() {
                for e in geom.polygons().iter().flat_map(|poly| poly.edges()) {
                    probes.push(e.a);
                    probes.push(e.midpoint());
                }
            }
            for p in probes {
                assert_eq!(joined(&idx, &rs, p), brute_force(&rs, p), "{} at {p}", rs.name());
            }
        }
    }

    #[test]
    fn a_region_crossing_a_cell_twice_is_listed_once() {
        // Two parts of one region, both crossing the 1×1 grid's only cell.
        let square = |x0: f64| {
            Polygon::from_coords(&[(x0, 0.0), (x0 + 1.0, 0.0), (x0 + 1.0, 1.0), (x0, 1.0)]).unwrap()
        };
        let two_parts = MultiPolygon::new(vec![square(0.0), square(2.0)]);
        let rs = RegionSet::new("parts", vec![("a".to_string(), two_parts)]);
        let idx = GridIndex::build(&rs, 1, 1);
        let mut scratch = Vec::new();
        assert_eq!(idx.probe_into(Point::new(0.5, 0.5), &mut scratch), Probe::Candidates);
        assert_eq!(scratch, vec![0]);
    }

    #[test]
    fn probe_is_sound_over_voronoi() {
        let bbox = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let rs = voronoi_neighborhoods(&bbox, 40, 11, 2);
        let idx = GridIndex::build(&rs, 32, 32);
        let mut rng = StdRng::seed_from_u64(2);
        let mut scratch = Vec::new();
        for _ in 0..1_000 {
            let p = Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0);
            let truth = brute_force(&rs, p);
            match idx.probe_into(p, &mut scratch) {
                Probe::Resolved(id) => {
                    assert!(truth.contains(&id), "resolved {id} not in truth {truth:?} at {p}");
                }
                Probe::Candidates => {
                    for t in &truth {
                        assert!(
                            scratch.contains(t),
                            "true region {t} missing from candidates {scratch:?} at {p}"
                        );
                    }
                }
                Probe::Empty => {
                    assert!(truth.is_empty(), "probe said empty but truth {truth:?} at {p}");
                }
            }
        }
    }

    #[test]
    fn full_cover_shortcut_triggers() {
        let bbox = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        // 2x2 big regions, 64x64 grid → the vast majority of cells interior.
        let rs = grid_regions(&bbox, 2, 2);
        let idx = GridIndex::build(&rs, 64, 64);
        assert!(
            idx.full_cover_fraction() > 0.8,
            "cover fraction {}",
            idx.full_cover_fraction()
        );
        let mut scratch = Vec::new();
        assert_eq!(
            idx.probe_into(Point::new(10.0, 10.0), &mut scratch),
            Probe::Resolved(0)
        );
    }

    #[test]
    fn outside_extent_is_empty() {
        let bbox = BoundingBox::from_coords(0.0, 0.0, 10.0, 10.0);
        let rs = grid_regions(&bbox, 2, 2);
        let idx = GridIndex::build_auto(&rs);
        let mut scratch = Vec::new();
        assert_eq!(idx.probe_into(Point::new(-5.0, 5.0), &mut scratch), Probe::Empty);
        assert_eq!(idx.probe_into(Point::new(500.0, 5.0), &mut scratch), Probe::Empty);
    }

    #[test]
    fn auto_resolution_scales() {
        let bbox = BoundingBox::from_coords(0.0, 0.0, 10.0, 10.0);
        let small = GridIndex::build_auto(&grid_regions(&bbox, 2, 2));
        let large = GridIndex::build_auto(&grid_regions(&bbox, 20, 20));
        assert!(large.dims().0 > small.dims().0);
        assert!(small.memory_bytes() > 0);
        assert_eq!(small.name(), "grid");
    }

    #[test]
    fn extent_max_point_still_resolves() {
        let bbox = BoundingBox::from_coords(0.0, 0.0, 10.0, 10.0);
        let rs = grid_regions(&bbox, 2, 2);
        let idx = GridIndex::build(&rs, 8, 8);
        let mut scratch = Vec::new();
        // The exact max corner belongs to region 3 (top-right cell).
        let probe = idx.probe_into(Point::new(10.0, 10.0), &mut scratch);
        match probe {
            Probe::Resolved(id) => assert_eq!(id, 3),
            Probe::Candidates => assert!(scratch.contains(&3)),
            Probe::Empty => panic!("max corner must not be lost"),
        }
    }
}
