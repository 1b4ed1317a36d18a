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
//!
//! **Cell-local point-in-polygon.** A boundary candidate is not tested
//! against its whole polygon. For each (cell, candidate) the build keeps a
//! record that lists, per ring (exterior and holes of every part), only the
//! edges that can decide a point of the cell, with the cell inflated by the
//! edge's reach:
//!
//! * the edges within reach of the cell, whose `point_on_segment` test can
//!   come out true (flag `ON`);
//! * the edges that meet the cell's row band and are not entirely left of
//!   it, whose crossing of a point's +x ray depends on the point (`RAY`);
//! * one parity bit for the edges that cross every such ray: they span the
//!   band and lie entirely right of the cell.
//!
//! `on_boundary` is an `any` and the even–odd rule an XOR, so the kept edges
//! plus the bit give the booleans `contains` computes from all of them, as
//! long as every edge left out is decided the same way for every point the
//! probe puts in the cell. Those points lie in the cell's box up to the
//! rounding of `cell_of`, which the reach covers many times over. So the
//! tests that leave an edge out are strict against the inflated cell: an
//! edge strictly outside the band (`max y < y0 − r` or `min y > y1 + r`) or
//! strictly left (`max x < x0 − r`) never crosses a ray; one strictly
//! across the band (`min y < y0 − r`, `max y > y1 + r`) and strictly right
//! (`min x > x1 + r`) always does, since the float crossing abscissa stays
//! within rounding of the edge's x-range. Kept edges run the same float
//! expressions on the same vertex order as `Ring::on_boundary` and
//! `Ring::contains_interior_even_odd`, and `Polygon::contains`'s bounding
//! box tests and rule order for holes are kept, so the answer is the same
//! boolean, not just the same in exact arithmetic. Records store edge
//! indices, not coordinates, and identical records (neighbouring cells
//! along one edge) are stored once: the served pyramid's three levels add
//! about 13 KB.
//!
//! Because a cell's entries hold over the whole slack around its box, the
//! join ([`RegionIndex::join_rows`]) may answer a point from any cell whose
//! box holds it: it keeps the last row's cell while rows stay inside that
//! cell's box, and calls `cell_of` only when one leaves it. By the same
//! argument a kept ray edge whose x-range a point clears by more than the
//! smallest reach is decided without the division of the crossing
//! abscissa. `grid::tests` check every cell's entries at the corners and
//! sides of its box and of the box grown by half that reach.

use crate::{Probe, RegionIndex};
use std::collections::HashMap;
use urban_data::{RegionId, RegionSet};
use urbane_geom::predicates::point_on_segment;
use urbane_geom::{BoundingBox, MultiPolygon, Point, Polygon, Segment, EPSILON};

/// Top bit of a cell offset: the cell's one id fully covers it.
const RESOLVED: u32 = 1 << 31;

/// Top bit of an `ids` entry: a boundary candidate, whose other bits are the
/// position of its cell-local record in `local`. Without it the entry is
/// the id of a region that covers the cell.
const LOCAL: u32 = 1 << 31;

/// Edge-word flag: the edge comes within reach of the cell, so a point of
/// the cell may lie on it.
const ON: u32 = 1;

/// Edge-word flag: whether the edge crosses the +x ray of a point of the
/// cell depends on the point.
const RAY: u32 = 2;

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
    /// point-in-polygon test; the entry carries [`LOCAL`] and points at its
    /// record in `local`), then the ids of the regions that fully cover it
    /// (more than one only when regions overlap).
    ids: Vec<u32>,
    /// One record per (cell, boundary candidate): the region's id, then for
    /// every part and every ring of the part (exterior first, then holes) a
    /// header `n << 1 | parity` and `n` edge words `edge << 2 | RAY | ON`,
    /// `edge` being the index of the edge's first vertex in the ring.
    local: Vec<u32>,
    /// The reach of a zero-length edge, the smallest there is: a margin
    /// far wider than the rounding of any coordinate in the grid.
    slack: f64,
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
        let cell_box = |gx: u32, gy: u32| cell_box(&bbox, nx, ny, gx, gy);
        // The cells a box overlaps, clamped to the grid.
        let cells_of = |b: &BoundingBox| {
            let gx0 = ((b.min.x - bbox.min.x) / cw).floor().max(0.0) as u32;
            let gy0 = ((b.min.y - bbox.min.y) / ch).floor().max(0.0) as u32;
            let gx1 = (((b.max.x - bbox.min.x) / cw).floor() as u32).min(nx - 1);
            let gy1 = (((b.max.y - bbox.min.y) / ch).floor() as u32).min(ny - 1);
            (gy0..=gy1).flat_map(move |gy| (gx0..=gx1).map(move |gx| (gx, gy)))
        };
        let reach = |e: &Segment| reach(&bbox, e);

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

        assert!(regions.len() <= LOCAL as usize, "grid region ids overflow 31 bits");
        let mut offsets = Vec::with_capacity(n_cells + 1);
        let mut ids = Vec::new();
        let mut local = Vec::new();
        // Neighbouring cells along an edge often get the same record: each
        // distinct record is stored once.
        let mut stored: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut record = Vec::new();
        for (c, (cands, covs)) in candidates.iter().zip(&covers).enumerate() {
            let resolved = if cands.is_empty() && covs.len() == 1 { RESOLVED } else { 0 };
            offsets.push(Self::offset(ids.len()) | resolved);
            let cell = cell_box(c as u32 % nx, c as u32 / nx);
            for &id in cands {
                record.clear();
                push_record(&mut record, id, regions.geometry(id), &cell, reach);
                let at = match stored.get(&record) {
                    Some(&at) => at,
                    None => {
                        let at = Self::offset(local.len());
                        local.extend_from_slice(&record);
                        stored.insert(record.clone(), at);
                        at
                    }
                };
                ids.push(LOCAL | at);
            }
            ids.extend_from_slice(covs);
        }
        offsets.push(Self::offset(ids.len()));
        ids.shrink_to_fit();
        local.shrink_to_fit();
        let slack = reach(&Segment::new(bbox.min, bbox.min));
        GridIndex { bbox, nx, ny, offsets, ids, local, slack }
    }

    fn offset(len: usize) -> u32 {
        assert!(len < RESOLVED as usize, "grid id list overflows its 31-bit offsets");
        len as u32
    }

    /// The region an `ids` entry names.
    fn region_of(&self, entry: u32) -> RegionId {
        if entry & LOCAL == 0 {
            entry
        } else {
            self.local[(entry & !LOCAL) as usize]
        }
    }

    /// Cell `c`'s `ids` entries.
    #[inline]
    fn entries(&self, c: usize) -> &[u32] {
        let lo = (self.offsets[c] & !RESOLVED) as usize;
        let hi = (self.offsets[c + 1] & !RESOLVED) as usize;
        &self.ids[lo..hi]
    }

    /// Credit every region that holds `p` from one cell's `entries` alone:
    /// covers as they are read, candidates from their cell-local records.
    /// Exact for any `p` within the reach slack of the cell's box, so for
    /// every point `cell_of` puts in the cell.
    #[inline]
    fn cell_join(
        &self,
        entries: &[u32],
        regions: &RegionSet,
        p: Point,
        mut credit: impl FnMut(RegionId),
    ) {
        for &entry in entries {
            if entry & LOCAL == 0 {
                credit(entry);
            } else if let Some(id) = self.contains_local(regions, (entry & !LOCAL) as usize, p) {
                credit(id);
            }
        }
    }

    /// `regions.geometry(id).contains(p)` for the candidate whose record
    /// starts at `at`, from the record's edges of `p`'s cell only.
    #[inline]
    fn contains_local(&self, regions: &RegionSet, at: usize, p: Point) -> Option<RegionId> {
        let id = self.local[at];
        let geom = regions.geometry(id);
        if !geom.bbox().contains(p) {
            return None;
        }
        let mut at = at + 1;
        for poly in geom.polygons() {
            let part = at;
            for _ in 0..=poly.holes().len() {
                at += 1 + (self.local[at] >> 1) as usize;
            }
            let words = &self.local[part..at];
            if poly.bbox().contains(p) && polygon_contains(poly, words, p, self.slack) {
                return Some(id);
            }
        }
        None
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
        let ids = self.entries(c);
        match ids {
            [] => Probe::Empty,
            [only] if self.offsets[c] & RESOLVED != 0 => Probe::Resolved(*only),
            // Boundary candidates, plus any full covers: certain hits,
            // reported as candidates so the executor handles them uniformly.
            _ => {
                out.extend(ids.iter().map(|&e| self.region_of(e)));
                Probe::Candidates
            }
        }
    }

    /// The probe and the point-in-polygon test in one pass over the cell's
    /// entries, read in place: a cover is credited as it is read, a
    /// candidate is decided from its cell-local record. Credits exactly the
    /// regions the provided body would, row by row.
    fn join_rows<T: Copy>(
        &self,
        regions: &RegionSet,
        rows: impl IntoIterator<Item = (Point, T)>,
        mut credit: impl FnMut(RegionId, T),
    ) {
        // The last row's cell box and entries. A Hilbert-clustered zone's
        // rows mostly stay in one cell, and a cell's entries answer every
        // point of its box (they hold over the reach slack around it), so a
        // row inside the box skips `cell_of`'s two divisions.
        let mut last: Option<(BoundingBox, &[u32])> = None;
        // lint: allow(cancel-poll-reachability) one zone's rows; its callers poll once per zone in `ZoneWalk::run`
        for (p, t) in rows {
            let entries = match last {
                Some((cell, entries)) if cell.contains(p) => entries,
                _ => {
                    let Some(c) = self.cell_of(p) else {
                        continue;
                    };
                    let (gx, gy) = (c as u32 % self.nx, c as u32 / self.nx);
                    let entries = self.entries(c);
                    last = Some((cell_box(&self.bbox, self.nx, self.ny, gx, gy), entries));
                    entries
                }
            };
            self.cell_join(entries, regions, p, |id| credit(id, t));
        }
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.ids.capacity() * std::mem::size_of::<u32>()
            + self.local.capacity() * std::mem::size_of::<u32>()
    }

    fn name(&self) -> &'static str {
        "grid"
    }
}

/// Cell `(gx, gy)` of an `nx × ny` grid over `bbox`: the box the build
/// decides the cell's entries against.
fn cell_box(bbox: &BoundingBox, nx: u32, ny: u32, gx: u32, gy: u32) -> BoundingBox {
    let cw = bbox.width() / nx as f64;
    let ch = bbox.height() / ny as f64;
    BoundingBox::from_coords(
        bbox.min.x + gx as f64 * cw,
        bbox.min.y + gy as f64 * ch,
        bbox.min.x + (gx + 1) as f64 * cw,
        bbox.min.y + (gy + 1) as f64 * ch,
    )
}

/// How far from edge `e` of a grid over `extent` the build looks: the
/// distance within which `contains` may still call a point "on" the edge.
/// The orientation tolerance is EPSILON · max(|e|·|p − a|, 1) on the cross
/// product, i.e. EPSILON · max(|p − a|, 1/|e|) in distance, plus EPSILON·|e|
/// of slack along the edge. Doubled, and padded by the coordinates'
/// magnitude so the probe's cell arithmetic (which rounds differently from
/// `cell_box`) stays inside the margin.
fn reach(extent: &BoundingBox, e: &Segment) -> f64 {
    let diag = extent.min.distance(extent.max);
    let coord = [extent.min.x, extent.min.y, extent.max.x, extent.max.y]
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()));
    let len = e.length();
    let short = if len > EPSILON { 1.0 / len } else { 0.0 };
    2.0 * EPSILON * (1.0 + diag + coord + len + short)
}

/// Append the cell-local record of region `id` for the cell `cell`: per
/// ring, the edges that can decide a point of the cell, and the parity of
/// the edges that cross every such point's +x ray. `reach` is the build's.
fn push_record(
    local: &mut Vec<u32>,
    id: RegionId,
    geom: &MultiPolygon,
    cell: &BoundingBox,
    reach: impl Fn(&Segment) -> f64,
) {
    local.push(id);
    for ring in geom.polygons().iter().flat_map(|poly| poly.rings()) {
        let head = local.len();
        local.push(0);
        let mut parity = 0;
        for (k, e) in ring.edges().enumerate() {
            let b = cell.inflate(reach(&e));
            let on = e.clip_to_box(&b).is_some();
            let (lo_y, hi_y) = (e.a.y.min(e.b.y), e.a.y.max(e.b.y));
            // Strictly outside the inflated row band, or strictly left of
            // the inflated cell: never crosses the ray.
            let never = hi_y < b.min.y || lo_y > b.max.y || e.a.x.max(e.b.x) < b.min.x;
            // Strictly across the band and strictly right of the cell:
            // always crosses it.
            let always = lo_y < b.min.y && hi_y > b.max.y && e.a.x.min(e.b.x) > b.max.x;
            parity ^= always as u32;
            let ray = !never && !always;
            if on || ray {
                assert!(k < 1 << 30, "ring has more edges than a grid record can index");
                local.push((k as u32) << 2 | (ray as u32) << 1 | on as u32);
            }
        }
        local[head] = ((local.len() - head - 1) as u32) << 1 | parity;
    }
}

/// `Polygon::contains(p)` after its bounding-box test, from one part's
/// cell-local ring records (`words`), in the same rule order: outside the
/// exterior is out; then the first hole that holds `p` on its boundary
/// lets it in, and one that holds it inside keeps it out.
///
/// `Ring::contains` is `on_boundary || even_odd`, two pure booleans, so the
/// exterior runs its cheap crossings first and its `point_on_segment` tests
/// (two square roots each) only for a point the crossings leave outside.
#[inline]
fn polygon_contains(poly: &Polygon, words: &[u32], p: Point, slack: f64) -> bool {
    let mut at = 0;
    let ring = ring_edges(words, &mut at);
    let v = poly.exterior().vertices();
    if !(inside(v, ring, p, slack) || on_boundary(v, ring, p)) {
        return false;
    }
    for hole in poly.holes() {
        let ring = ring_edges(words, &mut at);
        let v = hole.vertices();
        if on_boundary(v, ring, p) {
            return true;
        }
        if inside(v, ring, p, slack) {
            return false;
        }
    }
    true
}

/// The ring record at `words[*at..]` (advanced past it): its header, whose
/// low bit is the parity of the crossings left out, then its edge words.
#[inline]
fn ring_edges<'a>(words: &'a [u32], at: &mut usize) -> &'a [u32] {
    let n = (words[*at] >> 1) as usize;
    let ring = &words[*at..*at + 1 + n];
    *at += 1 + n;
    ring
}

/// The ends of the ring edge an edge word names, in `Ring::edges` order.
#[inline]
fn edge_of(v: &[Point], w: u32) -> (Point, Point) {
    let k = (w >> 2) as usize;
    (v[k], v[if k + 1 == v.len() { 0 } else { k + 1 }])
}

/// `Ring::contains_interior_even_odd` from a ring record: the parity bit,
/// flipped by each `RAY` edge with the same crossing test on the same
/// vertex order. The crossing abscissa is within rounding of the edge's
/// x-range, so a point more than `slack` clear of that range is decided
/// without computing it, as the build decides the parity bit.
#[inline]
fn inside(v: &[Point], ring: &[u32], p: Point, slack: f64) -> bool {
    let Some((&head, edges)) = ring.split_first() else {
        return false;
    };
    let mut inside = head & 1 != 0;
    for &w in edges.iter().filter(|&&w| w & RAY != 0) {
        let (vj, vi) = edge_of(v, w);
        if (vi.y > p.y) != (vj.y > p.y) {
            inside ^= if p.x < vj.x.min(vi.x) - slack {
                true
            } else if p.x > vj.x.max(vi.x) + slack {
                false
            } else {
                let x_cross = vj.x + (p.y - vj.y) / (vi.y - vj.y) * (vi.x - vj.x);
                p.x < x_cross
            };
        }
    }
    inside
}

/// `Ring::on_boundary` from a ring record: `point_on_segment` on its `ON`
/// edges.
#[inline]
fn on_boundary(v: &[Point], ring: &[u32], p: Point) -> bool {
    ring.iter().skip(1).filter(|&&w| w & ON != 0).any(|&w| {
        let (a, b) = edge_of(v, w);
        point_on_segment(p, a, b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use urban_data::gen::city::CityModel;
    use urban_data::gen::regions::{
        grid_regions, resolution_pyramid, star_regions, voronoi_neighborhoods,
    };
    use urbane_geom::Ring;

    fn brute_force(rs: &RegionSet, p: Point) -> Vec<RegionId> {
        rs.regions_containing(p)
    }

    /// The regions the probe, finished with `MultiPolygon::contains` on the
    /// candidates, says hold `p` (the provided `join_rows` body).
    fn probed(idx: &GridIndex, rs: &RegionSet, p: Point) -> Vec<RegionId> {
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

    /// The points the cell-local join is checked at: every cell corner and
    /// cell-edge midpoint; every polygon vertex and edge midpoint; each
    /// corner and vertex again one and two ulps off in x and y; the middle
    /// of each edge's piece in each cell it crosses, and that point moved
    /// off the edge to either side by half the distance within which
    /// `contains` still calls it on the edge; and `n_random` seeded points
    /// over the grid's extent and a little beyond.
    fn agreement_points(idx: &GridIndex, rs: &RegionSet, n_random: usize) -> Vec<Point> {
        let (nx, ny) = idx.dims();
        let cw = idx.bbox.width() / nx as f64;
        let ch = idx.bbox.height() / ny as f64;
        let mut exact = Vec::new();
        let mut points = Vec::new();
        for gy in 0..=ny {
            for gx in 0..=nx {
                let corner =
                    Point::new(idx.bbox.min.x + gx as f64 * cw, idx.bbox.min.y + gy as f64 * ch);
                exact.push(corner);
                points.push(Point::new(corner.x + 0.5 * cw, corner.y));
                points.push(Point::new(corner.x, corner.y + 0.5 * ch));
            }
        }
        for (_, _, geom) in rs.iter() {
            for e in geom.polygons().iter().flat_map(|poly| poly.edges()) {
                exact.push(e.a);
                points.push(e.midpoint());
                let len = e.length();
                if len <= EPSILON {
                    continue;
                }
                let normal = Point::new(e.a.y - e.b.y, e.b.x - e.a.x) / len;
                for gy in 0..ny {
                    for gx in 0..nx {
                        if let Some(piece) = e.clip_to_box(&cell_box(&idx.bbox, nx, ny, gx, gy)) {
                            let m = piece.midpoint();
                            let off = 0.5 * EPSILON * m.distance(e.a).max(1.0 / len);
                            points.extend([m, m + normal * off, m - normal * off]);
                        }
                    }
                }
            }
        }
        let near = |v: f64| {
            [v, v.next_up(), v.next_up().next_up(), v.next_down(), v.next_down().next_down()]
        };
        for &p in &exact {
            points.extend(near(p.x).into_iter().flat_map(|x| near(p.y).map(|y| Point::new(x, y))));
        }
        let outer = idx.bbox.inflate(0.02 * idx.bbox.width().max(idx.bbox.height()));
        let mut rng = StdRng::seed_from_u64(38);
        points.extend((0..n_random).map(|_| {
            Point::new(
                outer.min.x + rng.gen::<f64>() * outer.width(),
                outer.min.y + rng.gen::<f64>() * outer.height(),
            )
        }));
        points
    }

    /// Both join bodies over `idx` equal `regions_containing` at every point.
    /// The points go through `join_rows` as one batch, so its cell changes
    /// from row to row as a zone's would.
    fn assert_agrees(idx: &GridIndex, rs: &RegionSet, points: &[Point]) {
        let mut local: Vec<Vec<RegionId>> = vec![Vec::new(); points.len()];
        let rows = points.iter().enumerate().map(|(i, &p)| (p, i));
        idx.join_rows(rs, rows, |id, i| local[i].push(id));
        for (&p, mut hit) in points.iter().zip(local) {
            hit.sort_unstable();
            let truth = brute_force(rs, p);
            let (nx, ny) = idx.dims();
            assert_eq!(hit, truth, "{} at {nx}×{ny}: cell-local join at {p:?}", rs.name());
            assert_eq!(probed(idx, rs, p), truth, "{} at {nx}×{ny}: probe at {p:?}", rs.name());
        }
    }

    /// Bytes of the cell-local records.
    fn local_bytes(idx: &GridIndex) -> usize {
        idx.local.capacity() * std::mem::size_of::<u32>()
    }

    #[test]
    fn served_pyramid_agrees_on_cell_edges_corners_and_vertices() {
        let city = CityModel::nyc_like();
        for rs in resolution_pyramid(&city.bbox(), 16, 8, 5) {
            let idx = GridIndex::build_auto(&rs);
            assert_eq!(idx.dims(), (64, 64), "{}", rs.name());
            let csr = idx.memory_bytes() - local_bytes(&idx);
            assert!(csr <= 64 * 1024, "{}: CSR {csr} B", rs.name());
            assert!(
                local_bytes(&idx) <= 48 * 1024,
                "{}: cell-local records {} B",
                rs.name(),
                local_bytes(&idx)
            );
            assert_agrees(&idx, &rs, &agreement_points(&idx, &rs, 20_000));
        }
    }

    /// The slack the records are built to: any point within it of a cell's
    /// box gets the cell's answer right, whichever way `cell_of` rounds.
    /// Checked at the corners and side midpoints of the box, of the box
    /// grown by half the smallest reach, and at seeded points of the grown
    /// box, with every cell's entries, covers and empty cells included.
    fn assert_holds_over_slack(idx: &GridIndex, rs: &RegionSet) {
        let slack = 0.5 * idx.slack;
        let mut rng = StdRng::seed_from_u64(5);
        for gy in 0..idx.ny {
            for gx in 0..idx.nx {
                let cell = cell_box(&idx.bbox, idx.nx, idx.ny, gx, gy);
                let grown = cell.inflate(slack);
                let mut points = Vec::new();
                for b in [cell, grown] {
                    let mid = b.center();
                    points.extend(b.corners());
                    points.extend([
                        Point::new(mid.x, b.min.y),
                        Point::new(mid.x, b.max.y),
                        Point::new(b.min.x, mid.y),
                        Point::new(b.max.x, mid.y),
                    ]);
                }
                points.extend((0..4).map(|_| {
                    Point::new(
                        grown.min.x + rng.gen::<f64>() * grown.width(),
                        grown.min.y + rng.gen::<f64>() * grown.height(),
                    )
                }));
                let c = (gy * idx.nx + gx) as usize;
                for p in points {
                    let mut hit = Vec::new();
                    idx.cell_join(idx.entries(c), rs, p, |id| hit.push(id));
                    hit.sort_unstable();
                    assert_eq!(hit, brute_force(rs, p), "{} cell ({gx}, {gy}) at {p:?}", rs.name());
                }
            }
        }
    }

    #[test]
    fn cell_records_hold_over_the_reach_slack() {
        let city = CityModel::nyc_like();
        for rs in resolution_pyramid(&city.bbox(), 16, 8, 5) {
            assert_holds_over_slack(&GridIndex::build_auto(&rs), &rs);
        }
        for (nx, ny) in [(1, 1), (7, 5), (64, 64)] {
            let rs = shapes(nx, ny);
            assert_holds_over_slack(&GridIndex::build(&rs, nx, ny), &rs);
        }
    }

    /// The shapes the served pyramid lacks, over an extent of 70 × 50: a
    /// square with a square hole (the extent itself), a two-part region
    /// whose parts share cells, overlapping stars, an L whose edges lie on
    /// the lines of an `nx × ny` grid, and a quadrilateral with a
    /// sub-`EPSILON` edge.
    fn shapes(nx: u32, ny: u32) -> RegionSet {
        let square = |x0: f64, y0: f64, x1: f64, y1: f64| {
            Ring::new(vec![
                Point::new(x0, y0),
                Point::new(x1, y0),
                Point::new(x1, y1),
                Point::new(x0, y1),
            ])
            .unwrap()
        };
        let holed =
            Polygon::with_holes(square(0.0, 0.0, 70.0, 50.0), vec![square(20.0, 10.0, 45.0, 35.0)])
                .unwrap();
        let mut regions = vec![("holed".to_string(), MultiPolygon::from_polygon(holed.clone()))];
        // The grid over the extent alone, to put edges on its lines: every
        // other shape lies inside the extent, so the grid stays the same.
        let frame = RegionSet::new("frame", regions.clone());
        let grid = GridIndex::build(&frame, nx, ny).bbox;
        let line_x = |k: u32| grid.min.x + k as f64 * (grid.width() / nx as f64);
        let line_y = |k: u32| grid.min.y + k as f64 * (grid.height() / ny as f64);
        // An L: its notch puts points inside its box but outside it just
        // past a grid line.
        let [x0, x1, x2, y0, y1, y2] = if nx >= 4 && ny >= 4 {
            let (xs, ys) = ([nx / 4, nx / 2, 3 * nx / 4], [ny / 4, ny / 2, 3 * ny / 4]);
            let [x0, x1, x2] = xs.map(line_x);
            let [y0, y1, y2] = ys.map(line_y);
            [x0, x1, x2, y0, y1, y2]
        } else {
            [17.5, 35.0, 52.5, 12.5, 25.0, 37.5]
        };
        let l_shape =
            Polygon::from_coords(&[(x0, y0), (x2, y0), (x2, y1), (x1, y1), (x1, y2), (x0, y2)])
                .unwrap();
        regions.push(("on_lines".into(), MultiPolygon::from_polygon(l_shape)));
        let parts = vec![
            Polygon::new(square(21.0, 11.0, 24.0, 14.0)),
            Polygon::new(square(24.5, 11.0, 27.0, 14.0)),
        ];
        regions.push(("two_parts".into(), MultiPolygon::new(parts)));
        let sliver =
            Polygon::from_coords(&[(50.0, 5.0), (60.0, 5.0), (60.0, 5.0 + 5e-10), (55.0, 12.0)])
                .unwrap();
        regions.push(("sub_epsilon".into(), MultiPolygon::from_polygon(sliver)));
        let stars = star_regions(&BoundingBox::from_coords(12.0, 12.0, 58.0, 38.0), 6, 8, 3);
        regions.extend(stars.iter().map(|(_, name, g)| (name.to_string(), g.clone())));
        RegionSet::new(format!("shapes_{nx}x{ny}"), regions)
    }

    #[test]
    fn cell_local_join_agrees_on_holes_parts_overlaps_grid_lines_and_slivers() {
        for (nx, ny) in [(1, 1), (7, 5), (64, 64)] {
            let rs = shapes(nx, ny);
            assert_eq!(rs.bbox(), BoundingBox::from_coords(0.0, 0.0, 70.0, 50.0));
            let idx = GridIndex::build(&rs, nx, ny);
            assert_agrees(&idx, &rs, &agreement_points(&idx, &rs, 20_000));
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
