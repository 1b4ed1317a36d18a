//! The R-tree baseline: a flattened packed R-tree (FlatGeobuf-style
//! level-bounds layout) and [`PackedRegionIndex`], the point-probe index the
//! exact join runs on.
//!
//! The tree is one flat array of bounding boxes, root level first. Leaves
//! are the item boxes in the order given; each upper level is built
//! bottom-up by grouping `node_size` consecutive children, so navigation
//! needs no pointers: the children of node `j` at level `k` are nodes
//! `j*node_size .. (j+1)*node_size` of level `k+1`.
//!
//! [`PackedRegionIndex`] hands the tree its regions' bounding boxes in
//! region-id order, so leaf item `i` is region `i` and a box search returns
//! candidate region ids directly.

use crate::{Probe, RegionIndex};
use urban_data::{RegionId, RegionSet};
use urbane_geom::{BoundingBox, Point};

/// Fan-out of the region index. 16 children per node keeps the tree ≤3
/// levels for a thousand regions and ≤5 for a million.
const NODE_SIZE: usize = 16;

/// A packed R-tree over `num_items` leaf bounding boxes.
#[derive(Debug, Clone)]
struct PackedRTree {
    node_size: usize,
    num_items: usize,
    /// Nodes per level, root level first; empty for an empty tree.
    level_len: Vec<usize>,
    /// Start of each level within `boxes`.
    level_off: Vec<usize>,
    /// All node boxes, levels concatenated root-first.
    boxes: Vec<BoundingBox>,
}

impl PackedRTree {
    /// Build bottom-up over `items` (leaf boxes in final storage order).
    fn build(items: &[BoundingBox], node_size: usize) -> Self {
        let node_size = node_size.max(2);
        if items.is_empty() {
            return PackedRTree {
                node_size,
                num_items: 0,
                level_len: Vec::new(),
                level_off: Vec::new(),
                boxes: Vec::new(),
            };
        }
        let mut levels: Vec<Vec<BoundingBox>> = vec![items.to_vec()];
        while levels.last().is_some_and(|l| l.len() > 1) {
            let prev = levels.last().map(Vec::as_slice).unwrap_or(&[]);
            let mut parents = Vec::with_capacity(prev.len().div_ceil(node_size));
            for group in prev.chunks(node_size) {
                let mut b = BoundingBox::empty();
                for g in group {
                    b = b.union(g);
                }
                parents.push(b);
            }
            levels.push(parents);
        }
        levels.reverse();
        Self::from_levels(node_size, items.len(), levels)
    }

    fn from_levels(node_size: usize, num_items: usize, levels: Vec<Vec<BoundingBox>>) -> Self {
        let level_len: Vec<usize> = levels.iter().map(Vec::len).collect();
        let mut level_off = Vec::with_capacity(level_len.len());
        let mut off = 0usize;
        for len in &level_len {
            level_off.push(off);
            off += len;
        }
        let boxes: Vec<BoundingBox> = levels.into_iter().flatten().collect();
        PackedRTree { node_size, num_items, level_len, level_off, boxes }
    }

    /// Rough memory footprint in bytes.
    fn memory_bytes(&self) -> usize {
        self.boxes.len() * std::mem::size_of::<BoundingBox>()
            + (self.level_len.len() + self.level_off.len()) * std::mem::size_of::<usize>()
    }

    /// Append the indices (ascending) of every leaf whose box intersects
    /// `query`. A superset-by-construction candidate set: leaf boxes are
    /// conservative, so callers finish with an exact test.
    fn search_into(&self, query: &BoundingBox, out: &mut Vec<usize>) {
        if self.num_items == 0 || query.is_empty() {
            return;
        }
        let n_levels = self.level_len.len();
        let leaf_level = n_levels - 1;
        // BFS with an indexed queue: levels are visited top-down and nodes
        // within a level in ascending order, so leaf hits come out ascending.
        let mut queue: Vec<(usize, usize)> = Vec::new();
        let root_len = self.level_len.first().copied().unwrap_or(0);
        for i in 0..root_len {
            if self.node_box(0, i).is_some_and(|b| b.intersects(query)) {
                if leaf_level == 0 {
                    out.push(i);
                } else {
                    queue.push((0, i));
                }
            }
        }
        let mut head = 0usize;
        while head < queue.len() {
            let (lvl, idx) = queue[head];
            head += 1;
            let child_lvl = lvl + 1;
            let child_count = self.level_len.get(child_lvl).copied().unwrap_or(0);
            let lo = idx * self.node_size;
            let hi = ((idx + 1) * self.node_size).min(child_count);
            for c in lo..hi {
                if !self.node_box(child_lvl, c).is_some_and(|b| b.intersects(query)) {
                    continue;
                }
                if child_lvl == leaf_level {
                    out.push(c);
                } else {
                    queue.push((child_lvl, c));
                }
            }
        }
    }

    /// Append the indices of every leaf whose box contains `p` (closed
    /// boundary, matching [`BoundingBox::contains`]).
    fn search_point_into(&self, p: Point, out: &mut Vec<usize>) {
        self.search_into(&BoundingBox::new(p, p), out);
    }

    #[inline]
    fn node_box(&self, level: usize, idx: usize) -> Option<&BoundingBox> {
        let off = self.level_off.get(level)?;
        self.boxes.get(off + idx)
    }
}

/// Packed R-tree over a region set's bounding boxes.
#[derive(Debug, Clone)]
pub struct PackedRegionIndex {
    tree: PackedRTree,
}

impl PackedRegionIndex {
    /// Build the index from a region set. Leaf order is region-id order, so
    /// probe hits map to ids without a translation table.
    pub fn build(regions: &RegionSet) -> Self {
        let boxes: Vec<_> = regions.iter().map(|(_, _, geom)| geom.bbox()).collect();
        PackedRegionIndex { tree: PackedRTree::build(&boxes, NODE_SIZE) }
    }
}

impl RegionIndex for PackedRegionIndex {
    fn probe_into(&self, p: Point, out: &mut Vec<RegionId>) -> Probe {
        out.clear();
        let mut hits: Vec<usize> = Vec::new();
        self.tree.search_point_into(p, &mut hits);
        if hits.is_empty() {
            return Probe::Empty;
        }
        out.extend(hits.into_iter().map(|i| i as RegionId));
        Probe::Candidates
    }

    fn memory_bytes(&self) -> usize {
        self.tree.memory_bytes()
    }

    fn name(&self) -> &'static str {
        "packed-rtree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::index_join;
    use crate::naive::naive_join;
    use proptest::prelude::*;
    use urban_data::gen::corpus::uniform_points;
    use urban_data::gen::regions::voronoi_neighborhoods;
    use urban_data::query::SpatialAggQuery;

    fn boxes(n: usize, seed: u64) -> Vec<BoundingBox> {
        // Deterministic scatter of small boxes over [0, 100)².
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(seed | 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let x = (h % 10_000) as f64 / 100.0;
                let y = ((h >> 16) % 10_000) as f64 / 100.0;
                let w = ((h >> 32) % 300) as f64 / 100.0;
                BoundingBox::from_coords(x, y, x + w, y + w * 0.5)
            })
            .collect()
    }

    fn brute(items: &[BoundingBox], q: &BoundingBox) -> Vec<usize> {
        items.iter().enumerate().filter(|(_, b)| b.intersects(q)).map(|(i, _)| i).collect()
    }

    #[test]
    fn matches_brute_force() {
        let items = boxes(500, 7);
        let tree = PackedRTree::build(&items, NODE_SIZE);
        assert_eq!(tree.num_items, 500);
        for q in [
            BoundingBox::from_coords(10.0, 10.0, 30.0, 30.0),
            BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0),
            BoundingBox::from_coords(99.0, 99.0, 99.5, 99.5),
        ] {
            let mut got = Vec::new();
            tree.search_into(&q, &mut got);
            assert_eq!(got, brute(&items, &q));
            assert!(got.windows(2).all(|w| w[0] < w[1]), "results must be ascending");
        }
    }

    #[test]
    fn empty_and_singleton() {
        let empty = PackedRTree::build(&[], 16);
        assert_eq!(empty.num_items, 0);
        assert!(empty.boxes.is_empty());
        let mut out = Vec::new();
        empty.search_into(&BoundingBox::from_coords(0.0, 0.0, 1.0, 1.0), &mut out);
        assert!(out.is_empty());

        let one = PackedRTree::build(&[BoundingBox::from_coords(1.0, 1.0, 2.0, 2.0)], 16);
        assert_eq!(one.level_len, vec![1]);
        one.search_point_into(Point::new(1.5, 1.5), &mut out);
        assert_eq!(out, vec![0]);
        out.clear();
        one.search_point_into(Point::new(5.0, 5.0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn root_bounds_cover_all_items() {
        let items = boxes(300, 11);
        let tree = PackedRTree::build(&items, 8);
        let root = tree.boxes[0];
        for b in &items {
            assert!(root.contains_box(b));
        }
    }

    #[test]
    fn matches_naive_join() {
        let bbox = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let pts = uniform_points(&bbox, 3_000, 11, 50.0);
        let rs = voronoi_neighborhoods(&bbox, 25, 9, 2);
        let q = SpatialAggQuery::count();
        let truth = naive_join(&pts, &rs, &q).unwrap();
        let idx = PackedRegionIndex::build(&rs);
        assert_eq!(index_join(&pts, &rs, &idx, &q).unwrap(), truth);
    }

    #[test]
    fn candidates_are_supersets_of_exact_hits() {
        let bbox = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let rs = voronoi_neighborhoods(&bbox, 40, 3, 2);
        let idx = PackedRegionIndex::build(&rs);
        let mut scratch = Vec::new();
        for i in 0..500 {
            let p = Point::new((i % 50) as f64 * 2.0 + 0.5, (i / 50) as f64 * 9.0 + 0.5);
            let probe = idx.probe_into(p, &mut scratch);
            for (id, _, geom) in rs.iter() {
                if geom.contains(p) {
                    match probe {
                        Probe::Candidates => {
                            assert!(scratch.contains(&id), "missed region {id} at {p:?}")
                        }
                        Probe::Resolved(r) => assert_eq!(r, id),
                        Probe::Empty => panic!("probe Empty but region {id} contains {p:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn empty_region_set_probes_empty() {
        let rs = RegionSet::new("none", Vec::new());
        let idx = PackedRegionIndex::build(&rs);
        let mut scratch = Vec::new();
        assert_eq!(idx.probe_into(Point::new(0.0, 0.0), &mut scratch), Probe::Empty);
        assert_eq!(idx.name(), "packed-rtree");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_windows_match_brute_force(
            n in 0usize..400,
            seed in 1u64..1_000,
            x in 0.0f64..100.0,
            y in 0.0f64..100.0,
            w in 0.0f64..60.0,
            h in 0.0f64..60.0,
            node in 2usize..20,
        ) {
            let items = boxes(n, seed);
            let tree = PackedRTree::build(&items, node);
            let q = BoundingBox::from_coords(x, y, x + w, y + h);
            let mut got = Vec::new();
            tree.search_into(&q, &mut got);
            prop_assert_eq!(got, brute(&items, &q));
        }
    }
}
