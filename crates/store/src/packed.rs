//! Flattened packed Hilbert R-tree (FlatGeobuf-style level-bounds layout).
//!
//! The tree is one flat array of bounding boxes, root level first. Leaves
//! are the item boxes in the order given (the builder hands them over
//! Hilbert-sorted, which is what keeps parent boxes tight); each upper level
//! is built bottom-up by grouping `node_size` consecutive children, so
//! navigation needs no pointers: the children of node `j` at level `k` are
//! nodes `j*node_size .. (j+1)*node_size` of level `k+1`. Level offsets are
//! fully determined by `(num_items, node_size)`, so a flat form needs only
//! those two scalars plus the box array ([`PackedRTree::from_boxes`]).
//!
//! It indexes region-polygon bounding boxes for the index-join executor's
//! candidate retrieval. (`.ubs` version 1 also kept one over its chunk boxes
//! in the file header; in version 2's day-major order every chunk's box
//! spans the city, and the directory's footers do the pruning.)

use urbane_geom::{BoundingBox, Point};

/// Default fan-out. 16 children per node keeps the tree ≤3 levels for a
/// thousand regions and ≤5 for a million.
pub const DEFAULT_NODE_SIZE: usize = 16;

/// A packed R-tree over `num_items` leaf bounding boxes.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedRTree {
    node_size: usize,
    num_items: usize,
    /// Nodes per level, root level first; empty for an empty tree.
    level_len: Vec<usize>,
    /// Start of each level within `boxes`.
    level_off: Vec<usize>,
    /// All node boxes, levels concatenated root-first.
    boxes: Vec<BoundingBox>,
}

/// Nodes per level (root first) for a tree of `num_items` leaves with the
/// given fan-out — the level-bounds math shared by build and deserialize.
pub fn level_lens(num_items: usize, node_size: usize) -> Vec<usize> {
    if num_items == 0 {
        return Vec::new();
    }
    let node_size = node_size.max(2);
    let mut lens = vec![num_items];
    while let Some(&last) = lens.last() {
        if last <= 1 {
            break;
        }
        lens.push(last.div_ceil(node_size));
    }
    lens.reverse();
    lens
}

impl PackedRTree {
    /// Build bottom-up over `items` (leaf boxes in final storage order).
    pub fn build(items: &[BoundingBox], node_size: usize) -> Self {
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
            // lint: allow(cancel-poll-reachability) packs one R-tree level during the one-time region index build at dataset load
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

    /// Reassemble from the flat box array (levels concatenated root-first).
    /// Returns `None` when the box count does not match the level-bounds math
    /// for `(num_items, node_size)`.
    pub fn from_boxes(node_size: usize, num_items: usize, boxes: Vec<BoundingBox>) -> Option<Self> {
        let node_size = node_size.max(2);
        let lens = level_lens(num_items, node_size);
        if lens.iter().sum::<usize>() != boxes.len() {
            return None;
        }
        let mut level_off = Vec::with_capacity(lens.len());
        let mut off = 0usize;
        for len in &lens {
            level_off.push(off);
            off += len;
        }
        Some(PackedRTree { node_size, num_items, level_len: lens, level_off, boxes })
    }

    /// Number of leaf items.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// True when the tree indexes nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_items == 0
    }

    /// Fan-out.
    #[inline]
    pub fn node_size(&self) -> usize {
        self.node_size
    }

    /// Number of levels (0 for an empty tree).
    #[inline]
    pub fn n_levels(&self) -> usize {
        self.level_len.len()
    }

    /// Total node count across all levels.
    #[inline]
    pub fn total_nodes(&self) -> usize {
        self.boxes.len()
    }

    /// All node boxes, levels concatenated root-first (the serialized form).
    #[inline]
    pub fn boxes(&self) -> &[BoundingBox] {
        &self.boxes
    }

    /// Bounding box of everything indexed (empty box for an empty tree).
    pub fn bounds(&self) -> BoundingBox {
        self.boxes.first().copied().unwrap_or_else(BoundingBox::empty)
    }

    /// Rough memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.boxes.len() * std::mem::size_of::<BoundingBox>()
            + (self.level_len.len() + self.level_off.len()) * std::mem::size_of::<usize>()
    }

    /// Append the indices (ascending) of every leaf whose box intersects
    /// `query`. A superset-by-construction candidate set: leaf boxes are
    /// conservative, so callers finish with an exact test.
    pub fn search_into(&self, query: &BoundingBox, out: &mut Vec<usize>) {
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
    pub fn search_point_into(&self, p: Point, out: &mut Vec<usize>) {
        self.search_into(&BoundingBox::new(p, p), out);
    }

    #[inline]
    fn node_box(&self, level: usize, idx: usize) -> Option<&BoundingBox> {
        let off = self.level_off.get(level)?;
        self.boxes.get(off + idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let tree = PackedRTree::build(&items, DEFAULT_NODE_SIZE);
        assert_eq!(tree.num_items(), 500);
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
        assert!(empty.is_empty());
        assert!(empty.bounds().is_empty());
        let mut out = Vec::new();
        empty.search_into(&BoundingBox::from_coords(0.0, 0.0, 1.0, 1.0), &mut out);
        assert!(out.is_empty());

        let one = PackedRTree::build(&[BoundingBox::from_coords(1.0, 1.0, 2.0, 2.0)], 16);
        assert_eq!(one.n_levels(), 1);
        one.search_point_into(Point::new(1.5, 1.5), &mut out);
        assert_eq!(out, vec![0]);
        out.clear();
        one.search_point_into(Point::new(5.0, 5.0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn level_math_roundtrips_through_boxes() {
        for n in [0usize, 1, 2, 15, 16, 17, 255, 256, 1000] {
            let items = boxes(n, 3);
            let tree = PackedRTree::build(&items, 16);
            assert_eq!(
                level_lens(n, 16).iter().sum::<usize>(),
                tree.total_nodes(),
                "level math diverged at n={n}"
            );
            let back = PackedRTree::from_boxes(16, n, tree.boxes().to_vec()).unwrap();
            assert_eq!(back, tree);
        }
        assert!(PackedRTree::from_boxes(16, 100, Vec::new()).is_none());
    }

    #[test]
    fn root_bounds_cover_all_items() {
        let items = boxes(300, 11);
        let tree = PackedRTree::build(&items, 8);
        let root = tree.bounds();
        for b in &items {
            assert!(root.contains_box(b));
        }
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
