//! An arena-based R-tree over planar points, built by Sort-Tile-Recursive
//! bulk loading.
//!
//! The local index of the GR-index ([3] in the paper's references) and of
//! the SRJ baseline, which first builds a cell's whole tree and only then
//! queries it. (RJC's per-cell GridQuery needs no tree: it runs a sort-sweep,
//! see `icpe-cluster`'s `query` module.) Nodes live in an arena (`Vec`) and
//! refer to each other by index, which keeps the structure compact and
//! avoids `Box`-per-node allocation churn.

use icpe_types::{DistanceMetric, Point, Rect};

/// Default maximum number of entries per node.
pub const DEFAULT_MAX_ENTRIES: usize = 16;

#[derive(Debug, Clone)]
enum NodeKind<T> {
    Leaf { entries: Vec<(Point, T)> },
    Internal { children: Vec<usize> },
}

#[derive(Debug, Clone)]
struct Node<T> {
    mbr: Rect,
    kind: NodeKind<T>,
}

impl<T> Node<T> {
    fn new_leaf() -> Self {
        Node {
            mbr: Rect::empty(),
            kind: NodeKind::Leaf {
                entries: Vec::new(),
            },
        }
    }
}

/// An R-tree mapping points to payloads of type `T`.
///
/// Duplicate points are allowed (distinct objects can report the same
/// location); each inserted entry is reported independently by queries.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    nodes: Vec<Node<T>>,
    root: usize,
    max_entries: usize,
    len: usize,
}

impl<T> Default for RTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RTree<T> {
    /// An empty tree with the default node capacity.
    pub fn new() -> Self {
        Self::with_max_entries(DEFAULT_MAX_ENTRIES)
    }

    /// An empty tree with a custom node capacity (`max_entries ≥ 4`).
    fn with_max_entries(max_entries: usize) -> Self {
        let max_entries = max_entries.max(4);
        RTree {
            nodes: vec![Node::new_leaf()],
            root: 0,
            max_entries,
            len: 0,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bounding rectangle of all entries (empty rect if none).
    pub fn mbr(&self) -> Rect {
        self.nodes[self.root].mbr
    }

    /// All entries whose point lies inside `rect` (boundary inclusive).
    pub fn query_rect<'a>(&'a self, rect: &Rect, out: &mut Vec<(&'a Point, &'a T)>) {
        self.query_node(self.root, rect, out);
    }

    /// Convenience wrapper returning a fresh vector.
    pub fn query_rect_vec(&self, rect: &Rect) -> Vec<(&Point, &T)> {
        let mut out = Vec::new();
        self.query_rect(rect, &mut out);
        out
    }

    /// All entries within distance `eps` of `center` under `metric`.
    ///
    /// Implemented as a rectangle query over the (slightly padded) square
    /// range region followed by a metric refinement. The refinement also runs
    /// for Chebyshev so the reported set is decided by exactly the same
    /// floating-point expression as [`DistanceMetric::within`] everywhere in
    /// the system — rectangle arithmetic alone can disagree at boundary
    /// distances.
    pub fn query_within<'a>(
        &'a self,
        center: &Point,
        eps: f64,
        metric: DistanceMetric,
        out: &mut Vec<(&'a Point, &'a T)>,
    ) {
        let region = Rect::padded_range_region(*center, eps);
        let before = out.len();
        self.query_node(self.root, &region, out);
        out.truncate_filtered(before, |(p, _)| metric.within(center, p, eps));
    }

    /// Like [`RTree::query_within`], but appends owned payload copies
    /// instead of borrows. This lets hot callers keep **one reusable result
    /// buffer across probes** (a `Vec<(&Point, &T)>` borrows the tree, so
    /// it cannot live in the same struct as the tree it borrows from; a
    /// `Vec<T>` can) — the range join's per-probe path allocates nothing.
    pub fn query_payloads_within(
        &self,
        center: &Point,
        eps: f64,
        metric: DistanceMetric,
        out: &mut Vec<T>,
    ) where
        T: Copy,
    {
        let region = Rect::padded_range_region(*center, eps);
        self.query_node_payloads(self.root, &region, center, eps, metric, out);
    }

    fn query_node_payloads(
        &self,
        node: usize,
        rect: &Rect,
        center: &Point,
        eps: f64,
        metric: DistanceMetric,
        out: &mut Vec<T>,
    ) where
        T: Copy,
    {
        let n = &self.nodes[node];
        if !n.mbr.intersects(rect) {
            return;
        }
        match &n.kind {
            NodeKind::Leaf { entries } => {
                for (p, v) in entries {
                    // Same rectangle filter + metric refinement expression
                    // as `query_within`, so both report identical sets at
                    // boundary distances.
                    if rect.contains_point(p) && metric.within(center, p, eps) {
                        out.push(*v);
                    }
                }
            }
            NodeKind::Internal { children } => {
                for &c in children {
                    self.query_node_payloads(c, rect, center, eps, metric, out);
                }
            }
        }
    }

    /// The `k` entries nearest to `center` under `metric`, closest first
    /// (fewer if the tree holds fewer). Classic best-first branch-and-bound
    /// over node MBRs.
    ///
    /// Used by downstream applications (e.g. matching a probe object to the
    /// nearest co-movement group in future-movement prediction); the range
    /// join itself never needs it.
    pub fn nearest_k<'a>(
        &'a self,
        center: &Point,
        k: usize,
        metric: DistanceMetric,
    ) -> Vec<(&'a Point, &'a T, f64)> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        // Max-heap of current best k (by distance), min-heap of frontier.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        #[derive(PartialEq)]
        struct Cand(f64, usize);
        impl Eq for Cand {}
        impl Ord for Cand {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }
        impl PartialOrd for Cand {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let mut frontier: BinaryHeap<Reverse<Cand>> = BinaryHeap::new();
        frontier.push(Reverse(Cand(
            mbr_min_dist(&self.nodes[self.root].mbr, center, metric),
            self.root,
        )));
        let mut best: Vec<(&Point, &T, f64)> = Vec::with_capacity(k + 1);
        while let Some(Reverse(Cand(bound, node))) = frontier.pop() {
            if best.len() == k && bound >= best.last().unwrap().2 {
                break; // no node can improve the current k-th distance
            }
            match &self.nodes[node].kind {
                NodeKind::Leaf { entries } => {
                    for (p, v) in entries {
                        let d = p.distance(center, metric);
                        if best.len() < k || d < best.last().unwrap().2 {
                            let pos = best
                                .binary_search_by(|probe| probe.2.total_cmp(&d))
                                .unwrap_or_else(|e| e);
                            best.insert(pos, (p, v, d));
                            best.truncate(k);
                        }
                    }
                }
                NodeKind::Internal { children } => {
                    for &c in children {
                        let d = mbr_min_dist(&self.nodes[c].mbr, center, metric);
                        if best.len() < k || d < best.last().unwrap().2 {
                            frontier.push(Reverse(Cand(d, c)));
                        }
                    }
                }
            }
        }
        best
    }

    /// Iterates over all stored entries (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&Point, &T)> {
        self.nodes.iter().flat_map(|n| match &n.kind {
            NodeKind::Leaf { entries } => entries.iter().map(|(p, v)| (p, v)).collect::<Vec<_>>(),
            NodeKind::Internal { .. } => Vec::new(),
        })
    }

    /// The height of the tree (1 = a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root;
        loop {
            match &self.nodes[node].kind {
                NodeKind::Leaf { .. } => return h,
                NodeKind::Internal { children } => {
                    node = children[0];
                    h += 1;
                }
            }
        }
    }

    /// Bulk-loads a tree with Sort-Tile-Recursive packing.
    ///
    /// Produces a tree whose leaves are filled close to capacity; used by the
    /// SRJ baseline which builds the whole local index before querying.
    pub fn bulk_load(mut items: Vec<(Point, T)>) -> Self {
        Self::bulk_load_with_max_entries(DEFAULT_MAX_ENTRIES, &mut items)
    }

    /// STR bulk loading with a custom node capacity.
    pub fn bulk_load_with_max_entries(max_entries: usize, items: &mut Vec<(Point, T)>) -> Self {
        let mut tree = Self::with_max_entries(max_entries);
        if items.is_empty() {
            return tree;
        }
        tree.len = items.len();
        let cap = tree.max_entries;

        // --- pack leaves ---
        let n = items.len();
        let num_leaves = n.div_ceil(cap);
        let num_slices = (num_leaves as f64).sqrt().ceil() as usize;
        let slice_size = n.div_ceil(num_slices);
        items.sort_by(|a, b| a.0.x.total_cmp(&b.0.x));

        let mut leaves: Vec<usize> = Vec::with_capacity(num_leaves);
        let mut drained: Vec<(Point, T)> = std::mem::take(items);
        // Process slice by slice, popping from the back to move values out.
        let mut slices: Vec<Vec<(Point, T)>> = Vec::with_capacity(num_slices);
        while !drained.is_empty() {
            let take = slice_size.min(drained.len());
            let rest = drained.split_off(take);
            slices.push(std::mem::replace(&mut drained, rest));
        }
        for mut slice in slices {
            slice.sort_by(|a, b| a.0.y.total_cmp(&b.0.y));
            while !slice.is_empty() {
                let take = cap.min(slice.len());
                let rest = slice.split_off(take);
                let chunk = std::mem::replace(&mut slice, rest);
                let mut mbr = Rect::empty();
                for (p, _) in &chunk {
                    mbr.expand_to(p);
                }
                tree.nodes.push(Node {
                    mbr,
                    kind: NodeKind::Leaf { entries: chunk },
                });
                leaves.push(tree.nodes.len() - 1);
            }
        }

        // --- pack internal levels bottom-up ---
        let mut level = leaves;
        while level.len() > 1 {
            // Groups of `cap`; a lone trailing child takes one sibling from
            // the group before it, so no non-root node has a single child.
            let mut starts: Vec<usize> = (0..level.len()).step_by(cap).collect();
            if level.len() > cap && level.len() % cap == 1 {
                *starts.last_mut().expect("level is non-empty") -= 1;
            }
            starts.push(level.len());
            let mut next = Vec::with_capacity(starts.len() - 1);
            for bounds in starts.windows(2) {
                let group = &level[bounds[0]..bounds[1]];
                let mut mbr = Rect::empty();
                for &c in group {
                    mbr = mbr.union(&tree.nodes[c].mbr);
                }
                tree.nodes.push(Node {
                    mbr,
                    kind: NodeKind::Internal {
                        children: group.to_vec(),
                    },
                });
                next.push(tree.nodes.len() - 1);
            }
            level = next;
        }
        tree.root = level[0];
        tree
    }

    fn query_node<'a>(&'a self, node: usize, rect: &Rect, out: &mut Vec<(&'a Point, &'a T)>) {
        let n = &self.nodes[node];
        if !n.mbr.intersects(rect) {
            return;
        }
        match &n.kind {
            NodeKind::Leaf { entries } => {
                for (p, v) in entries {
                    if rect.contains_point(p) {
                        out.push((p, v));
                    }
                }
            }
            NodeKind::Internal { children } => {
                for &c in children {
                    self.query_node(c, rect, out);
                }
            }
        }
    }

    /// Validates structural invariants; used by tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.check_node(self.root, true);
    }

    fn check_node(&self, node: usize, is_root: bool) -> (Rect, usize) {
        let n = &self.nodes[node];
        match &n.kind {
            NodeKind::Leaf { entries } => {
                let mut mbr = Rect::empty();
                for (p, _) in entries {
                    mbr.expand_to(p);
                    assert!(
                        n.mbr.contains_point(p),
                        "leaf MBR does not contain its point"
                    );
                }
                if !entries.is_empty() {
                    assert_eq!(mbr, n.mbr, "leaf MBR is not tight");
                }
                assert!(
                    entries.len() <= self.max_entries,
                    "leaf overflow: {} > {}",
                    entries.len(),
                    self.max_entries
                );
                (n.mbr, 1)
            }
            NodeKind::Internal { children } => {
                assert!(!children.is_empty(), "internal node with no children");
                assert!(
                    is_root || children.len() >= 2,
                    "non-root internal node with a single child"
                );
                assert!(children.len() <= self.max_entries, "internal overflow");
                let mut mbr = Rect::empty();
                let mut depth = None;
                for &c in children {
                    let (child_mbr, child_depth) = self.check_node(c, false);
                    assert!(
                        n.mbr.contains_rect(&child_mbr),
                        "parent MBR does not contain child MBR"
                    );
                    mbr = mbr.union(&child_mbr);
                    match depth {
                        None => depth = Some(child_depth),
                        Some(d) => assert_eq!(d, child_depth, "unbalanced tree"),
                    }
                }
                (mbr, depth.unwrap() + 1)
            }
        }
    }
}

/// Smallest possible distance from `center` to any point of `mbr` under the
/// given metric (the MINDIST bound of branch-and-bound kNN).
fn mbr_min_dist(mbr: &Rect, center: &Point, metric: DistanceMetric) -> f64 {
    let dx = (mbr.min_x - center.x).max(center.x - mbr.max_x).max(0.0);
    let dy = (mbr.min_y - center.y).max(center.y - mbr.max_y).max(0.0);
    match metric {
        DistanceMetric::L1 => dx + dy,
        DistanceMetric::L2 => (dx * dx + dy * dy).sqrt(),
        DistanceMetric::Chebyshev => dx.max(dy),
    }
}

/// Retains, among the elements appended after `from`, only those matching the
/// predicate. Small helper to keep `query_within` allocation-free.
trait TruncateFiltered<T> {
    fn truncate_filtered(&mut self, from: usize, keep: impl FnMut(&T) -> bool);
}

impl<T> TruncateFiltered<T> for Vec<T> {
    fn truncate_filtered(&mut self, from: usize, mut keep: impl FnMut(&T) -> bool) {
        let mut write = from;
        for read in from..self.len() {
            if keep(&self[read]) {
                self.swap(read, write);
                write += 1;
            }
        }
        self.truncate(write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: usize, seed: u64) -> Vec<(Point, usize)> {
        // Small deterministic LCG so the unit tests need no rand dependency.
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) * 100.0
        };
        (0..n).map(|i| (Point::new(next(), next()), i)).collect()
    }

    fn brute_rect(items: &[(Point, usize)], r: &Rect) -> Vec<usize> {
        let mut v: Vec<usize> = items
            .iter()
            .filter(|(p, _)| r.contains_point(p))
            .map(|(_, i)| *i)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_tree_queries() {
        let t: RTree<usize> = RTree::new();
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t
            .query_rect_vec(&Rect::new(0.0, 0.0, 10.0, 10.0))
            .is_empty());
    }

    #[test]
    fn single_point_round_trip() {
        let t = RTree::bulk_load(vec![(Point::new(5.0, 5.0), 42usize)]);
        assert_eq!(t.len(), 1);
        let hits = t.query_rect_vec(&Rect::new(4.0, 4.0, 6.0, 6.0));
        assert_eq!(hits.len(), 1);
        assert_eq!(*hits[0].1, 42);
        assert!(t.query_rect_vec(&Rect::new(6.0, 6.0, 7.0, 7.0)).is_empty());
    }

    #[test]
    fn bulk_load_matches_brute_force() {
        let items = pts(1000, 13);
        let t = RTree::bulk_load(items.clone());
        t.check_invariants();
        assert_eq!(t.len(), 1000);

        for (q, _) in items.iter().step_by(83) {
            let r = Rect::range_region(*q, 5.0);
            let mut got: Vec<usize> = t.query_rect_vec(&r).iter().map(|(_, v)| **v).collect();
            got.sort_unstable();
            assert_eq!(got, brute_rect(&items, &r));
        }
    }

    #[test]
    fn bulk_load_small_inputs() {
        for n in 0..40 {
            let items = pts(n, n as u64 + 1);
            let t = RTree::bulk_load(items.clone());
            if n > 0 {
                t.check_invariants();
            }
            assert_eq!(t.len(), n);
            let all = t.query_rect_vec(&Rect::new(-1.0, -1.0, 101.0, 101.0));
            assert_eq!(all.len(), n);
        }
    }

    #[test]
    fn duplicate_points_are_all_reported() {
        let mut items: Vec<(Point, usize)> = (0..20).map(|i| (Point::new(1.0, 1.0), i)).collect();
        let t = RTree::bulk_load_with_max_entries(4, &mut items);
        t.check_invariants();
        let hits = t.query_rect_vec(&Rect::new(1.0, 1.0, 1.0, 1.0));
        assert_eq!(hits.len(), 20);
    }

    #[test]
    fn query_within_refines_by_metric() {
        let t = RTree::bulk_load(vec![
            (Point::new(1.0, 1.0), 0usize), // chebyshev 1, l1 2, l2 √2
            (Point::new(1.0, 0.0), 1usize), // all metrics: 1
            (Point::new(3.0, 3.0), 2usize), // outside
        ]);
        let c = Point::new(0.0, 0.0);

        let mut out = Vec::new();
        t.query_within(&c, 1.0, DistanceMetric::Chebyshev, &mut out);
        assert_eq!(out.len(), 2);

        out.clear();
        t.query_within(&c, 1.0, DistanceMetric::L1, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(*out[0].1, 1);

        out.clear();
        t.query_within(&c, 1.2, DistanceMetric::L2, &mut out);
        assert_eq!(out.len(), 1);

        out.clear();
        t.query_within(&c, 1.5, DistanceMetric::L2, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn iter_sees_every_entry() {
        let mut items = pts(128, 3);
        let t = RTree::bulk_load_with_max_entries(6, &mut items);
        let mut seen: Vec<usize> = t.iter().map(|(_, v)| *v).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..128).collect::<Vec<_>>());
    }

    #[test]
    fn collinear_points_split_correctly() {
        // Degenerate geometry: all points on a line → zero-area unions.
        let mut items: Vec<(Point, usize)> =
            (0..64).map(|i| (Point::new(i as f64, 0.0), i)).collect();
        let t = RTree::bulk_load_with_max_entries(4, &mut items);
        t.check_invariants();
        let hits = t.query_rect_vec(&Rect::new(10.0, 0.0, 20.0, 0.0));
        assert_eq!(hits.len(), 11);
    }

    #[test]
    fn nearest_k_matches_brute_force() {
        let items = pts(400, 21);
        let tree = RTree::bulk_load_with_max_entries(8, &mut items.clone());
        for metric in [
            DistanceMetric::L1,
            DistanceMetric::L2,
            DistanceMetric::Chebyshev,
        ] {
            for (qi, (q, _)) in items.iter().step_by(97).enumerate() {
                let k = 1 + qi * 3;
                let got: Vec<f64> = tree
                    .nearest_k(q, k, metric)
                    .iter()
                    .map(|(_, _, d)| *d)
                    .collect();
                let mut want: Vec<f64> = items.iter().map(|(p, _)| p.distance(q, metric)).collect();
                want.sort_by(f64::total_cmp);
                want.truncate(k);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert!((g - w).abs() < 1e-9, "{metric:?} k={k}: {g} vs {w}");
                }
                // Distances come out sorted.
                assert!(got.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }

    #[test]
    fn nearest_k_edge_cases() {
        let empty: RTree<u32> = RTree::new();
        assert!(empty
            .nearest_k(&Point::new(0.0, 0.0), 3, DistanceMetric::L2)
            .is_empty());

        let one = RTree::bulk_load(vec![(Point::new(5.0, 5.0), 9u32)]);
        assert!(one
            .nearest_k(&Point::new(0.0, 0.0), 0, DistanceMetric::L2)
            .is_empty());
        let res = one.nearest_k(&Point::new(0.0, 0.0), 10, DistanceMetric::L1);
        assert_eq!(res.len(), 1);
        assert_eq!(*res[0].1, 9);
        assert_eq!(res[0].2, 10.0);
    }

    #[test]
    fn mbr_min_dist_is_a_lower_bound() {
        let mbr = Rect::new(2.0, 2.0, 4.0, 4.0);
        // Inside → 0.
        assert_eq!(
            mbr_min_dist(&mbr, &Point::new(3.0, 3.0), DistanceMetric::L2),
            0.0
        );
        // Left of the box.
        assert_eq!(
            mbr_min_dist(&mbr, &Point::new(0.0, 3.0), DistanceMetric::L2),
            2.0
        );
        // Diagonal corner.
        assert_eq!(
            mbr_min_dist(&mbr, &Point::new(0.0, 0.0), DistanceMetric::L1),
            4.0
        );
        assert_eq!(
            mbr_min_dist(&mbr, &Point::new(0.0, 0.0), DistanceMetric::Chebyshev),
            2.0
        );
    }

    #[test]
    fn truncate_filtered_helper() {
        let mut v = vec![1, 2, 3, 4, 5, 6];
        v.truncate_filtered(2, |x| x % 2 == 0);
        assert_eq!(&v[..2], &[1, 2]);
        let mut tail = v[2..].to_vec();
        tail.sort_unstable();
        assert_eq!(tail, vec![4, 6]);
    }
}
