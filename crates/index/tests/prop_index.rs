//! Property-based tests: R-tree ≡ brute force, grid coverage lemmas,
//! sub-cell refinement candidate equivalence.

use icpe_index::{GrIndex, Grid, GridKey, RTree, RefinementTree};
use icpe_types::{DistanceMetric, ObjectId, Point, Rect};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_point() -> impl Strategy<Value = Point> {
    (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(arb_point(), 0..max)
}

/// The ε-pairs a replication scheme discovers: a pair `(i, j)` is reported
/// iff the points are within Chebyshev ε **and** they meet in some cell —
/// one partner's home key lies in the other's `{home} ∪ query keys` set.
/// This mirrors the pipeline exactly (data object to the home cell, query
/// objects to the replication keys, exact ε check at the probe).
fn discovered_pairs(
    points: &[Point],
    eps: f64,
    keys_of: impl Fn(Point) -> (GridKey, Vec<GridKey>),
) -> BTreeSet<(usize, usize)> {
    let placed: Vec<(GridKey, Vec<GridKey>)> = points.iter().map(|&p| keys_of(p)).collect();
    let mut out = BTreeSet::new();
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            if !DistanceMetric::Chebyshev.within(&points[i], &points[j], eps) {
                continue;
            }
            let (hi, ki) = &placed[i];
            let (hj, kj) = &placed[j];
            if hi == hj || ki.contains(hj) || kj.contains(hi) {
                out.insert((i, j));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rtree_bulk_load_rect_query_equals_brute_force(
        points in arb_points(300),
        q in arb_point(),
        eps in 0.1f64..30.0,
        max_entries in 4usize..20,
    ) {
        let mut items: Vec<(Point, usize)> = points.iter().copied().zip(0..).collect();
        let tree = RTree::bulk_load_with_max_entries(max_entries, &mut items);
        if !points.is_empty() {
            tree.check_invariants();
        }
        prop_assert_eq!(tree.len(), points.len());
        let rect = Rect::range_region(q, eps);
        let mut got: Vec<usize> = tree.query_rect_vec(&rect).iter().map(|(_, v)| **v).collect();
        got.sort_unstable();
        let mut want: Vec<usize> = points.iter().enumerate()
            .filter(|(_, p)| rect.contains_point(p))
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn rtree_metric_query_equals_brute_force(
        points in arb_points(200),
        q in arb_point(),
        eps in 0.1f64..20.0,
        metric_idx in 0usize..3,
    ) {
        let metric = [DistanceMetric::L1, DistanceMetric::L2, DistanceMetric::Chebyshev][metric_idx];
        let mut items: Vec<(Point, usize)> = points.iter().copied().zip(0..).collect();
        let tree = RTree::bulk_load_with_max_entries(6, &mut items);
        let mut out = Vec::new();
        tree.query_within(&q, eps, metric, &mut out);
        let mut got: Vec<usize> = out.iter().map(|(_, v)| **v).collect();
        got.sort_unstable();
        let mut want: Vec<usize> = points.iter().enumerate()
            .filter(|(_, p)| metric.within(&q, p, eps))
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn grid_key_is_consistent_with_cell_rect(p in arb_point(), lg in 0.05f64..20.0) {
        let g = Grid::new(lg);
        let key = g.key_of(p);
        let rect = g.cell_rect(key);
        // The point lies in its cell (half-open semantics may put boundary
        // points in the neighbor; containment check is closed, so inclusion
        // always holds on the closed rect).
        prop_assert!(rect.contains_point(&p), "point {:?} not in cell rect {:?}", p, rect);
        // The cell is among the keys covering any rect containing p.
        let covering = g.keys_in_rect(&Rect::range_region(p, 0.01));
        prop_assert!(covering.contains(&key));
    }

    /// The heart of Lemma 1: for any pair (a, b) within Chebyshev distance
    /// eps, at least one direction of the replication scheme finds the pair:
    /// either b's home cell is in a's Lemma-1 key set (or equals a's home),
    /// or a's home cell is in b's Lemma-1 key set (or equals b's home).
    #[test]
    fn lemma1_replication_covers_all_pairs(
        a in arb_point(),
        dx in -5.0f64..5.0,
        dy in -5.0f64..5.0,
        lg in 0.5f64..10.0,
        eps in 0.5f64..5.0,
    ) {
        let b = Point::new(a.x + dx.clamp(-eps, eps), a.y + dy.clamp(-eps, eps));
        prop_assert!(DistanceMetric::Chebyshev.within(&a, &b, eps + 1e-9));
        let g = Grid::new(lg);
        let home_a = g.key_of(a);
        let home_b = g.key_of(b);

        let a_reaches_b = home_a == home_b || g.lemma1_query_keys(a, eps).contains(&home_b);
        let b_reaches_a = home_b == home_a || g.lemma1_query_keys(b, eps).contains(&home_a);
        prop_assert!(
            a_reaches_b || b_reaches_a,
            "pair not covered: a={:?} (home {}), b={:?} (home {})",
            a, home_a, b, home_b
        );
    }

    /// Lemma 1 under refinement: for any pair within Chebyshev ε and any
    /// refinement tree, at least one partner's refined replication set
    /// reaches the other's refined home key (or they share a leaf) — the
    /// ε-padding at sub-cell borders loses no pair.
    #[test]
    fn refined_lemma1_replication_covers_all_pairs(
        a in arb_point(),
        dx in -5.0f64..5.0,
        dy in -5.0f64..5.0,
        lg in 0.5f64..10.0,
        eps in 0.5f64..5.0,
        depth_a in 0u8..=3,
        depth_b in 0u8..=3,
        extra in prop::collection::vec((-10i64..10, -10i64..10, 1u8..=3), 0..4),
    ) {
        let b = Point::new(a.x + dx.clamp(-eps, eps), a.y + dy.clamp(-eps, eps));
        prop_assert!(DistanceMetric::Chebyshev.within(&a, &b, eps + 1e-9));
        let g = Grid::new(lg);
        let mut tree = RefinementTree::new();
        // Refine the cells that actually host the pair (the interesting
        // case) plus arbitrary bystander cells.
        tree.set_depth(g.key_of(a), depth_a);
        tree.set_depth(g.key_of(b), depth_b);
        for (x, y, d) in extra {
            tree.set_depth(GridKey::new(x, y), d);
        }
        let home_a = g.key_of_refined(&tree, a);
        let home_b = g.key_of_refined(&tree, b);
        let a_reaches_b =
            home_a == home_b || g.lemma1_query_keys_refined(&tree, a, eps).contains(&home_b);
        let b_reaches_a =
            home_b == home_a || g.lemma1_query_keys_refined(&tree, b, eps).contains(&home_a);
        prop_assert!(
            a_reaches_b || b_reaches_a,
            "pair not covered under refinement: a={:?} (home {}), b={:?} (home {}), tree={:?}",
            a, home_a, b, home_b, tree
        );
    }

    /// Refined ≡ unrefined candidate pair sets: for arbitrary point sets,
    /// ε, and refinement trees, the ε-pairs discovered through the
    /// refinement-aware `lemma1_query_keys`/`full_query_keys` are exactly
    /// the ε-pairs of the unrefined grid — which are exactly the brute-force
    /// ε-pairs. (Refinement may *prune* far-apart same-base-cell candidates
    /// before the probe — that is the point — but never drops a true pair.)
    #[test]
    fn refined_candidate_pairs_equal_unrefined(
        points in arb_points(40),
        lg in 0.5f64..10.0,
        eps in 0.5f64..5.0,
        refinements in prop::collection::vec((0usize..40, 1u8..=3), 0..8),
    ) {
        let g = Grid::new(lg);
        let mut tree = RefinementTree::new();
        // Refine cells that contain actual points so the tree is exercised.
        for (i, d) in refinements {
            if let Some(p) = points.get(i.min(points.len().saturating_sub(1))) {
                tree.set_depth(g.key_of(*p), d);
            }
        }

        let mut brute = BTreeSet::new();
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                if DistanceMetric::Chebyshev.within(&points[i], &points[j], eps) {
                    brute.insert((i, j));
                }
            }
        }

        let unrefined_lemma1 =
            discovered_pairs(&points, eps, |p| (g.key_of(p), g.lemma1_query_keys(p, eps)));
        let refined_lemma1 = discovered_pairs(&points, eps, |p| {
            (g.key_of_refined(&tree, p), g.lemma1_query_keys_refined(&tree, p, eps))
        });
        let refined_full = discovered_pairs(&points, eps, |p| {
            (g.key_of_refined(&tree, p), g.full_query_keys_refined(&tree, p, eps))
        });

        prop_assert_eq!(&refined_lemma1, &unrefined_lemma1, "lemma1: refined ≠ unrefined");
        prop_assert_eq!(&refined_lemma1, &brute, "lemma1 refined ≠ brute force");
        prop_assert_eq!(&refined_full, &brute, "full refined ≠ brute force");
    }

    #[test]
    fn nearest_k_equals_brute_force(
        points in arb_points(200),
        q in arb_point(),
        k in 1usize..12,
        metric_idx in 0usize..3,
    ) {
        let metric = [DistanceMetric::L1, DistanceMetric::L2, DistanceMetric::Chebyshev][metric_idx];
        let mut items: Vec<(Point, usize)> = points.iter().copied().zip(0..).collect();
        let tree = RTree::bulk_load_with_max_entries(6, &mut items);
        let got = tree.nearest_k(&q, k, metric);
        let mut want: Vec<f64> = points.iter().map(|p| p.distance(&q, metric)).collect();
        want.sort_by(f64::total_cmp);
        want.truncate(k);
        prop_assert_eq!(got.len(), want.len());
        for ((_, _, d), w) in got.iter().zip(&want) {
            prop_assert!((d - w).abs() < 1e-9, "dist {} vs brute {}", d, w);
        }
        // Sorted ascending.
        prop_assert!(got.windows(2).all(|w| w[0].2 <= w[1].2));
    }

    #[test]
    fn gr_index_range_query_equals_brute_force(
        points in arb_points(250),
        q in arb_point(),
        eps in 0.1f64..15.0,
        lg in 0.5f64..20.0,
    ) {
        let pairs: Vec<(ObjectId, Point)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (ObjectId(i as u32), *p))
            .collect();
        let idx = GrIndex::build_from_pairs(pairs.clone(), lg);
        let metric = DistanceMetric::Chebyshev;
        let mut got: Vec<u32> = idx.range_query(&q, eps, metric).into_iter().map(|(id, _)| id.0).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = pairs.iter()
            .filter(|(_, p)| metric.within(&q, p, eps))
            .map(|(id, _)| id.0)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
