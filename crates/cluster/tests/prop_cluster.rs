//! Property-based tests: all three clustering methods ≡ the naive oracle on
//! random point sets, across metrics and grid widths, and the per-cell
//! GridQuery kernel ≡ a brute-force per-cell join.

use icpe_cluster::naive::{naive_dbscan, naive_range_join};
use icpe_cluster::query::{canonical, NeighborPair};
use icpe_cluster::{
    CellQueryEngine, GdcClusterer, GridObject, RjcClusterer, SnapshotClusterer, SrjClusterer,
};
use icpe_index::GridKey;
use icpe_types::{
    ClusterSnapshot, DbscanParams, DistanceMetric, ObjectId, Point, Snapshot, Timestamp,
};
use proptest::prelude::*;

fn snapshot_strategy(max_points: usize) -> impl Strategy<Value = Snapshot> {
    prop::collection::vec((-30.0f64..30.0, -30.0f64..30.0), 0..max_points).prop_map(|pts| {
        Snapshot::from_pairs(
            Timestamp(0),
            pts.into_iter()
                .enumerate()
                .map(|(i, (x, y))| (ObjectId(i as u32), Point::new(x, y))),
        )
    })
}

/// ε values that are exact in binary (so lattice distances hit ε exactly)
/// or arbitrary (so they land within rounding of it).
fn eps_strategy() -> impl Strategy<Value = f64> {
    (
        prop::bool::ANY,
        prop::sample::select(vec![0.25, 0.5, 1.0, 2.0, 3.0]),
        0.1f64..8.0,
    )
        .prop_map(|(exact, dyadic, any)| if exact { dyadic } else { any })
}

/// A snapshot on a lattice of pitch ε/4 — exact-ε ties between points and
/// ties with cell borders (`lg` is a multiple of the pitch too) are common —
/// optionally shifted to ~1e6, where `Rect::range_pad` decides whether a
/// rounded tie is still found. Yields `(snapshot, eps, lg)`.
fn lattice_strategy(max_points: usize) -> impl Strategy<Value = (Snapshot, f64, f64)> {
    (
        eps_strategy(),
        1u32..40,
        prop::bool::ANY,
        prop::collection::vec((-24i32..24, -24i32..24), 0..max_points),
    )
        .prop_map(|(eps, lg_steps, far, ks)| {
            let pitch = eps / 4.0;
            let origin = if far { 1e6 } else { 0.0 };
            let snap = Snapshot::from_pairs(
                Timestamp(0),
                ks.into_iter().enumerate().map(|(i, (kx, ky))| {
                    (
                        ObjectId(i as u32),
                        Point::new(origin + kx as f64 * pitch, origin + ky as f64 * pitch),
                    )
                }),
            );
            (snap, eps, lg_steps as f64 * pitch)
        })
}

/// `v` moved by `ulps` representable steps (negative: downwards).
fn nudge(mut v: f64, ulps: i32) -> f64 {
    for _ in 0..ulps.abs() {
        v = if ulps > 0 { v.next_up() } else { v.next_down() };
    }
    v
}

/// One cell's grid objects for the kernel tests, with ε. Ids repeat (so
/// the equal-id exclusion is exercised). Coordinates come from one of three
/// modes, near the origin or near 1e6:
/// * uniform in `[−4ε, 4ε)`;
/// * the ε/4 lattice (exact ties when ε is dyadic);
/// * tie chains: each object sits ε (± a few ulps) from an earlier one, so
///   the computed distance straddles ε by rounding. Near the origin these
///   chains cross zero, where `x ± ε` rounds differently from the distance
///   and only `Rect::range_pad` keeps the x window a superset.
fn cell_strategy(max_objects: usize) -> impl Strategy<Value = (Vec<GridObject>, f64)> {
    (
        eps_strategy(),
        0u8..3,
        prop::bool::ANY,
        prop::collection::vec(
            (
                (0u32..40, prop::bool::ANY),
                (-16i32..16, -16i32..16),
                (-4.0f64..4.0, -4.0f64..4.0),
                (0usize..1000, -1i32..2, -1i32..2),
                (-2i32..3, -2i32..3),
            ),
            0..max_objects,
        ),
    )
        .prop_map(|(eps, mode, far, raw)| {
            let origin = if far { 1e6 } else { 0.0 };
            let key = GridKey::new(0, 0);
            let mut placed: Vec<Point> = Vec::with_capacity(raw.len());
            let mut objects = Vec::with_capacity(raw.len());
            for ((id, is_query), (kx, ky), (fx, fy), (anchor, sx, sy), (ux, uy)) in raw {
                let at = match mode {
                    0 => Point::new(origin + fx * eps, origin + fy * eps),
                    1 => Point::new(
                        origin + kx as f64 * eps / 4.0,
                        origin + ky as f64 * eps / 4.0,
                    ),
                    _ if placed.is_empty() => Point::new(origin + fx * eps, origin + fy * eps),
                    _ => {
                        let a = placed[anchor % placed.len()];
                        Point::new(
                            nudge(a.x + sx as f64 * eps, ux),
                            nudge(a.y + sy as f64 * eps, uy),
                        )
                    }
                };
                placed.push(at);
                let (id, t) = (ObjectId(id), Timestamp(0));
                objects.push(if is_query {
                    GridObject::query(key, id, at, t)
                } else {
                    GridObject::data(key, id, at, t)
                });
            }
            (objects, eps)
        })
}

/// The per-cell join by brute force, as a sorted multiset: every data–data
/// pair once plus every query–data pair, minus pairs of equal ids.
fn brute_cell_pairs(objects: &[GridObject], eps: f64, metric: DistanceMetric) -> Vec<NeighborPair> {
    let mut out = Vec::new();
    for (i, a) in objects.iter().enumerate() {
        for (j, b) in objects.iter().enumerate() {
            let counted = if a.is_query {
                !b.is_query
            } else {
                !b.is_query && i < j
            };
            if counted && a.id != b.id && metric.within(&a.location, &b.location, eps) {
                out.push(canonical(a.id, b.id));
            }
        }
    }
    out.sort_unstable();
    out
}

const METRICS: [DistanceMetric; 3] = [
    DistanceMetric::L1,
    DistanceMetric::L2,
    DistanceMetric::Chebyshev,
];

fn metric_strategy() -> impl Strategy<Value = DistanceMetric> {
    prop::sample::select(vec![
        DistanceMetric::L1,
        DistanceMetric::L2,
        DistanceMetric::Chebyshev,
    ])
}

/// Cluster snapshots are comparable after normalization; border points can
/// legitimately attach to different (adjacent) clusters, so compare the
/// member multiset and the cluster count.
fn comparable(cs: &ClusterSnapshot) -> (usize, Vec<ObjectId>) {
    let mut members: Vec<ObjectId> = cs
        .clusters
        .iter()
        .flat_map(|c| c.members().iter().copied())
        .collect();
    members.sort_unstable();
    (cs.clusters.len(), members)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rjc_join_equals_naive(
        uniform in (snapshot_strategy(120), 0.1f64..8.0, 0.5f64..15.0),
        lattice in lattice_strategy(120),
        use_lattice in prop::bool::ANY,
        metric in metric_strategy(),
    ) {
        let (snap, eps, lg) = if use_lattice { lattice } else { uniform };
        let rjc = RjcClusterer::new(lg, DbscanParams::new(eps, 3).unwrap(), metric);
        prop_assert_eq!(rjc.range_join(&snap), naive_range_join(&snap, eps, metric));
    }

    /// The sort-sweep (`run_cell`) and the incremental path (`push_data`
    /// then `push_query`) both emit exactly the brute-force per-cell pair
    /// multiset — duplicates counted — under every metric, and a reused
    /// engine behaves like a fresh one.
    #[test]
    fn cell_kernel_equals_brute_force(
        (objects, eps) in cell_strategy(60),
    ) {
        for metric in METRICS {
            let want = brute_cell_pairs(&objects, eps, metric);
            let mut engine = CellQueryEngine::new(eps, metric);
            for _reuse in 0..2 {
                let mut swept = Vec::new();
                engine.run_cell(&objects, &mut swept);
                swept.sort_unstable();
                prop_assert_eq!(&swept, &want, "run_cell under {:?}", metric);
            }

            engine.clear();
            let mut incremental = Vec::new();
            for o in objects.iter().filter(|o| !o.is_query) {
                engine.push_data(o.id, o.location, &mut incremental);
            }
            for o in objects.iter().filter(|o| o.is_query) {
                engine.push_query(o.id, o.location, &mut incremental);
            }
            incremental.sort_unstable();
            prop_assert_eq!(&incremental, &want, "push_data/push_query under {:?}", metric);
            prop_assert_eq!(engine.len(), objects.iter().filter(|o| !o.is_query).count());
        }
    }

    #[test]
    fn srj_join_equals_naive(
        snap in snapshot_strategy(100),
        eps in 0.1f64..8.0,
        lg in 0.5f64..15.0,
        metric in metric_strategy(),
    ) {
        let srj = SrjClusterer::new(lg, DbscanParams::new(eps, 3).unwrap(), metric);
        prop_assert_eq!(srj.range_join(&snap), naive_range_join(&snap, eps, metric));
    }

    #[test]
    fn gdc_join_equals_naive(
        snap in snapshot_strategy(100),
        eps in 0.1f64..8.0,
        metric in metric_strategy(),
    ) {
        let gdc = GdcClusterer::new(DbscanParams::new(eps, 3).unwrap(), metric);
        prop_assert_eq!(gdc.range_join(&snap), naive_range_join(&snap, eps, metric));
    }

    #[test]
    fn all_methods_cluster_identically(
        snap in snapshot_strategy(90),
        eps in 0.2f64..6.0,
        lg in 0.5f64..12.0,
        min_pts in 1usize..8,
    ) {
        let params = DbscanParams::new(eps, min_pts).unwrap();
        let metric = DistanceMetric::Chebyshev;
        let rjc = RjcClusterer::new(lg, params, metric).cluster(&snap);
        let srj = SrjClusterer::new(lg, params, metric).cluster(&snap);
        let gdc = GdcClusterer::new(params, metric).cluster(&snap);
        let oracle = naive_dbscan(&snap, &params, metric);

        prop_assert_eq!(comparable(&rjc), comparable(&oracle));
        prop_assert_eq!(comparable(&srj), comparable(&oracle));
        prop_assert_eq!(comparable(&gdc), comparable(&oracle));
    }

    /// Core points (whose cluster assignment is deterministic) must be
    /// grouped identically by RJC and the oracle: same partition, not just
    /// the same membership multiset.
    #[test]
    fn rjc_core_partition_matches_oracle(
        snap in snapshot_strategy(80),
        eps in 0.2f64..6.0,
        min_pts in 2usize..6,
    ) {
        let params = DbscanParams::new(eps, min_pts).unwrap();
        let metric = DistanceMetric::Chebyshev;
        let detailed = RjcClusterer::new(3.0, params, metric).cluster_detailed(&snap);
        let oracle = naive_dbscan(&snap, &params, metric);

        // Map each core to its cluster index in both partitions; the induced
        // equivalence relations over cores must coincide.
        let core_set: std::collections::HashSet<ObjectId> =
            detailed.cores.iter().copied().collect();
        let cluster_of = |cs: &ClusterSnapshot, id: ObjectId| -> Option<usize> {
            cs.clusters.iter().position(|c| c.contains(id))
        };
        for &a in &detailed.cores {
            for &b in &detailed.cores {
                if core_set.contains(&a) && core_set.contains(&b) {
                    let same_rjc =
                        cluster_of(&detailed.snapshot, a) == cluster_of(&detailed.snapshot, b);
                    let same_oracle = cluster_of(&oracle, a) == cluster_of(&oracle, b);
                    prop_assert_eq!(same_rjc, same_oracle,
                        "cores {:?} {:?} grouped differently", a, b);
                }
            }
        }
    }
}
