//! **GridQuery** — Algorithm 2 of the paper.
//!
//! One engine instance owns one grid cell's data objects for one snapshot,
//! kept as a flat vector sorted by x. A probe binary-searches to `x − ε′`
//! and scans forward to `x + ε′`, where `ε′ = ε + Rect::range_pad` keeps the
//! x window a superset of every metric ball (rounding ties included); the
//! metric itself decides each candidate.
//!
//! Data objects are processed *query-then-insert* (Lemma 2): each data object
//! probes the data objects that arrived before it and is then inserted, so
//! every same-cell pair is reported exactly once, by whichever partner
//! arrives later. [`CellQueryEngine::run_cell`], the bulk path, gets the
//! same guarantee with no incremental index at all: it sorts the cell's data
//! once and sweeps forward only, so each pair is found from its left
//! partner. Query objects only probe and are never inserted.

use crate::gridobject::GridObject;
use icpe_types::{DistanceMetric, ObjectId, Point, Rect};

/// A neighbor pair `(u, v)` with `d(u, v) ≤ ε`, canonicalized to `u < v`.
pub type NeighborPair = (ObjectId, ObjectId);

/// The per-cell range-query engine: a sort-sweep over one
/// `(snapshot, grid cell)`'s objects. One engine can serve many cells and
/// keeps its allocation: [`CellQueryEngine::run_cell`] starts afresh, and
/// [`CellQueryEngine::clear`] resets the incremental path.
#[derive(Debug)]
pub struct CellQueryEngine {
    /// The data objects inserted so far, sorted by x.
    data: Vec<(Point, ObjectId)>,
    eps: f64,
    metric: DistanceMetric,
}

impl CellQueryEngine {
    /// Creates an engine for one cell.
    pub fn new(eps: f64, metric: DistanceMetric) -> Self {
        CellQueryEngine {
            data: Vec::new(),
            eps,
            metric,
        }
    }

    /// Forgets every data object, keeping the allocation for the next cell.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Processes a data object: probe the data inserted so far, then insert
    /// it in x order (Lemma 2, Algorithm 2 lines 2–4). Emits discovered
    /// pairs.
    pub fn push_data(&mut self, id: ObjectId, location: Point, out: &mut Vec<NeighborPair>) {
        self.probe(id, location, out);
        let at = self.data.partition_point(|(p, _)| p.x <= location.x);
        self.data.insert(at, (location, id));
    }

    /// Processes a query object: probe only (Algorithm 2 lines 5–6).
    pub fn push_query(&mut self, id: ObjectId, location: Point, out: &mut Vec<NeighborPair>) {
        self.probe(id, location, out);
    }

    /// Joins one whole cell of grid objects, in any order, replacing
    /// whatever the engine held. The data objects are sorted once and
    /// swept forward, so each data pair is found once, from its left
    /// partner; query objects then probe. Afterwards the engine holds the
    /// cell's data objects.
    pub fn run_cell(&mut self, objects: &[GridObject], out: &mut Vec<NeighborPair>) {
        self.data.clear();
        self.data.extend(
            objects
                .iter()
                .filter(|o| !o.is_query)
                .map(|o| (o.location, o.id)),
        );
        self.data.sort_unstable_by(|a, b| a.0.x.total_cmp(&b.0.x));
        for (i, &(p, id)) in self.data.iter().enumerate() {
            let hi = p.x + self.reach(p);
            for &(q, other) in &self.data[i + 1..] {
                if q.x > hi {
                    break;
                }
                if other != id && self.metric.within(&p, &q, self.eps) {
                    out.push(canonical(id, other));
                }
            }
        }
        for o in objects.iter().filter(|o| o.is_query) {
            self.probe(o.id, o.location, out);
        }
    }

    /// Number of data objects inserted so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if no data objects were inserted.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Half-width `ε′` of the x window a probe at `p` scans.
    #[inline]
    fn reach(&self, p: Point) -> f64 {
        self.eps + Rect::range_pad(p, self.eps)
    }

    fn probe(&self, id: ObjectId, location: Point, out: &mut Vec<NeighborPair>) {
        let reach = self.reach(location);
        let (lo, hi) = (location.x - reach, location.x + reach);
        let start = self.data.partition_point(|(p, _)| p.x < lo);
        for &(p, other) in &self.data[start..] {
            if p.x > hi {
                break;
            }
            if other != id && self.metric.within(&location, &p, self.eps) {
                out.push(canonical(id, other));
            }
        }
    }
}

/// Orders a pair so the smaller id comes first.
#[inline]
pub fn canonical(a: ObjectId, b: ObjectId) -> NeighborPair {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icpe_index::GridKey;
    use icpe_types::Timestamp;

    fn oid(v: u32) -> ObjectId {
        ObjectId(v)
    }

    #[test]
    fn lemma2_reports_each_same_cell_pair_once() {
        let mut engine = CellQueryEngine::new(1.0, DistanceMetric::Chebyshev);
        let mut out = Vec::new();
        engine.push_data(oid(1), Point::new(0.0, 0.0), &mut out);
        engine.push_data(oid(2), Point::new(0.5, 0.5), &mut out);
        engine.push_data(oid(3), Point::new(0.7, 0.7), &mut out);
        out.sort_unstable();
        assert_eq!(
            out,
            vec![(oid(1), oid(2)), (oid(1), oid(3)), (oid(2), oid(3))]
        );
        assert_eq!(engine.len(), 3);
    }

    #[test]
    fn query_objects_probe_but_do_not_insert() {
        let mut engine = CellQueryEngine::new(1.0, DistanceMetric::Chebyshev);
        let mut out = Vec::new();
        engine.push_data(oid(1), Point::new(0.0, 0.0), &mut out);
        engine.push_query(oid(9), Point::new(0.5, 0.5), &mut out);
        assert_eq!(out, vec![(oid(1), oid(9))]);
        assert_eq!(engine.len(), 1, "query object must not be inserted");
        // A second identical query still sees only the data object.
        out.clear();
        engine.push_query(oid(10), Point::new(0.5, 0.5), &mut out);
        assert_eq!(out, vec![(oid(1), oid(10))]);
    }

    #[test]
    fn run_cell_reorders_interleaved_objects() {
        let k = GridKey::new(0, 0);
        let t = Timestamp(0);
        // Query object listed before the data objects it must see.
        let objs = vec![
            GridObject::query(k, oid(9), Point::new(0.5, 0.5), t),
            GridObject::data(k, oid(1), Point::new(0.0, 0.0), t),
            GridObject::data(k, oid(2), Point::new(0.9, 0.9), t),
        ];
        let mut engine = CellQueryEngine::new(1.0, DistanceMetric::Chebyshev);
        let mut out = Vec::new();
        engine.run_cell(&objs, &mut out);
        out.sort_unstable();
        assert_eq!(
            out,
            vec![(oid(1), oid(2)), (oid(1), oid(9)), (oid(2), oid(9))]
        );
    }

    #[test]
    fn metric_is_respected() {
        let mut engine = CellQueryEngine::new(1.0, DistanceMetric::L1);
        let mut out = Vec::new();
        engine.push_data(oid(1), Point::new(0.0, 0.0), &mut out);
        // L1 distance 1.6 > 1.0, Chebyshev 0.8 ≤ 1.0 → excluded under L1.
        engine.push_data(oid(2), Point::new(0.8, 0.8), &mut out);
        assert!(out.is_empty());
        // Object 3 is within L1 range of both earlier objects:
        // d(1,3) = 1.0 and d(2,3) = 0.6.
        engine.push_data(oid(3), Point::new(0.5, 0.5), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![(oid(1), oid(3)), (oid(2), oid(3))]);
    }

    #[test]
    fn duplicate_locations_pair_up() {
        let mut engine = CellQueryEngine::new(0.5, DistanceMetric::Chebyshev);
        let mut out = Vec::new();
        engine.push_data(oid(1), Point::new(2.0, 2.0), &mut out);
        engine.push_data(oid(2), Point::new(2.0, 2.0), &mut out);
        assert_eq!(out, vec![(oid(1), oid(2))]);
    }

    #[test]
    fn run_cell_replaces_earlier_data() {
        let k = GridKey::new(0, 0);
        let t = Timestamp(0);
        let mut engine = CellQueryEngine::new(1.0, DistanceMetric::Chebyshev);
        let mut out = Vec::new();
        engine.push_data(oid(1), Point::new(0.0, 0.0), &mut out);
        let objs = vec![
            GridObject::data(k, oid(2), Point::new(0.5, 0.0), t),
            GridObject::data(k, oid(3), Point::new(1.0, 0.0), t),
        ];
        engine.run_cell(&objs, &mut out);
        assert_eq!(out, vec![(oid(2), oid(3))]);
        assert_eq!(engine.len(), 2);
    }

    #[test]
    fn clear_empties_the_engine_for_reuse() {
        let mut engine = CellQueryEngine::new(1.0, DistanceMetric::L2);
        let mut out = Vec::new();
        engine.push_data(oid(1), Point::new(0.0, 0.0), &mut out);
        engine.clear();
        assert!(engine.is_empty());
        engine.push_data(oid(2), Point::new(0.1, 0.1), &mut out);
        assert!(out.is_empty(), "a cleared engine must not report old data");
    }

    #[test]
    fn sweep_reports_exact_eps_ties_once() {
        // Collinear points exactly ε apart, listed out of x order: every
        // neighbour pair is a boundary tie and must be reported once.
        let k = GridKey::new(0, 0);
        let t = Timestamp(0);
        let objs: Vec<GridObject> = [3u32, 0, 2, 1]
            .iter()
            .map(|&i| GridObject::data(k, oid(i), Point::new(0.25 * i as f64, 1e6), t))
            .collect();
        for metric in [
            DistanceMetric::L1,
            DistanceMetric::L2,
            DistanceMetric::Chebyshev,
        ] {
            let mut engine = CellQueryEngine::new(0.25, metric);
            let mut out = Vec::new();
            engine.run_cell(&objs, &mut out);
            out.sort_unstable();
            assert_eq!(
                out,
                vec![(oid(0), oid(1)), (oid(1), oid(2)), (oid(2), oid(3))],
                "{metric:?}"
            );
        }
    }

    #[test]
    fn canonical_orders_ids() {
        assert_eq!(canonical(oid(5), oid(3)), (oid(3), oid(5)));
        assert_eq!(canonical(oid(3), oid(5)), (oid(3), oid(5)));
        assert_eq!(canonical(oid(4), oid(4)), (oid(4), oid(4)));
    }
}
