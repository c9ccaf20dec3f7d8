//! The traced replay: the workload's wire lines pushed single-threaded
//! through each layer's public functions, in the order the deployed system
//! applies them, with a span around every call (or loop of calls) into a
//! layer:
//!
//! ```text
//! serve.parse        WireRecord::parse              per ingest batch
//! types.stamp        Discretizer::push              per ingest batch
//! runtime.align      ShardedAligner::route/drain_sealed (+ row buffering)
//! core.snapshot      one sealed snapshot, parent of:
//!   cluster.allocate   grid_allocate
//!   cluster.query      cell grouping + CellQueryEngine::new + pushes
//!   cluster.sync       PairCollector::extend
//!   cluster.dbscan     dbscan_from_pairs
//!   pattern.enumerate  PatternEngine::push
//!   serve.render       event lines as the server renders them
//!   serve.publish      Hub::publish
//! ```
//!
//! The replay's sealed patterns must equal the oracle's; it also serves as
//! the untraced baseline for the tracing overhead (same code, recorder off).

use crate::oracle::{key, PatternKey};
use crate::trace::Tracer;
use crate::workload::{Input, INTERVAL_S};
use icpe_cluster::{dbscan_from_pairs, grid_allocate, CellQueryEngine, GridObject, PairCollector};
use icpe_core::{EnumeratorKind, IcpeConfig};
use icpe_index::{Grid, GridKey};
use icpe_pattern::{BaselineEngine, EngineConfig, FbaEngine, PatternEngine, VbaEngine};
use icpe_runtime::{Routed, ShardedAligner};
use icpe_serve::hub::Hub;
use icpe_serve::protocol::EventKind;
use icpe_serve::{PatternEvent, SnapshotEvent, Topic, WireRecord};
use icpe_types::{ObjectId, Pattern, Point, RawRecord, Snapshot, Timestamp};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Work counts of one replay (identical for traced and untraced runs).
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub records: u64,
    pub late: u64,
    pub snapshots: u64,
    pub snapshot_rows: u64,
    pub grid_objects: u64,
    pub cells: u64,
    /// Grid objects per (snapshot, cell).
    pub cell_sizes: Vec<f64>,
    pub pairs_found: u64,
    pub pairs_duplicate: u64,
    pub clusters: u64,
    pub cluster_members: u64,
    pub patterns: u64,
    pub events: u64,
    /// Most rows buffered in the aligner at once.
    pub pending_rows_max: u64,
}

pub struct Replay {
    pub patterns: Vec<PatternKey>,
    pub counts: Counts,
    pub elapsed_s: f64,
    pub tracer: Tracer,
}

struct Layers<'a> {
    config: &'a IcpeConfig,
    grid: Grid,
    engine: Box<dyn PatternEngine>,
    hub: Hub,
    subscriber: icpe_serve::hub::SubscriberHandle,
    tr: Tracer,
    counts: Counts,
    patterns: Vec<PatternKey>,
    pairs: Vec<(ObjectId, ObjectId)>,
}

impl Layers<'_> {
    fn snapshot(&mut self, snapshot: Snapshot) {
        let t = snapshot.time.0;
        let eps = self.config.dbscan.eps;
        self.tr.enter("core.snapshot", t);

        self.tr.enter("cluster.allocate", t);
        let objects = grid_allocate(&snapshot, &self.grid, eps);
        self.tr.exit();

        self.tr.enter("cluster.query", t);
        let mut cells: HashMap<GridKey, Vec<&GridObject>> = HashMap::new();
        for o in &objects {
            cells.entry(o.key).or_default().push(o);
        }
        for cell in cells.values() {
            let mut engine = CellQueryEngine::new(eps, self.config.metric);
            for o in cell.iter().filter(|o| !o.is_query) {
                engine.push_data(o.id, o.location, &mut self.pairs);
            }
            for o in cell.iter().filter(|o| o.is_query) {
                engine.push_query(o.id, o.location, &mut self.pairs);
            }
        }
        self.tr.exit();

        self.tr.enter("cluster.sync", t);
        let found = self.pairs.len() as u64;
        let mut collector = PairCollector::new();
        collector.extend(self.pairs.drain(..));
        let duplicates = collector.duplicates() as u64;
        let pairs = collector.into_pairs();
        self.tr.exit();

        self.tr.enter("cluster.dbscan", t);
        let ids: Vec<ObjectId> = snapshot.entries.iter().map(|e| e.id).collect();
        let clusters = dbscan_from_pairs(snapshot.time, &ids, &pairs, &self.config.dbscan).snapshot;
        self.tr.exit();

        self.tr.enter("pattern.enumerate", t);
        let found_patterns = self.engine.push(&clusters);
        self.tr.exit();

        self.publish(t, &found_patterns, true);
        self.tr.exit();

        let c = &mut self.counts;
        c.snapshots += 1;
        c.snapshot_rows += snapshot.len() as u64;
        c.grid_objects += objects.len() as u64;
        c.cells += cells.len() as u64;
        c.cell_sizes.extend(cells.values().map(|v| v.len() as f64));
        c.pairs_found += found;
        c.pairs_duplicate += duplicates;
        c.clusters += clusters.clusters.len() as u64;
        c.cluster_members += clusters
            .clusters
            .iter()
            .map(|c| c.len() as u64)
            .sum::<u64>();
        self.patterns.extend(found_patterns.iter().map(key));
    }

    /// Renders and publishes the snapshot's pattern events (and its sealed
    /// notice), as the server's pipeline-to-hub bridge does, then drains the
    /// subscriber queue outside the spans.
    fn publish(&mut self, t: u32, patterns: &[Pattern], sealed: bool) {
        self.tr.enter("serve.render", t);
        let mut lines: Vec<(EventKind, Arc<str>)> = patterns
            .iter()
            .map(|p| {
                let line = serde_json::to_string(&PatternEvent::from_pattern(p))
                    .expect("pattern event serializes");
                (EventKind::Pattern, Arc::from(line.as_str()))
            })
            .collect();
        if sealed {
            let event = SnapshotEvent {
                event: "snapshot".to_string(),
                time: t,
                patterns: patterns.len() as u32,
            };
            let line = serde_json::to_string(&event).expect("snapshot event serializes");
            lines.push((EventKind::Snapshot, Arc::from(line.as_str())));
        }
        self.tr.exit();
        self.tr.enter("serve.publish", t);
        for (kind, line) in &lines {
            self.hub.publish(*kind, line);
        }
        self.tr.exit();
        self.counts.events += lines.len() as u64;
        while self.subscriber.lines().try_recv().is_ok() {}
    }
}

fn pattern_engine(config: &IcpeConfig) -> Box<dyn PatternEngine> {
    let mut engine = EngineConfig::new(config.constraints).with_semantics(config.semantics);
    engine.max_baseline_partition = config.max_baseline_partition;
    match config.enumerator {
        EnumeratorKind::Baseline => Box::new(BaselineEngine::new(engine)),
        EnumeratorKind::Fba => Box::new(FbaEngine::new(engine)),
        EnumeratorKind::Vba => Box::new(VbaEngine::new(engine)),
    }
}

/// Replays `input` through the layers, ingest batches of `batch` lines.
pub fn run(
    config: &IcpeConfig,
    input: &Input,
    batch: usize,
    traced: bool,
) -> Result<Replay, String> {
    let hub = Hub::new(1 << 16);
    let subscriber = hub.subscribe(Topic::All);
    let mut layers = Layers {
        config,
        grid: Grid::new(config.lg),
        engine: pattern_engine(config),
        hub,
        subscriber,
        tr: Tracer::new(traced),
        counts: Counts::default(),
        patterns: Vec::new(),
        pairs: Vec::new(),
    };
    let mut discretizer =
        icpe_types::Discretizer::new(0.0, INTERVAL_S).map_err(|e| e.to_string())?;
    let mut aligner = ShardedAligner::new(config.aligner, 1);
    let mut rows: BTreeMap<u32, Snapshot> = BTreeMap::new();
    let mut pending_rows = 0u64;
    let mut wires = Vec::with_capacity(batch);
    let mut stamped = Vec::with_capacity(batch);
    let mut sealed = Vec::new();
    let started = Instant::now();
    for (i, chunk) in input.lines.chunks(batch.max(1)).enumerate() {
        // Ingest spans carry the tick of the batch's first record.
        let tick = input.records[i * batch.max(1)].time.0;
        layers.tr.enter("serve.parse", tick);
        for line in chunk {
            wires.push(WireRecord::parse(line).map_err(|e| format!("parse {line:?}: {e}"))?);
        }
        layers.tr.exit();

        layers.tr.enter("types.stamp", tick);
        for w in wires.drain(..) {
            let raw = RawRecord::new(ObjectId(w.id), Point::new(w.x, w.y), w.time);
            // Inputs keep each object's reports in time order, so nothing
            // stamps stale.
            stamped.push(discretizer.push(&raw).ok_or("a record stamped stale")?);
        }
        layers.tr.exit();

        layers.tr.enter("runtime.align", tick);
        for r in stamped.drain(..) {
            match aligner.route(&r) {
                Routed::Keep { .. } => {
                    rows.entry(r.time.0)
                        .or_insert_with(|| Snapshot::new(r.time))
                        .push(r.id, r.location, r.last_time);
                    pending_rows += 1;
                }
                Routed::Late { .. } => layers.counts.late += 1,
            }
            aligner.drain_sealed(&mut sealed);
        }
        layers.tr.exit();
        layers.counts.records += chunk.len() as u64;
        layers.counts.pending_rows_max = layers.counts.pending_rows_max.max(pending_rows);

        for t in sealed.drain(..) {
            let snapshot = rows
                .remove(&t)
                .unwrap_or_else(|| Snapshot::new(Timestamp(t)));
            pending_rows -= snapshot.len() as u64;
            layers.snapshot(snapshot);
        }
    }
    for t in aligner.flush_times() {
        let snapshot = rows
            .remove(&t)
            .unwrap_or_else(|| Snapshot::new(Timestamp(t)));
        layers.snapshot(snapshot);
    }
    let last = input.tick_last_pos.len() as u32;
    layers.tr.enter("pattern.enumerate", last);
    let rest = layers.engine.finish();
    layers.tr.exit();
    layers.publish(last, &rest, false);
    layers.patterns.extend(rest.iter().map(key));
    let elapsed_s = started.elapsed().as_secs_f64();
    layers.counts.patterns = layers.patterns.len() as u64;
    Ok(Replay {
        patterns: layers.patterns,
        counts: layers.counts,
        elapsed_s,
        tracer: layers.tr,
    })
}
