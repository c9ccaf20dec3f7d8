//! The deterministic, in-process ICPE engine.

use crate::config::{ClustererKind, IcpeConfig};
use crate::pipeline::build_engine;
use icpe_cluster::{GdcClusterer, RjcClusterer, SnapshotClusterer, SrjClusterer};
use icpe_pattern::PatternEngine;
use icpe_types::{ClusterSnapshot, Pattern, Snapshot};
use std::time::Duration;

/// Per-phase timing accumulated by [`IcpeEngine`] — the decomposition behind
/// the stacked latency bars of Figures 12–13.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Total time spent in the clustering phase.
    pub clustering: Duration,
    /// Total time spent in the enumeration phase.
    pub enumeration: Duration,
    /// Number of snapshots processed.
    pub snapshots: usize,
    /// Sum of cluster sizes and cluster count (for the average-cluster-size
    /// series of Figures 12–13).
    pub cluster_members: usize,
    /// Number of clusters seen.
    pub clusters: usize,
}

impl PhaseTimings {
    /// Mean clustering latency per snapshot.
    pub fn avg_clustering(&self) -> Duration {
        checked_div(self.clustering, self.snapshots)
    }

    /// Mean enumeration latency per snapshot.
    pub fn avg_enumeration(&self) -> Duration {
        checked_div(self.enumeration, self.snapshots)
    }

    /// Mean cluster size over the stream.
    pub fn avg_cluster_size(&self) -> f64 {
        if self.clusters == 0 {
            0.0
        } else {
            self.cluster_members as f64 / self.clusters as f64
        }
    }
}

fn checked_div(d: Duration, n: usize) -> Duration {
    if n == 0 {
        Duration::ZERO
    } else {
        d / n as u32
    }
}

/// The synchronous ICPE engine: push snapshots in time order, collect
/// patterns. Snapshots must be dense in time (every tick, possibly empty);
/// [`icpe_gen::TraceSet::to_snapshots`]-style input or the runtime's aligner
/// output both satisfy this.
pub struct IcpeEngine {
    clusterer: Box<dyn SnapshotClusterer + Send>,
    enumerator: Box<dyn PatternEngine + Send>,
    timings: PhaseTimings,
}

impl IcpeEngine {
    /// Builds the engine from a configuration.
    pub fn new(config: IcpeConfig) -> Self {
        let clusterer: Box<dyn SnapshotClusterer + Send> = match config.clusterer {
            ClustererKind::Rjc => {
                Box::new(RjcClusterer::new(config.lg, config.dbscan, config.metric))
            }
            ClustererKind::Srj => {
                Box::new(SrjClusterer::new(config.lg, config.dbscan, config.metric))
            }
            ClustererKind::Gdc => Box::new(GdcClusterer::new(config.dbscan, config.metric)),
        };
        let enumerator = build_engine(config.enumerator, config.engine_config());
        IcpeEngine {
            clusterer,
            enumerator,
            timings: PhaseTimings::default(),
        }
    }

    /// Clusters one snapshot and feeds the result to the enumeration engine;
    /// returns any patterns that became reportable.
    pub fn push_snapshot(&mut self, snapshot: Snapshot) -> Vec<Pattern> {
        let t0 = std::time::Instant::now();
        let clusters = self.clusterer.cluster(&snapshot);
        let t1 = std::time::Instant::now();
        let patterns = self.enumerator.push(&clusters);
        let t2 = std::time::Instant::now();

        self.timings.clustering += t1 - t0;
        self.timings.enumeration += t2 - t1;
        self.timings.snapshots += 1;
        self.timings.clusters += clusters.clusters.len();
        self.timings.cluster_members += clusters
            .clusters
            .iter()
            .map(icpe_types::Cluster::len)
            .sum::<usize>();
        patterns
    }

    /// Feeds an externally clustered snapshot (skips the clustering phase).
    pub fn push_cluster_snapshot(&mut self, clusters: &ClusterSnapshot) -> Vec<Pattern> {
        let t1 = std::time::Instant::now();
        let patterns = self.enumerator.push(clusters);
        self.timings.enumeration += t1.elapsed();
        self.timings.snapshots += 1;
        patterns
    }

    /// Flushes the enumeration engine at end of stream.
    pub fn finish(&mut self) -> Vec<Pattern> {
        self.enumerator.finish()
    }

    /// The per-phase timings accumulated so far.
    pub fn timings(&self) -> PhaseTimings {
        self.timings
    }

    /// Names of the configured methods, `(clusterer, enumerator)`.
    pub fn method_names(&self) -> (&'static str, &'static str) {
        (self.clusterer.name(), self.enumerator.name())
    }

    /// Partitions the enumerator refused (Baseline blow-up guard; 0 for
    /// FBA/VBA). Non-zero means the pattern result is incomplete.
    pub fn overflowed_partitions(&self) -> usize {
        self.enumerator.overflowed_partitions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnumeratorKind;
    use icpe_pattern::unique_object_sets;
    use icpe_types::{Constraints, ObjectId, Point, Timestamp};

    fn config(enumerator: EnumeratorKind) -> IcpeConfig {
        IcpeConfig::builder()
            .constraints(Constraints::new(3, 4, 2, 2).unwrap())
            .epsilon(1.0)
            .min_pts(3)
            .enumerator(enumerator)
            .build()
            .unwrap()
    }

    /// Three objects walking together, two wandering far away.
    fn walking_snapshots(ticks: u32) -> Vec<Snapshot> {
        (0..ticks)
            .map(|t| {
                let base = t as f64 * 0.5;
                Snapshot::from_pairs(
                    Timestamp(t),
                    [
                        (ObjectId(1), Point::new(base, 0.0)),
                        (ObjectId(2), Point::new(base + 0.3, 0.3)),
                        (ObjectId(3), Point::new(base + 0.6, 0.0)),
                        (ObjectId(8), Point::new(100.0 + base, 50.0)),
                        (ObjectId(9), Point::new(-100.0, 50.0 - base)),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn end_to_end_detects_the_walking_group() {
        for kind in [
            EnumeratorKind::Baseline,
            EnumeratorKind::Fba,
            EnumeratorKind::Vba,
        ] {
            let mut engine = IcpeEngine::new(config(kind));
            let mut patterns = Vec::new();
            for s in walking_snapshots(10) {
                patterns.extend(engine.push_snapshot(s));
            }
            patterns.extend(engine.finish());
            let sets = unique_object_sets(&patterns);
            assert!(
                sets.contains(&vec![ObjectId(1), ObjectId(2), ObjectId(3)]),
                "{kind:?}: {sets:?}"
            );
            // The far-away wanderers never cluster.
            assert!(sets
                .iter()
                .all(|s| !s.contains(&ObjectId(8)) && !s.contains(&ObjectId(9))));
        }
    }

    #[test]
    fn timings_accumulate() {
        let mut engine = IcpeEngine::new(config(EnumeratorKind::Fba));
        for s in walking_snapshots(6) {
            engine.push_snapshot(s);
        }
        let t = engine.timings();
        assert_eq!(t.snapshots, 6);
        assert!(t.avg_cluster_size() >= 3.0);
        assert!(t.clustering > Duration::ZERO);
    }

    #[test]
    fn all_clusterers_agree_end_to_end() {
        let mut results = Vec::new();
        for kind in [ClustererKind::Rjc, ClustererKind::Srj, ClustererKind::Gdc] {
            let cfg = IcpeConfig::builder()
                .constraints(Constraints::new(3, 4, 2, 2).unwrap())
                .epsilon(1.0)
                .min_pts(3)
                .clusterer(kind)
                .build()
                .unwrap();
            let mut engine = IcpeEngine::new(cfg);
            let mut patterns = Vec::new();
            for s in walking_snapshots(10) {
                patterns.extend(engine.push_snapshot(s));
            }
            patterns.extend(engine.finish());
            results.push(unique_object_sets(&patterns));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn method_names_are_exposed() {
        let engine = IcpeEngine::new(config(EnumeratorKind::Vba));
        assert_eq!(engine.method_names(), ("RJC", "VBA"));
    }
}
