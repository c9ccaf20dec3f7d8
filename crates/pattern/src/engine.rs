//! The common pattern-engine interface and the shared η-window bookkeeping
//! used by BA and FBA.

use crate::partition::{id_partitions, Partition};
use crate::runs::Semantics;
use icpe_types::{
    ClusterSnapshot, Constraints, EngineCheckpoint, HistoryRowCheckpoint, ObjectId, Pattern,
    Timestamp, WindowOwnerCheckpoint,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Configuration shared by all three enumeration engines.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The `CP(M, K, L, G)` constraints.
    pub constraints: Constraints,
    /// Validity semantics (see [`Semantics`]).
    pub semantics: Semantics,
    /// Baseline guard: partitions larger than this are skipped (and counted)
    /// instead of enumerating `2^n` subsets — the paper's "B cannot run on
    /// large datasets" behaviour, made explicit.
    pub max_baseline_partition: usize,
}

impl EngineConfig {
    /// Default engine configuration for the given constraints.
    pub fn new(constraints: Constraints) -> Self {
        EngineConfig {
            constraints,
            semantics: Semantics::default(),
            max_baseline_partition: 22,
        }
    }

    /// Overrides the validity semantics.
    pub fn with_semantics(mut self, semantics: Semantics) -> Self {
        self.semantics = semantics;
        self
    }
}

/// A streaming pattern-enumeration engine. Cluster snapshots must be pushed
/// in strictly increasing time order (the runtime's time aligner guarantees
/// a dense, ordered stream).
pub trait PatternEngine {
    /// Engine name ("BA", "FBA", "VBA").
    fn name(&self) -> &'static str;

    /// Ingests one cluster snapshot; returns patterns that became reportable.
    fn push(&mut self, snapshot: &ClusterSnapshot) -> Vec<Pattern> {
        let parts = id_partitions(snapshot, self.significance());
        self.push_partitions(snapshot.time, parts)
    }

    /// The engine's significance constraint `M` (used by the default
    /// [`PatternEngine::push`] to compute partitions).
    fn significance(&self) -> usize;

    /// Ingests the id-based partitions of one time tick directly — the entry
    /// point of the distributed deployment, where a keyed exchange delivers
    /// each subtask only the partitions of the owners it is responsible for
    /// (plus empty ticks to advance time).
    fn push_partitions(&mut self, time: Timestamp, partitions: Vec<Partition>) -> Vec<Pattern>;

    /// Flushes at end of stream; returns the remaining patterns.
    fn finish(&mut self) -> Vec<Pattern>;

    /// How many partitions this engine refused to enumerate (the Baseline's
    /// exponential-blow-up guard; always 0 for FBA/VBA). Non-zero means the
    /// result is incomplete — the paper's "B cannot run on large datasets".
    fn overflowed_partitions(&self) -> usize {
        0
    }

    /// Captures the engine's full streaming state in durable form.
    /// Restore is per-engine ([`FbaEngine::from_checkpoint`] etc.) because
    /// it needs the concrete type back.
    fn checkpoint(&self) -> EngineCheckpoint;
}

/// Deduplicates patterns by object set (the same set may be reported from
/// several windows with different witnessing sequences).
pub fn unique_object_sets(patterns: &[Pattern]) -> Vec<Vec<ObjectId>> {
    let mut sets: Vec<Vec<ObjectId>> = patterns.iter().map(|p| p.objects.clone()).collect();
    sets.sort();
    sets.dedup();
    sets
}

/// One ready-to-process enumeration window: the owner's partitions over
/// `[start, start + window.len())`, where `window[0]` is the partition the
/// candidates are drawn from (always non-empty).
///
/// Rows are shared (`Arc<[ObjectId]>`): one partition's member list is
/// referenced by every overlapping window of its owner (up to η of them),
/// so releasing a window clones reference counts, never member vectors.
#[derive(Debug)]
pub(crate) struct WindowTask {
    pub owner: ObjectId,
    pub start: u32,
    /// Partition member lists per window offset (sorted ascending each).
    pub window: Vec<Arc<[ObjectId]>>,
}

/// Shared η-window state: buffers each owner's partitions, schedules a
/// window per (owner, start time where the owner has a partition), and
/// releases windows once η snapshots are available (or at end of stream).
#[derive(Debug)]
pub(crate) struct WindowState {
    eta: u32,
    histories: HashMap<ObjectId, BTreeMap<u32, Arc<[ObjectId]>>>,
    starts: HashMap<ObjectId, VecDeque<u32>>,
    /// deadline time → owners whose oldest pending start completes then.
    deadlines: BTreeMap<u32, Vec<ObjectId>>,
    last_time: Option<u32>,
    /// The shared empty row filled into window offsets without a partition.
    empty_row: Arc<[ObjectId]>,
}

impl WindowState {
    pub fn new(constraints: &Constraints) -> Self {
        WindowState {
            eta: constraints.eta() as u32,
            histories: HashMap::new(),
            starts: HashMap::new(),
            deadlines: BTreeMap::new(),
            last_time: None,
            empty_row: Arc::from(Vec::new()),
        }
    }

    /// Ingests pre-computed partitions for one time tick.
    pub fn push_partitions(
        &mut self,
        time: Timestamp,
        partitions: Vec<Partition>,
    ) -> Vec<WindowTask> {
        let t = time.0;
        if let Some(prev) = self.last_time {
            assert!(t > prev, "cluster snapshots must arrive in time order");
        }
        self.last_time = Some(t);

        for part in partitions {
            self.histories
                .entry(part.owner)
                .or_default()
                .insert(t, Arc::from(part.members));
            self.starts.entry(part.owner).or_default().push_back(t);
            self.deadlines
                .entry(t + self.eta - 1)
                .or_default()
                .push(part.owner);
        }

        let mut tasks = Vec::new();
        let due: Vec<u32> = self.deadlines.range(..=t).map(|(&d, _)| d).collect();
        for d in due {
            for owner in self.deadlines.remove(&d).unwrap() {
                tasks.push(self.release(owner, d + 1 - self.eta));
            }
        }
        tasks
    }

    /// Flushes the remaining (truncated) windows at end of stream.
    pub fn finish(&mut self) -> Vec<WindowTask> {
        let Some(last) = self.last_time else {
            return Vec::new();
        };
        let mut pending: Vec<(u32, ObjectId)> = Vec::new();
        for (&owner, starts) in &self.starts {
            for &s in starts {
                pending.push((s, owner));
            }
        }
        pending.sort_unstable();
        let mut tasks = Vec::new();
        for (s, owner) in pending {
            let end = last.min(s + self.eta - 1);
            let window = self.window_slice(owner, s, end);
            tasks.push(WindowTask {
                owner,
                start: s,
                window,
            });
        }
        self.histories.clear();
        self.starts.clear();
        self.deadlines.clear();
        tasks
    }

    /// Captures the open-window state in durable, canonical form (owners
    /// ascend by id; starts and history rows ascend by time).
    pub(crate) fn checkpoint(&self) -> (Option<u32>, Vec<WindowOwnerCheckpoint>) {
        let mut owners: Vec<WindowOwnerCheckpoint> = self
            .starts
            .iter()
            .map(|(&owner, starts)| WindowOwnerCheckpoint {
                owner,
                starts: starts.iter().copied().collect(),
                history: self
                    .histories
                    .get(&owner)
                    .map(|h| {
                        h.iter()
                            .map(|(&time, members)| HistoryRowCheckpoint {
                                time,
                                members: members.to_vec(),
                            })
                            .collect()
                    })
                    .unwrap_or_default(),
            })
            .collect();
        owners.sort_by_key(|o| o.owner);
        (self.last_time, owners)
    }

    /// Rebuilds the window state from a checkpoint, keeping only owners for
    /// which `keep` returns true (the restore-time resharding hook: a
    /// restored deployment may run a different parallelism, and each
    /// subtask loads only the owners routed to it). Window release
    /// deadlines are derived from the pending starts, exactly as the
    /// original pushes scheduled them.
    pub(crate) fn restore(
        constraints: &Constraints,
        last_time: Option<u32>,
        owners: &[WindowOwnerCheckpoint],
        keep: impl Fn(ObjectId) -> bool,
    ) -> Self {
        let mut ws = WindowState::new(constraints);
        ws.last_time = last_time;
        for o in owners {
            if !keep(o.owner) {
                continue;
            }
            if !o.starts.is_empty() {
                ws.starts
                    .insert(o.owner, o.starts.iter().copied().collect());
                for &s in &o.starts {
                    ws.deadlines
                        .entry(s + ws.eta - 1)
                        .or_default()
                        .push(o.owner);
                }
            }
            if !o.history.is_empty() {
                ws.histories.insert(
                    o.owner,
                    o.history
                        .iter()
                        .map(|row| (row.time, Arc::from(row.members.as_slice())))
                        .collect(),
                );
            }
        }
        ws
    }

    fn release(&mut self, owner: ObjectId, start: u32) -> WindowTask {
        let popped = self
            .starts
            .get_mut(&owner)
            .and_then(|q| q.pop_front())
            .expect("deadline for owner without pending start");
        debug_assert_eq!(popped, start, "window starts must release in order");
        let window = self.window_slice(owner, start, start + self.eta - 1);
        // Prune history no future window of this owner can reference.
        let keep_from = self.starts.get(&owner).and_then(|q| q.front().copied());
        match keep_from {
            Some(f) => {
                let hist = self.histories.get_mut(&owner).unwrap();
                *hist = hist.split_off(&f);
            }
            None => {
                self.histories.remove(&owner);
                self.starts.remove(&owner);
            }
        }
        WindowTask {
            owner,
            start,
            window,
        }
    }

    fn window_slice(&self, owner: ObjectId, start: u32, end: u32) -> Vec<Arc<[ObjectId]>> {
        let hist = self.histories.get(&owner);
        (start..=end)
            .map(|j| {
                hist.and_then(|h| h.get(&j))
                    .cloned()
                    .unwrap_or_else(|| Arc::clone(&self.empty_row))
            })
            .collect()
    }
}

/// Shared window-task helpers for BA and FBA.
impl WindowTask {
    /// Bitmask rows: for each window offset `j`, a mask over the indices of
    /// `window[0]` marking which candidates are co-clustered with the owner
    /// at offset `j`. Requires `window[0].len() ≤ 64`.
    pub fn member_masks(&self) -> Vec<u64> {
        let members = &self.window[0];
        debug_assert!(members.len() <= 64);
        self.window
            .iter()
            .map(|row| {
                let mut mask = 0u64;
                let mut mi = 0usize;
                // Both lists sorted: merge scan.
                for &id in row.iter() {
                    while mi < members.len() && members[mi] < id {
                        mi += 1;
                    }
                    if mi < members.len() && members[mi] == id {
                        mask |= 1 << mi;
                        mi += 1;
                    }
                }
                mask
            })
            .collect()
    }
}

/// Validity semantics re-export for engine configs.
pub use crate::runs::Semantics as EngineSemantics;

#[cfg(test)]
mod tests {
    use super::*;
    use icpe_types::Timestamp;

    fn oid(v: u32) -> ObjectId {
        ObjectId(v)
    }

    fn cs(t: u32, groups: &[&[u32]]) -> ClusterSnapshot {
        ClusterSnapshot::from_groups(
            Timestamp(t),
            groups
                .iter()
                .map(|g| g.iter().copied().map(ObjectId).collect::<Vec<_>>()),
        )
    }

    fn constraints() -> Constraints {
        // K = 2, L = 1, G = 2 → η = (2−1)×1 + 2 + 1 − 1 = 3.
        Constraints::new(2, 2, 1, 2).unwrap()
    }

    /// Test shim replicating the old snapshot-level push.
    fn push(ws: &mut WindowState, snapshot: ClusterSnapshot) -> Vec<WindowTask> {
        ws.push_partitions(snapshot.time, id_partitions(&snapshot, 2))
    }

    #[test]
    fn window_releases_after_eta_snapshots() {
        let c = constraints();
        assert_eq!(c.eta(), 3);
        let mut ws = WindowState::new(&c);
        assert!(push(&mut ws, cs(0, &[&[1, 2]])).is_empty());
        assert!(push(&mut ws, cs(1, &[&[1, 2]])).is_empty());
        let tasks = push(&mut ws, cs(2, &[&[1, 2]]));
        assert_eq!(tasks.len(), 1);
        let t = &tasks[0];
        assert_eq!(t.owner, oid(1));
        assert_eq!(t.start, 0);
        assert_eq!(t.window.len(), 3);
        assert_eq!(t.window[0].to_vec(), vec![oid(2)]);
    }

    #[test]
    fn missing_times_become_empty_rows() {
        let c = constraints();
        let mut ws = WindowState::new(&c);
        push(&mut ws, cs(0, &[&[1, 2]]));
        push(&mut ws, cs(1, &[]));
        let tasks = push(&mut ws, cs(2, &[]));
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].window[1].to_vec(), Vec::<ObjectId>::new());
        assert_eq!(tasks[0].window[2].to_vec(), Vec::<ObjectId>::new());
    }

    #[test]
    fn finish_truncates_windows() {
        let c = constraints();
        let mut ws = WindowState::new(&c);
        push(&mut ws, cs(5, &[&[1, 2]]));
        push(&mut ws, cs(6, &[&[1, 2]]));
        let tasks = ws.finish();
        assert_eq!(tasks.len(), 2); // starts at 5 and 6
        assert_eq!(tasks[0].start, 5);
        assert_eq!(tasks[0].window.len(), 2);
        assert_eq!(tasks[1].start, 6);
        assert_eq!(tasks[1].window.len(), 1);
    }

    #[test]
    fn member_masks_track_membership() {
        let task = WindowTask {
            owner: oid(1),
            start: 0,
            window: vec![
                Arc::from(vec![oid(2), oid(5), oid(9)]),
                Arc::from(vec![oid(5)]),
                Arc::from(vec![oid(2), oid(9)]),
            ],
        };
        let masks = task.member_masks();
        assert_eq!(masks, vec![0b111, 0b010, 0b101]);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics() {
        let mut ws = WindowState::new(&constraints());
        push(&mut ws, cs(3, &[&[1, 2]]));
        push(&mut ws, cs(3, &[&[1, 2]]));
    }

    #[test]
    fn multiple_owners_release_independently() {
        let c = constraints();
        let mut ws = WindowState::new(&c);
        push(&mut ws, cs(0, &[&[1, 2], &[5, 6]]));
        push(&mut ws, cs(1, &[&[5, 6]]));
        let tasks = push(&mut ws, cs(2, &[]));
        assert_eq!(tasks.len(), 2);
        let owners: Vec<ObjectId> = tasks.iter().map(|t| t.owner).collect();
        assert!(owners.contains(&oid(1)) && owners.contains(&oid(5)));
        // Owner 5's second start is still pending.
        let rest = ws.finish();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].owner, oid(5));
        assert_eq!(rest[0].start, 1);
    }
}
