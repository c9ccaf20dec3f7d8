//! The common pattern-engine interface and the shared η-window bookkeeping
//! used by BA and FBA.
//!
//! The window bookkeeping (`WindowState`) keeps each owner's partitions in
//! a ring (`VecDeque`) keyed by one map lookup per partition, and the
//! pending window starts in one FIFO: partitions arrive in time order, so
//! windows fall due in the order they were opened. A due window is not
//! copied out; the engine reads it in place (`WindowView`) from the
//! owner's ring, and releasing it pops the ring's oldest row. A partition's
//! member list is moved in once and read by up to η windows.

use crate::partition::{id_partitions, Partition};
use crate::runs::Semantics;
use icpe_types::{
    ClusterSnapshot, Constraints, EngineCheckpoint, HistoryRowCheckpoint, ObjectId, Pattern,
    Timestamp, WindowOwnerCheckpoint,
};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Configuration shared by all three enumeration engines.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The `CP(M, K, L, G)` constraints.
    pub constraints: Constraints,
    /// Validity semantics (see [`Semantics`]).
    pub semantics: Semantics,
    /// Baseline guard: partitions larger than this are skipped (and counted)
    /// instead of enumerating `2^n` subsets — the paper's "B cannot run on
    /// large datasets" behaviour, made explicit. Values above
    /// [`crate::MAX_BASELINE_PARTITION`] act as that cap.
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

/// One ready-to-process enumeration window, read in place from its owner's
/// retained rows: the owner's partitions over `[start, start + len)`, where
/// the row at `start` (always present, always first) is the partition the
/// candidates are drawn from. Offsets without a row are empty partitions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowView<'a> {
    pub owner: ObjectId,
    pub start: u32,
    /// Window length in snapshots: η, or less for a window truncated by
    /// the end of the stream.
    pub len: u32,
    /// The owner's rows from `start` on, ascending by time (may run past
    /// the window).
    rows: &'a VecDeque<(u32, Vec<ObjectId>)>,
}

impl<'a> WindowView<'a> {
    /// The members of the window's first partition, ascending.
    pub fn members(&self) -> &'a [ObjectId] {
        &self.rows[0].1
    }

    /// The window's non-empty rows as `(offset, members)`, ascending by
    /// offset.
    pub fn rows(&self) -> impl Iterator<Item = (usize, &'a [ObjectId])> {
        let (start, end) = (self.start, self.start + self.len);
        self.rows
            .iter()
            .take_while(move |(t, _)| *t < end)
            .map(move |(t, members)| ((t - start) as usize, members.as_slice()))
    }

    /// Calls `hit(i)` for every index `i` of [`WindowView::members`] whose
    /// member also appears in `row` (both lists ascending: a merge scan).
    #[inline]
    pub fn for_each_member_in(&self, row: &[ObjectId], mut hit: impl FnMut(usize)) {
        let members = self.members();
        let mut mi = 0usize;
        for &id in row {
            while mi < members.len() && members[mi] < id {
                mi += 1;
            }
            if mi == members.len() {
                break;
            }
            if members[mi] == id {
                hit(mi);
                mi += 1;
            }
        }
    }

    /// Bitmask rows for the Baseline: for each window offset `j`, a mask
    /// over the indices of [`WindowView::members`] marking which of them
    /// are co-clustered with the owner at offset `j`. Requires at most 64
    /// members, which [`crate::MAX_BASELINE_PARTITION`] guarantees.
    pub fn member_masks(&self) -> Vec<u64> {
        assert!(self.members().len() <= 64, "member masks are one word");
        let mut masks = vec![0u64; self.len as usize];
        for (j, row) in self.rows() {
            self.for_each_member_in(row, |mi| masks[j] |= 1 << mi);
        }
        masks
    }
}

/// Shared η-window state: a ring of retained partitions per owner and one
/// FIFO of pending window starts.
///
/// Every partition pushed at time `t` is both a row of its owner's later
/// windows and the start of its own window, which is due at `t + η − 1`.
/// Starts arrive in time order, so the due windows are always a prefix of
/// the FIFO, and an owner's oldest retained row is always the start of its
/// next window: releasing a window reads the owner's ring in place, then
/// pops that one row.
#[derive(Debug)]
pub(crate) struct WindowState {
    eta: u32,
    /// Owner → its partitions not yet released as a window start,
    /// ascending by time. Owners with no pending start have no entry.
    rows: HashMap<ObjectId, VecDeque<(u32, Vec<ObjectId>)>>,
    /// Pending window starts `(start, owner)`, ascending by start.
    pending: VecDeque<(u32, ObjectId)>,
    last_time: Option<u32>,
}

impl WindowState {
    pub fn new(constraints: &Constraints) -> Self {
        WindowState {
            eta: constraints.eta() as u32,
            rows: HashMap::new(),
            pending: VecDeque::new(),
            last_time: None,
        }
    }

    /// Ingests pre-computed partitions for one time tick and hands every
    /// window that became complete to `process`, oldest start first.
    pub fn push_partitions(
        &mut self,
        time: Timestamp,
        partitions: Vec<Partition>,
        mut process: impl FnMut(WindowView<'_>),
    ) {
        let t = time.0;
        if let Some(prev) = self.last_time {
            assert!(t > prev, "cluster snapshots must arrive in time order");
        }
        self.last_time = Some(t);

        for part in partitions {
            self.rows
                .entry(part.owner)
                .or_default()
                .push_back((t, part.members));
            self.pending.push_back((t, part.owner));
        }

        while let Some(&(start, owner)) = self.pending.front() {
            if start + self.eta - 1 > t {
                break;
            }
            self.pending.pop_front();
            self.release(owner, start, self.eta, &mut process);
        }
    }

    /// Flushes the remaining (truncated) windows at end of stream, ordered
    /// by `(start, owner)`.
    pub fn finish(&mut self, mut process: impl FnMut(WindowView<'_>)) {
        let Some(last) = self.last_time else {
            return;
        };
        let mut pending: Vec<(u32, ObjectId)> = self.pending.drain(..).collect();
        pending.sort_unstable();
        for (start, owner) in pending {
            let end = last.min(start + self.eta - 1);
            self.release(owner, start, end - start + 1, &mut process);
        }
        debug_assert!(self.rows.is_empty(), "every row is a pending start");
    }

    /// Captures the open-window state in durable, canonical form (owners
    /// ascend by id; starts and history rows ascend by time). Every row is
    /// a pending start; rows with no members are listed as starts only.
    pub(crate) fn checkpoint(&self) -> (Option<u32>, Vec<WindowOwnerCheckpoint>) {
        let mut owners: Vec<WindowOwnerCheckpoint> = self
            .rows
            .iter()
            .map(|(&owner, rows)| WindowOwnerCheckpoint {
                owner,
                starts: rows.iter().map(|(t, _)| *t).collect(),
                history: rows
                    .iter()
                    .filter(|(_, members)| !members.is_empty())
                    .map(|(t, members)| HistoryRowCheckpoint {
                        time: *t,
                        members: members.clone(),
                    })
                    .collect(),
            })
            .collect();
        owners.sort_by_key(|o| o.owner);
        (self.last_time, owners)
    }

    /// Rebuilds the window state from a checkpoint, keeping only owners for
    /// which `keep` returns true (the restore-time resharding hook: a
    /// restored deployment may run a different parallelism, and each
    /// subtask loads only the owners routed to it). Each start becomes a
    /// row holding the history row of the same time, or no members; a
    /// history row at a time that is no pending start can never be read by
    /// a window and is dropped. The pending FIFO is rebuilt from the starts
    /// in `(start, owner)` order.
    pub(crate) fn restore(
        constraints: &Constraints,
        last_time: Option<u32>,
        owners: &[WindowOwnerCheckpoint],
        keep: impl Fn(ObjectId) -> bool,
    ) -> Self {
        let mut ws = WindowState::new(constraints);
        ws.last_time = last_time;
        let mut pending: Vec<(u32, ObjectId)> = Vec::new();
        for o in owners {
            if !keep(o.owner) || o.starts.is_empty() {
                continue;
            }
            let mut history = o.history.iter().peekable();
            let rows = o
                .starts
                .iter()
                .map(|&start| {
                    while history.next_if(|row| row.time < start).is_some() {}
                    let members = history
                        .next_if(|row| row.time == start)
                        .map(|row| row.members.clone())
                        .unwrap_or_default();
                    (start, members)
                })
                .collect();
            ws.rows.insert(o.owner, rows);
            pending.extend(o.starts.iter().map(|&start| (start, o.owner)));
        }
        pending.sort_unstable();
        ws.pending = pending.into();
        ws
    }

    /// Hands the window `[start, start + len)` of `owner` to `process`,
    /// then drops its first row (no later window of the owner starts
    /// there).
    fn release(
        &mut self,
        owner: ObjectId,
        start: u32,
        len: u32,
        process: &mut impl FnMut(WindowView<'_>),
    ) {
        let Entry::Occupied(mut entry) = self.rows.entry(owner) else {
            panic!("pending start for owner without rows");
        };
        let rows = entry.get_mut();
        debug_assert_eq!(rows[0].0, start, "window starts must release in order");
        process(WindowView {
            owner,
            start,
            len,
            rows,
        });
        rows.pop_front();
        if rows.is_empty() {
            entry.remove();
        }
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

    /// An owned copy of a released window, one (possibly empty) row per
    /// offset.
    struct Task {
        owner: ObjectId,
        start: u32,
        window: Vec<Vec<ObjectId>>,
    }

    fn copy(view: WindowView<'_>) -> Task {
        let mut window = vec![Vec::new(); view.len as usize];
        for (j, row) in view.rows() {
            window[j] = row.to_vec();
        }
        Task {
            owner: view.owner,
            start: view.start,
            window,
        }
    }

    /// Test shim replicating the snapshot-level push.
    fn push(ws: &mut WindowState, snapshot: ClusterSnapshot) -> Vec<Task> {
        let mut tasks = Vec::new();
        ws.push_partitions(snapshot.time, id_partitions(&snapshot, 2), |v| {
            tasks.push(copy(v))
        });
        tasks
    }

    fn finish(ws: &mut WindowState) -> Vec<Task> {
        let mut tasks = Vec::new();
        ws.finish(|v| tasks.push(copy(v)));
        tasks
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
        assert_eq!(t.window[0], vec![oid(2)]);
    }

    #[test]
    fn missing_times_become_empty_rows() {
        let c = constraints();
        let mut ws = WindowState::new(&c);
        push(&mut ws, cs(0, &[&[1, 2]]));
        push(&mut ws, cs(1, &[]));
        let tasks = push(&mut ws, cs(2, &[]));
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].window[1], Vec::<ObjectId>::new());
        assert_eq!(tasks[0].window[2], Vec::<ObjectId>::new());
    }

    #[test]
    fn finish_truncates_windows() {
        let c = constraints();
        let mut ws = WindowState::new(&c);
        push(&mut ws, cs(5, &[&[1, 2]]));
        push(&mut ws, cs(6, &[&[1, 2]]));
        let tasks = finish(&mut ws);
        assert_eq!(tasks.len(), 2); // starts at 5 and 6
        assert_eq!(tasks[0].start, 5);
        assert_eq!(tasks[0].window.len(), 2);
        assert_eq!(tasks[1].start, 6);
        assert_eq!(tasks[1].window.len(), 1);
    }

    #[test]
    fn member_masks_track_membership() {
        let rows: VecDeque<(u32, Vec<ObjectId>)> = [
            (0, vec![oid(2), oid(5), oid(9)]),
            (1, vec![oid(5)]),
            (2, vec![oid(2), oid(9)]),
            (4, vec![oid(9)]),
        ]
        .into();
        let view = WindowView {
            owner: oid(1),
            start: 0,
            len: 4,
            rows: &rows,
        };
        // Offset 3 has no row; the row at offset 4 lies past the window.
        assert_eq!(view.member_masks(), vec![0b111, 0b010, 0b101, 0]);
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
        let rest = finish(&mut ws);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].owner, oid(5));
        assert_eq!(rest[0].start, 1);
    }

    #[test]
    fn restore_keeps_starts_without_history_rows() {
        let c = constraints();
        let owners = vec![WindowOwnerCheckpoint {
            owner: oid(3),
            starts: vec![5, 7],
            history: vec![HistoryRowCheckpoint {
                time: 5,
                members: vec![oid(4), oid(9)],
            }],
        }];
        let mut ws = WindowState::restore(&c, Some(7), &owners, |_| true);
        assert_eq!(ws.checkpoint(), (Some(7), owners));
        let tasks = finish(&mut ws);
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].window, vec![vec![oid(4), oid(9)], vec![], vec![]]);
        assert_eq!(tasks[1].window, vec![Vec::<ObjectId>::new()]);
    }
}
