//! Hotspot-aware load balancing for the keyed GridQuery stage.
//!
//! The paper keys GridQuery work by grid cell and lets the platform hash
//! cells onto subtasks. On skewed urban traffic (downtown hotspots,
//! rush-hour corridors) a handful of cells carry most of the objects —
//! and whatever subtask they hash to becomes the straggler that caps the
//! Figure-14 scaling curve. This module supplies the two policy pieces of
//! the adaptive alternative:
//!
//! * [`LoadTracker`] — shared accounting written by the GridQuery
//!   subtasks: per-cell load (buffered objects + produced pairs) per
//!   window, plus per-subtask window totals for observability and benches;
//! * [`LoadBalancer`] — the controller (run by the single allocate
//!   subtask at snapshot boundaries): maintains decayed per-cell load
//!   estimates, detects hot placements (`max > θ × mean`), and produces a
//!   [`RebalancePlan`] that *splits* the hot cells out of their hash
//!   buckets onto explicitly assigned subtasks (largest-load-first onto
//!   the least-loaded subtask) while cold cells *merge* back to the
//!   consistent-hash default.
//!
//! The balancer is deliberately mechanism-free: it never touches a
//! routing table or a channel. The pipeline installs the plan into an
//! `icpe-runtime` `RoutingTable` at a window boundary — the only point
//! where no per-cell buffer is live, so a swap can never split an
//! in-flight window across subtasks.

use icpe_index::{GridKey, RefinementTree};
use icpe_types::shard::{stable_hash, subtask_for};
use icpe_types::{CellAssignment, CellLoadCheckpoint, CellRefinement, RoutingCheckpoint};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Mutex;

/// One cell's observed load in one window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellLoad {
    /// Grid objects (data + query replicas) buffered for the cell.
    pub records: u64,
    /// Neighbor pairs the cell's range join produced.
    pub pairs: u64,
}

impl CellLoad {
    /// The scalar load the balancer optimizes: buffering plus join output.
    pub fn weight(&self) -> u64 {
        self.records + self.pairs
    }
}

/// Per-window, per-subtask accounting shared between the GridQuery
/// subtasks (writers) and the balancer / status endpoints (readers).
/// Wrap in `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct LoadTracker {
    parallelism: usize,
    inner: Mutex<TrackerInner>,
}

/// Per-subtask history bound: `sealed` keeps the newest this-many
/// windows (tiny rows — `parallelism` integers each) for status gauges
/// and bench series. A days-long serve deployment must not grow
/// per-window state without bound.
const MAX_WINDOW_HISTORY: usize = 4096;

/// Per-cell history bounds, much tighter than [`MAX_WINDOW_HISTORY`]
/// because these rows hold an entry per active cell: `sealed_cells`
/// (read only by the skew bench's hindsight oracle) keeps this many
/// windows, and `ready` — drained promptly whenever a balancer runs —
/// drops its oldest past this when nothing drains (static routing).
const MAX_CELL_WINDOW_HISTORY: usize = 512;
const MAX_READY_BACKLOG: usize = 64;

#[derive(Debug, Default)]
struct TrackerInner {
    /// Per-cell loads of windows that have fully sealed, awaiting the
    /// balancer's drain — one entry per window, every subtask's report
    /// concatenated. Only whole windows land here: folding a partially
    /// flushed window into the balancer's estimates would make a cell's
    /// load appear to halve and double with scheduling luck, and the
    /// balancer would chase that noise with useless migrations.
    ready: VecDeque<(u32, Vec<(GridKey, CellLoad)>)>,
    /// Open windows: per-cell and per-subtask loads plus how many
    /// subtasks reported.
    open: BTreeMap<u32, WindowAcc>,
    /// Sealed windows (every subtask reported), ascending by time.
    sealed: Vec<(u32, Vec<u64>)>,
    /// Per-cell weights of sealed windows (for hindsight analyses), in
    /// report order; sorted, and a cell reported twice merged, on read.
    sealed_cells: VecDeque<(u32, Vec<(GridKey, u64)>)>,
}

#[derive(Debug, Default)]
struct WindowAcc {
    cells: Vec<(GridKey, CellLoad)>,
    loads: Vec<u64>,
    reports: usize,
}

impl LoadTracker {
    /// A tracker for `parallelism` GridQuery subtasks.
    pub fn new(parallelism: usize) -> Self {
        LoadTracker {
            parallelism: parallelism.max(1),
            inner: Mutex::new(TrackerInner::default()),
        }
    }

    /// The subtask count the tracker was sized for.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Records one subtask's flush of window `time`: its total load and
    /// the load of every cell it flushed — one lock per subtask and
    /// window. Every subtask reports every window (ticks are broadcast),
    /// so the window seals at the `parallelism`-th report, at which point
    /// its per-cell loads become drainable as one consistent unit.
    pub fn record_window(
        &self,
        time: u32,
        subtask: usize,
        load: u64,
        cells: &[(GridKey, CellLoad)],
    ) {
        let n = self.parallelism;
        let mut inner = self.inner.lock().expect("load tracker poisoned");
        let acc = inner.open.entry(time).or_default();
        if acc.loads.is_empty() {
            acc.loads = vec![0; n];
        }
        if let Some(slot) = acc.loads.get_mut(subtask) {
            *slot += load;
        }
        acc.cells.extend_from_slice(cells);
        acc.reports += 1;
        if acc.reports >= n {
            let acc = inner.open.remove(&time).expect("window present");
            let weights: Vec<(GridKey, u64)> =
                acc.cells.iter().map(|(c, l)| (*c, l.weight())).collect();
            inner.ready.push_back((time, acc.cells));
            inner.sealed.push((time, acc.loads));
            inner.sealed_cells.push_back((time, weights));
            let excess = inner.sealed.len().saturating_sub(MAX_WINDOW_HISTORY);
            if excess > 0 {
                inner.sealed.drain(..excess);
            }
            if inner.sealed_cells.len() > MAX_CELL_WINDOW_HISTORY {
                inner.sealed_cells.pop_front();
            }
            if inner.ready.len() > MAX_READY_BACKLOG {
                inner.ready.pop_front();
            }
        }
    }

    /// Per-window per-cell loads of sealed windows, ascending by time and,
    /// within a window, by cell — what an oracle placement (hindsight LPT
    /// per window) is computed from in the skew bench.
    pub fn sealed_cell_windows(&self) -> Vec<(u32, Vec<(GridKey, u64)>)> {
        let inner = self.inner.lock().expect("load tracker poisoned");
        inner
            .sealed_cells
            .iter()
            .map(|(time, cells)| {
                let mut weights = cells.clone();
                weights.sort_by_key(|&(c, _)| (c.x, c.y, c.level));
                weights.dedup_by(|later, kept| {
                    let same = later.0 == kept.0;
                    if same {
                        kept.1 += later.1;
                    }
                    same
                });
                (*time, weights)
            })
            .collect()
    }

    /// Takes the per-cell loads of every window sealed since the last
    /// drain — whole windows only, one entry per window in time order, so
    /// a consumer can decay-fold them window by window no matter how many
    /// sealed between two drains (backpressure makes seals arrive in
    /// bursts; folding a burst as if it were one window whipsaws any
    /// decayed estimate by the burst length).
    pub fn drain_cells(&self) -> Vec<(u32, HashMap<GridKey, CellLoad>)> {
        let ready = std::mem::take(&mut self.inner.lock().expect("load tracker poisoned").ready);
        ready
            .into_iter()
            .map(|(time, cells)| {
                let mut folded: HashMap<GridKey, CellLoad> = HashMap::with_capacity(cells.len());
                for (cell, load) in cells {
                    let entry = folded.entry(cell).or_default();
                    entry.records += load.records;
                    entry.pairs += load.pairs;
                }
                (time, folded)
            })
            .collect()
    }

    /// All sealed windows so far, `(time, per-subtask loads)` ascending —
    /// the imbalance series the skew bench reports on.
    pub fn sealed_windows(&self) -> Vec<(u32, Vec<u64>)> {
        self.inner
            .lock()
            .expect("load tracker poisoned")
            .sealed
            .clone()
    }

    /// The most recently sealed window, if any.
    pub fn last_sealed(&self) -> Option<(u32, Vec<u64>)> {
        self.inner
            .lock()
            .expect("load tracker poisoned")
            .sealed
            .last()
            .cloned()
    }
}

/// `max / mean` of one window's per-subtask loads (1.0 = perfectly
/// balanced; `N` = all load on one of `N` subtasks). Empty or idle
/// windows count as balanced.
pub fn imbalance(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    if total == 0 || loads.is_empty() {
        return 1.0;
    }
    let mean = total as f64 / loads.len() as f64;
    *loads.iter().max().expect("nonempty") as f64 / mean
}

/// Tuning knobs of the [`LoadBalancer`].
#[derive(Debug, Clone, Copy)]
pub struct BalancerConfig {
    /// Hot threshold θ: rebalance when the projected max subtask load
    /// exceeds `θ ×` the mean. Values near 1 rebalance aggressively;
    /// values ≥ the parallelism never trigger.
    pub theta: f64,
    /// Minimum windows between table swaps (migration hysteresis).
    pub cooldown_windows: u32,
    /// Per-window decay of the cell-load estimate: `estimate = decay ×
    /// estimate + observed`. 0 = last window only; 0.5 halves history
    /// each window.
    pub decay: f64,
    /// Maximum cells pinned explicitly (the routing-table budget); the
    /// rest stay on consistent hashing.
    pub max_mapped_cells: usize,
    /// How much each produced pair weighs in the cell-load model. A pair
    /// costs the deployment twice: once at the query subtask that
    /// discovers it and once on the sharded sync merge path that
    /// deduplicates and reduces it — so the default counts both sides
    /// (`2.0`), making pair-heavy cells (whose merge partitions run hot)
    /// migrate sooner. `1.0` restores the query-side-only model of the
    /// pre-sharded merge path.
    pub sync_pair_weight: f64,
    /// Maximum sub-cell refinement depth for hot cells; 0 disables
    /// refinement entirely (cell-granularity routing only). Depth `d`
    /// partitions a base cell into `4^d` leaf sub-cells, so even one cell
    /// hotter than a subtask's whole fair share becomes splittable.
    pub refine_max_depth: u8,
    /// Split a (leaf) cell one level deeper when its decayed weight exceeds
    /// this fraction of a subtask's fair share (`total / parallelism`).
    pub refine_split_frac: f64,
    /// Re-coalesce a refined base cell one level when the total decayed
    /// weight of all its leaves falls below this fraction of the fair
    /// share. Keep well below `refine_split_frac`: the gap is the
    /// hysteresis that prevents split/coalesce thrash at the threshold.
    pub refine_coalesce_frac: f64,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        BalancerConfig {
            theta: 1.5,
            cooldown_windows: 2,
            decay: 0.5,
            max_mapped_cells: 256,
            sync_pair_weight: 2.0,
            refine_max_depth: 0,
            refine_split_frac: 0.5,
            refine_coalesce_frac: 0.15,
        }
    }
}

/// A routing-table replacement the balancer wants installed at the next
/// window boundary.
#[derive(Debug, Clone)]
pub struct RebalancePlan {
    /// The epoch the new table carries.
    pub epoch: u64,
    /// The complete explicit overlay, keyed by the cell's routing hash.
    pub assignments: HashMap<u64, usize>,
    /// Cells whose effective subtask changes with this plan.
    pub migrated: u64,
}

/// What one window-boundary evaluation concluded.
#[derive(Debug, Clone)]
pub struct BalanceOutcome {
    /// Projected max per-subtask load under the *current* routing.
    pub max_load: f64,
    /// Projected mean per-subtask load.
    pub mean_load: f64,
    /// The table swap to install, when the imbalance warranted one.
    pub plan: Option<RebalancePlan>,
    /// Base cells split this boundary, with their new depth.
    pub split_cells: Vec<(GridKey, u8)>,
    /// Base cells coalesced this boundary, with their new depth.
    pub coalesced_cells: Vec<(GridKey, u8)>,
}

/// The hotspot controller. Single-owner (the allocate subtask); shares
/// nothing but the [`LoadTracker`] it drains.
#[derive(Debug)]
pub struct LoadBalancer {
    config: BalancerConfig,
    parallelism: usize,
    /// Decayed per-cell *record* estimates, folded once per window
    /// boundary from the allocate-side accounting (immediate: known the
    /// moment objects are routed).
    rec_estimates: HashMap<GridKey, f64>,
    /// Decayed per-cell *pair* estimates, folded once per sealed window
    /// from the query-side feedback (lagged by the pipeline's in-flight
    /// depth). Kept as a separate pool because the two signals arrive on
    /// different cadences — folding lagged bursts into one shared EWMA
    /// makes the estimate whipsaw by the burst length.
    pair_estimates: HashMap<GridKey, f64>,
    /// Per-cell pair *rate* `pairs / records`, EWMA-blended from the same
    /// query-side feedback. Range-join pairs come from squads — tight
    /// within-ε crowds of bounded size — so a cell's pair count scales
    /// *linearly* with its occupancy, at a rate set by how crowded its
    /// squads are. The rate drifts far slower than the occupancy itself,
    /// so `rate × (current records)` predicts the outgoing window's pair
    /// load from the exact record counts — where the lagged pair pool
    /// trails every hotspot movement by the whole pipeline depth.
    /// Ephemeral like the pair pool: rebuilt from feedback after a
    /// restore.
    pair_rate: HashMap<GridKey, f64>,
    /// Exact per-cell record counts of the most recently observed window.
    /// When the caller runs the two-phase boundary protocol these are the
    /// counts of the very window the next placement will route, so the
    /// planner optimizes the real objective rather than a decayed blend
    /// of history. Empty until the first observation (e.g. right after a
    /// restore), when planning falls back to the EWMA pools.
    last_records: HashMap<GridKey, f64>,
    /// The explicit overlay currently in force (mirrors the installed
    /// routing table; this controller is its only writer).
    assignments: HashMap<GridKey, usize>,
    /// Sub-cell refinement depths of hot base cells. Shared with the
    /// snapshot-merge finalizer (read-only) to expand each window's objects
    /// onto leaf sub-cells; this controller is its only writer, and only at
    /// window boundaries.
    refinement: RefinementTree,
    epoch: u64,
    cells_migrated: u64,
    splits: u64,
    coalesces: u64,
    windows_since_swap: u32,
}

impl LoadBalancer {
    /// A fresh balancer at epoch 0 (pure consistent hashing).
    pub fn new(config: BalancerConfig, parallelism: usize) -> Self {
        LoadBalancer {
            config,
            parallelism: parallelism.max(1),
            rec_estimates: HashMap::new(),
            pair_estimates: HashMap::new(),
            pair_rate: HashMap::new(),
            last_records: HashMap::new(),
            assignments: HashMap::new(),
            refinement: RefinementTree::new(),
            epoch: 0,
            cells_migrated: 0,
            splits: 0,
            coalesces: 0,
            windows_since_swap: 0,
        }
    }

    /// Rebuilds a balancer from its checkpoint, dropping assignments that
    /// name subtasks beyond the (possibly smaller) restored parallelism.
    pub fn from_checkpoint(
        config: BalancerConfig,
        parallelism: usize,
        ckpt: &RoutingCheckpoint,
    ) -> Self {
        let n = parallelism.max(1);
        let mut refinement = RefinementTree::new();
        for r in &ckpt.refinements {
            refinement.set_depth(GridKey::new(r.x, r.y), r.depth);
        }
        LoadBalancer {
            config,
            parallelism: n,
            rec_estimates: ckpt
                .loads
                .iter()
                .map(|l| (GridKey::sub(l.x, l.y, l.level), l.load_milli as f64 / 1e3))
                .collect(),
            pair_estimates: HashMap::new(),
            pair_rate: HashMap::new(),
            last_records: HashMap::new(),
            assignments: ckpt
                .assignments
                .iter()
                .filter(|a| (a.subtask as usize) < n)
                .map(|a| (GridKey::sub(a.x, a.y, a.level), a.subtask as usize))
                .collect(),
            refinement,
            epoch: ckpt.epoch,
            cells_migrated: ckpt.cells_migrated,
            splits: ckpt.splits,
            coalesces: ckpt.coalesces,
            windows_since_swap: 0,
        }
    }

    /// The canonical durable form of the learned placement.
    pub fn checkpoint(&self) -> RoutingCheckpoint {
        let mut assignments: Vec<CellAssignment> = self
            .assignments
            .iter()
            .map(|(k, &s)| CellAssignment {
                x: k.x,
                y: k.y,
                level: k.level,
                subtask: s as u32,
            })
            .collect();
        assignments.sort_by_key(|a| (a.x, a.y, a.level));
        let mut loads: Vec<CellLoadCheckpoint> = self
            .weights()
            .iter()
            .map(|(k, &w)| CellLoadCheckpoint {
                x: k.x,
                y: k.y,
                level: k.level,
                load_milli: (w * 1e3).round() as u64,
            })
            .collect();
        loads.sort_by_key(|l| (l.x, l.y, l.level));
        let mut refinements: Vec<CellRefinement> = self
            .refinement
            .iter()
            .map(|(k, d)| CellRefinement {
                x: k.x,
                y: k.y,
                depth: d,
            })
            .collect();
        refinements.sort_by_key(|r| (r.x, r.y));
        RoutingCheckpoint {
            epoch: self.epoch,
            assignments,
            loads,
            cells_migrated: self.cells_migrated,
            refinements,
            splits: self.splits,
            coalesces: self.coalesces,
        }
    }

    /// Current routing epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cells migrated across all epochs so far.
    pub fn cells_migrated(&self) -> u64 {
        self.cells_migrated
    }

    /// The current sub-cell refinement tree (read by the snapshot-merge
    /// finalizer to expand each window's objects onto leaf sub-cells).
    pub fn refinement(&self) -> &RefinementTree {
        &self.refinement
    }

    /// Cumulative cell splits across the run.
    pub fn splits(&self) -> u64 {
        self.splits
    }

    /// Cumulative cell coalesces across the run.
    pub fn coalesces(&self) -> u64 {
        self.coalesces
    }

    /// The current explicit overlay keyed by routing hash — what a
    /// restored deployment installs into its table before the first
    /// record flows.
    pub fn table_assignments(&self) -> HashMap<u64, usize> {
        self.assignments
            .iter()
            .map(|(k, &s)| (stable_hash(k), s))
            .collect()
    }

    /// The subtask a cell currently routes to.
    fn route(&self, cell: &GridKey) -> usize {
        match self.assignments.get(cell) {
            Some(&s) if s < self.parallelism => s,
            _ => subtask_for(stable_hash(cell), self.parallelism),
        }
    }

    /// The per-cell weight model the planner and the refinement policy
    /// optimize. When the exact record counts of the window about to be
    /// routed are in hand (the two-phase boundary protocol), the model IS
    /// that window: exact records plus `rate × records` predicted
    /// pairs — the same quantity the per-window imbalance metric measures,
    /// so the planner optimizes the real objective instead of a decayed
    /// blend of history. Before the first observation (fresh start or
    /// right after a restore) it falls back to the EWMA pools.
    fn weights(&self) -> HashMap<GridKey, f64> {
        if self.last_records.is_empty() {
            let mut out = self.rec_estimates.clone();
            for (cell, w) in &self.pair_estimates {
                *out.entry(*cell).or_insert(0.0) += w;
            }
            return out;
        }
        let mut out = self.last_records.clone();
        for (cell, w) in out.iter_mut() {
            let r = self.last_records[cell];
            // Learned rate first; the additive pool backstops cells whose
            // rate is still unknown — it lives in EWMA units
            // (≈ window/(1−decay)), so one (1−decay) factor converts it
            // to this window's scale.
            *w += match self.pair_rate.get(cell) {
                Some(&rate) => self.config.sync_pair_weight * rate * r,
                None => {
                    (1.0 - self.config.decay)
                        * self.pair_estimates.get(cell).copied().unwrap_or(0.0)
                }
            };
        }
        out
    }

    /// Folds one window boundary's worth of allocate-side record counts:
    /// decay, add, and drop cells with no occupancy this window — their
    /// squads moved on, and balancing that phantom mass would misplace
    /// real load (a vacated cell re-enters through hash fallback when
    /// traffic returns).
    pub fn observe_records(&mut self, observed: &HashMap<GridKey, u64>) {
        if observed.is_empty() {
            // No information, not "everything vacated": an idle boundary
            // (stream gap, or the first boundary after a restore, before
            // any window has been emitted) must not erode the model —
            // in particular not the checkpoint-restored estimates.
            return;
        }
        for w in self.rec_estimates.values_mut() {
            *w *= self.config.decay;
        }
        for (cell, &records) in observed {
            *self.rec_estimates.entry(*cell).or_insert(0.0) += records as f64;
        }
        self.last_records = observed.iter().map(|(&c, &r)| (c, r as f64)).collect();
        self.rec_estimates
            .retain(|cell, w| *w > 1e-3 && observed.contains_key(cell));
        self.pair_estimates
            .retain(|cell, _| self.rec_estimates.contains_key(cell));
        self.pair_rate
            .retain(|cell, _| self.rec_estimates.contains_key(cell));
        self.windows_since_swap = self.windows_since_swap.saturating_add(1);
    }

    /// Folds ONE sealed window's pair counts from the query-side
    /// feedback. Call once per sealed window (in time order) — the
    /// decay-per-fold is what normalizes bursts of late feedback.
    ///
    /// Feedback arrives keyed at whatever refinement level was active
    /// when its window was emitted, whole pipeline-lag windows ago. If
    /// the tree moved since, the counts are re-keyed onto the *current*
    /// leaves — folded exactly into the ancestor after a coalesce, and
    /// apportioned by record share after a split — instead of being
    /// dropped, which would starve a freshly split hot cell's model for
    /// the whole lag.
    pub fn observe_pairs_window(&mut self, observed: &HashMap<GridKey, CellLoad>) {
        for w in self.pair_estimates.values_mut() {
            *w *= self.config.decay;
        }
        for (cell, load) in observed {
            // Pairs only refresh cells the record pool still considers
            // occupied; feedback for vacated cells is history. Each pair
            // is weighted by its full downstream cost: query-side
            // discovery plus its share of the sync merge path.
            let w = load.pairs as f64 * self.config.sync_pair_weight;
            // The rate is the scale-free form of the same feedback:
            // pairs per record learned where the pairs were *measured*
            // transfers across splits, coalesces, and hotspot drift.
            let obs_rate = load.pairs as f64 / (load.records.max(1) as f64);
            let depth = self.refinement.depth(cell.base_cell());
            if cell.level == depth {
                if self.rec_estimates.contains_key(cell) {
                    *self.pair_estimates.entry(*cell).or_insert(0.0) += w;
                    self.blend_rate(*cell, obs_rate);
                }
            } else if cell.level > depth {
                // The base coalesced since: fold into the covering key.
                let step = cell.level - depth;
                let anc = GridKey::sub(cell.x >> step, cell.y >> step, depth);
                if self.rec_estimates.contains_key(&anc) {
                    *self.pair_estimates.entry(anc).or_insert(0.0) += w;
                    self.blend_rate(anc, obs_rate);
                }
            } else {
                // The base deepened since: apportion over the occupied
                // descendant leaves by record share.
                let step = depth - cell.level;
                let shares: Vec<(GridKey, f64)> = self
                    .rec_estimates
                    .iter()
                    .filter(|(k, _)| {
                        k.level == depth && k.x >> step == cell.x && k.y >> step == cell.y
                    })
                    .map(|(&k, &r)| (k, r))
                    .collect();
                let total: f64 = shares.iter().map(|&(_, s)| s).sum();
                if total > 0.0 {
                    for (k, s) in shares {
                        *self.pair_estimates.entry(k).or_insert(0.0) += w * s / total;
                        self.blend_rate(k, obs_rate);
                    }
                }
            }
        }
        self.pair_estimates.retain(|_, w| *w > 1e-3);
    }

    /// EWMA-blends one observed pair rate (pairs per record) into the
    /// per-cell coefficient; the first observation seeds it directly.
    fn blend_rate(&mut self, cell: GridKey, obs_rate: f64) {
        let d = self.config.decay;
        let rate = self.pair_rate.entry(cell).or_insert(obs_rate);
        *rate = d * *rate + (1.0 - d) * obs_rate;
    }

    /// Projects per-subtask loads under the routing currently in force
    /// and — when the hot threshold trips and the cooldown has passed —
    /// plans a migration. Returns `None` while no load has ever been
    /// observed.
    ///
    /// One-shot form of the two-phase boundary protocol: callers that can
    /// observe the outgoing window *between* the tree update and the
    /// placement (the pipeline's snapshot finalizer) should call
    /// [`LoadBalancer::refine_boundary`], fold their observations, then
    /// [`LoadBalancer::place`] — placement then plans on the exact record
    /// distribution of the window it is about to route, including the
    /// true per-leaf split of freshly refined cells.
    pub fn evaluate(&mut self) -> Option<BalanceOutcome> {
        let (split_cells, coalesced_cells, unpinned) = self.refine_boundary();
        self.place(split_cells, coalesced_cells, unpinned)
    }

    /// Phase 1 of the boundary: drives sub-cell split/coalesce so the
    /// refinement tree is current before the window's objects are keyed.
    /// Returns the splits, coalesces, and dropped pins to hand to
    /// [`LoadBalancer::place`].
    #[allow(clippy::type_complexity)]
    pub fn refine_boundary(&mut self) -> (Vec<(GridKey, u8)>, Vec<(GridKey, u8)>, u64) {
        if self.weights().is_empty() {
            return (Vec::new(), Vec::new(), 0);
        }
        self.maybe_refine()
    }

    /// Phase 2 of the boundary: projects per-subtask loads and plans the
    /// migration, folding the tree changes phase 1 reported into the
    /// outcome (a tree change forces a table swap even without one).
    pub fn place(
        &mut self,
        split_cells: Vec<(GridKey, u8)>,
        coalesced_cells: Vec<(GridKey, u8)>,
        unpinned: u64,
    ) -> Option<BalanceOutcome> {
        if self.weights().is_empty() && split_cells.is_empty() && coalesced_cells.is_empty() {
            return None;
        }
        // A fresh split spread the base's pair mass uniformly over its
        // leaves, but pairs concentrate where the records do. When the
        // caller folded the outgoing window's records between the phases,
        // the leaf record shares are exact — re-apportion the pair mass
        // by record share so placement doesn't pack the truly hot leaf
        // as if it were average. Without fresh observations the shares
        // are uniform and this is a no-op.
        for &(base, _) in &split_cells {
            let leaves: Vec<(GridKey, f64)> = self
                .pair_estimates
                .iter()
                .filter(|(k, _)| k.base_cell() == base)
                .map(|(&k, &w)| (k, w))
                .collect();
            let mass: f64 = leaves.iter().map(|&(_, w)| w).sum();
            if mass <= 0.0 {
                continue;
            }
            let shares: Vec<(GridKey, f64)> = leaves
                .iter()
                .map(|&(k, _)| {
                    let r = self.rec_estimates.get(&k).copied().unwrap_or(0.0);
                    (k, r)
                })
                .collect();
            let total: f64 = shares.iter().map(|&(_, s)| s).sum();
            if total <= 0.0 {
                continue;
            }
            for (k, s) in shares {
                self.pair_estimates.insert(k, mass * s / total);
            }
            self.pair_estimates.retain(|_, w| *w > 1e-3);
        }
        let estimates = self.weights();
        let n = self.parallelism;
        let mut loads = vec![0.0f64; n];
        for (cell, &w) in &estimates {
            loads[self.route(cell)] += w;
        }
        let total: f64 = loads.iter().sum();
        let mean = total / n as f64;
        let max = loads.iter().cloned().fold(0.0, f64::max);

        let hot = mean > 0.0 && max > self.config.theta * mean;
        let mut plan = if !hot || n < 2 || self.windows_since_swap <= self.config.cooldown_windows {
            None
        } else {
            self.plan_placement(&estimates, &mut loads, mean)
        };
        // A tree change without a migration plan still needs a table swap:
        // stale-level pins were dropped, and the swap is what lands the
        // new key space at the window boundary.
        if plan.is_none() && !(split_cells.is_empty() && coalesced_cells.is_empty()) {
            self.epoch += 1;
            self.cells_migrated += unpinned;
            plan = Some(RebalancePlan {
                epoch: self.epoch,
                assignments: self.table_assignments(),
                migrated: unpinned,
            });
        }
        Some(BalanceOutcome {
            max_load: max,
            mean_load: mean,
            plan,
            split_cells,
            coalesced_cells,
        })
    }

    /// Drives sub-cell split/coalesce for this boundary. Splits any
    /// current-depth leaf whose decayed weight exceeds `refine_split_frac ×`
    /// the fair share (one level per boundary — gradual, like the
    /// incremental migration); coalesces refined bases whose total weight
    /// fell below `refine_coalesce_frac ×` the fair share. Estimates are
    /// re-keyed (children get weight/4 on a split, parents the children's
    /// sum on a coalesce) and stale-level pins dropped. Returns the splits,
    /// the coalesces, and how many pins were dropped.
    #[allow(clippy::type_complexity)]
    fn maybe_refine(&mut self) -> (Vec<(GridKey, u8)>, Vec<(GridKey, u8)>, u64) {
        if self.config.refine_max_depth == 0 {
            return (Vec::new(), Vec::new(), 0);
        }
        let weights = self.weights();
        let total: f64 = weights.values().sum();
        let fair = total / self.parallelism as f64;
        if fair <= 0.0 {
            return (Vec::new(), Vec::new(), 0);
        }

        // Split pass: act only on keys at their base's current depth
        // (stale-level leftovers re-key below and settle next boundary).
        let mut to_split: BTreeSet<GridKey> = BTreeSet::new();
        for (&cell, &w) in &weights {
            let base = cell.base_cell();
            let depth = self.refinement.depth(base);
            if cell.level == depth
                && depth < self.config.refine_max_depth
                && w > self.config.refine_split_frac * fair
            {
                to_split.insert(base);
            }
        }
        let mut split_cells = Vec::new();
        let mut unpinned = 0u64;
        for base in to_split {
            let new_depth = self.refinement.split(base);
            self.rekey_base(base, new_depth, &mut unpinned);
            self.splits += 1;
            split_cells.push((base, new_depth));
        }

        // Coalesce pass: refined bases whose whole tier went cold shallow
        // one level (vacated bases walk back to depth 0 over a few
        // boundaries). Bases split this very boundary are exempt.
        let mut base_totals: HashMap<GridKey, f64> = HashMap::new();
        for (&cell, &w) in &weights {
            *base_totals.entry(cell.base_cell()).or_insert(0.0) += w;
        }
        let mut to_coalesce: BTreeSet<GridKey> = BTreeSet::new();
        for (base, depth) in self.refinement.iter() {
            if depth == 0 || split_cells.iter().any(|&(b, _)| b == base) {
                continue;
            }
            let base_total = base_totals.get(&base).copied().unwrap_or(0.0);
            if base_total < self.config.refine_coalesce_frac * fair {
                to_coalesce.insert(base);
            }
        }
        let mut coalesced_cells = Vec::new();
        for base in to_coalesce {
            let new_depth = self.refinement.coalesce(base);
            self.rekey_base(base, new_depth, &mut unpinned);
            self.coalesces += 1;
            coalesced_cells.push((base, new_depth));
        }
        (split_cells, coalesced_cells, unpinned)
    }

    /// Re-keys both estimate pools for `base` onto its new depth and drops
    /// pins at stale levels (the old keys stop receiving traffic the moment
    /// the finalizer expands the next window under the new tree).
    fn rekey_base(&mut self, base: GridKey, new_depth: u8, unpinned: &mut u64) {
        for pool in [
            &mut self.rec_estimates,
            &mut self.pair_estimates,
            &mut self.last_records,
        ] {
            let stale: Vec<(GridKey, f64)> = pool
                .iter()
                .filter(|(k, _)| k.base_cell() == base && k.level != new_depth)
                .map(|(&k, &w)| (k, w))
                .collect();
            for (key, w) in stale {
                pool.remove(&key);
                if key.level < new_depth {
                    // Deepened: spread the estimate uniformly over the
                    // children (the next observation corrects the skew).
                    let step = new_depth - key.level;
                    let children = 1i64 << step;
                    let share = w / (children * children) as f64;
                    for dy in 0..children {
                        for dx in 0..children {
                            let child =
                                GridKey::sub((key.x << step) + dx, (key.y << step) + dy, new_depth);
                            *pool.entry(child).or_insert(0.0) += share;
                        }
                    }
                } else {
                    // Shallowed: fold the children into their parent.
                    let step = key.level - new_depth;
                    let parent = GridKey::sub(key.x >> step, key.y >> step, new_depth);
                    *pool.entry(parent).or_insert(0.0) += w;
                }
            }
        }
        // The rate is intensive (pairs per record), unlike the additive
        // pools above: children inherit the parent's coefficient verbatim
        // on a split, and a coalesce folds the children back as their mean.
        let stale: Vec<(GridKey, f64)> = self
            .pair_rate
            .iter()
            .filter(|(k, _)| k.base_cell() == base && k.level != new_depth)
            .map(|(&k, &v)| (k, v))
            .collect();
        let mut folded: HashMap<GridKey, (f64, u32)> = HashMap::new();
        for (key, rate) in stale {
            self.pair_rate.remove(&key);
            if key.level < new_depth {
                let step = new_depth - key.level;
                let children = 1i64 << step;
                for dy in 0..children {
                    for dx in 0..children {
                        let child =
                            GridKey::sub((key.x << step) + dx, (key.y << step) + dy, new_depth);
                        self.pair_rate.entry(child).or_insert(rate);
                    }
                }
            } else {
                let step = key.level - new_depth;
                let parent = GridKey::sub(key.x >> step, key.y >> step, new_depth);
                let e = folded.entry(parent).or_insert((0.0, 0));
                e.0 += rate;
                e.1 += 1;
            }
        }
        for (parent, (sum, n)) in folded {
            self.pair_rate.insert(parent, sum / f64::from(n));
        }
        let before = self.assignments.len();
        self.assignments
            .retain(|k, _| !(k.base_cell() == base && k.level != new_depth));
        *unpinned += (before - self.assignments.len()) as u64;
    }

    /// Test/embedding convenience: fold one fully observed window
    /// (records + pairs arriving together) and evaluate.
    pub fn on_window_boundary(
        &mut self,
        observed: HashMap<GridKey, CellLoad>,
    ) -> Option<BalanceOutcome> {
        let records: HashMap<GridKey, u64> = observed
            .iter()
            .filter(|(_, l)| l.records > 0)
            .map(|(&c, l)| (c, l.records))
            .collect();
        self.observe_records(&records);
        self.observe_pairs_window(&observed);
        self.evaluate()
    }

    /// Incremental migration: repeatedly *split* the heaviest-loaded cell
    /// that fits off the hottest subtask onto the coldest one, keeping the
    /// rest of the placement untouched. Stability is the point — a
    /// from-scratch re-placement (LPT over every cell) rewrites hundreds
    /// of routes per epoch and chases its own estimation noise on a moving
    /// hotspot; moving a handful of cells from hot to cold each boundary
    /// tracks the drift with bounded churn. Returns `None` when no single
    /// move improves the split (e.g. one atomic cell *is* the hotspot —
    /// cell-granularity routing cannot split below a cell).
    fn plan_placement(
        &mut self,
        estimates: &HashMap<GridKey, f64>,
        loads: &mut [f64],
        mean: f64,
    ) -> Option<RebalancePlan> {
        let n = self.parallelism;
        // Cells grouped by their current subtask, heaviest first.
        let mut by_subtask: Vec<Vec<(GridKey, f64)>> = vec![Vec::new(); n];
        for (&cell, &w) in estimates {
            by_subtask[self.route(&cell)].push((cell, w));
        }
        for cells in &mut by_subtask {
            cells.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("loads are finite")
                    .then_with(|| (a.0.x, a.0.y, a.0.level).cmp(&(b.0.x, b.0.y, b.0.level)))
            });
        }

        let mut migrated = 0u64;
        // Budget: a few moves per boundary keeps any one swap cheap; the
        // next boundary continues where this one stopped.
        for _ in 0..4 * n {
            let hot = (0..n)
                .max_by(|&a, &b| loads[a].partial_cmp(&loads[b]).expect("finite"))
                .expect("n ≥ 1");
            let cold = (0..n)
                .min_by(|&a, &b| loads[a].partial_cmp(&loads[b]).expect("finite"))
                .expect("n ≥ 1");
            let gap = loads[hot] - loads[cold];
            if loads[hot] <= self.config.theta * mean || gap <= f64::EPSILON {
                break;
            }
            // The best single move halves the gap: the cell whose weight
            // is closest to gap/2 (strictly below gap, or the move makes
            // things worse). `by_subtask[hot]` is sorted heaviest-first,
            // so scan until weights drop below the improvement bound.
            let pick = by_subtask[hot]
                .iter()
                .enumerate()
                .filter(|(_, (_, w))| *w < gap)
                .min_by(|(_, (_, a)), (_, (_, b))| {
                    (a - gap / 2.0)
                        .abs()
                        .partial_cmp(&(b - gap / 2.0).abs())
                        .expect("finite")
                })
                .map(|(i, &(cell, w))| (i, cell, w));
            let Some((idx, cell, w)) = pick else {
                break; // hot subtask holds one atomic mega-cell
            };
            by_subtask[hot].remove(idx);
            by_subtask[cold].push((cell, w));
            loads[hot] -= w;
            loads[cold] += w;
            if cold == subtask_for(stable_hash(&cell), n) {
                self.assignments.remove(&cell); // merged back to fallback
            } else {
                self.assignments.insert(cell, cold);
            }
            migrated += 1;
        }
        if migrated == 0 {
            return None;
        }

        // Housekeeping: drop pins for cells that have gone cold (decayed
        // out of the estimates — they carry no current traffic, so no
        // route effectively changes), and enforce the overlay budget by
        // unpinning the lightest cells. A budget eviction DOES change a
        // live route (a pin exists only where it differs from the hash
        // fallback), so it counts as a migration.
        self.assignments
            .retain(|cell, _| estimates.contains_key(cell));
        if self.assignments.len() > self.config.max_mapped_cells {
            let mut pinned: Vec<(GridKey, f64)> = self
                .assignments
                .keys()
                .map(|&c| (c, estimates.get(&c).copied().unwrap_or(0.0)))
                .collect();
            pinned.sort_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("finite")
                    .then_with(|| (a.0.x, a.0.y, a.0.level).cmp(&(b.0.x, b.0.y, b.0.level)))
            });
            let excess = self.assignments.len() - self.config.max_mapped_cells;
            for (cell, _) in pinned.into_iter().take(excess) {
                self.assignments.remove(&cell);
                migrated += 1;
            }
        }

        self.epoch += 1;
        self.cells_migrated += migrated;
        self.windows_since_swap = 0;
        Some(RebalancePlan {
            epoch: self.epoch,
            assignments: self.table_assignments(),
            migrated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(records: u64, pairs: u64) -> CellLoad {
        CellLoad { records, pairs }
    }

    /// Cells that hash-route to one subtask at parallelism 4 — the
    /// adversarial placement a Zipf hotspot produces by accident.
    fn colliding_cells(n: usize, count: usize) -> Vec<GridKey> {
        let target = subtask_for(stable_hash(&GridKey::new(0, 0)), n);
        let mut out = vec![GridKey::new(0, 0)];
        let mut x = 1i64;
        while out.len() < count {
            let k = GridKey::new(x, 0);
            if subtask_for(stable_hash(&k), n) == target {
                out.push(k);
            }
            x += 1;
        }
        out
    }

    #[test]
    fn tracker_seals_windows_after_all_reports() {
        let t = LoadTracker::new(3);
        t.record_window(0, 0, 10, &[]);
        t.record_window(0, 1, 0, &[]);
        assert!(t.last_sealed().is_none(), "one report missing");
        t.record_window(0, 2, 5, &[]);
        assert_eq!(t.last_sealed(), Some((0, vec![10, 0, 5])));
        assert_eq!(t.sealed_windows().len(), 1);
    }

    #[test]
    fn tracker_drains_whole_windows_only() {
        let t = LoadTracker::new(2);
        t.record_window(
            0,
            0,
            11,
            &[
                (GridKey::new(1, 1), load(4, 6)),
                (GridKey::new(2, 2), load(2, 0)),
            ],
        );
        assert!(
            t.drain_cells().is_empty(),
            "half-reported windows must not leak into the estimates"
        );
        t.record_window(0, 1, 2, &[(GridKey::new(1, 1), load(1, 0))]);
        let drained = t.drain_cells();
        assert_eq!(drained.len(), 1, "one whole window");
        let (time, cells) = &drained[0];
        assert_eq!(*time, 0);
        assert_eq!(cells[&GridKey::new(1, 1)].weight(), 11);
        assert_eq!(cells[&GridKey::new(2, 2)].weight(), 2);
        assert!(t.drain_cells().is_empty(), "drain resets");
        // The hindsight view merges the cell both subtasks reported.
        assert_eq!(
            t.sealed_cell_windows(),
            vec![(0, vec![(GridKey::new(1, 1), 11), (GridKey::new(2, 2), 2)])]
        );
    }

    #[test]
    fn imbalance_math() {
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0, 0]), 1.0);
        assert_eq!(imbalance(&[10, 10]), 1.0);
        assert_eq!(imbalance(&[40, 0, 0, 0]), 4.0);
    }

    #[test]
    fn balancer_splits_colliding_hot_cells() {
        let n = 4;
        let mut b = LoadBalancer::new(
            BalancerConfig {
                theta: 1.2,
                cooldown_windows: 0,
                ..BalancerConfig::default()
            },
            n,
        );
        let cells = colliding_cells(n, 4);
        let mut observed = HashMap::new();
        for &c in &cells {
            observed.insert(c, load(100, 100));
        }
        let outcome = b.on_window_boundary(observed).expect("load observed");
        assert!(
            outcome.max_load / outcome.mean_load > 1.2,
            "collisions must look hot"
        );
        let plan = outcome.plan.expect("rebalance triggered");
        assert_eq!(plan.epoch, 1);
        assert!(plan.migrated >= 3, "4 equal cells spread over 4 subtasks");

        // Re-projection under the new placement is balanced: feed the
        // same observation again and expect no further plan.
        let mut observed = HashMap::new();
        for &c in &cells {
            observed.insert(c, load(100, 100));
        }
        let outcome = b.on_window_boundary(observed).expect("load observed");
        assert!(
            outcome.plan.is_none(),
            "already balanced: max {} mean {}",
            outcome.max_load,
            outcome.mean_load
        );
        assert!(outcome.max_load / outcome.mean_load <= 1.2);
    }

    #[test]
    fn cooldown_defers_consecutive_swaps() {
        let n = 4;
        let mut b = LoadBalancer::new(
            BalancerConfig {
                theta: 1.2,
                cooldown_windows: 3,
                ..BalancerConfig::default()
            },
            n,
        );
        let cells = colliding_cells(n, 4);
        for round in 0..4 {
            let mut observed = HashMap::new();
            for &c in &cells {
                observed.insert(c, load(50, 0));
            }
            let outcome = b.on_window_boundary(observed).expect("load observed");
            if round < 3 {
                assert!(outcome.plan.is_none(), "round {round} inside cooldown");
            } else {
                assert!(outcome.plan.is_some(), "cooldown passed");
            }
        }
    }

    #[test]
    fn single_subtask_never_plans() {
        let mut b = LoadBalancer::new(
            BalancerConfig {
                theta: 1.0,
                cooldown_windows: 0,
                ..BalancerConfig::default()
            },
            1,
        );
        let outcome = b
            .on_window_boundary(HashMap::from([(GridKey::new(0, 0), load(1000, 0))]))
            .expect("load observed");
        assert!(outcome.plan.is_none());
    }

    #[test]
    fn checkpoint_round_trips_placement() {
        let n = 4;
        let mut b = LoadBalancer::new(
            BalancerConfig {
                theta: 1.1,
                cooldown_windows: 0,
                ..BalancerConfig::default()
            },
            n,
        );
        let cells = colliding_cells(n, 5);
        let mut observed = HashMap::new();
        for &c in &cells {
            observed.insert(c, load(80, 20));
        }
        b.on_window_boundary(observed).expect("load observed");
        assert_eq!(b.epoch(), 1);

        let ckpt = b.checkpoint();
        assert_eq!(ckpt.epoch, 1);
        assert!(ckpt
            .assignments
            .windows(2)
            .all(|w| (w[0].x, w[0].y, w[0].level) < (w[1].x, w[1].y, w[1].level)));
        let restored = LoadBalancer::from_checkpoint(BalancerConfig::default(), n, &ckpt);
        assert_eq!(restored.epoch(), 1);
        assert_eq!(restored.cells_migrated(), b.cells_migrated());
        assert_eq!(restored.table_assignments(), b.table_assignments());
        assert_eq!(restored.checkpoint(), ckpt, "canonical form is stable");
    }

    #[test]
    fn empty_observation_preserves_restored_estimates() {
        // The first post-restore boundary runs before any window has been
        // emitted: an empty observation must not wipe the checkpointed
        // model (that is the whole point of persisting the loads).
        let n = 4;
        let mut b = LoadBalancer::new(
            BalancerConfig {
                theta: 1.1,
                cooldown_windows: 0,
                ..BalancerConfig::default()
            },
            n,
        );
        let mut observed = HashMap::new();
        for &c in &colliding_cells(n, 4) {
            observed.insert(c, load(80, 20));
        }
        b.on_window_boundary(observed).expect("load observed");
        let ckpt = b.checkpoint();
        assert!(!ckpt.loads.is_empty());

        let mut restored = LoadBalancer::from_checkpoint(BalancerConfig::default(), n, &ckpt);
        restored.observe_records(&HashMap::new());
        restored.observe_records(&HashMap::new());
        assert_eq!(
            restored.checkpoint().loads,
            ckpt.loads,
            "idle boundaries must not erode the restored model"
        );
    }

    #[test]
    fn tracker_history_is_bounded() {
        let t = LoadTracker::new(1);
        for time in 0..(super::MAX_WINDOW_HISTORY as u32 + 50) {
            t.record_window(time, 0, 1, &[(GridKey::new(0, 0), load(1, 0))]);
        }
        // Nothing drains in static mode; every buffer must stay bounded.
        assert_eq!(t.sealed_windows().len(), super::MAX_WINDOW_HISTORY);
        assert_eq!(
            t.sealed_cell_windows().len(),
            super::MAX_CELL_WINDOW_HISTORY
        );
        assert_eq!(t.drain_cells().len(), super::MAX_READY_BACKLOG);
        assert_eq!(
            t.sealed_windows().first().expect("nonempty").0,
            50,
            "oldest windows are the ones dropped"
        );
    }

    #[test]
    fn restore_at_smaller_parallelism_drops_dead_subtasks() {
        let ckpt = RoutingCheckpoint {
            epoch: 3,
            assignments: vec![
                CellAssignment {
                    x: 0,
                    y: 0,
                    level: 0,
                    subtask: 1,
                },
                CellAssignment {
                    x: 1,
                    y: 0,
                    level: 0,
                    subtask: 6,
                },
            ],
            loads: Vec::new(),
            cells_migrated: 2,
            refinements: Vec::new(),
            splits: 0,
            coalesces: 0,
        };
        let b = LoadBalancer::from_checkpoint(BalancerConfig::default(), 2, &ckpt);
        let table = b.table_assignments();
        assert_eq!(table.len(), 1, "subtask-6 pin dropped at parallelism 2");
        assert_eq!(table[&stable_hash(&GridKey::new(0, 0))], 1);
    }

    fn refine_config(max_depth: u8) -> BalancerConfig {
        BalancerConfig {
            theta: 1.2,
            cooldown_windows: 0,
            refine_max_depth: max_depth,
            refine_split_frac: 0.5,
            refine_coalesce_frac: 0.15,
            ..BalancerConfig::default()
        }
    }

    #[test]
    fn mega_cell_splits_into_sub_cells() {
        // One cell carries nearly all the load: cell-granularity routing
        // cannot split it (plan_placement's atomic-mega-cell bailout), but
        // refinement can.
        let n = 4;
        let mut b = LoadBalancer::new(refine_config(2), n);
        let hot = GridKey::new(0, 0);
        let outcome = b
            .on_window_boundary(HashMap::from([
                (hot, load(1000, 0)),
                (GridKey::new(5, 5), load(10, 0)),
            ]))
            .expect("load observed");
        assert_eq!(
            outcome.split_cells,
            vec![(hot, 1)],
            "the mega-cell must split to depth 1"
        );
        assert_eq!(b.refinement().depth(hot), 1);
        assert_eq!(b.splits(), 1);
        assert!(
            outcome.plan.is_some(),
            "a tree change lands through a table swap"
        );
        // The estimate re-keyed onto the four depth-1 leaves.
        let ckpt = b.checkpoint();
        let leaf_loads: Vec<_> = ckpt.loads.iter().filter(|l| l.level == 1).collect();
        assert_eq!(
            leaf_loads.len(),
            4,
            "4 children at depth 1: {:?}",
            ckpt.loads
        );
        assert_eq!(ckpt.refinements.len(), 1);
        assert_eq!(ckpt.splits, 1);
    }

    #[test]
    fn refinement_respects_max_depth() {
        let mut b = LoadBalancer::new(refine_config(1), 4);
        let hot = GridKey::new(0, 0);
        for _ in 0..4 {
            b.on_window_boundary(HashMap::from([(hot, load(1000, 0))]));
            // Feedback keeps arriving on the (stale) base key; the model
            // re-keys it, but depth must never exceed the cap.
            assert!(b.refinement().depth(hot) <= 1);
        }
        assert_eq!(b.refinement().max_depth(), 1);
    }

    #[test]
    fn cold_refined_cells_coalesce_under_hysteresis() {
        let n = 4;
        let mut b = LoadBalancer::new(refine_config(2), n);
        let hot = GridKey::new(0, 0);
        let steady = GridKey::new(7, 7);
        b.on_window_boundary(HashMap::from([
            (hot, load(1000, 0)),
            (steady, load(100, 0)),
        ]));
        assert_eq!(b.refinement().depth(hot), 1, "split while hot");
        // The hotspot moves away: only the steady cell keeps traffic. The
        // refined base decays below the coalesce fraction and walks back.
        let mut boundaries = 0;
        while b.refinement().depth(hot) > 0 && boundaries < 10 {
            b.on_window_boundary(HashMap::from([(steady, load(100, 0))]));
            boundaries += 1;
        }
        assert_eq!(b.refinement().depth(hot), 0, "cold cell re-coalesced");
        assert!(b.coalesces() >= 1);
        // (The steady cell may well have split meanwhile — once it carries
        // all the traffic it exceeds the split fraction itself.)
    }

    #[test]
    fn checkpoint_round_trips_refinement_tree() {
        let n = 4;
        let mut b = LoadBalancer::new(refine_config(2), n);
        let hot = GridKey::new(2, -3);
        b.on_window_boundary(HashMap::from([
            (hot, load(1000, 0)),
            (GridKey::new(5, 5), load(10, 0)),
        ]));
        assert!(b.refinement().depth(hot) >= 1);
        let ckpt = b.checkpoint();
        assert!(!ckpt.refinements.is_empty());

        // Restore at a *different* parallelism: the tree carries no subtask
        // references, so it survives intact.
        let restored = LoadBalancer::from_checkpoint(refine_config(2), 7, &ckpt);
        assert_eq!(restored.refinement(), b.refinement());
        assert_eq!(restored.splits(), b.splits());
        assert_eq!(restored.coalesces(), b.coalesces());
        assert_eq!(restored.checkpoint().refinements, ckpt.refinements);
    }

    #[test]
    fn refinement_off_never_splits() {
        let mut b = LoadBalancer::new(
            BalancerConfig {
                theta: 1.1,
                cooldown_windows: 0,
                ..BalancerConfig::default()
            },
            4,
        );
        let outcome = b
            .on_window_boundary(HashMap::from([(GridKey::new(0, 0), load(10_000, 0))]))
            .expect("load observed");
        assert!(outcome.split_cells.is_empty());
        assert!(b.refinement().is_empty());
        assert_eq!(b.splits(), 0);
    }
}
