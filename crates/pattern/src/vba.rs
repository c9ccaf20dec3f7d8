//! **VBA** — Variable-length Bit Compression based Algorithm (Algorithm 5).
//!
//! Instead of re-verifying η-windows per start time (BA/FBA re-examine each
//! snapshot up to η times), VBA maintains *one* variable-length bit string
//! per (owner, member) across all times (Definition 14). A string *closes*
//! once `G + 1` zeros follow its last 1 (Lemma 7 — no later time can be
//! G-connected to it); closed valid strings become candidates with *maximal
//! pattern time sequences*, and enumeration runs only at closure, against
//! candidates overlapping long enough to matter (Lemma 8). Each snapshot is
//! touched once — higher throughput, at the cost of reporting latency
//! (patterns surface only after their episode ends), the trade-off §6.3
//! describes.
//!
//! Two deliberate deviations from the paper's pseudo-code, both documented
//! in DESIGN.md:
//!
//! * Lemma 8 is applied as `min(et) − max(st) + 1 < K → prune` (overlap
//!   *length*); the paper's `min(et) − max(st) < K` would also prune
//!   overlaps of exactly K times, which can carry a valid pattern.
//! * Candidates closed in the same tick are inserted into the global list
//!   sequentially *before* processing the next one, so two members whose
//!   episodes end simultaneously can still combine (Algorithm 5 as written
//!   only unions `Cl` into `C` after the loop and would miss them).

use crate::bitstring::BitString;
use crate::engine::{EngineConfig, PatternEngine};
use crate::partition::Partition;
use icpe_types::{
    CheckpointError, EngineCheckpoint, EpisodeCheckpoint, ObjectId, Pattern, TimeSequence,
    Timestamp, VbaOwnerCheckpoint,
};
use std::collections::{BTreeMap, HashMap};

/// An open variable-length bit string for one (owner, member) episode.
#[derive(Debug, Clone)]
struct OpenString {
    /// Start time (Definition 14's `st`): time of the first 1.
    st: u32,
    /// Time of the most recent 1; the string logically ends here.
    last_one: u32,
    /// Bits over `[st, last_one]` (always starts and ends with 1).
    bits: BitString,
}

/// A closed candidate: a maximal pattern time sequence (Definition 15).
#[derive(Debug, Clone)]
struct Candidate {
    member: ObjectId,
    st: u32,
    et: u32,
    bits: BitString,
}

/// Per-owner VBA state: the open strings (`H` in Algorithm 5) and the
/// global candidate list (`C`).
#[derive(Debug, Default)]
struct OwnerState {
    open: HashMap<ObjectId, OpenString>,
    /// Scheduled closure checks: time → members possibly closing then.
    closures: BTreeMap<u32, Vec<ObjectId>>,
    candidates: Vec<Candidate>,
}

/// The VBA pattern-enumeration engine.
#[derive(Debug)]
pub struct VbaEngine {
    config: EngineConfig,
    owners: HashMap<ObjectId, OwnerState>,
    last_time: Option<u32>,
    /// Optional retention horizon: candidates whose episode ended more than
    /// this many intervals ago are dropped (bounds memory on unbounded
    /// streams; `None` retains everything, like the paper).
    retention: Option<u32>,
}

impl VbaEngine {
    /// Creates the engine.
    pub fn new(config: EngineConfig) -> Self {
        VbaEngine {
            config,
            owners: HashMap::new(),
            last_time: None,
            retention: None,
        }
    }

    /// Sets the candidate retention horizon.
    pub fn with_retention(mut self, intervals: u32) -> Self {
        self.retention = Some(intervals);
        self
    }

    /// Rebuilds a VBA engine from a checkpoint, loading only owners for
    /// which `keep` returns true. Closure checks are re-derived from the
    /// open episodes (deadline = `last_one + G + 1`), exactly as the
    /// original pushes scheduled them; semantically broken episodes (bit
    /// length disagreeing with the span, missing leading/trailing 1) are
    /// rejected with a typed error rather than corrupting enumeration.
    ///
    /// The retention horizon is a configuration knob, not engine state,
    /// and is not recorded in the checkpoint: callers that bound candidate
    /// memory must re-apply it —
    /// `VbaEngine::from_checkpoint(..)?.with_retention(n)`.
    pub fn from_checkpoint(
        config: EngineConfig,
        ckpt: &EngineCheckpoint,
        keep: impl Fn(ObjectId) -> bool,
    ) -> Result<Self, CheckpointError> {
        if ckpt.kind != "VBA" {
            return Err(CheckpointError::EngineMismatch {
                checkpoint: ckpt.kind.clone(),
                config: "VBA".into(),
            });
        }
        let g = config.constraints.g();
        let mut owners: HashMap<ObjectId, OwnerState> = HashMap::new();
        for o in &ckpt.vba_owners {
            if !keep(o.owner) {
                continue;
            }
            let mut state = OwnerState::default();
            for ep in &o.open {
                let bits = decode_episode_bits(o.owner, ep)?;
                state.open.insert(
                    ep.member,
                    OpenString {
                        st: ep.st,
                        last_one: ep.et,
                        bits,
                    },
                );
                state
                    .closures
                    .entry(ep.et + g + 1)
                    .or_default()
                    .push(ep.member);
            }
            for ep in &o.candidates {
                let bits = decode_episode_bits(o.owner, ep)?;
                state.candidates.push(Candidate {
                    member: ep.member,
                    st: ep.st,
                    et: ep.et,
                    bits,
                });
            }
            owners.insert(o.owner, state);
        }
        Ok(VbaEngine {
            config,
            owners,
            last_time: ckpt.last_time,
            retention: None,
        })
    }

    fn tick(&mut self, time: Timestamp, partitions: Vec<Partition>) -> Vec<Pattern> {
        let t = time.0;
        if let Some(prev) = self.last_time {
            assert!(t > prev, "cluster snapshots must arrive in time order");
        }
        self.last_time = Some(t);
        let g = self.config.constraints.g();
        let mut out = Vec::new();

        // 1. Extend or create strings from this tick's partitions.
        for part in partitions {
            let state = self.owners.entry(part.owner).or_default();
            for member in part.members {
                match state.open.get_mut(&member) {
                    Some(open) if t - open.last_one <= g => {
                        // Still G-connected: pad zeros, append the 1.
                        for _ in open.last_one + 1..t {
                            open.bits.push(false);
                        }
                        open.bits.push(true);
                        open.last_one = t;
                        state.closures.entry(t + g + 1).or_default().push(member);
                    }
                    Some(_) => {
                        // Gap exceeded G while unnoticed (lazy closure):
                        // close the old episode now, then start a new one.
                        let closed = state.open.remove(&member).unwrap();
                        Self::close_string(
                            member,
                            closed,
                            &self.config,
                            state,
                            &mut out,
                            part.owner,
                        );
                        Self::open_new(state, member, t, g);
                    }
                    None => {
                        Self::open_new(state, member, t, g);
                    }
                }
            }
        }

        // 2. Fire scheduled closure checks (Lemma 7): a string whose last 1
        // is G+1 ticks in the past is maximal.
        let owners: Vec<ObjectId> = self.owners.keys().copied().collect();
        for owner in owners {
            let state = self.owners.get_mut(&owner).unwrap();
            let due: Vec<u32> = state.closures.range(..=t).map(|(&d, _)| d).collect();
            for d in due {
                for member in state.closures.remove(&d).unwrap() {
                    let still_stale = state.open.get(&member).is_some_and(|o| o.last_one + g < t);
                    if still_stale {
                        let closed = state.open.remove(&member).unwrap();
                        Self::close_string(member, closed, &self.config, state, &mut out, owner);
                    }
                }
            }
            if let Some(r) = self.retention {
                state.candidates.retain(|c| c.et.saturating_add(r) >= t);
            }
        }
        out
    }

    fn open_new(state: &mut OwnerState, member: ObjectId, t: u32, g: u32) {
        let mut bits = BitString::zeros(0);
        bits.push(true);
        state.open.insert(
            member,
            OpenString {
                st: t,
                last_one: t,
                bits,
            },
        );
        state.closures.entry(t + g + 1).or_default().push(member);
    }

    /// Lemma 7 closure: the string's content is final. If its maximal time
    /// sequence satisfies `(K, L, G)`, it becomes a candidate and is
    /// enumerated against the overlapping candidates; otherwise it is
    /// dropped (Algorithm 5, tag = −1).
    fn close_string(
        member: ObjectId,
        open: OpenString,
        config: &EngineConfig,
        state: &mut OwnerState,
        out: &mut Vec<Pattern>,
        owner: ObjectId,
    ) {
        let c = &config.constraints;
        // The stored bits end at the last 1 (lazy zero-padding never adds
        // trailing zeros), so no trimming is needed.
        debug_assert!(open.bits.get(open.bits.len() - 1));
        if !open
            .bits
            .satisfies_klg(c.k(), c.l(), c.g(), config.semantics)
        {
            return;
        }
        let cand = Candidate {
            member,
            st: open.st,
            et: open.last_one,
            bits: open.bits,
        };
        out.extend(Self::enumerate_with(&cand, state, config, owner));
        state.candidates.push(cand);
    }

    /// Enumerates every valid pattern containing the newly closed candidate
    /// (plus the owner), apriori-style over the Lemma-8-filtered overlap
    /// list.
    fn enumerate_with(
        cand: &Candidate,
        state: &OwnerState,
        config: &EngineConfig,
        owner: ObjectId,
    ) -> Vec<Pattern> {
        let c = &config.constraints;
        let k = c.k();
        // Lemma 8 (length form): candidates must overlap cand on ≥ K times.
        let pool: Vec<&Candidate> = state
            .candidates
            .iter()
            .filter(|o| {
                o.member != cand.member && overlap_len(o.st, o.et, cand.st, cand.et) >= k as u32
            })
            .collect();

        let need = c.m() - 1; // owner is implicit
        let mut out = Vec::new();
        if need == 0 {
            return out;
        }

        // Base: {cand} alone (cardinality 1).
        let base_sets: Vec<Vec<usize>> = combinations(pool.len(), need - 1);
        let mut level: Vec<(Vec<usize>, u32, u32, BitString)> = Vec::new();
        for set in base_sets {
            if let Some(merged) = merge(cand, &set, &pool, k) {
                level.push((set, merged.0, merged.1, merged.2));
            }
        }

        while !level.is_empty() {
            let mut next = Vec::new();
            for (set, st, et, bits) in level {
                let Some(witness) = bits.witness(k, c.l(), c.g(), config.semantics) else {
                    continue;
                };
                let mut objects: Vec<ObjectId> = set.iter().map(|&i| pool[i].member).collect();
                objects.push(cand.member);
                objects.push(owner);
                let times = TimeSequence::from_raw(witness.into_iter().map(|j| st + j))
                    .expect("witness offsets are strictly increasing");
                out.push(Pattern::new(objects, times));

                let from = set.last().map_or(0, |&i| i + 1);
                for (ext, cand_ext) in pool.iter().enumerate().skip(from) {
                    let mut ext_set = set.clone();
                    ext_set.push(ext);
                    if let Some(merged) = merge_one(st, et, &bits, cand_ext, k) {
                        next.push((ext_set, merged.0, merged.1, merged.2));
                    }
                }
            }
            level = next;
        }
        out
    }
}

/// Validates and decodes one episode's checkpoint bits.
fn decode_episode_bits(
    owner: ObjectId,
    ep: &EpisodeCheckpoint,
) -> Result<BitString, CheckpointError> {
    let span = ep
        .et
        .checked_sub(ep.st)
        .map(|d| d as usize + 1)
        .ok_or_else(|| {
            CheckpointError::Invalid(format!(
                "episode ({owner},{}) ends at {} before it starts at {}",
                ep.member, ep.et, ep.st
            ))
        })?;
    if ep.bits.len() != span {
        return Err(CheckpointError::Invalid(format!(
            "episode ({owner},{}) spans {span} ticks but carries {} bits",
            ep.member,
            ep.bits.len()
        )));
    }
    if !ep.bits.starts_with('1') || !ep.bits.ends_with('1') {
        return Err(CheckpointError::Invalid(format!(
            "episode ({owner},{}) bits must start and end with 1, got `{}`",
            ep.member, ep.bits
        )));
    }
    if ep.bits.bytes().any(|b| b != b'0' && b != b'1') {
        return Err(CheckpointError::Invalid(format!(
            "episode ({owner},{}) bits contain non-binary characters",
            ep.member
        )));
    }
    Ok(BitString::from_str01(&ep.bits))
}

/// Overlap length of two closed intervals (0 when disjoint).
fn overlap_len(st1: u32, et1: u32, st2: u32, et2: u32) -> u32 {
    let st = st1.max(st2);
    let et = et1.min(et2);
    (et + 1).saturating_sub(st)
}

/// All size-`k` index combinations of `0..n`.
fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut combo = Vec::new();
    fn rec(n: usize, k: usize, from: usize, combo: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if combo.len() == k {
            out.push(combo.clone());
            return;
        }
        for i in from..n {
            if n - i < k - combo.len() {
                break;
            }
            combo.push(i);
            rec(n, k, i + 1, combo, out);
            combo.pop();
        }
    }
    rec(n, k, 0, &mut combo, &mut out);
    out
}

/// Intersects `cand` with the candidates at `set`, returning the combined
/// `(st, et, bits)` over the common overlap, or `None` if the overlap
/// shrinks below `k` (Lemma 8 applied per merge step).
fn merge(
    cand: &Candidate,
    set: &[usize],
    pool: &[&Candidate],
    k: usize,
) -> Option<(u32, u32, BitString)> {
    let mut st = cand.st;
    let mut et = cand.et;
    let mut bits = cand.bits.clone();
    for &i in set {
        let (nst, net, nbits) = merge_one(st, et, &bits, pool[i], k)?;
        st = nst;
        et = net;
        bits = nbits;
    }
    Some((st, et, bits))
}

/// One AND step over the overlap of `[st, et]` and `other`'s episode.
fn merge_one(
    st: u32,
    et: u32,
    bits: &BitString,
    other: &Candidate,
    k: usize,
) -> Option<(u32, u32, BitString)> {
    let nst = st.max(other.st);
    let net = et.min(other.et);
    if overlap_len(st, et, other.st, other.et) < k as u32 {
        return None;
    }
    let len = (net - nst + 1) as usize;
    let mut out = BitString::zeros(len);
    for j in 0..len {
        let t = nst + j as u32;
        if bits.get((t - st) as usize) && other.bits.get((t - other.st) as usize) {
            out.set(j);
        }
    }
    Some((nst, net, out))
}

impl PatternEngine for VbaEngine {
    fn name(&self) -> &'static str {
        "VBA"
    }

    fn significance(&self) -> usize {
        self.config.constraints.m()
    }

    fn push_partitions(&mut self, time: Timestamp, partitions: Vec<Partition>) -> Vec<Pattern> {
        self.tick(time, partitions)
    }

    fn finish(&mut self) -> Vec<Pattern> {
        let mut out = Vec::new();
        let owners: Vec<ObjectId> = self.owners.keys().copied().collect();
        for owner in owners {
            let state = self.owners.get_mut(&owner).unwrap();
            let members: Vec<ObjectId> = state.open.keys().copied().collect();
            for member in members {
                let open = state.open.remove(&member).unwrap();
                Self::close_string(member, open, &self.config, state, &mut out, owner);
            }
            state.closures.clear();
        }
        out
    }

    fn checkpoint(&self) -> EngineCheckpoint {
        let mut vba_owners: Vec<VbaOwnerCheckpoint> = self
            .owners
            .iter()
            .map(|(&owner, state)| {
                let mut open: Vec<EpisodeCheckpoint> = state
                    .open
                    .iter()
                    .map(|(&member, s)| EpisodeCheckpoint {
                        member,
                        st: s.st,
                        et: s.last_one,
                        bits: s.bits.to_str01(),
                    })
                    .collect();
                open.sort_by_key(|e| e.member);
                // Candidate order is deterministic (single-threaded
                // insertion) and affects enumeration sequencing: preserve
                // it instead of sorting.
                let candidates: Vec<EpisodeCheckpoint> = state
                    .candidates
                    .iter()
                    .map(|c| EpisodeCheckpoint {
                        member: c.member,
                        st: c.st,
                        et: c.et,
                        bits: c.bits.to_str01(),
                    })
                    .collect();
                VbaOwnerCheckpoint {
                    owner,
                    open,
                    candidates,
                }
            })
            .collect();
        vba_owners.sort_by_key(|o| o.owner);
        EngineCheckpoint {
            kind: "VBA".into(),
            last_time: self.last_time,
            skipped_partitions: 0,
            window_owners: Vec::new(),
            vba_owners,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::unique_object_sets;
    use icpe_types::{ClusterSnapshot, Constraints, Timestamp};

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

    fn run_stream(engine: &mut VbaEngine, stream: &[ClusterSnapshot]) -> Vec<Pattern> {
        let mut out = Vec::new();
        for s in stream {
            out.extend(engine.push(s));
        }
        out.extend(engine.finish());
        out
    }

    #[test]
    fn overlap_len_cases() {
        assert_eq!(overlap_len(0, 5, 3, 9), 3); // [3,5]
        assert_eq!(overlap_len(0, 5, 6, 9), 0);
        assert_eq!(overlap_len(2, 2, 2, 2), 1);
        assert_eq!(overlap_len(0, 9, 3, 4), 2);
    }

    #[test]
    fn detects_persistent_group() {
        let c = Constraints::new(3, 4, 2, 2).unwrap();
        let mut engine = VbaEngine::new(EngineConfig::new(c));
        let stream: Vec<ClusterSnapshot> = (0..8).map(|t| cs(t, &[&[1, 2, 3]])).collect();
        let patterns = run_stream(&mut engine, &stream);
        let sets = unique_object_sets(&patterns);
        assert!(sets.contains(&vec![oid(1), oid(2), oid(3)]), "{sets:?}");
        for p in &patterns {
            assert!(p.satisfies(&c));
        }
    }

    #[test]
    fn paper_fig9_maximal_sequences() {
        // Subtask of o4: B[o5] = ⟨2,8,1111111⟩, B[o6] = ⟨3,8,110111⟩,
        // B[o7] = ⟨3,8,110011⟩; nothing co-clusters after time 8, so all
        // three close as maximal candidates. As in the FBA test, o7's bit
        // string needs G = 3 under a strict Definition 3 (the paper's
        // figure uses G = 2; see DESIGN.md).
        let mut stream = Vec::new();
        for t in 2u32..=8 {
            let mut cluster = vec![4u32];
            // o5: with o4 at times 2..=8.
            cluster.push(5);
            // o6: bits 110111 over 3..=8 → times 3,4,6,7,8.
            if [3, 4, 6, 7, 8].contains(&t) {
                cluster.push(6);
            }
            // o7: bits 110011 over 3..=8 → times 3,4,7,8.
            if [3, 4, 7, 8].contains(&t) {
                cluster.push(7);
            }
            stream.push(cs(t, &[&cluster]));
        }
        // Quiet period to trigger Lemma-7 closures (G+1 = 4 empty ticks).
        for t in 9u32..=14 {
            stream.push(cs(t, &[]));
        }
        let c = Constraints::new(2, 4, 2, 3).unwrap();
        let mut engine = VbaEngine::new(EngineConfig::new(c));
        let mut mid_patterns = Vec::new();
        for s in &stream {
            mid_patterns.extend(engine.push(s));
        }
        // Closures fire during the quiet period, *before* finish().
        let sets = unique_object_sets(&mid_patterns);
        assert!(sets.contains(&vec![oid(4), oid(5)]), "{sets:?}");
        assert!(sets.contains(&vec![oid(4), oid(6)]), "{sets:?}");
        assert!(sets.contains(&vec![oid(4), oid(7)]), "{sets:?}");
        assert!(sets.contains(&vec![oid(4), oid(5), oid(6)]), "{sets:?}");
        // {o4,o5,o6,o7}: B[O] = 110011 over 3..=8 → valid (K=4,L=2,G=2).
        assert!(
            sets.contains(&vec![oid(4), oid(5), oid(6), oid(7)]),
            "{sets:?}"
        );
    }

    #[test]
    fn simultaneous_closures_still_combine() {
        // Both members end their episodes at the same tick; the paper's
        // literal Cl handling would miss the pair. We must not.
        let c = Constraints::new(3, 4, 2, 2).unwrap();
        let mut engine = VbaEngine::new(EngineConfig::new(c));
        let mut stream: Vec<ClusterSnapshot> = (0..6).map(|t| cs(t, &[&[1, 2, 3]])).collect();
        for t in 6..12 {
            stream.push(cs(t, &[]));
        }
        let sets = unique_object_sets(&run_stream(&mut engine, &stream));
        assert!(sets.contains(&vec![oid(1), oid(2), oid(3)]), "{sets:?}");
    }

    #[test]
    fn episodes_split_by_long_gaps() {
        // Together 0..=3, apart 4..=9 (gap > G), together again 10..=13:
        // two separate episodes, each valid on its own; no pattern spans.
        let c = Constraints::new(2, 4, 2, 2).unwrap();
        let mut engine = VbaEngine::new(EngineConfig::new(c));
        let mut stream = Vec::new();
        for t in 0..14u32 {
            let together = t <= 3 || t >= 10;
            stream.push(if together {
                cs(t, &[&[1, 2]])
            } else {
                cs(t, &[])
            });
        }
        let patterns = run_stream(&mut engine, &stream);
        assert!(patterns.len() >= 2);
        for p in &patterns {
            assert!(p.satisfies(&c));
            let all_early = p.times.times().iter().all(|t| t.0 <= 3);
            let all_late = p.times.times().iter().all(|t| t.0 >= 10);
            assert!(all_early || all_late, "pattern spans the gap: {p}");
        }
    }

    #[test]
    fn retention_bounds_candidate_list() {
        let c = Constraints::new(2, 2, 1, 1).unwrap();
        let mut engine = VbaEngine::new(EngineConfig::new(c)).with_retention(5);
        for t in 0..100u32 {
            // A fresh pair every 10 ticks, each lasting 2 ticks.
            let a = (t / 10) * 2 + 100;
            let together = t % 10 < 2;
            let snap = if together {
                cs(t, &[&[1, a]])
            } else {
                cs(t, &[])
            };
            engine.push(&snap);
        }
        let state = engine.owners.get(&oid(1)).unwrap();
        assert!(
            state.candidates.len() <= 3,
            "retention failed: {} candidates",
            state.candidates.len()
        );
    }

    #[test]
    fn no_duplicate_simultaneous_pairing() {
        // Regression guard: when two strings close in one tick, the pair
        // must be reported but not twice.
        let c = Constraints::new(2, 4, 2, 2).unwrap();
        let mut engine = VbaEngine::new(EngineConfig::new(c));
        let mut stream: Vec<ClusterSnapshot> = (0..5).map(|t| cs(t, &[&[1, 2, 3]])).collect();
        for t in 5..10 {
            stream.push(cs(t, &[]));
        }
        let patterns = run_stream(&mut engine, &stream);
        let pair_count = patterns
            .iter()
            .filter(|p| p.objects == vec![oid(1), oid(2)])
            .count();
        assert_eq!(pair_count, 1, "{patterns:?}");
    }
}
